"""Experiment runner rows/checks, trace emission, and the CLI contract."""

import collections
import dataclasses

import numpy as np
import pytest

from wptsec import cli, protocol
from wptsec.cli import CSV_COLUMNS, format_csv, main, point_seed, run_experiment
from wptsec.config import (
    build_monitor,
    build_node,
    build_scenario,
    build_tables,
    load_config,
    load_preset,
)
from wptsec.protocol import Attacker, run_session
from wptsec.monitor import decode_trace, measure_levels
from wptsec.waveform import read_trace

POWER_SWEEP = (
    "setup=anechoic\n"
    "protocol.enabled=false\n"
    "sweep.param=channel.p_tx_dbm\n"
    "sweep.values=-15,-12,-9,-6,-3,0,3,6,9,12,15,18,21,24\n"
)
MOD_SWEEP = (
    "setup=wired\n"
    "sweep.param=waveform.bit_rate_hz\n"
    "sweep.values=1000,10000,100000\n"
)
# the config keys a failed rectifier and a failed session timing read
RECT = "channel.gamma_low_db, channel.gamma_high_db, channel.efficiency_curve"
TIMING = "protocol.dt_s, protocol.max_time_s"


def written_trace(tmp_path, config_text, name="trace.txt"):
    """The trace file that ``wptsec run --trace-out`` writes for config_text, read back."""
    cfg_path, trace_path = tmp_path / "exp.cfg", tmp_path / name
    cfg_path.write_text(config_text)
    out_csv = tmp_path / "out.csv"
    main(["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)])
    return read_trace(trace_path)


class TestRunExperiment:
    def test_single_anechoic_session_row(self):
        rows, summary = run_experiment(load_preset("anechoic"))
        assert len(rows) == 1
        row = rows[0]
        assert row["verdict"] == "accepted"
        assert row["ber"] == 0.0
        assert row["status"] == "decoded"
        assert row["dr_db"] > 10
        assert summary.all_passed

    def test_power_sweep_rows_and_check(self):
        rows, summary = run_experiment(load_config(POWER_SWEEP))
        assert len(rows) == 14
        values = [r["sweep_value"] for r in rows]
        assert values == sorted(values)
        drs = [r["dr_db"] for r in rows]
        assert max(drs) - min(drs) <= 1.5
        names = {c.name: c.passed for c in summary.checks}
        assert names["dr_spread_le_1.5db"] is True
        assert summary.all_passed

    def test_modulation_sweep_check(self):
        rows, summary = run_experiment(load_config(MOD_SWEEP))
        drs = [r["dr_db"] for r in rows]
        assert max(drs) - min(drs) <= 0.1
        assert any(c.name == "dr_spread_le_0.1db" and c.passed for c in summary.checks)

    def test_failed_point_recorded_as_row(self):
        # load_config rejects a 150 kHz sweep value, so the config is built
        # directly to reach a point that fails at run time
        cfg = dataclasses.replace(
            load_config("setup=wired\nsweep.param=waveform.bit_rate_hz\nsweep.values=1000\n"),
            sweep_values=(1000.0, 150000.0),
        )
        rows, summary = run_experiment(cfg)
        assert len(rows) == 2
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "error:BitRateTooHigh"
        assert not summary.all_passed

    def test_node_that_never_woke_has_empty_levels(self):
        cfg = "setup=anechoic\nsweep.param=channel.p_tx_dbm\nsweep.values=-15,15\n"
        rows, summary = run_experiment(load_config(cfg))
        assert rows[0]["status"] == "wake_timeout"
        assert rows[0]["dr_db"] is None and rows[0]["threshold_dbm"] is None
        assert format_csv(rows).splitlines()[1].startswith("channel.p_tx_dbm,-15.0,,,")
        assert rows[1]["status"] == "decoded"
        # only the measured point enters the spread; the timeout still fails
        # the verdict check, because that node did not authenticate
        checks = {c.name: c for c in summary.checks}
        assert checks["dr_spread_le_1.5db"].detail.endswith("over 1 points, limit 1.5 dB")
        assert checks["dr_spread_le_1.5db"].passed
        assert not checks["verdict_accepted"].passed

    def test_zero_max_time_is_a_wake_timeout_row(self):
        # the config accepts the horizon run_session accepts; it used to be
        # a config error
        (row,), _ = run_experiment(load_config("setup=anechoic\nprotocol.max_time_s=0\n"))
        assert row["status"] == "wake_timeout" and row["verdict"] == "rejected_no_signal"

    def test_replay_attacker_scenario_check(self):
        rows, summary = run_experiment(load_config("setup=anechoic\nprotocol.attacker=replay"))
        assert rows[0]["verdict"] == "rejected_replay"
        assert any(c.name == "replay_rejected" and c.passed for c in summary.checks)
        assert summary.all_passed

    def test_probe_point_clusters_once(self, clustering_calls):
        rows, _ = run_experiment(load_preset("wired"))
        assert len(clustering_calls) == 1
        threshold_dbm, dr_db = measure_levels(clustering_calls[0])
        assert rows[0]["threshold_dbm"] == threshold_dbm
        assert rows[0]["dr_db"] == dr_db

    def test_int_sweep_rows_carry_the_applied_int(self):
        # each row is labelled with the value the point ran at: the int an
        # int key was set to, and the float of a float key
        cfg = "setup=wired\nsweep.param=waveform.oversampling\nsweep.values=16,8\n"
        rows, _ = run_experiment(load_config(cfg))
        assert [r["sweep_value"] for r in rows] == [8, 16]
        assert all(type(r["sweep_value"]) is int for r in rows)
        cells = [line.split(",")[:2] for line in format_csv(rows).splitlines()[1:]]
        assert cells == [["waveform.oversampling", "8"], ["waveform.oversampling", "16"]]
        rows, _ = run_experiment(load_config(MOD_SWEEP))
        assert [type(r["sweep_value"]) for r in rows] == [float] * 3

    def test_rows_deterministic_per_seed(self):
        cfg = load_config(POWER_SWEEP + "seed=12\n")
        rows_a, _ = run_experiment(cfg)
        rows_b, _ = run_experiment(cfg)
        assert format_csv(rows_a) == format_csv(rows_b)
        rows_c, _ = run_experiment(load_config(POWER_SWEEP + "seed=13\n"))
        assert format_csv(rows_a) != format_csv(rows_c)


class TestCsv:
    def test_header_schema(self):
        assert CSV_COLUMNS == (
            "sweep_param",
            "sweep_value",
            "dr_db",
            "threshold_dbm",
            "verdict",
            "ber",
            "stored_energy_j",
            "status",
            "seed",
        )
        rows, _ = run_experiment(load_preset("wired"))
        text = format_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert len(text.splitlines()) == 2

    def test_empty_cells_for_non_session_rows(self):
        rows, _ = run_experiment(load_preset("wired"))
        line = format_csv(rows).splitlines()[1]
        cells = line.split(",")
        assert cells[CSV_COLUMNS.index("verdict")] == ""
        assert cells[CSV_COLUMNS.index("stored_energy_j")] == ""


class TestEmitTrace:
    def test_wired_level_periods(self, tmp_path):
        trace = written_trace(tmp_path, "setup=wired\n")
        # 100 kHz modulation at 16x oversampling: each level lasts 10 us
        assert trace.sample_rate_hz == 1.6e6
        mid = np.median(trace.samples)
        levels = trace.samples > mid
        runs = np.diff(np.flatnonzero(np.diff(levels.astype(int)) != 0))
        assert np.all(runs == 16)

    def test_zero_noise_two_values(self, tmp_path):
        trace = written_trace(tmp_path, "setup=wired\nchannel.noise_power_dbm=-inf")
        assert np.unique(trace.samples).size == 2

    def test_deterministic_bytes(self, tmp_path):
        written_trace(tmp_path, "setup=anechoic\n", "a.txt")
        written_trace(tmp_path, "setup=anechoic\n", "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_emitted_frame_decodes(self, tmp_path):
        cfg = load_preset("anechoic")
        result = decode_trace(written_trace(tmp_path, "setup=anechoic\n"), cfg.bit_rate_hz)
        assert result.status == "decoded"
        assert len(result.payload) == cfg.key_len_bytes

    @pytest.mark.parametrize("probe_bits", [2, 3, 64, 6251])
    def test_probe_bits_alternate_from_high(self, tmp_path, probe_bits):
        text = f"setup=wired\nchannel.noise_power_dbm=-inf\nwaveform.probe_bits={probe_bits}"
        cfg = load_config(text)
        trace = written_trace(tmp_path, text)
        assert len(trace) == probe_bits * cfg.oversampling
        # noise-free, the first sample of each bit is the bit's level
        bits = trace.samples[:: cfg.oversampling] == trace.samples.max()
        want = np.resize(np.array([True, False]), probe_bits)
        assert np.array_equal(bits, want)

    @pytest.mark.parametrize("attacker", ["none", "replay"])
    @pytest.mark.parametrize("key_policy", ["sequential", "random"])
    def test_matches_first_session_trace(self, tmp_path, key_policy, attacker):
        # the CLI trace is the first session's own trace, whichever key the
        # policy drew
        text = (
            f"setup=anechoic\nprotocol.n_keys=64\nprotocol.key_policy={key_policy}\n"
            f"protocol.attacker={attacker}"
        )
        cfg = load_config(text)
        node_table, monitor_table = build_tables(cfg)
        log = run_session(
            build_scenario(cfg, noise_seed=point_seed(cfg.seed, 0)),
            build_node(cfg, node_table),
            Attacker(kind=attacker),
            build_monitor(cfg, monitor_table),
            dt_s=cfg.dt_s,
            max_time_s=cfg.max_time_s,
            key_policy=key_policy,
        )
        assert (log.emitted_key_index == 0) == (key_policy == "sequential")
        trace = written_trace(tmp_path, text)
        assert trace.sample_rate_hz == log.trace.sample_rate_hz
        assert trace.meta == log.trace.meta == cfg.setup
        assert np.array_equal(trace.samples, log.trace.samples)

    @pytest.mark.parametrize("protocol", ["true", "false"])
    def test_sweep_trace_is_the_first_rows_own(self, tmp_path, protocol):
        # the first row is the lowest sweep value at point_seed(seed, 0); the
        # trace measures to exactly that row's cells, whichever mode it runs
        text = (
            f"setup=anechoic\nprotocol.enabled={protocol}\n"
            "sweep.param=channel.p_tx_dbm\nsweep.values=24,20\n"
        )
        cfg = load_config(text)
        rows, _ = run_experiment(cfg)
        assert rows[0]["sweep_value"] == 20.0
        trace = written_trace(tmp_path, text)
        if protocol == "true":
            result = decode_trace(trace, cfg.bit_rate_hz)
            assert result.status == rows[0]["status"] == "decoded"
            levels = (result.threshold_dbm, result.measured_dr_db)
        else:
            levels = measure_levels(trace)
        assert levels == (rows[0]["threshold_dbm"], rows[0]["dr_db"])

    def test_sweep_whose_first_node_never_woke_writes_no_trace(self, tmp_path, capsys):
        # -15 dBm never wakes the node: the first row has no trace to write,
        # although a later row decodes
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(
            "setup=anechoic\nsweep.param=channel.p_tx_dbm\nsweep.values=15,-15\n"
        )
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 1
        lines = out_csv.read_text().splitlines()
        assert ",wake_timeout," in lines[1] and ",decoded," in lines[2]
        assert not trace_path.exists()
        assert "check trace_out: FAIL (not written: EmptyTrace: the node never woke" in (
            capsys.readouterr().err
        )


class TestMain:
    def test_list_presets(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "anechoic" in out and "wired" in out

    def test_run_preset_exit_zero(self, tmp_path, capsys):
        out_csv = tmp_path / "out.csv"
        code = main(["run", "--preset", "anechoic", "--out", str(out_csv)])
        assert code == 0
        assert out_csv.read_text().startswith(",".join(CSV_COLUMNS))
        assert "check verdict_accepted: pass" in capsys.readouterr().err

    def test_run_config_file_with_trace(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(POWER_SWEEP)
        out_csv = tmp_path / "out.csv"
        trace_path = tmp_path / "trace.txt"
        code = main(
            ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        )
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 15
        assert read_trace(trace_path).sample_rate_hz == 320e3

    def test_stdout_csv(self, capsys):
        code = main(["run", "--preset", "wired"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(",".join(CSV_COLUMNS))

    def test_exit_one_on_failed_check(self, tmp_path):
        # 300 distinct 1-byte keys overflow the table at run time, so the
        # second point becomes an error row and the no_errors check fails
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            "setup=anechoic\nprotocol.key_len_bytes=1\n"
            "sweep.param=protocol.n_keys\nsweep.values=16,300\n"
        )
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1

    def test_unrenderable_trace_is_a_failed_check(self, tmp_path, capsys):
        # the table overflow that makes the session an error row also stops
        # the trace: the run still writes its CSV and exits 1, not 2
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("setup=anechoic\nprotocol.n_keys=300\nprotocol.key_len_bytes=1\n")
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 1
        assert ",error:TableCapacityError," in out_csv.read_text().splitlines()[1]
        assert not trace_path.exists()
        err = capsys.readouterr().err
        assert "check no_errors: FAIL" in err
        assert "check trace_out: FAIL (not written: TableCapacityError: 300 distinct keys" in err
        # an I/O error on a renderable trace is still exit 2, before any CSV
        missing_dir = str(tmp_path / "missing" / "t.txt")
        unwritten = tmp_path / "unwritten.csv"
        argv = ["run", "--preset", "wired", "--out", str(unwritten), "--trace-out", missing_dir]
        assert main(argv) == 2
        assert not unwritten.exists()

    def test_never_woke_trace_is_a_failed_check(self, tmp_path, capsys):
        # a node that never woke sent no frame, so there is no trace to write;
        # the CSV is the same as without --trace-out
        cfg_path = tmp_path / "dark.cfg"
        cfg_path.write_text("setup=anechoic\nchannel.p_tx_dbm=-15\n")
        plain, with_trace = tmp_path / "a.csv", tmp_path / "b.csv"
        trace_path = tmp_path / "t.txt"
        assert main(["run", str(cfg_path), "--out", str(plain)]) == 1
        assert "trace_out" not in capsys.readouterr().err
        argv = ["run", str(cfg_path), "--out", str(with_trace), "--trace-out", str(trace_path)]
        assert main(argv) == 1
        assert with_trace.read_bytes() == plain.read_bytes()
        assert ",wake_timeout," in plain.read_text()
        assert not trace_path.exists()
        assert "check trace_out: FAIL (not written: EmptyTrace: the node never woke" in (
            capsys.readouterr().err
        )

    def test_error_row_with_trace_out_is_a_failed_check(self, tmp_path, capsys):
        # a first point that raises is the same error row with --trace-out,
        # and the trace check names its exception instead of a crash; a
        # frame that costs more than the storage holds makes every point raise
        cfg_path = tmp_path / "costly.cfg"
        cfg_path.write_text("setup=anechoic\nprotocol.tx_cost_j_per_bit=1\n")
        plain, with_trace = tmp_path / "a.csv", tmp_path / "b.csv"
        trace_path = tmp_path / "t.txt"
        assert main(["run", str(cfg_path), "--out", str(plain)]) == 1
        assert "trace_out" not in capsys.readouterr().err
        argv = ["run", str(cfg_path), "--out", str(with_trace), "--trace-out", str(trace_path)]
        assert main(argv) == 1
        assert with_trace.read_bytes() == plain.read_bytes()
        assert ",error:ValueError," in plain.read_text()
        assert not trace_path.exists()
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("check trace_out: FAIL (not written: ValueError: frame cost ")

    def test_non_integral_sample_rate_is_a_failed_check(self, tmp_path, capsys):
        # 1000.3 Hz at 16x is a 16,004.8 Hz trace, which the file format
        # cannot hold; the row itself is measured and written
        cfg_path = tmp_path / "odd.cfg"
        cfg_path.write_text("setup=wired\nwaveform.bit_rate_hz=1000.3\n")
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 1
        assert ",ok," in out_csv.read_text().splitlines()[1]
        assert not trace_path.exists()
        assert (
            "check trace_out: FAIL (not written: ValueError: sample rate must be integral"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("setup=wired\nprotocol.n_keys=5\n", "protocol.n_keys: not applicable"),
            ("setup=anechoic\nwaveform.probe_bits=128\n", "waveform.probe_bits: not applicable"),
            (
                "setup=wired\nsweep.param=protocol.n_keys\nsweep.values=1,2,300\n",
                "sweep.param: 'protocol.n_keys' not applicable",
            ),
            (
                "setup=anechoic\nsweep.param=waveform.probe_bits\nsweep.values=64,128\n",
                "sweep.param: 'waveform.probe_bits' not applicable",
            ),
        ],
    )
    def test_exit_two_on_key_the_mode_never_reads(self, tmp_path, capsys, text, problem):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 2
        assert not out_csv.exists() and not trace_path.exists()
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, problem",
        [
            (
                "setup=anechoic\nprotocol.max_time_s=inf\n",
                "protocol.dt_s, protocol.max_time_s: max_time_s must be >= 0 and finite",
            ),
            (
                "setup=anechoic\nprotocol.dt_s=inf\n",
                "protocol.dt_s, protocol.max_time_s: dt_s must be > 0 and finite",
            ),
            ("setup=wired\nchannel.p_tx_dbm=1e300\n", "channel: 1e+300 dBm is not a finite power"),
            (
                "setup=wired\nsweep.param=channel.noise_power_dbm\nsweep.values=-90,1e300\n",
                "sweep.values: 1e+300: channel.noise_power_dbm: 1e+300 dBm is not a finite power",
            ),
        ],
    )
    def test_exit_two_on_value_every_point_would_fail_on(self, tmp_path, capsys, text, problem):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 2
        assert not out_csv.exists() and not trace_path.exists()
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("channel.gamma_high_db = 1", f"{RECT}: reflection coefficients must be <= 0 dB"),
            (
                "channel.gamma_low_db = -1\nchannel.gamma_high_db = -2",
                f"{RECT}: gamma_high_db (-2.0) must be >= gamma_low_db (-1.0)",
            ),
            (
                "channel.efficiency_curve = 0:0.5;-10:0.2",
                f"{RECT}: efficiency_curve must be strictly increasing",
            ),
            ("channel.efficiency_curve = 0:1.5", f"{RECT}: efficiency 1.5 outside [0, 1]"),
            (
                "channel.gain_src_dbi = inf",
                "channel.gain_src_dbi: gain_dbi must be finite, got inf",
            ),
            ("channel.coupling_floor_dbm = 1e300", "channel: 1e+300 dBm is not a finite power"),
            ("channel.coupling_ref_tx_dbm = -1e300", "channel: 1e+300 dBm is not a finite power"),
            ("channel.gain_mon_dbi = 1e300", "channel: 1e+300 dBm is not a finite power"),
            ("channel.gamma_high_db = -1e300", f"{RECT}: gamma_high_db (-1e+300) must be >="),
            (
                "channel.frequency_hz = inf",
                "channel.distance_dl_m, channel.frequency_hz: frequency_hz must be finite and > 0",
            ),
            ("channel.distance_dl_m = 0.1", "channel: distance 0.1 m is inside one wavelength"),
            ("protocol.dt_s = 1e-320", f"{TIMING}: max_time_s / dt_s must be finite"),
            ("protocol.max_time_s = 1e305", f"{TIMING}: max_time_s / dt_s must be finite"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:antenna gain")
    def test_exit_two_on_a_link_the_model_cannot_build(self, tmp_path, capsys, text, problem):
        # each loaded, then its one point failed at run time (exit 1): as
        # error:ValueError, error:OverflowError, error:ZeroDivisionError
        # (an infinite carrier) or error:NearFieldError
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"setup=anechoic\n{text}\n")
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 2
        assert not out_csv.exists() and not trace_path.exists()
        err = capsys.readouterr().err
        assert f"invalid config:\n  {problem}" in err
        assert "OverflowError" not in err and "division by zero" not in err

    def test_exit_two_on_negative_seed_writes_nothing(self, tmp_path, capsys):
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", "--preset", "anechoic", "--out", str(out_csv), "--trace-out"]
        assert main(argv + [str(trace_path), "--seed", "-1"]) == 2
        assert not out_csv.exists() and not trace_path.exists()
        assert "seed: must be >= 0" in capsys.readouterr().err

    def test_exit_two_on_bad_sweep_value_writes_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            "setup=wired\nsweep.param=waveform.oversampling\nsweep.values=16,16.9,4\n"
        )
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 2
        assert not out_csv.exists() and not trace_path.exists()
        err = capsys.readouterr().err
        assert "sweep.values: 16.9: waveform.oversampling: must be an integer" in err
        assert "sweep.values: 4: waveform.oversampling: sample rate 400000.0 Hz below 8x" in err

    def test_exit_two_on_negative_isolation_writes_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            "setup=wired\nsweep.param=channel.circulator_isolation_db\nsweep.values=-5,10\n"
        )
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 2
        assert not out_csv.exists() and not trace_path.exists()
        assert (
            "sweep.values: -5.0: channel.circulator_isolation_db: "
            "circulator_isolation_db must be >= 0" in capsys.readouterr().err
        )

    def test_exit_two_on_negative_distance_writes_nothing(self, tmp_path, capsys):
        # it used to load, and every point failed as an error:ValueError row
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            "setup=anechoic\nprotocol.enabled=false\nchannel.distance_ul_m=-1\n"
            "sweep.param=channel.p_tx_dbm\nsweep.values=0,15\n"
        )
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 2
        assert not out_csv.exists() and not trace_path.exists()
        # named once, under the hop's keys, not once per sweep point: the
        # hop that failed does not read the swept key
        err = capsys.readouterr().err
        assert err.count("distance_m must be finite and > 0") == 1
        assert (
            "channel.distance_ul_m, channel.frequency_hz: "
            "distance_m must be finite and > 0, got -1.0" in err
        )

    def test_exit_two_on_sweep_over_inapplicable_key_writes_nothing(self, tmp_path, capsys):
        # the wired budget reads no hop distance, so every row would be the same
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            "setup=wired\nsweep.param=channel.distance_dl_m\nsweep.values=1,3.4,1e6\n"
        )
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 2
        assert not out_csv.exists() and not trace_path.exists()
        assert (
            "sweep.param: 'channel.distance_dl_m' not applicable when channel.topology = wired"
            in capsys.readouterr().err
        )

    def test_exit_two_on_config_errors(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("setup=wired\nbogus.key=1\n")
        assert main(["run", str(bad)]) == 2
        assert main(["run"]) == 2
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("setup=wired\n")
        assert main(["run", str(cfg), "--preset", "wired"]) == 2
        capsys.readouterr()

    def test_seed_override_changes_output(self, tmp_path):
        base = ["run", "--preset", "wired"]
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(base + ["--out", str(a), "--seed", "1"]) == 0
        assert main(base + ["--out", str(b), "--seed", "1"]) == 0
        assert main(base + ["--out", str(c), "--seed", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestOneRunPerRow:
    @pytest.fixture
    def runs(self, monkeypatch):
        """Calls of run_session and render_envelope, counted wherever they are bound."""
        counts = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "run_session", counting("run_session", cli.run_session))
        render = counting("render_envelope", cli.render_envelope)
        monkeypatch.setattr(cli, "render_envelope", render)
        monkeypatch.setattr(protocol, "render_envelope", render)
        return counts

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "text, want",
        [
            ("setup=anechoic\n", {"run_session": 1, "render_envelope": 1}),
            (POWER_SWEEP, {"render_envelope": 14}),
        ],
        ids=["anechoic", "power_sweep"],
    )
    def test_each_row_runs_once(self, tmp_path, runs, text, want, trace):
        # the trace is the first row's own, so --trace-out adds no run
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]
        if trace:
            argv += ["--trace-out", str(tmp_path / "t.txt")]
        assert main(argv) == 0
        assert runs == want
