"""Experiment runner rows/checks, trace emission, and the CLI contract."""

import collections
import dataclasses
import inspect
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from wptsec import cli, config, protocol
from wptsec.channel import watts_to_dbm
from wptsec.cli import AHEAD_SAMPLES, CSV_COLUMNS, format_csv, main, point_seed, run_experiment
from wptsec.config import (
    build_monitor,
    build_node,
    build_scenario,
    build_tables,
    load_config,
)
from wptsec.errors import ValidationError
from wptsec.protocol import Attacker, run_session
from wptsec.monitor import decode_trace, measure_levels
from wptsec.waveform import read_trace, write_trace

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
# the keys that feed each term of the anechoic and wired link budgets
NODE_INPUT = (
    "channel.p_tx_dbm, channel.frequency_hz, channel.distance_dl_m, "
    "channel.gain_src_dbi, channel.gain_node_dbi"
)
BACKSCATTER = (
    "channel.p_tx_dbm, channel.frequency_hz, channel.distance_dl_m, channel.distance_ul_m, "
    "channel.gain_src_dbi, channel.gain_node_dbi, channel.gain_mon_dbi, "
    "channel.gamma_low_db, channel.gamma_high_db"
)
WIRED_BACKSCATTER = "channel.p_tx_dbm, channel.gamma_low_db, channel.gamma_high_db"
COUPLING = "channel.p_tx_dbm, channel.coupling_floor_dbm, channel.coupling_ref_tx_dbm"


def written_trace(tmp_path, config_text, name="trace.txt"):
    """The trace file that ``wptsec run --trace-out`` writes for config_text, read back."""
    cfg_path, trace_path = tmp_path / "exp.cfg", tmp_path / name
    cfg_path.write_text(config_text)
    out_csv = tmp_path / "out.csv"
    main(["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)])
    return read_trace(trace_path)


class TestRunExperiment:
    def test_single_anechoic_session_row(self):
        rows, summary = run_experiment(load_config("setup=anechoic"))
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
        # a 3100 dBm noise floor loads and renders, but its cluster sums pass
        # the float range in watts; at 3110 dBm the render's own sums pass it,
        # which its overflow check names with no numpy warning (numpy warned
        # twice, and under this suite's RuntimeWarning filter the row read
        # error:RuntimeWarning)
        for protocol_on, ok in (("true", "decoded"), ("false", "ok")):
            cfg = load_config(
                f"setup=anechoic\nprotocol.enabled={protocol_on}\n"
                "sweep.param=channel.noise_power_dbm\nsweep.values=3100,3110,-90\n"
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rows, summary = run_experiment(cfg)
            assert not caught
            statuses = [ok, "error:LevelOverflow", "error:ValueError"]
            assert [r["status"] for r in rows] == statuses
            assert not summary.all_passed

    def test_config_the_load_refuses_is_refused_by_the_run(self):
        # a 150 kHz sweep value used to give an error:BitRateTooHigh row when
        # the config was built past load_config; the run judges its points
        # as the load does
        text = "setup=wired\nsweep.param=waveform.bit_rate_hz\nsweep.values=1000,150000\n"
        with pytest.raises(ValidationError) as refused:
            load_config(text)
        cfg = dataclasses.replace(
            load_config(text.replace(",150000", "")), sweep_values=(1000.0, 150000.0)
        )
        with pytest.raises(ValidationError) as run:
            run_experiment(cfg)
        assert str(run.value) == str(refused.value)
        assert "sweep.values: 150000.0: waveform.bit_rate_hz: bit rate" in str(run.value)

    def test_sweep_with_no_dynamic_range_fails_the_spread_check(self):
        # no node wakes at -15 or -14 dBm, so no row measured a level
        cfg = "setup=anechoic\nsweep.param=channel.p_tx_dbm\nsweep.values=-15,-14\n"
        rows, summary = run_experiment(load_config(cfg))
        assert [r["status"] for r in rows] == ["wake_timeout"] * 2
        spread = {c.name: c for c in summary.checks}["dr_spread_le_1.5db"]
        assert not spread.passed and spread.detail == "no dynamic-range values"

    def test_payload_of_another_length_is_all_errors(self):
        assert cli._payload_ber(b"\x12\x34", b"\x12") == 1.0
        assert cli._payload_ber(b"\x12\x34", b"\x12\x35") == 1 / 16
        assert cli._payload_ber(b"\x12\x34", None) is None

    def test_payload_ber_of_a_64_byte_payload(self):
        # MAX_PAYLOAD_BYTES: every bit flipped, then only the last one
        key = bytes(range(64))
        assert cli._payload_ber(key, bytes(b ^ 0xFF for b in key)) == 1.0
        assert cli._payload_ber(key, key[:-1] + bytes([key[-1] ^ 1])) == 1 / 512

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
        rows, _ = run_experiment(load_config("setup=wired"))
        assert len(clustering_calls) == 1
        threshold_w, dr_db = measure_levels(clustering_calls[0])
        assert rows[0]["threshold_dbm"] == watts_to_dbm(threshold_w)
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
        rows, _ = run_experiment(load_config("setup=wired"))
        text = format_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert len(text.splitlines()) == 2

    def test_empty_cells_for_non_session_rows(self):
        rows, _ = run_experiment(load_config("setup=wired"))
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
        cfg = load_config("setup=anechoic")
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
            build_scenario(cfg).with_noise_seed(point_seed(cfg.seed, 0)),
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
        assert trace.watts.tobytes() == log.trace.watts.tobytes()

    @pytest.mark.parametrize("protocol", ["true", "false"])
    def test_sweep_trace_is_the_first_rows_own(self, tmp_path, protocol, clustering_calls):
        # the first row is the lowest sweep value at point_seed(seed, 0); the
        # file holds, bit for bit, the watts of the trace that row was
        # measured on, whichever mode it runs, so the trace read back gives
        # the row's own figures
        text = (
            f"setup=anechoic\nprotocol.enabled={protocol}\n"
            "sweep.param=channel.p_tx_dbm\nsweep.values=24,20\n"
        )
        cfg = load_config(text)
        rows, _ = run_experiment(cfg)
        assert rows[0]["sweep_value"] == 20.0
        own = clustering_calls[0]
        trace = written_trace(tmp_path, text)
        assert trace.watts.tobytes() == own.watts.tobytes()
        want = (rows[0]["threshold_dbm"], rows[0]["dr_db"])
        if protocol == "true":
            result = decode_trace(trace, cfg.bit_rate_hz)
            assert result == decode_trace(own, cfg.bit_rate_hz)
            assert result.status == rows[0]["status"] == "decoded"
            assert (result.threshold_dbm, result.measured_dr_db) == want
        else:
            threshold_w, dr_db = measure_levels(trace)
            assert (watts_to_dbm(threshold_w), dr_db) == want

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

    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.startswith("usage: wptsec")

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
        # a 1 J/bit frame costs more than the node stores, so the second
        # point becomes an error row and the no_errors check fails
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(
            "setup=anechoic\nsweep.param=protocol.tx_cost_j_per_bit\nsweep.values=1e-9,1\n"
        )
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1

    def test_unrenderable_trace_is_a_failed_check(self, tmp_path, capsys):
        # the frame cost that makes the session an error row also stops the
        # trace: the run still writes its CSV and exits 1, not 2
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("setup=anechoic\nprotocol.tx_cost_j_per_bit=1\n")
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "t.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 1
        assert ",error:ValueError," in out_csv.read_text().splitlines()[1]
        assert not trace_path.exists()
        err = capsys.readouterr().err
        assert "check no_errors: FAIL" in err
        assert "check trace_out: FAIL (not written: ValueError: frame cost 40.0 J exceeds" in err
        # an I/O error on a renderable trace is still exit 2, before any CSV
        missing_dir = str(tmp_path / "missing" / "t.txt")
        unwritten = tmp_path / "unwritten.csv"
        argv = ["run", "--preset", "wired", "--out", str(unwritten), "--trace-out", missing_dir]
        assert main(argv) == 2
        assert not unwritten.exists()

    def test_levels_past_the_float_range_are_an_error_row(self, tmp_path, capsys):
        # a 3100 dBm floor renders a finite trace whose cluster sums pass the
        # float range; the row read nan,nan with a no_sync status
        cfg_path = tmp_path / "loud.cfg"
        cfg_path.write_text("setup=anechoic\nchannel.noise_power_dbm=3100\n")
        out_csv = tmp_path / "o.csv"
        assert main(["run", str(cfg_path), "--out", str(out_csv)]) == 1
        row = out_csv.read_text().splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("status")] == "error:LevelOverflow"
        assert "nan" not in row
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "p_tx_dbm, dr_db, threshold_dbm",
        [
            ("3086", "14.075500035660868", "3080.2421763313605"),
            ("3088", "14.075500035660868", "3082.2421763313605"),
            ("3088.368", "14.075500035660866", "3082.61017633136"),
        ],
    )
    def test_wired_probe_at_the_edge_of_the_float_range_keeps_its_row(
        self, tmp_path, p_tx_dbm, dr_db, threshold_dbm
    ):
        # the probe's 512 high samples sum to within 0.2% of the float range
        # at 3088.368 dBm and past it at 3088.37; these figures are those of
        # the clustering before LevelOverflow existed, and the trace is written
        cfg_path = tmp_path / "hot.cfg"
        cfg_path.write_text(f"setup=wired\nchannel.p_tx_dbm={p_tx_dbm}\n")
        out_csv, trace_path = tmp_path / "o.csv", tmp_path / "trace.txt"
        argv = ["run", str(cfg_path), "--out", str(out_csv), "--trace-out", str(trace_path)]
        assert main(argv) == 0
        row = out_csv.read_text().splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("dr_db")] == dr_db
        assert row[CSV_COLUMNS.index("threshold_dbm")] == threshold_dbm
        assert len(read_trace(trace_path)) == 1024

    def test_harvest_below_one_step_is_a_wake_timeout_row(self, tmp_path):
        # the harvest per step underflows to 0 J; the row was
        # error:ZeroDivisionError
        cfg_path = tmp_path / "faint.cfg"
        cfg_path.write_text("setup=anechoic\nchannel.p_tx_dbm=-3125\n")
        out_csv = tmp_path / "o.csv"
        assert main(["run", str(cfg_path), "--out", str(out_csv)]) == 1
        assert ",rejected_no_signal,,4.58444e-319,wake_timeout," in out_csv.read_text()

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
            (
                "setup=wired\nchannel.p_tx_dbm=1e300\n",
                f"{WIRED_BACKSCATTER}: backscatter level: 1e+300 dBm is not a finite power",
            ),
            # a probe point's link computes the harvest it never reads
            (
                "setup=wired\nchannel.p_tx_dbm=3113\n",
                "channel.p_tx_dbm, channel.efficiency_curve: "
                "harvest: 3113.0 dBm is not a finite power",
            ),
            (
                "setup=anechoic\nprotocol.n_keys=300\nprotocol.key_len_bytes=1\n",
                "protocol.n_keys, protocol.key_len_bytes: "
                "300 distinct keys of 1 bytes exceed the 256-code space",
            ),
            (
                "setup=anechoic\nsweep.param=waveform.oversampling\nsweep.values=16,1.7e308\n",
                "waveform.oversampling: sample rate must be finite, got inf",
            ),
            (
                "setup=wired\nsweep.param=channel.noise_power_dbm\nsweep.values=-90,1e300\n",
                "sweep.values: 1e+300: channel.noise_power_dbm: 1e+300 dBm is not a finite power",
            ),
            # a table past the key cap: its point failed as error:MemoryError
            (
                "setup=anechoic\nprotocol.n_keys=10000000000000000\nprotocol.key_len_bytes=8\n",
                "protocol.n_keys, protocol.key_len_bytes: "
                "10000000000000000 keys exceed the 4194304-key table cap",
            ),
            # traces past the sample cap: each point failed as error:MemoryError
            (
                "setup=wired\nwaveform.oversampling=1000000000000\n",
                "waveform.probe_bits, waveform.oversampling: 64 bits at 1000000000000 samples",
            ),
            (
                "setup=wired\nwaveform.probe_bits=100000000000000\n",
                "waveform.probe_bits, waveform.oversampling: 100000000000000 bits at 16 samples",
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
            # a nan power loaded and gave a nan stored_energy_j cell
            (
                "channel.efficiency_curve = -20:0.05;nan:0.2",
                f"{RECT}: efficiency_curve p_in_dbm must not be nan",
            ),
            (
                "channel.efficiency_curve = nan:0.5",
                f"{RECT}: efficiency_curve p_in_dbm must not be nan",
            ),
            (
                "channel.gain_src_dbi = inf",
                "channel.gain_src_dbi: gain_dbi must be finite, got inf",
            ),
            # each budget failure names the keys that feed the term that failed
            (
                "channel.coupling_floor_dbm = 1e300",
                f"{COUPLING}: leakage: 1e+300 dBm is not a finite power",
            ),
            (
                "channel.coupling_ref_tx_dbm = -1e300",
                f"{COUPLING}: leakage: 1e+300 dBm is not a finite power",
            ),
            (
                "channel.gain_mon_dbi = 1e300",
                f"{BACKSCATTER}: backscatter level: 1e+300 dBm is not a finite power",
            ),
            (
                "channel.p_tx_dbm = 1e300",
                f"{BACKSCATTER}: backscatter level: 1e+300 dBm is not a finite power",
            ),
            ("channel.gamma_high_db = -1e300", f"{RECT}: gamma_high_db (-1e+300) must be >="),
            (
                "channel.frequency_hz = inf",
                "channel.distance_dl_m, channel.frequency_hz: frequency_hz must be finite and > 0",
            ),
            (
                "channel.distance_dl_m = 0.1",
                f"{NODE_INPUT}: node input: distance 0.1 m is inside one wavelength",
            ),
            ("protocol.dt_s = 1e-320", f"{TIMING}: max_time_s / dt_s must be finite"),
            ("protocol.max_time_s = 1e305", f"{TIMING}: max_time_s / dt_s must be finite"),
            (
                "protocol.dt_s = 1e-300",
                f"{TIMING}, waveform.bit_rate_hz, protocol.key_len_bytes: "
                "dt_s of 1e-300 s is lost next to the latest event time of 30.002 s",
            ),
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

    @pytest.mark.parametrize(
        "text, seeds",
        [
            ("setup=anechoic\n", [7]),
            (POWER_SWEEP, [7] * 14),
            ("setup=anechoic\nsweep.param=seed\nsweep.values=1,2,3\n", [1, 2, 3]),
            (
                "setup=custom\nchannel.topology=wired\nchannel.leakage_kind=circulator\n"
                "channel.circulator_isolation_db=20\nchannel.p_tx_dbm=-15\n"
                "channel.gamma_low_db=-20\nchannel.gamma_high_db=-3\n"
                "channel.efficiency_curve=-20:0.05;20:0.5\nchannel.noise_power_dbm=-90\n"
                "waveform.bit_rate_hz=100e3\nwaveform.oversampling=16\n"
                "waveform.probe_bits=64\nprotocol.enabled=false\n",
                [7],
            ),
        ],
        ids=["keyed", "sweep", "seed_sweep", "seedless_custom"],
    )
    def test_seed_override_builds_each_point_once_at_its_seed(
        self, tmp_path, monkeypatch, text, seeds
    ):
        # --seed is read as the config's seed: the load builds each point
        # once, at the seed it runs with (a swept seed keeps its values, and
        # a config without a seed line takes it), and the CSV is that of a
        # config that sets that seed
        builds = []
        build = config.build_scenario

        def recording(cfg):
            builds.append(cfg.seed)
            return build(cfg)

        monkeypatch.setattr(config, "build_scenario", recording)
        (tmp_path / "a.cfg").write_text(text)
        (tmp_path / "b.cfg").write_text(text + "seed = 7\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(tmp_path / "a.cfg"), "--out", str(a), "--seed", "7"]) == 0
        assert builds == seeds
        assert main(["run", str(tmp_path / "b.cfg"), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "text", ["setup=anechoic\n", POWER_SWEEP], ids=["anechoic", "power_sweep"]
    )
    def test_no_per_sample_dbm_in_a_run(self, tmp_path, monkeypatch, text, trace):
        # rows are measured and decoded in watts, and the trace file holds
        # watts: no run converts a sample to dBm, with --trace-out or without
        sizes = []
        log10 = np.log10

        def counting(x, *args, **kwargs):
            sizes.append(np.size(x))
            return log10(x, *args, **kwargs)

        monkeypatch.setattr(np, "log10", counting)
        cfg_path, trace_path = tmp_path / "exp.cfg", tmp_path / "t.txt"
        cfg_path.write_text(text)
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]
        if trace:
            argv += ["--trace-out", str(trace_path)]
        assert main(argv) == 0
        assert sizes == []
        assert not trace or len(read_trace(trace_path)) > 0

    @pytest.mark.parametrize("protocol_on", ["true", "false"])
    def test_each_point_builds_its_link_once(self, monkeypatch, protocol_on):
        # the load builds each row's link and the run runs on it; the run
        # used to build each point a second time
        links = []
        build = config.build_scenario

        def recording(*args, **kwargs):
            links.append(build(*args, **kwargs))
            return links[-1]

        monkeypatch.setattr(config, "build_scenario", recording)
        cfg = load_config(
            f"setup=anechoic\nprotocol.enabled={protocol_on}\n"
            "sweep.param=channel.p_tx_dbm\nsweep.values=24,20,22\n"
        )
        rows, _ = run_experiment(cfg)
        assert len(rows) == len(links) == 3
        assert all(link is built for (_, link), built in zip(cfg.points, links))

    @pytest.mark.parametrize("protocol_on", ["true", "false"])
    def test_a_rows_trace_is_freed_before_the_next_point_runs(
        self, tmp_path, monkeypatch, protocol_on
    ):
        # the first row's trace, written or not, and every later one: a
        # sweep holds one point's trace at a time
        held = []
        run_point = cli._run_point

        def recording(cfg, link, ahead):
            assert [ref() for ref in held] == [None] * len(held)
            cells, trace = run_point(cfg, link, ahead)
            held.append(weakref.ref(trace))
            return cells, trace

        monkeypatch.setattr(cli, "_run_point", recording)
        cfg = load_config(
            f"setup=anechoic\nprotocol.enabled={protocol_on}\n"
            "sweep.param=channel.p_tx_dbm\nsweep.values=24,20,22\n"
        )
        for trace_out in (None, tmp_path / "t.txt"):
            held.clear()
            run_experiment(cfg, trace_out)
            assert len(held) == 3


def _serial_run(cfg):
    """Each point's cells and trace from _run_point, called point by point
    on this thread, in the order run_experiment runs them."""
    key = cfg.sweep_param
    points = sorted(cfg.points, key=lambda p: p[0].scalar(key))
    return [
        cli._run_point(point_cfg, link.with_noise_seed(point_seed(cfg.seed, i)))
        for i, (point_cfg, link) in enumerate(points)
    ]


def _public_functions():
    """(owner, attribute, value) of each wptsec callable a wptsec module
    holds by a public name, and of each public attribute of a class a wptsec
    module defines: its methods, properties and field defaults."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "wptsec"]
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("_") or not getattr(value, "__module__", "").startswith("wptsec"):
                continue
            if not inspect.isclass(value):
                if callable(value):
                    yield module, name, value
            elif value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if not attr.startswith("_"):
                        yield value, attr, member


class _Fills(list):
    """Recorded fills, the heads they filled and the indices of those made
    to raise."""

    def __init__(self) -> None:
        super().__init__()
        self.heads: list[weakref.ref] = []
        self.fail: set[int] = set()

    def live_heads(self) -> int:
        return sum(ref() is not None for ref in self.heads)


class TestNoiseAhead:
    """A probe sweep draws each point's noise head on a helper thread while
    the point before it runs; every row and trace byte is a serial run's."""

    @pytest.fixture
    def fills(self, monkeypatch):
        """The helper's fills, as (thread id, head size); a fill whose index
        is in ``fail`` raises."""
        calls = _Fills()
        fill = cli._fill

        def recording(head, rng):
            calls.append((threading.get_ident(), head.size))
            calls.heads.append(weakref.ref(head))
            if len(calls) - 1 in calls.fail:
                raise MemoryError("no room for the head")
            return fill(head, rng)

        monkeypatch.setattr(cli, "_fill", recording)
        return calls

    @pytest.mark.parametrize(
        "sweep",
        [
            # 1,024, 131,072 and 192,000 samples, the short one first: heads
            # of 768, 98,304 and AHEAD_SAMPLES (the cap) samples
            "sweep.param=waveform.probe_bits\nsweep.values=12000,64,8192\n",
            # every point past the cap, so the written trace is too
            "waveform.probe_bits=12000\nsweep.param=channel.p_tx_dbm\nsweep.values=20,-3,11\n",
        ],
        ids=["probe_bits", "long_power"],
    )
    def test_sweep_equals_serial_points(self, tmp_path, fills, sweep):
        cfg = load_config(f"setup=anechoic\nprotocol.enabled=false\n{sweep}")
        traces = []
        run_point = cli._run_point

        def recording(point_cfg, link, ahead):
            cells, trace = run_point(point_cfg, link, ahead)
            traces.append(trace.watts.tobytes())
            return cells, trace

        serial = _serial_run(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_run_point", recording)
            rows, _ = run_experiment(cfg, tmp_path / "t.txt")
        me = threading.get_ident()
        assert len(fills) == 3 and all(thread != me for thread, _ in fills)
        n = [len(trace) for _, trace in serial]
        assert max(n) - max(n) // 4 > AHEAD_SAMPLES
        assert [size for _, size in fills] == [min(k - k // 4, AHEAD_SAMPLES) for k in n]
        assert traces == [trace.watts.tobytes() for _, trace in serial]
        for row, (cells, _) in zip(rows, serial):
            assert {k: row[k] for k in cells} == cells
        write_trace(serial[0][1], tmp_path / "serial.txt")
        assert (tmp_path / "t.txt").read_bytes() == (tmp_path / "serial.txt").read_bytes()
        assert not [t for t in threading.enumerate() if t.name.startswith("noise-ahead")]

    def test_concurrent_sweeps_under_a_short_switch_interval(self, fills):
        # three sweeps at once, each with its own helper: six threads on
        # however many cores, switching every 10 us; a head handed to the
        # wrong point, or read before its draw ended, changes a row
        cfg = load_config(POWER_SWEEP)
        want = run_experiment(cfg)
        got = [None] * 3

        def sweep(k):
            got[k] = run_experiment(cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 3
        assert len(fills) == 4 * 14

    def test_a_sweep_holds_at_most_two_heads(self, fills, monkeypatch):
        # the point's own head and the next point's, being drawn: 2 MiB at
        # most, whatever the sweep's length
        live_at_draw, live_at_run = [], []
        run_point, draw_head = cli._run_point, cli._draw_head

        def recording(point_cfg, link, ahead):
            live_at_run.append(fills.live_heads())
            return run_point(point_cfg, link, ahead)

        def drawn(*args):
            live_at_draw.append(fills.live_heads())
            head = draw_head(*args)
            head.result()  # so the fill has recorded the head before it is counted
            return head

        monkeypatch.setattr(cli, "_run_point", recording)
        monkeypatch.setattr(cli, "_draw_head", drawn)
        rows, summary = run_experiment(load_config(POWER_SWEEP))
        assert summary.all_passed
        assert len(fills) == 14
        assert live_at_draw == [0] + [1] * 13
        assert live_at_run == [2] * 13 + [1]
        assert fills.live_heads() == 0

    def test_a_head_that_cannot_be_built_is_drawn_by_its_point(self, fills, monkeypatch):
        cfg = load_config(POWER_SWEEP)
        want = run_experiment(cfg)
        fills.clear()

        def refused(*args):
            raise MemoryError("no room for the head")

        monkeypatch.setattr(cli, "trace_length", refused)
        assert run_experiment(cfg) == want
        assert fills == []

    @pytest.mark.parametrize(
        "text",
        [
            "setup=anechoic\nprotocol.enabled=false\n",
            "setup=anechoic\nsweep.param=channel.p_tx_dbm\nsweep.values=20,24\n",
        ],
        ids=["one_point", "keyed_sweep"],
    )
    def test_only_a_probe_sweep_starts_the_helper(self, fills, text):
        run_experiment(load_config(text))
        assert fills == []

    def test_a_point_without_noise_draws_no_head(self, fills):
        cfg = load_config(
            "setup=anechoic\nprotocol.enabled=false\n"
            "sweep.param=channel.noise_power_dbm\nsweep.values=-90,-inf,-80\n"
        )
        rows, _ = run_experiment(cfg)
        assert len(fills) == 2
        assert [r["dr_db"] for r in rows] == [cells["dr_db"] for cells, _ in _serial_run(cfg)]

    def test_every_wptsec_call_is_on_the_calling_thread(self, tmp_path, monkeypatch, fills):
        # the helper runs no public wptsec function, so a tracer that wraps
        # them keeps one well-nested span stack
        callers = collections.defaultdict(set)

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                callers[name].add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        for owner, attr, member in list(_public_functions()):
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            if isinstance(member, property):
                member = property(recorded(name, member.fget))
            elif isinstance(member, (classmethod, staticmethod)):
                member = type(member)(recorded(name, member.__func__))
            elif callable(member):
                member = recorded(name, member)
            else:
                continue
            monkeypatch.setattr(owner, attr, member)
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(POWER_SWEEP)
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv + ["--trace-out", str(tmp_path / "t.txt")]) == 0
        me = threading.get_ident()
        assert len(fills) == 14 and all(thread != me for thread, _ in fills)
        for name in ("main", "render_envelope", "measure_levels", "write_trace", "generator"):
            assert any(n.endswith(f".{name}") for n in callers), name
        assert {n: t for n, t in callers.items() if t != {me}} == {}

    def test_failed_points_are_their_own_rows(self, fills):
        # as without the helper: with no numpy warning on either thread
        cfg = load_config(
            "setup=anechoic\nprotocol.enabled=false\n"
            "sweep.param=channel.noise_power_dbm\nsweep.values=3110,-90,3100\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows, summary = run_experiment(cfg)
        assert caught == []
        assert len(fills) == 3
        assert [r["status"] for r in rows] == ["ok", "error:LevelOverflow", "error:ValueError"]
        assert not summary.all_passed

    @pytest.mark.parametrize("failing", [0, 5, 13])
    def test_a_draw_that_raises_fails_only_its_row(self, tmp_path, fills, failing):
        cfg = load_config(POWER_SWEEP)
        want, _ = run_experiment(cfg)
        fills.clear()
        fills.fail.add(failing)
        rows, summary = run_experiment(cfg, tmp_path / "t.txt")
        assert len(fills) == 14
        assert rows[failing]["status"] == "error:MemoryError"
        assert rows[failing]["dr_db"] is None
        assert rows[:failing] + rows[failing + 1 :] == want[:failing] + want[failing + 1 :]
        assert (tmp_path / "t.txt").exists() == (failing != 0)
        assert not summary.all_passed
        assert not [t for t in threading.enumerate() if t.name.startswith("noise-ahead")]
