"""Experiment runner rows/checks, trace emission, and the CLI contract."""

import dataclasses

import numpy as np

from wptsec.cli import (
    CSV_COLUMNS,
    emit_trace,
    format_csv,
    main,
    point_seed,
    run_experiment,
)
from wptsec.config import (
    build_monitor,
    build_node,
    build_scenario,
    build_tables,
    load_config,
    load_preset,
)
from wptsec.protocol import Attacker, run_session
from wptsec.monitor import decode_trace, estimate_threshold, measure_dynamic_range
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

    def test_replay_attacker_scenario_check(self):
        rows, summary = run_experiment(load_config("setup=anechoic\nprotocol.attacker=replay"))
        assert rows[0]["verdict"] == "rejected_replay"
        assert any(c.name == "replay_rejected" and c.passed for c in summary.checks)
        assert summary.all_passed

    def test_probe_point_clusters_once(self, clustering_calls):
        rows, _ = run_experiment(load_preset("wired"))
        assert len(clustering_calls) == 1
        assert rows[0]["threshold_dbm"] == estimate_threshold(clustering_calls[0])
        assert rows[0]["dr_db"] == measure_dynamic_range(clustering_calls[0])

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
    def test_wired_level_periods(self):
        trace = emit_trace(load_preset("wired"))
        # 100 kHz modulation at 16x oversampling: each level lasts 10 us
        assert trace.sample_rate_hz == 1.6e6
        mid = np.median(trace.samples)
        levels = trace.samples > mid
        runs = np.diff(np.flatnonzero(np.diff(levels.astype(int)) != 0))
        assert np.all(runs == 16)

    def test_zero_noise_two_values(self):
        cfg = load_config("setup=wired\nchannel.noise_power_dbm=-inf")
        trace = emit_trace(cfg)
        assert np.unique(trace.samples).size == 2

    def test_deterministic_bytes(self, tmp_path):
        cfg = load_preset("anechoic")
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_trace(emit_trace(cfg), a)
        write_trace(emit_trace(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_emitted_frame_decodes(self, tmp_path):
        cfg = load_preset("anechoic")
        path = tmp_path / "frame.txt"
        write_trace(emit_trace(cfg), path)
        result = decode_trace(read_trace(path), cfg.bit_rate_hz)
        assert result.status == "decoded"
        assert len(result.payload) == cfg.key_len_bytes

    def test_matches_first_session_trace(self):
        # the CLI trace and the session driver render the first key the same way
        cfg = load_preset("anechoic")
        node_table, monitor_table = build_tables(cfg)
        log = run_session(
            build_scenario(cfg, noise_seed=point_seed(cfg.seed, 0)),
            build_node(cfg, node_table),
            Attacker(),
            build_monitor(cfg, monitor_table),
            dt_s=cfg.dt_s,
            max_time_s=cfg.max_time_s,
        )
        assert log.emitted_key_index == 0
        trace = emit_trace(cfg)
        assert trace.sample_rate_hz == log.trace.sample_rate_hz
        assert trace.meta == log.trace.meta == cfg.setup
        assert np.array_equal(trace.samples, log.trace.samples)


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
        assert "sweep.values: 16.9: waveform.oversampling must be an integer" in err
        assert "sweep.values: 4: waveform.oversampling must be >= 8" in err

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
