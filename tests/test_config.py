"""Config parsing, preset defaults, and strict validation."""

import math
import re

import pytest

from wptsec import config
from wptsec.config import (
    build_monitor,
    build_node,
    build_scenario,
    build_tables,
    load_config,
    load_preset,
)
from wptsec.errors import ParseError, ValidationError
from wptsec.protocol import ATTACKER_KINDS, KEY_POLICIES


FLOAT_KEYS = {
    "channel.p_tx_dbm",
    "channel.frequency_hz",
    "channel.distance_dl_m",
    "channel.distance_ul_m",
    "channel.gain_src_dbi",
    "channel.gain_node_dbi",
    "channel.gain_mon_dbi",
    "channel.gamma_low_db",
    "channel.gamma_high_db",
    "channel.circulator_isolation_db",
    "channel.coupling_floor_dbm",
    "channel.coupling_ref_tx_dbm",
    "channel.noise_power_dbm",
    "waveform.bit_rate_hz",
    "protocol.storage_capacity_j",
    "protocol.wake_threshold_j",
    "protocol.tx_cost_j_per_bit",
    "protocol.dt_s",
    "protocol.max_time_s",
}
INT_KEYS = {
    "seed",
    "waveform.oversampling",
    "waveform.probe_bits",
    "protocol.n_keys",
    "protocol.key_len_bytes",
}
OTHER_KEYS = {
    "setup",
    "channel.topology",
    "channel.efficiency_curve",
    "channel.leakage_kind",
    "protocol.enabled",
    "protocol.key_policy",
    "protocol.attacker",
    "sweep.param",
    "sweep.values",
}
ALL_KEYS = FLOAT_KEYS | INT_KEYS | OTHER_KEYS
RADIATED_KEYS = {
    "channel.frequency_hz",
    "channel.distance_dl_m",
    "channel.distance_ul_m",
    "channel.gain_src_dbi",
    "channel.gain_node_dbi",
    "channel.gain_mon_dbi",
}
CIRCULATOR_KEYS = {"channel.circulator_isolation_db"}
COUPLING_KEYS = {"channel.coupling_floor_dbm", "channel.coupling_ref_tx_dbm"}
# the keys read only by a keyed session (protocol.enabled = true) and only by
# the level probe (protocol.enabled = false)
KEYED_KEYS = {
    "protocol.n_keys",
    "protocol.key_len_bytes",
    "protocol.key_policy",
    "protocol.storage_capacity_j",
    "protocol.wake_threshold_j",
    "protocol.tx_cost_j_per_bit",
    "protocol.dt_s",
    "protocol.max_time_s",
    "protocol.attacker",
}
PROBE_KEYS = {"waveform.probe_bits"}
# keys a bare setup=custom reports as missing: everything but the setup
# itself, the sweep pair and the keys that hang on topology, leakage kind or
# protocol.enabled
CUSTOM_MISSING = (
    ALL_KEYS
    - {"setup", "sweep.param", "sweep.values"}
    - RADIATED_KEYS
    - CIRCULATOR_KEYS
    - COUPLING_KEYS
    - KEYED_KEYS
    - PROBE_KEYS
)


def violations_of(text: str) -> list[str]:
    with pytest.raises(ValidationError) as info:
        load_config(text)
    return info.value.violations


def keys_with(violations: list[str], what: str) -> set[str]:
    return {v.split(":", 1)[0] for v in violations if v.split(": ", 1)[1].startswith(what)}


class TestSchema:
    def test_accepted_keys(self):
        assert len(ALL_KEYS) == 33
        assert set(config._SCHEMA) == ALL_KEYS
        for key in ALL_KEYS:
            try:
                load_config(f"setup=wired\n{key} = ?")
            except (ParseError, ValidationError) as exc:
                assert "unknown key" not in str(exc)

    def test_sweepable_keys_are_the_float_and_int_keys(self):
        for key in ALL_KEYS:
            # each key is swept under a setup it applies to, at the value that
            # setup resolves it to
            setup = "anechoic" if key in RADIATED_KEYS | COUPLING_KEYS | KEYED_KEYS else "wired"
            text = f"setup={setup}\nsweep.param = {key}\nsweep.values = "
            if key in FLOAT_KEYS | INT_KEYS:
                value = load_config(f"setup={setup}").scalar(key)
                assert load_config(f"{text}{value!r}").sweep_param == key
            else:
                assert violations_of(f"{text}8") == [
                    f"sweep.param: {key!r} is not a sweepable scalar key"
                ]

    def test_custom_reports_exactly_the_unconditional_keys(self):
        violations = violations_of("setup=custom")
        assert len(violations) == len(CUSTOM_MISSING) == 11
        assert keys_with(violations, "missing") == CUSTOM_MISSING

    @pytest.mark.parametrize(
        "selector, needed",
        [
            ("channel.topology = radiated\nchannel.leakage_kind = circulator",
             RADIATED_KEYS | CIRCULATOR_KEYS),
            ("channel.topology = wired\nchannel.leakage_kind = coupling", COUPLING_KEYS),
        ],
    )
    def test_custom_conditional_keys_missing(self, selector, needed):
        violations = violations_of(f"setup=custom\n{selector}")
        expected = CUSTOM_MISSING - {"channel.topology", "channel.leakage_kind"}
        assert keys_with(violations, "missing") == expected | needed
        assert not keys_with(violations, "not applicable")

    @pytest.mark.parametrize(
        "setup, key",
        [("wired", k) for k in sorted(RADIATED_KEYS | COUPLING_KEYS)]
        + [("anechoic", k) for k in sorted(CIRCULATOR_KEYS)],
    )
    def test_conditional_key_not_applicable(self, setup, key):
        violations = violations_of(f"setup={setup}\n{key} = 1")
        assert len(violations) == 1
        assert violations[0].startswith(f"{key}: not applicable")
        # a sweep over the key is rejected for the same reason
        swept = violations_of(f"setup={setup}\nsweep.param = {key}\nsweep.values = 1,2")
        assert swept == [violations[0].replace(f"{key}:", f"sweep.param: {key!r}", 1)]

    @pytest.mark.parametrize(
        "setup, key",
        [("wired", k) for k in sorted(KEYED_KEYS)] + [("anechoic", k) for k in sorted(PROBE_KEYS)],
    )
    def test_mode_key_not_applicable(self, setup, key):
        # set or swept on the other point mode, a key that mode never reads
        # is rejected
        value = {"protocol.key_policy": "random", "protocol.attacker": "replay"}.get(key, "2")
        why = f"not applicable when protocol.enabled = {str(setup == 'anechoic').lower()}"
        assert violations_of(f"setup={setup}\n{key} = {value}") == [f"{key}: {why}"]
        if key in FLOAT_KEYS | INT_KEYS:
            swept = violations_of(f"setup={setup}\nsweep.param = {key}\nsweep.values = 2,3")
            assert swept == [f"sweep.param: {key!r} {why}"]

    def test_removed_load_resistance_is_an_unknown_key(self):
        with pytest.raises(ParseError, match="line 2: unknown key 'channel.load_ohms'"):
            load_config("setup=anechoic\nchannel.load_ohms = 1e4")

    def test_wired_needs_no_carrier(self):
        # the wired budget reads no frequency: custom wired omits it, the
        # preset sets none, and setting one is an error; a probe-only point
        # reads no protocol.* key either, so none is given
        custom = load_config(
            "setup=custom\nchannel.topology=wired\nchannel.leakage_kind=circulator\n"
            "channel.circulator_isolation_db=20\nchannel.p_tx_dbm=-15\n"
            "channel.gamma_low_db=-20\nchannel.gamma_high_db=-3\n"
            "channel.efficiency_curve=-20:0.05;20:0.5\nchannel.noise_power_dbm=-90\n"
            "waveform.bit_rate_hz=100e3\nwaveform.oversampling=16\nwaveform.probe_bits=64\n"
            "protocol.enabled=false\nseed=1"
        )
        assert custom.frequency_hz is None and custom.n_keys is None
        assert build_scenario(custom).state_level_dbm(True) == build_scenario(
            load_preset("wired")
        ).state_level_dbm(True)
        assert violations_of("setup=wired\nchannel.frequency_hz = 876e6") == [
            "channel.frequency_hz: not applicable when channel.topology = wired"
        ]

    def test_sweep_pair_requires_both(self):
        assert keys_with(
            violations_of("setup=wired\nsweep.param = seed"), "missing"
        ) == {"sweep.values"}
        assert keys_with(
            violations_of("setup=wired\nsweep.values = 1,2"), "missing"
        ) == {"sweep.param"}


class TestPresets:
    @pytest.mark.parametrize(
        "setup, unread",
        [
            ("wired", RADIATED_KEYS | COUPLING_KEYS | KEYED_KEYS),
            ("anechoic", CIRCULATOR_KEYS | PROBE_KEYS),
        ],
    )
    def test_preset_resolves_only_the_keys_it_reads(self, setup, unread):
        cfg = load_preset(setup)
        for key, (attr, _) in config._SCHEMA.items():
            if key in unread | {"sweep.param", "sweep.values"}:
                assert getattr(cfg, attr) is None, key
            else:
                assert getattr(cfg, attr) is not None, key

    @pytest.mark.parametrize(
        "setup, flip, needed, unset",
        [
            ("anechoic", "channel.topology = wired", "", "frequency_hz"),
            ("anechoic", "protocol.enabled = false", "", "n_keys"),
            ("wired", "protocol.enabled = true", "", "probe_bits"),
            (
                "anechoic",
                "channel.leakage_kind = circulator",
                "channel.circulator_isolation_db = 20",
                "coupling_floor_dbm",
            ),
            (
                "wired",
                "channel.leakage_kind = coupling",
                "channel.coupling_floor_dbm = -57\nchannel.coupling_ref_tx_dbm = -15",
                "circulator_isolation_db",
            ),
        ],
    )
    def test_flipped_selector_on_a_preset_loads(self, setup, flip, needed, unset):
        # the preset's keys for the old selector value step aside: only the
        # keys the new value needs and the preset does not hold must be given
        cfg = load_config(f"setup={setup}\n{flip}\n{needed}")
        assert getattr(cfg, unset) is None
        build_scenario(cfg)


    def test_anechoic_defaults(self):
        cfg = load_config("setup=anechoic")
        assert cfg.p_tx_dbm == 15.0
        assert cfg.distance_dl_m == 3.4 and cfg.distance_ul_m == 3.4
        assert cfg.gain_src_dbi == 2.5
        assert cfg.gain_node_dbi == 9.2 and cfg.gain_mon_dbi == 9.2
        assert cfg.frequency_hz == 868e6
        assert cfg.leakage_kind == "coupling"
        assert cfg.coupling_floor_dbm == -57.0 and cfg.coupling_ref_tx_dbm == 15.0
        assert cfg.bit_rate_hz == 20e3
        assert cfg.protocol_enabled is True

    def test_wired_defaults(self):
        cfg = load_config("setup=wired")
        assert cfg.p_tx_dbm == -15.0
        assert cfg.frequency_hz is None
        assert cfg.leakage_kind == "circulator"
        assert cfg.circulator_isolation_db == 20.0
        assert cfg.bit_rate_hz == 100e3
        assert cfg.protocol_enabled is False
        assert cfg.topology == "wired"

    def test_load_preset_helper(self):
        assert load_preset("wired") == load_config("setup=wired")
        with pytest.raises(ValueError):
            load_preset("underwater")

    def test_preset_leakage_calibration_identity(self):
        scenario = build_scenario(load_preset("anechoic"))
        assert scenario.leakage_dbm() == -57.0

    def test_preset_overrides(self):
        cfg = load_config("setup=anechoic\nchannel.p_tx_dbm = 24\nseed = 7")
        assert cfg.p_tx_dbm == 24.0
        assert cfg.seed == 7
        assert cfg.distance_dl_m == 3.4  # untouched defaults stay


class TestParsing:
    def test_comments_blanks_and_spacing(self):
        cfg = load_config("# комментарий\n\n  setup = wired  \n seed=3\n")
        assert cfg.setup == "wired" and cfg.seed == 3

    def test_unknown_key_is_error_with_line(self):
        with pytest.raises(ParseError, match=r"line 2.*channel\.p_tx_db"):
            load_config("setup=wired\nchannel.p_tx_db = 10")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_config("setup=wired\nseed=1\nseed=2")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="line 2"):
            load_config("setup=wired\nwhat is this")

    def test_bad_value_types(self):
        with pytest.raises(ParseError, match="seed"):
            load_config("setup=wired\nseed = 1.5")
        with pytest.raises(ParseError, match="protocol.enabled"):
            load_config("setup=wired\nprotocol.enabled = yes")
        with pytest.raises(ParseError, match="leakage_kind"):
            load_config("setup=wired\nchannel.leakage_kind = wishful")

    @pytest.mark.parametrize(
        "key, options",
        [("protocol.key_policy", KEY_POLICIES), ("protocol.attacker", ATTACKER_KINDS)],
    )
    def test_protocol_choices_come_from_protocol(self, key, options):
        for option in options:
            load_config(f"setup=anechoic\n{key} = {option}")
        with pytest.raises(ParseError, match=re.escape(f"expected one of {list(options)}")):
            load_config(f"setup=anechoic\n{key} = bogus")

    def test_missing_setup(self):
        with pytest.raises(ValidationError, match="setup"):
            load_config("seed = 1")

    def test_text_vs_path(self, tmp_path):
        path = tmp_path / "p=15.cfg"
        path.write_text("setup=wired\nseed=11\n")
        assert load_config(path).seed == 11
        # a str is config text, never a path, whatever it looks like
        with pytest.raises(ParseError, match="line 1: expected 'key = value'"):
            load_config(str(tmp_path / "exp.cfg"))
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.cfg")

    def test_efficiency_curve_value(self):
        cfg = load_config(
            "setup=wired\nchannel.efficiency_curve = -20:0.1; -10:0.3; 0:0.5"
        )
        assert cfg.efficiency_curve == ((-20.0, 0.1), (-10.0, 0.3), (0.0, 0.5))

    def test_empty_chunk_in_a_curve_is_skipped(self):
        cfg = load_config("setup=wired\nchannel.efficiency_curve = -20:0.1;; 0:0.5;")
        assert cfg.efficiency_curve == ((-20.0, 0.1), (0.0, 0.5))

    @pytest.mark.parametrize(
        "lines, problem",
        [
            (
                "channel.efficiency_curve = ;",
                "line 2: channel.efficiency_curve: "
                "efficiency curve needs at least one p_dbm:eta pair",
            ),
            (
                "sweep.param = channel.p_tx_dbm\nsweep.values = ,",
                "line 3: sweep.values: expected a comma-separated list of numbers",
            ),
        ],
        ids=["curve", "sweep_values"],
    )
    def test_empty_list_rejected(self, lines, problem):
        with pytest.raises(ParseError, match=f"^{re.escape(problem)}$"):
            load_config(f"setup=wired\n{lines}")


class TestValidation:
    def test_empty_custom_enumerates_missing(self):
        with pytest.raises(ValidationError) as info:
            load_config("setup=custom")
        violations = info.value.violations
        assert len(violations) >= 11
        for key in (
            "seed",
            "channel.topology",
            "channel.p_tx_dbm",
            "channel.leakage_kind",
            "waveform.bit_rate_hz",
            "protocol.enabled",
        ):
            assert any(v.startswith(f"{key}:") for v in violations)
        # the mode keys hang on protocol.enabled, which is not set
        assert not any(v.startswith("protocol.n_keys:") for v in violations)

    def test_custom_radiated_needs_geometry(self):
        text = "\n".join(
            [
                "setup=custom",
                "seed=1",
                "channel.topology=radiated",
                "channel.p_tx_dbm=10",
                "channel.frequency_hz=868e6",
                "channel.gamma_low_db=-20",
                "channel.gamma_high_db=-3",
                "channel.efficiency_curve=-20:0.05;20:0.5",
                "channel.leakage_kind=coupling",
                "channel.coupling_floor_dbm=-57",
                "channel.coupling_ref_tx_dbm=15",
                "channel.noise_power_dbm=-90",
                "waveform.bit_rate_hz=20e3",
                "waveform.oversampling=16",
                "protocol.enabled=true",
                "protocol.n_keys=4",
                "protocol.key_len_bytes=2",
                "protocol.key_policy=sequential",
                "protocol.storage_capacity_j=100e-6",
                "protocol.wake_threshold_j=10e-6",
                "protocol.tx_cost_j_per_bit=1e-9",
                "protocol.dt_s=1e-4",
                "protocol.max_time_s=30",
                "protocol.attacker=none",
            ]
        )
        with pytest.raises(ValidationError) as info:
            load_config(text)
        assert any("channel.distance_dl_m" in v for v in info.value.violations)
        full = text + "\n" + "\n".join(
            [
                "channel.distance_dl_m=3.4",
                "channel.distance_ul_m=3.4",
                "channel.gain_src_dbi=2.5",
                "channel.gain_node_dbi=9.2",
                "channel.gain_mon_dbi=9.2",
            ]
        )
        cfg = load_config(full)
        assert cfg.topology == "radiated"
        # a keyed point reads no probe length, so none is given
        assert cfg.probe_bits is None
        assert violations_of(full + "\nwaveform.probe_bits=64") == [
            "waveform.probe_bits: not applicable when protocol.enabled = true"
        ]

    def test_cross_kind_keys_rejected(self):
        with pytest.raises(ValidationError, match="not applicable"):
            load_config("setup=anechoic\nchannel.circulator_isolation_db = 20")
        with pytest.raises(ValidationError, match="not applicable"):
            load_config("setup=wired\nchannel.coupling_floor_dbm = -57")
        with pytest.raises(ValidationError, match="not applicable"):
            load_config("setup=wired\nchannel.distance_dl_m = 3.4")

    def test_range_checks(self):
        # each range is judged by the constructor or check the run calls,
        # and named by the config keys that the part which raised reads
        rate = "waveform.bit_rate_hz, waveform.oversampling"
        assert violations_of("setup=wired\nwaveform.bit_rate_hz = 200e3") == [
            f"{rate}: bit rate 200000.0 Hz exceeds the 100000 Hz ceiling"
        ]
        assert violations_of("setup=wired\nwaveform.oversampling = 4") == [
            f"{rate}: sample rate 400000.0 Hz below 8x bit rate 100000.0 Hz"
        ]
        # an int past the float range cannot be a sample rate; the probe
        # failed on the same product at run time
        assert violations_of("setup=wired\nwaveform.oversampling = 1" + "0" * 400) == [
            f"{rate}: out of range (OverflowError: int too large to convert to float)"
        ]
        # traces past the sample cap loaded, and their point failed as
        # error:MemoryError when it rendered them
        cap = "exceed the 67108864-sample trace cap"
        assert violations_of("setup=wired\nwaveform.oversampling = 1000000000000") == [
            "waveform.probe_bits, waveform.oversampling: "
            f"64 bits at 1000000000000 samples per bit {cap}"
        ]
        assert violations_of("setup=wired\nwaveform.probe_bits = 100000000000000") == [
            "waveform.probe_bits, waveform.oversampling: "
            f"100000000000000 bits at 16 samples per bit {cap}"
        ]
        assert violations_of("setup=anechoic\nwaveform.oversampling = 1000000000000") == [
            "protocol.key_len_bytes, waveform.oversampling: "
            f"40 bits at 1000000000000 samples per bit {cap}"
        ]
        assert violations_of(
            "setup=wired\nsweep.param = waveform.probe_bits\nsweep.values = 64,1e14"
        ) == [
            "sweep.values: 100000000000000: waveform.probe_bits: "
            f"100000000000000 bits at 16 samples per bit {cap}"
        ]
        # a table past the key cap loaded, and its point failed as
        # error:MemoryError when it drew the keys
        assert violations_of(
            "setup=anechoic\nprotocol.n_keys = 10000000000000000\nprotocol.key_len_bytes = 8"
        ) == [
            "protocol.n_keys, protocol.key_len_bytes: "
            "10000000000000000 keys exceed the 4194304-key table cap"
        ]
        # the largest probe the cap admits loads
        assert load_config(f"setup=wired\nwaveform.probe_bits = {2**22}").probe_bits == 2**22
        with pytest.raises(ValidationError, match="key_len_bytes"):
            load_config("setup=wired\nprotocol.key_len_bytes = 65")
        assert violations_of("setup=wired\nchannel.circulator_isolation_db = -5") == [
            "channel.circulator_isolation_db: circulator_isolation_db must be >= 0"
        ]
        # these failed every point at run time as error:ValueError rows
        ledger = (
            "protocol.storage_capacity_j, protocol.wake_threshold_j, protocol.tx_cost_j_per_bit"
        )
        positive = "storage_capacity_j and wake_threshold_j must be > 0"
        for text, violation in [
            ("protocol.storage_capacity_j = 0", f"{ledger}: {positive}"),
            ("protocol.wake_threshold_j = -1e-6", f"{ledger}: {positive}"),
            ("protocol.tx_cost_j_per_bit = -1e-9", f"{ledger}: tx_cost_j_per_bit must be >= 0"),
            (
                "channel.distance_dl_m = 0",
                "channel.distance_dl_m, channel.frequency_hz: "
                "distance_m must be finite and > 0, got 0.0",
            ),
            (
                "channel.distance_ul_m = -1",
                "channel.distance_ul_m, channel.frequency_hz: "
                "distance_m must be finite and > 0, got -1.0",
            ),
            (
                "channel.gain_mon_dbi = inf",
                "channel.gain_mon_dbi: gain_dbi must be finite, got inf",
            ),
        ]:
            assert violations_of(f"setup=anechoic\n{text}") == [violation]
        assert load_config("setup=anechoic\nprotocol.tx_cost_j_per_bit = 0").tx_cost_j_per_bit == 0

    @pytest.mark.parametrize("key", ["protocol.max_time_s", "protocol.dt_s"])
    def test_infinite_timing_rejected(self, key):
        # it loaded, then every keyed point failed: max_time_s = inf as
        # error:OverflowError, dt_s = inf as a non-increasing timeline
        rule = {
            "protocol.max_time_s": "max_time_s must be >= 0 and finite, got inf",
            "protocol.dt_s": "dt_s must be > 0 and finite, got inf",
        }[key]
        timing = "protocol.dt_s, protocol.max_time_s"
        assert violations_of(f"setup=anechoic\n{key} = inf") == [f"{timing}: {rule}"]
        assert violations_of(
            f"setup=anechoic\nsweep.param = {key}\nsweep.values = 1,inf"
        ) == [f"sweep.values: inf: {key}: {rule}"]

    @pytest.mark.parametrize(
        "text, rule",
        [
            ("protocol.dt_s = 1e-320", "30.0 / 1e-320"),
            ("protocol.max_time_s = 1e305", "1e+305 / 0.0001"),
        ],
    )
    def test_uncountable_session_steps_rejected(self, text, rule):
        # each is finite and loaded, then every keyed point failed as
        # error:OverflowError when the session counted its steps
        assert violations_of(f"setup=anechoic\n{text}") == [
            f"protocol.dt_s, protocol.max_time_s: max_time_s / dt_s must be finite, got {rule}"
        ]

    def test_dt_s_lost_at_the_latest_event_rejected(self):
        # it loaded, then every keyed point failed as error:ValueError (event
        # times must be strictly increasing): t + 1e-300 == t at t = 0.5 s
        keys = "protocol.dt_s, protocol.max_time_s, waveform.bit_rate_hz, protocol.key_len_bytes"
        rule = "dt_s of 1e-300 s is lost next to the latest event time of 30.002 s"
        assert violations_of("setup=anechoic\nprotocol.dt_s = 1e-300") == [f"{keys}: {rule}"]
        assert violations_of(
            "setup=anechoic\nsweep.param = protocol.dt_s\nsweep.values = 1e-4,1e-300"
        ) == [f"sweep.values: 1e-300: protocol.dt_s: {rule}"]
        # the latest event time counts one frame at the point's bit rate
        assert violations_of(
            "setup=anechoic\nprotocol.dt_s = 3.6e-15\n"
            "sweep.param = waveform.bit_rate_hz\nsweep.values = 20e3,1"
        ) == [
            "sweep.values: 1.0: waveform.bit_rate_hz: "
            "dt_s of 3.6e-15 s is lost next to the latest event time of 70.00000000000001 s"
        ]

    @pytest.mark.filterwarnings("ignore:antenna gain")
    @pytest.mark.parametrize("key", sorted(FLOAT_KEYS | INT_KEYS))
    def test_set_and_swept_values_are_judged_alike(self, key):
        # one judge: a value loads when set directly exactly when it loads
        # as a one-value sweep, and no reason is a bare arithmetic error
        setup = "anechoic" if key in RADIATED_KEYS | COUPLING_KEYS | KEYED_KEYS else "wired"
        preset = load_config(f"setup={setup}").scalar(key)
        boundaries = (0, -1, 1, 2, 8, 7.5, 64, 65, 1e5, 1e5 + 1)
        for value in map(float, (preset, *boundaries, math.inf, -math.inf, 1e300)):
            literal = str(int(value)) if key in INT_KEYS and value.is_integer() else repr(value)
            outcomes = []
            for text in (f"{key} = {literal}", f"sweep.param = {key}\nsweep.values = {value!r}"):
                try:
                    load_config(f"setup={setup}\n{text}")
                    outcomes.append(True)
                except ParseError:
                    outcomes.append(False)
                except ValidationError as exc:
                    outcomes.append(False)
                    for bare in ("Error", "division by zero", "out of range", "too large"):
                        assert bare not in str(exc)
            assert outcomes[0] == outcomes[1], (key, value)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("channel.p_tx_dbm", "1e300"),
            ("channel.p_tx_dbm", "inf"),
            ("channel.noise_power_dbm", "1e300"),
            ("channel.noise_power_dbm", "inf"),
        ],
    )
    def test_dbm_value_must_be_finite_in_watts(self, key, value):
        # it loaded, then every point failed: 1e300 as error:OverflowError
        # in dbm_to_watts, inf as error:ValueError. The noise floor is one
        # key's; the TX power fails the backscatter level first, named with
        # every key that feeds it
        rule = f"{float(value)!r} dBm is not a finite power in watts"
        where = key
        if key == "channel.p_tx_dbm":
            rule = f"backscatter level: {rule}"
            where = (
                "channel.p_tx_dbm, channel.frequency_hz, channel.distance_dl_m, "
                "channel.distance_ul_m, channel.gain_src_dbi, channel.gain_node_dbi, "
                "channel.gain_mon_dbi, channel.gamma_low_db, channel.gamma_high_db"
            )
        assert violations_of(f"setup=anechoic\n{key} = {value}") == [f"{where}: {rule}"]
        assert violations_of(
            f"setup=wired\nsweep.param = {key}\nsweep.values = 0,{value}"
        ) == [f"sweep.values: {float(value)!r}: {key}: {rule}"]

    def test_silent_noise_and_large_finite_powers_still_load(self):
        cfg = load_config("setup=anechoic\nchannel.noise_power_dbm = -inf")
        assert cfg.noise_power_dbm == float("-inf")
        assert load_config("setup=wired\nchannel.p_tx_dbm = 300").p_tx_dbm == 300.0

    def test_negative_seed_rejected(self):
        # numpy's default_rng rejects it, so every keyed point would fail at run time
        for setup in ("wired", "anechoic"):
            assert violations_of(f"setup={setup}\nseed = -1") == ["seed: must be >= 0"]
            with pytest.raises(ValidationError) as info:
                load_config(f"setup={setup}", seed=-1)
            assert info.value.violations == ["seed: must be >= 0"]

    def test_sweep_must_name_scalar(self):
        with pytest.raises(ValidationError, match="sweepable scalar"):
            load_config(
                "setup=wired\nsweep.param = channel.leakage_kind\nsweep.values = 1,2"
            )
        with pytest.raises(ValidationError, match="sweep.values"):
            load_config("setup=wired\nsweep.param = channel.p_tx_dbm")
        cfg = load_config(
            "setup=wired\nsweep.param = channel.p_tx_dbm\nsweep.values = -15,0,15"
        )
        assert cfg.sweep_values == (-15.0, 0.0, 15.0)

    def test_sweep_values_checked_against_the_swept_key(self):
        # an int key truncated 16.9 to 16 under a 16.9 label, and values out
        # of the key's range failed only when their point ran
        assert violations_of(
            "setup=wired\nsweep.param = waveform.oversampling\nsweep.values = 16,16.9,4"
        ) == [
            "sweep.values: 16.9: waveform.oversampling: must be an integer",
            "sweep.values: 4: waveform.oversampling: "
            "sample rate 400000.0 Hz below 8x bit rate 100000.0 Hz",
        ]
        # 1.7e308 x 20 kHz is inf: the point loaded, numpy warned while it
        # counted samples per bit, and it failed as error:EmptyTrace; an int
        # past 2**53 is named as the config gives it, not in its 309 digits
        assert violations_of(
            "setup=anechoic\nsweep.param = waveform.oversampling\nsweep.values = 16,1.7e308"
        ) == ["sweep.values: 1.7e+308: waveform.oversampling: sample rate must be finite, got inf"]
        assert violations_of(
            "setup=wired\nsweep.param = waveform.bit_rate_hz\nsweep.values = 1000,150000"
        ) == [
            "sweep.values: 150000.0: waveform.bit_rate_hz: "
            "bit rate 150000.0 Hz exceeds the 100000 Hz ceiling"
        ]
        assert violations_of(
            "setup=anechoic\nsweep.param = protocol.key_len_bytes\nsweep.values = 2,65"
        ) == [
            "sweep.values: 65: protocol.key_len_bytes: key_len_bytes must be in [1, 64], got 65"
        ]
        # 300 distinct 1-byte keys loaded, then every keyed point failed as
        # error:TableCapacityError
        assert violations_of(
            "setup=anechoic\nprotocol.key_len_bytes = 1\n"
            "sweep.param = protocol.n_keys\nsweep.values = 16,300"
        ) == [
            "sweep.values: 300: protocol.n_keys: "
            "300 distinct keys of 1 bytes exceed the 256-code space"
        ]
        assert violations_of("setup=wired\nsweep.param = seed\nsweep.values = 0,-1") == [
            "sweep.values: -1: seed: must be >= 0"
        ]
        assert violations_of(
            "setup=anechoic\nsweep.param = channel.distance_ul_m\nsweep.values = 3.4,-1"
        ) == [
            "sweep.values: -1.0: channel.distance_ul_m: "
            "distance_m must be finite and > 0, got -1.0"
        ]
        assert violations_of(
            "setup=anechoic\nsweep.param = protocol.wake_threshold_j\nsweep.values = 0,1e-5"
        ) == [
            "sweep.values: 0.0: protocol.wake_threshold_j: "
            "storage_capacity_j and wake_threshold_j must be > 0"
        ]
        with pytest.raises(ParseError, match="sweep.values: nan is not a valid value"):
            load_config("setup=wired\nsweep.param = channel.p_tx_dbm\nsweep.values = 0,nan")
        cfg = load_config("setup=wired\nsweep.param = waveform.oversampling\nsweep.values = 8,32")
        points = [cfg.with_override(cfg.sweep_param, v) for v in cfg.sweep_values]
        assert [p.oversampling for p in points] == [8, 32]

    def test_own_value_of_the_swept_key_is_not_built(self):
        # both points are far field (0.125 m and 0.052 m wavelengths against
        # 0.2 m hops); the preset 868 MHz carrier, which no row runs, is not
        hops = "setup=anechoic\nchannel.distance_dl_m = 0.2\nchannel.distance_ul_m = 0.2\n"
        sweep = "sweep.param = channel.frequency_hz\nsweep.values = "
        assert load_config(f"{hops}{sweep}2.4e9,5.8e9").sweep_values == (2.4e9, 5.8e9)
        assert violations_of(f"{hops}{sweep}2.4e9,868e6") == [
            "sweep.values: 868000000.0: channel.frequency_hz: "
            "node input: distance 0.2 m is inside one wavelength (0.3454 m at 868.0 MHz)"
        ]

    def test_a_failure_is_named_per_point_only_when_it_reads_the_swept_key(self):
        # the node's ledger does not read n_keys, so its failure is the
        # config's own and named once; the rectifier reads gamma_high_db
        ledger = (
            "protocol.storage_capacity_j, protocol.wake_threshold_j, protocol.tx_cost_j_per_bit"
        )
        assert violations_of(
            "setup=anechoic\nprotocol.storage_capacity_j = 0\n"
            "sweep.param = protocol.n_keys\nsweep.values = 4,8,16"
        ) == [f"{ledger}: storage_capacity_j and wake_threshold_j must be > 0"]
        assert violations_of(
            "setup=wired\nsweep.param = channel.gamma_high_db\nsweep.values = -3,1,2"
        ) == [
            f"sweep.values: {v}: channel.gamma_high_db: "
            "reflection coefficients must be <= 0 dB (passive)"
            for v in (1.0, 2.0)
        ]


class TestBuilders:
    def test_build_round_trip(self):
        cfg = load_preset("anechoic")
        scenario = build_scenario(cfg).with_noise_seed(5)
        assert scenario.noise.rng_seed == 5
        assert scenario.topology == "radiated"
        node_table, monitor_table = build_tables(cfg)
        assert node_table.entries == monitor_table.entries
        node = build_node(cfg, node_table)
        monitor = build_monitor(cfg, monitor_table)
        assert node.wake_threshold_j == 10e-6
        assert monitor.sample_rate_hz == 16 * 20e3

    def test_wired_scenario_levels(self):
        scenario = build_scenario(load_preset("wired"))
        assert scenario.node_input_dbm() == -15.0
        assert scenario.backscatter_dbm(True) == -15.0 - 3.0
        assert scenario.leakage_dbm() == -35.0

    def test_with_override_coerces_ints(self):
        cfg = load_preset("wired")
        assert cfg.with_override("waveform.oversampling", 32.0).oversampling == 32
        assert cfg.with_override("channel.p_tx_dbm", -3.0).p_tx_dbm == -3.0
