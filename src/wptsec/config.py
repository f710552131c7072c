"""Scenario configuration: flat key=value text with section prefixes.

Two presets (``anechoic`` radiated setup and ``wired`` circulator bench)
fill every key that applies to them; ``custom`` requires every applicable
key to be explicit. Unknown keys are rejected loudly, since a typo in an RF
parameter would otherwise produce plausible-but-wrong physics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path

from .channel import (
    DEFAULT_EFFICIENCY_CURVE,
    AntennaSpec,
    LeakageModel,
    LinkGeometry,
    LinkScenario,
    NoiseSpec,
    RectifierModel,
)
from .errors import ParseError, ValidationError
from .protocol import (
    ATTACKER_KINDS,
    DEFAULT_DT_S,
    DEFAULT_STORAGE_CAPACITY_J,
    DEFAULT_TX_COST_J_PER_BIT,
    DEFAULT_WAKE_THRESHOLD_J,
    KEY_POLICIES,
    MonitorConfig,
    NodeState,
    PvkTable,
    check_event_spacing,
    check_session_timing,
    check_table_shape,
    generate_table,
)
from .waveform import check_trace_samples, frame_bits


# A key whose use hangs on another key is required while that selector holds
# the given value and not applicable while it holds any other; None as the
# value means "required whenever the selector is set".
_RADIATED = ("topology", "radiated")
_CIRCULATOR = ("leakage_kind", "circulator")
_COUPLING = ("leakage_kind", "coupling")
_KEYED = ("protocol_enabled", True)
_PROBE = ("protocol_enabled", False)


def _at_least(bound) -> tuple:
    return (lambda v: v >= bound, f"must be >= {bound}")


def _key(key: str, kind: str | tuple[str, ...], required=True, *, preset=None, check=None):
    """ScenarioConfig field that declares one config key.

    ``key`` is the dotted name in config text. ``kind`` drives conversion and
    sweepability: float, int, bool, curve, floats, str, or a tuple of choices.
    ``required`` is True or a (selector attribute, value) condition.
    ``preset`` is the default every preset shares (None: each preset sets
    its own or leaves it unset). ``check`` is a (predicate, message) rule on
    what no point's build judges; the message may show the value as ``{!r}``.
    """
    return dataclasses.field(
        metadata=dict(key=key, kind=kind, required=required, preset=preset, check=check)
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved experiment description; each field declares its key."""

    setup: str = _key("setup", ("wired", "anechoic", "custom"))
    seed: int = _key("seed", "int", preset=0, check=_at_least(0))
    topology: str | None = _key("channel.topology", ("radiated", "wired"))
    p_tx_dbm: float | None = _key("channel.p_tx_dbm", "float")
    frequency_hz: float | None = _key("channel.frequency_hz", "float", _RADIATED)
    distance_dl_m: float | None = _key("channel.distance_dl_m", "float", _RADIATED)
    distance_ul_m: float | None = _key("channel.distance_ul_m", "float", _RADIATED)
    gain_src_dbi: float | None = _key("channel.gain_src_dbi", "float", _RADIATED)
    gain_node_dbi: float | None = _key("channel.gain_node_dbi", "float", _RADIATED)
    gain_mon_dbi: float | None = _key("channel.gain_mon_dbi", "float", _RADIATED)
    gamma_low_db: float | None = _key("channel.gamma_low_db", "float", preset=-20.0)
    gamma_high_db: float | None = _key("channel.gamma_high_db", "float", preset=-3.0)
    efficiency_curve: tuple[tuple[float, float], ...] | None = _key(
        "channel.efficiency_curve", "curve", preset=DEFAULT_EFFICIENCY_CURVE
    )
    leakage_kind: str | None = _key("channel.leakage_kind", ("circulator", "coupling"))
    circulator_isolation_db: float | None = _key(
        "channel.circulator_isolation_db", "float", _CIRCULATOR
    )
    coupling_floor_dbm: float | None = _key("channel.coupling_floor_dbm", "float", _COUPLING)
    coupling_ref_tx_dbm: float | None = _key("channel.coupling_ref_tx_dbm", "float", _COUPLING)
    noise_power_dbm: float | None = _key("channel.noise_power_dbm", "float", preset=-90.0)
    bit_rate_hz: float | None = _key("waveform.bit_rate_hz", "float")
    oversampling: int | None = _key("waveform.oversampling", "int", preset=16)
    probe_bits: int | None = _key(
        "waveform.probe_bits", "int", _PROBE, preset=64, check=_at_least(2)
    )
    protocol_enabled: bool | None = _key("protocol.enabled", "bool")
    n_keys: int | None = _key("protocol.n_keys", "int", _KEYED, preset=16)
    key_len_bytes: int | None = _key("protocol.key_len_bytes", "int", _KEYED, preset=2)
    key_policy: str | None = _key("protocol.key_policy", KEY_POLICIES, _KEYED, preset="sequential")
    storage_capacity_j: float | None = _key(
        "protocol.storage_capacity_j", "float", _KEYED, preset=DEFAULT_STORAGE_CAPACITY_J
    )
    wake_threshold_j: float | None = _key(
        "protocol.wake_threshold_j", "float", _KEYED, preset=DEFAULT_WAKE_THRESHOLD_J
    )
    tx_cost_j_per_bit: float | None = _key(
        "protocol.tx_cost_j_per_bit", "float", _KEYED, preset=DEFAULT_TX_COST_J_PER_BIT
    )
    dt_s: float | None = _key("protocol.dt_s", "float", _KEYED, preset=DEFAULT_DT_S)
    max_time_s: float | None = _key("protocol.max_time_s", "float", _KEYED, preset=30.0)
    attacker: str | None = _key("protocol.attacker", ATTACKER_KINDS, _KEYED, preset="none")
    sweep_param: str | None = _key(
        "sweep.param",
        "str",
        ("sweep_values", None),
        check=(lambda v: v in _SCALAR_KEYS, "{!r} is not a sweepable scalar key"),
    )
    sweep_values: tuple[float, ...] | None = _key("sweep.values", "floats", ("sweep_param", None))

    def with_override(self, key: str, value: float) -> "ScenarioConfig":
        """Copy with one scalar config key replaced (used by sweeps)."""
        attr, kind = _SCALAR_KEYS[key]
        coerced = int(value) if kind == "int" else float(value)
        return dataclasses.replace(self, **{attr: coerced})

    def scalar(self, key: str) -> float | int | None:
        """Value of one scalar config key, as the point runs with it."""
        return getattr(self, _SCALAR_KEYS[key][0])

    @functools.cached_property
    def points(self) -> tuple[tuple["ScenarioConfig", LinkScenario], ...]:
        """(point config, link) of each row, in config order, or a
        ValidationError naming every violation. Once the schema holds, each
        point must build (see build_point): this config, or each sweep value
        set directly on it; the config's own swept value runs on no row."""
        bad = _violations(self)
        points = []
        key = self.sweep_param
        for value in () if bad else self.sweep_values or (None,):
            point, swept = self, None
            if value is not None:
                if _SCALAR_KEYS[key][1] == "int" and not value.is_integer():
                    bad.append(f"sweep.values: {value!r}: {key}: must be an integer")
                    continue
                point = self.with_override(key, value)
                applied = point.scalar(key)
                named = value if abs(applied) > 2**53 else applied  # too long to read: as given
                swept = f"sweep.values: {named!r}: {key}"
                check = _CHECKS[key]
                if check is not None and not check[0](applied):
                    bad.append(f"{swept}: {check[1].format(applied)}")
                    continue
            try:
                points.append((point, build_point(point)))
            except (ValueError, ArithmeticError) as exc:
                # named by the keys the failed part reads, or by the sweep value
                # if it reads the swept key; if not, it is the config's own
                where, reason = exc.config_keys, exc
                if not isinstance(exc, ValueError):  # a product past the float range
                    reason = f"out of range ({type(exc).__name__}: {exc})"
                if swept and {key, key.partition(".")[0]} & set(where.split(", ")):
                    where = swept
                if f"{where}: {reason}" not in bad:
                    bad.append(f"{where}: {reason}")
        if bad:
            raise ValidationError(bad)
        return tuple(points)


_FIELDS = dataclasses.fields(ScenarioConfig)
# key -> (attribute, kind); the float and int keys are the sweepable scalars
_SCHEMA: dict[str, tuple[str, str | tuple[str, ...]]] = {
    f.metadata["key"]: (f.name, f.metadata["kind"]) for f in _FIELDS
}
_SCALAR_KEYS = {k: (a, t) for k, (a, t) in _SCHEMA.items() if t in ("float", "int")}
_KEY_OF = {a: k for k, (a, _) in _SCHEMA.items()}
_CHECKS = {f.metadata["key"]: f.metadata["check"] for f in _FIELDS}
_COMMON_DEFAULTS = {
    f.name: f.metadata["preset"] for f in _FIELDS if f.metadata["preset"] is not None
}

PRESETS: dict[str, dict] = {
    # Three-antenna radiated setup: +15 dBm at 868 MHz over 3.4 m, residual
    # antenna coupling calibrated to -57 dBm at the +15 dBm reference.
    "anechoic": dict(
        _COMMON_DEFAULTS,
        topology="radiated",
        p_tx_dbm=15.0,
        frequency_hz=868e6,
        distance_dl_m=3.4,
        distance_ul_m=3.4,
        gain_src_dbi=2.5,
        gain_node_dbi=9.2,
        gain_mon_dbi=9.2,
        leakage_kind="coupling",
        coupling_floor_dbm=-57.0,
        coupling_ref_tx_dbm=15.0,
        bit_rate_hz=20e3,
        protocol_enabled=True,
    ),
    # Circulator bench: -15 dBm CW straight into the rectifier, 20 dB minimum
    # isolation, 100 kHz modulation, level measurement only. The wired budget
    # does not depend on the carrier, so the bench's carrier is not modelled.
    "wired": dict(
        _COMMON_DEFAULTS,
        topology="wired",
        p_tx_dbm=-15.0,
        leakage_kind="circulator",
        circulator_isolation_db=20.0,
        bit_rate_hz=100e3,
        protocol_enabled=False,
    ),
}

PRESET_SUMMARIES = {
    "anechoic": "radiated 3-antenna setup: +15 dBm TX, 868 MHz, 3.4 m hops, "
    "coupling floor -57 dBm @ +15 dBm, 20 kHz keyed sessions",
    "wired": "circulator bench: -15 dBm CW (carrier not modelled), 20 dB isolation, "
    "100 kHz modulation, dynamic-range measurement only",
}


def _convert(kind: str | tuple[str, ...], raw: str):
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValueError(f"expected one of {list(kind)}, got {raw!r}")
        return raw
    if kind == "float":
        value = float(raw)
        if math.isnan(value):
            raise ValueError("nan is not a valid value")
        return value
    if kind == "int":
        return int(raw)
    if kind == "bool":
        lowered = raw.lower()
        if lowered not in ("true", "false"):
            raise ValueError(f"expected true/false, got {raw!r}")
        return lowered == "true"
    if kind == "curve":
        pairs = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            p, _, e = chunk.partition(":")
            pairs.append((float(p), float(e)))
        if not pairs:
            raise ValueError("efficiency curve needs at least one p_dbm:eta pair")
        return tuple(pairs)
    if kind == "floats":
        values = tuple(_convert("float", v) for v in raw.split(",") if v.strip())
        if not values:
            raise ValueError("expected a comma-separated list of numbers")
        return values
    return raw  # plain str


def _parse_pairs(text: str) -> dict[str, tuple[str, int]]:
    """Raw key -> (value, line number), with strict syntax/key checks."""
    pairs: dict[str, tuple[str, int]] = {}
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in pairs:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        pairs[key] = (value, lineno)
    if problems:
        raise ParseError("; ".join(problems))
    return pairs


def _not_applicable(required, values: dict) -> str:
    """Why a key with this requirement does not apply to ``values`` ("" if it
    does), with the selector's value spelt as in config text."""
    if required is True:
        return ""
    selector, wanted = required
    chosen = values[selector]
    if chosen is None or wanted in (None, chosen):
        return ""
    return f"not applicable when {_KEY_OF[selector]} = {str(chosen).lower()}"


def _violations(cfg: ScenarioConfig) -> list[str]:
    """Every schema violation of ``cfg``."""
    values = vars(cfg)
    bad: list[str] = []
    for f in _FIELDS:
        key, required, check = map(f.metadata.get, ("key", "required", "check"))
        value = values[f.name]
        why = _not_applicable(required, values)
        if why:
            if value is not None:
                bad.append(f"{key}: {why}")
            if key == values["sweep_param"]:
                bad.append(f"sweep.param: {key!r} {why}")
            continue
        if required is not True:
            selector, wanted = required
            required = values[selector] is not None
            condition = "is set" if wanted is None else f"= {str(wanted).lower()}"
            why = f" (required when {_KEY_OF[selector]} {condition})"
        if value is None:
            if required:
                bad.append(f"{key}: missing{why}")
        elif check is not None and not check[0](value):
            bad.append(f"{key}: {check[1].format(value)}")
    return bad


def load_config(source: str | Path, *, seed: int | None = None) -> ScenarioConfig:
    """Parse config text (a ``str``) or a config file (a ``Path``) into a
    ScenarioConfig whose points (``ScenarioConfig.points``) all build.
    A ``seed`` replaces the config's own before the schema judges it, so it
    loads exactly as config text that sets ``seed`` to it."""
    text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
    values: dict = {f.name: None for f in _FIELDS}
    conversion_problems = []
    for key, (raw, lineno) in _parse_pairs(text).items():
        attr, kind = _SCHEMA[key]
        try:
            values[attr] = _convert(kind, raw)
        except ValueError as exc:
            conversion_problems.append(f"line {lineno}: {key}: {exc}")
    if conversion_problems:
        raise ParseError("; ".join(conversion_problems))
    if seed is not None:
        values["seed"] = seed
    if values["setup"] is None:
        raise ValidationError(["setup: missing"])

    # a preset default fills an unset key only where that key applies; the
    # unconditional keys come first, since they hold the selectors
    preset = PRESETS.get(values["setup"], {})
    for f in sorted(_FIELDS, key=lambda f: f.metadata["required"] is not True):
        if values[f.name] is None and not _not_applicable(f.metadata["required"], values):
            values[f.name] = preset.get(f.name)
    cfg = ScenarioConfig(**values)
    cfg.points  # judges each point a row runs on, and keeps its link for the run
    return cfg


# --- builders ----------------------------------------------------------------


@contextlib.contextmanager
def _reading(*names: str):
    """Mark a ValueError or ArithmeticError raised inside as raised by a part
    of a point's build that reads ``names`` (config attributes or a section;
    none: unmarked), unless a narrower part marked it first."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        if names:
            vars(exc).setdefault("config_keys", ", ".join(_KEY_OF.get(n, n) for n in names))
        raise


# the attributes that feed each term of a link's budget (LinkScenario names
# the term that failed); a point's build names those that apply to it
_NODE_INPUT = {"p_tx_dbm", "frequency_hz", "distance_dl_m", "gain_src_dbi", "gain_node_dbi"}
_BACKSCATTER = _NODE_INPUT | {"distance_ul_m", "gain_mon_dbi", "gamma_low_db", "gamma_high_db"}
_LEAKAGE = {"p_tx_dbm", "circulator_isolation_db", "coupling_floor_dbm", "coupling_ref_tx_dbm"}
_LINK_TERM_READS = {
    "node input": _NODE_INPUT,
    "backscatter level": _BACKSCATTER,
    "leakage": _LEAKAGE,
    "monitor level": _BACKSCATTER | _LEAKAGE,
    "harvest": _NODE_INPUT | {"efficiency_curve"},
}


def _made(make, cfg: ScenarioConfig, *attrs: str, **kwargs):
    """``make`` called on the values of ``attrs`` in ``cfg``, which it reads."""
    with _reading(*attrs):
        return make(*[getattr(cfg, a) for a in attrs], **kwargs)


def build_point(cfg: ScenarioConfig) -> LinkScenario:
    """The link of one point, once each part its run builds has been judged:
    the link, the monitor, the trace length and, when keyed, the session's
    timing and event spacing, the table's shape and the node. What raises is
    marked with the config keys, or the section, that it reads."""
    with _reading("channel"):
        scenario = build_scenario(cfg)
    with _reading("bit_rate_hz", "oversampling"):
        build_monitor(cfg, PvkTable([]))
    if not cfg.protocol_enabled:
        _made(check_trace_samples, cfg, "probe_bits", "oversampling")
        return scenario
    _made(check_session_timing, cfg, "dt_s", "max_time_s")
    _made(check_table_shape, cfg, "n_keys", "key_len_bytes")
    _made(check_event_spacing, cfg, "dt_s", "max_time_s", "bit_rate_hz", "key_len_bytes")
    with _reading("key_len_bytes", "oversampling"):
        check_trace_samples(frame_bits(cfg.key_len_bytes), cfg.oversampling)
    with _reading("storage_capacity_j", "wake_threshold_j", "tx_cost_j_per_bit"):
        build_node(cfg, PvkTable([]))
    return scenario


def build_scenario(cfg: ScenarioConfig) -> LinkScenario:
    """LinkScenario for this config, its noise seeded with cfg.seed. A budget
    the link cannot compute is marked with the config keys that feed it."""
    rect = _made(RectifierModel, cfg, "gamma_low_db", "gamma_high_db", "efficiency_curve")
    if cfg.leakage_kind == "circulator":
        leakage = _made(LeakageModel.circulator, cfg, "circulator_isolation_db")
    else:
        leakage = LeakageModel.coupling(cfg.coupling_floor_dbm, cfg.coupling_ref_tx_dbm)
    antennas = {}
    if cfg.topology == "radiated":
        antennas = dict(
            src_tx=_made(AntennaSpec, cfg, "gain_src_dbi"),
            node_antenna=_made(AntennaSpec, cfg, "gain_node_dbi"),
            mon_rx=_made(AntennaSpec, cfg, "gain_mon_dbi"),
            dl=_made(LinkGeometry, cfg, "distance_dl_m", "frequency_hz"),
            ul=_made(LinkGeometry, cfg, "distance_ul_m", "frequency_hz"),
        )
    noise = _made(NoiseSpec, cfg, "noise_power_dbm", rng_seed=cfg.seed)
    try:
        return LinkScenario(
            name=cfg.setup,
            topology=cfg.topology,
            p_tx_dbm=cfg.p_tx_dbm,
            rect=rect,
            leakage=leakage,
            noise=noise,
            **antennas,
        )
    except ValueError as exc:
        reads = _LINK_TERM_READS.get(getattr(exc, "link_term", None), ())
        feeds = [f.name for f in _FIELDS if f.name in reads and vars(cfg)[f.name] is not None]
        with _reading(*feeds):  # none unless the failure names its budget term
            raise


def build_tables(cfg: ScenarioConfig) -> tuple[PvkTable, PvkTable]:
    """Identical provisioned tables for the node and the monitor side."""
    table = generate_table(cfg.n_keys, cfg.key_len_bytes, cfg.seed)
    return table, table.copy()


def build_node(cfg: ScenarioConfig, table: PvkTable) -> NodeState:
    return NodeState(
        table=table,
        storage_capacity_j=cfg.storage_capacity_j,
        wake_threshold_j=cfg.wake_threshold_j,
        tx_cost_j_per_bit=cfg.tx_cost_j_per_bit,
    )


def build_monitor(cfg: ScenarioConfig, table: PvkTable) -> MonitorConfig:
    return MonitorConfig(
        table=table,
        bit_rate_hz=cfg.bit_rate_hz,
        oversampling=cfg.oversampling,
    )
