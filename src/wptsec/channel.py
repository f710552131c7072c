"""RF power bookkeeping for the wireless-power security link.

Everything here is a pure function of its inputs. Powers cross module
boundaries in dBm; summation happens in linear watts. Two link topologies
are supported: a circulator-based wired bench and a radiated (free-space)
three-antenna setup.

A ``LinkScenario`` computes its noise-free budget (node input, harvested DC
power, the two state levels) once, on first use, and memoises it; copies
that differ only in the noise seed share that memo. Each memoised value is
a pure function of the frozen fields, so the memo is idempotent: threads
that share a scenario may fill it concurrently without a lock.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCurve, EmptyInput, NearFieldError

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Calibration defaults for the two reflection states and the RF-to-DC
# conversion curve. These are overridable scenario parameters, not claims.
DEFAULT_GAMMA_LOW_DB = -20.0
DEFAULT_GAMMA_HIGH_DB = -3.0
DEFAULT_EFFICIENCY_CURVE = (
    (-20.0, 0.05),
    (-10.0, 0.20),
    (0.0, 0.40),
    (10.0, 0.50),
    (20.0, 0.55),
)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def finite_watts(p_dbm: float) -> float:
    """dbm_to_watts of one power, or a ValueError when that is no finite
    power: NaN, +inf or past the float range. -inf dBm is 0 W."""
    try:
        watts = dbm_to_watts(p_dbm)
    except OverflowError:
        watts = math.inf
    if not watts < math.inf:
        raise ValueError(f"{p_dbm!r} dBm is not a finite power in watts")
    return watts


def watts_to_dbm(p_watts: float) -> float:
    if p_watts < 0:
        raise ValueError(f"negative power: {p_watts} W")
    if p_watts == 0.0:
        return float("-inf")
    return 10.0 * math.log10(p_watts) + 30.0


@dataclass(frozen=True)
class AntennaSpec:
    """Single-number antenna model: boresight gain in dBi."""

    gain_dbi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain_dbi):
            raise ValueError(f"gain_dbi must be finite, got {self.gain_dbi}")
        if not -10.0 <= self.gain_dbi <= 30.0:
            warnings.warn(
                f"antenna gain {self.gain_dbi} dBi outside typical [-10, +30] range",
                stacklevel=2,
            )


@dataclass(frozen=True)
class LinkGeometry:
    """One hop of a radiated link: separation and carrier frequency."""

    distance_m: float
    frequency_hz: float

    def __post_init__(self) -> None:
        if not 0 < self.distance_m < math.inf:
            raise ValueError(f"distance_m must be finite and > 0, got {self.distance_m}")
        if not 0 < self.frequency_hz < math.inf:
            raise ValueError(f"frequency_hz must be finite and > 0, got {self.frequency_hz}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz

    @property
    def is_far_field(self) -> bool:
        """True when the hop is at least one wavelength long."""
        return self.distance_m >= self.wavelength_m


@dataclass(frozen=True)
class RectifierModel:
    """Behavioral model of the switchable-matching rectifier.

    The input reflection toggles between a matched state (CMD low,
    ``gamma_low_db``) and a deliberately mismatched state (CMD high,
    ``gamma_high_db``); the mismatched state reflects more, which is the
    modulation mechanism. ``efficiency_curve`` maps input power in dBm to
    RF-to-DC conversion efficiency.
    """

    gamma_low_db: float = DEFAULT_GAMMA_LOW_DB
    gamma_high_db: float = DEFAULT_GAMMA_HIGH_DB
    efficiency_curve: tuple[tuple[float, float], ...] = DEFAULT_EFFICIENCY_CURVE

    def __post_init__(self) -> None:
        if self.gamma_low_db > 0 or self.gamma_high_db > 0:
            raise ValueError("reflection coefficients must be <= 0 dB (passive)")
        # Equality is allowed as the degenerate disabled-modulation case.
        if self.gamma_high_db < self.gamma_low_db:
            raise ValueError(
                f"gamma_high_db ({self.gamma_high_db}) must be >= "
                f"gamma_low_db ({self.gamma_low_db})"
            )
        object.__setattr__(
            self,
            "efficiency_curve",
            tuple((float(p), float(e)) for p, e in self.efficiency_curve),
        )
        pts = self.efficiency_curve
        for (p0, _), (p1, _) in zip(pts, pts[1:]):
            if p1 <= p0:
                raise ValueError("efficiency_curve must be strictly increasing in p_in_dbm")
        for _, eta in pts:
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"efficiency {eta} outside [0, 1]")

    def gamma_db(self, cmd_high: bool) -> float:
        return self.gamma_high_db if cmd_high else self.gamma_low_db


@dataclass(frozen=True)
class LeakageModel:
    """Power reaching the monitor without the backscatter contribution.

    Leakage is the TX power minus one fixed, calibrated loss: it reads
    ``floor_dbm_at_ref`` at TX power ``ref_tx_power_dbm`` and scales
    dB-for-dB with TX power. A wired bench leaks through the circulator
    (``circulator``: TX power minus the isolation); a radiated setup leaks
    through residual antenna coupling (``coupling``: one calibration point).
    """

    floor_dbm_at_ref: float
    ref_tx_power_dbm: float

    @classmethod
    def circulator(cls, isolation_db: float) -> "LeakageModel":
        # -iso + (p_tx - 0.0) is p_tx - iso bit for bit under IEEE-754
        if not isolation_db >= 0:
            raise ValueError("circulator_isolation_db must be >= 0")
        return cls(floor_dbm_at_ref=-isolation_db, ref_tx_power_dbm=0.0)

    @classmethod
    def coupling(cls, floor_dbm: float, ref_tx_power_dbm: float) -> "LeakageModel":
        return cls(floor_dbm_at_ref=floor_dbm, ref_tx_power_dbm=ref_tx_power_dbm)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive monitor-side noise: mean floor power plus a zero-mean
    Gaussian fluctuation of the same scale on instantaneous power.

    ``noise_power_dbm = -inf`` disables noise entirely; any other floor must
    be a finite power in watts. Identical seed and parameters reproduce
    identical sample sequences.
    """

    noise_power_dbm: float = -90.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        finite_watts(self.noise_power_dbm)

    @classmethod
    def silent(cls) -> "NoiseSpec":
        return cls(noise_power_dbm=float("-inf"))

    @property
    def mean_power_w(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)  # 0.0 at -inf

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)


def friis_received_power(
    p_tx_dbm: float, tx: AntennaSpec, rx: AntennaSpec, geom: LinkGeometry
) -> float:
    """One-hop free-space received power in dBm.

    p_rx = p_tx + g_tx + g_rx - 20*log10(4*pi*d/lambda)
    """
    if not geom.is_far_field:
        raise NearFieldError(
            f"distance {geom.distance_m} m is inside one wavelength "
            f"({geom.wavelength_m:.4f} m at {geom.frequency_hz / 1e6:.1f} MHz)"
        )
    fspl_db = 20.0 * math.log10(4.0 * math.pi * geom.distance_m / geom.wavelength_m)
    return p_tx_dbm + tx.gain_dbi + rx.gain_dbi - fspl_db


def backscatter_received_power(
    p_tx_dbm: float,
    src_tx: AntennaSpec,
    node: AntennaSpec,
    mon_rx: AntennaSpec,
    dl: LinkGeometry,
    ul: LinkGeometry,
    rect: RectifierModel,
    cmd_high: bool,
) -> float:
    """Two-hop backscatter budget: source -> node, reflect, node -> monitor.

    The node re-radiates the incident power scaled by the reflection
    coefficient of the commanded state.
    """
    incident = friis_received_power(p_tx_dbm, src_tx, node, dl)
    reflected = incident + rect.gamma_db(cmd_high)
    return friis_received_power(reflected, node, mon_rx, ul)


def leakage_power(p_tx_dbm: float, model: LeakageModel) -> float:
    """Monitor-side leakage level for a given TX power."""
    return model.floor_dbm_at_ref + (p_tx_dbm - model.ref_tx_power_dbm)


def combine_noncoherent(powers_dbm) -> float:
    """Power-sum a set of uncorrelated contributions, in dBm; each of them, and
    their sum, must be a finite power in watts."""
    powers = list(powers_dbm)
    if not powers:
        raise EmptyInput("combine_noncoherent needs at least one power")
    total_w = sum(map(finite_watts, powers))
    if total_w == math.inf:
        raise ValueError(f"powers {powers} dBm sum past the float range in watts")
    return watts_to_dbm(total_w)


def dynamic_range_db(p_high_state_dbm: float, p_low_state_dbm: float) -> float:
    """Difference between total monitor-received powers in the two CMD states."""
    return p_high_state_dbm - p_low_state_dbm


@functools.lru_cache(maxsize=16)
def _curve_arrays(curve: tuple[tuple[float, float], ...]) -> tuple[np.ndarray, np.ndarray]:
    """(p_in_dbm, eta) columns of an efficiency curve; read-only, since one
    pair is shared by every call on the same rectifier model."""
    xs, ys = np.array(curve).T.copy()
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def harvested_dc(p_in_dbm: float, rect: RectifierModel) -> float:
    """DC output power in watts for an RF input.

    Efficiency is piecewise-linear in (dBm, eta) space, clamped at the curve
    endpoints; the input must be a finite power in watts.
    """
    if not rect.efficiency_curve:
        raise EmptyCurve("rectifier has no efficiency curve points")
    eta = float(np.interp(p_in_dbm, *_curve_arrays(rect.efficiency_curve)))
    return eta * finite_watts(p_in_dbm)


@dataclass(frozen=True)
class LinkScenario:
    """Complete monitor-side link description for one experiment setup.

    ``topology`` selects the power budget: "wired" feeds the TX power
    straight into the rectifier through a circulator, "radiated" applies the
    two-hop free-space budget. Antennas and geometries are required only for
    the radiated case; its hops carry the carrier, which a reflection shares.

    ``node_input_dbm``, ``harvested_dc_w`` and ``state_level_dbm`` read a
    per-instance memo that is not a field, so ``==``, hash and repr ignore
    it. A value is stored only once it has been computed, so a call that
    raises (``NearFieldError``, ``EmptyCurve``, a power that is not finite in
    watts) raises again on every call. ``dataclasses.replace`` builds a new
    link with an empty memo; ``with_noise_seed`` keeps it.
    """

    name: str
    topology: str
    p_tx_dbm: float
    rect: RectifierModel = field(default_factory=RectifierModel)
    leakage: LeakageModel = field(default_factory=lambda: LeakageModel.circulator(20.0))
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    src_tx: AntennaSpec | None = None
    node_antenna: AntennaSpec | None = None
    mon_rx: AntennaSpec | None = None
    dl: LinkGeometry | None = None
    ul: LinkGeometry | None = None

    def __post_init__(self) -> None:
        if self.topology not in ("wired", "radiated"):
            raise ValueError(f"unknown topology: {self.topology!r}")
        if self.topology == "radiated":
            missing = [
                n
                for n in ("src_tx", "node_antenna", "mon_rx", "dl", "ul")
                if getattr(self, n) is None
            ]
            if missing:
                raise ValueError(f"radiated scenario missing: {', '.join(missing)}")
            if self.dl.frequency_hz != self.ul.frequency_hz:
                raise ValueError("downlink and uplink carriers differ")
        # the noise-free budget memo: an attribute, not a field
        object.__setattr__(self, "_budget", {})

    def with_noise_seed(self, rng_seed: int) -> "LinkScenario":
        """Copy with only the noise seed changed. No memoised value reads the
        noise, so the copy shares this link's memo; only its new NoiseSpec
        is built and checked."""
        clone = object.__new__(type(self))
        vars(clone).update(vars(self), noise=NoiseSpec(self.noise.noise_power_dbm, rng_seed))
        return clone

    def _memoised(self, key: str, compute) -> float:
        budget = self._budget
        if key not in budget:
            budget[key] = compute()
        return budget[key]

    def node_input_dbm(self) -> float:
        """RF power arriving at the rectifier input."""
        if self.topology == "wired":
            return self.p_tx_dbm
        return self._memoised(
            "node_input_dbm",
            lambda: friis_received_power(self.p_tx_dbm, self.src_tx, self.node_antenna, self.dl),
        )

    def harvested_dc_w(self) -> float:
        """DC power, in watts, that the rectifier makes of the node input."""
        return self._memoised(
            "harvested_dc_w", lambda: harvested_dc(self.node_input_dbm(), self.rect)
        )

    def backscatter_dbm(self, cmd_high: bool) -> float:
        """Backscattered component at the monitor for one CMD state."""
        if self.topology == "wired":
            return self.p_tx_dbm + self.rect.gamma_db(cmd_high)
        return backscatter_received_power(
            self.p_tx_dbm,
            self.src_tx,
            self.node_antenna,
            self.mon_rx,
            self.dl,
            self.ul,
            self.rect,
            cmd_high,
        )

    def leakage_dbm(self) -> float:
        return leakage_power(self.p_tx_dbm, self.leakage)

    def state_level_dbm(self, cmd_high: bool) -> float:
        """Deterministic monitor level for one CMD state (no noise term)."""
        return self._memoised(
            "state_level_high_dbm" if cmd_high else "state_level_low_dbm",
            lambda: combine_noncoherent([self.backscatter_dbm(cmd_high), self.leakage_dbm()]),
        )

    def monitor_level_dbm(self, cmd_high: bool) -> float:
        """Expected monitor level including the mean noise power."""
        # a silent floor adds 0 W, so the sum is the noise-free level's
        return combine_noncoherent(
            [self.backscatter_dbm(cmd_high), self.leakage_dbm(), self.noise.noise_power_dbm]
        )

    def predicted_dynamic_range_db(self) -> float:
        return dynamic_range_db(self.monitor_level_dbm(True), self.monitor_level_dbm(False))
