"""Channel power-budget tests against independent linear-domain oracles."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wptsec.channel import (
    AntennaSpec,
    LeakageModel,
    LinkGeometry,
    LinkScenario,
    NoiseSpec,
    RectifierModel,
    backscatter_received_power,
    combine_noncoherent,
    dbm_to_watts,
    dynamic_range_db,
    friis_received_power,
    harvested_dc,
    leakage_power,
    watts_to_dbm,
)
from wptsec.errors import EmptyCurve, EmptyInput, NearFieldError

C = 299_792_458.0


def friis_oracle_dbm(p_tx_dbm, g_tx_dbi, g_rx_dbi, d_m, f_hz):
    """Independent check: evaluate the free-space budget entirely in watts."""
    lam = C / f_hz
    p_w = (
        10 ** ((p_tx_dbm - 30) / 10)
        * 10 ** (g_tx_dbi / 10)
        * 10 ** (g_rx_dbi / 10)
        * (lam / (4 * math.pi * d_m)) ** 2
    )
    return 10 * math.log10(p_w) + 30


def combine_oracle_dbm(powers):
    return 10 * math.log10(sum(10 ** (p / 10) for p in powers))


class TestFriis:
    def test_anechoic_numbers(self):
        # frozen from friis_oracle_dbm(15, 2.5, 9.2, 3.4, 868e6)
        got = friis_received_power(
            15.0, AntennaSpec(2.5), AntennaSpec(9.2), LinkGeometry(3.4, 868e6)
        )
        assert got == pytest.approx(-15.147756066258317, abs=1e-9)
        assert got == pytest.approx(-15.1, abs=0.05)

    def test_inverse_square_law(self):
        a = friis_received_power(7.0, AntennaSpec(1.0), AntennaSpec(2.0), LinkGeometry(2.0, 868e6))
        b = friis_received_power(7.0, AntennaSpec(1.0), AntennaSpec(2.0), LinkGeometry(20.0, 868e6))
        assert a - b == pytest.approx(20.0, abs=1e-12)

    def test_zero_gains_equal_minus_fspl(self):
        geom = LinkGeometry(5.0, 900e6)
        got = friis_received_power(0.0, AntennaSpec(0.0), AntennaSpec(0.0), geom)
        fspl = 20 * math.log10(4 * math.pi * geom.distance_m / geom.wavelength_m)
        assert got == -fspl

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            p = float(rng.uniform(-30, 30))
            gt = float(rng.uniform(-5, 15))
            gr = float(rng.uniform(-5, 15))
            f = float(rng.uniform(400e6, 6e9))
            d = float(rng.uniform(1.0, 100.0))
            got = friis_received_power(p, AntennaSpec(gt), AntennaSpec(gr), LinkGeometry(d, f))
            assert got == pytest.approx(friis_oracle_dbm(p, gt, gr, d, f), abs=1e-9)

    def test_near_field_rejected(self):
        # 868 MHz wavelength is ~0.345 m; 10 cm is inside it
        with pytest.raises(NearFieldError):
            friis_received_power(
                0.0, AntennaSpec(0.0), AntennaSpec(0.0), LinkGeometry(0.1, 868e6)
            )

    def test_strictly_monotonic_in_distance_and_gain(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = float(rng.uniform(1, 50))
            g = float(rng.uniform(-5, 10))
            base = friis_received_power(
                10.0, AntennaSpec(g), AntennaSpec(0.0), LinkGeometry(d, 868e6)
            )
            farther = friis_received_power(
                10.0, AntennaSpec(g), AntennaSpec(0.0), LinkGeometry(d * 1.01, 868e6)
            )
            hotter = friis_received_power(
                10.0, AntennaSpec(g + 0.1), AntennaSpec(0.0), LinkGeometry(d, 868e6)
            )
            assert farther < base < hotter


class TestBackscatter:
    def _geoms(self):
        return LinkGeometry(3.4, 868e6), LinkGeometry(3.4, 868e6)

    def test_degenerate_states_identical(self):
        rect = RectifierModel(gamma_low_db=-12.0, gamma_high_db=-12.0)
        dl, ul = self._geoms()
        args = (15.0, AntennaSpec(2.5), AntennaSpec(9.2), AntennaSpec(9.2), dl, ul, rect)
        assert backscatter_received_power(*args, True) == backscatter_received_power(*args, False)

    def test_reciprocity(self):
        rect = RectifierModel()
        geom = LinkGeometry(4.0, 868e6)
        a = backscatter_received_power(
            10.0, AntennaSpec(3.0), AntennaSpec(9.0), AntennaSpec(3.0), geom, geom, rect, True
        )
        b = backscatter_received_power(
            10.0, AntennaSpec(3.0), AntennaSpec(9.0), AntennaSpec(3.0), geom, geom, rect, True
        )
        assert a == b

    def test_state_difference_is_gamma_difference(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            rect = RectifierModel(
                gamma_low_db=float(rng.uniform(-30, -10)),
                gamma_high_db=float(rng.uniform(-9, 0)),
            )
            f = float(rng.uniform(400e6, 3e9))
            dl = LinkGeometry(float(rng.uniform(1, 20)), f)
            ul = LinkGeometry(float(rng.uniform(1, 20)), f)
            ants = [AntennaSpec(float(g)) for g in rng.uniform(-5, 12, size=3)]
            hi = backscatter_received_power(12.0, ants[0], ants[1], ants[2], dl, ul, rect, True)
            lo = backscatter_received_power(12.0, ants[0], ants[1], ants[2], dl, ul, rect, False)
            assert hi - lo == pytest.approx(
                rect.gamma_high_db - rect.gamma_low_db, abs=1e-9
            )


class TestLeakage:
    def test_coupling_calibration_point(self):
        model = LeakageModel.coupling(-57.0, 15.0)
        assert leakage_power(15.0, model) == -57.0

    def test_circulator_isolation(self):
        model = LeakageModel.circulator(20.0)
        assert leakage_power(-15.0, model) == -35.0

    def test_coupling_scales_db_for_db(self):
        model = LeakageModel.coupling(-57.0, 15.0)
        assert leakage_power(24.0, model) == pytest.approx(-57.0 + 9.0, abs=1e-12)

    def test_kind_parameterization_is_exclusive(self):
        with pytest.raises(ValueError):
            LeakageModel.circulator(-1.0)
        with pytest.raises(ValueError, match="circulator_isolation_db must be >= 0"):
            LeakageModel.circulator(math.nan)

    @given(
        p_tx=st.floats(allow_nan=False, allow_infinity=False),
        iso=st.floats(min_value=0.0, allow_infinity=False),
        floor=st.floats(allow_nan=False, allow_infinity=False),
        ref=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_one_formula_is_exact_for_both_setups(self, p_tx, iso, floor, ref):
        assert leakage_power(p_tx, LeakageModel.circulator(iso)) == p_tx - iso
        assert leakage_power(p_tx, LeakageModel.coupling(floor, ref)) == floor + (p_tx - ref)

    def test_model_is_two_numbers(self):
        names = [f.name for f in dataclasses.fields(LeakageModel)]
        assert names == ["floor_dbm_at_ref", "ref_tx_power_dbm"]
        assert LeakageModel.circulator(20.0) == LeakageModel(-20.0, 0.0)


class TestCombine:
    def test_doubling_adds_3db(self):
        assert combine_noncoherent([-30.0, -30.0]) == pytest.approx(
            -26.989700043360187, abs=1e-9
        )

    def test_negligible_term(self):
        assert combine_noncoherent([-40.0, -140.0]) == pytest.approx(-40.0, abs=1e-4)

    def test_three_term_sum(self):
        # frozen from combine_oracle_dbm([-57, -40, -90])
        assert combine_noncoherent([-57.0, -40.0, -90.0]) == pytest.approx(
            -39.91415742804024, abs=1e-9
        )

    def test_permutation_invariant_and_dominates_max(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            powers = list(rng.uniform(-90, -20, size=5))
            shuffled = list(rng.permutation(powers))
            a = combine_noncoherent(powers)
            b = combine_noncoherent(shuffled)
            assert a == pytest.approx(b, abs=1e-12)
            assert a >= max(powers)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            combine_noncoherent([])


class TestDynamicRange:
    def test_equal_inputs_zero(self):
        assert dynamic_range_db(-40.0, -40.0) == 0.0

    def test_anechoic_baseline(self):
        # oracle chain: two-hop budget + leakage + noise mean, summed in watts
        scenario = _anechoic_scenario()
        hi = scenario.monitor_level_dbm(True)
        lo = scenario.monitor_level_dbm(False)
        expect_hi = combine_oracle_dbm(
            [
                friis_oracle_dbm(
                    friis_oracle_dbm(15.0, 2.5, 9.2, 3.4, 868e6) - 3.0, 9.2, 9.2, 3.4, 868e6
                ),
                -57.0,
                -90.0,
            ]
        )
        expect_lo = combine_oracle_dbm(
            [
                friis_oracle_dbm(
                    friis_oracle_dbm(15.0, 2.5, 9.2, 3.4, 868e6) - 20.0, 9.2, 9.2, 3.4, 868e6
                ),
                -57.0,
                -90.0,
            ]
        )
        dr = dynamic_range_db(hi, lo)
        assert hi == pytest.approx(expect_hi, abs=1e-9)
        assert lo == pytest.approx(expect_lo, abs=1e-9)
        assert dr == pytest.approx(expect_hi - expect_lo, abs=1e-9)
        assert dr > 0

    def test_power_sweep_spread_stays_bounded(self):
        drs = []
        for p_tx in range(-15, 25, 3):
            scenario = _anechoic_scenario(p_tx_dbm=float(p_tx))
            drs.append(scenario.predicted_dynamic_range_db())
        assert max(drs) - min(drs) <= 1.5

    def test_dr_shrinks_as_leakage_floor_rises(self):
        bs_hi, bs_lo = -41.0, -58.0
        last = None
        for floor in np.linspace(-80.0, -30.0, 26):
            dr = dynamic_range_db(
                combine_noncoherent([bs_hi, floor]), combine_noncoherent([bs_lo, floor])
            )
            if last is not None:
                assert dr <= last
            last = dr


class TestHarvestedDc:
    def test_zero_efficiency(self):
        rect = RectifierModel(efficiency_curve=((-20.0, 0.0), (20.0, 0.0)))
        assert harvested_dc(0.0, rect) == 0.0

    def test_hand_computed_point(self):
        # 100 uW in at eta 0.2
        rect = RectifierModel(efficiency_curve=((-30.0, 0.2), (30.0, 0.2)))
        assert harvested_dc(-10.0, rect) == pytest.approx(20e-6, rel=1e-12)

    def test_clamped_below_curve(self):
        rect = RectifierModel()
        p_lo = harvested_dc(-60.0, rect)
        eta_min = rect.efficiency_curve[0][1]
        assert p_lo == pytest.approx(eta_min * dbm_to_watts(-60.0), rel=1e-12)
        p_hi = harvested_dc(60.0, rect)
        eta_max = rect.efficiency_curve[-1][1]
        assert p_hi == pytest.approx(eta_max * dbm_to_watts(60.0), rel=1e-12)

    def test_output_never_exceeds_input(self):
        rng = np.random.default_rng(21)
        rect = RectifierModel()
        for _ in range(100):
            p_in = float(rng.uniform(-40, 30))
            p_dc = harvested_dc(p_in, rect)
            assert p_dc <= dbm_to_watts(p_in)

    def test_empty_curve_rejected(self):
        rect = RectifierModel(efficiency_curve=())
        with pytest.raises(EmptyCurve):
            harvested_dc(0.0, rect)


class TestScenarioValidation:
    def test_hops_carry_the_carrier(self):
        assert "frequency_hz" not in {f.name for f in dataclasses.fields(LinkScenario)}

    @pytest.mark.parametrize("missing", ["src_tx", "node_antenna", "mon_rx", "dl", "ul"])
    def test_radiated_part_missing(self, missing):
        with pytest.raises(ValueError, match=f"radiated scenario missing: {missing}"):
            dataclasses.replace(_anechoic_scenario(), **{missing: None})

    def test_radiated_carriers_must_match(self):
        with pytest.raises(ValueError, match="downlink and uplink carriers differ"):
            dataclasses.replace(_anechoic_scenario(), ul=LinkGeometry(3.4, 915e6))

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology: 'optical'"):
            dataclasses.replace(_anechoic_scenario(), topology="optical")


class TestBudgetMemo:
    """A link computes its noise-free budget once, on first use."""

    @staticmethod
    def direct_budget(scenario: LinkScenario) -> list[float]:
        p_tx, rect = scenario.p_tx_dbm, scenario.rect
        if scenario.topology == "wired":
            p_in = p_tx
            backscatter = [p_tx + rect.gamma_db(high) for high in (True, False)]
        else:
            hops = (scenario.src_tx, scenario.node_antenna, scenario.mon_rx, scenario.dl)
            p_in = friis_received_power(p_tx, hops[0], hops[1], hops[3])
            backscatter = [
                backscatter_received_power(p_tx, *hops, scenario.ul, rect, high)
                for high in (True, False)
            ]
        leak = leakage_power(p_tx, scenario.leakage)
        levels = [combine_noncoherent([bs, leak]) for bs in backscatter]
        return [p_in, harvested_dc(p_in, rect), *levels]

    @staticmethod
    def memoised_budget(scenario: LinkScenario) -> list[float]:
        return [
            scenario.node_input_dbm(),
            scenario.harvested_dc_w(),
            scenario.state_level_dbm(True),
            scenario.state_level_dbm(False),
        ]

    @pytest.mark.parametrize("p_tx_dbm", [-30.0, -15.0, 0.0, 15.0, 24.0])
    def test_memoised_values_equal_direct_calls(self, p_tx_dbm):
        wired = LinkScenario(name="wired", topology="wired", p_tx_dbm=p_tx_dbm)
        for scenario in (wired, _anechoic_scenario(p_tx_dbm)):
            expected = repr(self.direct_budget(scenario))
            # the first read fills the memo, the second reads it back
            assert repr(self.memoised_budget(scenario)) == expected
            assert repr(self.memoised_budget(scenario)) == expected

    def test_memo_is_not_part_of_the_value(self):
        fresh, used = _anechoic_scenario(), _anechoic_scenario()
        self.memoised_budget(used)
        assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
        assert "_budget" not in {f.name for f in dataclasses.fields(LinkScenario)}

    def test_replace_starts_with_an_empty_memo(self, budget_calls):
        base = _anechoic_scenario(15.0)
        self.memoised_budget(base)
        moved = dataclasses.replace(base, p_tx_dbm=0.0)
        assert vars(moved)["_budget"] == {}
        assert self.memoised_budget(moved) == self.direct_budget(moved)
        assert self.memoised_budget(moved) != self.memoised_budget(base)
        # one computation each for base and moved (direct_budget is not counted)
        assert len(budget_calls["harvested_dc"]) == 2

    def test_new_noise_seed_shares_the_memo(self, budget_calls):
        base = _anechoic_scenario(15.0)
        copies = [base.with_noise_seed(seed) for seed in range(5)]
        for scenario in copies + [base]:
            self.memoised_budget(scenario)
        assert len(budget_calls["harvested_dc"]) == 1
        assert len(budget_calls["combine_noncoherent"]) == 2
        assert all(vars(c)["_budget"] is vars(base)["_budget"] for c in copies)

    def test_threads_sharing_one_memo_read_the_direct_values(self):
        base = _anechoic_scenario(9.0)
        expected = repr(self.direct_budget(base))
        results = []

        def read(seed):
            results.append(repr(self.memoised_budget(base.with_noise_seed(seed))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 8

    def test_failed_budget_raises_on_every_call(self):
        near = dataclasses.replace(_anechoic_scenario(), dl=LinkGeometry(0.1, 868e6))
        for _ in range(2):
            with pytest.raises(NearFieldError):
                near.node_input_dbm()
            with pytest.raises(NearFieldError):
                near.harvested_dc_w()
        empty = LinkScenario(
            name="wired", topology="wired", p_tx_dbm=0.0, rect=RectifierModel(efficiency_curve=())
        )
        for _ in range(2):
            with pytest.raises(EmptyCurve):
                empty.harvested_dc_w()
        assert vars(near)["_budget"] == vars(empty)["_budget"] == {}


class TestValidation:
    def test_antenna_gain_warning_not_error(self):
        with pytest.warns(UserWarning):
            AntennaSpec(40.0)
        with pytest.raises(ValueError):
            AntennaSpec(float("nan"))

    def test_geometry_positivity(self):
        with pytest.raises(ValueError):
            LinkGeometry(0.0, 868e6)
        with pytest.raises(ValueError):
            LinkGeometry(1.0, -1.0)

    @pytest.mark.parametrize(
        "distance_m, frequency_hz, name",
        [
            (math.nan, 868e6, "distance_m"),
            (math.inf, 868e6, "distance_m"),
            (3.4, math.nan, "frequency_hz"),
            (3.4, math.inf, "frequency_hz"),
        ],
    )
    def test_geometry_rejects_non_finite_values(self, distance_m, frequency_hz, name):
        # a NaN distance passed and was later reported as inside one
        # wavelength; an infinite carrier reached ZeroDivisionError in Friis
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            LinkGeometry(distance_m, frequency_hz)

    def test_rectifier_invariants(self):
        with pytest.raises(ValueError):
            RectifierModel(gamma_low_db=1.0)
        with pytest.raises(ValueError):
            RectifierModel(gamma_low_db=-3.0, gamma_high_db=-20.0)
        with pytest.raises(ValueError):
            RectifierModel(efficiency_curve=((-10.0, 0.1), (-10.0, 0.2)))
        with pytest.raises(ValueError):
            RectifierModel(efficiency_curve=((-10.0, 1.2),))
        with pytest.raises(TypeError):  # no output reads a load resistance
            RectifierModel(load_ohms=10e3)
        # equality of the two states is the allowed degenerate case
        RectifierModel(gamma_low_db=-12.0, gamma_high_db=-12.0)

    def test_watts_dbm_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = float(rng.uniform(-120, 30))
            assert watts_to_dbm(dbm_to_watts(p)) == pytest.approx(p, abs=1e-12)


def _anechoic_scenario(p_tx_dbm: float = 15.0) -> LinkScenario:
    return LinkScenario(
        name="anechoic",
        topology="radiated",
        p_tx_dbm=p_tx_dbm,
        rect=RectifierModel(),
        leakage=LeakageModel.coupling(-57.0, 15.0),
        noise=NoiseSpec(-90.0, 0),
        src_tx=AntennaSpec(2.5),
        node_antenna=AntennaSpec(9.2),
        mon_rx=AntennaSpec(9.2),
        dl=LinkGeometry(3.4, 868e6),
        ul=LinkGeometry(3.4, 868e6),
    )
