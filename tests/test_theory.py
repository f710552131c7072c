"""The simulator against its closed-form model: each measured dynamic range
lies within 0.1 dB of LinkScenario.predicted_dynamic_range_db()."""

import pytest

from wptsec.cli import run_experiment
from wptsec.config import build_scenario, load_config

# the largest gap on these sweeps is 0.059 dB (anechoic power sweep, seed 4)
DR_TOLERANCE_DB = 0.1

ANECHOIC_POWER_SWEEP = (
    "setup=anechoic\nprotocol.enabled=false\nsweep.param=channel.p_tx_dbm\n"
    "sweep.values=-15,-12,-9,-6,-3,0,3,6,9,12,15,18,21,24\n"
)
SWEEPS = {
    **{f"anechoic_power_seed{s}": ANECHOIC_POWER_SWEEP + f"seed={s}\n" for s in range(5)},
    "wired_power": "setup=wired\nsweep.param=channel.p_tx_dbm\nsweep.values=-30,-15,0,15\n",
    "wired_bit_rate": (
        "setup=wired\nsweep.param=waveform.bit_rate_hz\nsweep.values=1000,10000,100000\n"
    ),
    "anechoic_preset": "setup=anechoic\n",
    "wired_preset": "setup=wired\n",
}


@pytest.mark.parametrize("name", SWEEPS)
def test_measured_dr_matches_the_predicted_dr(name):
    cfg = load_config(SWEEPS[name])
    rows, _ = run_experiment(cfg)
    for row in rows:
        point = cfg
        if cfg.sweep_param is not None:
            point = cfg.with_override(cfg.sweep_param, row["sweep_value"])
        predicted = build_scenario(point).predicted_dynamic_range_db()
        assert abs(row["dr_db"] - predicted) <= DR_TOLERANCE_DB, (row, predicted)
