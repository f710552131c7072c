"""wptsec: simulator and verification library for backscatter-keyed
authentication over wireless power transfer links.

A sensor node's rectifier ON/OFF-modulates its reflection of the incoming
energy wave with a one-time key code; the monitor at the RF source
demodulates the backscattered envelope, decodes the code, and verifies it
against the provisioned table.
"""

from .channel import (
    AntennaSpec,
    LeakageModel,
    LinkGeometry,
    LinkScenario,
    NoiseSpec,
    RectifierModel,
    backscatter_received_power,
    combine_noncoherent,
    dynamic_range_db,
    friis_received_power,
    harvested_dc,
    leakage_power,
)
from .config import ScenarioConfig, load_config, load_preset
from .monitor import (
    AuthDecision,
    DecodeResult,
    authenticate,
    decode_frame,
    decode_trace,
    measure_levels,
    recover_bits,
    verify,
)
from .protocol import (
    Attacker,
    MonitorConfig,
    NodeState,
    PvkTable,
    SessionLog,
    generate_table,
    run_session,
)
from .waveform import (
    EnvelopeTrace,
    Frame,
    build_frame,
    frame_to_bits,
    generate_square_cmd,
    read_trace,
    synthesize_envelope,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaSpec",
    "Attacker",
    "AuthDecision",
    "DecodeResult",
    "EnvelopeTrace",
    "Frame",
    "LeakageModel",
    "LinkGeometry",
    "LinkScenario",
    "MonitorConfig",
    "NodeState",
    "NoiseSpec",
    "PvkTable",
    "RectifierModel",
    "ScenarioConfig",
    "SessionLog",
    "authenticate",
    "backscatter_received_power",
    "build_frame",
    "combine_noncoherent",
    "decode_frame",
    "decode_trace",
    "dynamic_range_db",
    "frame_to_bits",
    "friis_received_power",
    "generate_square_cmd",
    "generate_table",
    "harvested_dc",
    "leakage_power",
    "load_config",
    "load_preset",
    "measure_levels",
    "read_trace",
    "recover_bits",
    "run_session",
    "synthesize_envelope",
    "verify",
    "write_trace",
]
