"""Exception types shared across the simulator."""


class NearFieldError(ValueError):
    """Link distance is inside one wavelength; free-space model not applicable."""


class EmptyInput(ValueError):
    """An operation that needs at least one value received none."""


class EmptyCurve(ValueError):
    """Rectifier efficiency curve has no points."""


class PayloadTooLarge(ValueError):
    """Frame payload exceeds the 64-byte maximum."""


class BitRateTooHigh(ValueError):
    """Requested modulation rate exceeds the 100 kHz switching ceiling."""


class UndersampledError(ValueError):
    """Sample rate below the 8x-per-bit oversampling contract."""


class InvertedLevels(ValueError):
    """High-state power below low-state power."""


class EmptyTrace(ValueError):
    """Envelope trace contains no samples."""


class TraceTooLong(ValueError):
    """A trace would hold more than waveform.MAX_TRACE_SAMPLES samples."""


class LevelOverflow(ValueError):
    """A trace's levels in watts, or the sums that average them, would pass
    the float range."""


class TraceFormatError(ValueError):
    """Envelope trace file does not match the documented format."""


class NoSync(RuntimeError):
    """No sample offset reached the preamble match score."""


class TableExhausted(RuntimeError):
    """Key table has no unused entries left."""


class TableCapacityError(ValueError):
    """More distinct keys requested than the key length can represent."""


class TableTooLarge(ValueError):
    """A key table would hold more than protocol.MAX_TABLE_KEYS keys."""


class ParseError(ValueError):
    """Config text could not be parsed; message carries line diagnostics."""


class ValidationError(ValueError):
    """Config parsed but violates the schema; message lists every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n  " + "\n  ".join(self.violations))
