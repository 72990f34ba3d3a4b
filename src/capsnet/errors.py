"""Exception types shared across the library."""


class CapsnetError(Exception):
    """Base class for all library-specific errors."""


class ShapeError(CapsnetError, ValueError):
    """Operand shapes are inconsistent with the requested operation."""


class ConfigError(CapsnetError, ValueError):
    """A configuration value is invalid or internally inconsistent."""


class BatchSizeError(CapsnetError, ValueError):
    """The batch is too small for the requested statistic."""


class DataFormatError(CapsnetError, ValueError):
    """A data file is malformed, truncated, or has an unexpected header."""


class CheckpointError(DataFormatError):
    """A checkpoint file is malformed or corrupt, or a state to save is not
    the one its model config builds."""


class TrainingDivergenceError(CapsnetError, RuntimeError):
    """A gradient became non-finite during optimization."""


class GradientCheckError(CapsnetError, RuntimeError):
    """A gradient check could not be completed (non-finite values)."""
