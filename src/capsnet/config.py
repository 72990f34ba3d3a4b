"""Model and training configuration.

Configs are plain dataclasses that validate on construction and round-trip
through JSON-friendly dicts (used by checkpoints and the command line).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .backbone import BLOCK_VARIANTS
from .errors import ConfigError
from .routing import ROUTING_VARIANTS

DTYPES = ("float32", "float64")

# Fields that earlier versions of ModelConfig had, with their defaults.  A
# saved config that holds one at that default still loads; any other value
# names a model this version cannot build.
_REMOVED_FIELDS = {"stage_widths": None, "primary_caps_channels": None,
                   "se_ratio": None, "wide_plan": "quarter_half"}


@dataclass
class ModelConfig:
    """Static architecture description.

    The stage widths are (s/2, s, 2s) for stem output width s, the primary
    capsule conv keeps the backbone output width, and every SE gate uses
    ``default_se_ratio`` of its width.
    """

    input_shape: tuple[int, int, int] = (32, 32, 3)   # (H, W, C)
    num_classes: int = 10
    stem_widths: tuple[int, ...] = (16, 32, 64, 128)
    stage_depths: tuple[int, int, int] = (4, 8, 4)
    block_variant: str = "wide"
    use_se: bool = True
    use_attention: bool = True
    routing: str = "modified"
    primary_caps_dim: int = 16
    capsule_dim: int = 16
    dtype: str = "float32"

    def __post_init__(self):
        self.input_shape = tuple(int(v) for v in self.input_shape)
        self.stem_widths = tuple(int(v) for v in self.stem_widths)
        self.stage_depths = tuple(int(v) for v in self.stage_depths)
        if len(self.input_shape) != 3 or any(v < 1 for v in self.input_shape):
            raise ConfigError(f"input_shape must be (H, W, C) of positives, got {self.input_shape}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if not self.stem_widths or any(w < 1 for w in self.stem_widths):
            raise ConfigError(f"stem_widths must be positive, got {self.stem_widths}")
        if len(self.stage_depths) != 3 or any(d < 1 for d in self.stage_depths):
            raise ConfigError(f"stage_depths must be 3 positives, got {self.stage_depths}")
        if self.block_variant not in BLOCK_VARIANTS:
            raise ConfigError(f"block_variant must be one of {BLOCK_VARIANTS}, "
                              f"got {self.block_variant!r}")
        if self.routing not in ROUTING_VARIANTS:
            raise ConfigError(f"routing must be one of {ROUTING_VARIANTS}, got {self.routing!r}")
        if self.primary_caps_dim < 1 or self.capsule_dim < 1:
            raise ConfigError("capsule dimensions must be >= 1")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")

    def resolved_stage_widths(self) -> tuple[int, int, int]:
        s = self.stem_widths[-1]
        if s % 2:
            raise ConfigError(f"cannot derive stage widths from odd stem output width {s}")
        return (s // 2, s, 2 * s)

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("input_shape", "stem_widths", "stage_depths"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = {k: v for k, v in d.items()
             if not (k in _REMOVED_FIELDS and v == _REMOVED_FIELDS[k])}
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class TrainConfig:
    """Optimization settings: SGD with momentum, L2, and stepped LR decay."""

    epochs: int = 1
    batch_size: int = 64
    base_lr: float = 0.01
    momentum: float = 0.9
    l2: float = 5e-4
    drop_rate: float = 0.5
    epoch_drop: int = 60
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2 (batch norm), got {self.batch_size}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")
        if not 0.0 < self.drop_rate <= 1.0:
            raise ConfigError(f"drop_rate must be in (0, 1], got {self.drop_rate}")
        if self.epoch_drop < 1:
            raise ConfigError(f"epoch_drop must be >= 1, got {self.epoch_drop}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**d)
