"""Model and training configuration.

Configs are plain dataclasses that validate on construction and round-trip
through JSON-friendly dicts (used by checkpoints and the command line).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

from .backbone import BLOCK_VARIANTS
from .errors import ConfigError
from .routing import ROUTING_VARIANTS

DTYPES = ("float32", "float64")


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


# What each annotated field type accepts, and how an error names it.
_ACCEPTS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number",
              lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of integers",
              lambda v: isinstance(v, (list, tuple)) and all(_is_int(x) for x in v)),
}


def _check_types(config) -> None:
    """Raise ConfigError unless each field holds its annotated type (a bool
    is neither an integer nor a number, and 8.0 is not an integer), then
    make the integer fields plain ints and the tuple fields tuples of them."""
    for f in fields(config):
        kind = f.type.split("[")[0]  # annotations are strings here, e.g. "tuple[int, ...]"
        value = getattr(config, f.name)
        want, accepts = _ACCEPTS[kind]
        if not accepts(value):
            raise ConfigError(f"{f.name} must be {want}, got {value!r}")
        if kind == "int":
            setattr(config, f.name, int(value))
        elif kind == "tuple":
            setattr(config, f.name, tuple(int(v) for v in value))


def _from_dict(cls, d: dict, kind: str):
    """Build ``cls`` from a saved dict; a key the dataclass lacks is an error."""
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {kind} config keys: {sorted(unknown)}")
    return cls(**d)


@dataclass
class ModelConfig:
    """Static architecture description.

    The stage widths are (s/2, s, 2s) for stem output width s, the primary
    capsule conv keeps the backbone output width, every SE gate uses
    ``default_se_ratio`` of its width, and every capsule is
    ``model.CAPSULE_DIM`` (16) wide.
    """

    input_shape: tuple[int, int, int] = (32, 32, 3)   # (H, W, C)
    num_classes: int = 10
    stem_widths: tuple[int, ...] = (16, 32, 64, 128)
    stage_depths: tuple[int, int, int] = (4, 8, 4)
    block_variant: str = "wide"
    use_se: bool = True
    use_attention: bool = True
    routing: str = "modified"
    dtype: str = "float32"

    def __post_init__(self):
        _check_types(self)
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
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")

    def resolved_stage_widths(self) -> tuple[int, int, int]:
        s = self.stem_widths[-1]
        if s % 2:
            raise ConfigError(f"cannot derive stage widths from odd stem output width {s}")
        return (s // 2, s, 2 * s)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return _from_dict(cls, d, "model")


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

    def __post_init__(self):
        _check_types(self)
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
        return _from_dict(cls, d, "train")
