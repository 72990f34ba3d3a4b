"""Architecture ladder: cumulative feature switches from baseline to full.

Each rung flips one design choice on top of the previous rung:

* v1  standard bottlenecks, exp routing activations, no SE, no attention
* v2  v1 with softmax routing activations
* v3  v2 with SE gates inside the residual blocks
* v4  v3 with the widened bottleneck plan
* v5  v4 with class-wise attention on the capsule outputs (full model)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from .config import ModelConfig, TrainConfig
from .errors import ConfigError
from .model import CapsuleClassifier
from .training import evaluate, fit, init_train_state

LADDER = ("v1", "v2", "v3", "v4", "v5")

RUNG_SWITCHES: dict[str, dict] = {
    "v1": dict(block_variant="standard", routing="original",
               use_se=False, use_attention=False),
    "v2": dict(block_variant="standard", routing="modified",
               use_se=False, use_attention=False),
    "v3": dict(block_variant="standard", routing="modified",
               use_se=True, use_attention=False),
    "v4": dict(block_variant="wide", routing="modified",
               use_se=True, use_attention=False),
    "v5": dict(block_variant="wide", routing="modified",
               use_se=True, use_attention=True),
}


def ladder_config(base: ModelConfig, rung: str) -> ModelConfig:
    """Apply a rung's switches to a base config (other fields unchanged)."""
    if rung not in RUNG_SWITCHES:
        raise ConfigError(f"unknown ladder rung {rung!r}; choose from {LADDER}")
    return replace(base, **RUNG_SWITCHES[rung])


def run_ladder(base: ModelConfig, train_config: TrainConfig,
               train_data: tuple, eval_data: tuple,
               rungs: Optional[Sequence[str]] = None,
               verbose: bool = False) -> dict[str, dict]:
    """Train each rung from scratch with identical data and seed.

    Returns {rung: {"accuracy", "loss", "history", "config"}} evaluated on
    ``eval_data`` after the final epoch.
    """
    results: dict[str, dict] = {}
    for rung in (rungs if rungs is not None else LADDER):
        cfg = ladder_config(base, rung)
        model = CapsuleClassifier(cfg)
        state = init_train_state(model, train_config)
        if verbose:
            print(f"--- rung {rung}: variant={cfg.block_variant} routing={cfg.routing} "
                  f"se={cfg.use_se} attention={cfg.use_attention}", flush=True)
        history = fit(model, state, train_data, verbose=verbose)
        metrics = evaluate(model, state.params, state.stats, eval_data[0], eval_data[1])
        results[rung] = {"accuracy": metrics["accuracy"], "loss": metrics["loss"],
                         "history": history, "config": cfg}
    return results
