"""Parameter initialization from a parameter table: ``(name, shape, init)``
rows, where ``init`` is ``"zeros"``, ``"ones"``, ``"stats"`` (a batch norm's
running mean and variance over ``shape[0]`` channels) or an int, the fan-in
of a HeNormal draw: a zero-mean gaussian with std sqrt(2 / fan_in).
"""

from __future__ import annotations

import math

import numpy as np

from .ops import RunningStats
from .tensor import Tensor


def init_from_table(rows, seed: int, dtype) -> tuple[dict, dict]:
    """Fresh (params, stats) for ``rows``, HeNormal drawn in row order."""
    rng = np.random.default_rng(seed)
    params, stats = {}, {}
    for name, shape, init in rows:
        if init == "stats":
            stats[name] = RunningStats(shape[0], dtype=dtype)
        elif init == "zeros":
            params[name] = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        elif init == "ones":
            params[name] = Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
        else:
            data = (rng.standard_normal(shape) * math.sqrt(2.0 / init)).astype(dtype)
            params[name] = Tensor(data, requires_grad=True)
    return params, stats
