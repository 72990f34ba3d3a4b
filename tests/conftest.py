"""Shared test setup.

BLAS thread pools are pinned to one thread before numpy loads so results
are reproducible and small-matrix work is not slowed by oversubscription.
"""

import json
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def rewrite_header():
    """``rewrite(path, edit)`` replaces the JSON header of the checkpoint file
    ``path`` by ``edit(header)``: new header bytes, or ``None`` after editing
    the dict in place.  The payload, and so its SHA-256, stays as it was."""
    def rewrite(path, edit):
        data = path.read_bytes()
        end = 8 + int.from_bytes(data[:8], "little")
        header = json.loads(data[8:end])
        raw = edit(header) or json.dumps(header).encode()
        path.write_bytes(len(raw).to_bytes(8, "little") + raw + data[end:])
    return rewrite
