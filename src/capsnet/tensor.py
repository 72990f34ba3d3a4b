"""Dense tensors and the gradient tape used for reverse-mode differentiation.

Values are stored as flat row-major numpy arrays, so reshapes of contiguous
tensors are metadata-only views.  Tensors are treated as immutable once
produced: operations build new tensors, and the optimizer swaps in fresh
parameter tensors instead of writing through old ones.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray
VjpFn = Callable[[Array], Array]

# Serials for ``Tensor.key``: unlike ``id()``, never reused by a later tensor.
_KEYS = itertools.count()


class Tensor:
    """A dense N-dimensional array of real scalars with shape metadata.

    Verification paths use float64; training paths may use float32.  The
    dtype of ``data`` is preserved by every operation.  ``key`` is a serial
    no other tensor of the process shares; the tape names tensors by it.
    """

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.char not in "fd":  # float32, float64
            arr = arr.astype(np.float64)
        if not arr.size:
            raise ShapeError(f"tensor extents must all be >= 1, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


# The tape of the current context: a thread sees only a tape it opened
# itself, so one thread's tape never records another thread's ops.
_ACTIVE_TAPE: ContextVar[Optional["GradientTape"]] = ContextVar("active_tape", default=None)


def active_tape() -> Optional["GradientTape"]:
    return _ACTIVE_TAPE.get()


class GradientTape:
    """Ordered record of executed operations, replayed backward exactly once.

    Use as a context manager around the forward computation::

        with GradientTape() as tape:
            loss = some_scalar_function(params)
        grads = tape.gradient(loss, list_of_param_tensors)

    Gradients accumulate additively whenever a tensor feeds several
    consumers.  A record is its output's ``Tensor.key`` plus one
    ``(key, vjp)`` link per tracked input, and holds no tensor, so between
    forward and backward the tape keeps alive only the arrays its vjp
    closures read: an activation no vjp reads is freed as soon as the
    forward code drops it.  ``gradient()`` consumes the tape: it walks the
    records newest-first and frees each record (with the arrays its closures
    hold) and each intermediate gradient as soon as it is used, so a second
    call raises ``RuntimeError``.  ``len()`` counts the operations recorded,
    before and after.  A tape is active only in the context (thread) that
    entered it, and tapes do not nest within one context; forward/backward
    over one tape is single-threaded.

    Ownership has one rule: no code writes into a gradient during the walk,
    and ``gradient()`` hands each source a writable array that shares no
    memory with another.  A vjp may return its cotangent itself, a view of
    it or a read-only broadcast; a fan-in is summed into a new array.
    """

    def __init__(self):
        self._records: list[Optional[tuple[int, list[tuple[int, VjpFn]]]]] = []
        self._consumed = False

    def __enter__(self) -> "GradientTape":
        if _ACTIVE_TAPE.get() is not None:
            raise RuntimeError("a GradientTape is already active; tapes do not nest")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPE.set(None)
        return False

    def record(self, out: Tensor, links: list[tuple[int, VjpFn]]) -> None:
        """Record ``out`` and one ``(input key, vjp)`` link per tracked input."""
        self._records.append((out.key, links))

    def __len__(self) -> int:
        return len(self._records)

    def gradient(self, loss: Tensor, sources: Sequence[Tensor]) -> list[Array]:
        """Gradients of ``loss`` w.r.t. each source (zeros if unused).

        Consumes the tape.  The gradient of a record's output is dropped once
        its vjps have run, unless it is a source's.  A result that is
        read-only, or whose root buffer an earlier result already uses, is
        copied (see the class docstring)."""
        if loss.data.size != 1:
            raise ShapeError(f"gradient() needs a scalar loss, got shape {loss.shape}")
        if self._consumed:
            raise RuntimeError("this GradientTape was already used by gradient(); "
                               "record a new one")
        self._consumed = True
        keep = {s.key for s in sources}
        records = self._records
        grads: dict[int, Array] = {loss.key: np.ones_like(loss.data)}
        for k in range(len(records) - 1, -1, -1):
            out, links = records[k]
            records[k] = None
            g = grads.get(out) if out in keep else grads.pop(out, None)
            if g is None:
                continue
            for key, vjp in links:
                contribution = vjp(g)
                prev = grads.get(key)
                grads[key] = contribution if prev is None else prev + contribution
        result, roots = [], set()
        for s in sources:
            g = grads.get(s.key)
            if g is None:
                g = np.zeros_like(s.data)
            else:
                root = g
                while getattr(root, "base", None) is not None:
                    root = root.base
                if not g.flags.writeable or id(root) in roots:
                    g = g.copy()
                else:
                    roots.add(id(root))
            result.append(g)
        return result


def as_tensor(value) -> Tensor:
    """Wrap a python scalar, array, or Tensor into a constant Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
