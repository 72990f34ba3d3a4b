"""Dense tensors and the gradient tape used for reverse-mode differentiation.

Values are stored as flat row-major numpy arrays, so reshapes of contiguous
tensors are metadata-only views.  Tensors are treated as immutable once
produced: operations build new tensors, and the optimizer swaps in fresh
parameter tensors instead of writing through old ones.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray
VjpFn = Callable[[Array], Array]

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense N-dimensional array of real scalars with shape metadata.

    Verification paths use float64; training paths may use float32.  The
    dtype of ``data`` is preserved by every operation.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if 0 in arr.shape:
            raise ShapeError(f"tensor extents must all be >= 1, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)

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
    consumers.  ``gradient()`` consumes the tape: it walks the records
    newest-first and frees each record (with the forward activations its
    closures hold) and each intermediate gradient as soon as it is used, so
    a second call raises ``RuntimeError``.  ``len()`` counts the operations
    recorded, before and after.  A tape is active only in the context
    (thread) that entered it, and tapes do not nest within one context;
    forward/backward over one tape is single-threaded.
    """

    def __init__(self):
        self._records: list[Optional[tuple[Tensor, tuple[Tensor, ...],
                                           tuple[Optional[VjpFn], ...]]]] = []
        self._consumed = False

    def __enter__(self) -> "GradientTape":
        if _ACTIVE_TAPE.get() is not None:
            raise RuntimeError("a GradientTape is already active; tapes do not nest")
        _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPE.set(None)
        return False

    def record(
        self,
        out: Tensor,
        inputs: tuple[Tensor, ...],
        vjps: tuple[Optional[VjpFn], ...],
    ) -> None:
        self._records.append((out, inputs, vjps))

    def __len__(self) -> int:
        return len(self._records)

    def _walk(self, loss: Tensor, keep: set[int]) -> dict[int, Array]:
        """Reverse-mode sweep; returns gradients keyed by tensor id.

        The gradient of a record's output is popped once its vjps have run,
        unless its id is in ``keep``.  A fan-in sum is added in place only
        into a buffer this walk allocated: a vjp may return its cotangent
        itself (``add``) or a view of it (``reshape``), or forward data.
        """
        if loss.data.size != 1:
            raise ShapeError(f"gradient() needs a scalar loss, got shape {loss.shape}")
        if self._consumed:
            raise RuntimeError("this GradientTape was already used by gradient(); "
                               "record a new one")
        self._consumed = True
        records = self._records
        grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
        owned: set[int] = set()
        for k in range(len(records) - 1, -1, -1):
            out, inputs, vjps = records[k]
            records[k] = None
            key = id(out)
            g = grads.get(key) if key in keep else grads.pop(key, None)
            if g is None:
                continue
            for inp, vjp in zip(inputs, vjps):
                if vjp is None:
                    continue
                contribution = vjp(g)
                key = id(inp)
                prev = grads.get(key)
                if prev is None:
                    grads[key] = contribution
                elif (key in owned and prev.shape == contribution.shape
                      and prev.dtype == contribution.dtype):
                    prev += contribution
                else:
                    grads[key] = prev + contribution
                    owned.add(key)
        return grads

    def gradient(self, loss: Tensor, sources: Sequence[Tensor]) -> list[Array]:
        """Gradients of ``loss`` w.r.t. each source (zeros if unused).

        Consumes the tape; see the class docstring."""
        grads = self._walk(loss, {id(s) for s in sources})
        return [grads.get(id(s), np.zeros_like(s.data)) for s in sources]


def as_tensor(value) -> Tensor:
    """Wrap a python scalar, array, or Tensor into a constant Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
