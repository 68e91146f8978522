"""Dense tensors (rank <= 3) with tape-based reverse-mode differentiation.

Two precisions are in play: float64 for verification (gradchecks, oracle
comparisons) and float32 for training and checkpoint storage.  Every op
checks its output for NaN/Inf; producing a non-finite value from finite
inputs is a contract violation and raises FloatingPointError.

The primitives here are the few the rest of the program composes: take
(an indexed part, such as one utterance's frames or some rows of a
stack), put_rows (a stack with some rows replaced) and weighted_sum (the
sum of a tensor's elements, each times a constant weight).  add, of two
tensors of one shape, is kept only for `bench/run.py`.  Larger blocks
with an analytic backward (the input frontend, the encoder's residual
sub-blocks and the CTC head, each of which takes a whole training
micro-batch as one (B, T, D) stack) register themselves through
`record_op` and are one tape entry each; the encoder's share the numpy
helpers `_sigmoid`, `_norm_forward` and `_norm_backward`, and the
softmaxes of attention and the CTC head share `_row_max`.

A training step records one tape per micro-batch: a padded stack of
utterances, forwarded and differentiated together.  An entry may list the
same tensor twice, as a residual block lists its input, once for the skip
connection's adjoint and once for the block's; `Tape.backward` sums them
in the order of the inputs.

Tape lifetime: a tape owns its entries, and so every recorded output and
the closures of their backward functions, but a tensor refers back to its
tape only through the tape's token, a plain object that refers to nothing,
and only a recorded output holds it: a leaf is known by its gradient
buffer, so a forward writes nothing to the parameters it reads.  No
reference cycle runs through a tape, so reference counting frees it, with
all its intermediates, as soon as the caller drops the tape; the cyclic
collector has nothing to do.  A tensor recorded on an earlier tape enters
a later one as a constant.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Dense numeric array of rank <= 3, optionally accumulating a gradient.

    Values are treated as immutable after construction (ops never write into
    an existing tensor's data).  `grad` is allocated when requires_grad is
    set and accumulates across backward passes until zero_grad().
    `_tape` is the token of the tape that recorded the tensor as an op's
    output, and None for every other tensor, leaves included.
    """

    __slots__ = ("data", "grad", "_tape")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if arr.ndim > 3:
            raise ValueError(f"rank {arr.ndim} exceeds the supported maximum of 3")
        if any(n < 1 for n in arr.shape):
            raise ValueError(f"zero-size extent in shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise FloatingPointError("tensor constructed from non-finite values")
        self.data = arr
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._tape: object | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


class Tape:
    """Ordered record of primitive ops for one reverse-mode sweep.

    Single-owner: enter the context, run the forward computation, then call
    backward(loss).  Entries are stored in execution order, which is a
    topological order by construction.  An op is recorded when an input is
    on this tape or is a leaf, a tensor with a gradient buffer.  Recorded
    outputs hold the tape's `_token`, made once per tape, rather than the
    tape itself, so the tape lives exactly as long as its owner keeps it.
    The sweep keys the adjoints of outputs and leaves by `id()`: the
    entries hold them all, so no two share an id.
    """

    _active: "Tape | None" = None  # ops record only while a tape is active

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._token = object()

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        Tape._active = self
        return self

    def __exit__(self, *exc) -> None:
        Tape._active = None

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)=1 through the tape, accumulating leaf grads.

        Each reachable gradient is populated in one traversal; fan-out
        accumulates, and each leaf's adjoints are summed before the total is
        added to its `grad`.  Repeated calls without zero_grad() keep
        accumulating.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
        token = self._token
        if loss._tape is not token:
            raise RuntimeError("loss was not recorded on this tape")
        adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        for out, inputs, backward_fn in reversed(self._entries):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None:
                    continue
                if t._tape is not token:
                    if t.grad is None:  # a constant
                        continue
                    leaves[id(t)] = t
                prev = adjoint.get(id(t))
                adjoint[id(t)] = gi if prev is None else prev + gi
        for key, leaf in leaves.items():
            leaf.grad += adjoint[key]


def _finish(data: np.ndarray, inputs: tuple[Tensor, ...],
            backward_fn: Callable) -> Tensor:
    if not np.isfinite(data).all():
        raise FloatingPointError("op produced a non-finite value")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._tape = None
    tape = Tape._active
    if tape is not None and any(t._tape is tape._token or t.grad is not None
                                for t in inputs):
        out._tape = tape._token
        tape._entries.append((out, inputs, backward_fn))
    return out


def record_op(data, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Register a custom primitive: `backward_fn(g)` must return one adjoint
    (or None) per input.  Used for ops whose gradient is computed analytically
    rather than by composing tape primitives."""
    return _finish(np.asarray(data), tuple(inputs), backward_fn)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape and dtype; nothing is
    broadcast.  The program itself does not call it: it is kept for
    `bench/run.py`, which sums per-utterance losses with it."""
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"add: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    if a.shape != b.shape:
        raise ValueError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return _finish(a.data + b.data, (a, b), lambda g: (g, g))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # exp of -|v| never overflows; the numerator is 1 where v >= 0 (e <= 1
    # there) and e elsewhere, so each entry is the piecewise form's
    e = np.exp(-np.abs(v))
    return np.maximum(e, v >= 0) / (1.0 + e)


def _row_max(a: np.ndarray) -> np.ndarray:
    """`a.max(axis=-1, keepdims=True)`, bit for bit.  numpy pays a fixed
    cost per row to reduce along the last axis, which dominates on the
    short rows of a softmax (15 scores, 6 symbols), so the rows become the
    columns of one contiguous copy and are reduced together, element by
    element.  Both forms pick the same value, but of a 0.0 and a -0.0 each
    may keep either, so a maximum of zero takes numpy's own reduction."""
    m = np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T).max(axis=0)
    if not m.all():
        return a.max(axis=-1, keepdims=True)
    return m.reshape(*a.shape[:-1], 1)


def _norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                  eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis: (gain * xhat + bias, xhat, inv), with
    the population variance.  The sums and divisions are the ones np.mean
    and np.var make, so the bits are theirs.  Each step after the centring
    writes in place on an array this call made."""
    n = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / n + eps)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _norm_backward(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                   inv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoints (dx, dgain, dbias) of `_norm_forward` for the output adjoint g."""
    n = g.shape[-1]
    lead = tuple(range(g.ndim - 1))
    gx = g * gain
    dx = inv * (gx - gx.sum(axis=-1, keepdims=True) / n
                - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / n))
    return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def take(x: Tensor, index) -> Tensor:
    """`x.data[index]`, such as one row's first frames, (row, slice(length)),
    or some rows of a stack; `index` may select each element only once."""
    def bfn(g):
        d = np.zeros_like(x.data)
        d[index] = g
        return (d,)
    return _finish(x.data[index], (x,), bfn)


def put_rows(x: Tensor, rows: np.ndarray, y: Tensor) -> Tensor:
    """`x` with its rows `rows`, distinct indices, replaced by those of `y`."""
    out = x.data.copy()
    out[rows] = y.data

    def bfn(g):
        gx = g.copy()
        gx[rows] = 0.0
        return gx, g[rows]
    return _finish(out, (x, y), bfn)


def weighted_sum(x: Tensor, w: np.ndarray) -> Tensor:
    """The sum of w * x as a 0-d tensor, for a constant array `w` of x's
    shape; its backward is g * w."""
    w = np.asarray(w, dtype=x.dtype)
    if w.shape != x.shape:
        raise ValueError(f"weighted_sum: weights of shape {w.shape} for {x.shape}")
    return _finish(np.asarray((x.data * w).sum(), dtype=x.dtype), (x,), lambda g: (g * w,))


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradcheckReport:
    """Per-parameter worst relative error between analytic and central
    finite-difference gradients."""

    per_param: dict[str, float]

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    def ok(self, tol: float) -> bool:
        return self.max_rel_error < tol

    def lines(self) -> list[str]:
        width = max((len(n) for n in self.per_param), default=0)
        return [f"{name:<{width}}  {err:.3e}"
                for name, err in sorted(self.per_param.items())]


def gradcheck(f: Callable[[], Tensor], params: Mapping[str, Tensor],
              eps: float = 1e-5) -> GradcheckReport:
    """Compare tape gradients of the scalar f() against central differences.

    f must re-evaluate the computation from the current parameter values on
    every call and be deterministic.  Parameters must be float64 for the
    stated tolerances to be meaningful.
    """
    for p in params.values():
        if p.grad is None:
            raise ValueError("gradcheck parameters need requires_grad=True")
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    tape.backward(loss)

    report: dict[str, float] = {}
    for name, p in params.items():
        analytic = p.grad.astype(np.float64, copy=True)
        numeric = np.zeros_like(analytic)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
        report[name] = float((np.abs(analytic - numeric) / denom).max())
    return GradcheckReport(report)
