"""Exact CTC likelihood via log-domain forward-backward, a brute-force
enumeration oracle, greedy decoding, and the log-posterior output head.

Token ids live in [1, V]; id 0 is the blank.  A grid is a (T, V+1) array of
per-frame log-posteriors (each row a log-softmax output).

The forward-backward runs once per utterance and head, with one Python step
per frame, so its cost is numpy calls per frame.  The alpha and beta
recursions advance together in one lattice row per frame: the forward
states after two -inf pads, then, after two more, the lattice reversed in
time and in state order, on which the backward recursion has the forward
one's shape.  Four numpy calls advance both halves, and the loss and
gradient keep the bits of two separate loops (see `ctc_forward_backward`).
"""
from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .tensor import Tensor, _row_max, record_op

BLANK = 0


class InfeasibleTargetError(ValueError):
    """Raised when no length-T alignment can collapse to the target."""


def collapse(alignment: Sequence[int]) -> tuple[int, ...]:
    """Merge adjacent repeats, then delete blanks."""
    out = []
    prev = None
    for sym in alignment:
        if sym != prev:
            out.append(int(sym))
        prev = sym
    return tuple(sym for sym in out if sym != BLANK)


def required_length(labels: Sequence[int]) -> int:
    """Minimum number of frames admitting an alignment that collapses to
    `labels`: one frame per token plus a separating blank per adjacent
    repeat."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _as_grid(grid) -> np.ndarray:
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(f"grid must be (T, V+1), got shape {arr.shape}")
    return arr


def _validate_labels(labels: Sequence[int], vocab: int) -> tuple[int, ...]:
    labels = tuple(int(t) for t in labels)
    if any(t < 1 or t > vocab for t in labels):
        raise ValueError(f"label ids must be in [1, {vocab}], got {labels}")
    return labels


def ctc_forward_backward(grid: np.ndarray,
                         labels: Sequence[int]) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of `labels` under the grid, plus its gradient
    with respect to the grid entries.

    The alpha (forward) and beta (backward) recursions over the
    blank-interleaved extended label sequence run in the log domain, both in
    one loop over frames.  Each frame advances one row of width 2S+4: two
    -inf pads, the S forward states, two -inf pads, then the S states of
    the lattice reversed in time and in state order.  On that row the
    backward step has the forward step's shape: a state takes itself, its
    left neighbour and, where the skip row allows, the state two to its
    left, then adds its emission.  `pre[t]` holds a frame's row before the
    emission is added and `post[t]` after it; alpha is the forward half of
    `post` and beta the reversed half of `pre`, flipped back.

    The bits are those of separate alpha and beta loops: a pad or a
    disallowed skip enters as logaddexp(x, -inf), which is x exactly (up
    to the sign of a zero), and the reversed half repeats the beta loop's
    float operations in the same order.  The gradient comes from the
    per-frame state occupancies exp(alpha + beta - logP).
    """
    arr = _as_grid(grid)
    steps, width = arr.shape
    labels = _validate_labels(labels, width - 1)
    if steps < required_length(labels):
        raise InfeasibleTargetError(
            f"target needs at least {required_length(labels)} frames, got {steps}")

    ext = np.zeros(2 * len(labels) + 1, dtype=np.intp)
    ext[1::2] = labels
    states = ext.size
    emit = arr[:, ext]  # (T, S) emission log-probs per lattice state

    # skip transition s-2 -> s exists when state s is a label differing from
    # the label two states back; adding -inf where it does not (and on the
    # pads) leaves logaddexp's other operand exactly as it is.  Laid out as
    # the row: the forward skips, the middle pads, the skips reversed.
    can_skip = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    skip = np.full(2 * states + 2, -np.inf)
    skip[2:states][can_skip] = 0.0
    skip[states + 4:][can_skip[::-1]] = 0.0
    # emissions along the row (T, 2S+2); -inf on the middle pads keeps them
    # at -inf in `post`
    row_emit = np.empty((steps, 2 * states + 2))
    row_emit[:, :states] = emit
    row_emit[:, states:states + 2] = -np.inf
    row_emit[:, states + 2:] = emit[::-1, ::-1]

    pre = np.full((steps, 2 * states + 2), -np.inf)
    post = np.full((steps, 2 * states + 4), -np.inf)
    pre[0, states + 2:states + 4] = 0.0  # beta at the last frame, reversed
    np.add(pre[0], row_emit[0], out=post[0, 2:])
    post[0, 2:2 + min(states, 2)] = emit[0, :2]  # alpha at the first frame
    # `post` as seen from each position of a `pre` row: the state itself,
    # its left neighbour and the state two to its left
    own, left1, left2 = post[:, 2:], post[:, 1:-1], post[:, :-2]
    tmp = np.empty(2 * states + 2)
    for prev, prev1, prev2, row, e, out in zip(own, left1, left2, pre[1:],
                                               row_emit[1:], own[1:]):
        np.logaddexp(prev, prev1, out=row)
        np.add(prev2, skip, out=tmp)
        np.logaddexp(row, tmp, out=row)
        np.add(row, e, out=out)

    alpha = post[:, 2:states + 2]
    beta = pre[:, states + 2:][::-1, ::-1]
    log_p = alpha[-1, -1]
    if states > 1:
        log_p = np.logaddexp(log_p, alpha[-1, -2])
    if not np.isfinite(log_p):
        raise InfeasibleTargetError("no feasible alignment (zero likelihood)")

    occupancy = np.exp(alpha + beta - log_p)  # (T, S)
    dgrid = np.zeros_like(arr)
    # ufunc.at applies its updates in index order: each state's column, in
    # state order, as a loop over states would
    np.subtract.at(dgrid.T, ext, occupancy.T)
    return float(-log_p), dgrid


def ctc_loss(grid, labels: Sequence[int]) -> Tensor:
    """CTC negative log-likelihood as a scalar tensor.

    The gradient with respect to the grid is analytic (alpha/beta products)
    and enters the tape as a single custom op.  Raises
    InfeasibleTargetError when T < required_length(labels).
    """
    if not isinstance(grid, Tensor):
        grid = Tensor(grid)
    loss, dgrid = ctc_forward_backward(grid.data, labels)
    dgrid = dgrid.astype(grid.dtype, copy=False)
    return record_op(np.asarray(loss, dtype=grid.dtype), (grid,),
                     lambda g: (g * dgrid,))


def ctc_loss_bruteforce(grid, labels: Sequence[int],
                        guard: int = 10**6) -> float:
    """Oracle: enumerate every length-T alignment, sum the probability of
    those collapsing to `labels`, return the negative log.  Infeasible
    targets give +inf."""
    arr = _as_grid(grid)
    steps, width = arr.shape
    labels = _validate_labels(labels, width - 1)
    if width ** steps > guard:
        raise ValueError(f"enumeration of {width}**{steps} alignments exceeds guard {guard}")
    probs = np.exp(arr)
    total = 0.0
    for alignment in itertools.product(range(width), repeat=steps):
        if collapse(alignment) == labels:
            p = 1.0
            for t, sym in enumerate(alignment):
                p *= probs[t, sym]
            total += p
    return -math.log(total) if total > 0.0 else math.inf


def greedy_decode(grid) -> list[tuple[int, ...]]:
    """Per-frame argmax followed by collapse; ties go to the lowest id.

    A (B, T, V+1) stack of grids gives one decode per row, from one argmax
    over the stack: a frame's symbol is kept where it is not the blank and
    differs from the frame before it.  The argmax runs in the grid's own
    dtype: an exact upcast would pick the same symbols."""
    arr = np.asarray(grid)
    if arr.ndim != 3 or arr.shape[-1] < 2:
        raise ValueError(f"grid must be a (B, T, V+1) stack, got shape {arr.shape}")
    best = np.argmax(arr, axis=-1)
    keep = best != BLANK
    keep[:, 1:] &= best[:, 1:] != best[:, :-1]
    tokens = best[keep].tolist()
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [tuple(tokens[start:end]) for start, end in zip([0] + ends, ends)]


class CTCHead:
    """Linear projection d -> V+1 followed by log-softmax; produces the
    log-posterior grid for a layer representation."""

    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    @classmethod
    def build(cls, d_model: int, vocab: int, rng: np.random.Generator,
              dtype=np.float64) -> "CTCHead":
        bound = 1.0 / math.sqrt(d_model)
        weight = rng.uniform(-bound, bound, size=(d_model, vocab + 1))
        return cls(Tensor(weight.astype(dtype), requires_grad=True),
                   Tensor(np.zeros(vocab + 1, dtype=dtype), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        """Log-posteriors of a (B, T, D) stack of representations (or of
        any (..., D) array), recorded as one tape entry."""
        if x.shape[-1] != self.weight.shape[0]:
            raise ValueError(
                f"head expects width {self.weight.shape[0]}, got {x.shape[-1]}")
        w, b = self.weight.data, self.bias.data
        rows = x.data.reshape(-1, w.shape[0])
        lead = tuple(range(x.data.ndim - 1))
        z = (rows @ w).reshape(*x.shape[:-1], w.shape[1]) + b
        shifted = z - _row_max(z)
        y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

        def bfn(g):
            dz = g - np.exp(y) * g.sum(axis=-1, keepdims=True)
            return dz @ w.T, rows.T @ dz.reshape(-1, w.shape[1]), dz.sum(axis=lead)
        return record_op(y, (x, self.weight, self.bias), bfn)

    def parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


def oracle_trials(trials: int = 200, seed: int = 0, max_frames: int = 6,
                  max_vocab: int = 3, max_labels: int = 3) -> float:
    """Randomized comparison of ctc_loss against the enumeration oracle.

    Returns the worst absolute difference over `trials` feasible cases.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        while True:
            steps = int(rng.integers(1, max_frames + 1))
            vocab = int(rng.integers(1, max_vocab + 1))
            labels = tuple(rng.integers(1, vocab + 1,
                                        size=rng.integers(0, max_labels + 1)))
            if steps >= required_length(labels):
                break
        logits = rng.normal(size=(steps, vocab + 1))
        grid = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        fast = ctc_loss(grid, labels).item()
        slow = ctc_loss_bruteforce(grid, labels)
        worst = max(worst, abs(fast - slow))
    return worst


def read_logits_file(path) -> np.ndarray:
    """Parse the decode input format: a `T V` header line, then T lines of
    V+1 whitespace-separated log-probabilities, then only blank lines.
    -inf (log 0) is allowed; NaN and +inf are rejected."""
    text = Path(path).read_text().split("\n")
    header = text[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be 'T V', got {text[0]!r}")
    try:
        steps, vocab = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"non-integer header fields in {text[0]!r}") from None
    if steps < 1 or vocab < 1:
        raise ValueError(f"header extents must be positive, got T={steps} V={vocab}")
    rows = []
    for line_no, line in enumerate(text[1:1 + steps], start=2):
        values = line.split()
        if len(values) != vocab + 1:
            raise ValueError(
                f"line {line_no}: expected {vocab + 1} values, got {len(values)}")
        row = [float(v) for v in values]
        if any(math.isnan(v) or v == math.inf for v in row):
            raise ValueError(f"line {line_no}: log-probabilities must be finite "
                             f"or -inf, got {line.strip()!r}")
        rows.append(row)
    if len(rows) != steps:
        raise ValueError(f"expected {steps} rows of log-probabilities, got {len(rows)}")
    for line_no, line in enumerate(text[1 + steps:], start=2 + steps):
        if line.strip():
            raise ValueError(f"line {line_no}: row past the header's T={steps}")
    return np.array(rows, dtype=np.float64)


def write_logits_file(path, grid: np.ndarray) -> None:
    arr = _as_grid(grid)
    lines = [f"{arr.shape[0]} {arr.shape[1] - 1}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n")
