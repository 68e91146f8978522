"""Transformer and Conformer encoder stacks with stochastic layer skipping.

Both layer kinds are pre-norm: each residual branch normalizes its input
before the sub-block, and the raw input rides the skip connection.  During
training a Bernoulli draw per utterance and layer keeps or skips the whole
layer (stochastic depth, Huang et al. 2016).  `Encoder.forward` runs each
layer on the rows that keep it, its residual branches scaled by 1/p_l so
that the expectation matches the no-skip forward, and passes the other
rows through at no cost.  The caller's draws alone decide this: a
forward without draws, as evaluation's, never skips and scales by 1.

Every residual sub-block is one tape entry (`record_op`) holding its
pre-norm, the block and the residual add x + c * block: multi-head
attention, the feed-forward block (with the Conformer's output norm folded
into its second one) and the Conformer conv module.  Each forward runs in
plain numpy and each backward is analytic, so a Transformer layer costs two
tape entries and a Conformer layer four, whatever the number of heads or
kernel taps.  The input frontend is one entry too.

Every op takes a (B, T, D) stack of utterances; one utterance is a stack
of one row.  Evaluation stacks utterances of one length, so nothing is
padded.  Training stacks a micro-batch padded to its longest utterance: a
`Padding` masks the padded keys out of the attention softmax and zeroes
the padded frames before the depthwise conv, so each row's real frames
are computed as if alone.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .tensor import (
    Tensor,
    _norm_backward,
    _norm_forward,
    _row_max,
    _sigmoid,
    put_rows,
    record_op,
    take,
)

LAYER_KINDS = ("transformer", "conformer")
NORM_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 4
    kind: str = "transformer"
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    conv_kernel: int = 7
    survival_floor: float = 0.7  # survival probability of the last layer
    input_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.num_layers < 1:
            raise ValueError("need at least one layer")
        for name in ("d_model", "n_heads", "d_ff", "input_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.kind == "conformer" and (self.conv_kernel < 1 or self.conv_kernel % 2 == 0):
            raise ValueError(
                f"conv_kernel must be odd and positive, got {self.conv_kernel}")
        if not 0.0 < self.survival_floor <= 1.0:
            raise ValueError(f"survival floor must be in (0, 1], got {self.survival_floor}")


def survival_probability(layer_index: int, num_layers: int, floor: float) -> float:
    """Survival probability of layer l in 1..L, decaying linearly with depth
    from 1 at the input side down to `floor` at the top layer."""
    if not 1 <= layer_index <= num_layers:
        raise ValueError(f"layer index {layer_index} outside 1..{num_layers}")
    return 1.0 - (layer_index / num_layers) * (1.0 - floor)


@dataclass
class LayerTrace:
    """Per-layer (B, T, D) outputs x_1..x_L, each row's frame count (the
    `lengths` the forward checked), and the keep/skip mask the draws gave:
    one list of L 0/1 entries per row, all ones for a forward without
    draws."""
    states: list[Tensor]
    lengths: list[int]
    skip_mask: list[list[int]]  # 1 = layer applied, 0 = skipped (identity)

    @property
    def final(self) -> Tensor:
        return self.states[-1]


# --- parameter containers ---------------------------------------------------

@dataclass
class Norm:
    gain: Tensor
    bias: Tensor


@dataclass
class Attention:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class FeedForward:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class ConvModule:
    pw1_w: Tensor
    pw1_b: Tensor
    kernel: Tensor
    kernel_bias: Tensor
    norm: Norm
    pw2_w: Tensor
    pw2_b: Tensor


@dataclass
class TransformerLayer:
    att_norm: Norm
    attention: Attention
    ffn_norm: Norm
    ffn: FeedForward


@dataclass
class ConformerLayer:
    ffn1_norm: Norm
    ffn1: FeedForward
    att_norm: Norm
    attention: Attention
    conv_norm: Norm
    conv: ConvModule
    ffn2_norm: Norm
    ffn2: FeedForward
    out_norm: Norm


def _named_tensors(obj, prefix: str) -> Iterator[tuple[str, Tensor]]:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, Tensor):
            yield f"{prefix}.{f.name}", value
        else:
            yield from _named_tensors(value, f"{prefix}.{f.name}")


# --- forward blocks ----------------------------------------------------------

def _norm(v: np.ndarray, p: Norm):
    """Layer norm of an array: its output, and the (xhat, inv) that
    `_norm_backward` takes."""
    return _norm_forward(v, p.gain.data, p.bias.data, NORM_EPS)


def _rows(m: np.ndarray) -> np.ndarray:
    """(..., D) -> (N, D): every position of every utterance in a stack as
    one matrix, so each product is one 2-D matmul."""
    return m.reshape(-1, m.shape[-1])


def _affine(m: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """m @ w + b, the bias added in place on the fresh product."""
    out = m @ w.data
    out += b.data
    return out


def _residual(x: np.ndarray, block: np.ndarray, scale: float) -> np.ndarray:
    """x + scale * block as (block * scale) + x, in place on `block`, a
    fresh (N, D) product.  A scale of 1 costs no pass: block * 1.0 is
    block, bit for bit."""
    if scale != 1.0:
        block *= scale
    block += _rows(x)
    return block.reshape(x.shape)


@dataclass(frozen=True)
class Padding:
    """Where the frames of a padded (B, T, D) stack end: `keys` is added to
    the attention scores, 0 at a real key and -inf at a padded one, with
    shape (B, 1, 1, T); `frames` is 1 at a real frame and 0 at a padded
    one, one row per position of the stack, (B*T, 1)."""
    keys: np.ndarray
    frames: np.ndarray

    @classmethod
    def of(cls, lengths: np.ndarray, steps: int, dtype) -> "Padding | None":
        """The padding of a stack of rows `lengths` frames long, padded to
        `steps`; None when no row is padded."""
        real = np.arange(steps) < lengths[:, None]
        if real.all():
            return None
        keys = np.where(real, 0.0, -np.inf).astype(dtype)[:, None, None, :]
        return cls(keys, real.reshape(-1, 1).astype(dtype))


def self_attention(x: Tensor, norm: Norm, p: Attention, n_heads: int,
                   branch_scale: float = 1.0, padding: Padding | None = None) -> Tensor:
    """Residual pre-norm multi-head attention, x + c * attention(norm(x)),
    recorded as one tape entry.  `x` is a (B, T, D) stack and `c` is
    `branch_scale`.  Each query attends to every key of its own utterance,
    except the padded keys that `padding` marks.

    The heads run as batched (..., H, T, d_h) products and the softmax
    subtracts each row's maximum, so extreme scores stay finite.  K^T, and
    V^T in the backward, are contiguous copies: numpy's stacked matmul is
    slower when its second operand is a transposed view, and the bits are
    the same.  The context A V is written straight into the merged (..., T,
    H, d_h) layout, so the heads need no copy to sit side by side, and the
    biases, the branch scale and the residual are applied in place on each
    fresh product.  The backward is analytic: dV = A^T dO, dA = dO V^T,
    dS = A * (dA - rowsum(dA * A)), dQ = dS K / sqrt(d_h) and
    dK = dS^T Q / sqrt(d_h).  `x` is an input twice, for the residual's
    adjoint and then for the block's, so the tape sums them in the order
    of the separate add.
    """
    if x.data.ndim < 2:
        raise ValueError(f"self_attention expects a (..., T, D) input, got {x.shape}")
    *lead, steps, d = x.shape
    if d % n_heads:
        raise ValueError(f"width {d} not divisible into {n_heads} heads")
    head_dim = d // n_heads
    c = 1.0 / math.sqrt(head_dim)
    xn, xhat, inv = _norm(_rows(x.data), norm)

    def split(m):  # (N, D) -> (..., H, T, d_h)
        return m.reshape(*lead, steps, n_heads, head_dim).swapaxes(-3, -2)

    def merge(m):  # (..., H, T, d_h) -> (N, D), heads side by side
        return m.swapaxes(-3, -2).reshape(-1, d)

    q, k, v = (split(_affine(xn, w, b)) for w, b in ((p.wq, p.bq), (p.wk, p.bk),
                                                       (p.wv, p.bv)))
    # the softmax runs in place, so one (..., H, T, T) buffer is live at a time
    attn = q @ np.ascontiguousarray(k.swapaxes(-1, -2))
    attn *= c
    if padding is not None:
        attn += padding.keys
    attn -= _row_max(attn)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    context = np.empty_like(xn)
    np.matmul(attn, v, out=split(context))
    out = _residual(x.data, _affine(context, p.wo, p.bo), branch_scale)

    def bfn(g):
        gb = _rows(g * branch_scale)
        d_ctx = split(gb @ p.wo.data.T)
        d_attn = d_ctx @ np.ascontiguousarray(v.swapaxes(-1, -2))
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * c
        dq = merge(d_scores @ k)
        dk = merge(d_scores.swapaxes(-1, -2) @ q)
        dv = merge(attn.swapaxes(-1, -2) @ d_ctx)
        dxn = dq @ p.wq.data.T + dk @ p.wk.data.T + dv @ p.wv.data.T
        dx, dgain, dbias = _norm_backward(dxn, norm.gain.data, xhat, inv)
        return (g, dx.reshape(x.shape), dgain, dbias,
                xn.T @ dq, dq.sum(axis=0), xn.T @ dk, dk.sum(axis=0),
                xn.T @ dv, dv.sum(axis=0), context.T @ gb, gb.sum(axis=0))
    return record_op(out, (x, x, norm.gain, norm.bias, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv,
                           p.wo, p.bo), bfn)


def _feed_forward(x: Tensor, norm: Norm, p: FeedForward, activation: str,
                  branch_scale: float = 1.0, out_norm: Norm | None = None) -> Tensor:
    """Residual pre-norm position-wise feed-forward, x + c * ffn(norm(x))
    with a relu or swish between its two layers, and then `out_norm` if
    given (the Conformer's output norm), recorded as one tape entry with an
    analytic backward.  `c` is `branch_scale`, as for `self_attention`.
    The activation overwrites the hidden layer: the relu's backward reads
    its mask from the output (a > 0 where h > 0), and the swish's needs
    only s and a."""
    if activation not in ("relu", "swish"):
        raise ValueError(f"unknown activation {activation!r}")
    xn, xhat, inv = _norm(_rows(x.data), norm)
    a = _affine(xn, p.w1, p.b1)
    s = None
    if activation == "relu":
        np.maximum(a, 0.0, out=a)
    else:
        s = _sigmoid(a)
        a *= s
    y = _residual(x.data, _affine(a, p.w2, p.b2), branch_scale)
    if out_norm is not None:
        y, yhat, yinv = _norm(_rows(y), out_norm)
        y = y.reshape(x.shape)

    def bfn(g):
        tail = ()
        if out_norm is not None:
            g, *tail = _norm_backward(_rows(g), out_norm.gain.data, yhat, yinv)
            g = g.reshape(x.shape)
        gb = _rows(g * branch_scale)
        da = gb @ p.w2.data.T
        dh = da * (a > 0) if s is None else da * (s + a * (1.0 - s))
        dx, dgain, dbias = _norm_backward(dh @ p.w1.data.T, norm.gain.data, xhat, inv)
        return (g, dx.reshape(x.shape), dgain, dbias,
                xn.T @ dh, dh.sum(axis=0), a.T @ gb, gb.sum(axis=0), *tail)
    inputs = (x, x, norm.gain, norm.bias, p.w1, p.b1, p.w2, p.b2)
    if out_norm is not None:
        inputs += (out_norm.gain, out_norm.bias)
    return record_op(y, inputs, bfn)


def _conv_module(x: Tensor, norm: Norm, p: ConvModule, branch_scale: float = 1.0,
                 padding: Padding | None = None) -> Tensor:
    """Residual pre-norm Conformer convolution module, x + c * conv(norm(x)),
    recorded as one tape entry: pointwise expansion x2 -> GLU -> depthwise
    conv over time (axis -2, same padding, odd kernel) -> norm -> swish ->
    pointwise.  `c` is `branch_scale`, as for `self_attention`.  The GLU
    output is zeroed at the frames `padding` marks, forward and backward,
    so the conv sees a padded utterance as it sees the utterance alone.

    The operation order is the bit contract: float32 results change with
    it, so the forward computes glu = a * s, conv = sum over taps j in
    order of padded[j:j + T] * kernel[j], then norm(conv + kernel_bias),
    n * s and the pointwise product, and the backward takes the swish's
    gradient as g * (s + (n * s) * (1 - s)) and the GLU gate's as
    ((g * a) * s) * (1 - s).
    """
    xn, xhat, inv = _norm(_rows(x.data), norm)
    h = _affine(xn, p.pw1_w, p.pw1_b)
    half = h.shape[1] // 2
    a = h[:, :half]
    gate = _sigmoid(h[:, half:])
    glu = a * gate
    if padding is not None:
        glu *= padding.frames
    glu = glu.reshape(*x.shape[:-1], half)
    steps, width = x.shape[-2], p.kernel.shape[0]
    pad = width // 2
    padded = np.zeros((*x.shape[:-2], steps + 2 * pad, half), dtype=glu.dtype)
    padded[..., pad:pad + steps, :] = glu
    conv = np.zeros_like(glu)
    for j in range(width):
        conv += padded[..., j:j + steps, :] * p.kernel.data[j]
    n, nhat, ninv = _norm(_rows(conv) + p.kernel_bias.data, p.norm)
    s = _sigmoid(n)
    act = n * s
    out = _residual(x.data, _affine(act, p.pw2_w, p.pw2_b), branch_scale)

    def bfn(g):
        gb = _rows(g * branch_scale)
        dn = (gb @ p.pw2_w.data.T) * (s + n * s * (1.0 - s))
        dconv, dngain, dnbias = _norm_backward(dn, p.norm.gain.data, nhat, ninv)
        dconv = dconv.reshape(glu.shape)
        dkernel = np.empty_like(p.kernel.data)
        dpadded = np.zeros_like(padded)
        for j in range(width):
            dkernel[j] = _rows(padded[..., j:j + steps, :] * dconv).sum(axis=0)
            dpadded[..., j:j + steps, :] += dconv * p.kernel.data[j]
        dglu = _rows(dpadded[..., pad:pad + steps, :])
        if padding is not None:
            dglu *= padding.frames
        dh = np.concatenate((dglu * gate, dglu * a * gate * (1.0 - gate)), axis=1)
        dx, dgain, dbias = _norm_backward(dh @ p.pw1_w.data.T, norm.gain.data, xhat, inv)
        return (g, dx.reshape(x.shape), dgain, dbias, xn.T @ dh, dh.sum(axis=0),
                dkernel, _rows(dconv).sum(axis=0), dngain, dnbias,
                act.T @ gb, gb.sum(axis=0))
    return record_op(out,
                     (x, x, norm.gain, norm.bias, p.pw1_w, p.pw1_b, p.kernel,
                      p.kernel_bias, p.norm.gain, p.norm.bias, p.pw2_w, p.pw2_b),
                     bfn)


def transformer_layer(x: Tensor, p: TransformerLayer, n_heads: int,
                      branch_scale=1.0, padding: Padding | None = None) -> Tensor:
    x = self_attention(x, p.att_norm, p.attention, n_heads, branch_scale, padding)
    return _feed_forward(x, p.ffn_norm, p.ffn, "relu", branch_scale)


def conformer_layer(x: Tensor, p: ConformerLayer, n_heads: int,
                    branch_scale=1.0, padding: Padding | None = None) -> Tensor:
    half = 0.5 * branch_scale
    x = _feed_forward(x, p.ffn1_norm, p.ffn1, "swish", half)
    x = self_attention(x, p.att_norm, p.attention, n_heads, branch_scale, padding)
    x = _conv_module(x, p.conv_norm, p.conv, branch_scale, padding)
    return _feed_forward(x, p.ffn2_norm, p.ffn2, "swish", half, out_norm=p.out_norm)


@functools.cache
def sinusoidal_encoding(length: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Absolute sinusoidal positional table of shape (length, dim), made
    once per (length, dim, dtype) and shared: callers must not write to it."""
    position = np.arange(length, dtype=np.float64)[:, None]
    index = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angle = position / np.power(10000.0, index / dim)
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)[:, : dim // 2]
    return table.astype(dtype)


class Encoder:
    """Stack of encoder layers over a linear+positional input frontend.

    Parameters are read-only during forward; concurrent forwards over
    different utterances are safe.  The stochastic-depth draws come from
    the caller.
    """

    def __init__(self, config: EncoderConfig, frontend_w: Tensor,
                 frontend_b: Tensor, layers: list):
        self.config = config
        self.frontend_w = frontend_w
        self.frontend_b = frontend_b
        self.layers = layers

    @classmethod
    def build(cls, config: EncoderConfig, dtype=np.float64) -> "Encoder":
        rng = np.random.default_rng(config.seed)
        d, ff = config.d_model, config.d_ff

        def weight(fan_in, fan_out):
            bound = 1.0 / math.sqrt(fan_in)
            return Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype),
                          requires_grad=True)

        def bias(n):
            return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

        def norm():
            return Norm(Tensor(np.ones(d, dtype=dtype), requires_grad=True), bias(d))

        def attention():
            return Attention(weight(d, d), bias(d), weight(d, d), bias(d),
                             weight(d, d), bias(d), weight(d, d), bias(d))

        def feed_forward():
            return FeedForward(weight(d, ff), bias(ff), weight(ff, d), bias(d))

        def conv_module():
            k = config.conv_kernel
            bound = 1.0 / math.sqrt(k)
            kernel = Tensor(rng.uniform(-bound, bound, size=(k, d)).astype(dtype),
                            requires_grad=True)
            return ConvModule(weight(d, 2 * d), bias(2 * d), kernel, bias(d),
                              norm(), weight(d, d), bias(d))

        layers = []
        for _ in range(config.num_layers):
            if config.kind == "transformer":
                layers.append(TransformerLayer(norm(), attention(), norm(),
                                               feed_forward()))
            else:
                layers.append(ConformerLayer(norm(), feed_forward(), norm(),
                                             attention(), norm(), conv_module(),
                                             norm(), feed_forward(), norm()))
        return cls(config, weight(config.input_dim, d), bias(d), layers)

    @property
    def dtype(self):
        return self.frontend_w.dtype

    def input_frontend(self, x0: Tensor) -> Tensor:
        """Linear projection of a (B, T, F) stack of raw features plus the
        absolute sinusoidal positional term, one (T, D) table for every
        utterance, recorded as one tape entry."""
        if x0.shape[-1] != self.config.input_dim:
            raise ValueError(
                f"expected input width {self.config.input_dim}, got {x0.shape[-1]}")
        w, b = self.frontend_w, self.frontend_b
        rows = _rows(x0.data)
        lead = tuple(range(x0.data.ndim - 1))
        pos = sinusoidal_encoding(x0.shape[-2], self.config.d_model, self.dtype)
        proj = (rows @ w.data).reshape(*x0.shape[:-1], w.shape[1]) + b.data

        def bfn(g):
            return g @ w.data.T, rows.T @ _rows(g), g.sum(axis=lead)
        return record_op(proj + pos, (x0, w, b), bfn)

    def forward(self, x0: Tensor, lengths=None,
                draws: np.ndarray | None = None) -> LayerTrace:
        """Run the stack, recording every intermediate representation.

        `x0` is a (B, T, F) stack of utterances padded to the longest,
        whose frame counts `lengths` gives (every row's T when omitted).
        Each row's real frames are forwarded as if alone: attention skips
        the padded keys and the conv module the padded frames.

        The draws decide stochastic depth.  `draws` is a (B, L) array of
        uniform draws, and utterance b keeps layer l when draws[b, l] <
        p_l.  A layer that every row keeps runs on the whole stack and one
        that no row keeps is the identity; any other runs on the rows that
        keep it, taken out with their own padding and put back.  A kept
        layer scales its residual branches by 1/p_l.  Without draws
        nothing is skipped and the scale is 1.
        """
        cfg = self.config
        if x0.data.ndim != 3:
            raise ValueError(f"the encoder takes a (B, T, F) stack, got shape {x0.shape}")
        batch, steps = x0.shape[:2]
        lengths = np.full(batch, steps) if lengths is None else np.asarray(lengths)
        if (lengths.shape != (batch,) or not np.issubdtype(lengths.dtype, np.integer)
                or not ((1 <= lengths) & (lengths <= steps)).all()):
            raise ValueError(f"lengths {lengths.tolist()} do not fit a stack of "
                             f"{batch} rows of {steps} frames")
        padding = Padding.of(lengths, steps, self.dtype)
        keep = np.ones((batch, cfg.num_layers), dtype=bool)
        scales = [1.0] * cfg.num_layers
        if draws is not None:
            draws = np.asarray(draws)
            if draws.shape != keep.shape:
                raise ValueError(f"need {keep.shape} draws, got {draws.shape}")
            probs = [survival_probability(l, cfg.num_layers, cfg.survival_floor)
                     for l in range(1, cfg.num_layers + 1)]
            keep = draws < probs
            scales = [1.0 / p for p in probs]
        apply_layer = transformer_layer if cfg.kind == "transformer" else conformer_layer
        x = self.input_frontend(x0)
        states: list[Tensor] = []
        for index, params in enumerate(self.layers):
            rows = np.flatnonzero(keep[:, index])
            if len(rows) == batch:
                x = apply_layer(x, params, cfg.n_heads, scales[index], padding)
            elif len(rows):
                kept = apply_layer(take(x, rows), params, cfg.n_heads, scales[index],
                                   Padding.of(lengths[rows], steps, self.dtype))
                x = put_rows(x, rows, kept)
            states.append(x)
        return LayerTrace(states, lengths.tolist(), keep.astype(int).tolist())

    def parameters(self) -> dict[str, Tensor]:
        named = {"frontend.weight": self.frontend_w, "frontend.bias": self.frontend_b}
        for index, layer in enumerate(self.layers, start=1):
            named.update(_named_tensors(layer, f"layer{index}"))
        return named
