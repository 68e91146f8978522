"""Transformer and Conformer encoder stacks with stochastic layer skipping.

Both layer kinds are pre-norm: each residual branch normalizes its input
before the sub-block, and the raw input rides the skip connection.  During
training a per-layer Bernoulli draw keeps or skips the whole layer; kept
branches are scaled by the inverse survival probability so the expectation
matches the no-skip forward.  Evaluation never skips.

Every sub-block is fused with its pre-norm: multi-head attention, the
feed-forward block and the Conformer conv module are each one tape entry
(`record_op`) whose forward runs in plain numpy and whose backward is
analytic, so each costs one tape op per layer whatever the number of heads
or kernel taps.  A Transformer layer is two such entries and a Conformer
layer four plus its output norm, each with its residual adds and, in
training, branch scales.
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
    _sigmoid,
    add,
    layer_norm,
    matmul,
    record_op,
    scale,
)

LAYER_KINDS = ("transformer", "conformer")
NORM_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int
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
        if self.d_model % self.n_heads:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.kind == "conformer" and self.conv_kernel % 2 == 0:
            raise ValueError(f"conv_kernel must be odd, got {self.conv_kernel}")
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
    """Per-layer outputs x_1..x_L and the keep/skip mask drawn for each."""
    states: list[Tensor]
    skip_mask: list[int]  # 1 = layer applied, 0 = skipped (identity)

    @property
    def num_layers(self) -> int:
        return len(self.states)

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


def self_attention(x: Tensor, norm: Norm, p: Attention, n_heads: int,
                   return_weights: bool = False):
    """Pre-norm and multi-head scaled dot-product attention over all
    positions (full context, no masking), recorded as one tape entry.

    The heads run as batched (H, T, d_h) products and the softmax subtracts
    each row's maximum, so extreme scores stay finite.  The backward is
    analytic: dV = A^T dO, dA = dO V^T, dS = A * (dA - rowsum(dA * A)),
    dQ = dS K / sqrt(d_h) and dK = dS^T Q / sqrt(d_h).  With
    `return_weights`, the per-head (T, T) attention maps come back too, as
    constant tensors.
    """
    if x.data.ndim != 2:
        raise ValueError(f"self_attention expects a rank-2 input, got {x.shape}")
    steps, d = x.shape
    if d % n_heads:
        raise ValueError(f"width {d} not divisible into {n_heads} heads")
    head_dim = d // n_heads
    c = 1.0 / math.sqrt(head_dim)
    xn, xhat, inv = _norm(x.data, norm)

    def split(m):  # (T, D) -> (H, T, d_h)
        return m.reshape(steps, n_heads, head_dim).transpose(1, 0, 2)

    def merge(m):  # (H, T, d_h) -> (T, D), heads side by side
        return m.transpose(1, 0, 2).reshape(steps, d)

    q = split(xn @ p.wq.data + p.bq.data)
    k = split(xn @ p.wk.data + p.bk.data)
    v = split(xn @ p.wv.data + p.bv.data)
    scores = (q @ k.transpose(0, 2, 1)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    context = merge(attn @ v)

    def bfn(g):
        d_ctx = split(g @ p.wo.data.T)
        d_attn = d_ctx @ v.transpose(0, 2, 1)
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * c
        dq = merge(d_scores @ k)
        dk = merge(d_scores.transpose(0, 2, 1) @ q)
        dv = merge(attn.transpose(0, 2, 1) @ d_ctx)
        dxn = dq @ p.wq.data.T + dk @ p.wk.data.T + dv @ p.wv.data.T
        return (*_norm_backward(dxn, norm.gain.data, xhat, inv),
                xn.T @ dq, dq.sum(axis=0), xn.T @ dk, dk.sum(axis=0),
                xn.T @ dv, dv.sum(axis=0), context.T @ g, g.sum(axis=0))
    out = record_op(context @ p.wo.data + p.bo.data,
                    (x, norm.gain, norm.bias, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv,
                     p.wo, p.bo), bfn)
    return (out, [Tensor(a) for a in attn]) if return_weights else out


def _feed_forward(x: Tensor, norm: Norm, p: FeedForward, activation: str) -> Tensor:
    """Pre-norm and position-wise two-layer feed-forward with a relu or
    swish between, recorded as one tape entry with an analytic backward."""
    if activation not in ("relu", "swish"):
        raise ValueError(f"unknown activation {activation!r}")
    xn, xhat, inv = _norm(x.data, norm)
    h = xn @ p.w1.data + p.b1.data
    s = _sigmoid(h) if activation == "swish" else None
    a = np.maximum(h, 0.0) if s is None else h * s

    def bfn(g):
        da = g @ p.w2.data.T
        dh = da * (h > 0) if s is None else da * (s + a * (1.0 - s))
        return (*_norm_backward(dh @ p.w1.data.T, norm.gain.data, xhat, inv),
                xn.T @ dh, dh.sum(axis=0), a.T @ g, g.sum(axis=0))
    return record_op(a @ p.w2.data + p.b2.data,
                     (x, norm.gain, norm.bias, p.w1, p.b1, p.w2, p.b2), bfn)


def _conv_module(x: Tensor, norm: Norm, p: ConvModule) -> Tensor:
    """Pre-norm and Conformer convolution module, recorded as one tape entry:
    pointwise expansion x2 -> GLU -> depthwise conv over time (same
    padding, odd kernel) -> norm -> swish -> pointwise.

    Forward and backward keep the operation order of the same chain built
    from tensor primitives, so float32 results are bit-equal to it: the GLU
    gate's gradient is ((g * a) * s) * (1 - s) and the swish's
    g * (s + (n * s) * (1 - s)).
    """
    xn, xhat, inv = _norm(x.data, norm)
    h = xn @ p.pw1_w.data + p.pw1_b.data
    half = h.shape[1] // 2
    a = h[:, :half]
    gate = _sigmoid(h[:, half:])
    glu = a * gate
    steps, width = glu.shape[0], p.kernel.shape[0]
    pad = width // 2
    padded = np.zeros((steps + 2 * pad, half), dtype=glu.dtype)
    padded[pad:pad + steps] = glu
    conv = np.zeros_like(glu)
    for j in range(width):
        conv += padded[j:j + steps] * p.kernel.data[j]
    n, nhat, ninv = _norm(conv + p.kernel_bias.data, p.norm)
    s = _sigmoid(n)
    act = n * s

    def bfn(g):
        dn = (g @ p.pw2_w.data.T) * (s + n * s * (1.0 - s))
        dconv, dngain, dnbias = _norm_backward(dn, p.norm.gain.data, nhat, ninv)
        dkernel = np.empty_like(p.kernel.data)
        dpadded = np.zeros_like(padded)
        for j in range(width):
            dkernel[j] = (padded[j:j + steps] * dconv).sum(axis=0)
            dpadded[j:j + steps] += dconv * p.kernel.data[j]
        dglu = dpadded[pad:pad + steps]
        dh = np.concatenate((dglu * gate, dglu * a * gate * (1.0 - gate)), axis=1)
        return (*_norm_backward(dh @ p.pw1_w.data.T, norm.gain.data, xhat, inv),
                xn.T @ dh, dh.sum(axis=0), dkernel, dconv.sum(axis=0),
                dngain, dnbias, act.T @ g, g.sum(axis=0))
    return record_op(act @ p.pw2_w.data + p.pw2_b.data,
                     (x, norm.gain, norm.bias, p.pw1_w, p.pw1_b, p.kernel,
                      p.kernel_bias, p.norm.gain, p.norm.bias, p.pw2_w, p.pw2_b),
                     bfn)


def transformer_layer(x: Tensor, p: TransformerLayer, n_heads: int,
                      branch_scale: float = 1.0) -> Tensor:
    a = self_attention(x, p.att_norm, p.attention, n_heads)
    if branch_scale != 1.0:
        a = scale(a, branch_scale)
    x = add(x, a)
    f = _feed_forward(x, p.ffn_norm, p.ffn, "relu")
    if branch_scale != 1.0:
        f = scale(f, branch_scale)
    return add(x, f)


def conformer_layer(x: Tensor, p: ConformerLayer, n_heads: int,
                    branch_scale: float = 1.0) -> Tensor:
    x = add(x, scale(_feed_forward(x, p.ffn1_norm, p.ffn1, "swish"),
                     0.5 * branch_scale))
    a = self_attention(x, p.att_norm, p.attention, n_heads)
    if branch_scale != 1.0:
        a = scale(a, branch_scale)
    x = add(x, a)
    c = _conv_module(x, p.conv_norm, p.conv)
    if branch_scale != 1.0:
        c = scale(c, branch_scale)
    x = add(x, c)
    x = add(x, scale(_feed_forward(x, p.ffn2_norm, p.ffn2, "swish"),
                     0.5 * branch_scale))
    return layer_norm(x, p.out_norm.gain, p.out_norm.bias, eps=NORM_EPS)


@functools.lru_cache(maxsize=64)
def _sinusoidal_table(length: int, dim: int, dtype_name: str) -> np.ndarray:
    position = np.arange(length, dtype=np.float64)[:, None]
    index = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angle = position / np.power(10000.0, index / dim)
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)[:, : dim // 2]
    return table.astype(dtype_name)


def sinusoidal_encoding(length: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Absolute sinusoidal positional table of shape (length, dim)."""
    return _sinusoidal_table(length, dim, np.dtype(dtype).name)


class Encoder:
    """Stack of encoder layers over a linear+positional input frontend.

    Parameters are read-only during forward; concurrent forwards over
    different utterances are safe.  The rng drives only the per-call
    stochastic-depth draws.
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
        """Linear projection of the raw features plus the absolute sinusoidal
        positional term."""
        if x0.shape[-1] != self.config.input_dim:
            raise ValueError(
                f"expected input width {self.config.input_dim}, got {x0.shape[-1]}")
        proj = add(matmul(x0, self.frontend_w), self.frontend_b)
        pos = Tensor(sinusoidal_encoding(x0.shape[0], self.config.d_model, self.dtype))
        return add(proj, pos)

    def forward(self, x0: Tensor, mode: str = "eval",
                rng: np.random.Generator | None = None) -> LayerTrace:
        """Run the stack, recording every intermediate representation.

        In train mode each layer draws keep ~ Bernoulli(p_l); skipped layers
        are the identity and kept residual branches are scaled by 1/p_l.  In
        eval mode nothing is skipped and no scaling applies.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        training = mode == "train"
        if training and rng is None:
            raise ValueError("train mode needs an rng for the skip draws")
        cfg = self.config
        apply_layer = transformer_layer if cfg.kind == "transformer" else conformer_layer
        x = self.input_frontend(x0)
        states: list[Tensor] = []
        mask: list[int] = []
        for index, params in enumerate(self.layers, start=1):
            keep = 1
            branch_scale = 1.0
            if training:
                p = survival_probability(index, cfg.num_layers, cfg.survival_floor)
                keep = 1 if rng.random() < p else 0
                branch_scale = 1.0 / p
            if keep:
                x = apply_layer(x, params, cfg.n_heads, branch_scale)
            states.append(x)
            mask.append(keep)
        return LayerTrace(states, mask)

    def parameters(self) -> dict[str, Tensor]:
        named = {"frontend.weight": self.frontend_w, "frontend.bias": self.frontend_b}
        for index, layer in enumerate(self.layers, start=1):
            named.update(_named_tensors(layer, f"layer{index}"))
        return named
