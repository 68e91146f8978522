import numpy as np
import pytest

import ctclab.encoder
from ctclab.ctc import CTCHead, ctc_loss
from ctclab.encoder import (
    Attention,
    Encoder,
    EncoderConfig,
    FeedForward,
    LayerTrace,
    Norm,
    Padding,
    _conv_module,
    _feed_forward,
    _named_tensors,
    conformer_layer,
    self_attention,
    sinusoidal_encoding,
    survival_probability,
    transformer_layer,
)
from ctclab.tensor import Tape, Tensor, _norm_forward, gradcheck, take, weighted_sum


def tiny_config(kind="transformer", **kw):
    defaults = dict(num_layers=2, kind=kind, d_model=8, n_heads=2, d_ff=12,
                    conv_kernel=3, survival_floor=1.0, input_dim=5, seed=42)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def zero_out(*tensors):
    for t in tensors:
        t.data[...] = 0.0


def randomize(params, rng):
    """Fill every tensor of a parameter container, biases and nested norms
    included."""
    for _, t in _named_tensors(params, ""):
        t.data[...] = rng.uniform(-1.0, 1.0, size=t.shape)
    return params


def layer_norm(x, p):
    """The pre-norm's output for an array, bit-equal to the encoder's."""
    return _norm_forward(x, p.gain.data, p.bias.data, 1e-5)[0]


def unit_norm(width):
    return Norm(Tensor(np.ones(width), requires_grad=True),
                Tensor(np.zeros(width), requires_grad=True))


def reference_norm(x, p):
    mean = x.mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * p.gain.data \
        + p.bias.data


def reference_attention(x, norm, p, n_heads):
    """Float64 per-head composition after the pre-norm: slice each head's
    columns, softmax its scores, and concatenate the heads' outputs."""
    x = reference_norm(x, norm)
    q, k, v = (x @ w.data + b.data
               for w, b in ((p.wq, p.bq), (p.wk, p.bk), (p.wv, p.bv)))
    head_dim = x.shape[1] // n_heads
    outputs = []
    for h in range(n_heads):
        cols = slice(h * head_dim, (h + 1) * head_dim)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(head_dim)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outputs.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    return np.concatenate(outputs, axis=1) @ p.wo.data + p.bo.data


def reference_feed_forward(x, norm, p, activation):
    h = reference_norm(x, norm) @ p.w1.data + p.b1.data
    a = np.maximum(h, 0.0) if activation == "relu" else h / (1.0 + np.exp(-h))
    return a @ p.w2.data + p.b2.data


def reference_conv_tail(glu, p):
    """Depthwise conv with same padding, summed tap by tap, then norm,
    swish and the output pointwise layer."""
    steps, width = glu.shape[0], p.kernel.shape[0]
    conv = np.tile(p.kernel_bias.data, (steps, 1))
    for t in range(steps):
        for j in range(width):
            src = t + j - width // 2
            if 0 <= src < steps:
                conv[t] += glu[src] * p.kernel.data[j]
    n = reference_norm(conv, p.norm)
    return (n / (1.0 + np.exp(-n))) @ p.pw2_w.data + p.pw2_b.data


def reference_conv_module(x, norm, p):
    h = reference_norm(x, norm) @ p.pw1_w.data + p.pw1_b.data
    half = h.shape[1] // 2
    return reference_conv_tail(h[:, :half] / (1.0 + np.exp(-h[:, half:])), p)


# row lengths of the padded (3, 6, D) stacks below
PADDED_LENGTHS = [6, 4, 5]


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            tiny_config(d_model=9)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(kind="conformer", conv_kernel=4)

    def test_survival_floor_range(self):
        with pytest.raises(ValueError):
            tiny_config(survival_floor=0.0)
        with pytest.raises(ValueError):
            tiny_config(survival_floor=1.2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            tiny_config(kind="gru")


class TestSurvivalProbability:
    def test_last_layer_equals_floor(self):
        for num_layers in (1, 4, 12, 48):
            assert survival_probability(num_layers, num_layers, 0.7) == pytest.approx(0.7)

    def test_floor_one_means_no_skipping(self):
        for l in range(1, 13):
            assert survival_probability(l, 12, 1.0) == 1.0

    def test_middle_of_twelve(self):
        assert survival_probability(6, 12, 0.7) == pytest.approx(0.85)

    def test_non_increasing_in_depth(self):
        probs = [survival_probability(l, 12, 0.7) for l in range(1, 13)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_range_check(self):
        with pytest.raises(ValueError):
            survival_probability(0, 12, 0.7)
        with pytest.raises(ValueError):
            survival_probability(13, 12, 0.7)


class TestFrontend:
    @pytest.mark.parametrize("steps", [1, 7, 50])
    def test_length_preserved(self, steps):
        enc = Encoder.build(tiny_config())
        out = enc.input_frontend(Tensor(np.ones((steps, 5))))
        assert out.shape == (steps, 8)

    def test_zero_input_gives_positional_term(self):
        enc = Encoder.build(tiny_config())
        out = enc.input_frontend(Tensor(np.zeros((6, 5))))
        np.testing.assert_array_equal(out.data, sinusoidal_encoding(6, 8))

    def test_width_mismatch(self):
        enc = Encoder.build(tiny_config())
        with pytest.raises(ValueError):
            enc.input_frontend(Tensor(np.ones((4, 7))))

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        enc = Encoder.build(tiny_config())
        x = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        w = rng.uniform(-1, 1, size=(3, 8))
        report = gradcheck(lambda: weighted_sum(enc.input_frontend(x), w),
                           {"x": x, "frontend.w": enc.frontend_w})
        assert report.max_rel_error < 1e-6


class TestLayers:
    def test_transformer_shape_preserved(self):
        enc = Encoder.build(tiny_config())
        rng = np.random.default_rng(1)
        for steps in (1, 5, 9):
            x = Tensor(rng.normal(size=(steps, 8)))
            out = transformer_layer(x, enc.layers[0], n_heads=2)
            assert out.shape == (steps, 8)

    def test_transformer_zero_blocks_identity(self):
        enc = Encoder.build(tiny_config())
        layer = enc.layers[0]
        zero_out(layer.attention.wo, layer.attention.bo,
                 layer.ffn.w2, layer.ffn.b2)
        x = Tensor(np.random.default_rng(2).normal(size=(4, 8)))
        out = transformer_layer(x, layer, n_heads=2)
        np.testing.assert_array_equal(out.data, x.data)

    def test_conformer_shape_preserved(self):
        enc = Encoder.build(tiny_config("conformer"))
        rng = np.random.default_rng(3)
        for steps in (1, 6):
            out = conformer_layer(Tensor(rng.normal(size=(steps, 8))),
                                  enc.layers[0], n_heads=2)
            assert out.shape == (steps, 8)

    def test_conformer_zero_blocks_is_layernorm(self):
        enc = Encoder.build(tiny_config("conformer"))
        layer = enc.layers[0]
        zero_out(layer.ffn1.w2, layer.ffn1.b2, layer.attention.wo,
                 layer.attention.bo, layer.conv.pw2_w, layer.conv.pw2_b,
                 layer.ffn2.w2, layer.ffn2.b2)
        x = Tensor(np.random.default_rng(4).normal(size=(5, 8)))
        out = conformer_layer(x, layer, n_heads=2)
        np.testing.assert_array_equal(out.data, layer_norm(x.data, layer.out_norm))


class TestSelfAttention:
    def test_single_position_is_value_projection(self):
        layer = Encoder.build(tiny_config()).layers[0]
        norm, p = layer.att_norm, layer.attention
        x = Tensor(np.random.default_rng(5).normal(size=(1, 8)))
        out = self_attention(x, norm, p, n_heads=2)
        xn = layer_norm(x.data, norm)
        expect = (xn @ p.wv.data + p.bv.data) @ p.wo.data + p.bo.data
        np.testing.assert_allclose(out.data, x.data + expect, atol=1e-12)

    def test_matches_per_head_composition(self):
        rng = np.random.default_rng(14)
        layer = Encoder.build(tiny_config()).layers[0]
        norm, p = randomize(layer.att_norm, rng), randomize(layer.attention, rng)
        x = rng.normal(size=(7, 8))
        out = self_attention(Tensor(x), norm, p, n_heads=2)
        np.testing.assert_allclose(out.data, x + reference_attention(x, norm, p, 2),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1 / 0.7], ids=["scale_1", "scale_1/0.7"])
    def test_padded_stack_matches_per_head_composition(self, scale):
        # each row's real frames, against the composition on that row alone
        rng = np.random.default_rng(24)
        layer = Encoder.build(tiny_config()).layers[0]
        norm, p = randomize(layer.att_norm, rng), randomize(layer.attention, rng)
        x = rng.normal(size=(3, 6, 8))
        padding = Padding.of(np.array(PADDED_LENGTHS), 6, np.float64)
        out = self_attention(Tensor(x), norm, p, 2, scale, padding)
        for row, length in enumerate(PADDED_LENGTHS):
            real = x[row, :length]
            np.testing.assert_allclose(
                out.data[row, :length], real + scale * reference_attention(real, norm, p, 2),
                rtol=0, atol=1e-12)

    def test_equal_scores_average_the_values(self):
        # zero queries give every key the same score, so every position
        # gets the mean value
        rng = np.random.default_rng(15)
        layer = Encoder.build(tiny_config()).layers[0]
        norm, p = randomize(layer.att_norm, rng), randomize(layer.attention, rng)
        zero_out(p.wq, p.bq)
        x = rng.normal(size=(5, 8))
        out = self_attention(Tensor(x), norm, p, n_heads=2)
        mean_value = (reference_norm(x, norm) @ p.wv.data + p.bv.data).mean(axis=0)
        expect = np.tile(mean_value @ p.wo.data + p.bo.data, (5, 1))
        np.testing.assert_allclose(out.data, x + expect, rtol=0, atol=1e-12)

    def test_extreme_scores_stay_finite(self):
        # one head over rows that the pre-norm leaves as u, w and -u, with u
        # and w orthogonal: score rows (1000, 0, -1000), (0, 1000, 0) and
        # (-1000, 0, 1000) to within the norm's eps.  The max-subtracted
        # softmax gives exact one-hot maps, so each output is its own value
        # row, and the backward stays finite
        a = np.sqrt(500.0)
        eye, zero = np.eye(4), np.zeros(4)
        p = Attention(*(Tensor(m, requires_grad=True) for m in
                        (a * eye, zero, a * eye, zero, eye, zero, eye, zero)))
        norm = unit_norm(4)
        x = Tensor([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0, 1.0]], requires_grad=True)
        w = np.random.default_rng(16).uniform(-1, 1, size=(3, 4))
        with Tape() as tape:
            out = self_attention(x, norm, p, n_heads=1)
            loss = weighted_sum(out, w)
        tape.backward(loss)
        np.testing.assert_array_equal(out.data, x.data + layer_norm(x.data, norm))
        for t in (x, norm.gain, norm.bias, *vars(p).values()):
            assert np.isfinite(t.grad).all()

    def test_permutation_equivariance(self):
        layer = Encoder.build(tiny_config()).layers[0]
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        out = self_attention(Tensor(x), layer.att_norm, layer.attention, 2)
        out_perm = self_attention(Tensor(x[perm]), layer.att_norm, layer.attention, 2)
        np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)


class TestFeedForward:
    @pytest.mark.parametrize("activation", ["relu", "swish"])
    def test_matches_composition(self, activation):
        rng = np.random.default_rng(17)
        layer = Encoder.build(tiny_config()).layers[0]
        norm, p = randomize(layer.ffn_norm, rng), randomize(layer.ffn, rng)
        x = rng.normal(size=(6, 8))
        out = _feed_forward(Tensor(x), norm, p, activation)
        np.testing.assert_allclose(out.data,
                                   x + reference_feed_forward(x, norm, p, activation),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1 / 0.7], ids=["scale_1", "scale_1/0.7"])
    @pytest.mark.parametrize("activation, with_out_norm",
                             [("relu", False), ("swish", False), ("swish", True)],
                             ids=["relu", "swish", "swish_out_norm"])
    def test_padded_stack_matches_composition(self, activation, with_out_norm, scale):
        rng = np.random.default_rng(25)
        layer = Encoder.build(tiny_config("conformer")).layers[0]
        norm, p = randomize(layer.ffn1_norm, rng), randomize(layer.ffn1, rng)
        out_norm = randomize(layer.out_norm, rng) if with_out_norm else None
        x = rng.normal(size=(3, 6, 8))
        out = _feed_forward(Tensor(x), norm, p, activation, scale, out_norm)
        for row, length in enumerate(PADDED_LENGTHS):
            real = x[row, :length]
            expect = real + scale * reference_feed_forward(real, norm, p, activation)
            if out_norm is not None:
                expect = reference_norm(expect, out_norm)
            np.testing.assert_allclose(out.data[row, :length], expect, rtol=0, atol=1e-12)

    def test_relu_zero_gradient_on_negative_inputs(self):
        # the pre-norm maps (-1, 0, 2) to about (-1.07, -0.27, 1.34), so the
        # first two hidden units are off and pass no gradient to their bias
        eye = np.eye(3)
        p = FeedForward(Tensor(eye), Tensor(np.zeros(3), requires_grad=True),
                        Tensor(eye), Tensor(np.zeros(3)))
        norm = unit_norm(3)
        x = Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            out = _feed_forward(x, norm, p, "relu")
            loss = weighted_sum(out, np.ones(out.shape))
        tape.backward(loss)
        xn = layer_norm(x.data, norm)
        np.testing.assert_array_equal(out.data, x.data + np.maximum(xn, 0.0))
        np.testing.assert_array_equal(p.b1.grad, [0.0, 0.0, 1.0])

    def test_unknown_activation_rejected(self):
        layer = Encoder.build(tiny_config()).layers[0]
        with pytest.raises(ValueError):
            _feed_forward(Tensor(np.ones((2, 8))), layer.ffn_norm, layer.ffn, "tanh")


class TestConvModule:
    def conv(self, rng):
        layer = Encoder.build(tiny_config("conformer", conv_kernel=3)).layers[0]
        return randomize(layer.conv_norm, rng), randomize(layer.conv, rng)

    def test_matches_composition(self):
        rng = np.random.default_rng(19)
        norm, p = self.conv(rng)
        x = rng.normal(size=(6, 8))
        out = _conv_module(Tensor(x), norm, p)
        np.testing.assert_allclose(out.data, x + reference_conv_module(x, norm, p),
                                   rtol=0, atol=1e-12)

    def test_glu_zero_gate_halves(self):
        # sigmoid(0) = 1/2, so a zero gate passes half of each value
        rng = np.random.default_rng(20)
        norm, p = self.conv(rng)
        p.pw1_w.data[:, 8:] = 0.0
        p.pw1_b.data[8:] = 0.0
        x = rng.normal(size=(5, 8))
        values = reference_norm(x, norm) @ p.pw1_w.data[:, :8] + p.pw1_b.data[:8]
        out = _conv_module(Tensor(x), norm, p)
        np.testing.assert_allclose(out.data, x + reference_conv_tail(0.5 * values, p),
                                   rtol=0, atol=1e-12)

    def test_identity_kernel(self):
        # a unit impulse at the centre tap makes the depthwise conv the
        # identity, whatever the length
        rng = np.random.default_rng(21)
        norm, p = self.conv(rng)
        p.kernel.data[...] = 0.0
        p.kernel.data[1] = 1.0
        p.kernel_bias.data[...] = 0.0
        for steps in (1, 2, 6):
            x = rng.normal(size=(steps, 8))
            h = reference_norm(x, norm) @ p.pw1_w.data + p.pw1_b.data
            glu = h[:, :8] / (1.0 + np.exp(-h[:, 8:]))
            n = reference_norm(glu, p.norm)
            expect = (n / (1.0 + np.exp(-n))) @ p.pw2_w.data + p.pw2_b.data
            out = _conv_module(Tensor(x), norm, p)
            np.testing.assert_allclose(out.data, x + expect, rtol=0, atol=1e-12)

    def test_zero_kernel_output_ignores_input(self):
        rng = np.random.default_rng(22)
        norm, p = self.conv(rng)
        zero_out(p.kernel)
        xa, xb = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        a = _conv_module(Tensor(xa), norm, p).data - xa
        b = _conv_module(Tensor(xb), norm, p).data - xb
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a, np.tile(a[0], (4, 1)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("steps", [1, 2, 9])
    def test_output_keeps_length(self, kernel, steps):
        layer = Encoder.build(tiny_config("conformer", conv_kernel=kernel)).layers[0]
        out = _conv_module(Tensor(np.random.default_rng(23).normal(size=(steps, 8))),
                           layer.conv_norm, layer.conv)
        assert out.shape == (steps, 8)


class TestFusedGradients:
    """The fused blocks, pre-norm included, against central differences, at
    the primitive tolerance, on one utterance and on a stack of two."""

    @staticmethod
    def worst_error(block, shape, seed, scale=1.0, padding=None):
        rng = np.random.default_rng(seed)
        layer = Encoder.build(tiny_config("conformer", d_model=shape[-1])).layers[0]
        x = Tensor(rng.uniform(-2, 2, size=shape), requires_grad=True)
        w = rng.uniform(-1, 1, size=shape)
        if block == "attention":
            norm, p = layer.att_norm, layer.attention

            def fn():
                return self_attention(x, norm, p, 2, scale, padding)
        elif block == "conv":
            norm, p = layer.conv_norm, layer.conv

            def fn():
                return _conv_module(x, norm, p, scale, padding)
        else:
            norm, p = layer.ffn1_norm, layer.ffn1

            def fn():
                return _feed_forward(x, norm, p, block, scale)
        randomize(norm, rng)
        randomize(p, rng)
        params = {"x": x, **dict(_named_tensors(norm, "pre_norm")),
                  **dict(_named_tensors(p, "block"))}
        return gradcheck(lambda: weighted_sum(fn(), w), params).max_rel_error

    @pytest.mark.parametrize("block", ["attention", "relu", "swish", "conv"])
    def test_gradcheck(self, block):
        assert self.worst_error(block, (4, 8), 18) < 1e-6

    @pytest.mark.parametrize("block", ["attention", "relu", "swish", "conv"])
    def test_gradcheck_stacked(self, block):
        assert self.worst_error(block, (2, 3, 4), 19) < 1e-6

    @pytest.mark.parametrize("scale", [1.0, 1 / 0.7], ids=["scale_1", "scale_1/0.7"])
    @pytest.mark.parametrize("block", ["attention", "relu", "swish", "conv"])
    def test_gradcheck_padded_stack(self, block, scale):
        padding = Padding.of(np.array([3, 2]), 3, np.float64)
        assert self.worst_error(block, (2, 3, 4), 26, scale, padding) < 1e-6


class TestStacked:
    """Eval forwards of a (B, T, F) stack of equal-length utterances: each
    row is that utterance forwarded alone."""

    @pytest.mark.parametrize("kind", ["transformer", "conformer"])
    def test_rows_match_single_forwards(self, kind):
        rng = np.random.default_rng(20)
        enc = Encoder.build(tiny_config(kind, num_layers=3))
        head = CTCHead.build(8, 3, rng)
        for t in [*enc.parameters().values(), *head.parameters().values()]:
            t.data[...] = rng.uniform(-1, 1, size=t.shape)
        feats = rng.normal(size=(3, 6, 5))
        stacked = enc.forward(Tensor(feats))
        log_post = head(stacked.final).data
        assert stacked.final.shape == (3, 6, 8) and log_post.shape == (3, 6, 4)
        for b in range(len(feats)):
            alone = enc.forward(Tensor(feats[b:b + 1]))
            for s, a in zip(stacked.states, alone.states):
                np.testing.assert_allclose(s.data[b], a.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(log_post[b], head(alone.final).data[0],
                                       rtol=0, atol=1e-12)

    def test_frontend_gradcheck(self):
        rng = np.random.default_rng(21)
        enc = Encoder.build(tiny_config(input_dim=4))
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)), requires_grad=True)
        w = rng.uniform(-1, 1, size=(2, 3, 8))
        report = gradcheck(lambda: weighted_sum(enc.input_frontend(x), w),
                           {"x": x, "frontend.w": enc.frontend_w,
                            "frontend.b": enc.frontend_b})
        assert report.max_rel_error < 1e-6


class TestKeptRows:
    """A train stack runs each layer on the rows that keep it; the others
    carry their input through."""

    # p_l = 5/6, 2/3, 1/2: a draw of 0 keeps a layer, 0.99 skips it
    DRAWS = np.array([[0.0, 0.99, 0.0], [0.99, 0.0, 0.0], [0.0, 0.0, 0.99]])
    LENGTHS = [6, 4, 5]

    def forward(self, kind):
        enc = Encoder.build(tiny_config(kind, num_layers=3, survival_floor=0.5))
        rng = np.random.default_rng(22)
        for t in enc.parameters().values():
            t.data[...] = rng.uniform(-1, 1, size=t.shape)
        feats = np.zeros((3, 6, 5))
        for row, length in enumerate(self.LENGTHS):
            feats[row, :length] = rng.normal(size=(length, 5))
        trace = enc.forward(Tensor(feats), lengths=self.LENGTHS,
                            draws=self.DRAWS)
        return enc, feats, trace

    @pytest.mark.parametrize("kind", ["transformer", "conformer"])
    def test_skipping_row_carries_its_input(self, kind):
        enc, feats, trace = self.forward(kind)
        assert trace.skip_mask == (self.DRAWS == 0.0).astype(int).tolist()
        prev = enc.input_frontend(Tensor(feats)).data
        for state, keeps in zip(trace.states, (self.DRAWS == 0.0).T):
            assert 0 < keeps.sum() < 3
            for row in np.flatnonzero(~keeps):
                assert np.array_equal(state.data[row], prev[row])
            prev = state.data
        for row, length in enumerate(self.LENGTHS):
            alone = enc.forward(Tensor(feats[row:row + 1, :length]),
                                draws=self.DRAWS[row:row + 1])
            for s, a in zip(trace.states, alone.states):
                np.testing.assert_allclose(s.data[row, :length], a.data[0],
                                           rtol=0, atol=1e-12)

    def test_layer_runs_on_the_keeping_rows_alone(self, monkeypatch):
        rows_seen = []

        def counting_layer(x, *args):
            rows_seen.append(x.shape[0])
            return transformer_layer(x, *args)
        monkeypatch.setattr(ctclab.encoder, "transformer_layer", counting_layer)
        self.forward("transformer")
        assert rows_seen == [2, 2, 2]

    def test_layer_no_row_keeps_is_the_same_tensor(self):
        enc = Encoder.build(tiny_config(num_layers=3, survival_floor=0.5))
        x = Tensor(np.random.default_rng(23).normal(size=(2, 4, 5)))
        trace = enc.forward(x, lengths=[4, 3],
                            draws=np.array([[0.0, 0.99, 0.0], [0.0, 0.99, 0.0]]))
        assert trace.skip_mask == [[1, 0, 1], [1, 0, 1]]
        assert trace.states[1] is trace.states[0]
        assert trace.states[2] is not trace.states[1]


class TestForward:
    def test_trace_shapes(self):
        enc = Encoder.build(tiny_config())
        trace = enc.forward(Tensor(np.ones((1, 9, 5))))
        assert isinstance(trace, LayerTrace)
        assert len(trace.states) == 2
        assert all(s.shape == (1, 9, 8) for s in trace.states)
        assert trace.skip_mask == [[1, 1]]

    def test_rejects_an_unstacked_utterance(self):
        enc = Encoder.build(tiny_config())
        with pytest.raises(ValueError, match="stack"):
            enc.forward(Tensor(np.ones((9, 5))))

    def test_survival_one_train_equals_eval_bitwise(self):
        enc = Encoder.build(tiny_config(survival_floor=1.0))
        x = Tensor(np.random.default_rng(9).normal(size=(1, 5, 5)))
        train = enc.forward(x, draws=np.random.default_rng(0).random((1, 2)))
        ev = enc.forward(x)
        for a, b in zip(train.states, ev.states):
            assert (a.data == b.data).all()
        assert train.skip_mask == [[1, 1]]

    def test_seeded_forward_reproducible(self):
        enc = Encoder.build(tiny_config(num_layers=4, survival_floor=0.5))
        x = Tensor(np.random.default_rng(10).normal(size=(1, 4, 5)))
        a = enc.forward(x, draws=np.random.default_rng(77).random((1, 4)))
        b = enc.forward(x, draws=np.random.default_rng(77).random((1, 4)))
        assert a.skip_mask == b.skip_mask
        for s, t in zip(a.states, b.states):
            assert (s.data == t.data).all()

    def test_skipped_layer_is_identity(self):
        # survival floor so low that skips are common; a skipped layer must
        # pass its input through unchanged
        enc = Encoder.build(tiny_config(num_layers=6, survival_floor=0.05))
        x = Tensor(np.random.default_rng(11).normal(size=(1, 3, 5)))
        trace = enc.forward(x, draws=np.random.default_rng(3).random((1, 6)))
        assert 0 in trace.skip_mask[0]  # the draw actually skipped something
        prev = enc.input_frontend(x)
        for state, kept in zip(trace.states, trace.skip_mask[0]):
            if not kept:
                assert state is prev
            prev = state

    def test_empirical_skip_rate(self):
        # Monte-Carlo check of the Bernoulli draws against 1 - p_l
        cfg = tiny_config(num_layers=12, survival_floor=0.7, d_model=4,
                          n_heads=1, d_ff=4)
        rng = np.random.default_rng(2024)
        draws = 10000
        skipped = np.zeros(12)
        for _ in range(draws):
            for l in range(1, 13):
                p = survival_probability(l, 12, 0.7)
                skipped[l - 1] += rng.random() >= p
        for l in range(1, 13):
            expected = 1.0 - survival_probability(l, 12, 0.7)
            assert abs(skipped[l - 1] / draws - expected) < 0.02


class TestEncoderGradients:
    @pytest.mark.parametrize("kind", ["transformer", "conformer"])
    def test_end_to_end_gradcheck(self, kind):
        # full 2-layer encoder + CTC head composite against central differences
        enc = Encoder.build(tiny_config(kind))
        head = CTCHead.build(8, 3, np.random.default_rng(12))
        x = Tensor(np.random.default_rng(13).normal(size=(1, 4, 5)))
        labels = (1, 3)
        params = dict(enc.parameters())
        params.update({f"head.{k}": v for k, v in head.parameters().items()})

        def f():
            trace = enc.forward(x)
            return ctc_loss(take(head(trace.final), 0), labels)
        report = gradcheck(f, params)
        assert report.max_rel_error < 1e-4

    def test_parameter_names_unique_and_stable(self):
        enc = Encoder.build(tiny_config("conformer"))
        names = list(enc.parameters())
        assert len(names) == len(set(names))
        assert names == list(Encoder.build(tiny_config("conformer")).parameters())
        assert names[0] == "frontend.weight"
