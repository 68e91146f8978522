import numpy as np
import pytest

from ctclab.ctc import CTCHead, ctc_loss
from ctclab.encoder import (
    Attention,
    Encoder,
    EncoderConfig,
    FeedForward,
    LayerTrace,
    Norm,
    _conv_module,
    _feed_forward,
    _named_tensors,
    conformer_layer,
    self_attention,
    sinusoidal_encoding,
    survival_probability,
    transformer_layer,
)
from ctclab.tensor import Tape, Tensor, add, gradcheck, layer_norm, matmul, mul, sum_all


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
        w = Tensor(rng.uniform(-1, 1, size=(3, 8)))
        from ctclab.tensor import mul, sum_all
        report = gradcheck(lambda: sum_all(mul(enc.input_frontend(x), w)),
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
        from ctclab.tensor import layer_norm
        enc = Encoder.build(tiny_config("conformer"))
        layer = enc.layers[0]
        zero_out(layer.ffn1.w2, layer.ffn1.b2, layer.attention.wo,
                 layer.attention.bo, layer.conv.pw2_w, layer.conv.pw2_b,
                 layer.ffn2.w2, layer.ffn2.b2)
        x = Tensor(np.random.default_rng(4).normal(size=(5, 8)))
        out = conformer_layer(x, layer, n_heads=2)
        expect = layer_norm(x, layer.out_norm.gain, layer.out_norm.bias, eps=1e-5)
        np.testing.assert_array_equal(out.data, expect.data)


class TestSelfAttention:
    def test_single_position_is_value_projection(self):
        layer = Encoder.build(tiny_config()).layers[0]
        norm, p = layer.att_norm, layer.attention
        x = Tensor(np.random.default_rng(5).normal(size=(1, 8)))
        out = self_attention(x, norm, p, n_heads=2)
        xn = layer_norm(x, norm.gain, norm.bias, eps=1e-5)
        expect = add(matmul(add(matmul(xn, p.wv), p.bv), p.wo), p.bo)
        np.testing.assert_allclose(out.data, expect.data, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        layer = Encoder.build(tiny_config()).layers[0]
        x = Tensor(np.random.default_rng(6).normal(size=(7, 8)))
        _, weights = self_attention(x, layer.att_norm, layer.attention, n_heads=2,
                                    return_weights=True)
        for attn in weights:
            np.testing.assert_allclose(attn.data.sum(axis=-1), np.ones(7),
                                       rtol=0, atol=1e-12)

    def test_matches_per_head_composition(self):
        rng = np.random.default_rng(14)
        layer = Encoder.build(tiny_config()).layers[0]
        norm, p = randomize(layer.att_norm, rng), randomize(layer.attention, rng)
        x = rng.normal(size=(7, 8))
        out = self_attention(Tensor(x), norm, p, n_heads=2)
        np.testing.assert_allclose(out.data, reference_attention(x, norm, p, 2),
                                   rtol=0, atol=1e-12)

    def test_equal_scores_average_the_values(self):
        # zero queries give every key the same score, so each row of each
        # map is uniform and every position gets the mean value
        rng = np.random.default_rng(15)
        layer = Encoder.build(tiny_config()).layers[0]
        norm, p = randomize(layer.att_norm, rng), randomize(layer.attention, rng)
        zero_out(p.wq, p.bq)
        x = rng.normal(size=(5, 8))
        out, weights = self_attention(Tensor(x), norm, p, n_heads=2,
                                      return_weights=True)
        for attn in weights:
            np.testing.assert_allclose(attn.data, np.full((5, 5), 0.2),
                                       rtol=0, atol=1e-15)
        mean_value = (reference_norm(x, norm) @ p.wv.data + p.bv.data).mean(axis=0)
        expect = np.tile(mean_value @ p.wo.data + p.bo.data, (5, 1))
        np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)

    def test_extreme_scores_stay_finite(self):
        # one head over rows that the pre-norm leaves as u, w and -u, with u
        # and w orthogonal: score rows (1000, 0, -1000), (0, 1000, 0) and
        # (-1000, 0, 1000) to within the norm's eps.  The max-subtracted
        # softmax gives exact one-hot maps, and the backward stays finite
        a = np.sqrt(500.0)
        eye, zero = np.eye(4), np.zeros(4)
        p = Attention(*(Tensor(m, requires_grad=True) for m in
                        (a * eye, zero, a * eye, zero, eye, zero, eye, zero)))
        norm = unit_norm(4)
        x = Tensor([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0, 1.0]], requires_grad=True)
        w = Tensor(np.random.default_rng(16).uniform(-1, 1, size=(3, 4)))
        with Tape() as tape:
            out, weights = self_attention(x, norm, p, n_heads=1, return_weights=True)
            loss = sum_all(mul(out, w))
        tape.backward(loss)
        np.testing.assert_allclose(weights[0].data, np.eye(3), rtol=0, atol=1e-300)
        np.testing.assert_array_equal(out.data, layer_norm(x, norm.gain, norm.bias).data)
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
                                   reference_feed_forward(x, norm, p, activation),
                                   rtol=0, atol=1e-12)

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
            loss = sum_all(out)
        tape.backward(loss)
        xn = layer_norm(x, norm.gain, norm.bias).data
        np.testing.assert_array_equal(out.data, np.maximum(xn, 0.0))
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
        np.testing.assert_allclose(out.data, reference_conv_module(x, norm, p),
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
        np.testing.assert_allclose(out.data, reference_conv_tail(0.5 * values, p),
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
            np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)

    def test_zero_kernel_output_ignores_input(self):
        rng = np.random.default_rng(22)
        norm, p = self.conv(rng)
        zero_out(p.kernel)
        a = _conv_module(Tensor(rng.normal(size=(4, 8))), norm, p)
        b = _conv_module(Tensor(rng.normal(size=(4, 8))), norm, p)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.data, np.tile(a.data[0], (4, 1)))

    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("steps", [1, 2, 9])
    def test_output_keeps_length(self, kernel, steps):
        layer = Encoder.build(tiny_config("conformer", conv_kernel=kernel)).layers[0]
        out = _conv_module(Tensor(np.random.default_rng(23).normal(size=(steps, 8))),
                           layer.conv_norm, layer.conv)
        assert out.shape == (steps, 8)


class TestFusedGradients:
    """The fused blocks, pre-norm included, against central differences, at
    the primitive tolerance."""

    @pytest.mark.parametrize("block", ["attention", "relu", "swish", "conv"])
    def test_gradcheck(self, block):
        rng = np.random.default_rng(18)
        layer = Encoder.build(tiny_config("conformer")).layers[0]
        x = Tensor(rng.uniform(-2, 2, size=(4, 8)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(4, 8)))
        if block == "attention":
            norm, p = layer.att_norm, layer.attention

            def fn():
                return self_attention(x, norm, p, n_heads=2)
        elif block == "conv":
            norm, p = layer.conv_norm, layer.conv

            def fn():
                return _conv_module(x, norm, p)
        else:
            norm, p = layer.ffn1_norm, layer.ffn1

            def fn():
                return _feed_forward(x, norm, p, block)
        randomize(norm, rng)
        randomize(p, rng)
        params = {"x": x, **dict(_named_tensors(norm, "pre_norm")),
                  **dict(_named_tensors(p, "block"))}
        report = gradcheck(lambda: sum_all(mul(fn(), w)), params)
        assert report.max_rel_error < 1e-6


class TestForward:
    def test_trace_shapes(self):
        enc = Encoder.build(tiny_config())
        trace = enc.forward(Tensor(np.ones((9, 5))))
        assert isinstance(trace, LayerTrace)
        assert trace.num_layers == 2
        assert all(s.shape == (9, 8) for s in trace.states)
        assert trace.skip_mask == [1, 1]

    def test_eval_independent_of_rng(self):
        enc = Encoder.build(tiny_config(survival_floor=0.5))
        x = Tensor(np.random.default_rng(8).normal(size=(4, 5)))
        a = enc.forward(x, mode="eval")
        b = enc.forward(x, mode="eval", rng=np.random.default_rng(123))
        assert (a.final.data == b.final.data).all()

    def test_survival_one_train_equals_eval_bitwise(self):
        enc = Encoder.build(tiny_config(survival_floor=1.0))
        x = Tensor(np.random.default_rng(9).normal(size=(5, 5)))
        train = enc.forward(x, mode="train", rng=np.random.default_rng(0))
        ev = enc.forward(x, mode="eval")
        for a, b in zip(train.states, ev.states):
            assert (a.data == b.data).all()
        assert train.skip_mask == [1, 1]

    def test_seeded_forward_reproducible(self):
        enc = Encoder.build(tiny_config(num_layers=4, survival_floor=0.5))
        x = Tensor(np.random.default_rng(10).normal(size=(4, 5)))
        a = enc.forward(x, mode="train", rng=np.random.default_rng(77))
        b = enc.forward(x, mode="train", rng=np.random.default_rng(77))
        assert a.skip_mask == b.skip_mask
        for s, t in zip(a.states, b.states):
            assert (s.data == t.data).all()

    def test_train_mode_requires_rng(self):
        enc = Encoder.build(tiny_config())
        with pytest.raises(ValueError):
            enc.forward(Tensor(np.ones((3, 5))), mode="train")

    def test_skipped_layer_is_identity(self):
        # survival floor so low that skips are common; a skipped layer must
        # pass its input through unchanged
        enc = Encoder.build(tiny_config(num_layers=6, survival_floor=0.05))
        x = Tensor(np.random.default_rng(11).normal(size=(3, 5)))
        trace = enc.forward(x, mode="train", rng=np.random.default_rng(3))
        assert 0 in trace.skip_mask  # the draw actually skipped something
        prev = enc.input_frontend(x)
        for state, kept in zip(trace.states, trace.skip_mask):
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
        x = Tensor(np.random.default_rng(13).normal(size=(4, 5)))
        labels = (1, 3)
        params = dict(enc.parameters())
        params.update({f"head.{k}": v for k, v in head.parameters().items()})

        def f():
            trace = enc.forward(x, mode="eval")
            return ctc_loss(head(trace.final), labels)
        report = gradcheck(f, params)
        assert report.max_rel_error < 1e-4

    def test_parameter_names_unique_and_stable(self):
        enc = Encoder.build(tiny_config("conformer"))
        names = list(enc.parameters())
        assert len(names) == len(set(names))
        assert names == list(Encoder.build(tiny_config("conformer")).parameters())
        assert names[0] == "frontend.weight"
