import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ctclab.ctc import CTCHead
from ctclab.tensor import (
    GradcheckReport,
    Tape,
    Tensor,
    _norm_backward,
    _norm_forward,
    _row_max,
    _sigmoid,
    add,
    gradcheck,
    put_rows,
    record_op,
    take,
    weighted_sum,
)


def layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm as one tape entry on the helpers that every fused block's
    norm uses."""
    y, xhat, inv = _norm_forward(x.data, gain.data, bias.data, eps)
    return record_op(y, (x, gain, bias),
                     lambda g: _norm_backward(g, gain.data, xhat, inv))


def log_softmax(x):
    """Row-wise log-softmax: the CTC head's, with an identity projection."""
    width = x.shape[-1]
    return CTCHead(Tensor(np.eye(width)), Tensor(np.zeros(width)))(x)


def square(x):
    """x * x elementwise, as one tape entry."""
    return record_op(x.data * x.data, (x,), lambda g: (2.0 * g * x.data,))


def rand_param(rng, *shape):
    return Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)


class TestTensorBasics:
    def test_rank_limit(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            Tensor([1.0, np.inf])

    def test_int_input_promoted_to_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float64

    def test_dtype_mismatch_raises(self):
        a = Tensor(np.ones((2, 2)), dtype=np.float32)
        b = Tensor(np.ones((2, 2)), dtype=np.float64)
        with pytest.raises(ValueError):
            add(a, b)

    def test_shape_mismatch_raises(self):
        # no broadcasting: a bias, a table over a stack and a transposed
        # operand are all rejected
        for a, b in (((3, 4), (4,)), ((2, 3, 4), (3, 4)), ((2, 3, 4), (1, 3, 4)),
                     ((3, 4), (4, 3))):
            with pytest.raises(ValueError, match="shape"):
                add(Tensor(np.ones(a)), Tensor(np.ones(b)))


    def test_weighted_sum_needs_weights_of_its_shape(self):
        for shape in ((4,), (3, 1), (4, 3)):
            with pytest.raises(ValueError, match="shape"):
                weighted_sum(Tensor(np.ones((3, 4))), np.ones(shape))


class TestForwardExamples:
    def test_layer_norm_constant_vector(self):
        x = Tensor([5.0, 5.0, 5.0, 5.0])
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_layer_norm_symmetric_pair(self):
        out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         eps=1e-14)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-7)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=8))
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-14)
        assert abs(out.data.mean()) < 1e-10
        assert abs(out.data.var() - 1.0) < 1e-6

    def test_forward_bitwise_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        a = log_softmax(layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))))
        b = log_softmax(layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))))
        assert (a.data == b.data).all()

    def test_put_rows_replaces_only_its_rows(self):
        rng = np.random.default_rng(14)
        x, y = Tensor(rng.normal(size=(3, 2, 4))), Tensor(rng.normal(size=(2, 2, 4)))
        rows = np.array([2, 0])
        out = put_rows(x, rows, y).data
        assert (out[2] == y.data[0]).all() and (out[0] == y.data[1]).all()
        assert (out[1] == x.data[1]).all()
        assert (put_rows(x, rows, take(x, rows)).data == x.data).all()


class TestBackward:
    def test_sum_gives_ones(self):
        p = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(p, np.ones((2, 3)))
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_independent_param_gets_zeros(self):
        p = Tensor(np.ones(3), requires_grad=True)
        q = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(square(q), np.ones(3))
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, np.zeros(3))
        np.testing.assert_array_equal(q.grad, 2 * np.ones(3))

    def test_fanout_accumulates(self):
        p = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(add(square(p), p), np.ones(1))  # p^2 + p -> 2p + 1 = 5
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, [5.0])

    def test_repeated_backward_accumulates(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = weighted_sum(p, np.ones(2))
        tape.backward(loss)
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        p = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = square(p)
        with pytest.raises(ValueError):
            tape.backward(out)

    def test_untaped_loss_rejected(self):
        p = Tensor(np.ones(3), requires_grad=True)
        loss = weighted_sum(p, np.ones(3))  # no tape active
        with pytest.raises(RuntimeError):
            Tape().backward(loss)

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_dropped_tape_freed_by_reference_counting(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                loss = weighted_sum(square(p), np.ones(2))
            tape.backward(loss)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
        finally:
            gc.enable()
        np.testing.assert_array_equal(p.grad, [2.0, 4.0])
        with pytest.raises(RuntimeError):
            Tape().backward(loss)

    def test_tensor_of_an_earlier_tape_enters_the_next_as_a_constant(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        gc.disable()
        try:
            with Tape() as first:
                old = square(p)
            ref = weakref.ref(first)
            del first
            assert ref() is None  # `old` does not keep its tape alive
        finally:
            gc.enable()
        with Tape() as tape:
            alone = weighted_sum(old, np.ones(2))
            loss = weighted_sum(add(old, square(p)), np.ones(2))
        assert alone._tape is None  # an op on constants only makes no entry
        assert len(tape._entries) == 3  # square, add and weighted_sum
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad, [2.0, 4.0])  # none through `old`
        with pytest.raises(RuntimeError):
            tape.backward(alone)

    def test_forward_and_backward_write_no_token_to_a_leaf(self):
        # a leaf is known by its gradient buffer: only recorded outputs
        # hold the tape's token
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        head = CTCHead.build(2, 2, rng)
        leaves = [x, head.weight, head.bias]
        with Tape() as tape:
            out = head(add(x, x))
            loss = weighted_sum(out, rng.normal(size=(3, 3)))
        tape.backward(loss)
        assert [leaf._tape for leaf in leaves] == [None, None, None]
        assert out._tape is not None and loss._tape is not None
        assert all(leaf.grad.any() for leaf in leaves)

    def test_record_op_custom_gradient(self):
        p = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            out = record_op(p.data ** 2, (p,), lambda g: (g * 2 * p.data,))
            loss = weighted_sum(out, np.ones(1))
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, [6.0])

    def test_non_finite_op_output_raises(self):
        x = Tensor([800.0])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            record_op(np.exp(x.data), (x,), lambda g: (g,))


class TestGradcheck:
    """Central finite differences are the oracle for every primitive."""

    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(4)
        p = rand_param(rng, 5)
        report = gradcheck(lambda: weighted_sum(square(p), np.ones(5)), {"p": p})
        assert report.max_rel_error < 1e-9

    @pytest.mark.parametrize("name,fn", [
        ("log_softmax", log_softmax),
    ])
    def test_unary_ops(self, name, fn):
        rng = np.random.default_rng(hash(name) % 2**31)
        x = rand_param(rng, 4, 6)
        # weight the outputs so the check is not fooled by symmetric cancellation
        w = rng.uniform(-1, 1, size=fn(x).shape)
        report = gradcheck(lambda: weighted_sum(fn(x), w), {"x": x})
        assert report.max_rel_error < 1e-6

    def test_layer_norm(self):
        rng = np.random.default_rng(8)
        x, gain, bias = rand_param(rng, 3, 8), rand_param(rng, 8), rand_param(rng, 8)
        w = rng.uniform(-1, 1, size=(3, 8))
        report = gradcheck(
            lambda: weighted_sum(layer_norm(x, gain, bias), w),
            {"x": x, "gain": gain, "bias": bias})
        assert report.max_rel_error < 1e-6

    def test_add_fan_out(self):
        rng = np.random.default_rng(9)
        x, b = rand_param(rng, 4, 6), rand_param(rng, 4, 6)
        w1 = rng.uniform(-1, 1, size=(4, 6))
        w2 = rng.uniform(-1, 1, size=(4, 6))

        def f():
            y = add(x, b)  # fans out into two weighted sums
            return add(weighted_sum(y, w1), weighted_sum(y, w2))
        report = gradcheck(f, {"x": x, "b": b})
        assert report.max_rel_error < 1e-6

    @pytest.mark.parametrize("index", [np.array([2, 0]), (1, slice(3))],
                             ids=["rows", "row_frames"])
    def test_take(self, index):
        rng = np.random.default_rng(12)
        x = rand_param(rng, 3, 4, 5)
        w = rng.uniform(-1, 1, size=x.data[index].shape)

        def f():
            return weighted_sum(square(take(x, index)), w)
        report = gradcheck(f, {"x": x})
        assert report.max_rel_error < 1e-6

    def test_put_rows(self):
        rng = np.random.default_rng(13)
        x, y = rand_param(rng, 3, 4, 5), rand_param(rng, 2, 4, 5)
        rows = np.array([2, 0])
        w = rng.uniform(-1, 1, size=(3, 4, 5))

        def f():
            return weighted_sum(square(put_rows(x, rows, y)), w)
        report = gradcheck(f, {"x": x, "y": y})
        assert report.max_rel_error < 1e-6

    def test_random_trials_all_primitives(self):
        # 50 randomized trials over the differentiable suite, inputs in [-2, 2]
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            x = rand_param(rng, 3, 4)
            w = rng.uniform(-1, 1, size=(3, 4))
            gain = Tensor(rng.uniform(0.5, 1.5, size=4))
            bias = Tensor(rng.uniform(-1, 1, size=4))
            fns = [
                lambda: weighted_sum(layer_norm(x, gain, bias), w),
                lambda: weighted_sum(log_softmax(x), w),
            ]
            for f in fns:
                worst = max(worst, gradcheck(f, {"x": x}).max_rel_error)
        assert worst < 1e-6

    def test_report_lines(self):
        report = GradcheckReport({"a": 1e-8, "b": 3e-7})
        assert report.max_rel_error == 3e-7
        assert len(report.lines()) == 2


def piecewise_sigmoid(v):
    """The overflow-safe piecewise form: 1 / (1 + exp(-v)) where v >= 0 and
    exp(v) / (1 + exp(v)) elsewhere."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


class TestBitExactHelpers:
    """The numpy helpers behind the fused ops give the bits of the plain
    numpy forms they stand for."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equals_piecewise(self, dtype):
        rng = np.random.default_rng(20)
        edges = np.array([0.0, -0.0, 80.0, -80.0, 100.0, -100.0, 1e-30, -1e-30])
        for spread in (0.1, 1.0, 10.0, 60.0):
            v = np.concatenate([edges, rng.normal(scale=spread, size=5000)])
            v = v.astype(dtype).reshape(-1, 8)
            got = _sigmoid(v)
            assert got.dtype == dtype
            assert np.array_equal(got, piecewise_sigmoid(v))
            assert np.array_equal(np.signbit(got), np.signbit(piecewise_sigmoid(v)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7,), (15, 64), (52, 128), (2, 5, 6)])
    def test_norm_helpers_bitwise_equal_mean_var_form(self, dtype, shape):
        rng = np.random.default_rng(21)
        width = shape[-1]
        lead = tuple(range(len(shape) - 1))
        for scale_ in (0.01, 1.0, 30.0):
            x = (rng.normal(size=shape) * scale_ + 3.0).astype(dtype)
            gain = rng.uniform(0.5, 1.5, size=width).astype(dtype)
            bias = rng.normal(size=width).astype(dtype)
            g = rng.normal(size=shape).astype(dtype)
            mean = x.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
            xhat = (x - mean) * inv
            gx = g * gain
            dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                        - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            expect_fwd = (xhat * gain + bias, xhat, inv)
            expect_bwd = (dx, (g * xhat).sum(axis=lead), g.sum(axis=lead))
            got_fwd = _norm_forward(x, gain, bias, 1e-5)
            got_bwd = _norm_backward(g, gain, xhat, inv)
            for got, expect in zip(got_fwd + got_bwd, expect_fwd + expect_bwd):
                assert got.dtype == dtype
                assert np.array_equal(got, expect)

    @given(st.data())
    def test_row_max_bitwise_equals_numpy_max(self, data):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        shape = (data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
                 + [data.draw(st.integers(1, 20))])
        values = st.one_of(st.sampled_from([0.0, -0.0, -np.inf, 1.0, -1.0]),
                           st.floats(-1e3, 1e3, width=32))
        a = data.draw(arrays(dtype, shape, elements=values))
        # padded keys: whole columns of -inf, as attention's padding adds
        padded = data.draw(st.lists(st.booleans(), min_size=shape[-1], max_size=shape[-1]))
        a[..., np.array(padded)] = -np.inf
        got, expect = _row_max(a), a.max(axis=-1, keepdims=True)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("shape", [(15, 4, 15, 15), (2, 4, 52, 52), (1, 4, 90, 90),
                                       (16, 15, 6), (1, 1, 6), (3, 4, 1)])
    def test_row_max_at_softmax_shapes(self, shape):
        rng = np.random.default_rng(22)
        for dtype in (np.float32, np.float64):
            a = rng.normal(size=shape).astype(dtype)
            a[..., 0, :] = rng.choice([0.0, -0.0], size=shape[-1])
            assert _row_max(a).tobytes() == a.max(axis=-1, keepdims=True).tobytes()
            a[..., 0, :] = 1.0  # no zero maximum
            assert _row_max(a).tobytes() == a.max(axis=-1, keepdims=True).tobytes()
