import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ctclab.ctc import (
    BLANK,
    CTCHead,
    InfeasibleTargetError,
    collapse,
    ctc_forward_backward,
    ctc_loss,
    ctc_loss_bruteforce,
    greedy_decode,
    oracle_trials,
    read_logits_file,
    required_length,
    write_logits_file,
)
from ctclab.tensor import Tape, Tensor, gradcheck


def log_softmax(logits):
    """Row-wise log-softmax of a (T, V+1) tensor: a head whose projection
    is the identity."""
    width = logits.shape[-1]
    return CTCHead(Tensor(np.eye(width)), Tensor(np.zeros(width)))(logits)


def uniform_grid(steps, vocab):
    return np.full((steps, vocab + 1), -math.log(vocab + 1))


def random_grid(rng, steps, vocab):
    logits = rng.normal(size=(steps, vocab + 1))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def enumerate_alignments(labels, steps, vocab):
    for alignment in itertools.product(range(vocab + 1), repeat=steps):
        if collapse(alignment) == tuple(labels):
            yield alignment


def two_loop_forward_backward(grid, labels):
    """Reference: the forward-backward as two loops, alpha forward over
    frames and then beta backward, each row written in place, and the
    gradient subtracted one state's column at a time, in state order."""
    arr = np.asarray(grid, dtype=np.float64)
    steps = arr.shape[0]
    labels = tuple(int(t) for t in labels)
    if steps < required_length(labels):
        raise InfeasibleTargetError("too few frames")
    ext = np.zeros(2 * len(labels) + 1, dtype=np.intp)
    ext[1::2] = labels
    states = ext.size
    emit = arr[:, ext]
    skip = np.where((ext[2:] != BLANK) & (ext[2:] != ext[:-2]), 0.0, -np.inf)

    alpha = np.full((steps, states), -np.inf)
    alpha[0, :2] = emit[0, :2]
    for t in range(1, steps):
        prev, row = alpha[t - 1], alpha[t]
        row[0] = prev[0]
        np.logaddexp(prev[1:], prev[:-1], out=row[1:])
        np.logaddexp(row[2:], prev[:-2] + skip, out=row[2:])
        row += emit[t]
    log_p = alpha[-1, -1]
    if states > 1:
        log_p = np.logaddexp(log_p, alpha[-1, -2])
    if not np.isfinite(log_p):
        raise InfeasibleTargetError("zero likelihood")

    beta = np.full((steps, states), -np.inf)
    beta[-1, -2:] = 0.0
    nxt = np.empty(states)
    for t in range(steps - 2, -1, -1):
        np.add(beta[t + 1], emit[t + 1], out=nxt)
        row = beta[t]
        row[-1] = nxt[-1]
        np.logaddexp(nxt[:-1], nxt[1:], out=row[:-1])
        np.logaddexp(row[:-2], nxt[2:] + skip, out=row[:-2])

    occupancy = np.exp(alpha + beta - log_p)
    dgrid = np.zeros_like(arr)
    for state, sym in enumerate(ext):
        dgrid[:, sym] -= occupancy[:, state]
    return float(-log_p), dgrid


class TestCollapse:
    def test_merge_then_delete(self):
        assert collapse([1, 1, 0, 2, 2]) == (1, 2)

    def test_all_blank(self):
        assert collapse([0, 0, 0]) == ()

    def test_blank_separates_repeats(self):
        assert collapse([1, 0, 1]) == (1, 1)

    def test_preimage_property(self):
        # every alignment in the preimage of y collapses back to y
        rng = np.random.default_rng(0)
        for _ in range(20):
            vocab = int(rng.integers(1, 4))
            labels = tuple(rng.integers(1, vocab + 1, size=rng.integers(0, 4)))
            steps = required_length(labels) + int(rng.integers(0, 3))
            if steps == 0:
                steps = 1
            found = list(itertools.islice(
                enumerate_alignments(labels, steps, vocab), 50))
            for alignment in found:
                assert collapse(alignment) == labels


class TestRequiredLength:
    def test_distinct_pair(self):
        assert required_length([1, 2]) == 2

    def test_repeat_pair(self):
        assert required_length([1, 1]) == 3

    def test_empty(self):
        assert required_length([]) == 0

    def test_matches_enumeration(self):
        # feasibility over small T agrees with direct enumeration
        rng = np.random.default_rng(1)
        for _ in range(30):
            vocab = int(rng.integers(1, 3))
            labels = tuple(rng.integers(1, vocab + 1, size=rng.integers(0, 4)))
            need = required_length(labels)
            for steps in range(1, 7):
                nonempty = any(True for _ in itertools.islice(
                    enumerate_alignments(labels, steps, vocab), 1))
                assert nonempty == (steps >= need)


class TestCtcLoss:
    def test_two_frame_single_token(self):
        # alignments {(1,0),(0,1),(1,1)} each carry 0.25 -> P = 0.75
        grid = uniform_grid(2, 1)
        loss = ctc_loss(grid, [1]).item()
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)
        assert loss == pytest.approx(ctc_loss_bruteforce(grid, [1]), abs=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss(uniform_grid(1, 1), [1, 1])

    def test_empty_target_single_path(self):
        loss = ctc_loss(uniform_grid(3, 1), []).item()
        assert loss == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_bruteforce_infeasible_inf(self):
        assert ctc_loss_bruteforce(uniform_grid(1, 1), [1, 1]) == math.inf

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            ctc_loss_bruteforce(np.zeros((30, 4)), [1])

    def test_feasibility_boundary(self):
        # loss finite exactly when T >= required_length(y)
        labels = (2, 2, 1)
        need = required_length(labels)  # 4
        for steps in range(1, 7):
            grid = uniform_grid(steps, 2)
            if steps >= need:
                assert math.isfinite(ctc_loss(grid, labels).item())
            else:
                with pytest.raises(InfeasibleTargetError):
                    ctc_loss(grid, labels)

    def test_oracle_equivalence_randomized(self):
        assert oracle_trials(trials=200, seed=0) < 1e-10

    @given(st.data())
    def test_forward_backward_matches_bruteforce(self, data):
        steps = data.draw(st.integers(1, 5), label="T")
        vocab = data.draw(st.integers(1, 3), label="V")
        labels = tuple(data.draw(st.lists(st.integers(1, vocab), max_size=3),
                                 label="labels"))
        assume(steps >= required_length(labels))
        logits = np.array(data.draw(st.lists(
            st.floats(-6.0, 6.0), min_size=steps * (vocab + 1),
            max_size=steps * (vocab + 1)), label="logits")).reshape(steps, vocab + 1)
        grid = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        loss, _ = ctc_forward_backward(grid, labels)
        assert loss == pytest.approx(ctc_loss_bruteforce(grid, labels), rel=1e-9, abs=1e-9)

    @settings(max_examples=300)
    @given(st.data())
    def test_forward_backward_bits_equal_two_loops(self, data):
        # the one-row recursion against separate alpha and beta loops, bit
        # for bit, on feasible and infeasible targets
        vocab = data.draw(st.integers(1, 6), label="V")
        size = data.draw(st.integers(0, 20), label="U")
        labels = data.draw(st.lists(st.integers(1, vocab), min_size=size, max_size=size),
                           label="labels")
        need = required_length(labels)
        steps = data.draw(st.one_of(st.just(need), st.integers(1, 90)), label="T")
        assume(steps >= 1)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        logits = rng.normal(scale=data.draw(st.sampled_from([0.5, 3.0, 20.0])),
                            size=(steps, vocab + 1))
        grid = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        holes = data.draw(st.sampled_from([0.0, 0.05, 0.3]), label="-inf share")
        grid[rng.random(grid.shape) < holes] = -np.inf
        grid = grid.astype(data.draw(st.sampled_from([np.float32, np.float64])))
        labels = data.draw(st.sampled_from([list, tuple, np.array]))(labels)
        try:
            expect_loss, expect_grad = two_loop_forward_backward(grid, labels)
        except InfeasibleTargetError:
            with pytest.raises(InfeasibleTargetError):
                ctc_forward_backward(grid, labels)
            return
        loss, dgrid = ctc_forward_backward(grid, labels)
        assert np.array_equal(loss, expect_loss)
        assert dgrid.dtype == np.float64
        assert np.array_equal(dgrid, expect_grad)

    def test_occupancy_consistency(self):
        # the grid gradient sums to -expected alignment length... per-frame
        # occupancies sum to 1, so each dgrid row sums to -1
        rng = np.random.default_rng(2)
        grid = random_grid(rng, 5, 3)
        _, dgrid = ctc_forward_backward(grid, (1, 3))
        np.testing.assert_allclose(dgrid.sum(axis=1), -np.ones(5), atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ctc_loss(uniform_grid(3, 2), [3])
        with pytest.raises(ValueError):
            ctc_loss(uniform_grid(3, 2), [0])


class TestCtcGradient:
    def test_grid_gradient_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = (1, 2)
        report = gradcheck(lambda: ctc_loss(log_softmax(logits), labels),
                           {"logits": logits})
        assert report.max_rel_error < 1e-4

    def test_logit_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        with Tape() as tape:
            loss = ctc_loss(log_softmax(logits), (2, 1, 1))
        tape.backward(loss)
        np.testing.assert_allclose(logits.grad.sum(axis=1), np.zeros(5), atol=1e-12)

    def test_direct_grid_gradient_matches_fd(self):
        # perturb the grid entries themselves (unnormalized use)
        rng = np.random.default_rng(5)
        grid = Tensor(random_grid(rng, 3, 2), requires_grad=True)
        report = gradcheck(lambda: ctc_loss(grid, (1,)), {"grid": grid})
        assert report.max_rel_error < 1e-4


class TestGreedyDecode:
    def test_argmax_path(self):
        grid = np.full((4, 3), -10.0)
        for t, sym in enumerate([1, 1, 0, 2]):
            grid[t, sym] = 0.0
        assert greedy_decode(grid[None]) == [(1, 2)]

    def test_blank_dominant(self):
        grid = np.zeros((5, 3))
        grid[:, BLANK] = 1.0
        assert greedy_decode(grid[None]) == [()]

    def test_matches_collapse_of_argmax(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            grid = random_grid(rng, int(rng.integers(1, 9)), int(rng.integers(1, 5)))
            assert greedy_decode(grid[None]) == [collapse(np.argmax(grid, axis=1))]

    def test_tie_breaks_to_lowest_id(self):
        assert greedy_decode(uniform_grid(2, 1)[None]) == [()]

    @given(st.data())
    def test_stack_rows_match_collapse_of_argmax(self, data):
        rows, steps, vocab = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 9)),
                              data.draw(st.integers(1, 4)))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        # integer-valued log-probs tie often; all-blank rows put the blank on top
        values = data.draw(st.lists(st.integers(-3, 0), min_size=rows * steps * (vocab + 1),
                                    max_size=rows * steps * (vocab + 1)))
        stack = np.array(values, dtype=dtype).reshape(rows, steps, vocab + 1)
        blank_rows = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        stack[np.array(blank_rows), :, BLANK] = 1.0
        decodes = greedy_decode(stack)
        assert decodes == [collapse(np.argmax(grid, axis=1)) for grid in stack]
        assert all(decodes[b] == () for b in range(rows) if blank_rows[b])

    @pytest.mark.parametrize("rows,steps", [(1, 1), (1, 7), (4, 1), (6, 12)])
    def test_stack_edge_shapes(self, rows, steps):
        rng = np.random.default_rng(12)
        stack = np.stack([random_grid(rng, steps, 3) for _ in range(rows)])
        assert greedy_decode(stack) == [greedy_decode(grid[None])[0] for grid in stack]
        assert greedy_decode(stack[:1]) == [collapse(np.argmax(stack[0], axis=1))]

    def test_rejects_other_ranks(self):
        # (4, 3) is one grid, not a stack of them
        for shape in [(6,), (2, 2, 3, 4), (3, 1), (4, 3)]:
            with pytest.raises(ValueError):
                greedy_decode(np.zeros(shape))


class TestCtcHead:
    def test_zero_weights_give_uniform_rows(self):
        head = CTCHead(Tensor(np.zeros((6, 4)), requires_grad=True),
                       Tensor(np.zeros(4), requires_grad=True))
        grid = head(Tensor(np.random.default_rng(7).normal(size=(5, 6))))
        np.testing.assert_allclose(grid.data, np.full((5, 4), -math.log(4)), atol=1e-12)

    def test_shape_preserved(self):
        rng = np.random.default_rng(8)
        head = CTCHead.build(6, 3, rng)
        for steps in (1, 4, 11):
            grid = head(Tensor(rng.normal(size=(steps, 6))))
            assert grid.shape == (steps, 4)
            # rows are log-posteriors: exponentials sum to 1
            np.testing.assert_allclose(np.exp(grid.data).sum(axis=1),
                                       np.ones(steps), atol=1e-6)

    def test_width_mismatch(self):
        head = CTCHead.build(6, 3, np.random.default_rng(9))
        with pytest.raises(ValueError):
            head(Tensor(np.ones((4, 5))))

    def test_gradcheck_through_projection_and_loss(self):
        rng = np.random.default_rng(10)
        head = CTCHead.build(5, 2, rng)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        params = {"x": x, "w": head.weight, "b": head.bias}
        report = gradcheck(lambda: ctc_loss(head(x), (1, 2)), params)
        assert report.max_rel_error < 1e-4


class TestLogitsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        grid = random_grid(rng, 6, 3)
        path = tmp_path / "grid.txt"
        write_logits_file(path, grid)
        loaded = read_logits_file(path)
        np.testing.assert_array_equal(loaded, grid)
        assert greedy_decode(loaded[None]) == greedy_decode(grid[None])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 0 0\n0 0 0\n")
        with pytest.raises(ValueError):
            read_logits_file(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 0 0\n0 0\n")
        with pytest.raises(ValueError):
            read_logits_file(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 0\n")
        with pytest.raises(ValueError):
            read_logits_file(path)
