import numpy as np
import pytest

from ctclab.ctc import CTCHead, InfeasibleTargetError, ctc_loss, greedy_decode
from ctclab.encoder import Encoder, EncoderConfig
from ctclab.objective import (
    CTCHeads,
    IntermediateLossSpec,
    LossBreakdown,
    ObjectivePlan,
    eval_decode,
    plan_step,
    stack_losses,
    total_loss,
)
from ctclab.tensor import Tape, Tensor, take


def make_model(num_layers=4, seed=42, vocab=3):
    cfg = EncoderConfig(num_layers=num_layers, d_model=8, n_heads=2, d_ff=12,
                        survival_floor=1.0, input_dim=5, seed=seed)
    enc = Encoder.build(cfg)
    head = CTCHead.build(8, vocab, np.random.default_rng(seed + 1))
    return enc, CTCHeads(head, head)


def grads_of(enc, heads, f):
    params = {**enc.parameters(), **heads.parameters()}
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    return {k: p.grad.copy() for k, p in params.items()}


def positions(spec, num_layers, rng=None):
    return plan_step(spec, num_layers, rng).positions


class TestSpecValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            IntermediateLossSpec(variant="sideways")

    def test_weight_range(self):
        with pytest.raises(ValueError):
            IntermediateLossSpec(weight=1.5)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            IntermediateLossSpec(variant="multiple", count=0)


class TestResolvePositions:
    """The layer positions `plan_step` resolves a spec into."""

    def test_middle_twelve(self):
        assert positions(IntermediateLossSpec("middle"), 12) == (6,)

    def test_multiple_three_of_twentyfour(self):
        spec = IntermediateLossSpec("multiple", count=3)
        assert positions(spec, 24) == (6, 12, 18)

    def test_multiple_seven_of_fortyeight(self):
        spec = IntermediateLossSpec("multiple", count=7)
        assert positions(spec, 48) == (6, 12, 18, 24, 30, 36, 42)

    def test_multiple_one_equals_middle_for_all_depths(self):
        one = IntermediateLossSpec("multiple", count=1)
        middle = IntermediateLossSpec("middle")
        for num_layers in range(2, 60):
            assert positions(one, num_layers) == positions(middle, num_layers)

    def test_lower_default_quarter(self):
        assert positions(IntermediateLossSpec("lower"), 24) == (6,)

    def test_lower_explicit_position(self):
        spec = IntermediateLossSpec("lower", position=3)
        assert positions(spec, 12) == (3,)

    def test_random_draws_stay_in_upper_half(self):
        spec = IntermediateLossSpec("random")
        rng = np.random.default_rng(0)
        for num_layers in (2, 4, 12, 48):
            lo, hi = num_layers // 2, num_layers - 1
            draws = {positions(spec, num_layers, rng)[0] for _ in range(500)}
            assert min(draws) >= lo and max(draws) <= hi
            if num_layers >= 4:
                assert len(draws) > 1  # actually resamples

    def test_none_is_empty(self):
        assert positions(IntermediateLossSpec("none"), 12) == ()

    def test_out_of_range_position_rejected(self):
        with pytest.raises(ValueError):
            positions(IntermediateLossSpec("lower", position=12), 12)
        with pytest.raises(ValueError):
            positions(IntermediateLossSpec("lower", position=0), 12)

    def test_too_shallow_rejected(self):
        with pytest.raises(ValueError):
            positions(IntermediateLossSpec("middle"), 1)

    def test_random_needs_rng(self):
        for variant in ("random", "stochastic"):
            with pytest.raises(ValueError, match=f"{variant} variant needs an rng"):
                positions(IntermediateLossSpec(variant), 12)


class TestTotalLoss:
    """Each utterance's loss, read as row 0 of `stack_losses` on a one-row
    trace, under a plan from `plan_step`."""

    def setup_method(self):
        self.enc, self.heads = make_model()
        self.x = Tensor(np.random.default_rng(7).normal(size=(1, 6, 5)))
        self.labels = (1, 3)

    def trace(self):
        return self.enc.forward(self.x)

    def loss(self, trace, spec, rng=None):
        plan = plan_step(spec, len(trace.states), rng)
        (breakdown,) = stack_losses(trace, [self.labels], self.heads, plan)
        return breakdown

    def plain_ctc(self):
        return ctc_loss(take(self.heads.final(self.trace().final), 0), self.labels).item()

    def test_variant_none_bit_identical(self):
        bd = self.loss(self.trace(), IntermediateLossSpec("none"))
        assert bd.total.item() == self.plain_ctc()
        assert bd.ctc_intermediate == []

    def test_weight_zero_bit_identical(self):
        bd = self.loss(self.trace(), IntermediateLossSpec("middle", weight=0.0))
        assert bd.total.item() == self.plain_ctc()
        assert len(bd.ctc_intermediate) == 1  # still reported

    def test_middle_mix_recomputed_independently(self):
        spec = IntermediateLossSpec("middle", weight=0.3)
        trace = self.trace()
        bd = self.loss(trace, spec)
        final = ctc_loss(take(self.heads.final(trace.final), 0), self.labels).item()
        inter = ctc_loss(take(self.heads.intermediate(trace.states[1]), 0),
                         self.labels).item()
        assert bd.ctc_final == final
        assert bd.ctc_intermediate == [(2, inter)]
        assert bd.total.item() == pytest.approx(0.7 * final + 0.3 * inter, rel=1e-15)

    def test_multiple_averages_positions(self):
        spec = IntermediateLossSpec("multiple", weight=0.3, count=2)
        trace = self.trace()
        bd = self.loss(trace, spec)
        positions = [p for p, _ in bd.ctc_intermediate]
        assert positions == [1, 2]  # floor(k*4/3) for k=1,2
        mean_inter = np.mean([v for _, v in bd.ctc_intermediate])
        assert bd.total.item() == pytest.approx(
            0.7 * bd.ctc_final + 0.3 * mean_inter, rel=1e-12)

    def test_gradient_is_convex_combination(self):
        spec = IntermediateLossSpec("middle", weight=0.3)
        enc, heads = self.enc, self.heads

        g_total = grads_of(enc, heads, lambda: self.loss(enc.forward(self.x), spec).total)
        g_final = grads_of(enc, heads, lambda: ctc_loss(
            take(heads.final(enc.forward(self.x).final), 0), self.labels))
        g_inter = grads_of(enc, heads, lambda: ctc_loss(
            take(heads.intermediate(enc.forward(self.x).states[1]), 0),
            self.labels))

        for name in g_total:
            expect = 0.7 * g_final[name] + 0.3 * g_inter[name]
            # atol floors out float64 dust on parameters with ~zero gradient
            np.testing.assert_allclose(g_total[name], expect, rtol=1e-10, atol=1e-15)

    def test_stochastic_records_draw_and_selects_branch(self):
        spec = IntermediateLossSpec("stochastic", weight=0.3)
        trace = self.trace()
        seen = set()
        rng = np.random.default_rng(5)
        for _ in range(50):
            plan = plan_step(spec, len(trace.states), rng)
            (bd,) = stack_losses(trace, [self.labels], self.heads, plan)
            assert plan.branch in (0, 1)
            seen.add(plan.branch)
            expect = bd.ctc_intermediate[0][1] if plan.branch else bd.ctc_final
            assert bd.total.item() == expect
        assert seen == {0, 1}

    def test_stochastic_mean_matches_deterministic_mix(self):
        # Monte-Carlo: the stochastic objective equals the deterministic
        # weighted sum in expectation
        spec = IntermediateLossSpec("stochastic", weight=0.3)
        trace = self.trace()
        det = self.loss(trace, IntermediateLossSpec("middle", weight=0.3)).total.item()
        rng = np.random.default_rng(1234)
        draws = np.array([self.loss(trace, spec, rng).total.item() for _ in range(10000)])
        stderr = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - det) < 2 * stderr

    def test_plan_shares_draws_across_batch(self):
        spec = IntermediateLossSpec("random", weight=0.3)
        plan = plan_step(spec, 4, np.random.default_rng(9))
        assert isinstance(plan, ObjectivePlan)
        trace = self.trace()
        (a,) = stack_losses(trace, [self.labels], self.heads, plan)
        (b,) = stack_losses(trace, [self.labels], self.heads, plan)
        assert [p for p, _ in a.ctc_intermediate] == [p for p, _ in b.ctc_intermediate]

    def test_infeasible_target_propagates(self):
        short = Tensor(np.random.default_rng(8).normal(size=(1, 1, 5)))
        trace = self.enc.forward(short)
        spec = IntermediateLossSpec("middle")
        plan = plan_step(spec, 4)
        assert stack_losses(trace, [(1, 1)], self.heads, plan) == [None]
        with pytest.raises(InfeasibleTargetError):
            total_loss(trace, (1, 1), spec, self.heads, plan)

    def test_total_loss_is_row_zero_of_a_training_stack(self):
        # the loss `bench/run.py` differentiates is the one training takes:
        # one utterance's total_loss, against its row of a padded stack
        spec = IntermediateLossSpec("middle", weight=0.3)
        plan = plan_step(spec, 4)
        stack = np.zeros((2, 6, 5))
        stack[0] = self.x.data[0]
        stack[1, :4] = np.random.default_rng(9).normal(size=(4, 5))
        enc, heads = self.enc, self.heads
        alone, row = {}, {}

        def f_alone():
            alone["bd"] = total_loss(enc.forward(self.x), self.labels, spec, heads, plan)
            return alone["bd"].total

        def f_row():
            row["bd"] = stack_losses(enc.forward(Tensor(stack), lengths=[6, 4]),
                                     [self.labels, (2,)], heads, plan)[0]
            return row["bd"].total
        g_alone, g_row = grads_of(enc, heads, f_alone), grads_of(enc, heads, f_row)
        assert alone["bd"].total.item() == pytest.approx(row["bd"].total.item(), rel=1e-12)
        for name in g_alone:
            np.testing.assert_allclose(g_alone[name], g_row[name], rtol=1e-10, atol=1e-15)


class TestEvalDecode:
    def test_ignores_intermediate_heads(self):
        enc, _ = make_model()
        head = CTCHead.build(8, 3, np.random.default_rng(1))
        shared = CTCHeads(head, head)
        other = CTCHeads(head, CTCHead.build(8, 3, np.random.default_rng(2)))
        x = Tensor(np.random.default_rng(3).normal(size=(1, 7, 5)))
        trace = enc.forward(x)
        assert eval_decode(trace, shared) == eval_decode(trace, other)

    def test_matches_greedy_on_final_head(self):
        enc, heads = make_model()
        x = Tensor(np.random.default_rng(4).normal(size=(1, 5, 5)))
        trace = enc.forward(x)
        assert eval_decode(trace, heads) == greedy_decode(heads.final(trace.final).data)

    def test_golden_decode_frozen_model(self):
        # pinned once from a seeded build of this implementation
        enc, heads = make_model(num_layers=2, seed=2024, vocab=4)
        x = Tensor(np.random.default_rng(77).normal(size=(1, 12, 5)) * 2.0)
        got = eval_decode(enc.forward(x), heads)
        assert got == [GOLDEN_DECODE]


GOLDEN_DECODE = (4, 2, 4, 1, 2, 3, 4, 2, 4, 1)  # pinned from the seeded build
