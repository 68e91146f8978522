"""Training objectives composing final-layer CTC with intermediate CTC terms.

The deterministic variants mix the two losses as
(1 - w) * final + w * intermediate, where the intermediate term averages the
CTC losses read off one or more inner layers of the same forward pass.  The
stochastic variant instead picks one of the two losses per step with
probability w, which matches the deterministic mix in expectation.

`plan_step` resolves the variant once per step into the layer positions and
one weight per CTC loss, so each utterance's loss is the same weighted sum
whatever the variant: (1 - w, w/k, ..., w/k) for the deterministic ones, 1
on the drawn branch for the stochastic one and (1,) for none.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ctc import CTCHead, InfeasibleTargetError, ctc_loss, greedy_decode
from .encoder import LayerTrace
from .tensor import Tensor, record_op, take

VARIANTS = ("none", "middle", "lower", "multiple", "random", "stochastic")


@dataclass(frozen=True)
class IntermediateLossSpec:
    """Which intermediate representations get a CTC loss, and its weight."""

    variant: str = "middle"
    weight: float = 0.3
    count: int = 1          # number of sub-models for the multiple variant
    position: int | None = None  # explicit layer for the lower variant

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ObjectivePlan:
    """Per-step resolution of the spec, shared across a batch: concrete
    layer positions, the weight of the final loss and then of each
    position's, and the stochastic branch draw."""

    positions: tuple[int, ...]
    weights: tuple[float, ...]
    branch: int | None = None  # stochastic variant: 1 = intermediate, 0 = final


@dataclass
class LossBreakdown:
    total: Tensor
    ctc_final: float
    ctc_intermediate: list[tuple[int, float]]  # (layer position, loss)


def resolve_positions(spec: IntermediateLossSpec, num_layers: int,
                      rng: np.random.Generator | None = None) -> list[int]:
    """Layer indices (1-based) whose representations receive a CTC loss.

    middle -> floor(L/2); lower -> the configured position (default
    floor(L/4)); multiple -> floor(k*L/(count+1)) for k=1..count; random ->
    one index drawn uniformly from [floor(L/2), L-1], fresh per step;
    stochastic -> floor(L/2).
    """
    if spec.variant == "none":
        return []
    if num_layers < 2:
        raise ValueError("intermediate losses need at least 2 layers")
    if spec.variant in ("middle", "stochastic"):
        positions = [num_layers // 2]
    elif spec.variant == "lower":
        positions = [spec.position if spec.position is not None else num_layers // 4]
    elif spec.variant == "multiple":
        positions = [(k * num_layers) // (spec.count + 1)
                     for k in range(1, spec.count + 1)]
    else:  # random
        if rng is None:
            raise ValueError("random variant needs an rng")
        positions = [int(rng.integers(num_layers // 2, num_layers))]
    bad = [p for p in positions if not 1 <= p <= num_layers - 1]
    if bad:
        raise ValueError(
            f"intermediate positions {bad} outside [1, {num_layers - 1}]")
    return positions


def plan_step(spec: IntermediateLossSpec, num_layers: int,
              rng: np.random.Generator | None = None) -> ObjectivePlan:
    """Draw the per-step randomness once so a whole batch shares it, and
    weigh each CTC loss of the step."""
    positions = tuple(resolve_positions(spec, num_layers, rng))
    if spec.variant == "none":
        return ObjectivePlan(positions, (1.0,))
    if spec.variant == "stochastic":
        if rng is None:
            raise ValueError("stochastic variant needs an rng")
        branch = int(rng.random() < spec.weight)
        return ObjectivePlan(positions, (1.0 - branch, float(branch)), branch)
    share = spec.weight / len(positions)
    return ObjectivePlan(positions, (1.0 - spec.weight,) + (share,) * len(positions))


@dataclass
class CTCHeads:
    """Output heads for the final and intermediate representations; by
    default one shared projection serves both."""

    final: CTCHead
    intermediate: CTCHead

    @classmethod
    def shared(cls, head: CTCHead) -> "CTCHeads":
        return cls(head, head)

    @property
    def is_shared(self) -> bool:
        return self.intermediate is self.final

    def parameters(self) -> dict[str, Tensor]:
        if self.is_shared:
            return {f"head.{k}": v for k, v in self.final.parameters().items()}
        named = {f"head_final.{k}": v for k, v in self.final.parameters().items()}
        named.update({f"head_inter.{k}": v
                      for k, v in self.intermediate.parameters().items()})
        return named


def total_loss(trace: LayerTrace, labels: Sequence[int],
               spec: IntermediateLossSpec, heads: CTCHeads,
               rng: np.random.Generator | None = None,
               plan: ObjectivePlan | None = None) -> LossBreakdown:
    """Compose the training loss for one utterance from its (T, D) trace.

    With variant none (or weight 0 and no stochastic draw) the result is
    bit-identical to the plain final-layer CTC loss.  Pass a precomputed
    `plan` to share one step's draws across a batch; otherwise the rng is
    consumed here.
    """
    if plan is None:
        plan = plan_step(spec, trace.num_layers, rng)
    return _mix(heads.final(trace.final),
                [(pos, heads.intermediate(trace.states[pos - 1])) for pos in plan.positions],
                labels, plan)


def stack_losses(trace: LayerTrace, lengths: Sequence[int],
                 labels: Sequence[Sequence[int]], heads: CTCHeads,
                 plan: ObjectivePlan) -> list[LossBreakdown | None]:
    """The `total_loss` of each utterance of a padded (B, T, D) trace, whose
    rows are `lengths` frames long, or None for an utterance whose target
    its frames cannot carry.

    Each head runs once over the whole stack; each utterance's grid is then
    its own (T_b, V+1) rows, so every CTC call sees the unpadded grid.
    """
    final = heads.final(trace.final)
    inter = [(pos, heads.intermediate(trace.states[pos - 1])) for pos in plan.positions]
    losses: list[LossBreakdown | None] = []
    for row, (length, target) in enumerate(zip(lengths, labels)):
        frames = (row, slice(length))
        try:
            losses.append(_mix(take(final, frames),
                               [(pos, take(grid, frames)) for pos, grid in inter],
                               target, plan))
        except InfeasibleTargetError:
            losses.append(None)
    return losses


def _mix(final_grid: Tensor, inter_grids: list[tuple[int, Tensor]], labels: Sequence[int],
         plan: ObjectivePlan) -> LossBreakdown:
    """One utterance's loss from its final grid and its grid at each
    intermediate position: the plan's weighted sum of their CTC losses, one
    tape entry over the losses whose weight is not zero.  Every grid's loss
    is computed, so the breakdown reports each."""
    losses = [ctc_loss(grid, labels) for grid in [final_grid] + [g for _, g in inter_grids]]
    terms = [(w, loss) for w, loss in zip(plan.weights, losses) if w]
    total = record_op(sum(w * loss.data for w, loss in terms), [loss for _, loss in terms],
                      lambda g: [g * w for w, _ in terms])
    return LossBreakdown(total, losses[0].item(),
                         [(pos, loss.item()) for (pos, _), loss in zip(inter_grids, losses[1:])])


def eval_decode(trace: LayerTrace, heads: CTCHeads) -> list[tuple[int, ...]]:
    """Greedy decode of each utterance in a (T, D) or (B, T, D) trace, from
    the final representation only; intermediate heads play no part at test
    time."""
    log_post = heads.final(trace.final).data
    return greedy_decode(log_post.reshape(-1, *log_post.shape[-2:]))
