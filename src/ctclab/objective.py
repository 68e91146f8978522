"""Training objectives composing final-layer CTC with intermediate CTC terms.

The deterministic variants mix the two losses as
(1 - w) * final + w * intermediate, where the intermediate term averages the
CTC losses read off one or more inner layers of the same forward pass.  The
stochastic variant instead picks one of the two losses per step with
probability w, which matches the deterministic mix in expectation.

`plan_step` is the only reader of a variant: once per step it resolves the
spec into the layer positions and one weight per CTC loss, so each
utterance's loss is the same `weighted_total` whatever the variant:
(1 - w, w/k, ..., w/k) for the deterministic ones, 1 on the drawn branch
for the stochastic one and (1,) for none.
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


def plan_step(spec: IntermediateLossSpec, num_layers: int,
              rng: np.random.Generator | None = None) -> ObjectivePlan:
    """Draw the per-step randomness once so a whole batch shares it, and
    weigh each CTC loss of the step.

    Positions are 1-based layer indices: multiple -> floor(k*L/(count+1))
    for k=1..count, and middle and stochastic are multiple with one
    sub-model, floor(L/2); lower -> the configured position (default
    floor(L/4)); random -> one index drawn uniformly from [floor(L/2),
    L-1], fresh per step.
    """
    if spec.variant == "none":
        return ObjectivePlan((), (1.0,))
    if num_layers < 2:
        raise ValueError("intermediate losses need at least 2 layers")
    if spec.variant in ("random", "stochastic") and rng is None:
        raise ValueError(f"{spec.variant} variant needs an rng")
    count = spec.count if spec.variant == "multiple" else 1
    if spec.variant == "lower":
        positions = (spec.position if spec.position is not None else num_layers // 4,)
    elif spec.variant == "random":
        positions = (int(rng.integers(num_layers // 2, num_layers)),)
    else:
        positions = tuple((k * num_layers) // (count + 1) for k in range(1, count + 1))
    bad = [p for p in positions if not 1 <= p <= num_layers - 1]
    if bad:
        raise ValueError(
            f"intermediate positions {bad} outside [1, {num_layers - 1}]")
    if spec.variant == "stochastic":
        branch = int(rng.random() < spec.weight)
        return ObjectivePlan(positions, (1.0 - branch, float(branch)), branch)
    share = spec.weight / count
    return ObjectivePlan(positions, (1.0 - spec.weight,) + (share,) * count)


def weighted_total(terms: Sequence[tuple[float, Tensor]]) -> Tensor:
    """The sum of w * loss over `terms`, (weight, scalar loss) pairs, as one
    tape entry whose backward gives each loss g * w."""
    terms = tuple(terms)
    return record_op(sum(w * loss.data for w, loss in terms), [loss for _, loss in terms],
                     lambda g: [g * w for w, _ in terms])


@dataclass
class CTCHeads:
    """Output heads for the final and intermediate representations.  By
    default one projection serves both: a shared head is the same `CTCHead`
    twice, `CTCHeads(head, head)`, and its parameters are named once."""

    final: CTCHead
    intermediate: CTCHead

    def parameters(self) -> dict[str, Tensor]:
        if self.intermediate is self.final:
            return {f"head.{k}": v for k, v in self.final.parameters().items()}
        named = {f"head_final.{k}": v for k, v in self.final.parameters().items()}
        named.update({f"head_inter.{k}": v
                      for k, v in self.intermediate.parameters().items()})
        return named


def stack_losses(trace: LayerTrace, labels: Sequence[Sequence[int]], heads: CTCHeads,
                 plan: ObjectivePlan) -> list[LossBreakdown | None]:
    """The training loss of each utterance of a padded (B, T, D) trace,
    whose rows are `trace.lengths` frames long, or None for an utterance
    whose target its frames cannot carry.

    Each head runs once over the whole stack; each utterance's grid is then
    its own (T_b, V+1) rows, so every CTC call sees the unpadded grid.  An
    utterance's loss is the plan's weighted sum of its final and
    intermediate CTC losses, one tape entry over the losses whose weight is
    not zero.  Every grid's loss is computed, so the breakdown reports each.
    """
    grids = [heads.final(trace.final)]
    grids += [heads.intermediate(trace.states[pos - 1]) for pos in plan.positions]
    breakdowns: list[LossBreakdown | None] = []
    for row, (length, target) in enumerate(zip(trace.lengths, labels)):
        parts = [take(grid, (row, slice(length))) for grid in grids]
        try:
            losses = [ctc_loss(part, target) for part in parts]
        except InfeasibleTargetError:
            breakdowns.append(None)
            continue
        total = weighted_total((w, loss) for w, loss in zip(plan.weights, losses) if w)
        breakdowns.append(LossBreakdown(total, losses[0].item(),
                                        [(pos, loss.item()) for pos, loss
                                         in zip(plan.positions, losses[1:])]))
    return breakdowns


def total_loss(trace: LayerTrace, labels: Sequence[int], spec: IntermediateLossSpec,
               heads: CTCHeads, plan: ObjectivePlan) -> LossBreakdown:
    """The loss of the utterance of a one-row trace: row 0 of `stack_losses`,
    or InfeasibleTargetError where its frames cannot carry `labels`.  The
    program does not call it, and `spec` is unused (`plan` carries it): it
    is kept for `bench/run.py`'s directional gradient check."""
    (breakdown,) = stack_losses(trace, [labels], heads, plan)
    if breakdown is None:
        raise InfeasibleTargetError(f"{trace.lengths[0]} frames cannot carry {labels}")
    return breakdown


def eval_decode(trace: LayerTrace, heads: CTCHeads) -> list[tuple[int, ...]]:
    """Greedy decode of each utterance in a (B, T, D) trace, from the final
    representation only; intermediate heads play no part at test time."""
    return greedy_decode(heads.final(trace.final).data)
