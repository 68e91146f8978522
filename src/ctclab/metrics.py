"""Edit-distance error rates for token sequences (micro-averaged)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ErrorCounts:
    substitutions: int
    insertions: int
    deletions: int
    reference_length: int

    @property
    def distance(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        return self.distance / max(1, self.reference_length)


def edit_distance(ref: Sequence, hyp: Sequence) -> ErrorCounts:
    """Minimal unit-cost edit distance with a substitution/insertion/deletion
    breakdown.  On ties the backtrace prefers substitution over insertion
    over deletion, so counts are deterministic."""
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row, prev = dist[i], dist[i - 1]
        ri = ref[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ri != hyp[j - 1])
            ins = row[j - 1] + 1
            dele = prev[j] + 1
            row[j] = sub if sub <= ins and sub <= dele else min(ins, dele)

    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return ErrorCounts(subs, ins, dels, n)


def _distance(ref: Sequence, hyp: Sequence) -> int:
    """Unit-cost edit distance alone: one rolling row, no backtrace."""
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        diag, row[0] = row[0], i
        for j, h in enumerate(hyp, start=1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (r != h))
    return row[-1]


def corpus_rate(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Total edit distance over total reference length across (ref, hyp)
    pairs."""
    if not pairs:
        raise ValueError("corpus_rate of an empty corpus")
    total_dist = sum(_distance(ref, hyp) for ref, hyp in pairs)
    total_ref = sum(len(ref) for ref, _ in pairs)
    return total_dist / max(1, total_ref)
