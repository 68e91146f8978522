"""Edit-distance error rates for token sequences (micro-averaged)."""
from __future__ import annotations

from typing import Sequence


def edit_distance(ref: Sequence, hyp: Sequence) -> int:
    """Minimal unit-cost edit distance (substitution, insertion, deletion),
    computed over one rolling row of the DP table."""
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        diag, row[0] = row[0], i
        for j, h in enumerate(hyp, start=1):
            diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, diag + (r != h))
    return row[-1]


def corpus_rate(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Total edit distance over total reference length across (ref, hyp)
    pairs; the denominator is floored at 1."""
    if not pairs:
        raise ValueError("corpus_rate of an empty corpus")
    total_dist = sum(edit_distance(ref, hyp) for ref, hyp in pairs)
    total_ref = sum(len(ref) for ref, _ in pairs)
    return total_dist / max(1, total_ref)
