"""Edit-distance error rates for token sequences (micro-averaged).

The distance is the bit-parallel recurrence of Myers (J. ACM 1999) in
Hyyrö's form for the Levenshtein distance (2001): each column of the DP
table is held as two bit vectors of its vertical +1 and -1 differences,
Python ints as wide as the reference, and one token of the hypothesis
advances the whole column in a few integer operations."""
from __future__ import annotations

from typing import Hashable, Sequence


def edit_distance(ref: Sequence[Hashable], hyp: Sequence[Hashable]) -> int:
    """Minimal unit-cost edit distance (substitution, insertion, deletion),
    exact at any length.  Tokens must be hashable: the reference's are
    looked up by hash, then by equality."""
    if not ref:
        return len(hyp)
    match: dict = {}
    for i, r in enumerate(ref):
        match[r] = match.get(r, 0) | 1 << i
    mask = (1 << len(ref)) - 1
    last = 1 << (len(ref) - 1)
    plus, minus, dist = mask, 0, len(ref)  # column 0: D[i][0] = i
    for h in hyp:
        eq = match.get(h, 0)
        xv = eq | minus
        xh = (((eq & plus) + plus) ^ plus) | eq
        hplus = (minus | ~(xh | plus)) & mask
        hminus = plus & xh
        if hplus & last:
            dist += 1
        elif hminus & last:
            dist -= 1
        hplus = hplus << 1 | 1  # row 0: D[0][j] = j, so each step is +1
        hminus <<= 1
        plus = (hminus | ~(xv | hplus)) & mask
        minus = hplus & xv
    return dist


def corpus_rate(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Total edit distance over total reference length across (ref, hyp)
    pairs; the denominator is floored at 1."""
    if not pairs:
        raise ValueError("corpus_rate of an empty corpus")
    total_dist = sum(edit_distance(ref, hyp) for ref, hyp in pairs)
    total_ref = sum(len(ref) for ref, _ in pairs)
    return total_dist / max(1, total_ref)
