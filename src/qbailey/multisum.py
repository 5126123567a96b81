"""Depth-first evaluation of nested q-multisums with quadratic pruning.

A ``MultisumSpec`` describes a sum over chains s_1 >= s_2 >= ... >= s_r >=
lower_bound (optionally with a cap on the innermost index, e.g. where a
q-binomial support truncates the chain).  ``level_floor(d, s)`` must be a
certified lower bound on the contribution of s_d = s to the valuation of the
full term, so that val(term(s_1..s_r)) >= sum_d level_floor(d, s_d).  The
enumerator prunes a branch the moment the accumulated floor plus the best
possible completion reaches the cutoff, and extends the unbounded outermost
index until its floor is past its vertex and out of range.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import CertificateViolation, TruncationUnreachable
from .series import INF, Series


@dataclass
class MultisumSpec:
    depth: int
    lower_bound: int
    term: object          # (chain tuple, cutoff) -> Series
    level_floor: object   # (d, s) -> halves, certified lower bound
    last_upper: int | None = None

    def val_floor(self, chain):
        return sum(self.level_floor(d + 1, s) for d, s in enumerate(chain))


def multisum_eval(spec: MultisumSpec, cutoff) -> Series:
    """Exact sum of all chains whose valuation floor lies below the cutoff."""
    r = spec.depth
    lb = spec.lower_bound
    span = 2 * isqrt(max(int(cutoff), 1)) + abs(lb) + 12
    # gmin[d]: least possible total floor of levels d..r
    gmin = [0] * (r + 2)
    for d in range(r, 0, -1):
        lo = min(spec.level_floor(d, s) for s in range(lb, lb + span + 1))
        gmin[d] = min(lo, 0) + gmin[d + 1] if lo != INF else gmin[d + 1]

    out = Series.zero(cutoff)
    chain = []
    added = 0

    def emit():
        nonlocal out, added
        t = spec.term(tuple(chain), cutoff)
        floor = spec.val_floor(chain)
        if t.terms and min(t.terms) < floor:
            raise CertificateViolation(
                f"multisum floor {floor} exceeds term valuation {t.val()} at {tuple(chain)}")
        out = out + t
        added += 1

    def rec(d, prev, acc):
        if d > r:
            emit()
            return
        if d == 1:
            cap_hi = spec.last_upper if r == 1 else None
            s = lb
            steps = 0
            while cap_hi is None or s <= cap_hi:
                steps += 1
                if steps > 10 * (cutoff + span) + 1000:
                    raise TruncationUnreachable("outermost multisum index did not close")
                fl = spec.level_floor(1, s)
                if acc + fl + gmin[2] < cutoff:
                    chain.append(s)
                    rec(2, s, acc + fl)
                    chain.pop()
                elif s > lb and fl >= spec.level_floor(1, s - 1):
                    break
                s += 1
            return
        hi = prev
        if d == r and spec.last_upper is not None:
            hi = min(hi, spec.last_upper)
        for s in range(lb, hi + 1):
            fl = spec.level_floor(d, s)
            if acc + fl + gmin[d + 1] >= cutoff:
                continue
            chain.append(s)
            rec(d + 1, s, acc + fl)
            chain.pop()

    rec(1, None, 0)
    if added == 0:
        return Series.zero(cutoff)
    return out.truncate(cutoff)
