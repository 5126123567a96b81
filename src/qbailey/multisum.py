"""Nested q-multisums as seeded kernel passes down the chain tree.

A ``MultisumSpec`` describes a sum over chains s_1 >= s_2 >= ... >= s_r >=
lower_bound (optionally with a cap ``last_upper`` on the innermost index,
e.g. where a q-binomial support truncates the chain) as per-level data.
``level(d, prev, s)`` is the ``FactorProduct`` of what level d contributes
when s_{d-1} = prev (None at d = 1) and s_d = s: its q-power, the link
(Q;Q)_{prev-s}, and any factor or series that depends on the pair.  An
optional ``seed`` sequence (a Bailey pair's beta) multiplies the last level
by seed(s_r, c).  ``level_floor(d, s)`` must be a certified lower bound on
the contribution of s_d = s to the valuation of the full term, so that
val(term(s_1..s_r)) >= sum_d level_floor(d, s_d).

The walk is depth first.  It prunes a branch the moment the accumulated
floor plus the best possible completion (``gmin``) reaches the cutoff, and
extends the unbounded outermost index until its floor is past its vertex
and out of range.  Each node carries the kernel's own state, a
``qfunctions.PartialProduct``: one dense int list over a common
denominator, with its scalar, shift and length, for the product of the
levels chosen so far.  Level d applies only its own factors to a copy of
its parent's list, cut to cutoff - (floors of levels 1..d) - gmin[d+1]
entries, the most that its completions can still bring below the cutoff.
The siblings of a node share one running product: from s_d to the next
s_d the level's factors change by a few (one more link factor, one less),
so the running list is updated by that quotient and each sibling cuts its
own list from it.

A factor (1 - c x^h) with h != 0 is a unit, so applying it, or dividing it
back out, level by level is exact.  Only (1 - x^0) factors need the
multiset cancellation, so the walk carries their net count: positive at a
leaf means the term is zero, negative raises ``PoleError``.  Cutoffs follow
the kernel's algebra: if ``gmin`` overestimates a minimum, the lists it
sizes leave their leaves exact below less than the cutoff, and the sum
reports the shorter cutoff instead of a wrong coefficient.  (The pruning
itself still trusts ``gmin``, a minimum over a sampled window.)

Each emitted chain goes through the hook ``term(chain, leaf)``, whose
result the walk adds to one ``qfunctions.DenseSum``: the leaves' lists go
to one common denominator with one integer multiply per entry, and each
coefficient of the sum is reduced once, at the end.  No leaf is built as a
``Series``.  The default hook, ``checked_leaf``, returns the ``Leaf`` itself
once none of its entries lies below the chain's floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import isqrt

from .errors import CertificateViolation, TruncationUnreachable
from .qfunctions import DenseSum, PartialProduct
from .series import INF, Series


@dataclass
class Leaf:
    """An emitted chain's partial product, exact below ``cutoff``, and the
    chain's floor.  ``terms`` builds the chain's series terms; the walk
    itself never reads them."""
    part: PartialProduct
    cutoff: object
    floor: object

    @property
    def terms(self):
        return self.part.series(self.cutoff).terms


def checked_leaf(chain, leaf: Leaf) -> Leaf:
    """The leaf, once no coefficient below its cutoff lies below the chain's
    floor; raises CertificateViolation otherwise (and PoleError on a pole)."""
    part = leaf.part
    if part.live():
        below = islice(part.a, max(0, min(leaf.floor, leaf.cutoff) - part.shift))
        low = next((e for e, x in enumerate(below) if x), None)
        if low is not None:
            raise CertificateViolation(f"multisum floor {leaf.floor} exceeds term "
                                       f"valuation {part.shift + low} at {chain}")
    return leaf


@dataclass
class MultisumSpec:
    depth: int
    lower_bound: int
    level: object         # (d, prev, s) -> FactorProduct of level d's own factors
    level_floor: object   # (d, s) -> halves, certified lower bound
    last_upper: int | None = None
    seed: object = None   # sequence: seed(s, c) exact below c, seed.val_bound(s)
    term: object = checked_leaf  # (chain, Leaf) -> Leaf, the emission hook

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

    total = DenseSum(cutoff)
    chain = []

    def visit(d, prev, sibs, parent):
        """Level d at each (s, acc) of ``sibs``, ascending in s; acc includes
        level d's floor.  One running product carries parent * level(d, prev, s)
        from sibling to sibling, where it changes by a few factors, with
        as many entries as any later sibling needs; each sibling cuts its
        own list from it."""
        needs = [cutoff - acc - gmin[d + 1] for _, acc in sibs]
        keep = list(accumulate(reversed(needs), max))[::-1]
        run = PartialProduct.one(keep[0]) if parent is None else parent
        last = None
        seed = spec.seed if d == r else None
        for (s, acc), n, k in zip(sibs, needs, keep):
            chain.append(s)
            fp = spec.level(d, prev, s)
            if not fp.annihilated:
                run, last = run.times_ratio(fp, last, k), fp
            vb = 0 if seed is None else seed.val_bound(s)
            part = (PartialProduct(None) if fp.annihilated
                    else run.times_rest(fp, n, cutoff - vb if d == r else INF))
            if d < r:
                rec(d + 1, s, acc, part)
            else:
                emit(s, part, vb)
            chain.pop()

    def emit(s, part, vb):
        seed = spec.seed
        if seed is not None and part.a is not None and part.zeros <= 0:
            # as in FactorProduct.series_times: when the floors reach the
            # cutoff nothing is built (and a pole is not raised)
            if part.shift + vb >= cutoff:
                part = PartialProduct(None)
            elif not part.zeros:
                part = part.times_series(seed(s, cutoff - part.shift), cutoff)
        cut = cutoff if part.a is None else min(cutoff, part.shift + len(part.a))
        leaf = spec.term(tuple(chain), Leaf(part, cut, spec.val_floor(chain)))
        total.add(leaf.part, leaf.cutoff)

    def rec(d, prev, acc, parent):
        sibs = []
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
                    sibs.append((s, acc + fl))
                elif s > lb and fl >= spec.level_floor(1, s - 1):
                    break
                s += 1
        else:
            hi = prev
            if d == r and spec.last_upper is not None:
                hi = min(hi, spec.last_upper)
            for s in range(lb, hi + 1):
                fl = spec.level_floor(d, s)
                if acc + fl + gmin[d + 1] < cutoff:
                    sibs.append((s, acc + fl))
        if sibs:
            visit(d, prev, sibs, parent)

    rec(1, None, 0, None)
    return total.series()
