"""Nested q-multisums as the kernel's steps, spread down the chain tree.

A ``MultisumSpec`` describes a sum over chains s_1 >= s_2 >= ... >= s_r >=
lower_bound (optionally with a cap ``last_upper`` on the innermost index,
e.g. where a q-binomial support truncates the chain) as per-level data, two
functions that each multiply an accumulator they are given by factors:

  level(acc, d, s)  level d's own factors in s = s_d: its q-power, its
                    insertions, and any factor or series indexed by the
                    level's value, including those a printed form indexes by
                    s_d on the next level down;
  link(acc, d, k)   level d's factors in k = s_{d-1} - s_d (d >= 2), such as
                    (Q;Q)_k or (a/(b b'))_k.

The term of a chain is the product of every level(d, s_d), every
link(d, s_{d-1} - s_d) and, when there is a ``seed`` sequence (a Bailey
pair's beta), seed(s_r, c).  The accumulators are ``qfunctions``'
``FactorProduct`` for the term and ``Valuation`` for the floors.

The walk derives its floors from the same code.  ``level_floor(d, s)`` is
the valuation of level(d, s), plus the exact minimum of the valuation of
link(d + 1, k) over 0 <= k <= s - lower_bound, plus seed.val_bound(s) at
d = r, so that val(term(s_1..s_r)) >= sum_d level_floor(d, s_d).  The floors
and the link minima are memoised per spec, the minima extended incrementally
as s grows.  A (1 - x^0) factor counts as a unit in a floor, because the
walk carries those factors as a count (below).  A spec may still name its
own ``level_floor``: a tracer wraps the derived one that way.

The walk is depth first.  It prunes a branch the moment the accumulated
floor plus the best possible completion (``gmin``) reaches the cutoff, and
extends the unbounded outermost index until its floor is past its vertex
and out of range.  Each node carries the kernel's own state, a
``qfunctions.PartialProduct``: one dense int list over a common
denominator, with its scalar, shift and length, for the product of the
levels chosen so far.  A term is expanded in the steps that
``FactorProduct.part`` takes for a single product -- ``PartialProduct.of``
lists 1, ``times_ratio`` applies the finite factors, ``times_rest`` the
infinite tails and the series, ``times_series`` the seed's value, and
``exact_below`` states the cutoff -- only spread over the levels.  Level d
applies only its own factors to a copy of its parent's list, cut to
cutoff - (floors of levels 1..d) - gmin[d+1] entries, the most that its
completions can still bring below the cutoff.  The siblings of a node share
one running product: from s_d to the next s_d the level's factors change by
a few (one more link factor, one less), so the running list is updated by
that quotient (``times_ratio`` of one level's product over the last) and
each sibling cuts its own list from it.

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
from .qfunctions import DenseSum, FactorProduct, PartialProduct, Valuation
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


def _derived_floor(spec):
    """``level_floor`` read off the spec's own ``level`` and ``link`` code by
    running it into ``Valuation`` accumulators, memoised."""
    level, link, r, lb, seed = spec.level, spec.link, spec.depth, spec.lower_bound, spec.seed
    floors = {}
    mins = [[] for _ in range(r + 1)]  # mins[d][k]: least val of link(d, k') over k' <= k

    def link_min(d, k):
        got = mins[d]
        while len(got) <= k:
            acc = Valuation()
            link(acc, d, len(got))
            got.append(min(acc.v, got[-1]) if got else acc.v)
        return got[k]

    def level_floor(d, s):
        got = floors.get((d, s))
        if got is None:
            acc = Valuation()
            level(acc, d, s)
            got = acc.v
            if d < r:
                got += link_min(d + 1, s - lb)
            elif seed is not None:
                got += seed.val_bound(s)
            floors[d, s] = got
        return got

    return level_floor


@dataclass
class MultisumSpec:
    depth: int
    lower_bound: int
    level: object         # (acc, d, s): times level d's own factors in s = s_d
    link: object          # (acc, d, k): times level d's factors in k = s_{d-1} - s_d
    last_upper: int | None = None
    seed: object = None   # sequence: seed(s, c) exact below c, seed.val_bound(s)
    term: object = checked_leaf  # (chain, Leaf) -> Leaf, the emission hook
    level_floor: object = None   # (d, s) -> halves; derived from the levels when None

    def __post_init__(self):
        if self.level_floor is None:
            self.level_floor = _derived_floor(self)

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
        level d's floor.  One running product carries parent * level(d, s) *
        link(d, prev - s) from sibling to sibling, where it changes by a few
        factors, with as many entries as any later sibling needs; each
        sibling cuts its own list from it."""
        needs = [cutoff - acc - gmin[d + 1] for _, acc in sibs]
        keep = list(accumulate(reversed(needs), max))[::-1]
        run = PartialProduct.of(Series.one(), keep[0]) if parent is None else parent
        last = None
        seed = spec.seed if d == r else None
        for (s, acc), n, k in zip(sibs, needs, keep):
            chain.append(s)
            fp = FactorProduct()  # level(d, s) * link(d, prev - s)
            spec.level(fp, d, s)
            if d > 1:
                spec.link(fp, d, prev - s)
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
            # as in FactorProduct.part_times: when the floors reach the
            # cutoff nothing is built (and a pole is not raised)
            if part.shift + vb >= cutoff:
                part = PartialProduct(None)
            elif not part.zeros:
                part = part.times_series(seed(s, cutoff - part.shift), cutoff)
        cut = part.exact_below(cutoff)
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
