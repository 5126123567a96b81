"""Nested q-multisums evaluated level by level, one kernel pass per edge.

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

The evaluator derives its floors from the same code.  ``level_floor(d, s)``
is the valuation of level(d, s), plus the exact minimum of the valuation of
link(d + 1, k) over 0 <= k <= s - lower_bound, plus seed.val_bound(s) at
d = r, so that val(term(s_1..s_r)) >= sum_d level_floor(d, s_d).  The floors
and the link minima are memoised per spec, the minima extended incrementally
as s grows.  A (1 - x^0) factor counts as a unit in a floor, because those
factors are carried as a count (below).  A spec may still name its own
``level_floor``: a tracer wraps the derived one that way.

Each level is one Bailey-lemma step, so the sum under a node (d, s_d)
depends on s_d alone:

  G_r(t) = level(r, t) seed(t),
  G_d(t) = level(d, t) sum_{u <= t} link(d + 1, t - u) G_{d+1}(u),

and the multisum is sum_t G_1(t).  A forward pass picks the nodes and edges:
level 1 runs from lower_bound until its floor is past its vertex and out of
range; P_d(t), the least floor of levels 1..d-1 over the prefixes that reach
t, is a suffix minimum over the parents; node (d, t) is kept iff
P_d(t) + level_floor(d, t) + gmin[d+1] < cutoff, and its edge to a child u
iff P_d(t) + level_floor(d, t) + level_floor(d+1, u) + gmin[d+2] < cutoff,
where ``gmin[d]`` is the least possible total floor of levels d..r (a
minimum over a sampled window).  G_d(t) is computed exact below
cutoff - P_d(t), which is all its prefixes need; since a child has
P_{d+1}(u) <= P_d(t) + val(level(d, t) link(d+1, t-u)), each child is exact
as far as its parent needs it.

The backward pass takes the kernel's steps (``qfunctions.PartialProduct``:
``times_ratio`` the finite factors, ``times_rest`` the infinite tails and the
series, ``times_series`` the seed) once per node and once per edge, never
per chain.  The deepest level's siblings share one running product of
level(r, t).  On each edge level, every child u carries one running product
link(d+1, t-u) G_{d+1}(u) along its parents t = u, u + 1, ..., changed by
the link's ratio and cut to the most entries a later parent needs, and adds
it into the parent's ``qfunctions.DenseSum``; level(d, t) is applied once to
that sum (``DenseSum.part``).

A factor (1 - c x^h) with h != 0 is a unit, so applying it, or dividing it
back out, is exact.  Only (1 - x^0) factors need the multiset cancellation,
so a node keeps its parts apart by their net count, one ``DenseSum`` each,
and counts are resolved at the root: a positive count makes the term zero,
a negative one raises ``PoleError``; a zero on one level still cancels a
pole on another.  If ``gmin`` overestimates a minimum, the lists it sizes
stop short and the sum reports the shorter cutoff, not a wrong coefficient.

Each node part goes once through the hook ``term((d, s), leaf)``, and the
evaluator goes on with the leaf it returns.  The default, ``checked_leaf``,
returns it once none of its entries lies below the node's subtree floor:
level_floor(d, s) plus the least subtree floor of its kept children.
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
    """One part of a node: the sum under the node with one net count of
    (1 - x^0) factors, exact below ``cutoff``, and the node's subtree floor.
    ``terms`` builds its series terms whatever the count; the evaluator
    itself never reads them."""
    part: PartialProduct
    cutoff: object
    floor: object

    @property
    def terms(self):
        return _uncounted(self.part).series(self.cutoff).terms


def _uncounted(part: PartialProduct) -> PartialProduct:
    """``part`` without its (1 - x^0) count, sharing its list."""
    return PartialProduct(part.a, part.D, part.top, part.scalar, part.shift)


def checked_leaf(node, leaf: Leaf) -> Leaf:
    """The leaf, once no coefficient below its cutoff lies below the node's
    floor, whatever its count; raises CertificateViolation otherwise."""
    part = leaf.part
    if part.a is not None:
        below = islice(part.a, max(0, min(leaf.floor, leaf.cutoff) - part.shift))
        low = next((e for e, x in enumerate(below) if x), None)
        if low is not None:
            raise CertificateViolation(f"multisum floor {leaf.floor} exceeds term "
                                       f"valuation {part.shift + low} at {node}")
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
    term: object = checked_leaf  # ((d, s), Leaf) -> Leaf, the node hook
    level_floor: object = None   # (d, s) -> halves; derived from the levels when None

    def __post_init__(self):
        if self.level_floor is None:
            self.level_floor = _derived_floor(self)


def _built(fn, d, x):
    """fn's factors at (d, x) as a FactorProduct, and their valuation with
    each (1 - x^0) counted as a unit."""
    fp, acc = FactorProduct(), Valuation()
    fn(fp, d, x)
    fn(acc, d, x)
    return fp, acc.v


def _suffix_max(needs):
    return list(accumulate(reversed(needs), max))[::-1]


def multisum_eval(spec: MultisumSpec, cutoff) -> Series:
    """Exact sum of all chains whose valuation floor lies below the cutoff."""
    r, lb, lf = spec.depth, spec.lower_bound, spec.level_floor
    span = 2 * isqrt(max(int(cutoff), 1)) + abs(lb) + 12
    # gmin[d]: least possible total floor of levels d..r
    gmin = [0] * (r + 2)
    for d in range(r, 0, -1):
        lo = min(lf(d, s) for s in range(lb, lb + span + 1))
        gmin[d] = min(lo, 0) + gmin[d + 1] if lo != INF else gmin[d + 1]

    # forward: kept[d] maps each kept s_d, ascending, to (P_d(s), level_floor(d, s))
    nodes = {}
    cap = spec.last_upper if r == 1 else None
    s = lb
    while cap is None or s <= cap:
        if s - lb >= 10 * (cutoff + span) + 1000:
            raise TruncationUnreachable("outermost multisum index did not close")
        fl = lf(1, s)
        if fl + gmin[2] < cutoff:
            nodes[s] = (0, fl)
        elif s > lb and fl >= lf(1, s - 1):
            break
        s += 1
    kept = [None, nodes]
    for d in range(2, r + 1):
        parents = list(kept[-1].items())
        hi = parents[-1][0] if parents else lb - 1
        if d == r and spec.last_upper is not None:
            hi = min(hi, spec.last_upper)
        nodes, best = {}, INF
        for u in range(hi, lb - 1, -1):
            while parents and parents[-1][0] >= u:
                _, (p, fl) = parents.pop()
                best = min(best, p + fl)
            fl = lf(d, u)
            if best + fl + gmin[d + 1] < cutoff:
                nodes[u] = (best, fl)
        kept.append(dict(reversed(nodes.items())))

    def node(d, t, parts, c, floor):
        """Node (d, t): the hook's leaves of its nonempty parts, exact below
        c, and its subtree floor."""
        return [spec.term((d, t), Leaf(part, part.exact_below(c), floor))
                for part in parts if part.a], floor

    # the deepest level: the siblings share one running product of level(r, t)
    below, seed = {}, spec.seed
    needs = [cutoff - p - fl for p, fl in kept[r].values()]
    run, last = PartialProduct.of(Series.one(), max(needs, default=0)), None
    for (t, (p, fl)), n, k in zip(kept[r].items(), needs, _suffix_max(needs)):
        fp, _ = _built(spec.level, r, t)
        if fp.annihilated:
            continue
        run, last = run.times_ratio(fp, last, k), fp
        vb = 0 if seed is None else seed.val_bound(t)
        part = run.times_rest(fp, n, cutoff - p - vb)
        if seed is not None and part.a:  # then part.shift + vb < cutoff - p
            part = part.times_series(seed(t, cutoff - p - part.shift), cutoff - p)
        below[t] = node(r, t, [part], cutoff - p, fl)

    # each edge level: every child u carries one running product along its parents t
    for d in range(r - 1, 0, -1):
        parents = kept[d]
        link = [_built(spec.link, d + 1, k) for k in range(max(parents, default=lb) - lb + 1)]
        level = {t: _built(spec.level, d, t) for t in parents}
        room = {t: cutoff - p - level[t][1] for t, (p, _) in parents.items()}
        sums = {t: {} for t in parents}  # per count, the DenseSum of link * G_{d+1}
        sub = dict.fromkeys(parents, INF)  # least subtree floor of the kept children
        for u, (leaves, floor) in below.items():
            edge = kept[d + 1][u][1] + gmin[d + 2]
            ts = [t for t, (p, fl) in parents.items() if t >= u and p + fl + edge < cutoff]
            for t in ts:
                sub[t] = min(sub[t], floor)
            for leaf in leaves:
                run, last = leaf.part, None
                needs = [room[t] - run.shift - link[t - u][1] for t in ts]
                for t, n, k in zip(ts, needs, _suffix_max(needs)):
                    fp = link[t - u][0]
                    if fp.annihilated:
                        continue
                    run, last = run.times_ratio(fp, last, k), fp
                    part = run.times_rest(fp, n)
                    if part.a:
                        got = sums[t].setdefault(part.zeros, DenseSum(room[t]))
                        got.add(_uncounted(part), part.exact_below(room[t]))
        below = {}
        for t, (p, fl) in parents.items():
            fp, parts = level[t][0], []
            for z, got in sums[t].items():
                if got.a:
                    base = got.part(z)
                    n = len(base.a)
                    parts.append(base.times_ratio(fp, None, n).times_rest(fp, n))
            below[t] = node(d, t, parts, cutoff - p, fl + sub[t])

    # the root: a positive count is a zero term, a negative one a pole
    total = DenseSum(cutoff)
    for leaves, _ in below.values():
        for leaf in leaves:
            total.add(leaf.part, leaf.cutoff)
    return total.series()
