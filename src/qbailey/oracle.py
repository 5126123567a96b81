"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately unoptimized and shares no code with
``series.py``: dense coefficient arrays, schoolbook convolution, and a
partition-counting dynamic program.  Disagreement with the sparse engine
always indicates a bug, never a tolerance issue.

``sum_series`` adds engine ``Series`` in one dict; it is the tests'
reference for ``qfunctions.DenseSum``, through which the engine adds every
sum, and uses ``Series`` only to hold its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvertZero
from .series import Series

INF = float("inf")


@dataclass
class DenseSeries:
    """Contiguous coefficient array starting at ``offset`` (halves of q)."""

    offset: int
    coeffs: list
    cutoff: float = INF

    @staticmethod
    def from_terms(terms, cutoff=INF):
        if not terms:
            return DenseSeries(0, [], cutoff)
        lo = min(terms)
        hi = max(terms)
        coeffs = [terms.get(e, 0) for e in range(lo, hi + 1)]
        return DenseSeries(lo, coeffs, cutoff)

    def to_terms(self):
        return {self.offset + i: c for i, c in enumerate(self.coeffs) if c}


def sum_series(terms, cutoff=INF) -> Series:
    """The sum of the series ``terms``, exact below the least of ``cutoff``
    and their cutoffs."""
    out = {}
    for t in terms:
        cutoff = min(cutoff, t.cutoff)
        for e, c in t.terms.items():
            out[e] = out.get(e, 0) + c
    return Series(out, cutoff)


def dense_mul(a: DenseSeries, b: DenseSeries) -> DenseSeries:
    av = _val(a)
    bv = _val(b)
    cutoff = min(a.cutoff + bv, b.cutoff + av)
    out_offset = a.offset + b.offset
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb and out_offset + i + j < cutoff:
                out[i + j] += ca * cb
    d = DenseSeries(out_offset, out, cutoff)
    _strip(d)
    return d


def dense_invert(s: DenseSeries, cutoff=None) -> DenseSeries:
    av = _val(s)
    if av is None:
        raise InvertZero("dense inversion of zero")
    own = s.cutoff - 2 * av if s.cutoff != INF else INF
    target = own if cutoff is None else min(cutoff, own)
    if target == INF:
        raise InvertZero("dense inversion needs a finite cutoff")
    lead_index = av - s.offset
    lead = Fraction(s.coeffs[lead_index])
    n = int(target + av)  # output exponents run from -av to target-1
    out = [Fraction(0)] * max(n, 0)
    for i in range(len(out)):
        acc = Fraction(1) if i == 0 else Fraction(0)
        for k in range(1, i + 1):
            idx = lead_index + k
            if idx < len(s.coeffs) and s.coeffs[idx]:
                acc -= Fraction(s.coeffs[idx]) * out[i - k]
        out[i] = acc / lead
    d = DenseSeries(-av, out, target)
    _strip(d)
    return d


def _val(s: DenseSeries):
    for i, c in enumerate(s.coeffs):
        if c:
            return s.offset + i
    return None


def _strip(s: DenseSeries):
    coeffs = s.coeffs
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
        s.offset += 1


@dataclass(frozen=True)
class CongruenceSpec:
    """Partitions into parts not congruent to the excluded residues."""

    modulus: int
    excluded: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "excluded",
                           frozenset(r % self.modulus for r in self.excluded))

    def allowed_parts(self, limit):
        return [p for p in range(1, limit + 1) if p % self.modulus not in self.excluded]


def partition_gf(spec: CongruenceSpec, cutoff_halves: int) -> DenseSeries:
    """Generating function of the counted partitions, on the halves lattice.

    Classic bounded-knapsack DP over the allowed parts; exponents are doubled
    so the result lives on the same q^(1/2) lattice as the engine.
    """
    n_max = (cutoff_halves - 1) // 2 if cutoff_halves >= 1 else -1
    counts = [0] * (n_max + 1)
    if n_max >= 0:
        counts[0] = 1
        for p in spec.allowed_parts(n_max):
            for e in range(p, n_max + 1):
                counts[e] += counts[e - p]
    return DenseSeries.from_terms({2 * n: c for n, c in enumerate(counts) if c},
                                  cutoff_halves)
