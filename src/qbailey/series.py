"""Sparse truncated Laurent series in x = q^(1/2) over exact rationals.

Exponents are integers counting halves of q, so the monomial q^(h/2) is
stored under the key h.  A series carries an explicit ``cutoff``: its
coefficients are exact for every exponent strictly below the cutoff and
unspecified at or above it.  ``cutoff`` may be ``INF`` for series that are
known exactly everywhere (polynomials, monomials, exact zero).

All operations propagate the tightest provable cutoff instead of assuming
the operands share one.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvertZero, TruncationUnreachable

INF = float("inf")
_STREAK = 4  # consecutive skipped terms after which truncated_sum stops


def _norm(c):
    # Keep plain ints where possible; Fraction arithmetic is much slower.
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class Series:
    """Truncated Laurent series: dict of halves-exponent -> nonzero rational."""

    __slots__ = ("terms", "cutoff")

    def __init__(self, terms=None, cutoff=INF):
        t = {}
        if terms:
            for e, c in terms.items():
                if c and e < cutoff:
                    t[e] = _norm(c)
        self.terms = t
        self.cutoff = cutoff

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(cutoff=INF):
        return Series({}, cutoff)

    @staticmethod
    def one():
        return Series({0: 1})

    @staticmethod
    def monomial(coeff, halves=0, cutoff=INF):
        return Series({halves: coeff}, cutoff)

    # -- structure ----------------------------------------------------------

    def val(self):
        """Valuation: least exponent with a nonzero coefficient.

        For a series with no stored term this returns the cutoff (the series
        is provably O(x^cutoff)); an exact zero therefore reports INF.
        """
        return min(self.terms) if self.terms else self.cutoff

    def is_zero_below_cutoff(self):
        return not self.terms

    def coeff(self, halves):
        if halves >= self.cutoff:
            raise ValueError(f"coefficient at x^{halves} is beyond cutoff {self.cutoff}")
        return self.terms.get(halves, 0)

    def truncate(self, cutoff):
        if cutoff >= self.cutoff:
            return self
        return Series({e: c for e, c in self.terms.items() if e < cutoff}, cutoff)

    def scale_exponents(self, k):
        """Substitute q -> q^k by multiplying every exponent (and the cutoff) by k."""
        if k <= 0:
            raise ValueError("exponent scale must be a positive integer")
        return Series({e * k: c for e, c in self.terms.items()},
                      self.cutoff * k if self.cutoff != INF else INF)

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        s = Series.__new__(Series)
        s.terms = {e: -c for e, c in self.terms.items()}
        s.cutoff = self.cutoff
        return s

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.monomial(other)
        cutoff = min(self.cutoff, other.cutoff)
        out = {e: c for e, c in self.terms.items() if e < cutoff}
        for e, c in other.terms.items():
            if e >= cutoff:
                continue
            v = out.get(e, 0) + c
            if v:
                out[e] = _norm(v)
            else:
                out.pop(e, None)
        s = Series.__new__(Series)
        s.terms = out
        s.cutoff = cutoff
        return s

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.monomial(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Series.zero()
            s = Series.__new__(Series)
            s.terms = {e: _norm(c * other) for e, c in self.terms.items()}
            s.cutoff = self.cutoff
            return s
        # Product is exact below min(c1 + v2, c2 + v1): an unknown tail of one
        # factor first pollutes the product at its own cutoff plus the other
        # factor's valuation.
        cutoff = min(self.cutoff + other.val(), other.cutoff + self.val())
        if not self.terms or not other.terms:
            return Series.zero(cutoff)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        b_items = sorted(b.items())
        out = {}
        for e1, c1 in a.items():
            lim = cutoff - e1
            for e2, c2 in b_items:
                if e2 >= lim:
                    break
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        s = Series.__new__(Series)
        s.terms = {e: _norm(c) for e, c in out.items()}
        s.cutoff = cutoff
        return s

    __rmul__ = __mul__

    def times_monomial(self, coeff, halves):
        if not coeff:
            return Series.zero()
        s = Series.__new__(Series)
        s.terms = {e + halves: _norm(c * coeff) for e, c in self.terms.items()}
        s.cutoff = self.cutoff + halves
        return s

    def invert(self, cutoff=None):
        """Multiplicative inverse by long division.

        The result is exact below min(cutoff, self.cutoff - 2*val): the
        relative error O(x^(c-v)) of the input becomes O(x^(c-2v)) after
        dividing by a series of valuation v.  An exact non-monomial input
        needs an explicit cutoff since its inverse has infinitely many terms.
        """
        if not self.terms:
            raise InvertZero("no nonzero term below cutoff")
        v = self.val()
        own = self.cutoff - 2 * v if self.cutoff != INF else INF
        target = own if cutoff is None else min(cutoff, own)
        lead = self.terms[v]
        if len(self.terms) == 1:
            inv = _norm(Fraction(1, 1) / Fraction(lead))
            return Series({-v: inv}, target)
        if target == INF:
            raise InvertZero("inverse of a non-monomial exact series needs a cutoff")
        inv_lead = Fraction(1) / Fraction(lead)
        rest = sorted((e - v, c) for e, c in self.terms.items() if e != v)
        out = {}
        # out[e] for e in [-v, target): coefficient of the inverse.
        for e in range(-v, target):
            acc = 1 if e == -v else 0
            for d, c in rest:
                if d > e + v:
                    break
                prev = out.get(e - d)
                if prev:
                    acc -= c * prev
            if acc:
                out[e] = _norm(acc * inv_lead)
        s = Series.__new__(Series)
        s.terms = out
        s.cutoff = target
        return s

    # -- comparison / io ----------------------------------------------------

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e in sorted(self.terms):
                c = self.terms[e]
                if e == 0:
                    parts.append(f"{c}")
                else:
                    mono = "q" if e == 2 else (f"q^{e // 2}" if e % 2 == 0 else f"q^({e}/2)")
                    if c == 1:
                        parts.append(mono)
                    elif c == -1:
                        parts.append(f"-{mono}")
                    else:
                        parts.append(f"{c}*{mono}")
            body = " + ".join(parts).replace("+ -", "- ")
        cut = "inf" if self.cutoff == INF else str(self.cutoff)
        return f"<{body} ; O(x^{cut})>"

    def to_json(self):
        return {
            "cutoff_halves": "inf" if self.cutoff == INF else self.cutoff,
            "terms": [[e, str(Fraction(self.terms[e]))] for e in sorted(self.terms)],
        }

    @staticmethod
    def from_json(obj):
        cut = obj["cutoff_halves"]
        cutoff = INF if cut == "inf" else cut
        return Series({int(e): Fraction(c) for e, c in obj["terms"]}, cutoff)


def sum_series(terms, cutoff=INF) -> Series:
    """The sum of the series ``terms``, exact below the least of ``cutoff``
    and their cutoffs.

    The coefficients are added into one dict and normalised once, at the
    end, instead of copying a running sum for every term.
    """
    out = {}
    for t in terms:
        cutoff = min(cutoff, t.cutoff)
        for e, c in t.terms.items():
            out[e] = out.get(e, 0) + c
    return Series(out, cutoff)


def first_diff(a: Series, b: Series, upto=None):
    """First exponent below min(cutoffs, upto) where a and b differ.

    Returns (compared_order, None) when they agree, otherwise
    (compared_order, (halves, coeff_a, coeff_b)) at the smallest divergence.
    """
    bound = min(a.cutoff, b.cutoff)
    if upto is not None:
        bound = min(bound, upto)
    exps = sorted(e for e in set(a.terms) | set(b.terms) if e < bound)
    for e in exps:
        ca = a.terms.get(e, 0)
        cb = b.terms.get(e, 0)
        if ca != cb:
            return bound, (e, ca, cb)
    return bound, None


def series_equal(a: Series, b: Series, upto=None) -> bool:
    return first_diff(a, b, upto)[1] is None


def product_at(cutoff, parts):
    """Product of general series, exact below ``cutoff``.

    ``parts`` is a list of (build, val_bound) pairs where ``build(c)`` returns
    the series exact below c and ``val_bound`` is a certified lower bound on
    its valuation.  Each part is built at cutoff minus the other parts'
    total valuation bound, which is the loosest request that still makes the
    product exact below ``cutoff``.  When the bounds add up to the cutoff or
    more, the product is zero below it and nothing is built.  The engine
    multiplies a factor product into a series with
    ``FactorProduct.series_times``; this helper multiplies arbitrary series
    with ``Series.__mul__`` and serves as a reference for it.
    """
    total = sum(v for _, v in parts)
    if total >= cutoff:
        return Series.zero(cutoff)
    out = Series.one()
    for build, v in parts:
        out = out * build(cutoff - (total - v))
        if not out.terms and out.cutoff >= cutoff:
            break
    return out.truncate(cutoff)


def truncated_sum(start, step, last, at, cutoff, label):
    """Sum of the terms j = start, start + step, ... up to ``last`` inclusive.

    ``last`` may be INF or -INF.  ``at(j)`` returns ``(floor, build)``: a
    lower bound on the valuation of term j and a function of no arguments
    that builds the term.  A term whose floor reaches ``cutoff`` is skipped
    without being built.  A floor of None marks an index whose term is
    identically zero: it is stepped past and not counted as a skip.

    The stop rule is a heuristic, not a certificate: the sum ends after
    ``_STREAK`` consecutive skipped terms, so a later term whose floor dips
    below the cutoff again is lost.  More than 10 * max(cutoff, 1) + 200
    terms raise ``TruncationUnreachable(label)``.  The result is not
    truncated; each term carries its own cutoff.
    """
    terms = []
    cap = 10 * max(cutoff, 1) + 200
    streak = 0
    steps = 0
    j = start
    while (j <= last) if step > 0 else (j >= last):
        steps += 1
        if steps > cap:
            raise TruncationUnreachable(label)
        floor, build = at(j)
        if floor is None:
            pass
        elif floor >= cutoff:
            streak += 1
            if streak >= _STREAK:
                break
        else:
            streak = 0
            terms.append(build())
        j += step
    return sum_series(terms)
