"""q-Pochhammer symbols, q-binomials, symmetric polynomials, triple products.

Conventions:
  (a;q)_k   = prod_{j=0..k-1} (1 - a q^j)            for k >= 0
  (a;q)_k   = 1 / prod_{l=1..-k} (1 - a q^(-l))      for k < 0  (quotient form)
  (a;q)_oo  = prod_{j>=0} (1 - a q^j)

All bases are powers of the global half-integer lattice: ``base`` counts
halves, so base=2 is q itself, base=4 is q^2, base=8 is q^4.

Negative-index Pochhammers with a vanishing denominator factor are poles:
``poch`` raises, ``poch_recip`` maps them to the zero series (the convention
that makes bilateral Bailey sums truncate).

``FactorProduct`` assembles a monomial times a ratio of products of factors
(1 - c x^h) with exact multiset cancellation of identical factors.  The
paper's specializations (a = q^m, c^2 = aq, b^2 = a) produce removable 0/0
ratios everywhere; cancelling equal factors before expanding is what makes
them evaluable.  Infinite Pochhammers are factors like any other: their
nonpositive-exponent factors join the multisets (so a zero (q^-t;q)_oo, or a
(1 - q^0) it shares with the other side, is seen before expanding), and the
rest are listed only as far as the requested cutoff needs.

Every product of factors (1 - c x^h)^(+-1) -- finite, negative-index and
infinite Pochhammers, their reciprocals, the triple product and the terms of
a multisum -- is a ``FactorProduct``, multiplied out on one dense list of
Python ints over one common denominator, a ``PartialProduct``, in the same
steps wherever it is expanded:

  1. ``PartialProduct.of`` lists the seed (1, or the series the product
     multiplies: a sequence value, a symmetric polynomial) from its
     valuation, as far as the cutoff needs and its own cutoff allows;
  2. ``times_ratio`` applies the monomial and the finite factors of the
     cancelled multisets: ``_steps`` normalises them into a scalar, a
     shift, a count of (1 - x^0) factors and steps (1 - (p/d) x^h)^(+-1)
     with h > 0, and ``_apply`` applies the steps to the list in place,
     whatever the factors' rational coefficients;
  3. ``times_rest`` applies the infinite tails, listed only as far as the
     list reaches, and then each of the ``extras`` (bracket polynomials) by
     ``times_series``;
  4. ``exact_below`` states the cutoff below which the list is exact, and
     ``series`` reduces each coefficient to lowest terms once (``_build``).

``FactorProduct.part`` runs the steps once, on its seed.  The multisum
evaluator runs them once per node and once per edge of its level graph: each
level's factors are applied once to the sum of everything below the node,
``DenseSum.part`` (see ``multisum``).  ``DenseSum`` adds such lists, without
step 4's reduction, into one int list over one common denominator, one
integer multiply per entry, and reduces each coefficient of the sum once.

Every engine sum but the multisum's is a list of plans (fp, seq, k),
each meaning fp * seq(k), or fp alone when seq is None.  ``plans_floor`` reads a list's
valuation floor off its factor products and the sequences' certificates,
and ``sum_plans`` adds the list into one ``DenseSum``: the terms of a
transformed sequence, the finite-n sides, the base-change betas, the
lattice kernel f and the sums of triple products.  ``truncated_sum`` asks
for one plan list per index and cuts the sum off by those floors (the
Bailey relation and its inversion, j-sums and corollary sums).  Sparse
``Series`` multiplication stays for products of general series; the kernel
is checked against it, ``Series.invert`` and ``oracle.py``.

``Valuation`` takes the same ``times_*`` calls as a ``FactorProduct`` and
keeps only the valuation they give; ``poch_val`` and it share one
closed-form Pochhammer rule, ``_poch_rule``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add

from .errors import BadParam, InvertZero, NegativeN, PoleError, TruncationUnreachable
from .qparams import QParam
from .series import INF, Series

_ONE_MONO = (Fraction(1), 0)
_STREAK = 4  # consecutive skipped terms after which truncated_sum stops


def sign(k: int) -> int:
    """(-1)^k."""
    return 1 if k % 2 == 0 else -1


# ---------------------------------------------------------------------------
# the dense factor kernel
# ---------------------------------------------------------------------------

def _factor_val(mono):
    """Valuation of (1 - c x^h): h when h < 0, else 0 (the factor leads with 1)."""
    return min(0, mono[1])


def _steps(num, den, coeff=1, halves=0):
    """Normalise coeff * x^halves * prod(1 - c x^h) over ``num`` /
    prod(1 - c x^h) over ``den`` into (scalar, shift, steps, zeros).

    The product is scalar * x^shift * (1 - x^0)^zeros times the steps
    (p, d, h, inv): (1 - (p/d) x^h) with h > 0 and p/d in lowest terms,
    inverted when ``inv``.  A factor with h = 0 is a pure scalar, except
    (1 - x^0), which is only counted: a positive count makes the product
    zero, a negative one is a pole.  h < 0 gives -c x^h (1 - x^(-h)/c).
    """
    scalar = Fraction(coeff)
    shift = halves
    steps = []
    zeros = 0
    for monos, inv in ((num, False), (den, True)):
        for c, h in monos:
            if h > 0:
                steps.append((c.numerator, c.denominator, h, inv))
                continue
            if h == 0:
                if c == 1:
                    zeros += -1 if inv else 1
                    continue
                f = 1 - c
            else:
                f = -c
                shift += -h if inv else h
                p, d = c.numerator, c.denominator
                steps.append((d, p, -h, inv) if p > 0 else (-d, -p, -h, inv))
            scalar = scalar / f if inv else scalar * f
    return scalar, shift, steps, zeros


def _apply(a, D, top, steps):
    """Apply the steps in place to the ints a[0..n) over the common
    denominator D, where a[e] == 0 for every e > top; returns (D, top).

    A numerator step sets a[e] = d a[e] - p a[e-h] for descending e and
    D *= d.  A denominator step sets b[e] = d^floor(e/h) a[e] + p b[e-h] for
    ascending e, so that b[e] / d^floor(e/h) is the quotient's coefficient,
    then rescales every b[e] to d^floor((n-1)/h) and sets
    D *= d^floor((n-1)/h).  With d = 1 both are the plain a[e] -= p a[e-h]
    and a[e] += p a[e-h].  Entry e depends only on entries below it, so a
    list cut to n entries stays exact below n.
    """
    n = len(a)
    for p, d, h, inv in steps:
        if h >= n:
            continue
        if not inv:
            top = min(top + h, n - 1)
            if d == 1:
                for e in range(top, h - 1, -1):
                    x = a[e - h]
                    if x:
                        a[e] -= p * x
                continue
            for e in range(top, h - 1, -1):
                a[e] = d * a[e] - p * a[e - h]
            for e in range(min(h, top + 1)):
                a[e] *= d
            D *= d
            continue
        top = n - 1
        if d == 1:
            for e in range(h, n):
                x = a[e - h]
                if x:
                    a[e] += p * x
            continue
        w = 1  # d^floor(e/h) over the block [lo, lo + h)
        for lo in range(h, n, h):
            w *= d
            for e in range(lo, min(lo + h, n)):
                a[e] = w * a[e] + p * a[e - h]
        w = 1  # d^(floor((n-1)/h) - floor(e/h)), from the last block down
        for lo in range((n - 1) // h * h - h, -1, -h):
            w *= d
            for e in range(lo, lo + h):
                a[e] *= w
        D *= w
    return D, top


def _build(a, D, scalar, shift, cutoff) -> Series:
    """The series scalar / D * x^shift * sum a[e] x^e, exact below
    ``cutoff``; each coefficient is reduced once."""
    scalar /= D
    p, d = scalar.numerator, scalar.denominator
    if p == 1:
        terms = {e + shift: x for e, x in enumerate(a) if x}
    else:
        terms = {e + shift: x * p for e, x in enumerate(a) if x}
    if d != 1:
        for e, x in terms.items():
            x = Fraction(x, d)
            terms[e] = x.numerator if x.denominator == 1 else x
    out = Series.__new__(Series)  # the terms are already reduced
    out.terms = terms
    out.cutoff = cutoff
    return out


def _ints(s: Series, v, n):
    """The coefficients of s at x^(v + e), 0 <= e < n, as ints over their lcm:
    (list of (e, int), lcm)."""
    start = [(e - v, x) for e, x in s.terms.items() if e - v < n]
    D = lcm(*(x.denominator for _, x in start))
    return [(e, x.numerator * (D // x.denominator)) for e, x in start], D


class PartialProduct:
    """The dense kernel's state between steps: scalar / D * x^shift *
    sum a[e] x^e, times (1 - x^0)^zeros, exact below ``exact_below``.

    ``of`` lists a series.  ``times_ratio`` applies the monomial and the
    finite factors of one ``FactorProduct``, or of one divided by another,
    to a copy of the list, cut to the entries still needed: the (1 - x^0)
    factors meet only in the count, and every other factor is a unit, so
    dividing one back out is exact.  ``times_rest`` adds the infinite tails
    and the series of a ``FactorProduct``.  ``FactorProduct.part`` takes the
    three steps once; the multisum evaluator carries one state per node and
    edge.  ``a`` is None once a factor annihilated the product.
    """

    __slots__ = ("a", "D", "top", "scalar", "shift", "zeros")

    def __init__(self, a, D=1, top=0, scalar=Fraction(1), shift=0, zeros=0):
        self.a = a
        self.D = D
        self.top = top
        self.scalar = scalar
        self.shift = shift
        self.zeros = zeros

    @staticmethod
    def of(s: Series, n):
        """s (with a term or a finite cutoff) listed from its valuation to n
        entries, or to its own cutoff when that comes first."""
        v = s.val()
        n = max(0, min(n, s.cutoff - v))
        start, D = _ints(s, v, n)
        a = [0] * n
        for e, x in start:
            a[e] = x
        return PartialProduct(a, D, max((e for e, _ in start), default=0), shift=v)

    def exact_below(self, cutoff):
        """The cutoff of the product: min(cutoff, shift + len(a)), the list
        being exact below its end.  ``cutoff`` INF states that the list holds
        an exact polynomial whole; an annihilated product is exact anywhere."""
        if self.a is None or cutoff == INF:
            return cutoff
        return min(cutoff, self.shift + len(self.a))

    def times_ratio(self, fp: FactorProduct, over: FactorProduct | None, n):
        """self times the monomial and the finite factors of fp / over (over
        None: of fp, from its memoised cancelled multisets), its list cut to
        n entries."""
        if self.a is None or fp.annihilated:
            return PartialProduct(None)
        if over is None:
            num, den, _ = fp._ratio()
            coeff, halves = fp.coeff, fp.halves
        else:
            num, den = _cancel(fp.num + over.den, fp.den + over.num)
            coeff, halves = fp.coeff / over.coeff, fp.halves - over.halves
        scalar, shift, steps, zeros = _steps(num.elements(), den.elements(), coeff, halves)
        a = self.a[:max(n, 0)]
        D, top = _apply(a, self.D, min(self.top, len(a) - 1), steps)
        return PartialProduct(a, D, top, self.scalar * scalar, self.shift + shift,
                              self.zeros + zeros)

    def times_rest(self, fp: FactorProduct, n, cutoff=INF):
        """self times the infinite tails and the series of fp, its list cut
        to at most n entries and to none at or above ``cutoff``.  With no
        tail to apply and nothing to cut, the list is shared, not copied:
        no kernel list is changed once a step has returned it (``_apply``
        runs only on the copies ``times_ratio`` and ``times_rest`` make)."""
        if self.a is None or INF in (s.val() for s in fp.extras):
            return PartialProduct(None)
        ev = sum(s.val() for s in fp.extras)
        n = max(0, min(n, len(self.a), cutoff - self.shift - ev))
        steps = [(p, d, h, inv) for tail, base, inv in fp.infs
                 for p, d, h, _ in _steps(_poch_monos(tail, INF, base, n)[0], ())[2]]
        out = self
        if steps or n < len(self.a):
            a = self.a[:n]
            D, top = _apply(a, self.D, min(self.top, n - 1), steps)
            out = PartialProduct(a, D, top, self.scalar, self.shift, self.zeros)
        for s in fp.extras:
            out = out.times_series(s)
        return out

    def times_series(self, s: Series, cutoff=INF):
        """self * s, as far as both are exact and below ``cutoff``."""
        if self.a is None or not s.terms and s.cutoff == INF:
            return PartialProduct(None)
        v = s.val()
        shift = self.shift + v
        n = max(0, min(len(self.a), s.cutoff - v, cutoff - shift))
        b, Db = _ints(s, v, n)
        a = self.a
        top = min(self.top, n - 1)
        out = [0] * n
        for k, x in b:
            for e in range(k, min(n, top + k + 1)):
                out[e] += x * a[e - k]
        top = min(top + max((k for k, _ in b), default=0), n - 1)
        return PartialProduct(out, self.D * Db, top, self.scalar, shift, self.zeros)

    def live(self):
        """False when the product is zero (annihilated, or an uncancelled
        (1 - x^0)); raises PoleError on an uncancelled pole."""
        if self.a is None or self.zeros > 0:
            return False
        if self.zeros < 0:
            raise PoleError("uncancelled vanishing denominator factor")
        return True

    def series(self, cutoff) -> Series:
        """The product as a series exact below ``cutoff``, which the list must
        cover; the zero series when it is zero."""
        if not self.live():
            return Series.zero()
        return _build(self.a, self.D, self.scalar, self.shift, cutoff)


class DenseSum:
    """A sum of kernel results as one dense list of ints over one common
    denominator: sum a[e] x^(base + e) / D, exact below ``cutoff``.

    ``add`` brings each ``PartialProduct`` to the common denominator with one
    integer multiply per entry and adds it in place; ``series`` reduces each
    coefficient once.  No coefficient becomes a ``Fraction`` before the end.
    """

    __slots__ = ("a", "base", "D", "cutoff")

    def __init__(self, cutoff):
        self.a = []
        self.base = 0
        self.D = 1
        self.cutoff = cutoff

    def add(self, part: PartialProduct, cutoff):
        """Add ``part``, exact below ``cutoff`` (entries past its list are
        zero there); the sum's cutoff falls to it.  A zero product adds
        nothing and leaves the cutoff alone; a pole raises PoleError."""
        if not part.live():
            return
        self.cutoff = c = min(self.cutoff, cutoff)
        acc = self.a
        if c != INF and len(acc) > c - self.base:
            del acc[max(0, c - self.base):]
        src = part.a
        n = min(part.top + 1, len(src), c - part.shift)
        if n <= 0:
            return
        scalar = part.scalar / part.D
        p, d = scalar.numerator, scalar.denominator
        D = lcm(self.D, d)
        if D != self.D:
            acc[:] = map((D // self.D).__mul__, acc)
            self.D = D
        if d != D:
            p *= D // d
        if not acc:
            self.base = part.shift
        elif part.shift < self.base:
            acc[:0] = [0] * (self.base - part.shift)
            self.base = part.shift
        lo = part.shift - self.base
        hi = lo + n
        if len(acc) < hi:
            acc.extend([0] * (hi - len(acc)))
        acc[lo:hi] = map(add, acc[lo:hi], src if p == 1 else map(p.__mul__, src))

    def add_plans(self, plans, cutoff):
        """Add each plan (fp, seq, k): fp * seq(k), or fp alone when seq is
        None, exact below ``cutoff`` wherever the term is; fp * seq(k) is
        not built when its floor reaches the cutoff."""
        for fp, seq, k in plans:
            self.add(*(fp.part(cutoff) if seq is None else seq.part(fp, k, cutoff)))

    def part(self, zeros) -> PartialProduct:
        """The sum as a ``PartialProduct`` with ``zeros`` (1 - x^0) factors,
        its list padded to the sum's cutoff, so exact below it."""
        pad = [] if self.cutoff == INF else [0] * (self.cutoff - self.base - len(self.a))
        return PartialProduct(self.a + pad, self.D, max(len(self.a) - 1, 0),
                              shift=self.base, zeros=zeros)

    def series(self) -> Series:
        """The sum, exact below its cutoff; each coefficient is reduced once."""
        return _build(self.a, self.D, Fraction(1), self.base, self.cutoff)


def plans_floor(plans):
    """The least valuation floor of the plans (fp, seq, k), each fp * seq(k)
    or fp alone when seq is None: fp's valuation plus seq's certificate at
    k.  INF for no plans."""
    return min((fp.val_bound() + (0 if seq is None else seq.val_bound(k))
                for fp, seq, k in plans), default=INF)


def sum_plans(plans, cutoff) -> Series:
    """The sum of the plans (fp, seq, k), exact below ``cutoff`` wherever the
    terms are: each term is added to one ``DenseSum`` as the kernel left it
    (``DenseSum.add_plans``)."""
    total = DenseSum(cutoff)
    total.add_plans(plans, cutoff)
    return total.series()


def truncated_sum(runs, plans, cutoff, label) -> Series:
    """Sum of the terms j = start, start + step, ... up to ``last`` inclusive,
    for each (start, step, last) of ``runs``, exact below ``cutoff`` wherever
    the terms are.

    ``last`` may be INF or -INF.  ``plans(j)`` returns term j as a plan list
    (see ``sum_plans``), or None at an index whose term is identically zero:
    that index is stepped past and not counted as a skip.  A term whose
    ``plans_floor`` reaches ``cutoff`` (an empty list among them) is skipped
    and not built; every other term is added, as it is reached, to the one
    ``DenseSum`` of all the runs.

    The stop rule is a heuristic, not a certificate: a run ends after
    ``_STREAK`` consecutive skipped terms, so a later term whose floor dips
    below the cutoff again is lost.  More than 10 * max(cutoff, 1) + 200
    steps in one run raise ``TruncationUnreachable(label)``.
    """
    total = DenseSum(cutoff)
    cap = 10 * max(cutoff, 1) + 200
    for start, step, last in runs:
        streak = 0
        steps = 0
        j = start
        while (j <= last) if step > 0 else (j >= last):
            steps += 1
            if steps > cap:
                raise TruncationUnreachable(label)
            got = plans(j)
            if got is None:
                pass
            elif plans_floor(got) >= cutoff:
                streak += 1
                if streak >= _STREAK:
                    break
            else:
                streak = 0
                total.add_plans(got, cutoff)
            j += step
    return total.series()


def _mono_coeff(c: Fraction):
    """A factor's coefficient, as an int when it is one: the multisets hash
    and compare their monomials, which is much cheaper on ints."""
    return c.numerator if c.denominator == 1 else c


def _poch_monos(a: QParam, k, base: int, bound=None):
    """(numerator, denominator) factor monomials of (a;q^base)_k.

    For k = INF only the factors that matter below ``bound`` (the cutoff
    less the product's valuation) are listed: every factor with exponent
    below max(bound, 1), so the nonpositive ones are always all there.
    """
    if a.is_zero:
        return [], []
    if not a.is_finite:
        raise BadParam("infinite parameter inside a Pochhammer symbol")
    if k == INF:
        k = max(0, -((a.halves - max(bound, 1)) // base))
    c = _mono_coeff(a.coeff)
    if k >= 0:
        return [(c, a.halves + j * base) for j in range(k)], []
    return [], [(c, a.halves - l * base) for l in range(1, -k + 1)]


# ---------------------------------------------------------------------------
# pochhammer symbols
# ---------------------------------------------------------------------------

def _poch_rule(a: QParam, k, base: int = 2):
    """(v, zeros) of the factors (1 - c x^h) that ``FactorProduct.times_poch``
    installs for (a;q^base)_k: v is the sum of min(0, h) over the numerator
    factors less that over the denominator factors, in closed form, and
    zeros the number of (1 - x^0) factors, negative in the denominator."""
    if a.is_zero:
        return 0, 0
    if not a.is_finite:
        raise BadParam("infinite parameter inside a Pochhammer symbol")
    h = a.halves
    if k == INF or k >= 0:
        t = max(0, -(h // base))  # factors j < t have negative exponents h + j base
        if k != INF:
            t = min(t, k)
        hits = h <= 0 and h % base == 0 and (k == INF or -h // base < k)
        return t * h + base * (t * (t - 1) // 2), int(hits and a.coeff == 1)
    lo = max(1, h // base + 1)  # factors l >= lo have negative exponents h - l base
    n = max(0, -k - lo + 1)
    hits = h % base == 0 and 1 <= h // base <= -k
    return base * ((lo - k) * n // 2) - n * h, -int(hits and a.coeff == 1)


def poch_val(a: QParam, k, base: int = 2):
    """(valuation_halves, kind) of (a;q^base)_k without building the series.

    kind is "ok", "zero" (the product is exactly the zero series) or "pole"
    (negative index with a vanishing denominator factor).  The valuation of a
    zero product == INF; a pole has no valuation (None).
    """
    v, zeros = _poch_rule(a, k, base)
    if zeros > 0:
        return INF, "zero"
    if zeros < 0:
        return None, "pole"
    return v, "ok"


@lru_cache(maxsize=100000)
def _poch_cached(kind, coeff, halves, k, cutoff, base):
    a = QParam(kind, coeff, halves)
    if a.is_zero or k == 0:
        return Series.one()
    if k < 0 and cutoff is None:
        raise BadParam("negative-index Pochhammer needs a cutoff")
    return FactorProduct().times_poch(a, k, base).series(cutoff)


def poch(a: QParam, k, cutoff=None, base: int = 2) -> Series:
    """(a;q^base)_k as a truncated series; k may be a negative int or INF."""
    return _poch_cached(a.kind, a.coeff, a.halves, k if k == INF else int(k), cutoff, base)


def poch_recip(a: QParam, k, cutoff, base: int = 2) -> Series:
    """1/(a;q^base)_k; a pole of the Pochhammer maps to the exact zero series."""
    if a.is_zero:
        return Series.one()
    kind = poch_val(a, k, base)[1]
    if kind == "pole":
        return Series.zero()
    if kind == "zero":
        raise PoleError(f"reciprocal of the vanishing product ({a})_{k}")
    return FactorProduct().times_poch(a, k, base, den=True).series(cutoff)


# ---------------------------------------------------------------------------
# q-binomials and elementary symmetric polynomials
# ---------------------------------------------------------------------------

_QBINOM_MEMO = {}


def qbinom(N: int, j: int, base: int = 2) -> Series:
    """Gaussian binomial [N choose j] in base q^(base/2); zero outside 0<=j<=N.
    Each (N, j, base) is built once."""
    if N < 0:
        raise NegativeN(f"q-binomial with negative upper index {N}")
    if j < 0 or j > N:
        return Series.zero()
    if base % 2 or base <= 0:
        raise BadParam("q-binomial base must be a positive even number of halves")
    got = _QBINOM_MEMO.get((N, j, base))
    if got is None:
        if j == 0 or j == N:
            got = Series.one()
        elif base != 2:
            got = qbinom(N, j).scale_exponents(base // 2)
        else:  # [N,j] = q^j [N-1,j] + [N-1,j-1]
            got = qbinom(N - 1, j).times_monomial(1, 2 * j) + qbinom(N - 1, j - 1)
        _QBINOM_MEMO[N, j, base] = got
    return got


def esym(M: int, values) -> Series:
    """Elementary symmetric polynomial e_M evaluated at monomial parameters."""
    vals = list(values)
    if M < 0 or M > len(vals):
        return Series.zero()
    e = [Series.one()] + [Series.zero() for _ in range(M)]
    for v in vals:
        if v.is_zero:
            continue
        p = v.pow(1)  # raises for an infinite parameter
        for k in range(min(M, len(vals)), 0, -1):
            e[k] = e[k] + e[k - 1].times_monomial(p.coeff, p.halves)
    return e[M]


# ---------------------------------------------------------------------------
# Jacobi triple product
# ---------------------------------------------------------------------------

def jtp_sum(z: QParam, cutoff, base: int = 2) -> Series:
    """sum_j (-1)^j z^j Q^(j(j-1)/2) with Q = q^(base/2), truncated."""
    if not z.is_finite:
        raise BadParam("triple product argument must be finite")
    h = z.halves

    def tval(j):
        return j * h + base * (j * (j - 1) // 2)

    def term(j):
        return z.monomial(j).times_monomial(sign(j), base * (j * (j - 1) // 2))

    out = Series.zero(cutoff)
    j = 0
    while tval(j) < cutoff or tval(j + 1) <= tval(j):
        if tval(j) < cutoff:
            out = out + term(j)
        j += 1
        if j > 10 * (cutoff + abs(h)) + 100:
            raise TruncationUnreachable("triple product sum does not truncate")
    j = -1
    while tval(j) < cutoff or tval(j - 1) <= tval(j):
        if tval(j) < cutoff:
            out = out + term(j)
        j -= 1
        if j < -10 * (cutoff + abs(h)) - 100:
            raise TruncationUnreachable("triple product sum does not truncate")
    return out.truncate(cutoff)


def triple_part(z: QParam, base: int = 2, coeff=1, halves=0) -> FactorProduct:
    """coeff * x^halves * (Q, z, Q/z; Q)_oo with Q = q^(base/2), as a
    ``FactorProduct``."""
    Qp = QParam.finite(1, base)
    fp = FactorProduct().times_scalar(coeff).times_qpow(halves)
    for p in (Qp, z, Qp / z):
        fp.times_poch(p, INF, base)
    return fp


def triple_product(z: QParam, cutoff, base: int = 2) -> Series:
    """(Q, z, Q/z; Q)_oo with Q = q^(base/2): the product side of the identity."""
    part, c = triple_part(z, base).part(cutoff)
    return part.series(c)


def jacobi_triple(z: QParam, cutoff, base: int = 2):
    """Both sides of the triple product identity, each exact below cutoff."""
    return jtp_sum(z, cutoff, base), triple_product(z, cutoff, base)


# ---------------------------------------------------------------------------
# exact products of (1 - c x^h) factors with cancellation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=100000)
def _factors_series(num_key, den_key, infs, cutoff, coeff, halves):
    fp = FactorProduct()
    fp.num, fp.den, fp.infs = Counter(dict(num_key)), Counter(dict(den_key)), list(infs)
    fp.coeff, fp.halves = coeff, halves
    part, c = fp.part(cutoff)
    return part.series(c)


def _cancel(num: Counter, den: Counter):
    """The two multisets without the factors common to them, as new multisets."""
    if not (num and den):
        return Counter(num), Counter(den)
    common = num & den
    return num - common, den - common


def fp_pp(fp, p: QParam, n: int):
    """Multiply fp by (p)_n / p^n, using the limit (-1)^n q^C(n,2) at p = oo."""
    if p.is_infinite:
        fp.times_scalar(sign(n)).times_qpow(n * (n - 1))
        return fp
    if p.is_zero:
        raise BadParam("(0)_n / 0^n is undefined")
    fp.times_poch(p, n)
    fp.times_param_pow(p, -n)
    return fp


class FactorProduct:
    """monomial * prod(1 - m) / prod(1 - m') * the ``extras`` series, evaluated
    exactly, alone or applied to one more series.

    Identical factors in numerator and denominator cancel as multisets before
    anything is expanded, so removable singularities at specialized
    parameters evaluate exactly instead of raising 0/0.  Infinite Pochhammers
    (``times_poch`` with k = INF) keep their nonpositive-exponent factors in
    the multisets and their tails, which all lead with 1, in ``infs``.
    ``part(cutoff, seed)`` lists the optional ``seed`` (such as a sequence
    value) in one ``PartialProduct``, applies the monomial and the factors,
    then the tails, each listed up to the exponent the cutoff needs, and
    then the ``extras`` (bracket polynomials, at most one of them a
    truncated series); ``series`` builds the result.  The cancelled
    multisets are computed once and kept until the next ``times*`` call.
    """

    __slots__ = ("coeff", "halves", "num", "den", "extras", "infs", "annihilated",
                 "_memo")

    def __init__(self):
        self.coeff = Fraction(1)
        self.halves = 0
        self.num = Counter()
        self.den = Counter()
        self.extras = []
        self.infs = []
        self.annihilated = False
        self._memo = None

    def copy(self):
        fp = FactorProduct()
        fp.coeff = self.coeff
        fp.halves = self.halves
        fp.num = Counter(self.num)
        fp.den = Counter(self.den)
        fp.extras = list(self.extras)
        fp.infs = list(self.infs)
        fp.annihilated = self.annihilated
        fp._memo = self._memo
        return fp

    def times(self, other: FactorProduct):
        """Multiply by another FactorProduct, merging every field."""
        self._memo = None
        self.coeff *= other.coeff
        self.halves += other.halves
        self.num.update(other.num)
        self.den.update(other.den)
        self.extras.extend(other.extras)
        self.infs.extend(other.infs)
        self.annihilated = self.annihilated or other.annihilated
        return self

    def times_scalar(self, c):
        self._memo = None
        c = Fraction(c)
        if c == 0:
            self.annihilated = True
        else:
            self.coeff *= c
        return self

    def times_qpow(self, halves: int):
        self._memo = None
        self.halves += halves
        return self

    def times_param_pow(self, p: QParam, n: int):
        self._memo = None
        if p.is_zero:
            if n > 0:
                self.annihilated = True
                return self
            if n == 0:
                return self
            raise BadParam("negative power of the zero parameter")
        if not p.is_finite:
            raise BadParam("monomial power of an infinite parameter")
        self.coeff *= p.coeff ** n
        self.halves += p.halves * n
        return self

    def times_factor(self, p: QParam, offset_halves: int = 0, den: bool = False):
        """Multiply by (1 - p q^(offset/2)) or its reciprocal."""
        self._memo = None
        if p.is_zero:
            return self
        if not p.is_finite:
            raise BadParam("factor with infinite parameter")
        mono = (_mono_coeff(p.coeff), p.halves + offset_halves)
        (self.den if den else self.num)[mono] += 1
        return self

    def times_poch(self, p: QParam, k, base: int = 2, den: bool = False):
        """Multiply by (p;q^base)_k (or its reciprocal when den=True); k may be INF."""
        self._memo = None
        if k == INF:
            if p.is_zero:
                return self
            num, den_monos = _poch_monos(p, INF, base, 1)  # the nonpositive exponents
            self.infs.append((p.q_shift(len(num) * base), base, den))
        else:
            num, den_monos = _poch_monos(p, k, base)
        if den:
            num, den_monos = den_monos, num
        self.num.update(num)
        self.den.update(den_monos)
        return self

    def times_series(self, s: Series):
        self._memo = None
        self.extras.append(s)
        return self

    def _ratio(self):
        """The cancelled (num, den) multisets and the valuation of the
        monomial times their ratio (INF when the product is zero).  The
        multisets are shared with later calls: callers do not change them."""
        if self._memo is None:
            self._memo = self._cancelled()
        return self._memo

    def _cancelled(self):
        if self.annihilated:
            return None, None, INF
        num, den = _cancel(self.num, self.den)
        if _ONE_MONO in num:
            return num, den, INF
        v = self.halves
        v += sum(_factor_val(m) * k for m, k in num.items())
        v -= sum(_factor_val(m) * k for m, k in den.items())
        return num, den, v

    def val_bound(self):
        """Exact valuation of the assembled product (INF when it is zero)."""
        return self._ratio()[2] + sum(s.val() for s in self.extras)

    def series_times(self, build, cutoff, floor=0) -> Series:
        """This product times build(c), a series exact below c = cutoff - val_bound()
        whose valuation is at least ``floor``.

        When the two valuations reach the cutoff, nothing is built and the
        zero series is returned.  ``self`` is left unchanged.
        """
        part, c = self.part_times(build, cutoff, floor)
        return part.series(c)

    def part_times(self, build, cutoff, floor=0):
        """``series_times`` as the kernel's state, (PartialProduct, c) exact
        below c, for a ``DenseSum``."""
        v = self.val_bound()
        if v + floor >= cutoff:
            return PartialProduct([]), cutoff
        return self.part(cutoff, build(cutoff - v))

    def part(self, cutoff, seed=None):
        """``series(cutoff, seed)`` as the kernel's state, (PartialProduct, c)
        exact below c, for a ``DenseSum``.

        The seed (default 1) and the ``extras`` are listed as far as the
        cutoff needs and their own cutoffs allow.  ``cutoff=None`` (or INF)
        asks for everything they determine: when they are all exact, that is
        the exact polynomial, which admits no denominator factor.
        """
        num, den, v = self._ratio()
        series = [Series.one() if seed is None else seed, *self.extras]
        v += sum(s.val() for s in series)
        if v == INF:
            return PartialProduct(None), INF
        if cutoff is None or cutoff == INF:
            if self.infs:
                raise BadParam("infinite Pochhammer product needs a finite cutoff")
            cutoff = v + min(s.cutoff - s.val() for s in series)
        if cutoff != INF:
            n = cutoff - v
        elif any(h for _, h in den):
            raise InvertZero("inverse of a non-monomial exact series needs a cutoff")
        else:  # the whole polynomial
            n = (1 + sum(abs(h) * k for (_, h), k in num.items())
                 + sum(max(s.terms) - min(s.terms) for s in series))
        part = PartialProduct.of(series[0], n).times_ratio(self, None, n).times_rest(self, n)
        return part, part.exact_below(cutoff)

    def series(self, cutoff, seed=None) -> Series:
        """This product times ``seed`` (default 1), exact below the cutoff
        wherever the seed is exact below cutoff - val_bound()."""
        if seed is None and not self.extras and not self.annihilated:
            num, den, _ = self._ratio()
            return _factors_series(tuple(sorted(num.items())), tuple(sorted(den.items())),
                                   tuple(self.infs), cutoff, self.coeff, self.halves)
        part, c = self.part(cutoff, seed)
        return part.series(c)


class Valuation:
    """The valuation (halves) of what the same ``times_*`` calls build as a
    ``FactorProduct``, kept as one number: the monomial's halves, plus
    min(0, h) for each numerator factor (1 - c x^h) less that of each
    denominator factor, plus the ``extras``' valuations; INF once a factor
    annihilates the product.  Nothing cancels, so a (1 - x^0) factor counts
    as a unit: the multisum evaluator carries those factors as a count
    across its levels, and its level floors are read off the levels' own
    code this way (see ``multisum``)."""

    __slots__ = ("v",)

    def __init__(self):
        self.v = 0

    def times_scalar(self, c):
        if c == 0:
            self.v = INF
        return self

    def times_qpow(self, halves: int):
        self.v += halves
        return self

    def times_param_pow(self, p: QParam, n: int):
        if p.is_zero:
            if n < 0:
                raise BadParam("negative power of the zero parameter")
            if n > 0:
                self.v = INF
        elif not p.is_finite:
            raise BadParam("monomial power of an infinite parameter")
        else:
            self.v += p.halves * n
        return self

    def times_factor(self, p: QParam, offset_halves: int = 0, den: bool = False):
        if not p.is_finite and not p.is_zero:
            raise BadParam("factor with infinite parameter")
        h = 0 if p.is_zero else min(0, p.halves + offset_halves)
        self.v += -h if den else h
        return self

    def times_poch(self, p: QParam, k, base: int = 2, den: bool = False):
        v = _poch_rule(p, k, base)[0]
        self.v += -v if den else v
        return self

    def times_series(self, s: Series):
        self.v += s.val()
        return self
