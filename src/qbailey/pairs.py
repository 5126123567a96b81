"""Bilateral Bailey pairs: sequences, the defining relation, and inversion.

A bilateral Bailey pair relative to a is a pair of sequences (alpha_n,
beta_n), n in Z, with

    beta_n = sum_{j <= n} alpha_j / ( (q)_{n-j} (aq)_{n+j} ).

``verify_pair`` recomputes the right side by enumerating j downward from n
with ``qfunctions.truncated_sum``, whose stop rule is a heuristic (see
there); each term is a factor product times alpha_j, added as the kernel
left it to the sum's one ``DenseSum``.  ``invert_pair`` recomputes alpha
from beta the same way, through

    alpha_n = (1-aq^{2n})/(1-a) *
              sum_{j <= n} (a)_{n+j}/(q)_{n-j} (-1)^{n-j} q^C(n-j,2) beta_j.

Bilateral inversion has kernel directions (two distinct alphas can share a
beta, e.g. the shifted pair versus the unit pair), so the inversion
round-trip is only asserted for pairs supported on n >= lower bound 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import BadParam, CertificateViolation, PoleError
from .qparams import Q, QParam
from .qfunctions import DenseSum, FactorProduct, poch_val, qbinom, sign, truncated_sum
from .series import INF, Series, first_diff


@dataclass
class VerifyReport:
    """Outcome of an exact coefficientwise check.

    ``passed`` needs agreement on every coefficient below the requested
    cutoff, so a side that came back exact only to a lower order fails.
    """

    passed: bool
    n_min: int
    n_max: int
    cutoff: int
    compared: float
    first_divergence: dict | None = None
    note: str = ""

    def to_json(self):
        out = {
            "passed": self.passed,
            "n_range": [self.n_min, self.n_max],
            "cutoff_halves": self.cutoff,
            "compared_halves": "inf" if self.compared == INF else self.compared,
        }
        if self.first_divergence is not None:
            fd = dict(self.first_divergence)
            for k in ("lhs_coeff", "rhs_coeff"):
                fd[k] = str(Fraction(fd[k]))
            out["first_divergence"] = fd
        if self.note:
            out["note"] = self.note
        return out


class BilateralSequence:
    """Map n -> series with a certified valuation lower bound and support window.

    ``val_bound(n)`` must never exceed the true valuation of ``eval(n)``;
    it is spot-checked on every evaluation.  It is a function of n alone, so
    it is computed once per n.  Outside the support window the sequence is
    exactly zero.
    """

    def __init__(self, eval_fn, val_bound_fn=None, support=(-INF, INF), name=""):
        self._eval = eval_fn
        self._vb = val_bound_fn
        self.support_lo, self.support_hi = support
        self.name = name
        self._cache = {}
        self._vb_memo = {}

    def __call__(self, n, cutoff) -> Series:
        if not (self.support_lo <= n <= self.support_hi):
            return Series.zero()
        key = (n, cutoff)
        got = self._cache.get(key)
        if got is None:
            got = self._eval(n, cutoff)
            bound = self.val_bound(n)
            # An empty truncated series only certifies val >= its cutoff.
            if got.terms and min(got.terms) < bound:
                raise CertificateViolation(
                    f"{self.name}: val {got.val()} below certificate {bound} at n={n}")
            self._cache[key] = got
        return got

    def part(self, fp: FactorProduct, n, cutoff):
        """fp * self(n) as the kernel's state, (PartialProduct, c) exact below
        c, for a ``DenseSum``; nothing is built when the valuations reach
        the cutoff."""
        return fp.part_times(lambda c: self(n, c), cutoff, self.val_bound(n))

    def val_bound(self, n):
        if not (self.support_lo <= n <= self.support_hi):
            return INF
        if self._vb is None:
            return 0
        got = self._vb_memo.get(n)
        if got is None:
            got = self._vb_memo[n] = self._vb(n)
        return got


@dataclass
class BaileyPair:
    a: QParam
    alpha: BilateralSequence
    beta: BilateralSequence
    label: str = ""


# ---------------------------------------------------------------------------
# defining relation and inversion
# ---------------------------------------------------------------------------

def relation_rhs(pair: BaileyPair, n: int, cutoff: int) -> Series:
    """sum_{j<=n} alpha_j / ((q)_{n-j} (aq)_{n+j}), exact below cutoff."""
    aq = pair.a.q_shift(2)
    alpha = pair.alpha

    def parts(j):
        fp = FactorProduct().times_poch(Q, n - j, den=True).times_poch(aq, n + j, den=True)
        return [alpha.part(fp, j, cutoff)]

    def at(j):
        v_aq, kind = poch_val(aq, n + j)
        if kind == "pole":
            return INF, None  # 1/(aq)_{n+j} = 0 here and for every smaller j
        if kind == "zero":
            if alpha.val_bound(j) == INF:
                return None, None
            raise PoleError(
                f"defining relation degenerates: (aq)_{n + j} = 0 with aq = {aq}")
        return alpha.val_bound(j) - v_aq, lambda: parts(j)

    return truncated_sum([(min(n, alpha.support_hi), -1, alpha.support_lo)], at, cutoff,
                         f"relation sum at n={n} did not truncate").truncate(cutoff)


def _compare_on_window(n_min, n_max, cutoff, sides) -> VerifyReport:
    """Compare each (lhs, rhs, note) of sides(n), n_min <= n <= n_max, exactly
    below the cutoff.  An empty window compares nothing, so it is refused
    rather than passed."""
    if n_min > n_max:
        raise BadParam(f"empty window: n_min = {n_min} > n_max = {n_max}")
    compared = INF
    for n in range(n_min, n_max + 1):
        for lhs, rhs, note in sides(n):
            order, diff = first_diff(lhs, rhs, cutoff)
            compared = min(compared, order)
            if diff is not None:
                e, cl, cr = diff
                return VerifyReport(False, n_min, n_max, cutoff, compared,
                                    {"n": n, "exponent_halves": e,
                                     "lhs_coeff": cl, "rhs_coeff": cr}, note=note)
    return VerifyReport(compared >= cutoff, n_min, n_max, cutoff, compared)


def verify_pair(pair: BaileyPair, n_min: int, n_max: int, cutoff: int) -> VerifyReport:
    """Check the defining relation on the window, exactly below the cutoff."""
    def sides(n):
        rhs = relation_rhs(pair, n, cutoff)
        return [(pair.beta(n, cutoff), rhs, "")]

    return _compare_on_window(n_min, n_max, cutoff, sides)


def inversion_alpha(pair: BaileyPair, n: int, cutoff: int) -> Series:
    """alpha_n recomputed from beta via the bilateral Bailey inversion."""
    a = pair.a
    beta = pair.beta
    pref = FactorProduct().times_factor(a, 4 * n).times_factor(a, 0, den=True)
    vpref = pref.val_bound()
    if vpref == INF:
        return Series.zero()
    inner_cut = cutoff - vpref

    def parts(j):
        d = n - j
        fp = FactorProduct()
        fp.times_scalar(sign(d))
        fp.times_qpow(d * (d - 1))
        fp.times_poch(a, n + j)
        fp.times_poch(Q, d, den=True)
        return [beta.part(fp, j, inner_cut)]

    def at(j):
        v_a, kind = poch_val(a, n + j)
        if kind == "zero":
            return None, None
        if kind == "pole":
            raise PoleError(f"(a)_{n + j} has a pole with a = {a}")
        d = n - j
        # the floor of the whole term, prefactor included
        return vpref + beta.val_bound(j) + v_a + d * (d - 1), lambda: parts(j)

    out = truncated_sum([(min(n, beta.support_hi), -1, beta.support_lo)], at, cutoff,
                        f"inversion sum at n={n} did not truncate")
    return pref.series(cutoff, out.truncate(inner_cut))


def invert_pair(pair: BaileyPair, n_min: int, n_max: int, cutoff: int) -> VerifyReport:
    """Check alpha against the inversion of beta on the window."""
    def sides(n):
        rhs = inversion_alpha(pair, n, cutoff)
        return [(pair.alpha(n, cutoff), rhs, "")]

    return _compare_on_window(n_min, n_max, cutoff, sides)


def pairs_agree(p1: BaileyPair, p2: BaileyPair, n_min: int, n_max: int,
                cutoff: int) -> VerifyReport:
    """Componentwise equality of two pairs (alpha and beta) on a window."""
    if p1.a != p2.a:
        return VerifyReport(False, n_min, n_max, cutoff, cutoff,
                            {"n": n_min, "exponent_halves": 0,
                             "lhs_coeff": 0, "rhs_coeff": 0},
                            note=f"relative parameters differ: {p1.a} vs {p2.a}")
    return _compare_on_window(n_min, n_max, cutoff, lambda n: (
        (p1.alpha(n, cutoff), p2.alpha(n, cutoff), "alpha sequences differ"),
        (p1.beta(n, cutoff), p2.beta(n, cutoff), "beta sequences differ")))


# ---------------------------------------------------------------------------
# built-in pairs
# ---------------------------------------------------------------------------

def _unit_pair(a: QParam) -> BaileyPair:
    # alpha_n = (-1)^n q^C(n,2) (1-aq^{2n}) (aq)_{n-1} / (q)_n,  beta_n = delta_{n,0}.
    # The textbook form carries (a)_n/(1-a); the rewrite below is identical for
    # n >= 1 and stays finite at a = 1.
    if not a.is_finite:
        raise BadParam("unit pair needs a finite relative parameter")

    def coeff(n):
        fp = FactorProduct()
        fp.times_scalar(sign(n))
        fp.times_qpow(n * (n - 1))
        fp.times_factor(a, 4 * n)
        fp.times_poch(a.q_shift(2), n - 1)
        fp.times_poch(Q, n, den=True)
        return fp

    def alpha(n, cutoff):
        if n == 0:
            return Series.one()
        return coeff(n).series(cutoff)

    def alpha_vb(n):
        if n == 0:
            return 0
        return coeff(n).val_bound()

    def beta(n, cutoff):
        return Series.one() if n == 0 else Series.zero()

    return BaileyPair(
        a,
        BilateralSequence(alpha, alpha_vb, support=(0, INF), name="unit.alpha"),
        BilateralSequence(beta, lambda n: 0, support=(0, 0), name="unit.beta"),
        label=f"unit(a={a})",
    )


def _shifted_pair(m: int) -> BaileyPair:
    # alpha_n = (-1)^n q^C(n,2);  beta_n = (q)_m (-1)^n q^C(n,2) [m+n over m+2n].
    # Relative to a = q^m; genuinely bilateral (alpha never vanishes).
    if m < 0:
        raise BadParam("shifted pair needs m >= 0")

    def alpha(n, cutoff):
        return Series.monomial(sign(n), n * (n - 1))

    @cache
    def beta(n):
        # an exact polynomial: one value serves every cutoff
        fp = FactorProduct().times_scalar(sign(n)).times_qpow(n * (n - 1)).times_poch(Q, m)
        return fp.times_series(qbinom(m + n, m + 2 * n)).series(None)

    return BaileyPair(
        QParam.finite(1, 2 * m),
        BilateralSequence(alpha, lambda n: n * (n - 1), name="shifted.alpha"),
        BilateralSequence(lambda n, c: beta(n), lambda n: n * (n - 1),
                          support=(-(m // 2), 0), name="shifted.beta"),
        label=f"shifted(m={m})",
    )


def _general_m_pair(a: QParam, m: int) -> BaileyPair:
    # alpha_n = (-1)^{n+m} q^C(n+m,2) (1-aq^{2n})/(1-a) (a)_{n-m}/(q)_{n+m},
    # beta_n = delta_{n,-m}.  Needs generic a: (1-a) only cancels for n > m.
    if m < 0:
        raise BadParam("general-m pair needs m >= 0")
    if not a.is_finite:
        raise BadParam("general-m pair needs a finite relative parameter")

    def coeff(n):
        fp = FactorProduct()
        fp.times_scalar(sign(n + m))
        fp.times_qpow((n + m) * (n + m - 1))
        fp.times_factor(a, 4 * n)
        fp.times_factor(a, 0, den=True)
        fp.times_poch(a, n - m)
        fp.times_poch(Q, n + m, den=True)
        return fp

    return BaileyPair(
        a,
        BilateralSequence(lambda n, c: coeff(n).series(c),
                          lambda n: coeff(n).val_bound(),
                          support=(-m, INF), name="general_m.alpha"),
        BilateralSequence(lambda n, c: Series.one() if n == -m else Series.zero(),
                          lambda n: 0, support=(-m, -m), name="general_m.beta"),
        label=f"general_m(a={a}, m={m})",
    )


def _base_change_beta(m, c, qpow, val_bound, name):
    """The beta of both base-change pairs of the shifted pair:
    beta_n = (q^2;q^2)_m sum_{j<=n} (-1)^j q^(qpow(n, j)/2) (c)_{2j}
    / (q^2;q^2)_{n-j} * [m+j over m+2j]_{q^2}."""
    q2 = QParam.finite(1, 4)

    def beta(n, cutoff):
        total = DenseSum(cutoff)
        for j in range(-(m // 2), min(n, 0) + 1):
            b = qbinom(m + j, m + 2 * j, base=4)
            if b.is_zero_below_cutoff():
                continue
            fp = FactorProduct()
            fp.times_scalar(sign(j))
            fp.times_qpow(qpow(n, j))
            fp.times_poch(c, 2 * j)
            fp.times_poch(q2, m, base=4)
            fp.times_poch(q2, n - j, base=4, den=True)
            fp.times_series(b)
            total.add(*fp.part(cutoff))
        return total.series()

    return BilateralSequence(beta, val_bound, support=(-(m // 2), INF), name=name)


def _shifted_d4_pair(m: int) -> BaileyPair:
    # Base-change (D4 limit) of the shifted pair: relative to a = q^m with
    #   alpha_n = (-1)^n q^{n^2} (1+q^m)/(1+q^{m+2n}),
    #   beta_n  = (q^2;q^2)_m sum_{j<=n} (-1)^j q^{j^2} (-q^m)_{2j}
    #             / (q^2;q^2)_{n-j} * [m+j over m+2j]_{q^2}.
    if m < 0:
        raise BadParam("shifted-D4 pair needs m >= 0")
    neg_qm = QParam.finite(-1, 2 * m)

    def acoeff(n):
        fp = FactorProduct()
        fp.times_scalar(sign(n))
        fp.times_qpow(2 * n * n)
        fp.times_factor(neg_qm)
        fp.times_factor(QParam.finite(-1, 2 * m + 4 * n), den=True)
        return fp

    return BaileyPair(
        QParam.finite(1, 2 * m),
        BilateralSequence(lambda n, c: acoeff(n).series(c),
                          lambda n: acoeff(n).val_bound(), name="shifted_d4.alpha"),
        _base_change_beta(m, neg_qm, lambda n, j: 2 * j * j, lambda n: 0,
                          "shifted_d4.beta"),
        label=f"shifted_D4(m={m})",
    )


def _shifted_d1_pair(m: int) -> BaileyPair:
    # Base-change (D1) of the shifted pair: relative to a = q^m with
    #   alpha_n = (-1)^n q^{n^2-n},
    #   beta_n  = (q^2;q^2)_m sum_{j<=n} (-1)^j q^{j^2+n-2j} (-q^{1+m})_{2j}
    #             / (q^2;q^2)_{n-j} * [m+j over m+2j]_{q^2}.
    if m < 0:
        raise BadParam("shifted-D1 pair needs m >= 0")
    return BaileyPair(
        QParam.finite(1, 2 * m),
        BilateralSequence(lambda n, c: Series.monomial(sign(n),
                                                       2 * n * n - 2 * n),
                          lambda n: 2 * n * n - 2 * n, name="shifted_d1.alpha"),
        _base_change_beta(m, QParam.finite(-1, 2 * m + 2),
                          lambda n, j: 2 * j * j + 2 * n - 4 * j,
                          lambda n: min(0, 2 * n), "shifted_d1.beta"),
        label=f"shifted_D1(m={m})",
    )


_PAIR_KINDS = {
    "unit": lambda a=None, m=None: _unit_pair(a),
    "shifted": lambda a=None, m=None: _shifted_pair(m),
    "general_m": lambda a=None, m=None: _general_m_pair(a, m),
    "shifted_D4": lambda a=None, m=None: _shifted_d4_pair(m),
    "shifted_D1": lambda a=None, m=None: _shifted_d1_pair(m),
}


def make_pair(kind: str, a: QParam = None, m: int = None) -> BaileyPair:
    """Construct one of the built-in pairs: unit, shifted, general_m, shifted_D4/D1."""
    try:
        builder = _PAIR_KINDS[kind]
    except KeyError:
        raise BadParam(f"unknown pair kind {kind!r}; choose from {sorted(_PAIR_KINDS)}")
    return builder(a=a, m=m)
