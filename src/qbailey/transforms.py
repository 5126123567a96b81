"""The registry of Bailey-pair transforms.

Every transform consumes a ``BaileyPair`` and returns a new one, with the
relative parameter updated as documented per entry (a, a/q, aq, a*q^{-N},
a*q^{N}, or a square-root rebase for the change-of-base family).

Infinite parameters select explicit limit forms.  They never reach a
Pochhammer symbol: the only patterns in which rho or sigma occur are

    (rho)_n / rho^n        -> (-1)^n q^(n(n-1)/2)    as rho -> oo
    (X/rho)_k and X/rho    -> (0)_k = 1 and 0        as rho -> oo

so each formula is coded in that factored shape and the limits fall out
structurally.  A transformed sequence at n is a list of plans (fp, seq, k),
FactorProduct coefficients times source-sequence values, added by
``qfunctions.sum_plans``; its valuation certificate is the plans'
``plans_floor``, the factor-product valuations plus the source
certificates, so the spot check in ``BilateralSequence`` validates every
propagated bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import BadParam, TruncationUnreachable, UnsupportedLimit
from .qparams import Q, QParam
from .qfunctions import FactorProduct, esym, fp_pp, plans_floor, qbinom, sign, sum_plans
from .pairs import BaileyPair, BilateralSequence
from .series import INF, Series


_combine = sum_plans  # the name the tracer's ``transforms.seq`` span wraps


def _seq_from_plans(plan_fn, support, name) -> BilateralSequence:
    built = {}

    def plans(n):
        # one plan list per n serves the valuation bound and every cutoff
        got = built.get(n)
        if got is None:
            got = built[n] = plan_fn(n)
        return got

    return BilateralSequence(
        lambda n, c: _combine(plans(n), c),
        lambda n: plans_floor(plans(n)),
        support=support,
        name=name,
    )


def _finite_beta_lo(pair: BaileyPair):
    lo = pair.beta.support_lo
    if lo == -INF:
        raise TruncationUnreachable(
            "transform needs a beta sequence with a finite lower support bound")
    return int(lo)


def _require_not_one(p: QParam, who: str):
    if p.is_finite and p.is_one():
        raise BadParam(f"{who} = 1 makes a (1-{who}) denominator vanish")


def _lemma_alpha(fp: FactorProduct, base: QParam, rho: QParam, sigma: QParam, n: int):
    """Multiply fp by the lemma's alpha factor

        (rho,sigma)_n (base/rho/sigma)^n / (base/rho, base/sigma)_n,

    where ``base`` is aq for the lemma at relative parameter a.
    """
    fp_pp(fp, rho, n)
    fp_pp(fp, sigma, n)
    fp.times_param_pow(base, n)
    fp.times_poch(base / rho, n, den=True)
    fp.times_poch(base / sigma, n, den=True)
    return fp


def _lemma_beta(pair: BaileyPair, base: QParam, rho: QParam, sigma: QParam, twist,
                name: str) -> BilateralSequence:
    """The lemma's beta sum over the source beta, as a sequence:

    beta'_n = sum_{j<=n} (rho,sigma)_j (base/rho/sigma)^j q^(twist(n, j)/2)
              (base/rho/sigma)_{n-j} / ((q)_{n-j} (base/rho, base/sigma)_n) beta_j.
    """
    base_r = base / rho
    base_s = base / sigma
    base_rs = base_r / sigma
    lo = _finite_beta_lo(pair)

    def beta_plans(n):
        plans = []
        for j in range(lo, min(n, int(min(pair.beta.support_hi, n))) + 1):
            fp = FactorProduct()
            fp_pp(fp, rho, j)
            fp_pp(fp, sigma, j)
            fp.times_param_pow(base, j)
            fp.times_qpow(twist(n, j))
            fp.times_poch(base_rs, n - j)
            fp.times_poch(Q, n - j, den=True)
            fp.times_poch(base_r, n, den=True)
            fp.times_poch(base_s, n, den=True)
            plans.append((fp, pair.beta, j))
        return plans

    return _seq_from_plans(beta_plans, (lo, INF), name)


def _no_twist(n, j):
    return 0


# ---------------------------------------------------------------------------
# Bailey lemma (relative parameter unchanged)
# ---------------------------------------------------------------------------

def bailey_lemma(pair: BaileyPair, rho: QParam, sigma: QParam) -> BaileyPair:
    """alpha'_n = (rho,sigma)_n (aq/rho/sigma)^n / (aq/rho, aq/sigma)_n alpha_n;
    beta'_n = sum_{j<=n} (rho,sigma)_j (aq/rho/sigma)_{n-j} (aq/rho/sigma)^j
              / ((q)_{n-j} (aq/rho, aq/sigma)_n) beta_j."""
    a = pair.a
    aq = a.q_shift(2)

    def alpha_plans(n):
        return [(_lemma_alpha(FactorProduct(), aq, rho, sigma, n), pair.alpha, n)]

    return BaileyPair(
        a,
        _seq_from_plans(alpha_plans, (pair.alpha.support_lo, pair.alpha.support_hi),
                        "bailey_lemma.alpha"),
        _lemma_beta(pair, aq, rho, sigma, _no_twist, "bailey_lemma.beta"),
        label=f"bailey_lemma(rho={rho}, sigma={sigma})[{pair.label}]",
    )


# ---------------------------------------------------------------------------
# the two key lemmas and their one-parameter interpolation (a -> a/q)
# ---------------------------------------------------------------------------

def key1(pair: BaileyPair) -> BaileyPair:
    """a -> a/q with beta unchanged: nlattice1 at N = 1,

    alpha'_n = (1-a) [ alpha_n/(1-aq^{2n}) - aq^{2n-2} alpha_{n-1}/(1-aq^{2n-2}) ].
    """
    return nlattice1(pair, 1)


def key2(pair: BaileyPair) -> BaileyPair:
    """a -> a/q with beta'_n = q^n beta_n: nlattice2 at N = 1,

    alpha'_n = (1-a) [ q^n alpha_n/(1-aq^{2n}) - q^{n-1} alpha_{n-1}/(1-aq^{2n-2}) ].
    """
    return nlattice2(pair, 1)


def general(pair: BaileyPair, b: QParam) -> BaileyPair:
    """One-parameter a -> a/q lemma; b=0 is key1, b -> oo is key2.

    alpha'_n = (1-a)/(1-b) [ (1-bq^n) alpha_n/(1-aq^{2n})
                             - q^{n-1}(aq^{n-1}-b) alpha_{n-1}/(1-aq^{2n-2}) ]
    beta'_n  = (1-bq^n)/(1-b) beta_n
    """
    if b.is_infinite:
        return key2(pair)
    _require_not_one(b, "b")
    a = pair.a
    sup = (pair.alpha.support_lo, pair.alpha.support_hi + 1)

    def alpha_plans(n):
        t1 = FactorProduct()
        t1.times_factor(a, 0)
        t1.times_factor(b, 2 * n)
        t1.times_factor(b, 0, den=True)
        t1.times_factor(a, 4 * n, den=True)
        t2 = FactorProduct()
        t2.times_scalar(-1)
        t2.times_qpow(2 * n - 2)
        t2.times_factor(a, 0)
        t2.times_factor(b, 0, den=True)
        t2.times_factor(a, 4 * n - 4, den=True)
        # the loose factor (a q^{n-1} - b)
        gap = a.monomial().times_monomial(1, 2 * n - 2) - b.monomial()
        t2.times_series(gap)
        return [(t1, pair.alpha, n), (t2, pair.alpha, n - 1)]

    def beta_plans(n):
        fp = FactorProduct()
        fp.times_factor(b, 2 * n)
        fp.times_factor(b, 0, den=True)
        return [(fp, pair.beta, n)]

    return BaileyPair(
        a.q_shift(-2),
        _seq_from_plans(alpha_plans, sup, "general.alpha"),
        _seq_from_plans(beta_plans, (pair.beta.support_lo, pair.beta.support_hi),
                        "general.beta"),
        label=f"general(b={b})[{pair.label}]",
    )


def lattice(pair: BaileyPair, rho: QParam, sigma: QParam) -> BaileyPair:
    """The bilateral a -> a/q lattice with two free parameters: w1 at N = 1."""
    return w1(pair, 1, rho, sigma)


def new_lattice(pair: BaileyPair, rho: QParam, sigma: QParam) -> BaileyPair:
    """The q^n-twisted a -> a/q lattice with two free parameters: analog_w1 at N = 1."""
    return analog_w1(pair, 1, rho, sigma)


# ---------------------------------------------------------------------------
# a -> aq inverse lemma (unilateral input)
# ---------------------------------------------------------------------------

def _require_unilateral(pair: BaileyPair, who: str):
    if pair.alpha.support_lo < 0 or pair.beta.support_lo < 0:
        raise BadParam(f"{who} needs a unilateral input pair (support bounded below at 0)")


def lovejoy_inv(pair: BaileyPair, b: QParam) -> BaileyPair:
    """a -> aq on unilateral pairs.

    alpha'_n = (1-aq^{2n+1})/(1-aq) * (aq/b)_n/(bq)_n * (-b)^n q^C(n,2)
               * sum_{r=0..n} (b)_r/(aq/b)_r (-b)^{-r} q^{-C(r,2)} alpha_r
    beta'_n  = (1-b)/(1-bq^n) beta_n

    At b = 0 the b-dependent blocks collapse to a^n q^{n^2} and a^{-r} q^{-r^2}.
    """
    if b.is_infinite:
        raise UnsupportedLimit("b -> oo has no documented limit form here")
    _require_unilateral(pair, "lovejoy_inv")
    _require_not_one(b, "b")
    a = pair.a
    aq = a.q_shift(2)
    aq_b = aq / b if not b.is_zero else None

    def alpha_plans(n):
        outer = FactorProduct()
        outer.times_factor(a, 4 * n + 2)
        outer.times_factor(a, 2, den=True)
        outer.times_qpow(n * (n - 1))
        if b.is_zero:
            # (aq/b)_n (-b)^n / (bq)_n -> a^n q^{n(n+1)/2} as b -> 0
            outer.times_param_pow(a, n).times_qpow(n * (n + 1))
        else:
            outer.times_poch(aq_b, n)
            outer.times_poch(b.q_shift(2), n, den=True)
            outer.times_param_pow(-b, n)
        plans = []
        for r in range(0, n + 1):
            fp = outer.copy()
            if b.is_zero:
                fp.times_param_pow(a, -r).times_qpow(-2 * r * r)
            else:
                fp.times_poch(b, r)
                fp.times_poch(aq_b, r, den=True)
                fp.times_param_pow(-b, -r)
                fp.times_qpow(-r * (r - 1))
            plans.append((fp, pair.alpha, r))
        return plans

    def beta_plans(n):
        fp = FactorProduct()
        fp.times_factor(b, 0)
        fp.times_factor(b, 2 * n, den=True)
        return [(fp, pair.beta, n)]

    return BaileyPair(
        aq,
        _seq_from_plans(alpha_plans, (0, INF), "lovejoy_inv.alpha"),
        _seq_from_plans(beta_plans, (pair.beta.support_lo, pair.beta.support_hi),
                        "lovejoy_inv.beta"),
        label=f"lovejoy_inv(b={b})[{pair.label}]",
    )


# ---------------------------------------------------------------------------
# N-step lattices: a -> a q^{-N}
# ---------------------------------------------------------------------------

def f_direct(N: int, j: int, n: int, a: QParam, bs) -> Series:
    """The lattice kernel f_{N,j,n}(b_1..b_N): a finite double sum

        sum_{M,u} a^u q^{(M-j+u)(n-j+u)+u(n-N)} [M over j-u][N-M over u]
                  e_M(-b_1,...,-b_N),

    exactly zero outside 0 <= j <= N.
    """
    if N < 0:
        raise BadParam("f_direct needs N >= 0")
    if len(bs) != N:
        raise BadParam("f_direct expects %d parameters, got %d" % (N, len(bs)))
    if j < 0 or j > N:
        return Series.zero()
    if not a.is_finite:
        raise BadParam("f_direct needs a finite relative parameter")
    neg = [-b for b in bs]
    plans = []
    for M in range(0, N + 1):
        eM = esym(M, neg)
        if eM.is_zero_below_cutoff():
            continue
        for u in range(max(0, j - M), min(j, N - M) + 1):
            fp = FactorProduct().times_param_pow(a, u)
            fp.times_qpow(2 * ((M - j + u) * (n - j + u) + u * (n - N)))
            fp.times_series(qbinom(M, j - u)).times_series(qbinom(N - M, u))
            plans.append((fp.times_series(eM), None, None))
    return sum_plans(plans, INF)


def _ratio_j(a: QParam, N: int, n: int, j: int) -> FactorProduct:
    """(1 - a q^{2n-N}) (a q^{1-N})_N / (a q^{2n-N-j})_{N+1} as cancellable factors."""
    fp = FactorProduct()
    fp.times_factor(a, 2 * (2 * n - N))
    fp.times_poch(a.q_shift(2 * (1 - N)), N)
    fp.times_poch(a.q_shift(2 * (2 * n - N - j)), N + 1, den=True)
    return fp


def _lattice_fp(a: QParam, N: int, n: int, j: int, twisted: bool) -> FactorProduct:
    """The coefficient of alpha_{n-j} in the first N-lattice, ``_ratio_j`` times
    (-1)^j a^j q^{(2n-N)j-j(j+1)/2} [N over j], or in the second (twisted),
    ``_ratio_j`` times (-1)^j q^{N(n-j)+j(j-1)/2} [N over j]."""
    fp = _ratio_j(a, N, n, j)
    fp.times_scalar(sign(j))
    if twisted:
        fp.times_qpow(2 * N * (n - j) + j * (j - 1))
    else:
        fp.times_param_pow(a, j)
        fp.times_qpow(2 * (2 * n - N) * j - j * (j + 1))
    if 0 < j < N:  # [N over 0] = [N over N] = 1
        fp.times_series(qbinom(N, j))
    return fp


def nlattice(pair: BaileyPair, bs) -> BaileyPair:
    """a -> a q^{-N} with N parameters b_1..b_N through the f kernel.

    alpha'_n = (1-aq^{2n-N})(aq^{1-N})_N / prod(1-b_i)
               * sum_j (-1)^j q^{jn-j(j+1)/2} f_{N,j,n}(b) / (aq^{2n-N-j})_{N+1}
                 alpha_{n-j}
    beta'_n  = prod_i (1-b_i q^n)/(1-b_i) beta_n
    """
    bs = list(bs)
    N = len(bs)
    a = pair.a
    for b in bs:
        if b.is_infinite:
            raise UnsupportedLimit(
                "b -> oo in the N-lattice is only a normalized limit; use nlattice2")
        _require_not_one(b, "b_i")
    kernels = {}

    def kern(N_, j, n):
        key = (j, n)
        if key not in kernels:
            kernels[key] = f_direct(N_, j, n, a, bs)
        return kernels[key]

    def alpha_plans(n):
        plans = []
        for j in range(0, N + 1):
            f = kern(N, j, n)
            if f.is_zero_below_cutoff():
                continue
            fp = _ratio_j(a, N, n, j)
            fp.times_scalar(sign(j))
            fp.times_qpow(2 * j * n - j * (j + 1))
            for b in bs:
                fp.times_factor(b, 0, den=True)
            fp.times_series(f)
            plans.append((fp, pair.alpha, n - j))
        return plans

    def beta_plans(n):
        fp = FactorProduct()
        for b in bs:
            fp.times_factor(b, 2 * n)
            fp.times_factor(b, 0, den=True)
        return [(fp, pair.beta, n)]

    return BaileyPair(
        a.q_shift(-2 * N),
        _seq_from_plans(alpha_plans,
                        (pair.alpha.support_lo, pair.alpha.support_hi + N),
                        "nlattice.alpha"),
        _seq_from_plans(beta_plans, (pair.beta.support_lo, pair.beta.support_hi),
                        "nlattice.beta"),
        label=f"nlattice({', '.join(str(b) for b in bs)})[{pair.label}]",
    )


def nlattice1(pair: BaileyPair, N: int) -> BaileyPair:
    """The all-b=0 N-lattice:

    alpha'_n = (1-aq^{2n-N})(aq^{1-N})_N
               sum_j (-1)^j a^j q^{(2n-N)j-j(j+1)/2} [N over j]
               / (aq^{2n-N-j})_{N+1} alpha_{n-j};   beta' = beta.
    """
    if N < 0:
        raise BadParam("nlattice1 needs N >= 0")
    a = pair.a

    def alpha_plans(n):
        return [(_lattice_fp(a, N, n, j, False), pair.alpha, n - j) for j in range(N + 1)]

    return BaileyPair(
        a.q_shift(-2 * N),
        _seq_from_plans(alpha_plans,
                        (pair.alpha.support_lo, pair.alpha.support_hi + N),
                        "nlattice1.alpha"),
        pair.beta,
        label=f"nlattice1(N={N})[{pair.label}]",
    )


def nlattice2(pair: BaileyPair, N: int) -> BaileyPair:
    """The normalized all-b->oo N-lattice:

    alpha'_n = (1-aq^{2n-N})(aq^{1-N})_N
               sum_j (-1)^j q^{N(n-j)+j(j-1)/2} [N over j]
               / (aq^{2n-N-j})_{N+1} alpha_{n-j};   beta'_n = q^{nN} beta_n.
    """
    if N < 0:
        raise BadParam("nlattice2 needs N >= 0")
    a = pair.a

    def alpha_plans(n):
        return [(_lattice_fp(a, N, n, j, True), pair.alpha, n - j) for j in range(N + 1)]

    def beta(n, c):
        return pair.beta(n, c - 2 * n * N).times_monomial(1, 2 * n * N)

    return BaileyPair(
        a.q_shift(-2 * N),
        _seq_from_plans(alpha_plans,
                        (pair.alpha.support_lo, pair.alpha.support_hi + N),
                        "nlattice2.alpha"),
        BilateralSequence(beta, lambda n: pair.beta.val_bound(n) + 2 * n * N,
                          (pair.beta.support_lo, pair.beta.support_hi),
                          name="nlattice2.beta"),
        label=f"nlattice2(N={N})[{pair.label}]",
    )


# ---------------------------------------------------------------------------
# N-lattice / Bailey-lemma combinations (Warnaar style and the analogues)
# ---------------------------------------------------------------------------

def _w_like(pair: BaileyPair, N: int, rho: QParam, sigma: QParam,
            lattice_first: bool, twisted: bool, label: str) -> BaileyPair:
    """Shared shape of the four N-lattice/lemma combination theorems.

    lattice_first: the lemma parameters attach at a q^{-N} (outer alpha factor,
    beta sum over the source beta); otherwise they attach at a inside the
    j-sum.  twisted selects the q^{N(n-j)+C(j,2)} kernel and the q^{jN} / q^{nN}
    beta weights of the second lattice.
    """
    if N < 0:
        raise BadParam("N must be >= 0")
    a = pair.a

    def core_fp(n, j):
        return _lattice_fp(a, N, n, j, twisted)

    if lattice_first:
        am = a.q_shift(2 * (1 - N))  # a q^{1-N}: the lemma runs at a q^{-N}

        def alpha_plans(n):
            outer = _lemma_alpha(FactorProduct(), am, rho, sigma, n)
            return [(core_fp(n, j).times(outer), pair.alpha, n - j) for j in range(N + 1)]

        beta_seq = _lemma_beta(pair, am, rho, sigma,
                               (lambda n, j: 2 * j * N) if twisted else _no_twist,
                               label + ".beta")
    else:
        aq = a.q_shift(2)

        def alpha_plans(n):
            return [(_lemma_alpha(core_fp(n, j), aq, rho, sigma, n - j), pair.alpha, n - j)
                    for j in range(N + 1)]

        beta_seq = _lemma_beta(pair, aq, rho, sigma,
                               (lambda n, j: 2 * n * N) if twisted else _no_twist,
                               label + ".beta")

    return BaileyPair(
        a.q_shift(-2 * N),
        _seq_from_plans(alpha_plans,
                        (pair.alpha.support_lo, pair.alpha.support_hi + N),
                        label + ".alpha"),
        beta_seq,
        label=f"{label}(N={N}, rho={rho}, sigma={sigma})[{pair.label}]",
    )


def w1(pair, N, rho, sigma):
    """First N-lattice followed by the Bailey lemma at a q^{-N}."""
    return _w_like(pair, N, rho, sigma, lattice_first=True, twisted=False, label="w1")


def w2(pair, N, rho, sigma):
    """Bailey lemma at a followed by the first N-lattice."""
    return _w_like(pair, N, rho, sigma, lattice_first=False, twisted=False, label="w2")


def analog_w1(pair, N, rho, sigma):
    """Second N-lattice followed by the Bailey lemma at a q^{-N}."""
    return _w_like(pair, N, rho, sigma, lattice_first=True, twisted=True, label="analog_w1")


def analog_w2(pair, N, rho, sigma):
    """Bailey lemma at a followed by the second N-lattice."""
    return _w_like(pair, N, rho, sigma, lattice_first=False, twisted=True, label="analog_w2")


# ---------------------------------------------------------------------------
# change of base q -> q^2
# ---------------------------------------------------------------------------

def _sqrt_fraction(c: Fraction):
    num, den = c.numerator, c.denominator
    if num < 0:
        return None
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _doubled(pair: BaileyPair):
    """The input pair with q -> q^2 substituted into all series.

    The substituted pair represents the source at (a^2, q^2) -- valid exactly
    when the doubled relative parameter is the square of a rational monomial,
    which is checked by the caller.
    """
    def wrap(seq, name):
        def ev(n, c):
            half = c // 2 + (c % 2)
            return seq(n, half).scale_exponents(2)

        return BilateralSequence(ev, lambda n: 2 * seq.val_bound(n),
                                 (seq.support_lo, seq.support_hi), name=name)

    return wrap(pair.alpha, "doubled.alpha"), wrap(pair.beta, "doubled.beta")


def _rebased_a(pair: BaileyPair) -> QParam:
    a = pair.a
    if not a.is_finite:
        raise BadParam("change of base needs a finite relative parameter")
    root = _sqrt_fraction(a.coeff)
    if root is None:
        raise BadParam(
            f"change of base needs a relative parameter with a rational square "
            f"root of its coefficient; got {a}")
    return QParam.finite(root, a.halves)


def change_base_b(pair: BaileyPair, b: QParam) -> BaileyPair:
    """Base-doubling transform with one free parameter b.

    alpha'_n = (-b)_n/(-aq/b)_n (1+a)/(1+aq^{2n}) b^{-n} q^{n-C(n,2)} A_n
    beta'_n  = sum_{j<=n} (-a)_{2j} (b^2;q^2)_j (q^{1-j}/b, b q^j)_{n-j}
               / ((b, -aq/b)_n (q^2;q^2)_{n-j}) b^{-j} q^{j-C(j,2)} B_j

    where (A, B) is the source pair with q -> q^2 substituted.
    """
    if b.is_infinite:
        return change_base_d4(pair)
    if b.is_zero:
        raise BadParam("change_base_b needs a nonzero parameter")
    a = _rebased_a(pair)
    alpha2, beta2 = _doubled(pair)
    aq_b = -(a.q_shift(2) / b)
    q2 = QParam.finite(1, 4)
    lo = _finite_beta_lo(pair)

    def alpha_plans(n):
        fp = FactorProduct()
        fp.times_poch(-b, n)
        fp.times_poch(aq_b, n, den=True)
        fp.times_factor(-a, 0)
        fp.times_factor(-a, 4 * n, den=True)
        fp.times_param_pow(b, -n)
        fp.times_qpow(2 * n - n * (n - 1))
        return [(fp, alpha2, n)]

    def beta_plans(n):
        plans = []
        for j in range(lo, min(n, int(min(beta2.support_hi, n))) + 1):
            fp = FactorProduct()
            fp.times_poch(-a, 2 * j)
            fp.times_poch(b * b, j, base=4)
            fp.times_poch(QParam.finite(1, 2 - 2 * j) / b, n - j)
            fp.times_poch(b.q_shift(2 * j), n - j)
            fp.times_poch(b, n, den=True)
            fp.times_poch(aq_b, n, den=True)
            fp.times_poch(q2, n - j, base=4, den=True)
            fp.times_param_pow(b, -j)
            fp.times_qpow(2 * j - j * (j - 1))
            plans.append((fp, beta2, j))
        return plans

    return BaileyPair(
        a,
        _seq_from_plans(alpha_plans, (pair.alpha.support_lo, pair.alpha.support_hi),
                        "change_base_b.alpha"),
        _seq_from_plans(beta_plans, (lo, INF), "change_base_b.beta"),
        label=f"change_base_b(b={b})[{pair.label}]",
    )


def change_base_d4(pair: BaileyPair) -> BaileyPair:
    """The b -> oo limit of change_base_b:

    alpha'_n = (1+a)/(1+aq^{2n}) q^n A_n;
    beta'_n  = sum_{j<=n} (-a)_{2j}/(q^2;q^2)_{n-j} q^j B_j.
    """
    a = _rebased_a(pair)
    alpha2, beta2 = _doubled(pair)
    q2 = QParam.finite(1, 4)
    lo = _finite_beta_lo(pair)

    def alpha_plans(n):
        fp = FactorProduct()
        fp.times_factor(-a, 0)
        fp.times_factor(-a, 4 * n, den=True)
        fp.times_qpow(2 * n)
        return [(fp, alpha2, n)]

    def beta_plans(n):
        plans = []
        for j in range(lo, min(n, int(min(beta2.support_hi, n))) + 1):
            fp = FactorProduct()
            fp.times_poch(-a, 2 * j)
            fp.times_poch(q2, n - j, base=4, den=True)
            fp.times_qpow(2 * j)
            plans.append((fp, beta2, j))
        return plans

    return BaileyPair(
        a,
        _seq_from_plans(alpha_plans, (pair.alpha.support_lo, pair.alpha.support_hi),
                        "change_base_d4.alpha"),
        _seq_from_plans(beta_plans, (lo, INF), "change_base_d4.beta"),
        label=f"change_base_d4[{pair.label}]",
    )


def change_base_d1(pair: BaileyPair) -> BaileyPair:
    """Base-doubling with alpha carried over unchanged:

    alpha'_n = A_n;   beta'_n = sum_{j<=n} (-aq)_{2j}/(q^2;q^2)_{n-j} q^{n-j} B_j.
    """
    a = _rebased_a(pair)
    alpha2, beta2 = _doubled(pair)
    q2 = QParam.finite(1, 4)
    lo = _finite_beta_lo(pair)

    def beta_plans(n):
        plans = []
        for j in range(lo, min(n, int(min(beta2.support_hi, n))) + 1):
            fp = FactorProduct()
            fp.times_poch(-a.q_shift(2), 2 * j)
            fp.times_poch(q2, n - j, base=4, den=True)
            fp.times_qpow(2 * (n - j))
            plans.append((fp, beta2, j))
        return plans

    return BaileyPair(
        a,
        alpha2,
        _seq_from_plans(beta_plans, (lo, INF), "change_base_d1.beta"),
        label=f"change_base_d1[{pair.label}]",
    )


# ---------------------------------------------------------------------------
# a -> a q^N lift with nested sums (unilateral input)
# ---------------------------------------------------------------------------

def lovejoy_lift(pair: BaileyPair, bs) -> BaileyPair:
    """N-parameter a -> a q^N lift on unilateral pairs (nested-sum alpha).

    beta'_n = prod_i (1-b_i)/(1-b_i q^n) beta_n; alpha'_n carries the outer
    (1-aq^{2n+N})(aq^N/b_N)_n(-b_N)^n q^C(n,2) / ((1-aq^N)(b_N q)_n) block and
    a depth-first sum over n >= n_N >= ... >= n_1 >= 0.
    """
    bs = list(bs)
    N = len(bs)
    if N < 1:
        raise BadParam("lovejoy_lift needs at least one parameter")
    for b in bs:
        if not b.is_finite:
            raise UnsupportedLimit("lovejoy_lift parameters must be finite and nonzero")
        _require_not_one(b, "b_i")
    _require_unilateral(pair, "lovejoy_lift")
    a = pair.a

    def chains(depth, top):
        # all (n_1, ..., n_depth) with top >= n_depth >= ... >= n_1 >= 0
        if depth == 0:
            yield ()
            return
        for nk in range(0, top + 1):
            for rest in chains(depth - 1, nk):
                yield rest + (nk,)

    def alpha_plans(n):
        outer = FactorProduct()
        outer.times_factor(a, 4 * n + 2 * N)
        outer.times_factor(a, 2 * N, den=True)
        outer.times_poch(a.q_shift(2 * N) / bs[N - 1], n)
        outer.times_poch(bs[N - 1].q_shift(2), n, den=True)
        outer.times_param_pow(-bs[N - 1], n)
        outer.times_qpow(n * (n - 1))
        plans = []
        for ch in chains(N, n):
            fp = outer.copy()
            for k in range(2, N + 1):
                nk = ch[k - 1]
                fp.times_factor(a, 4 * nk + 2 * (k - 1))
                fp.times_factor(a, 2 * (k - 1), den=True)
                fp.times_poch(a.q_shift(2 * (k - 1)) / bs[k - 2], nk)
                fp.times_poch(bs[k - 2].q_shift(2), nk, den=True)
            for k in range(1, N + 1):
                fp.times_poch(a.q_shift(2 * k) / bs[k - 1], ch[k - 1], den=True)
                fp.times_poch(bs[k - 1], ch[k - 1])
            for k in range(1, N):
                fp.times_param_pow(bs[k - 1], ch[k] - ch[k - 1])
            fp.times_param_pow(bs[N - 1], -ch[N - 1])
            n1 = ch[0]
            fp.times_scalar(sign(n1))
            fp.times_qpow(-n1 * (n1 - 1))
            plans.append((fp, pair.alpha, n1))
        return plans

    def beta_plans(n):
        fp = FactorProduct()
        for b in bs:
            fp.times_factor(b, 0)
            fp.times_factor(b, 2 * n, den=True)
        return [(fp, pair.beta, n)]

    return BaileyPair(
        a.q_shift(2 * N),
        _seq_from_plans(alpha_plans, (0, INF), "lovejoy_lift.alpha"),
        _seq_from_plans(beta_plans, (pair.beta.support_lo, pair.beta.support_hi),
                        "lovejoy_lift.beta"),
        label=f"lovejoy_lift({', '.join(str(b) for b in bs)})[{pair.label}]",
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformDescriptor:
    name: str
    summary: str
    params: tuple  # (name, kind) with kind in {"qparam", "qparam_list", "int"}
    rel_effect: str
    apply: object

    def to_json(self):
        return {
            "id": self.name,
            "summary": self.summary,
            "params": [{"name": n, "kind": k} for n, k in self.params],
            "relative_parameter": self.rel_effect,
        }


REGISTRY = {
    d.name: d for d in [
        TransformDescriptor("bailey_lemma", "two-parameter chain step", (
            ("rho", "qparam"), ("sigma", "qparam")), "a", bailey_lemma),
        TransformDescriptor("key1", "a -> a/q, beta unchanged", (), "a/q", key1),
        TransformDescriptor("key2", "a -> a/q, beta gains q^n", (), "a/q", key2),
        TransformDescriptor("general", "one-parameter a -> a/q lemma", (
            ("b", "qparam"),), "a/q", general),
        TransformDescriptor("lattice", "two-parameter a -> a/q lattice", (
            ("rho", "qparam"), ("sigma", "qparam")), "a/q", lattice),
        TransformDescriptor("new_lattice", "twisted two-parameter a -> a/q lattice", (
            ("rho", "qparam"), ("sigma", "qparam")), "a/q", new_lattice),
        TransformDescriptor("lovejoy_inv", "a -> aq inverse lemma (unilateral)", (
            ("b", "qparam"),), "a*q", lovejoy_inv),
        TransformDescriptor("nlattice", "N-parameter a -> a q^-N lattice", (
            ("bs", "qparam_list"),), "a*q^-N", nlattice),
        TransformDescriptor("nlattice1", "first N-lattice (all b=0)", (
            ("N", "int"),), "a*q^-N", nlattice1),
        TransformDescriptor("nlattice2", "second N-lattice (normalized b->oo)", (
            ("N", "int"),), "a*q^-N", nlattice2),
        TransformDescriptor("w1", "N-lattice then lemma", (
            ("N", "int"), ("rho", "qparam"), ("sigma", "qparam")), "a*q^-N", w1),
        TransformDescriptor("w2", "lemma then N-lattice", (
            ("N", "int"), ("rho", "qparam"), ("sigma", "qparam")), "a*q^-N", w2),
        TransformDescriptor("analog_w1", "second N-lattice then lemma", (
            ("N", "int"), ("rho", "qparam"), ("sigma", "qparam")), "a*q^-N", analog_w1),
        TransformDescriptor("analog_w2", "lemma then second N-lattice", (
            ("N", "int"), ("rho", "qparam"), ("sigma", "qparam")), "a*q^-N", analog_w2),
        TransformDescriptor("change_base_b", "base doubling with parameter b", (
            ("b", "qparam"),), "sqrt-rebase", change_base_b),
        TransformDescriptor("change_base_d4", "base doubling, b->oo form", (),
                            "sqrt-rebase", change_base_d4),
        TransformDescriptor("change_base_d1", "base doubling, alpha-invariant form", (),
                            "sqrt-rebase", change_base_d1),
        TransformDescriptor("lovejoy_lift", "N-parameter a -> a q^N lift", (
            ("bs", "qparam_list"),), "a*q^N", lovejoy_lift),
    ]
}


def apply_transform(name: str, pair: BaileyPair, **params) -> BaileyPair:
    """Apply a registered transform by name."""
    try:
        desc = REGISTRY[name]
    except KeyError:
        raise BadParam(f"unknown transform {name!r}; choose from {sorted(REGISTRY)}")
    return desc.apply(pair, **params)
