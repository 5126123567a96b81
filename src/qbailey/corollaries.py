"""Chain/lattice corollaries: the multisum-to-bilateral-sum identities.

``corollary_sum`` evaluates both sides of the limiting (n -> oo) identities
that turn a bilateral Bailey pair into a nested multisum equal to a weighted
bilateral sum over alpha:

  plain:  sum_{s_1>=...>=s_r} a^{s_1+..+s_r} q^{s_1^2+..+s_r^2 - s_1-..-s_i}
              beta_{s_r} / ((q)_{s_1-s_2}...(q)_{s_{r-1}-s_r})
          = 1/(aq)_oo sum_j a^{rj} q^{rj^2-ij} [sum_{k<=i} (aq^{2j})^k] alpha_j

  bc:     the two-parameter refinement with (b)_{s_1}, (c)_{s_r} insertions
          and the j-coefficient written in the divided, pole-free form
          [b G_i(X) - q^{-j} X G_{i-1}(X)] / (b - aq^j), X = aq^{2j},
          G_t(X) = 1 + X + ... + X^t.

The geometric forms are what the paper reaches after expanding
(1-a^{i+1}q^{2j(i+1)})/(1-aq^{2j}); they are polynomial in the parameters, so
the specializations a = q^m evaluate without removable 0/0s.

``finite_n_check`` evaluates the finite-n nested-sum identities (the chain
with i lattice-side steps, classical and q-twisted variants) at a single n.

The other sums add each term, a factor product times alpha_j or beta_{s_r},
to one ``DenseSum`` as the kernel left it (``BilateralSequence.part``); the
bilateral ones stop by ``qfunctions.truncated_sum``'s heuristic rule.
"""

from __future__ import annotations

from .errors import BadParam, PoleError, TruncationUnreachable
from .qparams import Q, QParam
from .qfunctions import DenseSum, FactorProduct, fp_pp, poch_val, sign, truncated_sum
from .multisum import MultisumSpec, multisum_eval
from .pairs import BaileyPair, VerifyReport
from .series import INF, Series, first_diff


def _geom(a: QParam, j: int, top: int) -> Series:
    """G_top(aq^{2j}) = sum_{k=0..top} (a q^{2j})^k; zero series for top < 0."""
    out = Series.zero()
    for k in range(0, top + 1):
        out = out + a.monomial(k).times_monomial(1, 4 * j * k)
    return out


def _bilateral_alpha_sum(pair, coeff_fp_fn, cutoff, label):
    """sum_j coeff(j) * alpha_j, run upward from j = 0 and downward from j = -1
    into one sum.

    coeff_fp_fn(j) returns a FactorProduct.  Each direction stops by
    ``qfunctions.truncated_sum``'s rule, which is a heuristic (see there).
    """
    alpha = pair.alpha

    def at(j):
        fp = coeff_fp_fn(j)
        return fp.val_bound() + alpha.val_bound(j), lambda: [alpha.part(fp, j, cutoff)]

    return truncated_sum([(0, 1, alpha.support_hi), (-1, -1, alpha.support_lo)], at,
                         cutoff, f"{label}: bilateral sum did not truncate").truncate(cutoff)


def corollary_sum(pair: BaileyPair, r: int, i: int, variant, cutoff):
    """Both sides of the r-fold chain corollary; variant 'plain' or ('bc', b, c).

    Returns (lhs, rhs), each exact below the cutoff.
    """
    if r < 1:
        raise BadParam("corollary needs r >= 1")
    if not (0 <= i <= r):
        raise BadParam("corollary needs 0 <= i <= r")
    if variant == "plain":
        b = c = None
        bc = False
    else:
        tag, b, c = variant
        if tag != "bc":
            raise BadParam(f"unknown corollary variant {variant!r}")
        if r < 2:
            raise BadParam("the bc variant needs r >= 2")
        if b is not None and b.is_zero or c is not None and c.is_zero:
            raise BadParam("bc variant needs nonzero b and c")
        bc = True
    a = pair.a
    lhs = _corollary_lhs(pair, r, i, b, c, cutoff, bc)
    rhs = _corollary_rhs(pair, r, i, b, c, cutoff, bc)
    return lhs, rhs


def _corollary_lhs(pair, r, i, b, c, cutoff, bc):
    a = pair.a
    beta = pair.beta
    lb = beta.support_lo
    if lb == -INF:
        raise TruncationUnreachable("corollary needs beta with finite lower support")
    lb = int(lb)
    last_hi = beta.support_hi

    # the 1/(aq/c)_{s_{r-1}} factor of the bc variant, when c is finite
    aq_c = a.q_shift(2) / c if bc and c is not None and c.is_finite else None

    def level(fp, d, s):
        fp.times_param_pow(a, s)
        if bc and (d == 1 or d == r):
            fp.times_qpow(s * s + s - 2 * s * (1 if d <= i else 0))
            fp.times_scalar(sign(s))
            p = b if d == 1 else c
            fp_pp(fp, p if p is not None else QParam.infinity(), s)
        else:
            fp.times_qpow(2 * s * s - 2 * s * (1 if d <= i else 0))
        if aq_c is not None and d == r - 1:
            fp.times_poch(aq_c, s, den=True)

    def link(fp, d, k):
        fp.times_poch(Q, k, den=True)

    spec = MultisumSpec(depth=r, lower_bound=lb, level=level, link=link,
                        last_upper=None if last_hi == INF else int(last_hi), seed=beta)
    return multisum_eval(spec, cutoff)


def _corollary_rhs(pair, r, i, b, c, cutoff, bc):
    a = pair.a
    aq = a.q_shift(2)
    pre = FactorProduct().times_poch(aq, INF, den=True)

    if not bc:
        def coeff(j):
            fp = FactorProduct()
            fp.times_param_pow(a, r * j)
            fp.times_qpow(2 * r * j * j - 2 * i * j)
            fp.times_series(_geom(a, j, i))
            return fp
    else:
        a_b = (a / b) if b is not None else QParam.zero()
        aq_c = (aq / c) if c is not None else QParam.zero()

        def coeff(j):
            fp = FactorProduct()
            fp.times_param_pow(a, r * j)
            fp.times_qpow(2 * (r - 1) * j * j - 2 * i * j + 2 * j)
            fp_pp(fp, b if b is not None else QParam.infinity(), j)
            fp_pp(fp, c if c is not None else QParam.infinity(), j)
            fp.times_poch(a_b, j, den=True)
            fp.times_poch(aq_c, j, den=True)
            if b is not None and b.is_finite:
                # [b G_i(X) - q^{-j} X G_{i-1}(X)] / (b - aq^j), X = aq^{2j}
                num = b.monomial() * _geom(a, j, i) \
                    - a.monomial().times_monomial(1, 2 * j) * _geom(a, j, i - 1)
                den = b.monomial() - a.monomial().times_monomial(1, 2 * j)
                if den.is_zero_below_cutoff():
                    raise PoleError(f"b collides with aq^{j}")
                if num.is_zero_below_cutoff():
                    fp.times_scalar(0)
                else:
                    fp.times_series(num)
                    fp.times_param_pow(b, -1).times_factor(a / b, 2 * j, den=True)
            else:
                fp.times_series(_geom(a, j, i))
            return fp

        pre.times_poch(a_b, INF)

    return pre.series_times(
        lambda cc: _bilateral_alpha_sum(pair, coeff, cc, "corollary rhs"), cutoff)


# ---------------------------------------------------------------------------
# finite-n chain theorems
# ---------------------------------------------------------------------------

def finite_n_check(theorem: str, pair: BaileyPair, r: int, i: int, n: int,
                   rhos, sigmas, cutoff: int) -> VerifyReport:
    """Evaluate both sides of a finite-n chain theorem at a single n.

    theorem "Thm2_1": the bilateral chain with i lattice-side steps
    (n in Z, bilateral pair); "Thm4_2": the q-twisted unilateral version
    (n >= 0).  rhos and sigmas are length-r parameter lists; infinite
    entries select the documented limit forms.
    """
    if theorem not in ("Thm2_1", "Thm4_2"):
        raise BadParam(f"unknown finite-n theorem {theorem!r}")
    twisted = theorem == "Thm4_2"
    if not (0 <= i <= r) or r < 1:
        raise BadParam("needs integers 1 <= r and 0 <= i <= r")
    if len(rhos) != r or len(sigmas) != r:
        raise BadParam(f"needs r = {r} rho and sigma parameters")
    if twisted and n < 0:
        raise BadParam("the unilateral theorem needs n >= 0")
    lhs = _finite_n_lhs(pair, r, i, n, rhos, sigmas, cutoff, twisted)
    rhs = _finite_n_rhs(pair, r, i, n, rhos, sigmas, cutoff, twisted)
    order, diff = first_diff(lhs, rhs, cutoff)
    if diff is None:
        return VerifyReport(order >= cutoff, n, n, cutoff, order)
    e, cl, cr = diff
    return VerifyReport(False, n, n, cutoff, order,
                        {"n": n, "exponent_halves": e,
                         "lhs_coeff": cl, "rhs_coeff": cr})


def _finite_n_lhs(pair, r, i, n, rhos, sigmas, cutoff, twisted):
    a = pair.a
    aq = a.q_shift(2)
    beta = pair.beta
    lo = beta.support_lo
    if lo == -INF:
        raise TruncationUnreachable("finite-n check needs beta with finite lower support")
    lo = int(lo) if not twisted else max(int(lo), 0)
    if lo > n:
        return Series.zero(cutoff)

    def blocks(fp, chain):
        s_prev = n
        for d in range(1, r + 1):
            s = chain[d - 1]
            rd, sd = rhos[d - 1], sigmas[d - 1]
            fp_pp(fp, rd, s)
            fp_pp(fp, sd, s)
            if d <= i:
                fp.times_poch((a / rd) / sd, s_prev - s)
                fp.times_poch(a / rd, s_prev, den=True)
                fp.times_poch(a / sd, s_prev, den=True)
            else:
                fp.times_poch((aq / rd) / sd, s_prev - s)
                fp.times_poch(aq / rd, s_prev, den=True)
                fp.times_poch(aq / sd, s_prev, den=True)
            fp.times_poch(Q, s_prev - s, den=True)
            s_prev = s

    total = DenseSum(cutoff)
    # chains n >= s_1 >= ... >= s_r >= lo: a finite box
    def rec(d, prev, chain):
        if d > r:
            fp = FactorProduct()
            fp.times_param_pow(a, sum(chain))
            if twisted:
                expo = sum(chain[dd - 1] for dd in range(max(i, 1), r + 1))
                if i == 0:
                    expo += n  # the s_0 = n convention of the twisted chain
            else:
                expo = sum(chain[dd - 1] for dd in range(i + 1, r + 1))
            fp.times_qpow(2 * expo)
            blocks(fp, chain)
            total.add(*beta.part(fp, chain[-1], cutoff))
            return
        hi = prev
        if d == r:
            hi = min(hi, int(min(beta.support_hi, prev)))
        for s in range(lo, hi + 1):
            rec(d + 1, s, chain + [s])

    rec(1, n, [])
    return total.series()


def _finite_n_rhs(pair, r, i, n, rhos, sigmas, cutoff, twisted):
    a = pair.a
    aq = a.q_shift(2)
    alpha = pair.alpha

    def lattice_block(fp, j):
        for d in range(1, i + 1):
            rd, sd = rhos[d - 1], sigmas[d - 1]
            fp_pp(fp, rd, j)
            fp_pp(fp, sd, j)
            fp.times_poch(a / rd, j, den=True)
            fp.times_poch(a / sd, j, den=True)
        fp.times_param_pow(a, i * j)

    def chain_factor(fp, j):
        # the alpha-side product at index j, with (aq)^{(r-i)j} weights
        for d in range(i + 1, r + 1):
            rd, sd = rhos[d - 1], sigmas[d - 1]
            fp_pp(fp, rd, j)
            fp_pp(fp, sd, j)
            fp.times_poch(aq / rd, j, den=True)
            fp.times_poch(aq / sd, j, den=True)
        fp.times_param_pow(aq, (r - i) * j)

    def plans(j):
        out = []
        for idx, (jj, extra) in enumerate(((j, "first"), (j - 1, "second"))):
            fp = FactorProduct()
            fp.times_scalar(1 if idx == 0 else -1)
            lattice_block(fp, j)
            fp.times_factor(a, 0)
            fp.times_poch(a, n + j, den=True)
            fp.times_poch(Q, n - j, den=True)
            chain_factor(fp, jj)
            fp.times_factor(a, 4 * jj, den=True)
            if twisted:
                fp.times_qpow(2 * jj)
            elif idx == 1:
                fp.times_param_pow(a, 1)
                fp.times_qpow(4 * j - 4)
            out.append((fp, jj))
        return out

    if twisted:
        # alpha_0/((q)_n (a)_n) + sum_{j=1..n} ...
        fp0 = FactorProduct()
        fp0.times_poch(Q, n, den=True)
        fp0.times_poch(a, n, den=True)
        total = DenseSum(cutoff)
        total.add(*alpha.part(fp0, 0, cutoff))
        for j in range(1, n + 1):
            for fp, jj in plans(j):
                total.add(*alpha.part(fp, jj, cutoff))
        return total.series()

    def at(j):
        _, kind = poch_val(a, n + j)
        if kind == "pole":
            return INF, None  # 1/(a)_{n+j} = 0 here and for every smaller j
        got = plans(j)
        return (min(fp.val_bound() + alpha.val_bound(jj) for fp, jj in got),
                lambda: [alpha.part(fp, jj, cutoff) for fp, jj in got])

    return truncated_sum([(min(n, alpha.support_hi + 1), -1, alpha.support_lo)], at,
                         cutoff, "finite-n rhs did not truncate").truncate(cutoff)
