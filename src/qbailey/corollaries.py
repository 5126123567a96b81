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

The other sums describe each term as a plan (fp, alpha, j) or
(fp, beta, s_r), a factor product times a sequence value: the finite ones
go to ``qfunctions.sum_plans``, the bilateral ones to
``qfunctions.truncated_sum``, whose heuristic stop rule reads each term's
floor off its plans.
"""

from __future__ import annotations

from .errors import BadParam, PoleError, TruncationUnreachable
from .qparams import Q, QParam
from .qfunctions import FactorProduct, fp_pp, poch_val, sign, sum_plans, truncated_sum
from .multisum import MultisumSpec, multisum_eval
from .pairs import BaileyPair, VerifyReport, _compare_on_window
from .series import INF, Series


def _geom(a: QParam, j: int, top: int) -> Series:
    """G_top(aq^{2j}) = sum_{k=0..top} (a q^{2j})^k; zero series for top < 0."""
    out = Series.zero()
    for k in range(0, top + 1):
        out = out + a.monomial(k).times_monomial(1, 4 * j * k)
    return out


def _bilateral_alpha_sum(pair, coeff_fp_fn, cutoff, label):
    """sum_j coeff(j) * alpha_j over alpha's support, run upward from
    j = max(0, lo) and downward from j = min(-1, hi) into one sum.

    coeff_fp_fn(j) returns a FactorProduct.  Each direction stops by
    ``qfunctions.truncated_sum``'s rule, which is a heuristic (see there).
    """
    alpha = pair.alpha
    lo, hi = alpha.support_lo, alpha.support_hi
    return truncated_sum([(max(0, lo), 1, hi), (min(-1, hi), -1, lo)],
                         lambda j: [(coeff_fp_fn(j), alpha, j)],
                         cutoff, f"{label}: bilateral sum did not truncate")


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
    return _compare_on_window(n, n, cutoff, lambda _: [(lhs, rhs, "")])


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

    plans = []
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
            plans.append((fp, beta, chain[-1]))
            return
        hi = prev
        if d == r:
            hi = min(hi, int(min(beta.support_hi, prev)))
        for s in range(lo, hi + 1):
            rec(d + 1, s, chain + [s])

    rec(1, n, [])
    return sum_plans(plans, cutoff)


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
        if poch_val(a, n + j)[1] == "pole":
            return []  # 1/(a)_{n+j} = 0 here and for every smaller j
        out = []
        for idx, jj in enumerate((j, j - 1)):
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
            out.append((fp, alpha, jj))
        return out

    if twisted:
        # alpha_0/((q)_n (a)_n) + sum_{j=1..n} ...
        fp0 = FactorProduct()
        fp0.times_poch(Q, n, den=True)
        fp0.times_poch(a, n, den=True)
        return sum_plans([(fp0, alpha, 0)] + [p for j in range(1, n + 1) for p in plans(j)],
                         cutoff)

    return truncated_sum([(min(n, alpha.support_hi + 1), -1, alpha.support_lo)], plans,
                         cutoff, "finite-n rhs did not truncate")
