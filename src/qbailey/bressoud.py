"""The multi-parameter Bressoud master identity (Agarwal-Andrews-Bressoud).

The master identity equates a (k-1)-fold multisum with paired parameter
insertions (b_d, b_{2r+1-d}) at levels d = 2..r against a single j-sum with
a (2r-1)-parameter correction bracket.  Trailing b parameters may be
infinite, which lowers the effective number of insertions.  The r = k
boundary case is admitted with both c parameters infinite, or with the
level-k pair (b_k, b_{k+1}) infinite.

The catalog's lattice-route identities are parameter maps onto it, and
evaluate through ``bressoud_lhs``/``bressoud_rhs``:

    lambda1(r, i; a, b1, c1, c2)   = master(k=r, r=i; a, c1, c2;
                                            bs=[b1] + [oo]*(2i-2))
    newlattice3(r, i; a, rho1, rho, sigma, rhos, sigmas)
                                   = master(k=r, r=i; a, rho, sigma;
                                            bs=[rho1] + rhos + reversed(sigmas))
    lattice3(same parameters)      = master(k=r, r=i+1; a, rho, sigma;
                                            bs=[rho1] + rhos + [oo, oo]
                                               + reversed(sigmas))

so the pair at level d is (rho_d, sigma_d), and lattice3's extra level
carries an infinite pair.  lambda1 at i = r and lattice3 at i = r-1 are
r = k cases with an infinite level-k pair.

``bressoud_F``/``bressoud_G`` are the raw function forms (the j-sum dressed
with its (a/b_t)_oo normalization, and the multisum written with
(q^{1-s}/b)_s insertions and per-chain infinite tails); their equality is an
independent route through the same identity.
"""

from __future__ import annotations

from .errors import BadParam, PoleError
from .qparams import Q, QParam
from .qfunctions import FactorProduct, fp_pp, poch_val, sign
from .multisum import MultisumSpec, multisum_eval
from .series import INF, Series, truncated_sum


def _pp_floor(p: QParam, s: int):
    """Certified valuation (halves) of (p)_s / p^s; (-1)^s q^C(s,2) at p = oo."""
    if p.is_infinite:
        return s * (s - 1)
    v, kind = poch_val(p, s)
    if kind == "zero":
        return INF
    if kind == "pole":
        raise PoleError(f"({p})_{s} pole")
    return v - s * p.halves


def _recip_floor(p: QParam, s: int):
    if p.is_zero:
        return 0
    v, kind = poch_val(p, s)
    if kind == "pole":
        return INF  # the reciprocal is exactly zero
    if kind == "zero":
        raise PoleError(f"1/({p})_{s} pole")
    return -v


def _poch_floor(p: QParam, s: int):
    if p.is_zero:
        return 0
    v, kind = poch_val(p, s)
    if kind == "zero":
        return INF
    if kind == "pole":
        raise PoleError(f"({p})_{s} pole")
    return v


def _jsum(a: QParam, b: QParam, coeff_fp_fn, floor_fn, cutoff):
    """(a/b)_oo sum_{j >= 0} coeff(j), cut off by ``series.truncated_sum``'s stop rule.

    floor_fn(j) bounds the valuation of coeff(j); coeff_fp_fn(j) returns a
    FactorProduct, or None for a zero term.  Term j divides by (b - a q^j),
    so b = a q^j0 with j0 >= 0 makes (a/b)_oo vanish exactly where term j0
    has a pole; that 0 * oo raises ``PoleError`` rather than evaluating to
    the zero series.
    """
    pre = FactorProduct().times_poch(a / b, INF)
    if b.is_finite and pre.val_bound() == INF:
        raise PoleError(f"master rhs: {b} collides with a q^j")

    def build(j, c):
        fp = coeff_fp_fn(j)
        return Series.zero() if fp is None else fp.series(c)

    def jsum(c):
        return truncated_sum(0, 1, INF, lambda j: (floor_fn(j), lambda: build(j, c)), c,
                             "master rhs: j-sum did not truncate").truncate(c)

    return pre.series_times(jsum, cutoff)


def _times_a_quotient(fp, a: QParam, j: int):
    """Multiply by (a)_j/(a)_oo = 1/(a q^j)_oo.

    The quotient form stays finite at a = 1 (where (a)_j and (a)_oo vanish
    separately).  When a q^j is an exact nonpositive q-power, the vanishing
    factor (1 - q^0) of (a q^j)_oo sits in the denominator multiset of
    ``fp``, where a matching (1 - a q^{2j'})-type zero from the correction
    bracket cancels it; left uncancelled, it is a pole.
    """
    return fp.times_poch(a.q_shift(2 * j), INF, den=True)


def _a_quotient_floor(a: QParam, j: int):
    arg = a.q_shift(2 * j)
    v, kind = poch_val(arg, INF)
    if kind == "zero":
        t0 = -arg.halves // 2
        vh, _ = poch_val(arg, t0)
        vt, _ = poch_val(arg.q_shift(2 * (t0 + 1)), INF)
        return -(vh + vt)  # the split-off zero factor cancels a bracket zero
    return -v


def _geom_X(a: QParam, j: int, top: int) -> Series:
    """G_top(X) = 1 + X + ... + X^top with X = a q^{2j}."""
    X = a.q_shift(4 * j)
    out = Series.zero()
    for t in range(top + 1):
        out = out + X.monomial(t)
    return out


def _bracket_all_inf(fp, a: QParam, j: int, top: int):
    """Install 1 - X^{top+1} = (1 - X) G_top(X) in cancellable factored form."""
    fp.times_factor(a, 4 * j)
    fp.times_series(_geom_X(a, j, top))
    return fp


def _bracket_all_inf_floor(a: QParam, j: int, top: int):
    h = a.halves + 4 * j
    return min(0, h) + min(0, top * h)


def _master_validate(k, r, a, c1, c2, bs):
    if not (isinstance(k, int) and isinstance(r, int)):
        raise BadParam("k and r must be integers")
    if k < 2 or not (0 < r <= k):
        raise BadParam("master identity needs integers 0 < r < k")
    if len(bs) != 2 * r - 1:
        raise BadParam(f"master identity needs 2r-1 = {2 * r - 1} b-parameters")
    if r == k and not (c1.is_infinite and c2.is_infinite
                       or bs[k - 1].is_infinite and bs[k].is_infinite):
        raise BadParam("r = k is admitted only with c1, c2 infinite or with "
                       "the level-k pair b_k, b_{k+1} infinite")
    if not a.is_finite:
        raise BadParam("master identity needs finite a")
    for p in list(bs) + [c1, c2]:
        if p.is_zero:
            raise BadParam("b and c parameters must be nonzero (infinite allowed)")


# ---------------------------------------------------------------------------
# master identity, both sides
# ---------------------------------------------------------------------------

def bressoud_lhs(k, r, a, c1, c2, bs, cutoff) -> Series:
    """(k-1)-fold multisum side:

    sum (-1)^{s_1} a^{sum s} q^{s_1^2/2 - s_1/2 + s_r + s_{r+1}^2 + ... + s_{k-1}^2}
        * (b_1)_{s_1}/b_1^{s_1} * prod_{d=2..r} (b_d, b')_{s_d}/(b_d b')^{s_d}
        * prod_{d=2..r} (a/b_d b')_{s_{d-1}-s_d} / (a/b_d, a/b')_{s_{d-1}}
        * (aq/c1c2)_{s_{k-1}} / ((q, aq/c1, aq/c2)_{s_{k-1}})
        / ((q)_{s_1-s_2} ... (q)_{s_{k-2}-s_{k-1}})
    """
    _master_validate(k, r, a, c1, c2, bs)
    depth = k - 1
    virtual = (r == k)  # level r exists only as s_r = 0: its couplings survive
    aq_c1 = a.q_shift(2) / c1
    aq_c2 = a.q_shift(2) / c2
    aq_c1c2 = aq_c1 / c2

    def pair_params(d):
        return bs[d - 1], bs[2 * r - d]

    def expo(d, s):
        # pure q-power; the a^s monomial is applied separately
        e = 0
        if d == 1:
            e += s * s - s
        if d == r:
            e += 2 * s
        if d > r:
            e += 2 * s * s
        return e

    # the (a/b b')_{s_{d-1}-s_d} couplings can have negative valuation; their
    # worst drift is linear in s_{d-1} and is charged to the outer level.
    coupling_drop = [0] * (depth + 2)
    for d in range(2, r + 1):
        p1, p2 = pair_params(d)
        ab = (a / p1) / p2
        if ab.is_finite and ab.halves < 0:
            coupling_drop[min(d - 1, depth)] += ab.halves

    def level_floor(d, s):
        e = expo(d, s) + a.halves * s
        if d == 1:
            e += _pp_floor(bs[0], s)
        elif d <= r:
            p1, p2 = pair_params(d)
            e += _pp_floor(p1, s) + _pp_floor(p2, s)
        if d == depth:
            e += _recip_floor(aq_c1, s) + _recip_floor(aq_c2, s) + _poch_floor(aq_c1c2, s)
        if coupling_drop[d]:
            e += coupling_drop[d] * max(s, 0)
        # the (a/b_d, a/b')_{s_{d-1}} denominators live at the outer level
        if d + 1 <= r and (d + 1 <= depth or virtual):
            q1, q2 = pair_params(d + 1)
            e += _recip_floor(a / q1, s) + _recip_floor(a / q2, s)
        return e

    def level(d, prev, s):
        fp = FactorProduct()
        fp.times_param_pow(a, s)
        fp.times_qpow(expo(d, s))
        if d == 1:
            fp.times_scalar(sign(s))
            fp_pp(fp, bs[0], s)
        else:
            fp.times_poch(Q, prev - s, den=True)
            if d <= r:
                p1, p2 = pair_params(d)
                fp_pp(fp, p1, s)
                fp_pp(fp, p2, s)
                fp.times_poch((a / p1) / p2, prev - s)
        # the (a/b_d, a/b')_{s_{d-1}} denominators of the next pair, charged here
        if d + 1 <= r and (d + 1 <= depth or virtual):
            q1, q2 = pair_params(d + 1)
            fp.times_poch(a / q1, s, den=True)
            fp.times_poch(a / q2, s, den=True)
        if d == depth:
            if virtual:  # the coupling of level r, where s_r = 0
                p1, p2 = pair_params(r)
                fp.times_poch((a / p1) / p2, s)
            fp.times_poch(aq_c1c2, s)
            fp.times_poch(Q, s, den=True)
            fp.times_poch(aq_c1, s, den=True)
            fp.times_poch(aq_c2, s, den=True)
        return fp

    spec = MultisumSpec(depth=depth, lower_bound=0, level=level, level_floor=level_floor)
    return multisum_eval(spec, cutoff)


def _bracket(a, r, bs, j):
    """(num, den) of 1 + a^r q^j prod(1-b q^j)/(prod b (1-aq^j/b)); b=oo -> -q^j."""
    num_t = a.monomial(r).times_monomial(1, 2 * j)
    den = Series.one()
    for b in bs:
        if b.is_infinite:
            num_t = num_t.times_monomial(-1, 2 * j)
        else:
            num_t = num_t * (Series.one() - b.monomial().times_monomial(1, 2 * j))
            den = den * (b.monomial() - a.monomial().times_monomial(1, 2 * j))
    if den.is_zero_below_cutoff():
        raise PoleError("a b-parameter collides with a q^j")
    return den + num_t, den


def bressoud_rhs(k, r, a, c1, c2, bs, cutoff) -> Series:
    """j-sum side:

    (a/b_1)_oo/(a)_oo sum_{j>=0} (b..., c1, c2, a)_j (prod b c1 c2)^{-j}
        a^{kj} q^{(k-r)j^2+j} / ((a/b...)_j (aq/c1, aq/c2, q)_j) * bracket(j)
    """
    _master_validate(k, r, a, c1, c2, bs)
    all_inf = all(b.is_infinite for b in bs)

    def coeff(j):
        fp = FactorProduct()
        fp.times_param_pow(a, k * j)
        fp.times_qpow(2 * (k - r) * j * j + 2 * j)
        for b in bs:
            fp_pp(fp, b, j)
            fp.times_poch(a / b, j, den=True)
        for c in (c1, c2):
            fp_pp(fp, c, j)
            fp.times_poch(a.q_shift(2) / c, j, den=True)
        _times_a_quotient(fp, a, j)
        fp.times_poch(Q, j, den=True)
        if all_inf:
            _bracket_all_inf(fp, a, j, r - 1)
        else:
            num, den = _bracket(a, r, bs, j)
            if num.is_zero_below_cutoff():
                return None
            fp.times_series(num)
            for b in bs:
                if b.is_finite:  # 1/(b - a q^j)
                    fp.times_param_pow(b, -1).times_factor(a / b, 2 * j, den=True)
        return fp

    def floor(j):
        e = a.halves * k * j + 2 * (k - r) * j * j + 2 * j
        for b in bs:
            e += _pp_floor(b, j) + _recip_floor(a / b, j)
        for c in (c1, c2):
            e += _pp_floor(c, j) + _recip_floor(a.q_shift(2) / c, j)
        e += _a_quotient_floor(a, j)
        if all_inf:
            e += _bracket_all_inf_floor(a, j, r - 1)
        else:
            num, den = _bracket(a, r, bs, j)
            if num.is_zero_below_cutoff():
                return INF
            e += num.val() - den.val()
        return e

    return _jsum(a, bs[0], coeff, floor, cutoff)


# ---------------------------------------------------------------------------
# the F and G function forms
# ---------------------------------------------------------------------------

def bressoud_F(k, r, a, c1, c2, bs, cutoff) -> Series:
    """F = (j-sum side) * (a/b_2, ..., a/b_{2r-1})_oo."""
    pre = FactorProduct()
    for b in bs[1:]:
        pre.times_poch(a / b, INF)
    return pre.series_times(lambda c: bressoud_rhs(k, r, a, c1, c2, bs, c), cutoff)


def bressoud_G(k, r, a, c1, c2, bs, cutoff) -> Series:
    """G in its raw printed shape, with (q^{1-s}/b)_s insertions and
    per-chain infinite tails (a q^{s_{d-1}}/b_d, a q^{s_{d-1}}/b')_oo."""
    _master_validate(k, r, a, c1, c2, bs)
    depth = k - 1
    virtual = (r == k)
    aq_c1 = a.q_shift(2) / c1
    aq_c2 = a.q_shift(2) / c2
    aq_c1c2 = aq_c1 / c2

    def pair_params(d):
        return bs[d - 1], bs[2 * r - d]

    def q1s(p: QParam, s: int):
        # (q^{1-s}/p)_s; every factor tends to 1 as p -> oo
        return None if p.is_infinite else (QParam.finite(1, 2 - 2 * s) / p, s)

    def expo(d, s):
        return a.halves * s + 2 * s * s - (2 * s if d <= r - 1 else 0)

    def tail_args(d, s_prev):
        # infinite products attached to the pair at level d, indexed by s_{d-1}
        out = []
        for p in pair_params(d):
            if not p.is_infinite:
                out.append(a.q_shift(2 * s_prev) / p)
        return out

    coupling_drop = [0] * (depth + 2)
    for d in range(2, r + 1):
        p1, p2 = pair_params(d)
        ab = (a / p1) / p2
        if ab.is_finite and ab.halves < 0:
            coupling_drop[d - 1] += ab.halves

    def level_floor(d, s):
        e = expo(d, s)
        if coupling_drop[d]:
            e += coupling_drop[d] * max(s, 0)
        ins = q1s(bs[0], s) if d == 1 else None
        if ins is not None:
            e += _poch_floor(*ins)
        if 2 <= d <= r:
            for p in pair_params(d):
                ins = q1s(p, s)
                if ins is not None:
                    e += _poch_floor(*ins)
        if d == depth:
            e += _recip_floor(aq_c1, s) + _recip_floor(aq_c2, s) + _poch_floor(aq_c1c2, s)
        # tails at the next level are indexed by this level's value and are
        # nondecreasing in it, so their value here is a certified floor
        if d + 1 <= r:
            for arg in tail_args(d + 1, s):
                v, kind = poch_val(arg, INF)
                e = INF if kind == "zero" else e + v
                if e == INF:
                    return INF
        return e

    def level(d, prev, s):
        fp = FactorProduct()
        fp.times_param_pow(a, s)
        fp.times_qpow(2 * s * s - (2 * s if d <= r - 1 else 0))
        if d == 1:
            ins = q1s(bs[0], s)
            if ins is not None:
                fp.times_poch(*ins)
        else:
            fp.times_poch(Q, prev - s, den=True)
        # the tails of the next pair are indexed by this level's value
        if d + 1 <= r:
            for arg in tail_args(d + 1, s):
                fp.times_poch(arg, INF)
        pairs = [(d, prev, s)] if 2 <= d <= r else []
        if virtual and d == depth:
            pairs.append((r, s, 0))  # the pair of the virtual level r, where s_r = 0
        for dd, outer, inner in pairs:
            p1, p2 = pair_params(dd)
            fp.times_poch((a / p1) / p2, outer - inner)
            for p in (p1, p2):
                got = q1s(p, inner)
                if got is not None:
                    fp.times_poch(*got)
        if d == depth:
            fp.times_poch(aq_c1c2, s)
            fp.times_poch(Q, s, den=True)
            fp.times_poch(aq_c1, s, den=True)
            fp.times_poch(aq_c2, s, den=True)
        return fp

    spec = MultisumSpec(depth=depth, lower_bound=0, level=level, level_floor=level_floor)
    return multisum_eval(spec, cutoff)
