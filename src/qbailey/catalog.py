"""Named multisum-equals-product identities and their evaluation.

Each entry builds its left side as a nested multisum (via ``multisum``),
described by ``_chain_spec`` data, and its right side from data read off the
statement being verified: a prefactor ``FactorProduct`` of infinite products
times a finite sum of triple products (``_product_side``).  The two sides
share no formula.  ``bressoud_master`` and the lattice-route rows
(``lambda1``, ``lattice3``, ``newlattice3``) are instead parameter maps onto
the master identity's multisum and j-sum in ``bressoud``.  Half-integer
exponents are evaluated natively on the q^(1/2) lattice; the base-doubling
reductions are separate cross-checks, not the implementation.

All (q)_m-style normalizations live inside the builders, so the series a
caller sees are the stated forms of the identities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParam, UnknownIdentity
from .qparams import ONE, Q, QParam
from .qfunctions import FactorProduct, poch_val, qbinom, sign, triple_product
from .multisum import MultisumSpec, multisum_eval
from .series import INF, Series, first_diff, sum_series
from . import bressoud


def _neg(h):
    return QParam.finite(-1, h)


_Q2 = QParam.finite(1, 4)


@dataclass
class EvalReport:
    identity: str
    params: dict
    cutoff: int
    lhs: Series
    rhs: Series
    passed: bool = False  # passed, compared and first_divergence are set by compare()
    compared: float = 0
    first_divergence: dict | None = None
    runtime_ms: float = 0.0

    def to_json(self):
        out = {
            "identity": self.identity,
            "params": {k: (str(v) if isinstance(v, QParam) else
                           [str(x) for x in v] if isinstance(v, list) else v)
                       for k, v in self.params.items()},
            "cutoff_halves": self.cutoff,
            "passed": self.passed,
            "compared_halves": "inf" if self.compared == INF else self.compared,
            "lhs_terms": self.lhs.to_json(),
            "rhs_terms": self.rhs.to_json(),
            "runtime_ms": round(self.runtime_ms, 3),
        }
        if self.first_divergence is not None:
            fd = dict(self.first_divergence)
            fd["lhs_coeff"] = str(Fraction(fd["lhs_coeff"]))
            fd["rhs_coeff"] = str(Fraction(fd["rhs_coeff"]))
            out["first_divergence"] = fd
        return out

    def compare(self):
        """Compare the sides below the cutoff and set the verdict.

        PASS needs agreement on every coefficient below the requested cutoff,
        so a side that came back exact only to a lower order fails.
        """
        self.compared, diff = first_diff(self.lhs, self.rhs, self.cutoff)
        self.first_divergence = None if diff is None else {
            "exponent_halves": diff[0], "lhs_coeff": diff[1], "rhs_coeff": diff[2]}
        self.passed = diff is None and self.compared >= self.cutoff
        return self


@dataclass(frozen=True)
class IdentityDescriptor:
    name: str
    summary: str
    int_params: tuple = ()        # names of required integer parameters
    qparam_params: tuple = ()     # names of required QParam parameters
    list_params: tuple = ()       # names of QParam-list parameters
    validate: object = None       # params dict -> None, raises BadParam
    lhs: object = None            # (params, cutoff) -> Series
    rhs: object = None            # (params, cutoff) -> Series
    domain_doc: str = ""

    def to_json(self):
        return {
            "name": self.name,
            "summary": self.summary,
            "int_params": list(self.int_params),
            "qparam_params": list(self.qparam_params),
            "list_params": list(self.list_params),
            "domain": self.domain_doc,
        }


CATALOG: dict = {}


def _register(**kw):
    d = IdentityDescriptor(**kw)
    CATALOG[d.name] = d
    return d


def _need(cond, msg):
    if not cond:
        raise BadParam(msg)



# ---------------------------------------------------------------------------
# the two builders: chain multisums and product sides
# ---------------------------------------------------------------------------

def _chain_spec(depth, lb, expo, links=None, extra=None, last_upper=None,
                extra_floor=None):
    """Multisum over s_1 >= ... >= s_depth >= lb.

    expo(d, s): halves of the q-power carried by s_d (certified floor as well).
    links: base halves b of the denominators (Q;Q)_{s_{d-1} - s_d}, Q = q^(b/2),
           one entry per link d = 2..depth, plus an optional last entry for
           the final denominator (Q;Q)_{s_depth}; default depth-1 links of
           base q and no final denominator.
    extra(fp, d, s): install level d's remaining factors, which depend on s_d
           alone, on the FactorProduct.
    extra_floor(d, s): certified extra valuation carried by s_d.
    """
    link_bases = [2] * (depth - 1) if links is None else links

    def level(d, prev, s):
        fp = FactorProduct().times_qpow(expo(d, s))
        if d >= 2:
            b = link_bases[d - 2]
            fp.times_poch(QParam.finite(1, b), prev - s, base=b, den=True)
        if d == depth and len(link_bases) == depth:
            b = link_bases[-1]
            fp.times_poch(QParam.finite(1, b), s, base=b, den=True)
        if extra is not None:
            extra(fp, d, s)
        return fp

    def level_floor(d, s):
        e = expo(d, s)
        if extra_floor is not None:
            e += extra_floor(d, s)
        return e

    return MultisumSpec(depth=depth, lower_bound=lb, level=level,
                        level_floor=level_floor, last_upper=last_upper)


def _product_side(side):
    """The right side described by side(p) = (prefactor, terms).

    ``prefactor`` is a FactorProduct of infinite products (mbr37 adds one
    finite factor).  ``terms`` lists (coeff, h, mod, z) for
    coeff q^(h/2) (Q, q^(z/2), Q/q^(z/2); Q)_oo with Q = q^(mod/2).  The side
    is the prefactor times the sum of the terms, or the prefactor alone when
    there are none.
    """
    def rhs(p, cutoff):
        pre, terms = side(p)
        if not terms:
            return pre.series(cutoff)

        def body(c):
            return sum_series((triple_product(QParam.finite(1, z), c - min(0, h), base=mod)
                               .times_monomial(coeff, h) for coeff, h, mod, z in terms), c)

        return pre.series_times(body, cutoff)

    return rhs


def _over_q():
    """1/(q;q)_oo, the prefactor of most product sides."""
    return FactorProduct().times_poch(Q, INF, den=True)


def _neg_q_over_q2():
    """(-q;q^2)_oo/(q^2;q^2)_oo, the prefactor of the doubled-base sides."""
    return (FactorProduct().times_poch(_neg(2), INF, base=4)
            .times_poch(_Q2, INF, base=4, den=True))


# ---------------------------------------------------------------------------
# classical identities
# ---------------------------------------------------------------------------

def _v_rr(p):
    _need(p["i"] in (0, 1), "rr needs i in {0, 1}")


def _lhs_rr(p, cutoff):
    i = p["i"]
    spec = _chain_spec(1, 0, lambda d, s: 2 * (s * s + (1 - i) * s), links=[2])
    return multisum_eval(spec, cutoff)


def _rhs_rr(p):
    i = p["i"]
    pre = FactorProduct()
    for e in (2 - i, 3 + i):
        pre.times_poch(QParam.finite(1, 2 * e), INF, base=10, den=True)
    return pre, ()


_register(name="rr", summary="two single-sum identities with modulus-5 products",
          int_params=("i",), validate=_v_rr, lhs=_lhs_rr, rhs=_product_side(_rhs_rr),
          domain_doc="i in {0,1}")


def _v_ag(p):
    _need(p["r"] >= 2, "r >= 2 required")
    _need(1 <= p["i"] <= p["r"], "needs 1 <= i <= r")


def _lhs_ag(p, cutoff):
    r, i = p["r"], p["i"]
    spec = _chain_spec(r - 1, 0, lambda d, s: 2 * s * s + (2 * s if d >= i else 0),
                       links=[2] * (r - 1))
    return multisum_eval(spec, cutoff)


def _rhs_ag(p):
    r, i = p["r"], p["i"]
    return _over_q(), [(1, 0, 2 * (2 * r + 1), 2 * i)]


_register(name="ag", summary="odd-moduli multisum family", int_params=("r", "i"),
          validate=_v_ag, lhs=_lhs_ag, rhs=_product_side(_rhs_ag),
          domain_doc="r >= 2, 1 <= i <= r")


def _v_i_upto_rm1(p):
    _need(p["r"] >= 2, "r >= 2 required")
    _need(0 <= p["i"] <= p["r"] - 1, "needs 0 <= i <= r-1")


def _lhs_br33(p, cutoff):
    r, i = p["r"], p["i"]
    spec = _chain_spec(r - 1, 0, lambda d, s: 2 * s * s - (2 * s if d <= i else 0),
                       links=[2] * (r - 1))
    return multisum_eval(spec, cutoff)


def _rhs_br33(p):
    r, i = p["r"], p["i"]
    return _over_q(), [(1, 0, 2 * (2 * r + 1), 2 * (r - i + k)) for k in range(i + 1)]


_register(name="br33", summary="odd-moduli companion with k-indexed tail",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_br33,
          rhs=_product_side(_rhs_br33), domain_doc="r >= 2, 0 <= i <= r-1")


def _v_m_family(p, i_hi_off=0):
    _need(p["m"] >= 0, "m >= 0 required (negative m is not specified)")
    _need(p["r"] >= 2, "r >= 2 required")
    _need(0 <= p["i"] <= p["r"] + i_hi_off, "i out of range")


def _shifted_binom_tail(fp, m, s, base=2, with_csq=False):
    """(-1)^s [m+s over m+2s] with optional q^C(s,2), shared by the m-versions."""
    b = qbinom(m + s, m + 2 * s, base=base)
    if b.is_zero_below_cutoff():
        fp.times_scalar(0)
        return
    fp.times_scalar(sign(s))
    if with_csq:
        fp.times_qpow(s * (s - 1))
    fp.times_series(b)


def _lhs_mag(p, cutoff):
    m, r, i = p["m"], p["r"], p["i"]

    def expo(d, s):
        e = 2 * s * s + 2 * m * s - (2 * s if d <= i else 0)
        if d == r:
            e += s * (s - 1)
        return e

    def extra(fp, d, s):
        if d == r:
            _shifted_binom_tail(fp, m, s)

    spec = _chain_spec(r, -(m // 2), expo, extra=extra, last_upper=0)
    return multisum_eval(spec, cutoff)


def _rhs_mag(p):
    m, r, i = p["m"], p["r"], p["i"]
    return _over_q(), [(1, 2 * m * k, 2 * (2 * r + 1), 2 * ((m + 1) * r - i + 2 * k))
                       for k in range(i + 1)]


_register(name="mag", summary="m-interpolated odd-moduli family",
          int_params=("m", "r", "i"), validate=_v_m_family, lhs=_lhs_mag,
          rhs=_product_side(_rhs_mag), domain_doc="m >= 0, r >= 2, 0 <= i <= r")


def _v_beven(p):
    _need(p["r"] >= 2, "r >= 2 required")
    _need(1 <= p["i"] <= p["r"], "needs 1 <= i <= r")


def _lhs_beven(p, cutoff):
    r, i = p["r"], p["i"]
    spec = _chain_spec(r - 1, 0, lambda d, s: 2 * s * s + (2 * s if d >= i else 0),
                       links=[2] * (r - 2) + [4])
    return multisum_eval(spec, cutoff)


def _rhs_beven(p):
    r, i = p["r"], p["i"]
    return _over_q(), [(1, 0, 4 * r, 2 * i)]


_register(name="bressoud_even", summary="even-moduli multisum family",
          int_params=("r", "i"), validate=_v_beven, lhs=_lhs_beven,
          rhs=_product_side(_rhs_beven), domain_doc="r >= 2, 1 <= i <= r")


def _lhs_br35(p, cutoff):
    r, i = p["r"], p["i"]
    spec = _chain_spec(r - 1, 0, lambda d, s: 2 * s * s - (2 * s if d <= i else 0),
                       links=[2] * (r - 2) + [4])
    return multisum_eval(spec, cutoff)


def _rhs_br35(p):
    r, i = p["r"], p["i"]
    return _over_q(), [(1, 0, 4 * r, 2 * (r - i + 2 * k)) for k in range(i + 1)]


_register(name="br35", summary="even-moduli companion with k-indexed tail",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_br35,
          rhs=_product_side(_rhs_br35), domain_doc="r >= 2, 0 <= i <= r-1")


def _lhs_mb(p, cutoff):
    m, r, i = p["m"], p["r"], p["i"]

    def expo(d, s):
        return 2 * s * s + (2 * m * s if d <= r - 1 else 0) - (2 * s if d <= i else 0)

    def extra(fp, d, s):
        if d == r:
            fp.times_poch(_neg(2), m + 2 * s - 1)
            _shifted_binom_tail(fp, m, s, base=4)

    spec = _chain_spec(r, -(m // 2), expo, links=[2] * (r - 2) + [4], extra=extra,
                       last_upper=0)
    return multisum_eval(spec, cutoff)


def _rhs_mb(p):
    m, r, i = p["m"], p["r"], p["i"]
    if m % 2 == 0:
        mm = m // 2
        return _over_q(), [(Fraction(sign(l), 2), 4 * mm * k + 4 * mm * l, 4 * r,
                            2 * (2 * mm * (r - 1) + r - i + 2 * k + 2 * l))
                           for k in range(i + 1) for l in range(2 * mm + 1)]
    mm = (m - 1) // 2
    h0 = 2 * ((2 - r) * mm * mm + (1 + i - r) * mm)
    return _over_q(), [(sign(mm), h0 + 4 * l, 4 * r, 2 * (2 * r - 2 * mm - 1 - i + 4 * l))
                       for l in range(mm + 1)]


def _rhs_mb_odd_i(p):
    """The single closed form valid for odd i and every m >= 0."""
    m, r, i = p["m"], p["r"], p["i"]
    _need(i % 2 == 1, "closed form only for odd i")
    return _over_q(), [(1, 4 * m * k, 4 * r, 2 * (m * (r - 1) + r - i + 4 * k))
                       for k in range((i - 1) // 2 + 1)]


mb_rhs_odd_i = _product_side(_rhs_mb_odd_i)

_register(name="mb", summary="m-interpolated even-moduli family (parity-split tail)",
          int_params=("m", "r", "i"),
          validate=lambda p: _v_m_family(p, i_hi_off=-1), lhs=_lhs_mb,
          rhs=_product_side(_rhs_mb),
          domain_doc="m >= 0, r >= 2, 0 <= i <= r-1 (the i = r edge diverges)")


def _lhs_fij0(p, cutoff):
    r, i = p["r"], p["i"]

    def expo(d, s):
        e = 2 * s * s + (2 * s if d >= i else 0)
        if d == r - 1:
            e += 2 * s
        return e

    def extra(fp, d, s):
        if d == 1:
            fp.times_factor(_neg(2))  # the (1+q) prefactor is the factor (1 - (-q))

    spec = _chain_spec(r - 1, 0, expo, links=[2] * (r - 2) + [4], extra=extra)
    return multisum_eval(spec, cutoff)


def _rhs_fij0(p):
    r, i = p["r"], p["i"]
    return _over_q(), [(1, 0, 4 * r, 2 * (2 * r - i - 1)),
                       (1, 2, 4 * r, 2 * (2 * r - i + 1))]


_register(name="fij0", summary="doubled even-moduli companion, two-product tail",
          int_params=("r", "i"), validate=_v_beven, lhs=_lhs_fij0,
          rhs=_product_side(_rhs_fij0), domain_doc="r >= 2, 1 <= i <= r")


def _lhs_fij(p, cutoff):
    r, i = p["r"], p["i"]

    def expo(d, s):
        e = 2 * s * s - (2 * s if d <= i else 0)
        if d == r - 1:
            e += 2 * s
        return e

    spec = _chain_spec(r - 1, 0, expo, links=[2] * (r - 2) + [4])
    return multisum_eval(spec, cutoff)


def _rhs_fij(p):
    r, i = p["r"], p["i"]
    return _over_q(), [(1, 0, 4 * r, 2 * (r - i + 2 * k - 1)) for k in range(i + 1)]


_register(name="fij", summary="even-moduli companion with shifted tail products",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_fij,
          rhs=_product_side(_rhs_fij), domain_doc="r >= 2, 0 <= i <= r-1")


def _lhs_mfij(p, cutoff):
    m, r, i = p["m"], p["r"], p["i"]

    def expo(d, s):
        e = 2 * s * s + (2 * m * s if d <= r - 1 else 0) - (2 * s if d <= i else 0)
        if d == r - 1:
            e += 2 * s
        if d == r:
            e -= 4 * s
        return e

    def extra(fp, d, s):
        if d == r:
            fp.times_poch(_neg(2), m + 2 * s)
            _shifted_binom_tail(fp, m, s, base=4)

    spec = _chain_spec(r, -(m // 2), expo, links=[2] * (r - 2) + [4], extra=extra,
                       last_upper=0)
    return multisum_eval(spec, cutoff)


def _rhs_mfij(p):
    m, r, i = p["m"], p["r"], p["i"]
    return _over_q(), [(1, 2 * m * k, 4 * r, 2 * ((m + 1) * (r - 1) - i + 2 * k))
                       for k in range(i + 1)]


_register(name="mfij", summary="m-interpolated doubled-companion family",
          int_params=("m", "r", "i"),
          validate=lambda p: _v_m_family(p, i_hi_off=-1), lhs=_lhs_mfij,
          rhs=_product_side(_rhs_mfij),
          domain_doc="m >= 0, r >= 2, 0 <= i <= r-1 (the i = r edge diverges)")


def _v_gg(p):
    _need(p["i"] in (0, 1), "gg needs i in {0, 1}")


def _lhs_gg(p, cutoff):
    i = p["i"]
    spec = _chain_spec(1, 0, lambda d, s: 2 * (s * s + 2 * (1 - i) * s), links=[4],
                       extra=lambda fp, d, s: fp.times_poch(_neg(2), s, base=4))
    return multisum_eval(spec, cutoff)


def _rhs_gg(p):
    i = p["i"]
    pre = FactorProduct()
    for e in (3 - 2 * i, 4, 5 + 2 * i):
        pre.times_poch(QParam.finite(1, 2 * e), INF, base=16, den=True)
    return pre, ()


_register(name="gg", summary="single-sum modulus-8 pair", int_params=("i",),
          validate=_v_gg, lhs=_lhs_gg, rhs=_product_side(_rhs_gg),
          domain_doc="i in {0,1}")


# ---------------------------------------------------------------------------
# the doubled-base quadruple and their m-versions
# ---------------------------------------------------------------------------

def _b3x_lhs(r, expo, neg_halves, cutoff):
    """Doubled-base chain over s_1..s_{r-1} with (-q^(neg/2) q^{2 s_{r-1}};q^2)_oo."""
    def extra(fp, d, s):
        if d == r - 1:
            fp.times_poch(_neg(neg_halves + 4 * s), INF, base=4)

    spec = _chain_spec(r - 1, 0, expo, links=[4] * (r - 1), extra=extra)
    return multisum_eval(spec, cutoff)


def _lhs_b36(p, cutoff):
    r, i = p["r"], p["i"]
    return _b3x_lhs(r, lambda d, s: 4 * (s * s - (s if d <= i else 0)), 2, cutoff)


def _rhs_b36(p):
    r, i = p["r"], p["i"]
    return _neg_q_over_q2(), [(1, 0, 8 * r, 2 * (2 * r - 2 * i + 2 * k - 1))
                              for k in range(i + 1)]


_register(name="b36", summary="doubled-base modulus-4r family, k-tail",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_b36,
          rhs=_product_side(_rhs_b36), domain_doc="r >= 2, 0 <= i <= r-1")


def _lhs_b37(p, cutoff):
    r, i = p["r"], p["i"]
    return _b3x_lhs(r, lambda d, s: 4 * (s * s + (s if d >= i + 1 else 0)), 6, cutoff)


def _rhs_b37(p):
    r, i = p["r"], p["i"]
    return _neg_q_over_q2(), [(sign(k), 2 * k, 8 * r, 2 * (2 * i + 1 - 2 * k))
                              for k in range(i + 1)]


_register(name="b37", summary="doubled-base modulus-4r family, signed k-tail",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_b37,
          rhs=_product_side(_rhs_b37), domain_doc="r >= 2, 0 <= i <= r-1")


def _lhs_b38(p, cutoff, last_base=4):
    r, i = p["r"], p["i"]

    def extra(fp, d, s):
        if d == 1:
            fp.times_poch(_neg(2 - 4 * s), s, base=4)  # (-q^{1-2s_1};q^2)_{s_1}

    def extra_floor(d, s):
        # the insertion at s_1 dips below valuation 0 (exponents 1-2s_1, ...)
        if d == 1:
            v, _ = poch_val(_neg(2 - 4 * s), s, base=4)
            return v
        return 0

    spec = _chain_spec(r - 1, 0, lambda d, s: 4 * (s * s + (s if d >= i + 1 else 0)),
                       links=[4] * (r - 2) + [last_base], extra=extra,
                       extra_floor=extra_floor)
    return multisum_eval(spec, cutoff)


def _rhs_b38(p):
    r, i = p["r"], p["i"]
    return _neg_q_over_q2(), [(1, 0, 8 * r, 2 * (2 * i + 1))]


_register(name="b38", summary="doubled-base single-product family",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_b38,
          rhs=_product_side(_rhs_b38), domain_doc="r >= 2, 0 <= i <= r-1")


def _lhs_b39(p, cutoff):
    return _lhs_b38(p, cutoff, last_base=8)


def _rhs_b39(p):
    r, i = p["r"], p["i"]
    return _neg_q_over_q2(), [(1, 0, 8 * r - 4, 2 * (2 * i + 1))]


_register(name="b39", summary="doubled-base single-product family, shifted modulus",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_b39,
          rhs=_product_side(_rhs_b39), domain_doc="r >= 2, 0 <= i <= r-1")


def _lhs_mbr36(p, cutoff):
    m, r, i = p["m"], p["r"], p["i"]

    def expo(d, s):
        e = 2 * s * s + 2 * m * s - (2 * s if d <= i else 0)
        if d == r:
            e -= (m + 1) * s
        return e

    def extra(fp, d, s):
        if d == r:
            fp.times_poch(_neg(m + 1), s)
            _shifted_binom_tail(fp, m, s)
        elif d == r - 1:
            fp.times_poch(_neg(m + 1), s, den=True)

    spec = _chain_spec(r, -(m // 2), expo, extra=extra, last_upper=0)
    return multisum_eval(spec, cutoff)


def _rhs_mbr36(p):
    m, r, i = p["m"], p["r"], p["i"]
    return _over_q(), [(1, 2 * m * k, 4 * r, 2 * ((m + 1) * r - i + 2 * k) - (m + 1))
                       for k in range(i + 1)]


_register(name="mbr36", summary="half-lattice m-version, even and doubled pair",
          int_params=("m", "r", "i"),
          validate=lambda p: _v_m_family(p, i_hi_off=-1), lhs=_lhs_mbr36,
          rhs=_product_side(_rhs_mbr36),
          domain_doc="m >= 0, r >= 2, 0 <= i <= r-1 (the i = r edge diverges)")


def _lhs_mbr37(p, cutoff):
    m, r, i = p["m"], p["r"], p["i"]

    def expo(d, s):
        e = 2 * s * s - (2 * s if d <= i else 0)
        if d <= r - 1:
            e += 2 * m * s
        if d == r:
            e += m * s
        return e

    def extra(fp, d, s):
        if d == r:
            fp.times_poch(_neg(m), s)
            _shifted_binom_tail(fp, m, s)
        elif d == r - 1:
            fp.times_poch(_neg(2 + m), s, den=True)

    spec = _chain_spec(r, -(m // 2), expo, extra=extra, last_upper=0)
    return multisum_eval(spec, cutoff)


def _rhs_mbr37(p):
    m, r, i = p["m"], p["r"], p["i"]
    if m % 2 == 0:
        mm = m // 2
        terms = [(Fraction(sign(l), 2), 4 * mm * k + 2 * mm * l, 4 * r,
                  2 * (2 * mm * r + r - i - mm + 2 * k + l))
                 for k in range(i + 1) for l in range(2 * mm + 1)]
    else:
        mm = (m - 1) // 2
        h0 = 2 * (1 - r) * mm * mm + (1 + 2 * i - 2 * r) * mm
        terms = []
        for k in range(i + 1):
            for l in range(mm + 1):
                h = h0 + 2 * k + 2 * l
                terms.append((Fraction(sign(mm), 2), h, 4 * r,
                              2 * (2 * r - i - mm + 2 * k + 2 * l) - 1))
                terms.append((Fraction(-sign(mm), 2), h + 1, 4 * r,
                              2 * (2 * r - i - mm + 2 * k + 2 * l) + 1))
    return _over_q().times_factor(_neg(m)), terms  # (1 + q^(m/2)) / (q;q)_oo


_register(name="mbr37", summary="half-lattice m-version with parity-split tail",
          int_params=("m", "r", "i"),
          validate=lambda p: _v_m_family(p, i_hi_off=-1), lhs=_lhs_mbr37,
          rhs=_product_side(_rhs_mbr37), domain_doc="m >= 0, r >= 2, 0 <= i <= r-1")


def _mbr89_expo(m, i, r):
    # the a^{s_r} weight of the underlying chain keeps its full m s_r part at
    # the last level; the two-parameter refinement halves only the s_1 weight
    def expo(d, s):
        if d == 1:
            e = s * s + m * s + s - 2 * s * (1 if 1 <= i else 0)
        else:
            e = 2 * s * s + 2 * m * s - (2 * s if d <= i else 0)
        return e

    return expo


def _lhs_mbr38(p, cutoff):
    m, r, i = p["m"], p["r"], p["i"]

    def extra(fp, d, s):
        if d == 1:
            fp.times_poch(_neg(m), s)
        if d == r:
            _shifted_binom_tail(fp, m, s, with_csq=True)

    spec = _chain_spec(r, -(m // 2), _mbr89_expo(m, i, r), extra=extra, last_upper=0)
    return multisum_eval(spec, cutoff)


def _rhs_mbr38(p):
    m, r, i = p["m"], p["r"], p["i"]
    if m % 2 == 0:
        mm = m // 2
        terms = [(Fraction(sign(l), 2), 2 * mm * (k + l), 4 * r,
                  2 * (2 * mm * r + r - i - mm + k + l))
                 for k in range(2 * i + 1) for l in range(2 * mm + 1)]
    else:
        mm = (m - 1) // 2
        h0 = 2 * (1 - r) * mm * mm + (1 + 2 * i - 2 * r) * mm
        terms = [(sign(mm), h0 + 2 * l, 4 * r,
                  2 * (2 * r - i - mm + 2 * l) - 1) for l in range(mm + 1)]
    return _over_q().times_poch(_neg(m), INF), terms  # (-q^(m/2);q)_oo / (q;q)_oo


_register(name="mbr38", summary="half-lattice m-version with 2i-tail",
          int_params=("m", "r", "i"),
          validate=lambda p: _v_m_family(p, i_hi_off=-1), lhs=_lhs_mbr38,
          rhs=_product_side(_rhs_mbr38), domain_doc="m >= 0, r >= 2, 0 <= i <= r-1")


def _lhs_mbr39(p, cutoff):
    m, r, i = p["m"], p["r"], p["i"]

    def expo(d, s):
        e = _mbr89_expo(m, i, r)(d, s)
        if d == r:
            e -= (m + 1) * s
        return e

    def extra(fp, d, s):
        if d == 1:
            fp.times_poch(_neg(m), s)
        if d == r:
            fp.times_poch(_neg(m + 1), s)
            _shifted_binom_tail(fp, m, s)
        elif d == r - 1:
            fp.times_poch(_neg(m + 1), s, den=True)

    spec = _chain_spec(r, -(m // 2), expo, extra=extra, last_upper=0)
    return multisum_eval(spec, cutoff)


def _rhs_mbr39(p):
    m, r, i = p["m"], p["r"], p["i"]
    if m % 2 == 0:
        mm = m // 2
        terms = [(Fraction(sign(l), 2), 2 * mm * (k + l), 4 * r - 2,
                  2 * (2 * mm * r + r - i - 2 * mm + k + l) - 1)
                 for k in range(2 * i + 1) for l in range(2 * mm + 1)]
    else:
        mm = (m - 1) // 2
        h0 = (3 - 2 * r) * mm * mm + 2 * (1 + i - r) * mm
        terms = [(sign(mm), h0 + 2 * l, 4 * r - 2,
                  2 * (2 * r - i - mm + 2 * l) - 3) for l in range(mm + 1)]
    return _over_q().times_poch(_neg(m), INF), terms  # (-q^(m/2);q)_oo / (q;q)_oo


_register(name="mbr39", summary="half-lattice m-version, shifted modulus",
          int_params=("m", "r", "i"),
          validate=lambda p: _v_m_family(p, i_hi_off=-1), lhs=_lhs_mbr39,
          rhs=_product_side(_rhs_mbr39), domain_doc="m >= 0, r >= 2, 0 <= i <= r-1")


def _lhs_new1(p, cutoff, with_half_tail=False):
    r, i = p["r"], p["i"]

    def expo(d, s):
        if d == 1:
            return s * s + s - 2 * s * (1 if 1 <= i else 0)
        return 2 * s * s - (2 * s if d <= i else 0)

    def extra(fp, d, s):
        if d == 1:
            fp.times_poch(_neg(0), s)
        if with_half_tail and d == r - 1:
            fp.times_poch(_neg(1), s, den=True)

    spec = _chain_spec(r - 1, 0, expo, links=[2] * (r - 1), extra=extra)
    return multisum_eval(spec, cutoff)


def _rhs_new1(p):
    r, i = p["r"], p["i"]
    return (_over_q().times_poch(_neg(2), INF),
            [(1, 0, 4 * r, 2 * (r - i + k)) for k in range(2 * i + 1)])


_register(name="new1", summary="companion with (-1)_{s_1} insertion",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_new1,
          rhs=_product_side(_rhs_new1), domain_doc="r >= 2, 0 <= i <= r-1")


def _lhs_new2(p, cutoff):
    return _lhs_new1(p, cutoff, with_half_tail=True)


def _rhs_new2(p):
    r, i = p["r"], p["i"]
    return (_over_q().times_poch(_neg(2), INF),
            [(1, 0, 4 * r - 2, 2 * (r - i + k) - 1) for k in range(2 * i + 1)])


_register(name="new2", summary="half-lattice companion with (-1)_{s_1} insertion",
          int_params=("r", "i"), validate=_v_i_upto_rm1, lhs=_lhs_new2,
          rhs=_product_side(_rhs_new2), domain_doc="r >= 2, 0 <= i <= r-1")


# ---------------------------------------------------------------------------
# the master identity and the rows that are parameter maps onto it
# ---------------------------------------------------------------------------

def _via_master(to_master):
    """lhs/rhs of a row whose parameters map onto the master identity.

    to_master(p) returns the master's (k, r, a, c1, c2, bs); both sides are
    then ``bressoud_lhs``/``bressoud_rhs`` at those arguments.
    """
    return {"lhs": lambda p, cutoff: bressoud.bressoud_lhs(*to_master(p), cutoff),
            "rhs": lambda p, cutoff: bressoud.bressoud_rhs(*to_master(p), cutoff)}


def _master_args(p):
    return p["k"], p["r"], p["a"], p["c1"], p["c2"], p["bs"]


def _v_master(p):
    bressoud._master_validate(*_master_args(p))


_register(name="bressoud_master", summary="multi-parameter master identity",
          int_params=("k", "r"), qparam_params=("a", "c1", "c2"),
          list_params=("bs",), validate=_v_master, **_via_master(_master_args),
          domain_doc="0 < r < k (r = k with infinite c1, c2 or infinite b_k, "
                     "b_{k+1}); len(bs) = 2r-1")


def _v_lambda1(p):
    _need(p["r"] >= 2, "r >= 2 required")
    _need(1 <= p["i"] <= p["r"], "needs 1 <= i <= r")
    for name in ("b1", "c1", "c2", "a"):
        _need(not p[name].is_zero, f"{name} must be nonzero")
    _need(p["a"].is_finite, "a must be finite")


def _lambda1_args(p):
    """master(k=r, r=i, bs=[b1] + [oo]*(2i-2)): one insertion, i-1 infinite pairs."""
    return (p["r"], p["i"], p["a"], p["c1"], p["c2"],
            [p["b1"]] + [QParam.infinity()] * (2 * p["i"] - 2))


_register(name="lambda1", summary="one-insertion lattice-route identity",
          int_params=("r", "i"), qparam_params=("a", "b1", "c1", "c2"),
          validate=_v_lambda1, **_via_master(_lambda1_args),
          domain_doc="r >= 2, 1 <= i <= r; b1, c1, c2 nonzero (infinite allowed)")


def _v_latroute(p):
    _need(p["r"] >= 2, "r >= 2 required")
    _need(1 <= p["i"] <= p["r"] - 1, "needs 1 <= i <= r-1")
    _need(p["a"].is_finite, "a must be finite")
    _need(len(p["rhos"]) == p["i"] - 1 and len(p["sigmas"]) == p["i"] - 1,
          "needs i-1 inner rho/sigma parameters")


def _newlattice3_args(p):
    """master(k=r, r=i, c=(rho, sigma)); the pair at level d is (rho_d, sigma_d)."""
    return (p["r"], p["i"], p["a"], p["rho"], p["sigma"],
            [p["rho1"], *p["rhos"], *reversed(p["sigmas"])])


def _lattice3_args(p):
    """newlattice3's map with one more level, whose pair is infinite."""
    inf = QParam.infinity()
    return (p["r"], p["i"] + 1, p["a"], p["rho"], p["sigma"],
            [p["rho1"], *p["rhos"], inf, inf, *reversed(p["sigmas"])])


_register(name="newlattice3", summary="twisted lattice-route identity",
          int_params=("r", "i"),
          qparam_params=("a", "rho1", "rho", "sigma"),
          list_params=("rhos", "sigmas"), validate=_v_latroute,
          **_via_master(_newlattice3_args),
          domain_doc="r >= 2, 1 <= i <= r-1; the inner parameters rho_2..rho_i and "
                     "sigma_2..sigma_i are given as rhos1..rhos(i-1) and "
                     "sigmas1..sigmas(i-1) (or sigma1..sigma(i-1))")

_register(name="lattice3", summary="classical lattice-route identity",
          int_params=("r", "i"),
          qparam_params=("a", "rho1", "rho", "sigma"),
          list_params=("rhos", "sigmas"), validate=_v_latroute,
          **_via_master(_lattice3_args),
          domain_doc="r >= 2, 1 <= i <= r-1; the inner parameters rho_2..rho_i and "
                     "sigma_2..sigma_i are given as rhos1..rhos(i-1) and "
                     "sigmas1..sigmas(i-1) (or sigma1..sigma(i-1))")


# ---------------------------------------------------------------------------
# evaluation and the specialization table
# ---------------------------------------------------------------------------

def identity_names():
    return sorted(CATALOG)


def evaluate_identity(name: str, params: dict, cutoff: int) -> EvalReport:
    """Build both sides independently and compare them exactly below cutoff."""
    try:
        desc = CATALOG[name]
    except KeyError:
        raise UnknownIdentity(f"unknown identity {name!r}; see identity_names()")
    for key in desc.int_params:
        if key not in params or not isinstance(params[key], int):
            raise BadParam(f"{name} needs integer parameter {key!r}")
    for key in desc.qparam_params:
        if key not in params or not isinstance(params[key], QParam):
            raise BadParam(f"{name} needs parameter {key!r}")
    for key in desc.list_params:
        if key not in params or not isinstance(params[key], (list, tuple)):
            raise BadParam(f"{name} needs parameter list {key!r}")
    if desc.validate is not None:
        desc.validate(params)
    t0 = time.perf_counter()
    report = EvalReport(identity=name, params=params, cutoff=cutoff,
                        lhs=desc.lhs(params, cutoff), rhs=desc.rhs(params, cutoff)).compare()
    report.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return report


def specialization_table():
    """Documented specializations of the one-insertion lattice-route identity.

    Each row: lambda1 at the given parameters, with exponents doubled when
    scale=2 and multiplied by the named infinite product, reproduces the
    target identity -- both sides, coefficient by coefficient.
    """
    inf = QParam.infinity()
    rows = [
        {"label": "ag", "source": {"r": 3, "i": 2, "b1": inf, "c1": inf,
                                   "c2": inf, "a": Q},
         "scale": 1, "multiplier": None, "target": "ag",
         "target_params": {"r": 3, "i": 2}},
        {"label": "br33", "source": {"r": 3, "i": 2, "b1": inf, "c1": inf,
                                     "c2": inf, "a": ONE},
         "scale": 1, "multiplier": None, "target": "br33",
         "target_params": {"r": 3, "i": 1}},
        {"label": "bressoud_even", "source": {"r": 3, "i": 2, "b1": inf,
                                              "c1": _neg(2), "c2": inf, "a": Q},
         "scale": 1, "multiplier": None, "target": "bressoud_even",
         "target_params": {"r": 3, "i": 2}},
        {"label": "br35", "source": {"r": 3, "i": 2, "b1": inf, "c1": _neg(0),
                                     "c2": inf, "a": ONE},
         "scale": 1, "multiplier": None, "target": "br35",
         "target_params": {"r": 3, "i": 1}},
        {"label": "b36", "source": {"r": 3, "i": 2, "b1": inf, "c1": _neg(1),
                                    "c2": inf, "a": ONE},
         "scale": 2, "multiplier": "neg_q_qsq", "target": "b36",
         "target_params": {"r": 3, "i": 1}},
        {"label": "b37", "source": {"r": 3, "i": 2, "b1": inf, "c1": _neg(1),
                                    "c2": inf, "a": Q},
         "scale": 2, "multiplier": "neg_q3_qsq", "target": "b37",
         "target_params": {"r": 3, "i": 1}},
        {"label": "b38", "source": {"r": 3, "i": 2, "b1": _neg(1), "c1": inf,
                                    "c2": inf, "a": Q},
         "scale": 2, "multiplier": None, "target": "b38",
         "target_params": {"r": 3, "i": 1}},
        {"label": "b39", "source": {"r": 3, "i": 2, "b1": _neg(1), "c1": _neg(2),
                                    "c2": inf, "a": Q},
         "scale": 2, "multiplier": None, "target": "b39",
         "target_params": {"r": 3, "i": 1}},
    ]
    return rows


# multiplier name -> arg of the infinite product (arg;q^2)_oo
_MULTIPLIERS = {None: None, "neg_q_qsq": _neg(2), "neg_q3_qsq": _neg(6)}


def check_table_row(row: dict, cutoff: int):
    """Verify one specialization row by both routes; returns (ok, detail)."""
    for key in ("source", "target", "target_params", "scale"):
        if key not in row:
            raise BadParam(f"specialization row is missing {key!r}")
    scale = row["scale"]
    src_cut = cutoff // scale
    src = evaluate_identity("lambda1", row["source"], src_cut)
    tgt = evaluate_identity(row["target"], row["target_params"], cutoff)
    mult = _MULTIPLIERS[row.get("multiplier")]
    results = []
    for side_src, side_tgt, which in ((src.lhs, tgt.lhs, "lhs"),
                                      (src.rhs, tgt.rhs, "rhs")):
        s = side_src.scale_exponents(scale)
        if mult is not None:
            s = FactorProduct().times_poch(mult, INF, base=4).series(cutoff, s)
        _, diff = first_diff(s, side_tgt, cutoff)
        results.append((which, diff))
    ok = src.passed and tgt.passed and all(d is None for _, d in results)
    return ok, {"source_passed": src.passed, "target_passed": tgt.passed,
                "sides": results}
