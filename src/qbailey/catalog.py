"""Named multisum-equals-product identities and their evaluation.

Each of the 21 classical families is one ``_family`` row: domain bounds
(the validator and the documented domain), the ``_chain_spec`` data of the
left side's nested multisum, and the right side's product terms read off the
statement: a prefactor of infinite products times a finite sum of triple
products (``_product_side``).  The two sides share no formula.
``bressoud_master`` and the lattice-route rows (``lambda1``, ``lattice3``,
``newlattice3``) are instead parameter maps onto the master identity's
multisum and j-sum in ``bressoud``.  Half-integer
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


def _mri(p):
    """A classical row's (m, r, i); the ones it does not take are None."""
    return p.get("m"), p.get("r"), p["i"]


def _product_side(side):
    """The right side described by side(m, r, i) = (prefactor, terms).

    ``prefactor`` is a FactorProduct of infinite products (mbr37 adds one
    finite factor).  ``terms`` lists (coeff, h, mod, z) for
    coeff q^(h/2) (Q, q^(z/2), Q/q^(z/2); Q)_oo with Q = q^(mod/2).  The side
    is the prefactor times the sum of the terms, or the prefactor alone when
    there are none.
    """
    def rhs(p, cutoff):
        pre, terms = side(*_mri(p))
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


def _over_pochs(mod, exps):
    """1/prod_e (q^e;q^mod)_oo, the whole right side of rr and gg."""
    pre = FactorProduct()
    for e in exps:
        pre.times_poch(QParam.finite(1, 2 * e), INF, base=2 * mod, den=True)
    return pre


def _neg_q_over_q2():
    """(-q;q^2)_oo/(q^2;q^2)_oo, the prefactor of the doubled-base sides."""
    return (FactorProduct().times_poch(_neg(2), INF, base=4)
            .times_poch(_Q2, INF, base=4, den=True))


# ---------------------------------------------------------------------------
# classical identities: one row per family
# ---------------------------------------------------------------------------

def _family(name, summary, domain, chain, side, note=""):
    """Register a classical row: a chain multisum equal to a product side.

    ``domain`` is None for i in {0, 1}, or (has_m, lo, off) for m >= 0 (when
    has_m), r >= 2 and lo <= i <= r + off; the validator and the documented
    domain both come from it, and ``note`` is appended to the latter.
    chain(m, r, i) returns the ``_chain_spec`` arguments of the left side and
    side(m, r, i) the (prefactor, terms) of ``_product_side``.
    """
    if domain is None:
        int_params, doc = ("i",), "i in {0,1}"

        def validate(p):
            _need(p["i"] in (0, 1), f"{name} needs i in {{0, 1}}")
    else:
        has_m, lo, off = domain
        int_params = ("m", "r", "i") if has_m else ("r", "i")
        i_range = f"{lo} <= i <= r" + (f"{off:+d}" if off else "")
        doc = ("m >= 0, " if has_m else "") + f"r >= 2, {i_range}"

        def validate(p):
            if has_m:
                _need(p["m"] >= 0, "m >= 0 required (negative m is not specified)")
            _need(p["r"] >= 2, "r >= 2 required")
            _need(lo <= p["i"] <= p["r"] + off, f"needs {i_range}")

    _register(name=name, summary=summary, int_params=int_params, validate=validate,
              lhs=lambda p, cutoff: multisum_eval(_chain_spec(**chain(*_mri(p))), cutoff),
              rhs=_product_side(side), domain_doc=doc + note)


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


_family("rr", "two single-sum identities with modulus-5 products", None,
        lambda m, r, i: dict(depth=1, lb=0, expo=lambda d, s: 2 * (s * s + (1 - i) * s),
                             links=[2]),
        lambda m, r, i: (_over_pochs(5, (2 - i, 3 + i)), ()))

_family("ag", "odd-moduli multisum family", (False, 1, 0),
        lambda m, r, i: dict(depth=r - 1, lb=0, links=[2] * (r - 1),
                             expo=lambda d, s: 2 * s * s + (2 * s if d >= i else 0)),
        lambda m, r, i: (_over_q(), [(1, 0, 2 * (2 * r + 1), 2 * i)]))

_family("br33", "odd-moduli companion with k-indexed tail", (False, 0, -1),
        lambda m, r, i: dict(depth=r - 1, lb=0, links=[2] * (r - 1),
                             expo=lambda d, s: 2 * s * s - (2 * s if d <= i else 0)),
        lambda m, r, i: (_over_q(), [(1, 0, 2 * (2 * r + 1), 2 * (r - i + k))
                                     for k in range(i + 1)]))


def _mag_chain(m, r, i):
    def expo(d, s):
        e = 2 * s * s + 2 * m * s - (2 * s if d <= i else 0)
        if d == r:
            e += s * (s - 1)
        return e

    def extra(fp, d, s):
        if d == r:
            _shifted_binom_tail(fp, m, s)

    return dict(depth=r, lb=-(m // 2), expo=expo, extra=extra, last_upper=0)


_family("mag", "m-interpolated odd-moduli family", (True, 0, 0), _mag_chain,
        lambda m, r, i: (_over_q(), [(1, 2 * m * k, 2 * (2 * r + 1),
                                      2 * ((m + 1) * r - i + 2 * k))
                                     for k in range(i + 1)]))

_family("bressoud_even", "even-moduli multisum family", (False, 1, 0),
        lambda m, r, i: dict(depth=r - 1, lb=0, links=[2] * (r - 2) + [4],
                             expo=lambda d, s: 2 * s * s + (2 * s if d >= i else 0)),
        lambda m, r, i: (_over_q(), [(1, 0, 4 * r, 2 * i)]))

_family("br35", "even-moduli companion with k-indexed tail", (False, 0, -1),
        lambda m, r, i: dict(depth=r - 1, lb=0, links=[2] * (r - 2) + [4],
                             expo=lambda d, s: 2 * s * s - (2 * s if d <= i else 0)),
        lambda m, r, i: (_over_q(), [(1, 0, 4 * r, 2 * (r - i + 2 * k))
                                     for k in range(i + 1)]))


def _mb_chain(m, r, i):
    def expo(d, s):
        return 2 * s * s + (2 * m * s if d <= r - 1 else 0) - (2 * s if d <= i else 0)

    def extra(fp, d, s):
        if d == r:
            fp.times_poch(_neg(2), m + 2 * s - 1)
            _shifted_binom_tail(fp, m, s, base=4)

    return dict(depth=r, lb=-(m // 2), expo=expo, links=[2] * (r - 2) + [4],
                extra=extra, last_upper=0)


def _mb_side(m, r, i):
    if m % 2 == 0:
        mm = m // 2
        return _over_q(), [(Fraction(sign(l), 2), 4 * mm * k + 4 * mm * l, 4 * r,
                            2 * (2 * mm * (r - 1) + r - i + 2 * k + 2 * l))
                           for k in range(i + 1) for l in range(2 * mm + 1)]
    mm = (m - 1) // 2
    h0 = 2 * ((2 - r) * mm * mm + (1 + i - r) * mm)
    return _over_q(), [(sign(mm), h0 + 4 * l, 4 * r, 2 * (2 * r - 2 * mm - 1 - i + 4 * l))
                       for l in range(mm + 1)]


def _mb_odd_i_side(m, r, i):
    """The single closed form valid for odd i and every m >= 0."""
    _need(i % 2 == 1, "closed form only for odd i")
    return _over_q(), [(1, 4 * m * k, 4 * r, 2 * (m * (r - 1) + r - i + 4 * k))
                       for k in range((i - 1) // 2 + 1)]


mb_rhs_odd_i = _product_side(_mb_odd_i_side)

_family("mb", "m-interpolated even-moduli family (parity-split tail)", (True, 0, -1),
        _mb_chain, _mb_side, note=" (the i = r edge diverges)")


def _fij0_chain(m, r, i):
    def expo(d, s):
        e = 2 * s * s + (2 * s if d >= i else 0)
        if d == r - 1:
            e += 2 * s
        return e

    def extra(fp, d, s):
        if d == 1:
            fp.times_factor(_neg(2))  # the (1+q) prefactor is the factor (1 - (-q))

    return dict(depth=r - 1, lb=0, expo=expo, links=[2] * (r - 2) + [4], extra=extra)


_family("fij0", "doubled even-moduli companion, two-product tail", (False, 1, 0),
        _fij0_chain,
        lambda m, r, i: (_over_q(), [(1, 0, 4 * r, 2 * (2 * r - i - 1)),
                                     (1, 2, 4 * r, 2 * (2 * r - i + 1))]))


def _fij_chain(m, r, i):
    def expo(d, s):
        e = 2 * s * s - (2 * s if d <= i else 0)
        if d == r - 1:
            e += 2 * s
        return e

    return dict(depth=r - 1, lb=0, expo=expo, links=[2] * (r - 2) + [4])


_family("fij", "even-moduli companion with shifted tail products", (False, 0, -1),
        _fij_chain,
        lambda m, r, i: (_over_q(), [(1, 0, 4 * r, 2 * (r - i + 2 * k - 1))
                                     for k in range(i + 1)]))


def _mfij_chain(m, r, i):
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

    return dict(depth=r, lb=-(m // 2), expo=expo, links=[2] * (r - 2) + [4],
                extra=extra, last_upper=0)


_family("mfij", "m-interpolated doubled-companion family", (True, 0, -1), _mfij_chain,
        lambda m, r, i: (_over_q(), [(1, 2 * m * k, 4 * r,
                                      2 * ((m + 1) * (r - 1) - i + 2 * k))
                                     for k in range(i + 1)]),
        note=" (the i = r edge diverges)")

_family("gg", "single-sum modulus-8 pair", None,
        lambda m, r, i: dict(depth=1, lb=0, expo=lambda d, s: 2 * (s * s + 2 * (1 - i) * s),
                             links=[4],
                             extra=lambda fp, d, s: fp.times_poch(_neg(2), s, base=4)),
        lambda m, r, i: (_over_pochs(8, (3 - 2 * i, 4, 5 + 2 * i)), ()))


# ---------------------------------------------------------------------------
# the doubled-base quadruple and their m-versions
# ---------------------------------------------------------------------------

def _b3x(r, expo, neg_halves):
    """Doubled-base chain over s_1..s_{r-1} with (-q^(neg/2) q^{2 s_{r-1}};q^2)_oo."""
    def extra(fp, d, s):
        if d == r - 1:
            fp.times_poch(_neg(neg_halves + 4 * s), INF, base=4)

    return dict(depth=r - 1, lb=0, expo=expo, links=[4] * (r - 1), extra=extra)


_family("b36", "doubled-base modulus-4r family, k-tail", (False, 0, -1),
        lambda m, r, i: _b3x(r, lambda d, s: 4 * (s * s - (s if d <= i else 0)), 2),
        lambda m, r, i: (_neg_q_over_q2(), [(1, 0, 8 * r, 2 * (2 * r - 2 * i + 2 * k - 1))
                                            for k in range(i + 1)]))

_family("b37", "doubled-base modulus-4r family, signed k-tail", (False, 0, -1),
        lambda m, r, i: _b3x(r, lambda d, s: 4 * (s * s + (s if d >= i + 1 else 0)), 6),
        lambda m, r, i: (_neg_q_over_q2(), [(sign(k), 2 * k, 8 * r, 2 * (2 * i + 1 - 2 * k))
                                            for k in range(i + 1)]))


def _b38_chain(r, i, last_base):
    def extra(fp, d, s):
        if d == 1:
            fp.times_poch(_neg(2 - 4 * s), s, base=4)  # (-q^{1-2s_1};q^2)_{s_1}

    def extra_floor(d, s):
        # the insertion at s_1 dips below valuation 0 (exponents 1-2s_1, ...)
        if d == 1:
            v, _ = poch_val(_neg(2 - 4 * s), s, base=4)
            return v
        return 0

    return dict(depth=r - 1, lb=0,
                expo=lambda d, s: 4 * (s * s + (s if d >= i + 1 else 0)),
                links=[4] * (r - 2) + [last_base], extra=extra, extra_floor=extra_floor)


_family("b38", "doubled-base single-product family", (False, 0, -1),
        lambda m, r, i: _b38_chain(r, i, last_base=4),
        lambda m, r, i: (_neg_q_over_q2(), [(1, 0, 8 * r, 2 * (2 * i + 1))]))

_family("b39", "doubled-base single-product family, shifted modulus", (False, 0, -1),
        lambda m, r, i: _b38_chain(r, i, last_base=8),
        lambda m, r, i: (_neg_q_over_q2(), [(1, 0, 8 * r - 4, 2 * (2 * i + 1))]))


def _mbr36_chain(m, r, i):
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

    return dict(depth=r, lb=-(m // 2), expo=expo, extra=extra, last_upper=0)


_family("mbr36", "half-lattice m-version, even and doubled pair", (True, 0, -1),
        _mbr36_chain,
        lambda m, r, i: (_over_q(), [(1, 2 * m * k, 4 * r,
                                      2 * ((m + 1) * r - i + 2 * k) - (m + 1))
                                     for k in range(i + 1)]),
        note=" (the i = r edge diverges)")


def _mbr37_chain(m, r, i):
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

    return dict(depth=r, lb=-(m // 2), expo=expo, extra=extra, last_upper=0)


def _mbr37_side(m, r, i):
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


_family("mbr37", "half-lattice m-version with parity-split tail", (True, 0, -1),
        _mbr37_chain, _mbr37_side)


def _mbr89_expo(m, i, d, s):
    # the a^{s_r} weight of the underlying chain keeps its full m s_r part at
    # the last level; the two-parameter refinement halves only the s_1 weight
    if d == 1:
        return s * s + m * s + s - 2 * s * (1 if 1 <= i else 0)
    return 2 * s * s + 2 * m * s - (2 * s if d <= i else 0)


def _mbr38_chain(m, r, i):
    def extra(fp, d, s):
        if d == 1:
            fp.times_poch(_neg(m), s)
        if d == r:
            _shifted_binom_tail(fp, m, s, with_csq=True)

    return dict(depth=r, lb=-(m // 2), expo=lambda d, s: _mbr89_expo(m, i, d, s),
                extra=extra, last_upper=0)


def _mbr38_side(m, r, i):
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


_family("mbr38", "half-lattice m-version with 2i-tail", (True, 0, -1),
        _mbr38_chain, _mbr38_side)


def _mbr39_chain(m, r, i):
    def expo(d, s):
        e = _mbr89_expo(m, i, d, s)
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

    return dict(depth=r, lb=-(m // 2), expo=expo, extra=extra, last_upper=0)


def _mbr39_side(m, r, i):
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


_family("mbr39", "half-lattice m-version, shifted modulus", (True, 0, -1),
        _mbr39_chain, _mbr39_side)


def _new_chain(r, i, half_tail):
    def expo(d, s):
        if d == 1:
            return s * s + s - 2 * s * (1 if 1 <= i else 0)
        return 2 * s * s - (2 * s if d <= i else 0)

    def extra(fp, d, s):
        if d == 1:
            fp.times_poch(_neg(0), s)
        if half_tail and d == r - 1:
            fp.times_poch(_neg(1), s, den=True)

    return dict(depth=r - 1, lb=0, expo=expo, links=[2] * (r - 1), extra=extra)


_family("new1", "companion with (-1)_{s_1} insertion", (False, 0, -1),
        lambda m, r, i: _new_chain(r, i, half_tail=False),
        lambda m, r, i: (_over_q().times_poch(_neg(2), INF),
                         [(1, 0, 4 * r, 2 * (r - i + k)) for k in range(2 * i + 1)]))

_family("new2", "half-lattice companion with (-1)_{s_1} insertion", (False, 0, -1),
        lambda m, r, i: _new_chain(r, i, half_tail=True),
        lambda m, r, i: (_over_q().times_poch(_neg(2), INF),
                         [(1, 0, 4 * r - 2, 2 * (r - i + k) - 1) for k in range(2 * i + 1)]))


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
