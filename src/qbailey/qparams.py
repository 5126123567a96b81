"""Parameter values of the form c*q^(h/2), plus the symbolic limits 0 and infinity.

Every free parameter of the Bailey machinery (a, b, c, rho, sigma, b_1..b_N)
is specialized to a monomial c*q^(h/2) with c a nonzero rational and h an
integer, or to one of the two limit markers.  The zero marker exists because
several transforms have documented b = 0 forms ((0;q)_k = 1 throughout),
and infinity selects the hand-written limit form of a transform.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParam
from .series import Series

_FINITE = "finite"
_ZERO = "zero"
_INF = "inf"


@dataclass(frozen=True)
class QParam:
    kind: str
    coeff: Fraction = Fraction(0)
    halves: int = 0

    # -- constructors -------------------------------------------------------

    @staticmethod
    def finite(coeff, halves=0) -> "QParam":
        c = Fraction(coeff)
        if c == 0:
            raise BadParam("finite parameter must have nonzero coefficient; use QParam.zero()")
        return QParam(_FINITE, c, halves)

    @staticmethod
    def zero() -> "QParam":
        return QParam(_ZERO)

    @staticmethod
    def infinity() -> "QParam":
        return QParam(_INF)

    # -- predicates ----------------------------------------------------------

    @property
    def is_finite(self):
        return self.kind == _FINITE

    @property
    def is_zero(self):
        return self.kind == _ZERO

    @property
    def is_infinite(self):
        return self.kind == _INF

    def is_one(self):
        return self.kind == _FINITE and self.coeff == 1 and self.halves == 0

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "QParam") -> "QParam":
        if self.is_zero or other.is_zero:
            if self.is_infinite or other.is_infinite:
                raise BadParam("0 * infinity is undefined")
            return QParam.zero()
        if self.is_infinite or other.is_infinite:
            return QParam.infinity()
        return QParam(_FINITE, self.coeff * other.coeff, self.halves + other.halves)

    def __truediv__(self, other: "QParam") -> "QParam":
        if other.is_zero:
            raise BadParam("division by the zero parameter")
        if other.is_infinite:
            if self.is_infinite:
                raise BadParam("infinity / infinity is undefined")
            return QParam.zero()
        if self.is_zero:
            return QParam.zero()
        if self.is_infinite:
            return QParam.infinity()
        return QParam(_FINITE, self.coeff / other.coeff, self.halves - other.halves)

    def __neg__(self) -> "QParam":
        if not self.is_finite:
            return self
        return QParam(_FINITE, -self.coeff, self.halves)

    def q_shift(self, halves: int) -> "QParam":
        """Multiply by q^(halves/2)."""
        if not self.is_finite:
            return self
        return QParam(_FINITE, self.coeff, self.halves + halves)

    def pow(self, n: int) -> "QParam":
        if self.is_zero:
            if n > 0:
                return self
            if n == 0:
                return QParam.finite(1, 0)
            raise BadParam("negative power of the zero parameter")
        if self.is_infinite:
            raise BadParam("power of an infinite parameter")
        return QParam(_FINITE, self.coeff ** n, self.halves * n)

    def monomial(self, n: int = 1) -> Series:
        """The series c^n * x^(n*halves) for a finite parameter."""
        p = self.pow(n)
        if p.is_zero:
            return Series.zero()
        return Series.monomial(p.coeff, p.halves)

    @property
    def val(self):
        """Valuation in halves; the zero parameter has valuation +inf."""
        if self.is_zero:
            return float("inf")
        if self.is_infinite:
            raise BadParam("infinite parameter has no valuation")
        return self.halves

    # -- io -------------------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.is_infinite:
            return "inf"
        return f"{self.coeff}*q^({self.halves}/2)"


Q = QParam.finite(1, 2)
ONE = QParam.finite(1, 0)

_PARAM_RE = re.compile(
    r"""^\s*
    (?P<coeff>[+-]?(?:\d+(?:/\d+)?)?)        # optional rational coefficient
    \s*\*?\s*
    (?:q(?:\^(?P<exp>\(?-?\d+(?:/2\)?)?|\(-?\d+/2\)))?)?   # optional q power
    \s*$""",
    re.VERBOSE,
)


def parse_qparam(text: str) -> QParam:
    """Parse 'c*q^(h/2)', 'c*q^e', 'q', plain rationals, '0' and 'inf'."""
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return QParam.infinity()
    if t == "0":
        return QParam.zero()
    m = _PARAM_RE.match(t)
    if not m:
        raise BadParam(f"cannot parse parameter {text!r}")
    craw = m.group("coeff")
    has_q = "q" in t
    if craw in ("", "+"):
        coeff = Fraction(1)
        if not has_q:
            raise BadParam(f"cannot parse parameter {text!r}")
    elif craw == "-":
        coeff = Fraction(-1)
        if not has_q:
            raise BadParam(f"cannot parse parameter {text!r}")
    else:
        try:
            coeff = Fraction(craw)
        except (ValueError, ZeroDivisionError):
            raise BadParam(f"cannot parse parameter {text!r}: bad coefficient") from None
    halves = 0
    if has_q:
        eraw = m.group("exp")
        if eraw is None:
            halves = 2
        else:
            eraw = eraw.strip("()")
            if eraw.endswith("/2"):
                halves = int(eraw[:-2])
            else:
                halves = 2 * int(eraw)
    if coeff == 0:
        return QParam.zero()
    return QParam.finite(coeff, halves)
