"""Exception types shared across the engine."""


class QBaileyError(Exception):
    """Base class for all engine errors."""


class InvertZero(QBaileyError):
    """Inversion of a series with no nonzero term below its cutoff."""


class PoleError(QBaileyError):
    """A denominator factor is exactly zero and no convention applies."""


class TruncationUnreachable(QBaileyError):
    """A sum or product could not be certified to truncate below the cutoff."""


class CertificateViolation(QBaileyError):
    """A computed series has a term below its certified valuation bound."""


class BadParam(QBaileyError):
    """Parameter outside the documented domain."""


class NegativeN(BadParam):
    """Negative upper index in a q-binomial coefficient."""


class UnknownIdentity(BadParam):
    """Identity name not present in the catalog."""


class UnsupportedLimit(BadParam):
    """An infinite parameter was passed where no limit form is documented."""
