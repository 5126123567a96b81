"""qbailey: an exact q-series engine and identity verification harness.

Everything is computed over the half-integer exponent lattice x = q^(1/2)
with exact rational coefficients; comparisons are coefficientwise equality
strictly below an explicit truncation order, with no tolerances anywhere.
"""

from .errors import (BadParam, CertificateViolation, InvertZero, NegativeN, PoleError,
                     QBaileyError, TruncationUnreachable, UnknownIdentity, UnsupportedLimit)
from .series import INF, Series, first_diff, series_equal
from .qparams import QParam, parse_qparam
from .qfunctions import (esym, jacobi_triple, jtp_sum, poch, poch_recip,
                         poch_val, qbinom, triple_product)
from .pairs import (BaileyPair, BilateralSequence, VerifyReport, invert_pair,
                    make_pair, pairs_agree, relation_rhs, verify_pair)
from .transforms import REGISTRY, apply_transform, f_direct
from .corollaries import corollary_sum, finite_n_check
from .multisum import MultisumSpec, multisum_eval
from .catalog import (CATALOG, EvalReport, check_table_row, evaluate_identity,
                      identity_names, specialization_table)
from .bressoud import bressoud_F, bressoud_G, bressoud_lhs, bressoud_rhs
from .oracle import CongruenceSpec, DenseSeries, dense_invert, dense_mul, partition_gf
from .checks import composition_checks, transform_soundness

__version__ = "1.0.0"
