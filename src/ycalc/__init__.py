"""Exact combinatorics of Young diagrams: generalized binomial families,
content moments, growth kernels, and an identity verifier."""

from .coefficients import nbi, npbi, npbi_table, pbi
from .growth import (
    DimensionTable,
    GrowthKernel,
    cotransition_kernel,
    exact_cotransition_moment,
    exact_transition_moment,
    sample_growth,
    transition_kernel,
)
from .moments import (
    corner_binomials,
    pieri_coefficients,
    row_column_binomials,
    s_r_closed,
    s_r_direct,
    s_r_lagrange,
    sigma_r_closed,
    sigma_r_direct,
    sigma_r_lagrange,
)
from .partitions import EMPTY, Partition, enumerate_partitions, partitions_of, z_of
from .series import BiSeries, InvariantError, Rational, UniPoly, XPolynomial
from .shifted import d_k, f_npk
from .verify import VerificationReport, identity_ids, run_all, run_identity

__version__ = "0.1.0"

__all__ = [
    "BiSeries",
    "DimensionTable",
    "EMPTY",
    "GrowthKernel",
    "InvariantError",
    "Partition",
    "Rational",
    "UniPoly",
    "VerificationReport",
    "XPolynomial",
    "corner_binomials",
    "cotransition_kernel",
    "d_k",
    "enumerate_partitions",
    "exact_cotransition_moment",
    "exact_transition_moment",
    "f_npk",
    "identity_ids",
    "nbi",
    "npbi",
    "npbi_table",
    "partitions_of",
    "pbi",
    "pieri_coefficients",
    "row_column_binomials",
    "run_all",
    "run_identity",
    "s_r_closed",
    "s_r_direct",
    "s_r_lagrange",
    "sample_growth",
    "sigma_r_closed",
    "sigma_r_direct",
    "sigma_r_lagrange",
    "transition_kernel",
    "z_of",
    "__version__",
]
