"""Exact combinatorics of Young diagrams: generalized binomial families,
content moments, growth kernels, and an identity verifier."""

from .coefficients import nbi, npbi, npbi_table, pbi
from .growth import cotransition_kernel, dimension, sample_growth
from .moments import (
    S_ROUTES,
    SIGMA_ROUTES,
    corner_binomials,
    moment_values,
    pieri_coefficients,
    row_column_binomials,
)
from .partitions import EMPTY, Partition, enumerate_partitions, partitions_of, z_of
from .series import BiSeries, InvariantError, XPolynomial
from .shifted import d_k
from .verify import VerificationReport, identity_ids, run_all, run_identity

__version__ = "0.1.0"

__all__ = [
    "BiSeries",
    "EMPTY",
    "InvariantError",
    "Partition",
    "SIGMA_ROUTES",
    "S_ROUTES",
    "VerificationReport",
    "XPolynomial",
    "corner_binomials",
    "cotransition_kernel",
    "d_k",
    "dimension",
    "enumerate_partitions",
    "identity_ids",
    "moment_values",
    "nbi",
    "npbi",
    "npbi_table",
    "partitions_of",
    "pbi",
    "pieri_coefficients",
    "row_column_binomials",
    "run_all",
    "run_identity",
    "sample_growth",
    "z_of",
    "__version__",
]
