"""Exact statistics of twisted exponential sums over finite fields.

The library evaluates, in certified exact arithmetic, the trace functions of
a family of rank 2q - 1 local systems on the affine line in odd
characteristic, and confronts their value statistics with the character
theory of Alt(2q) and Sym(2q).  Everything downstream of the field tables is
integer, cyclotomic integer, or rational, except one complex FFT whose values
are rounded to integers under an a-priori error bound and a check of each
rounding; otherwise floats appear only in human-readable deviation columns.

A field element is an int code (altsums.fields): 0 is zero and code j >= 1
is g^(j-1) for the field's generator g, in every argument and result.

Results are immutable named-tuple records (`_asdict`, `_replace`); the inputs
that validate their fields (SystemParams, CharacterContext) are named tuples
too, checked by the constructor, `_make` and `_replace` alike.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# Integer arrays never reach BLAS, so an OpenBLAS worker pool would only cost
# start-up time.  OpenBLAS reads the variable once, when numpy first loads it:
# set it for that import only, and never over a value the user chose.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .fields import BudgetExceededError, FieldDescriptor, build_field, embed
from .cyclotomic import CycInt
from .characters import (CharacterContext, chi2_code, chi2_minus_one,
                         gauss_identities, gauss_sum, hasse_davenport_check,
                         normalization_constant)
from .traces import (CacheCorruptionError, NonRationalTraceError, SystemParams,
                     TraceTable, trace_table, trace_tables)
from .groups import (exact_moment, singleton_free_partitions, spectrum,
                     tensor_square_check)
from .identities import (IdentityFalsifiedError, require_ok,
                         verify_derivative_steps, verify_identity_grouped,
                         verify_identity_split, virtual_character_table,
                         wild_inertia_span)
from .curves import (CurveCount, count_points, curve_moment_report,
                     modified_third_moment)
from .verdict import (VerdictConfig, VerdictReport, distribution_distance,
                      moment_report, spectrum_membership, verdict)

__all__ = [
    "BudgetExceededError",
    "CacheCorruptionError",
    "CharacterContext",
    "CurveCount",
    "CycInt",
    "FieldDescriptor",
    "IdentityFalsifiedError",
    "NonRationalTraceError",
    "SystemParams",
    "TraceTable",
    "VerdictConfig",
    "VerdictReport",
    "build_field",
    "chi2_code",
    "chi2_minus_one",
    "count_points",
    "curve_moment_report",
    "distribution_distance",
    "embed",
    "exact_moment",
    "gauss_identities",
    "gauss_sum",
    "hasse_davenport_check",
    "modified_third_moment",
    "moment_report",
    "normalization_constant",
    "require_ok",
    "singleton_free_partitions",
    "spectrum",
    "spectrum_membership",
    "tensor_square_check",
    "trace_table",
    "trace_tables",
    "verdict",
    "verify_derivative_steps",
    "verify_identity_grouped",
    "verify_identity_split",
    "virtual_character_table",
    "wild_inertia_span",
    "__version__",
]
