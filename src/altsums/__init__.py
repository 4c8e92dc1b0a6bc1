"""Exact statistics of twisted exponential sums over finite fields.

The library evaluates, in exact arithmetic, the trace functions of a family
of rank 2q-2 local systems on the affine line in odd characteristic, and
confronts their value statistics with the character theory of Alt(2q) and
Sym(2q).  Everything downstream of the field tables is integer, cyclotomic
integer, or rational; floats appear only in human-readable deviation columns.

Results are immutable NamedTuple records (`_asdict`, `_replace`); the inputs
that validate their fields (SystemParams, CharacterContext) are frozen
dataclasses.
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

from .fields import (BudgetExceededError, FieldDescriptor, FieldElement,
                     build_field, embed)
from .cyclotomic import CycInt
from .characters import (CharacterContext, chi2, chi2_minus_one,
                         gauss_identities, gauss_sum, hasse_davenport_check,
                         normalization_constant)
from .traces import (CacheCorruptionError, NonRationalTraceError, SystemParams,
                     TraceTable, descent_consistency, moment_report,
                     normalized_trace, raw_sum, trace_table, trace_tables)
from .groups import (exact_moment, singleton_free_partitions, spectrum,
                     tensor_square_check)
from .identities import (IdentityFalsifiedError, require_ok, unity_root_span,
                         verify_derivative_steps, verify_identity_grouped,
                         verify_identity_split, virtual_character_table,
                         wild_inertia_span)
from .curves import (CurveCount, count_points, curve_moment_report,
                     modified_third_moment)
from .verdict import (VerdictConfig, VerdictReport, distribution_distance,
                      spectrum_membership, verdict)

__all__ = [
    "BudgetExceededError",
    "CacheCorruptionError",
    "CharacterContext",
    "CurveCount",
    "CycInt",
    "FieldDescriptor",
    "FieldElement",
    "IdentityFalsifiedError",
    "NonRationalTraceError",
    "SystemParams",
    "TraceTable",
    "VerdictConfig",
    "VerdictReport",
    "build_field",
    "chi2",
    "chi2_minus_one",
    "count_points",
    "curve_moment_report",
    "descent_consistency",
    "distribution_distance",
    "embed",
    "exact_moment",
    "gauss_identities",
    "gauss_sum",
    "hasse_davenport_check",
    "modified_third_moment",
    "moment_report",
    "normalization_constant",
    "normalized_trace",
    "raw_sum",
    "require_ok",
    "singleton_free_partitions",
    "spectrum",
    "spectrum_membership",
    "tensor_square_check",
    "trace_table",
    "trace_tables",
    "unity_root_span",
    "verdict",
    "verify_derivative_steps",
    "verify_identity_grouped",
    "verify_identity_split",
    "virtual_character_table",
    "wild_inertia_span",
    "__version__",
]
