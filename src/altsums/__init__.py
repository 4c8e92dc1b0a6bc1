"""Exact statistics of twisted exponential sums over finite fields.

The library evaluates, in certified exact arithmetic, the trace functions of
a family of rank 2q - 1 local systems on the affine line in odd
characteristic, and confronts their value statistics with the character
theory of Alt(2q) and Sym(2q).  Everything downstream of the field tables is
integer or rational (cyclotomic integers only in the Gauss-sum API), except
one complex FFT whose values are rounded to integers under an a-priori error
bound and a check of each rounding; otherwise floats appear only in
human-readable deviation columns.

A field element is an int code (altsums.fields): 0 is zero and code j >= 1
is g^(j-1) for the field's generator g, in every argument and result.

Results are immutable named-tuple records (`_asdict`, `_replace`); the inputs
that validate their fields (SystemParams, CharacterContext) are named tuples
too, checked by the constructor, `_make` and `_replace` alike.

The package loads lazily (PEP 562): `import altsums` imports numpy and no
layer module.  A public name, or a layer module's name, imports its home
module on first access and is the very object that module holds; until then
it is not in `vars(altsums)`.
"""

__version__ = "0.1.0"

import importlib as _importlib
import os as _os
import sys as _sys
import types as _types

# Integer arrays never reach BLAS, so an OpenBLAS worker pool would only cost
# start-up time.  OpenBLAS reads the variable once, when numpy first loads it:
# set it for that import only, and never over a value the user chose.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

# The public names, by home module.
_EXPORTS = {
    "fields": ("BudgetExceededError", "FieldDescriptor", "build_field", "embed"),
    "cyclotomic": ("CycInt",),
    "characters": ("CharacterContext", "chi2_code", "chi2_minus_one",
                   "gauss_identities", "gauss_sum", "hasse_davenport_check",
                   "normalization_constant"),
    "traces": ("CacheCorruptionError", "NonRationalTraceError", "SystemParams",
               "TraceTable", "trace_table", "trace_tables"),
    "groups": ("exact_moment", "singleton_free_partitions", "spectrum",
               "tensor_square_check"),
    "identities": ("IdentityFalsifiedError", "require_ok", "verify_derivative_steps",
                   "verify_identity_grouped", "verify_identity_split",
                   "virtual_character_table", "wild_inertia_span"),
    "curves": ("CurveCount", "count_points", "modified_third_moment"),
    "verdict": ("VerdictConfig", "VerdictReport", "distribution_distance",
                "moment_report", "spectrum_membership", "verdict"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))


class _Package(_types.ModuleType):
    # Importing altsums.verdict binds the submodule to the package's
    # `verdict`; the public function of that name keeps it.
    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, _types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
