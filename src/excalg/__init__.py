"""Exact computations with composition algebras, trivectors, and the
exceptional simple Lie algebras.

Everything is exact arithmetic over Q and Q(i): octonions and their
Cayley-Dickson relatives, the orbit classification of trivectors in up to
seven variables, derivation and triality Lie algebras as exact kernels,
cubic Jordan algebras with their determinant calculus, the magic square
of Lie algebras with verified structure constants, root-system gradings,
and the seven-dimensional spinor machinery.

``import excalg`` is cheap: each public name is imported from its module
on first use, and numpy only with the first module that needs it (all
but ``excalg.scalar`` and ``excalg.rootdata`` do).
"""

import importlib

# Each public name by the module it lives in; __getattr__ (PEP 562)
# imports it from there on first access.
_HOMES = {
    "scalar": ("Scalar", "sc"),
    "linalg": ("Matrix", "Subspace", "kernel", "rank", "solve", "random_invertible"),
    "forms": ("KForm", "parse_form", "wedge", "contract", "pullback", "support"),
    "composition": (
        "AlgElement",
        "CompAlgebra",
        "canonical_octonions",
        "cayley_dickson",
        "named_algebra",
    ),
    "threeform": ("classify", "q_of", "lambda_quartic", "degree7_invariant"),
    "liealg": ("SCAlgebra", "derivations", "jacobi_check", "stabilizer_in_gl"),
    "jordan": ("JordanElement", "jordan_algebra", "det_cubic", "adjugate", "cubic_map"),
    "magicsquare": ("triality_algebra", "vinberg_build", "tits_dimension_table"),
    "rootdata": ("build_root_system", "z_grading", "zm_grading"),
    "clifford": ("Spinor", "clifford_act", "omega_chi"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "AlgElement",
    "CompAlgebra",
    "JordanElement",
    "KForm",
    "Matrix",
    "SCAlgebra",
    "Scalar",
    "Spinor",
    "Subspace",
    "adjugate",
    "build_root_system",
    "canonical_octonions",
    "cayley_dickson",
    "classify",
    "clifford_act",
    "contract",
    "cubic_map",
    "degree7_invariant",
    "derivations",
    "det_cubic",
    "jacobi_check",
    "jordan_algebra",
    "kernel",
    "lambda_quartic",
    "named_algebra",
    "omega_chi",
    "parse_form",
    "pullback",
    "q_of",
    "random_invertible",
    "rank",
    "sc",
    "solve",
    "stabilizer_in_gl",
    "support",
    "tits_dimension_table",
    "triality_algebra",
    "vinberg_build",
    "wedge",
    "z_grading",
    "zm_grading",
]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        # also how ``from excalg import composition`` reaches the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
