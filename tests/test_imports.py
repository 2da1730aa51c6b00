"""What a fresh interpreter loads: ``import excalg`` loads no submodule,
the CLI loads only the modules of the subcommand it runs, and every public
name still resolves to the object of its home module."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import excalg

SRC = str(Path(excalg.__file__).resolve().parent.parent)

PUBLIC = [
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

HOMES = {
    "scalar": ["Scalar", "sc"],
    "linalg": ["Matrix", "Subspace", "kernel", "rank", "solve", "random_invertible"],
    "forms": ["KForm", "parse_form", "wedge", "contract", "pullback", "support"],
    "composition": ["AlgElement", "CompAlgebra", "canonical_octonions", "cayley_dickson", "named_algebra"],
    "threeform": ["classify", "q_of", "lambda_quartic", "degree7_invariant"],
    "liealg": ["SCAlgebra", "derivations", "jacobi_check", "stabilizer_in_gl"],
    "jordan": ["JordanElement", "jordan_algebra", "det_cubic", "adjugate", "cubic_map"],
    "magicsquare": ["triality_algebra", "vinberg_build", "tits_dimension_table"],
    "rootdata": ["build_root_system", "z_grading", "zm_grading"],
    "clifford": ["Spinor", "clifford_act", "omega_chi"],
}


def loaded_after(code):
    """What code printed, and the modules loaded after it ran, in a fresh
    interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    *printed, modules = proc.stdout.splitlines()
    return printed, set(json.loads(modules))


def cli_loaded(*argv):
    """Exit code and loaded modules of one CLI request in a fresh interpreter."""
    printed, loaded = loaded_after(
        "from excalg import cli\n"
        f"try:\n    code = cli.main({list(argv)!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
        "print(code)"
    )
    return int(printed[-1]), loaded


def test_bare_import_loads_no_submodule():
    _, loaded = loaded_after("import excalg")
    assert "numpy" not in loaded
    assert sorted(m for m in loaded if m.startswith("excalg")) == ["excalg"]


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (("dims", "--a", "8"), 0, {"excalg.rootdata"}),
        (("grading", "--type", "E8", "--node", "1", "--affine"), 0, {"excalg.rootdata"}),
        (("frobnicate",), 2, set()),
        (("mul-table", "--algebra", "Q"), 2, set()),
        (("verify", "no-such-file.json"), 2, set()),
    ],
    ids=["dims", "grading", "unknown-subcommand", "bad-choice", "verify-missing-file"],
)
def test_cli_loads_only_its_subcommand(argv, code, modules):
    exit_code, loaded = cli_loaded(*argv)
    assert exit_code == code
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("excalg.")} == {"excalg.cli"} | modules


def test_verify_does_not_load_composition(tmp_path):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 1, "entries": []}))
    exit_code, loaded = cli_loaded("verify", str(path))
    assert exit_code == 0 and "excalg.liealg" in loaded
    assert "excalg.composition" not in loaded


def test_scalar_loads_no_fractions():
    # Scalars are integer triples; only reading .re or .im builds a Fraction
    printed, loaded = loaded_after(
        "from excalg.scalar import Scalar, sc\n"
        "print(Scalar.parse('(1/2)+(-3/4)i') * sc(3) / sc(7) - 1)"
    )
    assert printed == ["(-11/14)+(-9/28)i"]
    assert "fractions" not in loaded
    from fractions import Fraction

    from excalg.scalar import Scalar

    half = Scalar.rational(1, 2)
    assert type(half.re) is Fraction and (half.re, half.im) == (Fraction(1, 2), 0)


def test_all_is_unchanged():
    assert excalg.__all__ == PUBLIC


def test_names_resolve_to_their_home_module():
    assert sorted(n for names in HOMES.values() for n in names) == sorted(PUBLIC)
    for module, names in HOMES.items():
        home = importlib.import_module(f"excalg.{module}")
        for name in names:
            assert getattr(excalg, name) is getattr(home, name), name
    assert set(PUBLIC) <= set(dir(excalg))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from excalg import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(excalg, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        excalg.no_such_name
    # the import system falls back to the submodule on that AttributeError
    from excalg import composition

    assert composition is importlib.import_module("excalg.composition")
