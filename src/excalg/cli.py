"""Command line surface: orbit classification, multiplication tables,
derivation algebras, the magic square, gradings, Jordan operations,
spinors, and the acceptance suite.

JSON (sorted keys, exact scalar strings) is the machine format; identical
requests produce byte-identical output.  Text output is human-facing and
non-contractual.  Exit codes: 0 success, 1 mathematical check failure,
2 malformed request.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

# Each handler imports the modules it runs, so a request loads only those:
# ``dims``, ``grading`` and rejected requests never load numpy.


@dataclass
class CommandRequest:
    subcommand: str
    flags: dict = field(default_factory=dict)
    payload: Optional[str] = None
    seed: int = 0
    output: str = "json"


def _emit(req: CommandRequest, data, text_fn=None) -> None:
    if req.output == "json":
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        print(text_fn(data) if text_fn else data)


def _load_json(text: str):
    """json.loads, with input nested too deeply for the parser a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the JSON input is nested too deeply") from None


def _cmd_classify_form(req: CommandRequest) -> int:
    from . import forms as fm
    from . import threeform as tf

    n = int(req.flags.get("n", 7))
    form = fm.parse_form(req.payload, n, degree=3)
    label = tf.classify(form, with_stabilizer=True)
    _emit(req, label.to_json(), lambda d: f"{d['label']} {d}")
    return 0


def _cmd_mul_table(req: CommandRequest) -> int:
    from . import composition as co

    name = req.flags["algebra"]
    alg = co.named_algebra(name)
    data = {"algebra": name, "dim": alg.dim, "table": alg.table_json()}

    def render(d):
        lines = [f"{name}: dimension {d['dim']}"]
        for i, row in enumerate(d["table"]):
            cells = []
            for vec in row:
                terms = [
                    (f"{c}*" if c not in ("1/1", "-1/1") else ("-" if c.startswith("-") else ""))
                    + f"e{k}"
                    for k, c in enumerate(vec)
                    if c != "0/1"
                ]
                cells.append("+".join(terms).replace("+-", "-") or "0")
            lines.append(f"e{i} * _ : " + "  ".join(cells))
        return "\n".join(lines)

    _emit(req, data, render)
    return 0


def _cmd_derive(req: CommandRequest) -> int:
    from . import composition as co
    from . import liealg as ll

    name = req.flags["algebra"]
    alg = co.named_algebra(name)
    der = ll.derivations(alg, name=f"der({name})")
    data = {"algebra": name, "derivation_dim": der.dim}
    if req.flags.get("constants"):
        data["structure_constants"] = der.to_json()
    _emit(req, data, lambda d: f"der({name}) has dimension {d['derivation_dim']}")
    return 0


def _cmd_verify(req: CommandRequest) -> int:
    target = req.flags.get("algebra")
    if target == "all" or req.flags.get("all"):
        from . import acceptance as acc

        def echo(line):
            print(line, flush=True)

        results = acc.run_all(seed=req.seed, echo=echo)
        failures = sum(1 for r in results if not r.passed)
        print(f"{len(results) - failures}/{len(results)} criteria passed")
        return 1 if failures else 0
    with open(target, "r", encoding="utf8") as fh:
        data = _load_json(fh.read())
    # what `derive --constants` and `magic-square --build --constants` print
    if isinstance(data, dict) and "structure_constants" in data:
        data = data["structure_constants"]
    from . import liealg as ll  # after the read: a missing file loads no numpy

    sca = ll.SCAlgebra.from_json(data)
    mode = req.flags.get("mode", "full")
    report = ll.jacobi_check(
        sca, mode=mode, samples=int(req.flags.get("samples", 100000)), seed=req.seed
    )
    data = {
        "dim": sca.dim,
        "mode": mode,
        "passed": report.passed,
        "checked": report.checked,
        "witness": list(report.witness[:3]) if report.witness else None,
    }
    _emit(req, data)
    return 0 if report.passed else 1


def _cmd_magic_square(req: CommandRequest) -> int:
    from . import liealg as ll
    from . import magicsquare as ms

    if req.flags.get("table"):
        table = ms.tits_dimension_table()
        data = {
            "rows": ms.ALGEBRA_ORDER,
            "entries": [[{"name": n, "dim": d} for (n, d) in row] for row in table],
        }

        def render(d):
            lines = []
            for ka, row in zip(d["rows"], d["entries"]):
                lines.append(
                    f"{ka}: " + "  ".join(f"{e['name']}({e['dim']})" for e in row)
                )
            return "\n".join(lines)

        _emit(req, data, render)
        return 0
    a, b = req.flags["build"]
    entry = ms.vinberg_build(a.lower(), b.lower(), seed=req.seed)
    data = {
        "pair": list(entry.pair),
        "name": entry.algebra.name,
        "dim": entry.dim,
        "tri_dims": list(entry.tri_dims),
        "killing_nondegenerate": ll.killing_nondegenerate(entry.algebra),
    }
    if req.flags.get("constants"):
        data["structure_constants"] = entry.algebra.to_json()
    _emit(req, data, lambda d: f"g({a},{b}) = {d['name']}, dim {d['dim']}")
    return 0


def _cmd_grading(req: CommandRequest) -> int:
    from . import rootdata as rd

    family = req.flags["type"][:1].upper()
    rank = int(req.flags["type"][1:])
    rs = rd.build_root_system(family, rank)
    node = int(req.flags["node"])
    report = rd.zm_grading(rs, node) if req.flags.get("affine") else rd.z_grading(rs, node)
    _emit(req, report.to_json())
    return 0


def _cmd_dims(req: CommandRequest) -> int:
    from . import rootdata as rd

    record = rd.magic_dimension_formulas(int(req.flags["a"]))
    _emit(req, record.to_json())
    return 0


def _cmd_jordan(req: CommandRequest) -> int:
    from . import jordan as jd

    a = int(req.flags["a"])
    op = req.flags["op"]
    payload = req.payload
    if payload and payload.strip().startswith("{"):
        element = jd.JordanElement.from_json(_load_json(payload))
    elif payload:
        with open(payload, "r", encoding="utf8") as fh:
            element = jd.JordanElement.from_json(_load_json(fh.read()))
    else:
        raise ValueError("jordan requires --input")
    if element.algebra.a != a:
        raise ValueError("element parameter does not match --a")
    if op == "det":
        data = {"det": str(jd.det_cubic(element))}
    elif op == "adj":
        data = {"adj": jd.adjugate(element).to_json()}
    elif op == "rank":
        data = {"rank": jd.jordan_rank(element)}
    elif op == "ch-check":
        data = {"cayley_hamilton": jd.cayley_hamilton_check(element).passed}
    else:
        raise ValueError(f"unknown jordan operation {op!r}")
    _emit(req, data)
    return 0


def _cmd_spinor(req: CommandRequest) -> int:
    from . import clifford as cl
    from . import threeform as tf
    from .scalar import Scalar

    coords = [Scalar.parse(c) for c in req.flags["chi"].split(",")]
    chi = cl.Spinor(coords)
    w = cl.omega_chi(chi)
    label = tf.classify(w)
    data = {"omega_chi": w.to_text(), "label": label.to_json()}
    _emit(req, data, lambda d: f"{d['omega_chi']}  ->  {d['label']['label']}")
    return 0


_DISPATCH = {
    "classify-form": _cmd_classify_form,
    "mul-table": _cmd_mul_table,
    "derive": _cmd_derive,
    "verify": _cmd_verify,
    "magic-square": _cmd_magic_square,
    "grading": _cmd_grading,
    "dims": _cmd_dims,
    "jordan": _cmd_jordan,
    "spinor": _cmd_spinor,
}


def _check_failures() -> tuple:
    """The exceptions that mean a mathematical check failed.  An except
    clause evaluates this only when an exception reaches it, and only a
    loaded magicsquare can have raised its CalibrationFailed."""
    ms = sys.modules.get(f"{__package__}.magicsquare")
    return (AssertionError,) if ms is None else (AssertionError, ms.CalibrationFailed)


def run(req: CommandRequest) -> int:
    handler = _DISPATCH.get(req.subcommand)
    if handler is None:
        print(f"unknown subcommand {req.subcommand!r}", file=sys.stderr)
        return 2
    try:
        return handler(req)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _check_failures() as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excalg",
        description="Exact computations with composition algebras, trivectors, "
        "and the exceptional simple Lie algebras.",
    )
    # accepted both before and after the subcommand; the late occurrence
    # only overrides when actually given (SUPPRESS keeps the global value)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(
        dest="subcommand",
        required=True,
        parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw),
    )

    p = sub.add_parser("classify-form", help="orbit of a trivector")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--form", required=True)

    p = sub.add_parser("mul-table", help="multiplication table of a named algebra")
    p.add_argument(
        "--algebra",
        required=True,
        choices=("R", "C", "H", "O", "split-C", "split-H", "split-O", "sedenion", "sextonion"),
    )

    p = sub.add_parser("derive", help="derivation algebra of a named algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--constants", action="store_true")

    p = sub.add_parser("verify", help="Jacobi verification or the full suite")
    p.add_argument("algebra", help="'all' or a structure-constant JSON file")
    p.add_argument("--mode", choices=("full", "sampled"), default="full")
    p.add_argument("--samples", type=int, default=100000)

    p = sub.add_parser("magic-square", help="dimension table or a single entry")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--table", action="store_true")
    what.add_argument("--build", nargs=2, metavar=("A", "B"))
    p.add_argument("--constants", action="store_true")

    p = sub.add_parser("grading", help="integer or cyclic grading by a node")
    p.add_argument("--type", required=True, help="e.g. E8, F4, G2")
    p.add_argument("--node", required=True)
    p.add_argument("--affine", action="store_true")

    p = sub.add_parser("dims", help="dimension formulas of the exceptional series")
    p.add_argument("--a", required=True, type=int)

    p = sub.add_parser("jordan", help="cubic Jordan algebra operations")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("op", choices=("det", "adj", "rank", "ch-check"))
    p.add_argument("--input", required=True, help="inline JSON or a file path")

    p = sub.add_parser("spinor", help="the trivector attached to a spinor")
    p.add_argument("--omega-chi", action="store_true")
    p.add_argument("--chi", required=True, help="eight comma-separated scalars")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("subcommand", "seed", "format")
        and v is not None
        and v is not False
    }
    payload = None
    if args.subcommand == "classify-form":
        payload = flags.pop("form")
    if args.subcommand == "jordan":
        payload = flags.pop("input")
    req = CommandRequest(
        subcommand=args.subcommand,
        flags=flags,
        payload=payload,
        seed=args.seed,
        output=args.format,
    )
    return run(req)


if __name__ == "__main__":
    sys.exit(main())
