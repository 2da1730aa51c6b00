#!/usr/bin/env python3
"""Per-kind timers on warm passes of the benchmark's identities mix.

Sets up the passes of ``perfbench/workloads.py``'s ``identity_requests``
(the same seeded inputs and proportions as the ``identities`` workload:
alternative, Moufang and norm identities on O and split-O, sedenion
counterexamples, Cayley-Hamilton and adj(adj x) = det(x) x in H3(a), and
trivector pullbacks), then runs one untimed warm-up pass on inputs of
their own, so that the one-time builds of cached tables (the index tables
of ``threeform._tables``, for one) are charged to no stage, and then the
timed passes, warm in this fresh interpreter, with

- each check timed and summed by identity kind;
- the element product loop timed as one layer: the outermost call of
  ``StructureTensor.product`` (the Scalar product) or of
  ``StructureTensor.vec_product`` (the product of cleared integer vectors),
  whichever the source has; the layer includes clearing the inputs and
  building the output;
- the pullback checks split into five stages, by the functions of
  ``PULLBACK_STAGES`` that the source has (the outermost one counts): the
  pullback itself, the support rank, the Gram matrix of q, its rank, and
  the linear-divisor test; ``rest`` is the remainder of the kind's time
  (clearing the coefficients and the classification's own code).

Prints one JSON line: the set-up time (the warm-up pass's inputs
included), the warm-up pass's time, the median pass time, each kind's
time per pass and share of a pass, the product layer's time per pass and
share, each pullback stage's time per pass and share, and the peak
resident set.  Nothing under ``perfbench/`` is changed; the checks use
public element operations only, as the workload's do.  Run it in a fresh
interpreter per measurement:

    PYTHONPATH=src python scripts/identity_stages.py [--seed N] [--passes K]
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

clock = time.perf_counter
PRODUCT_LOOP = ("product", "vec_product")
# (stage, module, attribute): the Scalar path calls forms.form_rank, q_of,
# QuadForm.rank and linear_divisor_dim; the integer path calls _quad_form,
# QuadForm.rank and, on a named table, _kernel (named _nullity before it
# returned the kernel vectors)
PULLBACK_STAGES = (
    ("pullback", "forms", "pullback"),
    ("support_rank", "forms", "form_rank"),
    ("gram", "threeform", "q_of"),
    ("gram", "threeform", "_quad_form"),
    ("divisor", "threeform", "linear_divisor_dim"),
    ("table", "threeform", "_nullity"),
    ("table", "threeform", "_kernel"),
)
TABLE_STAGE = {"contraction": "support_rank", "divisor": "divisor", "action": "stabilizer"}


def setup(seed, passes):
    """The algebras, the prepared requests of each pass (passes 0 to
    passes - 1, then the warm-up pass), and the Jordan basis adjugates
    computed, as the workload's set-up does."""
    from excalg import composition as co
    from excalg import jordan as jd
    from excalg import linalg as la
    from excalg import threeform as tf
    from excalg.scalar import Scalar

    algebras = {
        "o": co.canonical_octonions(),
        "split-o": co.named_algebra("split-o"),
        "sedenion": co.named_algebra("sedenion"),
    }

    def prepare(req):
        kind, param = req["kind"], req["param"]
        if kind in workloads.ARITY:
            alg = algebras[param]
            return [alg.element([Scalar.parse(c) for c in e]) for e in req["elements"]]
        if kind in ("cayley_hamilton", "adj_adj"):
            return [jd.jordan_algebra(param).element([Scalar.parse(c) for c in req["coords"]])]
        g = la.random_invertible(7, seed=req["matrix_seed"], height=2, field="gaussian")
        return [g, tf.representative(param)]

    prepared = [
        [(req, prepare(req)) for req in workloads.identity_requests(seed, p)]
        for p in range(passes + 1)
    ]
    for a in (1, 2, 4, 8):
        jd.jordan_algebra(a).basis_adjugates()
    return prepared


def run_pass(requests, by_kind):
    """Check every request of one pass, adding each check's time to its
    kind in by_kind."""
    for req, elems in requests:
        t = clock()
        if not check(req, elems):
            raise SystemExit(f"check {req['id']} ({req['kind']}, {req['param']}) failed")
        by_kind[req["kind"]] = by_kind.get(req["kind"], 0.0) + clock() - t


def check(req, args):
    """One check's outcome; True when the identity (or, for the sedenions,
    the counterexample) holds."""
    from excalg import forms as fm
    from excalg import jordan as jd
    from excalg import threeform as tf

    kind = req["kind"]
    if kind == "alternative":
        x, y = args
        xx = x * x
        return x * (x * y) == xx * y and (y * x) * x == y * xx and (x * y) * x == x * (y * x)
    if kind == "moufang":
        x, y, z = args
        return (
            z * (x * (z * y)) == ((z * x) * z) * y
            and x * (z * (y * z)) == ((x * z) * y) * z
            and (z * x) * (y * z) == (z * (x * y)) * z
        )
    if kind in ("norm", "sedenion"):
        u, v = args
        return ((u * v).norm() == u.norm() * v.norm()) == (kind == "norm")
    if kind == "cayley_hamilton":
        return jd.cayley_hamilton_check(args[0]).passed
    if kind == "adj_adj":
        (x,) = args
        return jd.adjugate(jd.adjugate(x)) == x.scale(jd.det_cubic(x))
    g, rep = args
    return tf.classify(fm.pullback(g, rep)).label == req["param"]


def outermost(fn, depth, book):
    """fn timed only when no other function sharing the one-element list
    `depth` is running; each timed call's seconds go to book(args, seconds)."""

    def wrapper(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] = 1
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] = 0
            book(args, clock() - t)

    return wrapper


def time_product_loop(spent):
    """Wrap the product methods that exist; only the outermost call counts."""
    from excalg import tensor

    def book(args, seconds):
        spent[0] += seconds

    depth = [0]
    names = [n for n in PRODUCT_LOOP if hasattr(tensor.StructureTensor, n)]
    for name in names:
        setattr(tensor.StructureTensor, name, outermost(getattr(tensor.StructureTensor, name), depth, book))
    return names


def time_pullback_stages(spent):
    """Wrap the stage functions that exist, and QuadForm.rank; only the
    outermost stage of a call counts.  _kernel (or _nullity) is booked by
    its table."""
    import importlib

    from excalg import threeform as tf

    def booker(stage):
        def book(args, seconds):
            name = TABLE_STAGE[args[3]] if stage == "table" else stage
            spent[name] = spent.get(name, 0.0) + seconds

        return book

    depth = [0]
    wrapped = []
    for stage, module, name in PULLBACK_STAGES:
        owner = importlib.import_module(f"excalg.{module}")
        if hasattr(owner, name):
            setattr(owner, name, outermost(getattr(owner, name), depth, booker(stage)))
            wrapped.append(f"{module}.{name}")
    tf.QuadForm.rank = property(outermost(tf.QuadForm.rank.fget, depth, booker("q_rank")))
    return wrapped + ["threeform.QuadForm.rank"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=6)
    args = parser.parse_args()
    start = clock()
    *prepared, warm_up = setup(args.seed, args.passes)
    setup_s = clock() - start
    start = clock()
    run_pass(warm_up, {})
    warm_up_s = clock() - start
    product_s = [0.0]
    wrapped = time_product_loop(product_s)
    stage_s = {}
    stages_wrapped = time_pullback_stages(stage_s)
    by_kind, walls, products = {}, [], []
    for requests in prepared:
        before, t0 = product_s[0], clock()
        run_pass(requests, by_kind)
        walls.append(clock() - t0)
        products.append(product_s[0] - before)
    total = sum(walls)
    report = {
        "seed": args.seed,
        "passes": args.passes,
        "setup_s": round(setup_s, 4),
        "warm_up_s": round(warm_up_s, 4),
        "pass_s_median": round(statistics.median(walls), 5),
        "pass_s": [round(w, 5) for w in walls],
        "product_layer": wrapped,
        "product_s_per_pass": round(sum(products) / args.passes, 5),
        "product_share": round(sum(products) / total, 3),
    }
    for kind in sorted(by_kind):
        report[f"{kind}_s_per_pass"] = round(by_kind[kind] / args.passes, 5)
        report[f"{kind}_share"] = round(by_kind[kind] / total, 3)
    stage_s["rest"] = by_kind.get("pullback", 0.0) - sum(stage_s.values())
    report["pullback_stage_functions"] = stages_wrapped
    report["pullback_stage_s_per_pass"] = {k: round(v / args.passes, 5) for k, v in stage_s.items()}
    report["pullback_stage_share"] = {k: round(v / total, 3) for k, v in stage_s.items()}
    report["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
