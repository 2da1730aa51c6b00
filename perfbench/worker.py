"""Fresh-interpreter side of the benchmark.

run.py starts this script for every unit of work that must begin cold:

    worker.py setup WORKLOAD SEED DIR OUT   import excalg and generate inputs
    worker.py square TRACE OUT              cold build of the exceptional column
    worker.py identities SEED FIRST COUNT TRACE OUT
                                            set up passes FIRST.., run them warm
    worker.py cli OUT -- ARGV...            one traced CLI request

Results go to the JSON file OUT.  For ``cli`` the standard output and the
exit code are the CLI's own, so they can be compared with an untraced run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import workloads

clock = time.perf_counter


def _write(path, data):
    with open(path, "w", encoding="utf8") as fh:
        json.dump(data, fh)


def _recorder(trace):
    if not trace:
        return None
    import spans

    rec = spans.Recorder()
    rec.instrument()
    return rec


def _facts():
    import numpy

    from excalg import scalar

    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "gmpy2": has_gmpy2,
        "scalar_backend": type(scalar.Scalar.rational(1, 2).re).__module__,
        "excalg_file": scalar.__file__,
    }


# -- set-up ---------------------------------------------------------------------


def setup(workload, seed, directory, out):
    start = clock()
    if workload == "cli":
        import excalg.cli  # noqa: F401  (what every CLI request imports)

        files = workloads.write_cli_files(directory)
        workloads.cli_requests(seed, 0, files)
    else:
        import excalg.magicsquare  # noqa: F401
    _write(out, {"setup_s": clock() - start, "facts": _facts()})


# -- square -----------------------------------------------------------------------


def _digest(algebra):
    h = hashlib.sha256()
    for key in sorted(algebra.bracket):
        comp = algebra.bracket[key]
        h.update(repr((key, sorted((k, str(v)) for k, v in comp.items()))).encode())
    return h.hexdigest()


def square(trace, out):
    from excalg import liealg, magicsquare

    facts = _facts()
    rec = _recorder(trace)
    entries = []
    latencies = []
    start = clock()
    for key_a, key_b, _name, _dim in workloads.SQUARE_COLUMN:
        t = clock()
        entry = magicsquare.vinberg_build(key_a, key_b)
        nondegenerate = liealg.killing_nondegenerate(entry.algebra)
        latencies.append(clock() - t)
        entries.append((entry, nondegenerate))
    wall_s = clock() - start
    order = magicsquare.ALGEBRA_ORDER
    outcomes = []
    failed = 0
    for (key_a, key_b, name, dim), (entry, nondegenerate) in zip(workloads.SQUARE_COLUMN, entries):
        table_dim = magicsquare.SQUARE_DIMS[order.index(key_a)][order.index(key_b)]
        ok = entry.dim == dim == table_dim and entry.algebra.name == name and nondegenerate
        failed += not ok
        outcomes.append([name, entry.dim, bool(nondegenerate), _digest(entry.algebra)])
    _write(
        out,
        {
            "wall_s": wall_s,
            "latencies": latencies,
            "outcomes": outcomes,
            "attempted": len(outcomes),
            "failed": failed,
            "trace": rec.summary() if rec else None,
            "facts": facts,
        },
    )


# -- identities -------------------------------------------------------------------


def _identity_setup(seed, pass_nos):
    """Import, the inputs of each pass as excalg objects, and the caches the
    passes use filled (the algebras, and the adjugates of the Jordan bases)."""
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
        [(req, prepare(req)) for req in workloads.identity_requests(seed, pass_no)]
        for pass_no in pass_nos
    ]
    for a in (1, 2, 4, 8):  # the adjugate's cache, which the first call fills
        jd.jordan_algebra(a).basis_adjugates()
    return prepared


def _identity_check(req, args):
    """The outcome of one check, using public element operations only."""
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
    if kind == "norm":
        u, v = args
        return (u * v).norm() == u.norm() * v.norm()
    if kind == "sedenion":  # a counterexample to norm multiplicativity
        u, v = args
        return (u * v).norm() != u.norm() * v.norm()
    if kind == "cayley_hamilton":
        return jd.cayley_hamilton_check(args[0]).passed
    if kind == "adj_adj":
        (x,) = args
        return jd.adjugate(jd.adjugate(x)) == x.scale(jd.det_cubic(x))
    g, rep = args
    return tf.classify(fm.pullback(g, rep)).label == req["param"]


def identities(seed, first, count, trace, out):
    start = clock()
    prepared = _identity_setup(seed, range(first, first + count))
    setup_s = clock() - start
    facts = _facts()
    rec = _recorder(trace)
    walls = []
    latencies = []
    outcomes = []
    for requests in prepared:
        start = clock()
        for req, args in requests:
            if rec:
                rec.request = req["id"]
            t = clock()
            outcomes.append(bool(_identity_check(req, args)))
            latencies.append(clock() - t)
        walls.append(clock() - start)
    _write(
        out,
        {
            "setup_s": setup_s,
            "walls": walls,
            "latencies": latencies,
            "outcomes": outcomes,
            "attempted": len(outcomes),
            "failed": outcomes.count(False),
            "trace": rec.summary() if rec else None,
            "facts": facts,
        },
    )


# -- cli ------------------------------------------------------------------------------


def cli(out, argv):
    """Run one CLI request under spans.  Start-up runs from the parent's
    spawn (BENCH_SPAWN_NS, on the shared monotonic clock) until main is
    about to run, so it includes the interpreter start and the import."""
    import excalg.cli

    startup_s = (time.monotonic_ns() - int(os.environ["BENCH_SPAWN_NS"])) / 1e9
    rec = _recorder(True)
    rec.request = os.environ.get("BENCH_REQUEST")
    try:
        code = excalg.cli.main(argv)
    finally:
        _write(out, {"startup_s": startup_s, "trace": rec.summary()})
    sys.exit(code)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], int(argv[2]), argv[3], argv[4])
    elif mode == "square":
        square(argv[1] == "1", argv[2])
    elif mode == "identities":
        identities(int(argv[1]), int(argv[2]), int(argv[3]), argv[4] == "1", argv[5])
    elif mode == "cli":
        cli(argv[1], argv[3:])
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
