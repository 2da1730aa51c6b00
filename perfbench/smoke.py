#!/usr/bin/env python3
"""Quick self-test of the benchmark (a few seconds, no timing claims).

    python3 perfbench/smoke.py

Checks that the spans recorded around excalg's layers parse and nest, that
every layer's self time is at most its inclusive time, that the metric
functions emit every metric BENCHMARK.json names with its unit, and that
the generated CLI requests carry answers the checker accepts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def traced_sample():
    """A few requests that cross most layers, under a fresh recorder."""
    import excalg.cli
    from excalg import composition, jordan, liealg, magicsquare

    rec = spans.Recorder(keep_spans=True)
    rec.instrument()
    rec.request = "smoke"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["dims", "--a", "2"], ["grading", "--type", "G2", "--node", "1"],
                     ["spinor", "--chi", "1,0,0,0,0,0,0,1"], ["derive", "--algebra", "H"]):
            assert excalg.cli.main(argv) == 0, argv
    entry = magicsquare.vinberg_build("r", "c")
    assert liealg.killing_nondegenerate(entry.algebra)
    o = composition.canonical_octonions()
    x = o.random_element(random.Random(0), 2)
    assert (x * x).norm() == x.norm() * x.norm()
    h3 = jordan.jordan_algebra(2)
    y = h3.random_element(random.Random(1), 2)
    assert jordan.cayley_hamilton_check(y).passed
    return rec.summary()


def main() -> int:
    summary = traced_sample()
    problems = spans.check_nesting(summary["spans"])
    assert not problems, problems
    assert summary["spans"], "no spans recorded"
    json.loads(json.dumps(summary))  # plain JSON all the way down
    layers = summary["layers"]
    for layer in spans.LAYERS:
        self_s = layers[f"{layer}.self_s"]
        assert 0 <= self_s <= summary["inclusive_s"][layer] + 1e-9, layer
    for layer in ("cli", "rootdata", "clifford", "liealg", "magicsquare", "composition", "jordan"):
        assert layers[f"{layer}.calls"] > 0, f"no spans for {layer}"
    assert layers["scalar.constructed"] > 0 and layers["composition.products"] > 0
    assert layers["magicsquare.calibration_rounds"] > 0 and layers["liealg.jacobi_triples"] > 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {(m["name"], m["unit"]) for m in bench["end_to_end"]}
    declared_layer = {(m["name"], m["unit"]) for m in bench["per_layer"]}
    assert declared_e2e == set(run.END_TO_END), declared_e2e ^ set(run.END_TO_END)
    assert declared_layer == set(run.PER_LAYER), declared_layer ^ set(run.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    e2e = run.e2e_metrics([0.3, 0.4, 0.35], [10.0, 11.0], [0.1 * k for k in range(1, 101)])
    assert all(name in e2e for name, _ in run.END_TO_END)
    per_layer = run.layer_metrics([summary], 0.5)
    assert all(name in per_layer for name, _ in run.PER_LAYER)

    inputs = ROOT / ".bench_work" / "smoke-inputs"
    try:
        requests = workloads.cli_requests(0, 0, workloads.write_cli_files(inputs))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    assert len(requests) == sum(n for _, n in workloads.CLI_MIX)
    dims = next(r for r in requests if r["kind"] == "dims")
    a = int(dims["argv"][2])
    good = json.dumps({"a": a, **dims["expect"]})
    assert workloads.check_cli(dims, 0, good) == (False, None)
    assert workloads.check_cli(dims, 1, good)[0]
    assert workloads.check_cli(dims, 0, good.replace(f'"dim_V4": {workloads.SERIES_V4[a]}', '"dim_V4": 0'))[1]
    # only the known verify defect is exempt from making a run incorrect
    bench_run = run.Run.__new__(run.Run)
    bench_run.attempted = bench_run.failed = 0
    bench_run.wrong, bench_run.failures = [], []
    records = [{"id": r["id"], "kind": r["kind"], "argv": r["argv"], "code": code,
                "reason": workloads.check_cli(r, code, "")[1]}
               for r, code in ((dims, 1), (next(r for r in requests if r["kind"] == "verify_bad_index"), 1))]
    run._count_cli(bench_run, records)
    assert (bench_run.attempted, bench_run.failed, len(bench_run.wrong)) == (2, 2, 1), bench_run.wrong
    print("smoke ok:", len(summary["spans"]), "spans,",
          sum(layers[f"{layer}.calls"] for layer in spans.LAYERS), "layer calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
