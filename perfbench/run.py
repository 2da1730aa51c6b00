#!/usr/bin/env python3
"""Benchmark of excalg: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload square|identities|cli --seed N \\
        --seconds S --trace 0|1

Workloads (closed loop, one client):

  square      a cold build of the exceptional column f4, e6, e7, e8
              (vinberg_build(a, "o") plus the Killing check) in one fresh
              interpreter per batch.
  identities  warm, in-process identity checks: alternative, Moufang and
              norm identities on O and split-O, sedenion counterexamples,
              Cayley-Hamilton and adj o adj on H3(A), pullback classify.
  cli         one fresh ``python3 -m excalg.cli`` process per request.

A run repeats its workload's fixed request set (a batch or a pass) while
another one still fits in --seconds, and at least as often as MIN_PASSES
says.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
runs one untraced and one traced pass on the same inputs, checks that their
outputs agree, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result; the lines before it
give machine facts and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("square", "identities", "cli")
# Passes a run makes at least (for identities, interpreters of
# IDENTITY_PASSES passes each): enough for 100 requests, so that the 90th
# percentile has ten samples beyond it.  Each identities interpreter gives
# one set-up sample.
MIN_PASSES = {"square": 1, "identities": 2, "cli": 2}
# Warm passes per identities interpreter.  A pass takes a few seconds and a
# set-up twice that; two passes per set-up keep a run near 30 s.
IDENTITY_PASSES = 2
# Set-ups a square or cli run times, each in a fresh interpreter; the
# median of seven is steady where a set-up takes a fraction of a second.
SETUP_REPS = 7
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(
    (name, "s" if name.endswith("_s") else "count")
    for name in [f"{layer}.{kind}" for layer in spans.LAYERS for kind in ("calls", "self_s")]
    + list(spans.COUNTERS)
    + list(spans.TIMERS)
    + ["cli.startup_s", "cli.bad_exit", "trace.overhead_s"]
)


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(samples, q):
    """Inclusive-method quantile of samples, q in (0, 1)."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class Run:
    """Children, work directory and counts of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(nproc())
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # wrong answers or traced/untraced mismatches
        self.failures = []  # one line per failed CLI request
        self.facts = None
        self.serial = 0

    def worker(self, *argv) -> dict:
        self.serial += 1
        out = self.work / f"worker-{self.serial}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), argv[0], *map(str, argv[1:]), str(out)]
        proc = subprocess.run(
            cmd, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise BenchError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        res = json.loads(out.read_text())
        self.facts = self.facts or res["facts"]
        return res

    def setup_reps(self):
        return [
            self.worker("setup", self.args.workload, self.args.seed, self.work / f"setup-{rep}")["setup_s"]
            for rep in range(SETUP_REPS)
        ]

    def count(self, res, what):
        """Count a worker's checks; a failed check is a wrong answer."""
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        if res["failed"]:
            self.wrong.append(f"{res['failed']} {what} gave the wrong answer")

    def compare(self, plain, traced, what):
        for res in (plain, traced):
            self.count(res, what)
        if plain["outcomes"] != traced["outcomes"]:
            self.wrong.append(f"traced and untraced {what} differ")

    def passes(self, one_pass):
        """Call one_pass(k) while another pass fits in --seconds."""
        results = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            results.append(one_pass(len(results)))
            last = time.perf_counter() - t
            elapsed = time.perf_counter() - start
            if len(results) >= MIN_PASSES[self.args.workload] and elapsed + last > self.args.seconds:
                return results


# -- workloads ----------------------------------------------------------------


def run_square(run: Run) -> dict:
    if run.args.trace:
        plain = run.worker("square", 0)
        traced = run.worker("square", 1)
        run.compare(plain, traced, "builds")
        return layer_metrics([traced["trace"]], traced["wall_s"] - plain["wall_s"])
    setup = run.setup_reps()
    batches = run.passes(lambda k: run.worker("square", 0))
    latencies = []
    for res in batches:
        run.count(res, "builds")
        latencies += res["latencies"]
    return e2e_metrics(setup, [b["wall_s"] for b in batches], latencies)


def run_identities(run: Run) -> dict:
    seed = run.args.seed
    if run.args.trace:
        plain = run.worker("identities", seed, 0, IDENTITY_PASSES, 0)
        traced = run.worker("identities", seed, 0, IDENTITY_PASSES, 1)
        run.compare(plain, traced, "identity checks")
        overhead = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
        return layer_metrics([traced["trace"]], overhead)
    results = run.passes(
        lambda k: run.worker("identities", seed, k * IDENTITY_PASSES, IDENTITY_PASSES, 0)
    )
    walls = []
    latencies = []
    for res in results:
        run.count(res, "identity checks")
        walls += res["walls"]
        latencies += res["latencies"]
    return e2e_metrics([r["setup_s"] for r in results], walls, latencies)


def _cli_pass(run: Run, requests, traced: bool):
    """Send requests one at a time; returns (wall, latencies, records)."""
    records = []
    latencies = []
    start = time.perf_counter()
    for req in requests:
        env = run.env
        if traced:
            out = run.work / f"trace-{req['id']}.json"
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(out), "--", *req["argv"]]
            env = dict(env, BENCH_REQUEST=req["id"], BENCH_SPAWN_NS=str(time.monotonic_ns()))
        else:
            cmd = [sys.executable, "-m", "excalg.cli", *req["argv"]]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=run.work, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        latencies.append(time.perf_counter() - t)
        wrong_exit, reason = workloads.check_cli(req, proc.returncode, proc.stdout)
        record = {"id": req["id"], "kind": req["kind"], "argv": req["argv"], "code": proc.returncode,
                  "stdout": proc.stdout, "wrong_exit": wrong_exit, "reason": reason}
        if traced:
            record["trace"] = json.loads(out.read_text())
        records.append(record)
    return time.perf_counter() - start, latencies, records


def _count_cli(run: Run, records):
    """A wrong answer or exit code is a failed request, and makes the run
    incorrect unless it is the known verify defect."""
    for rec in records:
        run.attempted += 1
        if rec["reason"] is None:
            continue
        run.failed += 1
        run.failures.append(f"{rec['id']} {' '.join(rec['argv'])[:60]}: {rec['reason']}")
        if not workloads.known_defect(rec["kind"], rec["code"]):
            run.wrong.append(f"cli {rec['id']}: {rec['reason']}")


def run_cli(run: Run) -> dict:
    seed = run.args.seed
    files = workloads.write_cli_files(run.work / "inputs")
    if run.args.trace:
        run.facts = run.worker("setup", "cli", seed, run.work / "setup")["facts"]
        requests = workloads.cli_requests(seed, 0, files)
        plain_wall, _, plain = _cli_pass(run, requests, False)
        traced_wall, _, traced = _cli_pass(run, requests, True)
        _count_cli(run, plain + traced)
        if [(r["code"], r["stdout"]) for r in plain] != [(r["code"], r["stdout"]) for r in traced]:
            run.wrong.append("traced and untraced CLI outputs differ")
        metrics = layer_metrics([r["trace"]["trace"] for r in traced], traced_wall - plain_wall)
        metrics["cli.startup_s"] = statistics.median(r["trace"]["startup_s"] for r in traced)
        metrics["cli.bad_exit"] = sum(r["wrong_exit"] for r in plain + traced)
        return metrics
    setup = run.setup_reps()
    results = run.passes(lambda k: _cli_pass(run, workloads.cli_requests(seed, k, files), False))
    latencies = []
    for _, lat, records in results:
        latencies += lat
        _count_cli(run, records)
    return e2e_metrics(setup, [r[0] for r in results], latencies)


# -- metrics ------------------------------------------------------------------


def e2e_metrics(setup, walls, latencies) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "peak_rss_mb": rss_kb / 1024,
        "_samples": {"setup": len(setup), "passes": len(walls), "requests": len(latencies)},
    }


def layer_metrics(traces, overhead_s) -> dict:
    """Sum per-layer totals over traces; check self time <= inclusive time."""
    out = {name: 0 for name, _ in PER_LAYER}
    for trace in traces:
        for layer in spans.LAYERS:
            if trace["layers"][f"{layer}.self_s"] > trace["inclusive_s"][layer] + 1e-9:
                raise BenchError(f"{layer} self time exceeds its inclusive time")
        for name, value in trace["layers"].items():
            out[name] += value
    out["trace.overhead_s"] = overhead_s
    return out


def machine_facts(run: Run) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git has no commit to report
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    facts = dict(run.facts or {})
    facts.update(
        nproc=nproc(),
        cpu_count=os.cpu_count(),
        blas_threads=int(run.env["OPENBLAS_NUM_THREADS"]),
        commit=commit,
        src_sha256=digest.hexdigest(),
    )
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "excalg" / "__init__.py").is_file():
        print(f"excalg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        metrics = {"square": run_square, "identities": run_identities, "cli": run_cli}[
            args.workload
        ](run)
        facts = machine_facts(run)
        src = str((ROOT / "src").resolve())
        if not facts["excalg_file"].startswith(src):
            raise BenchError(f"excalg imported from {facts['excalg_file']}, not {src}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    extra = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "samples": metrics.pop("_samples", None)}
    print(json.dumps({"facts": facts, **extra}, sort_keys=True))
    for name, unit in wanted:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    rate = run.failed / run.attempted if run.attempted else float("nan")
    print(f"error_rate = {rate:.6g} ({run.failed} failed of {run.attempted} attempted)")
    for line in run.failures:
        print(f"failed: {line}")
    for problem in run.wrong:
        print(f"wrong: {problem}")
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
