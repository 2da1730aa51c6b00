#!/usr/bin/env python3
"""Where a cold CLI request's time goes, per kind of the benchmark's CLI mix.

For each kind of ``perfbench/workloads.py``'s ``CLI_MIX`` (the requests of
pass 0 of ``cli_requests(seed, 0, ...)``, one of each kind), this starts
``--runs`` fresh ``python -m excalg.cli`` processes and takes the median
wall time, then ``--runs`` more under ``-X importtime`` and splits the
start-up into

- ``interpreter_site_ms``: the median wall time of ``python -c pass``
  (interpreter start and ``site``), the floor every process pays;
- ``numpy_ms``: numpy's cumulative import time;
- ``excalg.<module>_ms``: each excalg module's own import time, which is
  mostly compiling its source when no bytecode is cached;
- ``other_imports_ms``: every other import that ``python -c pass`` does
  not make, outside numpy (argparse, json, the standard library the
  modules use);

``rest_ms`` is the wall time less those: running ``excalg.cli`` (compiled
as ``__main__``) and the subcommand's own work.  ``-X importtime`` adds a
little time of its own, so the split is approximate.  The summary weights
each kind by its count in ``CLI_MIX``: the wall time of one pass and the
share of it that start-up takes.

The result records whether ``PYTHONDONTWRITEBYTECODE`` was set: without
it, the first run writes ``__pycache__`` and later runs load bytecode, so
excalg's import times shrink.  Prints one JSON line.  Nothing under
``perfbench/`` is changed.  ``--src`` times another checkout's sources:

    python scripts/cli_stages.py [--seed N] [--runs N] [--src DIR]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def wall_ms(cmd, env, cwd):
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, check=False)
    return (time.perf_counter() - start) * 1e3


def import_rows(stderr):
    """(depth, module, self ms, cumulative ms) per ``-X importtime`` line,
    in the order printed: a module's imports come just before it, deeper."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(self_us) / 1e3, int(cumulative_us) / 1e3))
    return rows


def import_split(stderr, floor):
    """{part: ms} of the imports in stderr that are not in floor, the
    modules ``python -c pass`` imports."""
    rows = import_rows(stderr)
    in_numpy = set()
    for i, (depth, name, _, _) in enumerate(rows):
        if name == "numpy":
            j = i - 1
            while j >= 0 and rows[j][0] > depth:
                in_numpy.add(j)
                j -= 1
    split = {"numpy_ms": 0.0, "other_imports_ms": 0.0}
    for i, (_, name, self_ms, cumulative_ms) in enumerate(rows):
        if name == "numpy":
            split["numpy_ms"] += cumulative_ms
        elif i in in_numpy or name in floor:
            continue
        elif name == "excalg" or name.startswith("excalg."):
            split[f"{name}_ms"] = split.get(f"{name}_ms", 0.0) + self_ms
        else:
            split["other_imports_ms"] += self_ms
    return split


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding excalg/")
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    python = sys.executable
    with tempfile.TemporaryDirectory() as tmp:
        files = workloads.write_cli_files(Path(tmp) / "inputs")
        first = {}
        for req in workloads.cli_requests(args.seed, 0, files):
            first.setdefault(req["kind"], req)
        floor = statistics.median(wall_ms([python, "-c", "pass"], env, tmp) for _ in range(args.runs))
        bare = subprocess.run([python, "-X", "importtime", "-c", "pass"], env=env, cwd=tmp,
                              capture_output=True, text=True, check=True)
        floor_modules = {name for _, name, _, _ in import_rows(bare.stderr)}
        kinds = {}
        for kind, count in workloads.CLI_MIX:
            cmd = [python, "-m", "excalg.cli", *first[kind]["argv"]]
            wall = statistics.median(wall_ms(cmd, env, tmp) for _ in range(args.runs))
            splits = []
            for _ in range(args.runs):
                proc = subprocess.run([python, "-X", "importtime", *cmd[1:]], env=env, cwd=tmp,
                                      capture_output=True, text=True, check=False)
                splits.append(import_split(proc.stderr, floor_modules))
            parts = {"interpreter_site_ms": floor}
            for key in sorted({k for s in splits for k in s}):
                parts[key] = statistics.median(s.get(key, 0.0) for s in splits)
            startup = sum(parts.values())
            kinds[kind] = {
                "count": count,
                "wall_ms": round(wall, 1),
                "startup_ms": round(startup, 1),
                "rest_ms": round(max(wall - startup, 0.0), 1),
                "startup_share": round(min(startup / wall, 1.0), 3),
                "parts_ms": {k: round(v, 1) for k, v in parts.items()},
            }
    pass_ms = sum(k["count"] * k["wall_ms"] for k in kinds.values())
    startup_ms = sum(k["count"] * min(k["startup_ms"], k["wall_ms"]) for k in kinds.values())
    print(json.dumps({
        "seed": args.seed,
        "runs": args.runs,
        "python": sys.version.split()[0],
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "pass_ms": round(pass_ms, 1),
        "startup_share_of_pass": round(startup_ms / pass_ms, 3),
        "kinds": kinds,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
