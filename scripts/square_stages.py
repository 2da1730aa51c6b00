#!/usr/bin/env python3
"""Stage timers on one cold magic-square column.

Builds f4, e6, e7 and e8 with ``vinberg_build(a, "o")`` and checks each
Killing form, in this fresh interpreter, with these stages wrapped in
wall-clock timers:

- the certificates ``jacobi_check``, ``killing_nondegenerate``,
  ``StructureTensor.from_cells`` and ``SCAlgebra._check_skew``;
- the three stages of ``jacobi_check``: the choice of a generating set by
  peeling (``_generators``), the derivation joins
  (``_Cells.is_derivation``) and the scan over every triple (``_scan``),
  which runs only when the certificate does not settle the check;
- the triality stage: the uncached calls of ``triality_algebra`` and
  ``equivariant_pair_maps`` (the ``lru_cache`` stays outside the timer),
  and ``commutator_closure_algebra``;
- the construction of ``_SquareTables``, and ``_assemble``, which sums its
  cells into the tensor and checks that the bracket is skew.

Stages nest: ``jacobi_check`` includes its three stages, ``_assemble``
includes ``from_cells`` and ``_check_skew``, and ``_SquareTables``
includes the triality stage, whose ``triality_algebra`` includes
``commutator_closure_algebra``.  Prints one JSON line: the import and
column times, each stage's time and its share of the column, for each
entry the time of ``jacobi_check``, ``_assemble``, ``_check_skew`` and
``killing_nondegenerate`` and three counts (the Jacobi generators, the
terms of their derivation joins and the terms of the Killing join), and
the peak resident set.  The generator counts are read off the cached
join costs inside ``jacobi_check`` (microseconds), the Killing-join count
after the column.  Run it in a fresh interpreter per measurement, so no
cache carries over:

    PYTHONPATH=src python scripts/square_stages.py
"""

import functools
import json
import resource
import time

import numpy as np

start = time.perf_counter()
from excalg import liealg, magicsquare, tensor  # noqa: E402

STAGES = (
    "jacobi_check", "_generators", "is_derivation", "_scan",
    "killing_nondegenerate", "_assemble", "from_cells", "_check_skew",
    "triality_algebra", "equivariant_pair_maps", "commutator_closure_algebra", "_SquareTables",
)
BY_ENTRY = ("jacobi_check", "_assemble", "_check_skew", "killing_nondegenerate")
spent = dict.fromkeys(STAGES, 0.0)


def timed(name, fn):
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - t

    return wrapper


def main():
    # magicsquare holds its own references to the liealg functions
    jacobi = timed("jacobi_check", liealg.jacobi_check)
    killing = timed("killing_nondegenerate", liealg.killing_nondegenerate)
    for module in (liealg, magicsquare):
        module.jacobi_check, module.killing_nondegenerate = jacobi, killing
    chosen = []  # (generators, their join terms) of each check
    choose = timed("_generators", liealg._generators)

    def counted(cells):
        generators = choose(cells)
        chosen.append((None, None) if generators is None else (len(generators), int(cells.join_terms[generators].sum())))
        return generators

    liealg._generators = counted
    liealg._scan = timed("_scan", liealg._scan)
    liealg._Cells.is_derivation = timed("is_derivation", liealg._Cells.is_derivation)
    magicsquare.commutator_closure_algebra = timed(
        "commutator_closure_algebra", liealg.commutator_closure_algebra
    )
    for name in ("triality_algebra", "equivariant_pair_maps"):
        uncached = getattr(magicsquare, name).__wrapped__
        setattr(magicsquare, name, functools.lru_cache(maxsize=None)(timed(name, uncached)))
    cls = tensor.StructureTensor
    cls.from_cells = classmethod(timed("from_cells", cls.from_cells.__func__))
    liealg.SCAlgebra._check_skew = timed("_check_skew", liealg.SCAlgebra._check_skew)
    magicsquare._SquareTables.__init__ = timed("_SquareTables", magicsquare._SquareTables.__init__)
    magicsquare._assemble = timed("_assemble", magicsquare._assemble)
    by_entry, entries = {}, {}
    t0 = time.perf_counter()
    for key, name in (("r", "f4"), ("c", "e6"), ("h", "e7"), ("o", "e8")):
        before = {stage: spent[stage] for stage in BY_ENTRY}
        entry = entries[name] = magicsquare.vinberg_build(key, "o")
        if not magicsquare.killing_nondegenerate(entry.algebra):
            raise SystemExit(f"({key}, o): degenerate Killing form")
        by_entry[name] = {f"{stage}_s": round(spent[stage] - before[stage], 4) for stage in BY_ENTRY}
    column = time.perf_counter() - t0
    for name, (generators, terms) in zip(entries, chosen):
        t, d = entries[name].algebra.tensor, entries[name].dim
        left, right = (np.bincount(key, minlength=d * d) for key in (t.pair % d * d + t.out, t.out * d + t.pair % d))
        by_entry[name].update(generators=generators, derivation_join_terms=terms, killing_join_terms=int(left @ right))
    report = {"import_s": round(t0 - start, 3), "column_s": round(column, 3)}
    for name in STAGES:
        report[f"{name}_s"] = round(spent[name], 3)
        report[f"{name}_share"] = round(spent[name] / column, 3)
    report["by_entry"] = by_entry
    report["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
