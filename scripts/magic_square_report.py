#!/usr/bin/env python3
"""Build every entry of the magic square, print the dimension table, the
number of basis triples the exhaustive Jacobi check covered, and the
fixed coupling constants of the top entry."""

import time

from excalg import magicsquare as ms
from excalg.liealg import killing_nondegenerate


def main():
    print("pair      name      dim  killing   jacobi triples  time")
    print("-" * 62)
    for ka in ms.ALGEBRA_ORDER:
        for kb in ms.ALGEBRA_ORDER:
            t0 = time.time()
            entry = ms.built_square_entry(ka, kb)
            nd = killing_nondegenerate(entry.algebra)
            print(
                f"({ka},{kb})   {entry.algebra.name:>8}  {entry.dim:>4}"
                f"  {'nondeg' if nd else 'DEGEN '}  {entry.checked:>15}"
                f"  {time.time()-t0:5.1f}s"
            )
    e8 = ms.built_square_entry("o", "o")
    couplings = {k: str(v) for k, v in e8.calibration.items()}
    print()
    print("couplings for the top entry:", couplings)


if __name__ == "__main__":
    main()
