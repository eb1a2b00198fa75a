"""Recompute the decomposition counts that the decompose workload stores.

    python3 perfbench/recount.py

Counts every stored polytope with the triangle-multiplicity search in
oracle.py, and with the brute-force multiset search as well where the
polytope is small enough for it.  Neither uses syzkit.  Exits 1 if a count
differs from the stored one.
"""

import sys
import time

import oracle
import workloads

BRUTE_FORCE_MAX_POINTS = 9


def main():
    stored = [(f"Z({m},{n})", workloads.zonotope(m, n), count)
              for (m, n), count in workloads.KNOWN_COUNTS.items()]
    stored += [(f"hexagon*{k}", workloads.dilate(workloads.HEXAGON, k), k + 1) for k in range(1, 7)]
    stored += [(f"segment[0,{n}]", [(0,), (n,)], 1)
               for n in (*workloads.SEGMENT_LENGTHS, workloads.FAILING_SEGMENT)]
    bad = 0
    for name, verts, count in stored:
        start = time.perf_counter()
        found = len(oracle.decompose_by_triangles(verts))
        brute = "-"
        if len(oracle.lattice_points(oracle.hull(verts))) <= BRUTE_FORCE_MAX_POINTS:
            brute = len(oracle.decompose_brute_force(verts))
            bad += brute != count
        bad += found != count
        print(f"{name:18s} stored {count:4d}  triangle search {found:4d}  brute force {brute!s:>4}"
              f"  ({time.perf_counter() - start:.3f} s)")
    print("all counts agree" if not bad else f"{bad} counts differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
