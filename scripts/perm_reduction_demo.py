#!/usr/bin/env python3
"""Walk a random 0/1 matrix through the permanent -> vertex-cover reduction.

Prints each gadget stage with the sizes recorded in the instance's
provenance, then counts the covers of the final unweighted instance
modulo N, which recovers the permanent, and reports the bit length of
the exact count without computing it.  Exits 1 when the recovered value
is not the permanent.
"""

import argparse
import random
import sys
import time

from satpoly.graphs import permanent
from satpoly.reductions import count_vertex_covers, cover_count_bits, emit_instance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=3, help="matrix dimension (<= 3 recommended)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--density", type=float, default=0.6)
    parser.add_argument("--bipartite", action="store_true")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    a = [[1 if rng.random() < args.density else 0 for _ in range(args.n)] for _ in range(args.n)]
    print("matrix:")
    for row in a:
        print("   ", row)

    inst = emit_instance(a, bipartite=args.bipartite)
    for step in inst.provenance["steps"]:
        sizes = ", ".join(f"{k} {v}" for k, v in step.items() if k != "step")
        print(f"{step['step']}: {sizes}")
    print(
        f"final instance: {inst.graph.vertex_count()} vertices "
        f"({sum(inst.graph.leaf_counts.values())} in leaf blocks), "
        f"modulus bit length {inst.modulus.bit_length()}"
    )
    t0 = time.perf_counter()
    recovered = count_vertex_covers(inst.graph, inst.modulus)
    elapsed = time.perf_counter() - t0
    want = permanent(a).as_fraction()
    print(f"cover count has {cover_count_bits(inst)} bits (counted mod N in {elapsed * 1e3:.1f}ms)")
    print(f"count mod N = {recovered}, permanent = {want}, match = {recovered == want}")
    if recovered != want:
        print(f"error: count mod N is {recovered}, the permanent is {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
