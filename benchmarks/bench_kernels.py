#!/usr/bin/env python3
"""Time the kernels and the layers around them on seeded inputs.

Micro benchmarks call each kernel on seeded workloads.  The per-call
table gives `canon_code` in ms per call on G(n, 1/2) and on every
connected cubic graph of orders 10 and 12, the rows of the
canonical-form table in ROADMAP.md.  The per-layer table times the
layers of the claim-1 sweep and the GFAM pass on their own inputs:
`equitable_partition` on the 192 claim-1 candidates (k = 4, n = 22, 26,
..., 402) and on the GFAM(5, 19) members, and `char_poly` and
`bracket_largest_root` (width 1e-12, from the quotient's Perron root)
over the 96 three-class claim-1 quotients, `ex_infinity_trace` over the
GFAM(5, 19) members, and `connected_with_degrees(10, 5, False)` from
empty enumeration caches.

Usage: python3 benchmarks/bench_kernels.py [--quick]
"""

import argparse
import pathlib
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from oddwheel import enumerate as enum_mod  # noqa: E402
from oddwheel import kernels  # noqa: E402
from oddwheel.enumerate import connected_with_degrees  # noqa: E402
from oddwheel.families import (  # noqa: E402
    G_KIND,
    U_KIND,
    FamilySpec,
    bipartite_candidate,
    enumerate_family,
    standard_member,
)
from oddwheel.graphs import equitable_partition  # noqa: E402
from oddwheel.spectral import (  # noqa: E402
    bracket_largest_root,
    char_poly,
    matrix_radius,
    quotient,
)
from oddwheel.walks import ex_infinity_trace  # noqa: E402


def random_rows(rng, n, p):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def timeit(fn, reps=3):
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def bench_canon(graphs):
    def run():
        for n, rows in graphs:
            kernels.canon_code(n, rows)

    return timeit(run)


def bench_cycle(graphs, length):
    def run():
        for n, rows in graphs:
            kernels.has_cycle_of_length(n, rows, length, -1)

    return timeit(run)


def bench_path(graphs):
    def run():
        for n, rows in graphs:
            kernels.longest_path_order(n, rows, -1)

    return timeit(run)


def per_call_ms(graphs):
    """Best of three passes over `graphs`, in ms per `canon_code` call."""
    return 1000 * bench_canon(graphs) / len(graphs)


def canon_rows(rng, count):
    """The per-call table's graph sets: G(n, 1/2) for n = 8 .. 20, then
    the connected cubic graphs of orders 10 and 12 (19 and 85)."""
    sets = [
        (f"G({n}, 1/2)", [(n, random_rows(rng, n, 0.5)) for _ in range(count)])
        for n in (8, 10, 12, 16, 20)
    ]
    for order in (10, 12):
        cubic = connected_with_degrees(order, 3, False)
        graphs = [(g.order, list(g.rows)) for g in cubic]
        sets.append((f"cubic, order {order}", graphs))
    return sets


def layer_rows():
    """(name, inputs, seconds) of the per-layer table, best of three
    passes each; inputs are built before any timing."""
    candidates = [
        bipartite_candidate(n, left, standard_member(U_KIND, 4, left), True)
        for n in range(22, 403, 4)
        for left in (n // 2, n // 2 + 1)
    ]
    members = enumerate_family(FamilySpec(G_KIND, 5, 19))
    matrices = [quotient(g).quotient for g in candidates[1::2]]
    polys = [(char_poly(m), matrix_radius(m).radius) for m in matrices]
    width = Fraction(1, 10**12)

    def each(fn, items):
        return lambda: [fn(*item) for item in items]

    def cold_quintic_10():
        for name in ("_all_cache", "_deletion_cache", "_degree_cache",
                     "_tree_cache"):
            getattr(enum_mod, name).clear()
        return connected_with_degrees(10, 5, False)

    return [
        ("equitable_partition, claim-1 candidates", len(candidates),
         timeit(each(equitable_partition, [(g,) for g in candidates]))),
        ("equitable_partition, GFAM(5, 19) members", len(members),
         timeit(each(equitable_partition, [(g,) for g in members]))),
        ("char_poly, claim-1 3-class quotients", len(matrices),
         timeit(each(char_poly, [(m,) for m in matrices]))),
        ("bracket_largest_root, claim-1 f2", len(polys),
         timeit(each(bracket_largest_root,
                     [(f, r, width) for f, r in polys]))),
        ("ex_infinity_trace, GFAM(5, 19) members", len(members),
         timeit(lambda: ex_infinity_trace(members))),
        ("connected_with_degrees(10, 5), cold", 1, timeit(cold_quintic_10)),
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    count = 60 if args.quick else 300
    canon_graphs = [
        (n, random_rows(rng, n, rng.choice([0.3, 0.5, 0.8])))
        for n in (8, 9, 10)
        for _ in range(count // 3)
    ]
    cycle_graphs = [
        (16, random_rows(rng, 16, 0.25)) for _ in range(count)
    ]
    path_graphs = [
        (12, random_rows(rng, 12, 0.35)) for _ in range(count // 2)
    ]

    print(f"{'workload':28} {'time (s)':>10}")
    for name, fn in [
        ("canon_code (n=8..10)", lambda: bench_canon(canon_graphs)),
        ("has_cycle len=8 (n=16)", lambda: bench_cycle(cycle_graphs, 8)),
        ("longest_path (n=12)", lambda: bench_path(path_graphs)),
    ]:
        print(f"{name:28} {fn():10.4f}")

    print()
    print(f"{'canon_code per call':28} {'ms':>10}")
    table_rng = random.Random(args.seed)
    for name, graphs in canon_rows(table_rng, 20 if args.quick else 100):
        print(f"{name:28} {per_call_ms(graphs):10.3f}")

    print()
    print(f"{'layer':42} {'inputs':>7} {'total (s)':>10}")
    for name, count, seconds in layer_rows():
        print(f"{name:42} {count:7d} {seconds:10.4f}")


if __name__ == "__main__":
    main()
