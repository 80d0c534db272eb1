#!/usr/bin/env python3
"""Time the kernels and the layers around them on seeded inputs.

Micro benchmarks call each kernel on seeded workloads.  The per-call
table gives `canon_code` and `graphs.automorphism_generators` in ms per
call on G(n, 1/2), on every connected cubic graph of orders 10 and 12
and on three twin-heavy graphs (K_{1,16}, K_20 and the empty graph on
20 vertices), the rows of the canonical-form table in ROADMAP.md.  The per-layer table times the
layers of the claim-1 sweep and the GFAM pass on their own inputs:
`equitable_partition` on the 192 claim-1 candidates (k = 4, n = 22, 26,
..., 402) and on the GFAM(5, 19) members, and `char_poly` and
`bracket_largest_root` (width 1e-12, from the quotient's Perron root)
over the 96 three-class claim-1 quotients, `ex_infinity_trace` over the
GFAM(5, 19) members, and `all_graphs(7)` and
`connected_with_degrees(10, 5, False)` from empty enumeration caches.
The cycle-decision table gives, in us per call, the backtracking
kernel on the whole graph, the detector's
decision (`detect._decide`: the kernel up to `detect.KERNEL_ORDER`
vertices, the cotree rule above) and the cotree rule alone, on the
distinct reduced hub neighbourhoods of the `exhaustive` wheel scans (all
graphs of order 7, k = 2 and 3) and of the `spex-structure` candidates
at (n, k) = (50, 4) and (50, 5).  The kernel is timed in one pass (with
--quick, over a seeded sample of 20 of the (50, 5) neighbourhoods),
the two others as the best of three.

Usage: python3 benchmarks/bench_kernels.py [--quick]
"""

import argparse
import pathlib
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from oddwheel import detect, kernels  # noqa: E402
from oddwheel import enumerate as enum_mod  # noqa: E402
from oddwheel.enumerate import all_graphs, connected_with_degrees  # noqa: E402
from oddwheel.families import (  # noqa: E402
    G_KIND,
    U_KIND,
    FamilySpec,
    bipartite_candidate,
    enumerate_family,
    standard_member,
)
from oddwheel.graphs import (  # noqa: E402
    Graph,
    automorphism_generators,
    equitable_partition,
)
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
        for rows in graphs:
            kernels.canon_code(rows)

    return timeit(run)


def bench_cycle(graphs, length):
    def run():
        for rows in graphs:
            kernels.has_cycle_of_length(rows, length)

    return timeit(run)


def bench_path(graphs):
    def run():
        for rows in graphs:
            kernels.longest_path_order(rows)

    return timeit(run)


def per_call_ms(graphs):
    """Best of three passes over `graphs`, in ms per `canon_code` call."""
    return 1000 * bench_canon(graphs) / len(graphs)


def generators_ms(graphs):
    """Best of three passes over `graphs`, in ms per
    `automorphism_generators` call."""
    built = [Graph(len(rows), tuple(rows)) for rows in graphs]

    def run():
        for g in built:
            automorphism_generators(g)

    return 1000 * timeit(run) / len(graphs)


def canon_rows(rng, count):
    """The per-call table's graph sets: G(n, 1/2) for n = 8 .. 20, the
    connected cubic graphs of orders 10 and 12 (19 and 85), then K_{1,16},
    K_20 and the empty graph on 20 vertices."""
    sets = [
        (f"G({n}, 1/2)", [random_rows(rng, n, 0.5) for _ in range(count)])
        for n in (8, 10, 12, 16, 20)
    ]
    for order in (10, 12):
        cubic = connected_with_degrees(order, 3, False)
        sets.append((f"cubic, order {order}", [g.rows for g in cubic]))
    star = [(1 << 17) - 2] + [1] * 16
    complete = [((1 << 20) - 1) ^ (1 << u) for u in range(20)]
    sets.append(("K_{1,16}, K_20, empty(20)", [star, complete, [0] * 20]))
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

    def cold(run):
        def fn():
            for name in ("_all_cache", "_deletion_cache", "_degree_cache",
                         "_tree_cache"):
                getattr(enum_mod, name).clear()
            return run()

        return fn

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
        ("all_graphs(7), cold", 1, timeit(cold(lambda: all_graphs(7)))),
        ("connected_with_degrees(10, 5), cold", 1,
         timeit(cold(lambda: connected_with_degrees(10, 5, False)))),
    ]


def hub_neighbourhoods(graphs, k):
    """The distinct reduced hub neighbourhoods of the W_{2k+1} scans of
    `graphs`, as `contains_odd_wheel` builds them."""
    seen = {}
    for g in graphs:
        for v in range(g.order):
            if g.degree(v) >= 2 * k:
                nbhd = detect._reduced(g.rows, g.rows[v], 2 * k)
                seen.setdefault(nbhd.rows, nbhd)
    return list(seen.values())


def cycle_rows(rng, quick):
    """(name, neighbourhoods with their cycle length, kernel sample) of
    the cycle-decision table."""
    small = [
        (nbhd, 2 * k)
        for k in (2, 3)
        for nbhd in hub_neighbourhoods(all_graphs(7), k)
    ]
    rows = [("exhaustive, order 4-6", small, small)]
    for n, k in ((50, 4), (50, 5)):
        graphs = [
            bipartite_candidate(n, left, inner, True)
            for left in (n // 2 - 1, n // 2, n // 2 + 1)
            for inner in enumerate_family(FamilySpec(U_KIND, k, left))
        ]
        items = [(nbhd, 2 * k) for nbhd in hub_neighbourhoods(graphs, k)]
        sample = rng.sample(items, 20) if quick and k == 5 else items
        rows.append((f"spex-structure ({n}, {k})", items, sample))
    return rows


def us_per_call(fn, items, reps):
    return 1e6 * timeit(lambda: [fn(*item) for item in items], reps) / len(
        items
    )


def kernel_call(g, length):
    return kernels.has_cycle_of_length(g.rows, length)


def decision_call(g, length):
    return detect._decide(g, length, enum_mod._Budget(None))


def rule_call(g, length):
    return detect._cycle(
        g.rows, (1 << g.order) - 1, length, enum_mod._Budget(None)
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    count = 60 if args.quick else 300
    canon_graphs = [
        random_rows(rng, n, rng.choice([0.3, 0.5, 0.8]))
        for n in (8, 9, 10)
        for _ in range(count // 3)
    ]
    cycle_graphs = [random_rows(rng, 16, 0.25) for _ in range(count)]
    path_graphs = [random_rows(rng, 12, 0.35) for _ in range(count // 2)]

    print(f"{'workload':28} {'time (s)':>10}")
    for name, fn in [
        ("canon_code (n=8..10)", lambda: bench_canon(canon_graphs)),
        ("has_cycle len=8 (n=16)", lambda: bench_cycle(cycle_graphs, 8)),
        ("longest_path (n=12)", lambda: bench_path(path_graphs)),
    ]:
        print(f"{name:28} {fn():10.4f}")

    print()
    print(f"{'ms per call':28} {'canon_code':>10} {'generators':>10}")
    table_rng = random.Random(args.seed)
    for name, graphs in canon_rows(table_rng, 20 if args.quick else 100):
        print(f"{name:28} {per_call_ms(graphs):10.3f} "
              f"{generators_ms(graphs):10.3f}")

    print()
    print(f"{'layer':42} {'inputs':>7} {'total (s)':>10}")
    for name, count, seconds in layer_rows():
        print(f"{name:42} {count:7d} {seconds:10.4f}")

    print()
    print(f"{'cycle decision (us per call)':28} {'inputs':>7} "
          f"{'kernel':>10} {'decision':>10} {'rule':>10}")
    cycle_rng = random.Random(args.seed)
    for name, items, sample in cycle_rows(cycle_rng, args.quick):
        print(f"{name:28} {len(items):7d} "
              f"{us_per_call(kernel_call, sample, 1):10.1f} "
              f"{us_per_call(decision_call, items, 3):10.1f} "
              f"{us_per_call(rule_call, items, 3):10.1f}")


if __name__ == "__main__":
    main()
