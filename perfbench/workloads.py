"""Workload definitions: fixed lists of CLI jobs plus their seeded inputs.

Each workload is a list of `oddwheel` command lines run in order, in one
fresh interpreter per pass.  The only seeded input is the n=202, k=4
candidate graph of the `candidates` workload: the seed picks a vertex
relabelling, and the program sees only the resulting graph6 file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Exit statuses of `oddwheel.cli`.
EXIT_OK = 0
EXIT_FAIL = 1

GRAPH = "{graph}"  # placeholder for the seeded input file in a job's argv


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    expected_exit: int

    def command(self, graph_path: str | None) -> list[str]:
        return [graph_path if a == GRAPH else a for a in self.argv]


CLAIM1_N_VALUES = ",".join(str(n) for n in range(22, 403, 4))

# Each layer the library is expected to optimise carries most of the load in
# one workload and little in another:
# - exhaustive: canonical form and child generation (about 90% of the pass:
#   all_graphs(7) unpruned, connected_with_degrees pruned), odd-wheel checks
#   and power iteration on about 1,000 tiny graphs each, longest paths; no
#   walks, no exact spectral work.
# - families: enumeration and per-component graph_code (about 65%) and walk
#   profiles of 3,362 order-19 graphs (about 30%); enumerate-gfam then runs
#   on a warm degree cache, so it times graph_code sorting and graph6
#   encoding alone.  No cycle search, no power iteration.
# - candidates: large orders.  Cycle search and subgraph extraction on the
#   order-202 input, one long walk profile, exact quotients, char_poly and
#   bisection; canonical form is under 5%.
# spex-structure at n=50 and claim-1-thm-1.4 exit 1 (FAIL) by design: they
# report the documented criterion-5 discrepancy, so FAIL is their reference.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "exhaustive": (
        Job("brute-spex-n7-k2", ("brute-spex", "--n", "7", "--k", "2"), EXIT_OK),
        Job("brute-spex-n7-k3", ("brute-spex", "--n", "7", "--k", "3"), EXIT_OK),
        Job(
            "lemma-3.2",
            ("verify", "lemma-3.2", "--delta", "3", "--cap", "10"),
            EXIT_OK,
        ),
    ),
    "families": (
        Job("lemma-3.3", ("verify", "lemma-3.3", "--delta", "5", "--n", "19"), EXIT_OK),
        Job(
            "enumerate-gfam",
            ("enumerate", "--kind", "GFAM", "--degree", "5", "--order", "19"),
            EXIT_OK,
        ),
    ),
    "candidates": (
        Job(
            "spex-structure",
            ("verify", "spex-structure", "--n", "50", "--k", "4"),
            EXIT_FAIL,
        ),
        Job("check-odd-wheel", ("check", "odd-wheel", GRAPH, "--k", "4"), EXIT_OK),
        Job("spectral", ("spectral", GRAPH), EXIT_OK),
        Job(
            "walks",
            ("walks", GRAPH, "--max-walk", "404", "--format", "json"),
            EXIT_OK,
        ),
        Job(
            "claim-1",
            ("verify", "claim-1-thm-1.4", "--k", "4", "--n-values", CLAIM1_N_VALUES),
            EXIT_FAIL,
        ),
    ),
}

ALL_JOB_NAMES = tuple(job.name for jobs in WORKLOADS.values() for job in jobs)

CANDIDATE_N = 202
CANDIDATE_K = 4


def needs_graph(workload: str) -> bool:
    return any(GRAPH in job.argv for job in WORKLOADS[workload])


def write_inputs(workload: str, seed: int, workdir: Path) -> str | None:
    """Write the workload's input files; return the graph path, if any.

    The candidate is the balanced k=4 graph with the standard V-family
    member embedded, relabelled by a seeded random permutation.
    """
    if not needs_graph(workload):
        return None
    from oddwheel.families import CandidateSpec, V_KIND, spex_candidate, standard_member
    from oddwheel.formats import encode_graph6
    from oddwheel.graphs import build_graph

    n, k = CANDIDATE_N, CANDIDATE_K
    g = spex_candidate(
        CandidateSpec(n, k, 0, standard_member(V_KIND, k, n // 2), True)
    )
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    relabelled = build_graph(n, ((perm[u], perm[v]) for u, v in g.edges()))
    path = workdir / "candidate.g6"
    path.write_text(encode_graph6(relabelled) + "\n", encoding="ascii")
    return str(path)
