"""Verification harness: every checkable claim becomes an executable job
emitting a structured report.

Reports never guess: FAIL carries a replayable counterexample, BUDGET
means the search ran out before deciding, and finite-size checks of
asymptotic statements are labeled as trend observations in the notes.

`CLAIMS` at the end of the module is the one place to register a claim:
its id, its statement, its job function and the job's CLI parameters
with their defaults.  `run_claim` and the `verify` command read it; the
command makes each parameter a flag, `--` plus the keyword with dashes
(`order_cap` is `--cap`).
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from oddwheel.detect import (
    contains_odd_wheel,
    longest_path_order,
)
from oddwheel.enumerate import (
    all_graphs,
    connected_with_degrees,
    graph_code,
)
from oddwheel.families import (
    FamilySpec,
    G_KIND,
    U_KIND,
    V_KIND,
    assemble_members,
    auto_left_sizes,
    candidate,
    enumerate_family,
    family_parts,
    primitive,
)
from oddwheel.formats import encode_graph6
from oddwheel.graphs import Graph, build_graph, join
from oddwheel.kernels import BudgetExceededError
from oddwheel.spectral import (
    DEFAULT_TOL,
    claim1_comparison,
    core_quotient_note,
    matrix_radius,
    quotient,
    radius_upper_bounds,
    spectral_radius,
)
from oddwheel.walks import (
    Relation,
    part_totals,
    select_maximizers,
    walk_compare,
)

PASS = "PASS"
FAIL = "FAIL"
BUDGET = "BUDGET"
JOIN_BOUND_SLACK = 1e-9  # lemma-2.1: how far a radius may read above the bound

@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    parameters: dict
    outcome: str
    evidence: dict = field(default_factory=dict)
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "parameters": _plain(self.parameters),
            "outcome": self.outcome,
            "evidence": _plain(self.evidence),
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Graph):
        return encode_graph6(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def verify_bounded_order(
    delta: int, order_cap: int, budget: int | None = None
) -> VerificationReport:
    """Exhaustively check the long-path guarantee on every connected
    regular / one-deficient graph up to order_cap.

    The graphs are enumerated before any is checked, the deficient target
    at order_cap first: its pruned tree answers every smaller target, so
    the enumeration is one tree.  A BUDGET report from the enumeration
    budget therefore says `checked: 0`."""
    if delta < 2:
        raise ValueError("delta >= 2 required")
    if order_cap < 0:
        raise ValueError(f"order_cap={order_cap} must be non-negative")
    if order_cap > 12:
        raise ValueError("order_cap above desk scale (12)")
    params = {"delta": delta, "order_cap": order_cap}
    target = 2 * delta + 1
    checked = 0
    counts: dict[int, int] = {}
    min_path = None
    try:
        pools = {}
        for order in range(order_cap, 0, -1):
            deficient = connected_with_degrees(order, delta, True, budget)
            pools[order] = (
                connected_with_degrees(order, delta, False, budget) + deficient
            )
        for order, graphs in sorted(pools.items()):
            counts[order] = len(graphs)
            if order < target:
                continue
            for g in graphs:
                path = longest_path_order(g)
                checked += 1
                if min_path is None or path < min_path:
                    min_path = path
                if path < target:
                    return VerificationReport(
                        "lemma-3.2",
                        params,
                        FAIL,
                        {
                            "counterexample": g,
                            "path_order": path,
                            "required": target,
                        },
                        "counterexample replayable through longest_path_order",
                    )
    except BudgetExceededError as exc:
        return VerificationReport(
            "lemma-3.2", params, BUDGET, {"checked": checked}, str(exc)
        )
    notes = "" if checked else "vacuous: no instance reaches order 2*delta+1"
    return VerificationReport(
        "lemma-3.2",
        params,
        PASS,
        {
            "checked": checked,
            "class_counts": counts,
            "min_path_order": min_path,
            "required": target,
        },
        notes,
    )


def verify_walk_lemma(
    delta: int, n: int, budget: int | None = None
) -> VerificationReport:
    """Compare the iterated walk maximizers of the one-deficient family
    against the fixed-core family, as canonical-form sets.

    The selection runs on the pieces the members are built from
    (`family_parts`, `part_totals`); only the survivors are assembled,
    in family order."""
    spec = FamilySpec(G_KIND, delta, n)
    spec.validate()
    params = {"delta": delta, "n": n}
    try:
        parts = family_parts(spec, budget)
        target = enumerate_family(FamilySpec(V_KIND, delta + 1, n), budget)
    except BudgetExceededError as exc:
        return VerificationReport("lemma-3.3", params, BUDGET, {}, str(exc))
    if not parts:
        return VerificationReport(
            "lemma-3.3", params, FAIL, {}, "family unexpectedly empty"
        )
    # Every member has order n, so the horizon is `default_horizon`'s 2n;
    # GFAM orders are >= 3*delta + 4 >= 13, so it has six levels.
    profiles = part_totals(parts, 2 * n)
    alive, stabilized, _ = select_maximizers(profiles)
    survivors = assemble_members([parts[i] for i in alive])
    got = {graph_code(g) for g in survivors}
    want = {graph_code(g) for g in target}
    w5 = sorted(p[4] for p in profiles)
    w6 = sorted(p[5] for p in profiles)
    evidence = {
        "family_size": len(parts),
        "target_size": len(target),
        "survivors": len(survivors),
        "stabilization_level": stabilized,
        "w5_min_max": [w5[0], w5[-1]],
        "w6_min_max": [w6[0], w6[-1]],
    }
    if got == want:
        return VerificationReport("lemma-3.3", params, PASS, evidence)
    evidence["unexpected_survivors"] = [
        g for g in survivors if graph_code(g) not in want
    ]
    evidence["missing_targets"] = [
        g for g in target if graph_code(g) not in got
    ]
    return VerificationReport(
        "lemma-3.3", params, FAIL, evidence, "survivor set mismatch"
    )


def verify_one_set(
    base_order: int,
    t_size: int,
    h1: Graph,
    h2: Graph,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Embed two graphs into the dominated independent set of a common
    host and check the walk order against the radius order."""
    if h1.order != t_size or h2.order != t_size:
        raise ValueError("embedded graphs must have exactly t_size vertices")
    if base_order <= t_size:
        raise ValueError("base_order must exceed t_size")
    params = {"base_order": base_order, "t_size": t_size, "h1": h1, "h2": h2}
    dominating = primitive("complete", base_order - t_size)
    g1, g2 = (join([dominating, h]) for h in (h1, h2))
    rel = walk_compare(h1, h2)
    r1 = spectral_radius(g1, tol)
    r2 = spectral_radius(g2, tol)
    gap = r1.radius - r2.radius
    resid = max(r1.residual, r2.residual)
    evidence = {
        "relation": rel.relation.value,
        "witness_level": rel.witness_level,
        "radius1": r1.radius,
        "radius2": r2.radius,
        "gap": gap,
        "max_residual": resid,
    }
    if rel.relation is Relation.SUCC:
        ok = gap > 100 * resid
        expect = "strict >"
    elif rel.relation is Relation.PREC:
        ok = -gap > 100 * resid
        expect = "strict <"
    else:
        ok = abs(gap) <= 10 * tol
        expect = "equality within 10*tol"
    evidence["expected"] = expect
    if ok:
        return VerificationReport("thm-3.1", params, PASS, evidence)
    return VerificationReport(
        "thm-3.1",
        params,
        FAIL,
        {**evidence, "h1": h1, "h2": h2},
        "radius order disagrees with walk order",
    )


def verify_spex_structure(
    n: int, k: int, tol: float = DEFAULT_TOL, budget: int | None = None
) -> VerificationReport:
    """Sweep side sizes |L| in {n/2-1, n/2, n/2+1} (every family member,
    one R edge), require every candidate odd-wheel-free, and test whether
    the predicted family attains the maximum radius; V-embedded
    candidates must additionally tie through one equitable quotient.
    An n at which a swept side cannot be built (n < 4, and n = 4 at
    k >= 3, whose |R| = 1 has no room for the R edge) is rejected before
    any enumeration, and one at which the predicted side has no
    candidate after it; both name k and n."""
    if k < 2:
        raise ValueError("k >= 2 required")
    sweep = sorted({n // 2 - 1, n // 2, n // 2 + 1})
    # Every swept side needs |L| >= 1 and |R| = n - |L| >= 1, and |R| >= 2
    # at k >= 3, where each candidate carries the R edge (k = 2 puts a
    # matching in R).
    need = 1 if k == 2 else 2
    if sweep[0] < 1 or n - sweep[-1] < need:
        raise ValueError(
            f"spex-structure at k={k} needs |L| >= 1 and |R| >= {need} at "
            f"every swept side size {sweep}; n={n} is too small"
        )
    params = {"n": n, "k": k}
    predicted_lefts = auto_left_sizes(n, k)
    candidates: list[tuple[str, int, Graph]] = []
    try:
        for left in sweep:
            if k == 2:
                g = candidate(k, n, left)
                candidates.append((f"L={left} matching", left, g))
                continue
            pool = enumerate_family(FamilySpec(U_KIND, k, left), budget)
            for idx, inner in enumerate(pool):
                g = candidate(k, n, member=inner)
                candidates.append((f"L={left} member{idx}", left, g))
    except BudgetExceededError as exc:
        return VerificationReport("spex-structure", params, BUDGET, {}, str(exc))
    built = {left for _, left, _ in candidates}
    empty = [left for left in sweep if left not in built]
    if predicted_lefts[0] in empty:
        raise ValueError(
            f"spex-structure needs a candidate at the predicted side |L| = "
            f"{predicted_lefts[0]}; k={k}, n={n} give no U member at |L| in "
            f"{empty}"
        )

    wheel_hits = []
    rows = []
    by_name = {}
    best = None
    for checked, (name, left, g) in enumerate(candidates):
        try:
            free = not contains_odd_wheel(g, k)
        except BudgetExceededError as exc:
            return VerificationReport(
                "spex-structure", params, BUDGET,
                {"overran": name, "graph": g, "checked": checked}, str(exc),
            )
        if not free:
            wheel_hits.append(name)
        res = spectral_radius(g, tol)
        rows.append(
            {"candidate": name, "left": left, "radius": res.radius,
             "residual": res.residual, "wheel_free": free}
        )
        by_name[name] = g
        if best is None or res.radius > best[0]:
            best = (res.radius, res.residual)
    assert best is not None
    max_radius, max_resid = best
    maximizers = [
        r["candidate"]
        for r in rows
        if max_radius - r["radius"] <= 100 * max(max_resid, r["residual"])
    ]
    predicted = [
        r["candidate"] for r in rows if r["left"] == predicted_lefts[0]
    ]

    evidence: dict = {
        "candidates": rows,
        "maximizers": maximizers,
        "predicted": predicted,
        "predicted_lefts": predicted_lefts,
    }
    notes = []
    if wheel_hits:
        return VerificationReport(
            "spex-structure", params, FAIL, evidence,
            f"candidates contain the forbidden wheel: {wheel_hits}",
        )

    tie_ok = True
    if len(predicted_lefts) == 2:  # the V side competes (`auto_left_sizes`)
        left = predicted_lefts[0]
        vfam = enumerate_family(FamilySpec(V_KIND, k, left), budget)
        vradii = []
        qmats = set()
        for inner in vfam:
            g = candidate(k, n, member=inner)
            qmats.add(quotient(g).quotient)
            vradii.append(spectral_radius(g, tol).radius)
        # The candidates are connected, so each radius is the Perron root
        # of its equitable quotient: one derived quotient proves the tie.
        tie_ok = len(qmats) <= 1
        evidence["v_embedded_radii"] = vradii
        evidence["v_quotients_identical"] = tie_ok
        notes.append(core_quotient_note(k))

    predicted_wins = bool(predicted) and any(
        p in maximizers for p in predicted
    )
    if predicted_wins and tie_ok:
        return VerificationReport(
            "spex-structure", params, PASS, evidence, "; ".join(notes)
        )
    if not predicted_wins:
        notes.append(
            "measured maximizer differs from the predicted family; "
            "see claim-1-thm-1.4 report for the quotient-level analysis"
        )
        evidence["maximizer_graphs"] = [by_name[m] for m in maximizers]
    if not tie_ok:
        notes.append("V-embedded candidates failed to tie")
    return VerificationReport(
        "spex-structure", params, FAIL, evidence, "; ".join(notes)
    )


def brute_spex(n: int, k: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Exhaustive finite-n maximizer of the radius among W_{2k+1}-free
    graphs; ground truth for the detectors and constructions, explicitly
    not a check of any asymptotic statement.

    Only the graphs whose certified radius upper bound reaches the
    maximizer window are power-iterated: they are visited in descending
    bound order until a bound falls more than twice the widest window
    (100 * tol) below the best radius so far.  Every graph left out has a
    radius below the best by more than the window, so it could be neither
    the best nor a maximizer."""
    if k < 2:
        raise ValueError("k >= 2 required")
    if n < 1:
        raise ValueError(f"brute_spex needs n >= 1, got n={n}")
    if n > 8:
        raise ValueError("brute_spex capped at order 8")
    params = {"n": n, "k": k}
    graphs = all_graphs(n)
    free = []
    for checked, g in enumerate(graphs):
        try:
            if not contains_odd_wheel(g, k):
                free.append(g)
        except BudgetExceededError as exc:
            return VerificationReport(
                "brute-spex", params, BUDGET,
                {"overran": g, "checked": checked}, str(exc),
            )
    bounds = radius_upper_bounds(free).tolist()
    margin = 2 * 100 * tol
    results = {}
    running = -1.0
    for i in sorted(range(len(free)), key=lambda i: -bounds[i]):
        if bounds[i] < running - margin:
            break
        results[i] = spectral_radius(free[i], tol)
        running = max(running, results[i].radius)
    iterated = sorted(results)
    best = results[max(iterated, key=lambda i: results[i].radius)]
    maximizers = [
        free[i]
        for i in iterated
        if best.radius - results[i].radius <= 100 * max(best.residual, tol)
    ]
    return VerificationReport(
        "brute-spex",
        params,
        PASS,
        {
            "classes": len(graphs),
            "wheel_free": len(free),
            "max_radius": best.radius,
            "maximizers": maximizers,
            "maximizer_codes": [graph_code(g).hex() for g in maximizers],
        },
        "finite-n oracle, not a theorem check",
    )


def _seeded_graph(rng: random.Random, order: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return build_graph(order, edges)


def verify_join_bound(
    pairs: int = 200,
    max_order: int = 30,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Seeded random pairs (H1, H2): the chain join's radius must stay
    below the Perron root of [[d, |H2|], [|H1|, d']] plus the slack
    `JOIN_BOUND_SLACK`.  At least one pair of orders 1..max_order is drawn."""
    for name, value in (("pairs", pairs), ("max_order", max_order)):
        if value < 1:
            raise ValueError(
                f"lemma-2.1 needs {name} >= 1, got {name}={value}"
            )
    rng = random.Random(seed)
    params = {"pairs": pairs, "max_order": max_order, "seed": seed}
    worst = None
    for trial in range(pairs):
        n1 = rng.randint(1, max_order)
        n2 = rng.randint(1, max_order)
        p1 = rng.choice([0.2, 0.5, 0.8])
        p2 = rng.choice([0.2, 0.5, 0.8])
        h1 = _seeded_graph(rng, n1, p1)
        h2 = _seeded_graph(rng, n2, p2)
        joined = join([h1, h2])
        lhs = spectral_radius(joined, tol).radius
        bound = matrix_radius(
            [[h1.max_degree(), n2], [n1, h2.max_degree()]], tol
        ).radius
        margin = bound - lhs
        if worst is None or margin < worst[0]:
            worst = (margin, trial, n1, n2)
        if lhs > bound + JOIN_BOUND_SLACK:
            return VerificationReport(
                "lemma-2.1",
                params,
                FAIL,
                {
                    "trial": trial,
                    "h1": h1,
                    "h2": h2,
                    "join_radius": lhs,
                    "bound": bound,
                },
                "join bound violated",
            )
    return VerificationReport(
        "lemma-2.1",
        params,
        PASS,
        {"min_margin": worst[0], "tightest_trial": worst[1:]},
    )


def fact1_bound(k: int, n: int) -> float:
    return (k - 1 + ((k - 1) ** 2 + n * n - 1) ** 0.5) / 2 + 1 / (2 * n)


def verify_fact1(
    k: int, n: int, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Finite-n observation: the radius of `candidate(k, n)` exceeds the
    lower bound the asymptotic argument relies on.  An n whose side |L|
    is smaller than k is rejected, and so is one where no candidate
    exists (n < 4, or a (k-1)-regular filler or a core component that
    cannot be built), with k and n named."""
    params = {"k": k, "n": n}
    left = auto_left_sizes(n, k)[0]
    if left < k:
        raise ValueError(
            f"fact-1 needs a side of at least k={k} vertices; n={n} gives "
            f"|L|={left}"
        )
    try:
        g = candidate(k, n)
    except ValueError as exc:
        raise ValueError(
            f"fact-1 has no candidate at k={k}, n={n}: {exc}"
        ) from exc
    # The candidate contains K_{|L|,|R|}, so it is connected and its radius
    # is the Perron root of its certified equitable quotient (a handful of
    # cells at any n); power iteration on the n x n matrix stalls above tol
    # near n = 1000.
    res = matrix_radius(quotient(g).quotient, tol)
    bound = fact1_bound(k, n)
    evidence = {
        "radius": res.radius,
        "bound": bound,
        "margin": res.radius - bound,
        "candidate_order": g.order,
    }
    outcome = PASS if res.radius > bound else FAIL
    return VerificationReport(
        "fact-1", params, outcome, evidence,
        "finite-n observation of an asymptotic inequality",
    )


def verify_claim1(k: int, n_values: list[int]) -> VerificationReport:
    """Exact-rational comparison of the two quotient matrices at every n:
    requires radius1 > radius2 and a negative sign at the bracketed root."""
    if not n_values:
        raise ValueError("claim-1 needs at least one n, got n_values=[]")
    params = {"k": k, "n_values": list(n_values)}
    rows = []
    ok = True
    first_violation = None
    for n in n_values:
        res = claim1_comparison(k, n)
        rows.append(
            {
                "n": n,
                "radius1": res.radius1,
                "radius2": res.radius2,
                "sign_at_root": res.sign_at_root,
                "gap": res.radius1 - res.radius2,
            }
        )
        if not (res.radius1 > res.radius2 and res.sign_at_root < 0):
            ok = False
            if first_violation is None:
                first_violation = {
                    "n": n,
                    "matrix1": [[str(x) for x in row] for row in res.matrix1],
                    "matrix2": [[str(x) for x in row] for row in res.matrix2],
                }
    notes = core_quotient_note(k)
    if not ok:
        notes += (
            "; measured order is radius1 < radius2 at every checked n: the "
            "claimed inequality holds only for the matrix variant with the "
            "k-3 diagonal entry, which the degree row sums rule out"
        )
    evidence: dict = {"comparisons": rows}
    if first_violation is not None:
        evidence["first_violation"] = first_violation
    return VerificationReport(
        "claim-1-thm-1.4", params, PASS if ok else FAIL, evidence, notes,
    )


REQUIRED = object()  # marks a CLI parameter that has no default


@dataclass(frozen=True)
class Claim:
    """A registered claim: its statement, the job that checks it, and the
    job keywords the CLI passes, each with its CLI default (REQUIRED when
    the flag must be given).  Only an omitted flag takes the default."""

    description: str
    job: Callable[..., VerificationReport]
    params: Mapping[str, object]


CLAIMS = {
    "lemma-3.2": Claim(
        "connected graphs with all degrees D except at most one of degree "
        "D-1 and order >= 2D+1 contain a path of order 2D+1",
        verify_bounded_order, {"delta": 3, "order_cap": 10, "budget": None}),
    "lemma-3.3": Claim(
        "iterated walk-count maximizers of the one-deficient bounded-"
        "component family are exactly the fixed-core family",
        verify_walk_lemma, {"delta": 3, "n": 13, "budget": None}),
    "thm-3.1": Claim(
        "embedding walk-ordered graphs into a dominated independent set "
        "orders the spectral radii the same way",
        verify_one_set, {"base_order": 40, "t_size": 6, "h1": REQUIRED,
                         "h2": REQUIRED, "tol": DEFAULT_TOL}),
    "spex-structure": Claim(
        "predicted bipartite-plus-embedding candidates attain the maximum "
        "spectral radius among the side-size sweep",
        verify_spex_structure,
        {"n": REQUIRED, "k": REQUIRED, "tol": DEFAULT_TOL, "budget": None}),
    "claim-1-thm-1.4": Claim(
        "6-class quotient of the balanced candidate beats the 3-class "
        "quotient of the unbalanced one",
        verify_claim1, {"k": 4, "n_values": (22, 102)}),
    "fact-1": Claim(
        "constructed candidates exceed the radius lower bound "
        "(k-1+sqrt((k-1)^2+n^2-1))/2 + 1/(2n)",
        verify_fact1, {"k": 3, "n": 100, "tol": DEFAULT_TOL}),
    "lemma-2.1": Claim(
        "the spectral radius of a chain join is at most the Perron root of "
        "the 2x2 degree/size bound matrix",
        verify_join_bound,
        {"pairs": 200, "max_order": 30, "seed": 0, "tol": DEFAULT_TOL}),
    "brute-spex": Claim(
        "finite-n exhaustive maximizer of the spectral radius among "
        "odd-wheel-free graphs",
        brute_spex, {"n": REQUIRED, "k": REQUIRED, "tol": DEFAULT_TOL}),
}


def run_claim(claim_id: str, **kwargs) -> VerificationReport:
    """Run the registered job of `claim_id` on `kwargs`.

    Unknown ids raise KeyError with the known list; a keyword the job
    does not take raises TypeError.
    """
    if claim_id not in CLAIMS:
        raise KeyError(
            f"unknown claim {claim_id!r}; known: {', '.join(sorted(CLAIMS))}"
        )
    return CLAIMS[claim_id].job(**kwargs)
