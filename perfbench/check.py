"""Reference check: reduce each job's output to exact fields and radii.

A job's summary has two parts:
- `exact`: labelling-invariant fields that must match the reference
  bit for bit (outcomes, counts, canonical codes, exact walk counts,
  exact signs).  They are hashed into the job's digest.
- `floats`: radii, each with the error bound its residual certificate
  gives.  Two radii agree when they differ by at most the sum of their
  bounds plus a few ulps.

Error bounds.  Power iteration stops once ||A x - r x||_inf <= residual
with max_i x_i = 1.  For a symmetric A this puts an eigenvalue within
||A x - r x||_2 / ||x||_2 <= sqrt(n) * residual of r.  An equitable
quotient Q = D^-1 P^T A P of c classes is similar to a symmetric matrix
through D^(1/2), which costs a further factor sqrt(max|class| /
min|class|) <= sqrt(n); with the c-entry residual its bound is
sqrt(c * n) * residual.  Where a report omits the residual, the CLI
tolerance bounds it.
"""

from __future__ import annotations

import hashlib
import json
import math

CLI_TOL = 1e-10


def _bound(order: int, residual: float) -> float:
    return math.sqrt(order) * residual


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def summarise(name: str, stdout: str, graph=None) -> dict:
    """Summary of one job's standard output; `graph` is the decoded input
    graph of jobs that read one."""
    exact, floats = _SUMMARISERS[name](stdout, graph)
    return {"digest": _digest(exact), "floats": floats}


def _brute_spex(stdout, graph):
    rep = json.loads(stdout)
    ev = rep["evidence"]
    exact = {
        "outcome": rep["outcome"],
        "parameters": rep["parameters"],
        "classes": ev["classes"],
        "wheel_free": ev["wheel_free"],
        "maximizer_codes": ev["maximizer_codes"],
    }
    n = rep["parameters"]["n"]
    return exact, [["max_radius", ev["max_radius"], _bound(n, CLI_TOL)]]


def _whole_report(stdout, graph):
    rep = json.loads(stdout)
    keep = ("outcome", "parameters", "evidence")
    return {k: rep[k] for k in keep}, []


def _enumerate(stdout, graph):
    lines = stdout.splitlines()
    exact = {
        "members": len(lines),
        "sha256": hashlib.sha256(stdout.encode("ascii")).hexdigest(),
    }
    return exact, []


def _spex_structure(stdout, graph):
    rep = json.loads(stdout)
    ev = rep["evidence"]
    n = rep["parameters"]["n"]
    exact = {
        "outcome": rep["outcome"],
        "parameters": rep["parameters"],
        "candidates": [
            [r["candidate"], r["left"], r["wheel_free"]] for r in ev["candidates"]
        ],
        "maximizers": ev["maximizers"],
        "predicted": ev["predicted"],
        "predicted_lefts": ev["predicted_lefts"],
        "v_quotients_identical": ev.get("v_quotients_identical"),
        "v_embedded": len(ev.get("v_embedded_radii", [])),
        # the radius bounds below grow with the residual, so hold it to
        # the tolerance the CLI asked for
        "residuals_within_tol": all(
            r["residual"] <= CLI_TOL for r in ev["candidates"]
        ),
    }
    floats = [
        [f"radius[{r['candidate']}]", r["radius"], _bound(n, r["residual"])]
        for r in ev["candidates"]
    ]
    floats += [
        [f"v_radius[{i}]", r, _bound(n, CLI_TOL)]
        for i, r in enumerate(ev.get("v_embedded_radii", []))
    ]
    return exact, floats


def _check_line(stdout, graph):
    return {"line": stdout}, []


def _spectral(stdout, graph):
    """Radius against the reference; the Perron vector permutes with the
    labelling, so it is certified here instead: positive, max entry 1,
    and a recomputed residual no larger than the reported one allows."""
    rep = json.loads(stdout)
    x = rep["perron"]
    lam = rep["radius"]
    recomputed = max(
        abs(sum(x[v] for v in graph.neighbors(u)) - lam * x[u])
        for u in range(graph.order)
    )
    exact = {
        "order": len(x),
        "note": rep["note"],
        "perron_positive": min(x) > 0,
        "perron_max_is_one": max(x) == 1.0,
        "residual_within_tol": rep["residual"] <= CLI_TOL,
        "residual_certified": recomputed <= 2 * rep["residual"] + 1e-12,
    }
    return exact, [["radius", lam, _bound(len(x), rep["residual"])]]


def _walks(stdout, graph):
    rep = json.loads(stdout)
    return {"levels": rep["levels"], "counts": rep["counts"]}, []


def _claim1(stdout, graph):
    rep = json.loads(stdout)
    ev = rep["evidence"]
    exact = {
        "outcome": rep["outcome"],
        "parameters": rep["parameters"],
        "signs": [[r["n"], r["sign_at_root"]] for r in ev["comparisons"]],
        "first_violation": ev.get("first_violation"),
    }
    floats = []
    for r in ev["comparisons"]:
        n = r["n"]
        floats.append([f"radius1[{n}]", r["radius1"], _bound(6 * n, CLI_TOL)])
        floats.append([f"radius2[{n}]", r["radius2"], _bound(3 * n, CLI_TOL)])
    return exact, floats


_SUMMARISERS = {
    "brute-spex-n7-k2": _brute_spex,
    "brute-spex-n7-k3": _brute_spex,
    "lemma-3.2": _whole_report,
    "lemma-3.3": _whole_report,
    "enumerate-gfam": _enumerate,
    "spex-structure": _spex_structure,
    "check-odd-wheel": _check_line,
    "spectral": _spectral,
    "walks": _walks,
    "claim-1": _claim1,
}


def mismatches(summary: dict, reference: dict) -> list[str]:
    """Ways in which a job summary disagrees with its reference entry."""
    out = []
    if summary["digest"] != reference["digest"]:
        out.append("exact-field digest differs from the reference")
    want = {label: (v, b) for label, v, b in reference["floats"]}
    got = {label: (v, b) for label, v, b in summary["floats"]}
    if want.keys() != got.keys():
        out.append("radius labels differ from the reference")
        return out
    for label, (v, b) in got.items():
        rv, rb = want[label]
        slack = b + rb + 8 * math.ulp(max(abs(v), abs(rv)))
        if abs(v - rv) > slack:
            out.append(f"{label}: {v!r} vs reference {rv!r} (allowed {slack:.3g})")
    return out
