import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oddwheel import verify as verify_mod
from oddwheel import graphs, walks
from oddwheel.cli import main
from oddwheel.enumerate import BudgetExceededError
from oddwheel.families import (
    FamilySpec,
    U_KIND,
    auto_left_sizes,
    bipartite_candidate,
    candidate,
    enumerate_family,
    family_parts,
    primitive,
    standard_member,
)
from oddwheel.formats import decode_graph6, encode_graph6
from oddwheel.graphs import build_graph, components, disjoint_union
from oddwheel.spectral import SpectralResult
from oddwheel.walks import OrderResult, Relation
from oddwheel.verify import (
    CLAIMS,
    VerificationReport,
    brute_spex,
    fact1_bound,
    run_claim,
    verify_bounded_order,
    verify_claim1,
    verify_fact1,
    verify_join_bound,
    verify_one_set,
    verify_spex_structure,
    verify_walk_lemma,
)


def test_report_schema_roundtrip():
    rep = verify_bounded_order(2, 6)
    payload = json.loads(rep.to_json())
    assert set(payload) == {
        "claim_id", "parameters", "outcome", "evidence", "notes",
    }
    assert payload["claim_id"] in CLAIMS


def test_bounded_order_pass_and_vacuous():
    rep = verify_bounded_order(2, 9)
    assert rep.outcome == "PASS" and rep.evidence["checked"] > 0
    vac = verify_bounded_order(3, 6)
    assert vac.outcome == "PASS" and vac.evidence["checked"] == 0
    assert "vacuous" in vac.notes


def test_bounded_order_budget():
    rep = verify_bounded_order(4, 12, budget=10)
    assert rep.outcome == "BUDGET"


# sha256 of the sorted-key JSON of verify_bounded_order(delta, cap).to_dict(),
# recorded while every order was enumerated from order 1 on its own; the
# shared tree must leave the PASS and FAIL reports byte for byte as they were.
BOUNDED_ORDER_SHA256 = {
    (2, 9, "PASS"): "3a0bfda1d6d514b1e6b951e0f40dd6ed7b69bb99a83ba5cf2b7e7fb5b0001b7e",
    (2, 9, "FAIL"): "9e7ab69d1d6373ac3dccbcd9e5a964d2dc66ee6ae0e7bd768b85a05a5067cdcc",
    (3, 10, "PASS"): "661c4c1a65fc973ca4bd70366da8a519e659da7799aa2721ade8eb2e3e2111af",
    (3, 10, "FAIL"): "3c4c4338ae0146f7f8a00fcb04faddfca0167e81eee4ed58a71e92b770316e3e",
    (4, 10, "PASS"): "7b91d9f4066ac0c4a19981f7e74616e86e2c94f4dd1df0f56c892861e558ba2d",
    (4, 10, "FAIL"): "3c81c6b8f4cde9990cd734e3370c1054f96ef4a8cb798a6de01b59aee6064cb2",
}


@pytest.mark.parametrize("delta, cap", [(2, 9), (3, 10), (4, 10)])
def test_bounded_order_reports_are_pinned(monkeypatch, delta, cap):
    def digest(outcome):
        rep = verify_bounded_order(delta, cap)
        assert rep.outcome == outcome
        text = json.dumps(rep.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest("PASS") == BOUNDED_ORDER_SHA256[(delta, cap, "PASS")]
    # From the third graph checked on, the path search reports three
    # vertices short: the FAIL report names the third graph in checking
    # order (ascending order, regular before deficient, code order).
    path_order = verify_mod.longest_path_order
    calls = []

    def short(g, *args):
        calls.append(g)
        found = path_order(g, *args)
        return found - 3 if len(calls) >= 3 else found

    monkeypatch.setattr(verify_mod, "longest_path_order", short)
    assert digest("FAIL") == BOUNDED_ORDER_SHA256[(delta, cap, "FAIL")]


def test_bounded_order_budget_report_checks_nothing(fresh_caches):
    # The whole enumeration comes before the first check.  At this budget
    # the trees up to order 9 fit and the order-10 tree does not; when each
    # order was enumerated and checked in turn the report said checked: 28.
    rep = verify_bounded_order(3, 10, budget=3000)
    assert rep.outcome == "BUDGET" and rep.evidence == {"checked": 0}


@pytest.mark.parametrize("cap", [-1, -5])
def test_bounded_order_rejects_a_negative_cap(cap):
    with pytest.raises(ValueError, match=f"order_cap={cap}"):
        verify_bounded_order(3, cap)


def test_walk_lemma_pass_and_error():
    rep = verify_walk_lemma(3, 13)
    assert rep.outcome == "PASS"
    assert rep.evidence["survivors"] == 1
    with pytest.raises(ValueError):
        verify_walk_lemma(3, 11)
    with pytest.raises(ValueError):
        verify_walk_lemma(4, 16)


# sha256 of the report as `oddwheel verify lemma-3.3` prints it, recorded
# with w5 and w6 from a separate level-6 profile of each member; reading
# them from the selection's profiles must give the same bytes.
GOLDEN_WALK_LEMMA = {
    (3, 13): "a4d6bdc2d52227f535c5188ec5a963609b10c2253a26f5f8f7601e50e92e5040",
    (3, 17): "f9386fa6b93c23a02be5b0b2bea8dfd747c230c494403d49714d45deb21c6b82",
    (5, 19): "bf6ff6342cdb2f5ee7f078c2b5c7f070902eb2862e5042426ad6112f95b3b7e0",
    # recorded while the selection still ran on the assembled members
    (5, 31): "ab9c2b25d35004bd2db09f76171ef20620410a3bc4152dfa357df0f50337ba66",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_WALK_LEMMA))
def test_walk_lemma_golden(key):
    text = verify_walk_lemma(*key).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WALK_LEMMA[key]


def test_walk_lemma_counts_each_placed_piece_once(monkeypatch):
    # `ex_infinity_trace` over the built GFAM(3, 17) members, the
    # selection `lemma-3.3` ran on before it moved to the pieces;
    # certifications counted where `quotient` makes them
    tables, certified = [], []
    cell_walks, certify = walks._cell_walks, graphs.certify_equitable

    def counting_table(part, levels):
        tables.append(levels)
        return cell_walks(part, levels)

    def counting_certify(g, part, twins=None):
        certified.append(g.rows)
        return certify(g, part, twins)

    family = enumerate_family(FamilySpec("GFAM", 3, 17))
    monkeypatch.setattr(walks, "_cell_walks", counting_table)
    monkeypatch.setattr(graphs, "certify_equitable", counting_certify)
    trace = walks.ex_infinity_trace(family)
    # each connected piece as placed in its member, relabelled 0..k-1
    placed = {
        tuple(g.rows[v] for v in c.labels): c.graph.rows
        for g in family
        for c in components(g)
    }
    assert len(placed) < sum(len(components(g)) for g in family)
    # one walk table per distinct placed piece, at horizon 2n, and each
    # such piece certified exactly once
    assert tables == [34] * len(placed)
    assert len(trace.profiles) == len(family)
    assert sorted(certified) == sorted(placed.values())


# Distinct piece codes over the GFAM(delta, n) members: one walk table
# each.  At (5, 19): the 1 + 28 deficient heads of orders 7 and 9, K_6
# and the 60 connected quintic graphs of order 10.
PIECE_CODES = {(5, 19): 90, (5, 31): 93}


@pytest.mark.parametrize("key", sorted(PIECE_CODES))
def test_walk_lemma_counts_each_piece_code_once(monkeypatch, key):
    tables, certified, assembled = [], [], []
    cell_walks, certify = walks._cell_walks, graphs.certify_equitable
    assemble = verify_mod.assemble_members

    def counting_table(part, levels):
        tables.append(levels)
        return cell_walks(part, levels)

    def counting_certify(g, part, twins=None):
        certified.append(g.rows)
        return certify(g, part, twins)

    def counting_assemble(parts):
        assembled.append(len(parts))
        return assemble(parts)

    delta, n = key
    parts = family_parts(FamilySpec("GFAM", delta, n))
    codes = {
        code: piece.rows
        for head, fillers in parts
        for code, piece in [head, *fillers]
    }
    monkeypatch.setattr(walks, "_cell_walks", counting_table)
    monkeypatch.setattr(graphs, "certify_equitable", counting_certify)
    monkeypatch.setattr(verify_mod, "assemble_members", counting_assemble)
    rep = verify_walk_lemma(delta, n)
    assert len(codes) == PIECE_CODES[key]
    assert tables == [2 * n] * len(codes)
    assert sorted(certified) == sorted(codes.values())
    # only the survivors are built as graphs
    assert assembled == [rep.evidence["survivors"]]
    assert rep.evidence["family_size"] == len(parts)
    if key == (5, 19):
        assert assembled == [1]


def _overrun_on_second_call(monkeypatch):
    """Make the detector as seen from verify.py overrun its budget on the
    second graph it is given; return the graphs it was given."""
    seen = []
    detector = verify_mod.contains_odd_wheel

    def overrunning(g, k, *args):
        seen.append(g)
        if len(seen) == 2:
            raise BudgetExceededError("odd-wheel search budget 1 exhausted")
        return detector(g, k, *args)

    monkeypatch.setattr(verify_mod, "contains_odd_wheel", overrunning)
    return seen


def test_spex_structure_detector_overrun_is_a_budget_report(monkeypatch):
    seen = _overrun_on_second_call(monkeypatch)
    rep = verify_spex_structure(20, 3)
    assert rep.outcome == "BUDGET"
    assert set(rep.to_dict()) == {
        "claim_id", "parameters", "outcome", "evidence", "notes"
    }
    assert rep.evidence["checked"] == 1
    assert rep.evidence["overran"].startswith("L=")
    assert rep.evidence["graph"] is seen[1]
    assert "budget" in rep.notes


def test_brute_spex_detector_overrun_is_a_budget_report(monkeypatch):
    seen = _overrun_on_second_call(monkeypatch)
    rep = brute_spex(5, 2)
    assert rep.outcome == "BUDGET"
    assert rep.evidence == {"overran": seen[1], "checked": 1}
    assert rep.to_dict()["evidence"]["overran"] == encode_graph6(seen[1])


def test_cli_prints_the_budget_report_on_detector_overrun(monkeypatch, capsys):
    _overrun_on_second_call(monkeypatch)
    code = main(["verify", "spex-structure", "--n", "20", "--k", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["outcome"] == "BUDGET"
    assert payload["evidence"]["checked"] == 1


def test_one_set_relations():
    c6 = primitive("cycle", 6)
    c3c3 = disjoint_union([primitive("cycle", 3)] * 2)
    rep = verify_one_set(40, 6, c6, c3c3)
    assert rep.outcome == "PASS"
    assert rep.evidence["relation"] == "EQUIV"

    k3k1 = disjoint_union([primitive("complete", 3), primitive("empty", 1)])
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    rep = verify_one_set(40, 4, k3k1, p4)
    assert rep.outcome == "PASS" and rep.evidence["relation"] == "SUCC"
    rep = verify_one_set(40, 4, p4, k3k1)
    assert rep.outcome == "PASS" and rep.evidence["relation"] == "PREC"
    with pytest.raises(ValueError):
        verify_one_set(40, 5, c6, c3c3)


def test_spex_structure_odd_k_prediction_holds():
    rep = verify_spex_structure(20, 3)
    assert rep.outcome == "PASS"
    assert all(r["wheel_free"] for r in rep.evidence["candidates"])
    assert rep.evidence["predicted"][0] in rep.evidence["maximizers"]


def test_spex_structure_even_k_reports_honestly():
    # the measured maximizer contradicts the predicted family at this
    # size; the job must say FAIL and keep the evidence replayable
    rep = verify_spex_structure(22, 4)
    assert rep.outcome == "FAIL"
    assert "maximizer differs" in rep.notes
    assert rep.evidence["v_quotients_identical"]
    radii = rep.evidence["v_embedded_radii"]
    assert max(radii) - min(radii) <= 1e-9
    assert all(r["wheel_free"] for r in rep.evidence["candidates"])


# sha256 of the sorted-key JSON of the whole report: pins every k=2
# candidate of the side-size sweep label for label through its radius.
GOLDEN_K2_SPEX = {
    10: "07c6a6b94406a4ef759f0e6ae4c7117a9dfe67730509eda9ef173a7628536abc",
    22: "b24c5263e863cc194f2f15221c700451ef61fe6166e0760790add7dea27e0997",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_K2_SPEX))
def test_spex_structure_k2_golden(n):
    report = verify_spex_structure(n, 2).to_dict()
    assert report["outcome"] == "PASS"
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_K2_SPEX[n]


# sha256 of `verify_spex_structure(50, 5).to_json()`, recorded before
# join-shaped hub neighbourhoods were decided by path-cover profiles (a
# 60 s run then); the decision rule must leave the report byte-identical.
SPEX_50_5 = "0c1ef7f9d521675e84a039438a5fb5dc6dc25ec3ec0243e2365417cdc3580acb"


def test_spex_structure_k5_report_unchanged():
    text = verify_spex_structure(50, 5).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == SPEX_50_5


def test_spex_structure_k6_reports_the_criterion_5_fail(capsys):
    # k even and n = 2 mod 4: the registered prediction FAILs, with the
    # quotient note; the wheel checks complete instead of overrunning.
    code = main(["verify", "spex-structure", "--n", "30", "--k", "6"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["outcome"] == "FAIL"
    assert "maximizer differs from the predicted family" in payload["notes"]
    assert "matching-complement diagonal entry" in payload["notes"]
    assert all(r["wheel_free"] for r in payload["evidence"]["candidates"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spex_structure_rejects_an_empty_side(n):
    # the sweep |L| in {n/2-1, ..., n/2+1} reaches 0 or n below n = 4
    with pytest.raises(ValueError, match=f"n={n} "):
        verify_spex_structure(n, 2)
    assert verify_spex_structure(4, 2).outcome == "PASS"



# (n, k) whose predicted side |L| = auto_left_sizes(n, k)[0] has no U
# member; at the first twelve no swept side has one.
SPEX_WITHOUT_A_PREDICTED_CANDIDATE = [
    (5, 4), (5, 5), (6, 5), (7, 5),
    (5, 6), (6, 6), (7, 6), (8, 6), (9, 6),
    (9, 3), (10, 3), (14, 4), (8, 5), (17, 5), (18, 5), (22, 6),
]


@pytest.mark.parametrize("n, k", SPEX_WITHOUT_A_PREDICTED_CANDIDATE)
def test_spex_structure_rejects_an_n_it_cannot_test(capsys, n, k):
    # No report: a FAIL would claim the statement false at an n where the
    # prediction has nothing to be measured on.
    with pytest.raises(ValueError, match=f"k={k}, n={n} ") as info:
        verify_spex_structure(n, k)
    message = str(info.value)
    predicted = auto_left_sizes(n, k)[0]
    assert f"the predicted side |L| = {predicted};" in message
    sweep = sorted({n // 2 - 1, n // 2, n // 2 + 1})
    empty = [left for left in sweep
             if not enumerate_family(FamilySpec(U_KIND, k, left))]
    assert message.endswith(f"|L| in {empty}")
    assert predicted in empty
    if SPEX_WITHOUT_A_PREDICTED_CANDIDATE.index((n, k)) < 9:
        assert empty == sweep
    assert main(["verify", "spex-structure", "--n", str(n), "--k", str(k)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


@pytest.mark.parametrize("n, k", [(4, 3), (4, 4), (4, 5), (4, 6), (3, 2)])
def test_spex_structure_rejects_a_side_without_room(capsys, monkeypatch, n, k):
    # At k >= 3 every candidate carries the R edge, so the sweep's largest
    # side |L| = n/2 + 1 must leave |R| >= 2; n = 4 leaves 1.  The sweep
    # check says so before any member is enumerated.  At k = 2, R holds
    # a matching and |R| >= 1 is enough: n = 4 is tested, n = 3 is not.
    monkeypatch.setattr(verify_mod, "enumerate_family", _overrun)
    need = 1 if k == 2 else 2
    sweep = sorted({n // 2 - 1, n // 2, n // 2 + 1})
    message = (
        f"spex-structure at k={k} needs |L| >= 1 and |R| >= {need} at every "
        f"swept side size {sweep}; n={n} is too small"
    )
    with pytest.raises(ValueError) as info:
        verify_spex_structure(n, k)
    assert str(info.value) == message
    assert main(["verify", "spex-structure", "--n", str(n), "--k", str(k)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_spex_structure_tests_the_k2_edge(capsys):
    # n = 4 at k = 2 has |R| = 1 on its largest side, a one-vertex matching
    assert verify_spex_structure(4, 2).outcome == "PASS"
    assert main(["verify", "spex-structure", "--n", "4", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "PASS"


def _evidence_graphs_decode(report):
    """Every graph in the evidence comes back from its graph6 line."""
    decoded = 0

    def walk(raw, plain):
        nonlocal decoded
        if isinstance(raw, graphs.Graph):
            assert decode_graph6(plain) == raw
            decoded += 1
        elif isinstance(raw, dict):
            for key, value in raw.items():
                walk(value, plain[str(key)])
        elif isinstance(raw, (list, tuple)):
            for value, line in zip(raw, plain, strict=True):
                walk(value, line)

    walk(report.evidence, report.to_dict()["evidence"])
    return decoded


def _overrun(*args, **kwargs):
    raise BudgetExceededError("enumeration budget 1 exhausted")


def test_walk_lemma_enumeration_overrun_is_a_budget_report(monkeypatch):
    monkeypatch.setattr(verify_mod, "family_parts", _overrun)
    rep = verify_walk_lemma(3, 13)
    assert rep.outcome == "BUDGET" and rep.evidence == {}
    assert rep.notes == "enumeration budget 1 exhausted"


def test_walk_lemma_reports_an_empty_family(monkeypatch):
    monkeypatch.setattr(verify_mod, "family_parts", lambda spec, b: [])
    rep = verify_walk_lemma(3, 13)
    assert rep.outcome == "FAIL" and rep.notes == "family unexpectedly empty"


def test_walk_lemma_reports_a_survivor_mismatch(monkeypatch):
    # A target the selection cannot reach: the true survivors come back
    # unexpected and the planted target missing, each as a graph.
    planted = primitive("cycle", 13)
    real = verify_mod.enumerate_family
    monkeypatch.setattr(
        verify_mod, "enumerate_family",
        lambda spec, b: [planted] if spec.kind == "V" else real(spec, b),
    )
    rep = verify_walk_lemma(3, 13)
    assert rep.outcome == "FAIL" and rep.notes == "survivor set mismatch"
    assert rep.evidence["missing_targets"] == [planted]
    assert len(rep.evidence["unexpected_survivors"]) == rep.evidence["survivors"]
    assert _evidence_graphs_decode(rep) == 1 + rep.evidence["survivors"]


def test_walk_lemma_lists_unexpected_survivors_in_family_order(monkeypatch):
    # At (5, 31) the 191 survivors come out of the parts loop in another
    # order than the family's; the FAIL report lists them as
    # `ex_infinity_trace` over the built family does.
    planted = primitive("empty", 31)
    real = verify_mod.enumerate_family
    monkeypatch.setattr(
        verify_mod, "enumerate_family",
        lambda spec, b: [planted] if spec.kind == "V" else real(spec, b),
    )
    rep = verify_walk_lemma(5, 31)
    assert rep.outcome == "FAIL" and rep.notes == "survivor set mismatch"
    trace = walks.ex_infinity_trace(enumerate_family(FamilySpec("GFAM", 5, 31)))
    assert rep.evidence["unexpected_survivors"] == list(trace.survivors)
    assert len(trace.survivors) == rep.evidence["survivors"] == 191
    assert rep.evidence["stabilization_level"] == trace.stabilization_level


def test_one_set_reports_a_radius_order_against_the_walk_order(monkeypatch):
    # C6 and 2C3 tie on walks; claimed SUCC, their equal radii disagree.
    monkeypatch.setattr(
        verify_mod, "walk_compare",
        lambda h1, h2: OrderResult(Relation.SUCC, 1),
    )
    c6 = primitive("cycle", 6)
    c3c3 = disjoint_union([primitive("cycle", 3)] * 2)
    rep = verify_one_set(40, 6, c6, c3c3)
    assert rep.outcome == "FAIL"
    assert rep.notes == "radius order disagrees with walk order"
    assert rep.evidence["expected"] == "strict >"
    assert _evidence_graphs_decode(rep) == 2


def test_spex_structure_enumeration_overrun_is_a_budget_report(monkeypatch):
    monkeypatch.setattr(verify_mod, "enumerate_family", _overrun)
    rep = verify_spex_structure(20, 3)
    assert rep.outcome == "BUDGET" and rep.evidence == {}
    assert rep.notes == "enumeration budget 1 exhausted"


def test_spex_structure_reports_a_wheel_in_a_candidate(monkeypatch):
    monkeypatch.setattr(verify_mod, "contains_odd_wheel", lambda g, k: True)
    rep = verify_spex_structure(20, 3)
    assert rep.outcome == "FAIL"
    names = [r["candidate"] for r in rep.evidence["candidates"]]
    assert rep.notes == f"candidates contain the forbidden wheel: {names}"
    assert not any(r["wheel_free"] for r in rep.evidence["candidates"])
    assert _evidence_graphs_decode(rep) == 0


def test_spex_structure_reports_v_candidates_that_fail_to_tie(monkeypatch):
    # Every quotient distinct: the two V(4, 11) candidates cannot tie.
    seen = []
    monkeypatch.setattr(
        verify_mod, "quotient",
        lambda g: seen.append(g) or type("Q", (), {"quotient": len(seen)}),
    )
    rep = verify_spex_structure(22, 4)
    assert rep.outcome == "FAIL" and len(seen) == 2
    assert rep.evidence["v_quotients_identical"] is False
    assert rep.notes.endswith("; V-embedded candidates failed to tie")
    assert _evidence_graphs_decode(rep) == len(rep.evidence["maximizers"])


def test_join_bound_reports_a_violation(monkeypatch):
    monkeypatch.setattr(
        verify_mod, "matrix_radius",
        lambda rows, tol: SpectralResult(0.0, (1.0,), 0.0, 0),
    )
    rep = verify_join_bound(pairs=3, max_order=5, seed=1)
    assert rep.outcome == "FAIL" and rep.notes == "join bound violated"
    assert rep.evidence["trial"] == 0 and rep.evidence["bound"] == 0.0
    assert _evidence_graphs_decode(rep) == 2

def test_brute_spex_small():
    rep = brute_spex(4, 2)
    assert rep.outcome == "PASS"
    assert rep.evidence["classes"] == 11
    assert rep.evidence["wheel_free"] == 11
    assert rep.evidence["max_radius"] == pytest.approx(3.0, abs=1e-8)
    assert "finite-n oracle" in rep.notes

    rep5 = brute_spex(5, 2)
    assert rep5.evidence["classes"] == 34
    assert rep5.evidence["wheel_free"] < 34
    with pytest.raises(ValueError):
        brute_spex(9, 2)


def test_brute_spex_order_seven():
    rep = brute_spex(7, 3)
    assert rep.outcome == "PASS"
    assert rep.evidence["classes"] == 1044
    # W7 spans 7 vertices, so only graphs containing it whole are excluded
    assert rep.evidence["wheel_free"] < 1044


# sha256 of the sorted-key JSON of brute_spex(n, k, tol).to_dict(), recorded
# while every wheel-free class was power-iterated; the bound that rules
# graphs out must leave each report byte for byte as it was.
BRUTE_SPEX_SHA256 = {
    (1, 2, 1e-10):
        "dcd4ff2ffc76b8e24cc8cba3d07b1f2ae9cd12a64e3c310f98719ddb80915c65",
    (1, 3, 1e-10):
        "6a45b4ddda6f6933d3ca61edb24170e6e8acbe70ecffac8f96df13b7a144e073",
    (1, 4, 1e-10):
        "8d245d9a3c91f3771c7fc0d3782e50b8c1e4bc167bf7868bf8012a9b7af75e0c",
    (2, 2, 1e-10):
        "438da08352f56065f43ca9b9444330de938a96f61d24663a1efc1fdcf1c64930",
    (2, 3, 1e-10):
        "3fa3061129a2ffff756c329bcfe0a2cd799387135a5743f201d9d11e79d24cb4",
    (2, 4, 1e-10):
        "a6524f424dfd5ffa76d7c4be7d87754dd3fb059a9cc5896d06dc41b6654c524d",
    (3, 2, 1e-10):
        "34cd63e1c818b6f30165ac2db87e94dc15e0f52d6972062059f985271b11aabf",
    (3, 3, 1e-10):
        "a4a21a5dbe719968b81d50fa31d9a6cd338fb8b81242813a07810b92e799d15a",
    (3, 4, 1e-10):
        "e8ee7a6bc0e24806270bf909a5df2686213b7da791c3f31509f96877b8d46470",
    (4, 2, 1e-10):
        "b7b20c2c4064c5870d3ec60408913d939d184b8e58effb13c274322a50a2cecf",
    (4, 3, 1e-10):
        "ba28d265b6add45e05359d83b84ae28568d53030d1f7442b5cbc98b583ae88e4",
    (4, 4, 1e-10):
        "887b8811d0483207a333769f51cb9ea533874a2b6f42a9ce7c9a1c6fb3c2bafa",
    (5, 2, 1e-10):
        "e7d82706eb7eaf270b0ab8cf31e5efed34040ec6de79494593f473c97fecfc3a",
    (5, 3, 1e-10):
        "6208c653996491c61703f7f369475dab9a76624a44bbcb466b00542eceada284",
    (5, 4, 1e-10):
        "0b33f6e5959a3be16f57f1a3214d23b28a0f9cfe7300952869950c23827c9961",
    (6, 2, 1e-10):
        "f05fd14d93831bc22eaaeaa6dc12cc69c88708c82026df4f54a2f892051573d4",
    (6, 3, 1e-10):
        "0c37e0d2b30d8bda38081389ad4b09c6a776865a83035b077d02c9cce094ebaa",
    (6, 4, 1e-10):
        "12a145b35b208680764b97b173c25514d276b76b596dcd4076d6afd27e715a84",
    (7, 2, 1e-10):
        "c6253a216ff3f44834bb837e525c7f815cbf1d6c470960a49102571fec54a30e",
    (7, 3, 1e-10):
        "07b1321bac6c04e0ce66b62591ed9c119a67d435abde356cb763f53466e7c933",
    (7, 4, 1e-10):
        "cabaea9f6b6e8cc3c78d947e0ec0e030c0b30d7b004428864726828344d8f617",
    (5, 2, 1e-4):
        "e163ac94c837fcf0a0273428d8fbfc2f432cf45fec36756f2da93bfc77789ae8",
    (5, 3, 1e-4):
        "6208c653996491c61703f7f369475dab9a76624a44bbcb466b00542eceada284",
    (6, 2, 1e-4):
        "43ad8ce832cdccae3bb55ab57543e1ff4f1a1ee4992a50413545e748542036aa",
    (6, 3, 1e-4):
        "0c37e0d2b30d8bda38081389ad4b09c6a776865a83035b077d02c9cce094ebaa",
    (7, 2, 1e-4):
        "078c0d11513c458e660fbfa649a54c100dd3b61de20654f901e7fd208bdc25ff",
    (7, 3, 1e-4):
        "0b4e8452c98f71811991a5ad13da81ed94a1e769fad5fbe032dea7e967bd4504",
}


@pytest.mark.parametrize("n, k, tol", sorted(BRUTE_SPEX_SHA256))
def test_brute_spex_reports_are_pinned(n, k, tol):
    text = json.dumps(brute_spex(n, k, tol).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BRUTE_SPEX_SHA256[
        (n, k, tol)
    ]


@pytest.mark.parametrize("n", [0, -1])
def test_brute_spex_rejects_order_below_one(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        brute_spex(n, 2)


def _count_radius_calls(monkeypatch):
    seen = []
    radius = verify_mod.spectral_radius

    def counting(g, *args):
        seen.append(g)
        return radius(g, *args)

    monkeypatch.setattr(verify_mod, "spectral_radius", counting)
    return seen


@pytest.mark.parametrize("k, wheel_free", [(2, 723), (3, 996)])
def test_brute_spex_iterates_only_graphs_that_can_win(monkeypatch, k, wheel_free):
    seen = _count_radius_calls(monkeypatch)
    rep = brute_spex(7, k)
    assert rep.evidence["wheel_free"] == wheel_free
    # the certified bounds leave only the maximizer within the margin
    assert seen == rep.evidence["maximizers"]
    assert len(seen) == 1


def test_brute_spex_margin_exceeds_the_window(monkeypatch):
    """Fake bounds and radii (each radius equal to its bound, each residual
    equal to tol, the worst cases allowed) placed around the maximizer
    window w = 100 * tol: a graph within 2w of the best is iterated, one
    further below is not, and the report is taken in the original order."""
    tol = 1e-10
    w = 100 * tol
    graphs = verify_mod.all_graphs(4)
    radius = [1.0] * len(graphs)
    radius[5] = radius[7] = 3.0
    radius[2] = 3.0 - 0.5 * w
    radius[9] = 3.0 - 1.5 * w
    radius[0] = 3.0 - 2.5 * w
    fake = dict(zip(graphs, radius))
    seen = []

    def fake_radius(g, tol):
        seen.append(g)
        return SpectralResult(fake[g], (), tol, 0)

    monkeypatch.setattr(
        verify_mod,
        "radius_upper_bounds",
        lambda free: np.array([fake[g] for g in free]),
    )
    monkeypatch.setattr(verify_mod, "spectral_radius", fake_radius)
    rep = brute_spex(4, 2, tol)
    assert rep.evidence["wheel_free"] == len(graphs)
    assert sorted(graphs.index(g) for g in seen) == [2, 5, 7, 9]
    assert rep.evidence["max_radius"] == 3.0
    assert rep.evidence["maximizers"] == [graphs[2], graphs[5], graphs[7]]


def test_join_bound_sample():
    rep = verify_join_bound(pairs=40, max_order=18, seed=1)
    assert rep.outcome == "PASS"
    assert rep.evidence["min_margin"] > -1e-9


def test_fact1():
    assert fact1_bound(3, 100) == pytest.approx(51.01249944, abs=1e-6)
    rep = verify_fact1(3, 100)
    assert rep.outcome == "PASS" and rep.evidence["margin"] > 0
    assert "finite-n" in rep.notes


@pytest.mark.parametrize("k, n, left", [(3, 1000, 500), (4, 1002, 501)])
def test_fact1_at_order_1000(k, n, left):
    # Power iteration on the n x n matrix stalls above tol at these orders;
    # the report's radius must be the candidate's, as a dense solver gives it.
    rep = verify_fact1(k, n)
    assert rep.outcome == "PASS" and rep.evidence["candidate_order"] == n
    g = bipartite_candidate(
        standard_member(U_KIND, k, left), build_graph(n - left, [(0, 1)])
    )
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    dense = float(np.linalg.eigvalsh(a)[-1])
    assert rep.evidence["radius"] == pytest.approx(dense, abs=1e-9)


def test_fact1_rejects_n_below_the_member_minimum():
    for k, n in ((3, 0), (3, 4), (4, 1), (5, 8)):
        with pytest.raises(ValueError, match=f"n={n} "):
            verify_fact1(k, n)
    assert verify_fact1(3, 5).outcome == "PASS"


@pytest.mark.parametrize(
    "k, n",
    [(2, 2), (2, 3)]
    + [(2, n) for n in range(5, 31) if n % 4 in (1, 2)]
    + [(3, 9), (3, 10), (4, 14), (5, 17), (5, 18), (6, 18), (6, 22)],
)
def test_fact1_without_a_candidate_names_k_and_n(k, n):
    # |L| >= k holds here.  From n = 4 on, k = 2 has a candidate (a
    # maximum matching on each side) and the report is on it, as a dense
    # solver gives its radius; at the other (k, n) none can be built.
    if k == 2 and n >= 4:
        rep = verify_fact1(k, n)
        assert rep.outcome == "PASS" and rep.evidence["candidate_order"] == n
        a = np.zeros((n, n))
        for u, v in candidate(2, n).edges():
            a[u, v] = a[v, u] = 1.0
        dense = float(np.linalg.eigvalsh(a)[-1])
        assert rep.evidence["radius"] == pytest.approx(dense, abs=1e-9)
        return
    with pytest.raises(ValueError, match=rf"k={k}, n={n}:"):
        verify_fact1(k, n)


def test_brute_spex_rejects_k_below_two_before_it_enumerates(
    monkeypatch, capsys
):
    def enumerated(n):
        raise AssertionError(f"all_graphs({n}) ran")

    monkeypatch.setattr(verify_mod, "all_graphs", enumerated)
    with pytest.raises(ValueError, match="k >= 2 required"):
        brute_spex(8, 1)
    assert main(["brute-spex", "--n", "8", "--k", "1"]) == 2
    assert "k >= 2 required" in capsys.readouterr().err


# sha256 of the sorted-key JSON of the claim-1 report's outcome,
# parameters, per-n exact signs and first violation at k=4 over
# n = 22, 26, ..., 402; CLAIM1_K4_RADII holds each n's radius1 and
# radius2 as recorded with power iteration.
GOLDEN_CLAIM1_K4 = (
    "4a53b956254989d16bcd5968b3b0df0966ef587555cb878540751e860f33aa57"
)
CLAIM1_K4_RADII = json.loads(
    (Path(__file__).parent / "claim1_k4_radii.json").read_text()
)


def test_claim1_k4_golden():
    report = verify_claim1(4, range(22, 403, 4)).to_dict()
    rows = report["evidence"]["comparisons"]
    exact = {
        "outcome": report["outcome"],
        "parameters": report["parameters"],
        "sign_at_root": [[r["n"], r["sign_at_root"]] for r in rows],
        "first_violation": report["evidence"].get("first_violation"),
    }
    text = json.dumps(exact, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CLAIM1_K4
    assert [r["n"] for r in rows] == [int(n) for n in CLAIM1_K4_RADII]
    for r in rows:
        # the radius bounds of a 6- and a 3-class quotient at tol 1e-10
        n = r["n"]
        radius1, radius2 = CLAIM1_K4_RADII[str(n)]
        assert abs(r["radius1"] - radius1) <= math.sqrt(6 * n) * 1e-10
        assert abs(r["radius2"] - radius2) <= math.sqrt(3 * n) * 1e-10


def test_claim1_report_contents():
    rep = verify_claim1(4, [22, 26])
    assert rep.claim_id == "claim-1-thm-1.4"
    rows = rep.evidence["comparisons"]
    assert len(rows) == 2
    for row in rows:
        assert row["sign_at_root"] in (-1, 0, 1)
        # sign and numeric ordering must agree
        if row["sign_at_root"] < 0:
            assert row["radius1"] > row["radius2"]
        elif row["sign_at_root"] > 0:
            assert row["radius1"] < row["radius2"]
    assert "k-4" in rep.notes


def test_claim1_rejects_an_empty_n_list():
    # An empty list compares nothing; it is not a PASS.
    for call in (
        lambda: verify_claim1(4, []),
        lambda: run_claim("claim-1-thm-1.4", k=4, n_values=()),
    ):
        with pytest.raises(ValueError, match="n_values"):
            call()


def test_run_claim_dispatch():
    rep = run_claim("lemma-3.3", delta=3, n=13)
    assert isinstance(rep, VerificationReport)
    assert rep.to_dict() == verify_walk_lemma(3, 13).to_dict()
    with pytest.raises(KeyError, match="lemma-3.3"):
        run_claim("lemma-9.9")
    with pytest.raises(TypeError):
        run_claim("lemma-3.3", delta=3, n=13, order_cap=10)


def test_readme_lists_every_claim():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Verification jobs", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)`", section, re.M)
    assert sorted(rows) == sorted(CLAIMS)


def test_reports_are_deterministic():
    a = verify_walk_lemma(3, 13).to_dict()
    b = verify_walk_lemma(3, 13).to_dict()
    assert a == b
