import json
import platform

import pytest

import oddwheel
from oddwheel.cli import main
from oddwheel.families import odd_wheel, primitive
from oddwheel.formats import decode_graph6, encode_graph6
from oddwheel.graphs import disjoint_union
from oddwheel.verify import (
    CLAIMS,
    brute_spex,
    verify_bounded_order,
    verify_claim1,
    verify_fact1,
    verify_join_bound,
    verify_one_set,
    verify_spex_structure,
    verify_walk_lemma,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_odd_wheel(capsys):
    code, out, _ = run_cli(capsys, "construct", "odd-wheel", "--k", "2")
    assert code == 0
    assert decode_graph6(out.strip()) == odd_wheel(2)


def test_construct_edgelist_format(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "core", "--k", "4", "--format", "edgelist"
    )
    assert code == 0
    assert out.splitlines()[0] == "5 7"


def test_construct_candidate_and_check(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "construct", "candidate", "--n", "22", "--k", "4"
    )
    assert code == 0
    path = tmp_path / "cand.g6"
    path.write_text(out)
    code, out, _ = run_cli(
        capsys, "check", "odd-wheel", str(path), "--k", "4"
    )
    assert code == 0 and "absent" in out


def test_check_cycle_and_path(tmp_path, capsys):
    path = tmp_path / "c6.g6"
    path.write_text(encode_graph6(primitive("cycle", 6)) + "\n")
    code, out, _ = run_cli(capsys, "check", "cycle", str(path), "--len", "6")
    assert code == 0 and "present" in out
    code, out, _ = run_cli(capsys, "check", "path", str(path))
    assert code == 0 and "6" in out


def test_spectral_json(tmp_path, capsys):
    path = tmp_path / "k5.g6"
    path.write_text(encode_graph6(primitive("complete", 5)) + "\n")
    code, out, _ = run_cli(capsys, "spectral", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["radius"] == pytest.approx(4.0, abs=1e-9)
    assert payload["residual"] <= 1e-10


def test_walks_csv(tmp_path, capsys):
    path = tmp_path / "k3.g6"
    path.write_text(encode_graph6(primitive("complete", 3)) + "\n")
    code, out, _ = run_cli(
        capsys, "walks", str(path), "--max-walk", "3", "--format", "edgelist"
    )
    assert code == 0
    assert out.splitlines() == ["level,count", "1,6", "2,12", "3,24"]


@pytest.mark.parametrize("command", ["walks", "compare"])
@pytest.mark.parametrize("max_walk", ["0", "-1"])
def test_max_walk_below_one_is_usage_error(tmp_path, capsys, command, max_walk):
    # an explicit --max-walk 0 is rejected, not replaced by the default 2n
    path = tmp_path / "c5.g6"
    path.write_text(encode_graph6(primitive("cycle", 5)) + "\n")
    graphs = [str(path)] * (2 if command == "compare" else 1)
    code, out, err = run_cli(capsys, command, *graphs, "--max-walk", max_walk)
    assert code == 2 and out == "" and "levels >= 1 required" in err


def test_compare_equiv(tmp_path, capsys):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    a.write_text(encode_graph6(primitive("cycle", 6)) + "\n")
    b.write_text(
        encode_graph6(disjoint_union([primitive("cycle", 3)] * 2)) + "\n"
    )
    code, out, _ = run_cli(capsys, "compare", str(a), str(b))
    assert code == 0 and out.strip() == "EQUIV"


def test_enumerate_stream(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--kind", "V", "--degree", "4", "--order", "11"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(decode_graph6(ln).order == 11 for ln in lines)


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "lemma-3.3", "--delta", "3", "--n", "13"
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "PASS"


def test_verify_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "lemma-3.3", "--delta", "3", "--n", "11"
    )
    assert code == 2 and "error" in err


def test_verify_fail_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "claim-1-thm-1.4", "--k", "4", "--n-values", "22"
    )
    assert code == 1
    assert json.loads(out)["outcome"] == "FAIL"


def test_brute_spex_cli(capsys):
    code, out, _ = run_cli(capsys, "brute-spex", "--n", "5", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["evidence"]["classes"] == 34


@pytest.mark.parametrize("n", ["0", "-3"])
def test_brute_spex_cli_rejects_order_below_one(capsys, n):
    code, out, err = run_cli(capsys, "brute-spex", "--n", n, "--k", "2")
    assert code == 2 and out == ""
    assert f"n={n}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--kind", "U", "--degree", "3", "--order", "4"),
        ("check", "odd-wheel", "W5", "--k", "2"),
        ("check", "path", "W5"),
        ("construct", "candidate", "--n", "22", "--k", "4"),
        ("verify", "lemma-3.2", "--delta", "3", "--cap", "8"),
        ("brute-spex", "--n", "5", "--k", "2"),
    ],
)
def test_negative_budget_is_usage_error(tmp_path, capsys, argv):
    # -1 meant "exhausted at once" to the enumerator and "unlimited" to
    # the detectors; every command now rejects it
    w5 = tmp_path / "w5.g6"
    w5.write_text(encode_graph6(odd_wheel(2)) + "\n")
    argv = [str(w5) if a == "W5" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--budget", "-1")
    assert code == 2 and out == ""
    assert "--budget must be non-negative, got -1" in err


def test_zero_budget_is_kept(fresh_caches, capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--kind", "U", "--degree", "3", "--order", "4",
        "--budget", "0",
    )
    assert code == 3 and out == "" and "budget exhausted" in err


def test_verify_negative_cap_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma-3.2", "--cap", "-1")
    assert code == 2 and out == "" and "order_cap=-1" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "w5.g6"
    code, out, _ = run_cli(
        capsys, "construct", "odd-wheel", "--k", "2", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert decode_graph6(target.read_text()) == odd_wheel(2)


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "path", "/nonexistent.g6")
    assert code == 2


C6 = primitive("cycle", 6)
C3C3 = disjoint_union([primitive("cycle", 3)] * 2)
EXIT_OF = {"PASS": 0, "FAIL": 1, "BUDGET": 3}

# Each CLI line next to the direct job call it must mean: once with small
# explicit parameters and once with the CLI defaults.  "H1"/"H2" stand for
# graph files holding C6 and 2C3.
CLI_JOBS = [
    (("verify", "lemma-3.2", "--delta", "2", "--cap", "6"),
     lambda: verify_bounded_order(2, 6)),
    (("verify", "lemma-3.2"), lambda: verify_bounded_order(3, 10)),
    (("verify", "lemma-3.2", "--delta", "4", "--cap", "12", "--budget", "10"),
     lambda: verify_bounded_order(4, 12, budget=10)),
    (("verify", "lemma-3.3", "--delta", "3", "--n", "13", "--budget", "10000"),
     lambda: verify_walk_lemma(3, 13, budget=10000)),
    (("verify", "lemma-3.3"), lambda: verify_walk_lemma(3, 13)),
    (("verify", "thm-3.1", "--h1", "H1", "--h2", "H2", "--base-order", "20",
      "--t-size", "6", "--tol", "1e-4"),
     lambda: verify_one_set(20, 6, C6, C3C3, 1e-4)),
    (("verify", "thm-3.1", "--h1", "H1", "--h2", "H2"),
     lambda: verify_one_set(40, 6, C6, C3C3)),
    (("verify", "spex-structure", "--n", "10", "--k", "2", "--tol", "1e-4"),
     lambda: verify_spex_structure(10, 2, 1e-4)),
    (("verify", "spex-structure", "--n", "12", "--k", "3"),
     lambda: verify_spex_structure(12, 3)),
    (("verify", "claim-1-thm-1.4", "--k", "4", "--n-values", "22,26"),
     lambda: verify_claim1(4, [22, 26])),
    (("verify", "claim-1-thm-1.4", "--n", "22"), lambda: verify_claim1(4, [22])),
    (("verify", "claim-1-thm-1.4"), lambda: verify_claim1(4, [22, 102])),
    (("verify", "fact-1", "--k", "3", "--n", "20", "--tol", "1e-4"),
     lambda: verify_fact1(3, 20, 1e-4)),
    (("verify", "fact-1"), lambda: verify_fact1(3, 100)),
    (("verify", "lemma-2.1", "--pairs", "5", "--max-order", "8", "--seed", "3",
      "--tol", "1e-4"),
     lambda: verify_join_bound(5, 8, 3, 1e-4)),
    (("verify", "lemma-2.1"), lambda: verify_join_bound()),
    (("verify", "brute-spex", "--n", "5", "--k", "2", "--tol", "1e-4"),
     lambda: brute_spex(5, 2, 1e-4)),
    (("verify", "brute-spex", "--n", "5", "--k", "2"), lambda: brute_spex(5, 2)),
    (("brute-spex", "--n", "5", "--k", "2"), lambda: brute_spex(5, 2)),
]


def test_cli_jobs_cover_every_claim():
    assert {argv[1] for argv, _ in CLI_JOBS if argv[0] == "verify"} == set(CLAIMS)


@pytest.mark.parametrize(
    "argv, job", CLI_JOBS, ids=[" ".join(argv) for argv, _ in CLI_JOBS]
)
def test_cli_matches_direct_job(tmp_path, capsys, argv, job):
    files = {"H1": tmp_path / "h1.g6", "H2": tmp_path / "h2.g6"}
    files["H1"].write_text(encode_graph6(C6) + "\n")
    files["H2"].write_text(encode_graph6(C3C3) + "\n")
    argv = [str(files[a]) if a in files else a for a in argv]
    code, out, _ = run_cli(capsys, *argv)
    want = job().to_dict()
    assert json.loads(out) == want
    assert code == EXIT_OF[want["outcome"]]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "thm-3.1"),
        ("verify", "thm-3.1", "--h1", "/nonexistent.g6", "--h2", "H2"),
        ("verify", "spex-structure", "--k", "3"),
        ("verify", "brute-spex", "--k", "2"),
    ],
)
def test_verify_missing_input_is_usage_error(tmp_path, capsys, argv):
    h2 = tmp_path / "h2.g6"
    h2.write_text(encode_graph6(C3C3) + "\n")
    argv = [str(h2) if a == "H2" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lemma-3.2", "--delta", "0"),
        ("verify", "lemma-3.2", "--delta", "0", "--cap", "6"),
        ("verify", "lemma-3.3", "--delta", "0", "--n", "0"),
        ("verify", "fact-1", "--k", "0", "--n", "0"),
        ("verify", "claim-1-thm-1.4", "--k", "0", "--n-values", "22"),
        ("verify", "claim-1-thm-1.4", "--n", "0"),
    ],
)
def test_verify_explicit_zero_is_not_replaced(capsys, argv):
    # only an omitted flag takes the claim's default; 0 reaches the job,
    # which rejects it
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "error" in err


def test_verify_explicit_zero_cap_is_kept(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma-3.2", "--cap", "0")
    assert code == 0
    assert json.loads(out)["parameters"] == {"delta": 3, "order_cap": 0}


@pytest.mark.parametrize(
    "argv, named",
    [
        (("verify", "spex-structure", "--n", "1", "--k", "2"), "n=1"),
        (("verify", "spex-structure", "--n", "2", "--k", "2"), "n=2"),
        (("verify", "spex-structure", "--n", "3", "--k", "2"), "n=3"),
        (("verify", "fact-1", "--n", "0"), "n=0"),
        (("verify", "fact-1", "--k", "5", "--n", "8"), "n=8"),
    ],
)
def test_verify_too_small_n_is_usage_error(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and named in err


def test_verify_fact1_without_a_candidate_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "fact-1", "--k", "3", "--n", "9")
    assert code == 2 and out == ""
    assert "k=3, n=9:" in err


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info")
    assert code == 0
    info = json.loads(out)
    assert set(info) == {"backend", "version", "python", "platform"}
    assert info["backend"] == "pure"
    assert info["version"] == oddwheel.__version__
    assert info["python"] == platform.python_version()
