"""The library names the benchmark harness under perfbench/ reaches.

The harness imports, wraps and rebinds these names from outside the
library; a rename or a removal would fail every benchmark pass or every
traced run, so each one is checked here.  perfbench/ is only read.
"""

import hashlib
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import oddwheel
from oddwheel import detect
from oddwheel import enumerate as enum_mod
from oddwheel import graphs, kernels, spectral, walks
from oddwheel.families import odd_wheel, primitive
from oddwheel.formats import read_graph_text
from oddwheel.graphs import disjoint_union

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """A perfbench module, loaded under a prefixed name."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def resolve(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, attr)


def positional(fn):
    return [
        p.name for p in inspect.signature(fn).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for _, m, a in load("tracer").TIMED],
    ids=[f"{m}.{a}" for _, m, a in load("tracer").TIMED],
)
def test_timed_targets_resolve(module_name, attr):
    assert callable(resolve(module_name, attr))


def test_counting_wraps_keep_their_parameters():
    # the counting wrappers call these positionally: wrapper(code),
    # wrapper(a, tol, max_iter) and wrapper(poly, x)
    assert len(positional(resolve("oddwheel.enumerate", "_deletion_code"))) == 1
    assert positional(resolve("oddwheel.spectral", "_power_iteration")) == [
        "a", "tol", "max_iter"
    ]
    assert len(positional(resolve("oddwheel.spectral", "CharPoly.evaluate"))) == 2


def test_cold_check_reads_the_enumeration_caches(fresh_caches):
    require_cold = load("cold_pass")._require_cold
    for name in ("_all_cache", "_deletion_cache", "_degree_cache"):
        assert isinstance(getattr(enum_mod, name), dict)
    require_cold(enum_mod)
    enum_mod.all_graphs(4)
    with pytest.raises(RuntimeError, match="_all_cache"):
        require_cold(enum_mod)


def test_run_metadata_names():
    assert isinstance(kernels.HAVE_COMPILED, bool)
    assert isinstance(oddwheel.__version__, str)


def test_candidate_input_is_written(tmp_path):
    workloads = load("workloads")
    path = workloads.write_inputs("candidates", 0, tmp_path)
    g = read_graph_text(Path(path).read_text(encoding="ascii"))
    assert g.order == workloads.CANDIDATE_N
    assert workloads.write_inputs("exhaustive", 0, tmp_path) is None


# sha256 of the candidate graph6 file `write_inputs` writes for seeds 0-2
CANDIDATE_SHA256 = {
    0: "f3c0743c9857eef81da2e442fdff30724d1c2b1a9437a065cd677e145601f08b",
    1: "9a9f469bf140dcc9f6e98acf885a412e9ee35b3b47a093a58a0543282326a2de",
    2: "7b121a2faf91d2c110201353b9ef66531edff98d02fcf34c0a5db6cd57a9b854",
}


@pytest.mark.parametrize("seed", sorted(CANDIDATE_SHA256))
def test_candidate_input_bytes_are_pinned(tmp_path, seed):
    # the benchmark's candidates input is built through the library
    # (construction, relabelling, graph6); a change there shows here
    path = load("workloads").write_inputs("candidates", seed, tmp_path)
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert digest == CANDIDATE_SHA256[seed]


def test_traced_hub_scan_counts_subgraphs():
    # detect.hubs_scanned counts the Graph.subgraph calls made under
    # contains_odd_wheel: one per hub of degree at least 2k.  In W_5 plus
    # a C_5 only the wheel's hub qualifies.
    original = detect.contains_odd_wheel
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        g = disjoint_union([odd_wheel(2), primitive("cycle", 5)])
        assert detect.contains_odd_wheel(g, 2)
    finally:
        tracer.uninstall()
    assert detect.contains_odd_wheel is original
    assert tracer.metrics()["detect.hubs_scanned"] == 1


def test_walks_and_spectral_share_the_traced_quotient():
    # The tracer wraps `spectral.quotient` wherever a module holds that
    # object.  It is `graphs.quotient`, which `walks` calls too, so the
    # one traced layer times every certified quotient.
    assert spectral.quotient is graphs.quotient
    assert walks.quotient is graphs.quotient
    assert oddwheel.quotient is graphs.quotient
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        g = odd_wheel(2)
        walks.walk_profile(g, 4)
        walks.vertex_walks(g, 4)
        walks.ex_infinity_trace([disjoint_union([g, primitive("cycle", 5)])])
        spectral.matrix_radius(spectral.quotient(g).quotient, 1e-10)
    finally:
        tracer.uninstall()
    assert walks.quotient is graphs.quotient
    # one per walk count, one per piece, one direct
    assert tracer.metrics()["spectral.quotient.self_s"] > 0
    assert tracer.calls["spectral.quotient"] == 5
