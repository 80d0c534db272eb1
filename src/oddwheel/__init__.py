"""Spectral extremal graph laboratory for odd-wheel-free graphs."""

from oddwheel.graphs import (
    Component,
    DegreeClassification,
    EquitablePartition,
    Graph,
    GraphError,
    build_graph,
    certify_equitable,
    classify_degrees,
    complement,
    components,
    disjoint_union,
    equitable_partition,
    is_connected,
    join,
)
from oddwheel.families import (
    CandidateSpec,
    FamilySpec,
    auto_left_sizes,
    bipartite_candidate,
    candidate,
    core_component,
    enumerate_family,
    odd_wheel,
    primitive,
    spex_candidate,
    standard_member,
)
from oddwheel.detect import (
    contains_cycle_of_length,
    contains_odd_wheel,
    is_star_free,
    longest_path_order,
)
from oddwheel.enumerate import (
    all_graphs,
    connected_with_degrees,
    graph_code,
)
from oddwheel.kernels import BudgetExceededError
from oddwheel.spectral import (
    CharPoly,
    SpectralError,
    SpectralResult,
    char_poly,
    claim1_comparison,
    matrix_radius,
    quotient,
    spectral_radius,
)
from oddwheel.walks import (
    OrderResult,
    Relation,
    WalkProfile,
    closed_form_profile,
    ex_infinity_trace,
    extract_deficient_structure,
    vertex_walks,
    walk_compare,
    walk_profile,
)
from oddwheel.formats import (
    FormatError,
    decode_edge_list,
    decode_graph6,
    encode_edge_list,
    encode_graph6,
)
from oddwheel.verify import VerificationReport, run_claim

__version__ = "0.1.0"
