"""Monotone NAE-3SAT to triangle-free cut reduction toolkit.

Builds a graph with a triangle-free cut iff the input formula is
not-all-equal satisfiable, keeps the graph 5-colourable with maximum
degree 8, translates certificates in both directions, and ships exact
oracles, one conflict-driven search that returns the lexicographically
smallest witness, which certify every claim at desk scale.
"""

from .errors import BudgetExceeded, FormatError, SearchBudget
from .formula import (
    Assignment,
    CnfFormula,
    emit_cnf,
    incidence_graph,
    is_monotone_3sat,
    nae_satisfies,
    occurrence_counts,
    parse_cnf,
)
from .graphs import (
    Colouring,
    Cut,
    Graph,
    emit_colouring,
    emit_graph,
    enumerate_triangles,
    find_k_colouring,
    max_degree,
    parse_colouring,
    parse_graph,
    verify_cut_triangle_free,
)
from .reduction import (
    GadgetCertificate,
    ReductionMap,
    assignment_to_cut,
    build_graph,
    canonical_gadget,
    construct_5_colouring,
    cut_from_vertex_assignment,
    cut_to_assignment,
    emit_reduction_map,
    extract_nae,
    gadget_certify,
    parse_reduction_map,
)
from .solvers import (
    assignment_from_4colouring,
    brute_force_cut,
    brute_force_nae,
    cut_from_4colouring,
    emit_cut_witness,
    emit_nae_witness,
    exhaustive_budget,
    generate_instance,
    parse_cut_witness,
    parse_nae_witness,
)
from .transform import (
    PropertyReport,
    TransformMap,
    check_properties,
    emit_transform_map,
    lift_assignment,
    parse_transform_map,
    project_assignment,
    split_repeated_variables,
    transform_map_comments,
)

__version__ = "0.1.0"
