"""Semi-linear Dirichlet problems and resolvents on weighted graphs.

The package solves phi^{-1}(L u) + W u = f on finite vertex sets of a
weighted graph, extends the solution to infinite graphs along ball
exhaustions, and classifies graphs by the conservation defect
alpha - R(alpha W), the numerical signature of completeness at
infinity.  A test kit with canonical graph families and independent
oracles, and a batch CLI with reproducible CSV/JSON artifacts, round
it out.
"""

from .graphs import (
    ExplicitGraph,
    GraphError,
    ProceduralGraph,
    ValidationReport,
    VertexFunction,
    WeightedGraph,
    ball,
    edge_weight,
    energy,
    graph_from_json,
    graph_to_json,
    laplacian_apply,
    materialization_cap,
    validate,
    write_graph_json,
)
from .nonlinearity import (
    ArrayForms,
    Nonlinearity,
    Phi_numeric,
    RangeError,
    bounded_atan,
    identity,
    odd_log,
    odd_power,
    parse_phi,
    phi_inv_numeric,
)
from .solver import (
    Potential,
    ResidualReport,
    SolveError,
    SolveOptions,
    SolveResult,
    energy_functional,
    residual,
    solve_dirichlet,
)
from .resolvent import (
    CSV_HEADER,
    Exhaustion,
    ResolventEstimate,
    StepRecord,
    doubling_schedule,
    extended_resolvent,
    make_exhaustion,
)
from .completeness import (
    CLASSIFY_CSV_HEADER,
    DEFAULT_ALPHA_GRID,
    TRUNCATION_NOTE,
    VERDICT_COMPLETE,
    VERDICT_INCOMPLETE,
    VERDICT_INCONCLUSIVE,
    ClassificationReport,
    DefectEstimate,
    LiouvilleReport,
    PathCriterionReport,
    Thresholds,
    classify,
    conservation_defect,
    default_probes,
    large_potential,
    path_criterion,
    verify_liouville,
)
from .testkit import (
    GraphFamily,
    birth_death,
    brute_force_minimizer,
    complete_graph,
    family_from_spec,
    finite_path,
    generate,
    geometric_chain,
    lattice_z,
    linear_oracle,
    micro_suite,
    random_sparse,
    star,
    symmetric_tree,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "GraphError", "WeightedGraph", "ExplicitGraph", "ProceduralGraph",
    "VertexFunction", "ValidationReport", "ball", "edge_weight", "energy",
    "graph_from_json", "graph_to_json", "laplacian_apply",
    "materialization_cap", "validate", "write_graph_json",
    # nonlinearity
    "ArrayForms", "Nonlinearity", "RangeError", "identity", "odd_power", "odd_log",
    "bounded_atan", "parse_phi", "phi_inv_numeric", "Phi_numeric",
    # solver
    "Potential", "SolveOptions", "SolveResult", "SolveError",
    "ResidualReport", "solve_dirichlet", "energy_functional", "residual",
    # resolvent
    "CSV_HEADER", "Exhaustion", "StepRecord", "ResolventEstimate",
    "doubling_schedule", "make_exhaustion", "extended_resolvent",
    # completeness
    "CLASSIFY_CSV_HEADER", "DEFAULT_ALPHA_GRID", "TRUNCATION_NOTE",
    "VERDICT_COMPLETE", "VERDICT_INCOMPLETE", "VERDICT_INCONCLUSIVE", "Thresholds",
    "DefectEstimate", "ClassificationReport", "PathCriterionReport",
    "LiouvilleReport", "conservation_defect", "classify",
    "default_probes", "path_criterion",
    "large_potential", "verify_liouville",
    # testkit
    "GraphFamily", "generate", "family_from_spec", "lattice_z",
    "finite_path", "birth_death", "geometric_chain", "symmetric_tree",
    "complete_graph", "star", "random_sparse", "linear_oracle",
    "brute_force_minimizer", "micro_suite",
]
