"""rhfill: cusped-space geometry, Dehn filling comparisons, and dynamics on
the projective line (the flag manifold of PGL(2, R)) for relatively
hyperbolic groups, at desk scale.

The package is organized bottom-up:

* :mod:`rhfill.groups` exact group oracles, peripheral structures, fillings
* :mod:`rhfill.cusped` certified cusped windows, graph dumps and the exact
  cusped metric for free products of abelian factors
* :mod:`rhfill.delta` hyperbolicity estimation
* :mod:`rhfill.metric_checks` window checks of the coarse-geometry inequalities
* :mod:`rhfill.filling_geometry` quotient cusped spaces, lifts, filling checks
* :mod:`rhfill.flags` lines in RP^1, divergence, limit clouds
* :mod:`rhfill.automata` relative automata and compatible set systems
* :mod:`rhfill.convergence` representation families and convergence checkers
* :mod:`rhfill.scenarios` batch runner and report emission
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    DisconnectedError,
    InvalidParameterError,
    NoTabularDataError,
    RhfillError,
    SchemaError,
    UnsupportedKindError,
    WindowError,
)
from .groups import (
    FillingData,
    GroupElement,
    GroupOracle,
    RelHypPair,
    enumerate_ball,
    format_word,
    make_filling,
    make_oracle,
    make_pair,
    parse_word,
    standard_f2_pair,
)
from .cusped import (
    CuspedGraph,
    ExactCuspedMetric,
    GraphPath,
    build_cusped_ball,
    dump_graph,
    horo_dip,
    horo_flat,
    horo_pair,
    load_graph,
    shortest_path,
)
from .delta import HyperbolicityEstimate, estimate_delta, thin_triangle_delta
from .metric_checks import verify_metric_lemmas
from .filling_geometry import (
    FillingGeometry,
    build_quotient_cusped,
    check_descent_quasigeodesic,
    check_local_isometry,
    check_uniform_delta,
    filling_map_report,
    injectivity_report,
    lift_roundtrip_report,
)
from .flags import (
    DivergenceCertificate,
    FlagCloud,
    classify,
    generator_images,
    line_distance,
    q_divergence,
    q_limit_set,
)
from .automata import (
    AutomatonGraph,
    Ball,
    CosetLabel,
    GPath,
    SetSystem,
    SingletonLabel,
    automaton_from_json,
    automaton_to_json,
    bundled_sanov_automaton,
    check_compatibility,
    enumerate_gpaths,
    nested_diameters,
    set_system_to_json,
    validate_automaton,
)
from .convergence import (
    EdfQuery,
    RepFamily,
    bundled_edf_queries,
    chabauty_check,
    edf_condition_check,
    elliptic_family,
    elliptic_generators,
    limit_set_convergence,
    sanov_generators,
)
from .scenarios import (
    SCENARIO_SCHEMA,
    Scenario,
    bundled_scenario_path,
    emit_plot_data,
    load_scenario,
    run_scenario,
)

__all__ = [
    "BudgetExceededError",
    "DisconnectedError",
    "InvalidParameterError",
    "NoTabularDataError",
    "RhfillError",
    "SchemaError",
    "UnsupportedKindError",
    "WindowError",
    "FillingData",
    "GroupElement",
    "GroupOracle",
    "RelHypPair",
    "enumerate_ball",
    "format_word",
    "make_filling",
    "make_oracle",
    "make_pair",
    "parse_word",
    "standard_f2_pair",
    "CuspedGraph",
    "ExactCuspedMetric",
    "GraphPath",
    "build_cusped_ball",
    "dump_graph",
    "horo_dip",
    "horo_flat",
    "horo_pair",
    "load_graph",
    "shortest_path",
    "HyperbolicityEstimate",
    "estimate_delta",
    "thin_triangle_delta",
    "verify_metric_lemmas",
    "FillingGeometry",
    "build_quotient_cusped",
    "check_descent_quasigeodesic",
    "check_local_isometry",
    "check_uniform_delta",
    "filling_map_report",
    "injectivity_report",
    "lift_roundtrip_report",
    "DivergenceCertificate",
    "FlagCloud",
    "classify",
    "generator_images",
    "line_distance",
    "q_divergence",
    "q_limit_set",
    "AutomatonGraph",
    "Ball",
    "CosetLabel",
    "GPath",
    "SetSystem",
    "SingletonLabel",
    "automaton_from_json",
    "automaton_to_json",
    "bundled_sanov_automaton",
    "check_compatibility",
    "enumerate_gpaths",
    "nested_diameters",
    "set_system_to_json",
    "validate_automaton",
    "EdfQuery",
    "RepFamily",
    "bundled_edf_queries",
    "chabauty_check",
    "edf_condition_check",
    "elliptic_family",
    "elliptic_generators",
    "limit_set_convergence",
    "sanov_generators",
    "SCENARIO_SCHEMA",
    "Scenario",
    "bundled_scenario_path",
    "emit_plot_data",
    "load_scenario",
    "run_scenario",
    "__version__",
]
