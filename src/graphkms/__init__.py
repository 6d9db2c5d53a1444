"""Equilibrium-state analysis for finite directed graphs.

Parses multigraphs, computes connected-component spectral data, and builds
the simplex of KMS equilibrium states of the gauge action on the associated
Toeplitz algebra at any inverse temperature.
"""

from .graph import (
    Component,
    DirectedGraph,
    Edge,
    GraphParseError,
    VertexSet,
    hereditary_closure,
    parse_graph,
    saturation,
    seneta_order,
    sources,
)
from .kms import (
    CriticalOf,
    Mixture,
    Numeric,
    PhiBetaV,
    PsiC,
    SimplexDescriptor,
    StateMeasure,
    H_beta,
    K_beta,
    beta_v,
    beta_value,
    critical_temperatures,
    eval_state,
    general_state_measure,
    kms_simplex,
    minimal_critical_components,
    perron_check,
)
from .spectral import (
    ConvergenceError,
    resolvent_series,
    resolvent_solve,
)

__all__ = [
    "Component",
    "ConvergenceError",
    "CriticalOf",
    "DirectedGraph",
    "Edge",
    "GraphParseError",
    "Mixture",
    "Numeric",
    "PhiBetaV",
    "PsiC",
    "SimplexDescriptor",
    "StateMeasure",
    "VertexSet",
    "H_beta",
    "K_beta",
    "beta_v",
    "beta_value",
    "critical_temperatures",
    "eval_state",
    "general_state_measure",
    "hereditary_closure",
    "kms_simplex",
    "minimal_critical_components",
    "parse_graph",
    "perron_check",
    "resolvent_series",
    "resolvent_solve",
    "saturation",
    "seneta_order",
    "sources",
]

__version__ = "0.1.0"
