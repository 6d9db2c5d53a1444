"""The names the benchmark's traced run wraps, and the exported names, exist.

``bench/spans.py`` looks up every ``(module, name)`` of its ``LAYERS`` table
with ``getattr`` on ``graphkms.<module>`` and wraps
``DirectedGraph._analysis``, so deleting or renaming one of them breaks
``bench/run.py --trace 1`` without failing any other test.

The public surface is pinned: a change that adds or removes an exported
name, or a field of ``Component`` or ``StateMeasure``, has to edit its pin
on purpose.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import graphkms

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers():
    # spans.py imports only the standard library; load it by path so that
    # bench/ never shadows a module name on sys.path.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_layers_resolve():
    missing = [
        f"graphkms.{mod}.{name}"
        for targets in _layers().values()
        for mod, name in targets
        if not callable(getattr(importlib.import_module(f"graphkms.{mod}"), name, None))
    ]
    assert missing == []
    assert callable(graphkms.DirectedGraph._analysis)


def test_all_names_resolve():
    assert [name for name in graphkms.__all__ if not hasattr(graphkms, name)] == []


PUBLIC = [
    "Component", "ConvergenceError", "CriticalOf", "DirectedGraph", "Edge",
    "GraphParseError", "H_beta", "K_beta", "Mixture", "Numeric", "PhiBetaV",
    "PsiC", "SimplexDescriptor", "StateMeasure", "VertexSet",
    "beta_v", "beta_value", "critical_temperatures", "eval_state",
    "general_state_measure", "hereditary_closure", "kms_simplex",
    "minimal_critical_components", "parse_graph", "perron_check",
    "resolvent_series", "resolvent_solve", "saturation", "seneta_order",
    "sources",
]

# Single-state constructors and test-only helpers: each state is a row of
# kms_simplex, the exact graph references live in tests/conftest.py and the
# path and series routes in tests/oracles.py.
REMOVED = {
    "graph": ["path_count", "quotient_graph", "talks_to", "edge_instances"],
    "kms": ["z_vector", "psi_C_measure", "_minimal_critical_psi", "_top_regime",
            "phi_beta_v_measure", "factors_through_graph_algebra"],
    "spectral": ["perron_vector", "period"],
    "oracle": ["collect_paths", "PathEnumeration", "subinvariance_check",
               "_spec_or_float", "_path_atoms", "_solve_error_bound",
               "enumerate_paths", "_sum_tail_bounded", "series_y_oracle",
               "quick_exit_series_oracle", "MAX_TERMS", "_invariants"],
}


def test_public_surface_is_pinned():
    assert sorted(graphkms.__all__) == PUBLIC
    resolved = [
        f"{module.__name__}.{name}"
        for mod, names in REMOVED.items()
        for module in (graphkms, importlib.import_module(f"graphkms.{mod}"))
        for name in names
        if hasattr(module, name)
    ]
    assert resolved == []


def test_component_holds_no_copy_of_a_per_component_array():
    # rho is read from G.spectral_radii, and a trivial component is one whose
    # perron_vector is None; a field for either would be a second store.
    fields = [f.name for f in dataclasses.fields(graphkms.Component)]
    assert fields == ["id", "members", "period", "perron_vector"]


def test_state_measure_holds_one_temperature():
    # beta_value is the state's own temperature; the spec beta was given as
    # stays on SimplexDescriptor.beta.
    fields = [f.name for f in dataclasses.fields(graphkms.StateMeasure)]
    assert fields == ["beta_value", "m", "label", "factors_through_graph_algebra", "state_type"]


# Names that only the tests and the bench use, each mapped to the traced
# function that keeps it in the package: bench/spans.py wraps that function
# by name, and SpectralData is what analyze_irreducible returns.  Once no
# layer names the function, its names move to the tests.
BENCH_ONLY = {
    "spectral.analyze_irreducible": "spectral.analyze_irreducible",
    "spectral.SpectralData": "spectral.analyze_irreducible",
    "spectral.spectral_radius": "spectral.spectral_radius",
    "spectral.y_vector": "spectral.y_vector",
    "oracle.path_measure_atom": "oracle.path_measure_atom",
}


def test_bench_only_names_are_still_traced():
    traced = {f"{mod}.{name}" for targets in _layers().values() for mod, name in targets}
    assert [name for name, by in BENCH_ONLY.items() if by not in traced] == []
