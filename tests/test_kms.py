"""Equilibrium state constructions against the hand-worked examples."""

import dataclasses
import math
import random
import re
from collections.abc import Mapping

import numpy as np
import pytest

import graphkms as gk
from graphkms import kms, spectral

from conftest import GRAPHS, example, phi_state, psi_state, quotient_graph, random_graph, z_of
from oracles import edge_instances

LN2 = math.log(2)
LN3 = math.log(3)
GOLDEN = 1 + math.sqrt(5)


def crit(G, k):
    return gk.critical_temperatures(G)[k]


def test_beta_value_variants():
    G = example("pair_toward_small")
    assert gk.beta_value(G, 1.25) == 1.25
    assert gk.beta_value(G, gk.Numeric(0.5)) == 0.5
    assert gk.beta_value(G, gk.CriticalOf(0)) == pytest.approx(LN2, abs=1e-12)
    assert gk.beta_value(G, gk.CriticalOf(1)) == pytest.approx(LN3, abs=1e-12)


def test_beta_value_rejects_bad_input():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        gk.beta_value(G, float("nan"))
    with pytest.raises(ValueError):
        gk.beta_value(G, gk.CriticalOf(99))
    H = example("two_sources_chain")
    with pytest.raises(ValueError):
        gk.beta_value(H, gk.CriticalOf(0))  # {u1} is trivial


def test_bool_is_not_a_beta():
    # bool is an int subclass; True must not run as beta = 1.0.
    G = example("pair_toward_small")
    for call in (gk.kms_simplex, kms.regime, gk.beta_value):
        for flag in (True, False):
            with pytest.raises(TypeError, match=f"^not a beta specification: {flag}$"):
                call(G, flag)


def test_numeric_takes_a_number_as_a_bare_beta_does():
    G = example("pair_toward_small")
    for call in (gk.kms_simplex, kms.regime, gk.beta_value):
        for bad in (True, False, "1.0", None):
            with pytest.raises(TypeError, match="^not a beta specification: Numeric"):
                call(G, gk.Numeric(bad))
    for value in (1, 1.0):
        assert type(gk.beta_value(G, gk.Numeric(value))) is float
        sx = gk.kms_simplex(G, gk.Numeric(value))
        assert sx.beta == gk.Numeric(1.0) and type(sx.beta_value) is float
        assert sx.measures.tobytes() == gk.kms_simplex(G, 1.0).measures.tobytes()


def test_critical_of_takes_an_integer_id():
    # bool is an int subclass; CriticalOf(True) must not run as component 1.
    G = example("pair_toward_small")
    for call in (gk.kms_simplex, kms.regime, gk.beta_value):
        for bad in (True, False, 1.0, "1", None, np.True_):
            with pytest.raises(TypeError, match="^not a beta specification: CriticalOf"):
                call(G, gk.CriticalOf(bad))
    ln3 = gk.beta_value(G, gk.CriticalOf(1))
    assert gk.beta_value(G, gk.CriticalOf(np.int64(1))) == ln3
    got = gk.kms_simplex(G, gk.CriticalOf(np.int64(1)))
    assert got.beta == gk.CriticalOf(1) and type(got.beta.component) is int
    assert got.beta_value == ln3


def test_critical_of_and_its_value_share_one_regime():
    # The regime holds no beta, so a CriticalOf and the float it resolves to
    # get the very same memoised object, whichever comes first.
    for name in ("pair_toward_small", "reversed_tail"):
        for first_numeric in (False, True):
            G = example(name)
            for spec in gk.critical_temperatures(G):
                value = gk.beta_value(G, spec)
                pair = (value, spec) if first_numeric else (spec, value)
                assert kms.regime(G, pair[0]) is kms.regime(G, pair[1])
                assert kms.regime(G, gk.Numeric(value)) is kms.regime(G, spec)


def test_H_beta_ranges():
    G = example("pair_toward_small")
    assert gk.H_beta(G, 0.5).members == {"v", "w"}
    assert gk.H_beta(G, gk.CriticalOf(0)).members == {"w"}
    assert gk.H_beta(G, 0.9).members == {"w"}
    assert gk.H_beta(G, gk.CriticalOf(1)).members == set()
    assert gk.H_beta(G, 2.0).members == set()
    assert gk.H_beta(G, 0.5).hereditary


def test_K_beta_examples():
    G = example("pair_toward_small")
    assert gk.K_beta(G, gk.CriticalOf(1)).members == {"w"}
    assert gk.K_beta(G, gk.CriticalOf(0)).members == {"v", "w"}
    assert gk.K_beta(G, 2.0).members == set()
    G5 = example("reversed_tail")
    assert gk.K_beta(G5, gk.CriticalOf(1)).members == {"v", "u2", "w"}


def test_H_K_numeric_matches_critical_within_tol():
    G = example("pair_toward_small")
    assert gk.K_beta(G, LN3).members == gk.K_beta(G, gk.CriticalOf(1)).members
    assert gk.H_beta(G, LN3 + 5e-10).members == gk.H_beta(G, LN3).members


def test_minimal_critical_components():
    G = example("twin_minimal")
    mc = gk.minimal_critical_components(G)
    assert {c.members for c in mc} == {("v",), ("w",)}
    G2 = example("pair_toward_small")
    assert {c.members for c in gk.minimal_critical_components(G2)} == {("w",)}


def test_minimal_critical_components_come_in_ascending_id():
    # A tuple in ascending id, so every process iterates it in one order.
    mc = gk.minimal_critical_components(example("twin_minimal"))
    assert type(mc) is tuple
    assert [(c.id, c.members) for c in mc] == [(1, ("v",)), (2, ("w",))]
    several = 0
    for seed in range(200):
        G = random_graph(random.Random(seed))
        if gk.critical_temperatures(G):
            ids = [c.id for c in gk.minimal_critical_components(G)]
            assert ids == sorted(set(ids)), seed
            several += len(ids) > 1
    assert several > 0


def test_minimal_critical_rejects_acyclic():
    G = gk.parse_graph("vertices: a b\nedge a b\n")
    with pytest.raises(ValueError):
        gk.minimal_critical_components(G)


def test_critical_temperatures_examples():
    G1 = example("pair_toward_large")
    assert [gk.beta_value(G1, s) for s in gk.critical_temperatures(G1)] == [
        pytest.approx(LN3, abs=1e-12)
    ]
    G2 = example("pair_toward_small")
    assert [gk.beta_value(G2, s) for s in gk.critical_temperatures(G2)] == [
        pytest.approx(LN2, abs=1e-12),
        pytest.approx(LN3, abs=1e-12),
    ]
    G3 = example("golden_feeder")
    assert [gk.beta_value(G3, s) for s in gk.critical_temperatures(G3)] == [
        pytest.approx(LN2, abs=1e-12),
        pytest.approx(math.log(GOLDEN), abs=1e-9),
    ]
    G7 = example("twin_minimal")
    vals = [gk.beta_value(G7, s) for s in gk.critical_temperatures(G7)]
    assert vals == [pytest.approx(0.0, abs=1e-12), pytest.approx(LN2, abs=1e-12)]
    assert gk.critical_temperatures(gk.parse_graph("vertices: a\n")) == []


def test_critical_temperatures_dedupe_equal_values():
    # two incomparable components with the same radius give one temperature
    G = gk.parse_graph("vertices: a b\nedge a a 2\nedge b b 2\n")
    crits = gk.critical_temperatures(G)
    assert len(crits) == 1
    assert crits[0].component == 0


@pytest.mark.parametrize("seed", [4136, 5870, 12079, 17002, 18183])
def test_critical_temperatures_keep_the_smallest_id_of_each_tie(seed):
    # Each graph has components whose ln rho agree up to rounding, with the
    # smallest float not on the smallest id.
    G = random_graph(random.Random(seed))
    ln = {
        c.id: math.log(G.spectral_radii[c.id])
        for c in G.components
        if c.perron_vector is not None
        and G.divergence[c.id] <= math.log(G.spectral_radii[c.id]) + kms.TOL
    }
    criticals = gk.critical_temperatures(G)
    assert criticals
    for crit in criticals:
        tied = [cid for cid, value in ln.items()
                if abs(value - ln[crit.component]) <= kms.TOL]
        assert crit.component == min(tied), (seed, crit, tied)


def test_z_vector_examples():
    G2 = example("pair_toward_small")
    z = z_of(G2, G2.components[1])
    assert set(z) == {"v"}
    assert z["v"] == pytest.approx(1.0, abs=1e-9)

    G1 = example("pair_toward_large")
    assert z_of(G1, G1.components[1]) == {}

    G3 = example("golden_feeder")
    z3 = z_of(G3, G3.components[1])
    assert z3["v"] == pytest.approx(0.5, abs=1e-9)


def test_z_vector_rejects_non_minimal_component():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        z_of(G, G.components[0])


def test_psi_measure_examples():
    G2 = example("pair_toward_small")
    psi = psi_state(G2, G2.components[1])
    assert psi.m["v"] == pytest.approx(0.5, abs=1e-9)
    assert psi.m["w"] == pytest.approx(0.5, abs=1e-9)
    assert psi.state_type == "Infinite"
    assert psi.factors_through_graph_algebra
    assert psi.beta_value == pytest.approx(LN3, abs=1e-12)

    G1 = example("pair_toward_large")
    psi1 = psi_state(G1, G1.components[1])
    assert psi1.m == {"v": pytest.approx(0.0), "w": pytest.approx(1.0)}

    G3 = example("golden_feeder")
    psi3 = psi_state(G3, G3.components[1])
    expect = {
        "v": 1 / 3,
        "w": (math.sqrt(5) - 1) / 3,
        "u": (3 - math.sqrt(5)) / 3,
    }
    for v, val in expect.items():
        assert psi3.m[v] == pytest.approx(val, abs=1e-9)


def test_psi_measure_satisfies_eigen_identity():
    for name in ("pair_toward_small", "golden_feeder", "twin_minimal"):
        G = example(name)
        for C in gk.minimal_critical_components(G):
            psi = psi_state(G, C)
            m = np.array([psi.m[v] for v in G.vertices])
            rho = G.spectral_radii[C.id]
            assert np.max(np.abs(G.matrix @ m - rho * m)) < 1e-9, name


def test_beta_v_examples():
    G2 = example("pair_toward_small")
    assert gk.beta_v(G2, "v") == pytest.approx(LN2, abs=1e-12)
    assert gk.beta_v(G2, "w") == pytest.approx(LN3, abs=1e-12)
    G6 = example("persistent_source")
    assert gk.beta_v(G6, "u3") is None
    assert gk.beta_v(G6, "u1") is None
    # paths from u2 enter the v-loop but can never reach the w-loop
    assert gk.beta_v(G6, "u2") == pytest.approx(LN2, abs=1e-12)
    assert gk.beta_v(G6, "w") == pytest.approx(LN3, abs=1e-12)
    G4 = example("two_sources_chain")
    assert gk.beta_v(G4, "u1") == pytest.approx(LN2, abs=1e-12)


def test_phi_measure_examples():
    G = example("pair_toward_small")
    mid = (LN2 + LN3) / 2
    phi = phi_state(G, mid, "v")
    assert phi.m == {"v": pytest.approx(1.0), "w": pytest.approx(0.0)}
    assert phi.state_type == "Finite"

    phi_w = phi_state(G, math.log(4), "w")
    assert phi_w.m["v"] == pytest.approx(1 / 3, abs=1e-9)
    assert phi_w.m["w"] == pytest.approx(2 / 3, abs=1e-9)


def test_phi_measure_requires_beta_above_beta_v():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        phi_state(G, 0.9, "w")
    with pytest.raises(ValueError):
        phi_state(G, 0.5, "v")
    with pytest.raises(ValueError):
        phi_state(G, 1.5, "zz")


def test_phi_measure_normalized_by_y():
    # m_w = R(w, v) / y_v over the survivors
    G = example("two_sources_chain")
    beta = 1.3
    phi = phi_state(G, beta, "u2")
    y = spectral.y_vector(G, beta)
    R = np.linalg.solve(
        np.eye(4) - math.exp(-beta) * G.matrix.astype(float), np.eye(4)
    )
    j = G.index["u2"]
    for v in G.vertices:
        assert phi.m[v] == pytest.approx(R[G.index[v], j] / y[j], abs=1e-9)


def test_phi_measure_agrees_across_hereditary_choices():
    # {u1, w} is hereditary and also valid for u2 at beta between ln2 and ln3,
    # so the measure must match the one built over the quotient by K_beta
    G = example("two_sources_chain")
    beta = 1.0
    phi = phi_state(G, beta, "u2")
    keep = [G.index["v"], G.index["u2"]]
    M = G.matrix[np.ix_(keep, keep)]
    R = np.linalg.solve(np.eye(2) - math.exp(-beta) * M.astype(float), np.eye(2))
    col = R[:, 1] / R[:, 1].sum()
    assert phi.m["v"] == pytest.approx(col[0], abs=1e-9)
    assert phi.m["u2"] == pytest.approx(col[1], abs=1e-9)
    assert phi.m["u1"] == 0.0 and phi.m["w"] == 0.0


def test_general_state_measure_example():
    G = example("pair_toward_small")
    state = gk.general_state_measure(G, gk.CriticalOf(1), 0.5, {"v": 1 / 3}, {1: 1.0})
    assert state.m["v"] == pytest.approx(0.75, abs=1e-9)
    assert state.m["w"] == pytest.approx(0.25, abs=1e-9)
    assert state.state_type == "Mixed"
    assert isinstance(state.label, gk.Mixture)


def test_general_state_measure_reductions():
    G = example("pair_toward_small")
    psi = psi_state(G, G.components[1])
    r0 = gk.general_state_measure(G, gk.CriticalOf(1), 0.0, {"v": 1 / 3}, {1: 1.0})
    for v in G.vertices:
        assert r0.m[v] == pytest.approx(psi.m[v], abs=1e-12)
    assert r0.state_type == "Infinite"

    phi = phi_state(G, gk.CriticalOf(1), "v")
    r1 = gk.general_state_measure(G, gk.CriticalOf(1), 1.0, {"v": 1 / 3}, {1: 1.0})
    for v in G.vertices:
        assert r1.m[v] == pytest.approx(phi.m[v], abs=1e-12)
    assert r1.state_type == "Finite"


def test_general_state_measure_accepts_component_keys():
    G = example("pair_toward_small")
    by_id = gk.general_state_measure(G, gk.CriticalOf(1), 0.25, {"v": 1 / 3}, {1: 1.0})
    by_comp = gk.general_state_measure(
        G, gk.CriticalOf(1), 0.25, {"v": 1 / 3}, {G.components[1]: 1.0}
    )
    assert by_id.m == by_comp.m


def test_general_state_measure_rejects_keys_that_are_not_components():
    G = example("pair_toward_small")
    for key in (True, np.True_, "1", 1.0):
        with pytest.raises(TypeError, match="not a component or its id"):
            gk.general_state_measure(G, gk.CriticalOf(1), 0.25, {"v": 1 / 3}, {key: 1.0})
    # A numpy integer names a component here as it does in CriticalOf.
    by_int = gk.general_state_measure(G, gk.CriticalOf(1), 0.25, {"v": 1 / 3}, {1: 1.0})
    by_np = gk.general_state_measure(G, gk.CriticalOf(1), 0.25, {"v": 1 / 3}, {np.int64(1): 1.0})
    assert dict(by_np.m) == dict(by_int.m)


def test_general_state_measure_rejects_epsilon_keys_that_are_not_names():
    # The vertex named "1" must not be reachable through the int key 1.
    G = gk.parse_graph("vertices: 1 w\nedge w 1\nedge w w 3\n")
    spec = gk.CriticalOf(1)
    assert gk.general_state_measure(G, spec, 1.0, {"1": 1.0}, {1: 1.0}).m["1"] == 1.0
    for key in (1, True, 1.0, None):
        with pytest.raises(TypeError, match="not a vertex name"):
            gk.general_state_measure(G, spec, 1.0, {key: 1.0}, {1: 1.0})


def test_general_state_measure_validation():
    G = example("pair_toward_small")
    spec = gk.CriticalOf(1)
    with pytest.raises(ValueError):
        gk.general_state_measure(G, spec, 0.5, {"v": 1.0}, {1: 1.0})  # eps.y != 1
    with pytest.raises(ValueError):
        gk.general_state_measure(G, spec, 0.5, {"v": 1 / 3}, {1: 0.7})
    with pytest.raises(ValueError):
        gk.general_state_measure(G, spec, 0.5, {"v": 1 / 3}, {0: 1.0})  # not mc
    with pytest.raises(ValueError):
        gk.general_state_measure(G, spec, 1.5, {"v": 1 / 3}, {1: 1.0})
    with pytest.raises(ValueError):
        gk.general_state_measure(G, spec, 0.5, {"w": 1.0}, {1: 1.0})  # inside K
    with pytest.raises(ValueError):
        gk.general_state_measure(G, 0.9, 0.5, {"v": 1 / 3}, {1: 1.0})  # not critical
    with pytest.raises(ValueError):
        gk.general_state_measure(G, spec, 0.5, {"v": -1 / 3}, {1: 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_general_state_measure_rejects_weights_that_are_not_finite(bad):
    # Every range check is false for NaN, which once let an all-NaN
    # "Mixed" state through.
    G = example("pair_toward_small")
    spec = gk.CriticalOf(1)
    for epsilon, t in [
        ({"v": bad}, {1: 1.0}),
        ({"v": 1 / 3, "w": bad}, {1: 1.0}),
        ({"v": 1 / 3}, {1: bad}),
    ]:
        with pytest.raises(ValueError):
            gk.general_state_measure(G, spec, 0.5, epsilon, t)


def test_general_state_measure_no_phi_part_left():
    # at ln2 every vertex lies inside K, so only r = 0 remains
    G = example("pair_toward_small")
    state = gk.general_state_measure(G, gk.CriticalOf(0), 0.0, {}, {0: 1.0})
    assert state.m == {"v": pytest.approx(1.0), "w": pytest.approx(0.0)}
    with pytest.raises(ValueError):
        gk.general_state_measure(G, gk.CriticalOf(0), 0.5, {}, {0: 1.0})


def test_general_state_measure_two_component_mixture():
    G = example("twin_minimal")
    comps = {c.members: c for c in gk.minimal_critical_components(G)}
    cv, cw = comps[("v",)], comps[("w",)]
    t = {cv.id: 0.5, cw.id: 0.5}
    y_u = float(spectral.y_vector(quotient_graph(G, gk.K_beta(G, gk.CriticalOf(1))), LN2)[0])
    state = gk.general_state_measure(G, gk.CriticalOf(1), 0.0, {"u": 1 / y_u}, t)
    psi_v = psi_state(G, cv)
    psi_w = psi_state(G, cw)
    for v in G.vertices:
        assert state.m[v] == pytest.approx(
            0.5 * psi_v.m[v] + 0.5 * psi_w.m[v], abs=1e-9
        )


def test_general_state_measure_mixture_factor_flag():
    G = example("persistent_source")
    spec = gk.CriticalOf(2)  # ln2, component {v}
    Q = quotient_graph(G, gk.K_beta(G, spec))
    y = spectral.y_vector(Q, LN2)
    eps_u3 = {"u3": 1 / float(y[Q.index["u3"]])}
    state = gk.general_state_measure(G, spec, 0.5, eps_u3, {2: 1.0})
    assert state.factors_through_graph_algebra
    eps_u1 = {"u1": 1 / float(y[Q.index["u1"]])}
    state2 = gk.general_state_measure(G, spec, 0.5, eps_u1, {2: 1.0})
    assert not state2.factors_through_graph_algebra


def test_simplex_pair_toward_large_regimes():
    G = example("pair_toward_large")
    assert gk.kms_simplex(G, 0.9).case == "Empty"
    sx = gk.kms_simplex(G, gk.CriticalOf(1))
    assert sx.case == "Critical"
    assert len(sx.extremes) == 1
    only = sx.extremes[0]
    assert only.m == {"v": pytest.approx(0.0), "w": pytest.approx(1.0)}
    assert only.factors_through_graph_algebra
    above = gk.kms_simplex(G, 1.4)
    assert above.case == "Subcritical"
    assert len(above.extremes) == 2
    assert not any(s.factors_through_graph_algebra for s in above.extremes)


def test_simplex_empty_descriptor_fields():
    G = example("pair_toward_small")
    sx = gk.kms_simplex(G, 0.2)
    assert sx.case == "Empty"
    assert sx.H_beta.members == {"v", "w"}
    assert sx.K_beta.members == {"v", "w"}
    assert sx.extremes == ()
    assert sx.measures.shape == (0, 2)
    assert sx.beta_value == 0.2


def test_simplex_extreme_order_is_deterministic():
    G = example("twin_minimal")
    sx = gk.kms_simplex(G, gk.CriticalOf(1))
    labels = [type(s.label).__name__ for s in sx.extremes]
    assert labels == ["PsiC", "PsiC", "PhiBetaV"]
    assert sx.extremes[0].label.component.id < sx.extremes[1].label.component.id
    assert sx.extremes[2].label.vertex == "u"


def test_simplex_critical_cases_match_examples():
    G4 = example("two_sources_chain")
    counts = []
    for beta in (1.2, gk.CriticalOf(3), 0.9, gk.CriticalOf(1), 0.5):
        sx = gk.kms_simplex(G4, beta)
        counts.append(len(sx.extremes))
    assert counts == [4, 4, 3, 1, 0]


def test_regime_sets_carry_the_flags_of_vertex_set():
    # regime builds H_beta and K_beta from its own masks, not through
    # G.vertex_set; both must agree on members and flags.
    for seed in range(300):
        G = random_graph(random.Random(seed))
        betas = list(gk.critical_temperatures(G)) + [-1.0, 0.0, 0.5, 1.0, 1.5]
        for beta in betas:
            r = kms.regime(G, beta)
            for vs in (r.H_beta, r.K_beta):
                ref = G.vertex_set(vs.members)
                assert (vs.members, vs.hereditary, vs.saturated) == (
                    ref.members, ref.hereditary, ref.saturated
                ), (seed, beta)


def test_simplex_subcritical_has_K_equal_H():
    G = example("golden_feeder")
    sx = gk.kms_simplex(G, 0.9)
    assert sx.case == "Subcritical"
    assert sx.H_beta.members == sx.K_beta.members == {"w", "u"}


def test_factors_source_flip_between_chains():
    G4 = example("two_sources_chain")
    sx4 = gk.kms_simplex(G4, gk.CriticalOf(3))
    flags4 = {
        s.label.vertex: s.factors_through_graph_algebra
        for s in sx4.extremes
        if isinstance(s.label, gk.PhiBetaV)
    }
    assert flags4 == {"u1": True, "v": False, "u2": False}

    G5 = example("reversed_tail")
    sx5 = gk.kms_simplex(G5, gk.CriticalOf(3))
    flags5 = {
        s.label.vertex: s.factors_through_graph_algebra
        for s in sx5.extremes
        if isinstance(s.label, gk.PhiBetaV)
    }
    assert flags5 == {"u1": False, "v": False, "u2": False}


def test_eval_state_examples():
    G = example("pair_toward_small")
    psi = psi_state(G, G.components[1])
    assert gk.eval_state(psi, "v", "v") == pytest.approx(0.5, abs=1e-12)
    assert gk.eval_state(psi, "v", "w") == 0.0
    loop = (("w", "w", 0),)
    assert gk.eval_state(psi, loop, loop) == pytest.approx(1 / 6, abs=1e-12)
    two = (("w", "w", 1), ("w", "w", 0))
    assert gk.eval_state(psi, two, two) == pytest.approx(1 / 18, abs=1e-12)
    hop = (("w", "v", 0),)
    assert gk.eval_state(psi, hop, hop) == pytest.approx(1 / 6, abs=1e-12)
    assert gk.eval_state(psi, loop, two) == 0.0


def test_eval_state_rejects_broken_paths():
    G = example("pair_toward_small")
    psi = psi_state(G, G.components[1])
    with pytest.raises(ValueError):
        gk.eval_state(psi, (("v", "v", 0), ("w", "w", 0)), (("v", "v", 0), ("w", "w", 0)))
    with pytest.raises(ValueError):
        gk.eval_state(psi, "zz", "zz")
    with pytest.raises(ValueError):
        gk.eval_state(psi, (), ())


@pytest.mark.parametrize(
    "path,message",
    [
        ((("v", "w", 0),), "v -> w has multiplicity 0"),  # no edge from v to w
        ((("w", "v", 57),), "w -> v has multiplicity 1"),
        ((("w", "v", 1),), "w -> v has multiplicity 1"),
        ((("w", "v", -1),), "w -> v has multiplicity 1"),
        ((("w", "v", True),), "w -> v has multiplicity 1"),
        ((("w", "v", 0.0),), "w -> v has multiplicity 1"),
        ((("v", "zz", 0),), "unknown vertex: zz"),
        ((("zz", "v", 0),), "unknown vertex: zz"),
        ((("v", "v", 0), ("zz", "v", 0)), "unknown vertex: zz"),
        ((("w", "v", 0, 1),), "not a (source, range, copy) triple"),
        (((["v"], "v", 0),), "not a vertex name: ['v']"),
        ((("v", ["v"], 0),), "not a vertex name: ['v']"),
    ],
)
def test_eval_state_rejects_paths_not_in_the_graph(path, message):
    G = example("pair_toward_small")
    state = gk.kms_simplex(G, 3.0).extremes[0]
    for mu, nu in ((path, path), (path, "v"), ("v", path)):
        with pytest.raises(ValueError, match=re.escape(message)):
            gk.eval_state(state, mu, nu)


def test_eval_state_accepts_every_edge_copy():
    G = example("pair_toward_small")
    state = gk.kms_simplex(G, 3.0).extremes[1]
    for e in edge_instances(G):
        assert gk.eval_state(state, (e,), (e,)) == math.exp(-3.0) * state.m[e[0]]
    numpy_copy = (("w", "w", np.int64(2)),)
    assert gk.eval_state(state, numpy_copy, numpy_copy) == math.exp(-3.0) * state.m["w"]


def test_perron_check_examples():
    assert not gk.perron_check([1, -5, 5], (5 - math.sqrt(5)) / 2)
    assert gk.perron_check([1, -5, 5], (5 + math.sqrt(5)) / 2)
    assert gk.perron_check([1, -3], 3.0)


def test_perron_check_boundary_cases():
    # a dominant root below 1 is not Perron (x^2: double root at 0)
    assert not gk.perron_check([1, 0, 0], 0.0)
    with pytest.raises(ValueError):
        gk.perron_check([2, -1], 0.5)  # not monic
    with pytest.raises(ValueError):
        gk.perron_check([1, -2.5], 2.5)  # fractional coefficient
    with pytest.raises(ValueError):
        gk.perron_check([1], 1.0)  # degree zero
    with pytest.raises(ValueError):
        gk.perron_check([1, -5, 5], 2.0)  # no nearby root
    # x^2 - 1: roots 1 and -1 tie in modulus
    assert not gk.perron_check([1, 0, -1], 1.0)
    # x - 1: the integer 1 is Perron
    assert gk.perron_check([1, -1], 1.0)
    # x^2 - x - 1: golden mean dominates its conjugate
    assert gk.perron_check([1, -1, -1], (1 + math.sqrt(5)) / 2)


def test_state_measure_is_frozen():
    G = example("pair_toward_small")
    psi = psi_state(G, G.components[1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.beta_value = 0.0


def _check_view(m, G, row):
    """m is a read-only mapping view of the read-only float row."""
    assert isinstance(m, Mapping) and not isinstance(m, dict)
    assert list(m) == list(G.vertices) and len(m) == len(G.vertices)
    assert all(type(m[v]) is float for v in G.vertices)
    assert [m[v] for v in G.vertices] == row.tolist()
    assert m == dict(zip(G.vertices, row.tolist()))
    assert dict(zip(G.vertices, row.tolist())) == m
    assert m != {v: 2.0 for v in G.vertices}
    assert "nope" not in m and m.get("nope") is None
    with pytest.raises(KeyError):
        m["nope"]
    with pytest.raises(TypeError):
        m[G.vertices[0]] = 1.0
    with pytest.raises(AttributeError):
        m.extra = 1
    assert not np.asarray(m).flags.writeable
    with pytest.raises(ValueError):
        np.asarray(m)[0] = 1.0


def test_simplex_measures_are_one_read_only_array():
    G = example("twin_minimal")
    for beta in [*gk.critical_temperatures(G), 0.9]:
        sx = gk.kms_simplex(G, beta)
        assert sx.measures.shape == (len(sx.extremes), len(G.vertices))
        assert sx.measures.dtype == np.float64
        assert not sx.measures.flags.writeable
        for row, state in zip(sx.measures, sx.extremes):
            _check_view(state.m, G, row)
            # every extreme views a row of the one array, none holds a copy
            assert np.asarray(state.m).base is sx.measures


def _grid(G):
    """Every critical temperature and the floats half a TOL either side of
    it, which share its regime, then the acceptance sweep's 20-point grid."""
    rho = spectral.spectral_radius(G.matrix)
    top = math.log(rho) + 0.5 if rho > 1 else 1.0
    criticals = gk.critical_temperatures(G)
    near = [gk.beta_value(G, c) + d * kms.TOL for c in criticals for d in (-0.5, 0.5)]
    return [*criticals, *near, *np.linspace(0.05, top, 20).tolist()]


def _results_at(G, beta):
    """Bytes and fields of the simplex at beta and, at a critical beta, of
    one mixture of all its extremes."""
    sx = gk.kms_simplex(G, beta)
    states = list(sx.extremes)
    if sx.case == kms.CRITICAL:
        reg = kms.regime(G, beta)
        eps = {}
        if reg.outside:
            out = list(reg.outside)
            M = G.matrix[np.ix_(out, out)]
            y = spectral.resolvent_solve(M.T, sx.beta_value, np.ones(len(out)),
                                         radius=reg.outside_radius)
            eps = {G.vertices[i]: 1 / (len(out) * float(y_i)) for i, y_i in zip(out, y)}
        mc = reg.minimal_critical
        states.append(gk.general_state_measure(
            G, beta, 0.5 if eps else 0.0, eps, {c: 1 / len(mc) for c in mc}))
    labels = [(s.label.component.id, s.label.component.members) if isinstance(s.label, gk.PsiC)
              else dataclasses.astuple(s.label) for s in states]
    return (sx.beta, sx.beta_value, sx.case, sx.measures.tobytes(), labels,
            [(np.asarray(s.m).tobytes(), s.factors_through_graph_algebra, s.state_type,
              s.beta_value) for s in states])


def _arrays(value):
    """Every numpy array reachable from a memo value."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


def test_simplex_data_kept_per_regime_do_not_depend_on_call_order():
    # The beta-free part of a simplex is derived once per regime, on the
    # first call that meets it; in any beta order every result equals that
    # of a freshly parsed graph, bit for bit.
    makers = [lambda t=t: gk.parse_graph(t) for t in GRAPHS.values()]
    makers += [lambda s=s: random_graph(random.Random(s)) for s in range(200)]
    kept = 0
    for make in makers:
        G = make()
        betas = _grid(G)
        random.Random(len(betas)).shuffle(betas)
        for beta in betas:
            assert _results_at(G, beta) == _results_at(make(), beta), (G.vertices, beta)
        _, memo = G._memo["regimes"]
        extremes = [ext for _, ext in memo.values() if ext is not None]
        arrays = list(_arrays(extremes))
        assert len(arrays) == 2 * len(extremes)
        assert not [a for a in arrays if a.flags.writeable]
        kept += len(extremes)
    assert kept > 500


def test_single_state_constructors_return_views():
    G = example("two_sources_chain")
    spec = gk.CriticalOf(3)
    Q = quotient_graph(G, gk.K_beta(G, spec))
    y = spectral.y_vector(Q, LN3)
    states = [
        psi_state(G, G.components[3]),
        phi_state(G, 1.3, "u2"),
        gk.general_state_measure(G, spec, 0.5, {"u1": 1 / float(y[Q.index["u1"]])}, {3: 1.0}),
    ]
    for state in states:
        _check_view(state.m, G, np.asarray(state.m))
    assert repr(states[1].m).startswith("MeasureView({'u1': 0.0, 'v': ")


def test_measure_view_rejects_a_writable_row():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        kms.MeasureView(G, np.zeros(2))
    row = np.zeros(3)
    row.setflags(write=False)
    with pytest.raises(ValueError):
        kms.MeasureView(G, row)
