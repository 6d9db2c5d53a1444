"""Acceptance gate: the seven shipping criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line for
each criterion.  Tolerances are pinned in the assertions and must not be
loosened; the randomized sweep (criterion 6) is seed-stable.
"""

import math
import random
import time

import numpy as np
import pytest

import graphkms as gk
from graphkms import oracle, spectral

from conftest import example, psi_state, quotient_graph, random_graph, z_of
from oracles import enumerate_paths, quick_exit_series_oracle, series_y_oracle

LN2 = math.log(2)
LN3 = math.log(3)


def test_criterion_1_single_transition_regression():
    started = time.perf_counter()
    G = example("pair_toward_large")

    criticals = gk.critical_temperatures(G)
    assert len(criticals) == 1
    assert gk.beta_value(G, criticals[0]) == pytest.approx(LN3, abs=1e-9)

    at = gk.kms_simplex(G, criticals[0])
    assert at.case == "Critical"
    assert len(at.extremes) == 1
    only = at.extremes[0]
    assert only.m["v"] == pytest.approx(0.0, abs=1e-9)
    assert only.m["w"] == pytest.approx(1.0, abs=1e-9)
    assert only.factors_through_graph_algebra

    for beta in (0.3, LN2, 0.9):
        assert gk.kms_simplex(G, beta).case == "Empty"

    for beta in (1.2, 2.0):
        above = gk.kms_simplex(G, beta)
        assert len(above.extremes) == 2
        assert not any(s.factors_through_graph_algebra for s in above.extremes)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    print(f"criterion 1 PASS: single transition at ln3 ({elapsed:.3f}s)")


def test_criterion_2_two_transition_regression():
    G = example("pair_toward_small")

    criticals = gk.critical_temperatures(G)
    values = [gk.beta_value(G, s) for s in criticals]
    assert values == [pytest.approx(LN2, abs=1e-9), pytest.approx(LN3, abs=1e-9)]

    psi = psi_state(G, G.components[1])
    assert psi.m["v"] == pytest.approx(0.5, abs=1e-9)
    assert psi.m["w"] == pytest.approx(0.5, abs=1e-9)

    # diagonal values e^{-beta |mu|} m_{s(mu)} = 3^{-|mu|} / 2 on every path
    all_paths = []
    for v in G.vertices:
        for w in G.vertices:
            for n in range(4):
                all_paths.extend(enumerate_paths(G, v, w, n))
    assert len(all_paths) > 20
    for mu in all_paths:
        length = 0 if isinstance(mu, str) else len(mu)
        got = gk.eval_state(psi, mu, mu)
        assert got == pytest.approx(3.0**-length / 2, abs=1e-9), mu
    short = [p for p in all_paths if isinstance(p, str) or len(p) <= 2]
    for mu in short:
        for nu in short:
            if mu != nu:
                assert gk.eval_state(psi, mu, nu) == 0.0

    low = gk.kms_simplex(G, criticals[0])
    assert low.case == "Critical"
    assert len(low.extremes) == 1
    assert low.extremes[0].factors_through_graph_algebra

    assert gk.kms_simplex(G, 0.5).case == "Empty"
    print("criterion 2 PASS: ln2/ln3 ladder, psi diagonal, unique factoring state")


def test_criterion_3_golden_feeder_regression():
    G = example("golden_feeder")
    big = next(c for c in G.components if c.perron_vector is not None and len(c.members) == 2)
    assert G.spectral_radii[big.id] == pytest.approx(1 + math.sqrt(5), abs=1e-9)

    ladder = [1.3, gk.CriticalOf(big.id), 1.0, gk.CriticalOf(0), 0.5]
    dims = []
    cases = []
    for beta in ladder:
        sx = gk.kms_simplex(G, beta)
        dims.append(len(sx.extremes) - 1)
        cases.append(sx.case)
    assert dims == [2, 1, 0, 0, -1]
    assert cases == ["Subcritical", "Critical", "Subcritical", "Critical", "Empty"]

    psi = psi_state(G, big)
    s5 = math.sqrt(5)
    assert psi.m["v"] == pytest.approx(1 / 3, abs=1e-7)
    assert psi.m["w"] == pytest.approx((s5 - 1) / 3, abs=1e-7)
    assert psi.m["u"] == pytest.approx((3 - s5) / 3, abs=1e-7)

    # independent route: quick-exit series for z, Perron weights for the rest
    z_q = quick_exit_series_oracle(G, big, "v")
    scale = 1.0 / (1.0 + z_q)
    assert psi.m["v"] == pytest.approx(z_q * scale, abs=1e-7)
    for name in big.members:
        assert psi.m[name] == pytest.approx(
            big.perron_vector[name] * scale, abs=1e-7
        )
    print("criterion 3 PASS: rho = 1+sqrt(5), dims 2/1/0/Empty, psi vs oracle")


def test_criterion_4_chain_family_regressions():
    ladders = {
        "two_sources_chain": ([1.2, gk.CriticalOf(3), 0.9, gk.CriticalOf(1), 0.5],
                              [4, 4, 3, 1, 0]),
        "reversed_tail": ([1.2, gk.CriticalOf(3), 0.9, gk.CriticalOf(1), 0.5],
                          [4, 4, 3, 2, 1]),
        "persistent_source": ([1.2, gk.CriticalOf(4), 0.9, gk.CriticalOf(2), 0.5],
                              [5, 5, 4, 3, 2]),
    }
    for name, (betas, expected) in ladders.items():
        G = example(name)
        counts = [len(gk.kms_simplex(G, b).extremes) for b in betas]
        assert counts == expected, name

    def phi_flags(name, beta):
        sx = gk.kms_simplex(example(name), beta)
        return {
            s.label.vertex: s.factors_through_graph_algebra
            for s in sx.extremes
            if isinstance(s.label, gk.PhiBetaV)
        }

    # u1 keeps its source status in 6.4 and loses it in 6.5
    assert phi_flags("two_sources_chain", gk.CriticalOf(3)) == {
        "u1": True, "v": False, "u2": False,
    }
    assert phi_flags("reversed_tail", gk.CriticalOf(3)) == {
        "u1": False, "v": False, "u2": False,
    }

    # u3 never receives an edge, so its state exists and factors in all regimes
    G6 = example("persistent_source")
    for beta in (1.2, gk.CriticalOf(4), 0.9, gk.CriticalOf(2), 0.5):
        flags = phi_flags("persistent_source", beta)
        assert flags["u3"] is True, beta

    G4 = example("two_sources_chain")
    sat = gk.saturation(G4, gk.K_beta(G4, gk.CriticalOf(3)))
    assert sat.members == frozenset({"u2", "w"})
    print("criterion 4 PASS: counts 4/4/3/1/0 and kin, source flip, sigma-K exact")


def test_criterion_5_perron_check():
    s5 = math.sqrt(5)
    assert not gk.perron_check([1, -5, 5], (5 - s5) / 2)
    assert gk.perron_check([1, -5, 5], (5 + s5) / 2)

    # characteristic polynomial of [[3,1],[1,2]] expanded directly
    a, b, c, d = 3, 1, 1, 2
    coeffs = [1, -(a + d), a * d - b * c]
    assert coeffs == [1, -5, 5]
    assert gk.perron_check(coeffs, (5 + s5) / 2)
    print("criterion 5 PASS: x^2-5x+5 root classification and char poly")


def _expected_extreme_count(G, sx):
    if sx.case == "Empty":
        return 0
    n_phi = len(G.vertices) - len(sx.K_beta.members)
    if sx.case == "Subcritical":
        return n_phi
    Q = quotient_graph(G, sx.H_beta) if sx.H_beta.members else G
    return len(gk.minimal_critical_components(Q)) + n_phi


def test_criterion_6_randomized_sweep():
    started = time.perf_counter()
    checked = 0
    for seed in range(1000):
        G = random_graph(random.Random(seed))
        criticals = gk.critical_temperatures(G)
        rho = spectral.spectral_radius(G.matrix)
        top = math.log(rho) + 0.5 if rho > 1 else 1.0
        betas = list(criticals)
        betas.extend(float(b) for b in np.linspace(0.05, top, 20))
        for beta in betas:
            sx = gk.kms_simplex(G, beta)
            failures = oracle.verify_simplex(G, sx)
            assert failures == [], (seed, beta, failures)
            assert len(sx.extremes) == _expected_extreme_count(G, sx), (seed, beta)
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 20000
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"criterion 6 PASS: {checked} simplexes verified in {elapsed:.1f}s")


def test_criterion_7_oracle_equivalence():
    from conftest import GRAPHS

    y_compared = z_compared = 0
    for name in GRAPHS:
        G = example(name)
        rho = spectral.spectral_radius(G.matrix)
        beta = math.log(rho) + 0.3
        y = spectral.y_vector(G, beta)
        for v in G.vertices:
            got = series_y_oracle(G, beta, v)
            assert got == pytest.approx(y[G.index[v]], abs=1e-7), (name, v)
            y_compared += 1

        mc = gk.minimal_critical_components(G)
        closure = gk.hereditary_closure(G, [v for c in mc for v in c.members]).members
        for c in mc:
            z = z_of(G, c)
            for v in G.vertices:
                if v in closure:
                    continue
                got = quick_exit_series_oracle(G, c, v)
                assert got == pytest.approx(z.get(v, 0.0), abs=1e-7), (name, v)
                z_compared += 1
    assert y_compared >= 20 and z_compared >= 4
    print(f"criterion 7 PASS: {y_compared} y and {z_compared} z oracle agreements")
