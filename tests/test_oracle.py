"""Tests for the independent path-series oracles and the simplex verifier."""

import dataclasses
import math
import random

import numpy as np
import pytest

import graphkms as gk
from graphkms import oracle, spectral

from conftest import GRAPHS, example, path_count, phi_state, psi_state, random_graph, z_of
from oracles import edge_instances, enumerate_paths, quick_exit_series_oracle, series_y_oracle


# -- path enumeration ------------------------------------------------------


def test_enumerate_counts_match_path_count():
    for name in GRAPHS:
        G = example(name)
        for v in G.vertices:
            for w in G.vertices:
                for n in range(5):
                    paths = enumerate_paths(G, v, w, n)
                    assert len(paths) == path_count(G, v, w, n), (name, v, w, n)


def test_enumerate_paths_are_valid_chains():
    G = example("golden_feeder")
    for n in (1, 2, 3):
        for path in enumerate_paths(G, "v", "w", n):
            assert len(path) == n
            assert path[0][1] == "v" and path[-1][0] == "w"
            for prev, nxt in zip(path, path[1:]):
                assert prev[0] == nxt[1]


def test_enumerate_length_zero():
    G = example("pair_toward_small")
    assert enumerate_paths(G, "v", "v", 0) == ["v"]
    assert enumerate_paths(G, "v", "w", 0) == []


def test_enumerate_paths_guards():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        enumerate_paths(G, "v", "v", 13)
    with pytest.raises(ValueError):
        enumerate_paths(G, "v", "v", -1)
    with pytest.raises(ValueError):
        enumerate_paths(G, "zz", "v", 1)


# -- series oracle for y ---------------------------------------------------


def test_series_y_matches_solver():
    G = example("pair_toward_small")
    beta = math.log(4)
    y = spectral.y_vector(G, beta)
    assert series_y_oracle(G, beta, "v") == pytest.approx(y[0], abs=2e-9)
    assert series_y_oracle(G, beta, "w") == pytest.approx(y[1], abs=2e-9)


def test_series_y_edgeless():
    G = gk.parse_graph("vertices: a\n")
    assert series_y_oracle(G, 0.3, "a") == pytest.approx(1.0, abs=1e-12)


def test_series_y_refuses_near_divergence():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        series_y_oracle(G, math.log(3) + 0.02, "w")
    with pytest.raises(ValueError):
        series_y_oracle(G, 0.3, "zz")


def test_series_y_finite_paths_ignore_global_divergence():
    # u3 never reaches a cycle, so its series is a finite sum at any beta
    G = example("persistent_source")
    got = series_y_oracle(G, 0.1, "u3")
    assert got == pytest.approx(1.0 + math.exp(-0.1), abs=1e-9)


# -- quick-exit oracle for z -----------------------------------------------


def test_quick_exit_examples():
    G = example("pair_toward_small")
    C = G.components[1]
    assert quick_exit_series_oracle(G, C, "v") == pytest.approx(1.0, abs=1e-9)

    G3 = example("golden_feeder")
    big = next(c for c in G3.components if c.perron_vector is not None and len(c.members) == 2)
    assert quick_exit_series_oracle(G3, big, "v") == pytest.approx(0.5, abs=1e-9)


def test_quick_exit_no_paths_is_zero():
    G = gk.parse_graph("vertices: a b\nedge b b 2\n")
    C = next(c for c in G.components if c.perron_vector is not None)
    assert quick_exit_series_oracle(G, C, "a") == 0.0


def test_quick_exit_matches_z_vector():
    for name in ("pair_toward_small", "golden_feeder", "twin_minimal"):
        G = example(name)
        mc = gk.minimal_critical_components(G)
        closure = gk.hereditary_closure(G, [v for c in mc for v in c.members]).members
        for c in mc:
            z = z_of(G, c)
            for v in G.vertices:
                if v in closure:
                    continue
                got = quick_exit_series_oracle(G, c, v)
                assert got == pytest.approx(z.get(v, 0.0), abs=1e-7), (name, v)


def test_quick_exit_validation():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        quick_exit_series_oracle(G, G.components[0], "v")  # not minimal
    with pytest.raises(ValueError):
        quick_exit_series_oracle(G, G.components[1], "w")  # inside closure
    with pytest.raises(ValueError, match="unknown vertex: zz"):
        quick_exit_series_oracle(G, G.components[1], "zz")


# -- pointwise checks ------------------------------------------------------


def _measures(vertices, extremes):
    """The read-only measure array of ``extremes``, one row per state's
    ``m`` over ``vertices``; a vertex that ``m`` leaves out gets 0."""
    X = np.array([[float(s.m.get(v, 0.0)) for v in vertices] for s in extremes])
    X = X.reshape(len(extremes), len(vertices))
    X.setflags(write=False)
    return X


def _subinvariant(G, beta, m):
    """verify_simplex's subinvariance verdict on the measure m at beta, put in
    place of the first extreme of the simplex at the top critical value, as
    a state at beta."""
    sx = gk.kms_simplex(G, gk.critical_temperatures(G)[-1])
    state = dataclasses.replace(sx.extremes[0], m=m, beta_value=beta)
    extremes = (state, *sx.extremes[1:])
    failures = oracle.verify_simplex(G, dataclasses.replace(
        sx, beta=gk.Numeric(beta), beta_value=beta, extremes=extremes,
        measures=_measures(G.vertices, extremes),
    ))
    return f"{gk.kms.label_text(state)}: subinvariance violated" not in failures


def test_subinvariance_check():
    G = example("pair_toward_small")
    psi = psi_state(G, G.components[1])
    assert _subinvariant(G, math.log(3), psi.m)
    assert _subinvariant(G, 0.0, {v: 0.0 for v in G.vertices})
    # indicator of the 2-loop vertex fails below ln 2
    assert not _subinvariant(G, math.log(1.5), {"v": 1.0, "w": 0.0})
    # garbage in, a verdict out: never raises on signed input
    assert isinstance(_subinvariant(G, 0.0, {"v": -1.0}), bool)


def test_path_measure_atoms():
    G = example("pair_toward_small")
    psi = psi_state(G, G.components[1])
    assert oracle.path_measure_atom(G, psi, "v") == pytest.approx(0.0, abs=1e-12)
    phi = phi_state(G, math.log(4), "v")
    assert oracle.path_measure_atom(G, phi, "v") == pytest.approx(0.5, abs=1e-12)

    # Parallel edge lines add up: a -> b carries 2 + 1 edges, copies 0..2.
    M = gk.parse_graph(
        "vertices: a b c\n"
        "edge a b 2\nedge c b\nedge a b\nedge b a\nedge a a 2\nedge b c 3\n"
    )

    def brute_atom(state, path):
        # e^(-beta |path|) m_s minus e^(-beta (|path|+1)) m_u over every
        # edge instance u -> s, read from the edge lines.
        length = 0 if isinstance(path, str) else len(path)
        src = path if isinstance(path, str) else path[-1][0]
        atom = math.exp(-state.beta_value * length) * state.m[src]
        for e in M.edges:
            if e.range == src:
                atom -= (e.multiplicity * math.exp(-state.beta_value * (length + 1))
                         * state.m[e.source])
        return atom

    top = gk.beta_value(M, gk.critical_temperatures(M)[-1])
    states = list(gk.kms_simplex(M, gk.critical_temperatures(M)[-1]).extremes)
    states += gk.kms_simplex(M, top + 0.7).extremes
    totals = {}
    for e in M.edges:
        totals[e.source, e.range] = totals.get((e.source, e.range), 0) + e.multiplicity
    paths = list(M.vertices)
    paths += [((s, r, k),) for (s, r), total in totals.items() for k in range(total)]
    paths += [(("a", "b", 2), ("b", "a", 0))]
    assert len(states) >= 2
    for state in states:
        for path in paths:
            assert oracle.path_measure_atom(M, state, path) == pytest.approx(
                brute_atom(state, path), abs=1e-12
            ), (state.label, path)


def test_path_measure_atom_weighs_each_arc_by_its_multiplicity():
    # One eval_state per arc, times its multiplicity, against one per copy.
    def per_copy(G, state, path):
        total = gk.eval_state(state, path, path)
        src = path if isinstance(path, str) else path[-1][0]
        for e in edge_instances(G):
            if e[1] == src:
                ext = (path + (e,)) if isinstance(path, tuple) else (e,)
                total -= gk.eval_state(state, ext, ext)
        return total

    checked = 0
    for name in GRAPHS:
        G = example(name)
        crits = gk.critical_temperatures(G)
        top = max((gk.beta_value(G, c) for c in crits), default=0.0)
        paths = [*G.vertices, *((e,) for e in edge_instances(G))]
        for beta in [*crits, top + 0.3]:
            for state in gk.kms_simplex(G, beta).extremes:
                for path in paths:
                    assert oracle.path_measure_atom(G, state, path) == pytest.approx(
                        per_copy(G, state, path), abs=1e-12), (name, state.label, path)
                    checked += 1
    assert checked > 500


def test_vectorised_atoms_match_path_measure_atom():
    # verify_simplex checks only the vertex atoms m - e^-beta A m.  They are
    # path_measure_atom at each vertex, and each one-edge atom is e^-beta
    # times the vertex atom at its source, so they settle every edge too.
    for seed in range(200):
        G = random_graph(random.Random(seed))
        instances = edge_instances(G)
        for beta in gk.critical_temperatures(G):
            sx = gk.kms_simplex(G, beta)
            for m, state in zip(sx.measures, sx.extremes):
                decay = math.exp(-state.beta_value)
                at_vertex = m - decay * (G.matrix @ m)
                for v in G.vertices:
                    assert at_vertex[G.index[v]] == pytest.approx(
                        oracle.path_measure_atom(G, state, v), abs=1e-12
                    ), (seed, state.label, v)
                for e in instances:
                    assert oracle.path_measure_atom(G, state, (e,)) == pytest.approx(
                        decay * oracle.path_measure_atom(G, state, e[0]), abs=1e-12
                    ), (seed, state.label, e)


# -- full simplex verification ----------------------------------------------


def test_verify_simplex_clean_on_examples():
    for name in GRAPHS:
        G = example(name)
        betas = [gk.CriticalOf(b.component) for b in gk.critical_temperatures(G)]
        tops = [gk.beta_value(G, b) for b in betas]
        betas.append(max(tops, default=0.5) + 0.4)
        for beta in betas:
            sx = gk.kms_simplex(G, beta)
            assert oracle.verify_simplex(G, sx) == [], (name, beta)


def _corrupt(simplex, which, m):
    """The simplex with extreme ``which`` changed: its measure replaced by
    the dict ``m``; for m = "swap", its measure swapped with that of the next
    phi state; for "shift", 3e-8 of a phi state's mass moved from its own
    vertex to the first other vertex it charges; for "duplicate", listed
    twice; for "drop", left out."""
    extremes = list(simplex.extremes)
    state = extremes[which]
    if m == "shift":
        shifted, own = dict(state.m), state.label.vertex
        to = next(v for v, mass in shifted.items() if v != own and mass > 0.0)
        shifted[own] -= 3e-8
        shifted[to] += 3e-8
        extremes[which] = dataclasses.replace(state, m=shifted)
    elif m == "swap":
        k = next(k for k in range(which + 1, len(extremes))
                 if isinstance(extremes[k].label, gk.kms.PhiBetaV))
        extremes[which] = dataclasses.replace(state, m=extremes[k].m)
        extremes[k] = dataclasses.replace(extremes[k], m=state.m)
    elif m == "duplicate":
        extremes.insert(which + 1, state)
    elif m == "drop":
        del extremes[which]
    else:
        extremes[which] = dataclasses.replace(state, m=m)
    return dataclasses.replace(simplex, extremes=tuple(extremes),
                               measures=_measures(tuple(state.m), extremes))


def test_verify_simplex_checks_the_measure_array():
    # The rows of ``measures`` are what is checked (and printed), whatever
    # the extremes' own views say.
    G = example("two_sources_chain")
    sx = gk.kms_simplex(G, 1.2)
    assert oracle.verify_simplex(G, sx) == []
    X = sx.measures.copy()
    X[0] *= 1.25
    X.setflags(write=False)
    failures = oracle.verify_simplex(G, dataclasses.replace(sx, measures=X))
    assert f"{gk.kms.label_text(sx.extremes[0])}: normalization off by 0.25" in failures
    for shape in [X[1:], X[:, 1:], X.ravel()]:
        with pytest.raises(ValueError, match="measures of shape"):
            oracle.verify_simplex(G, dataclasses.replace(sx, measures=shape))


def test_verify_simplex_flags_bad_normalization():
    G = example("pair_toward_small")
    sx = gk.kms_simplex(G, gk.CriticalOf(1))
    bad = _corrupt(sx, 0, {"v": 0.6, "w": 0.5})
    failures = oracle.verify_simplex(G, bad)
    assert any("normalization" in f for f in failures)
    assert any("eigen-identity" in f for f in failures)


def test_verify_simplex_flags_H_charge():
    G = example("pair_toward_small")
    sx = gk.kms_simplex(G, 0.9)
    bad = _corrupt(sx, 0, {"v": 0.5, "w": 0.5})
    failures = oracle.verify_simplex(G, bad)
    assert any("charges H_beta" in f for f in failures)


def test_verify_simplex_flags_negative_entry():
    G = example("pair_toward_small")
    sx = gk.kms_simplex(G, 1.4)
    # keeps the total at 1 so only the sign check can trip
    failures = oracle.verify_simplex(G, _corrupt(sx, 0, {"v": 1.25, "w": -0.25}))
    assert any("negative" in f for f in failures)


@pytest.mark.parametrize("name, beta, which, m, expect", [
    ("pair_toward_small", 1.4, 0, {"v": 1.25, "w": -0.25},
     ["phi[v]: negative entry -0.25",
      "phi[v]: atom -0.0651 at 'w', beside 0.695 at its own vertex"]),
    ("pair_toward_small", 0.9, 0, {"v": 0.5, "w": 0.5},
     ["phi[v]: subinvariance violated", "phi[v]: charges H_beta at ['w']",
      "phi[v]: atom -0.11 at its own vertex is not positive"]),
    ("pair_toward_small", gk.CriticalOf(1), 0, {"v": 0.6, "w": 0.5},
     ["psi{w}: normalization off by 0.1", "psi{w}: eigen-identity residual 0.1",
      "psi{w}: atom 0.0333 at 'v'"]),
    ("pair_toward_small", gk.CriticalOf(1), 1, {"v": -0.1, "w": 1.1},
     ["phi[v]: negative entry -0.1", "phi[v]: subinvariance violated",
      "phi[v]: atom -0.4 at its own vertex is not positive"]),
    ("twin_minimal", gk.CriticalOf(1), 0, {"u": 0.2, "v": 0.3, "w": 0.1, "x": 0.4},
     ["psi{v}: subinvariance violated", "psi{v}: eigen-identity residual 0.4",
      "psi{v}: atom -0.1 at 'u'"]),
    ("twin_minimal", 0.1, 0, {"u": 0.5, "v": 0.2, "w": 0.2, "x": 0.1},
     ["phi[u]: subinvariance violated", "phi[u]: charges H_beta at ['v', 'w', 'x']",
      "phi[u]: atom -0.314 at its own vertex is not positive"]),
    ("two_sources_chain", 2.0, 1, "swap",
     ["phi[v]: atom 0 at its own vertex is not positive",
      "phi[u2]: atom 0 at its own vertex is not positive"]),
    ("two_sources_chain", gk.CriticalOf(1), 0, "duplicate", ["psi{v}: listed 2 times"]),
    ("two_sources_chain", 1.2, 1, "duplicate", ["phi[v]: listed 2 times"]),
    ("two_sources_chain", 1.2, 1, "drop", ["no phi state at ['v']"]),
    ("pair_toward_small", 3.0, 1, "shift", ["y from the phi atoms vs series gap 3.93e-08"]),
    ("two_sources_chain", 1.2, 3, "shift", ["y from the phi atoms vs series gap 7.28e-07"]),
])
def test_verify_simplex_failure_strings(name, beta, which, m, expect):
    G = example(name)
    assert oracle.verify_simplex(G, _corrupt(gk.kms_simplex(G, beta), which, m)) == expect


def test_subinvariance_rounding_floor_still_fails_a_gross_violation():
    # The rounding floor that lets the correct rows pass at e^21.5 ~ 2.2e9
    # is relative; (A m)_a = 9e8 against e^21.5 m_a ~ 2.2e8 still fails.
    G = gk.parse_graph("vertices: a b\nedge a b 1000000000\nedge b a 1000000000\n")
    sx = gk.kms_simplex(G, 21.5)
    assert oracle.verify_simplex(G, sx) == []
    # In the second row (A m)_a overflows to inf, against e^beta m_a = 0.
    for m in ({"a": 0.1, "b": 0.9}, {"a": 0.0, "b": 1e300}):
        with np.errstate(over="ignore"):
            failures = oracle.verify_simplex(G, _corrupt(sx, 0, m))
        assert "phi[a]: subinvariance violated" in failures, m


def test_atoms_where_e_beta_underflows_are_infinite_not_nan():
    # At beta = -800, e^beta is 0 and e^-beta (A m) is infinite wherever
    # A m is not 0: phi[a]'s atom at b is -inf, a failure; 0 / 0 is never
    # taken, so no NaN and no warning.
    G = gk.parse_graph("vertices: a b\nedge a b\n")
    sx = gk.kms_simplex(G, 1.0)
    cold = dataclasses.replace(
        sx, beta_value=-800.0,
        extremes=tuple(dataclasses.replace(s, beta_value=-800.0) for s in sx.extremes))
    with np.errstate(all="raise"):
        failures = oracle.verify_simplex(G, cold)
    assert failures == ["phi[a]: subinvariance violated",
                        "phi[a]: atom -inf at 'b', beside 0.731 at its own vertex"]


def test_verify_simplex_fails_a_state_off_the_simplex_temperature():
    # Each row is checked at its own beta_value, so a state may not carry
    # one more than TOL away from the simplex's beta.
    G = example("pair_toward_small")
    sx = gk.kms_simplex(G, gk.CriticalOf(1))
    for k, state in enumerate(sx.extremes):
        name = gk.kms.label_text(state)
        for shift, off in ((2e-9, True), (-2e-9, True), (0.5, True), (0.5e-9, False)):
            extremes = list(sx.extremes)
            extremes[k] = dataclasses.replace(state, beta_value=sx.beta_value + shift)
            failures = oracle.verify_simplex(G, dataclasses.replace(sx, extremes=tuple(extremes)))
            hit = [f for f in failures if f.startswith(f"{name}: beta_value ")]
            assert len(hit) == off, (name, shift, failures)


def test_oracle_memo_holds_no_block_of_the_matrix():
    # G.matrix is the one float copy of A: the y certificate gathers its
    # block outside K_beta only while it runs.
    G = random_graph(random.Random(33))
    for beta in [*gk.critical_temperatures(G), 0.05, 3.0]:
        sx = gk.kms_simplex(G, beta)
        assert len(sx.K_beta.members) < len(G.vertices)
        oracle.verify_simplex(G, sx)
    values, flat = [G._memo["oracle"]], []
    while values:
        value = values.pop()
        if isinstance(value, dict):
            values += value.values()
        elif isinstance(value, (tuple, list)):
            values += value
        else:
            flat.append(value)
    assert flat and not [v for v in flat if isinstance(v, np.ndarray) and v.ndim == 2]
    # The width counted on the arcs is the most nonzeros in a column of that block.
    for _, idx, width, _ in G._memo["oracle"].values():
        assert width == np.count_nonzero(G.matrix[np.ix_(idx, idx)], axis=0).max(initial=0)


def test_verify_simplex_ties_every_phi_row_to_its_vertex():
    # Each corruption the theorem rules out is caught on the examples and on
    # random graphs at every critical value and above the top one.  A shift
    # may fail any check (the y check runs last, on a simplex that passed the
    # others, where beta clears ln rho outside K_beta by SERIES_MARGIN, as it
    # does above the top critical value), so any failure counts.
    graphs = [example(name) for name in GRAPHS]
    graphs += [random_graph(random.Random(seed)) for seed in range(150)]
    named = {"swap": "atom", "duplicate": "listed 2 times", "drop": "no phi state at",
             "shift": ""}
    caught = dict.fromkeys(named, 0)
    for G in graphs:
        crits = gk.critical_temperatures(G)
        top = max((gk.beta_value(G, c) for c in crits), default=0.0)
        for beta in [*crits, top + 0.3, top + 1.0]:
            sx = gk.kms_simplex(G, beta)
            phi = [k for k, s in enumerate(sx.extremes)
                   if isinstance(s.label, gk.kms.PhiBetaV)]
            cases = [(k, "duplicate") for k in range(len(sx.extremes))]
            cases += [(k, "drop") for k in phi] + [(k, "swap") for k in phi[:-1]]
            if not isinstance(beta, gk.CriticalOf):
                cases += [(k, "shift") for k in phi
                          if np.count_nonzero(sx.measures[k] > 0.0) > 1]
            for which, how in cases:
                failures = oracle.verify_simplex(G, _corrupt(sx, which, how))
                assert any(named[how] in f for f in failures), (G.vertices, beta, which, how)
                caught[how] += 1
    assert min(caught.values()) > 100, caught


# -- the y check: certificate, then series -----------------------------------


def test_verify_simplex_runs_no_resolvent_solve(monkeypatch):
    # The oracle checks the simplex's own numbers with products and, as a
    # fallback, the series; it never factors I - e^-beta M itself.
    simplices = []
    for name in GRAPHS:
        G = example(name)
        crits = gk.critical_temperatures(G)
        top = max((gk.beta_value(G, c) for c in crits), default=0.0)
        simplices += [(G, gk.kms_simplex(G, beta)) for beta in [*crits, top + 0.3]]

    def refuse(*args, **kwargs):
        raise AssertionError("verify_simplex called resolvent_solve")

    monkeypatch.setattr(spectral, "resolvent_solve", refuse)
    for G, sx in simplices:
        assert oracle.verify_simplex(G, sx) == []


def test_y_certificate_refuses_nan_and_a_nan_series_gap_fails(monkeypatch):
    # NaN is not positive, so the certificate refuses it, and a NaN gap to
    # the series is not within 1e-9.
    G = example("pair_toward_small")
    sx = gk.kms_simplex(G, 3.0)
    _, idx, width, _ = oracle._outside(G, sx.K_beta.members)
    M = G.matrix[np.ix_(idx, idx)]
    assert oracle._y_error_bound(M, width, 3.0, np.full(2, np.nan)) == math.inf
    monkeypatch.setattr(spectral, "resolvent_series", lambda *a, **k: np.full(2, np.nan))
    assert oracle.verify_simplex(G, _corrupt(sx, 1, "shift")) == [
        "y from the phi atoms vs series gap nan"]


def test_verify_simplex_checks_an_uncertified_y_against_the_series(monkeypatch):
    # 3e-8 of phi[w]'s mass moved off w leaves every other check passing, but
    # its own atom no longer is 1/y_w: the certificate cannot settle y and
    # the series shows the gap.
    G = example("pair_toward_small")
    sx = gk.kms_simplex(G, 3.0)
    series, calls = spectral.resolvent_series, []
    monkeypatch.setattr(spectral, "resolvent_series",
                        lambda *a, **k: calls.append(a) or series(*a, **k))
    assert oracle.verify_simplex(G, sx) == []
    assert calls == []
    assert oracle.verify_simplex(G, _corrupt(sx, 1, "shift")) == [
        "y from the phi atoms vs series gap 3.93e-08"]
    assert len(calls) == 1


def test_verify_simplex_sums_the_series_where_the_certificate_is_loose(monkeypatch):
    # max x = 2453 here, so rounding alone puts the bound above 0.5e-9.
    G = random_graph(random.Random(33))
    sx = gk.kms_simplex(G, 0.05)
    series, calls = spectral.resolvent_series, []
    monkeypatch.setattr(spectral, "resolvent_series",
                        lambda *a, **k: calls.append(a) or series(*a, **k))
    assert oracle.verify_simplex(G, sx) == []
    assert len(calls) == 1


def test_y_certificate_bounds_the_gap_to_the_series():
    # y is read off the phi rows as verify_simplex reads it: 1 / own atom.
    settled = 0
    for seed in range(200):
        G = random_graph(random.Random(seed))
        rho = spectral.spectral_radius(G.matrix)
        top = math.log(rho) + 0.5 if rho > 1 else 1.0
        betas = [*gk.critical_temperatures(G), *np.linspace(0.05, top, 20).tolist()]
        for beta in betas:
            sx = gk.kms_simplex(G, beta)
            outside, idx, width, ln_radius = oracle._outside(G, sx.K_beta.members)
            b = sx.beta_value
            if not outside or b < ln_radius + oracle.SERIES_MARGIN:
                continue
            M = G.matrix[np.ix_(idx, idx)]
            radius = float(G.spectral_radii[G.vertex_components[idx]].max())
            phi = sx.measures[len(sx.extremes) - len(outside):]
            at_vertex = phi - (phi @ G.matrix.T) / math.exp(b)
            y = 1.0 / at_vertex[np.arange(len(outside)), idx]
            bound = oracle._y_error_bound(M, width, b, y)
            if bound <= 0.5e-9:
                summed = spectral.resolvent_series(M.T, b, np.ones(len(outside)), 1e-12,
                                                   radius=radius)
                assert np.abs(y - summed).max() <= bound + 1e-12, (seed, b)
                settled += 1
    assert settled > 2000
