"""Randomized invariants; seeds come from hypothesis so failures replay."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphkms as gk
from graphkms import oracle, spectral

from conftest import GRAPHS, path_count, quotient_graph, random_graph, talks_to
from oracles import enumerate_paths

seeds = st.integers(0, 10**6)


def _setup(seed):
    rng = random.Random(seed)
    G = random_graph(rng)
    return rng, G


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_hereditary_closure_properties(seed):
    rng, G = _setup(seed)
    S = {v for v in G.vertices if rng.random() < 0.4}
    vs = gk.hereditary_closure(G, S)
    assert S <= vs.members
    assert vs.hereditary
    A = G.matrix
    for v in vs.members:
        for j in np.nonzero(A[G.index[v]])[0]:
            assert G.vertices[int(j)] in vs.members
    again = gk.hereditary_closure(G, vs.members)
    assert again.members == vs.members


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_saturation_properties(seed):
    rng, G = _setup(seed)
    S = {v for v in G.vertices if rng.random() < 0.3}
    H = gk.hereditary_closure(G, S)
    sat = gk.saturation(G, H)
    assert H.members <= sat.members
    assert sat.hereditary and sat.saturated
    A = G.matrix
    inside = sat.members
    for i, v in enumerate(G.vertices):
        if v in inside or not A[i].any():
            continue
        srcs = {G.vertices[int(j)] for j in np.nonzero(A[i])[0]}
        assert not srcs <= inside, f"{v} should have been swallowed"
    assert gk.saturation(G, sat).members == sat.members


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_seneta_order_properties(seed):
    _, G = _setup(seed)
    order = gk.seneta_order(G)
    assert sorted(c.id for c in order) == sorted(c.id for c in G.components)
    perm = [G.index[v] for c in order for v in c.members]
    P = G.matrix[np.ix_(perm, perm)]
    pos = 0
    blocks = []
    for c in order:
        blocks.append((pos, pos + len(c.members)))
        pos += len(c.members)
    for i, (r0, r1) in enumerate(blocks):
        for j, (c0, c1) in enumerate(blocks):
            if i > j:
                assert not P[r0:r1, c0:c1].any()


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_seneta_order_matches_repeated_minimum(seed):
    # Trivial components below no cycle first, then the rest; within each
    # group, repeatedly the minimal remaining component (no other remaining
    # one lies below it) with the smallest vertex index.
    G = random_graph(random.Random(seed), max_vertices=10, max_mult=2)
    comps = G.components
    below = {
        c.id: [d for d in comps if d.id != c.id and talks_to(G, d, c)]
        for c in comps
    }
    first = [c for c in comps
             if c.perron_vector is None and all(d.perron_vector is None for d in below[c.id])]
    rest = [c for c in comps if c not in first]
    expected = []
    for group in (first, rest):
        remaining = list(group)
        while remaining:
            minimal = [c for c in remaining
                       if not any(d in remaining for d in below[c.id])]
            pick = min(minimal, key=lambda c: G.index[c.members[0]])
            expected.append(pick)
            remaining.remove(pick)
    assert [c.id for c in gk.seneta_order(G)] == [c.id for c in expected]


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_talks_to_is_a_preorder(seed):
    _, G = _setup(seed)
    comps = G.components
    for c in comps:
        assert talks_to(G, c, c)
    for a in comps:
        for b in comps:
            for c in comps:
                if talks_to(G, a, b) and talks_to(G, b, c):
                    assert talks_to(G, a, c)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_radius_is_max_over_components(seed):
    _, G = _setup(seed)
    per_comp = [G.spectral_radii[c.id] for c in G.components if c.perron_vector is not None]
    expected = max(per_comp, default=0.0)
    assert math.isclose(
        spectral.spectral_radius(G.matrix), expected, rel_tol=0, abs_tol=1e-9
    )


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_quotient_matrix_is_a_restriction(seed):
    rng, G = _setup(seed)
    S = {v for v in G.vertices if rng.random() < 0.3}
    H = gk.hereditary_closure(G, S)
    if len(H.members) == len(G.vertices):
        return
    Q = quotient_graph(G, H)
    kept = [G.index[v] for v in Q.vertices]
    assert np.array_equal(Q.matrix, G.matrix[np.ix_(kept, kept)])


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_path_count_matches_enumeration(seed):
    rng, G = _setup(seed)
    v = rng.choice(G.vertices)
    for w in G.vertices:
        for n in range(4):
            assert path_count(G, v, w, n) == len(enumerate_paths(G, v, w, n))


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_H_nested_in_K_and_cases_line_up(seed):
    rng, G = _setup(seed)
    rho = spectral.spectral_radius(G.matrix)
    beta = rng.uniform(0.0, (math.log(rho) if rho > 1 else 0.5) + 1.0)
    H = gk.H_beta(G, beta)
    K = gk.K_beta(G, beta)
    assert H.members <= K.members
    sx = gk.kms_simplex(G, beta)
    if sx.case == "Empty":
        assert H.members == frozenset(G.vertices)
        assert sx.extremes == ()
    elif sx.case == "Subcritical":
        assert K.members == H.members
    for state in sx.extremes:
        assert all(state.m.get(v, 0.0) <= 1e-9 for v in H.members)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_simplexes_survive_full_verification(seed):
    rng, G = _setup(seed)
    betas = list(gk.critical_temperatures(G))
    rho = spectral.spectral_radius(G.matrix)
    top = math.log(rho) if rho > 1 else 0.0
    betas.append(top + 0.5)
    betas.append(rng.uniform(0.05, top + 1.0))
    for beta in betas:
        sx = gk.kms_simplex(G, beta)
        assert oracle.verify_simplex(G, sx) == [], (seed, beta)


# The README's tolerance band for comparisons against critical values.
TOL = 1e-9


def _sweep_betas(G):
    """Every critical temperature plus the acceptance sweep's 20-point grid."""
    rho = spectral.spectral_radius(G.matrix)
    top = math.log(rho) + 0.5 if rho > 1.0 + TOL else 1.0
    grid = [float(b) for b in np.linspace(0.05, top, 20)]
    return list(gk.critical_temperatures(G)) + grid


# Exact ties between log radii.  (a) Equal loops in series, a1 -> a2 -> a3:
# the closure of a3 holds the others, so only a3 is minimal.  (b) Equal
# loops in parallel, b1 -> b0 <- b2: both are minimal.  (c) c2 -> c1, where
# the closure of the radius-2 loop c1 holds the radius-3 loop c2: each is
# minimal at its own critical value.
TIED = gk.parse_graph("""
vertices: a1 a2 a3 b0 b1 b2 c1 c2
edge a1 a1 2
edge a2 a2 2
edge a3 a3 2
edge a1 a2
edge a2 a3
edge b1 b1 2
edge b2 b2 2
edge b1 b0
edge b2 b0
edge c1 c1 2
edge c2 c2 3
edge c2 c1
""")
# ln 3 is the only critical value, yet ln rho_u = ln 2 >= beta - TOL flips
# between beta = 0.5 and 0.8; only divergence_u = ln 3 <= beta + TOL, false
# at both, keeps the regime the same.
MASKED = gk.parse_graph("""
vertices: u v
edge u u 2
edge v v 3
edge u v
""")


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_H_and_K_are_closures_of_components_by_log_radius(seed):
    for G in (_setup(seed)[1], TIED):
        _check_regimes(G)


def _check_regimes(G):
    comps = G.components
    ln = {c.id: math.log(G.spectral_radii[c.id]) for c in comps if c.perron_vector is not None}
    closure = {c.id: gk.hereditary_closure(G, c.members).members for c in comps}
    for beta in _sweep_betas(G):
        bval = gk.beta_value(G, beta)
        above = [v for c in comps if ln.get(c.id, -math.inf) > bval + TOL
                 for v in c.members]
        reached = [v for c in comps if ln.get(c.id, -math.inf) >= bval - TOL
                   for v in c.members]
        reg = gk.kms.regime(G, beta)
        for got, names in ((reg.H_beta, above), (reg.K_beta, reached)):
            ref = gk.hereditary_closure(G, names)
            assert (got.members, got.hereditary, got.saturated) == (
                ref.members, ref.hereditary, ref.saturated
            )
        # Minimal critical components, pairwise: the critical components
        # (left outside H_beta, ln rho within TOL of beta) whose members lie
        # in the closure of no other critical component.
        crit = [c.id for c in comps if c.id in ln and ln[c.id] >= bval - TOL
                and c.members[0] not in reg.H_beta.members]
        minimal = tuple(c for c in crit if not any(
            d != c and comps[c].members[0] in closure[d] for d in crit
        ))
        assert reg.minimal_critical == minimal, (beta, crit)
        # Quotient sources, vertex by vertex: outside the saturation of
        # K_beta and receiving no edge from outside it.
        sat = gk.saturation(G, reg.K_beta).members
        sources = {
            v for v in G.vertices if v not in sat and not any(
                G.matrix[G.index[v], G.index[w]] for w in G.vertices if w not in sat
            )
        }
        assert reg.sources == (sources if reg.outside else frozenset())


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_beta_v_is_the_largest_log_radius_below_v(seed):
    _, G = _setup(seed)
    for v in G.vertices:
        here = G.component_of(v)
        below = [math.log(G.spectral_radii[c.id]) for c in G.components
                 if c.perron_vector is not None and talks_to(G, c, here)]
        assert gk.beta_v(G, v) == max(below, default=None)


def _fresh(G):
    """A newly parsed copy of G, with nothing cached on it."""
    lines = ["vertices: " + " ".join(G.vertices)]
    lines += [f"edge {e.source} {e.range} {e.multiplicity}" for e in G.edges]
    return gk.parse_graph("\n".join(lines))


def _regime_fields(reg):
    out = {}
    for f in dataclasses.fields(reg):
        value = getattr(reg, f.name)
        if isinstance(value, gk.VertexSet):
            value = (value.members, value.hereditary, value.saturated)
        out[f.name] = value
    return out


def _edge_betas(G):
    """Betas at and around every place where beta - TOL or beta + TOL meets
    a finite divergence, strict divergence or ln rho value of G: the value
    plus {0, 1/2, 1, 3/2, 2, 3} TOL either way, and one ulp either side of
    value -+ TOL."""
    values = np.concatenate((G.divergence, G.strict_divergence, G.ln_spectral_radii))
    betas = set()
    for v in set(values[np.isfinite(values)].tolist()):
        betas.update(v + k * TOL for k in (-3, -2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3))
        for edge in (v - TOL, v + TOL):
            betas.update((math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)))
    return sorted(betas)


def _check_reuse(graph, order, rng):
    """Regimes, measures and verify lists of one graph reused across a beta
    grid in the given order equal those of a fresh copy per beta."""
    nontrivial = [gk.CriticalOf(c.id) for c in graph.components if c.perron_vector is not None]
    betas = _sweep_betas(graph) + _edge_betas(graph) + nontrivial
    betas.sort(key=lambda b: gk.beta_value(graph, b))
    if order == "descending":
        betas.reverse()
    elif order == "shuffled":
        rng.shuffle(betas)
    for beta in betas:
        fresh = _fresh(graph)
        assert _regime_fields(gk.kms.regime(graph, beta)) == _regime_fields(
            gk.kms.regime(fresh, beta)
        ), beta
        sx, ref = gk.kms_simplex(graph, beta), gk.kms_simplex(fresh, beta)
        assert sx.measures.tobytes() == ref.measures.tobytes(), beta
        assert oracle.verify_simplex(graph, sx) == oracle.verify_simplex(fresh, ref)
        cuts, memo = graph._memo["regimes"]
        assert len(memo) <= 2 * len(cuts) + 1
    # Every divergence and strict divergence value is a cut.
    values = np.concatenate((graph.divergence, graph.strict_divergence))
    assert set(values[np.isfinite(values)].tolist()) <= set(cuts)


ORDERS = ["ascending", "descending", "shuffled"]


@given(seeds, st.sampled_from(ORDERS))
@settings(max_examples=40, deadline=None)
def test_regimes_reused_on_one_graph_match_a_fresh_graph_per_beta(seed, order):
    rng, G = _setup(seed)
    _check_reuse(G, order, rng)


@pytest.mark.parametrize("order", ORDERS)
def test_regimes_reused_on_tied_graphs_match_a_fresh_graph_per_beta(order):
    for text in GRAPHS.values():
        _check_reuse(gk.parse_graph(text), order, random.Random(5))
    _check_reuse(_fresh(TIED), order, random.Random(5))
    _check_reuse(_fresh(MASKED), order, random.Random(5))
