"""Shared worked-example graphs, a seeded random graph generator, the exact
graph references the tests check against, and selectors of single states
from the KMS simplex."""

import random

import pytest

import graphkms as gk
from graphkms import parse_graph
from graphkms.graph import Component, DirectedGraph, VertexSet, _members_of, hereditary_closure

# The regression corpus. Comments give the loop structure; all expected
# numbers in the tests below are derived from these matrices by hand.
GRAPHS = {
    # two loop vertices, edge from the rho=3 vertex into the rho=2 vertex
    "pair_toward_large": """\
vertices: v w
edge v v 2
edge w w 3
edge v w
""",
    # same loops, edge reversed: w feeds v
    "pair_toward_small": """\
vertices: v w
edge v v 2
edge w w 3
edge w v
""",
    # v (2-loop) fed by an irreducible pair {w,u} with rho = 1+sqrt(5)
    "golden_feeder": """\
vertices: v w u
edge v v 2
edge w v
edge w w 2
edge u w 2
edge w u 2
""",
    # chain w -> u2 -> v with an extra source u1 -> v
    "two_sources_chain": """\
vertices: u1 v u2 w
edge w u2
edge u2 v
edge u1 v
edge v v 2
edge w w 3
""",
    # same chain but v feeds u1, turning u1 into a sink of the chain
    "reversed_tail": """\
vertices: u1 v u2 w
edge w u2
edge u2 v
edge v u1
edge v v 2
edge w w 3
""",
    # reversed_tail plus a fresh source u3 above u1
    "persistent_source": """\
vertices: u3 u1 v u2 w
edge w u2
edge u2 v
edge v u1
edge v v 2
edge w w 3
edge u3 u1
""",
    # two incomparable 2-loop components v, w over a common 1-loop u
    "twin_minimal": """\
vertices: u v w x
edge x v
edge x w
edge w u
edge v u
edge x x 2
edge v v 2
edge w w 2
edge u u
""",
}


def example(name):
    return parse_graph(GRAPHS[name])


@pytest.fixture
def graph_file(tmp_path):
    """Write a named example (or raw text) to disk and return the path."""

    def write(name_or_text, filename="graph.txt"):
        text = GRAPHS.get(name_or_text, name_or_text)
        path = tmp_path / filename
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def random_graph(rng: random.Random, max_vertices: int = 6, max_mult: int = 3):
    """Small random multigraph; density tuned to mix cyclic and acyclic."""
    n = rng.randint(1, max_vertices)
    names = [f"x{i}" for i in range(n)]
    lines = ["vertices: " + " ".join(names)]
    for s in names:
        for r in names:
            if rng.random() < 0.28:
                lines.append(f"edge {s} {r} {rng.randint(1, max_mult)}")
    return parse_graph("\n".join(lines))


# -- exact graph references ----------------------------------------------------


def path_count(G: DirectedGraph, v: str, w: str, n: int) -> int:
    """Exact number of paths of length ``n`` with range ``v`` and source ``w``.

    Computed over Python integers, so the count never overflows.
    """
    if n < 0:
        raise ValueError("path length must be nonnegative")
    i, j = G.index[v], G.index[w]
    if n == 0:
        return 1 if i == j else 0
    size = len(G.vertices)
    base = [[0] * size for _ in range(size)]
    for r, s, m in zip(G.arcs.rng.tolist(), G.arcs.src.tolist(), G.arcs.mult.tolist()):
        base[r][s] = m

    def mul(X, Y):
        return [
            [sum(X[a][k] * Y[k][b] for k in range(size)) for b in range(size)]
            for a in range(size)
        ]

    result = None
    power = base
    m = n
    while m:
        if m & 1:
            result = power if result is None else mul(result, power)
        m >>= 1
        if m:
            power = mul(power, power)
    return result[i][j]


def talks_to(G: DirectedGraph, C: Component, D: Component) -> bool:
    """True when there is a path with range in C and source in D.

    This is the component order ``C <= D``; it is reflexive via the length
    zero paths at each vertex.
    """
    comps = G.components
    for comp in (C, D):
        if comp.id >= len(comps) or comps[comp.id].members != comp.members:
            raise ValueError("component does not belong to this graph")
    return D.members[0] in hereditary_closure(G, C.members).members


def quotient_graph(G: DirectedGraph, H) -> DirectedGraph:
    """The graph on ``E^0 \\ H`` keeping the edges whose source survives.

    ``H`` must be hereditary, which guarantees the kept edges also have their
    range outside ``H``.
    """
    vs = H if isinstance(H, VertexSet) else G.vertex_set(_members_of(H))
    if not vs.hereditary:
        raise ValueError("quotients are only defined for hereditary sets")
    kept = [v for v in G.vertices if v not in vs.members]
    if not kept:
        raise ValueError("quotient by the full vertex set is empty")
    edges = [e for e in G.edges if e.source not in vs.members]
    return DirectedGraph(kept, edges)


# -- single states, selected from the simplex ------------------------------------


def _top_simplex(G):
    """The simplex at the largest critical temperature, where H_beta is empty."""
    criticals = gk.critical_temperatures(G)
    if not criticals:
        raise ValueError("an acyclic graph has no critical components")
    return gk.kms_simplex(G, criticals[-1])


def _psi_of(sx, C):
    key = (C.id, C.members)
    for s in sx.extremes:
        if isinstance(s.label, gk.PsiC) and (s.label.component.id, s.label.component.members) == key:
            return s
    raise ValueError("component is not minimal critical in this graph")


def psi_state(G, C):
    """psi_C: the PsiC extreme of the simplex at the top critical value."""
    return _psi_of(_top_simplex(G), C)


def phi_state(G, beta, v):
    """phi_{beta,v}: the PhiBetaV extreme of the simplex at beta for v."""
    if v not in G.index:
        raise ValueError(f"unknown vertex: {v}")
    for s in gk.kms_simplex(G, beta).extremes:
        if isinstance(s.label, gk.PhiBetaV) and s.label.vertex == v:
            return s
    raise ValueError(f"phi state undefined: beta must exceed beta_v for vertex {v}")


def z_of(G, C):
    """The quick-exit vector z^C, read off psi_C: m_v / sum_{w in C} m_w
    over the vertices outside K_beta at the top critical value."""
    sx = _top_simplex(G)
    m = _psi_of(sx, C).m
    mass = sum(m[w] for w in C.members)
    return {v: m[v] / mass for v in G.vertices if v not in sx.K_beta.members}
