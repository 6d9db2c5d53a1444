"""The graph layer runs on arc arrays: equal to a dense reference, and it
never builds the vertex matrix.

The reference below reads ``G.matrix`` with the dense logic the graph layer
used before it held arcs: one ``np.nonzero`` split by row for the successor
lists, dense gathers for the Perron blocks, ``any`` over rows and columns
for closure flags, saturation and sources.
"""

import heapq
import math
import random
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

import graphkms as gk
from graphkms import kms, spectral
from graphkms._scc import tarjan_sccs

# -- the dense reference ----------------------------------------------------------


def _dense_components(A):
    """(member rows, trivial, radius, Perron vector, period) per canonical id."""
    rows, cols = np.nonzero(A)
    ends = np.cumsum(np.bincount(rows, minlength=A.shape[0])).tolist()
    cols = cols.tolist()
    succ = [cols[a:b] for a, b in zip([0] + ends, ends)]
    blocks = sorted((sorted(c) for c in tarjan_sccs(succ)), key=lambda r: r[0])
    comp = np.zeros(A.shape[0], dtype=np.int64)
    for cid, block in enumerate(blocks):
        comp[block] = cid
    out = []
    for cid, block in enumerate(blocks):
        sub = A[np.ix_(block, block)]
        if len(block) == 1 and not sub[0, 0]:
            out.append((block, True, 0.0, None, 0))
            continue
        data = spectral.analyze_irreducible(sub)
        out.append((block, False, data.radius, data.perron_vector.tolist(), None))
    # Periods: breadth-first levels inside each block over np.nonzero(A).
    u, w = np.nonzero(A)
    inner = comp[u] == comp[w]
    u, w = u[inner], w[inner]
    level = np.full(A.shape[0], -1)
    level[[b[0] for b in blocks]] = 0
    depth = 0
    while True:
        step = (level[u] == depth) & (level[w] == -1)
        if not step.any():
            break
        depth += 1
        level[w[step]] = depth
    periods = np.zeros(len(blocks), dtype=np.int64)
    np.gcd.at(periods, comp[u], level[u] + 1 - level[w])
    return [(b, t, r, x, int(p)) for (b, t, r, x, _), p in zip(out, periods)], comp


def _dense_reach(A):
    """reach[i, j]: a path (of length >= 0) with range i and source j."""
    reach = np.eye(A.shape[0], dtype=bool) | (A > 0)
    while True:
        nxt = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if (nxt == reach).all():
            return reach
        reach = nxt


def _dense_divergence(A, comps):
    """divergence and strict divergence per component, from reachability."""
    reach = _dense_reach(A)
    top, strict = [], []
    for cid, (block, *_rest) in enumerate(comps):
        # D <= C: C lies in the hereditary closure of D.
        above = [d for d, (b, trivial, *_r) in enumerate(comps)
                 if not trivial and reach[b[0], block[0]]]
        lns = {d: math.log(comps[d][2]) for d in above}
        top.append(max(lns.values(), default=-math.inf))
        strict.append(max((v for d, v in lns.items() if d != cid), default=-math.inf))
    return top, strict


def _dense_seneta(A, comp, top):
    late = [t != -math.inf for t in top]
    rng, src = np.nonzero(A)
    cross = comp[rng] != comp[src]
    arcs = set(zip(comp[src[cross]].tolist(), comp[rng[cross]].tolist()))
    pending = [0] * len(top)
    preds = [[] for _ in top]
    for up, down in arcs:
        pending[up] += 1
        preds[down].append(up)
    heap = [(late[i], i) for i in range(len(top)) if pending[i] == 0]
    heapq.heapify(heap)
    ordered = []
    while heap:
        _, i = heapq.heappop(heap)
        ordered.append(i)
        for up in preds[i]:
            pending[up] -= 1
            if pending[up] == 0:
                heapq.heappush(heap, (late[up], up))
    return ordered


def _dense_closure(A, start):
    seen = set(start)
    work = list(seen)
    while work:
        i = work.pop()
        for j in np.nonzero(A[i])[0].tolist():
            if j not in seen:
                seen.add(j)
                work.append(j)
    mask = np.zeros(A.shape[0], dtype=bool)
    mask[list(seen)] = True
    return mask


def _dense_swallowed(A, inside):
    return ~inside & A.any(axis=1) & ~A[:, ~inside].any(axis=1)


def _dense_saturation(A, inside):
    inside = inside.copy()
    new = _dense_swallowed(A, inside)
    while new.any():
        inside |= new
        new = _dense_swallowed(A, inside)
    return inside


def _dense_flags(A, inside):
    return (not A[np.ix_(inside, ~inside)].any(), not _dense_swallowed(A, inside).any())


def _dense_quotient_sources(A, in_K):
    """Sources of the quotient by the saturation of K_beta."""
    keep = ~_dense_saturation(A, in_K)
    return keep & ~A[:, keep].any(axis=1)


# -- graphs -----------------------------------------------------------------------


def _graph_lines(rng: random.Random):
    """Up to 8 vertices; some edge lines repeated, some with no multiplicity."""
    n = rng.randint(1, 8)
    names = [f"x{i}" for i in range(n)]
    lines = []
    for s in names:
        for r in names:
            if rng.random() < 0.25:
                lines.append((s, r, rng.choice([None, 1, 2, 3])))
    lines += [rng.choice(lines) for _ in range(rng.randint(0, 3))] if lines else []
    rng.shuffle(lines)
    return names, lines


def _text(names, lines):
    body = [f"edge {s} {r}" + ("" if m is None else f" {m}") for s, r, m in lines]
    return "\n".join(["vertices: " + " ".join(names)] + body) + "\n"


def _check_against_dense(G, names, lines, rng):
    A = G.matrix
    # Edge lines: order, repeated lines and multiplicities as written.
    assert G.edges == tuple(gk.Edge(s, r, 1 if m is None else m) for s, r, m in lines)
    dense = np.zeros_like(A)
    for s, r, m in lines:
        dense[G.index[r], G.index[s]] += 1 if m is None else m
    assert (A == dense).all()

    comps, comp = _dense_components(A)
    assert len(G.components) == len(comps)
    for c, (block, trivial, radius, vec, period) in zip(G.components, comps):
        assert c.members == tuple(names[i] for i in block)
        assert (c.perron_vector is None, G.spectral_radii[c.id], c.period) == (
            trivial, radius, period)
        assert (c.perron_vector is None) == (vec is None)
        if vec is not None:
            assert list(c.perron_vector.values()) == vec
    assert (G.vertex_components == comp).all()
    top, strict = _dense_divergence(A, comps)
    assert list(G.divergence) == top
    assert list(G.strict_divergence) == strict
    order = [c.id for c in gk.seneta_order(G)]
    assert order == _dense_seneta(A, comp, top)
    # The condensation: one arc per distinct (row, column) pair of components
    # joined by a vertex arc, counting those arcs; its rows come first in
    # the Seneta order.
    cond = G._analysis()[6]
    rows, cols = np.nonzero(A)
    pairs = {}
    for r, c in zip(comp[rows].tolist(), comp[cols].tolist()):
        if r != c:
            pairs[r, c] = pairs.get((r, c), 0) + 1
    assert sorted(pairs) == list(zip(cond.rng.tolist(), cond.src.tolist()))
    assert cond.mult.tolist() == [pairs[p] for p in sorted(pairs)]
    assert cond.n == len(G.components)
    place = {cid: k for k, cid in enumerate(order)}
    assert all(place[r] < place[c] for r, c in pairs)

    assert gk.sources(G) == {v for i, v in enumerate(names) if not A[i].any()}
    for _ in range(4):
        inside = np.array([rng.random() < 0.4 for _ in names])
        vs = G.vertex_set(inside)
        assert (vs.hereditary, vs.saturated) == _dense_flags(A, inside)
        closure = _dense_closure(A, np.flatnonzero(inside).tolist())
        got = gk.hereditary_closure(G, vs.members)
        assert got.members == {v for v, x in zip(names, closure) if x}
        assert (got.hereditary, got.saturated) == _dense_flags(A, closure)
        sat = _dense_saturation(A, closure)
        assert gk.saturation(G, got).members == {v for v, x in zip(names, sat) if x}

    for spec in kms.critical_temperatures(G) + [0.2, 1.3]:
        reg = kms.regime(G, spec)
        in_H = np.array([v in reg.H_beta.members for v in names])
        in_K = np.array([v in reg.K_beta.members for v in names])
        assert reg.H_beta.saturated == _dense_flags(A, in_H)[1]
        assert reg.K_beta.saturated == _dense_flags(A, in_K)[1]
        if reg.outside:
            expect = _dense_quotient_sources(A, in_K)
            assert reg.sources == {v for v, x in zip(names, expect) if x}


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_graph_layer_matches_the_dense_reference(seed):
    rng = random.Random(seed)
    names, lines = _graph_lines(rng)
    _check_against_dense(gk.parse_graph(_text(names, lines)), names, lines, rng)


def test_repeated_edge_lines_match_the_dense_reference():
    names = ["a", "b", "c"]
    lines = [("a", "b", 2), ("b", "a", None), ("a", "b", None), ("c", "c", 3),
             ("b", "a", 4), ("a", "c", None), ("a", "b", 2)]
    G = gk.parse_graph(_text(names, lines))
    assert len(G.edges) == 7
    assert G.arcs.mult.tolist() == [5, 5, 1, 3]
    _check_against_dense(G, names, lines, random.Random(0))


# -- the graph layer at scale -----------------------------------------------------

# Blocks of a chain: (vertex count, internal edges (source, range, mult)).
_LOOP = (1, ((0, 0, 1),))
_PAIR = (2, ((0, 1, 1), (1, 0, 2)))
_TRIANGLE = (3, ((0, 1, 1), (1, 2, 1), (2, 0, 2)))


def _chain_text(blocks: int, rng: random.Random) -> str:
    """A line of small cyclic blocks, each feeding the next.  Four segments
    end in loops of multiplicity 6, 5, 4, 3, so there are four criticals."""
    names, edges, groups = [], [], []
    for b in range(blocks):
        segment, last = divmod(b + 1, blocks // 4)
        size, inner = (1, ((0, 0, 6 - segment + 1),)) if last == 0 else rng.choice(
            (_LOOP, _PAIR, _TRIANGLE))
        group = [f"b{b}_{i}" for i in range(size)]
        groups.append(group)
        names += group
        edges += [(group[s], group[r], m) for s, r, m in inner]
    edges += [(rng.choice(groups[b]), rng.choice(groups[b + 1]), 1) for b in range(blocks - 1)]
    lines = ["vertices: " + " ".join(names)] + [f"edge {s} {r} {m}" for s, r, m in edges]
    return "\n".join(lines) + "\n"


def test_graph_layer_never_builds_the_dense_matrix():
    text = _chain_text(4000, random.Random(7))
    tracemalloc.start()
    try:
        G = gk.parse_graph(text)
        comps = G.components
        order = gk.seneta_order(G)
        criticals = kms.critical_temperatures(G)
        regimes = [kms.regime(G, spec) for spec in criticals]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(G.vertices)
    assert n > 6000 and len(comps) == len(order) == 4000
    # One condensation arc per link; the block fed comes before its feeder.
    cond = G._analysis()[6]
    place = np.empty(len(order), dtype=np.int64)
    place[[c.id for c in order]] = np.arange(len(order))
    assert cond.rng.size == 3999 and (place[cond.rng] < place[cond.src]).all()
    assert [round(math.exp(kms.beta_value(G, c))) for c in criticals] == [3, 4, 5, 6]
    assert all(reg.case == kms.CRITICAL for reg in regimes)
    # A dense int64 vertex matrix alone would take n * n * 8 bytes (> 280 MB).
    assert G._matrix is None
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
