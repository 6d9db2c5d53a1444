"""Independent reference routes that the tests pit against graphkms.

The package never calls anything here: the library computes y, z and the
measures by dense solves in ``graphkms.spectral``, and ``--verify`` runs
``graphkms.oracle.verify_simplex``.  These routes recompute the same
quantities the naive way, from the paths themselves (``enumerate_paths``
over ``edge_instances``) or from partial sums stopped by a measured
geometric tail bound (``series_y_oracle``, ``quick_exit_series_oracle``).
They share none of the library's solve code, so an assertion that compares
the two checks one route by another rather than a routine by itself.
"""

from __future__ import annotations

import math

import numpy as np

from graphkms import kms
from graphkms.graph import Component, DirectedGraph, hereditary_closure
from graphkms.spectral import ConvergenceError

MAX_TERMS = 10**6


def edge_instances(G: DirectedGraph) -> list[tuple[str, str, int]]:
    """Parallel edges expanded into distinct ``(source, range, copy)`` triples."""
    totals: dict[tuple[str, str], int] = {}
    for e in G.edges:
        key = (e.source, e.range)
        totals[key] = totals.get(key, 0) + e.multiplicity
    out = []
    for (s, r), total in totals.items():
        out.extend((s, r, k) for k in range(total))
    return out


def enumerate_paths(G: DirectedGraph, v: str, w: str, n: int) -> list:
    """All paths of length n with range v and source w, parallel edges distinct.

    A length-zero path is the vertex name itself; longer paths are tuples of
    (source, range, copy) triples ordered from the range end to the source
    end.  Guarded at n <= 12 since the count grows exponentially.
    """
    if n > 12:
        raise ValueError("path enumeration is capped at length 12")
    if n < 0:
        raise ValueError("path length must be nonnegative")
    for name in (v, w):
        if name not in G.index:
            raise ValueError(f"unknown vertex: {name}")
    if n == 0:
        return [v] if v == w else []
    by_range: dict[str, list[tuple[str, str, int]]] = {}
    for e in edge_instances(G):
        by_range.setdefault(e[1], []).append(e)
    out: list[tuple] = []
    stack: list[tuple[tuple, str]] = [((), v)]
    while stack:
        prefix, tip = stack.pop()
        if len(prefix) == n:
            if tip == w:
                out.append(prefix)
            continue
        for e in by_range.get(tip, ()):
            stack.append((prefix + (e,), e[0]))
    return out


def _sum_tail_bounded(terms, tol: float) -> float:
    """Accumulate nonnegative terms until a measured geometric tail clears tol.

    The recent term ratios (inflated by a safety factor) bound the remaining
    mass; exact-zero streaks terminate immediately.
    """
    total = 0.0
    prev = None
    window: list[float] = []
    for count, term in enumerate(terms):
        total += term
        if prev is not None:
            window.append(term / prev if prev > 0 else 0.0)
            window = window[-4:]
        prev = term
        if count >= 5 and window:
            ratio = max(window) * 1.05 + 1e-6
            if ratio < 1.0 and term * ratio / (1.0 - ratio) < tol:
                return total
        if count >= MAX_TERMS:
            break
    raise ConvergenceError("series oracle did not settle under the tolerance")


def series_y_oracle(G: DirectedGraph, beta: float, v: str, tol: float = 1e-9) -> float:
    """y_v by direct partial sums of e^{-beta n} (number of length-n paths from v).

    Requires beta to clear beta_v by the 0.05 safety margin so the geometric
    tail estimate is trustworthy.
    """
    if v not in G.index:
        raise ValueError(f"unknown vertex: {v}")
    bv = kms.beta_v(G, v)
    if bv is not None and beta <= bv + 0.05 - 1e-12:
        raise ValueError("beta too close to divergence for the series oracle")
    A = G.matrix
    decay = math.exp(-beta)

    def terms():
        col = np.zeros(len(G.vertices))
        col[G.index[v]] = 1.0
        weight = 1.0
        while True:
            yield weight * float(col.sum())
            col = A @ col
            weight *= decay

    return _sum_tail_bounded(terms(), tol)


def quick_exit_series_oracle(
    G: DirectedGraph, C: Component, v: str, tol: float = 1e-9
) -> float:
    """z^C_v by summing rho^{-|lambda|} x_{s(lambda)} over quick-exit paths.

    A quick-exit path is mu followed by one edge out of C, with mu staying
    outside the hereditary closure of the minimal critical components; the
    sum is organised by the length of mu.
    """
    if v not in G.index:
        raise ValueError(f"unknown vertex: {v}")
    mc = kms.minimal_critical_components(G)
    if C.id not in {c.id for c in mc} or G.components[C.id].members != C.members:
        raise ValueError("component is not minimal critical in this graph")
    closure_members = hereditary_closure(G, [w for c in mc for w in c.members]).members
    if v in closure_members:
        raise ValueError(f"{v} lies inside the closure of the critical components")
    outside = [i for i, w in enumerate(G.vertices) if w not in closure_members]
    pos = {i: p for p, i in enumerate(outside)}
    A = G.matrix
    M = A[np.ix_(outside, outside)]
    c_idx = [G.index[w] for w in C.members]
    x = np.array([C.perron_vector[w] for w in C.members])
    rho = G.spectral_radii[C.id]
    row = pos[G.index[v]]

    def terms():
        # exit[u] sums x-weighted single edges from C into the outside part;
        # each extra M application prepends one edge of mu.
        vec = A[np.ix_(outside, c_idx)] @ x
        weight = 1.0 / rho
        while True:
            yield weight * float(vec[row])
            vec = M @ vec
            weight /= rho

    return _sum_tail_bounded(terms(), tol)
