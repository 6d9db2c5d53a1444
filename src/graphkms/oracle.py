"""Brute-force series and path enumerations backing the closed forms.

Deliberately naive: every value here is recomputed from path counts or
partial sums with explicit tail control, independently of the dense solves
in the spectral module, so tests can pit the two routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kms
from .graph import Component, DirectedGraph, edge_instances
from .spectral import ConvergenceError

MAX_TERMS = 10**6


@dataclass(frozen=True, eq=False)
class PathEnumeration:
    """Exhaustive paths up to a length bound plus the mass left uncounted."""

    paths: tuple
    length_bound: int
    tail_bound: float


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


def collect_paths(
    G: DirectedGraph, v: str, w: str, length_bound: int, beta: float | None = None
) -> PathEnumeration:
    """Paths between v and w of every length up to the bound.

    With a beta, the tail bound is the crude geometric estimate
    (#edge instances * e^-beta)^(L+1)/(1-q); infinite when that ratio is not
    below 1 or no beta is given.
    """
    paths: list = []
    for n in range(length_bound + 1):
        paths.extend(enumerate_paths(G, v, w, n))
    tail = math.inf
    if beta is not None:
        q = len(edge_instances(G)) * math.exp(-beta)
        if q < 1.0:
            tail = q ** (length_bound + 1) / (1.0 - q)
    return PathEnumeration(paths=tuple(paths), length_bound=length_bound, tail_bound=tail)


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
    A = G.matrix.astype(float)
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
    mc = kms.minimal_critical_components(G)
    ids = {c.id for c in mc}
    if C.id not in ids or G.components[C.id].members != C.members:
        raise ValueError("component is not minimal critical in this graph")
    closure_ids = set()
    for i in ids:
        closure_ids |= G.reachable_components(i)
    closure_members = {
        w for i in closure_ids for w in G.components[i].members
    }
    if v in closure_members:
        raise ValueError(f"{v} lies inside the closure of the critical components")
    outside = [i for i, w in enumerate(G.vertices) if w not in closure_members]
    pos = {i: p for p, i in enumerate(outside)}
    A = G.matrix.astype(float)
    M = A[np.ix_(outside, outside)]
    c_idx = [G.index[w] for w in C.members]
    x = np.array([C.perron_vector[w] for w in C.members])
    rho = C.spectral_radius
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


def subinvariance_check(G: DirectedGraph, beta, m) -> bool:
    """Does A m <= e^beta m hold entrywise (within 1e-9)?"""
    bval = kms.beta_value(G, _spec_or_float(beta))
    vec = _as_vector(G, m)
    lhs = G.matrix.astype(float) @ vec
    return bool(np.all(lhs <= math.exp(bval) * vec + 1e-9))


def path_measure_atom(G: DirectedGraph, state: kms.StateMeasure, path) -> float:
    """nu({path}): the diagonal measure mass sitting on the path itself.

    Computed from the defining difference eval(path) minus the sum of eval
    over its one-edge extensions; zero exactly when the state charges no
    finite path ending there.
    """
    total = kms.eval_state(state, path, path)
    src = path if isinstance(path, str) else path[-1][0]
    row = G.matrix[G.index[src]]
    for j in np.nonzero(row)[0]:
        for k in range(int(row[j])):
            e = (G.vertices[j], src, k)
            ext = (path + (e,)) if isinstance(path, tuple) else (e,)
            total -= kms.eval_state(state, ext, ext)
    return total


def _spec_or_float(beta):
    if isinstance(beta, (kms.Numeric, kms.CriticalOf)):
        return beta
    return float(beta)


def _as_vector(G: DirectedGraph, m) -> np.ndarray:
    if isinstance(m, dict):
        unknown = set(m) - set(G.vertices)
        if unknown:
            raise ValueError(f"unknown vertices in measure: {sorted(unknown)}")
        return np.array([float(m.get(v, 0.0)) for v in G.vertices])
    vec = np.asarray(m, dtype=float)
    if vec.shape != (len(G.vertices),):
        raise ValueError("measure length does not match the vertex count")
    return vec


def verify_simplex(G: DirectedGraph, simplex, series_margin: float = 0.05) -> list[str]:
    """Run every consistency check on a simplex; returns failure descriptions.

    Checks: normalization, nonnegativity, subinvariance, vanishing on H_beta,
    the exact eigen-identity for psi states, solve-vs-series agreement on the
    resolvent (when beta clears the quotient radius by the margin), and
    path-measure atoms at non-source path-sources for psi states.
    """
    from . import spectral

    failures: list[str] = []
    bval = simplex.beta_value
    A = G.matrix.astype(float)
    H_members = simplex.H_beta.members
    K_members = simplex.K_beta.members
    instances = edge_instances(G)
    receives = {v for i, v in enumerate(G.vertices) if G.matrix[i].any()}

    for state in simplex.extremes:
        name = kms.label_text(state)
        vec = _as_vector(G, state.m)
        if abs(float(vec.sum()) - 1.0) > 1e-9:
            failures.append(f"{name}: normalization off by {vec.sum() - 1.0:.3g}")
        if vec.min() < -1e-12:
            failures.append(f"{name}: negative entry {vec.min():.3g}")
        if not subinvariance_check(G, state.beta, vec.clip(min=0.0)):
            failures.append(f"{name}: subinvariance violated")
        charged = [v for v in H_members if state.m.get(v, 0.0) > 1e-9]
        if charged:
            failures.append(f"{name}: charges H_beta at {sorted(charged)}")
        if isinstance(state.label, kms.PsiC):
            resid = float(np.max(np.abs(A @ vec - math.exp(bval) * vec)))
            if resid > 1e-9:
                failures.append(f"{name}: eigen-identity residual {resid:.3g}")
            for path in _atom_paths(G, instances, receives):
                atom = path_measure_atom(G, state, path)
                if abs(atom) > 1e-9:
                    failures.append(f"{name}: atom {atom:.3g} at {path!r}")
                    break
    # Solve-vs-series on the resolvent actually used for phi states.  Its
    # matrix is a union of whole components, whose radii G already holds.
    out_idx = [i for i, v in enumerate(G.vertices) if v not in K_members]
    if out_idx:
        M = G.matrix[np.ix_(out_idx, out_idx)]
        radii = [c.spectral_radius for c in G.components if c.members[0] not in K_members]
        radius = max(radii, default=0.0)
        if radius == 0.0 or bval >= math.log(radius) + series_margin:
            rhs = np.ones(len(out_idx))
            direct = spectral.resolvent_solve(M, bval, rhs, radius=radius)
            summed = spectral.resolvent_series(M, bval, rhs, 1e-12, radius=radius)
            gap = float(np.max(np.abs(direct - summed)))
            if gap > 1e-9:
                failures.append(f"resolvent solve vs series gap {gap:.3g}")
    return failures


def _atom_paths(G: DirectedGraph, instances, receives):
    """Length-0 and length-1 paths whose source vertex receives an edge."""
    for v in G.vertices:
        if v in receives:
            yield v
    for e in instances:
        if e[0] in receives:
            yield (e,)
