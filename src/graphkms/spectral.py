"""Perron data for nonnegative matrices and the resolvent solves behind states.

All reals are 64-bit floats.  The comparison tolerance is 1e-9 unless an
operation states otherwise; resolvent convergence uses a 1e-12 margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scc import tarjan_sccs

REL_TOL = 1e-13
MAX_ITER = 10**5
CONVERGENCE_MARGIN = 1e-12


class ConvergenceError(ArithmeticError):
    """An iteration hit its cap before reaching the requested tolerance."""


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Perron-Frobenius data of one irreducible block."""

    radius: float
    perron_vector: np.ndarray
    period: int
    residual: float


def _as_square(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if A.size and A.min() < 0:
        raise ValueError("expected a nonnegative matrix")
    return A


def _is_irreducible(A: np.ndarray) -> bool:
    n = A.shape[0]
    succ = [list(np.nonzero(A[i])[0]) for i in range(n)]
    return len(tarjan_sccs(succ)) == 1


def _power_radius(A: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Perron radius and l1-unit eigenvector of an irreducible block.

    Power iteration on I + A: the shift makes the matrix primitive, so the
    iteration converges even for periodic blocks.  Returns (radius, vector,
    residual).
    """
    n = A.shape[0]
    B = np.eye(n) + A
    x = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(MAX_ITER):
        y = B @ x
        new_lam = float(y.sum())
        y /= new_lam
        done = (
            abs(new_lam - lam) <= REL_TOL * new_lam
            and float(np.abs(y - x).sum()) <= REL_TOL
        )
        x, lam = y, new_lam
        if done:
            radius = lam - 1.0
            residual = float(np.max(np.abs(A @ x - radius * x)))
            return radius, x, residual
    raise ConvergenceError(
        f"power iteration did not reach tolerance {REL_TOL} in {MAX_ITER} steps"
    )


def _bfs_period(A: np.ndarray) -> int:
    # gcd of (level[u] + 1 - level[w]) over arcs u -> w, levels from a BFS
    # rooted at index 0; classic for irreducible nonnegative matrices.
    n = A.shape[0]
    level = [-1] * n
    level[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for w in np.nonzero(A[u])[0]:
                w = int(w)
                if level[w] == -1:
                    level[w] = level[u] + 1
                    nxt.append(w)
        queue = nxt
    g = 0
    for u in range(n):
        for w in np.nonzero(A[u])[0]:
            g = math.gcd(g, level[u] + 1 - level[int(w)])
    return g


def analyze_irreducible(M) -> SpectralData:
    """Full spectral data of one irreducible nonnegative matrix.

    A 1x1 zero matrix counts as irreducible (the usual (I+M)^dim > 0 test)
    and gets radius 0 with period reported as 0 since it has no cycle.
    """
    A = _as_square(M)
    if not _is_irreducible(A):
        raise ValueError("matrix is not irreducible")
    if A.shape[0] == 1 and A[0, 0] == 0:
        return SpectralData(0.0, np.array([1.0]), 0, 0.0)
    radius, vector, residual = _power_radius(A)
    vector.setflags(write=False)
    return SpectralData(radius, vector, _bfs_period(A), residual)


def spectral_radius(M) -> float:
    """Spectral radius of a nonnegative matrix.

    Computed as the maximum over the irreducible diagonal blocks of the
    component decomposition; the full matrix is never iterated on, since the
    power method is only trustworthy on irreducible blocks.
    """
    A = _as_square(M)
    n = A.shape[0]
    if n == 0:
        return 0.0
    succ = [list(np.nonzero(A[i])[0]) for i in range(n)]
    best = 0.0
    for comp in tarjan_sccs(succ):
        if len(comp) == 1 and A[comp[0], comp[0]] == 0:
            continue
        block = A[np.ix_(comp, comp)]
        radius, _, _ = _power_radius(block)
        best = max(best, radius)
    return best


def perron_vector(M) -> np.ndarray:
    """The l1-unimodular positive eigenvector of an irreducible matrix."""
    return analyze_irreducible(M).perron_vector


def period(M) -> int:
    A = _as_square(M)
    if not _is_irreducible(A):
        raise ValueError("matrix is not irreducible")
    if A.shape[0] == 1 and A[0, 0] == 0:
        raise ValueError("period needs at least one cycle")
    return _bfs_period(A)


def _check_convergent(radius: float, beta: float) -> None:
    if not math.exp(-beta) * radius < 1.0 - CONVERGENCE_MARGIN:
        raise ConvergenceError(
            f"resolvent divergent: beta = {beta:.6g} is not above ln rho = "
            f"{math.log(radius) if radius > 0 else float('-inf'):.6g}"
        )


def resolvent_solve(M, beta: float, b, *, radius: float | None = None) -> np.ndarray:
    """Solve (I - e^(-beta) M) x = b by dense LU with partial pivoting.

    The entries of the inverse are the path generating functions
    sum_{lambda in vE*w} e^(-beta |lambda|), so columns of the identity give
    per-vertex path series.  ``radius`` may be supplied to skip recomputing
    the spectral radius when the caller already knows it.
    """
    A = _as_square(M)
    if radius is None:
        radius = spectral_radius(A)
    _check_convergent(radius, beta)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if n == 0:
        return b.copy()
    return np.linalg.solve(np.eye(n) - math.exp(-beta) * A, b)


def resolvent_series(
    M, beta: float, b, tol: float = 1e-12, *, radius: float | None = None
) -> np.ndarray:
    """Truncated Neumann sum for (I - e^(-beta) M)^(-1) b.

    Independent oracle for resolvent_solve.  When the weighted infinity norm
    q = ||e^(-beta) M||_inf is below 1 the truncation point comes from the
    exact geometric tail bound q^(N+1)/(1-q) ||b||_inf < tol; otherwise terms
    are added until the successive-term norm drops under tol (1 - rho_hat)
    with rho_hat = e^(-beta) rho(M).
    """
    A = _as_square(M)
    if radius is None:
        radius = spectral_radius(A)
    _check_convergent(radius, beta)
    b = np.asarray(b, dtype=float)
    r = math.exp(-beta)
    total = b.astype(float).copy()
    term = total.copy()
    if not term.any():
        return total
    q = r * float(np.max(np.abs(A).sum(axis=1))) if A.size else 0.0
    if q < 1.0:
        bnorm = float(np.max(np.abs(b)))
        qpow = q
        for _ in range(MAX_ITER):
            if q == 0.0 or qpow / (1.0 - q) * bnorm < tol or not term.any():
                return total
            term = r * (A @ term)
            total += term
            qpow *= q
    else:
        rho_hat = r * radius
        for _ in range(MAX_ITER):
            term = r * (A @ term)
            total += term
            if float(np.max(np.abs(term))) < tol * (1.0 - rho_hat):
                return total
    raise ConvergenceError("resolvent series did not settle under the tolerance")


def y_vector(G, beta: float) -> np.ndarray:
    """Per-vertex path series y_v = sum over paths with source v of e^(-beta |path|).

    Entry v sums column v of the resolvent inverse, so y solves the transposed
    system (I - e^(-beta) A)^T y = 1.  Every entry is at least 1 (the empty
    path).  Diverges unless beta > ln rho(A).
    """
    radius = max(c.spectral_radius for c in G.components)
    return resolvent_solve(G.matrix.T, beta, np.ones(len(G.vertices)), radius=radius)
