"""Perron data for nonnegative matrices and the resolvent solves behind states.

All reals are 64-bit floats.  The comparison tolerance is 1e-9 unless an
operation states otherwise; resolvent convergence uses a 1e-12 margin.
Nothing here iterates open-endedly: Perron data comes from one dense
eigensolve and one inverse-iteration step per irreducible block, checked by
its residual, and the series oracle doubles its number of terms at most 64
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scc import tarjan_sccs

CONVERGENCE_MARGIN = 1e-12


class ConvergenceError(ArithmeticError):
    """A result could not be computed to the required accuracy, or diverges."""


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


def _perron(A: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Perron radius and l1-unit eigenvector of an irreducible block.

    One dense eigensolve finds the eigenvalue with the largest real part.
    Its eigenvector takes one inverse-iteration step, shifted 1e-10
    (relative) above that eigenvalue so the shifted matrix is not singular
    to working precision, and is signed to sum positive with negative
    rounding clipped to 0.  The radius is sum(Ax), the x-weighted mean of
    the ratios (Ax)_i / x_i.  The step and the mean matter when entries
    span many orders of magnitude, as with loops of multiplicity 10^6 in a
    block of single edges: there the eigensolver's own pair can miss the
    residual bound by a factor of thousands.  Returns (radius, vector,
    residual) and raises when the residual max|Ax - rho x| exceeds
    1e-12 max(1, rho).
    """
    values, vectors = np.linalg.eig(A)
    k = int(np.argmax(values.real))
    shift = float(values[k].real) * (1.0 + 1e-10)
    x = np.linalg.solve(A - shift * np.eye(A.shape[0]), vectors[:, k].real)
    x = np.clip(x if x.sum() > 0 else -x, 0.0, None)
    x /= x.sum()
    Ax = A @ x
    radius = float(Ax.sum())
    residual = float(np.max(np.abs(Ax - radius * x)))
    if residual > 1e-12 * max(1.0, radius):
        raise ConvergenceError(
            f"Perron pair of a {A.shape[0]}-vertex block has residual {residual:.3g}"
        )
    return radius, x, residual


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
    radius, vector, residual = _perron(A)
    vector.setflags(write=False)
    return SpectralData(radius, vector, _bfs_period(A), residual)


def spectral_radius(M) -> float:
    """Spectral radius of a nonnegative matrix.

    Computed as the maximum over the irreducible diagonal blocks of the
    component decomposition, each from its own eigensolve.  The full matrix
    is never solved at once: a chain of k equal blocks is a defective
    eigenvalue, which a whole-matrix eigensolve resolves only to about
    eps^(1/k).
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
        # In index order, as for G.components, so both get the same radius.
        rows = sorted(comp)
        radius, _, _ = _perron(A[np.ix_(rows, rows)])
        best = max(best, radius)
    return best


def perron_vector(M) -> np.ndarray:
    """The l1-unimodular Perron eigenvector of an irreducible matrix.

    Non-negative; entries below rounding are 0.
    """
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
    """Neumann sum for (I - e^(-beta) M)^(-1) b, summed by doubling.

    Independent oracle for resolvent_solve: no factorisation, only products.
    With P = (e^(-beta) M)^N and S_N the sum of the first N terms, one step
    sets S_2N = S_N + P S_N and P <- P^2.  The limit is sum_j P^j S_N, so
    once q = ||P||_inf < 1 the tail is at most q/(1-q) ||S_N||_inf, and the
    sum stops when that bound is under tol.  At most 64 doublings.
    """
    A = _as_square(M)
    if radius is None:
        radius = spectral_radius(A)
    _check_convergent(radius, beta)
    total = np.array(b, dtype=float)
    P = math.exp(-beta) * A
    for _ in range(64):
        q = float(P.sum(axis=1).max(initial=0.0))
        if q < 1.0 and q / (1.0 - q) * float(np.abs(total).max(initial=0.0)) < tol:
            return total
        total += P @ total
        P = P @ P
    raise ConvergenceError("resolvent series did not settle under the tolerance")


def y_vector(G, beta: float) -> np.ndarray:
    """Per-vertex path series y_v = sum over paths with source v of e^(-beta |path|).

    Entry v sums column v of the resolvent inverse, so y solves the transposed
    system (I - e^(-beta) A)^T y = 1.  Every entry is at least 1 (the empty
    path).  Diverges unless beta > ln rho(A).
    """
    radius = max(c.spectral_radius for c in G.components)
    return resolvent_solve(G.matrix.T, beta, np.ones(len(G.vertices)), radius=radius)
