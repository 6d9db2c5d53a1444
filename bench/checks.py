"""Checks of graphkms outputs against computations made apart from it.

Nothing here imports graphkms.  Component structure comes from boolean
reachability on the vertex matrix (or from a generator's closed form), radii
from ``numpy.linalg.eigvals``, and the expected simplex from the paper's
theorem: at ``beta`` there is one phi state per vertex outside ``K_beta`` and
one psi state per minimal critical component of the quotient by ``H_beta``.

Conventions match the program's: ``A[v, w]`` counts edges with range ``v``
and source ``w``; ``reach[c, d]`` says component ``d`` lies in the
hereditary closure of ``c`` (a path of row successors leads from ``c`` to
``d``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# Tolerance for floats handed over in memory, and for values the CLI prints
# with 9 significant digits (rounding alone moves a mass by at most 5e-9).
EXACT = 1e-9
PRINTED = 1e-7
# Two ln rho values, or ln rho and beta, closer than this are equal.
TIE = 1e-9


@dataclass(frozen=True)
class Structure:
    """Component-level data of one graph."""

    sizes: tuple[int, ...]  # vertices per component
    ln_radius: tuple[float | None, ...]  # None for a trivial component
    reach: np.ndarray  # bool k x k, reach[c, d]: d in the closure of c
    members: tuple[tuple[int, ...], ...]  # vertex indices per component


def closure(A: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of the row-successor relation of ``A``."""
    R = (np.asarray(A) != 0) | np.eye(len(A), dtype=bool)
    while True:
        F = R.astype(float)
        nxt = (F @ F) > 0
        if (nxt == R).all():
            return R
        R = nxt


def radius(A) -> float:
    A = np.asarray(A, dtype=float)
    return float(np.abs(np.linalg.eigvals(A)).max()) if A.size else 0.0


def structure(A: np.ndarray) -> Structure:
    """Components, their ln radii (eigvals) and the closure relation."""
    A = np.asarray(A)
    R = closure(A)
    mutual = R & R.T
    comp_of = [-1] * len(A)
    members: list[tuple[int, ...]] = []
    for i in range(len(A)):
        if comp_of[i] < 0:
            group = tuple(int(j) for j in np.nonzero(mutual[i])[0])
            for j in group:
                comp_of[j] = len(members)
            members.append(group)
    ln_radius = []
    for group in members:
        if len(group) == 1 and not A[group[0], group[0]]:
            ln_radius.append(None)
        else:
            ln_radius.append(math.log(radius(A[np.ix_(group, group)])))
    reps = [g[0] for g in members]
    return Structure(
        sizes=tuple(len(g) for g in members),
        ln_radius=tuple(ln_radius),
        reach=R[np.ix_(reps, reps)],
        members=tuple(members),
    )


def critical_values(s: Structure) -> list[float]:
    """Ascending distinct ln rho(C) over components C outside H at ln rho(C)."""
    found = []
    for c, ln in enumerate(s.ln_radius):
        if ln is None:
            continue
        above = [d for d, x in enumerate(s.ln_radius) if x is not None and x > ln + TIE]
        if not s.reach[above, c].any():
            found.append(ln)
    out: list[float] = []
    for ln in sorted(found):
        if not out or ln > out[-1] + TIE:
            out.append(ln)
    return out


def expected_simplex(s: Structure, beta: float) -> tuple[str, int]:
    """Case name and number of extreme states at ``beta``."""
    k = len(s.sizes)
    lns = s.ln_radius
    above = [c for c in range(k) if lns[c] is not None and lns[c] > beta + TIE]
    atleast = [c for c in range(k) if lns[c] is not None and lns[c] >= beta - TIE]
    H = s.reach[above].any(axis=0)
    K = s.reach[atleast].any(axis=0)
    if H.all():
        return "Empty", 0
    n_phi = sum(size for size, inside in zip(s.sizes, K) if not inside)
    crit = [c for c in atleast if lns[c] <= beta + TIE and not H[c]]
    if not crit:
        return "Subcritical", n_phi
    minimal = [c for c in crit if not any(d != c and s.reach[d, c] for d in crit)]
    return "Critical", n_phi + len(minimal)


def measure_failures(A, beta: float, m, psi: bool, tol: float) -> list[str]:
    """Mass one, non-negative, subinvariant, and A m = e^beta m for psi states."""
    A = np.asarray(A, dtype=float)
    m = np.asarray(m, dtype=float)
    out = []
    mass = float(m.sum())
    if abs(mass - 1.0) > tol:
        out.append(f"mass {mass!r}")
    if m.min() < -1e-12:
        out.append(f"negative entry {m.min():.3g}")
    scale = math.exp(beta)
    Am = A @ m
    slack = tol * (np.abs(A) @ np.abs(m) + scale * np.abs(m)) + 1e-12
    if (Am > scale * m + slack).any():
        out.append("A m <= e^beta m fails")
    if psi and (np.abs(Am - scale * m) > slack).any():
        out.append("A m = e^beta m fails")
    return out


def radius_failures(reported: float, block) -> list[str]:
    expect = radius(block)
    if abs(reported - expect) > 1e-9 * expect:
        return [f"radius {reported!r}, eigvals give {expect!r}"]
    return []


def critical_list_failures(reported, expected) -> list[str]:
    if len(reported) != len(expected):
        return [f"{len(reported)} criticals, expected {len(expected)}"]
    bad = [(r, e) for r, e in zip(reported, expected) if abs(r - e) > TIE * max(1.0, abs(e))]
    return [f"critical {r!r}, expected {e!r}" for r, e in bad]


def seneta_failures(A, members_in_order) -> list[str]:
    """Is ``A`` block upper triangular with components in the given order?"""
    A = np.asarray(A)
    pos = np.empty(len(A), dtype=int)
    for p, group in enumerate(members_in_order):
        pos[list(group)] = p
    rows, cols = np.nonzero(A)
    if (pos[rows] > pos[cols]).any():
        return ["seneta order is not block upper triangular"]
    return []


# -- CLI text ------------------------------------------------------------

_EXTREME = re.compile(r"^  (psi\{[^}]*\}|phi\[[^\]]*\])\s")
_MASS = re.compile(r"m\[([^\]]+)\]=(\S+)")


def parse_states(text: str, index: dict[str, int]):
    """Case and ``(is_psi, m)`` per extreme from ``graphkms states`` output."""
    case = None
    extremes = []
    for line in text.splitlines():
        if line.startswith("case: "):
            case = line[6:]
            continue
        hit = _EXTREME.match(line)
        if hit:
            m = np.zeros(len(index))
            for name, value in _MASS.findall(line):
                m[index[name]] = float(value)
            extremes.append((hit.group(1).startswith("psi"), m))
    return case, extremes


def states_failures(text, A, index, beta, expected) -> list[str]:
    """Checks one ``states`` printout against the expected (case, count)."""
    case, extremes = parse_states(text, index)
    out = []
    if (case, len(extremes)) != expected:
        out.append(f"{case} with {len(extremes)} extremes, expected {expected}")
    for k, (psi, m) in enumerate(extremes):
        out += [f"extreme {k}: {f}" for f in measure_failures(A, beta, m, psi, PRINTED)]
    return out
