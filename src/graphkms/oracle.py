"""The verifier of the KMS simplex, and the definition of an atom.

``verify_simplex`` checks one simplex as a whole, on its ``measures`` array,
the array the CLI prints: its labels and, per row at that state's own
temperature ``beta_value``, normalization, sign, subinvariance, charge on
H_beta, the psi eigen-identity and the vertex atoms, plus the path series
y that the phi rows carry (each phi row's atom at its own vertex is 1/y_v),
certified by one product or, where that cannot settle it, checked against
its series.  Nothing here solves a linear system.  A state's atom
at a path mu is e^(-beta |mu|) times its atom at the vertex s(mu), so the
vertex atoms settle every finite path; ``path_measure_atom`` gives an atom
at one path from its definition.  Every product reads ``G.matrix``, the
one float copy of A; nothing here keeps a block of it.  What the checks
read of the reported K_beta and H_beta is kept on the graph per set
(``_outside``, ``_H_mask``), derived from the graph alone: the oracle reads
nothing that ``kms`` keeps per regime.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from . import kms, spectral
from .graph import DirectedGraph, _receives

# verify_simplex checks the phi rows' y when beta - ln rho outside K clears
# SERIES_MARGIN: by its residual certificate, else against the series.
SERIES_MARGIN = 0.05


def path_measure_atom(G: DirectedGraph, state: kms.StateMeasure, path) -> float:
    """nu({path}): the diagonal measure mass sitting on the path itself.

    Computed from the defining difference eval(path) minus the sum of eval
    over its one-edge extensions; zero exactly when the state charges no
    finite path ending there.  The parallel copies of one edge extend the
    path to the same value, so each arc into the source is evaluated once,
    at copy 0, and weighted by its multiplicity.
    """
    total = kms.eval_state(state, path, path)
    src = path if isinstance(path, str) else path[-1][0]
    arcs, r = G.arcs, G.index[src]
    lo, hi = arcs.indptr[r], arcs.indptr[r + 1]
    for u, mult in zip(arcs.src[lo:hi].tolist(), arcs.mult[lo:hi].tolist()):
        e = (G.vertices[u], src, 0)
        ext = (path + (e,)) if isinstance(path, tuple) else (e,)
        total -= mult * kms.eval_state(state, ext, ext)
    return total


def _outside(G: DirectedGraph, K_members: frozenset):
    """What ``verify_simplex`` reads of the vertices outside K_beta, kept per
    K_beta under ``G._memo["oracle"]``: their names and indices in vertex
    order, the most nonzeros in a column of the vertex matrix M on them
    (counted on ``G.arcs``) and ln rho(M), the largest ``G.ln_spectral_radii``
    of their components (-inf if there is none); M itself is not kept."""
    by_K = G._memo.setdefault("oracle", {})
    cached = by_K.get(K_members)
    if cached is None:
        out = ~G._mask(K_members)
        idx = np.flatnonzero(out)
        width = int(np.bincount(G.arcs.src[out[G.arcs.rng] & out[G.arcs.src]]).max(initial=0))
        ln_radius = float(G.ln_spectral_radii[G.vertex_components[idx]].max(initial=-math.inf))
        names = [G.vertices[i] for i in idx.tolist()]
        cached = by_K[K_members] = (names, idx, width, ln_radius)
    return cached


def _H_mask(G: DirectedGraph, H_members: frozenset) -> np.ndarray:
    """The read-only mask of H_beta over the vertices, kept per H_beta under
    ``G._memo["oracle H"]``."""
    by_H = G._memo.setdefault("oracle H", {})
    mask = by_H.get(H_members)
    if mask is None:
        mask = by_H[H_members] = G._mask(H_members)
        mask.setflags(write=False)
    return mask


def _exp(beta: float) -> float:
    try:
        return math.exp(beta)
    except OverflowError:  # beta > ~709.78
        return math.inf


def _y_error_bound(M: np.ndarray, width: int, beta: float, y: np.ndarray) -> float:
    """Bound on max|y_true - y| for y_true solving (I - T^T)y = 1, T = e^-beta M:
    inf unless y is positive and finite and rho_r < 1, where rho_r is
    max|1 - (y - T^T y)| plus its rounding bound gamma_{width+3}
    max(1 + y + T^T y), width the most nonzeros in a column of M (Higham,
    ch. 3).  Then T^T y <= qy with q < 1, so rho(T) < 1 (Collatz-Wielandt),
    and entrywise |y_true - y| <= rho_r y / (1 - rho_r).  Past the one
    product with M the work is on Python floats: the same operations as on
    arrays, rounded alike, with no numpy call per step."""
    ys = y.tolist()
    if not all(0.0 < v < math.inf for v in ys):  # NaN included
        return math.inf
    Ty = y @ M
    try:
        Ty *= math.exp(-beta)
    except OverflowError:  # beta < ~-709.78: T^T y is 0 where y M is, else inf
        Ty = np.where(Ty > 0.0, math.inf, 0.0)
    pairs = list(zip(ys, Ty.tolist()))
    k = (width + 3) * 2.0**-53
    rho_r = (max(abs(1.0 - (v - t)) for v, t in pairs)
             + k / (1.0 - k) * max(1.0 + v + t for v, t in pairs))
    return rho_r * max(ys) / (1.0 - rho_r) if rho_r < 1.0 else math.inf


def verify_simplex(G: DirectedGraph, simplex) -> list[str]:
    """Run every consistency check on a simplex; returns failure descriptions.

    What is checked is the array the CLI prints, ``simplex.measures`` (row k
    for ``simplex.extremes[k]``), row k at its own temperature
    ``extremes[k].beta_value``, which must lie within ``kms.TOL`` of
    ``simplex.beta_value``; where e^beta overflows, a row sets m against
    A m / e^beta, which is 0, and where it underflows to 0, a row's atoms
    m - e^-beta A m are m where A m is 0 and infinite elsewhere.  A
    ``measures`` not ``len(extremes) x len(G.vertices)`` raises ValueError.
    Checks: the labels (one phi state per vertex outside K_beta, distinct
    psi components), normalization, nonnegativity, subinvariance, vanishing
    on H_beta, the exact eigen-identity for psi states, for psi states that
    their atoms vanish at every vertex that receives an edge, and for each
    phi state that its atoms off its own vertex vanish.  The atom at a
    vertex v is m_v - e^-beta (A m)_v (``path_measure_atom`` is the
    definition) and that at a path mu is e^(-beta |mu|) times the one at
    its source s(mu), so checking the vertices checks every finite path.
    The per-state checks run on all rows at once; failures list the labels
    first, then per state in that order, with at most one atom (the first
    failing vertex, or the largest off-vertex atom) each.

    A simplex that passes all of that gets one more check, of its own
    numbers: phi_{beta,v}'s atom at v is 1/y_v, so the phi rows give y,
    which solves (I - e^-beta M)^T y = 1 with M the vertex matrix outside
    K_beta.  When beta clears ln rho(M) by SERIES_MARGIN, y passes if
    ``_y_error_bound`` certifies it within 0.5e-9 (one product with M),
    and otherwise only if it agrees with the series to 1e-9.
    """
    A = G.matrix
    bval = simplex.beta_value
    states = simplex.extremes
    X = simplex.measures
    if X.shape != (len(states), len(G.vertices)):
        raise ValueError(f"measures of shape {X.shape}, not {len(states)} x {len(G.vertices)}")
    outside, outside_idx, width, ln_radius = _outside(G, simplex.K_beta.members)
    psi, phi, phi_vertices = [], [], []
    for k, s in enumerate(states):
        if isinstance(s.label, kms.PsiC):
            psi.append(k)
        elif isinstance(s.label, kms.PhiBetaV):
            phi.append(k)
            phi_vertices.append(s.label.vertex)
    failures = _label_failures([states[k] for k in psi], phi_vertices, outside)
    totals, lows = np.add.reduce(X, axis=1).tolist(), np.minimum.reduce(X, axis=1).tolist()
    # Row k is checked at its own temperature: scale[k] is e^beta_value.
    exps = [_exp(s.beta_value) for s in states]
    scale = np.array(exps).reshape(-1, 1)
    XA = X @ A.T
    # Subinvariance is checked on X clipped at 0, which changes X only where
    # an entry is negative or NaN.
    Xc = X if all(low >= 0.0 for low in lows) else np.maximum(X, 0.0)
    XcA = XA if Xc is X else Xc @ A.T
    if math.inf in exps:
        # Where e^beta overflows, inf * 0 would be NaN: such a row compares
        # m with A m / e^beta (0 where A m is finite) at scale 1.
        huge = np.isinf(scale[:, 0])
        XA[huge], XcA[huge], scale[huge] = XA[huge] / math.inf, XcA[huge] / math.inf, 1.0
    subinvariant = _subinvariant(G, Xc, XcA, scale)
    charges = [False] * len(states)
    if simplex.H_beta.members:
        charges = (X[:, _H_mask(G, simplex.H_beta.members)] > 1e-9).any(axis=1).tolist()

    if 0.0 in exps:
        # Where e^beta underflows to 0, e^-beta A m is 0 where A m is 0 and
        # infinite elsewhere; dividing by that 0 would make 0 / 0 NaN.
        scaled = np.copysign(np.where(XA == 0.0, 0.0, math.inf), XA)
        at_vertex = X - np.divide(XA, scale, out=scaled, where=scale != 0.0)
    else:
        at_vertex = X - XA / scale
    atom_failures = _psi_failures(G, X, XA, at_vertex, psi, scale)
    phi_failures, own = _phi_failures(G, at_vertex, phi, phi_vertices)
    atom_failures.update(phi_failures)

    for k, state in enumerate(states):
        found = []
        if not bval - kms.TOL <= state.beta_value <= bval + kms.TOL:
            found.append(f"beta_value {state.beta_value!r} is more than TOL from beta {bval!r}")
        if abs(totals[k] - 1.0) > 1e-9:
            found.append(f"normalization off by {totals[k] - 1.0:.3g}")
        if lows[k] < -1e-12:
            found.append(f"negative entry {lows[k]:.3g}")
        if not subinvariant[k]:
            found.append("subinvariance violated")
        if charges[k]:
            charged = [v for v in simplex.H_beta.members if X[k, G.index[v]] > 1e-9]
            found.append(f"charges H_beta at {sorted(charged)}")
        found += atom_failures.get(k, ())
        if found:
            name = kms.label_text(state)
            failures += [f"{name}: {f}" for f in found]
    # y from the phi rows' own atoms 1/y_v: certified within 0.5e-9, or the
    # series gap fails closed.  Only a simplex that passed every other check
    # gets here, so its labels hold and row phi[j] is that of outside[j].
    if not failures and outside and bval >= ln_radius + SERIES_MARGIN:
        y = 1.0 / np.array(own)
        M = A[outside_idx[:, None], outside_idx]
        if not _y_error_bound(M, width, bval, y) <= 0.5e-9:
            radius = float(G.spectral_radii[G.vertex_components[outside_idx]].max())
            summed = spectral.resolvent_series(M.T, bval, np.ones(len(outside)), 1e-12,
                                               radius=radius)
            gap = float(np.max(np.abs(y - summed)))
            if not gap <= 1e-9:
                failures.append(f"y from the phi atoms vs series gap {gap:.3g}")
    return failures


def _subinvariant(G: DirectedGraph, Xc, XcA, scale) -> list[bool]:
    """Per row, whether ``XcA <= scale * Xc + 1e-9`` holds at every vertex.

    Past e^beta ~ 1e7, rounding alone passes 1e-9 where a row is an
    equality: a failing entry gets max(1e-9, gamma_{d+2} of its sides), d
    the most arcs into one vertex.  A function of its own, so that its
    len(X) x n mask is freed before the atom checks make theirs.
    """
    below = XcA <= scale * Xc + 1e-9
    if below.all():
        return [True] * len(below)
    k, v = np.nonzero(~below)
    lhs, rhs = XcA[k, v], scale[k, 0] * Xc[k, v]
    u = (int(np.diff(G.arcs.indptr).max()) + 2) * 2.0**-53
    slack = np.maximum(1e-9, u / (1.0 - u) * (lhs + rhs))
    below[k, v] = (lhs <= rhs + slack) & (slack < math.inf)
    return below.all(axis=1).tolist()


def _label_failures(psi_states, phi_vertices, outside: list) -> list[str]:
    """The theorem's labels: the phi states' vertices are exactly the
    vertices ``outside`` K_beta, each once, and no psi component repeats."""
    components = {s.label.component.id for s in psi_states}
    if phi_vertices == outside and len(components) == len(psi_states):
        return []
    allowed, counts = set(outside), Counter(phi_vertices)
    failures = [f"phi[{v}]: not a vertex outside K_beta" for v in counts if v not in allowed]
    failures += [f"phi[{v}]: listed {n} times" for v, n in counts.items() if n > 1]
    psi_counts = Counter(kms.label_text(s) for s in psi_states)
    failures += [f"{name}: listed {n} times" for name, n in psi_counts.items() if n > 1]
    missing = [v for v in outside if v not in counts]
    if missing:
        failures.append(f"no phi state at {missing}")
    return failures


def _psi_failures(G: DirectedGraph, X, XA, at_vertex, rows, scale) -> dict[int, list[str]]:
    """Eigen-identity and atom failures of the psi states, rows ``rows`` of X.

    ``XA`` is ``X @ A.T``, ``scale`` the column of the rows' e^beta and
    ``at_vertex`` the vertex atoms ``X - XA / scale``.  Failures are given
    without the state's name.  Atoms are checked at the vertices that
    receive an edge, which covers every path with such a source: an atom at
    a path is its source's times e^(-beta |path|).  Only the first failing
    vertex of a state is reported.
    """
    if not rows:
        return {}
    at_vertex = at_vertex[rows]
    resid = np.abs(XA[rows] - scale[rows] * X[rows]).max(axis=1).tolist()
    bad_vertex = (np.abs(at_vertex) > 1e-9) & _receives(G.arcs)
    out = {}
    for j, k in enumerate(rows):
        found = out[k] = []
        if resid[j] > 1e-9:
            found.append(f"eigen-identity residual {resid[j]:.3g}")
        if bad_vertex[j].any():
            i = int(np.argmax(bad_vertex[j]))
            found.append(f"atom {at_vertex[j, i]:.3g} at {G.vertices[i]!r}")
    return out


def _phi_failures(G: DirectedGraph, at_vertex, rows, vertices):
    """Atom failures of the phi states of ``vertices``, by row of ``at_vertex``,
    and the atom of each at its own vertex, in row order.

    ``phi_{beta,v}`` charges the length-0 path at ``v`` and no other vertex:
    its measure ``m`` solves ``m - e^-beta A m = e_v / y_v`` outside K_beta
    and vanishes on K_beta.  A row fails when its atom at ``v`` is not
    positive, or else when its largest atom off ``v`` exceeds 1e-6 of the
    one at ``v``; this ties each phi row to its own vertex.
    """
    if not rows:
        return {}, []
    off = np.abs(at_vertex)
    at_own = {}
    for k, v in zip(rows, vertices):
        i = G.index.get(v)
        if i is not None:  # otherwise a label failure already
            at_own[k] = at_vertex.item(k, i)
            off[k, i] = 0.0
    worst = np.maximum.reduce(off, axis=1).tolist()
    out = {}
    for k, atom in at_own.items():
        # Strict, so that an atom at v that is not positive fails too, as does NaN.
        if worst[k] < 1e-6 * atom:
            continue
        if not atom > 0.0:
            out[k] = [f"atom {atom:.3g} at its own vertex is not positive"]
        else:
            i = int(np.argmax(off[k]))
            out[k] = [f"atom {at_vertex[k, i]:.3g} at {G.vertices[i]!r}, "
                      f"beside {atom:.3g} at its own vertex"]
    return out, list(at_own.values())
