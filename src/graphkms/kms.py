"""KMS equilibrium simplices for the gauge action on graph Toeplitz algebras.

Every KMS state at inverse temperature beta is determined by its vertex
measure m, a probability vector with A m <= e^beta m.  Which states exist at
one beta is combinatorial and derived in one place, :func:`regime`: H_beta,
K_beta, the case, the minimal critical components of the quotient by H_beta
and the vertices outside K_beta all come from comparing beta with the
per-component arrays ``G.divergence``, ``G.strict_divergence`` and
``G.ln_spectral_radii``, and the sources of the quotient by the saturation
of K_beta are the sources of G outside K_beta.  Only the measures need
linear algebra, and they are solved only when asked for: psi-type states
attached to minimal critical components, phi-type states attached to
vertices outside K_beta, and their convex mixtures, with the factor-through
and finite/infinite classification.

The measures of a simplex live in one read-only float array, one row per
extreme point with columns in vertex order; each state's ``m`` is a
read-only mapping view of its row, so no per-state dict is ever built.

Only the phi rows depend on beta itself.  The rest of a simplex (the
outside indices, labels, temperatures, flags and psi rows, each solved at
its own ln rho(A_C)) is kept next to its Regime from the regime's first
simplex on, so a simplex costs one gather of M, one LU and one write.

Float policy: comparisons against critical values use the tolerance TOL;
``CriticalOf`` carries a component id so critical temperatures can be used
without re-deriving them from floats.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import spectral
from .graph import (
    Component, DirectedGraph, RowView, VertexSet, _frozen, _receives, swallowed_mask,
)

TOL = 1e-9

EMPTY = "Empty"
SUBCRITICAL = "Subcritical"
CRITICAL = "Critical"

FINITE = "Finite"
INFINITE = "Infinite"
MIXED = "Mixed"


# -- beta specifications -------------------------------------------------------


@dataclass(frozen=True)
class Numeric:
    value: float


@dataclass(frozen=True)
class CriticalOf:
    """beta = ln rho(A_C) for the component with this id, held exactly."""

    component: int


BetaSpec = Numeric | CriticalOf


def _component_id(key) -> int:
    """A component id as a Python int: any integer, numpy's too, but no bool."""
    if isinstance(key, (bool, np.bool_)):
        raise TypeError(f"{key!r} is a bool, not a component id")
    return operator.index(key)


def _as_beta(beta) -> BetaSpec:
    """CriticalOf of a component id, with the id as a Python int; an int or
    float, not bool, bare or in Numeric, as Numeric(float)."""
    if isinstance(beta, CriticalOf):
        with contextlib.suppress(TypeError):
            cid = _component_id(beta.component)
            return beta if type(beta.component) is int else CriticalOf(cid)
    else:
        value = beta.value if isinstance(beta, Numeric) else beta
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return Numeric(float(value))
    raise TypeError(f"not a beta specification: {beta!r}")


def beta_value(G: DirectedGraph, beta) -> float:
    """Resolve a BetaSpec to its float value."""
    return _resolve(G, beta)[1]


def _resolve(G: DirectedGraph, beta) -> tuple[BetaSpec, float]:
    """The checked spec of beta (``_as_beta``) and its float value."""
    spec = _as_beta(beta)
    if isinstance(spec, Numeric):
        if not math.isfinite(spec.value):
            raise ValueError("numeric beta must be finite")
        return spec, spec.value
    ln_radii = G.ln_spectral_radii
    if not 0 <= spec.component < len(ln_radii):
        raise ValueError(f"no component with id {spec.component}")
    if ln_radii[spec.component] == -math.inf:
        raise ValueError("CriticalOf needs a nontrivial component")
    return spec, float(ln_radii[spec.component])


# -- state labels and containers -----------------------------------------------


@dataclass(frozen=True, eq=False)
class PsiC:
    component: Component


@dataclass(frozen=True, eq=False)
class PhiBetaV:
    vertex: str


@dataclass(frozen=True, eq=False)
class Mixture:
    r: float
    epsilon: dict[str, float]
    t: dict[int, float]


class MeasureView(RowView):
    """Read-only mapping from vertex name to the mass of one measure row.

    A :class:`RowView` over the graph's vertices: iteration follows the
    vertex order and ``numpy.asarray(view)`` gives the read-only row itself.
    It keeps the graph, against which :func:`eval_state` checks its paths.
    """

    __slots__ = ("_graph",)

    def __init__(self, G: DirectedGraph, row: np.ndarray):
        if row.flags.writeable or row.shape != (len(G.vertices),):
            raise ValueError("a measure view needs a read-only row over the vertices")
        super().__init__(G.vertices, row, G.index)
        self._graph = G


@dataclass(frozen=True, eq=False)
class StateMeasure:
    """One KMS state: its own temperature ``beta_value`` (ln rho(A_C) for
    psi_C, else the simplex's beta), its vertex measure ``m`` (a read-only
    view of a measure row), its label and its classification."""

    beta_value: float
    m: MeasureView
    label: PsiC | PhiBetaV | Mixture
    factors_through_graph_algebra: bool
    state_type: str


@dataclass(frozen=True, eq=False)
class SimplexDescriptor:
    """The KMS simplex at one beta.

    ``measures`` is the only store of the extreme points' vertex measures:
    a read-only ``len(extremes) x len(G.vertices)`` float array, row k
    holding ``extremes[k].m`` with columns in ``G.vertices`` order.
    """

    beta: BetaSpec
    beta_value: float
    case: str
    H_beta: VertexSet
    K_beta: VertexSet
    extremes: tuple[StateMeasure, ...]
    measures: np.ndarray


# -- the regime at one beta -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Regime:
    """The combinatorial data that fixes the simplex at one beta.

    Everything here is a comparison against the per-component arrays of G;
    no linear algebra runs until measures are asked for.  It holds no beta:
    one Regime serves every beta that makes the same comparisons.
    ``minimal_critical`` holds the ascending ids of the minimal critical
    components of the quotient by H_beta, ``outside`` the ascending vertex
    indices outside K_beta (one phi state each), ``outside_radius`` the
    spectral radius of that part, and ``sources`` the sources of G outside
    K_beta, which are those of the quotient by the saturation of K_beta.
    """

    case: str
    H_beta: VertexSet
    K_beta: VertexSet
    minimal_critical: tuple[int, ...]
    outside: tuple[int, ...]
    outside_radius: float
    sources: frozenset[str]


def _names(G: DirectedGraph, mask: np.ndarray) -> frozenset[str]:
    return frozenset(itertools.compress(G.vertices, mask.tolist()))


def regime(G: DirectedGraph, beta) -> Regime:
    """Classify every component against beta and derive the simplex's shape.

    A component lies in H_beta when its divergence value clears beta + TOL
    and in K_beta when it reaches beta - TOL.  The critical components of
    the quotient by H_beta are the nontrivial ones left there with
    ln rho(A_C) inside the TOL window; CriticalOf resolves to the defining
    component's own ln rho, so that component always falls inside it.  A
    critical component is minimal when its strict divergence stays below
    beta - TOL.

    Each of these comparisons sets beta - TOL or beta + TOL against -inf or
    against a finite value of ``G.divergence``, ``G.strict_divergence`` or
    ``G.ln_spectral_radii``.  The graph's cuts are the distinct finite
    ln rho(A_C) within 3 TOL of C's divergence value.  They hold every
    divergence and strict divergence value, each being the ln rho of a D
    whose own divergence value it is.  A smaller ln rho enters only through
    divergence <= beta + TOL and ln rho >= beta - TOL, which no beta meets
    (the values stay below ~710, so rounding is far below TOL).  The regime
    is memoised on G under (bisect_left(cuts, beta - TOL),
    bisect_right(cuts, beta + TOL)), taken of the very floats compared, so
    equal keys give equal masks and every beta, numeric or CriticalOf, gets
    the one Regime of its key.  Both positions only grow with beta, so G
    holds at most 2 len(cuts) + 1 regimes.
    """
    return _entry(G, beta_value(G, beta))[0]


def _entry(G: DirectedGraph, bval: float) -> list:
    """The memo entry of beta's regime, ``[Regime, _Extremes or None]``; the
    second item stays None until a simplex of the regime is built."""
    cached = G._memo.get("regimes")
    if cached is None:
        ln_radii = G.ln_spectral_radii
        cuts = ln_radii[np.isfinite(ln_radii) & (ln_radii >= G.divergence - 3 * TOL)]
        cached = G._memo["regimes"] = (sorted(set(cuts.tolist())), {})
    cuts, memo = cached
    key = (bisect.bisect_left(cuts, bval - TOL), bisect.bisect_right(cuts, bval + TOL))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = [_derive_regime(G, bval), None]
    return entry


def _derive_regime(G: DirectedGraph, bval: float) -> Regime:
    top = G.divergence
    # Per-vertex divergence: the closures H_beta and K_beta are masks.
    vtop = top[G.vertex_components]
    in_H = vtop > bval + TOL
    in_K = vtop >= bval - TOL
    # The critical components are those outside H_beta with ln rho inside
    # the TOL window (a trivial one's -inf never is).  A critical component
    # is minimal unless a critical D < C exists, and any nontrivial D < C
    # that reaches beta - TOL is critical.
    mc = np.flatnonzero(
        (top <= bval + TOL)
        & (G.ln_spectral_radii >= bval - TOL)
        & (G.strict_divergence < bval - TOL)
    )
    case = EMPTY if in_H.all() else CRITICAL if mc.size else SUBCRITICAL
    arcs = G.arcs
    # Sources of the quotient by sat(K_beta): saturating adds only vertices
    # that receive an edge, and one left outside receives one from outside,
    # or it would be swallowed.  So they are the sources of G outside K_beta.
    sources = ~in_K & ~_receives(arcs)
    # Both closures are hereditary by construction.
    H = VertexSet(_names(G, in_H), hereditary=True, saturated=not swallowed_mask(arcs, in_H).any())
    K = VertexSet(_names(G, in_K), hereditary=True, saturated=not swallowed_mask(arcs, in_K).any())
    return Regime(
        case=case,
        H_beta=H,
        K_beta=K,
        minimal_critical=tuple(mc.tolist()),
        outside=tuple(np.flatnonzero(~in_K).tolist()),
        outside_radius=float(G.spectral_radii[top < bval - TOL].max(initial=0.0)),
        sources=_names(G, sources),
    )


def H_beta(G: DirectedGraph, beta) -> VertexSet:
    """Hereditary closure of the components with ln rho(A_C) > beta."""
    return regime(G, beta).H_beta


def K_beta(G: DirectedGraph, beta) -> VertexSet:
    """Hereditary closure of the components with ln rho(A_C) >= beta."""
    return regime(G, beta).K_beta


def minimal_critical_components(G: DirectedGraph) -> tuple[Component, ...]:
    """Components attaining rho(A), minimal in the order induced on them,
    in ascending id.

    These are the minimal critical components of the regime at the largest
    critical temperature, where H_beta is empty.
    """
    criticals = critical_temperatures(G)
    if not criticals:
        raise ValueError("an acyclic graph has no critical components")
    return tuple(G.components[c] for c in regime(G, criticals[-1]).minimal_critical)


def critical_temperatures(G: DirectedGraph) -> list[CriticalOf]:
    """Ascending list of the critical inverse temperatures, as CriticalOf.

    A candidate ln rho(A_C) survives iff C stays outside H at its own value,
    that is iff its divergence value is its own ln rho (up to TOL); then the
    restriction of A to the survivors still has spectral radius ln-equal to
    the candidate.  Values closer than TOL are merged, keeping the smallest
    component id.  Derived once per graph and cached on it.
    """
    cached = G._memo.get("criticals")
    if cached is None:
        cached = G._memo["criticals"] = _criticals(G)
    return list(cached)


def _criticals(G: DirectedGraph) -> tuple[CriticalOf, ...]:
    ln_radii = G.ln_spectral_radii
    cand = np.flatnonzero(np.isfinite(ln_radii) & (G.divergence <= ln_radii + TOL))
    cand = cand[np.argsort(ln_radii[cand], kind="stable")]
    clusters: list[list[int]] = []
    last = None
    for ln, cid in zip(ln_radii[cand].tolist(), cand.tolist()):
        if last is None or ln > last + TOL:
            clusters.append([])
            last = ln
        clusters[-1].append(cid)
    return tuple(CriticalOf(min(ids)) for ids in clusters)


def beta_v(G: DirectedGraph, v: str) -> float | None:
    """sup of ln rho(A_C) over components C <= v; None when no cycle is below v.

    phi_{beta,v} exists exactly for beta above this value (at every beta when
    None).
    """
    top = float(G.divergence[G.component_of(v).id])
    return None if top == -math.inf else top


# -- state constructions ---------------------------------------------------------
#
# Measures are written into rows of zeroed float arrays, which are frozen
# before any state takes a view of them.


@dataclass(frozen=True, eq=False)
class _Extremes:
    """What every simplex of one regime shares: ``Regime.outside`` as a
    read-only index array, the read-only psi rows, and per state, in row
    order, the label and temperature of psi states and the label and
    factor-through flag of phi states."""

    out: np.ndarray
    psi_rows: np.ndarray
    psi: tuple[tuple[PsiC, float], ...]
    phi: tuple[tuple[PhiBetaV, bool], ...]


def _extremes(G: DirectedGraph, reg: Regime) -> _Extremes:
    """The beta-free part of the regime's simplex.

    psi_C is (z^C, x^C, 0 on the rest), where z^C = rho^-1 (I - rho^-1 M)^-1 A_{out,C} x^C
    solves the eigen-identity A m = rho(A_C) m, with M the vertex matrix on
    the vertices outside K_beta; its row is scaled to mass one.
    phi_{beta,v} factors through C*(E) iff v is a source of the quotient by
    the saturation of K_beta.
    """
    mc = reg.minimal_critical
    out = np.array(reg.outside, dtype=np.intp)
    rows = np.zeros((len(mc), len(G.vertices)))
    M = G.matrix[out[:, None], out] if mc and out.size else None
    for row, cid in zip(rows, mc):
        c_idx = np.flatnonzero(G.vertex_components == cid)
        rho, ln_rho = float(G.spectral_radii[cid]), float(G.ln_spectral_radii[cid])
        x = np.asarray(G.components[cid].perron_vector)
        z = np.zeros(0)
        if out.size:
            rhs = G.matrix[out[:, None], c_idx] @ x / rho
            z = spectral.resolvent_solve(M, ln_rho, rhs, radius=reg.outside_radius)
        scale = 1.0 / (1.0 + float(z.sum()))
        row[out] = scale * z
        row[c_idx] = scale * x
    names = G.vertices
    return _Extremes(
        out=_frozen(out),
        psi_rows=_frozen(rows),
        psi=tuple((PsiC(G.components[cid]), float(G.ln_spectral_radii[cid])) for cid in mc),
        phi=tuple((PhiBetaV(names[i]), names[i] in reg.sources) for i in reg.outside),
    )


def _extreme_rows(G: DirectedGraph, entry: list, bval: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only measure rows of every extreme point at beta = bval, and y.

    Kept per regime, in the _Extremes of its memo ``entry``: the psi rows,
    which come first, in ascending component id.  Computed per beta: the
    phi rows, in vertex order, phi_{beta,v} being column v of
    R = (I - e^-beta M)^-1 over its sum y_v, with M gathered from
    ``G.matrix`` on the vertices outside K_beta and R from one LU.
    """
    reg, ext = entry
    if ext is None:
        ext = entry[1] = _extremes(G, reg)
    out, p = ext.out, len(ext.psi)
    rows = np.zeros((p + out.size, len(G.vertices)))
    rows[:p] = ext.psi_rows
    if not out.size:
        return _frozen(rows), np.zeros(0)
    M = G.matrix[out[:, None], out]
    resolvent = np.linalg.inv(spectral._resolvent_matrix(M, bval, reg.outside_radius))
    y = resolvent.sum(axis=0)
    resolvent /= y
    rows[p:, out] = resolvent.T
    return _frozen(rows), y


def general_state_measure(
    G: DirectedGraph, beta, r: float, epsilon: dict[str, float], t
) -> StateMeasure:
    """Convex mixture r (phi_eps after the quotient) + (1-r) sum t_C psi_C.

    Only defined at critical beta.  epsilon is a nonnegative vector on the
    vertices outside K_beta with epsilon . y = 1; t is a probability vector
    over the minimal critical components of the quotient by H_beta.
    """
    bval = beta_value(G, beta)
    entry = _entry(G, bval)
    reg = entry[0]
    if reg.case != CRITICAL:
        raise ValueError("beta is not critical for this graph")
    if not -TOL <= r <= 1.0 + TOL:
        raise ValueError("r must lie in [0, 1]")
    r = min(max(r, 0.0), 1.0)

    tmap: dict[int, float] = {}
    for key, weight in dict(t).items():
        try:
            cid = key.id if isinstance(key, Component) else _component_id(key)
        except TypeError:
            raise TypeError(f"t is keyed by {key!r}, not a component or its id") from None
        if cid not in reg.minimal_critical:
            raise ValueError(f"t is keyed by component {cid}, not minimal critical")
        tmap[cid] = float(weight)
    if not all(-TOL <= w < math.inf for w in tmap.values()) or abs(sum(tmap.values()) - 1) > TOL:
        raise ValueError("t is not a probability vector")

    out_idx = list(reg.outside)
    eps_map: dict[str, float] = {}
    for name, weight in dict(epsilon).items():
        if not isinstance(name, str):
            raise TypeError(f"epsilon is keyed by {name!r}, not a vertex name")
        if name not in G.index:
            raise ValueError(f"unknown vertex in epsilon: {name}")
        w = eps_map[name] = float(weight)
        if not -TOL <= w < math.inf:
            raise ValueError("epsilon must be nonnegative and finite")
        if w > TOL and name in reg.K_beta.members:
            raise ValueError(
                f"epsilon charges {name} inside K_beta, where the series diverges"
            )
    eps_vec = np.array([eps_map.get(G.vertices[i], 0.0) for i in out_idx])
    rows, y = _extreme_rows(G, entry, bval)
    if not out_idx:
        # Nothing survives K_beta, so no phi part can exist at all.
        if r > TOL or any(w > TOL for w in eps_map.values()):
            raise ValueError("no vertices outside K_beta: r must be 0")
    elif abs(float(eps_vec @ y) - 1.0) > TOL:
        raise ValueError("epsilon . y must equal 1")
    # phi_v is column v of the resolvent R over y_v, so the weights
    # r eps_v y_v on the phi rows sum to the phi part r R eps.
    psi_weights = [(1.0 - r) * tmap.get(cid, 0.0) for cid in reg.minimal_critical]
    m = np.concatenate([psi_weights, r * eps_vec * y]) @ rows

    kind = INFINITE if r <= TOL else FINITE if r >= 1.0 - TOL else MIXED
    return StateMeasure(
        beta_value=bval,
        m=MeasureView(G, _frozen(m)),
        label=Mixture(r=r, epsilon=eps_map, t=tmap),
        # A mixture factors iff it has no phi part or its phi part charges
        # sources only.
        factors_through_graph_algebra=r <= TOL
        or all(v in reg.sources for v, w in eps_map.items() if w > TOL),
        state_type=kind,
    )


def kms_simplex(G: DirectedGraph, beta) -> SimplexDescriptor:
    """The full KMS simplex at beta: case tag plus every extreme point.

    Empty when H_beta is everything; Subcritical (phi states only, one per
    surviving vertex) when beta clears the surviving spectral radius;
    Critical (psi states of the quotient's minimal critical components plus
    phi states outside K_beta) on the boundary.  The psi rows come first in
    ``measures``, in ascending component id, then the phi rows in vertex
    order.  This is the one constructor of extreme states: a single psi_C
    or phi_{beta,v} is one of these rows.
    """
    spec, bval = _resolve(G, beta)
    entry = _entry(G, bval)
    measures, _ = _extreme_rows(G, entry, bval)
    reg, ext = entry
    psi = [
        StateMeasure(
            beta_value=ln_rho,
            m=MeasureView(G, row),
            label=label,
            factors_through_graph_algebra=True,
            state_type=INFINITE,
        )
        for row, (label, ln_rho) in zip(measures, ext.psi)
    ]
    phi = [
        StateMeasure(
            beta_value=bval,
            m=MeasureView(G, row),
            label=label,
            factors_through_graph_algebra=flag,
            state_type=FINITE,
        )
        for row, (label, flag) in zip(measures[len(psi):], ext.phi)
    ]
    return SimplexDescriptor(
        beta=spec,
        beta_value=bval,
        case=reg.case,
        H_beta=reg.H_beta,
        K_beta=reg.K_beta,
        extremes=tuple(psi + phi),
        measures=measures,
    )


def label_text(state: StateMeasure) -> str:
    """Short display name of an extreme or mixed state, as printed by the CLI."""
    lab = state.label
    if isinstance(lab, PsiC):
        return "psi{" + ",".join(lab.component.members) + "}"
    if isinstance(lab, PhiBetaV):
        return f"phi[{lab.vertex}]"
    return f"mixture(r={lab.r:g})"


def eval_state(state: StateMeasure, mu, nu) -> float:
    """phi(s_mu s_nu^*) = delta_{mu,nu} e^{-beta |mu|} m_{s(mu)}.

    Paths are either a vertex name (length zero) or a tuple of
    (source, range, copy) edge triples ordered range-to-source, so that each
    triple's source matches the next one's range.  Both must be paths of
    the state's graph: a triple names two of its vertices, an edge from the
    first to the second and an integer copy below that edge's multiplicity.
    Anything else raises ValueError.
    """
    G = state.m._graph
    _validate_path(G, mu)
    if mu != nu:
        _validate_path(G, nu)
        return 0.0
    if isinstance(mu, str):
        return state.m[mu]
    return math.exp(-state.beta_value * len(mu)) * state.m[mu[-1][0]]


def _validate_path(G: DirectedGraph, path) -> None:
    if isinstance(path, str):
        G._indices((path,))
        return
    if not isinstance(path, tuple) or not path:
        raise ValueError(f"not a path: {path!r}")
    arcs = G.arcs
    for edge in path:
        if not (isinstance(edge, tuple) and len(edge) == 3):
            raise ValueError(f"not a (source, range, copy) triple: {edge!r}")
        for name in edge[:2]:
            if not isinstance(name, str):  # an unhashable name would fail the lookup
                raise ValueError(f"not a vertex name: {name!r}")
        src, rng = G._indices(edge[:2])
        # The arc from src into rng, if any, among row rng's ascending sources.
        lo, hi = arcs.indptr[rng], arcs.indptr[rng + 1]
        at = lo + int(arcs.src[lo:hi].searchsorted(src))
        mult = int(arcs.mult[at]) if at < hi and arcs.src[at] == src else 0
        copy = edge[2]
        integer = isinstance(copy, (int, np.integer)) and not isinstance(copy, bool)
        if not (integer and 0 <= copy < mult):
            raise ValueError(f"no edge {edge!r}: {edge[0]} -> {edge[1]} has multiplicity {mult}")
    for prev, nxt in zip(path, path[1:]):
        if prev[0] != nxt[1]:
            raise ValueError(
                f"invalid path: edge into {prev[0]} followed by edge out of {nxt[1]}"
            )


def nearest_root(poly, which_root: float) -> tuple[np.ndarray, int, float]:
    """All roots of an integer polynomial, the index of the one nearest
    ``which_root`` and its distance from it (infinite when there is no root)."""
    coeffs = list(poly)
    for c in coeffs:
        if abs(c - round(c)) > 1e-12:
            raise ValueError("coefficients must be integers")
    roots = np.roots([round(c) for c in coeffs])
    if not roots.size:
        return roots, -1, math.inf
    dist = np.abs(roots - which_root)
    pick = int(np.argmin(dist))
    return roots, pick, float(dist[pick])


def perron_check(poly, which_root: float) -> bool:
    """Is the designated root of its (asserted) minimal polynomial Perron?

    True iff the root is >= 1 and strictly dominates the modulus of every
    other root.  Roots come from the companion matrix; irreducibility of the
    polynomial is the caller's responsibility.
    """
    coeffs = list(poly)
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree at least 1")
    roots, pick, dist = nearest_root(coeffs, which_root)
    if round(coeffs[0]) != 1:
        raise ValueError("polynomial must be monic")
    if dist > 1e-6:
        raise ValueError(
            f"no root within 1e-6 of {which_root}; roots are {roots}"
        )
    lam = roots[pick].real
    if lam < 1.0 - TOL:
        return False
    others = np.abs(np.delete(roots, pick))
    return bool(np.all(lam > others + TOL))
