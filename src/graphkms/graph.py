"""Finite directed multigraphs and their component structure.

The central object is :class:`DirectedGraph`, a finite vertex list together
with integer edge multiplicities.  The vertex matrix ``A`` is indexed so that
``A[v, w]`` counts the edges whose range is ``v`` and whose source is ``w``;
powers of ``A`` then count paths.  Everything downstream (spectral data, the
component order, hereditary and saturated vertex sets) hangs off this matrix
convention, so it is fixed here once and used unchanged everywhere else.

The graph is held as the arcs of ``A`` (its nonzero entries, row-major), and
every step here runs over them in time linear in the arcs: components,
periods, closures, saturation and sources.  The condensation (the arcs
between components) is held once, in the same form, and divergence and the
Seneta order run over it.  The dense ``A`` is built once, in floats, when
first asked for, by the resolvent solves and the oracle.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ._scc import Arcs, arcs_from_entries, successor_lists, tarjan_sccs


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class GraphParseError(ValueError):
    """Raised for malformed graph text; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass(frozen=True)
class Edge:
    source: str
    range: str
    multiplicity: int = 1


class RowView(Mapping):
    """Read-only mapping from names to the entries of one read-only float row.

    Lookups return Python floats, unknown names raise KeyError, iteration
    follows ``names``, and a view equals any mapping with the same items.
    ``numpy.asarray(view)`` gives the row itself.  ``index`` maps each name
    to its position; without one it is built on the first lookup.
    """

    __slots__ = ("_names", "_index", "_row")

    def __init__(self, names: tuple, row: np.ndarray, index: dict | None = None):
        self._names = names
        self._row = row
        self._index = index

    def _positions(self) -> dict:
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self._names)}
        return self._index

    def __getitem__(self, name) -> float:
        return float(self._row[self._positions()[name]])

    def __contains__(self, name) -> bool:
        return name in self._positions()

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __array__(self, dtype=None, copy=None):
        return np.array(self._row, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(zip(self._names, self._row.tolist()))!r})"


@dataclass(frozen=True, eq=False)
class Component:
    """A strongly connected component and its Perron vector.

    ``members`` follows vertex declaration order.  ``perron_vector`` is a
    :class:`RowView` of the l1-unit Perron vector over ``members`` (under
    ``numpy.asarray``, the read-only vector), None exactly for a trivial
    component: one vertex with no loop edge.  Its rho is ``G.spectral_radii[id]``.
    """

    id: int
    members: tuple[str, ...]
    period: int
    perron_vector: RowView | None


@dataclass(frozen=True, eq=False)
class VertexSet:
    """A set of vertices with its closure properties made explicit.

    ``hereditary``: every successor (along matrix rows) of a member is a
    member.  ``saturated``: every vertex that receives at least one edge, all
    of whose in-edge sources are members, is itself a member.  Vertices with
    no incoming edges are never forced in by saturation.
    """

    members: frozenset[str]
    hereditary: bool
    saturated: bool


class DirectedGraph:
    """Immutable finite directed multigraph with cached component analysis.

    The edge lines are held as int arrays (range, source, multiplicity) in
    line order, and the distinct arcs once, as the nonzero entries of the
    vertex matrix in row-major order (``arcs``); the edges from one vertex
    to another may number at most 2^63 - 1, the int64 limit.  The graph
    layer works on the arcs alone; the dense ``matrix`` is built on first
    access.
    ``_analysis()`` fills, once, the components, the component of each
    vertex, the per-component float arrays and the condensation: an
    :class:`Arcs` over component ids with one arc per distinct pair that a
    vertex arc joins (row the range's component, column the source's,
    multiplicity the number of those vertex arcs), read by the divergence
    pass and by :func:`seneta_order`.
    ``_memo`` holds what other modules derive from the graph alone, under
    their own keys, each filled on first use: the critical temperatures
    and the regimes met so far, each with its simplex's beta-free data once
    a simplex of it is built (:mod:`graphkms.kms`), and the oracle's
    per-K_beta data and per-H_beta masks (:mod:`graphkms.oracle`).
    """

    __slots__ = (
        "vertices", "index", "_lines", "_arcs", "_edges", "_matrix", "_analysis_cache", "_memo",
    )

    def __init__(self, vertices, edges):
        vertices = tuple(_not_a_string(vertices, "a collection of vertex names"))
        if not vertices:
            raise ValueError("a graph needs at least one vertex")
        seen = set()
        for v in vertices:
            if not isinstance(v, str) or not v or any(c.isspace() for c in v):
                raise ValueError(f"bad vertex name: {v!r}")
            if v in seen:
                raise ValueError(f"duplicate vertex: {v}")
            seen.add(v)
        index = {v: i for i, v in enumerate(vertices)}
        lines: list[int] = []  # range, source and multiplicity of every edge line
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*_not_a_string(e, "an Edge or a (source, range[, multiplicity]) tuple"))
            if e.source not in index:
                raise ValueError(f"unknown vertex in edge: {e.source}")
            if e.range not in index:
                raise ValueError(f"unknown vertex in edge: {e.range}")
            m = e.multiplicity
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"edge multiplicity must be a positive integer: {e}")
            lines += (index[e.range], index[e.source], m)
        overflow = _total_overflow(vertices, lines)
        if overflow is not None:
            raise ValueError(overflow[1])
        self._store(vertices, index, lines)

    @classmethod
    def _from_lines(cls, vertices: tuple, index: dict, lines: list[int]) -> DirectedGraph:
        """A graph from checked edge lines: ``lines`` holds the range, source
        and multiplicity of each, one after the other."""
        G = object.__new__(cls)
        G._store(vertices, index, lines)
        return G

    def _store(self, vertices, index, lines) -> None:
        lines = _frozen(np.array(lines, dtype=np.int64).reshape(-1, 3).T)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_lines", lines)
        object.__setattr__(self, "_arcs", arcs_from_entries(len(vertices), *lines))
        object.__setattr__(self, "_edges", None)
        object.__setattr__(self, "_matrix", None)
        object.__setattr__(self, "_analysis_cache", None)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("DirectedGraph is immutable")

    def __repr__(self):
        return f"DirectedGraph({len(self.vertices)} vertices, {self._lines.shape[1]} edge lines)"

    @property
    def arcs(self) -> Arcs:
        """The distinct arcs: row ``rng`` (range), column ``src`` (source) and
        summed multiplicity of every nonzero matrix entry, row-major."""
        return self._arcs

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edge lines, in order, repeated lines kept apart."""
        if self._edges is None:
            names = self.vertices
            rng, src, mult = self._lines.tolist()
            edges = tuple(Edge(names[s], names[r], m) for r, s, m in zip(rng, src, mult))
            object.__setattr__(self, "_edges", edges)
        return self._edges

    @property
    def matrix(self) -> np.ndarray:
        """The read-only float64 vertex matrix: ``A[v, w]`` counts the edges
        with range v and source w.  Built from the arcs on first access, and
        the one dense copy that every solve and check reads; its counts are
        exact below 2^53, while ``arcs.mult`` and ``edges`` keep the integers."""
        if self._matrix is None:
            n = len(self.vertices)
            A = np.zeros((n, n))
            A[self._arcs.rng, self._arcs.src] = self._arcs.mult
            object.__setattr__(self, "_matrix", _frozen(A))
        return self._matrix

    # -- component analysis -------------------------------------------------

    def _analysis(self):
        cached = self._analysis_cache
        if cached is not None:
            return cached
        from . import spectral

        arcs = self._arcs
        succ = successor_lists(arcs)
        raw = tarjan_sccs(succ)
        # Canonical ids: sort components by their smallest vertex index.
        blocks = sorted((sorted(comp) for comp in raw), key=lambda rows: rows[0])
        comp_of = [0] * len(succ)
        for cid, rows in enumerate(blocks):
            for i in rows:
                comp_of[i] = cid
        comp_arr = _frozen(np.array(comp_of, dtype=np.int64))
        perron = spectral.perron_blocks(arcs, blocks, self.vertices)
        periods = spectral.block_periods(arcs, comp_arr, [rows[0] for rows in blocks])
        names = self.vertices
        components = []
        radii = [0.0] * len(blocks)
        ln_radii = [-math.inf] * len(blocks)
        for cid, (rows, data, period) in enumerate(zip(blocks, perron, periods.tolist())):
            members = tuple(names[i] for i in rows)
            vec = None
            if data is not None:
                radius, x, _ = data
                vec = RowView(members, x)
                radii[cid], ln_radii[cid] = radius, math.log(radius)
            components.append(Component(id=cid, members=members, period=period, perron_vector=vec))
        # The condensation, held once: one arc per distinct pair of component
        # ids that a vertex arc joins, row the range's component and column
        # the source's, row-major, its multiplicity the number of vertex arcs
        # joining the pair (a count, not their edge totals, which can wrap
        # int64).  The divergence pass below and seneta_order read it.
        cross = comp_arr[arcs.rng] != comp_arr[arcs.src]
        row, col = comp_arr[arcs.rng[cross]], comp_arr[arcs.src[cross]]
        cond = arcs_from_entries(len(blocks), row, col, np.ones(row.size, dtype=np.int64))
        # Tarjan emits components in reverse topological order: arcs between
        # distinct components always point at an earlier entry.  So a
        # backward pass meets every component after all the components whose
        # closure holds it, which have passed their divergence values on
        # along their condensation arcs: the maximum received is the strict
        # divergence, and the component's own ln rho joins it before it
        # passes on.
        strict = [-math.inf] * len(raw)
        top = [-math.inf] * len(raw)
        below = successor_lists(cond)
        for comp in reversed(raw):
            cid = comp_of[comp[0]]
            strict[cid] = top[cid]
            top[cid] = max(top[cid], ln_radii[cid])
            for d in below[cid]:
                top[d] = max(top[d], top[cid])
        floats = (_frozen(np.array(a, dtype=float)) for a in (top, strict, radii, ln_radii))
        cached = (tuple(components), comp_arr, *floats, cond)
        object.__setattr__(self, "_analysis_cache", cached)
        return cached

    @property
    def components(self) -> tuple[Component, ...]:
        return self._analysis()[0]

    def component_of(self, v: str) -> Component:
        comps, comp_of = self._analysis()[:2]
        (i,) = self._indices((v,))
        return comps[comp_of[i]]

    @property
    def vertex_components(self) -> np.ndarray:
        """Component id of every vertex, in vertex order (read-only)."""
        return self._analysis()[1]

    @property
    def divergence(self) -> np.ndarray:
        """Per component id C, the largest ln rho(A_D) over nontrivial D <= C.

        A read-only float array.  D <= C means the hereditary closure of D
        contains C, so the path series out of C diverges exactly for beta at
        or below this value; -inf when no such D exists.  It is the larger
        of C's own ln rho and ``strict_divergence[C]``.  Every
        temperature-indexed set (H_beta, K_beta, the critical list, beta_v)
        is a comparison against this array.  It and ``strict_divergence``
        come from one backward pass over the condensation that
        ``_analysis`` holds, in Tarjan's order.
        """
        return self._analysis()[2]

    @property
    def strict_divergence(self) -> np.ndarray:
        """Per component id C, the largest ln rho(A_D) over nontrivial D < C.

        A read-only float array.  D < C means D <= C and D != C; -inf when
        no such D exists.  A critical component is minimal among the
        critical ones exactly when this value falls below beta - TOL, so the
        minimal critical components are a comparison against this array.
        """
        return self._analysis()[3]

    @property
    def spectral_radii(self) -> np.ndarray:
        """Per component id, rho(A_C), its one store; 0.0 if trivial (read-only)."""
        return self._analysis()[4]

    @property
    def ln_spectral_radii(self) -> np.ndarray:
        """Per component id, ln rho(A_C), the one place it is taken; -inf for
        a trivial component (read-only)."""
        return self._analysis()[5]

    # -- vertex sets ---------------------------------------------------------

    def vertex_set(self, members) -> VertexSet:
        """The set of the named vertices, or of the vertices where a boolean
        mask over ``vertices`` is true, with its closure flags."""
        if isinstance(members, np.ndarray) and members.dtype == bool:
            if members.shape != (len(self.vertices),):
                raise ValueError("a vertex mask needs one entry per vertex")
            inside = members
            mem = frozenset(itertools.compress(self.vertices, inside.tolist()))
        else:
            mem = _members_of(members)
            inside = self._mask(mem)
        arcs = self._arcs
        hereditary = not (inside[arcs.rng] & ~inside[arcs.src]).any()
        saturated = not swallowed_mask(arcs, inside).any()
        return VertexSet(members=mem, hereditary=hereditary, saturated=saturated)

    def _mask(self, members) -> np.ndarray:
        inside = np.zeros(len(self.vertices), dtype=bool)
        inside[self._indices(members)] = True
        return inside

    def _indices(self, names) -> list[int]:
        """Positions of the named vertices; an unknown name raises ValueError."""
        try:
            return [self.index[v] for v in names]
        except KeyError as err:
            raise ValueError(f"unknown vertex: {err.args[0]}") from None


def _arcs_from_outside(arcs: Arcs, inside: np.ndarray) -> np.ndarray:
    """Per vertex, the number of its arcs whose source lies outside."""
    return np.bincount(arcs.rng[~inside[arcs.src]], minlength=arcs.n)


def _receives(arcs: Arcs) -> np.ndarray:
    """Per vertex, whether it receives an edge: its row holds an arc."""
    return arcs.indptr[1:] > arcs.indptr[:-1]


def swallowed_mask(arcs: Arcs, inside: np.ndarray) -> np.ndarray:
    """Vertices outside that receive edges, none of them from outside."""
    return ~inside & _receives(arcs) & (_arcs_from_outside(arcs, inside) == 0)


def saturated_mask(arcs: Arcs, inside: np.ndarray) -> np.ndarray:
    """The saturation of a hereditary vertex mask, as a new mask.

    In-degree counting: a vertex joins once it receives edges and its count
    of arcs from outside drops to 0, and each join lowers the counts of the
    vertices its arcs point into.  Every arc is looked at a bounded number
    of times.
    """
    work = np.flatnonzero(swallowed_mask(arcs, inside)).tolist()
    if not work:
        return inside.copy()
    missing = _arcs_from_outside(arcs, inside).tolist()
    # The arcs grouped by source (compressed sparse columns).
    into = arcs.rng[np.argsort(arcs.src, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(arcs.src, minlength=arcs.n)).tolist()
    starts = [0] + ends
    flags = inside.tolist()
    for v in work:
        flags[v] = True
    while work:
        w = work.pop()
        for v in into[starts[w]:ends[w]]:
            missing[v] -= 1
            if not missing[v] and not flags[v]:
                flags[v] = True
                work.append(v)
    return np.array(flags)


def _total_overflow(vertices, lines: list[int]) -> tuple[int, str] | None:
    """The first edge line at which the multiplicities of its (range,
    source) pair total more than 2^63 - 1, past which an int64 arc wraps,
    as its position in ``lines`` (flat range, source, multiplicity triples)
    and a message; None when there is none.  One sum settles it unless the
    lines together pass that total."""
    mult = lines[2::3]
    if sum(mult) <= 2**63 - 1:
        return None
    totals: dict[tuple[int, int], int] = {}
    for k, pair in enumerate(zip(lines[0::3], lines[1::3])):
        totals[pair] = totals.get(pair, 0) + mult[k]
        if totals[pair] > 2**63 - 1:
            rng, src = pair
            return k, f"more than 2^63 - 1 edges from {vertices[src]} to {vertices[rng]}"
    return None


def _not_a_string(s, what: str):
    """``s`` itself, unless it is a ``str``, which raises TypeError."""
    if isinstance(s, str):
        raise TypeError(f"expected {what}, not a single string")
    return s


def _members_of(s) -> frozenset[str]:
    if isinstance(s, VertexSet):
        return s.members
    return frozenset(_not_a_string(s, "a collection of vertex names"))


# -- parsing ------------------------------------------------------------------


def parse_graph(text: str) -> DirectedGraph:
    """Parse the plain-text graph format.

    The first effective line is ``vertices: name1 name2 ...``; every further
    line is ``edge SRC DST [MULT]`` and contributes MULT (default 1) edges
    with source SRC and range DST.  MULT is written in ASCII decimal digits,
    leading zeros allowed, and the lines from one SRC to one DST total at
    most 2^63 - 1.  ``#``
    starts a comment.
    """
    vertices: list[str] | None = None
    index: dict[str, int] = {}
    lines: list[int] = []  # range, source and multiplicity of every edge line
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if vertices is None:
            line = line.strip()
            if not line.startswith("vertices:"):
                raise GraphParseError("expected a 'vertices:' line first", lineno)
            names = line[len("vertices:"):].split()
            if not names:
                raise GraphParseError("empty vertex list", lineno)
            index = {v: i for i, v in enumerate(names)}
            if len(index) != len(names):
                raise GraphParseError("duplicate vertex name", lineno)
            vertices = names
            continue
        if tokens[0] != "edge":
            raise GraphParseError(f"unknown directive: {tokens[0]}", lineno)
        if len(tokens) not in (3, 4):
            raise GraphParseError("edge lines take 2 or 3 arguments", lineno)
        src, dst = index.get(tokens[1]), index.get(tokens[2])
        if src is None or dst is None:
            name = tokens[1] if src is None else tokens[2]
            raise GraphParseError(f"unknown vertex: {name}", lineno)
        digits = tokens[3] if len(tokens) == 4 else "1"
        # More than 19 significant digits pass 2^63 - 1 whatever they are:
        # taken as 2^63, they need no int() of a string past CPython's
        # 4300-digit limit, and _total_overflow names the line.
        significant = digits.lstrip("0") if digits.isascii() and digits.isdigit() else ""
        mult = 2**63 if len(significant) > 19 else int(significant or 0)
        if mult < 1:
            raise GraphParseError(f"bad multiplicity: {digits}", lineno)
        lines += (dst, src, mult)
    if vertices is None:
        raise GraphParseError("no 'vertices:' line found")
    overflow = _total_overflow(vertices, lines)
    if overflow is not None:
        # Every line past the vertices line that is not blank is an edge line.
        edge_lines = [n for n, rawline in enumerate(text.splitlines(), start=1)
                      if rawline.split("#", 1)[0].split()[:1] == ["edge"]]
        raise GraphParseError(overflow[1], edge_lines[overflow[0]])
    return DirectedGraph._from_lines(tuple(vertices), index, lines)


# -- basic operations ----------------------------------------------------------


def seneta_order(G: DirectedGraph) -> tuple[Component, ...]:
    """Components ordered so the permuted vertex matrix is block upper triangular.

    Trivial components talking to no nontrivial component come first; after
    that, repeatedly a minimal remaining component.  Ties are broken by the
    smallest original vertex index, so the order is deterministic.

    Kahn's algorithm over the condensation that ``G._analysis`` holds (one
    arc per distinct pair of components, row the range's, column the
    source's), with a min-heap of the components whose successors are all
    placed.  The heap key is (divergence is finite, id); canonical ids
    follow the smallest vertex index.  The first group (divergence -inf) is
    closed under successors, so one heap drains it before any other
    component.
    """
    comps = G.components
    late = np.isfinite(G.divergence).tolist()
    cond = G._analysis()[6]
    pending = np.bincount(cond.src, minlength=len(comps)).tolist()
    preds = successor_lists(cond)  # per component, the sources of its arcs
    heap = [(late[i], i) for i in range(len(comps)) if pending[i] == 0]
    heapq.heapify(heap)
    ordered: list[int] = []
    while heap:
        _, i = heapq.heappop(heap)
        ordered.append(i)
        for up in preds[i]:
            pending[up] -= 1
            if pending[up] == 0:
                heapq.heappush(heap, (late[up], up))
    return tuple(comps[i] for i in ordered)


def hereditary_closure(G: DirectedGraph, S) -> VertexSet:
    """Smallest hereditary vertex set containing ``S``.

    A depth-first search along the arcs of each row, so every arc is looked
    at once at most.
    """
    members = _members_of(S)
    cols = G.arcs.src.tolist()
    ends = G.arcs.indptr.tolist()
    seen = [False] * len(G.vertices)
    work = G._indices(members)
    for i in work:
        seen[i] = True
    while work:
        i = work.pop()
        for j in cols[ends[i]:ends[i + 1]]:
            if not seen[j]:
                seen[j] = True
                work.append(j)
    return G.vertex_set(np.array(seen))


def saturation(G: DirectedGraph, H) -> VertexSet:
    """Smallest saturated hereditary set containing the hereditary set ``H``.

    A vertex is swallowed once it receives at least one edge and every one of
    its in-edge sources already lies inside; vertices with no incoming edges
    are never swallowed.
    """
    vs = H if isinstance(H, VertexSet) else G.vertex_set(H)
    if not vs.hereditary:
        raise ValueError("saturation is only defined for hereditary sets")
    return G.vertex_set(saturated_mask(G.arcs, G._mask(vs.members)))


def sources(G: DirectedGraph) -> frozenset[str]:
    """Vertices receiving no edges at all."""
    return frozenset(itertools.compress(G.vertices, (~_receives(G.arcs)).tolist()))
