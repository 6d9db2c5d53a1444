"""Arc arrays of a nonnegative matrix and its strongly connected components."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Arcs(NamedTuple):
    """The nonzero entries of an n x n matrix, once each, sorted row-major.

    Arc k is the entry ``mult[k]`` at row ``rng[k]`` and column ``src[k]``;
    the arcs of row i are ``indptr[i]:indptr[i + 1]`` (compressed sparse
    rows).  The order is that of ``np.nonzero`` on the matrix.  All arrays
    are read-only.
    """

    n: int
    rng: np.ndarray
    src: np.ndarray
    mult: np.ndarray
    indptr: np.ndarray


def arcs_from_entries(n: int, rng, src, mult) -> Arcs:
    """Arcs of the n x n matrix that sums ``mult[k]`` into (rng[k], src[k]).

    Repeated positions are added up; entries must be positive.
    """
    key = np.asarray(rng, dtype=np.int64) * n + np.asarray(src, dtype=np.int64)
    # Array methods rather than the numpy functions that wrap them: the
    # graph layer calls this twice per graph, mostly on a handful of arcs.
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = first.nonzero()[0]
    mult = np.add.reduceat(np.asarray(mult)[order], first)
    rng, src = np.divmod(key[first], n)
    indptr = rng.searchsorted(np.arange(n + 1))
    for a in (rng, src, mult, indptr):
        a.setflags(write=False)
    return Arcs(n, rng, src, mult, indptr)


def arcs_of_matrix(M: np.ndarray) -> Arcs:
    """Arcs of a square matrix, from one ``np.nonzero``."""
    rng, src = np.nonzero(M)
    return arcs_from_entries(M.shape[0], rng, src, M[rng, src])


def successor_lists(arcs: Arcs) -> list[list[int]]:
    """``succ[i]`` lists the columns of the arcs of row i, ascending."""
    cols = arcs.src.tolist()
    ends = arcs.indptr.tolist()
    return [cols[start:end] for start, end in zip(ends, ends[1:])]


def tarjan_sccs(succ: list[list[int]]) -> list[list[int]]:
    """Partition ``range(len(succ))`` into SCCs.

    ``succ[i]`` lists the direct successors of node ``i``.  Components are
    returned in reverse topological order of the condensation: every arc
    between distinct components points from a later component to an earlier
    one in the returned list.  Iterative so deep graphs cannot overflow the
    interpreter stack.
    """
    n = len(succ)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # Explicit DFS frames: (node, iterator position into succ[node]).
        work = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            targets = succ[node]
            while pos < len(targets):
                child = targets[pos]
                pos += 1
                if index[child] == -1:
                    work.append((node, pos))
                    work.append((child, 0))
                    recurse = True
                    break
                if on_stack[child]:
                    lowlink[node] = min(lowlink[node], index[child])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp.append(top)
                    if top == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs
