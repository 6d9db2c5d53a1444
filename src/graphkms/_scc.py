"""Strongly connected components of a successor relation."""

from __future__ import annotations

import numpy as np


def successor_lists(A: np.ndarray) -> list[list[int]]:
    """``succ[i]`` lists the columns of the nonzero entries of row i of ``A``.

    One ``np.nonzero`` over the whole matrix, split by row.
    """
    rows, cols = np.nonzero(A)
    ends = np.cumsum(np.bincount(rows, minlength=A.shape[0])).tolist()
    cols = cols.tolist()
    return [cols[start:end] for start, end in zip([0] + ends, ends)]


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
