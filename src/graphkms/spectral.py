"""Perron data for nonnegative matrices and the resolvent solves behind states.

All reals are 64-bit floats.  The comparison tolerance is 1e-9 unless an
operation states otherwise; resolvent convergence uses a 1e-12 margin.
Nothing here iterates open-endedly.  Perron data comes from Noda's
shift-invert iteration (Noda 1971; quadratic convergence, Elsner 1976), run
on one stack of equal-sized irreducible blocks at a time with LU solves and
products only, at most 64 steps, checked by its residual and by the gap
between its shift and its radius; no eigensolver runs.  A 2x2 block or a
single weighted cycle starts from its closed-form Perron vector, which
passes those checks without a solve, as does a block whose power steps
converge.  A block that would still need solves first tries a one-vertex
rome, a vertex on every cycle: rho is then the root of a scalar
first-return equation, found by at most 64 Newton steps, each one pass over
the block's arcs, and the last pass gives the Perron vector as its logs;
a block whose Newton does not settle on the root goes on to Noda's.
Every product with a block, that closed form and the rome's passes read
the arcs inside the block; a block is held as a dense array only while
Noda's LU solves factor it.  Periods of all blocks of a matrix come from one
breadth-first search, linear in the arcs, and the resolvent series doubles
its number of terms at most 64 times.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._scc import Arcs, arcs_of_matrix, successor_lists, tarjan_sccs

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


def perron_blocks(arcs: Arcs, blocks, names) -> list:
    """Perron radius, l1-unit eigenvector and residual of irreducible blocks.

    ``blocks[b]`` lists the rows of an irreducible diagonal block of the
    matrix whose arcs are ``arcs``; every row lies in exactly one block.
    ``names[i]`` names row i in errors.  A block with a cycle gets
    (radius, vector, residual), the vector read-only; one without gets None.

    Blocks of one size are stacked and run Noda's iteration together
    (Noda 1971), which needs only LU solves and products.  Every product
    Sx, in the start residual, in each power step and in the residual after
    each solve, is one ``np.bincount`` over the arcs inside the stack's
    blocks (:func:`_radius_and_residual`), so it costs the arcs, not k^2 per
    block.  A block is held as a dense k x k array only if it reaches
    Noda's iteration: the blocks that do are filled from their arcs just
    before their first LU solve.  The start x is
    the closed-form Perron vector of a 2x2 block or of a single cycle with
    unequal multiplicities (:func:`_closed_form_start`), and the uniform
    vector for every other block.  A start that fails the residual test
    below first takes power steps x <- (S + I)x, l1-normalised, one product
    each: at most k, and none once its residual is not below half that of 8
    steps before.  The block keeps their result only if that passes the
    test; stalled steps can leave entries from which solves lose positivity.
    A block that would now enter Noda's iteration first tries a one-vertex
    rome (:func:`_through_one_vertex_rome`, one pass over its arcs per
    Newton step, no dense block), which gives a vector only where Newton
    settled on the root of the first-return equation.  The block keeps that
    vector if it passes the residual test below, its radius and residual
    taken by the same product as every other vector's.  A block with no
    one-vertex rome, whose Newton did not settle, or whose rome vector fails
    the test, enters Noda's iteration from its start or power steps as if
    the rome had not been tried.  Each Noda step solves
    (shift I - S) y = x, with the shift at the Collatz-Wielandt upper bound
    sigma = max_i (Sx)_i / x_i of rho.  For y > 0 the next bound is
    shift - min_i x_i / y_i, and the bounds fall to rho quadratically
    (Elsner 1976).  The shift never drops below 1e-10 (relative) above the
    radius sum(Ax), which keeps the solve nonsingular; a y that is not
    positive is signed to sum positive, has negative rounding clipped to 0
    and resets the bound to that floor.  x is y l1-normalised.

    A block stops once its residual max|Ax - rho x| is at most
    1e-12 max(1, rho) and its last shift lies within 1e-9 (relative) of its
    radius: with loops of multiplicity 10^6 the residual alone can pass on
    a pair that is not the Perron pair.  A rome vector needs the residual
    test and its settled root instead: every row but the rome's has
    (Sx)_v = lambda x_v whatever lambda is, so its residual can pass on a
    wrong lambda where the rome's entry is tiny, and the root is what pins
    rho (see :func:`_through_one_vertex_rome`).  2x2 blocks, cycles, 1x1 blocks and blocks
    with constant row sums stop at the start, with no power step or solve.
    A stopped block leaves the stack, so its data do not depend on the
    blocks stacked with it.  Raises when a block has not stopped after 64
    Noda steps.
    """
    out: list = [None] * len(blocks)
    sizes = np.array([len(rows) for rows in blocks], dtype=np.int64)
    # Block and position within it of every row, so that each stack's arcs
    # are the arcs that stay inside one of its blocks.
    flat = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.int64, count=arcs.n)
    block = np.empty(arcs.n, dtype=np.int64)
    block[flat] = np.repeat(np.arange(len(blocks)), sizes)
    pos = np.empty(arcs.n, dtype=np.int64)
    pos[flat] = np.arange(len(flat)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    inner = block[arcs.rng] == block[arcs.src]
    b_in, r_in, s_in = block[arcs.rng[inner]], pos[arcs.rng[inner]], pos[arcs.src[inner]]
    m_in = arcs.mult[inner].astype(float)
    inner_arcs = np.bincount(b_in, minlength=len(blocks))
    cyclic = (sizes > 1) | (inner_arcs > 0)
    for k in set(sizes[cyclic].tolist()):
        which = np.flatnonzero(cyclic & (sizes == k))
        slot = np.empty(len(blocks), dtype=np.int64)
        slot[which] = np.arange(len(which))
        here = sizes[b_in] == k
        # The stack's arcs: row and column in the stacked (len(which), k)
        # vectors, flattened, and multiplicity.
        offset = slot[b_in[here]] * k
        stack = (offset + r_in[here], offset + s_in[here], m_in[here])
        x = _closed_form_start(stack, k, inner_arcs[which] == k)
        Ax, radius, residual = _radius_and_residual(stack, x)
        start, trail = (x, Ax, radius, residual), [np.inf] * 8 + [residual]
        live = residual > 1e-12 * np.maximum(1.0, radius)
        for _ in range(k):
            live &= residual < 0.5 * trail[-9]
            if not live.any():
                break
            y = Ax + x
            y /= y.sum(axis=1, keepdims=True)
            Sy, r, res = _radius_and_residual(stack, y)
            if live.all():
                x, Ax, radius, residual = y, Sy, r, res
            else:
                x, Ax = np.where(live[:, None], y, x), np.where(live[:, None], Sy, Ax)
                radius, residual = np.where(live, r, radius), np.where(live, res, residual)
            trail.append(residual)
        back = ~(residual <= 1e-12 * np.maximum(1.0, radius))
        x, Ax = np.where(back[:, None], start[0], x), np.where(back[:, None], start[1], Ax)
        radius, residual = np.where(back, start[2], radius), np.where(back, start[3], residual)
        sigma = (Ax / x).max(axis=1)
        shift = sigma.copy()
        live = np.arange(len(which))
        S = None
        for step in range(65):
            r = radius[live]
            unsettled = residual[live] > 1e-12 * np.maximum(1.0, r)
            live = live[unsettled | (shift[live] - r > 1e-9 * r)]
            if step == 0 and live.size:
                live = _settle_through_romes(stack, k, live, x, radius, residual)
            if not live.size:
                break
            if step == 64:
                j = live[0]
                raise ConvergenceError(
                    f"Perron pair of the {k}-vertex block with first member "
                    f"{names[blocks[which[j]][0]]} has residual {residual[j]:.3g}"
                )
            if S is None:
                # The blocks that reach Noda's iteration, and only they, go
                # dense for its LU solves: S[dense[j]] is stacked block j.
                dense = np.full(len(which), -1)
                dense[live] = np.arange(len(live))
                rows, cols, mult = stack
                at = dense[rows // k]
                keep = at >= 0
                S = np.zeros((len(live), k, k))
                S[at[keep], rows[keep] % k, cols[keep] % k] = mult[keep]
            s = np.maximum(sigma[live], radius[live] * (1.0 + 1e-10))
            xl = x[live]
            # s I - S in one new array, bit for bit: 0 - S keeps the zeros at
            # +0.0, and (0 - S_ii) + s rounds exactly as s - S_ii.
            W = S[dense[live]]
            np.subtract(0.0, W, out=W)
            W.reshape(len(live), k * k)[:, :: k + 1] += s[:, None]
            y = np.linalg.solve(W, xl[:, :, None])[:, :, 0]
            positive = (y > 0).all(axis=1)
            noda = s - (xl / np.where(positive[:, None], y, 1.0)).min(axis=1)
            y = np.clip(np.where(y.sum(axis=1, keepdims=True) > 0, y, -y), 0.0, None)
            y /= y.sum(axis=1, keepdims=True)
            x[live] = y
            _, r, res = _radius_and_residual(stack, x)
            r = r[live]
            radius[live], residual[live], shift[live] = r, res[live], s
            sigma[live] = np.where(positive, noda, r * (1.0 + 1e-10))
        x.setflags(write=False)
        for b, r, xb, res in zip(which.tolist(), radius.tolist(), x, residual.tolist()):
            out[b] = (r, xb, res)
    return out


def _closed_form_start(stack, k: int, cycle: np.ndarray) -> np.ndarray:
    """l1-unit start vectors for a stack of irreducible k x k blocks.

    The stack is given by its arcs: ``stack`` is (rows, cols, mult), and
    entry ``mult[j]`` of block ``rows[j] // k`` sits at its row
    ``rows[j] % k`` and column ``cols[j] % k``; ``cycle`` has one flag per
    block.  The 2 x 2 entries and each cycle's successors and
    multiplicities below are read off the arcs, with no dense block.

    A 2 x 2 block [[a, b], [c, d]] gets its Perron vector, proportional to
    (b, rho - a): with h = (a - d)/2 and g = sqrt(h^2 + bc), rho - a is
    g - h, taken as bc/(g + h) when h > 0 so that nothing cancels.  A block
    with ``cycle[i]`` set is a single cycle, row r with one arc, of
    multiplicity m_r, to column next(r), so x_next(r) = x_r rho/m_r with
    ln rho the mean of ln m: ln x is a cumulative sum of ln rho - ln m,
    shifted to maximum 0 before exp so nothing overflows.  Every other
    block, a cycle of equal multiplicities included, keeps the uniform
    vector, and so does a start with an entry that is not positive and
    finite (one that underflowed to 0, say).
    """
    rows, cols, mult = stack
    count = len(cycle)
    x = np.full((count, k), 1.0 / k)
    if k == 1:
        return x
    if k == 2:
        entries = np.zeros(4 * count)
        entries[2 * rows + cols % 2] = mult
        a, b, c, d = entries.reshape(count, 4).T
        h = 0.5 * (a - d)
        q = np.sqrt(h * h + b * c) + np.abs(h)
        closed = np.stack([b, np.where(h > 0, b * c / q, q)], axis=1)
        which = np.arange(count)
    else:
        which = np.flatnonzero(cycle)
        succ, m = np.zeros(count * k, dtype=np.int64), np.zeros(count * k)
        succ[rows], m[rows] = cols % k, mult
        succ, m = succ.reshape(count, k)[which], m.reshape(count, k)[which]
        weighted = (m != m[:, :1]).any(axis=1)
        which, succ, m = which[weighted], succ[weighted], m[weighted]
        if not which.size:
            return x
        # The rows of each cycle in the order it visits them from row 0.
        at = np.arange(len(which))[:, None]
        order = np.zeros((len(which), k), dtype=np.int64)
        for j in range(1, k):
            order[:, j] = succ[at[:, 0], order[:, j - 1]]
        log_m = np.log(m[at, order])
        rise = log_m.mean(axis=1, keepdims=True) - log_m
        # ln x_j sums the first j rises, carried as hi + lo: hi is the
        # running sum and lo the running sum of the exact rounding error of
        # each addition (Knuth's two-sum).  The k rises of the whole cycle
        # miss 0 by the rounding of the mean; that miss is spread evenly
        # along the cycle instead of falling on its last arc.
        hi, lo = np.zeros((len(which), k + 1)), np.zeros((len(which), k + 1))
        np.cumsum(rise, axis=1, out=hi[:, 1:])
        prev, total = hi[:, 1:-1], hi[:, 2:]
        back = total - prev
        np.cumsum((prev - (total - back)) + (rise[:, 1:] - back), axis=1, out=lo[:, 2:])
        lo -= (hi[:, -1:] + lo[:, -1:]) * np.linspace(0.0, 1.0, k + 1)
        hi, lo = hi[:, :-1], lo[:, :-1]
        top = (hi + lo).argmax(axis=1)[:, None]
        log_x = (hi - hi[at, top]) + (lo - lo[at, top])
        closed = np.empty((len(which), k))
        closed[at, order] = np.exp(log_x)
    closed /= closed.sum(axis=1, keepdims=True)
    usable = (np.isfinite(closed) & (closed > 0)).all(axis=1)
    x[which[usable]] = closed[usable]
    return x


def _settle_through_romes(stack, k: int, live: np.ndarray, x, radius, residual):
    """The blocks of ``live`` that a one-vertex rome does not settle.

    ``stack`` is a stack of k x k blocks as in :func:`_closed_form_start`,
    and ``live`` the positions in it of the blocks about to enter Noda's
    iteration.  Each gets :func:`_through_one_vertex_rome`; where that gives
    a vector whose residual max|Sx - rho x| is at most 1e-12 max(1, rho),
    its vector, radius and residual are written to ``x``, ``radius`` and
    ``residual`` in place, and the block leaves ``live``.
    """
    rows, cols, mult = stack
    by_row = np.argsort(rows, kind="stable")
    # Block j's arcs are by_row[ends[j]:ends[j + 1]], in arc order.
    ends = np.searchsorted(rows[by_row], np.arange(len(x) + 1) * k)
    rest = []
    for j in live.tolist():
        at = by_row[ends[j] : ends[j + 1]]
        block = (rows[at] - j * k, cols[at] - j * k, mult[at])
        xj = _through_one_vertex_rome(block, k)
        if xj is not None:
            _, r, res = _radius_and_residual(block, xj)
            if res[0] <= 1e-12 * max(1.0, r[0]):
                x[j], radius[j], residual[j] = xj[0], r[0], res[0]
                continue
        rest.append(j)
    return np.array(rest, dtype=np.int64)


def _through_one_vertex_rome(block, k: int):
    """The l1-unit Perron vector, shape (1, k), of one irreducible k x k
    block through a one-vertex rome, or None if the candidate is not one or
    Newton does not settle.

    ``block`` is (rows, cols, mult) as a stack of one block.  A rome is a
    vertex set that meets every cycle (Block, Guckenheimer, Misiurewicz &
    Young, LNM 819, 1980).  The candidate r has the largest in-degree times
    out-degree, ties to the smallest position; one Kahn pass over the block
    without r confirms it and orders the other rows so that each comes after
    every column it reads.  For lambda > 0, x_v = x_r h_v for v != r with
    h_v = sum_w S_vw h_w / lambda and h_r = 1, so f(lambda) = sum_w S_rw h_w
    / lambda, the sum over first-return paths r -> r of their multiplicity
    products times lambda^-length, is 1 exactly at rho.  In mu = ln lambda,
    g(mu) = ln f(e^mu) is a log-sum-exp of lines: convex, decreasing, and
    g(0) >= 0 for integer multiplicities, so Newton steps from mu = 0 rise
    monotonically to ln rho; at most 64.  One pass in Kahn's order evaluates
    g, dg/dmu and l_v = ln h_v, each l carried as hi + lo with the rounding
    of every term ln m + l_w - mu kept (Knuth's two-sum), and at the last mu
    the same pass gives x = exp(l - max l).

    The vector is kept only if Newton stopped, no longer rising, before its
    64 steps, with |g| <= 1e-12 at that last mu.  There (Sx)_v / x_v is
    lambda for every row but r and lambda f for r, so rho lies between
    lambda and lambda e^g (Collatz-Wielandt).  Where g(0) < 0, as a real
    block with small entries can have, Newton stops at mu = 0 and the block
    is not settled here unless |g(0)| passes too.
    """
    rows, cols, mult = block
    degree = np.bincount(rows, minlength=k) * np.bincount(cols, minlength=k)
    r = int(degree.argmax())
    rows, cols = rows.tolist(), cols.tolist()
    # terms[v] lists the arcs of row v; row v waits for pending[v] columns.
    terms = [[] for _ in range(k)]
    pending, readers = [0] * k, [[] for _ in range(k)]
    for j, (v, w) in enumerate(zip(rows, cols)):
        terms[v].append(j)
        if v != r and w != r:
            pending[v] += 1
            readers[w].append(v)
    order = [v for v in range(k) if v != r and not pending[v]]
    for w in order:  # the order grows while it is read
        for v in readers[w]:
            pending[v] -= 1
            if not pending[v]:
                order.append(v)
    if len(order) < k - 1:
        return None
    order.append(r)
    plan = [(v, terms[v]) for v in order]
    log_m = np.log(mult)
    hi, lo, slope = [0.0] * k, [0.0] * k, [0.0] * k
    exp, log, fsum = math.exp, math.log, math.fsum

    def first_return(mu: float):
        # ln m - mu per arc, exactly as c + c_lo.
        c = log_m - mu
        back = c - log_m
        c_lo = ((log_m - (c - back)) - (mu + back)).tolist()
        c = c.tolist()
        for v, js in plan:
            # Each term ln m + l_w - mu as a + a_lo, a by two-sum, and its slope.
            parts = []
            for j in js:
                w = cols[j]
                a, b = hi[w], c[j]
                h = a + b
                t = h - a
                parts.append((h, lo[w] + c_lo[j] + ((a - (h - t)) + (b - t)), slope[w]))
            if len(parts) == 1:
                ((h, l, s),) = parts
            else:
                top = max(parts)[0]
                e = [exp((a - top) + a_lo) for a, a_lo, _ in parts]
                total = fsum(e)
                b = log(total)
                h = top + b
                t = h - top
                l = (top - (h - t)) + (b - t)
                s = fsum(ei * part[2] for ei, part in zip(e, parts)) / total
            if v == r:  # the last row: its l stays 0, the boundary value
                return h + l, s - 1.0
            hi[v], lo[v], slope[v] = h, l, s - 1.0

    mu = 0.0
    for _ in range(64):
        g, dg = first_return(mu)
        after = mu - g / dg
        if not after > mu:
            break
        mu = after
    else:
        return None  # the last pass was not at the last mu
    if not abs(g) <= 1e-12:
        return None
    hi, lo = np.array(hi), np.array(lo)
    top = (hi + lo).argmax()
    x = np.exp((hi - hi[top]) + (lo - lo[top]))
    return (x / x.sum())[None, :]


def _radius_and_residual(stack, x: np.ndarray):
    """Sx, the radius sum(Sx) and the residual max|Sx - radius x| of a stack
    of blocks S, given by its arcs as in :func:`_closed_form_start`, and
    l1-unit vectors x.  Sx is one ``np.bincount`` over the arcs, which adds
    the terms of each row in arc order."""
    rows, cols, mult = stack
    Sx = np.bincount(rows, mult * x.take(cols), x.size).reshape(x.shape)
    radius = Sx.sum(axis=1)
    return Sx, radius, np.abs(Sx - radius[:, None] * x).max(axis=1)


def block_periods(arcs: Arcs, comp: np.ndarray, roots) -> np.ndarray:
    """Period of every strongly connected block of a matrix, in one pass.

    ``arcs`` are the matrix's arcs, ``comp[i]`` is the block of row i and
    ``roots[c]`` a row of block c.  Breadth-first levels run inside each
    block from its root along arcs u -> w (row u, column w); the period is
    the gcd of level[u] + 1 - level[w] over the block's arcs, classic for
    irreducible matrices, and 0 without arcs.  The search visits each inner
    arc once, so the pass is linear in the arcs whatever the depth.
    """
    u, w = arcs.rng, arcs.src
    inner = comp[u] == comp[w]
    # Row i's inner arcs are cols[ends[i]:ends[i + 1]].
    cols = w[inner].tolist()
    ends = np.concatenate(([0], np.cumsum(inner)))[arcs.indptr].tolist()
    level = [-1] * arcs.n
    queue = list(roots)
    for r in queue:
        level[r] = 0
    for v in queue:  # the queue grows while it is read
        for t in cols[ends[v] : ends[v + 1]]:
            if level[t] == -1:
                level[t] = level[v] + 1
                queue.append(t)
    level = np.array(level)
    u, w = u[inner], w[inner]
    periods = np.zeros(len(roots), dtype=np.int64)
    np.gcd.at(periods, comp[u], level[u] + 1 - level[w])
    return periods


def analyze_irreducible(M) -> SpectralData:
    """Full spectral data of one irreducible nonnegative matrix.

    A 1x1 zero matrix counts as irreducible (the usual (I+M)^dim > 0 test)
    and gets radius 0 with period reported as 0 since it has no cycle.
    """
    A = _as_square(M)
    n = A.shape[0]
    arcs = arcs_of_matrix(A)
    if len(tarjan_sccs(successor_lists(arcs))) != 1:
        raise ValueError("matrix is not irreducible")
    if n == 1 and A[0, 0] == 0:
        return SpectralData(0.0, np.array([1.0]), 0, 0.0)
    ((radius, vector, residual),) = perron_blocks(arcs, [range(n)], range(n))
    period = int(block_periods(arcs, np.zeros(n, dtype=np.int64), [0])[0])
    return SpectralData(radius, vector, period, residual)


def spectral_radius(M) -> float:
    """Spectral radius of a nonnegative matrix.

    Computed as the maximum over the irreducible diagonal blocks of the
    component decomposition, each from its own Perron iteration
    (:func:`perron_blocks`).  The full matrix is never iterated at once: a
    chain of k equal blocks is a defective eigenvalue, which a whole-matrix
    method resolves only to about eps^(1/k).
    """
    arcs = arcs_of_matrix(_as_square(M))
    # In index order, as for G.components, so both get the same radius.
    blocks = [sorted(comp) for comp in tarjan_sccs(successor_lists(arcs))]
    data = perron_blocks(arcs, blocks, range(arcs.n))
    return max((d[0] for d in data if d is not None), default=0.0)


def _check_convergent(radius: float, beta: float) -> None:
    try:
        convergent = math.exp(-beta) * radius < 1.0 - CONVERGENCE_MARGIN
    except OverflowError:  # e^-beta past the float range: only radius 0 converges
        convergent = radius == 0.0
    if not convergent:
        raise ConvergenceError(
            f"resolvent divergent: beta = {beta:.6g} is not above ln rho = "
            f"{math.log(radius) if radius > 0 else float('-inf'):.6g}"
        )


def _weighted(A: np.ndarray, beta: float) -> np.ndarray:
    """e^(-beta) A as a new array.  Where e^(-beta) overflows a float, an A
    with no nonzero entry gives zeros and any other A raises OverflowError."""
    try:
        return A * math.exp(-beta)
    except OverflowError:
        if A.any():
            raise OverflowError(f"e^-beta overflows a float at beta = {beta:.6g}") from None
        return np.zeros_like(A)


def _resolvent_matrix(A: np.ndarray, beta: float, radius: float) -> np.ndarray:
    """I - e^(-beta) A in one new array, for a square float A of spectral
    radius ``radius``; a beta where the resolvent diverges is refused."""
    _check_convergent(radius, beta)
    # 0 - x keeps the zeros at +0.0, and 1 + (0 - x) rounds exactly as 1 - x.
    W = _weighted(A, beta)
    np.subtract(0.0, W, out=W)
    W.flat[:: len(W) + 1] += 1
    return W


def resolvent_solve(M, beta: float, b, *, radius: float) -> np.ndarray:
    """Solve (I - e^(-beta) M) x = b by dense LU with partial pivoting.

    The entries of the inverse are the path generating functions
    sum_{lambda in vE*w} e^(-beta |lambda|), so columns of the identity give
    per-vertex path series.  ``radius`` is the spectral radius of M, which
    every caller already holds; the solve refuses a beta where it diverges.
    """
    W = _resolvent_matrix(_as_square(M), beta, radius)
    b = np.asarray(b, dtype=float)
    if not len(W):
        return b.copy()
    return np.linalg.solve(W, b)


def resolvent_series(M, beta: float, b, tol: float = 1e-12, *, radius: float) -> np.ndarray:
    """Neumann sum for (I - e^(-beta) M)^(-1) b, summed by doubling.

    Independent oracle for resolvent_solve: no factorisation, only products.
    With P = (e^(-beta) M)^N and S_N the sum of the first N terms, one step
    sets S_2N = S_N + P S_N and P <- P^2.  The limit is sum_j P^j S_N, so
    once q = ||P||_inf < 1 the tail is at most q/(1-q) ||S_N||_inf, and the
    sum stops when that bound is under tol.  At most 64 doublings.
    ``radius`` is the spectral radius of M, as for :func:`resolvent_solve`.
    """
    A = _as_square(M)
    _check_convergent(radius, beta)
    total = np.array(b, dtype=float)
    P = _weighted(A, beta)
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
    radius = float(G.spectral_radii.max())
    return resolvent_solve(G.matrix.T, beta, np.ones(len(G.vertices)), radius=radius)
