"""Spectral radius, Perron vectors, periods, resolvents."""

import decimal
import itertools
import math
import random
import tracemalloc
import warnings
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest

import graphkms as gk
from graphkms import oracle, spectral
from graphkms._scc import arcs_from_entries

from conftest import example, quotient_graph, random_graph


def test_radius_examples():
    assert spectral.spectral_radius([[3]]) == pytest.approx(3.0, abs=1e-12)
    assert spectral.spectral_radius([[2, 1], [0, 3]]) == pytest.approx(3.0, abs=1e-9)
    assert spectral.spectral_radius([[2, 2], [2, 0]]) == pytest.approx(
        1 + math.sqrt(5), abs=1e-9
    )
    assert spectral.spectral_radius([[0]]) == 0.0
    assert spectral.spectral_radius(np.zeros((0, 0), dtype=int)) == 0.0


def test_radius_of_nilpotent_is_zero():
    assert spectral.spectral_radius([[0, 1, 1], [0, 0, 1], [0, 0, 0]]) == 0.0


def test_radius_agrees_with_eigendecomposition():
    rng = random.Random(7)
    for _ in range(200):
        G = random_graph(rng)
        reference = max(abs(np.linalg.eigvals(G.matrix.astype(float))), default=0.0)
        got = spectral.spectral_radius(G.matrix)
        assert got == pytest.approx(float(reference), abs=1e-8 * max(1.0, got))


def test_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral.spectral_radius([[1, 2, 3]])
    with pytest.raises(ValueError):
        spectral.spectral_radius([[-1]])


def test_perron_vector_golden_block():
    x = spectral.analyze_irreducible([[2, 2], [2, 0]]).perron_vector
    assert x[0] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-9)
    assert x[1] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert (x > 0).all()


def test_perron_vector_satisfies_eigen_identity():
    M = np.array([[1, 3], [2, 1]])
    rho = spectral.spectral_radius(M)
    x = spectral.analyze_irreducible(M).perron_vector
    assert np.max(np.abs(M @ x - rho * x)) < 1e-9


def test_perron_vector_requires_irreducible():
    with pytest.raises(ValueError):
        spectral.analyze_irreducible([[2, 1], [0, 3]])


def test_analyze_irreducible_residual():
    data = spectral.analyze_irreducible([[2, 2], [2, 0]])
    assert data.residual < 1e-10
    assert data.period == 1
    assert data.radius == pytest.approx(1 + math.sqrt(5), abs=1e-9)


def test_period_examples():
    def period(M):
        return spectral.analyze_irreducible(M).period

    assert period([[3]]) == 1
    assert period([[0, 1], [1, 0]]) == 2
    assert period([[2, 2], [2, 0]]) == 1
    cycle3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert period(cycle3) == 3


def test_period_rejects_trivial_and_reducible():
    # A 1x1 zero block has no cycle: period 0.
    assert spectral.analyze_irreducible([[0]]).period == 0
    with pytest.raises(ValueError):
        spectral.analyze_irreducible([[1, 1], [0, 1]])


def test_period_agrees_with_cycle_gcd():
    # brute force: gcd of the lengths of all closed walks through node 0
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        M = np.array(
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)], dtype=np.int64
        )
        try:
            p = spectral.analyze_irreducible(M).period
        except ValueError:
            continue
        g = 0
        B = np.eye(n, dtype=object)
        for length in range(1, 20):
            B = B @ M.astype(object)
            if B[0, 0] > 0:
                g = math.gcd(g, length)
        assert p == g


def test_resolvent_solve_known_inverse():
    A = example("pair_toward_small").matrix
    R = spectral.resolvent_solve(A, math.log(4), np.eye(2), radius=spectral.spectral_radius(A))
    assert np.allclose(R, [[2.0, 2.0], [0.0, 4.0]], atol=1e-9)


def test_resolvent_solve_zero_matrix_is_identity():
    b = np.array([1.0, 2.0])
    Z = np.zeros((2, 2), dtype=int)
    out = spectral.resolvent_solve(Z, 0.3, b, radius=spectral.spectral_radius(Z))
    assert np.allclose(out, b, atol=1e-12)


def test_resolvent_matrix_and_solve_match_the_textbook_expression(monkeypatch):
    # I - e^-beta A is built in one array; it, and so the solve, must equal
    # np.eye(n) - e^-beta * A bit for bit, with no -0.0 off the diagonal,
    # and the caller's float array (which np.asarray aliases) is not touched.
    rng = np.random.default_rng(7)
    solve = np.linalg.solve
    seen = []
    monkeypatch.setattr(np.linalg, "solve", lambda W, b: seen.append(W.copy()) or solve(W, b))
    for _ in range(200):
        n = int(rng.integers(1, 13))
        A = rng.integers(0, 4, (n, n)) * (rng.random((n, n)) < 0.4)
        radius = spectral.spectral_radius(A)
        beta = math.log(max(radius, 1.0)) + float(rng.uniform(1e-3, 2.0))
        b = rng.random((n, int(rng.integers(1, 4))))
        for M in (A, A.astype(float)):
            before = M.copy()
            got = spectral.resolvent_solve(M, beta, b, radius=radius)
            expect_matrix = np.eye(n) - math.exp(-beta) * A
            assert seen.pop().tobytes() == expect_matrix.tobytes()
            assert got.tobytes() == solve(expect_matrix, b).tobytes()
            assert M.tobytes() == before.tobytes()
        assert not np.signbit(expect_matrix[expect_matrix == 0.0]).any()


def test_resolvent_solve_divergent_raises():
    A = example("pair_toward_small").matrix
    rho = spectral.spectral_radius(A)
    with pytest.raises(gk.ConvergenceError):
        spectral.resolvent_solve(A, math.log(3), np.ones(2), radius=rho)
    with pytest.raises(gk.ConvergenceError):
        spectral.resolvent_solve(A, 0.5, np.ones(2), radius=rho)


def test_resolvent_series_matches_solve():
    rng = random.Random(23)
    for _ in range(60):
        G = random_graph(rng, max_vertices=5)
        A = G.matrix
        rho = spectral.spectral_radius(A)
        beta = math.log(rho) + 0.05 + rng.random() if rho > 0 else rng.random()
        b = np.array([rng.random() for _ in range(len(G.vertices))])
        solved = spectral.resolvent_solve(A, beta, b, radius=rho)
        summed = spectral.resolvent_series(A, beta, b, 1e-12, radius=rho)
        assert np.max(np.abs(solved - summed)) < 1e-9


def test_resolvent_series_nilpotent_is_finite_sum():
    M = np.array([[0, 1], [0, 0]])
    # converges at any beta because the series terminates
    out = spectral.resolvent_series(M, -1.0, np.array([0.0, 1.0]), 1e-15,
                                    radius=spectral.spectral_radius(M))
    assert out == pytest.approx([math.e, 1.0], abs=1e-12)


def test_resolvent_series_zero_rhs():
    M = np.array([[2, 0], [0, 2]])
    out = spectral.resolvent_series(M, 1.0, np.zeros(2), 1e-15, radius=spectral.spectral_radius(M))
    assert np.all(out == 0.0)


def test_y_vector_pair_toward_small():
    G = example("pair_toward_small")
    y = spectral.y_vector(G, math.log(4))
    assert y[0] == pytest.approx(2.0, abs=1e-9)
    assert y[1] == pytest.approx(6.0, abs=1e-9)


def test_y_vector_edgeless_is_ones():
    G = gk.parse_graph("vertices: a b c\n")
    assert np.allclose(spectral.y_vector(G, 0.25), 1.0, atol=1e-12)


def test_y_vector_at_least_one():
    rng = random.Random(31)
    for _ in range(50):
        G = random_graph(rng)
        rho = spectral.spectral_radius(G.matrix)
        beta = math.log(rho) + 0.2 if rho > 0 else 0.7
        assert (spectral.y_vector(G, beta) >= 1.0 - 1e-12).all()


def test_y_vector_divergent_raises():
    G = example("pair_toward_small")
    with pytest.raises(gk.ConvergenceError):
        spectral.y_vector(G, math.log(3))


def test_y_vector_restricts_along_quotients():
    # y over the quotient equals the full solve restricted to the survivors
    G = example("two_sources_chain")
    H = gk.hereditary_closure(G, {"w"})
    Q = quotient_graph(G, H)
    beta = math.log(2) + 0.4
    yq = spectral.y_vector(Q, beta)
    survivors = [v for v in G.vertices if v not in H.members]
    idx = [G.index[v] for v in survivors]
    M = G.matrix[np.ix_(idx, idx)]
    direct = np.linalg.solve(
        (np.eye(len(idx)) - math.exp(-beta) * M).T, np.ones(len(idx))
    )
    assert np.allclose(yq, direct, atol=1e-9)


# -- hard irreducible blocks ------------------------------------------------


def _cycle(n):
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        A[(i + 1) % n, i] = 1
    return A


def _cycle_with_chord(n, target):
    A = _cycle(n)
    A[target, 0] += 1
    return A


def _cycle_with_loop(n, m):
    A = _cycle(n)
    A[0, 0] = m
    return A


def _two_cycles_joined(n1, n2):
    # An n1-cycle and an n2-cycle, an arc from each into the other: no
    # vertex meets both cycles, so the block has no one-vertex rome.
    A = np.zeros((n1 + n2, n1 + n2), dtype=np.int64)
    for i in range(n1):
        A[(i + 1) % n1, i] = 1
    for i in range(n2):
        A[n1 + (i + 1) % n2, n1 + i] = 1
    A[n1, 0] += 1
    A[n1 // 2, n1 + n2 // 2] += 1
    return A


@pytest.mark.parametrize(
    "A",
    [
        _cycle_with_chord(300, 150),
        _cycle_with_chord(160, 2),
        _cycle_with_loop(30, 3),
        _cycle_with_loop(100, 9),
    ],
    ids=["chord-across-half-300", "chord-skip-one-160", "loop-30-3", "loop-100-9"],
)
def test_perron_data_of_near_periodic_blocks(monkeypatch, A):
    # Near-cycles are close to periodic, with many eigenvalues just inside
    # the circle of radius rho; a loop of multiplicity m on an n-cycle has
    # Perron entries down to m^-(n-1), far below rounding.  Every cycle
    # passes through one vertex, so no block takes a solve.
    reference = float(max(abs(np.linalg.eigvals(A.astype(float)))))
    calls = _counted_solves(monkeypatch)
    data = spectral.analyze_irreducible(A)
    assert calls == []
    assert abs(data.radius - reference) <= 1e-12 * reference
    assert spectral.spectral_radius(A) == data.radius
    x = data.perron_vector
    assert (x >= 0).all()
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert data.residual <= 1e-12 * data.radius
    assert np.max(np.abs(A @ x - data.radius * x)) == data.residual


def _heavy_block(rng, n):
    # A shuffled n-cycle plus 2n random edges of multiplicity 1, 1000 or
    # 10^6: several heavy loops make eigenvalues near rho cluster.
    order = list(range(n))
    rng.shuffle(order)
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        A[order[(i + 1) % n], order[i]] = 1
    for _ in range(2 * n):
        A[rng.randrange(n), rng.randrange(n)] += rng.choice([1, 1000, 10**6])
    return A


def test_perron_data_of_blocks_with_heavy_loops():
    # The last four blocks' power steps stall with entries 1e-18 below the
    # largest, from which Noda's first solves lose positivity and settle on
    # a pair that is not the Perron pair; they go back to their start.
    cases = [(60, seed) for seed in range(300)]
    cases += [(60, 1591), (100, 191), (100, 682), (100, 1684)]
    for n, seed in cases:
        A = _heavy_block(random.Random(seed), n)
        data = spectral.analyze_irreducible(A)
        reference = float(max(abs(np.linalg.eigvals(A.astype(float)))))
        assert abs(data.radius - reference) <= 1e-8 * reference, (n, seed)
        x = data.perron_vector
        assert (x >= 0).all() and x.sum() == pytest.approx(1.0, abs=1e-12)
        assert data.residual <= 1e-12 * data.radius, (n, seed)


def _graph_of(A):
    names = [f"v{i}" for i in range(A.shape[0])]
    edges = [
        gk.Edge(names[w], names[v], int(A[v, w])) for v, w in zip(*np.nonzero(A))
    ]
    return gk.DirectedGraph(names, edges)


def test_perron_data_where_eigenvalues_cluster_near_rho():
    # Three eigenvalues lie near rho = 10^6; one inverse-iteration step at
    # the eigensolver's value leaves a residual of 2.9e-10 rho.
    A = _heavy_block(random.Random(232), 60)
    reference = float(max(abs(np.linalg.eigvals(A.astype(float)))))
    data = spectral.analyze_irreducible(A)
    assert abs(data.radius - reference) <= 1e-8 * reference
    assert data.residual <= 1e-12 * data.radius
    G = _graph_of(A)
    (component,) = G.components
    assert G.spectral_radii[component.id] == data.radius


def test_perron_failure_names_the_component(monkeypatch):
    # Two 2-cycles joined both ways: no vertex meets both, so the block has
    # no one-vertex rome, and its unequal row sums keep the uniform start
    # from being the Perron pair.  The block needs solves, which the skew
    # keeps from converging.
    G = gk.parse_graph(
        "vertices: a b c d e\nedge a b\nedge b c\nedge c b\nedge d e\nedge e d\n"
        "edge c d\nedge e b\n"
    )
    solve = np.linalg.solve

    def skewed(M, b):
        x = solve(M, b)
        x[:, 0] *= 2.0
        return x

    monkeypatch.setattr(np.linalg, "solve", skewed)
    with pytest.raises(gk.ConvergenceError, match="4-vertex block with first member b "):
        G.components


def _mixed_chain(rng, count):
    # count blocks of 1, 2 or 3 vertices in a line, block i feeding block
    # i + 1 through one edge; each block is a cycle with multiplicities
    # 1..3, half of them with an extra loop that makes the period 1.
    names, lines, prev = [], [], None
    for b in range(count):
        k = rng.choice([1, 2, 3])
        block = [f"b{b}_{i}" for i in range(k)]
        names += block
        for i in range(k):
            lines.append(f"edge {block[i]} {block[(i + 1) % k]} {rng.randint(1, 3)}")
        if rng.random() < 0.5:
            lines.append(f"edge {block[-1]} {block[-1]} {rng.randint(1, 3)}")
        if prev is not None:
            lines.append(f"edge {prev} {block[0]}")
        prev = block[-1]
    return gk.parse_graph("vertices: " + " ".join(names) + "\n" + "\n".join(lines))


def test_stacked_perron_data_matches_each_block_alone():
    graphs = [random_graph(random.Random(seed)) for seed in range(300)]
    graphs.append(_mixed_chain(random.Random(5), 60))
    for G in graphs:
        for c in G.components:
            if c.perron_vector is None:
                continue
            rows = [G.index[v] for v in c.members]
            block = G.matrix[np.ix_(rows, rows)]
            alone = spectral.analyze_irreducible(block)
            assert G.spectral_radii[c.id] == alone.radius
            assert c.period == alone.period
            x = np.array([c.perron_vector[v] for v in c.members])
            assert np.array_equal(x, alone.perron_vector)
            reference = float(max(abs(np.linalg.eigvals(block.astype(float)))))
            assert abs(G.spectral_radii[c.id] - reference) <= 1e-9 * reference


def test_periods_of_separate_cycles_in_one_graph():
    # Cycles of lengths 2, 3 and 6 joined in a line, with a trivial vertex
    # between the first two.
    lines = ["vertices: a0 a1 t b0 b1 b2 c0 c1 c2 c3 c4 c5"]
    for prefix, k in (("a", 2), ("b", 3), ("c", 6)):
        lines += [f"edge {prefix}{i} {prefix}{(i + 1) % k}" for i in range(k)]
    lines += ["edge a0 t", "edge t b0", "edge b0 c0"]
    G = gk.parse_graph("\n".join(lines))
    assert {c.members[0]: c.period for c in G.components} == {
        "a0": 2, "t": 0, "b0": 3, "c0": 6,
    }


def _counted_solves(monkeypatch) -> list:
    # Shapes of the np.linalg.solve calls from here on; an eigensolve fails.
    calls = []
    solve = np.linalg.solve

    def counted(M, b):
        calls.append(M.shape)
        return solve(M, b)

    def refused(*args, **kwargs):
        raise AssertionError("Perron data must not call an eigensolver")

    monkeypatch.setattr(np.linalg, "solve", counted)
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refused)
    return calls


def test_one_batched_solve_per_step_per_block_size(monkeypatch):
    G = _mixed_chain(random.Random(9), 200)
    blocks = []
    for c in G.components:
        rows = [G.index[v] for v in c.members]
        if c.perron_vector is not None:
            blocks.append(G.matrix[np.ix_(rows, rows)])
    calls = _counted_solves(monkeypatch)
    steps: dict[int, int] = {}
    for block in blocks:
        calls.clear()
        spectral.analyze_irreducible(block)
        k = block.shape[0]
        steps[k] = max(steps.get(k, 0), len(calls))
    calls.clear()
    G = _mixed_chain(random.Random(9), 200)
    assert len(G.components) == 200
    # Every step solves the whole stack of one block size at once, so the
    # stack takes as many solves as its slowest block takes alone.
    assert all(len(shape) == 3 for shape in calls)
    assert Counter(shape[1] for shape in calls) == +Counter(steps)
    assert sorted(steps) == [1, 2, 3] and steps[1] == 0


# rho of _heavy_block(random.Random(seed), 60) from mpmath.eig at 40 digits.
# Seeds 19 and 158 end on a pair that is not the Perron pair if only the
# residual stops the iteration; seed 598 hits an exactly singular solve if
# the shift may fall to the radius.
HEAVY_RADII = {
    19: 1000000.000003163929641063,
    158: 1000000.000501001018845032,
    598: 32100.28905074775103851041,
}


@pytest.mark.parametrize("seed", sorted(HEAVY_RADII))
def test_perron_data_of_heavy_blocks_that_tempt_an_early_stop(seed):
    A = _heavy_block(random.Random(seed), 60)
    data = spectral.analyze_irreducible(A)
    assert abs(data.radius - HEAVY_RADII[seed]) <= 1e-9 * HEAVY_RADII[seed]
    assert (data.perron_vector >= 0).all()
    assert data.residual <= 1e-12 * data.radius


@pytest.mark.parametrize(
    "A, most",
    [
        (_cycle_with_chord(300, 150), 12),
        (_two_cycles_joined(150, 150), 12),
        (_heavy_block(random.Random(232), 60), 40),
    ],
    ids=["chord-across-half-300", "two-cycles-joined-300", "heavy-232"],
)
def test_noda_steps_are_bounded(monkeypatch, A, most):
    # heavy-232 settles in the power steps and chord-across-half-300 through
    # its rome, without a solve; two-cycles-joined-300 has no one-vertex rome
    # and takes Noda's steps.
    calls = _counted_solves(monkeypatch)
    spectral.analyze_irreducible(A)
    assert len(calls) <= most


def _giant_arcs(rng, n):
    # A shuffled Hamiltonian n-cycle plus 1.5 random chords per vertex,
    # multiplicities 1..3, as in the benchmark's giant components: rows,
    # columns and multiplicities, repeated positions kept apart.
    order = list(range(n))
    rng.shuffle(order)
    rows, cols = [order[(i + 1) % n] for i in range(n)], list(order)
    mult = [1] * n
    for _ in range(3 * n // 2):
        rows.append(rng.randrange(n))
        cols.append(rng.randrange(n))
        mult.append(rng.randint(1, 3))
    return rows, cols, mult


def _giant_block(rng, n):
    A = np.zeros((n, n), dtype=np.int64)
    rows, cols, mult = _giant_arcs(rng, n)
    np.add.at(A, (rows, cols), mult)
    return A


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_giant_block_settles_in_power_steps(monkeypatch, seed):
    A = _giant_block(random.Random(seed), 240)
    reference = float(max(abs(np.linalg.eigvals(A.astype(float)))))
    calls = _counted_solves(monkeypatch)
    data = spectral.analyze_irreducible(A)
    assert len(calls) <= 2
    assert abs(data.radius - reference) <= 1e-12 * reference
    assert data.residual <= 1e-12 * data.radius


def test_no_dense_block_outside_noda(monkeypatch):
    # A 2000-vertex giant settles in its power steps, which multiply from
    # the arcs: its dense block alone would take 32 MB.  A block with no
    # one-vertex rome in the same call still goes dense for Noda's solves and
    # takes as many as alone.
    n = 2000
    rows, cols, mult = _giant_arcs(random.Random(0), n)
    arcs = arcs_from_entries(n, rows, cols, mult)
    calls = _counted_solves(monkeypatch)
    tracemalloc.start()
    try:
        ((radius, x, residual),) = spectral.perron_blocks(arcs, [range(n)], range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 8 * 2**20
    assert (x > 0).all() and residual <= 1e-12 * radius
    joined = _two_cycles_joined(150, 150)
    alone = spectral.analyze_irreducible(joined)
    solves = len(calls)
    assert solves > 0
    v, w = np.nonzero(joined)
    arcs = arcs_from_entries(n + 300, rows + (v + n).tolist(), cols + (w + n).tolist(),
                             mult + joined[v, w].tolist())
    calls.clear()
    both = spectral.perron_blocks(arcs, [range(n), range(n, n + 300)], range(n + 300))
    assert len(calls) == solves
    assert both[0][0] == radius and np.array_equal(both[0][1], x)
    assert both[1][0] == alone.radius and np.array_equal(both[1][1], alone.perron_vector)


def test_power_steps_leave_closed_form_starts_alone(monkeypatch):
    # One stack of 100-vertex blocks: weighted cycles settle at their
    # closed-form start, giants settle in their power steps, and blocks with
    # no one-vertex rome stall there and go back to the uniform start for
    # Noda's solves, while near-cycles settle through their rome.  Each
    # block's data are those it gets alone, and the cycles keep their start
    # bit for bit.
    rng = random.Random(4)
    cycles = [_weighted_cycle([rng.randint(1, 9) for _ in range(100)]) for _ in range(3)]
    mats = cycles + [_giant_block(rng, 100) for _ in range(3)]
    mats += [_two_cycles_joined(50, 50), _two_cycles_joined(30, 70)]
    mats += [_cycle_with_chord(100, 50), _cycle_with_chord(100, 2), _cycle_with_loop(100, 3)]
    entries = [(v + 100 * b, w + 100 * b, A[v, w]) for b, A in enumerate(mats)
               for v, w in zip(*np.nonzero(A))]
    ranges, sources, mult = (np.array(column) for column in zip(*entries))
    arcs = arcs_from_entries(100 * len(mats), ranges, sources, mult)
    blocks = [list(range(100 * b, 100 * (b + 1))) for b in range(len(mats))]
    data = spectral.perron_blocks(arcs, blocks, range(100 * len(mats)))
    calls, solves = _counted_solves(monkeypatch), []
    for A, (radius, x, residual) in zip(mats, data):
        calls.clear()
        alone = spectral.analyze_irreducible(A)
        solves.append(len(calls))
        assert radius == alone.radius and np.array_equal(x, alone.perron_vector)
    assert solves[:6] == [0] * 6 and min(solves[6:8]) > 0 and solves[8:] == [0] * 3
    for A, (radius, x, residual) in zip(cycles, data):
        rows, cols = np.nonzero(A)
        stack = (rows, cols, A[rows, cols].astype(float))
        start = spectral._closed_form_start(stack, 100, np.array([True]))[0]
        assert x.tobytes() == start.tobytes()


def _near_cycle_arcs(n, rows, cols, mult):
    # The arcs of an n-cycle, vertex i to i + 1, plus the given arcs.
    rows = [(i + 1) % n for i in range(n)] + rows
    return arcs_from_entries(n, rows, list(range(n)) + cols, [1] * n + mult)


@pytest.mark.parametrize(
    "rows, cols, mult",
    [([1000], [0], [1]), ([2], [0], [1]), ([0], [0], [3])],
    ids=["chord-across-half", "chord-skip-one", "loop-3"],
)
def test_blocks_through_a_rome_hold_no_dense_block(monkeypatch, rows, cols, mult):
    # 2000-vertex members of the near-periodic families above: a dense
    # block would take 32 MB, and neither a solve nor one is made.
    n = 2000
    arcs = _near_cycle_arcs(n, rows, cols, mult)
    calls = _counted_solves(monkeypatch)
    spectral.perron_blocks(arcs, [range(n)], range(n))  # warm
    tracemalloc.start()
    try:
        ((radius, x, residual),) = spectral.perron_blocks(arcs, [range(n)], range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 4 * 2**20
    assert (x >= 0).all() and x.sum() == pytest.approx(1.0, abs=1e-12)
    assert residual <= 1e-12 * max(1.0, radius)


@pytest.mark.parametrize("n1, n2", [(2, 2), (50, 50), (30, 70)])
def test_a_candidate_that_is_not_a_rome_goes_to_noda(monkeypatch, n1, n2):
    # Every vertex ties on in-degree times out-degree, and the candidate,
    # vertex 0, misses the second cycle.
    A = _two_cycles_joined(n1, n2)
    reference = float(max(abs(np.linalg.eigvals(A.astype(float)))))
    rows, cols = np.nonzero(A)
    block = (rows, cols, A[rows, cols].astype(float))
    assert spectral._through_one_vertex_rome(block, n1 + n2) is None
    calls = _counted_solves(monkeypatch)
    data = spectral.analyze_irreducible(A)
    assert len(calls) > 0
    assert abs(data.radius - reference) <= 1e-12 * reference
    assert data.residual <= 1e-12 * data.radius


def _wide_cycle(n, chord):
    # An n-cycle whose arcs out of vertices 0 .. n/2 - 1 have multiplicity
    # 10^6 and the rest 1, so its Perron entries fall from 1 to about
    # 10^(-3n/2), past the double range; the chord runs from n/4 to 3n/4.
    A = _weighted_cycle([10**6] * (n // 2) + [1] * (n - n // 2))
    if chord:
        A[3 * n // 4, n // 4] += 1
    return A


# rho of _wide_cycle(n, True): the root of 10^(3n) lambda^-n +
# 10^(3n/2) lambda^-(n/2 + 1) = 1, the first-return equation at vertex n/4,
# from mpmath.findroot at 60 digits.  Without the chord rho is 1000.
WIDE_RADII = {
    (240, False): 1000.0,
    (240, True): 1000.004166657812550414615101798235493369,
    (400, False): 1000.0,
    (400, True): 1000.002499996770844542919421243280405503,
}


@pytest.mark.parametrize("n, chord", sorted(WIDE_RADII))
def test_wide_cycles_settle_through_their_rome(monkeypatch, n, chord):
    # Noda's iteration from the uniform start raised ConvergenceError on
    # all four; the plain cycles' closed-form start underflows.
    calls = _counted_solves(monkeypatch)
    data = spectral.analyze_irreducible(_wide_cycle(n, chord))
    assert calls == []
    expect = WIDE_RADII[n, chord]
    assert abs(data.radius - expect) <= 1e-13 * expect
    x = data.perron_vector
    assert (x >= 0).all() and x.sum() == pytest.approx(1.0, abs=1e-12)
    assert data.residual <= 1e-12 * data.radius


@pytest.mark.parametrize(
    "A, settles",
    [
        (np.array([[0.0, 1e-14, 1e-14], [0.0, 0.0, 1.0], [1e13, 0.0, 0.0]]), False),
        (0.5 * _cycle_with_chord(100, 50), False),
        (1.5 * _cycle_with_chord(100, 50), True),
        (np.linspace(0.5, 2.5, 100)[:, None] * _cycle_with_loop(100, 3), True),
    ],
    ids=["tiny-rome-entry-3", "half-chord-100", "three-halves-chord-100", "graded-loop-100"],
)
def test_rome_vectors_need_a_settled_root(monkeypatch, A, settles):
    # Every row but the rome's has (Sx)_v = lambda x_v at any lambda, so a
    # tiny rome entry lets the residual pass on a wrong lambda.  The first
    # two have g(0) < 0 at their rome (rho 0.5355 and about 0.5), so
    # Newton stops at mu = 0, off the root, and they go on to Noda.
    reference = float(max(abs(np.linalg.eigvals(A))))
    rows, cols = np.nonzero(A)
    block = (rows, cols, A[rows, cols])
    assert (spectral._through_one_vertex_rome(block, len(A)) is not None) == settles
    calls = _counted_solves(monkeypatch)
    data = spectral.analyze_irreducible(A)
    assert (calls == []) == settles
    assert abs(data.radius - reference) <= 1e-12 * reference
    x = data.perron_vector
    assert (x >= 0).all() and x.sum() == pytest.approx(1.0, abs=1e-12)
    assert data.residual <= 1e-12 * max(1.0, data.radius)


def test_cycles_and_loops_need_no_solve(monkeypatch):
    # The uniform start is the Perron pair of a k-cycle and of a 1x1 block.
    lines = ["vertices: a0 a1 b0 b1 b2 c0 c1 c2 c3 c4 c5 c6 l m"]
    for prefix, k in (("a", 2), ("b", 3), ("c", 7)):
        lines += [f"edge {prefix}{i} {prefix}{(i + 1) % k}" for i in range(k)]
    lines += ["edge l l 3", "edge m m", "edge a0 b0", "edge l c0"]
    G = gk.parse_graph("\n".join(lines))
    calls = _counted_solves(monkeypatch)
    radii = {c.members[0]: G.spectral_radii[c.id] for c in G.components}
    assert calls == []
    assert radii == pytest.approx({"a0": 1, "b0": 1, "c0": 1, "l": 3, "m": 1}, abs=1e-15)
    for c in G.components:
        assert set(c.perron_vector.values()) == {1.0 / len(c.members)}


def _weighted_cycle(multiplicities):
    # Row i + 1 holds the arc from vertex i, of multiplicity m_i.
    n = len(multiplicities)
    A = np.zeros((n, n), dtype=np.int64)
    for i, m in enumerate(multiplicities):
        A[(i + 1) % n, i] = m
    return A


def _cycle_radius(multiplicities) -> float:
    # rho of a weighted cycle, the geometric mean of its multiplicities,
    # to 40 digits.
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        log_rho = sum(Decimal(m).ln() for m in multiplicities) / len(multiplicities)
        return float(log_rho.exp())


def _two_by_two_radius(a, b, c, d) -> float:
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        h = Decimal(a - d) / 2
        return float(Decimal(a + d) / 2 + (h * h + Decimal(b * c)).sqrt())


def test_cycle_with_one_heavy_arc_needs_no_solve(monkeypatch):
    # Noda's iteration from the uniform start gave up on this cycle.
    calls = _counted_solves(monkeypatch)
    data = spectral.analyze_irreducible(_weighted_cycle([10**6] + [1] * 599))
    assert calls == []
    assert abs(data.radius - 10 ** (6 / 600)) <= 1e-15 * 10 ** (6 / 600)
    assert data.residual <= 1e-12 * data.radius
    assert (data.perron_vector > 0).all() and data.period == 600


@pytest.mark.parametrize("turn", [0, 30, 50, 100, 170])
def test_cycle_of_heavy_and_light_runs_does_not_overflow(monkeypatch, turn):
    # Its Perron entries span 300 decades, and ln x sums 100 rises of
    # ln 1000 before it falls back: the start is built from logs, and the
    # rounding of those sums must not reach the ratio of neighbours.
    calls = _counted_solves(monkeypatch)
    ms = [10**6] * 100 + [1] * 100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = spectral.analyze_irreducible(_weighted_cycle(ms[turn:] + ms[:turn]))
    assert calls == []
    assert abs(data.radius - 1000.0) <= 1e-15 * 1000.0
    assert data.residual <= 1e-12 * data.radius
    assert (data.perron_vector > 0).all()


def test_two_vertex_blocks_and_weighted_cycles_need_no_solve(monkeypatch):
    calls = _counted_solves(monkeypatch)
    weights = [1, 2, 3, 7, 1000, 10**6]
    for a, b, c, d in itertools.product([0] + weights, weights, weights, [0] + weights):
        data = spectral.analyze_irreducible([[a, b], [c, d]])
        expect = _two_by_two_radius(a, b, c, d)
        assert abs(data.radius - expect) <= 1e-14 * expect, (a, b, c, d)
        assert data.residual <= 1e-12 * max(1.0, data.radius), (a, b, c, d)
    rng = random.Random(3)
    for k in [*range(2, 13), 200]:
        for _ in range(20):
            ms = [rng.choice(weights) for _ in range(k)]
            data = spectral.analyze_irreducible(_weighted_cycle(ms))
            expect = _cycle_radius(ms)
            assert abs(data.radius - expect) <= 1e-14 * expect, ms
            assert data.residual <= 1e-12 * max(1.0, data.radius), ms
    assert calls == []


def test_periods_of_a_deep_block():
    # A 6000-cycle with a chord that closes a 4000-cycle: breadth-first
    # levels run 6000 deep, and the period is gcd(6000, 4000).
    n = 6000
    rng = [(i + 1) % n for i in range(n)] + [0]
    src = list(range(n)) + [3999]
    arcs = arcs_from_entries(n, rng, src, np.ones(n + 1, dtype=np.int64))
    periods = spectral.block_periods(arcs, np.zeros(n, dtype=np.int64), [0])
    assert periods.tolist() == [2000]


@pytest.mark.parametrize("seed", [4059, 11126, 11867, 16195])
def test_series_oracle_settles_near_integer_row_sums(seed):
    # These graphs put sweep-grid betas just above the log of an integer row
    # sum, where a row-sum tail bound sits at 1 while rho_hat is far below.
    G = random_graph(random.Random(seed))
    rho = spectral.spectral_radius(G.matrix)
    top = math.log(rho) + 0.5 if rho > 1 else 1.0
    betas = list(gk.critical_temperatures(G))
    betas.extend(float(b) for b in np.linspace(0.05, top, 20))
    for beta in betas:
        sx = gk.kms_simplex(G, beta)
        assert oracle.verify_simplex(G, sx) == [], (seed, beta)


def test_resolvent_series_where_the_row_sum_bound_is_near_one():
    # q = e^-beta * max row sum is 1 - 1e-5, while rho_hat is about 2/3.
    A = np.array([[2, 0], [2, 1]])
    beta = math.log(3) + 1e-5
    b = np.array([1.0, 2.0])
    rho = spectral.spectral_radius(A)
    summed = spectral.resolvent_series(A, beta, b, 1e-12, radius=rho)
    solved = spectral.resolvent_solve(A, beta, b, radius=rho)
    assert np.max(np.abs(summed - solved)) < 1e-9
