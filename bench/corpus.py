"""Seeded graph generators for the three workloads.

Every generator takes a ``random.Random`` and returns graph text in the
``vertices:`` / ``edge`` format; the same seed gives the same text.  Nothing
here imports graphkms.
"""

from __future__ import annotations

import math
import random

import numpy as np

from checks import Structure


def rng_for(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def graph_text(names, edges) -> str:
    lines = ["vertices: " + " ".join(names)]
    lines += [f"edge {s} {r} {m}" for s, r, m in edges]
    return "\n".join(lines) + "\n"


def matrix(text: str) -> tuple[np.ndarray, dict[str, int]]:
    """Vertex matrix and name index of graph text, read without graphkms."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    names = lines[0][1:]
    index = {v: i for i, v in enumerate(names)}
    A = np.zeros((len(names), len(names)), dtype=np.int64)
    for ln in lines[1:]:
        A[index[ln[2]], index[ln[1]]] += int(ln[3]) if len(ln) == 4 else 1
    return A, index


# -- sweep -----------------------------------------------------------------


def small_random(rng: random.Random) -> str:
    """The draws of tests/conftest.random_graph: up to 6 vertices, p = 0.28."""
    n = rng.randint(1, 6)
    names = [f"x{i}" for i in range(n)]
    edges = []
    for s in names:
        for r in names:
            if rng.random() < 0.28:
                edges.append((s, r, rng.randint(1, 3)))
    return graph_text(names, edges)


# -- chains ------------------------------------------------------------------

_S5 = math.sqrt(5.0)
# Cyclic blocks with closed-form Perron roots, in increasing order and all
# distinct, so radii tie exactly when and only when blocks are identical.
# Each entry: (vertex count, internal edges (source, range, multiplicity), rho).
BLOCKS = (
    (1, ((0, 0, 1),), 1.0),
    (3, ((0, 1, 1), (1, 2, 1), (2, 0, 2)), 2.0 ** (1.0 / 3.0)),
    (2, ((0, 1, 1), (1, 0, 2)), math.sqrt(2.0)),
    (2, ((1, 1, 1), (0, 1, 1), (1, 0, 1)), (1.0 + _S5) / 2.0),
    (1, ((0, 0, 2),), 2.0),
    (2, ((0, 1, 1), (1, 0, 6)), math.sqrt(6.0)),
    (2, ((0, 0, 1), (1, 1, 2), (0, 1, 1), (1, 0, 1)), (3.0 + _S5) / 2.0),
    (1, ((0, 0, 3),), 3.0),
    (2, ((0, 0, 2), (1, 1, 3), (0, 1, 1), (1, 0, 1)), (5.0 + _S5) / 2.0),
    (1, ((0, 0, 4),), 4.0),
    (1, ((0, 0, 5),), 5.0),
    (1, ((0, 0, 6),), 6.0),
)
# Records are loops of 2..6 edges, so consecutive critical radii differ by at
# least 1.  Closer records (2.449 under 2.618, say) make the phi solves at the
# upper one so ill-conditioned that measures come out with entries below
# -1e-12 on some seeds (see CHANGES.md).
RECORD_KINDS = (4, 7, 9, 10, 11)
CHAIN_LENGTHS = (50, 100, 150, 200)
CHAIN_RECORDS = 4


def chain(rng: random.Random, length: int) -> tuple[str, Structure]:
    """A line of ``length`` cyclic blocks; block i feeds block i + 1.

    The line splits into four equal segments.  Each segment ends with its
    record block and is otherwise filled with blocks of no larger radius,
    and records fall from left to right, so exactly four distinct critical
    temperatures exist (the records), whatever the seed.
    """
    records = sorted(rng.sample(RECORD_KINDS, CHAIN_RECORDS), reverse=True)
    kinds: list[int] = []
    for s, record in enumerate(records):
        end = round(length * (s + 1) / CHAIN_RECORDS)
        kinds += [rng.randint(0, record) for _ in range(end - len(kinds) - 1)]
        kinds.append(record)
    names: list[str] = []
    edges = []
    groups = []
    for b, kind in enumerate(kinds):
        size, inner, _ = BLOCKS[kind]
        group = [f"b{b}_{i}" for i in range(size)]
        groups.append(group)
        names += group
        edges += [(group[s], group[r], m) for s, r, m in inner]
    for b in range(length - 1):
        edges.append((rng.choice(groups[b]), rng.choice(groups[b + 1]), 1))
    offsets = np.cumsum([0] + [len(g) for g in groups])
    shape = Structure(
        sizes=tuple(len(g) for g in groups),
        ln_radius=tuple(math.log(BLOCKS[k][2]) for k in kinds),
        # block i + 1 receives from block i, so the closure of block c is
        # blocks 0..c
        reach=np.tril(np.ones((length, length), dtype=bool)),
        members=tuple(tuple(range(offsets[b], offsets[b + 1])) for b in range(length)),
    )
    return graph_text(names, edges), shape


# -- blocks ------------------------------------------------------------------

NEAR_CYCLE_SIZES = (120, 240)
GIANT_SIZES = (200, 300)
# A near-cycle this long makes the shifted power iteration give up; its
# analyze is the one operation of the workload that fails at present.
FAILING_NEAR_CYCLE = 300


def near_cycle(n: int, rng: random.Random | None) -> str:
    """An n-cycle plus one chord across half of it.

    With an rng the vertices are declared in a shuffled order; the cycle and
    the chord, and so the spectrum, do not depend on it.
    """
    names = [f"c{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n], 1) for i in range(n)]
    edges.append((names[0], names[n // 2], 1))
    declared = list(names)
    if rng is not None:
        rng.shuffle(declared)
        rng.shuffle(edges)
    return graph_text(declared, edges)


def giant(n: int, rng: random.Random) -> str:
    """One strongly connected giant of 0.8 n vertices plus acyclic tails.

    The giant is a shuffled Hamiltonian cycle plus 1.5 random chords per
    vertex, multiplicities 1..3.  Half the tail vertices feed the giant and
    half are fed by it, each through one or two edges, so the giant is the
    only cyclic component and the only critical one.
    """
    names = [f"r{i}" for i in range(n)]
    rng.shuffle(names)
    g = round(0.8 * n)
    core, tails = names[:g], names[g:]
    up, down = tails[: len(tails) // 2], tails[len(tails) // 2:]
    edges = [(core[i], core[(i + 1) % g], 1) for i in range(g)]
    for _ in range(round(1.5 * g)):
        edges.append((rng.choice(core), rng.choice(core), rng.randint(1, 3)))
    for i, u in enumerate(up):
        for _ in range(rng.randint(1, 2)):
            targets = core + up[i + 1:]
            edges.append((u, rng.choice(targets), rng.randint(1, 2)))
    for i, d in enumerate(down):
        for _ in range(rng.randint(1, 2)):
            feeders = core + down[:i]
            edges.append((rng.choice(feeders), d, rng.randint(1, 2)))
    rng.shuffle(names)
    return graph_text(names, edges)
