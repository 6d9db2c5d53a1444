"""Shared worked-example graphs and a seeded random graph generator."""

import random

import pytest

from graphkms import parse_graph

# The regression corpus. Comments give the loop structure; all expected
# numbers in the tests below are derived from these matrices by hand.
GRAPHS = {
    # two loop vertices, edge from the rho=3 vertex into the rho=2 vertex
    "pair_toward_large": """\
vertices: v w
edge v v 2
edge w w 3
edge v w
""",
    # same loops, edge reversed: w feeds v
    "pair_toward_small": """\
vertices: v w
edge v v 2
edge w w 3
edge w v
""",
    # v (2-loop) fed by an irreducible pair {w,u} with rho = 1+sqrt(5)
    "golden_feeder": """\
vertices: v w u
edge v v 2
edge w v
edge w w 2
edge u w 2
edge w u 2
""",
    # chain w -> u2 -> v with an extra source u1 -> v
    "two_sources_chain": """\
vertices: u1 v u2 w
edge w u2
edge u2 v
edge u1 v
edge v v 2
edge w w 3
""",
    # same chain but v feeds u1, turning u1 into a sink of the chain
    "reversed_tail": """\
vertices: u1 v u2 w
edge w u2
edge u2 v
edge v u1
edge v v 2
edge w w 3
""",
    # reversed_tail plus a fresh source u3 above u1
    "persistent_source": """\
vertices: u3 u1 v u2 w
edge w u2
edge u2 v
edge v u1
edge v v 2
edge w w 3
edge u3 u1
""",
    # two incomparable 2-loop components v, w over a common 1-loop u
    "twin_minimal": """\
vertices: u v w x
edge x v
edge x w
edge w u
edge v u
edge x x 2
edge v v 2
edge w w 2
edge u u
""",
}


def example(name):
    return parse_graph(GRAPHS[name])


@pytest.fixture
def graph_file(tmp_path):
    """Write a named example (or raw text) to disk and return the path."""

    def write(name_or_text, filename="graph.txt"):
        text = GRAPHS.get(name_or_text, name_or_text)
        path = tmp_path / filename
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def random_graph(rng: random.Random, max_vertices: int = 6, max_mult: int = 3):
    """Small random multigraph; density tuned to mix cyclic and acyclic."""
    n = rng.randint(1, max_vertices)
    names = [f"x{i}" for i in range(n)]
    lines = ["vertices: " + " ".join(names)]
    for s in names:
        for r in names:
            if rng.random() < 0.28:
                lines.append(f"edge {s} {r} {rng.randint(1, max_mult)}")
    return parse_graph("\n".join(lines))
