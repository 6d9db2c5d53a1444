"""Parsing, path counting, components, closures, quotients."""

import math
import random

import numpy as np
import pytest

import graphkms as gk
from graphkms._scc import arcs_of_matrix, successor_lists

from conftest import GRAPHS, example, path_count, quotient_graph, random_graph, talks_to
from oracles import edge_instances


def test_parse_pair_toward_small():
    G = example("pair_toward_small")
    assert G.vertices == ("v", "w")
    assert G.matrix.tolist() == [[2, 1], [0, 3]]
    assert sum(e.multiplicity for e in G.edges) == 6


def test_parse_accumulates_parallel_edge_lines():
    G = gk.parse_graph("vertices: a b\nedge a b 2\nedge a b\n")
    # both lines kept, multiplicities summed in the matrix
    assert len(G.edges) == 2
    assert G.matrix[G.index["b"], G.index["a"]] == 3


def test_parse_comments_and_blank_lines():
    G = gk.parse_graph("# header\n\nvertices: a  # trailing\nedge a a 2\n")
    assert G.vertices == ("a",)
    assert G.matrix.tolist() == [[2]]


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("edge a b\n", 1),
        ("vertices: a a\n", 1),
        ("vertices:\n", 1),
        ("vertices: a b\nedge a c\n", 2),
        ("vertices: a\nedge a a 0\n", 2),
        ("vertices: a\nedge a a x\n", 2),
        ("vertices: a\nedge a a 1_0\n", 2),
        ("vertices: a\nedge a a +2\n", 2),
        ("vertices: a\nedge a a \u0663\n", 2),
        ("vertices: a\nloop a\n", 2),
        ("vertices: a\nedge a\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(gk.GraphParseError) as err:
        gk.parse_graph(text)
    assert err.value.lineno == lineno
    assert f"line {lineno}:" in str(err.value)


@pytest.mark.parametrize("mult", [True, False, 2.0, np.int64(2), 0])
def test_constructor_rejects_multiplicities_other_than_positive_ints(mult):
    with pytest.raises(ValueError, match="multiplicity"):
        gk.DirectedGraph(["a", "b"], [("a", "b", mult)])


def test_constructor_keeps_int_multiplicities():
    G = gk.DirectedGraph(["a", "b"], [("a", "b", 2), gk.Edge("b", "a"), ("a", "b")])
    assert G.edges == (gk.Edge("a", "b", 2), gk.Edge("b", "a", 1), gk.Edge("a", "b", 1))
    assert G.matrix.tolist() == [[0, 1], [3, 0]]


HALF = 2**62  # two of these make 2^63, one past the int64 maximum


@pytest.mark.parametrize(
    "text,lineno",
    [
        (f"vertices: a b\nedge a b {HALF}\nedge a b {HALF}\n", 3),
        ("vertices: a b\n# one line\nedge a b 99999999999999999999\n", 3),
        (f"vertices: a b\nedge a b {HALF}\nedge b a {2 * HALF - 1}\n"
         f"edge a b {HALF - 1}\n\nedge a b 1\n", 6),
    ],
)
def test_parse_refuses_edge_totals_past_int64(text, lineno):
    with pytest.raises(gk.GraphParseError, match=r"more than 2\^63 - 1 edges from a to b") as err:
        gk.parse_graph(text)
    assert err.value.lineno == lineno


def test_parse_reads_multiplicities_past_the_int_conversion_limit():
    # CPython converts at most 4300 digits to an int; leading zeros do not
    # count, and more than 19 significant digits pass 2^63 - 1.
    with pytest.raises(gk.GraphParseError, match=r"more than 2\^63 - 1 edges from a to b") as err:
        gk.parse_graph("vertices: a b\nedge a b " + "9" * 5000 + "\n")
    assert err.value.lineno == 2
    G = gk.parse_graph("vertices: a b\nedge a b " + "0" * 4999 + "5\n")
    assert G.edges == (gk.Edge("a", "b", 5),)
    with pytest.raises(gk.GraphParseError, match="bad multiplicity") as err:
        gk.parse_graph("vertices: a b\nedge a b " + "0" * 5000 + "\n")
    assert err.value.lineno == 2


def test_constructor_refuses_edge_totals_past_int64():
    for edges in ([("a", "b", HALF), ("a", "b", HALF)], [("a", "b", 10**20)]):
        with pytest.raises(ValueError, match=r"more than 2\^63 - 1 edges from a to b"):
            gk.DirectedGraph(["a", "b"], edges)


def test_edge_totals_up_to_int64_max_are_kept():
    text = f"vertices: a b\nedge a b {HALF}\nedge b a {2 * HALF - 1}\nedge a b {HALF - 1}\n"
    for G in (gk.parse_graph(text), gk.DirectedGraph(["a", "b"], gk.parse_graph(text).edges)):
        assert G.arcs.mult.tolist() == [2 * HALF - 1, 2 * HALF - 1]
        assert [e.multiplicity for e in G.edges] == [HALF, 2 * HALF - 1, HALF - 1]


def test_matrix_is_read_only_float64_edge_counts():
    graphs = [example(name) for name in GRAPHS]
    for G in graphs + [random_graph(random.Random(seed)) for seed in range(50)]:
        A = G.matrix
        assert A.dtype == np.float64 and not A.flags.writeable
        counts = np.zeros(A.shape, dtype=np.int64)
        for e in G.edges:
            counts[G.index[e.range], G.index[e.source]] += e.multiplicity
        assert np.array_equal(A, counts)
        assert G.matrix is A


def test_parse_requires_vertices_line():
    with pytest.raises(gk.GraphParseError):
        gk.parse_graph("# nothing here\n")


def test_graph_is_immutable():
    G = example("pair_toward_small")
    with pytest.raises(AttributeError):
        G.vertices = ()
    with pytest.raises(ValueError):
        G.matrix[0, 0] = 5


def test_path_count_examples():
    G = example("pair_toward_small")
    assert path_count(G, "v", "w", 1) == 1
    assert path_count(G, "v", "v", 0) == 1
    assert path_count(G, "v", "w", 0) == 0
    assert path_count(G, "w", "v", 3) == 0
    # v<-v<-v, v<-v<-w, v<-w<-w: 4 + 2*3 + 3*... by matrix square
    assert path_count(G, "v", "v", 2) == 4
    assert path_count(G, "v", "w", 2) == 2 * 1 + 1 * 3


def test_path_count_is_exact_for_large_n():
    G = example("pair_toward_small")
    assert path_count(G, "w", "w", 120) == 3**120
    assert path_count(G, "v", "v", 90) == 2**90


def test_path_count_matches_matrix_power():
    for name in GRAPHS:
        G = example(name)
        n = len(G.vertices)
        P = np.linalg.matrix_power(G.matrix.astype(object), 4)
        for i, v in enumerate(G.vertices):
            for j, w in enumerate(G.vertices):
                assert path_count(G, v, w, 4) == int(P[i, j])


def test_components_golden_feeder():
    G = example("golden_feeder")
    comps = G.components
    assert [c.members for c in comps] == [("v",), ("w", "u")]
    assert [c.perron_vector is None for c in comps] == [False, False]
    assert G.spectral_radii[comps[0].id] == pytest.approx(2.0, abs=1e-12)
    assert G.spectral_radii[comps[1].id] == pytest.approx(1 + math.sqrt(5), abs=1e-9)


def test_components_canonical_ids_follow_smallest_vertex():
    G = example("two_sources_chain")
    comps = G.components
    assert [c.members for c in comps] == [("u1",), ("v",), ("u2",), ("w",)]
    assert [c.id for c in comps] == [0, 1, 2, 3]
    assert [c.perron_vector is None for c in comps] == [True, False, True, False]


def test_successor_lists_match_a_nonzero_per_row():
    graphs = [example(name) for name in GRAPHS]
    graphs += [random_graph(random.Random(seed)) for seed in range(200)]
    for G in graphs:
        expected = [np.nonzero(row)[0].tolist() for row in G.matrix]
        assert successor_lists(G.arcs) == expected
        assert successor_lists(arcs_of_matrix(G.matrix)) == expected


def test_trivial_component_has_no_spectral_data():
    G = example("two_sources_chain")
    c = G.component_of("u1")
    assert c.perron_vector is None
    assert G.spectral_radii[c.id] == 0.0


def test_perron_vector_is_a_read_only_view_of_one_array():
    G = example("golden_feeder")
    c = G.component_of("w")
    x = np.asarray(c.perron_vector)
    assert np.asarray(c.perron_vector) is x and not x.flags.writeable
    assert list(c.perron_vector) == list(c.members) == ["w", "u"]
    assert c.perron_vector == dict(zip(c.members, x.tolist()))
    assert type(c.perron_vector["u"]) is float and "v" not in c.perron_vector
    with pytest.raises(KeyError):
        c.perron_vector["v"]
    with pytest.raises(ValueError):
        x[0] = 1.0


def test_per_component_arrays_hold_each_radius_and_its_log():
    graphs = [example(name) for name in GRAPHS]
    graphs += [random_graph(random.Random(seed)) for seed in range(200)]
    for G in graphs:
        comps = G.components
        arrays = (G.divergence, G.strict_divergence, G.spectral_radii, G.ln_spectral_radii)
        for a in arrays:
            assert a.dtype == np.float64 and a.shape == (len(comps),)
            assert not a.flags.writeable
        radii = [0.0 if c.perron_vector is None else G.spectral_radii[c.id] for c in comps]
        logs = [-math.inf if c.perron_vector is None else math.log(G.spectral_radii[c.id])
                for c in comps]
        assert G.spectral_radii.tobytes() == np.array(radii).tobytes()
        assert G.ln_spectral_radii.tobytes() == np.array(logs).tobytes()


def test_component_of_and_members():
    G = example("golden_feeder")
    assert G.component_of("w") is G.component_of("u")
    assert G.component_of("v").members == ("v",)


def test_unknown_vertex_names_raise_value_error():
    G = example("golden_feeder")
    for call in (lambda: gk.hereditary_closure(G, {"zz"}),
                 lambda: gk.beta_v(G, "zz"),
                 lambda: G.component_of("zz")):
        with pytest.raises(ValueError, match="^unknown vertex: zz$"):
            call()


def test_vertex_set_rejects_a_single_string():
    G = example("pair_toward_small")
    with pytest.raises(TypeError, match="not a single string"):
        G.vertex_set("vw")
    assert G.vertex_set(["v", "w"]).members == {"v", "w"}


def test_graph_rejects_a_single_string_for_its_vertices_or_an_edge():
    # Iterated, "ab" would give vertices a and b, or an edge a -> b.
    with pytest.raises(TypeError, match="collection of vertex names, not a single string"):
        gk.DirectedGraph("ab", [("a", "b")])
    with pytest.raises(TypeError, match=r"tuple, not a single string"):
        gk.DirectedGraph(["a", "b"], ["ab"])
    G = gk.DirectedGraph(["a", "b"], [("a", "b")])
    assert G.vertices == ("a", "b") and G.arcs.mult.tolist() == [1]


def test_talks_to_direction():
    G = example("pair_toward_small")
    Cv, Cw = G.components
    # a path with range v and source w exists, so {v} <= {w}
    assert talks_to(G, Cv, Cw)
    assert not talks_to(G, Cw, Cv)
    assert talks_to(G, Cv, Cv)


def test_seneta_order_two_sources_chain():
    G = example("two_sources_chain")
    order = gk.seneta_order(G)
    assert [c.members for c in order] == [("v",), ("u1",), ("u2",), ("w",)]


def test_seneta_order_puts_free_trivial_components_first():
    # t has nothing nontrivial below it, so it must open the list
    G = gk.parse_graph("vertices: t a\nedge a a 2\nedge a t\n")
    order = gk.seneta_order(G)
    assert [c.members for c in order] == [("t",), ("a",)]


def test_seneta_order_block_triangular():
    for name in GRAPHS:
        G = example(name)
        order = gk.seneta_order(G)
        perm = [G.index[v] for c in order for v in c.members]
        P = G.matrix[np.ix_(perm, perm)]
        offsets = []
        pos = 0
        for c in order:
            offsets.append((pos, pos + len(c.members)))
            pos += len(c.members)
        for i, (r0, r1) in enumerate(offsets):
            for j, (c0, c1) in enumerate(offsets):
                if i > j:
                    assert not P[r0:r1, c0:c1].any(), name


def test_hereditary_closure_pair():
    G = example("pair_toward_small")
    vs = gk.hereditary_closure(G, {"w"})
    assert vs.members == frozenset({"w"})
    assert vs.hereditary
    vs2 = gk.hereditary_closure(G, {"v"})
    assert vs2.members == frozenset({"v", "w"})


def test_hereditary_closure_idempotent():
    G = example("persistent_source")
    vs = gk.hereditary_closure(G, {"v"})
    again = gk.hereditary_closure(G, vs.members)
    assert again.members == vs.members


def test_vertex_set_flags():
    G = example("pair_toward_small")
    assert not G.vertex_set({"v"}).hereditary
    assert G.vertex_set({"w"}).hereditary
    with pytest.raises(ValueError):
        G.vertex_set({"zz"})
    for mask in ([False, False], [True, False], [False, True], [True, True]):
        by_mask = G.vertex_set(np.array(mask))
        by_name = G.vertex_set(v for v, inside in zip(G.vertices, mask) if inside)
        assert (by_mask.members, by_mask.hereditary, by_mask.saturated) == (
            by_name.members, by_name.hereditary, by_name.saturated
        )
    with pytest.raises(ValueError):
        G.vertex_set(np.array([True]))


def test_saturation_two_sources_chain():
    G = example("two_sources_chain")
    sat = gk.saturation(G, {"w"})
    assert sat.members == frozenset({"u2", "w"})
    assert sat.hereditary and sat.saturated


def test_saturation_never_swallows_a_source():
    G = example("persistent_source")
    sat = gk.saturation(G, gk.hereditary_closure(G, {"v"}).members)
    # u1 keeps its in-edge from the outside source u3
    assert sat.members == frozenset({"v", "u2", "w"})
    assert "u3" not in sat.members and "u1" not in sat.members


def test_saturation_can_swallow_whole_graph():
    G = example("reversed_tail")
    sat = gk.saturation(G, gk.hereditary_closure(G, {"v"}).members)
    assert sat.members == frozenset(G.vertices)


def test_saturation_rejects_non_hereditary():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        gk.saturation(G, {"v"})


def test_saturation_of_empty_is_empty():
    G = example("two_sources_chain")
    assert gk.saturation(G, ()).members == frozenset()


def test_quotient_graph_drops_inside_sources():
    G = example("two_sources_chain")
    Q = quotient_graph(G, {"w"})
    assert Q.vertices == ("u1", "v", "u2")
    assert Q.matrix.tolist() == [[0, 0, 0], [1, 2, 1], [0, 0, 0]]


def test_quotient_graph_validation():
    G = example("pair_toward_small")
    with pytest.raises(ValueError):
        quotient_graph(G, {"v"})  # not hereditary
    with pytest.raises(ValueError):
        quotient_graph(G, {"v", "w"})  # nothing left


def test_quotient_components_restrict():
    G = example("golden_feeder")
    Q = quotient_graph(G, gk.hereditary_closure(G, {"w"}))
    assert Q.vertices == ("v",)
    assert Q.spectral_radii[Q.components[0].id] == 2.0


def test_sources():
    assert gk.sources(example("two_sources_chain")) == frozenset({"u1"})
    assert gk.sources(example("persistent_source")) == frozenset({"u3"})
    assert gk.sources(example("pair_toward_small")) == frozenset()


def test_edge_instances_expand_multiplicity():
    G = example("pair_toward_small")
    inst = edge_instances(G)
    assert len(inst) == 6
    assert inst.count(("v", "v", 0)) == 1
    assert {e[2] for e in inst if e[:2] == ("w", "w")} == {0, 1, 2}
