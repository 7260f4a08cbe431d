"""Session graph construction against hand-derived and loop-based oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessionrec import build_inter_graph, build_intra_graph, pack_inter, pack_intra
from sessionrec.errors import GraphError

from reference_model import ref_inter_graph, ref_intra_graph

prefixes = st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=12)


def assert_edges_match(g, a_out, a_in):
    """g's edges are exactly the (dst, src) entries where a_out or a_in is nonzero,
    in ascending order, and each carries that (a_out, a_in) pair."""
    n = len(a_out)
    expect = [(i, j) for i in range(n) for j in range(n) if a_out[i][j] or a_in[i][j]]
    assert list(zip(g.dst.tolist(), g.src.tolist())) == expect
    assert g.weight.shape == (len(expect), 2)
    for (i, j), (w_out, w_in) in zip(expect, g.weight.tolist()):
        assert w_out == float(a_out[i][j])
        assert w_in == float(a_in[i][j])


def test_single_click_graph():
    g = build_intra_graph([3])
    assert g.node_items == [3]
    assert g.alias == [0]
    assert g.last_slot == 0
    assert g.src.shape == g.dst.shape == (0,)
    assert g.weight.shape == (0, 2)


def test_hand_derived_adjacency():
    """Session v1 v3 v2 v3 v4 v1 with items numbered by first appearance.

    v1=0, v3=1, v2=2, v4=3. Worked out by hand: node v3 sends one click to v2
    and one to v4 (so each outgoing weight is 1/2), everything else sends its
    full weight along a single edge. Incoming normalization mirrors that at
    v3, which receives once from v1 and once from v2.
    """
    g = build_intra_graph([0, 1, 2, 1, 3, 0])
    expect_out = [
        [0, 1, 0, 0],
        [0, 0, Fraction(1, 2), Fraction(1, 2)],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    expect_in = [
        [0, 0, 0, 1],
        [Fraction(1, 2), 0, Fraction(1, 2), 0],
        [0, 1, 0, 0],
        [0, 1, 0, 0],
    ]
    assert_edges_match(g, expect_out, expect_in)
    assert g.alias == [0, 1, 2, 1, 3, 0]
    assert g.last_slot == 0


def test_repeated_item_collapses_to_one_node():
    g = build_intra_graph([5, 5, 5])
    assert g.node_items == [5]
    # self transition: the only outgoing mass loops back
    assert (g.dst.tolist(), g.src.tolist()) == ([0], [0])
    assert g.weight.tolist() == [[1.0, 1.0]]


@given(prefixes)
@example([3])
@example([5, 5, 5])
@example([0, 1, 1, 0, 0, 1])
@settings(max_examples=200)
def test_intra_matches_reference(prefix):
    g = build_intra_graph(prefix)
    node_items, alias, a_out, a_in = ref_intra_graph(prefix)
    assert g.node_items == node_items
    assert g.alias == alias
    assert g.last_slot == alias[-1]
    assert_edges_match(g, a_out, a_in)


@given(prefixes)
@settings(max_examples=200)
def test_intra_row_sums_zero_or_one(prefix):
    g = build_intra_graph(prefix)
    n = len(g.node_items)
    for column in g.weight.T:  # a_out, then a_in: row i sums over the edges into slot i
        for total in np.bincount(g.dst, column, minlength=n):
            assert abs(total - 1.0) < 1e-12 or total == 0.0


def test_empty_prefix_rejected():
    with pytest.raises(GraphError):
        build_intra_graph([])
    with pytest.raises(GraphError):
        build_inter_graph([], [])


def test_inter_graph_small():
    g = build_inter_graph([0, 1], [[1, 2], [3, 2]])
    assert g.node_items == [0, 1, 2, 3]
    # edges: 0-1 (prefix), 1-2 and 3-2 (neighbors), self loops everywhere
    assert g.adjacency == [[0, 1], [0, 1, 2], [1, 2, 3], [2, 3]]
    assert g.session_slots == [0, 1]
    assert g.last_slot == 1


def test_inter_prefix_items_come_first():
    g = build_inter_graph([9, 4], [[1, 9], [4, 7]])
    assert g.node_items[:2] == [9, 4]


def test_inter_duplicate_edges_collapse():
    g = build_inter_graph([0, 1, 0, 1], [[1, 0]])
    assert g.node_items == [0, 1]
    assert g.adjacency == [[0, 1], [0, 1]]


def test_inter_mask_is_symmetric_with_self_loops():
    g = build_inter_graph([0, 1, 2], [[2, 3, 4], [5, 1]])
    m = g.mask()
    assert m.shape == (len(g.node_items),) * 2
    assert (m == m.T).all()
    assert (np.diag(m) == 1.0).all()
    assert set(np.unique(m)) <= {0.0, 1.0}


neighbor_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    max_size=4,
)


@given(prefixes, neighbor_lists)
@settings(max_examples=200)
def test_inter_matches_reference(prefix, neighbors):
    g = build_inter_graph(prefix, neighbors)
    node_items, adjacency, slots = ref_inter_graph(prefix, neighbors)
    assert g.node_items == node_items
    assert g.adjacency == adjacency
    assert g.session_slots == slots
    assert g.last_slot == slots[-1]


@given(prefixes, neighbor_lists)
@settings(max_examples=100)
def test_both_graphs_give_the_prefix_items_the_same_first_slots(prefix, neighbors):
    intra = build_intra_graph(prefix)
    inter = build_inter_graph(prefix, neighbors)
    assert inter.node_items[: len(intra.node_items)] == intra.node_items
    assert inter.session_slots == intra.alias


def test_inter_edge_list_is_sorted_with_both_directions_and_self_loops():
    g = build_inter_graph([0, 1], [[1, 2], [3, 2]])
    pairs = list(zip(g.dst.tolist(), g.src.tolist()))
    assert pairs == sorted(pairs)
    assert set(pairs) == {(i, j) for i, nbrs in enumerate(g.adjacency) for j in nbrs}
    assert all((j, i) in pairs for i, j in pairs)
    assert all((i, i) in pairs for i in range(len(g.node_items)))


def test_packed_batch_offsets_each_graph_by_the_nodes_before_it():
    graphs = [build_inter_graph([0, 1], [[1, 2]]), build_inter_graph([5], []), build_inter_graph([2, 2, 9])]
    packed = pack_inter(graphs)
    assert packed.node_items.tolist() == [0, 1, 2, 5, 2, 9]
    assert packed.node_graph.tolist() == [0, 0, 0, 1, 2, 2]
    assert packed.positions.tolist() == [0, 1, 3, 4, 4, 5]
    assert packed.position_graph.tolist() == [0, 0, 1, 2, 2, 2]
    assert packed.last.tolist() == [1, 2, 5]
    offset = 0
    start = 0
    for g in graphs:
        stop = start + len(g.src)
        assert (packed.src[start:stop] == g.src + offset).all()
        assert (packed.dst[start:stop] == g.dst + offset).all()
        start, offset = stop, offset + len(g.node_items)
    assert stop == len(packed.src)
    assert (np.diff(packed.dst) >= 0).all()
    assert packed.weight is None


@given(st.lists(prefixes, min_size=1, max_size=4))
@settings(max_examples=50)
def test_packed_intra_edges_carry_the_adjacency_weights(batch):
    packed = pack_intra([build_intra_graph(prefix) for prefix in batch])
    n = len(packed.node_items)
    dense = np.zeros((2, n, n))
    dense[:, packed.dst, packed.src] = packed.weight.T
    expect = np.zeros((2, n, n))  # the reference's a_out and a_in, block diagonal
    offset = 0
    for prefix in batch:
        _, _, a_out, a_in = ref_intra_graph(prefix)
        block = slice(offset, offset + len(a_out))
        expect[:, block, block] = [[[float(x) for x in row] for row in m] for m in (a_out, a_in)]
        offset += len(a_out)
    assert (dense == expect).all()
    assert len(packed.src) == np.count_nonzero(expect.any(axis=0))  # one edge per nonzero entry
    assert (np.diff(packed.dst) >= 0).all()
