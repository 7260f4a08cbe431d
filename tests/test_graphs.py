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
    assert g.node_items.tolist() == [3]
    assert g.positions.tolist() == [0]
    assert g.positions[g.last[0]] == 0
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
    assert g.positions.tolist() == [0, 1, 2, 1, 3, 0]
    assert g.positions[g.last[0]] == 0


def test_repeated_item_collapses_to_one_node():
    g = build_intra_graph([5, 5, 5])
    assert g.node_items.tolist() == [5]
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
    assert g.node_items.tolist() == node_items
    assert g.positions.tolist() == alias
    assert g.positions[g.last[0]] == alias[-1]
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


def test_bad_item_ids_raise_graph_error():
    """Clicks that are not integer item ids, and a batch of no graphs, fail
    with a GraphError naming the problem, not numpy's TypeError or ValueError."""
    for build, match in [
        (lambda: build_intra_graph([1.5, 2]), "integers"),
        (lambda: build_inter_graph([1, 2], [[0.5]]), "integers"),
        (lambda: build_intra_graph(["a"]), "integers"),
        (lambda: build_intra_graph([None]), "integers"),
        (lambda: build_inter_graph([1], [[1, [2]]]), "nested"),
        (lambda: pack_intra([]), "at least one graph"),
        (lambda: pack_inter([], []), "at least one graph"),
    ]:
        with pytest.raises(GraphError, match=match):
            build()


def test_inter_graph_small():
    g = build_inter_graph([0, 1], [[1, 2], [3, 2]])
    assert g.node_items.tolist() == [0, 1, 2, 3]
    # edges: 0-1 (prefix), 1-2 and 3-2 (neighbors), self loops everywhere
    assert g.adjacency == [[0, 1], [0, 1, 2], [1, 2, 3], [2, 3]]
    assert g.positions.tolist() == [0, 1]
    assert g.positions[g.last[0]] == 1


def test_inter_prefix_items_come_first():
    g = build_inter_graph([9, 4], [[1, 9], [4, 7]])
    assert g.node_items[:2].tolist() == [9, 4]


def test_inter_duplicate_edges_collapse():
    g = build_inter_graph([0, 1, 0, 1], [[1, 0]])
    assert g.node_items.tolist() == [0, 1]
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
    assert g.node_items.tolist() == node_items
    assert g.adjacency == adjacency
    assert g.positions.tolist() == slots
    assert g.positions[g.last[0]] == slots[-1]


@given(prefixes, neighbor_lists)
@settings(max_examples=100)
def test_both_graphs_give_the_prefix_items_the_same_first_slots(prefix, neighbors):
    intra = build_intra_graph(prefix)
    inter = build_inter_graph(prefix, neighbors)
    assert inter.node_items[: len(intra.node_items)].tolist() == intra.node_items.tolist()
    assert inter.positions.tolist() == intra.positions.tolist()


def test_inter_edge_list_is_sorted_with_both_directions_and_self_loops():
    g = build_inter_graph([0, 1], [[1, 2], [3, 2]])
    pairs = list(zip(g.dst.tolist(), g.src.tolist()))
    assert pairs == sorted(pairs)
    assert set(pairs) == {(i, j) for i, nbrs in enumerate(g.adjacency) for j in nbrs}
    assert all((j, i) in pairs for i, j in pairs)
    assert all((i, i) in pairs for i in range(len(g.node_items)))


def test_packed_inter_batch_by_hand():
    packed = pack_inter([[0, 1], [5], [2, 2, 9]], [[[1, 2]], [], []])
    assert packed.node_items.tolist() == [0, 1, 2, 5, 2, 9]
    assert packed.node_graph.tolist() == [0, 0, 0, 1, 2, 2]
    assert packed.positions.tolist() == [0, 1, 3, 4, 4, 5]
    assert packed.position_graph.tolist() == [0, 0, 1, 2, 2, 2]
    assert packed.last.tolist() == [1, 2, 5]
    assert packed.weight is None


def assert_packs_its_batches_of_one(packed, ones):
    """Graph b of the batch is batch of one b, shifted by the nodes and positions before it."""
    node = edge = position = 0
    for b, one in enumerate(ones):
        n, e, p = len(one.node_items), len(one.src), len(one.positions)
        assert packed.node_items[node : node + n].tolist() == one.node_items.tolist()
        assert (packed.node_graph[node : node + n] == b).all()
        assert (packed.src[edge : edge + e] == one.src + node).all()
        assert (packed.dst[edge : edge + e] == one.dst + node).all()
        if one.weight is None:
            assert packed.weight is None
        else:
            assert packed.weight[edge : edge + e].tobytes() == one.weight.tobytes()
        assert (packed.positions[position : position + p] == one.positions + node).all()
        assert (packed.position_graph[position : position + p] == b).all()
        assert packed.last[b] == position + one.last[0]
        node, edge, position = node + n, edge + e, position + p
    assert node == len(packed.node_items)
    assert (edge, position) == (len(packed.src), len(packed.positions))
    assert (np.diff(packed.dst) >= 0).all()


# few distinct items, so examples share items and sessions repeat clicks
few_items = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8)


@given(st.lists(st.tuples(few_items, st.lists(few_items, max_size=3)), min_size=1, max_size=5))
@example([([0, 1], [[1, 2]]), ([5], []), ([2, 2, 9], [])])
@settings(max_examples=200)
def test_packed_batch_offsets_each_graph_by_the_nodes_before_it(batch):
    prefixes = [prefix for prefix, _ in batch]
    assert_packs_its_batches_of_one(pack_intra(prefixes), [pack_intra([p]) for p in prefixes])
    assert_packs_its_batches_of_one(
        pack_inter(prefixes, [nbrs for _, nbrs in batch]),
        [pack_inter([prefix], [nbrs]) for prefix, nbrs in batch],
    )


@given(st.lists(prefixes, min_size=1, max_size=4))
@settings(max_examples=50)
def test_packed_intra_edges_carry_the_adjacency_weights(batch):
    packed = pack_intra(batch)
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
