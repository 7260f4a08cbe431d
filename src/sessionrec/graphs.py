"""Session graphs.

Two views of click data feed the encoders: a directed multigraph over one
session's transitions (an edge list carrying the normalized out/in weights,
never the dense (n, n) matrices), and an undirected graph over a session plus
its retrieved neighbors (an edge list with self loops). Both store their edges
as the encoders read them: src -> dst, ascending by dst and then src. Node
slots are assigned in first-occurrence order, scanning the session itself
before any neighbor.

The encoders read graphs in packed form: the graphs of a mini-batch laid end
to end in one node index space, so every per-node map runs once over all
rows and every graph operation is a gather plus a segment sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .errors import GraphError


@dataclass
class IntraGraph:
    """One session as a directed graph over its distinct items.

    a_out[i][j] is the multiplicity of the i -> j transition divided by the
    total out-multiplicity of node i; a_in is defined the same way over
    incoming edges. Edge e exists where a_out[dst[e], src[e]] or
    a_in[dst[e], src[e]] is nonzero, so every transition appears in both
    directions, and weight[e] holds that (a_out, a_in) pair. alias maps each
    click position to its node slot.
    """

    node_items: list[int]
    alias: list[int]
    last_slot: int
    src: np.ndarray     # (E,)
    dst: np.ndarray     # (E,)
    weight: np.ndarray  # (E, 2)


@dataclass
class InterGraph:
    """A session and its neighbor sessions as one undirected item graph.

    ``src``/``dst`` list every edge in both directions plus a self loop at
    every slot, sorted by dst and then src; session_slots maps the session's
    click positions to slots.
    """

    node_items: list[int]
    src: np.ndarray
    dst: np.ndarray
    session_slots: list[int]
    last_slot: int

    @property
    def adjacency(self) -> list[list[int]]:
        """adjacency[i] lists the slots adjacent to slot i (sorted, always including i)."""
        bounds = np.searchsorted(self.dst, np.arange(1, len(self.node_items)))
        return [part.tolist() for part in np.split(self.src, bounds)]

    def mask(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (self loops included)."""
        n = len(self.node_items)
        m = np.zeros((n, n))
        m[self.dst, self.src] = 1.0
        return m


def _first_slots(items: Iterable[int]) -> tuple[list[int], list[int]]:
    """The distinct items in first-occurrence order, and each position's slot among them."""
    slot: dict[int, int] = {}
    slots = [slot.setdefault(item, len(slot)) for item in items]
    return list(slot), slots


def build_intra_graph(prefix: Sequence[int]) -> IntraGraph:
    """Build the directed transition graph of a single click sequence.

    Consecutive clicks (a, b) contribute one unit of multiplicity to edge
    a -> b (including self edges from repeated clicks). Each row of a_out / a_in
    sums to 1 when the node has any outgoing / incoming edge, else 0.
    """
    if not prefix:
        raise GraphError("cannot build a graph from an empty session")
    node_items, alias = _first_slots(prefix)
    n = len(node_items)
    at = np.array(alias, dtype=np.intp)
    a, b = at[:-1], at[1:]
    # code dst * n + src: transition a -> b puts a_out[a, b] on edge b -> a, a_in[b, a] on a -> b
    codes, edge = np.unique(np.concatenate([a * n + b, b * n + a]), return_inverse=True)
    dst, src = np.divmod(codes, n)
    m, e = len(a), len(codes)
    # a node without out- (in-) transitions only ever divides a zero count
    a_out = np.bincount(edge[:m], minlength=e) / np.maximum(np.bincount(a, minlength=n), 1)[dst]
    a_in = np.bincount(edge[m:], minlength=e) / np.maximum(np.bincount(b, minlength=n), 1)[dst]
    weight = np.stack([a_out, a_in], axis=1)
    return IntraGraph(node_items, alias, alias[-1], src, dst, weight)


def build_inter_graph(
    prefix: Sequence[int],
    neighbor_sessions: Sequence[Collection[int]] = (),
) -> InterGraph:
    """Build the undirected graph over a prefix and its neighbor sessions.

    Every consecutive click pair in the prefix or in any neighbor session adds
    one undirected edge (deduplicated), and every node carries a self loop.
    """
    if not prefix:
        raise GraphError("cannot build a graph from an empty session")
    seqs = [prefix, *neighbor_sessions]
    lengths = [len(seq) for seq in seqs]
    if not all(lengths):
        raise GraphError("neighbor sessions must be non-empty")
    node_items, slots = _first_slots(chain.from_iterable(seqs))
    n = len(node_items)
    at = np.array(slots, dtype=np.intp)
    inside = np.ones(len(at) - 1, dtype=bool)      # drop the pairs across sequence ends
    inside[np.cumsum(lengths)[:-1] - 1] = False
    a, b = at[:-1][inside], at[1:][inside]
    codes = np.unique(np.concatenate([a * n + b, b * n + a, np.arange(n) * (n + 1)]))
    dst, src = np.divmod(codes, n)
    session_slots = slots[: len(prefix)]
    return InterGraph(node_items, src, dst, session_slots, session_slots[-1])


@dataclass
class PackedGraphs:
    """B graphs laid end to end in one node index space.

    Graph b owns the node rows after those of graph b - 1. Edges carry
    messages src -> dst and ascend by dst. ``weight`` holds an intra graph
    edge's (a_out, a_in) pair and is None for inter graphs. ``positions``
    maps every click position of every prefix to its node row,
    ``position_graph`` names the graph of each position, and ``last`` indexes
    each graph's final position.
    """

    node_items: np.ndarray      # (N,)
    node_graph: np.ndarray      # (N,)
    src: np.ndarray             # (E,)
    dst: np.ndarray             # (E,)
    weight: Optional[np.ndarray]  # (E, 2) or None
    positions: np.ndarray       # (P,)
    position_graph: np.ndarray  # (P,)
    last: np.ndarray            # (B,)


def _pack(graphs, positions, weight=None) -> PackedGraphs:
    """Concatenate per-graph arrays, shifting each graph's slots by the nodes before it."""
    sizes = [len(g.node_items) for g in graphs]
    lengths = [len(p) for p in positions]
    ids = np.arange(len(sizes))
    first_row = np.cumsum(sizes) - sizes
    edge_shift = np.repeat(first_row, [len(g.src) for g in graphs])
    position_graph = np.repeat(ids, lengths)
    return PackedGraphs(
        node_items=np.concatenate([g.node_items for g in graphs], dtype=np.intp),
        node_graph=np.repeat(ids, sizes),
        src=np.concatenate([g.src for g in graphs]) + edge_shift,
        dst=np.concatenate([g.dst for g in graphs]) + edge_shift,
        weight=weight,
        positions=np.concatenate(positions, dtype=np.intp) + first_row[position_graph],
        position_graph=position_graph,
        last=np.cumsum(lengths) - 1,
    )


def pack_intra(graphs: Sequence[IntraGraph]) -> PackedGraphs:
    """Pack transition graphs with their (a_out, a_in) edge weights."""
    return _pack(graphs, [g.alias for g in graphs], np.concatenate([g.weight for g in graphs]))


def pack_inter(graphs: Sequence[InterGraph]) -> PackedGraphs:
    """Pack neighbor graphs (self loops included, no edge weights)."""
    return _pack(graphs, [g.session_slots for g in graphs])
