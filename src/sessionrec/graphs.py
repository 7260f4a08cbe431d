"""Session graphs.

Two views of click data feed the encoders: a directed multigraph over a
session's transitions (an edge list carrying the normalized out/in weights,
never the dense (n, n) matrices), and an undirected graph over a session plus
its retrieved neighbors (an edge list with self loops). Edges run src -> dst,
ascending by dst and then src.

A mini-batch's graphs are built in one pass over its clicks laid end to end
(``pack_intra``, ``pack_inter``), in one node index space: every per-node map
runs once over all rows and every graph operation stays inside its graph's
rows. Nodes are numbered by (graph, item) in first-occurrence order, each
session before its neighbors. ``build_intra_graph`` and ``build_inter_graph``
are batches of one, unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Collection, Optional, Sequence

import numpy as np

from .corpus import first_occurrences
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


def _lay_out(groups: Sequence[Sequence[Collection[int]]], edges: Callable) -> PackedGraphs:
    """Graph b over the sequences of ``groups[b]``, its prefix first.

    ``edges(a, b, n)`` gives the (src, dst, weight) edge list of n nodes from
    the node rows of each consecutive click pair a -> b inside one sequence.
    """
    sizes = np.fromiter(map(len, groups), np.intp, len(groups))
    seqs = list(chain.from_iterable(groups))
    lengths = np.fromiter(map(len, seqs), np.intp, len(seqs))
    heads = np.cumsum(sizes) - sizes  # each graph's prefix
    if not lengths[heads].all():
        raise GraphError("cannot build a graph from an empty session")
    if not lengths.all():
        raise GraphError("neighbor sessions must be non-empty")
    items = np.array(list(chain.from_iterable(seqs))).astype(np.intp, casting="same_kind")
    graph = np.repeat(np.repeat(np.arange(len(sizes)), sizes), lengths)  # each click's graph
    first, rows = first_occurrences(items, graph)
    inside = np.ones(len(rows) - 1, dtype=bool)
    inside[np.cumsum(lengths)[:-1] - 1] = False  # no pair across a sequence end
    src, dst, weight = edges(rows[:-1][inside], rows[1:][inside], len(first))
    at = np.repeat(np.bincount(heads, minlength=len(seqs)) > 0, lengths)  # the prefixes' clicks
    return PackedGraphs(
        node_items=items[first], node_graph=graph[first], src=src, dst=dst, weight=weight,
        positions=rows[at], position_graph=graph[at], last=np.cumsum(lengths[heads]) - 1,
    )


def _transition_edges(a: np.ndarray, b: np.ndarray, n: int):
    """Both directions of every transition a -> b, weighted by (a_out, a_in)."""
    # code dst * n + src: transition a -> b puts a_out[a, b] on edge b -> a, a_in[b, a] on a -> b
    codes, edge = np.unique(np.concatenate([a * n + b, b * n + a]), return_inverse=True)
    dst, src = np.divmod(codes, n)
    m, e = len(a), len(codes)
    # a node without out- (in-) transitions only ever divides a zero count
    a_out = np.bincount(edge[:m], minlength=e) / np.maximum(np.bincount(a, minlength=n), 1)[dst]
    a_in = np.bincount(edge[m:], minlength=e) / np.maximum(np.bincount(b, minlength=n), 1)[dst]
    return src, dst, np.stack([a_out, a_in], axis=1)


def _undirected_edges(a: np.ndarray, b: np.ndarray, n: int):
    """Every pair once in each direction, deduplicated, plus a self loop at every node."""
    codes = np.unique(np.concatenate([a * n + b, b * n + a, np.arange(n) * (n + 1)]))
    dst, src = np.divmod(codes, n)
    return src, dst, None


def pack_intra(prefixes: Sequence[Sequence[int]]) -> PackedGraphs:
    """The transition graphs of B click sequences, with their (a_out, a_in) edge weights.

    Consecutive clicks (a, b) contribute one unit of multiplicity to edge
    a -> b (including self edges from repeated clicks). Each row of a_out / a_in
    sums to 1 when the node has any outgoing / incoming edge, else 0.
    """
    return _lay_out([[prefix] for prefix in prefixes], _transition_edges)


def pack_inter(
    prefixes: Sequence[Sequence[int]], neighbor_lists: Sequence[Sequence[Collection[int]]]
) -> PackedGraphs:
    """The undirected graphs of B prefixes, each over itself and its neighbor sessions.

    Every consecutive click pair in the prefix or in any neighbor session adds
    one undirected edge (deduplicated), and every node carries a self loop.
    """
    return _lay_out(
        [[prefix, *nbrs] for prefix, nbrs in zip(prefixes, neighbor_lists)], _undirected_edges
    )


def build_intra_graph(prefix: Sequence[int]) -> IntraGraph:
    """The transition graph of a single click sequence: a batch of one, unpacked."""
    g = pack_intra([prefix])
    alias = g.positions.tolist()
    return IntraGraph(g.node_items.tolist(), alias, alias[-1], g.src, g.dst, g.weight)


def build_inter_graph(
    prefix: Sequence[int],
    neighbor_sessions: Sequence[Collection[int]] = (),
) -> InterGraph:
    """The graph over one prefix and its neighbor sessions: a batch of one, unpacked."""
    g = pack_inter([prefix], [neighbor_sessions])
    slots = g.positions.tolist()
    return InterGraph(g.node_items.tolist(), g.src, g.dst, slots, slots[-1])
