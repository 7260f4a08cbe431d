"""Session graphs, built a mini-batch at a time.

A batch's graphs lie end to end in one node index space (:class:`PackedGraphs`)
and are built in one pass over its clicks: every per-node map runs once over
all rows and every graph operation stays inside its graph's rows. Nodes are
numbered by (graph, item) in first-occurrence order, each session before its
neighbors, and edges run src -> dst, ascending by dst and then src.
``pack_intra`` gives each session's directed transition graph, its edges
carrying the normalized out/in weights; ``pack_inter`` gives an
:class:`InterGraph`, the undirected graph over each session and its retrieved
neighbors, with self loops. A single graph is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Collection, Optional, Sequence

import numpy as np

from .corpus import first_occurrences
from .errors import GraphError


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


class InterGraph(PackedGraphs):
    """Undirected graphs, each over a prefix and its neighbor sessions.

    Every edge is listed in both directions, and every node row has a self loop.
    """

    @property
    def adjacency(self) -> list[list[int]]:
        """adjacency[i] lists the rows adjacent to row i (sorted, always including i)."""
        bounds = np.searchsorted(self.dst, np.arange(1, len(self.node_items)))
        return [part.tolist() for part in np.split(self.src, bounds)]

    def mask(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix over all rows (self loops included)."""
        n = len(self.node_items)
        m = np.zeros((n, n))
        m[self.dst, self.src] = 1.0
        return m


def _lay_out(groups: Sequence[Sequence[Collection[int]]], edges: Callable, kind: type):
    """Graph b over the sequences of ``groups[b]``, its prefix first, as a ``kind``.

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
    return kind(
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

    Consecutive clicks (a, b) contribute one unit of multiplicity to the
    transition a -> b (including self edges from repeated clicks). a_out[i, j]
    is the i -> j multiplicity over i's outgoing total and a_in[i, j] the j -> i
    multiplicity over i's incoming total, so each row sums to 1 or 0. Edge
    src -> dst exists where a_out[dst, src] or a_in[dst, src] is nonzero and
    carries that pair.
    """
    return _lay_out([[prefix] for prefix in prefixes], _transition_edges, PackedGraphs)


def pack_inter(
    prefixes: Sequence[Sequence[int]], neighbor_lists: Sequence[Sequence[Collection[int]]]
) -> InterGraph:
    """The undirected graphs of B prefixes, each over itself and its neighbor sessions.

    Every consecutive click pair in the prefix or in any neighbor session adds
    one undirected edge (deduplicated), and every node carries a self loop.
    """
    groups = [[prefix, *nbrs] for prefix, nbrs in zip(prefixes, neighbor_lists)]
    return _lay_out(groups, _undirected_edges, InterGraph)


def build_intra_graph(prefix: Sequence[int]) -> PackedGraphs:
    """The transition graph of a single click sequence: a batch of one."""
    return pack_intra([prefix])


def build_inter_graph(
    prefix: Sequence[int], neighbor_sessions: Sequence[Collection[int]] = ()
) -> InterGraph:
    """The graph over one prefix and its neighbor sessions: a batch of one."""
    return pack_inter([prefix], [neighbor_sessions])
