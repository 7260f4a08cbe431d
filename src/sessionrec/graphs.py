"""Session graphs.

Two views of click data feed the encoders: a directed multigraph over one
session's transitions (normalized in/out adjacency matrices), and an undirected
graph over a session plus its retrieved neighbors (an edge list with self
loops). Node slots are assigned in first-occurrence order, scanning the session
itself before any neighbor.

The encoders read graphs in packed form: the graphs of a mini-batch laid end
to end in one node index space, so every per-node map runs once over all
rows and every graph operation is a gather plus a segment sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .corpus import Session
from .errors import GraphError


@dataclass
class IntraGraph:
    """One session as a directed graph over its distinct items.

    a_out[i][j] is the multiplicity of the i -> j transition divided by the
    total out-multiplicity of node i; a_in is defined the same way over
    incoming edges. alias maps each click position to its node slot.
    """

    node_items: list[int]
    alias: list[int]
    last_slot: int
    a_out: np.ndarray
    a_in: np.ndarray


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


def build_intra_graph(prefix: Sequence[int]) -> IntraGraph:
    """Build the directed transition graph of a single click sequence.

    Consecutive clicks (a, b) contribute one unit of multiplicity to edge
    a -> b (including self edges from repeated clicks). Each row of a_out / a_in
    sums to 1 when the node has any outgoing / incoming edge, else 0.
    """
    if not prefix:
        raise GraphError("cannot build a graph from an empty session")
    slot: dict[int, int] = {}
    alias: list[int] = []
    for item in prefix:
        if item not in slot:
            slot[item] = len(slot)
        alias.append(slot[item])
    n = len(slot)
    mult = np.zeros((n, n))
    for a, b in zip(alias, alias[1:]):
        mult[a, b] += 1.0
    out_deg = mult.sum(axis=1, keepdims=True)
    in_deg = mult.sum(axis=0, keepdims=True)
    a_out = np.divide(mult, out_deg, out=np.zeros_like(mult), where=out_deg > 0)
    a_in = np.divide(mult, in_deg, out=np.zeros_like(mult), where=in_deg > 0).T
    return IntraGraph(
        node_items=list(slot),
        alias=alias,
        last_slot=alias[-1],
        a_out=a_out,
        a_in=a_in,
    )


def _as_items(session: Union[Session, Sequence[int]]) -> Sequence[int]:
    return session.items if isinstance(session, Session) else session


def build_inter_graph(
    prefix: Sequence[int],
    neighbor_sessions: Sequence[Union[Session, Sequence[int]]] = (),
) -> InterGraph:
    """Build the undirected graph over a prefix and its neighbor sessions.

    Every consecutive click pair in the prefix or in any neighbor session adds
    one undirected edge (deduplicated), and every node carries a self loop.
    """
    if not prefix:
        raise GraphError("cannot build a graph from an empty session")
    slot: dict[int, int] = {}
    codes: set[int] = set()  # dst << 32 | src for every directed edge
    for seq in [prefix] + [_as_items(s) for s in neighbor_sessions]:
        if len(seq) == 0:
            raise GraphError("neighbor sessions must be non-empty")
        a = slot.setdefault(seq[0], len(slot))
        for item in seq[1:]:
            b = slot.setdefault(item, len(slot))
            codes.add(a << 32 | b)
            codes.add(b << 32 | a)
            a = b
    codes.update(i << 32 | i for i in range(len(slot)))
    edges = np.array(sorted(codes), dtype=np.int64)
    session_slots = [slot[item] for item in prefix]
    return InterGraph(
        node_items=list(slot),
        src=edges & 0xFFFFFFFF,
        dst=edges >> 32,
        session_slots=session_slots,
        last_slot=session_slots[-1],
    )


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


def _pack(node_items, edges, positions, weight=None) -> PackedGraphs:
    """Concatenate per-graph arrays, shifting each graph's slots by the nodes before it."""
    src, dst, rows = [], [], []
    offset = 0
    for items, (s, d), p in zip(node_items, edges, positions):
        src.append(s + offset)
        dst.append(d + offset)
        rows.append(np.add(p, offset))
        offset += len(items)
    sizes = [len(items) for items in node_items]
    lengths = [len(p) for p in positions]
    graphs = np.arange(len(sizes))
    return PackedGraphs(
        node_items=np.concatenate(node_items, dtype=np.intp),
        node_graph=np.repeat(graphs, sizes),
        src=np.concatenate(src, dtype=np.intp),
        dst=np.concatenate(dst, dtype=np.intp),
        weight=weight,
        positions=np.concatenate(rows, dtype=np.intp),
        position_graph=np.repeat(graphs, lengths),
        last=np.cumsum(lengths) - 1,
    )


def pack_intra(graphs: Sequence[IntraGraph]) -> PackedGraphs:
    """Pack transition graphs; an edge exists where a_out or a_in is nonzero."""
    edges, weights = [], []
    for g in graphs:
        dst, src = np.nonzero(g.a_out + g.a_in)
        edges.append((src, dst))
        weights.append((g.a_out[dst, src], g.a_in[dst, src]))
    weight = np.concatenate(weights, axis=1).T                         # (E, 2)
    return _pack([g.node_items for g in graphs], edges, [g.alias for g in graphs], weight)


def pack_inter(graphs: Sequence[InterGraph]) -> PackedGraphs:
    """Pack neighbor graphs (self loops included, no edge weights)."""
    return _pack(
        [g.node_items for g in graphs],
        [(g.src, g.dst) for g in graphs],
        [g.session_slots for g in graphs],
    )
