#!/usr/bin/env python3
"""Build the two graphs a session is encoded with."""

import numpy as np

from sessionrec import build_inter_graph, build_intra_graph

np.set_printoptions(precision=3, suppress=True)

# Within one session, clicks become directed edges between distinct items.
# The classic worked example: 1 -> 3 -> 2 -> 3 -> 4 -> 1.
g = build_intra_graph([1, 3, 2, 3, 4, 1])
print("nodes (first-appearance order):", g.node_items.tolist())
print("positions (click position -> node row):", g.positions.tolist())
# The graph is stored as the GGNN reads it: a list of edges src -> dst, each
# sending src's state to dst with two weights: a_out, the share of dst's
# outgoing clicks that go to src, and a_in, the share of dst's incoming
# clicks that come from src.
print("edges (src -> dst: a_out, a_in), ascending by dst:")
for s, d, (w_out, w_in) in zip(g.src, g.dst, g.weight):
    print(f"  {g.node_items[s]} -> {g.node_items[d]}: {w_out:.3g}, {w_in:.3g}")
# Item 3 clicks out to both 2 and 4, so edges 2 -> 3 and 4 -> 3 carry a_out 1/2.

# Across sessions, the current prefix is merged with retrieved neighbor
# sessions into one undirected graph. Consecutive clicks in any member
# session become edges; every node is adjacent to itself.
prefix = [1, 3, 2]
neighbor_sessions = [[2, 5, 4], [4, 1]]
ig = build_inter_graph(prefix, neighbor_sessions)
merged = ig.node_items.tolist()
print("\nmerged nodes:", merged)
for row, adjacent in enumerate(ig.adjacency):
    print(f"  node {merged[row]} touches {[merged[a] for a in adjacent]}")
print("positions (the prefix's clicks -> node row):", ig.positions.tolist())
print("dense mask:")
print(ig.mask())
