"""Straight-line numpy re-implementation of the model math, for oracle tests.

Everything here is written the slow, obvious way: per-node loops, explicit
neighborhood lists, fractions where exactness matters. None of it shares code
with the package beyond numpy itself, so agreement between the two routes is
meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# graphs


def ref_intra_graph(prefix):
    """Transition graph of one session: nodes, alias, exact rational A_out/A_in.

    Returns (node_items, alias, a_out, a_in) where the adjacency entries are
    Fraction objects. node i -> j edge weight is the multiplicity of the
    i->j click transition divided by the total out-multiplicity of i.
    """
    node_items = []
    slot = {}
    for item in prefix:
        if item not in slot:
            slot[item] = len(node_items)
            node_items.append(item)
    alias = [slot[item] for item in prefix]
    n = len(node_items)
    counts = [[0] * n for _ in range(n)]
    for a, b in zip(alias, alias[1:]):
        counts[a][b] += 1
    a_out = [[Fraction(0)] * n for _ in range(n)]
    a_in = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        out_total = sum(counts[i])
        for j in range(n):
            if counts[i][j]:
                a_out[i][j] = Fraction(counts[i][j], out_total)
    for j in range(n):
        in_total = sum(counts[i][j] for i in range(n))
        for i in range(n):
            if counts[i][j]:
                # incoming edges of j, normalized over everything arriving at j
                a_in[j][i] = Fraction(counts[i][j], in_total)
    return node_items, alias, a_out, a_in


def ref_inter_graph(prefix, neighbor_sessions):
    """Undirected co-click graph over the prefix plus its neighbor sessions.

    Returns (node_items, adjacency, session_slots) with sorted adjacency
    lists that always contain the node itself.
    """
    node_items = []
    slot = {}

    def visit(item):
        if item not in slot:
            slot[item] = len(node_items)
            node_items.append(item)
        return slot[item]

    session_slots = [visit(item) for item in prefix]
    sequences = [list(prefix)] + [list(s) for s in neighbor_sessions]
    edges = set()
    for seq in sequences:
        for item in seq:
            visit(item)
        for a, b in zip(seq, seq[1:]):
            ia, ib = slot[a], slot[b]
            if ia != ib:
                edges.add((min(ia, ib), max(ia, ib)))
    n = len(node_items)
    adjacency = [{i} for i in range(n)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return node_items, [sorted(s) for s in adjacency], session_slots


# ---------------------------------------------------------------------------
# elementwise pieces


def ref_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_softmax(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max())
    return e / e.sum()


def ref_leaky(x, slope=0.2):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, x, slope * x)


# ---------------------------------------------------------------------------
# encoders


def ref_ggnn(a_out, a_in, rows, v, steps=1):
    """Gated propagation; ``v`` maps parameter names to arrays (intra.* keys).

    Stored weights multiply from the right (x @ w). ``intra.w_edge`` holds the
    outgoing projection in its first d columns and the incoming one after;
    each gate weight holds the message block (first 2d rows) above the
    state block (last d rows).
    """
    h = np.array(rows, dtype=np.float64)
    a_out = np.asarray(a_out, dtype=np.float64)
    a_in = np.asarray(a_in, dtype=np.float64)
    n, d = h.shape
    w_edge, b_edge = v["intra.w_edge"], v["intra.b_edge"]
    w_update, w_reset, w_cand = v["intra.w_update"], v["intra.w_reset"], v["intra.w_cand"]
    for _ in range(steps):
        msg_out = a_out @ (h @ w_edge[:, :d]) + b_edge[:d]
        msg_in = a_in @ (h @ w_edge[:, d:]) + b_edge[d:]
        nxt = np.empty_like(h)
        for i in range(n):
            a = np.concatenate([msg_out[i], msg_in[i]])
            z = ref_sigmoid(a @ w_update[: 2 * d] + h[i] @ w_update[2 * d :])
            r = ref_sigmoid(a @ w_reset[: 2 * d] + h[i] @ w_reset[2 * d :])
            cand = np.tanh(a @ w_cand[: 2 * d] + (r * h[i]) @ w_cand[2 * d :])
            nxt[i] = (1 - z) * h[i] + z * cand
        h = nxt
    return h


def ref_readout(rows, v, prefix_key, attention=True):
    """Attention-compressed session vector from per-click rows (m, d).

    ``w_key`` holds the last-click block (first d rows) above the row block;
    ``w_compress`` holds the last-click block above the global block.
    """
    rows = np.asarray(rows, dtype=np.float64)
    last = rows[-1]
    d = rows.shape[1]
    if attention:
        s_global = np.zeros(d)
        w_key = v[f"{prefix_key}.w_key"]
        for i in range(rows.shape[0]):
            key = ref_sigmoid(
                last @ w_key[:d] + rows[i] @ w_key[d:] + v[f"{prefix_key}.bias"]
            )
            s_global += (v[f"{prefix_key}.q"] @ key) * rows[i]
    else:
        s_global = rows.mean(axis=0)
    w_compress = v[f"{prefix_key}.w_compress"]
    return last @ w_compress[:d] + s_global @ w_compress[d:]


def ref_readout_alphas(rows, v, prefix_key):
    """Just the (unnormalized) attention weights of ref_readout."""
    rows = np.asarray(rows, dtype=np.float64)
    last = rows[-1]
    d = rows.shape[1]
    w_key = v[f"{prefix_key}.w_key"]
    return np.array(
        [
            v[f"{prefix_key}.q"]
            @ ref_sigmoid(last @ w_key[:d] + rows[i] @ w_key[d:] + v[f"{prefix_key}.bias"])
            for i in range(rows.shape[0])
        ]
    )


def ref_gat_layer(adjacency, h, head_params, average, slope=0.2, uniform=False):
    """One attention layer over explicit adjacency lists.

    ``head_params`` is a list of (w, attn) array pairs. Hidden layers sigmoid
    per head and concatenate; the final layer averages the per-head mixes and
    applies a single sigmoid.
    """
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    per_head = []
    for w, attn in head_params:
        d_out = w.shape[0]
        z = np.array([w @ h[i] for i in range(n)])
        a_self, a_peer = attn[:d_out], attn[d_out:]
        mixed = np.zeros((n, d_out))
        for i in range(n):
            nbrs = adjacency[i]
            if uniform:
                alpha = np.full(len(nbrs), 1.0 / len(nbrs))
            else:
                e = np.array(
                    [ref_leaky(a_self @ z[i] + a_peer @ z[j], slope) for j in nbrs]
                )
                alpha = ref_softmax(e)
            for weight, j in zip(alpha, nbrs):
                mixed[i] += weight * z[j]
        per_head.append(mixed)
    if not average:
        return np.concatenate([ref_sigmoid(m) for m in per_head], axis=1)
    return ref_sigmoid(sum(per_head) / len(per_head))


def ref_gat_alphas(adjacency, h, w, attn, slope=0.2):
    """Attention rows of a single head, as {node: {neighbor: weight}}."""
    h = np.asarray(h, dtype=np.float64)
    d_out = w.shape[0]
    z = np.array([w @ row for row in h])
    a_self, a_peer = attn[:d_out], attn[d_out:]
    out = {}
    for i, nbrs in enumerate(adjacency):
        e = np.array([ref_leaky(a_self @ z[i] + a_peer @ z[j], slope) for j in nbrs])
        alpha = ref_softmax(e)
        out[i] = dict(zip(nbrs, alpha))
    return out


def ref_head_params(v, layer, heads):
    """Split a layer's stacked tensors into per-head (w, attn) pairs.

    ``inter.layer{l}.w`` is (d_in, heads*d) with head k in columns
    k*d:(k+1)*d; ``inter.layer{l}.attn`` is (heads, 2d) with head k in row k.
    Each head's ``w`` is returned as (d, d_in), applied as ``w @ h[i]``.
    """
    w = v[f"inter.layer{layer}.w"]
    attn = v[f"inter.layer{layer}.attn"]
    d = w.shape[1] // heads
    return [(w[:, k * d : (k + 1) * d].T, attn[k]) for k in range(heads)]


def ref_inter_encode(adjacency, rows, v, heads, layers, slope=0.2, uniform=False):
    h = np.asarray(rows, dtype=np.float64)
    for layer in range(layers):
        head_params = ref_head_params(v, layer, heads)
        h = ref_gat_layer(
            adjacency, h, head_params, average=(layer == layers - 1),
            slope=slope, uniform=uniform,
        )
    return h


# ---------------------------------------------------------------------------
# heads and loss


def ref_fuse(s_intra, s_inter, v):
    """``fusion.w_gate`` holds the inter block (first d rows) above the intra block."""
    w_gate = v["fusion.w_gate"]
    d = len(s_inter)
    gate = ref_sigmoid(s_inter @ w_gate[:d] + s_intra @ w_gate[d:] + v["fusion.bias"])
    return gate * s_inter + (1 - gate) * s_intra


def ref_scores(s_h, embedding):
    return ref_softmax(np.asarray(embedding) @ s_h)


def ref_loss(yhat, target, form="binary_ce"):
    p = np.clip(np.asarray(yhat, dtype=np.float64), 1e-12, 1 - 1e-12)
    if form == "categorical_ce":
        return -math.log(p[target])
    total = 0.0
    for i, pi in enumerate(p):
        y = 1.0 if i == target else 0.0
        total -= y * math.log(pi) + (1 - y) * math.log(1 - pi)
    return total


def ref_forward(prefix, neighbor_sessions, v, dim, heads=8, layers=2,
                slope=0.2, variant="full"):
    """Full forward pass; ``v`` is a {param name: array} mapping.

    Returns (yhat, s_h) as plain arrays.
    """
    emb = v["embedding"]

    s_intra = None
    if variant != "inter_only":
        node_items, alias, a_out, a_in = ref_intra_graph(prefix)
        rows = emb[node_items]
        a_out_f = np.array([[float(x) for x in row] for row in a_out])
        a_in_f = np.array([[float(x) for x in row] for row in a_in])
        h = ref_ggnn(a_out_f, a_in_f, rows, v)
        s_intra = ref_readout(h[alias], v, "intra_readout")

    s_inter = None
    if variant != "intra_only":
        node_items, adjacency, slots = ref_inter_graph(prefix, neighbor_sessions)
        rows = emb[node_items]
        if variant == "avg_pool":
            s_inter = rows.mean(axis=0)
        else:
            h = ref_inter_encode(
                adjacency, rows, v, heads, layers, slope=slope,
                uniform=(variant == "mean_gat"),
            )
            s_inter = ref_readout(
                h[slots], v, "inter_readout", attention=(variant != "mean_readout")
            )

    if variant == "intra_only":
        s_h = s_intra
    elif variant == "inter_only":
        s_h = s_inter
    else:
        s_h = ref_fuse(s_intra, s_inter, v)
    return ref_scores(s_h, emb), s_h


# ---------------------------------------------------------------------------
# retrieval and metrics


def ref_neighbors(sessions, prefix, k=120, threshold=0.5, m=1000, now=None,
                  raw_length=False):
    """Top-k similar sessions by brute-force full scan.

    ``sessions`` is a list of (session_id, items, start_time) triples covering
    the searchable partition. Mirrors the retrieval contract: the m most
    recent item-sharing sessions become candidates, a similarity floor
    applies, ties break toward the newer session.
    """
    query = set(prefix)
    lq = len(prefix) if raw_length else len(query)
    eligible = []
    for sid, items, start in sessions:
        if now is not None and start >= now:
            continue
        if query & set(items):
            eligible.append((sid, items))
    eligible.sort(key=lambda t: -t[0])
    eligible = eligible[:m]
    scored = []
    for sid, items in eligible:
        ds = set(items)
        shared = len(query & ds)
        ls = len(items) if raw_length else len(ds)
        sim = shared / math.sqrt(lq * ls)
        if sim >= threshold:
            scored.append((sid, sim))
    scored.sort(key=lambda t: (-t[1], -t[0]))
    return scored[:k]


def ref_sknn_scores(neighbor_entries, session_items, n_items):
    """Item scores: sum of neighbor similarities over neighbors containing the item."""
    out = np.zeros(n_items)
    for sid, sim in neighbor_entries:
        for item in set(session_items[sid]):
            out[item] += sim
    return out


def ref_rank(scores, target):
    """1-based rank; ties resolved by ascending item index."""
    t = scores[target]
    rank = 1
    for i, s in enumerate(scores):
        if s > t or (s == t and i < target):
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# gradient-check point construction


def straddle_sign_pattern(adjacency):
    """A +-1 labelling of nodes where every closed neighborhood sees both signs.

    Finite-difference checking of the attention parameters needs every
    pre-softmax score row to cross the leaky_relu kink; a row whose scores all
    share one sign makes the self-attention weights' true gradient exactly
    zero (softmax shift invariance), which central differences at any step
    size report as pure noise. Exhaustive search is fine at oracle sizes.
    """
    n = len(adjacency)
    for bits in range(2 ** n):
        t = [1.0 if (bits >> i) & 1 else -1.0 for i in range(n)]
        if all(len({t[j] for j in adjacency[i]}) == 2 for i in range(n)):
            return np.array(t)
    raise ValueError("no mixed-sign labelling exists for this adjacency")


def plant_straddling_attention(values, adjacency, node_rows, heads, layers,
                               seed, pattern=None):
    """Overwrite the attention vectors in ``values`` so every score row mixes signs.

    For each head the peer weights are solved (least squares) to place peer
    scores exactly on the sign pattern at magnitude 1, and the self weights
    are rescaled so self scores stay within 0.25. Score rows then straddle
    the kink with margin >= 0.75, keeping every attention gradient finite-
    difference measurable. Layers are processed in order because each layer's
    input depends on the previous layer's planted weights.
    """
    if pattern is None:
        pattern = straddle_sign_pattern(adjacency)
    rng = np.random.default_rng(seed)
    h = np.asarray(node_rows, dtype=np.float64)
    n = h.shape[0]
    for layer in range(layers):
        attn = np.array(values[f"inter.layer{layer}.attn"], dtype=np.float64)
        for k, (w, _) in enumerate(ref_head_params(values, layer, heads)):
            z = h @ w.T
            a_peer, *_ = np.linalg.lstsq(z, pattern, rcond=None)
            a_self = rng.normal(0.0, 1.0, w.shape[0])
            span = np.abs(z @ a_self).max()
            a_self *= 0.25 / max(span, 1e-12)
            attn[k] = np.concatenate([a_self, a_peer])
        values[f"inter.layer{layer}.attn"] = attn
        h = ref_gat_layer(
            adjacency, h, ref_head_params(values, layer, heads),
            average=(layer == layers - 1),
        )
    return values
