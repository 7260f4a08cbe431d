"""The two-level session encoder.

One branch encodes the session's own transition graph with a gated graph
network and compresses it through soft attention over click positions. The
other branch encodes the session together with its retrieved neighbor sessions
through stacked multi-head graph attention layers and compresses it the same
way. A learned sigmoid gate blends the two session vectors, and the blend is
scored against every item embedding with a softmax.

A mini-batch runs as one packed pass (``forward_batch``): each branch lays its
graphs end to end (:class:`~sessionrec.graphs.PackedGraphs`), every per-node
map runs once over all node rows, and every graph operation reads only its own
graph's rows: a gather, a segment sum, or an ``edge_sum`` whose dense blocks
hold zeros between graphs, so examples never mix. ``forward`` is a batch of
one. All math runs on the gradkit tape, so one backward pass differentiates
the whole composite; graph structure enters as constant index arrays and tensors.
Training scores ``encode_batch``'s session vectors with ``gk.score_loss``,
which records the softmax and the loss as one tape node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Collection, Optional, Sequence, Union

import numpy as np

from . import gradkit as gk
from .config import check_at_least, check_types, section_from_dict
from .errors import ConfigError
from .gradkit import ParamSpec, ParamStore, Tensor
from .graphs import PackedGraphs, pack_inter, pack_intra

VARIANTS = ("full", "intra_only", "inter_only", "avg_pool", "mean_gat", "mean_readout")


@dataclass
class ModelConfig:
    """Architecture knobs; defaults follow the reference configuration."""

    vocab_size: int
    dim: int = 100
    heads: int = 8
    gat_layers: int = 2
    ggnn_steps: int = 1
    variant: str = "full"
    leaky_slope: float = 0.2

    def validate(self) -> None:
        check_types(self)
        check_at_least(self, 1, "vocab_size", "dim", "heads", "gat_layers", "ggnn_steps")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if not math.isfinite(self.leaky_slope):
            raise ConfigError(f"leaky_slope must be finite, got {self.leaky_slope}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: object) -> "ModelConfig":
        """Build and validate from a JSON object; keys this version lacks are ignored."""
        if isinstance(doc, dict):
            known = {f.name for f in fields(cls)}
            doc = {k: v for k, v in doc.items() if k in known}
        return section_from_dict(cls, doc)


# Every weight but the embedding table is stored as it is multiplied, x @ w,
# one tensor per product; a weight applied to joined inputs [x | y] holds
# x's rows first.


@dataclass
class IntraParams:
    """Gated graph network weights: edge projections plus GRU-style gates."""

    w_edge: Tensor    # (d, 2d)  outgoing | incoming edge projections
    b_edge: Tensor    # (2d,)
    w_update: Tensor  # (3d, d)  applied to [a | h]
    w_reset: Tensor   # (3d, d)  applied to [a | h]
    w_cand: Tensor    # (3d, d)  applied to [a | r * h]


@dataclass
class ReadoutParams:
    """Soft-attention compression of a vector sequence to one session vector."""

    q: Tensor           # (d,)
    w_key: Tensor       # (2d, d)  applied to [v_last | v_i]
    bias: Tensor        # (d,)
    w_compress: Tensor  # (2d, d)  applied to [v_last | s_global]


@dataclass
class GatLayer:
    """Every head of one attention layer, stacked.

    Head k owns columns k*d:(k+1)*d of ``w`` and row k of ``attn``, which
    holds its self half followed by its peer half.
    """

    w: Tensor     # (d_in, heads * d)
    attn: Tensor  # (heads, 2d)


@dataclass
class FusionParams:
    w_gate: Tensor  # (2d, d)  applied to [s_inter | s_intra]
    bias: Tensor    # (d,)


@dataclass
class ModelParams:
    """Named views over one ParamStore."""

    store: ParamStore
    embedding: Tensor
    intra: IntraParams
    intra_readout: ReadoutParams
    inter_layers: list[GatLayer]
    inter_readout: ReadoutParams
    fusion: FusionParams


def param_specs(config: ModelConfig) -> list[ParamSpec]:
    """The full parameter inventory, in canonical initialization order.

    Everything feeding the intra branch, the fusion gate, and the shared
    embedding belongs to the "intra_shared" learning-rate group; the neighbor
    (graph attention) branch and its readout decay on the slower "inter"
    schedule.
    """
    config.validate()
    d = config.dim
    specs = [
        ParamSpec("embedding", (config.vocab_size, d), "intra_shared"),
        ParamSpec("intra.w_edge", (d, 2 * d), "intra_shared"),
        ParamSpec("intra.b_edge", (2 * d,), "intra_shared"),
        ParamSpec("intra.w_update", (3 * d, d), "intra_shared"),
        ParamSpec("intra.w_reset", (3 * d, d), "intra_shared"),
        ParamSpec("intra.w_cand", (3 * d, d), "intra_shared"),
    ]
    specs += _readout_specs("intra_readout", d, "intra_shared")
    width = config.heads * d
    for layer in range(config.gat_layers):
        d_in = d if layer == 0 else width  # the previous layer's heads, concatenated
        specs.append(ParamSpec(f"inter.layer{layer}.w", (d_in, width), "inter"))
        specs.append(ParamSpec(f"inter.layer{layer}.attn", (config.heads, 2 * d), "inter"))
    specs += _readout_specs("inter_readout", d, "inter")
    specs += [
        ParamSpec("fusion.w_gate", (2 * d, d), "intra_shared"),
        ParamSpec("fusion.bias", (d,), "intra_shared"),
    ]
    return specs


def _readout_specs(prefix: str, d: int, group: str) -> list[ParamSpec]:
    return [
        ParamSpec(f"{prefix}.q", (d,), group),
        ParamSpec(f"{prefix}.w_key", (2 * d, d), group),
        ParamSpec(f"{prefix}.bias", (d,), group),
        ParamSpec(f"{prefix}.w_compress", (2 * d, d), group),
    ]


def _view(cls: type, store: ParamStore, prefix: str):
    """A params dataclass whose field ``f`` is the stored tensor ``{prefix}.{f}``."""
    return cls(**{f.name: store[f"{prefix}.{f.name}"] for f in fields(cls)})


def bind_params(store: ParamStore, config: ModelConfig) -> ModelParams:
    """Wrap a store's tensors in the named views the encoders consume.

    The store must hold exactly the names, shapes and learning-rate groups
    ``param_specs(config)`` declares; the first mismatch raises ConfigError.
    """
    expected = {spec.name: (spec.shape, spec.group) for spec in param_specs(config)}
    found = {name: (tensor.shape, store.group(name)) for name, tensor in store.items()}
    for name in dict.fromkeys([*expected, *found]):
        if found.get(name) != expected.get(name):
            raise ConfigError(
                f"parameter {name} does not fit the model config: stored (shape, group) "
                f"{found.get(name, 'absent')}, expected {expected.get(name, 'absent')}"
            )
    return ModelParams(
        store=store,
        embedding=store["embedding"],
        intra=_view(IntraParams, store, "intra"),
        intra_readout=_view(ReadoutParams, store, "intra_readout"),
        inter_layers=[
            _view(GatLayer, store, f"inter.layer{layer}") for layer in range(config.gat_layers)
        ],
        inter_readout=_view(ReadoutParams, store, "inter_readout"),
        fusion=_view(FusionParams, store, "fusion"),
    )


def build_params(config: ModelConfig, seed: int) -> ModelParams:
    """Initialize a fresh parameter set for the given architecture."""
    return bind_params(gk.init_params(param_specs(config), seed), config)


def ggnn_encode(
    graph: PackedGraphs, rows: Tensor, p: IntraParams, steps: int = 1
) -> Tensor:
    """Run the gated update over packed transition graphs.

    ``rows`` holds one embedding per node row, (N, d). Each step projects
    every row through the outgoing and incoming edge weights at once, as
    two halves, and ``edge_sum`` multiplies each graph's a_out and a_in
    weights, as the dense blocks of its two heads, by those halves, so row i
    receives [a_out @ h W_out | a_in @ h W_in] of its own graph. The
    messages are blended into the node state with GRU-style update/reset
    gates, each one product of the joined row [a | h].
    """
    n, d = rows.shape
    scale = gk.Tensor(graph.weight[:, :, None])                          # (E, 2, 1)
    h = rows
    for _ in range(steps):
        sent = gk.edge_sum(gk.reshape(h @ p.w_edge, (n, 2, d)), scale, graph.src, graph.dst, n)
        a = gk.reshape(sent, (n, 2 * d)) + p.b_edge                      # (N, 2d)
        joined = gk.concat([a, h], axis=1)                               # (N, 3d)
        z = gk.sigmoid(joined @ p.w_update)
        r = gk.sigmoid(joined @ p.w_reset)
        cand = gk.tanh(gk.concat([a, r * h], axis=1) @ p.w_cand)
        h = h + z * (cand - h)
    return h


def _segment_mean(rows: Tensor, segments: np.ndarray, count: int) -> Tensor:
    sizes = np.bincount(segments, minlength=count)
    return gk.segment_sum(rows, segments, count) / gk.Tensor(sizes[:, None])


def session_readout(
    rows: Tensor,
    segments: np.ndarray,
    last: np.ndarray,
    p: ReadoutParams,
    attention: bool = True,
) -> Tensor:
    """Compress each example's click-position rows into one session vector, (B, d).

    ``rows`` (P, d) holds the examples' positions back to back, ``segments``
    names each row's example and ``last`` indexes each example's final row.
    The attention weight of row i is q . sigmoid([v_last | v_i] W_key
    + bias), deliberately left unnormalized (no softmax over rows). With
    ``attention=False`` the weighted sum is replaced by the row mean.
    """
    count = len(last)
    s_last = gk.slice_rows(rows, last)                                   # (B, d)
    if attention:
        pairs = gk.concat([gk.slice_rows(rows, last[segments]), rows], axis=1)  # (P, 2d)
        alpha = gk.sigmoid(pairs @ p.w_key + p.bias) @ p.q               # (P,)
        s_global = gk.segment_sum(rows * gk.reshape(alpha, (-1, 1)), segments, count)
    else:
        s_global = _segment_mean(rows, segments, count)                  # (B, d)
    return gk.concat([s_last, s_global], axis=1) @ p.w_compress


def _edge_logits(
    z: Tensor, attn: Tensor, src: np.ndarray, dst: np.ndarray, slope: float
) -> Tensor:
    """leaky_relu(a_self . z[dst] + a_peer . z[src]) per edge and head, (E, H, 1).

    ``z`` is (N, H, d_out) and ``attn`` (H, 2 d_out). One batched product
    scores every node against both halves of its head's vector.
    """
    n, heads, d_out = z.shape
    halves = gk.reshape(attn, (heads, 2, d_out)) @ gk.transpose(z, (1, 2, 0))  # (H, 2, N)
    return _scored_edges(gk.transpose(halves, (2, 1, 0)), src, dst, slope)


def _folded_logits(
    h: Tensor, w: Tensor, attn: Tensor, src: np.ndarray, dst: np.ndarray, slope: float
) -> Tensor:
    """:func:`_edge_logits` of z_h = h W_h without forming z: a . (h W_h) = h . (W_h a).

    ``h`` is (N, d_in) and ``w`` the (H, d_in, d_out) view of a layer's
    weight. One (H, d_in, 2) fold of the weight and both halves of every
    head's attention vector scores every row with one (N, d_in) @ (d_in, 2H)
    product.
    """
    n, d_in = h.shape
    heads, _, d_out = w.shape
    halves = gk.transpose(gk.reshape(attn, (heads, 2, d_out)), (0, 2, 1))       # (H, d_out, 2)
    fold = gk.reshape(gk.transpose(w @ halves, (1, 2, 0)), (d_in, 2 * heads))  # (d_in, 2H)
    return _scored_edges(gk.reshape(h @ fold, (n, 2, heads)), src, dst, slope)


def _scored_edges(scores: Tensor, src: np.ndarray, dst: np.ndarray, slope: float) -> Tensor:
    """leaky_relu(self score of dst + peer score of src) per edge and head, (E, H, 1).

    ``scores`` is (N, 2, H): each node's self and peer score under every
    head. The self score of node i lands in row 2i and the peer score in row
    2i + 1.
    """
    n, _, heads = scores.shape
    flat = gk.reshape(scores, (2 * n, heads, 1))
    e = gk.slice_rows(flat, 2 * dst) + gk.slice_rows(flat, 2 * src + 1)
    return gk.leaky_relu(e, slope)


def _edge_softmax_parts(e: Tensor, dst: np.ndarray, n: int) -> tuple[Tensor, Tensor]:
    """exp(e) over each destination's edges and its sum per destination.

    ``dst`` must ascend. Each segment's max is subtracted as a constant: a
    softmax is invariant to per-segment shifts, so the gradient stays exact
    while the exp stays in range.
    """
    first = np.concatenate(([True], dst[1:] != dst[:-1]))
    peaks = np.maximum.reduceat(e.values, first.nonzero()[0], axis=0)
    weights = gk.exp(e - gk.Tensor(peaks[np.cumsum(first) - 1]))
    return weights, gk.segment_sum(weights, dst, n)


# The output layer's aggregate-then-project order skips projecting every row it
# reads through the (d_in, H d_out) weight, but reads that weight a second time
# (the logit fold) and records about ten more tape nodes. REORDER_ROWS is that
# fixed cost in rows of the projection it skips. Measured on one thread of a
# 2-vCPU host, the output layer of 600 seed-1 bench serve requests (d=100, 8
# heads, d_in=800, mostly 1-3 targets), each order timed per request, min of 3:
# - aggregating first loses 0.21, 0.10 and 0.01 ms a request for R in [0, 10),
#   [10, 15) and [15, 20) read rows, and saves 0.12, 0.29-0.36, 0.86 and
#   1.61 ms for R in [20, 25), [25, 40), [40, 80) and 80+;
# - over all 600: 910 ms projecting first, 648 ms aggregating first, 606 ms by
#   this rule and 603 ms taking the faster order of each request; the rule's
#   total reads 604-607 ms for any REORDER_ROWS from 10 to 18.
REORDER_ROWS = 16


def _aggregate_first(rows: int, targets: int, edges: int, heads: int, d_in: int, d_out: int) -> bool:
    """Whether the head-averaging layer costs fewer multiply-adds aggregating first.

    Projecting first multiplies ``rows`` input rows by the (d_in, H d_out)
    weight and aggregates at width d_out; aggregating first multiplies the
    ``targets`` aggregates by it, plus REORDER_ROWS rows of fixed cost, and
    aggregates at width d_in. Shapes alone decide: the two orders compute
    the same values up to rounding.
    """
    weight = d_in * heads * d_out
    project_first = rows * weight + edges * heads * d_out
    aggregate_first = (targets + REORDER_ROWS) * weight + edges * heads * d_in
    return aggregate_first < project_first


def gat_layer(
    graph: PackedGraphs,
    h: Tensor,
    layer: GatLayer,
    average: bool,
    slope: float = 0.2,
    uniform: bool = False,
    targets: Optional[np.ndarray] = None,
) -> Tensor:
    """One multi-head graph attention layer over a packed edge list.

    Edge scores are leaky_relu(a . [W h_i || W h_j]), softmax-normalized over
    each node's neighborhood (self loop included). Hidden layers apply the
    sigmoid per head and concatenate (N, heads * d_out); the output layer
    averages the per-head aggregates first and applies one sigmoid (N, d_out).
    With ``uniform=True`` attention is fixed at 1/|neighborhood| (structure
    only, no learned scores).

    All heads share one projection GEMM; ``edge_sum`` scatters the
    normalized attention into dense (heads, rows, columns) blocks, one or
    more graphs each, and multiplies them by the source projections.
    With ``targets`` (ascending node rows) only the edges into them run, only
    the rows those edges read are used, and each target gets its row of
    the full layer: the same edges in the same order.

    The output layer is linear in its input up to the sigmoid, so when it
    reads many more rows than it writes (:func:`_aggregate_first`) it runs
    in the other order: the logits are h . (W_h a_h), one (H, d_in, 2) fold
    of the weight and the attention vectors; ``edge_sum`` aggregates the
    input rows that every head shares; and one batched product projects the
    (H, targets, d_in) aggregates through the (H, d_in, d_out) view of the
    stored weight, which needs no copy.
    """
    src, dst, out, n = graph.src, graph.dst, graph.dst, h.shape[0]  # out: each edge's result row
    if targets is not None:
        kept = np.isin(dst, targets)
        read = np.unique(src[kept])  # the self loops put every target among them
        h = gk.slice_rows(h, read)
        src, dst = np.searchsorted(read, src[kept]), np.searchsorted(read, dst[kept])
        out, n = np.searchsorted(targets, graph.dst[kept]), len(targets)
    (rows, d_in), heads, d_out = h.shape, layer.attn.shape[0], layer.attn.shape[1] // 2
    reorder = average and _aggregate_first(rows, n, len(out), heads, d_in, d_out)
    if reorder:
        w = gk.transpose(gk.reshape(layer.w, (d_in, heads, d_out)), (1, 0, 2))  # (H, d_in, d_out)
        x = h                                                            # (rows, d_in), shared
    else:
        x = gk.reshape(h @ layer.w, (rows, heads, d_out))                # (rows, H, d_out)
    if uniform:
        degree = np.bincount(out, minlength=n)[out, None, None]
        alpha = gk.Tensor(np.ones((len(out), heads, 1)) / degree)
    else:
        e = (_folded_logits(h, w, layer.attn, src, dst, slope) if reorder
             else _edge_logits(x, layer.attn, src, dst, slope))
        weights, totals = _edge_softmax_parts(e, out, n)
        alpha = weights / gk.slice_rows(totals, out)                     # (E, H, 1)
    aggregates = gk.edge_sum(x, alpha, src, out, n)                      # (n, H, d_in or d_out)
    if reorder:  # (H, n, d_in) @ (H, d_in, d_out), averaged over the heads
        return gk.sigmoid(gk.mean(gk.transpose(aggregates, (1, 0, 2)) @ w, axis=0))
    if average:
        return gk.sigmoid(gk.mean(aggregates, axis=1))                   # (n, d_out)
    return gk.reshape(gk.sigmoid(aggregates), (n, heads * d_out))


def inter_encode(
    graph: PackedGraphs, rows: Tensor, layers: Sequence[GatLayer],
    slope: float = 0.2, uniform: bool = False, targets: Optional[np.ndarray] = None,
) -> Tensor:
    """Stack GAT layers over packed neighbor graphs; the last head-averages, at ``targets`` only."""
    h = rows
    for i, layer in enumerate(layers):
        last = i == len(layers) - 1
        h = gat_layer(graph, h, layer, last, slope, uniform, targets if last else None)
    return h


def fuse(s_intra: Tensor, s_inter: Tensor, p: FusionParams) -> Tensor:
    """Sigmoid-gated blend of two (B, d) blocks of session vectors.

    Each output coordinate stays between its two inputs.
    """
    gate = gk.sigmoid(gk.concat([s_inter, s_intra], axis=-1) @ p.w_gate + p.bias)
    return s_intra + gate * (s_inter - s_intra)


def score_and_predict(s_h: Tensor, embedding: Tensor) -> Tensor:
    """Dot (B, d) session vectors against every item embedding; softmax per row."""
    return gk.softmax(s_h @ gk.transpose(embedding), axis=-1)            # (B, |I|)


def _flat(t: Tensor) -> Tensor:
    return t if t.ndim == 1 else gk.reshape(t, (t.size,))


def loss(yhat: Tensor, target: Union[int, Sequence[int]]) -> Tensor:
    """Training loss on the softmax output, targets given as item indices.

    ``yhat`` is one row (V,) with one target, or a (B, V) block with one
    target per row, whose row losses are summed. Each row's loss is a
    two-sided cross-entropy summed over every item, the objective this model
    trains with. Probabilities are clamped to [1e-12, 1 - 1e-12] before any
    log. The target entries are gathered, so no one-hot block is built:
    -sum_i [y_i log p_i + (1 - y_i) log(1 - p_i)]
    = sum_t [log(1 - p_t) - log p_t] - sum_i log(1 - p_i).
    Targets that are not integers in [0, V), one per row, raise ConfigError.
    Training takes the same value and gradients from ``gk.score_loss`` as
    one tape node.
    """
    n = yhat.shape[-1]
    rows = yhat.shape[0] if yhat.ndim == 2 else 1
    flat = np.arange(rows) * n + gk.item_targets(target, rows, n)
    p = gk.clip(yhat, gk.PROB_CLAMP, 1.0 - gk.PROB_CLAMP)
    p_target = gk.slice_rows(_flat(p), flat)
    log_miss = gk.log(1.0 - p)
    return gk.sum(gk.slice_rows(_flat(log_miss), flat) - gk.log(p_target)) - gk.sum(log_miss)


def encode_batch(
    prefixes: Sequence[Sequence[int]],
    neighbor_lists: Sequence[Sequence[Collection[int]]],
    params: ModelParams,
    config: ModelConfig,
) -> Tensor:
    """Encode B session prefixes, each with its neighbor sessions, in one packed pass.

    Returns the blended session vectors (B, d). Each branch builds its B
    graphs end to end and runs its encoder and readout over the whole block;
    rows of different examples never mix, so row b equals a batch of one over
    example b. The variant field controls ablations: "intra_only" ignores neighbors
    entirely, "inter_only" drops the transition branch, "avg_pool" replaces
    the neighbor encoder with a mean over all neighbor-graph embeddings,
    "mean_gat" fixes uniform attention inside the GAT, and "mean_readout"
    swaps the neighbor readout's weighted sum for a mean over click positions.
    """
    if not prefixes or len(prefixes) != len(neighbor_lists):
        raise ConfigError(
            f"need one neighbor list per prefix, got {len(prefixes)} prefixes "
            f"and {len(neighbor_lists)} neighbor lists"
        )
    if not all(prefixes):
        raise ConfigError("cannot score an empty prefix")
    variant = config.variant
    count = len(prefixes)
    intra = None if variant == "inter_only" else pack_intra(prefixes)
    inter = None if variant == "intra_only" else pack_inter(prefixes, neighbor_lists)
    # both graphs number a prefix's items first, in the same order: the intra rows are the
    # inter rows its clicks name, so one gather of the embedding table feeds both branches
    # and backward scatters one dense (V, d) gradient
    rows_inter = None if inter is None else gk.slice_rows(params.embedding, inter.node_items)
    prefix_rows = None if inter is None else np.unique(inter.positions)

    s_intra = None
    if intra is not None:
        rows = (gk.slice_rows(params.embedding, intra.node_items) if inter is None
                else gk.slice_rows(rows_inter, prefix_rows))
        h = ggnn_encode(intra, rows, params.intra, config.ggnn_steps)
        s_intra = session_readout(
            gk.slice_rows(h, intra.positions), intra.position_graph, intra.last,
            params.intra_readout,
        )

    s_inter = None
    if inter is not None:
        if variant == "avg_pool":
            s_inter = _segment_mean(rows_inter, inter.node_graph, count)
        else:
            h = inter_encode(  # at the only rows the readout reads
                inter, rows_inter, params.inter_layers, slope=config.leaky_slope,
                uniform=(variant == "mean_gat"), targets=prefix_rows,
            )
            s_inter = session_readout(
                gk.slice_rows(h, np.searchsorted(prefix_rows, inter.positions)),
                inter.position_graph, inter.last, params.inter_readout,
                attention=(variant != "mean_readout"),
            )

    if variant == "intra_only":
        s_h = s_intra
    elif variant == "inter_only":
        s_h = s_inter
    else:
        s_h = fuse(s_intra, s_inter, params.fusion)
    return s_h


def forward_batch(
    prefixes: Sequence[Sequence[int]],
    neighbor_lists: Sequence[Sequence[Collection[int]]],
    params: ModelParams,
    config: ModelConfig,
) -> tuple[Tensor, Tensor]:
    """Score B session prefixes against every item: ``encode_batch``, then the softmax.

    Returns (probabilities (B, |I|), blended session vectors (B, d)).
    """
    s_h = encode_batch(prefixes, neighbor_lists, params, config)
    return score_and_predict(s_h, params.embedding), s_h


def forward(
    prefix: Sequence[int],
    neighbor_sessions: Sequence[Collection[int]],
    params: ModelParams,
    config: ModelConfig,
) -> tuple[Tensor, Tensor]:
    """Score one session prefix against the whole vocabulary: a batch of one.

    Returns (probabilities over items (|I|,), blended session vector (d,)).
    """
    yhat, s_h = forward_batch([prefix], [neighbor_sessions], params, config)
    return gk.reshape(yhat, (yhat.size,)), gk.reshape(s_h, (s_h.size,))
