"""The two-level session encoder.

One branch encodes the session's own transition graph with a gated graph
network and compresses it through soft attention over click positions. The
other branch encodes the session together with its retrieved neighbor sessions
through stacked multi-head graph attention layers and compresses it the same
way. A learned sigmoid gate blends the two session vectors, and the blend is
scored against every item embedding with a softmax.

All math runs on the gradkit tape, so one backward pass differentiates the
whole composite. Non-learned graph structure (adjacency, masks) enters as
constant tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from . import gradkit as gk
from .config import check_at_least, check_types, section_from_dict
from .corpus import Session
from .errors import ConfigError
from .gradkit import ParamSpec, ParamStore, Tensor
from .graphs import InterGraph, IntraGraph, build_inter_graph, build_intra_graph

VARIANTS = ("full", "intra_only", "inter_only", "avg_pool", "mean_gat", "mean_readout")
LOSS_FORMS = ("binary_ce", "categorical_ce")

PROB_CLAMP = 1e-12


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
    loss_form: str = "binary_ce"
    share_readout: bool = False
    separate_embeddings: bool = False

    def validate(self) -> None:
        check_types(self)
        check_at_least(self, 1, "vocab_size", "dim", "heads", "gat_layers", "ggnn_steps")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.loss_form not in LOSS_FORMS:
            raise ConfigError(f"unknown loss form {self.loss_form!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: object) -> "ModelConfig":
        """Build and validate from a JSON object; keys this version lacks are ignored."""
        if isinstance(doc, dict):
            known = {f.name for f in fields(cls)}
            doc = {k: v for k, v in doc.items() if k in known}
        return section_from_dict(cls, doc)


@dataclass
class IntraParams:
    """Gated graph network weights: edge projections plus GRU-style gates."""

    w_out: Tensor  # (d, d)   outgoing-edge projection
    w_in: Tensor   # (d, d)   incoming-edge projection
    b_out: Tensor  # (d,)
    b_in: Tensor   # (d,)
    w_update: Tensor  # (d, 2d)
    u_update: Tensor  # (d, d)
    w_reset: Tensor   # (d, 2d)
    u_reset: Tensor   # (d, d)
    w_cand: Tensor    # (d, 2d)
    u_cand: Tensor    # (d, d)


@dataclass
class ReadoutParams:
    """Soft-attention compression of a vector sequence to one session vector."""

    q: Tensor           # (d,)
    w_last: Tensor      # (d, d)
    w_node: Tensor      # (d, d)
    bias: Tensor        # (d,)
    w_compress: Tensor  # (d, 2d)


@dataclass
class GatLayer:
    """Every head of one attention layer, stacked.

    Head k owns rows k*d:(k+1)*d of ``w`` and row k of ``attn``, which holds
    its self half followed by its peer half.
    """

    w: Tensor     # (heads * d, d_in)
    attn: Tensor  # (heads, 2d)


@dataclass
class FusionParams:
    w_inter: Tensor  # (d, d)
    w_intra: Tensor  # (d, d)
    bias: Tensor     # (d,)


@dataclass
class ModelParams:
    """Named views over one ParamStore, wired per the model config."""

    store: ParamStore
    embedding: Tensor
    embedding_inter: Tensor
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
    specs = [ParamSpec("embedding", (config.vocab_size, d), "intra_shared")]
    if config.separate_embeddings:
        specs.append(ParamSpec("embedding_inter", (config.vocab_size, d), "inter"))
    specs += [
        ParamSpec("intra.w_out", (d, d), "intra_shared"),
        ParamSpec("intra.w_in", (d, d), "intra_shared"),
        ParamSpec("intra.b_out", (d,), "intra_shared"),
        ParamSpec("intra.b_in", (d,), "intra_shared"),
        ParamSpec("intra.w_update", (d, 2 * d), "intra_shared"),
        ParamSpec("intra.u_update", (d, d), "intra_shared"),
        ParamSpec("intra.w_reset", (d, 2 * d), "intra_shared"),
        ParamSpec("intra.u_reset", (d, d), "intra_shared"),
        ParamSpec("intra.w_cand", (d, 2 * d), "intra_shared"),
        ParamSpec("intra.u_cand", (d, d), "intra_shared"),
    ]
    specs += _readout_specs("intra_readout", d, "intra_shared")
    width = config.heads * d
    for layer in range(config.gat_layers):
        d_in = d if layer == 0 else width  # the previous layer's heads, concatenated
        specs.append(ParamSpec(f"inter.layer{layer}.w", (width, d_in), "inter"))
        specs.append(ParamSpec(f"inter.layer{layer}.attn", (config.heads, 2 * d), "inter"))
    if not config.share_readout:
        specs += _readout_specs("inter_readout", d, "inter")
    specs += [
        ParamSpec("fusion.w_inter", (d, d), "intra_shared"),
        ParamSpec("fusion.w_intra", (d, d), "intra_shared"),
        ParamSpec("fusion.bias", (d,), "intra_shared"),
    ]
    return specs


def _readout_specs(prefix: str, d: int, group: str) -> list[ParamSpec]:
    return [
        ParamSpec(f"{prefix}.q", (d,), group),
        ParamSpec(f"{prefix}.w_last", (d, d), group),
        ParamSpec(f"{prefix}.w_node", (d, d), group),
        ParamSpec(f"{prefix}.bias", (d,), group),
        ParamSpec(f"{prefix}.w_compress", (d, 2 * d), group),
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
    intra_readout = _view(ReadoutParams, store, "intra_readout")
    embedding = store["embedding"]
    return ModelParams(
        store=store,
        embedding=embedding,
        embedding_inter=store["embedding_inter"] if config.separate_embeddings else embedding,
        intra=_view(IntraParams, store, "intra"),
        intra_readout=intra_readout,
        inter_layers=[
            _view(GatLayer, store, f"inter.layer{layer}") for layer in range(config.gat_layers)
        ],
        inter_readout=(
            intra_readout if config.share_readout else _view(ReadoutParams, store, "inter_readout")
        ),
        fusion=_view(FusionParams, store, "fusion"),
    )


def build_params(config: ModelConfig, seed: int) -> ModelParams:
    """Initialize a fresh parameter set for the given architecture."""
    return bind_params(gk.init_params(param_specs(config), seed), config)


def ggnn_encode(
    graph: IntraGraph, rows: Tensor, p: IntraParams, steps: int = 1
) -> Tensor:
    """Run the gated update over a session's transition graph.

    ``rows`` holds one embedding per graph node, (n, d). Each step gathers
    messages along outgoing and incoming normalized adjacency, concatenates
    them, and blends the result into the node state with update/reset gates.
    """
    a_out = gk.Tensor(graph.a_out)
    a_in = gk.Tensor(graph.a_in)
    h = rows
    for _ in range(steps):
        msg_out = a_out @ (h @ p.w_out) + p.b_out        # (n, d)
        msg_in = a_in @ (h @ p.w_in) + p.b_in            # (n, d)
        a = gk.concat([msg_out, msg_in], axis=1)         # (n, 2d)
        z = gk.sigmoid(a @ gk.transpose(p.w_update) + h @ gk.transpose(p.u_update))
        r = gk.sigmoid(a @ gk.transpose(p.w_reset) + h @ gk.transpose(p.u_reset))
        cand = gk.tanh(a @ gk.transpose(p.w_cand) + (r * h) @ gk.transpose(p.u_cand))
        h = (1.0 - z) * h + z * cand
    return h


def session_readout(
    rows: Tensor, last_index: int, p: ReadoutParams, attention: bool = True
) -> Tensor:
    """Compress a sequence of vectors (m, d) into one session vector (d,).

    The attention weight of each row is q . sigmoid(W_last v_last + W_node v_i
    + bias), deliberately left unnormalized (no softmax over rows). With
    ``attention=False`` the weighted sum is replaced by the row mean.
    """
    s_last = gk.slice_rows(rows, [last_index])                        # (1, d)
    if attention:
        keys = gk.sigmoid(
            s_last @ gk.transpose(p.w_last) + rows @ gk.transpose(p.w_node) + p.bias
        )                                                             # (m, d)
        alpha = keys @ p.q                                            # (m,)
        s_global = alpha @ rows                                       # (d,)
    else:
        s_global = gk.mean(rows, axis=0)                              # (d,)
    d = rows.shape[1]
    both = gk.concat([gk.reshape(s_last, (d,)), s_global])            # (2d,)
    return p.w_compress @ both                                        # (d,)


def _masked_softmax_rows(e: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to mask entries.

    Non-edges are pushed to -1e30 before the exp, so they come out exactly
    zero. The row max is subtracted as a constant: a softmax is invariant to
    per-row shifts, so treating the shift as constant leaves the gradient
    exact while keeping the exp in range. Both go in as one constant tensor.
    """
    offset = (mask - 1.0) * 1e30
    shift = (e.values + offset).max(axis=-1, keepdims=True)
    weights = gk.exp(e + gk.Tensor(offset - shift))
    return weights / gk.sum(weights, axis=-1, keepdims=True)


def _stacked_alphas(mask: np.ndarray, wh: Tensor, attn: Tensor, slope: float) -> Tensor:
    """Attention of H heads at once: (H, N, d_out) nodes, (2H, d_out, 1) halves -> (H, N, N).

    ``attn`` interleaves the heads' self and peer halves: rows 2k and 2k+1
    belong to head k.
    """
    stack, n = wh.shape[0], wh.shape[1]
    a_self = gk.slice_rows(attn, np.arange(0, 2 * stack, 2))          # (H, d_out, 1)
    a_peer = gk.slice_rows(attn, np.arange(1, 2 * stack, 2))
    e = gk.leaky_relu(
        wh @ a_self + gk.reshape(wh @ a_peer, (stack, 1, n)), slope
    )                                                                 # (H, N, N)
    return _masked_softmax_rows(e, mask)


def gat_alphas(mask: np.ndarray, wh: Tensor, attn: Tensor, slope: float = 0.2) -> Tensor:
    """Attention rows of one head: a softmax over each node's masked neighborhood.

    ``wh`` is the head's projected node matrix (N, d_out) and ``attn`` holds
    the self and peer halves of the scoring vector concatenated. Every row of
    the result is a probability distribution over the node's neighbors (self
    loop included); non-edges come out exactly zero.
    """
    n, d_out = wh.shape
    alpha = _stacked_alphas(
        mask, gk.reshape(wh, (1, n, d_out)), gk.reshape(attn, (2, d_out, 1)), slope
    )
    return gk.reshape(alpha, (n, n))


def gat_layer(
    mask: np.ndarray,
    h: Tensor,
    layer: GatLayer,
    average: bool,
    slope: float = 0.2,
    uniform: bool = False,
) -> Tensor:
    """One multi-head graph attention layer over a dense 0/1 adjacency mask.

    Pairwise scores are leaky_relu(a . [W h_i || W h_j]), softmax-normalized
    over each node's neighborhood (self loop included). Hidden layers apply the
    sigmoid per head and concatenate (N, heads * d_out); the output layer
    averages the per-head aggregates first and applies one sigmoid (N, d_out).
    With ``uniform=True`` attention is fixed at 1/|neighborhood| (structure
    only, no learned scores).

    The heads are independent maps of the same input, so they run stacked
    over (H, N, .) tensors. The projection is one 2-D product against the
    stacked weights, whose gradient is a single GEMM with no permuted copy.
    """
    n = mask.shape[0]
    stack, d_out = layer.attn.shape[0], layer.attn.shape[1] // 2
    wh = gk.transpose(
        gk.reshape(h @ gk.transpose(layer.w), (n, stack, d_out)), (1, 0, 2)
    )                                                                 # (H, N, d_out)
    if uniform:
        alpha = gk.Tensor(mask / mask.sum(axis=1, keepdims=True))     # (N, N)
    else:
        attn = gk.reshape(layer.attn, (2 * stack, d_out, 1))
        alpha = _stacked_alphas(mask, wh, attn, slope)                # (H, N, N)
    aggregates = alpha @ wh                                           # (H, N, d_out)
    if average:
        return gk.sigmoid(gk.mean(aggregates, axis=0))                # (N, d_out)
    mixed = gk.transpose(gk.sigmoid(aggregates), (1, 0, 2))           # (N, H, d_out)
    return gk.reshape(mixed, (n, stack * d_out))


def inter_encode(
    graph: InterGraph, rows: Tensor, layers: Sequence[GatLayer],
    slope: float = 0.2, uniform: bool = False,
) -> Tensor:
    """Stack GAT layers over the neighbor graph; final layer head-averages to (N, d)."""
    mask = graph.mask()
    h = rows
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        h = gat_layer(mask, h, layer, average=(i == last), slope=slope, uniform=uniform)
    return h


def fuse(s_intra: Tensor, s_inter: Tensor, p: FusionParams) -> Tensor:
    """Sigmoid-gated blend; each output coordinate stays between its two inputs."""
    gate = gk.sigmoid(p.w_inter @ s_inter + p.w_intra @ s_intra + p.bias)  # (d,)
    return gate * s_inter + (1.0 - gate) * s_intra


def score_and_predict(s_h: Tensor, embedding: Tensor) -> Tensor:
    """Dot the session vector against every item embedding, softmax to probabilities."""
    return gk.softmax(embedding @ s_h, axis=-1)                       # (|I|,)


def loss(yhat: Tensor, target: int, form: str = "binary_ce") -> Tensor:
    """Training loss on the softmax output, target given as an item index.

    "binary_ce" sums a two-sided cross-entropy over every item (the literal
    objective this model trains with); "categorical_ce" is the standard
    -log(p_target). Probabilities are clamped to [1e-12, 1 - 1e-12] before
    any log.
    """
    n = yhat.shape[0]
    if not 0 <= target < n:
        raise ConfigError(f"target {target} out of range for {n} items")
    p = gk.clip(yhat, PROB_CLAMP, 1.0 - PROB_CLAMP)
    if form == "categorical_ce":
        return -gk.sum(gk.log(gk.slice_rows(p, [target])))
    if form != "binary_ce":
        raise ConfigError(f"unknown loss form {form!r}")
    onehot = np.zeros(n)
    onehot[target] = 1.0
    y = gk.Tensor(onehot)
    return -gk.sum(y * gk.log(p) + (1.0 - y) * gk.log(1.0 - p))


def forward(
    prefix: Sequence[int],
    neighbor_sessions: Sequence[Union[Session, Sequence[int]]],
    params: ModelParams,
    config: ModelConfig,
) -> tuple[Tensor, Tensor]:
    """Score a session prefix against the whole vocabulary.

    Returns (probabilities over items, blended session vector). The variant
    field controls ablations: "intra_only" ignores neighbors entirely,
    "inter_only" drops the transition branch, "avg_pool" replaces the neighbor
    encoder with a mean over all neighbor-graph embeddings, "mean_gat" fixes
    uniform attention inside the GAT, and "mean_readout" swaps the neighbor
    readout's weighted sum for a mean over click positions.
    """
    if not prefix:
        raise ConfigError("cannot score an empty prefix")
    variant = config.variant

    s_intra = None
    if variant != "inter_only":
        graph = build_intra_graph(prefix)
        rows = gk.slice_rows(params.embedding, graph.node_items)      # (n, d)
        h = ggnn_encode(graph, rows, params.intra, config.ggnn_steps)
        by_position = gk.slice_rows(h, graph.alias)                   # (|s|, d)
        s_intra = session_readout(
            by_position, len(graph.alias) - 1, params.intra_readout
        )

    s_inter = None
    if variant != "intra_only":
        graph = build_inter_graph(prefix, neighbor_sessions)
        rows = gk.slice_rows(params.embedding_inter, graph.node_items)  # (N, d)
        if variant == "avg_pool":
            s_inter = gk.mean(rows, axis=0)                           # (d,)
        else:
            h = inter_encode(
                graph,
                rows,
                params.inter_layers,
                slope=config.leaky_slope,
                uniform=(variant == "mean_gat"),
            )
            by_position = gk.slice_rows(h, graph.session_slots)       # (|s|, d)
            s_inter = session_readout(
                by_position,
                len(graph.session_slots) - 1,
                params.inter_readout,
                attention=(variant != "mean_readout"),
            )

    if variant == "intra_only":
        s_h = s_intra
    elif variant == "inter_only":
        s_h = s_inter
    else:
        s_h = fuse(s_intra, s_inter, params.fusion)
    return score_and_predict(s_h, params.embedding), s_h
