"""Encoder math against an independent straight-line reimplementation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_model import (
    ref_fuse,
    ref_forward,
    ref_gat_alphas,
    ref_gat_layer,
    ref_ggnn,
    ref_inter_encode,
    ref_inter_graph,
    ref_intra_graph,
    ref_loss,
    ref_readout,
    ref_readout_alphas,
    ref_scores,
)
from sessionrec import gradkit as gk
from sessionrec import graphs, model
from sessionrec.errors import ConfigError, GraphError, NumericsError, ShapeError
from sessionrec.gradkit import tensor as tensor_module
from sessionrec.graphs import pack_inter, pack_intra
from sessionrec.model import (
    GatLayer,
    ModelConfig,
    build_params,
    encode_batch,
    forward,
    forward_batch,
    fuse,
    gat_layer,
    ggnn_encode,
    inter_encode,
    loss,
    param_specs,
    score_and_predict,
    session_readout,
)

RNG = np.random.default_rng(777)


def small_config(**overrides):
    base = dict(vocab_size=12, dim=6, heads=3, gat_layers=2)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    for bad in [
        dict(vocab_size=0),
        dict(dim=0),
        dict(heads=0),
        dict(gat_layers=0),
        dict(ggnn_steps=0),
        dict(variant="bogus"),
        dict(leaky_slope=float("nan")),
        dict(leaky_slope=float("inf")),
        dict(leaky_slope=-float("inf")),
    ]:
        with pytest.raises(ConfigError):
            small_config(**bad).validate()
    for slope in [0.0, -0.5, 1.5, 3]:  # leaky_relu takes any finite slope
        small_config(leaky_slope=slope).validate()


def test_config_dict_roundtrip_ignores_unknown_keys():
    cfg = small_config(variant="avg_pool")
    doc = cfg.to_dict()
    doc["leftover"] = "ignored"
    assert ModelConfig.from_dict(doc) == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"vocab_size": 3, "heads": -1})


def test_param_inventory_shapes_and_groups():
    cfg = small_config()
    specs = {s.name: s for s in param_specs(cfg)}
    d = cfg.dim
    assert len(specs) == 20
    assert specs["embedding"].shape == (12, d)
    assert specs["intra.w_edge"].shape == (d, 2 * d)
    assert specs["intra.b_edge"].shape == (2 * d,)
    assert specs["intra.w_update"].shape == (3 * d, d)
    assert specs["intra_readout.w_key"].shape == (2 * d, d)
    assert specs["inter_readout.w_compress"].shape == (2 * d, d)
    assert specs["inter.layer0.w"].shape == (d, cfg.heads * d)
    assert specs["inter.layer1.w"].shape == (cfg.heads * d, cfg.heads * d)
    assert specs["inter.layer1.attn"].shape == (cfg.heads, 2 * d)
    assert specs["fusion.w_gate"].shape == (2 * d, d)
    assert specs["fusion.bias"].shape == (d,)
    for name, s in specs.items():
        expected = "inter" if name.startswith(("inter.", "inter_readout.")) else "intra_shared"
        assert s.group == expected, name


# ---------------------------------------------------------------------------
# encoder pieces, each against the reference route


def test_ggnn_matches_reference():
    cfg = small_config()
    params = build_params(cfg, seed=11)
    v = params.store.values()
    prefix = [0, 1, 2, 1, 0, 3]
    node_items, _, a_out, a_in = ref_intra_graph(prefix)
    a_out, a_in = (np.array([[float(x) for x in row] for row in m]) for m in (a_out, a_in))
    rows = RNG.normal(0.0, 1.0, (len(node_items), cfg.dim))
    packed = pack_intra([prefix])
    for steps in (1, 3):
        mine = ggnn_encode(packed, gk.Tensor(rows), params.intra, steps).values
        ref = ref_ggnn(a_out, a_in, rows, v, steps)
        assert np.allclose(mine, ref, atol=1e-10)


def test_readout_matches_reference_and_is_unnormalized():
    cfg = small_config()
    params = build_params(cfg, seed=12)
    v = params.store.values()
    rows = RNG.normal(0.0, 1.0, (5, cfg.dim))
    one_example, last = np.zeros(5, dtype=int), np.array([4])
    mine = session_readout(gk.Tensor(rows), one_example, last, params.intra_readout).values[0]
    assert np.allclose(mine, ref_readout(rows, v, "intra_readout"), atol=1e-10)

    # the attention weights are scores, not a distribution
    alphas = ref_readout_alphas(rows, v, "intra_readout")
    assert abs(alphas.sum() - 1.0) > 1e-3

    mean_mine = session_readout(
        gk.Tensor(rows), one_example, last, params.intra_readout, attention=False
    ).values[0]
    assert np.allclose(
        mean_mine, ref_readout(rows, v, "intra_readout", attention=False), atol=1e-10
    )


def gat_fixture(n_heads=3, d=6, width=None):
    """The package's inter graph of one session, the reference's adjacency of it, and weights."""
    prefix, neighbor_sessions = [0, 1, 2], [[2, 3, 4], [4, 5]]
    graph = pack_inter([prefix], [neighbor_sessions])
    _, adjacency, _ = ref_inter_graph(prefix, neighbor_sessions)
    n = len(adjacency)
    width = width or d
    h = RNG.normal(0.0, 1.0, (n, width))
    heads = []
    for _ in range(n_heads):
        w = RNG.normal(0.0, 0.5, (d, width))
        attn = RNG.normal(0.0, 0.5, 2 * d)
        heads.append((w, attn))
    return graph, adjacency, h, heads


def stacked_layer(heads):
    """Per-head (w, attn) pairs stacked into one layer, head k in column block k."""
    return GatLayer(
        w=gk.Tensor(np.concatenate([w.T for w, _ in heads], axis=1)),
        attn=gk.Tensor(np.stack([a for _, a in heads])),
    )


def test_gat_layer_matches_reference():
    graph, adjacency, h, heads = gat_fixture()
    native_layer = stacked_layer(heads)
    for average in (False, True):
        mine = gat_layer(graph, gk.Tensor(h), native_layer, average=average).values
        ref = ref_gat_layer(adjacency, h, heads, average=average)
        assert mine.shape == ref.shape
        assert np.allclose(mine, ref, atol=1e-10)


def test_gat_layer_uniform_attention_matches_reference():
    graph, adjacency, h, heads = gat_fixture()
    native_layer = stacked_layer(heads)
    mine = gat_layer(graph, gk.Tensor(h), native_layer, average=True, uniform=True).values
    ref = ref_gat_layer(adjacency, h, heads, average=True, uniform=True)
    assert np.allclose(mine, ref, atol=1e-10)


def test_gat_attention_rows_are_distributions():
    _, adjacency, h, heads = gat_fixture()
    w, attn = heads[0]
    rows = ref_gat_alphas(adjacency, h, w, attn)
    for i, row in rows.items():
        weights = np.array(list(row.values()))
        assert abs(weights.sum() - 1.0) < 1e-9
        assert ((weights > 0) & (weights < 1)).all()
        assert set(row) == set(adjacency[i])


def test_stacked_gat_matches_reference():
    cfg = small_config()
    params = build_params(cfg, seed=13)
    v = params.store.values()
    prefix, neighbor_sessions = [0, 1, 2], [[2, 3, 4], [4, 5]]
    node_items, adjacency, _ = ref_inter_graph(prefix, neighbor_sessions)
    rows = RNG.normal(0.0, 1.0, (len(node_items), cfg.dim))
    packed = pack_inter([prefix], [neighbor_sessions])
    mine = inter_encode(packed, gk.Tensor(rows), params.inter_layers).values
    ref = ref_inter_encode(adjacency, rows, v, cfg.heads, cfg.gat_layers)
    assert np.allclose(mine, ref, atol=1e-10)


def test_gat_layer_at_targets_returns_the_full_layers_rows():
    """Run only at some rows of a packed batch, a layer returns those rows of the full layer.

    The gradients of the layer's input and weights agree with the full
    layer's under a loss that reads only the target rows.
    """
    rng = np.random.default_rng(41)
    examples = [([0, 1, 2], [[2, 3, 4], [4, 5]]), ([5, 5, 1], []), ([3], [[3, 0], [1, 2, 6]])]
    packed = pack_inter(*zip(*examples))
    adjacency: list = []
    for prefix, nbrs in examples:
        shift = len(adjacency)
        adjacency += [[shift + j for j in row] for row in ref_inter_graph(prefix, nbrs)[1]]
    n, d, width = len(adjacency), 4, 5
    per_head = [(rng.normal(0.0, 0.5, (d, width)), rng.normal(0.0, 0.5, 2 * d)) for _ in range(3)]
    layer = stacked_layer(per_head)
    h = gk.Tensor(rng.normal(0.0, 1.0, (n, width)))
    for average, uniform in [(True, False), (False, False), (True, True)]:
        full = gat_layer(packed, h, layer, average=average, uniform=uniform)
        ref = ref_gat_layer(adjacency, h.values, per_head, average=average, uniform=uniform)
        for _ in range(4):
            targets = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            mine = gat_layer(packed, h, layer, average=average, uniform=uniform, targets=targets)
            assert mine.shape == (len(targets),) + full.shape[1:]
            assert np.allclose(mine.values, full.values[targets], rtol=0, atol=1e-12)
            assert np.allclose(mine.values, ref[targets], rtol=0, atol=1e-10)
            probe = rng.normal(0.0, 1.0, mine.shape)
            spread = np.zeros(full.shape)
            spread[targets] = probe
            grads = gk.backward(gk.sum(mine * gk.Tensor(probe)), wrt=[h, layer.w, layer.attn])
            full_grads = gk.backward(gk.sum(full * gk.Tensor(spread)), wrt=[h, layer.w, layer.attn])
            for a, b in zip(grads, full_grads):
                assert np.allclose(a, b, rtol=0, atol=1e-12)


def _star_batch():
    """A packed batch whose prefixes read many more rows than they hold.

    The first prefix's items sit in 30 neighbour sessions, each with items of
    its own; the second prefix has no neighbours.
    """
    nbrs = [[i % 2, 10 + 2 * i, 11 + 2 * i] for i in range(30)]
    return pack_inter([[0, 1], [5, 6, 5]], [nbrs, []])


@pytest.mark.parametrize("uniform", [False, True], ids=["attention", "uniform"])
@pytest.mark.parametrize("reads", ["many-rows", "few-rows"])
@pytest.mark.parametrize("aggregate_first", [False, True], ids=["project-first", "aggregate-first"])
def test_output_gat_layer_orders_match_the_full_layer(aggregate_first, reads, uniform, monkeypatch):
    """Either order of the head-averaging layer at targets gives the full
    layer's rows and gradients, and the reference's rows."""
    rng = np.random.default_rng(44)
    packed = _star_batch()
    n, heads, d, d_in = len(packed.node_items), 3, 4, 10
    adjacency = packed.adjacency
    per_head = [(rng.normal(0.0, 0.5, (d, d_in)), rng.normal(0.0, 0.5, 2 * d)) for _ in range(heads)]
    layer = stacked_layer(per_head)
    h = gk.Tensor(rng.normal(0.0, 1.0, (n, d_in)))
    full = gat_layer(packed, h, layer, average=True, uniform=uniform)
    ref = ref_gat_layer(adjacency, h.values, per_head, average=True, uniform=uniform)
    if reads == "many-rows":  # the positions: 4 rows that read 34
        targets = np.unique(packed.positions)
    else:  # every row but a few, which read every row
        targets = np.setdiff1d(np.arange(n), [3, 8, 20])
    monkeypatch.setattr(model, "_aggregate_first", lambda *shape: aggregate_first)
    mine = gat_layer(packed, h, layer, average=True, uniform=uniform, targets=targets)
    assert np.allclose(mine.values, full.values[targets], rtol=0, atol=1e-12)
    assert np.allclose(mine.values, ref[targets], rtol=0, atol=1e-12)
    probe = rng.normal(0.0, 1.0, mine.shape)
    spread = np.zeros(full.shape)
    spread[targets] = probe
    grads = gk.backward(gk.sum(mine * gk.Tensor(probe)), wrt=[h, layer.w, layer.attn])
    full_grads = gk.backward(gk.sum(full * gk.Tensor(spread)), wrt=[h, layer.w, layer.attn])
    for a, b in zip(grads, full_grads):
        assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_output_gat_layer_reading_many_rows_projects_only_its_targets(monkeypatch):
    """Where the targets read many more rows than they are, no (rows, H d)
    projection is recorded: the layer aggregates its input, then projects."""
    rng = np.random.default_rng(45)
    packed = _star_batch()
    targets = np.unique(packed.positions)
    n, heads, d, d_in = len(packed.node_items), 4, 8, 20
    layer = GatLayer(
        w=gk.Tensor(rng.normal(0.0, 0.3, (d_in, heads * d))),
        attn=gk.Tensor(rng.normal(0.0, 0.3, (heads, 2 * d))),
    )
    h = gk.Tensor(rng.normal(0.0, 1.0, (n, d_in)))
    kept = np.isin(packed.dst, targets)
    rows = len(np.unique(packed.src[kept]))
    assert rows > 8 * len(targets)
    projected = {(rows, heads * d), (rows, heads, d), (heads, rows, d)}

    def shapes():
        out = gat_layer(packed, h, layer, average=True, targets=targets)
        return {node.shape for node in gk.tape(out)}

    assert not projected & shapes()
    monkeypatch.setattr(model, "_aggregate_first", lambda *shape: False)
    assert projected & shapes()  # the fixture tells the two orders apart


def test_gat_layer_on_one_large_connected_graph_stays_within_memory():
    """A prefix whose 120 neighbour sessions of 26 clicks each join it: one
    connected inter graph of 3,003 nodes. A dense attention block over it would
    hold 8 x 3,003^2 doubles (577 MB) and an (E, heads, d) edge block 58 MB."""
    rng = np.random.default_rng(43)
    nbrs = [[i % 3, *range(3 + 25 * i, 28 + 25 * i)] for i in range(120)]
    graph = pack_inter([[0, 1, 2]], [nbrs])
    n, heads, d = len(graph.node_items), 8, 100
    assert n == 3003
    layer = GatLayer(
        w=gk.Tensor(rng.normal(0.0, 0.1, (d, heads * d))),
        attn=gk.Tensor(rng.normal(0.0, 0.1, (heads, 2 * d))),
    )
    rows = gk.Tensor(rng.normal(0.0, 1.0, (n, d)))
    tracemalloc.start()
    try:
        out = gat_layer(graph, rows, layer, average=True)
        grads = gk.backward(gk.sum(out), wrt=[rows, layer.w, layer.attn])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, d) and all(np.isfinite(g).all() for g in grads)
    assert peak < 100 * 2**20


def test_fuse_matches_reference_and_interpolates():
    cfg = small_config()
    params = build_params(cfg, seed=14)
    v = params.store.values()
    a = RNG.normal(0.0, 1.0, cfg.dim)
    b = RNG.normal(0.0, 1.0, cfg.dim)
    mine = fuse(gk.Tensor(a[None]), gk.Tensor(b[None]), params.fusion).values[0]  # one (1, d) row
    assert np.allclose(mine, ref_fuse(a, b, v), atol=1e-12)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    assert (mine >= lo - 1e-12).all() and (mine <= hi + 1e-12).all()


def test_scores_and_losses_match_reference():
    emb = RNG.normal(0.0, 1.0, (7, 4))
    s_h = RNG.normal(0.0, 1.0, 4)
    yhat = score_and_predict(gk.Tensor(s_h[None]), gk.Tensor(emb))  # one (1, d) row
    assert np.allclose(yhat.values[0], ref_scores(s_h, emb), atol=1e-12)
    assert abs(yhat.values.sum() - 1.0) < 1e-12

    assert np.isclose(loss(yhat, target=3).item(), ref_loss(yhat.values[0], 3), atol=1e-10)

    extreme = gk.Tensor([1e-15, 1.0 - 1e-15])
    assert np.isclose(
        loss(extreme, 0).item(), ref_loss(extreme.values, 0), atol=1e-9
    )


def test_loss_rejects_bad_targets_and_forms():
    yhat = gk.Tensor([0.5, 0.5])
    s_h, embedding = gk.Tensor(np.ones((1, 3))), gk.Tensor(np.eye(2, 3))
    for bad in [
        2, -1,
        [0, 1],  # one row takes one target
        2.7, 1.0, "1", [[1]], 1e30, True, 2**70, [0.0], None,
    ]:
        with pytest.raises(ConfigError):
            loss(yhat, target=bad)
        with pytest.raises(ConfigError):
            gk.score_loss(s_h, embedding, bad)
    for good in [1, np.int32(1), [1], np.array([1], dtype=np.uint8)]:
        assert loss(yhat, good).item() == loss(yhat, 1).item()


def _chain_and_fused(s, e, targets, scale):
    """Value and (s_h, embedding) gradients of the scaled loss, through the
    softmax-and-loss chain and through the fused op, on fresh leaves each."""
    chain_s, chain_e = gk.Tensor(s.copy()), gk.Tensor(e.copy())
    chain = loss(score_and_predict(chain_s, chain_e), targets)
    chain_grads = gk.backward(chain * scale, wrt=[chain_s, chain_e])
    fused_s, fused_e = gk.Tensor(s.copy()), gk.Tensor(e.copy())
    fused = gk.score_loss(fused_s, fused_e, targets)
    fused_grads = gk.backward(fused * scale, wrt=[fused_s, fused_e])
    return (chain.values, *chain_grads), (fused.values, *fused_grads)


@pytest.mark.parametrize(
    "rows, items, dim, spread, targets",
    [
        (1, 7, 4, 1.0, [3]),
        (5, 11, 4, 1.0, [2, 0, 10, 4, 7]),
        (6, 9, 3, 1.0, [4, 4, 1, 4, 1, 8]),  # repeated targets
        (4, 8, 5, 12.0, [0, 3, 3, 7]),       # saturated rows: the clamp bites at p -> 0 and 1
        (128, 500, 100, 0.3, list(range(0, 500, 4)) + [3, 3, 499]),  # BLAS-sized blocks
    ],
    ids=["one-row", "batch", "repeated-targets", "clamped", "wide"],
)
def test_fused_score_loss_equals_the_chain_bit_for_bit(rows, items, dim, spread, targets):
    rng = np.random.default_rng(rows * 100 + items)
    s, e = rng.normal(0.0, spread, (rows, dim)), rng.normal(0.0, spread, (items, dim))
    if spread > 1.0:  # each target's row is the embedding's own direction, scaled up
        s[:2] = 3.0 * e[targets[:2]]
        p = score_and_predict(gk.Tensor(s), gk.Tensor(e)).values
        assert (p < gk.PROB_CLAMP).any() and (p > 1.0 - gk.PROB_CLAMP).any()
    chain, fused = _chain_and_fused(s, e, targets, 1.0 / rows)
    for want, got in zip(chain, fused):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fused_score_loss_matches_central_differences():
    rng = np.random.default_rng(5)
    s_h, embedding = gk.Tensor(rng.normal(size=(3, 4))), gk.Tensor(rng.normal(size=(6, 4)))
    worst = gk.grad_check(lambda s, e: gk.score_loss(s, e, [5, 0, 5]), [s_h, embedding])
    assert worst < 1e-6


def test_fused_score_loss_is_one_tape_node_and_rejects_bad_shapes():
    s_h, embedding = gk.Tensor(np.ones((2, 3))), gk.Tensor(np.eye(5, 3))
    objective = gk.score_loss(s_h, embedding, [1, 4])
    assert [node.op for node in gk.tape(objective)] == ["leaf", "leaf", "score_loss"]
    for a, b in [((2, 3), (5, 4)), ((3,), (5, 3)), ((2, 3), (5,))]:
        with pytest.raises(ShapeError):
            gk.score_loss(gk.Tensor(np.zeros(a)), gk.Tensor(np.zeros(b)), [1, 4])


def test_both_losses_reject_an_empty_batch():
    no_targets = np.array([], dtype=np.int64)
    with pytest.raises(ShapeError, match="B >= 1"):
        gk.score_loss(gk.Tensor(np.zeros((0, 3))), gk.Tensor(np.eye(5, 3)), no_targets)
    with pytest.raises(ShapeError, match="B >= 1"):
        model.loss(gk.Tensor(np.zeros((0, 5))), no_targets)


def split_every_score_loss(monkeypatch) -> list:
    """Split score_loss blocks of any size; record the row halves of each split pass."""
    monkeypatch.setattr(tensor_module, "SCORE_SPLIT_MIN", 1)
    halves = []
    in_halves = tensor_module.in_halves

    def recording(fn, first, second):
        halves.append((first[-1], second[-1]))
        return in_halves(fn, first, second)

    monkeypatch.setattr(tensor_module, "in_halves", recording)
    return halves


@pytest.mark.parametrize(
    "rows, items, dim, spread, targets",
    [
        (1, 7, 4, 1.0, [3]),
        (5, 11, 4, 1.0, [2, 0, 10, 4, 7]),   # odd: three rows on the caller, two on the helper
        (6, 9, 3, 1.0, [4, 4, 1, 4, 1, 8]),  # repeated targets
        (4, 8, 5, 12.0, [0, 3, 3, 7]),       # only the helper's rows clamp: the whole-block path
        (128, 500, 100, 0.3, list(range(0, 500, 4)) + [3, 3, 499]),
    ],
    ids=["one-row", "odd-rows", "repeated-targets", "clamped-half", "wide"],
)
def test_split_score_loss_equals_the_chain_bit_for_bit(rows, items, dim, spread, targets, monkeypatch):
    halves = split_every_score_loss(monkeypatch)
    rng = np.random.default_rng(rows * 100 + items)
    s, e = rng.normal(0.0, spread, (rows, dim)), rng.normal(0.0, spread, (items, dim))
    cut = (rows + 1) // 2
    if spread > 1.0:  # the caller's rows stay mild, the helper's point along their targets
        s[:cut] = rng.normal(0.0, 0.01, (cut, dim))
        s[cut:] = 3.0 * e[targets[cut:]]
        p = score_and_predict(gk.Tensor(s), gk.Tensor(e)).values
        clamped = (p < gk.PROB_CLAMP) | (p > 1.0 - gk.PROB_CLAMP)
        assert not clamped[:cut].any() and clamped[cut:].all(axis=1).any()
    chain, fused = _chain_and_fused(s, e, targets, 1.0 / rows)
    for want, got in zip(chain, fused):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # forward and backward each cut the rows once; one row is not cut
    assert halves == ([] if rows == 1 else [(slice(0, cut), slice(cut, rows))] * 2)


def test_split_score_loss_matches_central_differences(monkeypatch):
    halves = split_every_score_loss(monkeypatch)
    rng = np.random.default_rng(5)
    s_h, embedding = gk.Tensor(rng.normal(size=(3, 4))), gk.Tensor(rng.normal(size=(6, 4)))
    worst = gk.grad_check(lambda s, e: gk.score_loss(s, e, [5, 0, 5]), [s_h, embedding])
    assert worst < 1e-6 and halves


def test_backward_without_the_embedding_forms_no_embedding_gradient(monkeypatch):
    split_every_score_loss(monkeypatch)
    started = []

    class Recording(tensor_module.Deferred):
        def __init__(self, fn, *args):
            started.append(fn)
            super().__init__(fn, *args)

    monkeypatch.setattr(tensor_module, "Deferred", Recording)
    rng = np.random.default_rng(8)
    s, e = rng.normal(size=(5, 4)), rng.normal(size=(9, 4))
    got = []
    for with_embedding in (False, True):
        s_h, embedding = gk.Tensor(s.copy()), gk.Tensor(e.copy())
        objective = gk.score_loss(gk.tanh(s_h), embedding, [1, 2, 3, 4, 5])
        got.append(gk.backward(objective, wrt=[s_h, embedding][: 1 + with_embedding])[0])
        assert len(started) == with_embedding  # the (V, d) product is started only when wanted
    assert got[0].tobytes() == got[1].tobytes()


def test_a_non_finite_row_in_the_helpers_half_raises(monkeypatch):
    halves = split_every_score_loss(monkeypatch)
    s, e = np.ones((4, 3)), np.full((6, 3), 1e200)
    s[2:] = 1e200  # the helper's rows overflow to inf logits, so their softmax is NaN
    with np.errstate(all="ignore"):  # the bad values are the point here
        with pytest.raises(NumericsError, match="score_loss"):
            gk.score_loss(gk.Tensor(s), gk.Tensor(e), [0, 1, 2, 3])
    assert halves == [(slice(0, 2), slice(2, 4))]


# ---------------------------------------------------------------------------
# full forward pass


PREFIX = [0, 1, 2, 1]
NEIGHBORS = [[2, 3, 4], [5, 1]]


def forward_pair(cfg, seed=21):
    params = build_params(cfg, seed=seed)
    yhat, s_h = forward(PREFIX, NEIGHBORS, params, cfg)
    ref_yhat, ref_s = ref_forward(
        PREFIX,
        NEIGHBORS,
        params.store.values(),
        cfg.dim,
        heads=cfg.heads,
        layers=cfg.gat_layers,
        variant=cfg.variant,
    )
    return yhat.values, s_h.values, ref_yhat, ref_s


@pytest.mark.parametrize(
    "variant",
    ["full", "intra_only", "inter_only", "avg_pool", "mean_gat", "mean_readout"],
)
def test_forward_matches_reference(variant):
    cfg = small_config(variant=variant)
    yhat, s_h, ref_yhat, ref_s = forward_pair(cfg)
    assert np.allclose(s_h, ref_s, atol=1e-9)
    assert np.allclose(yhat, ref_yhat, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4), min_size=0, max_size=2
    ),
)
def test_forward_matches_reference_on_random_sessions(prefix, neighbors):
    cfg = ModelConfig(vocab_size=8, dim=4, heads=2, gat_layers=2)
    params = build_params(cfg, seed=5)
    yhat, _ = forward(prefix, neighbors, params, cfg)
    ref_yhat, _ = ref_forward(
        prefix, neighbors, params.store.values(), cfg.dim, heads=2, layers=2
    )
    assert np.allclose(yhat.values, ref_yhat, atol=1e-9)


def test_neighbor_listing_order_is_irrelevant():
    cfg = small_config()
    params = build_params(cfg, seed=22)
    a, _ = forward(PREFIX, NEIGHBORS, params, cfg)
    b, _ = forward(PREFIX, list(reversed(NEIGHBORS)), params, cfg)
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_intra_only_ignores_neighbors_entirely():
    cfg = small_config(variant="intra_only")
    params = build_params(cfg, seed=23)
    with_neighbors, _ = forward(PREFIX, NEIGHBORS, params, cfg)
    without, _ = forward(PREFIX, [], params, cfg)
    assert (with_neighbors.values == without.values).all()


def test_forward_rejects_empty_prefix():
    cfg = small_config()
    params = build_params(cfg, seed=24)
    with pytest.raises(ConfigError):
        forward([], NEIGHBORS, params, cfg)


def test_probabilities_form_a_distribution():
    cfg = small_config()
    params = build_params(cfg, seed=25)
    yhat, _ = forward(PREFIX, NEIGHBORS, params, cfg)
    assert (yhat.values > 0).all()
    assert abs(yhat.values.sum() - 1.0) < 1e-9


def test_full_loss_is_differentiable_end_to_end():
    """One backward pass reaches every parameter group with finite numbers."""
    cfg = ModelConfig(vocab_size=8, dim=4, heads=2, gat_layers=2)
    params = build_params(cfg, seed=26)
    yhat, _ = forward([0, 1, 2], [[3, 4, 1]], params, cfg)
    total = loss(yhat, target=4)
    names = params.store.names()
    grads = gk.backward(total, wrt=[params.store[n] for n in names])
    by_name = dict(zip(names, grads))
    assert all(np.isfinite(g).all() for g in grads)
    assert np.abs(by_name["embedding"]).max() > 0
    assert np.abs(by_name["fusion.bias"]).max() > 0
    assert np.abs(by_name["intra.w_update"]).max() > 0
    assert np.abs(by_name["inter.layer0.w"]).max() > 0


# ---------------------------------------------------------------------------
# packed batches


VARIANTS = ["full", "intra_only", "inter_only", "avg_pool", "mean_gat", "mean_readout"]
MIXED_BATCH = [
    ([0, 1, 2, 1], [[2, 3, 4], [5, 1]]),
    ([3], []),
    ([5, 5, 2], [[2, 2, 7]]),
    ([1, 4], [[6], [4, 1, 0, 3], [7, 7]]),
    ([6, 0, 6, 0, 6], []),
    ([2], [[2, 5]]),
    ([7, 3, 1], [[1, 3, 7], [0]]),
    ([4, 4], [[4, 4, 4]]),
]


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_tape_has_as_many_nodes_as_a_batch_of_one(variant):
    """No op runs per example: eight mixed examples record the tape of one."""
    cfg = ModelConfig(vocab_size=8, dim=4, heads=2, gat_layers=2, variant=variant)
    params = build_params(cfg, seed=6)
    prefixes, neighbor_lists = zip(*MIXED_BATCH)
    yhat8, _ = forward_batch(list(prefixes), list(neighbor_lists), params, cfg)
    yhat1, _ = forward_batch([prefixes[0]], [neighbor_lists[0]], params, cfg)
    eight = gk.tape(loss(yhat8, list(range(8))))
    one = gk.tape(loss(yhat1, [0]))
    assert len(eight) == len(one)


def test_non_integer_items_fail_as_graph_errors():
    cfg = small_config()
    params = build_params(cfg, seed=3)
    with pytest.raises(GraphError, match="integers"):
        forward([1.5], [], params, cfg)
    with pytest.raises(GraphError, match="nested"):
        encode_batch([[1]], [[[1, [2]]]], params, cfg)


@pytest.mark.parametrize("bad", [-1, 2**40])
def test_out_of_range_items_in_a_batch_fail_loudly(bad):
    """An item outside the vocabulary is its own node, never merged with another graph's."""
    cfg = small_config()
    params = build_params(cfg, seed=3)
    with pytest.raises(ShapeError):
        forward_batch([[2, 3], [bad, 2]], [[], []], params, cfg)
    with pytest.raises(ShapeError):
        forward_batch([[2, 3], [1, 2]], [[[3, 4]], [[2, bad]]], params, cfg)


def test_forward_batch_builds_no_per_example_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a per-example graph object")

    monkeypatch.setattr(graphs, "build_intra_graph", refuse)
    monkeypatch.setattr(graphs, "build_inter_graph", refuse)
    cfg = ModelConfig(vocab_size=8, dim=4, heads=2, gat_layers=2)
    prefixes, neighbor_lists = zip(*MIXED_BATCH)
    yhat, _ = forward_batch(list(prefixes), list(neighbor_lists), build_params(cfg, seed=6), cfg)
    assert yhat.shape == (len(MIXED_BATCH), 8)


def test_grad_check_fixture_tape_stays_under_157_nodes():
    """The grad check's d=8 fixture records fewer tape nodes than the 157 of the per-example path.

    The central-difference check reruns this forward once per coordinate,
    so its run time follows the tape length.
    """
    cfg = ModelConfig(vocab_size=6, dim=8)
    params = build_params(cfg, seed=0)
    yhat, _ = forward([0, 1, 2], [[3, 4, 5, 1]], params, cfg)
    assert len(gk.tape(loss(yhat, 4))) < 157


def test_grad_check_fixture_tape_scores_attention_in_one_node_per_layer():
    """Each learned GAT layer turns its scores into attention with one
    edge_softmax node, so the grad check's fixture records at most 109 nodes
    and no exp; the uniform variant runs the same op on zero scores."""
    for variant, most in (("full", 109), ("mean_gat", 101)):
        cfg = ModelConfig(vocab_size=6, dim=8, variant=variant)
        yhat, _ = forward([0, 1, 2], [[3, 4, 5, 1]], build_params(cfg, seed=0), cfg)
        ops = [node.op for node in gk.tape(loss(yhat, 4))]
        assert len(ops) <= most
        assert ops.count("edge_softmax") == cfg.gat_layers and "exp" not in ops


batches = st.lists(
    st.tuples(
        st.lists(st.integers(0, 7), min_size=1, max_size=5),
        st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4), max_size=3),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=12, deadline=None)
@given(batches, st.sampled_from(VARIANTS))
def test_batched_forward_and_gradients_match_examples_one_at_a_time(batch, variant):
    cfg = ModelConfig(vocab_size=8, dim=4, heads=2, gat_layers=2, variant=variant)
    params = build_params(cfg, seed=8)
    tensors = params.store.tensors()
    prefixes = [prefix for prefix, _, _ in batch]
    neighbor_lists = [nbrs for _, nbrs, _ in batch]
    targets = [target for _, _, target in batch]

    yhat, s_h = forward_batch(prefixes, neighbor_lists, params, cfg)
    batch_grads = gk.backward(loss(yhat, targets), wrt=tensors)
    summed = [np.zeros_like(t.values) for t in tensors]
    for b, (prefix, nbrs, target) in enumerate(batch):
        one_yhat, one_s = forward(prefix, nbrs, params, cfg)
        assert np.abs(yhat.values[b] - one_yhat.values).max() <= 1e-12
        assert np.abs(s_h.values[b] - one_s.values).max() <= 1e-12
        for total, g in zip(summed, gk.backward(loss(one_yhat, target), wrt=tensors)):
            total += g
    for name, g, want in zip(params.store.names(), batch_grads, summed):
        scale = 1.0 + np.abs(want).max()
        assert np.abs(g - want).max() <= 1e-12 * scale, name


def test_loss_of_a_batch_sums_its_rows():
    yhat = score_and_predict(gk.Tensor(RNG.normal(size=(3, 4))), gk.Tensor(RNG.normal(size=(7, 4))))
    rows = sum(ref_loss(yhat.values[b], t) for b, t in enumerate([2, 0, 6]))
    assert np.isclose(loss(yhat, [2, 0, 6]).item(), rows, atol=1e-10)
    with pytest.raises(ConfigError):
        loss(yhat, [2, 0])
    with pytest.raises(ConfigError):
        loss(yhat, [2, 0, 7])
