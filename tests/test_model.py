"""Encoder math against an independent straight-line reimplementation."""

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
from sessionrec.errors import ConfigError
from sessionrec.graphs import build_inter_graph, build_intra_graph, pack_inter, pack_intra
from sessionrec.model import (
    GatLayer,
    ModelConfig,
    build_params,
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
    ]:
        with pytest.raises(ConfigError):
            small_config(**bad).validate()


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
    packed = pack_intra([build_intra_graph(prefix)])
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
    graph = build_inter_graph(prefix, neighbor_sessions)
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
        mine = gat_layer(pack_inter([graph]), gk.Tensor(h), native_layer, average=average).values
        ref = ref_gat_layer(adjacency, h, heads, average=average)
        assert mine.shape == ref.shape
        assert np.allclose(mine, ref, atol=1e-10)


def test_gat_layer_uniform_attention_matches_reference():
    graph, adjacency, h, heads = gat_fixture()
    native_layer = stacked_layer(heads)
    mine = gat_layer(
        pack_inter([graph]), gk.Tensor(h), native_layer, average=True, uniform=True
    ).values
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
    packed = pack_inter([build_inter_graph(prefix, neighbor_sessions)])
    mine = inter_encode(packed, gk.Tensor(rows), params.inter_layers).values
    ref = ref_inter_encode(adjacency, rows, v, cfg.heads, cfg.gat_layers)
    assert np.allclose(mine, ref, atol=1e-10)


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
    with pytest.raises(ConfigError):
        loss(yhat, target=2)
    with pytest.raises(ConfigError):
        loss(yhat, target=-1)
    with pytest.raises(ConfigError):
        loss(yhat, target=[0, 1])  # one row takes one target


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


def test_grad_check_fixture_tape_stays_under_157_nodes():
    """The grad check's d=8 fixture records fewer tape nodes than the 157 of the per-example path.

    The central-difference check reruns this forward once per coordinate,
    so its run time follows the tape length.
    """
    cfg = ModelConfig(vocab_size=6, dim=8)
    params = build_params(cfg, seed=0)
    yhat, _ = forward([0, 1, 2], [[3, 4, 5, 1]], params, cfg)
    assert len(gk.tape(loss(yhat, 4))) < 157


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
