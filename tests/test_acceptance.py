"""Release gate: one test per shipped guarantee.

Each test pins the tolerance or margin it promises. The ones that carry a
wall-clock budget assert it, so a performance regression fails here instead
of quietly doubling suite time. Everything runs single threaded.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

import sessionrec as sr
from sessionrec import Event, build_index, ingest_events, neighbors
from sessionrec import gradkit as gk
from sessionrec.baselines import sknn_scores
from sessionrec.cli import main
from sessionrec.corpus import augment, filter_corpus, split_by_time
from sessionrec.evaluation import RetrievalConfig, evaluate_model, report_from_ranks
from sessionrec.graphs import build_inter_graph, build_intra_graph
from sessionrec.model import FusionParams, _edge_logits, fuse
from sessionrec.synthetic import (
    chain_corpus,
    chain_events,
    rotating_answer_corpus,
    write_events_csv,
)
from sessionrec.training import TrainConfig, train

from reference_model import plant_straddling_attention, ref_neighbors, ref_sknn_scores


def test_gradients_match_central_differences():
    """Analytic gradients of the full loss agree with central differences.

    Covers every coordinate of every parameter tensor for a d=8 model scoring
    a 3-click prefix with one retrieved neighbor, at step h=1e-5. The
    attention vectors are planted so each pre-softmax score row crosses the
    leaky_relu kink: softmax is shift invariant, so a single-sign row has an
    exactly zero self-weight gradient and the comparison there would measure
    nothing but rounding noise.
    """
    config = sr.ModelConfig(vocab_size=6, dim=8)
    prefix, neighbor_sessions, target = [0, 1, 2], [[3, 4, 5, 1]], 4
    graph = build_inter_graph(prefix, neighbor_sessions)

    params = sr.build_params(config, seed=0)
    store = params.store
    rng = np.random.default_rng(34)
    for tensor in store.tensors():
        tensor.values[...] = rng.normal(0.0, 0.6, size=tensor.values.shape)
    values = {name: store[name].values for name in store.names()}
    plant_straddling_attention(
        values,
        graph.adjacency,
        store["embedding"].values[graph.node_items],
        config.heads,
        config.gat_layers,
        seed=rng,
    )
    for layer in range(config.gat_layers):
        name = f"inter.layer{layer}.attn"
        store[name].values[...] = values[name]

    def objective(*_):
        yhat, _ = sr.forward(prefix, neighbor_sessions, params, config)
        return sr.loss(yhat, target)

    started = time.perf_counter()
    worst = gk.grad_check(objective, store.tensors(), h=1e-5)
    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 30.0


def test_session_graph_adjacency_matches_hand_derivation():
    """The six-click session 1 3 2 3 4 1 yields the worked-out rational matrices.

    Nodes in first-appearance order are [1, 3, 2, 4]. Item 3 forwards one
    click each to 2 and 4 (so each outgoing weight is 1/2) and receives one
    click each from 1 and 2; every other node has a single edge per direction.
    """
    graph = build_intra_graph([1, 3, 2, 3, 4, 1])
    assert graph.node_items.tolist() == [1, 3, 2, 4]
    half = Fraction(1, 2)
    expect_out = [
        [0, 1, 0, 0],
        [0, 0, half, half],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    expect_in = [
        [0, 0, 0, 1],
        [half, 0, half, 0],
        [0, 1, 0, 0],
        [0, 1, 0, 0],
    ]
    a_out, a_in = np.zeros((2, 4, 4))  # absent edges read as 0
    a_out[graph.dst, graph.src], a_in[graph.dst, graph.src] = graph.weight.T
    for i in range(4):
        for j in range(4):
            assert Fraction(a_out[i, j]) == expect_out[i][j]
            assert Fraction(a_in[i, j]) == expect_in[i][j]


def test_neighbor_retrieval_matches_full_scan():
    """Index-accelerated retrieval is exact: same sessions, same order, same scores.

    Twenty random corpora, 25 queries each, against a brute-force scan that
    shares no code with the inverted index. Scores are compared bitwise, which
    also locks down the similarity arithmetic.
    """
    rng = np.random.default_rng(99)
    started = time.perf_counter()
    for _ in range(20):
        n_sessions = int(rng.integers(200, 1001))
        n_tags = int(rng.integers(20, 150))
        events = []
        for sid in range(n_sessions):
            length = int(rng.integers(1, 11))
            for j, tag in enumerate(rng.integers(0, n_tags, size=length)):
                events.append(Event(f"s{sid}", 1000 + sid * 10 + j, f"i{tag}"))
        corpus = ingest_events(events)
        index = build_index(corpus)
        triples = [(s.id, s.items, s.start_time) for s in corpus.train_sessions()]
        session_items = {s.id: s.items for s in corpus.train_sessions()}
        n_items = len(corpus.vocab)
        for _ in range(25):
            prefix = rng.integers(0, n_items, size=int(rng.integers(1, 8))).tolist()
            k = int(rng.integers(1, 40))
            threshold = float(rng.choice([0.0, 0.3, 0.5, 0.7]))
            m = int(rng.integers(5, 1500))
            now = None
            if rng.random() < 0.5:
                now = int(rng.integers(1000, 1000 + n_sessions * 10))
            raw = bool(rng.random() < 0.5)
            got = neighbors(
                index, prefix, k=k, threshold=threshold, m=m, now=now, raw_length=raw
            )
            want = ref_neighbors(
                triples, prefix, k=k, threshold=threshold, m=m, now=now, raw_length=raw
            )
            assert got == want
            got_scores = sknn_scores(got, index, n_items)
            want_scores = ref_sknn_scores(want, session_items, n_items)
            assert (got_scores == want_scores).all()
    assert time.perf_counter() - started < 60.0


def test_attention_rows_normalize_and_fusion_stays_between_inputs():
    """1,000 random attention instances and gate blends hold their invariants.

    Every attention row must be a probability distribution over the node's
    masked neighborhood (sum 1 within 1e-9), learned or uniform, and the
    gated blend of the two session vectors must land coordinatewise inside
    [min, max] of its inputs.
    """
    rng = np.random.default_rng(4242)
    for _ in range(1000):
        prefix = rng.integers(0, 20, size=int(rng.integers(1, 7))).tolist()
        neighbor_sessions = [
            rng.integers(0, 20, size=int(rng.integers(1, 6))).tolist()
            for _ in range(int(rng.integers(0, 4)))
        ]
        mask = build_inter_graph(prefix, neighbor_sessions).mask()
        n = mask.shape[0]
        d = int(rng.choice([4, 8]))
        d_out = int(rng.choice([3, d]))
        h = gk.Tensor(rng.normal(0.0, 1.0, (n, d)))
        w = gk.Tensor(rng.normal(0.0, 1.0, (d, d_out)))
        attn = gk.Tensor(rng.normal(0.0, 1.0, (1, 2 * d_out)))
        dst, src = np.nonzero(mask)
        for scores in (_edge_logits(gk.reshape(h @ w, (n, 1, d_out)), attn),
                       gk.Tensor(np.zeros((n, 2, 1)))):  # learned, then uniform
            alphas = gk.edge_softmax(scores, src, dst, dst, n, 0.2).values.reshape(-1)
            assert np.abs(np.bincount(dst, alphas, minlength=n) - 1.0).max() <= 1e-9

        dim = int(rng.integers(2, 9))
        s_intra = gk.Tensor(rng.normal(0.0, 1.0, (1, dim)))
        s_inter = gk.Tensor(rng.normal(0.0, 1.0, (1, dim)))
        blend = fuse(
            s_intra,
            s_inter,
            FusionParams(
                w_gate=gk.Tensor(rng.normal(0.0, 1.0, (2 * dim, dim))),
                bias=gk.Tensor(rng.normal(0.0, 1.0, dim)),
            ),
        ).values
        assert (blend >= np.minimum(s_intra.values, s_inter.values)).all()
        assert (blend <= np.maximum(s_intra.values, s_inter.values)).all()


def test_rank_fixture_metrics():
    """Ranks 1, 3, 12 at cutoff 10: two hits of three, reciprocal mass (1 + 1/3) / 3."""
    report = report_from_ranks([1, 3, 12], cutoffs=(10,))
    assert report.cases == 3
    assert abs(report.recall[10] - 2.0 / 3.0) < 1e-9
    assert abs(report.mrr[10] - 0.4444) < 1e-4


@pytest.mark.slow
def test_overfits_deterministic_chains():
    """A d=32 model memorizes three deterministic item chains.

    200 sessions walk circular chains over a 30-item vocabulary, so the next
    item is a pure function of the current one. Recall@5 on the training
    prefixes must reach 0.90. The decay horizon is pushed past the run so the
    learning rate stays put; the stock schedule is tuned for corpora three
    orders of magnitude larger and freezes this run around the fourth epoch.
    """
    started = time.perf_counter()
    corpus = chain_corpus(n_sessions=200, n_chains=3, chain_len=10, seed=7)
    assert len(corpus.vocab) == 30
    config = sr.ModelConfig(vocab_size=30, dim=32)
    train_config = TrainConfig(
        epochs=12,
        batch_size=32,
        lr=3e-3,
        intra_decay_every=100,
        inter_decay_every=100,
        retrieval=RetrievalConfig(k=10),
        seed=0,
        patience=0,
    )
    result = train(corpus, config, train_config)
    cases = [ex for s in corpus.train_sessions() for ex in augment(s)]
    report = evaluate_model(
        result.params,
        config,
        corpus,
        retrieval=train_config.retrieval,
        cutoffs=(5,),
        cases=cases,
    )
    assert report.recall[5] >= 0.90
    assert time.perf_counter() - started < 300.0


@pytest.mark.slow
def test_neighbor_context_beats_intra_only():
    """Retrieved sessions carry signal the current session cannot.

    Every session is a query followed by an answer that rotates over time, so
    a prefix alone never identifies the current answer; only the most recent
    sessions for the same query reveal it. The full model must beat the
    intra-only ablation by at least 5 Recall@5 points, averaged over three
    training seeds.
    """
    corpus = rotating_answer_corpus()
    means = {}
    for variant in ("full", "intra_only"):
        scores = []
        for seed in (0, 1, 2):
            config = sr.ModelConfig(
                vocab_size=len(corpus.vocab),
                dim=32,
                heads=4,
                gat_layers=1,
                variant=variant,
            )
            train_config = TrainConfig(
                epochs=30,
                batch_size=32,
                lr=3e-3,
                intra_decay_every=100,
                inter_decay_every=100,
                retrieval=RetrievalConfig(k=6),
                seed=seed,
                patience=0,
            )
            result = train(corpus, config, train_config)
            report = evaluate_model(
                result.params,
                config,
                corpus,
                retrieval=train_config.retrieval,
                cutoffs=(5,),
            )
            scores.append(report.recall[5])
        means[variant] = sum(scores) / len(scores)
    assert means["full"] - means["intra_only"] >= 0.05


def test_fixed_seed_reproduces_losses_and_report():
    """Same seed, single worker: bit-identical losses and evaluation reports."""
    corpus = split_by_time(
        filter_corpus(
            ingest_events(chain_events(n_sessions=80, seed=5)),
            min_support=5,
            min_len=2,
        ),
        600,
    )
    config = sr.ModelConfig(vocab_size=len(corpus.vocab), dim=16, heads=4)
    train_config = TrainConfig(
        epochs=3, batch_size=32, retrieval=RetrievalConfig(k=10), seed=11, patience=0
    )
    runs = []
    for _ in range(2):
        result = train(corpus, config, train_config)
        report = evaluate_model(
            result.params, config, corpus, retrieval=train_config.retrieval
        )
        runs.append(([h["loss"] for h in result.history], report))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_cli_pipeline_end_to_end(tmp_path, capsys):
    """preprocess -> train -> evaluate exits 0 and emits a well-formed report."""
    started = time.perf_counter()
    csv_path = tmp_path / "events.csv"
    write_events_csv(chain_events(n_sessions=200, n_chains=3, chain_len=10, seed=7), csv_path)

    # sessions start one minute apart; a 1170 s window holds out the last 20
    assert main([
        "preprocess",
        "--input", str(csv_path),
        "--output", str(tmp_path / "corpus"),
        "--min-support", "5",
        "--test-window", "1170",
    ]) == 0
    assert main([
        "train",
        "--corpus", str(tmp_path / "corpus"),
        "--out", str(tmp_path / "run"),
        "--epochs", "2",
        "--dim", "16",
        "--heads", "4",
        "--patience", "0",
        "--k", "10",
    ]) == 0
    capsys.readouterr()
    assert main([
        "evaluate",
        "--checkpoint", str(tmp_path / "run" / "epoch_1.ckpt"),
        "--corpus", str(tmp_path / "corpus"),
    ]) == 0
    report = json.loads(capsys.readouterr().out)

    assert set(report) == {"cases", "recall", "mrr"}
    assert isinstance(report["cases"], int) and report["cases"] > 0
    assert set(report["recall"]) == set(report["mrr"]) == {"5", "10"}
    for block in (report["recall"], report["mrr"]):
        for value in block.values():
            assert isinstance(value, float) and 0.0 <= value <= 1.0
    assert time.perf_counter() - started < 120.0
