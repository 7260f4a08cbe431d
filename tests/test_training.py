"""Trainer behavior: schedules, determinism, logging, and stopping rules."""

import json
import math
import sys
import time

import numpy as np
import pytest

from sessionrec import gradkit as gk
from sessionrec.corpus import ItemVocab, Session, SessionCorpus, TrainingExample, augment
from sessionrec.errors import NumericsError, TrainingError
from sessionrec.model import ModelConfig
from sessionrec.synthetic import chain_corpus
from sessionrec.training import (
    LOG_FILENAME,
    TrainConfig,
    _length_bucketed_batches,
    group_learning_rates,
    train,
)
from sessionrec.neighbors import RetrievalConfig, build_index, precompute_neighbors


def direct_corpus(train_items, test_items=(), train_count=None):
    train_items = [list(s) for s in train_items]
    test_items = [list(s) for s in test_items]
    sessions = []
    t = 100
    for items in train_items + test_items:
        sessions.append(Session(len(sessions), items, t))
        t += 10
    n = 1 + max(i for s in train_items + test_items for i in s)
    counts = [0] * n
    for s in sessions:
        for i in s.items:
            counts[i] += 1
    vocab = ItemVocab([f"i{j}" for j in range(n)], counts)
    if train_count is None:
        train_count = len(train_items)
    return SessionCorpus(sessions, vocab, train_count=train_count)


# ---------------------------------------------------------------------------
# schedules and batching


def test_learning_rate_schedule_decays_groups_independently():
    cfg = TrainConfig(lr=1e-3, lr_decay=0.1, intra_decay_every=3, inter_decay_every=5)
    expect = {
        0: (1e-3, 1e-3),
        2: (1e-3, 1e-3),
        3: (1e-4, 1e-3),
        4: (1e-4, 1e-3),
        5: (1e-4, 1e-4),
        6: (1e-5, 1e-4),
        9: (1e-6, 1e-4),
        10: (1e-6, 1e-5),
    }
    for epoch, (intra, inter) in expect.items():
        lrs = group_learning_rates(cfg, epoch)
        assert lrs["intra_shared"] == pytest.approx(intra, rel=1e-12), epoch
        assert lrs["inter"] == pytest.approx(inter, rel=1e-12), epoch


def test_batches_are_uniform_length_and_cover_everything():
    examples = []
    for i, length in enumerate([1, 2, 2, 3, 1, 2, 1, 1, 3]):
        examples.append(
            TrainingExample(tuple(range(length)), 0, session_id=i, start_time=100 + i)
        )
    rng = np.random.default_rng(0)
    order = rng.permutation(len(examples))
    batches = _length_bucketed_batches(examples, order, batch_size=2, rng=rng)
    seen = []
    for batch in batches:
        assert 1 <= len(batch) <= 2
        lengths = {len(examples[i].prefix) for i in batch}
        assert len(lengths) == 1
        seen.extend(batch)
    assert sorted(seen) == list(range(len(examples)))


def test_precomputed_neighbors_never_peek_forward_or_at_self():
    corpus = direct_corpus([[0, 1], [0, 1], [0, 1]])
    index = build_index(corpus)
    examples = [
        TrainingExample((0,), 1, session_id=sid, start_time=corpus.sessions[sid].start_time)
        for sid in (1, 2)
    ]
    found = precompute_neighbors(index, examples, TrainConfig().retrieval)
    assert len(found) == len(examples)  # one list per case, in case order
    assert [sid for sid, _ in found[0]] == [0]
    assert [sid for sid, _ in found[1]] == [1, 0]  # equal similarity, newer first
    for ex, entries in zip(examples, found):
        for sid, _ in entries:
            assert sid != ex.session_id
            assert corpus.sessions[sid].start_time < ex.start_time


# ---------------------------------------------------------------------------
# full runs


def small_chain():
    return chain_corpus(n_sessions=24, n_chains=2, chain_len=6, seed=9)


def fast_train_config(**overrides):
    base = dict(
        epochs=2, batch_size=64, seed=1, patience=0, retrieval=RetrievalConfig(threshold=0.1)
    )
    base.update(overrides)
    return TrainConfig(**base)


def small_model(corpus):
    return ModelConfig(vocab_size=len(corpus.vocab), dim=8, heads=2, gat_layers=1)


def test_same_seed_reproduces_losses_and_parameters_exactly():
    corpus = small_chain()
    model_cfg = small_model(corpus)
    a = train(corpus, model_cfg, fast_train_config())
    b = train(corpus, model_cfg, fast_train_config())
    assert [e["loss"] for e in a.history] == [e["loss"] for e in b.history]
    for name in a.params.store.names():
        assert (a.params.store[name].values == b.params.store[name].values).all()


def test_different_seeds_diverge():
    corpus = small_chain()
    model_cfg = small_model(corpus)
    a = train(corpus, model_cfg, fast_train_config(seed=1))
    b = train(corpus, model_cfg, fast_train_config(seed=2))
    assert a.history[0]["loss"] != b.history[0]["loss"]


def test_loss_decreases_monotonically_early_on():
    corpus = chain_corpus(n_sessions=40, n_chains=2, chain_len=6, seed=9)
    model_cfg = ModelConfig(vocab_size=len(corpus.vocab), dim=16, heads=2, gat_layers=1)
    result = train(corpus, model_cfg, fast_train_config(epochs=5))
    losses = [e["loss"] for e in result.history]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_training_writes_checkpoints_and_log(tmp_path):
    corpus = small_chain()
    model_cfg = small_model(corpus)
    result = train(corpus, model_cfg, fast_train_config(), out_dir=tmp_path)

    assert result.checkpoints == [tmp_path / "epoch_0.ckpt", tmp_path / "epoch_1.ckpt"]
    lines = (tmp_path / LOG_FILENAME).read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        entry = json.loads(line)
        assert entry["epoch"] == i
        assert entry["loss"] > 0
        assert entry["lr_intra_shared"] == 1e-3
        assert entry["val_recall10"] is None  # patience=0 disables validation
        assert entry["wall_time"] > 0
        assert 0 < entry["fit_s"] <= entry["wall_time"]
        fitted = sum(len(s) - 1 for s in corpus.train_sessions())
        assert entry["examples_per_s"] == pytest.approx(fitted / entry["fit_s"], rel=1e-12)

    store, meta = gk.load_params(tmp_path / "epoch_1.ckpt")
    assert meta["epoch"] == 1
    assert meta["model"]["vocab_size"] == len(corpus.vocab)
    assert meta["retrieval"]["threshold"] == 0.1
    for name in store.names():
        assert (store[name].values == result.params.store[name].values).all()


def test_training_log_shows_where_an_epoch_goes(tmp_path):
    corpus = small_chain()
    model_cfg = small_model(corpus)
    timed = ("optimizer_s", "validation_s", "checkpoint_s")
    cfg = fast_train_config(epochs=1, patience=1, val_fraction=0.25)
    logged = train(corpus, model_cfg, cfg, out_dir=tmp_path).history
    assert logged == [json.loads(line) for line in (tmp_path / LOG_FILENAME).read_text().splitlines()]
    for entry in logged:
        for key in timed:
            assert math.isfinite(entry[key]) and entry[key] >= 0, (key, entry)
        assert entry["optimizer_s"] <= entry["fit_s"]
    unsaved = train(corpus, model_cfg, cfg).history[0]
    assert "checkpoint_s" not in unsaved
    assert math.isfinite(unsaved["optimizer_s"]) and unsaved["validation_s"] >= 0


def test_training_log_reports_neighbour_coverage_of_the_fit_cases(tmp_path):
    # one case per session, prefix (first item,): sessions 0-2 share items, so
    # they find 0, 1 and 2 earlier sessions; session 3's items appear nowhere else
    corpus = direct_corpus([[0, 1], [0, 1], [0, 1], [2, 3]])
    cfg = TrainConfig(epochs=2, seed=0, patience=0)
    history = train(corpus, ModelConfig(vocab_size=4, dim=4, heads=2, gat_layers=1), cfg,
                    out_dir=tmp_path).history
    logged = [json.loads(line) for line in (tmp_path / LOG_FILENAME).read_text().splitlines()]
    assert logged == history and len(logged) == 2
    for entry in logged:
        assert entry["neighbors_mean"] == 0.75
        assert entry["no_neighbors_share"] == 0.5


def test_checkpoint_written_during_the_next_batch_holds_its_epochs_parameters(tmp_path, monkeypatch):
    """A slow write overlaps the next epoch's first batch, and still holds the
    parameters its epoch ended with: the optimizer step waits for it."""
    corpus = small_chain()
    model_cfg = small_model(corpus)
    one_epoch = train(corpus, model_cfg, fast_train_config(epochs=1))
    save = gk.save_params

    def slow_save(path, store, meta):
        time.sleep(0.2)
        save(path, store, meta)

    monkeypatch.setattr(gk, "save_params", slow_save)
    result = train(corpus, model_cfg, fast_train_config(epochs=3), out_dir=tmp_path)
    assert result.checkpoints == [tmp_path / f"epoch_{n}.ckpt" for n in range(3)]
    store, _ = gk.load_params(tmp_path / "epoch_0.ckpt")
    for name in store.names():
        assert (store[name].values == one_epoch.params.store[name].values).all(), name
    logged = [json.loads(line) for line in (tmp_path / LOG_FILENAME).read_text().splitlines()]
    assert logged == result.history
    assert all(entry["checkpoint_s"] >= 0.2 for entry in logged)


def test_failed_checkpoint_write_stops_training_after_the_previous_epoch(tmp_path, monkeypatch):
    corpus = small_chain()
    save = gk.save_params
    calls = []

    def failing_at_epoch_1(path, store, meta):
        calls.append(meta["epoch"])
        if meta["epoch"] == 1:
            raise OSError("disk full")
        time.sleep(0.05)
        save(path, store, meta)
        calls.append("done")

    monkeypatch.setattr(gk, "save_params", failing_at_epoch_1)
    with pytest.raises(OSError, match="disk full"):
        train(corpus, small_model(corpus), fast_train_config(epochs=4), out_dir=tmp_path)
    assert calls == [0, "done", 1]  # nothing written after the failure, nothing left running
    _, meta = gk.load_params(tmp_path / "epoch_0.ckpt")
    assert meta["epoch"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["epoch_0.ckpt", LOG_FILENAME]
    lines = (tmp_path / LOG_FILENAME).read_text().splitlines()
    assert [json.loads(line)["epoch"] for line in lines] == [0]


def test_final_loss_property_reads_last_epoch():
    corpus = small_chain()
    result = train(corpus, small_model(corpus), fast_train_config())
    assert result.final_loss == result.history[-1]["loss"]


def test_early_stopping_on_stagnant_validation():
    corpus = direct_corpus([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]])
    model_cfg = ModelConfig(vocab_size=3, dim=4, heads=2, gat_layers=1)
    cfg = TrainConfig(
        epochs=8, batch_size=8, lr=1e-13, seed=0,
        patience=1, val_fraction=0.5, retrieval=RetrievalConfig(threshold=0.0),
    )
    result = train(corpus, model_cfg, cfg)
    # at a frozen learning rate validation cannot improve after epoch 0
    assert len(result.history) == 2
    assert result.history[0]["val_recall10"] == result.history[1]["val_recall10"]


def test_validation_recall_is_logged_when_enabled():
    corpus = direct_corpus([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]])
    model_cfg = ModelConfig(vocab_size=3, dim=4, heads=2, gat_layers=1)
    cfg = TrainConfig(
        epochs=1, patience=2, val_fraction=0.5, retrieval=RetrievalConfig(threshold=0.0), seed=0
    )
    result = train(corpus, model_cfg, cfg)
    assert 0.0 <= result.history[0]["val_recall10"] <= 1.0


def test_fit_and_validation_cases_are_retrieved_in_separate_lists(monkeypatch):
    import sessionrec.training as training

    retrieved = []

    def recording(index, cases, retrieval):
        retrieved.append(sorted({ex.session_id for ex in cases}))
        return precompute_neighbors(index, cases, retrieval)

    monkeypatch.setattr(training, "precompute_neighbors", recording)
    corpus = direct_corpus([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]])
    cfg = TrainConfig(
        epochs=1, patience=2, val_fraction=0.5, retrieval=RetrievalConfig(threshold=0.0), seed=0
    )
    result = train(corpus, ModelConfig(vocab_size=3, dim=4, heads=2, gat_layers=1), cfg)
    assert result.history[0]["val_recall10"] is not None  # validation ran
    assert retrieved == [[0, 1], [2, 3]]  # the fit sessions, then the validation ones


def test_validation_neighbors_are_retrieved_once_not_every_epoch(monkeypatch):
    retrieved = []

    def recording(index, cases, retrieval):
        retrieved.extend((ex.start_time, tuple(ex.prefix)) for ex in cases)
        return precompute_neighbors(index, cases, retrieval)

    # every module that binds the batch retrieval: training, and evaluation
    for name in ("sessionrec.training", "sessionrec.evaluation"):
        monkeypatch.setattr(sys.modules[name], "precompute_neighbors", recording)
    corpus = chain_corpus(n_sessions=60, n_chains=2, chain_len=6, seed=9)
    cfg = fast_train_config(epochs=3, patience=3, val_fraction=0.2)
    result = train(corpus, small_model(corpus), cfg)
    assert len(result.history) == 3 and result.history[-1]["val_recall10"] is not None
    fit, val = corpus.train_sessions()[:-12], corpus.train_sessions()[-12:]  # 20% of 60 validate
    cases = [(ex.start_time, ex.prefix) for s in [*fit, *val] for ex in augment(s)]
    assert sum(len(augment(s)) for s in val) == 61
    assert sorted(retrieved) == sorted(cases)  # every fit and validation case exactly once


# ---------------------------------------------------------------------------
# guard rails


def test_train_rejects_vocab_mismatch():
    corpus = direct_corpus([[0, 1], [1, 0]])
    with pytest.raises(TrainingError, match="vocab_size"):
        train(corpus, ModelConfig(vocab_size=5, dim=4, heads=2, gat_layers=1))


def test_train_rejects_empty_training_partition():
    corpus = direct_corpus([[0, 1]], train_count=0)
    with pytest.raises(TrainingError, match="no training sessions"):
        train(corpus, ModelConfig(vocab_size=2, dim=4, heads=2, gat_layers=1))


def test_train_rejects_degenerate_validation_split():
    corpus = direct_corpus([[0, 1], [1, 0]])
    cfg = TrainConfig(val_fraction=1.0, patience=1)
    with pytest.raises(TrainingError, match="no sessions to fit"):
        train(corpus, ModelConfig(vocab_size=2, dim=4, heads=2, gat_layers=1), cfg)


def test_train_rejects_corpora_without_examples():
    corpus = direct_corpus([[0], [1]])
    cfg = TrainConfig(patience=0)
    with pytest.raises(TrainingError, match="no training examples"):
        train(corpus, ModelConfig(vocab_size=2, dim=4, heads=2, gat_layers=1), cfg)


def test_non_finite_batch_names_epoch_batch_and_sessions(monkeypatch):
    import sessionrec.training as training

    def poisoned(prefixes, *args):
        raise NumericsError("exp produced non-finite values")

    monkeypatch.setattr(training, "encode_batch", poisoned)
    corpus = direct_corpus([[0, 1], [1, 0], [0, 1, 0]])
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0, sessions \[\d+(, \d+)*\]: exp"):
        train(corpus, ModelConfig(vocab_size=2, dim=4, heads=2, gat_layers=1), TrainConfig(patience=0))
