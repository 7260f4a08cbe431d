"""Metrics, ranking rules, and the model/baseline evaluation drivers."""

import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_model import ref_neighbors, ref_rank, ref_sknn_scores
from sessionrec import evaluation
from sessionrec.baselines import ItemKnn, pop_scores, sknn_scores
from sessionrec.corpus import ItemVocab, Session, SessionCorpus, TrainingExample, augment
from sessionrec.errors import ConfigError, RetrievalError
from sessionrec.evaluation import (
    EVAL_CHUNK,
    EvalReport,
    RetrievalConfig,
    evaluate_baseline,
    evaluate_model,
    rank_of,
    report_from_ranks,
    test_examples as expand_test_sessions,
)
from sessionrec.model import ModelConfig, build_params
from sessionrec.neighbors import build_index, neighbors, precompute_neighbors
from sessionrec.synthetic import chain_corpus


def corpus_of(train_items, test_items=()):
    """Direct corpus fixture: dense ids, chronological starts, exact counts."""
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
    return SessionCorpus(sessions, vocab, train_count=len(train_items))


# ---------------------------------------------------------------------------
# ranks


def test_rank_basics():
    scores = np.array([0.1, 0.5, 0.3])
    assert rank_of(scores, 1) == 1
    assert rank_of(scores, 2) == 2
    assert rank_of(scores, 0) == 3


def test_rank_ties_break_by_item_index():
    scores = np.array([0.5, 0.5, 0.5])
    assert rank_of(scores, 0) == 1
    assert rank_of(scores, 1) == 2
    assert rank_of(scores, 2) == 3


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30), st.data())
def test_rank_matches_reference(raw, data):
    scores = np.array(raw, dtype=np.float64)
    target = data.draw(st.integers(0, len(raw) - 1))
    assert rank_of(scores, target) == ref_rank(scores, target)


def test_rank_accepts_numpy_integer_targets():
    scores = np.array([0.1, 0.5, 0.2])
    assert rank_of(scores, np.int64(2)) == 2
    assert rank_of(scores, np.intp(1)) == 1


@pytest.mark.parametrize(
    "target", [-1, 3, True, np.bool_(False), 1.0, "1", None],
    ids=["negative", "past-the-end", "True", "numpy-bool", "float", "str", "None"],
)
def test_rank_rejects_targets_it_cannot_rank(target):
    # -1 would rank the last item and True would index as a mask
    with pytest.raises(ConfigError, match="target"):
        rank_of(np.array([0.1, 0.5, 0.2]), target)


# ---------------------------------------------------------------------------
# reports


def test_report_known_ranks():
    report = report_from_ranks([1, 3, 12], cutoffs=(5, 10))
    assert report.cases == 3
    assert abs(report.recall[10] - 2 / 3) < 1e-12
    assert abs(report.mrr[10] - (1 + 1 / 3) / 3) < 1e-12
    assert abs(report.recall[5] - 2 / 3) < 1e-12
    assert abs(report.mrr[5] - (1 + 1 / 3) / 3) < 1e-12


def test_report_rank_at_cutoff_counts():
    report = report_from_ranks([10], cutoffs=(10,))
    assert report.recall[10] == 1.0
    assert report.mrr[10] == 0.1
    report = report_from_ranks([11], cutoffs=(10,))
    assert report.recall[10] == 0.0
    assert report.mrr[10] == 0.0


def test_report_counts_misses_as_cases():
    report = report_from_ranks([1, None], cutoffs=(5,))
    assert report.cases == 2
    assert report.recall[5] == 0.5
    assert report.mrr[5] == 0.5


def test_report_requires_cases():
    with pytest.raises(ConfigError):
        report_from_ranks([])


@pytest.mark.parametrize("cutoffs", [(0,), (5, -1), (2.5,), (True,), ("5",)])
def test_report_rejects_cutoffs_below_one_or_not_integers(cutoffs):
    with pytest.raises(ConfigError, match="cutoff"):
        report_from_ranks([1, 2], cutoffs=cutoffs)


def test_evaluation_drivers_reject_bad_cutoffs():
    corpus = corpus_of([[0, 1, 2], [1, 2], [0, 2]], [[0, 1, 2]])
    params, cfg = tiny_model(corpus)
    with pytest.raises(ConfigError, match="cutoff"):
        evaluate_model(params, cfg, corpus, cutoffs=(0,))
    with pytest.raises(ConfigError, match="cutoff"):
        evaluate_baseline("sknn", corpus, cutoffs=(0, 2.5))
    with pytest.raises(ConfigError, match="cutoff"):
        evaluate_baseline("pop", corpus, cutoffs=(np.int64(0),))
    assert evaluate_baseline("pop", corpus, cutoffs=(np.int64(1),)).cases == 2


def test_evaluation_drivers_check_cutoffs_before_any_retrieval(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("retrieval ran before the cutoffs were checked")

    monkeypatch.setattr(evaluation, "precompute_neighbors", refuse)
    corpus = corpus_of([[0, 1, 2], [1, 2], [0, 2]], [[0, 1, 2]])
    params, cfg = tiny_model(corpus)
    with pytest.raises(ConfigError, match="cutoff"):
        evaluate_model(params, cfg, corpus, cutoffs=(0,))
    with pytest.raises(ConfigError, match="cutoff"):
        evaluate_baseline("sknn", corpus, cutoffs=(5, 2.5))


def test_report_serialization_uses_string_keys():
    report = report_from_ranks([1, 2], cutoffs=(5, 10))
    doc = report.to_dict()
    assert set(doc["recall"]) == {"5", "10"}
    assert doc["cases"] == 2
    assert report.to_json() == EvalReport(
        cases=2, recall=report.recall, mrr=report.mrr
    ).to_json()


def test_test_examples_expand_each_test_session():
    corpus = corpus_of([[0, 1], [1, 2]], [[0, 1, 2]])
    cases = expand_test_sessions(corpus)
    assert [(c.prefix, c.label) for c in cases] == [((0,), 1), ((0, 1), 2)]
    assert all(c.session_id == 2 for c in cases)


# ---------------------------------------------------------------------------
# baselines


def test_pop_scores_count_training_clicks_only():
    corpus = corpus_of([[0, 1], [0, 2], [0, 1]], [[1, 0]])
    assert pop_scores(corpus).tolist() == [3.0, 2.0, 1.0]


def test_itemknn_hand_cosines():
    corpus = corpus_of([[0, 1], [0, 2], [0, 1]])
    knn = ItemKnn(corpus)
    got = knn.scores([5, 1])  # only the final click matters
    assert np.allclose(got, [2 / np.sqrt(6), 1.0, 0.0])
    with pytest.raises(RetrievalError):
        knn.scores([])


def test_itemknn_unseen_item_scores_nothing():
    sessions = [Session(0, [0], 100)]
    vocab = ItemVocab(["a", "b"], [1, 0])
    corpus = SessionCorpus(sessions, vocab, train_count=1)
    assert ItemKnn(corpus).scores([1]).tolist() == [0.0, 0.0]


item_lists = st.lists(st.integers(0, 7), min_size=1, max_size=6)


@given(st.lists(item_lists, min_size=1, max_size=8), st.lists(item_lists, max_size=3))
def test_itemknn_and_pop_match_brute_force_counts(train_items, test_items):
    # the vocabulary runs to the largest item, so some items never occur in training
    corpus = corpus_of(train_items, test_items)
    n = len(corpus.vocab)
    clicks = Counter(item for items in train_items for item in items)
    assert pop_scores(corpus).tolist() == [float(clicks[i]) for i in range(n)]

    holding = [{sid for sid, items in enumerate(train_items) if i in items} for i in range(n)]
    knn = ItemKnn(corpus)
    for last in range(n):
        want = [
            len(holding[last] & holding[j]) / math.sqrt(len(holding[last]) * len(holding[j]))
            if holding[last] and holding[j] else 0.0
            for j in range(n)
        ]
        assert knn.scores([n - 1, last]).tolist() == want


def test_sknn_scores_match_reference():
    corpus = corpus_of([[0, 1], [1, 2, 3], [0, 3]], [[0, 1]])
    index = build_index(corpus)
    entries = neighbors(index, [0, 1], k=10, threshold=0.0)
    assert entries  # fixture sanity
    mine = sknn_scores(entries, index, len(corpus.vocab))
    session_items = {s.id: s.items for s in corpus.train_sessions()}
    assert np.allclose(mine, ref_sknn_scores(entries, session_items, len(corpus.vocab)))


def test_evaluate_baseline_pop_end_to_end():
    corpus = corpus_of([[0, 1], [0, 2], [0, 1]], [[1, 0], [0, 1]])
    report = evaluate_baseline("pop", corpus, cutoffs=(1, 5))
    # cases: (1,)->0 hits rank 1; (0,)->1 rank 2 under scores [3, 2, 1]
    assert report.cases == 2
    assert report.recall[1] == 0.5
    assert report.mrr[5] == (1.0 + 0.5) / 2


def test_evaluate_baseline_sknn_matches_reference_route():
    rng = np.random.default_rng(1)
    # 24 test cases, five scoring passes of 5; cases 4, 10, 16 and 19 find no neighbors
    chunk = 5
    chunked = corpus_of(
        [rng.choice(8, size=3, replace=False).tolist() for _ in range(12)],
        [rng.choice(8, size=4, replace=False).tolist() for _ in range(8)],
    )
    for corpus, retrieval, misses in [
        (
            corpus_of([[0, 1, 2], [1, 2], [2, 3], [0, 3]], [[1, 2, 0], [3, 2]]),
            RetrievalConfig(k=3, threshold=0.1, m=10),
            0,
        ),
        (chunked, RetrievalConfig(k=3, threshold=0.5, m=10), 4),
    ]:
        with patch.object(evaluation, "SKNN_CHUNK", chunk):
            report = evaluate_baseline("sknn", corpus, retrieval=retrieval, cutoffs=(5,))

        triples = [(s.id, s.items, s.start_time) for s in corpus.train_sessions()]
        session_items = {s.id: s.items for s in corpus.train_sessions()}
        expected_ranks = []
        for case in expand_test_sessions(corpus):
            entries = ref_neighbors(
                triples, list(case.prefix), now=case.start_time, **vars(retrieval)
            )
            if not entries:
                expected_ranks.append(None)
                continue
            scores = ref_sknn_scores(entries, session_items, len(corpus.vocab))
            expected_ranks.append(ref_rank(scores, case.label))
        assert expected_ranks.count(None) == misses
        assert report == report_from_ranks(expected_ranks, cutoffs=(5,))
    assert len(expected_ranks) > chunk


timed_cases = st.tuples(item_lists, st.integers(0, 7), st.integers(0, 130))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=4), min_size=1, max_size=12),
    st.one_of(  # a few cases, or more than one chunk
        st.lists(timed_cases, min_size=1, max_size=4),
        st.lists(timed_cases, min_size=EVAL_CHUNK + 1, max_size=2 * EVAL_CHUNK + 3),
    ),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.3, 0.6]),
    st.integers(1, 6),
)
@example(  # touched items tie (1 and 2, both 1/sqrt(2)); label 4 is held by no neighbour
    [[0, 1], [0, 2], [1, 2]], [((0,), 2, 130), ((0,), 1, 130), ((0,), 4, 130), ((6,), 0, 130)],
    4, 0.0, 6,
)
def test_sknn_chunk_ranks_match_per_case_scores_and_the_reference(
    train_items, raw_cases, k, threshold, m
):
    # Five indexed items make touched items tie. Labels run to 7, so many are
    # held by no neighbour and rank by the zero-score rule; prefix items 5-7
    # are never indexed and "now" runs from before the first training session
    # to after the last, so some cases find no neighbour.
    corpus = corpus_of(train_items, [[7]])
    index = build_index(corpus)
    n_items = len(corpus.vocab)
    retrieval = RetrievalConfig(k=k, threshold=threshold, m=m)
    cases = [TrainingExample(tuple(p), label, -1, 90 + now) for p, label, now in raw_cases]
    with patch.object(evaluation, "SKNN_CHUNK", 5):  # a pass boundary inside every long list
        ranks = evaluation.sknn_ranks(index, cases, retrieval, n_items)
    assert len(ranks) == len(cases)

    table = precompute_neighbors(index, cases, retrieval)
    triples = [(s.id, s.items, s.start_time) for s in corpus.train_sessions()]
    session_items = {s.id: s.items for s in corpus.train_sessions()}
    for i, ex in enumerate(cases):
        scores = sknn_scores(table[i], index, n_items)
        lo, hi = table.offsets[i], table.offsets[i + 1]
        items, counts = index.session_items(table.ids[lo:hi])
        summed = np.bincount(items, np.repeat(table.sims[lo:hi], counts), minlength=n_items)
        assert np.array_equal(scores, summed)
        if lo == hi:
            assert ranks[i] is None
            continue
        want = ref_neighbors(triples, list(ex.prefix), now=ex.start_time, **vars(retrieval))
        ref_scores = ref_sknn_scores(want, session_items, n_items)
        assert ranks[i] == rank_of(scores, ex.label) == ref_rank(ref_scores, ex.label)


def test_evaluate_baseline_sknn_no_neighbors_is_a_miss():
    # threshold 1.0 requires identical item sets; no training session matches
    corpus = corpus_of([[0, 1], [2, 3]], [[0, 2]])
    report = evaluate_baseline(
        "sknn", corpus, retrieval=RetrievalConfig(threshold=1.0), cutoffs=(5,)
    )
    assert report.cases == 1
    assert report.recall[5] == 0.0
    assert report.mrr[5] == 0.0


@pytest.mark.parametrize(
    "label", [4, -1, True, 1.0], ids=["past-the-end", "negative", "True", "float"]
)
def test_evaluate_baseline_sknn_rejects_labels_it_cannot_rank(monkeypatch, label):
    # the second case finds no neighbour, so no score array ever meets its label
    corpus = corpus_of([[0, 1], [2, 3]], [[0, 1]])
    cases = [TrainingExample((0,), 1, 2, 200), TrainingExample((0, 2), label, 2, 200)]
    retrieval = RetrievalConfig(threshold=0.7)
    with pytest.raises(ConfigError, match=r"target must be an item index in \[0, 4\)"):
        evaluate_baseline("sknn", corpus, retrieval=retrieval, cases=cases)

    def refuse(*args, **kwargs):
        raise AssertionError("retrieval ran before the labels were checked")

    monkeypatch.setattr(evaluation, "precompute_neighbors", refuse)
    with pytest.raises(ConfigError, match="target"):
        evaluate_baseline("sknn", corpus, retrieval=retrieval, cases=cases)


@pytest.mark.parametrize("sid", [7, 3, -1])
def test_sknn_scores_reject_session_ids_outside_the_index(sid):
    index = build_index(corpus_of([[0, 1], [1, 2], [2, 3]], [[0, 1]]))
    assert len(index) == 3
    with pytest.raises(RetrievalError, match=r"session ids must lie in \[0, 3\)"):
        sknn_scores([(0, 1.0), (sid, 0.5)], index, 4)


def test_evaluate_baseline_validates():
    corpus = corpus_of([[0, 1]], [[0, 1]])
    with pytest.raises(ConfigError):
        evaluate_baseline("svd", corpus)
    with pytest.raises(ConfigError):
        evaluate_baseline("pop", corpus_of([[0, 1]]))  # no test partition


# ---------------------------------------------------------------------------
# model evaluation driver


def tiny_model(corpus, seed=3):
    cfg = ModelConfig(vocab_size=len(corpus.vocab), dim=4, heads=2, gat_layers=1)
    return build_params(cfg, seed=seed), cfg


def test_evaluate_model_reports_sane_metrics():
    corpus = corpus_of(
        [[0, 1, 2], [1, 2], [2, 3], [0, 3, 1]],
        [[1, 2, 3], [0, 1]],
    )
    params, cfg = tiny_model(corpus)
    report = evaluate_model(params, cfg, corpus, RetrievalConfig(threshold=0.0))
    assert report.cases == 3
    for cutoff in (5, 10):
        assert 0.0 <= report.recall[cutoff] <= 1.0
        assert report.mrr[cutoff] <= report.recall[cutoff] + 1e-12
    # four vocabulary items: every target ranks within 10, none can miss
    assert report.recall[10] == 1.0


def test_evaluate_model_accepts_custom_cases_and_index():
    corpus = corpus_of([[0, 1, 2], [1, 2]], [[0, 1, 2]])
    params, cfg = tiny_model(corpus)
    index = build_index(corpus)
    cases = expand_test_sessions(corpus)[:1]
    report = evaluate_model(params, cfg, corpus, index=index, cases=cases)
    assert report.cases == 1
    with pytest.raises(ConfigError):
        evaluate_model(params, cfg, corpus, cases=[])


def test_evaluate_model_requires_one_neighbor_list_per_case():
    corpus = chain_corpus(n_sessions=40, n_chains=2, chain_len=6, seed=9)
    params, cfg = tiny_model(corpus)
    index = build_index(corpus)
    cases = [ex for s in corpus.train_sessions()[-4:] for ex in augment(s)][:16]
    doubled = [*cases, *cases]
    found = precompute_neighbors(index, doubled, RetrievalConfig())
    with pytest.raises(ConfigError, match=r"32 .*16 cases"):
        evaluate_model(params, cfg, corpus, index=index, cases=cases, case_neighbors=found)
    report = evaluate_model(
        params, cfg, corpus, index=index, cases=doubled, case_neighbors=found
    )
    assert report == evaluate_model(params, cfg, corpus, index=index, cases=doubled)
