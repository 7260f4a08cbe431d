"""Ranking metrics and evaluation drivers for models and baselines.

Scores are turned into 1-based ranks with a deterministic tie rule: an item
beats the target only with a strictly higher score, and among equal scores the
lower item index wins. Recall@N counts ranks within the cutoff; MRR@N averages
reciprocal ranks, zero beyond the cutoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .baselines import ItemKnn, pop_scores, sknn_sums
from .corpus import SessionCorpus, TrainingExample, augment
from .errors import ConfigError
from .model import ModelConfig, ModelParams, forward_batch
from .neighbors import (
    EVAL_CHUNK, InvertedIndex, NeighborTable, RetrievalConfig, build_index, neighbor_clicks,
    precompute_neighbors,
)

BASELINES = ("pop", "sknn", "itemknn")

# sknn_ranks scores SKNN_CHUNK cases per pass: one retrieval (itself EVAL_CHUNK
# queries per sorted pass), one sknn_sums and one ranking pass, so a larger
# chunk pays the fixed numpy cost of each step less often. One sknn op over the
# 2,000-case seed-1 bench sample on a 2-vCPU Xeon host, one BLAS thread, took
# 113-117 ms (median of 9) in chunks of 16, 104-107 ms at 64, 100-101 ms at 128
# and 102 ms at 256; its traced peak, 18.2 MB, was the same at every size.
SKNN_CHUNK = 128


@dataclass
class EvalReport:
    """Recall@N and MRR@N over a set of prediction cases."""

    cases: int
    recall: dict[int, float]
    mrr: dict[int, float]

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "recall": {str(n): v for n, v in self.recall.items()},
            "mrr": {str(n): v for n, v in self.mrr.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _is_int(value: object) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_target(target: object, n_items: int) -> None:
    if not _is_int(target) or not 0 <= target < n_items:
        raise ConfigError(f"target must be an item index in [0, {n_items}), got {target!r}")


def rank_of(scores: np.ndarray, target: int) -> int:
    """1-based rank of the target under the deterministic tie rule."""
    _check_target(target, len(scores))
    t = scores[target]
    better = int(np.count_nonzero(scores > t))
    tied_before = int(np.count_nonzero(scores[:target] == t))
    return 1 + better + tied_before


def _check_cutoffs(cutoffs: Sequence[int]) -> None:
    for cutoff in cutoffs:
        if not _is_int(cutoff) or cutoff < 1:
            raise ConfigError(f"every cutoff must be an integer >= 1, got {cutoff!r}")


def report_from_ranks(
    ranks: Sequence[Optional[int]], cutoffs: Sequence[int] = (5, 10)
) -> EvalReport:
    """Aggregate ranks (None = miss, e.g. no neighbors to score with)."""
    if not ranks:
        raise ConfigError("cannot build a report from zero cases")
    _check_cutoffs(cutoffs)
    recall: dict[int, float] = {}
    mrr: dict[int, float] = {}
    n = len(ranks)
    for cutoff in cutoffs:
        hits = 0
        rr = 0.0
        for r in ranks:
            if r is not None and r <= cutoff:
                hits += 1
                rr += 1.0 / r
        recall[cutoff] = hits / n
        mrr[cutoff] = rr / n
    return EvalReport(cases=n, recall=recall, mrr=mrr)


def test_examples(corpus: SessionCorpus) -> list[TrainingExample]:
    """Every (prefix, next item) prediction case in the test partition."""
    return [ex for s in corpus.test_sessions() for ex in augment(s)]


def evaluate_model(
    params: ModelParams,
    config: ModelConfig,
    corpus: SessionCorpus,
    retrieval: RetrievalConfig = RetrievalConfig(),
    cutoffs: Sequence[int] = (5, 10),
    index: Optional[InvertedIndex] = None,
    cases: Optional[Sequence[TrainingExample]] = None,
    case_neighbors: Optional[NeighborTable] = None,
) -> EvalReport:
    """Next-item metrics for a trained model over the corpus test partition.

    Neighbor retrieval searches the training partition only, with each case's
    session start time as "now". Cases are scored EVAL_CHUNK at a time, each
    chunk as one packed forward. Pass ``cases`` to evaluate a custom case list
    (the trainer's validation split does), and ``case_neighbors``, one row
    per case as ``precompute_neighbors`` returns them, to skip retrieval.
    """
    _check_cutoffs(cutoffs)
    if index is None:
        index = build_index(corpus)
    if cases is None:
        cases = test_examples(corpus)
    if not cases:
        raise ConfigError("no test cases to evaluate")
    if case_neighbors is not None and len(case_neighbors) != len(cases):
        raise ConfigError(
            f"case_neighbors holds {len(case_neighbors)} rows for {len(cases)} cases"
        )

    ranks: list[Optional[int]] = []
    for start in range(0, len(cases), EVAL_CHUNK):
        chunk = cases[start : start + EVAL_CHUNK]
        if case_neighbors is None:
            found = precompute_neighbors(index, chunk, retrieval)
        else:
            found = case_neighbors.select(range(start, start + len(chunk)))
        neighbor_lists = neighbor_clicks(corpus, found)
        yhat, _ = forward_batch([ex.prefix for ex in chunk], neighbor_lists, params, config)
        ranks.extend(rank_of(scores, ex.label) for scores, ex in zip(yhat.values, chunk))
    return report_from_ranks(ranks, cutoffs)


def evaluate_baseline(
    name: str,
    corpus: SessionCorpus,
    retrieval: RetrievalConfig = RetrievalConfig(),
    cutoffs: Sequence[int] = (5, 10),
    cases: Optional[Sequence[TrainingExample]] = None,
) -> EvalReport:
    """Next-item metrics for one of the reference baselines.

    "pop" ranks by training click counts, "sknn" by neighbor-similarity sums
    (a case with no neighbors counts as a miss), "itemknn" by item-to-item
    cosine against the prefix's final click.
    """
    if name not in BASELINES:
        raise ConfigError(f"unknown baseline {name!r}, expected one of {BASELINES}")
    _check_cutoffs(cutoffs)
    if cases is None:
        cases = test_examples(corpus)
    if not cases:
        raise ConfigError("no test cases to evaluate")

    if name == "pop":
        static = pop_scores(corpus)
        ranks = [rank_of(static, ex.label) for ex in cases]
    elif name == "itemknn":
        knn = ItemKnn(corpus)
        ranks = [rank_of(knn.scores(ex.prefix), ex.label) for ex in cases]
    else:
        ranks = sknn_ranks(build_index(corpus), cases, retrieval, len(corpus.vocab))
    return report_from_ranks(ranks, cutoffs)


def sknn_ranks(
    index: InvertedIndex,
    cases: Sequence[TrainingExample],
    retrieval: RetrievalConfig,
    n_items: int,
) -> list[Optional[int]]:
    """Each case's :func:`rank_of` under session-kNN scores, None with no neighbors.

    Each ``SKNN_CHUNK`` of cases is one retrieval, one :func:`sknn_sums` and one
    ranking pass over the items its neighbors hold; every other item scores 0,
    so it ties a zero-scored target, and ranks ahead of it only from below.
    """
    labels = [ex.label for ex in cases]
    for label in labels:  # the pass indexes with them, and an empty row reads none
        _check_target(label, n_items)
    labels = np.array(labels, dtype=np.int64)
    ranks: list[Optional[int]] = []
    for start in range(0, len(cases), SKNN_CHUNK):
        chunk = cases[start : start + SKNN_CHUNK]
        found = precompute_neighbors(index, chunk, retrieval)
        keys, sums = sknn_sums(found, index, n_items)
        if not len(keys):
            ranks.extend([None] * len(chunk))
            continue
        firsts = np.arange(len(chunk)) * n_items  # each case's smallest key
        targets = firsts + labels[start : start + SKNN_CHUNK]
        at = keys.searchsorted(targets)  # touched keys below the target, from the start
        hit = np.minimum(at, len(keys) - 1)
        t = np.where(keys[hit] == targets, sums[hit], 0.0)
        owner = keys // n_items
        better = np.bincount(owner[sums > t[owner]], minlength=len(chunk))
        tied = (sums == t[owner]) & (keys < targets[owner])
        tied_before = np.bincount(owner[tied], minlength=len(chunk))
        untouched_below = targets - firsts - (at - keys.searchsorted(firsts))
        rank = 1 + better + tied_before + np.where(t == 0, untouched_below, 0)
        empty = (found.offsets[1:] == found.offsets[:-1]).tolist()
        ranks.extend(None if none else r for none, r in zip(empty, rank.tolist()))
    return ranks
