"""Ranking metrics and evaluation drivers for models and baselines.

Scores are turned into 1-based ranks with a deterministic tie rule: an item
beats the target only with a strictly higher score, and among equal scores the
lower item index wins. Recall@N counts ranks within the cutoff; MRR@N averages
reciprocal ranks, zero beyond the cutoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import ItemKnn, pop_scores, sknn_scores
from .corpus import SessionCorpus, TrainingExample, augment
from .errors import ConfigError
from .model import ModelConfig, ModelParams, forward_batch
from .neighbors import InvertedIndex, Neighbors, RetrievalConfig, build_index, neighbors

BASELINES = ("pop", "sknn", "itemknn")
# Cases per packed forward in evaluate_model. The tape holds a chunk's (N, heads,
# d) node blocks and (E, heads, 1) edge weights, so this bounds evaluation memory.
EVAL_CHUNK = 16


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


def rank_of(scores: np.ndarray, target: int) -> int:
    """1-based rank of the target under the deterministic tie rule."""
    t = scores[target]
    better = int(np.count_nonzero(scores > t))
    tied_before = int(np.count_nonzero(scores[:target] == t))
    return 1 + better + tied_before


def report_from_ranks(
    ranks: Sequence[Optional[int]], cutoffs: Sequence[int] = (5, 10)
) -> EvalReport:
    """Aggregate ranks (None = miss, e.g. no neighbors to score with)."""
    if not ranks:
        raise ConfigError("cannot build a report from zero cases")
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


def _collect_ranks(
    cases: Sequence[TrainingExample],
    score_one: Callable[[TrainingExample], Optional[np.ndarray]],
) -> list[Optional[int]]:
    """Rank every case; a case scored None (no neighbors) is a miss."""
    return [
        None if (scores := score_one(ex)) is None else rank_of(scores, ex.label)
        for ex in cases
    ]


def test_examples(corpus: SessionCorpus) -> list[TrainingExample]:
    """Every (prefix, next item) prediction case in the test partition."""
    out: list[TrainingExample] = []
    for s in corpus.test_sessions():
        out.extend(augment(s))
    return out


def neighbors_of_cases(
    index: InvertedIndex, cases: Sequence[TrainingExample], retrieval: RetrievalConfig
) -> list[Neighbors]:
    """Each case's neighbor sessions, retrieved with its session start time as "now"."""
    return [neighbors(index, ex.prefix, now=ex.start_time, **vars(retrieval)) for ex in cases]


def evaluate_model(
    params: ModelParams,
    config: ModelConfig,
    corpus: SessionCorpus,
    retrieval: RetrievalConfig = RetrievalConfig(),
    cutoffs: Sequence[int] = (5, 10),
    index: Optional[InvertedIndex] = None,
    cases: Optional[Sequence[TrainingExample]] = None,
    case_neighbors: Optional[Sequence[Neighbors]] = None,
) -> EvalReport:
    """Next-item metrics for a trained model over the corpus test partition.

    Neighbor retrieval searches the training partition only, with each case's
    session start time as "now". Cases are scored EVAL_CHUNK at a time, each
    chunk as one packed forward. Pass ``cases`` to evaluate a custom case list
    (the trainer's validation split does), and ``case_neighbors``, one list
    per case as ``neighbors_of_cases`` returns them, to skip retrieval.
    """
    if index is None:
        index = build_index(corpus)
    if cases is None:
        cases = test_examples(corpus)
    if not cases:
        raise ConfigError("no test cases to evaluate")

    ranks: list[Optional[int]] = []
    for start in range(0, len(cases), EVAL_CHUNK):
        chunk = cases[start : start + EVAL_CHUNK]
        if case_neighbors is None:
            found = neighbors_of_cases(index, chunk, retrieval)
        else:
            found = case_neighbors[start : start + EVAL_CHUNK]
        neighbor_lists = [[corpus.sessions[sid] for sid, _ in nbrs] for nbrs in found]
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
    if cases is None:
        cases = test_examples(corpus)
    if not cases:
        raise ConfigError("no test cases to evaluate")

    if name == "pop":
        static = pop_scores(corpus)
        score_one = lambda ex: static
    elif name == "itemknn":
        knn = ItemKnn(corpus)
        score_one = lambda ex: knn.scores(ex.prefix)
    else:
        index = build_index(corpus)
        n_items = len(corpus.vocab)

        def score_one(ex: TrainingExample) -> Optional[np.ndarray]:
            nbrs = neighbors(index, ex.prefix, now=ex.start_time, **vars(retrieval))
            if not nbrs:
                return None
            return sknn_scores(nbrs, index, n_items)

    return report_from_ranks(_collect_ranks(cases, score_one), cutoffs)
