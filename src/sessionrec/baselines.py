"""Non-neural scoring baselines: popularity, session-kNN, and item-kNN."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import SessionCorpus
from .errors import RetrievalError
from .neighbors import InvertedIndex, Neighbors


def pop_scores(corpus: SessionCorpus) -> np.ndarray:
    """Training-partition click counts per item; ranking ties break by index."""
    scores = np.zeros(len(corpus.vocab))
    for s in corpus.train_sessions():
        for item in s.items:
            scores[item] += 1.0
    return scores


def sknn_scores(
    neighbor_entries: Neighbors, index: InvertedIndex, n_items: int
) -> np.ndarray:
    """Score items by the summed similarity of the neighbor sessions containing them.

    An empty neighbor list yields all zeros; callers treat that as "no
    recommendation" rather than ranking on ties.
    """
    scores = np.zeros(n_items)
    if not neighbor_entries:
        return scores
    sids, sims = zip(*neighbor_entries)
    items, counts = index.session_items(np.array(sids, dtype=np.int64))
    # unbuffered, in neighbor order: each item sums its similarities as a loop would
    np.add.at(scores, items, np.repeat(sims, counts))
    return scores


class ItemKnn:
    """Item-to-item cosine over session-occurrence indicator vectors.

    sim(i, j) = |sessions(i) & sessions(j)| / sqrt(|sessions(i)| * |sessions(j)|),
    computed over the training partition. A prefix is scored by similarity to
    its final item.
    """

    def __init__(self, corpus: SessionCorpus):
        n = len(corpus.vocab)
        self._session_items: list[list[int]] = []
        self._item_sessions: list[list[int]] = [[] for _ in range(n)]
        for s in corpus.train_sessions():
            items = sorted(set(s.items))
            self._session_items.append(items)
            for item in items:
                self._item_sessions[item].append(s.id)
        self._n_sessions_with = np.array(
            [len(v) for v in self._item_sessions], dtype=np.float64
        )
        self._n_items = n

    def scores(self, prefix: Sequence[int]) -> np.ndarray:
        if not prefix:
            raise RetrievalError("cannot score an empty prefix")
        last = prefix[-1]
        co = np.zeros(self._n_items)
        for sid in self._item_sessions[last]:
            for item in self._session_items[sid]:
                co[item] += 1.0
        n_last = self._n_sessions_with[last]
        if n_last == 0:
            return co  # item never seen in training; nothing to recommend
        denom = np.sqrt(n_last * self._n_sessions_with)
        return np.divide(co, denom, out=np.zeros_like(co), where=denom > 0)
