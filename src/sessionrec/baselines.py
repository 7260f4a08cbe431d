"""Non-neural scoring baselines: popularity, session-kNN, and item-kNN."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import SessionCorpus
from .errors import RetrievalError
from .neighbors import InvertedIndex, NeighborTable, Neighbors, build_index, check_items


def pop_scores(corpus: SessionCorpus) -> np.ndarray:
    """Training-partition click counts per item; ranking ties break by index."""
    view = corpus.clicks
    clicks = view.items[: view.offsets[min(corpus.train_count, len(view.start_time))]]
    return np.bincount(clicks, minlength=len(corpus.vocab)).astype(np.float64)


def sknn_scores(
    neighbor_entries: Neighbors, index: InvertedIndex, n_items: int
) -> np.ndarray:
    """Score items by the summed similarity of the neighbor sessions containing them.

    :func:`sknn_sums` of one row, scattered into zeros. An empty neighbor list
    yields all zeros; callers treat that as "no recommendation" rather than
    ranking on ties.
    """
    sids, sims = zip(*neighbor_entries) if neighbor_entries else ((), ())
    row = NeighborTable(np.array(sids, np.int64), np.array(sims, float), np.array([0, len(sids)]))
    items, sums = sknn_sums(row, index, n_items)
    scores = np.zeros(n_items)
    scores[items] = sums
    return scores


def sknn_sums(
    found: NeighborTable, index: InvertedIndex, n_items: int
) -> tuple[np.ndarray, np.ndarray]:
    """Session-kNN scores of every row of a neighbour table, touched items only.

    Returns the keys ``row * n_items + item`` of the (row, item) pairs some
    neighbour of the row holds, ascending, and each pair's summed similarity;
    every other item of a row scores 0. Each sum adds its similarities in
    neighbour order, as a loop over the row's neighbours would.
    """
    items, counts = index.session_items(found.ids)
    rows = np.repeat(np.arange(len(found)), np.diff(found.offsets))
    keys, slots = np.unique(np.repeat(rows, counts) * n_items + items, return_inverse=True)
    return keys, np.bincount(slots, np.repeat(found.sims, counts))


class ItemKnn:
    """Item-to-item cosine over session-occurrence indicator vectors.

    sim(i, j) = |sessions(i) & sessions(j)| / sqrt(|sessions(i)| * |sessions(j)|),
    computed over the training partition's inverted index. A prefix is scored
    by similarity to its final item.
    """

    def __init__(self, corpus: SessionCorpus):
        self._index = build_index(corpus)
        self._n_sessions_with = np.bincount(self._index.items, minlength=len(corpus.vocab))

    def scores(self, prefix: Sequence[int]) -> np.ndarray:
        if not prefix:
            raise RetrievalError("cannot score an empty prefix")
        check_items(prefix)
        n_with = self._n_sessions_with
        sids = self._index.postings.get(prefix[-1])
        if sids is None:
            return np.zeros(len(n_with))  # item never seen in training
        co = np.bincount(self._index.session_items(sids)[0], minlength=len(n_with))
        denom = np.sqrt(n_with[prefix[-1]] * n_with)
        return np.divide(co, denom, out=np.zeros(len(co)), where=denom > 0)
