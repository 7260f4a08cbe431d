"""Inverted-index retrieval of the sessions most similar to a prefix.

Similarity is the cosine between binary item-occurrence vectors: the number of
shared distinct items divided by sqrt(l(a) * l(b)), where l() is the distinct
item count by default (raw click count behind ``raw_length=True``). Recency is
session id order, since ids are assigned chronologically.

The index is a set of numpy arrays. Each item's posting list holds the ids of
the training sessions containing it in ascending order; each session's
distinct items sit in one flat array cut by offsets (CSR form). Training
sessions must be in chronological order (start times never decrease), so the
sessions that start before a cutoff time form an id prefix found by bisection,
and only the newest ``m`` eligible ids of each posting list can be candidates.
A candidate's shared-item count is the number of query items whose posting
list holds it (a binary search), so scoring never reads a candidate's items.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from numbers import Real
from typing import Optional, Sequence

import numpy as np

from .config import check_at_least, check_types, section_from_dict
from .corpus import SessionCorpus, TrainingExample, gather_rows
from .errors import ConfigError, RetrievalError

Neighbors = list[tuple[int, float]]
"""(session id, similarity) pairs, similarity descending, newer first on ties."""


@dataclass
class RetrievalConfig:
    """Neighbor search knobs shared by training, evaluation and serving.

    ``neighbors(index, prefix, now=..., **vars(config))`` runs one search;
    :func:`precompute_neighbors` runs one per prediction case.
    """

    k: int = 120
    threshold: float = 0.5
    m: int = 1000
    raw_length: bool = False

    from_dict = classmethod(section_from_dict)

    def validate(self) -> None:
        check_types(self)
        check_at_least(self, 1, "k", "m")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")


@dataclass(eq=False)
class InvertedIndex:
    """Posting lists and per-session arrays over the training partition."""

    postings: dict[int, np.ndarray]  # item -> ids of sessions containing it, ascending
    items: np.ndarray  # distinct items of every session, ascending within a session
    offsets: np.ndarray  # session s holds items[offsets[s]:offsets[s + 1]]
    raw_len: np.ndarray  # click count per session
    start_time: np.ndarray  # non-decreasing in session id

    def __len__(self) -> int:
        return len(self.raw_len)

    def session_items(self, sids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct items of the given sessions, concatenated in their order,
        and the number contributed by each session."""
        return gather_rows(self.offsets, self.items, sids)


def build_index(corpus: SessionCorpus) -> InvertedIndex:
    """Index the training sessions of a corpus for candidate lookup."""
    view = corpus.clicks
    n = min(corpus.train_count, len(view.start_time))
    start_time = view.start_time[:n].copy()  # aligned and owned by the index
    if np.any(start_time[1:] < start_time[:-1]):
        raise RetrievalError("training sessions are not in chronological order")
    raw_len = np.diff(view.offsets[: n + 1])
    clicks = view.items[: view.offsets[n]]
    # One key per click, ordered by session and then item; a sort puts the
    # repeats of an item within a session next to each other.
    width = int(clicks.max()) + 1 if len(clicks) else 1
    keys = np.repeat(np.arange(n, dtype=np.int64), raw_len) * width + clicks
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    sids, items = np.divmod(keys, width)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sids, minlength=n), out=offsets[1:])

    # Keys ordered by item and then session id keep each posting list ascending.
    posted = np.sort(items * n + sids) % n
    posted.flags.writeable = False  # candidates() hands out views of it
    per_item = np.bincount(items, minlength=width)
    present = np.flatnonzero(per_item)
    ends = np.cumsum(per_item)[present].tolist()  # a list starts where the one before ends
    postings = {
        item: posted[lo:hi] for item, lo, hi in zip(present.tolist(), [0] + ends[:-1], ends)
    }
    return InvertedIndex(postings, items, offsets, raw_len, start_time)


def _check_count(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RetrievalError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise RetrievalError(f"{name} must be >= 1, got {value}")


def candidates(
    index: InvertedIndex,
    prefix: Sequence[int],
    m: int = RetrievalConfig.m,
    now: Optional[int] = None,
) -> np.ndarray:
    """The ``m`` most recent indexed sessions sharing an item with the prefix.

    ``now`` restricts candidates to sessions starting strictly earlier; None
    means no time restriction (ad-hoc queries). Result is an int64 array of
    session ids, newest first, read-only when it is a view of a posting list.
    """
    if not prefix:
        raise RetrievalError("cannot retrieve candidates for an empty prefix")
    _check_count("candidate budget", m)
    cutoff = len(index) if now is None else int(np.searchsorted(index.start_time, now))
    windows = []
    for item in dict.fromkeys(prefix):
        ids = index.postings.get(item)
        if ids is None:
            continue
        hi = int(ids.searchsorted(cutoff))
        if hi:
            windows.append(ids[max(0, hi - m) : hi])
    if not windows:
        return np.zeros(0, dtype=np.int64)
    pool = windows[0]
    if len(windows) > 1:
        pool = np.concatenate(windows)
        pool.sort()
        pool = pool[np.concatenate((pool[1:] != pool[:-1], [True]))][-m:]
    return pool[::-1]


def neighbors(
    index: InvertedIndex,
    prefix: Sequence[int],
    k: int = RetrievalConfig.k,
    threshold: float = RetrievalConfig.threshold,
    m: int = RetrievalConfig.m,
    now: Optional[int] = None,
    raw_length: bool = RetrievalConfig.raw_length,
) -> Neighbors:
    """Top-k most similar past sessions for a prefix.

    Candidates come from :func:`candidates`, and l(s) from the index's
    offsets (or ``raw_len``); sessions below the similarity threshold are
    discarded; the survivors are ranked by similarity with ties
    going to the more recent session, and the best ``k`` are returned.
    """
    _check_count("neighbor count", k)
    if not isinstance(threshold, Real) or isinstance(threshold, bool):
        raise RetrievalError(f"threshold must be a number, got {threshold!r}")
    if not 0.0 <= threshold <= 1.0:
        raise RetrievalError(f"threshold must be in [0, 1], got {threshold}")
    if not isinstance(raw_length, bool):
        raise RetrievalError(f"raw_length must be true or false, got {raw_length!r}")
    found = candidates(index, prefix, m=m, now=now)
    if not len(found):
        return []
    query = dict.fromkeys(prefix)
    # a candidate shares each distinct query item whose posting list holds it
    shared = np.zeros(len(found), dtype=np.int64)
    for item in query:
        ids = index.postings.get(item)
        if ids is not None:
            shared += ids[np.minimum(ids.searchsorted(found), len(ids) - 1)] == found
    lq = len(prefix) if raw_length else len(query)
    ls = index.raw_len[found] if raw_length else index.offsets[found + 1] - index.offsets[found]
    sim = shared / np.sqrt(lq * ls)
    kept = np.flatnonzero(sim >= threshold)
    # candidates are newest first, so ties on similarity break toward the newer id
    best = kept[np.lexsort((kept, -sim[kept]))][:k]
    return list(zip(found[best].tolist(), sim[best].tolist()))


def precompute_neighbors(
    index: InvertedIndex,
    cases: Sequence[TrainingExample],
    retrieval: RetrievalConfig,
) -> list[Neighbors]:
    """Each case's neighbors, one list per case in case order.

    The case's session start time is "now", so a case can only retrieve
    sessions that began strictly earlier: no peeking forward in time, and a
    session never retrieves itself.
    """
    return [neighbors(index, ex.prefix, now=ex.start_time, **vars(retrieval)) for ex in cases]


def neighbor_clicks(corpus: SessionCorpus, found: Sequence[Neighbors]) -> list[list[list[int]]]:
    """Each case's neighbour click sequences, cut from ``corpus.clicks`` in one gather."""
    sids = np.array([sid for nbrs in found for sid, _ in nbrs], dtype=np.intp)
    flat, lengths = gather_rows(corpus.clicks.offsets, corpus.clicks.items, sids)
    flat, ends = flat.tolist(), np.cumsum(lengths).tolist()
    seqs = iter([flat[lo:hi] for lo, hi in zip([0, *ends], ends)])
    return [list(islice(seqs, len(nbrs))) for nbrs in found]
