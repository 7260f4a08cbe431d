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

Queries run ``EVAL_CHUNK`` at a time. A chunk's posting windows are keyed by
(query, session id) and sorted once; a candidate's shared-item count is the
run length of its key, so scoring never reads a candidate's items. That count
is exact for the newest ``m`` of a query's union: such a candidate lies in the
window of every query item whose posting list holds it, since a window that
missed it would hold ``m`` newer ids. Results come back as a
:class:`NeighborTable` of flat arrays, with no Python object per neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import check_at_least, check_types, section_from_dict
from .corpus import SessionCorpus, TrainingExample, gather_rows, row_offsets
from .errors import ConfigError, RetrievalError

Neighbors = list[tuple[int, float]]
"""(session id, similarity) pairs, similarity descending, newer first on ties."""

# Queries per retrieval pass, and cases per packed forward in evaluation. The
# tape holds a chunk's (N, heads, d) node blocks and (E, heads, 1) edge weights,
# and a pass sorts a chunk's posting windows at once, so this bounds memory.
EVAL_CHUNK = 16


@dataclass
class RetrievalConfig:
    """Neighbor search knobs shared by training, evaluation and serving.

    ``neighbors(index, prefix, now=..., **vars(config))`` runs one search;
    :func:`precompute_neighbors` and :func:`retrieve` run a batch.
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
class NeighborTable:
    """Neighbours of a batch of queries in CSR form, one row per query.

    Row r holds ``ids[offsets[r]:offsets[r + 1]]`` and the matching ``sims``,
    similarity descending and newer first on ties.
    """

    ids: np.ndarray  # int64 session ids
    sims: np.ndarray  # float64 similarities
    offsets: np.ndarray  # int64, one more than the row count

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, row: int) -> Neighbors:
        """One row as (session id, similarity) pairs of Python numbers."""
        row = range(len(self))[row]
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return list(zip(self.ids[lo:hi].tolist(), self.sims[lo:hi].tolist()))

    def select(self, rows: Sequence[int]) -> "NeighborTable":
        """A table of the given rows, in the given order."""
        rows = np.asarray(rows)
        if rows.size and rows.dtype.kind not in "iu":
            raise RetrievalError(f"rows must be integers, got {rows.dtype}")
        rows = rows.astype(np.int64, copy=False)
        # read as unsigned, a negative row is huge, so one max checks both ends
        if rows.size and np.maximum.reduce(rows.view(np.uint64)) >= len(self):
            raise RetrievalError(f"rows must lie in [0, {len(self)})")
        ids, lengths = gather_rows(self.offsets, self.ids, rows)
        sims, _ = gather_rows(self.offsets, self.sims, rows)
        return NeighborTable(ids, sims, row_offsets(lengths))


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
        sids = np.asarray(sids)
        if sids.dtype.kind not in "iu":
            raise RetrievalError(f"session ids must be integers, got {sids.dtype}")
        sids = sids.astype(np.int64, copy=False)
        # read as unsigned, a negative id is huge, so one max checks both ends
        if sids.size and np.maximum.reduce(sids.view(np.uint64)) >= len(self):
            raise RetrievalError(f"session ids must lie in [0, {len(self)})")
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


def _check(config: RetrievalConfig) -> None:
    try:  # the validate() of every config section raises ConfigError
        config.validate()
    except ConfigError as exc:
        raise RetrievalError(str(exc)) from None


def _windows(
    index: InvertedIndex, items: Iterable[int], m: int, cutoff: int
) -> list[np.ndarray]:
    """The newest ``m`` ids below ``cutoff`` of each item's posting list."""
    windows = []
    for item in items:
        ids = index.postings.get(item)
        if ids is None:
            continue
        hi = int(ids.searchsorted(cutoff))
        if hi:
            windows.append(ids[max(0, hi - m) : hi])
    return windows


def _cutoff(index: InvertedIndex, now: Optional[int]) -> int:
    return len(index) if now is None else int(index.start_time.searchsorted(now))


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
    _check(RetrievalConfig(m=m))
    windows = _windows(index, dict.fromkeys(prefix), m, _cutoff(index, now))
    if not windows:
        return np.zeros(0, dtype=np.int64)
    pool = windows[0]
    if len(windows) > 1:
        pool = np.concatenate(windows)
        pool.sort()
        pool = pool[np.concatenate((pool[1:] != pool[:-1], [True]))][-m:]
    return pool[::-1]


def _no_neighbors(n_queries: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.zeros(0, np.int64), np.zeros(0, np.float64), np.zeros(n_queries, np.int64)


def _retrieve_chunk(
    index: InvertedIndex,
    prefixes: Sequence[Sequence[int]],
    nows: Sequence[Optional[int]],
    config: RetrievalConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, sims, neighbours per query) for a few queries in one sorted pass."""
    n, m = len(index), config.m
    windows: list[np.ndarray] = []
    owners: list[int] = []
    lq = np.zeros(len(prefixes), dtype=np.int64)
    for query, (prefix, now) in enumerate(zip(prefixes, nows)):
        if not prefix:
            raise RetrievalError("cannot retrieve candidates for an empty prefix")
        items = dict.fromkeys(prefix)
        lq[query] = len(prefix) if config.raw_length else len(items)
        found = _windows(index, items, m, _cutoff(index, now))
        windows.extend(found)
        owners.extend([query] * len(found))
    if not windows:
        return _no_neighbors(len(prefixes))

    owner = np.repeat(np.array(owners, dtype=np.int64), [len(w) for w in windows])
    keys = np.concatenate(windows)
    keys += owner * n
    # a query's keys lie in [query * n, (query + 1) * n), so the sort leaves
    # each one in its query's block and ``owner`` still holds
    keys.sort(kind="stable")  # merges the windows' ascending runs
    runs = np.ones(len(keys) + 1, dtype=bool)  # where runs of equal keys start, then the end
    np.not_equal(keys[1:], keys[:-1], out=runs[1:-1])
    runs = np.flatnonzero(runs)
    first, shared = runs[:-1], runs[1:] - runs[:-1]  # shared: windows holding the key
    owner = owner[first]
    sid = keys[first] - owner * n

    if config.raw_length:
        ls = index.raw_len[sid]
    else:
        ls = index.offsets[sid + 1] - index.offsets[sid]
    sim = shared / np.sqrt(lq[owner] * ls)
    # most candidates fail the threshold, so the recency test reads only the rest
    kept = np.flatnonzero(sim >= config.threshold)  # indices gather faster than a mask selects
    if len(sid) > m:
        # keys ascend by (query, id), so a query's newest m candidates are its last m
        ends = np.cumsum(np.bincount(owner, minlength=len(prefixes)))
        kept = kept[ends[owner[kept]] - kept <= m]
    kept = kept[::-1]  # each query's survivors newest first
    owner, sid, sim = owner[kept], sid[kept], sim[kept]
    # per query: similarity descending, and the stable sort keeps the newer
    # session first among equals; best k
    order = np.lexsort((-sim, owner))
    per_query = np.bincount(owner, minlength=len(prefixes))
    if len(order) > config.k:
        starts = np.cumsum(per_query) - per_query
        order = order[np.arange(len(order)) - starts[owner[order]] < config.k]
        per_query = np.minimum(per_query, config.k)
    return sid[order], sim[order], per_query


def retrieve(
    index: InvertedIndex,
    prefixes: Sequence[Sequence[int]],
    config: RetrievalConfig,
    nows: Optional[Sequence[Optional[int]]] = None,
) -> NeighborTable:
    """Top-k most similar past sessions for each prefix, ``EVAL_CHUNK`` at a time.

    ``nows[i]`` restricts prefix i to sessions that started strictly earlier
    (None, or no ``nows``: no time restriction). Candidates are the ``m``
    newest sessions sharing an item with the prefix, as :func:`candidates`
    finds them; l(s) comes from the index's offsets (or ``raw_len``);
    sessions below the similarity threshold are discarded; the survivors are
    ranked by similarity with ties going to the more recent session, and the
    best ``k`` are kept.
    """
    _check(config)
    if nows is None:
        nows = [None] * len(prefixes)
    elif len(nows) != len(prefixes):
        raise RetrievalError(f"{len(nows)} times given for {len(prefixes)} prefixes")
    # each chunk goes straight into arrays that ndarray.resize (a realloc) grows
    # by an eighth at a time, so the peak stays near the table instead of
    # holding every chunk and their concatenation at once
    ids, sims, counts = _no_neighbors(len(prefixes))
    filled = 0
    for lo in range(0, len(prefixes), EVAL_CHUNK):
        hi = lo + EVAL_CHUNK
        found, similarity, counts[lo:hi] = _retrieve_chunk(index, prefixes[lo:hi], nows[lo:hi], config)
        end = filled + len(found)
        if end > len(ids):
            size = max(end, len(ids) + len(ids) // 8)
            ids.resize(size, refcheck=False)
            sims.resize(size, refcheck=False)
        ids[filled:end], sims[filled:end] = found, similarity
        filled = end
    ids.resize(filled, refcheck=False)
    sims.resize(filled, refcheck=False)
    return NeighborTable(ids, sims, row_offsets(counts))


def neighbors(
    index: InvertedIndex,
    prefix: Sequence[int],
    k: int = RetrievalConfig.k,
    threshold: float = RetrievalConfig.threshold,
    m: int = RetrievalConfig.m,
    now: Optional[int] = None,
    raw_length: bool = RetrievalConfig.raw_length,
) -> Neighbors:
    """Top-k most similar past sessions for one prefix: :func:`retrieve` of one."""
    return retrieve(index, [prefix], RetrievalConfig(k, threshold, m, raw_length), [now])[0]


def precompute_neighbors(
    index: InvertedIndex,
    cases: Sequence[TrainingExample],
    retrieval: RetrievalConfig,
) -> NeighborTable:
    """Each case's neighbors, one row per case in case order.

    The case's session start time is "now", so a case can only retrieve
    sessions that began strictly earlier: no peeking forward in time, and a
    session never retrieves itself.
    """
    return retrieve(
        index, [ex.prefix for ex in cases], retrieval, [ex.start_time for ex in cases]
    )


def neighbor_clicks(corpus: SessionCorpus, found: NeighborTable) -> list[list[list[int]]]:
    """Each row's neighbour click sequences, cut from ``corpus.clicks`` in one gather."""
    flat, lengths = gather_rows(corpus.clicks.offsets, corpus.clicks.items, found.ids)
    flat, ends = flat.tolist(), np.cumsum(lengths).tolist()
    seqs = iter([flat[lo:hi] for lo, hi in zip([0, *ends], ends)])
    return [list(islice(seqs, n)) for n in np.diff(found.offsets).tolist()]
