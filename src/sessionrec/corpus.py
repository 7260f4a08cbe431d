"""Click-stream corpora: ingestion, filtering, time splits, and persistence.

A corpus is an ordered sequence of sessions (each an ordered list of item
indices) plus the vocabulary that maps raw item keys to dense indices. Sessions
are kept in chronological order of their first click and carry dense ids equal
to their position, so "more recent" and "higher id" mean the same thing
everywhere. Every corpus stores its clicks only as flat arrays,
:attr:`SessionCorpus.clicks`: ingestion, edits, checks and saves work on those,
and reading one of its sessions builds a fresh copy (:class:`SessionRows`).
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .config import check_at_least, check_types
from .errors import CorpusError
from .files import read_json_object, write_atomic

CORPUS_FORMAT_VERSION = 2
VOCAB_FORMAT_VERSION = 1
CORPUS_FILENAME = "corpus.bin"
VOCAB_FILENAME = "vocab.json"
_HEADER = struct.Struct("<BIIQ")  # version, sessions, train sessions, clicks


@dataclass
class PreprocessConfig:
    """Filter and split settings of the preprocess command."""

    min_support: int = 5
    min_len: int = 2
    test_window: int = 86400  # seconds
    fraction: Optional[str] = None  # e.g. "1/4": keep that share of recent training

    def validate(self) -> None:
        check_types(self)
        check_at_least(self, 1, "min_support", "min_len")


@dataclass(frozen=True)
class Event:
    """One click: session key, epoch-second timestamp, item key."""

    session_key: str
    timestamp: int
    item_key: str


@dataclass(slots=True)  # built on every read of a corpus session: no per-instance __dict__
class Session:
    """An ordered click sequence of vocabulary indices; iterates and measures as its items."""

    id: int
    items: list[int]
    start_time: int

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)


@dataclass(frozen=True)
class TrainingExample:
    """A session prefix paired with the click that followed it."""

    prefix: tuple[int, ...]
    label: int
    session_id: int
    start_time: int


class ItemVocab:
    """Bijection between raw item keys and dense indices [0, n)."""

    def __init__(self, keys: Sequence[str], counts: Sequence[int]):
        self._keys = list(keys)
        self._counts = list(counts)
        self._index = {k: i for i, k in enumerate(self._keys)}
        if len(self._index) != len(self._keys):
            raise CorpusError("duplicate item keys in vocabulary")
        if len(self._counts) != len(self._keys):
            raise CorpusError("vocabulary counts do not align with keys")

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def index(self, key: str) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise CorpusError(f"unknown item key: {key!r}") from None

    def key(self, index: int) -> str:
        if not 0 <= index < len(self._keys):
            raise CorpusError(f"item index out of range: {index}")
        return self._keys[index]

    @property
    def keys(self) -> list[str]:
        return list(self._keys)

    @property
    def counts(self) -> list[int]:
        return list(self._counts)


class Clicks(NamedTuple):
    """Every session's clicks in flat read-only arrays: session s started at
    ``start_time[s]`` and clicked ``items[offsets[s]:offsets[s + 1]]``."""

    start_time: np.ndarray  # int64, one per session
    offsets: np.ndarray  # int64, one per session plus one
    items: np.ndarray  # integer item indices, in session order


ITER_BLOCK = 512  # sessions per tolist() when iterating a SessionRows: about 0.1 MB of ints


class SessionRows(Sequence[Session]):
    """The sessions at ``rows`` of a :class:`Clicks`, read-only: reading a position
    builds a fresh :class:`Session` whose id is its row; a slice is another view."""

    def __init__(self, clicks: Clicks, rows: range):
        self.clicks, self.rows = clicks, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SessionRows(self.clicks, self.rows[index])
        sid = self.rows[index]
        start_time, offsets, items = self.clicks
        return Session(sid, items[offsets[sid] : offsets[sid + 1]].tolist(), int(start_time[sid]))

    def __iter__(self) -> Iterator[Session]:
        """The same sessions as indexing, each block of ``ITER_BLOCK`` sliced from one
        ``tolist()`` of its clicks instead of one array slice per session."""
        start_time, offsets, items = self.clicks
        for lo in range(0, len(self.rows), ITER_BLOCK):
            ids = self.rows[lo : lo + ITER_BLOCK]
            rows = np.arange(ids.start, ids.stop, ids.step)
            flat, lengths = gather_rows(offsets, items, rows)
            flat, begin = flat.tolist(), 0
            for sid, end, start in zip(ids, np.cumsum(lengths).tolist(), start_time[rows].tolist()):
                yield Session(sid, flat[begin:end], start)
                begin = end

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def gather_rows(
    offsets: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``values[offsets[r]:offsets[r + 1]]`` for each r in ``rows``, concatenated,
    and the length of each."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    # position j of segment s is starts[s] + j; arange supplies j plus the
    # lengths of the segments before s, which the repeat takes back off
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return values[np.arange(len(shift)) + shift], lengths


def row_offsets(lengths) -> np.ndarray:
    """CSR offsets of rows with these lengths: where each row starts, then the total."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _columns(sessions: Sequence[Session]) -> tuple[Clicks, int]:
    """The clicks of ``sessions``, read in one walk, and the first position whose
    session's id is not that position (their count when there is none)."""
    starts, lengths, flat, misnumbered = [], [], [], len(sessions)
    for p, s in enumerate(sessions):
        if s.id != p and p < misnumbered:
            misnumbered = p
        starts.append(s.start_time)
        lengths.append(len(s.items))
        flat += s.items
    columns = Clicks(np.array(starts, np.int64), row_offsets(lengths), np.array(flat, np.int64))
    return columns, misnumbered


def _first(mask: np.ndarray) -> int:
    """Position of the first true entry, or the length when there is none."""
    return int(mask.argmax()) if mask.any() else len(mask)


class SessionCorpus:
    """Chronologically ordered sessions with a train/test boundary, stored only
    as their :class:`Clicks`.

    ``sessions[:train_count]`` is the training partition, the remainder is the
    test partition (empty until :func:`split_by_time` runs). ``sessions`` is a
    :class:`SessionRows` view of fresh copies. Given :class:`Session` objects
    instead of clicks, the corpus copies them into clicks and keeps the first
    position whose id differs from it for :meth:`validate`. A corpus is not
    changed after construction: functions that edit one build a new corpus.
    """

    def __init__(
        self, sessions: Union[Clicks, Sequence[Session]], vocab: ItemVocab, train_count: int
    ):
        if isinstance(sessions, Clicks):
            clicks, self._misnumbered = sessions, len(sessions.start_time)
        else:
            clicks, self._misnumbered = _columns(sessions)
        for column in clicks:
            column.flags.writeable = False
        self.clicks, self.vocab, self.train_count = clicks, vocab, train_count
        self.sessions = SessionRows(clicks, range(len(clicks.start_time)))

    def train_sessions(self) -> Sequence[Session]:
        return self.sessions[: self.train_count]

    def test_sessions(self) -> Sequence[Session]:
        return self.sessions[self.train_count :]

    def validate(self) -> None:
        """Check the invariants; raise CorpusError naming the first session, in
        order, whose id is not its position, that is empty, holds an item outside
        the vocabulary or starts before the one before it. Only then must the
        train count lie in [0, sessions] and every test item occur in training."""
        start_time, offsets, items = self.clicks
        n = len(start_time)
        bad_item = _first((items < 0) | (items >= len(self.vocab)))
        pos, message = min(  # the first failing session; on a tie, the check made first
            (self._misnumbered, "session ids not dense at position {}"),
            (_first(offsets[1:] == offsets[:-1]), "session {} is empty"),
            (offsets.searchsorted(bad_item, "right") - 1, "session {} has out-of-range item index"),
            (1 + _first(start_time[1:] < start_time[:-1]), "sessions are not in chronological order"),
            key=lambda check: check[0],
        )
        if pos < n:
            raise CorpusError(message.format(pos))
        if not 0 <= self.train_count <= n:
            raise CorpusError(f"train count {self.train_count} is outside [0, {n}]")
        cut = offsets[self.train_count]
        unseen = cut + _first(~np.isin(items[cut:], items[:cut]))
        if unseen < len(items):
            pos = offsets.searchsorted(unseen, "right") - 1
            raise CorpusError(f"test session {pos} contains items absent from training")


def parse_timestamp(text: str) -> int:
    """Parse epoch seconds (integer or float) or ISO-8601 text to int64 seconds."""
    text = text.strip()
    for parse in (int, float):
        try:
            seconds = parse(text)
            break
        except ValueError:
            pass
    else:
        iso = text.replace("Z", "+00:00") if text.endswith("Z") else text
        try:
            dt = datetime.fromisoformat(iso)
        except ValueError:
            raise CorpusError(f"unparseable timestamp: {text!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        seconds = dt.timestamp()
    if not -(2**63) <= seconds < 2**63:  # also false for nan
        raise CorpusError(f"timestamp is not a finite int64 second count: {text!r}")
    return int(seconds)


def _first_undecodable_line(path: Union[str, Path]) -> int:
    with open(path, encoding="latin-1", newline="") as fh:  # raw bytes, in csv's lines
        lines = enumerate((line.encode("latin-1") for line in fh), 1)  # bad bytes won't round-trip
        return next((n for n, b in lines if b.decode(errors="replace").encode() != b), 0)


def read_events_csv(
    path: Union[str, Path],
    delimiter: str = ",",
    session_col: int = 0,
    time_col: int = 1,
    item_col: int = 2,
    skip_header: bool = False,
) -> Iterator[Event]:
    """Stream events from a delimited UTF-8 file.

    Column positions are zero-based. A delimiter that is not one character, a
    negative column, and rows that are too short or not UTF-8, that csv cannot
    split or that carry a bad timestamp raise CorpusError, naming the line.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise CorpusError(f"delimiter must be one character, got {delimiter!r}")
    for name, col in (("session", session_col), ("time", time_col), ("item", item_col)):
        if col < 0:
            raise CorpusError(f"{name} column must be >= 0, got {col}")
    want = max(session_col, time_col, item_col) + 1
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            for record, row in enumerate(reader):
                if skip_header and record == 0:
                    continue
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < want:
                    raise CorpusError(
                        f"line {reader.line_num}: expected {want} columns, got {len(row)}"
                    )
                try:
                    ts = parse_timestamp(row[time_col])
                except CorpusError as exc:
                    raise CorpusError(f"line {reader.line_num}: {exc}") from None
                session_key = row[session_col].strip()
                item_key = row[item_col].strip()
                if not session_key or not item_key:
                    raise CorpusError(f"line {reader.line_num}: empty session or item key")
                yield Event(session_key, ts, item_key)
        except UnicodeDecodeError:
            raise CorpusError(f"line {_first_undecodable_line(path)}: not UTF-8 text") from None
        except csv.Error as exc:
            raise CorpusError(f"line {reader.line_num}: {exc}") from None


def ingest_events(events: Iterable[Event]) -> SessionCorpus:
    """Group events into sessions, order everything chronologically, build the vocab.

    Events within a session are sorted by timestamp (ties keep input order);
    sessions are sorted by their first click. Item indices are assigned in
    first-occurrence order over that chronological stream, so two ingests of the
    same events produce identical corpora.
    """
    groups: dict[str, list[tuple[int, str]]] = {}
    for ev in events:
        groups.setdefault(ev.session_key, []).append((ev.timestamp, ev.item_key))
    if not groups:
        raise CorpusError("no events to ingest")

    ordered = sorted((sorted(evs, key=lambda e: e[0]) for evs in groups.values()),
                     key=lambda evs: evs[0][0])  # stable: ties keep their first-appearance order
    index: dict[str, int] = {}
    flat = [index.setdefault(key, len(index)) for evs in ordered for _ts, key in evs]
    starts, lengths = [evs[0][0] for evs in ordered], [len(evs) for evs in ordered]
    return _rebuild(starts, lengths, flat, list(index).__getitem__, len(ordered))


def first_occurrences(*keys) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key's first position, ascending, and every key's index among
    those positions: the keys numbered in first-occurrence order.

    Several equal-length key arrays make one key per position, the tuple of
    their entries, so no combined code can collide or overflow.
    """
    order = np.lexsort(keys)  # stable: each run of equal keys starts at its first position
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = np.asarray(key)[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    first = order[new]
    by_first = np.argsort(first)
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.argsort(by_first)[np.cumsum(new) - 1]
    return first[by_first], number


def _rebuild(
    start_time, lengths, items, key_of: Callable[[int], str], train_count: int
) -> SessionCorpus:
    """The sessions of these start times and lengths over the flat ``items``, with
    dense item indices re-assigned in first-occurrence order; ``key_of`` maps an
    old index to its raw key."""
    old = np.asarray(items)
    first, items = first_occurrences(old)
    vocab = ItemVocab([key_of(k) for k in old[first].tolist()],
                      np.bincount(items, minlength=len(first)).tolist())
    clicks = Clicks(np.asarray(start_time, np.int64), row_offsets(lengths), items)
    return SessionCorpus(clicks, vocab, train_count)


def filter_corpus(
    corpus: SessionCorpus,
    min_support: int = PreprocessConfig.min_support,
    min_len: int = PreprocessConfig.min_len,
) -> SessionCorpus:
    """Iterate support and length filters to a fixed point, then re-index densely.

    An item's support is its total click count over the surviving sessions.
    Dropping rare items can shorten sessions below ``min_len``; dropping those
    sessions can push other items under ``min_support``, hence the loop. Meant
    to run before splitting: the result has no test partition.

    Raises CorpusError if nothing survives.
    """
    view, n = corpus.clicks, len(corpus.sessions)
    owner = np.repeat(np.arange(n), np.diff(view.offsets))  # the session of each click
    kept = np.ones(len(view.items), dtype=bool)
    while True:
        support = np.bincount(view.items[kept], minlength=len(corpus.vocab))
        pruned = kept & (support >= min_support)[view.items]
        long_enough = np.bincount(owner[pruned], minlength=n) >= min_len
        pruned &= long_enough[owner]
        if np.array_equal(pruned, kept):
            break
        kept = pruned
    if not long_enough.any():
        raise CorpusError("filtering removed every session")
    lengths = np.bincount(owner[kept], minlength=n)[long_enough]
    return _rebuild(view.start_time[long_enough], lengths, view.items[kept], corpus.vocab.key,
                    train_count=len(lengths))


def split_by_time(corpus: SessionCorpus, test_window: int) -> SessionCorpus:
    """Mark sessions starting in the final ``test_window`` seconds as test data.

    The cutoff is ``max_start - test_window``; sessions starting strictly after
    it become the test partition. Test sessions containing any item that never
    occurs in training are dropped, and the vocabulary is re-indexed to the
    training items so every test index is trained.

    Raises CorpusError for a non-positive or span-covering window, or when
    either partition ends up empty.
    """
    if test_window <= 0:
        raise CorpusError("test window must be positive")
    starts = corpus.clicks.start_time
    span = int(starts.max()) - int(starts.min())
    if test_window >= span:
        raise CorpusError(f"test window ({test_window}s) covers the whole corpus span ({span}s)")
    late = starts > int(starts.max()) - test_window
    train_count = len(late) - int(late.sum())
    if train_count in (0, len(late)):
        raise CorpusError("degenerate split: empty train or test partition")

    # train sessions first, then test, each in its own order
    split = _keep_trained(corpus, np.argsort(late, kind="stable"), train_count)
    if split.train_count == len(split.sessions):
        raise CorpusError("every test session contains items unseen in training")
    return split


def drop_unseen_test_sessions(corpus: SessionCorpus) -> SessionCorpus:
    """Drop test sessions with items missing from training and re-index.

    Restores the "every test item is trained" invariant after operations that
    shrink the training partition (see :func:`take_recent_fraction`).
    """
    return _keep_trained(corpus, np.arange(len(corpus.sessions)), corpus.train_count)


def _keep_trained(corpus: SessionCorpus, rows: np.ndarray, train_count: int) -> SessionCorpus:
    """Re-index the sessions at ``rows``, the first ``train_count`` of them training
    ones, dropping each later one that clicks an item no training one does."""
    start_time, offsets, items = corpus.clicks
    flat, lengths = gather_rows(offsets, items, rows)
    owner = np.repeat(np.arange(len(rows)), lengths)  # the row of each click
    trained = flat[: lengths[:train_count].sum()]
    keep = np.bincount(owner[~np.isin(flat, trained)], minlength=len(rows)) == 0
    return _rebuild(start_time[rows][keep], lengths[keep], flat[keep[owner]], corpus.vocab.key,
                    train_count)


def take_recent_fraction(
    corpus: SessionCorpus, fraction: Union[str, float, Fraction]
) -> SessionCorpus:
    """Keep only the ceil(fraction * |train|) most recent training sessions.

    Test sessions with items the kept sessions never click are dropped, so the
    result passes :meth:`SessionCorpus.validate`. Accepts fractions as "1/4"
    strings, floats, or Fraction instances.
    """
    try:
        frac = Fraction(fraction)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        raise CorpusError(f"fraction must read like '1/4' or 0.25, got {fraction!r}") from None
    if not 0 < frac <= 1:
        raise CorpusError(f"fraction must be in (0, 1], got {frac}")
    keep = math.ceil(frac * corpus.train_count)
    return _keep_trained(corpus, np.arange(corpus.train_count - keep, len(corpus.sessions)), keep)


def augment(session: Session) -> list[TrainingExample]:
    """Expand a session into (prefix, next-click) examples, shortest first."""
    items = session.items
    return [
        TrainingExample(tuple(items[:i]), items[i], session.id, session.start_time)
        for i in range(1, len(items))
    ]


def save_corpus(corpus: SessionCorpus, directory: Union[str, Path]) -> None:
    """Validate a corpus, then write corpus.bin and vocab.json into a directory.

    corpus.bin is format 2, columnar and little-endian: a header of u8 version,
    u32 session count, u32 train count and u64 click count, then every
    session's i64 start time, every session's u32 length, and the u32 items of
    all clicks in session order. Format 1 files (one record per session) must
    be preprocessed again. Save/load/save round-trips are bit-identical.
    """
    corpus.validate()  # so every item fits its u32 and the file loads back
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    start_time, offsets, items = corpus.clicks
    header = _HEADER.pack(CORPUS_FORMAT_VERSION, len(start_time), corpus.train_count, len(items))
    columns = [start_time.astype("<i8", copy=False), np.diff(offsets).astype("<u4"),
               items.astype("<u4", copy=False)]
    write_atomic(directory / CORPUS_FILENAME, [header, *columns])
    vocab_doc = {
        "version": VOCAB_FORMAT_VERSION,
        "items": corpus.vocab.keys,
        "counts": corpus.vocab.counts,
    }
    text = json.dumps(vocab_doc, ensure_ascii=False, separators=(",", ":")) + "\n"
    write_atomic(directory / VOCAB_FILENAME, [text.encode("utf-8")])


def load_corpus(directory: Union[str, Path]) -> SessionCorpus:
    """Read a corpus saved by :func:`save_corpus`; its sessions are a
    :class:`SessionRows` view over the file's columns."""
    directory = Path(directory)
    try:
        blob = (directory / CORPUS_FILENAME).read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus from {directory}: {exc}") from None
    if blob and blob[0] != CORPUS_FORMAT_VERSION:
        raise CorpusError(f"unsupported corpus format version {blob[0]}: re-run preprocess")
    if len(blob) < _HEADER.size:
        raise CorpusError("corpus.bin truncated")
    _, n_sessions, train_count, n_clicks = _HEADER.unpack_from(blob)
    if len(blob) != _HEADER.size + 12 * n_sessions + 4 * n_clicks:
        raise CorpusError(f"corpus.bin size {len(blob)} does not match its header")
    if train_count > n_sessions:
        raise CorpusError("corpus.bin train boundary out of range")
    start_time = np.frombuffer(blob, "<i8", n_sessions, _HEADER.size)
    lengths = np.frombuffer(blob, "<u4", n_sessions, _HEADER.size + 8 * n_sessions)
    items = np.frombuffer(blob, "<u4", n_clicks, _HEADER.size + 12 * n_sessions)
    offsets = row_offsets(lengths)
    if offsets[-1] != n_clicks:
        raise CorpusError("corpus.bin session lengths do not add up to its click count")

    vocab_doc = read_json_object(directory / VOCAB_FILENAME, CorpusError)
    version = vocab_doc.get("version")
    if type(version) is not int or version != VOCAB_FORMAT_VERSION:
        raise CorpusError("unsupported vocab format version")
    keys, counts = vocab_doc.get("items"), vocab_doc.get("counts")
    if not (isinstance(keys, list) and all(isinstance(k, str) for k in keys)):
        raise CorpusError("vocab.json items must be a list of strings")
    if not (isinstance(counts, list) and all(type(c) is int and c >= 0 for c in counts)):
        raise CorpusError("vocab.json counts must be a list of non-negative integers")
    corpus = SessionCorpus(Clicks(start_time, offsets, items), ItemVocab(keys, counts), train_count)
    corpus.validate()
    return corpus
