"""Click-stream corpora: ingestion, filtering, time splits, and persistence.

A corpus is an ordered list of sessions (each an ordered list of item indices)
plus the vocabulary that maps raw item keys to dense indices. Sessions are kept
in chronological order of their first click and carry dense ids equal to their
position, so "more recent" and "higher id" mean the same thing everywhere.
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
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from .config import check_at_least, check_types
from .errors import CorpusError
from .files import read_json_object, write_atomic

CORPUS_FORMAT_VERSION = 1
VOCAB_FORMAT_VERSION = 1
CORPUS_FILENAME = "corpus.bin"
VOCAB_FILENAME = "vocab.json"


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


@dataclass
class Session:
    """An ordered click sequence with items mapped to vocabulary indices."""

    id: int
    items: list[int]
    start_time: int

    def __len__(self) -> int:
        return len(self.items)


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


@dataclass
class SessionCorpus:
    """Chronologically ordered sessions with a train/test boundary.

    ``sessions[:train_count]`` is the training partition, the remainder is the
    test partition (empty until :func:`split_by_time` runs).
    """

    sessions: list[Session]
    vocab: ItemVocab
    train_count: int

    def train_sessions(self) -> list[Session]:
        return self.sessions[: self.train_count]

    def test_sessions(self) -> list[Session]:
        return self.sessions[self.train_count :]

    def validate(self) -> None:
        """Check the structural invariants; raise CorpusError on violation."""
        n_items = len(self.vocab)
        train_items: set[int] = set()
        prev_start = None
        for pos, s in enumerate(self.sessions):
            if s.id != pos:
                raise CorpusError(f"session ids not dense at position {pos}")
            if not s.items:
                raise CorpusError(f"session {pos} is empty")
            if any(i < 0 or i >= n_items for i in s.items):
                raise CorpusError(f"session {pos} has out-of-range item index")
            if prev_start is not None and s.start_time < prev_start:
                raise CorpusError("sessions are not in chronological order")
            prev_start = s.start_time
            if pos < self.train_count:
                train_items.update(s.items)
        for s in self.test_sessions():
            missing = [i for i in s.items if i not in train_items]
            if missing:
                raise CorpusError(
                    f"test session {s.id} contains items absent from training"
                )


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
    with open(path, "rb") as fh:  # a line holding a bad byte does not survive a round trip
        return next((n for n, b in enumerate(fh, 1) if b.decode(errors="replace").encode() != b), 0)


def read_events_csv(
    path: Union[str, Path],
    delimiter: str = ",",
    session_col: int = 0,
    time_col: int = 1,
    item_col: int = 2,
    skip_header: bool = False,
) -> Iterator[Event]:
    """Stream events from a delimited UTF-8 file.

    Column positions are zero-based. Rows that are too short or not UTF-8, that
    csv cannot split or that carry a bad timestamp raise CorpusError naming the line.
    """
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

    kept: list[tuple[int, list[str]]] = []
    for key in groups:  # dict order = first appearance, kept stable for tied starts
        evs = sorted(groups[key], key=lambda e: e[0])
        kept.append((evs[0][0], [item_key for _ts, item_key in evs]))
    kept.sort(key=lambda t: t[0])
    return _rebuild(kept, str, train_count=len(kept))


def _rebuild(
    kept: list[tuple[int, list]], key_of: Callable[[Any], str], train_count: int
) -> SessionCorpus:
    """Re-assign dense session ids and dense item indices (first-occurrence order);
    ``key_of`` maps each item in ``kept`` to its raw key."""
    remap: dict = {}
    keys: list[str] = []
    counts: list[int] = []
    sessions: list[Session] = []
    for sid, (start, items) in enumerate(kept):
        mapped = []
        for old in items:
            new = remap.get(old)
            if new is None:
                new = len(remap)
                remap[old] = new
                keys.append(key_of(old))
                counts.append(0)
            counts[new] += 1
            mapped.append(new)
        sessions.append(Session(sid, mapped, start))
    return SessionCorpus(sessions, ItemVocab(keys, counts), train_count)


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
    kept = [(s.start_time, list(s.items)) for s in corpus.sessions]
    while True:
        support: dict[int, int] = {}
        for _start, items in kept:
            for i in items:
                support[i] = support.get(i, 0) + 1
        weak = {i for i, c in support.items() if c < min_support}
        changed = False
        surviving: list[tuple[int, list[int]]] = []
        for start, items in kept:
            pruned = [i for i in items if i not in weak] if weak else items
            if len(pruned) != len(items):
                changed = True
            if len(pruned) >= min_len:
                surviving.append((start, pruned))
            else:
                changed = True
        kept = surviving
        if not kept:
            raise CorpusError("filtering removed every session")
        if not changed:
            break
    return _rebuild(kept, corpus.vocab.key, train_count=len(kept))


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
    starts = [s.start_time for s in corpus.sessions]
    span = max(starts) - min(starts)
    if test_window >= span:
        raise CorpusError(
            f"test window ({test_window}s) covers the whole corpus span ({span}s)"
        )
    cutoff = max(starts) - test_window
    train = [s for s in corpus.sessions if s.start_time <= cutoff]
    test = [s for s in corpus.sessions if s.start_time > cutoff]
    if not train or not test:
        raise CorpusError("degenerate split: empty train or test partition")

    split = drop_unseen_test_sessions(SessionCorpus(train + test, corpus.vocab, len(train)))
    if split.train_count == len(split.sessions):
        raise CorpusError("every test session contains items unseen in training")
    return split


def drop_unseen_test_sessions(corpus: SessionCorpus) -> SessionCorpus:
    """Drop test sessions with items missing from training and re-index.

    Restores the "every test item is trained" invariant after operations that
    shrink the training partition (see :func:`take_recent_fraction`).
    """
    train = corpus.train_sessions()
    train_items: set[int] = set()
    for s in train:
        train_items.update(s.items)
    test = [s for s in corpus.test_sessions() if all(i in train_items for i in s.items)]
    kept = [(s.start_time, list(s.items)) for s in train + test]
    return _rebuild(kept, corpus.vocab.key, train_count=len(train))


def take_recent_fraction(
    corpus: SessionCorpus, fraction: Union[str, float, Fraction]
) -> SessionCorpus:
    """Keep only the ceil(fraction * |train|) most recent training sessions.

    The test partition is left untouched, so callers shrinking an already-split
    corpus should follow up with :func:`drop_unseen_test_sessions`. Accepts
    fractions as "1/4" strings, floats, or Fraction instances.
    """
    try:
        frac = Fraction(fraction)
    except (ValueError, ZeroDivisionError):
        raise CorpusError(f"fraction must read like '1/4' or 0.25, got {fraction!r}") from None
    if not 0 < frac <= 1:
        raise CorpusError(f"fraction must be in (0, 1], got {frac}")
    n_train = corpus.train_count
    keep = math.ceil(frac * n_train)
    kept_train = corpus.sessions[n_train - keep : n_train]
    kept = [(s.start_time, list(s.items)) for s in kept_train + corpus.test_sessions()]
    return _rebuild(kept, corpus.vocab.key, train_count=keep)


def augment(session: Session) -> list[TrainingExample]:
    """Expand a session into (prefix, next-click) examples, shortest first."""
    out = []
    for i in range(1, len(session.items)):
        out.append(
            TrainingExample(
                prefix=tuple(session.items[:i]),
                label=session.items[i],
                session_id=session.id,
                start_time=session.start_time,
            )
        )
    return out


def save_corpus(corpus: SessionCorpus, directory: Union[str, Path]) -> None:
    """Write corpus.bin (length-prefixed binary) and vocab.json into a directory.

    corpus.bin layout, little-endian: format version byte at offset 0, then
    u32 session count, u32 train count, and per session an i64 start time,
    u32 length, and that many u32 item indices. Serialization is deterministic,
    so save/load/save round-trips are bit-identical.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    parts = [struct.pack("<BII", CORPUS_FORMAT_VERSION, len(corpus.sessions), corpus.train_count)]
    for s in corpus.sessions:
        parts.append(struct.pack("<qI", s.start_time, len(s.items)))
        parts.append(struct.pack(f"<{len(s.items)}I", *s.items))
    write_atomic(directory / CORPUS_FILENAME, b"".join(parts))
    vocab_doc = {
        "version": VOCAB_FORMAT_VERSION,
        "items": corpus.vocab.keys,
        "counts": corpus.vocab.counts,
    }
    text = json.dumps(vocab_doc, ensure_ascii=False, separators=(",", ":")) + "\n"
    write_atomic(directory / VOCAB_FILENAME, text.encode("utf-8"))


def load_corpus(directory: Union[str, Path]) -> SessionCorpus:
    """Read a corpus saved by :func:`save_corpus`."""
    directory = Path(directory)
    try:
        blob = (directory / CORPUS_FILENAME).read_bytes()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus from {directory}: {exc}") from None
    if len(blob) < 9:
        raise CorpusError("corpus.bin truncated")
    version, n_sessions, train_count = struct.unpack_from("<BII", blob, 0)
    if version != CORPUS_FORMAT_VERSION:
        raise CorpusError(f"unsupported corpus format version {version}")
    offset = struct.calcsize("<BII")
    sessions: list[Session] = []
    for sid in range(n_sessions):
        try:
            start, length = struct.unpack_from("<qI", blob, offset)
            offset += struct.calcsize("<qI")
            items = list(struct.unpack_from(f"<{length}I", blob, offset))
            offset += 4 * length
        except struct.error:
            raise CorpusError("corpus.bin truncated mid-session") from None
        sessions.append(Session(sid, items, start))
    if offset != len(blob):
        raise CorpusError("corpus.bin has trailing bytes")
    if train_count > n_sessions:
        raise CorpusError("corpus.bin train boundary out of range")

    vocab_doc = read_json_object(directory / VOCAB_FILENAME, CorpusError)
    version = vocab_doc.get("version")
    if type(version) is not int or version != VOCAB_FORMAT_VERSION:
        raise CorpusError("unsupported vocab format version")
    keys, counts = vocab_doc.get("items"), vocab_doc.get("counts")
    if not (isinstance(keys, list) and all(isinstance(k, str) for k in keys)):
        raise CorpusError("vocab.json items must be a list of strings")
    if not (isinstance(counts, list) and all(type(c) is int and c >= 0 for c in counts)):
        raise CorpusError("vocab.json counts must be a list of non-negative integers")
    vocab = ItemVocab(keys, counts)
    corpus = SessionCorpus(sessions, vocab, train_count)
    corpus.validate()
    return corpus
