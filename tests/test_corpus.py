"""Event ingestion, filtering, temporal split, and persistence."""

import math
import random
import re
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sessionrec.corpus as corpus_module
from sessionrec import (
    Event,
    ItemVocab,
    Session,
    SessionCorpus,
    augment,
    drop_unseen_test_sessions,
    filter_corpus,
    ingest_events,
    load_corpus,
    parse_timestamp,
    read_events_csv,
    save_corpus,
    split_by_time,
    take_recent_fraction,
)
from sessionrec.corpus import SessionRows
from sessionrec.errors import CorpusError


def ev(session, ts, item):
    return Event(str(session), ts, str(item))


def make_corpus(rows):
    """rows: (session_key, ts, item_key) triples."""
    return ingest_events(ev(*r) for r in rows)


# ---------------------------------------------------------------------------
# timestamps and CSV


def test_parse_timestamp_forms():
    assert parse_timestamp("100") == 100
    assert parse_timestamp("100.7") == 100
    assert parse_timestamp("1970-01-01T00:01:40+00:00") == 100
    assert parse_timestamp("1970-01-01T00:01:40Z") == 100
    # naive datetimes are taken as UTC
    assert parse_timestamp("1970-01-01T00:01:40") == 100


def test_parse_timestamp_garbage():
    with pytest.raises(CorpusError):
        parse_timestamp("not a time")


@pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "nan"])
def test_parse_timestamp_rejects_non_finite_values(text):
    with pytest.raises(CorpusError, match="finite"):
        parse_timestamp(text)


def test_parse_timestamp_keeps_to_int64():
    assert parse_timestamp(str(2**63 - 1)) == 2**63 - 1
    assert parse_timestamp(str(-(2**63))) == -(2**63)
    for text in ["1e30", str(2**63), str(-(2**63) - 1), "-9.3e18"]:
        with pytest.raises(CorpusError, match="int64"):
            parse_timestamp(text)


def test_read_events_csv(tmp_path):
    p = tmp_path / "clicks.csv"
    p.write_text("s1,10,a\ns1,11,b\n\ns2,12,a\n")
    events = list(read_events_csv(p))
    assert events == [ev("s1", 10, "a"), ev("s1", 11, "b"), ev("s2", 12, "a")]


def test_read_events_csv_header_and_columns(tmp_path):
    p = tmp_path / "clicks.tsv"
    p.write_text("item\tsession\ttime\nx\ts1\t5\ny\ts1\t6\n")
    events = list(
        read_events_csv(p, delimiter="\t", session_col=1, time_col=2, item_col=0,
                        skip_header=True)
    )
    assert [e.item_key for e in events] == ["x", "y"]


def test_read_events_csv_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("s1,10,a\ns1,oops,b\n")
    with pytest.raises(CorpusError, match="line 2"):
        list(read_events_csv(p))
    p.write_text("s1,10\n")
    with pytest.raises(CorpusError, match="line 1"):
        list(read_events_csv(p))


def test_read_events_csv_names_the_line_of_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "bad.csv"
    good = "".join(f"s{n},{n},item{n}\n" for n in range(1000)).encode("utf-8")  # past one read
    p.write_bytes(good + b"s1,10,\xffb\ns1,11,c\n")
    with pytest.raises(CorpusError, match="line 1001: not UTF-8"):
        list(read_events_csv(p))


def test_read_events_csv_names_the_line_csv_cannot_split(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("s1,10,a\ns1,11," + "b" * 200_000 + "\n")  # over csv's field size limit
    with pytest.raises(CorpusError, match="line 2"):
        list(read_events_csv(p))


def test_read_events_csv_names_physical_lines_after_a_quoted_newline(tmp_path):
    """A quoted field spanning two lines puts later records one line further on;
    a bad row and an undecodable byte there both name the physical line."""
    p = tmp_path / "bad.csv"
    head = b's1,10,"a\nb"\ns1,11,c\n'
    p.write_bytes(head + b"s1,oops,d\n")
    with pytest.raises(CorpusError, match="line 4: unparseable timestamp"):
        list(read_events_csv(p))
    p.write_bytes(head + b"s1,\xff,d\n")
    with pytest.raises(CorpusError, match="line 4: not UTF-8"):
        list(read_events_csv(p))
    p.write_bytes(b'"session\nkey",time,item\ns1,10,a\n')  # a header record of two lines
    assert list(read_events_csv(p, skip_header=True)) == [ev("s1", 10, "a")]
    p.write_bytes(b'"session\nkey",time,item\ns1,10,a\ns1,x,b\n')
    with pytest.raises(CorpusError, match="line 4"):
        list(read_events_csv(p, skip_header=True))


def test_read_events_csv_counts_bare_carriage_returns_as_line_ends(tmp_path):
    """csv ends a line at \\r, \\n or \\r\\n; a bad row and a bad byte on line 3 both say so."""
    p = tmp_path / "bad.csv"
    for newline in (b"\r", b"\r\n", b"\n"):
        p.write_bytes(newline.join([b"s1,10,a", b"s1,11,b", b"s1,oops,c", b""]))
        with pytest.raises(CorpusError, match="line 3: unparseable timestamp"):
            list(read_events_csv(p))
        p.write_bytes(newline.join([b"s1,10,a", b"s1,11,b", b"s1,\xff,c", b""]))
        with pytest.raises(CorpusError, match="line 3: not UTF-8"):
            list(read_events_csv(p))


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_orders_sessions_and_items():
    c = make_corpus([
        ("late", 50, "x"),
        ("early", 10, "b"),
        ("early", 12, "a"),
        ("late", 55, "b"),
    ])
    assert [s.start_time for s in c.sessions] == [10, 50]
    # vocab indices follow first occurrence in chronological order: b, a, x
    assert c.vocab.keys == ["b", "a", "x"]
    assert c.sessions[0].items == [0, 1]
    assert c.sessions[1].items == [2, 0]
    assert c.vocab.counts == [2, 1, 1]


def test_ingest_sorts_clicks_within_session():
    c = make_corpus([("s", 30, "c"), ("s", 10, "a"), ("s", 20, "b")])
    assert c.vocab.keys == ["a", "b", "c"]
    assert c.sessions[0].items == [0, 1, 2]


def test_ingest_is_deterministic():
    rows = [("s2", 20, "q"), ("s1", 10, "p"), ("s1", 15, "q"), ("s2", 25, "p")]
    a, b = make_corpus(rows), make_corpus(rows)
    assert [s.items for s in a.sessions] == [s.items for s in b.sessions]
    assert a.vocab.keys == b.vocab.keys


def test_ingest_empty_fails():
    with pytest.raises(CorpusError):
        ingest_events([])


def test_vocab_unknown_key():
    c = make_corpus([("s", 1, "a"), ("s", 2, "b")])
    assert c.vocab.index("a") == 0
    with pytest.raises(CorpusError):
        c.vocab.index("never-seen")


# ---------------------------------------------------------------------------
# filtering


def test_filter_drops_rare_items_then_short_sessions():
    # "z" appears once; removing it leaves session s3 with one click
    c = make_corpus([
        ("s1", 1, "a"), ("s1", 2, "b"),
        ("s2", 3, "a"), ("s2", 4, "b"),
        ("s3", 5, "a"), ("s3", 6, "z"),
    ])
    f = filter_corpus(c, min_support=2, min_len=2)
    assert len(f.sessions) == 2
    assert f.vocab.keys == ["a", "b"]
    assert all(len(s.items) >= 2 for s in f.sessions)


def test_filter_reaches_fixed_point():
    """The rules cascade: z is rare -> s3 shrinks away -> c turns rare ->
    s2 shrinks away -> a turns rare -> only [b, b] survives in s1."""
    c = make_corpus([
        ("s1", 1, "a"), ("s1", 2, "b"), ("s1", 3, "b"),
        ("s2", 4, "a"), ("s2", 5, "c"),
        ("s3", 6, "c"), ("s3", 7, "z"),
    ])
    f = filter_corpus(c, min_support=2, min_len=2)
    assert [f.vocab.key(i) for s in f.sessions for i in s.items] == ["b", "b"]
    support = {}
    for s in f.sessions:
        for i in s.items:
            support[i] = support.get(i, 0) + 1
    assert all(vv >= 2 for vv in support.values())
    assert all(len(s.items) >= 2 for s in f.sessions)


def test_filter_can_empty_out():
    c = make_corpus([("s", 1, "a"), ("s", 2, "b")])
    with pytest.raises(CorpusError):
        filter_corpus(c, min_support=5, min_len=2)


def _first_occurrences_by_unique(key):
    """first_occurrences of one flat key array, through np.unique."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 2**40), st.integers(0, 4)), max_size=60), st.data())
def test_first_occurrences_match_the_unique_formulation(pairs, data):
    items = np.array([item for item, _ in pairs], dtype=np.int64)
    graph = np.array([g for _, g in pairs], dtype=np.int64)
    if len(pairs):  # draw repeats from what is there
        items = items[np.array(data.draw(st.lists(st.integers(0, len(pairs) - 1),
                                                  min_size=len(pairs), max_size=len(pairs))))]
    # one key, and a pair of keys coded as graph * (distinct items) + item rank
    _, rank = np.unique(items, return_inverse=True)
    for got, want in [
        (corpus_module.first_occurrences(items), _first_occurrences_by_unique(items)),
        (corpus_module.first_occurrences(items, graph),
         _first_occurrences_by_unique(graph * max(len(set(items.tolist())), 1) + rank)),
    ]:
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_filter_reindexes_densely():
    # z (index 0 before filtering) is dropped, so indices must shift down
    c = make_corpus([
        ("s1", 1, "z"), ("s1", 2, "a"), ("s1", 3, "b"),
        ("s2", 4, "a"), ("s2", 5, "b"),
        ("s3", 6, "a"), ("s3", 7, "b"),
    ])
    f = filter_corpus(c, min_support=3, min_len=2)
    assert f.vocab.keys == ["a", "b"]
    used = sorted({i for s in f.sessions for i in s.items})
    assert used == list(range(len(f.vocab)))


# ---------------------------------------------------------------------------
# temporal split


def split_fixture():
    return make_corpus([
        ("s1", 100, "a"), ("s1", 101, "b"),
        ("s2", 200, "b"), ("s2", 201, "a"),
        ("s3", 300, "a"), ("s3", 301, "b"),
        ("s4", 400, "b"), ("s4", 401, "a"),
    ])


def test_split_boundary_is_strict():
    c = split_fixture()
    s = split_by_time(c, test_window=100)
    # cutoff = 400 - 100 = 300; s3 starts exactly at the cutoff so it trains
    assert [x.start_time for x in s.train_sessions()] == [100, 200, 300]
    assert [x.start_time for x in s.test_sessions()] == [400]
    s.validate()


def test_split_rejects_bad_windows():
    c = split_fixture()
    with pytest.raises(CorpusError):
        split_by_time(c, test_window=0)
    with pytest.raises(CorpusError):
        split_by_time(c, test_window=300)  # covers the whole span
    with pytest.raises(CorpusError):
        split_by_time(c, test_window=500)


def test_split_drops_test_sessions_with_unseen_items():
    c = make_corpus([
        ("s1", 100, "a"), ("s1", 101, "b"),
        ("s2", 200, "b"), ("s2", 201, "a"),
        ("s3", 300, "a"), ("s3", 301, "new"),  # "new" never trains
        ("s4", 310, "b"), ("s4", 311, "a"),
    ])
    s = split_by_time(c, test_window=50)
    assert len(s.test_sessions()) == 1
    assert s.test_sessions()[0].items == [s.vocab.index("b"), s.vocab.index("a")]
    assert "new" not in s.vocab
    s.validate()


def test_take_recent_fraction_ceils():
    c = split_by_time(split_fixture(), test_window=100)
    # 3 train sessions, fraction 1/2 -> ceil(1.5) = 2 newest
    shrunk = take_recent_fraction(c, "1/2")
    assert [s.start_time for s in shrunk.train_sessions()] == [200, 300]
    assert [s.start_time for s in shrunk.test_sessions()] == [400]


def test_take_recent_fraction_then_drop_unseen():
    c = make_corpus([
        ("s1", 100, "c"), ("s1", 101, "a"),
        ("s2", 200, "a"), ("s2", 201, "b"),
        ("s3", 300, "c"), ("s3", 301, "a"),
    ])
    s = split_by_time(c, test_window=50)  # train s1, s2; test s3
    shrunk = take_recent_fraction(s, "1/2")  # keeps only s2; "c" now untrained
    shrunk.validate()
    assert len(shrunk.test_sessions()) == 0  # s3 needed the dropped item
    assert shrunk.vocab.keys == ["a", "b"]
    again = drop_unseen_test_sessions(shrunk)
    assert (again.sessions, again.vocab.keys) == (shrunk.sessions, shrunk.vocab.keys)


def test_take_recent_fraction_range():
    c = split_fixture()
    with pytest.raises(CorpusError):
        take_recent_fraction(c, "0")
    with pytest.raises(CorpusError):
        take_recent_fraction(c, "3/2")
    for unreadable in [float("inf"), float("-inf"), None, [1, 4]]:
        with pytest.raises(CorpusError, match="fraction must read like"):
            take_recent_fraction(c, unreadable)


# ---------------------------------------------------------------------------
# augmentation and persistence


def test_validate_passes_on_consistent_corpus():
    c = split_by_time(split_fixture(), test_window=100)
    c.validate()


def built(*sessions, train_count=None, ids=None):
    """A corpus over items a, b, c straight from (items, start time) pairs,
    with dense ids unless ``ids`` is given; no checks on the way in."""
    ids = range(len(sessions)) if ids is None else ids
    return SessionCorpus(
        [Session(sid, items, t) for sid, (items, t) in zip(ids, sessions)],
        ItemVocab(["a", "b", "c"], [1, 1, 1]),
        len(sessions) if train_count is None else train_count,
    )


@pytest.mark.parametrize(
    "corpus, message",
    [
        (built(([0], 1), ([1], 2), ([2], 3), ids=[0, 2, 3]), "session ids not dense at position 1"),
        (built(([0], 1), ([], 2), ([1], 3)), "session 1 is empty"),
        (built(([0], 1), ([1, 3], 2), ([1], 3)), "session 1 has out-of-range item index"),
        (built(([0], 1), ([1, -1], 2), ([1], 3)), "session 1 has out-of-range item index"),
        (built(([0], 1), ([1], 3), ([1], 2)), "sessions are not in chronological order"),
        (built(([0, 1], 1), ([1, 2], 2), ([0], 3), train_count=1),
         "test session 1 contains items absent from training"),
        (built(([0, 1], 1), ([1], 2), train_count=-1), "train count -1 is outside [0, 2]"),
        (built(([0, 1], 1), ([1], 2), train_count=3), "train count 3 is outside [0, 2]"),
    ],
    ids=["ids-not-dense", "empty", "item-too-large", "item-negative", "out-of-order", "untrained-item",
         "train-count-negative", "train-count-too-large"],
)
def test_validate_names_the_broken_invariant_and_session(corpus, message):
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        corpus.validate()


@pytest.mark.parametrize(
    "corpus, message",
    [
        # each check's first violation sits in a later session than the other's
        (built(([0], 1), ([5], 2), ([1], 3), ids=[0, 1, 7]), "session 1 has out-of-range item index"),
        (built(([0], 1), ([1], 2), ([], 3), ([9], 4)), "session 2 is empty"),
        (built(([0], 1), ([1], 0), ([], 3)), "sessions are not in chronological order"),
        # untrained test items are checked only once every session is sound
        (built(([0], 1), ([2], 2), ([], 3), train_count=1), "session 2 is empty"),
        (built(([0], 1), ([], 2), train_count=5), "session 1 is empty"),
    ],
    ids=["range-before-ids", "empty-before-range", "order-before-empty", "structure-before-training",
         "structure-before-train-count"],
)
def test_validate_reports_the_first_violation_in_session_order(corpus, message):
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        corpus.validate()


@pytest.mark.parametrize("train_count", [-1, 5])
def test_save_writes_nothing_for_a_train_count_outside_the_sessions(tmp_path, train_count):
    with pytest.raises(CorpusError, match="^train count"):
        save_corpus(built(([0, 1], 1), ([1], 2), train_count=train_count), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_augment_prefixes():
    c = make_corpus([("s", 1, "a"), ("s", 2, "b"), ("s", 3, "c")])
    exs = augment(c.sessions[0])
    assert [(x.prefix, x.label) for x in exs] == [((0,), 1), ((0, 1), 2)]
    assert all(x.session_id == 0 and x.start_time == 1 for x in exs)


def test_augment_single_click_yields_nothing():
    c = make_corpus([("s", 1, "a"), ("s2", 2, "a"), ("s2", 3, "b")])
    assert augment(c.sessions[0]) == []


def test_corpus_roundtrip(tmp_path):
    c = split_by_time(split_fixture(), test_window=100)
    save_corpus(c, tmp_path)
    back = load_corpus(tmp_path)
    assert back.train_count == c.train_count
    assert [s.items for s in back.sessions] == [s.items for s in c.sessions]
    assert [s.start_time for s in back.sessions] == [s.start_time for s in c.sessions]
    assert back.vocab.keys == c.vocab.keys
    assert back.vocab.counts == c.vocab.counts


def test_corpus_roundtrip_bytes_stable(tmp_path):
    c = split_by_time(split_fixture(), test_window=100)
    save_corpus(c, tmp_path / "one")
    save_corpus(load_corpus(tmp_path / "one"), tmp_path / "two")
    assert (tmp_path / "one" / "corpus.bin").read_bytes() == (
        tmp_path / "two" / "corpus.bin"
    ).read_bytes()
    assert (tmp_path / "one" / "vocab.json").read_bytes() == (
        tmp_path / "two" / "vocab.json"
    ).read_bytes()


@pytest.mark.parametrize("train_count", [0, 2], ids=["empty", "no-test-partition"])
def test_corpus_roundtrip_at_the_edges(tmp_path, train_count):
    c = built(([0, 1], 5), ([1, 2, 1], 9))
    c = SessionCorpus(c.sessions[:train_count], c.vocab, train_count)
    save_corpus(c, tmp_path)
    back = load_corpus(tmp_path)
    assert back.train_count == train_count and back.test_sessions() == []
    assert back.sessions == c.sessions
    assert all(type(i) is int for s in back.sessions for i in s.items)
    assert back.vocab.keys == c.vocab.keys


def test_load_missing_directory(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")


@pytest.mark.parametrize(
    "contents",
    [
        b"{not json",
        b"[1,2]",
        b'{"version":1}',
        b'{"version":1,"items":5,"counts":[]}',
        b"\xff\xfe",
        b'{"version":1,"items":[1,2],"counts":[1,1]}',
        b'{"version":1,"items":["a","b"],"counts":[1,"1"]}',
        b"[" * 100_000,
        b'{"version":true,"items":["a","b"],"counts":[1,1]}',
        b'{"version":1,"items":["a","b"],"counts":[1,-1]}',
    ],
    ids=[
        "not-json", "list", "no-items", "items-number", "bad-utf8", "int-items", "str-count",
        "deep-nesting", "bool-version", "negative-count",
    ],
)
def test_corrupt_vocab_is_a_corpus_error(tmp_path, contents):
    save_corpus(split_by_time(split_fixture(), test_window=100), tmp_path)
    (tmp_path / "vocab.json").write_bytes(contents)
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


# ---------------------------------------------------------------------------
# a loaded corpus serves its sessions from the click columns


def events_corpus(seed, n_sessions=60, n_items=9):
    """An ingested corpus of short random sessions over a few items, one
    session starting every 10 s."""
    rng = random.Random(seed)
    rows = [
        (f"s{s}", 10 * s + t, f"i{rng.randrange(n_items)}")
        for s in range(n_sessions)
        for t in range(rng.randint(1, 5))
    ]
    return make_corpus(rows)


def loaded(corpus, directory):
    save_corpus(corpus, directory)
    return load_corpus(directory)


def test_load_and_validate_build_no_session(tmp_path, monkeypatch):
    built_now = []

    class Counted(Session):
        __slots__ = ()

        def __init__(self, *args):
            built_now.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(corpus_module, "Session", Counted)
    split = split_by_time(filter_corpus(events_corpus(0), min_support=2), test_window=100)
    save_corpus(take_recent_fraction(split, "1/2"), tmp_path)
    assert built_now == []  # nor do ingest, filter, split and fraction
    back = load_corpus(tmp_path)
    back.validate()
    assert built_now == []
    assert back.sessions[-1] == back.sessions[len(back.sessions) - 1]
    assert built_now == [len(back.sessions) - 1] * 2  # only the rows read


def test_view_reads_like_the_saved_list(tmp_path):
    corpus = split_by_time(events_corpus(1), test_window=100)
    saved = corpus.sessions
    view = loaded(corpus, tmp_path).sessions
    n = len(saved)
    assert isinstance(view, SessionRows) and len(view) == n
    assert [view[i] for i in range(-n, n)] == [saved[i] for i in range(-n, n)]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            view[bad]
    for part in (slice(3, 9), slice(None, -4), slice(-5, None), slice(2, 40, 3),
                 slice(None, None, -1), slice(30, 5, -7), slice(9, 3)):
        assert isinstance(view[part], SessionRows)
        assert view[part] == saved[part] and list(view[part]) == saved[part]
    assert list(reversed(view)) == saved[::-1]
    assert view == saved and saved == view and view == view[:]
    assert view != saved[:-1] and view != [*saved[:-1], saved[0]] and view != 5
    assert view[2:][1:][-1] == saved[2:][1:][-1]


def test_iterating_a_view_equals_indexing_it(tmp_path, monkeypatch):
    """Iteration reads the columns a block at a time; blocks of 4 cross every view below."""
    monkeypatch.setattr(corpus_module, "ITER_BLOCK", 4)
    view = loaded(split_by_time(events_corpus(1), test_window=100), tmp_path).sessions
    n = len(view)
    for part in (slice(None), slice(2, 40, 3), slice(None, None, -1), slice(30, 5, -7),
                 slice(9, 3), slice(n, None), slice(-3, None), slice(None, None, 5)):
        rows = view[part]
        assert list(rows) == [rows[i] for i in range(len(rows))]
    assert list(view[5:5]) == [] and list(view[::-1])[0] == view[n - 1]


def test_loaded_partitions_are_views_of_fresh_copies(tmp_path):
    corpus = split_by_time(events_corpus(2), test_window=100)
    back = loaded(corpus, tmp_path)
    assert back.train_sessions() == corpus.train_sessions()
    assert back.test_sessions() == corpus.test_sessions()
    assert isinstance(back.test_sessions(), SessionRows)
    assert back.test_sessions()[0].id == corpus.train_count
    first = back.sessions[0]
    first.items.append(0)
    first.start_time = -1
    assert back.sessions[0] == corpus.sessions[0]


def test_validate_checks_the_ids_of_a_view_reused_elsewhere(tmp_path):
    back = loaded(split_by_time(events_corpus(3), test_window=100), tmp_path)
    shifted = SessionCorpus(back.sessions[1:], back.vocab, back.train_count - 1)
    with pytest.raises(CorpusError, match="^session ids not dense at position 0$"):
        shifted.validate()


@st.composite
def saveable_corpora(draw):
    """Valid corpora of up to 12 sessions over up to 6 items, any time offset."""
    n_items = draw(st.integers(1, 6))
    clicks = st.lists(st.integers(0, n_items - 1), min_size=1, max_size=5)
    sessions = draw(st.lists(clicks, min_size=0, max_size=12))
    train_count = draw(st.integers(0, len(sessions)))
    trained = {i for items in sessions[:train_count] for i in items}
    sessions[train_count:] = [s for s in sessions[train_count:] if set(s) <= trained]
    gaps = draw(st.lists(st.integers(0, 10**9), min_size=len(sessions), max_size=len(sessions)))
    times = list(accumulate(gaps, initial=draw(st.integers(-(10**15), 10**15))))
    return SessionCorpus(
        [Session(sid, items, t) for sid, (items, t) in enumerate(zip(sessions, times))],
        ItemVocab([f"k{i}" for i in range(n_items)], [1] * n_items),
        train_count,
    )


@settings(max_examples=60, deadline=None)
@given(saveable_corpora())
def test_view_round_trips_what_was_saved(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        one, two = Path(tmp, "one"), Path(tmp, "two")
        back = loaded(corpus, one)
        assert list(back.sessions) == corpus.sessions and back.train_count == corpus.train_count
        save_corpus(back, two)
        for name in ("corpus.bin", "vocab.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()


def same_corpus(a, b):
    return (list(a.sessions), a.train_count, a.vocab.keys, a.vocab.counts) == (
        list(b.sessions), b.train_count, b.vocab.keys, b.vocab.counts
    )


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_edits_of_a_loaded_corpus_match_the_in_memory_ones(tmp_path, seed):
    ingested = events_corpus(seed, n_sessions=80)
    assert same_corpus(filter_corpus(loaded(ingested, tmp_path / "a"), 3, 2),
                       filter_corpus(ingested, 3, 2))
    assert same_corpus(split_by_time(loaded(ingested, tmp_path / "b"), 150),
                       split_by_time(ingested, 150))
    split = split_by_time(ingested, 150)
    back = loaded(split, tmp_path / "c")
    for fraction in ("1/3", "2/3", 1):
        assert same_corpus(take_recent_fraction(back, fraction),
                           take_recent_fraction(split, fraction))
    assert same_corpus(drop_unseen_test_sessions(back), drop_unseen_test_sessions(split))


# ---------------------------------------------------------------------------
# the edits against a plain-list reference: a corpus is (start time, raw item
# keys) rows plus a train count, and item indices exist only for comparing


class RefError(Exception):
    pass


def ref_indexed(rows, train_count):
    """Sessions with items indexed in first-occurrence order, keys, counts."""
    index = {}
    for _, keys in rows:
        for key in keys:
            index.setdefault(key, len(index))
    sessions = [Session(sid, [index[k] for k in keys], t) for sid, (t, keys) in enumerate(rows)]
    counts = Counter(k for _, keys in rows for k in keys)
    return sessions, list(index), [counts[k] for k in index], train_count


def ref_ingest(events):
    clicks = {}
    for e in events:
        clicks.setdefault(e.session_key, []).append((e.timestamp, e.item_key))
    ordered = sorted((sorted(c, key=lambda click: click[0]) for c in clicks.values()),
                     key=lambda c: c[0][0])
    return [(c[0][0], [key for _, key in c]) for c in ordered], len(ordered)


def ref_filter(rows, train_count, min_support, min_len):
    while True:
        support = Counter(k for _, keys in rows for k in keys)
        kept = [(t, [k for k in keys if support[k] >= min_support]) for t, keys in rows]
        kept = [(t, keys) for t, keys in kept if len(keys) >= min_len]
        if kept == rows:
            break
        rows = kept
    if not rows:
        raise RefError("filtering removed every session")
    return rows, len(rows)


def ref_keep_trained(train, test):
    trained = {k for _, keys in train for k in keys}
    return train + [(t, keys) for t, keys in test if trained.issuperset(keys)], len(train)


def ref_split(rows, train_count, window):
    if window <= 0:
        raise RefError("test window must be positive")
    first, last = min(t for t, _ in rows), max(t for t, _ in rows)
    if window >= last - first:
        raise RefError(f"test window ({window}s) covers the whole corpus span ({last - first}s)")
    train = [(t, keys) for t, keys in rows if t <= last - window]
    test = [(t, keys) for t, keys in rows if t > last - window]
    if not train or not test:
        raise RefError("degenerate split: empty train or test partition")
    rows, train_count = ref_keep_trained(train, test)
    if train_count == len(rows):
        raise RefError("every test session contains items unseen in training")
    return rows, train_count


def ref_fraction(rows, train_count, fraction):
    try:
        frac = Fraction(fraction)
    except (ValueError, ZeroDivisionError):
        raise RefError(f"fraction must read like '1/4' or 0.25, got {fraction!r}") from None
    if not 0 < frac <= 1:
        raise RefError(f"fraction must be in (0, 1], got {frac}")
    keep = math.ceil(frac * train_count)
    return ref_keep_trained(rows[train_count - keep : train_count], rows[train_count:])


def ref_drop(rows, train_count):
    return ref_keep_trained(rows[:train_count], rows[train_count:])


def outcome(edit, corpus):
    """What an edit gives: the corpus (indexed if a reference's) or the error message."""
    try:
        got = edit(corpus)
    except (CorpusError, RefError) as exc:
        return None, str(exc)
    if isinstance(got, SessionCorpus):
        return got, (list(got.sessions), got.vocab.keys, got.vocab.counts, got.train_count)
    return got, ref_indexed(*got)


click_events = st.lists(
    st.builds(Event, st.sampled_from("abcdefghij"), st.integers(0, 80), st.sampled_from("pqrstu")),
    min_size=15, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    click_events, st.integers(1, 3), st.integers(1, 3), st.integers(-1, 40),
    st.sampled_from(["1/3", "1/2", "2/3", 1, 0.25, 0.9, "0", "3/2", "1/0", "half"]), st.data(),
)
def test_edits_match_a_plain_list_reference(events, min_support, min_len, window, fraction, data):
    """ingest -> filter -> split -> fraction, then drop after a shrunk train
    count: at every step the package and the reference give the same
    sessions, keys, counts and train count, or the same error."""
    steps = [
        (lambda c: filter_corpus(c, min_support, min_len),
         lambda r: ref_filter(*r, min_support, min_len)),
        (lambda c: split_by_time(c, window), lambda r: ref_split(*r, window)),
        (lambda c: take_recent_fraction(c, fraction), lambda r: ref_fraction(*r, fraction)),
    ]
    (mine, mine_seen), (ref, ref_seen) = outcome(ingest_events, events), outcome(ref_ingest, events)
    for edit, ref_edit in steps:
        assert mine_seen == ref_seen
        if mine is None:
            return
        (mine, mine_seen), (ref, ref_seen) = outcome(edit, mine), outcome(ref_edit, ref)
    assert mine_seen == ref_seen
    if mine is not None:
        shrunk = data.draw(st.integers(0, mine.train_count))
        mine = SessionCorpus(mine.sessions, mine.vocab, shrunk)
        ref_seen = outcome(lambda r: ref_drop(r[0], shrunk), ref)[1]
        assert outcome(drop_unseen_test_sessions, mine)[1] == ref_seen


def test_load_corpus_memory_stays_near_the_file_size(tmp_path):
    """Peak traced memory of a load is a small multiple of the files it reads:
    no Python object per session or click. Per-session objects measured 15x."""
    rng = np.random.default_rng(0)
    n, n_items = 20_000, 2_000
    sessions = [
        Session(sid, rng.integers(0, n_items, length).tolist(), sid)
        for sid, length in enumerate(1 + rng.geometric(1 / 3.5, n))
    ]
    vocab = ItemVocab([f"item-{i}" for i in range(n_items)], [1] * n_items)
    save_corpus(SessionCorpus(sessions, vocab, n), tmp_path)
    on_disk = sum((tmp_path / name).stat().st_size for name in ("corpus.bin", "vocab.json"))
    tracemalloc.start()
    try:
        load_corpus(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * on_disk
