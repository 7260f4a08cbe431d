"""Event ingestion, filtering, temporal split, and persistence."""

import pytest

from sessionrec import (
    Event,
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
    with pytest.raises(CorpusError):
        shrunk.validate()
    fixed = drop_unseen_test_sessions(shrunk)
    fixed.validate()
    assert len(fixed.test_sessions()) == 0  # s3 needed the dropped item


def test_take_recent_fraction_range():
    c = split_fixture()
    with pytest.raises(CorpusError):
        take_recent_fraction(c, "0")
    with pytest.raises(CorpusError):
        take_recent_fraction(c, "3/2")


# ---------------------------------------------------------------------------
# augmentation and persistence


def test_validate_passes_on_consistent_corpus():
    c = split_by_time(split_fixture(), test_window=100)
    c.validate()


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
