"""Inverted-index retrieval against a brute-force full scan."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionrec import Event, build_index, candidates, ingest_events, neighbors
from sessionrec.corpus import Session, SessionCorpus, ItemVocab, TrainingExample, augment
from sessionrec.errors import RetrievalError
from sessionrec.evaluation import EVAL_CHUNK
from sessionrec.neighbors import RetrievalConfig, precompute_neighbors, retrieve
from sessionrec.synthetic import chain_corpus

from reference_model import ref_neighbors


def corpus_from_items(item_lists, train_count=None):
    """Build a corpus whose session ids follow list order (one start per second)."""
    events = []
    for sid, items in enumerate(item_lists):
        for j, item in enumerate(items):
            events.append(Event(f"s{sid}", 100 + sid * 10 + j, f"i{item}"))
    c = ingest_events(events)
    if train_count is not None:
        c = SessionCorpus(c.sessions, c.vocab, train_count)
    return c


def as_triples(corpus):
    return [(s.id, s.items, s.start_time) for s in corpus.train_sessions()]


# ---------------------------------------------------------------------------
# candidates


def test_candidates_newest_first_and_deduplicated():
    c = corpus_from_items([[0, 1], [1, 2], [3, 4], [0, 2]])
    idx = build_index(c)
    assert candidates(idx, [0, 1, 0]).tolist() == [3, 1, 0]


def test_candidates_now_is_strict():
    c = corpus_from_items([[0, 1], [0, 2], [0, 3]])
    idx = build_index(c)
    # session 1 starts at 110; "now" equal to that start excludes it
    assert candidates(idx, [0], now=110).tolist() == [0]
    assert candidates(idx, [0], now=111).tolist() == [1, 0]


def test_candidates_m_caps_most_recent():
    c = corpus_from_items([[0], [0, 1], [0, 2], [0, 3]])
    idx = build_index(c)
    assert candidates(idx, [0], m=2).tolist() == [3, 2]


def test_candidates_ignore_test_partition():
    c = corpus_from_items([[0, 1], [0, 2], [0, 3]], train_count=2)
    idx = build_index(c)
    assert candidates(idx, [0]).tolist() == [1, 0]


def test_candidates_validation():
    c = corpus_from_items([[0, 1]])
    idx = build_index(c)
    with pytest.raises(RetrievalError):
        candidates(idx, [])
    with pytest.raises(RetrievalError):
        candidates(idx, [0], m=0)


item_seqs = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8)
few_item_seqs = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(few_item_seqs, min_size=1, max_size=60),
    few_item_seqs,
    st.integers(min_value=1, max_value=8),
    st.one_of(st.none(), st.integers(0, 700)),
)
def test_candidates_match_newest_first_scan(sessions, prefix, m, now_offset):
    # three items over up to 60 sessions: posting lists outgrow m, so the
    # per-list cap and the "now" cutoff are exercised together
    c = corpus_from_items(sessions)
    idx = build_index(c)
    now = None if now_offset is None else 100 + now_offset
    found = candidates(idx, prefix, m=m, now=now)
    assert found.dtype == np.int64
    got = found.tolist()
    query = set(prefix)
    want = [
        s.id for s in reversed(c.train_sessions())
        if (now is None or s.start_time < now) and query & set(s.items)
    ][:m]
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(item_seqs, min_size=1, max_size=40), st.integers(min_value=0, max_value=40))
def test_build_index_matches_brute_force(sessions, train_count):
    # 40 sessions of up to 6 items: enough equal items that an unstable sort
    # by item alone would scramble the posting lists
    c = corpus_from_items(sessions, train_count=min(train_count, len(sessions)))
    idx = build_index(c)
    want = {}
    for s in c.train_sessions():
        for item in set(s.items):
            want.setdefault(item, []).append(s.id)
    assert {item: ids.tolist() for item, ids in idx.postings.items()} == want
    assert len(idx) == c.train_count and len(idx.offsets) == c.train_count + 1
    for s in c.train_sessions():
        held = idx.items[idx.offsets[s.id] : idx.offsets[s.id + 1]]
        assert held.tolist() == sorted(set(s.items))
    assert idx.offsets[-1] == len(idx.items)


def test_build_index_rejects_unordered_start_times():
    vocab = ItemVocab(["a", "b"], [1, 1])
    c = SessionCorpus([Session(0, [0, 1], 200), Session(1, [1], 100)], vocab, 2)
    with pytest.raises(RetrievalError, match="chronological"):
        build_index(c)


def test_session_items_rejects_ids_outside_the_index():
    idx = build_index(corpus_from_items([[0, 1], [1, 2], [2]]))
    items, counts = idx.session_items(np.array([2, 0], dtype=np.int64))
    assert items.tolist() == [2, 0, 1] and counts.tolist() == [1, 2]
    assert len(idx.session_items(np.zeros(0, dtype=np.int64))[0]) == 0
    for sids in ([0, 3], [-1], [1, 2**62]):
        with pytest.raises(RetrievalError, match=r"session ids must lie in \[0, 3\)"):
            idx.session_items(np.array(sids, dtype=np.int64))
    with pytest.raises(RetrievalError, match="integers"):
        idx.session_items(np.array([1.5]))


# ---------------------------------------------------------------------------
# neighbors


def test_neighbors_threshold_keeps_boundary():
    # session [0,1] vs query [0,1]: sim 1.0; session [0,2,3,4]: sim 1/sqrt(8)
    c = corpus_from_items([[0, 1], [0, 2, 3, 4]])
    idx = build_index(c)
    got = neighbors(idx, [0, 1], threshold=0.5)
    assert got == [(0, 1.0)]
    # boundary: sim exactly 0.5 must be kept, ties break toward the newer id
    c2 = corpus_from_items([[0, 1], [2, 3]])
    idx2 = build_index(c2)
    got2 = neighbors(idx2, [0, 3], threshold=0.5)
    assert got2 == [(1, 0.5), (0, 0.5)]


def test_neighbors_ties_prefer_recency():
    c = corpus_from_items([[0, 1], [2, 3], [0, 1]])
    idx = build_index(c)
    got = neighbors(idx, [0, 1])
    assert got == [(2, 1.0), (0, 1.0)]


def test_neighbors_k_truncates_after_ranking():
    c = corpus_from_items([[0], [0, 1], [0]])
    idx = build_index(c)
    got = neighbors(idx, [0], k=1, threshold=0.0)
    assert got == [(2, 1.0)]


def test_threshold_survivors_outside_the_newest_m_are_dropped_and_ties_go_newest_first():
    # Query [0, 1] with m=3: the union is sessions 0, 2, 3 and 4, so session 0
    # is cut by recency although its similarity (1.0) passes the threshold.
    # Sessions 2 and 4 tie at 1.0 and come back newest first, in every row.
    c = corpus_from_items([[0, 1], [0], [0, 1], [0], [0, 1]])
    idx = build_index(c)
    tied = [(4, 1.0), (2, 1.0)]
    for threshold, want in ((0.5, tied + [(3, 1 / 2**0.5)]), (0.8, tied)):
        config = RetrievalConfig(k=10, threshold=threshold, m=3)
        table = retrieve(idx, [[0, 1], [1, 0], [0, 1, 1]], config)
        assert [table[i] for i in range(len(table))] == [want] * 3
        assert want == ref_neighbors(as_triples(c), [0, 1], **vars(config))


def test_shared_count_reads_whole_posting_lists():
    # item 0 is in sessions 0-3, item 1 only in session 1. With m=2 and "now"
    # before session 3, item 0's window is sessions 1 and 2; session 1 enters
    # through item 1 and must count item 0 too, although item 0's posting list
    # runs past both ends of its window.
    sessions = [[0], [0, 1], [0], [0]]
    c = corpus_from_items(sessions)
    idx = build_index(c)
    for m, want in ((2, [(1, 1.0), (2, 1 / 2**0.5)]), (1, [(2, 1 / 2**0.5)])):
        got = neighbors(idx, [1, 0], threshold=0.0, m=m, now=130)
        assert got == want
        assert got == ref_neighbors(as_triples(c), [1, 0], threshold=0.0, m=m, now=130)


def test_neighbors_parameter_validation():
    idx = build_index(corpus_from_items([[0, 1]]))
    with pytest.raises(RetrievalError):
        neighbors(idx, [0], k=0)
    with pytest.raises(RetrievalError):
        neighbors(idx, [0], threshold=1.5)
    wrong_types = [
        {"k": "5"}, {"k": True}, {"m": 2.5}, {"m": False},
        {"threshold": "0.5"}, {"threshold": None}, {"raw_length": 1},
    ]
    for bad in wrong_types:
        with pytest.raises(RetrievalError):
            neighbors(idx, [0], **bad)


@pytest.mark.parametrize(
    "threshold", [True, False, np.bool_(True)], ids=["True", "False", "numpy-bool"]
)
def test_neighbors_reject_a_bool_threshold(threshold):
    # RetrievalConfig.validate rejects these too; True must not run as 1.0
    idx = build_index(corpus_from_items([[0, 1]]))
    with pytest.raises(RetrievalError, match="threshold"):
        neighbors(idx, [0, 1], threshold=threshold)


def test_neighbors_return_python_numbers():
    idx = build_index(corpus_from_items([[0, 1], [0, 2]]))
    got = neighbors(idx, [0, 1], threshold=0.0)
    assert got == [(0, 1.0), (1, 0.5)]
    assert all(type(sid) is int and type(sim) is float for sid, sim in got)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(item_seqs, min_size=1, max_size=30),
    item_seqs,
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.0, 0.3, 0.5, 0.7]),
    st.integers(min_value=1, max_value=40),
    st.booleans(),
)
def test_neighbors_match_brute_force(sessions, prefix, k, threshold, m, raw_length):
    c = corpus_from_items(sessions)
    idx = build_index(c)
    got = neighbors(idx, prefix, k=k, threshold=threshold, m=m, raw_length=raw_length)
    want = ref_neighbors(
        as_triples(c), prefix, k=k, threshold=threshold, m=m, raw_length=raw_length
    )
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.lists(item_seqs, min_size=2, max_size=20), item_seqs, st.integers(0, 400))
def test_neighbors_now_matches_brute_force(sessions, prefix, now_offset):
    c = corpus_from_items(sessions)
    idx = build_index(c)
    now = 100 + now_offset
    got = neighbors(idx, prefix, now=now)
    want = ref_neighbors(as_triples(c), prefix, now=now)
    assert got == want
    assert all(c.sessions[sid].start_time < now for sid, _ in got)


# ---------------------------------------------------------------------------
# precompute_neighbors


wide_item_seqs = st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=6)
timed_prefixes = st.tuples(wide_item_seqs, st.integers(0, 450))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(few_item_seqs, min_size=1, max_size=40),
    st.one_of(  # none or a few cases, or more than one retrieval chunk
        st.lists(timed_prefixes, max_size=4),
        st.lists(timed_prefixes, min_size=EVAL_CHUNK + 1, max_size=2 * EVAL_CHUNK + 3),
    ),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 0.3, 0.5, 0.7]),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
def test_precomputed_rows_match_brute_force_and_single_queries(
    sessions, queries, k, threshold, m, raw_length
):
    # Three items over up to 40 sessions: unions outgrow m, k truncates and
    # similarities tie. Prefix items 3-7 are never indexed, prefixes repeat
    # items, and "now" ranges from before the first session to after the last.
    c = corpus_from_items(sessions)
    idx = build_index(c)
    retrieval = RetrievalConfig(k=k, threshold=threshold, m=m, raw_length=raw_length)
    cases = [
        TrainingExample(tuple(prefix), 0, session_id=-1, start_time=90 + now)
        for prefix, now in queries
    ]
    table = precompute_neighbors(idx, cases, retrieval)
    assert len(table) == len(cases)
    assert table.ids.dtype == np.int64 and table.sims.dtype == np.float64
    assert table.offsets[0] == 0 and table.offsets[-1] == len(table.ids) == len(table.sims)
    for i, ex in enumerate(cases):
        want = ref_neighbors(as_triples(c), ex.prefix, now=ex.start_time, **vars(retrieval))
        assert table[i] == want
        assert table[i] == neighbors(idx, ex.prefix, now=ex.start_time, **vars(retrieval))


def test_precompute_neighbors_rejects_an_empty_prefix():
    idx = build_index(corpus_from_items([[0, 1], [1, 2]]))
    cases = [TrainingExample((0,), 1, 0, 200), TrainingExample((), 1, 0, 200)]
    with pytest.raises(RetrievalError, match="empty prefix"):
        precompute_neighbors(idx, cases, RetrievalConfig())


def test_neighbor_table_rows_and_selection():
    c = corpus_from_items([[0, 1], [0, 2], [1, 2], [0, 1, 2]])
    idx = build_index(c)
    cases = [TrainingExample(p, 0, -1, now) for p, now in (((0,), 200), ((5,), 200), ((1, 2), 125))]
    table = precompute_neighbors(idx, cases, RetrievalConfig(threshold=0.0))
    rows = [table[i] for i in range(len(table))]
    assert rows[1] == [] and rows[2] == [(2, 1.0), (1, 0.5), (0, 0.5)]
    assert table[-1] == rows[2]
    with pytest.raises(IndexError):
        table[3]
    picked = table.select(np.array([2, 2, 1, 0]))
    assert [picked[i] for i in range(len(picked))] == [rows[2], rows[2], rows[1], rows[0]]
    assert len(table.select(np.zeros(0, dtype=np.int64))) == 0
    for bad in ([-1], [3], [0, 5]):
        with pytest.raises(RetrievalError, match=r"rows must lie in \[0, 3\)"):
            table.select(bad)


def test_neighbor_table_select_rejects_non_integer_rows():
    # a cast to int64 used to read 1.7 and True as row 1
    idx = build_index(corpus_from_items([[0, 1], [1, 2]]))
    cases = [TrainingExample(p, 0, -1, 200) for p in ((0,), (2,))]
    table = precompute_neighbors(idx, cases, RetrievalConfig(threshold=0.0))
    for bad in ([1.7], [True], np.array([1.0]), ["1"]):
        with pytest.raises(RetrievalError, match="rows must be integers"):
            table.select(bad)
    assert len(table.select([])) == 0
    assert table.select(np.array([1], dtype=np.uint8))[0] == table[1]


def test_retrieve_rejects_nows_of_another_length():
    # zipped, a short nows used to leave the later prefixes with empty rows
    idx = build_index(corpus_from_items([[0, 1], [1, 2]]))
    prefixes = [[0], [1], [2]]
    table = retrieve(idx, prefixes, RetrievalConfig(threshold=0.0))
    assert all(table[i] for i in range(3))
    for nows in ([None], [None] * 4, []):
        with pytest.raises(RetrievalError, match="3 prefixes"):
            retrieve(idx, prefixes, RetrievalConfig(threshold=0.0), nows)


def test_precomputed_neighbors_hold_no_object_per_neighbor():
    # every case of a chain corpus: two 8-byte numbers per neighbour, plus the
    # offsets; a list of (int, float) tuples took about 89 bytes a neighbour here
    corpus = chain_corpus(n_sessions=300, n_chains=3, chain_len=8, seed=5)
    index = build_index(corpus)
    cases = [ex for s in corpus.train_sessions() for ex in augment(s)]
    first = precompute_neighbors(index, cases, RetrievalConfig())
    retrieved = sum(len(first[i]) for i in range(len(first)))
    assert retrieved > 10 * len(cases)  # the bound below is mostly per neighbour
    tracemalloc.start()
    try:
        found = precompute_neighbors(index, cases, RetrievalConfig())
        held = tracemalloc.get_traced_memory()[0]
        del found  # what it frees is what the result held, whatever numpy caches
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16 * retrieved + 8 * len(cases) + 4096


def test_retrieval_peak_memory_stays_near_the_table():
    # each chunk's rows go straight into the table; holding every chunk until
    # one concatenation at the end peaked at about twice the table
    rng = np.random.default_rng(12)
    n_items = 60
    sessions = [
        Session(sid, rng.choice(n_items, size=5, replace=False).tolist(), 100 + sid)
        for sid in range(3000)
    ]
    corpus = SessionCorpus(sessions, ItemVocab([f"i{j}" for j in range(n_items)], [1] * n_items), 3000)
    index = build_index(corpus)
    prefixes = [s.items[:2] for s in sessions[:1500]]
    config = RetrievalConfig(k=100, threshold=0.0, m=150)
    tracemalloc.start()
    try:
        table = retrieve(index, prefixes, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.ids) > 90 * len(prefixes)  # the table, not each chunk's temporaries, dominates
    assert peak < 1.3 * (table.ids.nbytes + table.sims.nbytes + table.offsets.nbytes)
