"""The three workloads: set-up, one operation, and the oracle checks of each.

All three read the same prepared inputs (``prepare.py``): one seeded
Zipf/topic corpus and a checkpoint of freshly initialized parameters with the
paper's defaults (d=100, 8 heads, 2 attention layers). Retrieval uses the
paper's defaults too (k=120, threshold 0.5, m=1000).

* ``train``: one ``train()`` call on the newest training sessions, re-indexed
  as a small corpus that keeps the full vocabulary, so every example pays the
  full-size embedding gradient while retrieval stays negligible.
* ``serve``: one ``evaluate_model`` call per request for a single test case,
  with the index and parameters loaded once; a closed loop with one client.
* ``sknn``: one ``evaluate_baseline("sknn")`` call over a fixed sample of test
  cases; it builds its index and then retrieves and scores every case.

The checks run outside the timed region and compare a fixed sample of each
workload's operations against ``tests/reference_model.py``, which shares no
code with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import sessionrec as sr
from reference_model import ref_forward, ref_loss, ref_neighbors, ref_rank, ref_sknn_scores
from sessionrec.corpus import Session

CUTOFF = 20
CHECK_CASES = 6
# The newest 20 training sessions with at least 4 clicks, cut to their first 4:
# every seed trains on 19 x 3 = 57 examples in 3 batches per epoch (train()
# holds the newest session out to validate), so the work per call is fixed.
TRAIN_SESSIONS = 20
TRAIN_CLICKS = 4
TRAIN_EPOCHS = 2
SERVE_SAMPLE = 3000  # more than a run gets through: each request is a distinct case
SERVE_WARMUP = 16
SKNN_SAMPLE = 2000
RETRIEVAL = sr.RetrievalConfig()


@dataclass
class Outcome:
    """What one operation did: units of work and whether it succeeded."""

    units: int
    ok: bool = True
    detail: Any = None


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _spread_cases(corpus: sr.SessionCorpus, seed: int) -> list:
    """One test case from each test session, sessions in seeded random order.

    Cases of one session share items and so cost about the same; drawing
    each from a different session keeps a run's mix of cheap and costly
    cases, and with it the figures, from swinging with the seed.
    """
    rng = np.random.default_rng(seed)
    sessions = corpus.test_sessions()
    picks = []
    for i in rng.permutation(len(sessions)):
        cases = sr.augment(sessions[i])
        picks.append(cases[rng.integers(len(cases))])
    return picks


def _train_triples(corpus: sr.SessionCorpus) -> list[tuple]:
    return [(s.id, s.items, s.start_time) for s in corpus.train_sessions()]


def _check_retrieval(index, triples, case) -> tuple[bool, list, list]:
    mine = sr.neighbors(
        index, case.prefix, k=RETRIEVAL.k, threshold=RETRIEVAL.threshold,
        m=RETRIEVAL.m, now=case.start_time,
    )
    ref = ref_neighbors(
        triples, case.prefix, k=RETRIEVAL.k, threshold=RETRIEVAL.threshold,
        m=RETRIEVAL.m, now=case.start_time,
    )
    same = [sid for sid, _ in mine] == [sid for sid, _ in ref] and np.allclose(
        [sim for _, sim in mine], [sim for _, sim in ref], rtol=0, atol=1e-12
    )
    return same, mine, ref


def _check_forward(case, mine, ref, corpus, params, config, check: CheckReport):
    """Package forward against the oracle; returns both probability vectors."""
    values = params.store.values()
    yhat, s_h = sr.forward(case.prefix, [corpus.sessions[sid] for sid, _ in mine], params, config)
    ref_yhat, ref_s = ref_forward(
        case.prefix, [corpus.sessions[sid].items for sid, _ in ref], values,
        dim=config.dim, heads=config.heads, layers=config.gat_layers, slope=config.leaky_slope,
    )
    check.expect(
        np.allclose(yhat.values, ref_yhat, rtol=0, atol=1e-9)
        and np.allclose(s_h.values, ref_s, rtol=0, atol=1e-9),
        f"forward differs from the oracle on session {case.session_id}",
    )
    check.expect(
        sr.rank_of(yhat.values, case.label) == ref_rank(ref_yhat, case.label),
        f"rank differs from the oracle on session {case.session_id}",
    )
    return yhat, ref_yhat


class Workload:
    """One workload over one seed's prepared inputs."""

    name = ""
    unit = ""
    ops = 1  # distinct operations; the measurement cycles through them

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    setup_state: tuple[str, ...] = ()  # attributes that setup() creates

    def setup(self) -> None:
        """The program calls made before the first timed operation."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the set-up state, so the next setup() starts from an empty heap."""
        for name in self.setup_state:
            self.__dict__.pop(name, None)

    def prepare_ops(self) -> None:
        """Choose the operations' inputs; not part of set-up time."""

    def warmup(self) -> None:
        """Untimed calls that fill caches before measuring."""

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def check(self, outcomes: list[list[Outcome]]) -> CheckReport:
        """Oracle checks; ``outcomes[i]`` holds every run of operation ``i``."""
        raise NotImplementedError

    def summary(self, outcomes: list[list[Outcome]]) -> dict:
        return {}


def _expect_repeatable(check: CheckReport, outcomes: list[list[Outcome]]) -> None:
    """Every run of an operation has the same input and a fixed seed: same result."""
    for i, runs in enumerate(outcomes):
        for n, out in enumerate(runs[1:], start=1):
            check.expect(out.detail == runs[0].detail, f"op {i} run {n}: {out.detail} != {runs[0].detail}")


class Train(Workload):
    name = "train"
    unit = "examples"
    setup_state = ("corpus",)

    def setup(self) -> None:
        corpus = sr.load_corpus(self.work / "corpus")
        newest: list[Session] = []
        for s in reversed(corpus.train_sessions()):
            if len(s) >= TRAIN_CLICKS:
                newest.insert(0, s)
                if len(newest) == TRAIN_SESSIONS:
                    break
        sessions = [Session(i, s.items[:TRAIN_CLICKS], s.start_time) for i, s in enumerate(newest)]
        self.corpus = sr.SessionCorpus(sessions, corpus.vocab, train_count=len(sessions))

    def prepare_ops(self) -> None:
        self.config = sr.ModelConfig(vocab_size=len(self.corpus.vocab))
        self.train_config = sr.TrainConfig(epochs=TRAIN_EPOCHS, seed=self.seed)
        n_val = int(len(self.corpus.sessions) * self.train_config.val_fraction)
        fit = self.corpus.sessions[: len(self.corpus.sessions) - n_val]
        self.examples = sum(len(s) - 1 for s in fit)

    def warmup(self) -> None:
        few = [Session(i, list(s.items), s.start_time) for i, s in enumerate(self.corpus.sessions[:3])]
        tiny = sr.SessionCorpus(few, self.corpus.vocab, train_count=len(few))
        sr.train(tiny, self.config, sr.TrainConfig(epochs=1, seed=self.seed, patience=0))

    def op(self, i: int) -> Outcome:
        result = sr.train(self.corpus, self.config, self.train_config, out_dir=self.work / "train")
        losses = [entry["loss"] for entry in result.history]
        ok = all(math.isfinite(x) for x in losses)
        self.last = result
        return Outcome(self.examples * len(result.history), ok, losses)

    def check(self, outcomes: list[list[Outcome]]) -> CheckReport:
        check = CheckReport()
        _expect_repeatable(check, outcomes)
        index = sr.build_index(self.corpus)
        triples = _train_triples(self.corpus)
        cases = [ex for s in self.corpus.sessions for ex in sr.augment(s)]
        params = self.last.params
        for case in cases[-CHECK_CASES:]:
            same, mine, ref = _check_retrieval(index, triples, case)
            check.expect(same, f"neighbors differ from the oracle on session {case.session_id}")
            yhat, ref_yhat = _check_forward(case, mine, ref, self.corpus, params, self.config, check)
            check.expect(
                math.isclose(sr.loss(yhat, case.label).item(), ref_loss(ref_yhat, case.label),
                             rel_tol=1e-9, abs_tol=1e-10),
                f"loss differs from the oracle on session {case.session_id}",
            )
        return check

    def summary(self, outcomes: list[list[Outcome]]) -> dict:
        return {
            "loss": outcomes[0][-1].detail[-1],
            "slice_sessions": len(self.corpus.sessions),
            "fit_examples": self.examples,
            "epochs": TRAIN_EPOCHS,
        }


class Serve(Workload):
    name = "serve"
    unit = "requests"
    setup_state = ("corpus", "index", "config", "params")

    def setup(self) -> None:
        self.corpus = sr.load_corpus(self.work / "corpus")
        self.index = sr.build_index(self.corpus)
        store, meta = sr.gradkit.load_params(self.work / "model.ckpt")
        self.config = sr.ModelConfig.from_dict(meta["model"])
        self.params = sr.bind_params(store, self.config)

    def prepare_ops(self) -> None:
        cases = _spread_cases(self.corpus, self.seed)
        self.warm = cases[:SERVE_WARMUP]
        self.sample = cases[SERVE_WARMUP : SERVE_WARMUP + SERVE_SAMPLE]
        self.ops = len(self.sample)

    def _request(self, case) -> float:
        report = sr.evaluate_model(
            self.params, self.config, self.corpus, cutoffs=(CUTOFF,), index=self.index, cases=[case]
        )
        return report.recall[CUTOFF]

    def warmup(self) -> None:
        for case in self.warm:
            self._request(case)

    def op(self, i: int) -> Outcome:
        hit = self._request(self.sample[i])
        return Outcome(1, math.isfinite(hit), hit)

    def check(self, outcomes: list[list[Outcome]]) -> CheckReport:
        check = CheckReport()
        _expect_repeatable(check, outcomes)
        triples = _train_triples(self.corpus)
        for n, case in enumerate(self.sample[:CHECK_CASES]):
            same, mine, ref = _check_retrieval(self.index, triples, case)
            check.expect(same, f"neighbors differ from the oracle on session {case.session_id}")
            _, ref_yhat = _check_forward(case, mine, ref, self.corpus, self.params, self.config, check)
            expected = 1.0 if ref_rank(ref_yhat, case.label) <= CUTOFF else 0.0
            check.expect(outcomes[n][0].detail == expected, f"request {n} recall differs from the oracle")
        return check

    def summary(self, outcomes: list[list[Outcome]]) -> dict:
        return {"recall_at_20": float(np.mean([runs[0].detail for runs in outcomes]))}


class Sknn(Workload):
    name = "sknn"
    unit = "cases"
    setup_state = ("corpus",)

    def setup(self) -> None:
        self.corpus = sr.load_corpus(self.work / "corpus")

    def prepare_ops(self) -> None:
        self.sample = _spread_cases(self.corpus, self.seed)[:SKNN_SAMPLE]

    def op(self, i: int) -> Outcome:
        report = sr.evaluate_baseline("sknn", self.corpus, cutoffs=(CUTOFF,), cases=self.sample)
        recall = report.recall[CUTOFF]
        return Outcome(len(self.sample), math.isfinite(recall), recall)

    def check(self, outcomes: list[list[Outcome]]) -> CheckReport:
        check = CheckReport()
        _expect_repeatable(check, outcomes)
        index = sr.build_index(self.corpus)
        triples = _train_triples(self.corpus)
        session_items = [s.items for s in self.corpus.sessions]
        n_items = len(self.corpus.vocab)
        cases = self.sample[:CHECK_CASES]
        hits = []
        for case in cases:
            same, mine, ref = _check_retrieval(index, triples, case)
            check.expect(same, f"neighbors differ from the oracle on session {case.session_id}")
            scores = sr.sknn_scores(mine, index, n_items)
            ref_scores = ref_sknn_scores(ref, session_items, n_items)
            check.expect(
                np.allclose(scores, ref_scores, rtol=0, atol=1e-12),
                f"sknn scores differ from the oracle on session {case.session_id}",
            )
            ref_r = ref_rank(ref_scores, case.label)
            check.expect(
                sr.rank_of(scores, case.label) == ref_r,
                f"rank differs from the oracle on session {case.session_id}",
            )
            hits.append(bool(ref) and ref_r <= CUTOFF)
        report = sr.evaluate_baseline("sknn", self.corpus, cutoffs=(CUTOFF,), cases=cases)
        check.expect(
            math.isclose(report.recall[CUTOFF], sum(hits) / len(hits), abs_tol=1e-12),
            "evaluate_baseline recall differs from the oracle",
        )
        return check

    def summary(self, outcomes: list[list[Outcome]]) -> dict:
        return {"recall_at_20": outcomes[0][0].detail, "sample_cases": len(self.sample)}


WORKLOADS = {w.name: w for w in (Train, Serve, Sknn)}
