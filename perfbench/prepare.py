"""Build one seed's inputs: the preprocessed corpus, a model checkpoint, and its shape.

Runs in its own process (``run.py`` starts it) so that the memory spent on
generating and preprocessing does not count toward the workload's peak RSS.

    python3 perfbench/prepare.py --seed 1 --out perfbench/.work/x
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import sessionrec as sr  # noqa: E402
from clickstream import StreamShape, generate  # noqa: E402

TEST_SHARE = 0.05  # the newest 5% of the time span is held out
SHAPE_QUERIES = 64


def build_corpus(seed: int) -> tuple[sr.SessionCorpus, dict]:
    shape = StreamShape()
    started = time.perf_counter()
    session, stamp, item = generate(shape, seed)
    events = [
        sr.Event(f"s{s}", t, f"i{i}")
        for s, t, i in zip(session.tolist(), stamp.tolist(), item.tolist())
    ]
    generated = time.perf_counter()
    corpus = sr.filter_corpus(sr.ingest_events(events), min_support=5, min_len=2)
    starts = [s.start_time for s in corpus.sessions]
    corpus = sr.split_by_time(corpus, int(TEST_SHARE * (max(starts) - min(starts))))
    done = time.perf_counter()
    return corpus, {
        "generate_s": generated - started,
        "preprocess_s": done - generated,
        "generated_sessions": shape.sessions,
        "generated_clicks": int(session.size),
    }


def corpus_shape(corpus: sr.SessionCorpus, seed: int) -> dict:
    """Sizes that set the cost of retrieval and scoring."""
    index = sr.build_index(corpus)
    cases = sr.test_examples(corpus)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(cases), size=min(SHAPE_QUERIES, len(cases)), replace=False)
    found = [len(sr.neighbors(index, cases[i].prefix, now=cases[i].start_time)) for i in picks]
    return {
        "items": len(corpus.vocab),
        "train_sessions": corpus.train_count,
        "test_sessions": len(corpus.test_sessions()),
        "clicks": sum(len(s) for s in corpus.sessions),
        "test_cases": len(cases),
        "largest_posting_list": max(len(p) for p in index.postings.values()),
        "mean_neighbors": float(np.mean(found)),
        "empty_neighbor_share": float(np.mean([n == 0 for n in found])),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    corpus, timings = build_corpus(args.seed)
    sr.save_corpus(corpus, args.out / "corpus")
    config = sr.ModelConfig(vocab_size=len(corpus.vocab))
    params = sr.build_params(config, args.seed)
    sr.gradkit.save_params(args.out / "model.ckpt", params.store, meta={"model": config.to_dict()})
    doc = {"timings": timings, "shape": corpus_shape(corpus, args.seed)}
    (args.out / "prep.json").write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    main()
