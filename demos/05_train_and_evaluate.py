#!/usr/bin/env python3
"""Train the graph model on a synthetic corpus and look at what it learned.

The corpus walks three circular ten-item chains, so the next click is always
determined by the current item. A few epochs suffice for the model to pick
that up, which makes this a quick end-to-end soak of the whole stack:
corpus -> retrieval -> graphs -> encoder -> optimizer -> metrics.
"""

import time

import numpy as np

from sessionrec import (
    ModelConfig,
    RetrievalConfig,
    TrainConfig,
    build_index,
    evaluate_baseline,
    evaluate_model,
    forward,
    neighbors,
    train,
)
from sessionrec.corpus import filter_corpus, ingest_events, split_by_time
from sessionrec.synthetic import chain_events

corpus = split_by_time(
    filter_corpus(
        ingest_events(chain_events(n_sessions=120, seed=13)),
        min_support=5,
        min_len=2,
    ),
    test_window=1200,
)
print(
    f"corpus: {len(corpus.train_sessions())} train / "
    f"{len(corpus.test_sessions())} test sessions, {len(corpus.vocab)} items"
)

model_config = ModelConfig(vocab_size=len(corpus.vocab), dim=16, heads=4)
train_config = TrainConfig(
    epochs=8,
    batch_size=32,
    lr=3e-3,
    intra_decay_every=100,
    inter_decay_every=100,
    retrieval=RetrievalConfig(k=10),
    seed=0,
    patience=0,
)

started = time.perf_counter()
result = train(corpus, model_config, train_config)
print(f"trained {len(result.history)} epochs in {time.perf_counter() - started:.1f}s")
print("losses:", [round(h["loss"], 3) for h in result.history])

report = evaluate_model(
    result.params, model_config, corpus, retrieval=train_config.retrieval
)
print("model   :", report.to_dict())

# Two reference points with no learned parameters at all.
for name in ("pop", "sknn"):
    baseline = evaluate_baseline(name, corpus, retrieval=RetrievalConfig(k=10))
    print(f"{name:8}:", baseline.to_dict())

# Score one prefix by hand, the way the evaluator does internally.
session = corpus.test_sessions()[0]
prefix, target = session.items[:-1], session.items[-1]
index = build_index(corpus)
found = neighbors(index, prefix, k=10, now=session.start_time)
scores, _ = forward(
    prefix, [corpus.sessions[sid] for sid, _ in found], result.params, model_config
)
top = np.argsort(-scores.values)[:5]
print("\nprefix:", [corpus.vocab.key(i) for i in prefix])
print("target:", corpus.vocab.key(target))
print("top 5 :", [corpus.vocab.key(int(i)) for i in top])
