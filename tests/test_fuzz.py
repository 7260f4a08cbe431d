"""Damaged files: every loader failure is a SessionRecError.

Each test flips one byte or truncates one intact file and loads it the way
the package does. A damaged file may still load (a flipped float is still a
float); what it must never do is escape as another exception type.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionrec import gradkit as gk
from sessionrec.cli import RunConfig, build_parser, resolve_config, write_run_config
from sessionrec.corpus import (
    filter_corpus,
    ingest_events,
    load_corpus,
    read_events_csv,
    save_corpus,
    split_by_time,
)
from sessionrec.errors import SessionRecError
from sessionrec.model import ModelConfig, bind_params, build_params
from sessionrec.synthetic import chain_corpus, chain_events, write_events_csv

FUZZ = settings(max_examples=60, deadline=None)


def damaged(blob: bytes):
    """One byte XOR-ed with a nonzero mask, or the file cut short."""
    flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)).map(
        lambda t: blob[: t[0]] + bytes([blob[t[0]] ^ t[1]]) + blob[t[0] + 1 :]
    )
    cuts = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    return flips | cuts


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """Directory of good files: an events file, a corpus, a checkpoint and a
    run_config.json."""
    root = tmp_path_factory.mktemp("intact")
    write_events_csv(chain_events(n_sessions=12, n_chains=2, chain_len=4), root / "events.csv")
    save_corpus(split_by_time(chain_corpus(n_sessions=12, n_chains=2, chain_len=4), 120), root)
    config = ModelConfig(vocab_size=5, dim=2, heads=2, gat_layers=2)
    gk.save_params(
        root / "model.ckpt", build_params(config, seed=0).store, meta={"model": config.to_dict()}
    )
    write_run_config(root, "train", RunConfig(), {"corpus": "c", "out": "o"})
    return root


def load_checkpoint(path):
    store, meta = gk.load_params(path)
    return bind_params(store, ModelConfig.from_dict(meta.get("model")))


def load_run_config(path):
    return resolve_config(build_parser().parse_args(["train", "--out", "o", "--config", str(path)]))


def preprocess_events(path):
    """The preprocess command's pipeline, from the events file to a saved corpus."""
    corpus = filter_corpus(ingest_events(read_events_csv(path)), min_support=2, min_len=2)
    save_corpus(split_by_time(corpus, 120), path.parent / "from_events")


LOADERS = {
    "corpus.bin": lambda path: load_corpus(path.parent),
    "vocab.json": lambda path: load_corpus(path.parent),
    "model.ckpt": load_checkpoint,
    "run_config.json": load_run_config,
    "events.csv": preprocess_events,
}


@pytest.mark.parametrize("name", list(LOADERS))
@FUZZ
@given(data=st.data())
def test_damaged_file_fails_only_with_a_package_error(intact, name, data):
    path, load = intact / name, LOADERS[name]
    blob = path.read_bytes()
    load(path)  # the intact file loads
    path.write_bytes(data.draw(damaged(blob)))
    try:
        load(path)
    except SessionRecError:
        pass
    finally:
        path.write_bytes(blob)
