"""End-to-end command-line behavior, driven in process through main()."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from sessionrec import gradkit as gk
from sessionrec.cli import DATA_DIR_ENV, RunConfig, build_parser, main, resolve_config
from sessionrec.corpus import ItemVocab, PreprocessConfig, SessionCorpus, load_corpus, save_corpus
from sessionrec.errors import ConfigError
from sessionrec.model import ModelConfig
from sessionrec.neighbors import RetrievalConfig
from sessionrec.synthetic import chain_events, write_events_csv
from sessionrec.training import TrainConfig


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)


@pytest.fixture(scope="module")
def events_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "clicks.csv"
    write_events_csv(chain_events(n_sessions=40, n_chains=2, chain_len=6, seed=5), path)
    return path


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, events_csv):
    out = tmp_path_factory.mktemp("corpus")
    code = main([
        "preprocess",
        "--input", str(events_csv),
        "--output", str(out),
        "--min-support", "2",
        "--test-window", "200",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train",
        "--corpus", str(corpus_dir),
        "--out", str(out),
        "--epochs", "1",
        "--dim", "8",
        "--heads", "2",
        "--gat-layers", "1",
        "--patience", "0",
        "--threshold", "0.1",
    ])
    assert code == 0
    return out


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# exit codes and usage errors


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "sessionrec.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "preprocess" in proc.stdout and "recommend" in proc.stdout


def test_no_command_fails(capsys):
    assert main([]) == 1


def test_unknown_command_fails(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_train_without_corpus_names_the_flag(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "--corpus" in err


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["preprocess", "--input", "x.csv"]) == 1
    assert "--output" in capsys.readouterr().err


def test_runtime_failures_exit_two(tmp_path, capsys):
    assert main(["neighbors", "--corpus", str(tmp_path / "nope"), "--session", "a"]) == 2
    assert "error" in capsys.readouterr().err


def test_evaluate_needs_a_subject(corpus_dir, capsys):
    assert main(["evaluate", "--corpus", str(corpus_dir)]) == 1
    assert "--checkpoint or --baseline" in capsys.readouterr().err


def test_bad_cutoffs_are_usage_errors(corpus_dir, capsys):
    code = main([
        "evaluate", "--corpus", str(corpus_dir), "--baseline", "pop", "--at", "0,5",
    ])
    assert code == 1


@pytest.mark.parametrize("top", ["0", "-1"])
def test_top_below_one_is_a_usage_error(train_dir, corpus_dir, capsys, top):
    code = main([
        "recommend", "--checkpoint", str(train_dir / "epoch_0.ckpt"),
        "--corpus", str(corpus_dir), "--session", load_corpus(corpus_dir).vocab.key(0),
        "--top", top,
    ])
    assert code == 1
    assert "--top" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config resolution


def parse(argv):
    return build_parser().parse_args(argv)


def test_flags_beat_config_file_beats_defaults(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"k": 7, "threshold": 0.25}))

    defaults = resolve_config(parse(["neighbors", "--session", "a"]))
    assert defaults.train.retrieval.k == RunConfig().train.retrieval.k == 120

    from_file = resolve_config(
        parse(["neighbors", "--session", "a", "--config", str(cfg_file)])
    )
    assert from_file.train.retrieval.k == 7
    assert from_file.train.retrieval.threshold == 0.25

    overridden = resolve_config(
        parse(["neighbors", "--session", "a", "--config", str(cfg_file), "--k", "9"])
    )
    assert overridden.train.retrieval.k == 9
    assert overridden.train.retrieval.threshold == 0.25


SECTION_COMMANDS = {
    ModelConfig: ["train"],
    TrainConfig: ["train"],
    RetrievalConfig: ["neighbors", "graph", "train", "evaluate", "recommend"],
    PreprocessConfig: ["preprocess"],
}
REQUIRED_FLAGS = {
    "preprocess": ["--input", "x.csv", "--output", "out"],
    "neighbors": ["--session", "a"],
    "graph": ["--session", "a"],
    "train": ["--out", "run"],
    "evaluate": [],
    "recommend": ["--checkpoint", "x.ckpt", "--session", "a"],
}
STRING_SETTINGS = {"variant": "intra_only", "fraction": "1/4"}


def other_valid_value(name, default):
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default / 2
    return STRING_SETTINGS[name]


@pytest.mark.parametrize(
    "command, name",
    [
        (command, name)
        for name, section in RunConfig().settings().items()
        for command in SECTION_COMMANDS[type(section)]
    ],
)
def test_every_setting_has_a_flag_on_each_command_that_resolves_it(command, name):
    default = getattr(RunConfig().settings()[name], name)
    value = other_valid_value(name, default)
    flag = "--" + name.replace("_", "-")
    given = [flag] if isinstance(value, bool) else [flag, str(value)]
    cfg = resolve_config(parse([command, *REQUIRED_FLAGS[command], *given]))
    assert getattr(cfg.settings()[name], name) == value != default


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"velocity": 11}))
    with pytest.raises(ConfigError, match="velocity"):
        resolve_config(parse(["neighbors", "--session", "a", "--config", str(cfg_file)]))


def test_config_accepts_a_written_run_config(corpus_dir):
    # run_config.json wraps settings under "config"; feeding it back must work
    cfg = resolve_config(
        parse(["neighbors", "--session", "a",
               "--config", str(corpus_dir / "run_config.json")])
    )
    assert cfg.preprocess.min_support == 2
    assert cfg.preprocess.test_window == 200


# ---------------------------------------------------------------------------
# subcommands against a real corpus


def test_preprocess_outputs_and_summary(corpus_dir, events_csv, capsys):
    assert (corpus_dir / "corpus.bin").exists()
    assert (corpus_dir / "vocab.json").exists()
    assert (corpus_dir / "run_config.json").exists()
    corpus = load_corpus(corpus_dir)
    assert corpus.train_count < len(corpus.sessions)

    # re-run to a fresh directory and check the JSON summary
    out2 = corpus_dir.parent / "again"
    code, doc = run_json(capsys, [
        "preprocess", "--input", str(events_csv), "--output", str(out2),
        "--min-support", "2", "--test-window", "200",
    ])
    assert code == 0
    assert doc["sessions"] == len(corpus.sessions)
    assert doc["train_sessions"] == corpus.train_count
    assert doc["items"] == len(corpus.vocab)


def test_neighbors_command_lists_similar_sessions(corpus_dir, capsys):
    corpus = load_corpus(corpus_dir)
    session_arg = ",".join(corpus.vocab.key(i) for i in corpus.sessions[0].items[:2])
    code, doc = run_json(capsys, [
        "neighbors", "--corpus", str(corpus_dir),
        "--session", session_arg, "--threshold", "0.1",
    ])
    assert code == 0
    assert doc, "expected at least one neighbor in a chain corpus"
    sims = [row["similarity"] for row in doc]
    assert sims == sorted(sims, reverse=True)
    assert all(set(row) == {"session", "similarity"} for row in doc)


def test_neighbors_reads_corpus_from_environment(corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(corpus_dir))
    corpus = load_corpus(corpus_dir)
    code = main(["neighbors", "--session", corpus.vocab.key(0), "--threshold", "0"])
    assert code == 0


def test_neighbors_on_an_empty_training_partition_finds_nothing(tmp_path, capsys):
    save_corpus(SessionCorpus([], ItemVocab(["a", "b"], [1, 1]), 0), tmp_path)
    code, doc = run_json(capsys, ["neighbors", "--corpus", str(tmp_path), "--session", "a"])
    assert code == 0
    assert doc == []


def test_graph_command_without_corpus(capsys):
    code, doc = run_json(capsys, ["graph", "--session", "a,b,a"])
    assert code == 0
    assert doc["intra"]["nodes"] == ["a", "b"]
    assert doc["intra"]["alias"] == [0, 1, 0]
    assert doc["intra"]["a_out"] == [[0.0, 1.0], [1.0, 0.0]]
    assert doc["inter"]["adjacency"] == [[0, 1], [0, 1]]
    assert doc["inter"]["session_slots"] == [0, 1, 0]


def test_graph_command_with_neighbors(corpus_dir, capsys):
    corpus = load_corpus(corpus_dir)
    keys = [corpus.vocab.key(i) for i in corpus.sessions[0].items[:2]]
    code, doc = run_json(capsys, [
        "graph", "--corpus", str(corpus_dir), "--session", ",".join(keys),
        "--with-neighbors", "--threshold", "0.1",
    ])
    assert code == 0
    assert set(keys) <= set(doc["inter"]["nodes"])
    assert len(doc["inter"]["nodes"]) > len(set(keys))


# every field the graph command prints, worked out by hand for a, b, a, c: the
# transitions a -> b, b -> a and a -> c give a two outgoing clicks and c none
GOLDEN_ABAC = {
    "intra": {
        "nodes": ["a", "b", "c"],
        "a_out": [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "a_in": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        "alias": [0, 1, 0, 2],
        "last_slot": 2,
    },
    "inter": {
        "nodes": ["a", "b", "c"],
        "adjacency": [[0, 1, 2], [0, 1], [0, 2]],
        "session_slots": [0, 1, 0, 2],
        "last_slot": 2,
    },
}

# c0i1, c0i2 on the chain corpus: the neighbours add the rest of chain 0's ring
GOLDEN_WITH_NEIGHBORS = {
    "intra": {
        "nodes": ["c0i1", "c0i2"],
        "a_out": [[0.0, 1.0], [0.0, 0.0]],
        "a_in": [[0.0, 0.0], [1.0, 0.0]],
        "alias": [0, 1],
        "last_slot": 1,
    },
    "inter": {
        "nodes": ["c0i1", "c0i2", "c0i0", "c0i5", "c0i3", "c0i4"],
        "adjacency": [[0, 1, 2], [0, 1, 4], [0, 2, 3], [2, 3, 5], [1, 4, 5], [3, 4, 5]],
        "session_slots": [0, 1],
        "last_slot": 1,
    },
}


def test_graph_command_prints_every_field_exactly(capsys):
    assert main(["graph", "--session", "a,b,a,c"]) == 0
    assert capsys.readouterr().out == json.dumps(GOLDEN_ABAC, indent=2, sort_keys=True) + "\n"


def test_graph_command_with_neighbors_prints_every_field_exactly(corpus_dir, capsys):
    assert main([
        "graph", "--corpus", str(corpus_dir), "--session", "c0i1,c0i2",
        "--with-neighbors", "--threshold", "0.1",
    ]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(GOLDEN_WITH_NEIGHBORS, indent=2, sort_keys=True) + "\n"


def test_unknown_item_key_is_a_runtime_error(corpus_dir, capsys):
    code = main([
        "neighbors", "--corpus", str(corpus_dir), "--session", "no-such-item",
    ])
    assert code == 2
    assert "no-such-item" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings", [{"k": "5"}, {"m": 2.5}, {"threshold": "0.5"}], ids=["k", "m", "threshold"]
)
def test_wrong_typed_retrieval_settings_are_runtime_errors(corpus_dir, tmp_path, capsys, settings):
    cfg_file = tmp_path / "retrieval.json"
    cfg_file.write_text(json.dumps(settings))
    corpus = load_corpus(corpus_dir)
    code = main([
        "neighbors", "--corpus", str(corpus_dir), "--session", corpus.vocab.key(0),
        "--config", str(cfg_file),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_train_writes_checkpoints_and_summary(train_dir, capsys):
    assert (train_dir / "epoch_0.ckpt").exists()
    assert (train_dir / "log.jsonl").exists()
    assert (train_dir / "run_config.json").exists()
    entry = json.loads((train_dir / "log.jsonl").read_text().splitlines()[0])
    assert entry["epoch"] == 0 and entry["loss"] > 0


def test_evaluate_checkpoint_report(train_dir, corpus_dir, tmp_path, capsys):
    report_dir = tmp_path / "report"
    code, doc = run_json(capsys, [
        "evaluate", "--corpus", str(corpus_dir),
        "--checkpoint", str(train_dir / "epoch_0.ckpt"),
        "--out", str(report_dir),
    ])
    assert code == 0
    assert set(doc) == {"cases", "recall", "mrr"}
    assert set(doc["recall"]) == {"5", "10"}
    assert doc["cases"] > 0
    on_disk = json.loads((report_dir / "report.json").read_text())
    assert on_disk == doc


def test_evaluate_baseline_report(corpus_dir, capsys):
    code, doc = run_json(capsys, [
        "evaluate", "--corpus", str(corpus_dir), "--baseline", "pop", "--at", "1,5",
    ])
    assert code == 0
    assert set(doc["recall"]) == {"1", "5"}
    assert 0.0 <= doc["recall"]["5"] <= 1.0


def test_recommend_ranks_items(train_dir, corpus_dir, capsys):
    corpus = load_corpus(corpus_dir)
    code, doc = run_json(capsys, [
        "recommend", "--checkpoint", str(train_dir / "epoch_0.ckpt"),
        "--corpus", str(corpus_dir),
        "--session", corpus.vocab.key(0), "--top", "3",
    ])
    assert code == 0
    assert len(doc) == 3
    scores = [row["score"] for row in doc]
    assert scores == sorted(scores, reverse=True)
    known = set(corpus.vocab.keys)
    assert all(row["item"] in known for row in doc)
    # every item, probability descending and item index ascending on ties
    code, doc = run_json(capsys, [
        "recommend", "--checkpoint", str(train_dir / "epoch_0.ckpt"),
        "--corpus", str(corpus_dir),
        "--session", corpus.vocab.key(0), "--top", str(len(corpus.vocab)),
    ])
    assert code == 0
    keys = [(-row["score"], corpus.vocab.index(row["item"])) for row in doc]
    assert keys == sorted(keys)
    assert len(keys) == len(corpus.vocab)


def test_recommend_finds_corpus_from_run_config(train_dir, capsys):
    # the train run recorded its corpus path; recommend should pick it up
    corpus = load_corpus(json.loads(
        (train_dir / "run_config.json").read_text()
    )["paths"]["corpus"])
    code, doc = run_json(capsys, [
        "recommend", "--checkpoint", str(train_dir / "epoch_0.ckpt"),
        "--session", corpus.vocab.key(0),
    ])
    assert code == 0
    assert len(doc) == 10  # default --top


def test_checkpoint_carrying_a_retired_loss_form_still_serves(
    train_dir, corpus_dir, tmp_path, capsys
):
    store, meta = gk.load_params(train_dir / "epoch_0.ckpt")
    meta["model"]["loss_form"] = "binary_ce"
    old = tmp_path / "with_loss_form.ckpt"
    gk.save_params(old, store, meta)
    code, doc = run_json(capsys, [
        "recommend", "--checkpoint", str(old), "--corpus", str(corpus_dir),
        "--session", load_corpus(corpus_dir).vocab.key(0), "--top", "3",
    ])
    assert code == 0
    assert len(doc) == 3


def one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("stamp", [b"inf", b"1e400", b"1e30", b"\xff"])
def test_corrupt_events_exit_two_with_one_error_line(events_csv, tmp_path, capsys, stamp):
    damaged = tmp_path / "clicks.csv"
    damaged.write_bytes(events_csv.read_bytes() + b"late,%s,c0i1\nlate,%s,c0i2\n" % (stamp, stamp))
    code = main(["preprocess", "--input", str(damaged), "--output", str(tmp_path / "c")])
    assert code == 2
    assert one_error_line(capsys)


@pytest.mark.parametrize(
    "command, extra",
    [
        ("train", {"dim": "64"}),
        ("train", {"lr": "x"}),
        ("train", {"epochs": -1}),
        ("train", {"threads": 1}),
        ("train", {"share_readout": True}),
        ("train", {"loss_form": "binary_ce"}),
        ("train", ["--batch-size", "0"]),
        ("train", ["--variant", "bogus"]),
        ("preprocess", {"min_support": "2"}),
        ("preprocess", ["--delimiter=;;"]),
        ("preprocess", ["--delimiter="]),
        # each negative column names the right column counted from the end of a row
        ("preprocess", ["--session-col=-3"]),
        ("preprocess", ["--time-col=-2"]),
        ("preprocess", ["--item-col=-1"]),
        ("preprocess", ["--fraction="]),
    ],
    ids=[
        "dim", "lr", "epochs", "stale-threads", "stale-share-readout", "stale-loss-form",
        "batch-size", "variant", "min-support", "two-char-delimiter", "empty-delimiter",
        "negative-session-col", "negative-time-col", "negative-item-col", "empty-fraction",
    ],
)
def test_bad_settings_exit_two_with_one_error_line(
    corpus_dir, events_csv, tmp_path, capsys, command, extra
):
    if command == "train":
        argv = ["train", "--corpus", str(corpus_dir), "--out", str(tmp_path / "run")]
    else:
        argv = [
            "preprocess", "--input", str(events_csv), "--output", str(tmp_path / "c"),
            "--test-window", "200",  # a window the events can be split by
        ]
    if isinstance(extra, dict):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(extra))
        extra = ["--config", str(cfg_file)]
    assert main(argv + extra) == 2
    assert one_error_line(capsys)


# stacked weight -> the names its row blocks were stored under, each transposed
SPLIT_ROWS = {
    "w_update": ("w_update", "u_update"),
    "w_reset": ("w_reset", "u_reset"),
    "w_cand": ("w_cand", "u_cand"),
    "w_key": ("w_last", "w_node"),
    "w_gate": ("w_inter", "w_intra"),
}
# stacked weight -> the names its column halves were stored under, as is
SPLIT_COLUMNS = {"w_edge": ("w_out", "w_in"), "b_edge": ("b_out", "b_in")}


def damaged_checkpoint(train_dir, directory, damage):
    store, meta = gk.load_params(train_dir / "epoch_0.ckpt")
    path = directory / "epoch_0.ckpt"
    if damage == "no-model":
        del meta["model"]
    elif damage == "unknown-retrieval-key":
        meta["retrieval"]["bogus"] = 1
    elif damage == "string-dim":
        meta["model"]["dim"] = "8"
    elif damage == "dim-16":
        meta["model"]["dim"] = 16
    elif damage == "three-heads":
        meta["model"]["heads"] = 3
    elif damage == "per-head-layout":  # inter.layer{l}.head{k}.{w,attn}, one pair per head
        heads = meta["model"]["heads"]
        per_head = gk.ParamStore()
        for name, tensor in store.items():
            if name.startswith("inter.layer"):
                layer, part = name.rsplit(".", 1)
                axis = 1 if part == "w" else 0  # w holds head k in column block k
                for k, block in enumerate(np.split(tensor.values, heads, axis=axis)):
                    shaped = block.reshape(-1) if part == "attn" else block
                    per_head.add(f"{layer}.head{k}.{part}", shaped, store.group(name))
            else:
                per_head.add(name, tensor.values, store.group(name))
        store = per_head
    elif damage == "split-pairs":  # each stacked pair stored apart, (out, in) oriented
        d = meta["model"]["dim"]
        split = gk.ParamStore()
        for name, tensor in store.items():
            prefix, _, part = name.rpartition(".")
            values, group = tensor.values, store.group(name)
            if part in SPLIT_ROWS:
                for old, block in zip(SPLIT_ROWS[part], np.split(values, [len(values) - d])):
                    split.add(f"{prefix}.{old}", block.T, group)
            elif part in SPLIT_COLUMNS:
                for old, block in zip(SPLIT_COLUMNS[part], np.split(values, 2, axis=-1)):
                    split.add(f"{prefix}.{old}", block, group)
            else:
                split.add(name, values.T if part in ("w", "w_compress") else values, group)
        store = split
    elif damage == "wrong-group":  # the fusion gate moved onto the inter decay schedule
        regrouped = gk.ParamStore()
        for name, tensor in store.items():
            group = "inter" if name.startswith("fusion.") else store.group(name)
            regrouped.add(name, tensor.values, group)
        store = regrouped
    else:  # a corrupt run_config.json beside an intact checkpoint
        (directory / "run_config.json").write_text("{not json")
    gk.save_params(path, store, meta=meta)
    return path


@pytest.mark.parametrize(
    "command, damage",
    [
        (command, damage)
        for command in ("evaluate", "recommend")
        for damage in (
            "no-model", "unknown-retrieval-key", "string-dim",
            "dim-16", "three-heads", "per-head-layout", "split-pairs", "wrong-group",
        )
    ]
    + [("recommend", "corrupt-run-config")],
)
def test_damaged_checkpoints_exit_two_with_one_error_line(
    train_dir, corpus_dir, tmp_path, capsys, command, damage
):
    path = damaged_checkpoint(train_dir, tmp_path, damage)
    key = load_corpus(corpus_dir).vocab.key(0)
    if command == "evaluate":
        argv = ["evaluate", "--corpus", str(corpus_dir), "--checkpoint", str(path)]
    else:
        argv = ["recommend", "--checkpoint", str(path), "--session", key]
        if damage != "corrupt-run-config":  # that case finds its corpus through the file
            argv += ["--corpus", str(corpus_dir)]
    assert main(argv) == 2
    assert one_error_line(capsys)


def test_config_file_retrieval_beats_checkpoint_settings(train_dir, corpus_dir, tmp_path, capsys):
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps({"k": 1, "threshold": 1.0}))
    base = [
        "recommend", "--checkpoint", str(train_dir / "epoch_0.ckpt"),
        "--corpus", str(corpus_dir), "--session", load_corpus(corpus_dir).vocab.key(0),
    ]
    _, saved = run_json(capsys, base)
    _, from_file = run_json(capsys, base + ["--config", str(strict)])
    _, from_flags = run_json(capsys, base + ["--k", "1", "--threshold", "1.0"])
    _, flag_over_file = run_json(capsys, base + ["--config", str(strict), "--threshold", "0.1"])
    assert from_file != saved
    assert from_file == from_flags
    assert flag_over_file != from_file


def test_format_1_corpus_exits_two_and_asks_for_preprocess(corpus_dir, tmp_path, capsys):
    corpus = load_corpus(corpus_dir)
    old = tmp_path / "corpus"
    old.mkdir()
    # format 1: a <BII header, then per session a <qI record and its u32 items
    parts = [struct.pack("<BII", 1, len(corpus.sessions), corpus.train_count)]
    for s in corpus.sessions:
        parts.append(struct.pack(f"<qI{len(s.items)}I", s.start_time, len(s.items), *s.items))
    (old / "corpus.bin").write_bytes(b"".join(parts))
    (old / "vocab.json").write_bytes((corpus_dir / "vocab.json").read_bytes())
    assert main(["neighbors", "--corpus", str(old), "--session", corpus.vocab.key(0)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "version 1" in err and "preprocess" in err


def test_corrupt_vocab_exits_two_with_one_error_line(corpus_dir, tmp_path, capsys):
    broken = tmp_path / "corpus"
    broken.mkdir()
    (broken / "corpus.bin").write_bytes((corpus_dir / "corpus.bin").read_bytes())
    (broken / "vocab.json").write_text('{"version": 1, "items": 5, "counts": []}')
    assert main(["neighbors", "--corpus", str(broken), "--session", "a"]) == 2
    assert one_error_line(capsys)
