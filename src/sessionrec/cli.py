"""Command-line front end.

One executable, six subcommands: preprocess, neighbors, graph, train, evaluate,
recommend. Results go to stdout as JSON; diagnostics go to stderr. Exit codes:
0 success, 1 usage error, 2 runtime failure (bad config values included).
Settings resolve with CLI flags beating a --config JSON file beating the
retrieval settings saved in a checkpoint beating built-in defaults, and every
command that writes an output directory drops the resolved configuration next
to its outputs as run_config.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import gradkit as gk
from .corpus import (
    Event,
    PreprocessConfig,
    SessionCorpus,
    filter_corpus,
    ingest_events,
    load_corpus,
    read_events_csv,
    save_corpus,
    split_by_time,
    take_recent_fraction,
)
from .errors import ConfigError, SessionRecError
from .evaluation import BASELINES, evaluate_baseline, evaluate_model
from .files import read_json_object, write_atomic
from .graphs import build_inter_graph, build_intra_graph
from .model import ModelConfig, ModelParams, bind_params, forward
from .neighbors import RetrievalConfig, build_index, neighbor_clicks, neighbors, retrieve
from .training import TrainConfig, train

DATA_DIR_ENV = "SESSIONREC_DATA"
RUN_CONFIG_FILENAME = "run_config.json"


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for runtime
        raise UsageError(message)


@dataclass
class RunConfig:
    """A run's settings: the package's config sections under one flat namespace.

    Flags, ``--config`` keys and run_config.json use each field's own name;
    the model's vocab_size is not a setting, since it comes from the corpus.
    """

    # a stand-in vocab_size; cmd_train replaces it with the corpus's
    model: ModelConfig = field(default_factory=lambda: ModelConfig(vocab_size=1))
    train: TrainConfig = field(default_factory=TrainConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def settings(self) -> dict[str, object]:
        """Each setting's name mapped to the section that holds it."""
        found = (self.model, self.train, self.train.retrieval, self.preprocess)
        return {
            f.name: section
            for section in found
            for f in fields(section)
            if f.name not in ("vocab_size", "retrieval")
        }


def resolve_config(
    args: argparse.Namespace, saved: Optional[RetrievalConfig] = None
) -> RunConfig:
    """Defaults, overlaid by a checkpoint's saved retrieval settings, then by
    the --config file, then by explicit flags; every section is validated."""
    cfg = RunConfig()
    if saved is not None:
        cfg.train.retrieval = saved
    owner = cfg.settings()
    from_file = {}
    if getattr(args, "config", None):
        doc = read_json_object(args.config, ConfigError)
        # a previously written run_config.json holds its settings under "config"
        from_file = doc["config"] if isinstance(doc.get("config"), dict) else doc
    flags = {n: v for n in owner if (v := getattr(args, n, None)) is not None}
    for name, value in [*from_file.items(), *flags.items()]:
        if name not in owner:
            raise ConfigError(f"unknown config key {name!r}")
        setattr(owner[name], name, value)
    cfg.model.validate()
    cfg.train.validate()
    cfg.preprocess.validate()
    return cfg


def write_run_config(directory: Path, command: str, cfg: RunConfig, paths: dict) -> None:
    config = {name: getattr(section, name) for name, section in cfg.settings().items()}
    doc = {"command": command, "paths": paths, "config": config}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    write_atomic(directory / RUN_CONFIG_FILENAME, [text.encode("utf-8")])


def _corpus_dir(args: argparse.Namespace) -> Path:
    if getattr(args, "corpus", None):
        return Path(args.corpus)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise UsageError(f"--corpus is required (or set {DATA_DIR_ENV})")


def _parse_session_arg(text: str) -> list[str]:
    keys = [part.strip() for part in text.split(",") if part.strip()]
    if not keys:
        raise UsageError("--session must list at least one item key")
    return keys


def _map_keys(corpus: SessionCorpus, keys: list[str]) -> list[int]:
    return [corpus.vocab.index(k) for k in keys]


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------- subcommands


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    prep = cfg.preprocess
    events = read_events_csv(
        args.input,
        delimiter=args.delimiter,
        session_col=args.session_col,
        time_col=args.time_col,
        item_col=args.item_col,
        skip_header=args.skip_header,
    )
    corpus = ingest_events(events)
    corpus = filter_corpus(corpus, min_support=prep.min_support, min_len=prep.min_len)
    corpus = split_by_time(corpus, prep.test_window)
    if prep.fraction is not None:
        corpus = take_recent_fraction(corpus, prep.fraction)
    out = Path(args.output)
    save_corpus(corpus, out)
    write_run_config(out, "preprocess", cfg, {"input": str(args.input), "output": str(out)})
    _emit(
        {
            "sessions": len(corpus.sessions),
            "train_sessions": corpus.train_count,
            "test_sessions": len(corpus.sessions) - corpus.train_count,
            "items": len(corpus.vocab),
            "output": str(out),
        }
    )
    return 0


def cmd_neighbors(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    corpus = load_corpus(_corpus_dir(args))
    prefix = _map_keys(corpus, _parse_session_arg(args.session))
    index = build_index(corpus)
    found = neighbors(index, prefix, **vars(cfg.train.retrieval))
    _emit([{"session": sid, "similarity": sim} for sid, sim in found])
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    keys = _parse_session_arg(args.session)
    if args.with_neighbors or args.corpus:
        corpus = load_corpus(_corpus_dir(args))
        prefix = _map_keys(corpus, keys)
    else:  # a one-session corpus indexes the session's own items
        corpus = ingest_events(Event("session", 0, key) for key in keys)
        prefix = corpus.sessions[0].items

    neighbor_sessions = []
    if args.with_neighbors:
        index = build_index(corpus)
        found = retrieve(index, [prefix], cfg.train.retrieval)
        neighbor_sessions = neighbor_clicks(corpus, found)[0]

    intra = build_intra_graph(prefix)
    inter = build_inter_graph(prefix, neighbor_sessions)
    n = len(intra.node_items)
    dense = np.zeros((2, n, n))                       # a_out and a_in as matrices
    dense[:, intra.dst, intra.src] = intra.weight.T
    _emit(
        {
            "intra": {
                "nodes": [corpus.vocab.key(i) for i in intra.node_items],
                "a_out": dense[0].tolist(),
                "a_in": dense[1].tolist(),
                "alias": intra.positions.tolist(),
                "last_slot": int(intra.positions[intra.last[0]]),
            },
            "inter": {
                "nodes": [corpus.vocab.key(i) for i in inter.node_items],
                "adjacency": inter.adjacency,
                "session_slots": inter.positions.tolist(),
                "last_slot": int(inter.positions[inter.last[0]]),
            },
        }
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    corpus = load_corpus(_corpus_dir(args))
    model_config = replace(cfg.model, vocab_size=len(corpus.vocab))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_run_config(out, "train", cfg, {"corpus": str(_corpus_dir(args)), "out": str(out)})
    result = train(corpus, model_config, cfg.train, out_dir=out)
    _emit(
        {
            "epochs_run": len(result.history),
            "final_loss": result.final_loss,
            "checkpoints": [p.name for p in result.checkpoints],
            "out": str(out),
        }
    )
    return 0


def _parse_cutoffs(text: str) -> list[int]:
    try:
        cutoffs = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--at expects comma-separated integers, got {text!r}") from None
    if not cutoffs or any(c < 1 for c in cutoffs):
        raise UsageError("--at cutoffs must be positive")
    return cutoffs


def _load_checkpoint(
    args: argparse.Namespace, corpus: SessionCorpus
) -> tuple[ModelParams, ModelConfig, RunConfig]:
    """Bind a checkpoint to the corpus; settings resolve over its saved retrieval."""
    store, meta = gk.load_params(args.checkpoint)
    model_config = ModelConfig.from_dict(meta.get("model"))
    if model_config.vocab_size != len(corpus.vocab):
        raise ConfigError(
            "checkpoint was trained on a different vocabulary "
            f"({model_config.vocab_size} items vs {len(corpus.vocab)})"
        )
    saved = meta.get("retrieval")
    cfg = resolve_config(args, None if saved is None else RetrievalConfig.from_dict(saved))
    return bind_params(store, model_config), model_config, cfg


def cmd_evaluate(args: argparse.Namespace) -> int:
    corpus = load_corpus(_corpus_dir(args))
    cutoffs = _parse_cutoffs(args.at)
    if args.baseline is None and args.checkpoint is None:
        raise UsageError("evaluate needs --checkpoint or --baseline")

    if args.baseline is not None:
        cfg = resolve_config(args)
        report = evaluate_baseline(args.baseline, corpus, cfg.train.retrieval, cutoffs)
    else:
        params, model_config, cfg = _load_checkpoint(args, corpus)
        report = evaluate_model(params, model_config, corpus, cfg.train.retrieval, cutoffs)

    payload = report.to_dict()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        write_atomic(out / "report.json", [text.encode("utf-8")])
        write_run_config(out, "evaluate", cfg, {"corpus": str(_corpus_dir(args))})
    _emit(payload)
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise UsageError(f"--top must be at least 1, got {args.top}")
    corpus_dir = None
    if getattr(args, "corpus", None) or os.environ.get(DATA_DIR_ENV):
        corpus_dir = _corpus_dir(args)
    else:
        sibling = Path(args.checkpoint).parent / RUN_CONFIG_FILENAME
        if sibling.exists():
            paths = read_json_object(sibling, ConfigError).get("paths")
            if isinstance(paths, dict) and isinstance(paths.get("corpus"), str):
                corpus_dir = Path(paths["corpus"])
    if corpus_dir is None:
        raise UsageError("--corpus is required (no run_config.json next to checkpoint)")
    corpus = load_corpus(corpus_dir)
    params, model_config, cfg = _load_checkpoint(args, corpus)

    prefix = _map_keys(corpus, _parse_session_arg(args.session))
    index = build_index(corpus)
    found = retrieve(index, [prefix], cfg.train.retrieval)
    yhat, _ = forward(prefix, neighbor_clicks(corpus, found)[0], params, model_config)
    scores = yhat.values
    # stable ranking: probability descending, item index ascending on ties
    order = np.lexsort((np.arange(len(scores)), -scores))[: args.top].tolist()
    _emit([{"item": corpus.vocab.key(i), "score": float(scores[i])} for i in order])
    return 0


# ------------------------------------------------------------------- parsing


def _add_settings(p: _Parser, *sections: type) -> None:
    """Add --config and one --field-name flag per setting of the given sections.

    A flag takes its field's ``int`` or ``float`` type, else ``str``; a ``bool``
    field becomes a switch. Every flag defaults to None, so resolve_config can
    tell a flag that was given from one that was not.
    """
    p.add_argument("--config", default=None, help="JSON config file")
    for name, section in RunConfig().settings().items():
        if type(section) in sections:
            hint = typing.get_type_hints(type(section))[name]
            flag = "--" + name.replace("_", "-")
            note = f"{type(section).__name__}.{name}, default {getattr(section, name)}"
            if hint is bool:
                p.add_argument(flag, action="store_const", const=True, default=None, help=note)
            else:
                kind = hint if hint in (int, float) else str
                p.add_argument(flag, type=kind, default=None, help=note)


def build_parser() -> _Parser:
    parser = _Parser(prog="sessionrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("preprocess", help="events file -> filtered, time-split corpus directory")
    _add_settings(p, PreprocessConfig)
    p.add_argument("--input", required=True, help="CSV/TSV events file")
    p.add_argument("--output", required=True, help="corpus output directory")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--session-col", type=int, default=0)
    p.add_argument("--time-col", type=int, default=1)
    p.add_argument("--item-col", type=int, default=2)
    p.add_argument("--skip-header", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser(
        "neighbors", help="retrieve the most similar past sessions for an ad-hoc session"
    )
    _add_settings(p, RetrievalConfig)
    p.add_argument("--corpus", default=None, help="corpus directory")
    p.add_argument("--session", required=True, help="comma-separated item keys")
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("graph", help="print a session's graphs as JSON")
    _add_settings(p, RetrievalConfig)
    p.add_argument("--corpus", default=None, help="corpus directory")
    p.add_argument("--session", required=True, help="comma-separated item keys")
    p.add_argument("--with-neighbors", action="store_true",
                   help="include retrieved neighbors in the undirected graph")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("train", help="fit the model and write per-epoch checkpoints")
    _add_settings(p, ModelConfig, TrainConfig, RetrievalConfig)
    p.add_argument("--corpus", default=None, help="corpus directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="next-item metrics for a checkpoint or a baseline")
    _add_settings(p, RetrievalConfig)
    p.add_argument("--corpus", default=None, help="corpus directory")
    p.add_argument("--checkpoint", default=None, help="checkpoint file")
    p.add_argument("--baseline", choices=BASELINES, default=None)
    p.add_argument("--at", default="5,10", help="metric cutoffs, e.g. 5,10")
    p.add_argument("--out", default=None, help="also write report.json here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "recommend", help="rank items for an ad-hoc session with a trained checkpoint"
    )
    _add_settings(p, RetrievalConfig)
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--session", required=True, help="comma-separated item keys")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--corpus", default=None, help="corpus directory")
    p.set_defaults(func=cmd_recommend)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SessionRecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
