"""Mini-batch Adam training with two learning-rate schedules.

Parameters feeding the neighbor (graph attention) branch decay their learning
rate every five epochs; everything else (embeddings, transition encoder,
fusion, readouts on the intra side) decays every three. Examples are shuffled
with a seeded generator and batched by prefix length. Each batch runs as one
packed forward and one backward of its summed loss scaled by 1/B, so
gradients are averaged over the batch, and a checkpoint plus one JSON log line
is written per epoch. The checkpoint is written on the helper thread while the
next epoch's first batch runs forward and backward, which only read the
parameters; the write is joined before that batch's optimizer step.
Early stopping watches Recall@10 on the most recent slice of the training
sessions.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import gradkit as gk
from .corpus import SessionCorpus, TrainingExample, augment
from .config import check_at_least, check_types
from .errors import ConfigError, NumericsError, TrainingError
from .evaluation import evaluate_model
from .model import ModelConfig, ModelParams, build_params, encode_batch
from .neighbors import (
    NeighborTable, RetrievalConfig, build_index, neighbor_clicks, precompute_neighbors,
)

logger = logging.getLogger(__name__)

LOG_FILENAME = "log.jsonl"


@dataclass
class TrainConfig:
    """Optimization and retrieval knobs; defaults follow the reference setup."""

    epochs: int = 30
    batch_size: int = 128
    lr: float = 1e-3
    lr_decay: float = 0.1
    intra_decay_every: int = 3
    inter_decay_every: int = 5
    seed: int = 0
    patience: int = 3
    val_fraction: float = 0.05
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)

    def validate(self) -> None:
        check_types(self)
        check_at_least(self, 1, "epochs", "batch_size", "intra_decay_every", "inter_decay_every")
        check_at_least(self, 0, "seed", "patience")
        if not 0.0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.val_fraction <= 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1], got {self.val_fraction}")
        self.retrieval.validate()


@dataclass
class TrainResult:
    params: ModelParams
    model_config: ModelConfig
    history: list[dict]
    checkpoints: list[Path] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1]["loss"]


def group_learning_rates(config: TrainConfig, epoch: int) -> dict[str, float]:
    """Learning rate per parameter group at a 0-based epoch index."""
    return {
        "intra_shared": config.lr * config.lr_decay ** (epoch // config.intra_decay_every),
        "inter": config.lr * config.lr_decay ** (epoch // config.inter_decay_every),
    }


def _length_bucketed_batches(
    examples: list[TrainingExample],
    order: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Chunk a shuffled example order into batches of uniform prefix length."""
    buckets: dict[int, list[int]] = {}
    for idx in order:
        buckets.setdefault(len(examples[idx].prefix), []).append(int(idx))
    batches: list[list[int]] = []
    for length in sorted(buckets):
        bucket = buckets[length]
        for i in range(0, len(bucket), batch_size):
            batches.append(bucket[i : i + batch_size])
    return [batches[i] for i in rng.permutation(len(batches))]


def _fit_batch(
    examples: list[TrainingExample],
    found: NeighborTable,
    corpus: SessionCorpus,
    params: ModelParams,
    model_config: ModelConfig,
    tensors: list[gk.Tensor],
) -> tuple[float, list[np.ndarray]]:
    """One packed forward and one backward: (summed loss, gradients of its batch mean).

    The tape dies on return, so it is freed before the optimizer step.
    """
    neighbor_lists = neighbor_clicks(corpus, found)
    s_h = encode_batch([ex.prefix for ex in examples], neighbor_lists, params, model_config)
    objective = gk.score_loss(s_h, params.embedding, [ex.label for ex in examples])
    grads = gk.backward(objective * (1.0 / len(examples)), wrt=tensors)
    return objective.item(), grads


def _save_timed(path: Path, store: gk.ParamStore, meta: dict) -> float:
    """Write one checkpoint; the seconds the write took."""
    started = time.perf_counter()
    gk.save_params(path, store, meta)
    return time.perf_counter() - started


def train(
    corpus: SessionCorpus,
    model_config: ModelConfig,
    config: TrainConfig = TrainConfig(),
    out_dir: Optional[Union[str, Path]] = None,
) -> TrainResult:
    """Fit the model on the corpus training partition.

    Returns the trained parameters and per-epoch history. When ``out_dir`` is
    given, writes ``epoch_<n>.ckpt`` checkpoints and appends one line per epoch
    to ``log.jsonl`` (epoch, mean loss, group learning rates, validation
    Recall@10 when measured, seconds spent fitting and fitted examples per
    second, seconds in the optimizer, in validation and, with ``out_dir``,
    in writing the checkpoint, wall time, and the fit cases' mean neighbour
    count and share with no neighbours). Epoch n's line is appended once its
    checkpoint is on disk, and no write is left in flight when this returns
    or raises; a failed write raises its own error, ahead of any later one.
    """
    model_config.validate()
    config.validate()
    if model_config.vocab_size != len(corpus.vocab):
        raise TrainingError(
            f"model vocab_size {model_config.vocab_size} != corpus items {len(corpus.vocab)}"
        )
    train_sessions = corpus.train_sessions()
    if not train_sessions:
        raise TrainingError("corpus has no training sessions")

    n_val = int(len(train_sessions) * config.val_fraction) if config.patience > 0 else 0
    fit_sessions = train_sessions[: len(train_sessions) - n_val]
    val_sessions = train_sessions[len(train_sessions) - n_val :]
    if not fit_sessions:
        raise TrainingError("validation split left no sessions to fit on")

    fit_examples = [ex for s in fit_sessions for ex in augment(s)]
    if not fit_examples:
        raise TrainingError("no training examples after augmentation")
    val_examples = [ex for s in val_sessions for ex in augment(s)]

    index = build_index(corpus)
    # retrieved once each: the lists do not change between epochs
    fit_neighbors = precompute_neighbors(index, fit_examples, config.retrieval)
    val_neighbors = precompute_neighbors(index, val_examples, config.retrieval)
    counts = np.diff(fit_neighbors.offsets)
    coverage = {
        "neighbors_mean": float(np.mean(counts)),
        "no_neighbors_share": float(np.mean(counts == 0)),
    }

    params = build_params(model_config, config.seed)
    store = params.store
    names = store.names()
    tensors = store.tensors()
    rng = np.random.default_rng(config.seed)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / LOG_FILENAME).write_text("", encoding="utf-8")

    history: list[dict] = []
    checkpoints: list[Path] = []
    pending = None  # the checkpoint write in flight: (future, its epoch's entry, path)

    def settle() -> None:
        """Wait for the write in flight, then log its epoch."""
        nonlocal pending
        if pending is not None:
            write, entry, ckpt = pending
            pending = None
            entry["checkpoint_s"] = write.result()
            checkpoints.append(ckpt)
            with open(out_path / LOG_FILENAME, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")

    best_val = -np.inf
    stale = 0
    try:
        for epoch in range(config.epochs):
            started = time.perf_counter()
            lrs = group_learning_rates(config, epoch)
            order = rng.permutation(len(fit_examples))
            batches = _length_bucketed_batches(fit_examples, order, config.batch_size, rng)

            fit_started = time.perf_counter()
            loss_sum = 0.0
            optimizer_s = 0.0
            for batch_no, batch in enumerate(batches):
                examples = [fit_examples[idx] for idx in batch]
                try:
                    batch_loss, grads = _fit_batch(
                        examples, fit_neighbors.select(batch),
                        corpus, params, model_config, tensors,
                    )
                except NumericsError as exc:
                    sessions = sorted({ex.session_id for ex in examples})
                    raise TrainingError(
                        f"non-finite value at epoch {epoch}, batch {batch_no}, "
                        f"sessions {sessions}: {exc}"
                    ) from exc
                loss_sum += batch_loss
                settle()  # the write reads the parameters this step changes
                step_started = time.perf_counter()
                gk.adam_step(store, dict(zip(names, grads)), lrs)
                optimizer_s += time.perf_counter() - step_started
            fit_s = time.perf_counter() - fit_started

            mean_loss = loss_sum / len(fit_examples)
            entry = {
                "epoch": epoch,
                "loss": mean_loss,
                "lr_intra_shared": lrs["intra_shared"],
                "lr_inter": lrs["inter"],
                "val_recall10": None,
                "fit_s": fit_s,
                "examples_per_s": len(fit_examples) / fit_s,
                "optimizer_s": optimizer_s,
                **coverage,
            }

            val_started = time.perf_counter()
            if val_examples:
                val_report = evaluate_model(
                    params, model_config, corpus, config.retrieval, cutoffs=(10,),
                    index=index, cases=val_examples, case_neighbors=val_neighbors,
                )
                entry["val_recall10"] = val_report.recall[10]
            entry["validation_s"] = time.perf_counter() - val_started

            entry["wall_time"] = time.perf_counter() - started
            history.append(entry)
            logger.info(
                "epoch %d loss %.6f lr %.2g/%.2g val_recall10 %s",
                epoch, mean_loss, lrs["intra_shared"], lrs["inter"], entry["val_recall10"],
            )

            if out_path is not None:
                ckpt = out_path / f"epoch_{epoch}.ckpt"
                meta = {
                    "model": model_config.to_dict(),
                    "retrieval": asdict(config.retrieval),
                    "epoch": epoch,
                    "seed": config.seed,
                }
                pending = (gk.helper().submit(_save_timed, ckpt, store, meta), entry, ckpt)

            if val_examples:
                if entry["val_recall10"] > best_val:
                    best_val = entry["val_recall10"]
                    stale = 0
                else:
                    stale += 1
                    if stale >= config.patience:
                        logger.info("early stop at epoch %d (stagnant validation)", epoch)
                        break
    finally:
        settle()

    return TrainResult(params, model_config, history, checkpoints)
