"""Outside-in tracing of sessionrec: timed spans around calls into its public functions.

Nothing in the package changes. While a :class:`Tracer` is installed, every
module attribute of ``sessionrec`` bound to a traced function is replaced by a
timing wrapper, and the originals come back on exit. A function is patched at
each place it is bound because the package calls through its own imports:
``training`` calls ``forward`` through ``from .model import forward``, so
patching ``sessionrec.model.forward`` alone would see nothing.

A span records its name, start, end, parent span and the operation it belongs
to; its self time is its duration minus the time its child spans cover. Work
the tracer does for itself (walking a tape, counting graph edges) runs outside
every span and is subtracted from the enclosing span's self time, so the self
times of one operation add up to its traced wall time minus that bookkeeping.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

Hook = Callable[..., Any]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: str
    name: str
    start: float
    end: float
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Tracer:
    """In-memory span recorder; install it to trace, read ``spans`` afterwards."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.observations: list[tuple[str, str, float]] = []  # (op, name, value)
        self.bookkeeping_s = 0.0
        self.op = ""
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def observe(self, name: str, value: float) -> None:
        """Record a count taken at a layer boundary, tagged with the current op."""
        self.observations.append((self.op, name, float(value)))

    def _bookkeep(self, hook: Hook, *args: Any) -> Any:
        started = time.perf_counter()
        try:
            return hook(self, *args)
        finally:
            spent = time.perf_counter() - started
            self.bookkeeping_s += spent
            if self._stack:
                self._stack[-1][1] += spent

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``before(tracer, args, kwargs)`` runs ahead of the span and its return
        value reaches ``after(tracer, state, result)``, which runs once the
        span has closed; both are timed as bookkeeping.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._bookkeep(before, args, kwargs) if before else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append(
                    Span(
                        span_id,
                        parent[0] if parent is not None else None,
                        tracer.op,
                        name,
                        start,
                        end,
                        end - start - frame[1],
                    )
                )
            if after:
                tracer._bookkeep(after, state, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: list["Target"]) -> Iterator["Tracer"]:
        """Patch every binding of every target for the duration of the block."""
        patches: list[tuple[Any, str, Any]] = []
        try:
            for target in targets:
                wrapper = self.wrap(target.name, target.fn, target.before, target.after)
                for owner, attr in target.bindings():
                    patches.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


@dataclass
class Target:
    """A function to trace, found by identity in the sessionrec modules.

    ``owner``/``attr`` name one binding; :meth:`bindings` finds the others.
    A class attribute (a method) is patched on its class only.
    """

    name: str
    owner: Any
    attr: str
    before: Optional[Hook] = None
    after: Optional[Hook] = None

    @property
    def fn(self) -> Callable:
        if isinstance(self.owner, type):
            return self.owner.__dict__[self.attr]
        return getattr(self.owner, self.attr)

    def bindings(self) -> list[tuple[Any, str]]:
        if isinstance(self.owner, type):
            return [(self.owner, self.attr)]
        fn = self.fn
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sessionrec" or mod_name.startswith("sessionrec.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    found.append((module, attr))
        return found


# ---------------------------------------------------------------------------
# counts taken at layer boundaries

TAPE_OPS = (
    "param", "leaf", "add", "sub", "mul", "div", "neg", "matmul", "transpose",
    "reshape", "concat", "slice_rows", "sigmoid", "tanh", "leaky_relu", "exp",
    "log", "clip", "softmax", "sum", "mean", "other",
)


def _op_bucket(op: str) -> str:
    if op.startswith("param:"):
        return "param"
    return op if op in TAPE_OPS else "other"


def _before_backward(tracer: Tracer, args: tuple, kwargs: dict) -> list:
    """Walk the tape about to be replayed: node count by op and bytes held."""
    import sessionrec.gradkit as gk

    output = args[0] if args else kwargs["output"]
    nodes = gk.tape(output)
    counts: dict[str, int] = {}
    for node in nodes:
        bucket = _op_bucket(node.op)
        counts[bucket] = counts.get(bucket, 0) + 1
    tracer.observe("gradkit.tape_nodes", len(nodes))
    for bucket, n in counts.items():
        tracer.observe(f"gradkit.tape_nodes.{bucket}", n)
    tracer.observe("gradkit.tape_bytes", sum(node.values.nbytes for node in nodes))
    return nodes


def _after_backward(tracer: Tracer, nodes: list, result: Any) -> None:
    """Bytes of the gradient arrays the replay left on the tape's nodes."""
    tracer.observe(
        "gradkit.grad_bytes", sum(node.grad.nbytes for node in nodes if node.grad is not None)
    )


def _after_candidates(tracer: Tracer, state: Any, result: list) -> None:
    tracer.observe("neighbors.candidates", len(result))


def _after_neighbors(tracer: Tracer, state: Any, result: list) -> None:
    tracer.observe("neighbors.kept", len(result))


def _after_inter_graph(tracer: Tracer, state: Any, graph: Any) -> None:
    tracer.observe("graphs.inter_nodes", len(graph.node_items))
    # adjacency lists hold each undirected edge twice and every self loop once
    loops_and_twice = sum(len(nbrs) for nbrs in graph.adjacency)
    tracer.observe("graphs.inter_edges", (loops_and_twice - len(graph.adjacency)) / 2)


def sessionrec_targets() -> list[Target]:
    """Every traced function of the package, with the span name it records."""
    import sessionrec.baselines as baselines
    import sessionrec.corpus as corpus
    import sessionrec.evaluation as evaluation
    import sessionrec.gradkit as gk
    import sessionrec.graphs as graphs
    import sessionrec.model as model
    import sessionrec.training as training

    # The package re-exports the function ``neighbors`` under the module's own
    # name, so the attribute ``sessionrec.neighbors`` is not the module.
    nbr = sys.modules["sessionrec.neighbors"]
    return [
        Target("training.train", training, "train"),
        Target("training.precompute_neighbors", training, "precompute_neighbors"),
        Target("evaluation.evaluate_model", evaluation, "evaluate_model"),
        Target("evaluation.evaluate_baseline", evaluation, "evaluate_baseline"),
        Target("evaluation.rank_of", evaluation, "rank_of"),
        Target("baselines.sknn_scores", baselines, "sknn_scores"),
        Target("neighbors.neighbors", nbr, "neighbors", after=_after_neighbors),
        Target("neighbors.candidates", nbr, "candidates", after=_after_candidates),
        Target("neighbors.build_index", nbr, "build_index"),
        Target("corpus.load_corpus", corpus, "load_corpus"),
        Target("model.forward", model, "forward"),
        Target("model.loss", model, "loss"),
        Target("model.ggnn_encode", model, "ggnn_encode"),
        Target("model.inter_encode", model, "inter_encode"),
        Target("model.session_readout", model, "session_readout"),
        Target("model.fuse", model, "fuse"),
        Target("model.score_and_predict", model, "score_and_predict"),
        Target("graphs.build_intra_graph", graphs, "build_intra_graph"),
        Target("graphs.build_inter_graph", graphs, "build_inter_graph", after=_after_inter_graph),
        Target("graphs.mask", graphs.InterGraph, "mask"),
        Target("gradkit.backward", gk, "backward", before=_before_backward, after=_after_backward),
        Target("gradkit.adam_step", gk, "adam_step"),
        Target("gradkit.save_params", gk, "save_params"),
        Target("gradkit.load_params", gk, "load_params"),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans

MB = 1024.0 * 1024.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, ops: list[str]) -> dict[str, float]:
    """Per-layer figures, per operation unless the name says per call.

    ``ops`` names the traced operations; spans under other op ids (set-up)
    only feed the per-call set-up figures.
    """
    op_set = set(ops)
    n_ops = max(len(op_set), 1)
    by_id = {s.id: s for s in tracer.spans}
    in_ops = [s for s in tracer.spans if s.op in op_set]

    def spans(name: str, pool: list[Span] = in_ops) -> list[Span]:
        return [s for s in pool if s.name == name]

    def total(name: str) -> float:
        return sum(s.duration for s in spans(name)) / n_ops

    def self_time(name: str) -> float:
        return sum(s.self_s for s in spans(name)) / n_ops

    def calls(name: str) -> float:
        return len(spans(name)) / n_ops

    def per_call(name: str) -> float:
        return _mean([s.duration for s in spans(name, tracer.spans)])

    def observed(name: str) -> list[float]:
        return [v for op, n, v in tracer.observations if n == name and op in op_set]

    validation = sum(
        s.duration
        for s in spans("evaluation.evaluate_model")
        if s.parent is not None and by_id[s.parent].name == "training.train"
    ) / n_ops
    query_ms = [1e3 * s.duration for s in spans("neighbors.neighbors")]
    kept = observed("neighbors.kept")
    cands = observed("neighbors.candidates")
    tape_nodes = observed("gradkit.tape_nodes")
    n_backward = len(tape_nodes)
    inter_nodes = observed("graphs.inter_nodes")

    out = {
        "gradkit.backward_s": total("gradkit.backward"),
        "gradkit.backward_calls": calls("gradkit.backward"),
        "gradkit.tape_nodes_per_call": _mean(tape_nodes),
        "gradkit.tape_mb_per_call": _mean(observed("gradkit.tape_bytes")) / MB,
        "gradkit.grad_mb_per_call": _mean(observed("gradkit.grad_bytes")) / MB,
        "gradkit.adam_steps": calls("gradkit.adam_step"),
        "gradkit.adam_step_s": total("gradkit.adam_step"),
        "gradkit.save_params_s": total("gradkit.save_params"),
        "gradkit.load_params_s": per_call("gradkit.load_params"),
        "training.self_s": self_time("training.train"),
        "training.precompute_s": total("training.precompute_neighbors"),
        "training.validation_s": validation,
        "model.forward_calls": calls("model.forward"),
        "model.forward_self_s": self_time("model.forward"),
        "model.ggnn_s": total("model.ggnn_encode"),
        "model.gat_s": self_time("model.inter_encode"),
        "model.readout_s": total("model.session_readout"),
        "model.fuse_s": total("model.fuse"),
        "model.loss_s": total("model.loss"),
        "model.score_s": total("model.score_and_predict"),
        "graphs.intra_s": total("graphs.build_intra_graph"),
        "graphs.inter_s": total("graphs.build_inter_graph"),
        "graphs.mask_s": total("graphs.mask"),
        "graphs.inter_nodes_mean": _mean(inter_nodes),
        "graphs.inter_nodes_max": max(inter_nodes, default=0.0),
        "graphs.inter_edges_mean": _mean(observed("graphs.inter_edges")),
        "evaluation.self_s": self_time("evaluation.evaluate_model")
        + self_time("evaluation.evaluate_baseline"),
        "evaluation.rank_s": total("evaluation.rank_of"),
        "neighbors.queries": calls("neighbors.neighbors"),
        "neighbors.total_s": total("neighbors.neighbors"),
        "neighbors.candidates_s": total("neighbors.candidates"),
        "neighbors.query_ms_p50": _percentile(query_ms, 50),
        "neighbors.query_ms_p99": _percentile(query_ms, 99),
        "neighbors.candidates_mean": _mean(cands),
        "neighbors.kept_ratio": sum(kept) / sum(cands) if sum(cands) else 0.0,
        "neighbors.empty_share": _mean([1.0 if k == 0 else 0.0 for k in kept]),
        "neighbors.build_index_s": per_call("neighbors.build_index"),
        "corpus.load_s": per_call("corpus.load_corpus"),
        "baselines.sknn_scores_s": total("baselines.sknn_scores"),
    }
    for bucket in TAPE_OPS:
        found = observed(f"gradkit.tape_nodes.{bucket}")
        out[f"gradkit.tape_nodes.{bucket}"] = sum(found) / n_backward if n_backward else 0.0
    return out


def self_time_table(tracer: Tracer, ops: list[str]) -> dict[str, float]:
    """Self seconds per operation by span name, largest first."""
    op_set = set(ops)
    n_ops = max(len(op_set), 1)
    table: dict[str, float] = {}
    for s in tracer.spans:
        if s.op in op_set:
            table[s.name] = table.get(s.name, 0.0) + s.self_s / n_ops
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))
