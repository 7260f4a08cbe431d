"""sessionrec benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

Run from the repository root. A child process first builds the seed's inputs
(``prepare.py``); this process then sets up, measures operations for
``--seconds``, checks a sample of them against the oracle in
``tests/reference_model.py``, and prints one JSON object as the last line of
standard output. With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` every operation runs twice on the same input, once untraced and
once under the tracer, and the per-layer metrics are reported instead.
Earlier lines carry provenance, the corpus shape and a workload summary; the
whole record also goes to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in the child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PREPARE_TIMEOUT_S = 600


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve", "sknn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD's commit read from .git without running git; 'unavailable' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    """sha256 over the package sources, so runs outside a clone stay attributable."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(load_start: tuple) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def prepare(seed: int, work: Path) -> dict:
    """Build the seed's inputs in a child process and wait for it to end."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--seed", str(seed), "--out", str(work)],
        capture_output=True, text=True, timeout=PREPARE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"preparing inputs failed with exit code {proc.returncode}")
    return json.loads((work / "prep.json").read_text(encoding="utf-8"))


def measure(workload, seconds: float, timeline=None, tracer=None, targets=None) -> dict:
    """Cycle through the workload's operations until ``seconds`` have passed.

    Operation ``i`` is ``workload.op(i)`` for ``i`` in ``range(workload.ops)``;
    the cycle repeats while time is left, so an operation may run several
    times, once, or (at the end of a long list) not at all; at least one
    runs. Operations that did not run are dropped. ``walls[i]`` holds (wall
    time, start mark, end mark) for each untraced run of operation ``i``;
    the marks place it among the timeline's probes. With a tracer, every run
    is a pair on the same input, one untraced and one traced, in alternating
    order.
    """
    from sessionrec import SessionRecError
    from workloads import Outcome

    walls = [[] for _ in range(workload.ops)]
    outcomes = [[] for _ in range(workload.ops)]
    pairs, traced_ops = [], []

    def run(i: int) -> tuple[tuple, Outcome]:
        start_mark = timeline.mark() if timeline else None
        started = time.perf_counter()
        try:
            out = workload.op(i)
        except SessionRecError as exc:
            out = Outcome(0, ok=False, detail=str(exc))
        wall = time.perf_counter() - started
        return (wall, start_mark, timeline.mark() if timeline else None), out

    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds:
        i = n % workload.ops
        if tracer is None:
            timed, out = run(i)
        else:
            tracer.op = f"op{n}"
            if n % 2 == 0:
                timed, out = run(i)
            with tracer.installed(targets):
                traced, _ = run(i)
            if n % 2 == 1:
                timed, out = run(i)
            pairs.append((timed[0], traced[0]))
            traced_ops.append(tracer.op)
        walls[i].append(timed)
        outcomes[i].append(out)
        n += 1
    ran = min(n, workload.ops)
    return {"walls": walls[:ran], "outcomes": outcomes[:ran], "pairs": pairs, "traced_ops": traced_ops}


def setup(workload, timeline=None, tracer=None, targets=None) -> list[tuple]:
    """Set up ``SETUP_REPS`` times from an empty heap, keeping the last state.

    Returns (duration, start mark, end mark) per repetition.
    """
    durations = []
    for rep in range(SETUP_REPS):
        workload.release()
        gc.collect()
        start_mark = timeline.mark() if timeline else None
        started = time.perf_counter()
        if tracer is None:
            workload.setup()
        else:
            tracer.op = f"setup{rep}"
            with tracer.installed(targets):
                workload.setup()
        durations.append((time.perf_counter() - started, start_mark, timeline.mark() if timeline else None))
    return durations


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def figures(setup_s: list[float], times: list[list[float]], outcomes: list) -> dict:
    """End-to-end values from per-run times: each operation's time is its median run."""
    typical = [statistics.median(runs) for runs in times]
    units = sum(outs[0].units for outs in outcomes)
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": units / sum(typical),
        "latency_p50_ms": 1e3 * percentile(typical, 50),
        "latency_p99_ms": 1e3 * percentile(typical, 99),
    }


def corrected_times(timeline, setups: list, m: dict) -> tuple[list[float], list[list[float]]]:
    return (
        [timeline.corrected(*t) for t in setups],
        [[timeline.corrected(*t) for t in runs] for runs in m["walls"]],
    )


def per_layer(tracer, m: dict, prep: dict) -> dict:
    from tracer import layer_metrics

    values = layer_metrics(tracer, m["traced_ops"])
    values["corpus.preprocess_s"] = prep["timings"]["preprocess_s"]
    plain = sum(p for p, _ in m["pairs"])
    traced = sum(t for _, t in m["pairs"])
    values["trace.overhead_share"] = traced / plain - 1.0
    values["trace.bookkeeping_share"] = tracer.bookkeeping_s / traced
    return {name: {"value": float(value), "unit": unit_of(name)} for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.startswith("gradkit.tape_nodes."):
        return "count"
    if name.endswith("_ms_p50") or name.endswith("_ms_p99"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_per_call"):
        return "MB"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def execute(args: argparse.Namespace, work: Path) -> tuple[dict, dict, object]:
    """Prepare, set up, measure and check one workload.

    Returns the result line, the full record and the tracer (None untraced).
    """
    load_start = os.getloadavg()
    phases = {}
    clock = time.perf_counter()
    prep = prepare(args.seed, work)
    phases["prepare_s"] = time.perf_counter() - clock

    from sessionrec import SessionRecError
    from speed import Timeline
    from tracer import Tracer, self_time_table, sessionrec_targets
    from workloads import WORKLOADS, CheckReport

    workload = WORKLOADS[args.workload](work, args.seed)
    tracer = Tracer() if args.trace else None
    targets = sessionrec_targets() if args.trace else None
    # Traced runs are not corrected, and timer probes would land in their spans.
    timeline = Timeline() if tracer is None else None
    with timeline.running() if timeline else contextlib.nullcontext():
        setups = setup(workload, timeline, tracer, targets)
    workload.prepare_ops()
    workload.warmup()
    if tracer is not None:
        tracer.bookkeeping_s = 0.0
    clock = time.perf_counter()
    with timeline.running() if timeline else contextlib.nullcontext():
        m = measure(workload, args.seconds, timeline, tracer, targets)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases["measure_s"] = time.perf_counter() - clock
    clock = time.perf_counter()
    try:
        check = workload.check(m["outcomes"])
    except SessionRecError as exc:
        check = CheckReport(attempted=1, failed=1, notes=[f"check raised {exc!r}"])
    phases["check_s"] = time.perf_counter() - clock

    runs = [o for outs in m["outcomes"] for o in outs]
    failed_ops = sum(1 for o in runs if not o.ok)
    if tracer is None:
        setup_c, runs_c = corrected_times(timeline, setups, m)
        values = {**figures(setup_c, runs_c, m["outcomes"]), "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        metrics = per_layer(tracer, m, prep)
    result = {
        "correct": check.failed == 0 and failed_ops == 0,
        "attempted": len(runs) + check.attempted,
        "failed": failed_ops + check.failed,
        "metrics": metrics,
    }
    summary = {
        "unit": workload.unit,
        "distinct_operations": len(m["walls"]),
        "runs": len(runs),
        "setup_s_each": [t[0] for t in setups],
        "uncorrected": figures([t[0] for t in setups], [[t[0] for t in op] for op in m["walls"]], m["outcomes"]),
        **workload.summary(m["outcomes"]),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(load_start),
        "corpus": prep["shape"],
        "prepare": prep["timings"],
        "phases": phases,
        "summary": summary,
        "check_failures": check.notes,
        "op_walls_s": [[t[0] for t in op] for op in m["walls"]],
    }
    if timeline is not None:
        summary["machine_slowdown"] = timeline.slowdown()
    else:
        table = self_time_table(tracer, m["traced_ops"])
        record["self_s_per_op"] = table
        summary["traced_s_per_op"] = statistics.fmean(t for _, t in m["pairs"])
        summary["untraced_s_per_op"] = statistics.fmean(p for p, _ in m["pairs"])
        summary["self_s_sum_per_op"] = sum(table.values())
    return result, record, tracer


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sessionrec").is_dir() or not (ROOT / "tests" / "reference_model.py").is_file():
        sys.stderr.write("perfbench: run from a sessionrec checkout (src/ and tests/ are missing)\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        result, record, tracer = execute(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1), encoding="utf-8")
    if tracer is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
    for key in ("provenance", "corpus", "phases", "summary", "self_s_per_op", "check_failures"):
        if key in record:
            print(json.dumps({key: record[key]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
