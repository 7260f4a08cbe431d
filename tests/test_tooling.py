"""Repository tooling: the pytest configuration and the README stay in step with the code."""

import ast
import importlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sessionrec.training as training
from sessionrec import gradkit as gk
from sessionrec.model import ModelConfig
from sessionrec.neighbors import RetrievalConfig
from sessionrec.synthetic import chain_corpus
from sessionrec.training import LOG_FILENAME, TrainConfig, train

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    """Hypothesis imports libcst to print a failing example; under the project's
    warnings-as-errors filter that import must not crash pytest itself."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output[-3000:]
    assert "FAILED test_probe.py::test_fails" in done.stdout
    assert "PASSED test_probe.py::test_runs_after_the_failure" in done.stdout
    assert "INTERNALERROR" not in output


def test_every_module_has_a_row_in_the_readme_package_table():
    package = ROOT / "src" / "sessionrec"
    modules = {p.stem for p in package.glob("*.py") if p.stem != "__init__"}
    modules |= {p.parent.name for p in package.glob("*/__init__.py")}
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `sessionrec\.(\w+)` \|", table, flags=re.MULTILINE))
    assert modules - rows == set(), "modules without a row in README's package table"
    assert rows - modules == set(), "README rows naming no module"


def test_readme_names_only_real_constants():
    """Every backticked ALL_CAPS name in README, the package table included, is
    assigned at module level in ``src/sessionrec``; a dotted name, in that module."""
    package = ROOT / "src" / "sessionrec"
    defined: dict[str, set[str]] = {}  # constant -> modules assigning it, as dotted paths
    for path in package.rglob("*.py"):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined.setdefault(target.id, set()).add(module)
    readme = (ROOT / "README.md").read_text()
    named = re.findall(r"`(?:sessionrec\.)?((?:\w+\.)*)([A-Z][A-Z0-9_]+)`", readme)
    assert named, "the pattern finds no constant"
    for module, name in named:
        assert name in defined, f"README names {name}, which no module defines"
        assert not module or module[:-1] in defined[name], f"README names {module}{name}"


def test_readme_dotted_names_resolve():
    """Every backticked dotted name in README that starts at the package or at
    one of its modules (`gradkit.edge_sum`, `model._aggregate_first`) names a
    real attribute."""
    package = ROOT / "src" / "sessionrec"
    modules = {p.stem for p in package.glob("*.py")}
    modules |= {p.parent.name for p in package.glob("*/__init__.py")}
    readme = (ROOT / "README.md").read_text()
    named = [name for name in re.findall(r"`((?:\w+\.)+\w+)`", readme)
             if name.split(".")[0] in modules | {"sessionrec"}]
    assert len(named) >= 15, named
    for name in named:
        first, *rest = name.removeprefix("sessionrec.").split(".")
        if first in modules:  # the module, though the package's `neighbors` is a function
            owner = importlib.import_module(f"sessionrec.{first}")
        else:
            owner, rest = importlib.import_module("sessionrec"), [first, *rest]
        for part in rest:
            assert hasattr(owner, part), f"README names {name}, which does not resolve"
            owner = getattr(owner, part)


def test_readme_log_row_names_the_keys_of_an_epoch_line(tmp_path):
    """README's ``run/log.jsonl`` row names, outside its parentheses, exactly
    the keys ``train`` writes on each line of the log."""
    readme = (ROOT / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith(f"| `run/{LOG_FILENAME}` |"))
    documented = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", row.split("|")[3])))
    corpus = chain_corpus(n_sessions=12, n_chains=2, chain_len=4, seed=3)
    config = TrainConfig(epochs=1, seed=1, patience=0, retrieval=RetrievalConfig(threshold=0.1))
    train(corpus, ModelConfig(vocab_size=len(corpus.vocab), dim=4, heads=2, gat_layers=1),
          config, out_dir=tmp_path)
    line = (tmp_path / LOG_FILENAME).read_text().splitlines()[0]
    assert documented == set(json.loads(line))


THREADS_PROBE = """
import threading
before = threading.active_count()
import sessionrec as sr
from sessionrec.synthetic import chain_corpus
corpus = chain_corpus(n_sessions=16, n_chains=2, chain_len=4, seed=3)
config = sr.ModelConfig(vocab_size=len(corpus.vocab), dim=4, heads=2, gat_layers=1)
cases = [ex for s in corpus.sessions[-4:] for ex in sr.augment(s)]
sr.evaluate_model(sr.build_params(config, 0), config, corpus, cases=cases)
sr.evaluate_baseline("sknn", corpus, cases=cases)
print(before, threading.active_count())
"""


def test_serving_and_session_knn_start_no_thread():
    """The helper thread is training's alone: importing the package, a model
    evaluation and the session-kNN baseline leave the thread count as it was."""
    done = subprocess.run([sys.executable, "-c", THREADS_PROBE], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-3000:]
    before, after = map(int, done.stdout.split())
    assert after == before


def test_train_leaves_no_checkpoint_write_in_flight(tmp_path, monkeypatch):
    """Whether ``train`` returns or raises, every checkpoint write it started
    has finished."""
    save = gk.save_params
    in_flight = []

    def slow_save(path, store, meta):
        in_flight.append(meta["epoch"])
        time.sleep(0.1)
        save(path, store, meta)
        in_flight.remove(meta["epoch"])

    monkeypatch.setattr(gk, "save_params", slow_save)
    corpus = chain_corpus(n_sessions=12, n_chains=2, chain_len=4, seed=3)
    model = ModelConfig(vocab_size=len(corpus.vocab), dim=4, heads=2, gat_layers=1)
    train(corpus, model, TrainConfig(epochs=2, seed=1, patience=0), out_dir=tmp_path / "ok")
    assert in_flight == []

    epochs = []

    def recording_epochs(config, epoch):
        epochs.append(epoch)
        return rates(config, epoch)

    def poisoned_after_one_epoch(prefixes, *args):
        if epochs[-1] == 1:  # epoch 0's checkpoint is being written
            raise training.NumericsError("exp produced non-finite values")
        return encode_batch(prefixes, *args)

    rates, encode_batch = training.group_learning_rates, training.encode_batch
    monkeypatch.setattr(training, "group_learning_rates", recording_epochs)
    monkeypatch.setattr(training, "encode_batch", poisoned_after_one_epoch)
    with pytest.raises(training.TrainingError, match="epoch 1, batch 0"):
        train(corpus, model, TrainConfig(epochs=3, seed=1, patience=0), out_dir=tmp_path / "bad")
    assert in_flight == []
    assert len((tmp_path / "bad" / LOG_FILENAME).read_text().splitlines()) == 1
