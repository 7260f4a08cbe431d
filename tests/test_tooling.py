"""Repository tooling: the pytest configuration and the README stay in step with the code."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

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
