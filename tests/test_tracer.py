"""perfbench/tracer.py patches package functions by name; each one it names must
still exist, and installing the tracer must time calls and then put every
original back. The file is imported as it stands, not edited."""

import importlib.util
import sys
from pathlib import Path

import pytest

import sessionrec.gradkit as gk
import sessionrec.graphs as graphs
import sessionrec.model as model
from sessionrec.model import ModelConfig, build_params

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their defining module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_tracer_target_resolves_and_is_bound(tracer_module):
    for target in tracer_module.sessionrec_targets():
        assert callable(target.fn), target.name
        assert target.bindings(), target.name


def test_installed_tracer_times_a_step_and_restores_the_originals(tracer_module):
    targets = tracer_module.sessionrec_targets()
    originals = [
        (owner, attr, getattr(owner, attr)) for t in targets for owner, attr in t.bindings()
    ]
    config = ModelConfig(vocab_size=6, dim=8, heads=2, gat_layers=1)
    params = build_params(config, seed=0)
    tracer = tracer_module.Tracer()
    untraced_forward = model.forward
    with tracer.installed(targets):
        assert model.forward is not untraced_forward
        yhat, _ = model.forward([0, 1, 2], [[1, 2, 3], [2, 4, 5]], params, config)
        gk.backward(model.loss(yhat, 3), wrt=params.store.tensors())
    names = {span.name for span in tracer.spans}
    assert {"model.forward", "model.loss", "gradkit.backward"} <= names
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_inter_graph_hooks_time_the_mask_and_count_nodes_and_edges(tracer_module):
    tracer = tracer_module.Tracer()
    with tracer.installed(tracer_module.sessionrec_targets()):
        graphs.build_inter_graph([0, 1], [[1, 2], [3, 2]]).mask()
    assert "graphs.mask" in {span.name for span in tracer.spans}
    observed = {name: value for _, name, value in tracer.observations}
    assert observed["graphs.inter_nodes"] == 4
    # 0-1, 1-2 and 3-2: self loops are not counted
    assert observed["graphs.inter_edges"] == 3
