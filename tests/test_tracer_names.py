"""perfbench's tracer wraps package functions by name. Tier-1 collects only
tests/, so this check keeps a rename in the package from passing here while
`perfbench/run.py --trace 1` breaks. The tracer is loaded by file path under
its own module name, apart from perfbench's conftest."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
from conftest import random_batch, tiny_config

from fuxi_alpha.model import init_params
from fuxi_alpha.train import AdamW, TrainConfig, train_step

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    name = "perfbench_tracer_name_check"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    wanted = [(mod, attr) for mod, attr, _ in tracer.FUNCTIONS + tracer.GENERATORS]
    wanted += [("tensor", op) for op in tracer.TENSOR_OPS]
    missing = [
        f"{mod}.{attr}" for mod, attr in wanted
        if not callable(getattr(importlib.import_module(f"fuxi_alpha.{mod}"), attr, None))
    ]
    assert missing == []
    model = importlib.import_module("fuxi_alpha.model")
    assert model.BLOCK_APPLIERS and all(callable(f) for f in model.BLOCK_APPLIERS.values())
    assert callable(importlib.import_module("fuxi_alpha.train").AdamW.step)


def test_instrument_and_restore_round_trip(monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    model = importlib.import_module("fuxi_alpha.model")
    train = importlib.import_module("fuxi_alpha.train")
    before = (dict(model.BLOCK_APPLIERS), train.AdamW.step, model.sampled_loss, train.sample_negatives_batch)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.instrument(tracer)
        assert train.sample_negatives_batch is not before[3]
    finally:
        tracer.restore()
    after = (dict(model.BLOCK_APPLIERS), train.AdamW.step, model.sampled_loss, train.sample_negatives_batch)
    assert after == before


def test_one_training_step_calls_every_traced_tensor_op(monkeypatch):
    """A traced op that no training step calls reads 0 on every workload, so
    one full-variant train_step must call each op the tracer names."""
    tracer = _load_tracer(monkeypatch)
    tensor = importlib.import_module("fuxi_alpha.tensor")
    called = set()

    def spy(op, original):
        def wrapped(*args, **kwargs):
            called.add(op)
            return original(*args, **kwargs)

        return wrapped

    for op in tracer.TENSOR_OPS:
        monkeypatch.setattr(tensor, op, spy(op, getattr(tensor, op)))
    cfg = tiny_config()
    params = init_params(cfg, "full")
    loss = train_step(random_batch(cfg, 3, seed=1), params, cfg, AdamW(params.named(), TrainConfig()), np.random.default_rng(0))
    assert loss is not None
    assert [op for op in tracer.TENSOR_OPS if op not in called] == []
