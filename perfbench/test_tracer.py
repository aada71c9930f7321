"""Tests of the outside-in tracer: `python3 -m pytest perfbench`."""

import importlib
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from tracer import TENSOR_OPS, Tracer, instrument


class Clock:
    """Deterministic clock: each reading advances time by the next step."""

    def __init__(self, steps):
        self.t = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.t += next(self.steps)
        return self.t


def test_self_time_is_duration_minus_children():
    # readings: root open 1, a open 3, a close 6, b open 7, b.c open 8, b.c close 10, b close 11, root close 16
    tr = Tracer(clock=Clock([1, 2, 3, 1, 1, 2, 1, 5]))
    with tr.span("root"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("c"):
                pass
    names = [s.name for s in tr.spans]
    assert names == ["root", "a", "b", "c"]
    assert [s.parent for s in tr.spans] == [-1, 0, 0, 2]
    durations = [s.duration for s in tr.spans]
    assert durations == [15, 3, 4, 2]
    assert tr.self_times() == [15 - 3 - 4, 3, 4 - 2, 2]
    summary = tr.summary(["root"])
    assert summary["b"] == {"calls": 1, "total_s": 4, "self_s": 2, "values": {}}
    assert tr.coverage(["root"]) == pytest.approx(7 / 15)


def test_summary_and_coverage_only_count_named_roots():
    tr = Tracer(clock=Clock([1] * 8))
    with tr.span("warmup"):
        with tr.span("f"):
            pass
    with tr.span("timed"):
        with tr.span("f"):
            pass
    assert tr.summary(["timed"])["f"]["calls"] == 1
    assert tr.durations("f", ["warmup", "timed"]) == [1, 1]
    assert tr.coverage(["timed"]) == pytest.approx(1 / 3)


def test_wrappers_record_spans_values_and_generator_waits():
    tr = Tracer()

    def gen(k):
        yield from range(k)

    double = tr.wrap(lambda x: 2 * x, "double", measure=lambda out, args: {"out": out})
    items = tr.wrap_generator(gen, "gen")
    assert [double(i) for i in items(3)] == [0, 2, 4]
    assert [s.name for s in tr.spans].count("gen") == 4  # three items and the final StopIteration
    assert sum(s.values.get("out", 0) for s in tr.spans) == 6
    assert not tr._stack


def test_span_closes_when_the_function_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "boom")()
    assert tr.spans[0].end >= tr.spans[0].start and not tr._stack


def test_memory_probe_sees_allocation_inside_nested_spans():
    tr = Tracer(memory_probes=("outer", "inner"), probe_roots=("outer",))
    with tr.span("outer"):
        a = np.ones(1_000_000)  # 8 MB
        with tr.span("inner"):
            b = np.ones(2_000_000)  # 16 MB
            del b
        del a
    outer, inner = tr.spans
    assert inner.values["peak_alloc_bytes"] >= 16_000_000
    assert outer.values["peak_alloc_bytes"] >= 24_000_000


def _snapshot(package="fuxi_alpha"):
    """Every module-level binding of the package, plus the patched containers."""
    snap = {}
    for name, module in sys.modules.items():
        if module is not None and (name == package or name.startswith(package + ".")):
            snap.update({(name, k): v for k, v in vars(module).items()})
    model = importlib.import_module(f"{package}.model")
    train = importlib.import_module(f"{package}.train")
    snap[("appliers",)] = dict(model.BLOCK_APPLIERS)
    snap[("adamw.step",)] = train.AdamW.__dict__["step"]
    return snap


def test_instrument_then_restore_puts_every_original_back():
    for name in ("data", "checkpoint", "train", "model", "evaluate", "tensor"):
        importlib.import_module(f"fuxi_alpha.{name}")
    before = _snapshot()
    tr = Tracer()
    instrument(tr)
    during = _snapshot()
    tensor = importlib.import_module("fuxi_alpha.tensor")
    train = importlib.import_module("fuxi_alpha.train")
    evaluate = importlib.import_module("fuxi_alpha.evaluate")
    model = importlib.import_module("fuxi_alpha.model")
    # a function imported by name is rebound in the importing module too
    assert train.forward_hidden is model.forward_hidden is evaluate.forward_hidden
    assert train.forward_hidden is not before[("fuxi_alpha.model", "forward_hidden")]
    assert all(getattr(tensor, op) is not before[("fuxi_alpha.tensor", op)] for op in TENSOR_OPS)
    assert during[("appliers",)]["full"] is not before[("appliers",)]["full"]
    tr.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] or after[k] == before[k] for k in before)


def _tiny_run(tracer):
    import fuxi_alpha as F

    rule = importlib.import_module("fuxi_alpha.data").uniform_gap_rule(20)
    events = F.synthesize_dataset(F.SyntheticSpec(users=12, items=20, length=12, seed=3, gap_rule=rule))
    split = F.split_leave_last(F.build_sequences(events, 8))
    cfg = F.ModelConfig(vocab=split.vocab, d=8, d_h=8, d_ffn=16, n=8, negatives=4)
    if tracer is not None:
        instrument(tracer)
    try:
        with tracer.span("timed") if tracer is not None else nullcontext():
            result = F.train("full", split, F.TrainConfig(epochs=2, batch_size=4, patience=0), cfg)
            ranks = F.evaluate(result.params, split.validation, [5], cfg).ranks
    finally:
        if tracer is not None:
            tracer.restore()
    return result.loss_history, ranks


def test_tracing_changes_no_result_and_names_the_layers():
    plain_loss, plain_ranks = _tiny_run(None)
    tr = Tracer()
    traced_loss, traced_ranks = _tiny_run(tr)
    assert [float.hex(v) for v in traced_loss] == [float.hex(v) for v in plain_loss]
    assert np.array_equal(traced_ranks, plain_ranks)
    names = {s.name for s in tr.spans}
    for name in ("train.train", "train.train_step", "data.batch_iterator", "model.forward_hidden",
                 "model.block", "model.mffn", "tensor.backward", "train.AdamW.step", "evaluate.evaluate",
                 "tensor.rows_dot", "train.sample_negatives_batch"):
        assert name in names
    steps = sum(s.name == "train.train_step" for s in tr.spans)
    assert steps == 6  # 3 batches x 2 epochs
    nodes = [s.values["tape_nodes"] for s in tr.spans if s.name == "tensor.backward"]
    assert len(nodes) == steps and all(v > 0 for v in nodes)
    assert tr.coverage(["timed"]) > 0.9
