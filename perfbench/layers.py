"""Per-layer metrics computed from a traced workload run.

Each metric is named `<module>.<function>.<quantity>` after the layer it
measures. README.md maps each one to the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics

from tracer import TENSOR_OPS, Tracer

SETUP_SPANS = (
    "data.parse_interactions",
    "data.build_sequences",
    "data.split_leave_last",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
)
PER_STEP = (
    "data.batch_iterator",
    "train.sample_negatives_batch",
    "train.AdamW.step",
    "model.sampled_softmax_loss",
    "tensor.backward",
)
PER_CALL = ("model.forward_hidden", "model.build_attn_context", "model.block", "model.mffn")
PEAK_ALLOC = (
    "model.forward_hidden",
    "tensor.backward",
    "evaluate.evaluate",
    "model.predict_next",
    "data.parse_interactions",
)
MB = 1024 * 1024


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{s}.s": "s" for s in SETUP_SPANS}
    units["data.batch_iterator.wait_ms_per_step"] = "ms"
    for s in PER_STEP[1:]:
        units[f"{s}.ms_per_step"] = "ms"
    units["train.train_step.self_ms"] = "ms"
    units["tensor.backward.tape_nodes"] = "count"
    for s in PER_CALL:
        units[f"{s}.ms_per_call"] = "ms"
    units["model.forward_hidden.eval_ms_per_user"] = "ms"
    units["model.forward_hidden.predict_ms_per_call"] = "ms"
    units["evaluate.evaluate.self_ms_per_user"] = "ms"
    units["model.predict_next.self_ms"] = "ms"
    for op in TENSOR_OPS:
        units[f"tensor.{op}.ms_per_step"] = "ms"
        units[f"tensor.{op}.out_mb_per_step"] = "MB"
    for s in PEAK_ALLOC:
        units[f"{s}.peak_alloc_mb"] = "MB"
    units["trace.coverage_pct"] = "%"
    units["trace.timed_wall_s"] = "s"
    return units


def _total(summary: dict, name: str) -> float:
    return summary[name]["total_s"] if name in summary else 0.0


def _self(summary: dict, name: str) -> float:
    return summary[name]["self_s"] if name in summary else 0.0


def _per_call(summary: dict, name: str) -> float:
    return summary[name]["total_s"] / summary[name]["calls"] if name in summary else 0.0


def _value(summary: dict, name: str, key: str) -> float:
    return summary[name]["values"].get(key, 0.0) if name in summary else 0.0


def layer_metrics(tracer: Tracer, timed_roots, steps: int, eval_users: int) -> dict[str, dict]:
    """Per-layer metrics over the timed phases of one traced run."""
    train = tracer.summary(["bench.train"])
    evaluate = tracer.summary(["bench.evaluate"])
    predict = tracer.summary(["bench.predict"])
    v: dict[str, float] = {}
    for s in SETUP_SPANS:
        v[f"{s}.s"] = statistics.median(tracer.durations(s, ["bench.setup"]) or [0.0])
    v["data.batch_iterator.wait_ms_per_step"] = _total(train, "data.batch_iterator") * 1e3 / steps
    for s in PER_STEP[1:]:
        v[f"{s}.ms_per_step"] = _total(train, s) * 1e3 / steps
    v["train.train_step.self_ms"] = _self(train, "train.train_step") * 1e3 / steps
    backward_calls = train.get("tensor.backward", {}).get("calls", 0)
    v["tensor.backward.tape_nodes"] = _value(train, "tensor.backward", "tape_nodes") / max(1, backward_calls)
    for s in PER_CALL:
        v[f"{s}.ms_per_call"] = _per_call(train, s) * 1e3
    v["model.forward_hidden.eval_ms_per_user"] = _total(evaluate, "model.forward_hidden") * 1e3 / eval_users
    v["model.forward_hidden.predict_ms_per_call"] = _per_call(predict, "model.forward_hidden") * 1e3
    v["evaluate.evaluate.self_ms_per_user"] = _self(evaluate, "evaluate.evaluate") * 1e3 / eval_users
    calls = predict.get("model.predict_next", {}).get("calls", 0)
    v["model.predict_next.self_ms"] = _self(predict, "model.predict_next") * 1e3 / max(1, calls)
    for op in TENSOR_OPS:
        v[f"tensor.{op}.ms_per_step"] = _total(train, f"tensor.{op}") * 1e3 / steps
        v[f"tensor.{op}.out_mb_per_step"] = _value(train, f"tensor.{op}", "out_bytes") / MB / steps
    peaks = {s.name: s.values["peak_alloc_bytes"] for s in tracer.spans if "peak_alloc_bytes" in s.values}
    for s in PEAK_ALLOC:
        v[f"{s}.peak_alloc_mb"] = peaks.get(s, 0) / MB
    v["trace.coverage_pct"] = tracer.coverage(timed_roots) * 100
    v["trace.timed_wall_s"] = sum(s.duration for s in tracer.spans if s.parent < 0 and s.name in timed_roots)
    units = metric_units()
    return {name: {"value": v[name], "unit": units[name]} for name in units}
