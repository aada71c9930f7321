"""Outside-in tracing: time the package's public functions without editing it.

A `Tracer` keeps spans in memory. Each span carries a name, a start, an end,
the index of its parent span and a dict of values measured at that boundary
(output bytes, tape length, peak allocation). `instrument` swaps module-level
functions of `fuxi_alpha` for timing wrappers in every module namespace that
holds them (a function imported by name lives in two places), wraps the block
appliers in `model.BLOCK_APPLIERS` and `AdamW.step`, and `restore` puts every
original back. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name); spans are named after the defining module.
FUNCTIONS = [
    ("data", "parse_interactions", "data.parse_interactions"),
    ("data", "build_sequences", "data.build_sequences"),
    ("data", "split_leave_last", "data.split_leave_last"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("train", "train", "train.train"),
    ("train", "train_step", "train.train_step"),
    ("train", "sample_negatives_batch", "train.sample_negatives_batch"),
    ("model", "init_params", "model.init_params"),
    ("model", "forward", "model.forward"),
    ("model", "forward_hidden", "model.forward_hidden"),
    ("model", "embed_sequence", "model.embed_sequence"),
    ("model", "build_attn_context", "model.build_attn_context"),
    ("model", "mffn", "model.mffn"),
    ("model", "sampled_softmax_loss", "model.sampled_softmax_loss"),
    ("model", "predict_next", "model.predict_next"),
    ("evaluate", "evaluate", "evaluate.evaluate"),
    ("tensor", "backward", "tensor.backward"),
]
# batch_iterator is a generator: each span is the wait for one batch
GENERATORS = [("data", "batch_iterator", "data.batch_iterator")]
TENSOR_OPS = ("matmul", "silu", "mul", "take", "rms_norm", "concat", "rows_dot", "logsumexp")
# The first call of each under a probe root gets a tracemalloc probe of its
# peak new allocation; one call each keeps tracemalloc's cost out of the rest.
MEMORY_PROBES = ("model.forward_hidden", "tensor.backward", "evaluate.evaluate", "model.predict_next")
# tracemalloc slows the million-object parse five-fold, so its first call is
# probed by the growth of the process's peak RSS instead; that call runs
# first in a workload process, when no earlier peak can hide its own.
RSS_PROBES = ("data.parse_interactions",)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    values: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with monkeypatching helpers."""

    def __init__(self, clock=time.perf_counter, memory_probes=(), rss_probes=(), probe_roots=()):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.probe_roots = set(probe_roots)
        self._unprobed = set(memory_probes)
        self._rss_unprobed = set(rss_probes)
        self._mem_stack: list[list[int]] = []  # [baseline, peak carried from children]

    # spans -------------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        if self.spans[self._stack[0]].name in self.probe_roots:
            if name in self._unprobed:
                self._unprobed.discard(name)
                self._probe_start(idx)
            elif name in self._rss_unprobed:
                self._rss_unprobed.discard(name)
                self.spans[idx].values["_rss_probe"] = _current_rss_bytes()
        self.spans[idx].start = self.clock()
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        if "_probe" in span.values:
            del span.values["_probe"]
            span.values["peak_alloc_bytes"] = self._probe_stop()
        if "_rss_probe" in span.values:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            span.values["peak_alloc_bytes"] = max(0, peak - span.values.pop("_rss_probe"))
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def _probe_start(self, idx: int) -> None:
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([current, 0])
        else:
            tracemalloc.start()
            self._mem_stack.append([0, 0])
        self.spans[idx].values["_probe"] = True

    def _probe_stop(self) -> int:
        baseline, child_peak = self._mem_stack.pop()
        peak = max(tracemalloc.get_traced_memory()[1], child_peak)
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - baseline

    # wrappers ------------------------------------------------------------------

    def wrap(self, fn, name: str, measure=None):
        """A wrapper that runs fn inside a span; measure(result, args) may add values."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.spans[idx].values.update(measure(result, args))
                return result
            finally:
                self.close(idx)

        return traced

    def wrap_generator(self, fn, name: str):
        """A wrapper whose spans each cover one next() of the generator fn returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace owner.attr (or owner[attr] for a dict) and remember the original."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def patch_everywhere(self, original, replacement, package: str) -> None:
        """Rebind every module-level name in `package` that refers to `original`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # aggregation ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor (itself for a root)."""
        root = []
        for i, s in enumerate(self.spans):
            root.append(i if s.parent < 0 else root[s.parent])
        return root

    def summary(self, root_names) -> dict[str, dict]:
        """Per span name, over spans under roots named in root_names:
        calls, total and self seconds, and summed values."""
        root_names = set(root_names)
        own = self.self_times()
        roots = self.roots()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "values": defaultdict(float)})
        for i, s in enumerate(self.spans):
            if self.spans[roots[i]].name not in root_names:
                continue
            agg = out[s.name]
            agg["calls"] += 1
            agg["total_s"] += s.duration
            agg["self_s"] += own[i]
            for k, v in s.values.items():
                agg["values"][k] += v
        return dict(out)

    def durations(self, name: str, root_names) -> list[float]:
        root_names = set(root_names)
        roots = self.roots()
        return [
            s.duration for i, s in enumerate(self.spans)
            if s.name == name and self.spans[roots[i]].name in root_names
        ]

    def coverage(self, root_names) -> float:
        """Share of the roots' wall time spent inside named child spans."""
        root_names = set(root_names)
        own = self.self_times()
        wall = uncovered = 0.0
        for i, s in enumerate(self.spans):
            if s.parent < 0 and s.name in root_names:
                wall += s.duration
                uncovered += own[i]
        return (wall - uncovered) / wall if wall > 0 else 0.0


def _current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _out_bytes(result, args) -> dict:
    return {"out_bytes": result.data.nbytes}


def instrument(tracer: Tracer, package: str = "fuxi_alpha") -> None:
    """Wrap the package's public layer functions; undo with tracer.restore()."""
    mods = {name: importlib.import_module(f"{package}.{name}") for name in ("data", "checkpoint", "train", "model", "evaluate", "tensor")}
    for mod, attr, name in FUNCTIONS:
        original = getattr(mods[mod], attr)
        if name == "tensor.backward":
            wrapped = _wrap_backward(tracer, original)
        else:
            wrapped = tracer.wrap(original, name)
        tracer.patch_everywhere(original, wrapped, package)
    for mod, attr, name in GENERATORS:
        original = getattr(mods[mod], attr)
        tracer.patch_everywhere(original, tracer.wrap_generator(original, name), package)
    for op in TENSOR_OPS:
        original = getattr(mods["tensor"], op)
        tracer.patch_everywhere(original, tracer.wrap(original, f"tensor.{op}", _out_bytes), package)
    appliers = mods["model"].BLOCK_APPLIERS
    for kind in list(appliers):
        tracer.patch(appliers, kind, tracer.wrap(appliers[kind], "model.block"))
    adamw = mods["train"].AdamW
    tracer.patch(adamw, "step", tracer.wrap(adamw.step, "train.AdamW.step"))


def _wrap_backward(tracer: Tracer, original):
    """backward empties the tape, so its length is read before the call."""

    @functools.wraps(original)
    def traced(loss, tape):
        idx = tracer.open("tensor.backward")
        tracer.spans[idx].values["tape_nodes"] = len(tape)
        try:
            return original(loss, tape)
        finally:
            tracer.close(idx)

    return traced
