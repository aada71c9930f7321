"""Throughput and scaling probes: training samples per second across sequence
lengths, and step-time/parameter growth along the layer or width axis."""

from __future__ import annotations

import ctypes
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import UserSequence, batch_iterator
from .model import ModelConfig, SequenceBatch, forward_hidden, init_params, param_count, sampled_loss
from .tensor import Tape, backward
from .train import next_item_negatives, next_item_targets


# timed windows per length; the median one is reported, so one window slowed
# by a neighbour on a shared machine does not decide the record
TIMING_WINDOWS = 3


@dataclass
class BenchRecord:
    variant: str
    seq_len: int
    tps: float
    samples: int     # training samples processed inside the timed window
    elapsed: float


def _openblas_thread_setters():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its thread count.

    With a BLAS thread pool the same timed window swings several-fold from
    run to run on a small shared machine; one thread keeps it steady."""
    setters = _openblas_thread_setters()
    if setters is None:
        yield
        return
    get, set_ = setters
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _one_pass(dataset, params, cfg, batch_size, rng) -> int:
    """Forward + backward over the dataset once; returns samples processed."""
    processed = 0
    for batch in batch_iterator(dataset, batch_size, cfg.n, shuffle_seed=0):
        targets = next_item_targets(batch)
        if targets.any():
            negs = next_item_negatives(targets, cfg, rng)
            with Tape() as tape:
                loss = sampled_loss(forward_hidden(batch, params, cfg), params.item_emb, targets, negs)
            backward(loss, tape)
            for t in params.tensors():
                t.grad = None
        processed += batch.size
    return processed


def tps_benchmark(
    variant: str,
    cfg_template: ModelConfig,
    seq_lengths: Sequence[int],
    batch_size: int,
    dataset: Sequence[UserSequence],
    seed: int = 0,
    passes: int = 3,
) -> list[BenchRecord]:
    """Samples/second of `passes` full forward+backward sweeps per length.

    Untimed warm-up passes run first: one at the longest length, then one per
    length. Each length times TIMING_WINDOWS windows of `passes` sweeps with
    OpenBLAS on one thread and reports the window of median speed.
    """
    if len(dataset) < batch_size:
        raise ValueError(
            f"tps_benchmark: dataset of {len(dataset)} sequences too small for one batch of {batch_size}"
        )
    records = []
    with single_blas_thread():
        # glibc raises its mmap and trim thresholds to the largest block freed
        # so far; before that, every step returns its [B, n, n] temporaries to
        # the OS and page-faults them back in. Growing the allocator at the
        # longest length first times every length in the same allocator state,
        # whatever ran earlier in the process.
        longest = replace(cfg_template, n=max(seq_lengths))
        _one_pass(dataset, init_params(longest, variant, seed), longest, batch_size, np.random.default_rng(seed))
        for length in seq_lengths:
            cfg = replace(cfg_template, n=length)
            params = init_params(cfg, variant, seed)
            rng = np.random.default_rng(seed)
            _one_pass(dataset, params, cfg, batch_size, rng)  # warm-up, untimed
            windows = []
            for _ in range(TIMING_WINDOWS):
                start = time.perf_counter()
                processed = sum(_one_pass(dataset, params, cfg, batch_size, rng) for _ in range(passes))
                windows.append(time.perf_counter() - start)
            elapsed = float(np.median(windows))
            records.append(
                BenchRecord(
                    variant=variant,
                    seq_len=length,
                    tps=processed / elapsed,
                    samples=processed,
                    elapsed=elapsed,
                )
            )
    return records


@dataclass
class ProbeRow:
    value: int
    param_count: int
    step_time: float


@dataclass
class ProbeResult:
    axis: str
    rows: list[ProbeRow]
    r_squared: float


def _fixed_batch(cfg: ModelConfig, batch_size: int, seed: int) -> SequenceBatch:
    rng = np.random.default_rng(seed)
    items = rng.integers(1, cfg.vocab, size=(batch_size, cfg.n))
    ts = np.cumsum(rng.integers(1, 100, size=(batch_size, cfg.n)), axis=1)
    return SequenceBatch(items, ts, np.full(batch_size, cfg.n))


def _step_seconds(params, cfg, batch, targets, rng) -> float:
    """Wall time of one forward + backward step; negative sampling stays untimed."""
    negs = next_item_negatives(targets, cfg, rng)
    start = time.perf_counter()
    with Tape() as tape:
        loss = sampled_loss(forward_hidden(batch, params, cfg), params.item_emb, targets, negs)
    backward(loss, tape)
    elapsed = time.perf_counter() - start
    for t in params.tensors():
        t.grad = None
    return elapsed


def _linear_fit_r2(xs: np.ndarray, ys: np.ndarray) -> float:
    coeffs = np.polyfit(xs, ys, 1)
    pred = np.polyval(coeffs, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def scaling_probe(
    cfg_template: ModelConfig,
    axis: str,
    values: Sequence[int],
    batch_size: int = 8,
    seed: int = 0,
    repeats: int = 5,
) -> ProbeResult:
    """param_count and measured step time along the layers or dim axis.

    The dim axis scales d with d_h = d and d_ffn = 2d so widths stay
    proportional; param_count always reports the closed form for the probed
    config.
    """
    if axis not in ("layers", "dim"):
        raise ValueError(f"scaling_probe: unknown axis {axis!r}")
    if list(values) != sorted(values):
        raise ValueError("scaling_probe: values must be ascending")
    if axis == "layers":
        configs = [replace(cfg_template, layers=int(v)) for v in values]
    else:
        configs = [replace(cfg_template, d=int(v), d_h=int(v), d_ffn=2 * int(v)) for v in values]
    probes = []
    for cfg in configs:
        batch = _fixed_batch(cfg, batch_size, seed)
        probes.append((init_params(cfg, "full", seed), cfg, batch, next_item_targets(batch), np.random.default_rng(seed)))
    times = np.empty((repeats, len(probes)))
    with single_blas_thread():
        # Untimed: a step at the largest value first grows the allocator to its
        # footprint, as in tps_benchmark, so a smaller value is not timed
        # page-fault free while a larger one faults; then one step of each.
        _step_seconds(*probes[-1])
        for probe in probes:
            _step_seconds(*probe)
        # Round-robin over the values, so a slow stretch of a shared machine
        # lands on every value instead of on one.
        for r in range(repeats):
            for i, probe in enumerate(probes):
                times[r, i] = _step_seconds(*probe)
    rows = [
        ProbeRow(value=int(v), param_count=param_count(cfg), step_time=float(t))
        for v, cfg, t in zip(values, configs, np.median(times, axis=0))
    ]
    xs = np.array([r.value for r in rows], dtype=float)
    ys = np.array([r.step_time for r in rows])
    return ProbeResult(axis=axis, rows=rows, r_squared=_linear_fit_r2(xs, ys))
