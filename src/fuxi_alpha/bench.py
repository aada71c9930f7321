"""Throughput and scaling probes: training samples per second across sequence
lengths, and step-time/parameter growth along the layer or width axis.

Both time the step `train` runs, less the optimizer update (`_train_steps`:
`train.batch_loss`, so negative sampling included, then backward), with one
timer, `_median_seconds`. Its warm-up rule: one untimed call of the largest
run, then one of each run; it then times the runs round-robin and reports
each run's median.
"""

from __future__ import annotations

import ctypes
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import UserSequence, batch_iterator
from .model import ModelConfig, SequenceBatch, init_params, param_count
from .tensor import Tape, backward
from .train import batch_loss


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


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS numpy loaded; None if none is loaded."""
    setters = _openblas_thread_setters()
    return setters[0]() if setters else None


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


def _train_steps(batches, params, cfg, rng) -> None:
    """The step `train` runs, less the optimizer update, over each batch:
    `batch_loss`, backward and a grad clear."""
    for batch in batches:
        with Tape() as tape:
            loss = batch_loss(batch, params, cfg, rng)
        if loss is not None:
            backward(loss, tape)
            for t in params.tensors():
                t.grad = None


def _median_seconds(runs: list[Callable[[], None]], rounds: int, largest: int, calls: int = 1) -> list[float]:
    """Median wall time of `calls` back-to-back calls of each run over `rounds`
    timed rounds, OpenBLAS on one thread.

    Untimed first: one call of runs[largest], then one call of each run.
    glibc raises its mmap and trim thresholds to the largest block freed so
    far; before that, every step returns its largest temporaries to the OS
    and page-faults them back in. Growing the allocator with the largest run
    first times every run in the same allocator state, whatever ran earlier
    in the process. The timed rounds go round-robin over the runs, so a slow
    stretch of a shared machine lands on every run instead of on one.
    """
    times = np.empty((rounds, len(runs)))
    with single_blas_thread():
        runs[largest]()
        for run in runs:
            run()
        for r in range(rounds):
            for i, run in enumerate(runs):
                start = time.perf_counter()
                for _ in range(calls):
                    run()
                times[r, i] = time.perf_counter() - start
    return [float(t) for t in np.median(times, axis=0)]


def tps_benchmark(
    variant: str,
    cfg_template: ModelConfig,
    seq_lengths: Sequence[int],
    batch_size: int,
    dataset: Sequence[UserSequence],
    seed: int = 0,
    passes: int = 3,
) -> list[BenchRecord]:
    """Samples/second per length: the median of TIMING_WINDOWS windows of
    `passes` training-step sweeps over the dataset."""
    if len(dataset) < batch_size:
        raise ValueError(
            f"tps_benchmark: dataset of {len(dataset)} sequences too small for one batch of {batch_size}"
        )
    runs = []
    for length in seq_lengths:
        cfg = replace(cfg_template, n=length)
        batches = list(batch_iterator(dataset, batch_size, length, shuffle_seed=0))
        params = init_params(cfg, variant, seed)
        runs.append(partial(_train_steps, batches, params, cfg, np.random.default_rng(seed)))
    samples = passes * len(dataset)
    largest = list(seq_lengths).index(max(seq_lengths))
    windows = _median_seconds(runs, TIMING_WINDOWS, largest, calls=passes)
    return [
        BenchRecord(variant=variant, seq_len=length, tps=samples / elapsed, samples=samples, elapsed=elapsed)
        for length, elapsed in zip(seq_lengths, windows)
    ]


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

    step_time is the median of `repeats` training steps on one fixed batch,
    negative sampling included, as in tps_benchmark.
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
    runs = [
        partial(_train_steps, [_fixed_batch(cfg, batch_size, seed)], init_params(cfg, "full", seed), cfg,
                np.random.default_rng(seed))
        for cfg in configs
    ]
    times = _median_seconds(runs, repeats, largest=len(runs) - 1)
    rows = [
        ProbeRow(value=int(v), param_count=param_count(cfg), step_time=t)
        for v, cfg, t in zip(values, configs, times)
    ]
    xs = np.array([r.value for r in rows], dtype=float)
    ys = np.array([r.step_time for r in rows])
    return ProbeResult(axis=axis, rows=rows, r_squared=_linear_fit_r2(xs, ys))
