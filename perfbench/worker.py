"""One benchmark workload, run in its own process through the package's public API.

Every workload walks the path a user of `fuxi_alpha` takes: ingest and split
a log, make the model ready (init, checkpoint save, checkpoint load), train,
rank a validation slice against the full catalog, and answer `predict_next`
requests. The workloads differ in shape, so a different layer dominates each
(see README.md). Timing starts after an untimed warm-up of each phase; the
timed phases then run in interleaved rounds and each metric is a median over
them, or a percentile over all requests.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/worker.py \
        --workload train_desk --seed 1 --trace 0 --data log.dat --work DIR

Prints one JSON record. `run.py` generates the log, sets the environment and
starts this file; use it instead of calling this file by hand.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import fuxi_alpha as F
from fuxi_alpha.model import SequenceBatch

from workloads import WORKLOADS, Workload

ckpt = importlib.import_module("fuxi_alpha.checkpoint")

TOP_K = 10
CHECKED_USERS = 4       # users per round whose evaluate rank is re-derived from forward()
CHECKED_REQUESTS = 5    # predict_next requests per round re-derived from forward()
P99_MIN_REQUESTS = 1000  # a p99 is reported only with at least 10 requests above it
TIMED_ROOTS = ("bench.setup", "bench.train", "bench.evaluate", "bench.predict")


class Phase:
    """Wall-clock timer that also opens a tracer root span when tracing."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.timed_wall = 0.0

    def run(self, name: str, fn, timed: bool = True):
        with self.tracer.span(name) if self.tracer is not None else nullcontext():
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        if timed:
            self.timed_wall += dt
        return out, dt


class Ops:
    """Attempted and failed operations, plus the reason for each failure kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, attempted: int, failed: int = 0, why: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and why and len(self.errors) < 20:
            self.errors.append(why)


# correctness checks -------------------------------------------------------------


def same_params(a, b) -> bool:
    na, nb = list(a.named()), list(b.named())
    return a.kind == b.kind and [n for n, _ in na] == [n for n, _ in nb] and all(
        x.data.dtype == y.data.dtype and x.data.shape == y.data.shape
        and x.data.tobytes() == y.data.tobytes()
        for (_, x), (_, y) in zip(na, nb)
    )


def padded_row(items, timestamps, n: int) -> SequenceBatch:
    items = np.asarray(items, dtype=np.int64)[-n:]
    ts = np.asarray(timestamps, dtype=np.int64)[-n:]
    row_items = np.zeros((1, n), dtype=np.int64)
    row_ts = np.zeros((1, n), dtype=np.int64)
    row_items[0, : items.size] = items
    row_ts[0, : ts.size] = ts
    return SequenceBatch(row_items, row_ts, np.array([items.size]))


def last_logits(items, timestamps, params, cfg) -> np.ndarray:
    """forward() scores over the catalog at the last valid position."""
    batch = padded_row(items, timestamps, cfg.n)
    return F.forward(batch, params, cfg).data[0, int(batch.valid_len[0]) - 1]


def expected_rank(inst, params, cfg) -> int:
    return F.rank_of_target(last_logits(inst.items, inst.timestamps, params, cfg), inst.target, excluded=[0])


def expected_top_k(items, timestamps, params, cfg, k: int) -> list[int]:
    scores = last_logits(items, timestamps, params, cfg)[1:]
    ids = np.arange(1, cfg.vocab)
    return ids[np.lexsort((ids, -scores))][:k].tolist()


# phases --------------------------------------------------------------------------


def setup(path: Path, work: Path, w: Workload, seed: int):
    events, remap = F.parse_interactions(path, "movielens_dat")
    split = F.split_leave_last(F.build_sequences(events, w.n), remap)
    cfg = F.ModelConfig(vocab=split.vocab, n=w.n)
    params = F.init_params(cfg, "full", seed)
    ckpt.save_checkpoint(work / "model.ckpt", params, cfg)
    loaded, loaded_cfg, _ = ckpt.load_checkpoint(work / "model.ckpt")
    return split, params, cfg, loaded, loaded_cfg


def train_epoch(params, split, cfg, w: Workload, seed: int):
    tcfg = F.TrainConfig(epochs=1, batch_size=w.batch, seed=seed, patience=0)
    return F.train("full", split, tcfg, cfg, initial_params=params)


def run_workload(name: str, seed: int, trace: bool, data: Path, work: Path) -> dict:
    w = WORKLOADS[name]
    tracer = None
    if trace:
        from tracer import MEMORY_PROBES, RSS_PROBES, Tracer, instrument

        tracer = Tracer(memory_probes=MEMORY_PROBES, rss_probes=RSS_PROBES, probe_roots=TIMED_ROOTS)
        instrument(tracer)
    phase = Phase(tracer)
    ops = Ops()
    setup_s, epoch_rates, losses, eval_rates, latencies = [], [], [], [], []
    round_p50_ms = []

    def timed_setup():
        (split, params, cfg, loaded, loaded_cfg), dt = phase.run("bench.setup", lambda: setup(data, work, w, seed))
        setup_s.append(dt)
        ok = loaded_cfg == cfg and same_params(params, loaded)
        ops.record(1, 0 if ok else 1, "checkpoint round trip changed an array or the config")
        return split, loaded, cfg

    def train_round(r: int) -> None:
        steps = w.train_batches
        try:
            result, dt = phase.run("bench.train", lambda: train_epoch(params, train_split, cfg, w, seed + 1 + r))
        except Exception as exc:  # a raising train() fails every step it was asked for
            ops.record(steps, steps, f"train raised {exc!r}")
            return
        epoch_rates.append(len(train_split.train) / dt)
        losses.extend(result.loss_history)
        bad = sum(not math.isfinite(v) for v in result.loss_history)
        ops.record(steps, steps if bad else 0, "train loss is not finite")

    def eval_round(r: int) -> None:
        chunk = eval_slice[r * w.eval_users : (r + 1) * w.eval_users]
        try:
            report, dt = phase.run("bench.evaluate", lambda: F.evaluate(params, chunk, [TOP_K], cfg, batch_size=w.eval_users))
        except Exception as exc:
            ops.record(len(chunk), len(chunk), f"evaluate raised {exc!r}")
            return
        eval_rates.append(len(chunk) / dt)
        checked = range(0, len(chunk), max(1, len(chunk) // CHECKED_USERS))
        wrong, _ = phase.run(
            "bench.check",
            lambda: sum(int(report.ranks[i] != expected_rank(chunk[i], params, cfg)) for i in checked),
            timed=False,
        )
        ops.record(len(chunk), wrong, "evaluate rank differs from forward()")

    def serve(first: int, count: int, record: bool) -> list:
        answers = []
        for j in range(first, first + count):
            items, ts = histories[j % len(histories)]
            t0 = time.perf_counter()
            try:
                ids = F.predict_next(items, ts, params, cfg, TOP_K)
            except Exception as exc:
                ids = exc
            if record:
                latencies.append(time.perf_counter() - t0)
            answers.append((j, ids))
        return answers

    def check_answers(answers) -> int:
        wrong = 0
        step = max(1, len(answers) // CHECKED_REQUESTS)
        for pos, (j, ids) in enumerate(answers):
            if isinstance(ids, Exception):
                wrong += 1
            elif len(ids) != TOP_K or len(set(ids)) != TOP_K or not all(0 < i < cfg.vocab for i in ids):
                wrong += 1
            elif pos % step == 0 and ids != expected_top_k(*histories[j % len(histories)], params, cfg, TOP_K):
                wrong += 1
        return wrong

    def predict_round(r: int) -> None:
        answers, _ = phase.run("bench.predict", lambda: serve(r * w.requests, w.requests, True))
        round_p50_ms.append(float(np.median(latencies[-len(answers):])) * 1e3)
        wrong, _ = phase.run("bench.check", lambda: check_answers(answers), timed=False)
        ops.record(len(answers), wrong, "predict_next ids differ from the forward() order")

    try:
        split, params, cfg = timed_setup()
        train_split = dataclasses.replace(split, train=split.train[: w.batch * w.train_batches])
        eval_slice = split.validation[: w.eval_users * w.rounds]
        histories = [(inst.items, inst.timestamps) for inst in split.test]

        # untimed warm-up of every phase: first-call costs stay out of the numbers
        warm_split = dataclasses.replace(split, train=split.train[: w.batch])
        phase.run("bench.warmup", lambda: train_epoch(params, warm_split, cfg, w, seed), timed=False)
        phase.run("bench.warmup", lambda: F.evaluate(params, eval_slice[: w.eval_users], [TOP_K], cfg, batch_size=w.eval_users), timed=False)
        phase.run("bench.warmup", lambda: serve(0, 10, False), timed=False)

        # Rounds interleave the phases, so each metric samples the whole run and
        # a slow stretch of the machine lands in one round, not one metric.
        for r in range(w.rounds):
            # timed and checked setup passes, spread evenly over the rounds;
            # the first pass's model stays in use
            while len(setup_s) < 1 + math.ceil((r + 1) * (w.setups - 1) / w.rounds):
                timed_setup()
            train_round(r)
            eval_round(r)
            predict_round(r)
    finally:
        if tracer is not None:
            tracer.restore()

    lat_ms = np.asarray(latencies) * 1e3
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "sizes": dataclasses.asdict(w),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "timed_wall_s": phase.timed_wall,
        "end_to_end": {
            "train_samples_per_s": {"value": statistics.median(epoch_rates), "unit": "seq/s", "samples": len(epoch_rates)},
            "train_loss": {"value": float(np.mean(losses)), "unit": "nats", "samples": len(losses)},
            "eval_users_per_s": {"value": statistics.median(eval_rates), "unit": "users/s", "samples": len(eval_rates)},
            "predict_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms", "samples": lat_ms.size},
            "predict_p90_ms": {"value": float(np.percentile(lat_ms, 90)), "unit": "ms", "samples": lat_ms.size},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s", "samples": len(setup_s)},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB", "samples": 1},
            "failed_ops": {"value": ops.failed / max(1, ops.attempted), "unit": "fraction", "samples": ops.attempted},
        },
        "rounds": {"setup_s": setup_s, "train_samples_per_s": epoch_rates, "eval_users_per_s": eval_rates,
                   "predict_p50_ms": round_p50_ms},
        "train_loss_exact": [float.hex(v) for v in losses],
        "provenance": provenance(),
    }
    if lat_ms.size >= P99_MIN_REQUESTS:
        record["end_to_end"]["predict_p99_ms"] = {"value": float(np.percentile(lat_ms, 99)), "unit": "ms", "samples": lat_ms.size}
    if tracer is not None:
        from layers import layer_metrics

        record["per_layer"] = layer_metrics(tracer, TIMED_ROOTS, steps=w.train_batches * len(epoch_rates),
                                            eval_users=w.eval_users * len(eval_rates))
    return record


# provenance -----------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "fuxi_alpha": F.__version__,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()
    record = run_workload(args.workload, args.seed, bool(args.trace), args.data, args.work)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
