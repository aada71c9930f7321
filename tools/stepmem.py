"""Print what one training step holds in memory, the minor page faults of
each phase and the time of a request, at the shape of every perfbench
workload.

    PYTHONPATH=src python tools/stepmem.py [--workload NAME]

For each workload of perfbench/workloads.py (all of them by default, each in
a fresh process with one BLAS thread, as perfbench runs them) it generates
the workload's log with perfbench/gen.py, sets up the model as the benchmark
does and prints one line:

- `tape_mb`: tracemalloc bytes held at the end of one training step's
  forward pass, almost all of it what the tape keeps for backward;
- `step_peak_mb`: tracemalloc's peak over that whole step (forward,
  backward and the optimizer);
- `faults_step`, `faults_evaluate`, `faults_setup`: the process's minor page
  faults (getrusage) in each train step, `evaluate` call and setup pass
  after a warm-up of each, one number per call;
- `faults_request`: the mean per `predict_next` request;
- `request_ms`: the median wall time of a `predict_next` request;
- `ctx_ms_request`: the mean wall time a request spends in
  `model.build_attn_context`.

tracemalloc counts the bytes numpy allocates, the same on every run; faults
depend on what the process freed before, so they are measured in the order
perfbench runs the phases, and the traced step runs last. The log is
written in a temporary directory, removed on exit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # read when numpy loads
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import fuxi_alpha as F
from fuxi_alpha import model as M
from fuxi_alpha.checkpoint import load_checkpoint, save_checkpoint
from fuxi_alpha.data import batch_iterator
from fuxi_alpha.tensor import Tape, backward
from fuxi_alpha.train import AdamW, TrainConfig, batch_loss, train_step

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
ROUNDS = 2      # measured rounds of setup, training, evaluate and predict, after one warm-up of each
REQUESTS = 20   # predict_next requests per round
MB = 1 << 20


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def faults(fn) -> int:
    before = minor_faults()
    fn()
    return minor_faults() - before


@contextlib.contextmanager
def timing(module, name: str, spent: list):
    """Within the block, each call of module.name appends its wall seconds to spent."""
    fn = getattr(module, name)

    def timed(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent.append(time.perf_counter() - start)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, fn)


def setup(path: Path, work: Path, n: int):
    """perfbench's setup pass: ingest, split, init, checkpoint round trip."""
    events, remap = F.parse_interactions(path, "movielens_dat")
    split = F.split_leave_last(F.build_sequences(events, n), remap)
    cfg = F.ModelConfig(vocab=split.vocab, n=n)
    save_checkpoint(work / "model.ckpt", F.init_params(cfg, "full", SEED), cfg)
    params, _, _ = load_checkpoint(work / "model.ckpt")
    return split, params, cfg


def traced_step(batch, params, cfg, opt, rng) -> tuple[float, float]:
    """The tracemalloc bytes at forward end and the peak of one training step, in MB."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = batch_loss(batch, params, cfg, rng)
        at_forward_end = tracemalloc.get_traced_memory()[0]
        backward(loss, tape)
        opt.step()
        opt.zero_grad()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    params.item_emb.data[0, :] = 0.0
    return at_forward_end / MB, peak / MB


def measure(name: str) -> str:
    w = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        gen.write_movielens(work / "log.dat", *gen.generate(w.users, SEED, w.min_length))
        split, params, cfg = setup(work / "log.dat", work, w.n)
        opt = AdamW(params.named(), TrainConfig(batch_size=w.batch))
        rng = np.random.default_rng(SEED)
        batches = batch_iterator(split.train, w.batch, w.n, shuffle_seed=SEED)
        chunks = [split.validation[r * w.eval_users : (r + 1) * w.eval_users] for r in range(ROUNDS + 1)]
        histories = [(inst.items, inst.timestamps) for inst in split.test]

        def step():
            train_step(next(batches), params, cfg, opt, rng)

        def evaluate(chunk):
            F.evaluate(params, chunk, [10], cfg, batch_size=w.eval_users)

        request_s, ctx_s = [], []  # wall seconds of each request, and of each context it builds

        def serve(first):
            with timing(M, "build_attn_context", ctx_s):
                for items, ts in histories[first : first + REQUESTS]:
                    start = time.perf_counter()
                    F.predict_next(items, ts, params, cfg, 10)
                    request_s.append(time.perf_counter() - start)

        step()  # warm-up of each phase, as perfbench's
        evaluate(chunks[0])
        serve(0)
        del request_s[:], ctx_s[:]  # the warm-up's
        steps, evals, requests, setups = [], [], [], []
        for r in range(1, ROUNDS + 1):
            setups.append(faults(lambda: setup(work / "log.dat", work, w.n)))
            steps += [faults(step) for _ in range(w.train_batches)]
            evals.append(faults(lambda: evaluate(chunks[r])))
            requests.append(faults(lambda: serve(r * REQUESTS)) / REQUESTS)
        tape_mb, peak_mb = traced_step(next(batches), params, cfg, opt, rng)
    return (
        f"{name} tape_mb={tape_mb:.1f} step_peak_mb={peak_mb:.1f} faults_step={','.join(map(str, steps))} "
        f"faults_evaluate={','.join(map(str, evals))} faults_request={np.mean(requests):.1f} "
        f"faults_setup={','.join(map(str, setups))} request_ms={1e3 * np.median(request_s):.2f} "
        f"ctx_ms_request={1e3 * sum(ctx_s) / len(request_s):.2f}"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    args = ap.parse_args()
    if args.workload != "all":
        print(measure(args.workload), flush=True)
        return
    for name in WORKLOADS:  # a fresh process each, so no workload inherits another's heap
        subprocess.run([sys.executable, __file__, "--workload", name], check=True)


if __name__ == "__main__":
    main()
