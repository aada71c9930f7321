"""Benchmark entry point: generate a seeded log, run one workload in a fresh
process with BLAS pinned to one thread, check it, and report its metrics.

    python3 perfbench/run.py --workload train_desk --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 [--out results.json]

Run from the repository root. A single workload prints its metrics as text
and, as the last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the `end_to_end` metrics of BENCHMARK.json with --trace 0,
its `per_layer` metrics with --trace 1. `--workload all` runs every workload
untraced and then traced, and also reports named-span coverage, tracing
overhead and whether the training loss is bitwise equal under tracing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import gen
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170  # a run must end within 180 s
# Set before the worker imports numpy; OpenBLAS reads it once at load time.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found; run from the repository root")
    return json.loads(path.read_text())


def check_tree() -> None:
    if not (ROOT / "src" / "fuxi_alpha" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {ROOT / 'src'}")


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """Hash of the package source, which identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_one(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Generate the workload's log, run it in a fresh process and return its record."""
    w = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        data = work / "ratings.dat"
        gen.write_movielens(data, *gen.generate(w.users, seed, w.min_length))
        env = dict(os.environ, **PINNED_ENV)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)), "--data", str(data), "--work", str(work)]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: worker exceeded the time limit") from None
        finally:  # also on SIGTERM or Ctrl-C: never leave the worker running
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{workload}: worker exited {proc.returncode}\n{err[-4000:]}")
        record = json.loads(out.strip().splitlines()[-1])
        record["provenance"].update(git_sha=git_sha(), src_sha256=source_digest())
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{samples}")


def result_line(record: dict, names: list[str], section: str) -> dict:
    metrics = {n: {"value": record[section][n]["value"], "unit": record[section][n]["unit"]} for n in names}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def run_single(args, spec: dict) -> dict:
    record = run_one(args.workload, args.seed, bool(args.trace), time.monotonic() + RUN_LIMIT_S)
    if args.trace:
        print_metrics(f"{args.workload} per-layer (traced)", record["per_layer"])
        line = result_line(record, [m["name"] for m in spec["per_layer"]], "per_layer")
    else:
        print_metrics(f"{args.workload} end-to-end", record["end_to_end"])
        for name, values in record["rounds"].items():
            print(f"  rounds of {name}: " + ", ".join(f"{v:.4g}" for v in values))
        line = result_line(record, [m["name"] for m in spec["end_to_end"]], "end_to_end")
    for why in record["errors"]:
        print(f"  failure: {why}")
    return {"record": record, "line": line}


def run_all(args, spec: dict) -> dict:
    """Every workload untraced then traced; report coverage, overhead and loss equality."""
    records, summary = {}, {}
    attempted = failed = 0
    for m in spec["workloads"]:
        name = m["name"]
        plain = run_one(name, args.seed, False, time.monotonic() + RUN_LIMIT_S)
        traced = run_one(name, args.seed, True, time.monotonic() + RUN_LIMIT_S)
        overhead = traced["timed_wall_s"] / plain["timed_wall_s"] - 1
        same_loss = plain["train_loss_exact"] == traced["train_loss_exact"]
        print_metrics(f"{name} end-to-end", plain["end_to_end"])
        print_metrics(f"{name} per-layer (traced)", traced["per_layer"])
        print(f"  coverage of timed wall time by named spans: {traced['per_layer']['trace.coverage_pct']['value']:.2f}%")
        print(f"  tracing overhead (traced / untraced timed wall - 1): {overhead * 100:.1f}%")
        print(f"  train_loss bitwise equal traced vs untraced: {same_loss}")
        for why in plain["errors"] + traced["errors"]:
            print(f"  failure: {why}")
        records[name] = {"untraced": plain, "traced": traced, "tracing_overhead": overhead, "train_loss_bitwise_equal": same_loss}
        attempted += plain["attempted"] + traced["attempted"]
        failed += plain["failed"] + traced["failed"] + (0 if same_loss else 1)
        for metric in spec["end_to_end"]:
            summary[f"{name}.{metric['name']}"] = {k: plain["end_to_end"][metric["name"]][k] for k in ("value", "unit")}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary}
    return {"record": records, "line": line}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    # Part of the standard benchmark command line. It changes nothing: each
    # workload does a fixed amount of work, about run_seconds of BENCHMARK.json.
    ap.add_argument("--seconds", type=int, default=None, help="ignored; the work per workload is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="also write the full record as JSON here")
    args = ap.parse_args()
    try:
        spec = load_spec()
        check_tree()
        names = [m["name"] for m in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
        result = run_all(args, spec) if args.workload == "all" else run_single(args, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps(result["record"], indent=1, sort_keys=True) + "\n")
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
