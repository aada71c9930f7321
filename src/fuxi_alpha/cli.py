"""Command-line entry point.

    fuxi-alpha <command> [--config run.json] [--set key=value ...]

Commands: ingest, train, eval, ablate, bench, analyze, gradcheck. Artifacts
land in output.directory under fixed names (split.manifest, checkpoint.bin,
loss.csv, metrics.csv, bench.csv, analysis.csv, gradcheck.txt). Exit codes:
0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .bench import blas_threads, scaling_probe, tps_benchmark
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, write_atomic, write_csv
from .config import ConfigError, resolve_config
from .data import (
    GAP_RULES,
    DataError,
    SyntheticSpec,
    build_sequences,
    parse_interactions,
    split_leave_last,
    split_manifest,
    synthesize_dataset,
    uniform_gap_rule,
)
from .evaluate import evaluate, metrics_records
from .model import ModelConfig, SequenceBatch, init_params
from .poly import generic_block_spec, verify_degree_bound
from .train import TrainConfig, batch_loss, train

COMMANDS = ("ingest", "train", "eval", "ablate", "bench", "analyze", "gradcheck")

ABLATION_KINDS = ("full", "no_ams", "no_mffn", "base")

GRADCHECK_TOLERANCE = 1e-4


def _error_record(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def load_split(cfg: dict):
    data = cfg["data"]
    if data["format"] == "synthetic":
        syn = data["synthetic"]
        spec = SyntheticSpec(
            users=syn["users"], items=syn["items"], length=syn["length"], seed=syn["seed"],
            gap_rule=GAP_RULES[syn["rule"]](syn["items"], syn["prob"]),
        )
        log, remap = synthesize_dataset(spec), None
    else:
        log, remap = parse_interactions(data["path"], data["format"])
    return split_leave_last(build_sequences(log, data["n"]), remap)


def _as_config_error(build, **kwargs):
    """build(**kwargs), with its range-check ValueError reported as a config error."""
    try:
        return build(**kwargs)
    except ValueError as e:
        raise ConfigError([str(e)]) from None


def build_model_config(cfg: dict, vocab: int) -> ModelConfig:
    model = {key: value for key, value in cfg["model"].items() if key != "variant"}
    return _as_config_error(ModelConfig, vocab=vocab, n=cfg["data"]["n"], **model)


def build_train_config(cfg: dict) -> TrainConfig:
    return _as_config_error(TrainConfig, **cfg["train"])


# commands -----------------------------------------------------------------------


def cmd_ingest(cfg: dict, outdir: Path) -> int:
    split = load_split(cfg)
    write_atomic(outdir / "split.manifest", json.dumps(split_manifest(split), indent=2))
    return 0


def _write_loss_csv(path: Path, result) -> None:
    val = dict(result.val_history)
    rows = [[epoch, repr(loss), repr(val[epoch]) if epoch in val else ""] for epoch, loss in enumerate(result.loss_history)]
    write_csv(path, ["epoch", "mean_loss", "val_ndcg10"], rows)


def cmd_train(cfg: dict, outdir: Path) -> int:
    split = load_split(cfg)
    mcfg = build_model_config(cfg, split.vocab)
    tcfg = build_train_config(cfg)
    variant = cfg["model"]["variant"]
    result = train(variant, split, tcfg, mcfg)
    save_checkpoint(
        outdir / "checkpoint.bin", result.params, mcfg,
        extra={"variant": variant, "seed": tcfg.seed, "best_epoch": result.best_epoch},
    )
    _write_loss_csv(outdir / "loss.csv", result)
    return 0


def cmd_eval(cfg: dict, outdir: Path) -> int:
    split = load_split(cfg)
    params, mcfg, extra = load_checkpoint(outdir / "checkpoint.bin")
    if mcfg.vocab != split.vocab:
        raise DataError(f"checkpoint vocab {mcfg.vocab} does not match the data's vocab {split.vocab}")
    partition = split.test if cfg["eval"]["partition"] == "test" else split.validation
    report = evaluate(params, partition, cfg["eval"]["ks"], mcfg)
    rows = metrics_records(report, extra.get("variant", params.kind), "final")
    write_csv(outdir / "metrics.csv", ["variant", "epoch", "k", "metric", "value"], rows)
    return 0


def cmd_ablate(cfg: dict, outdir: Path) -> int:
    split = load_split(cfg)
    mcfg = build_model_config(cfg, split.vocab)
    tcfg = build_train_config(cfg)
    ks = sorted(cfg["eval"]["ks"])
    header = ["variant"] + [f"hr@{k}" for k in ks] + [f"ndcg@{k}" for k in ks] + ["mrr"]
    rows = []
    for kind in ABLATION_KINDS:
        result = train(kind, split, tcfg, mcfg)
        report = evaluate(result.params, split.test, ks, mcfg)
        rows.append(
            [kind]
            + [repr(report.hr[k]) for k in ks]
            + [repr(report.ndcg[k]) for k in ks]
            + [repr(report.mrr)]
        )
    write_csv(outdir / "metrics.csv", header, rows)
    return 0


def cmd_bench(cfg: dict, outdir: Path) -> int:
    b = cfg["bench"]
    lengths = b["seq_lengths"]
    items = b["items"]
    spec = SyntheticSpec(
        users=b["users"], items=items, length=max(lengths), seed=11,
        gap_rule=uniform_gap_rule(items),
    )
    dataset = build_sequences(synthesize_dataset(spec), n=max(lengths))
    template = build_model_config(cfg, vocab=items + 1)
    machine = platform.node() or platform.machine()
    rows = [
        [rec.variant, rec.seq_len, "tps", repr(rec.tps), machine]
        for kind in b["variants"]
        for rec in tps_benchmark(kind, template, lengths, b["batch"], dataset)
    ]
    write_csv(outdir / "bench.csv", ["variant", "seq_len", "metric", "value", "machine"], rows)
    return 0


def cmd_analyze(cfg: dict, outdir: Path) -> int:
    rows = []
    all_hold = True
    for layers in (1, 2, 3, 4):
        for n in (2, 3):
            report = verify_degree_bound(generic_block_spec(layers, n))
            expected = 2**layers - 1
            ok = report.holds and report.divisibility and report.max_degree == expected
            all_hold &= ok
            rows.append(["degree_oracle", f"b={layers},n={n}", "max_degree", report.max_degree, ""])
            rows.append(["degree_oracle", f"b={layers},n={n}", "holds", int(ok), ""])
    template = ModelConfig(
        vocab=200, d=16, d_h=16, heads=1, d_ffn=32, layers=1, n=64,
        n_buckets=32, negatives=16,
    )
    machine = platform.node() or platform.machine()
    for axis, values in (("layers", [1, 2, 4]), ("dim", [8, 16])):
        probe = scaling_probe(template, axis, values)
        for row in probe.rows:
            rows.append([f"scaling_{axis}", row.value, "param_count", row.param_count, machine])
            rows.append([f"scaling_{axis}", row.value, "step_time", repr(row.step_time), machine])
        rows.append([f"scaling_{axis}", "", "r_squared", repr(probe.r_squared), machine])
    write_csv(outdir / "analysis.csv", ["probe", "value", "metric", "result", "machine"], rows)
    if not all_hold:
        raise RuntimeError("analyze: polynomial degree oracle failed")
    return 0


def cmd_gradcheck(cfg: dict, outdir: Path) -> int:
    tiny = ModelConfig(vocab=7, d=4, d_h=4, heads=1, d_ffn=8, layers=2, n=4, n_buckets=8, negatives=2)
    lines = []
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(tiny, "full", seed)
        for _, t in params.named():
            t.data = rng.normal(0.0, 0.3, size=t.data.shape)
        params.item_emb.data[0, :] = 0.0
        # a full row and a padded one; a fresh generator per call gives every
        # finite difference the same negatives
        items = np.array([[1 + seed % 6, 2, 5, 3], [4, 6, 1, 0]], dtype=np.int64)
        ts = np.array([[3, 9, 12, 40], [5, 7, 30, 0]], dtype=np.int64)
        batch = SequenceBatch(items, ts, np.array([4, 3]))
        err = T.grad_check_params(
            lambda: batch_loss(batch, params, tiny, np.random.default_rng(seed)), params.tensors(), fd_step=1e-5
        )
        worst = max(worst, err)
        lines.append(f"seed {seed}: max relative error {err:.3e}")
    lines.append(f"max over seeds: {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    write_atomic(outdir / "gradcheck.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    if worst >= GRADCHECK_TOLERANCE:
        raise RuntimeError(f"gradcheck: max relative error {worst:.3e} exceeds {GRADCHECK_TOLERANCE}")
    return 0


DISPATCH = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "bench": cmd_bench,
    "analyze": cmd_analyze,
    "gradcheck": cmd_gradcheck,
}


def _write_provenance(cfg: dict, outdir: Path, command: str, overrides) -> None:
    write_atomic(outdir / "resolved_config.json", json.dumps(cfg, indent=2, sort_keys=True))
    manifest = {
        "command": command,
        "overrides": list(overrides),
        "train_seed": cfg["train"]["seed"],
        "data_seed": cfg["data"]["synthetic"]["seed"] if cfg["data"]["format"] == "synthetic" else None,
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),  # OpenBLAS threads; null if none is loaded
        "platform": platform.platform(),
        "machine": platform.node() or platform.machine(),
    }
    write_atomic(outdir / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fuxi-alpha", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="dotted-path override, e.g. model.layers=4 (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        document = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    except (OSError, UnicodeDecodeError) as e:
        _error_record("config", f"cannot read config file {args.config}: {e}")
        return 2
    except json.JSONDecodeError as e:
        _error_record("config", f"config file is not valid JSON: {e}")
        return 2

    try:
        cfg = resolve_config(document, args.overrides)
    except ConfigError as e:
        _error_record("config", str(e))
        return 2

    outdir = Path(cfg["output"]["directory"])
    # The kernel holds the lock for as long as this process keeps .lock open
    # and drops it when the process ends, however it ends. The file stays:
    # unlinking it would let a second run lock a new file of the same name.
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        lock = open(outdir / ".lock", "a")
    except OSError as e:
        _error_record("config", f"cannot create or lock output directory {outdir}: {e}")
        return 2
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        lock.close()
        _error_record("config", f"output directory {outdir} is locked by another run")
        return 2

    try:
        _write_provenance(cfg, outdir, args.command, args.overrides)
        return DISPATCH[args.command](cfg, outdir)
    except ConfigError as e:
        _error_record("config", str(e))
        return 2
    except (DataError, CheckpointError, OSError) as e:
        _error_record("data", str(e))
        return 3
    except (RuntimeError, ArithmeticError, ValueError) as e:
        _error_record("numeric", str(e))
        return 4
    finally:
        lock.close()


if __name__ == "__main__":
    sys.exit(main())
