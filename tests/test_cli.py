import csv
import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from fuxi_alpha.checkpoint import MAGIC
from fuxi_alpha.cli import build_model_config, main
from fuxi_alpha.config import resolve_config

DATA = Path(__file__).parent / "data"


def _fast_overrides(outdir, **extra):
    base = {
        "data.n": 10,
        "data.synthetic.users": 30,
        "data.synthetic.items": 10,
        "data.synthetic.length": 10,
        "model.d": 8,
        "model.d_h": 8,
        "model.d_ffn": 16,
        "model.layers": 1,
        "model.n_buckets": 8,
        "model.negatives": 4,
        "train.epochs": 1,
        "train.batch_size": 8,
        "eval.ks": "[5, 10]",
        "output.directory": str(outdir),
    }
    base.update(extra)
    return [arg for k, v in base.items() for arg in ("--set", f"{k}={v}")]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    code = main(["ingest", "--set", "model.width=4", "--set", f"output.directory={tmp_path}"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert "model.width" in err["message"]


def test_invalid_json_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "conf.json"
    bad.write_text("{not json")
    assert main(["ingest", "--config", str(bad)]) == 2


@pytest.mark.parametrize("path", [DATA, DATA / "not_utf8.dat"], ids=["directory", "not_utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, path):
    assert main(["ingest", "--config", str(path), "--set", f"output.directory={tmp_path / 'run'}"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "config" and str(path) in record["message"]


def test_missing_data_file_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["ingest", "--set", "data.format=csv", "--set", "data.path=/nonexistent.csv",
         "--set", f"output.directory={out}"]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "data"


def _lock_holder(lock: Path) -> subprocess.Popen:
    """A child process that holds an flock on `lock` until its stdin closes."""
    code = "import fcntl, sys; fh = open(sys.argv[1], 'a'); fcntl.flock(fh, fcntl.LOCK_EX); print('held', flush=True); sys.stdin.read()"
    child = subprocess.Popen([sys.executable, "-c", code, str(lock)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert child.stdout.readline() == "held\n"
    return child


def test_locked_output_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    holder = _lock_holder(out / ".lock")
    try:
        assert main(["ingest"] + _fast_overrides(out)) == 2
    finally:
        holder.stdin.close()
        holder.wait()
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "config", "message": f"output directory {out} is locked by another run"}
    assert main(["ingest"] + _fast_overrides(out)) == 0
    assert (out / ".lock").exists()  # kept, so that every run locks the same file


def test_lock_of_an_ended_run_is_reclaimed(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    holder = _lock_holder(out / ".lock")
    holder.stdin.close()  # the holder exits and leaves the file behind
    holder.wait()
    assert (out / ".lock").exists()
    assert main(["ingest"] + _fast_overrides(out)) == 0


def test_lock_of_a_killed_run_is_reclaimed(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    holder = _lock_holder(out / ".lock")
    holder.send_signal(signal.SIGKILL)
    holder.wait()
    holder.stdin.close()
    assert main(["ingest"] + _fast_overrides(out)) == 0


def test_ingest_writes_manifest(tmp_path):
    out = tmp_path / "run"
    assert main(["ingest"] + _fast_overrides(out)) == 0
    manifest = json.loads((out / "split.manifest").read_text())
    assert manifest["stats"]["users"] == 30
    assert manifest["partitions"]["test"] == 30
    assert (out / "resolved_config.json").exists()
    run = json.loads((out / "run_manifest.json").read_text())
    assert run["blas_threads"] is None or run["blas_threads"] >= 1
    assert run["data_seed"] == 7  # the default synthetic generator seed


@pytest.mark.parametrize("fmt", ["movielens_dat", "csv"])
def test_manifest_has_no_data_seed_for_a_log_file(tmp_path, fmt):
    # the synthetic seed moves no number of a run that reads a log file
    log = DATA / "sample.dat"
    if fmt == "csv":
        log = tmp_path / "sample.csv"
        rows = [line.split("::") for line in (DATA / "sample.dat").read_text().splitlines()]
        log.write_text("user,item,timestamp\n" + "".join(f"{u},{i},{t}\n" for u, i, _, t in rows))
    out = tmp_path / "run"
    assert main(["ingest"] + _fast_overrides(out, **{"data.format": fmt, "data.path": log, "data.synthetic.seed": 5})) == 0
    assert json.loads((out / "run_manifest.json").read_text())["data_seed"] is None


@pytest.mark.parametrize("text", ["5", "[1]", '"model"', "null"])
def test_config_file_must_hold_an_object(tmp_path, capsys, text):
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    assert main(["ingest", "--config", str(conf), "--set", f"output.directory={tmp_path / 'run'}"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    message = f"top level: expected a section, got {type(json.loads(text)).__name__}"
    assert json.loads(line) == {"error": "config", "message": message}


def test_default_config_trains(tmp_path):
    assert main(["train", "--set", "train.epochs=1", "--set", f"output.directory={tmp_path}"]) == 0
    assert (tmp_path / "checkpoint.bin").exists()


@pytest.mark.parametrize("section", ["data.synthetic", "bench"])
def test_default_catalogues_fit_the_default_negatives(section):
    cfg = resolve_config({})
    node = cfg
    for part in section.split("."):
        node = node[part]
    model = build_model_config(cfg, vocab=node["items"] + 1)
    assert model.negatives <= model.vocab - 2


def test_train_then_eval_produces_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["train"] + _fast_overrides(out)) == 0
    assert (out / "checkpoint.bin").exists()
    with open(out / "loss.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "mean_loss", "val_ndcg10"]
    assert len(rows) == 2  # header + one epoch

    assert main(["eval"] + _fast_overrides(out)) == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variant", "epoch", "k", "metric", "value"]
    metrics = {(r[2], r[3]) for r in rows[1:]}
    assert ("5", "hr") in metrics and ("10", "ndcg") in metrics and ("", "mrr") in metrics


def test_failed_metrics_write_keeps_the_previous_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    assert main(["train"] + _fast_overrides(out)) == 0
    assert main(["eval"] + _fast_overrides(out)) == 0
    before = (out / "metrics.csv").read_bytes()
    replace = os.replace

    def crash(src, dst):
        if Path(dst).name == "metrics.csv":
            raise OSError("simulated crash before the rename")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", crash)
    capsys.readouterr()
    assert main(["eval"] + _fast_overrides(out, **{"eval.ks": "[1, 3]"})) == 3  # other rows than the first eval's
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "data" and "simulated" in record["message"]
    assert (out / "metrics.csv").read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_ablate_writes_one_row_per_variant(tmp_path):
    out = tmp_path / "run"
    assert main(["ablate"] + _fast_overrides(out, **{"data.synthetic.users": 20})) == 0
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "variant"
    assert [r[0] for r in rows[1:]] == ["full", "no_ams", "no_mffn", "base"]
    assert len(rows) == 5


def test_bench_writes_tps_rows(tmp_path):
    out = tmp_path / "run"
    overrides = _fast_overrides(
        out,
        **{
            "bench.seq_lengths": "[6, 12]",
            "bench.batch": 2,
            "bench.users": 6,
            "bench.items": 10,
            "bench.variants": '["vanilla", "full"]',
            "model.negatives": 3,
        },
    )
    assert main(["bench"] + overrides) == 0
    with open(out / "bench.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variant", "seq_len", "metric", "value", "machine"]
    assert len(rows) == 1 + 2 * 2
    assert all(float(r[3]) > 0 for r in rows[1:])


def test_analyze_writes_oracle_and_scaling_rows(tmp_path):
    out = tmp_path / "run"
    assert main(["analyze"] + _fast_overrides(out)) == 0
    with open(out / "analysis.csv") as fh:
        rows = list(csv.reader(fh))
    holds = [r for r in rows if r[0] == "degree_oracle" and r[2] == "holds"]
    assert len(holds) == 8 and all(r[3] == "1" for r in holds)
    assert any(r[0] == "scaling_layers" and r[2] == "r_squared" for r in rows)


def test_gradcheck_passes_and_reports(tmp_path):
    out = tmp_path / "run"
    assert main(["gradcheck"] + _fast_overrides(out)) == 0
    text = (out / "gradcheck.txt").read_text()
    assert "max over seeds" in text


def test_train_eval_determinism_quick(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    blobs = []
    for out in outs:
        assert main(["train"] + _fast_overrides(out)) == 0
        assert main(["eval"] + _fast_overrides(out)) == 0
        blobs.append(
            ((out / "checkpoint.bin").read_bytes(), (out / "metrics.csv").read_bytes())
        )
    assert blobs[0] == blobs[1]


def _reseal_header(path, edit):
    """Apply edit to a checkpoint's JSON header and rewrite it with a valid checksum."""
    body = path.read_bytes()[:-32]
    start = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", body, len(MAGIC))
    header = json.loads(body[start : start + length])
    edit(header)
    raw = json.dumps(header).encode()
    body = MAGIC + struct.pack("<I", len(raw)) + raw + body[start + length :]
    path.write_bytes(body + hashlib.sha256(body).digest())


def _unchanged(header):
    pass


# (case, command, overrides, edit of a freshly trained checkpoint or None, exit code, error kind)
ERROR_CASES = [
    ("unknown_variant", "train", {"model.variant": "mystery"}, None, 2, "config"),
    ("unknown_bench_variant", "bench", {"bench.variants": '["mystery"]'}, None, 2, "config"),
    ("zero_width", "train", {"model.d": 0}, None, 2, "config"),
    ("negative_lr", "train", {"train.lr": -1}, None, 2, "config"),
    ("nan_lr", "train", {"train.lr": "NaN"}, None, 2, "config"),
    ("negatives_exceed_catalogue", "train", {"model.negatives": 64}, None, 2, "config"),
    ("list_element_type", "eval", {"eval.ks": '["x"]'}, None, 2, "config"),
    ("unknown_partition", "eval", {"eval.partition": "tset"}, _unchanged, 2, "config"),
    ("unknown_format", "ingest", {"data.format": "xml"}, None, 2, "config"),
    ("unknown_rule", "ingest", {"data.synthetic.rule": "zigzag"}, None, 2, "config"),
    ("nonpositive_n", "ingest", {"data.n": -3}, None, 2, "config"),
    ("zero_k", "eval", {"eval.ks": "[0]"}, _unchanged, 2, "config"),
    ("prob_above_one", "ingest", {"data.synthetic.prob": 1.5}, None, 2, "config"),
    ("zero_synthetic_users", "ingest", {"data.synthetic.users": 0}, None, 2, "config"),
    ("one_synthetic_item", "ingest", {"data.synthetic.items": 1}, None, 2, "config"),
    ("short_synthetic_length", "ingest", {"data.synthetic.length": 1}, None, 2, "config"),
    ("zero_bench_users", "bench", {"bench.users": 0}, None, 2, "config"),
    ("one_bench_item", "bench", {"bench.items": 1}, None, 2, "config"),
    ("zero_bench_batch", "bench", {"bench.batch": 0}, None, 2, "config"),
    ("short_bench_length", "bench", {"bench.seq_lengths": "[0]"}, None, 2, "config"),
    ("empty_bench_lengths", "bench", {"bench.seq_lengths": "[]"}, None, 2, "config"),
    ("bench_batch_exceeds_users", "bench", {"bench.batch": 60, "bench.seq_lengths": "[8]"}, None, 2, "config"),
    ("not_utf8", "ingest", {"data.format": "movielens_dat", "data.path": DATA / "not_utf8.dat"}, None, 3, "data"),
    ("path_is_directory", "ingest", {"data.format": "csv", "data.path": DATA}, None, 3, "data"),
    ("output_directory_is_a_file", "ingest", {"output.directory": DATA / "sample.dat"}, None, 2, "config"),
    ("empty_path", "ingest", {"data.format": "movielens_dat"}, None, 3, "data"),
    ("vocab_mismatch", "eval", {"data.synthetic.items": 12}, _unchanged, 3, "data"),
    ("header_missing_key", "eval", {}, lambda header: header.pop("extra"), 3, "data"),
    ("header_unknown_config_field", "eval", {}, lambda header: header["config"].update(width=4), 3, "data"),
]


@pytest.mark.parametrize(
    "command, overrides, edit, code, kind", [case[1:] for case in ERROR_CASES], ids=[case[0] for case in ERROR_CASES]
)
def test_errors_exit_with_documented_code(tmp_path, capsys, command, overrides, edit, code, kind):
    out = tmp_path / "run"
    if edit is not None:
        assert main(["train"] + _fast_overrides(out)) == 0
        _reseal_header(out / "checkpoint.bin", edit)
        capsys.readouterr()
    assert main([command] + _fast_overrides(out, **overrides)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == kind
