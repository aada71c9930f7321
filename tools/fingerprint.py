"""Print a bitwise fingerprint of the numbers the package computes.

    PYTHONPATH=src python tools/fingerprint.py

Two trees compute the same numbers when this prints the same text for both,
so a refactor that must not move a bit is checked by diffing two outputs.
It prints:

- the sha256 prefixes of checkpoint.bin, metrics.csv and loss.csv after
  `train` and `eval` on the criterion-10 config (tests/test_acceptance.py),
  for every variant, at the default heads and at model.heads=2 model.d_h=4;
- one sha256 per variant at 1 and 2 heads over the loss, every parameter
  gradient, forward_hidden (every row, and one row per sequence) and
  forward, on a fixed batch of six sequences whose lengths (150, 3, 97, 150,
  1, 64) give full and partial 64-row attention tiles and a one-row
  sequence.

Every file is written in a temporary directory, removed on exit.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from fuxi_alpha import model as M
from fuxi_alpha.cli import main as cli_main
from fuxi_alpha.tensor import Tape, backward
from fuxi_alpha.train import batch_loss

CRITERION_10 = {
    "data.n": 12,
    "data.synthetic.users": 40,
    "data.synthetic.items": 12,
    "data.synthetic.length": 12,
    "model.d": 8,
    "model.d_h": 8,
    "model.d_ffn": 16,
    "model.layers": 2,
    "model.n_buckets": 8,
    "model.negatives": 4,
    "train.epochs": 2,
    "train.batch_size": 8,
    "train.seed": 9,
}
HEADS = {"heads=1": {}, "heads=2 d_h=4": {"model.heads": 2, "model.d_h": 4}}
LENGTHS = (150, 3, 97, 150, 1, 64)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def criterion_10(kind: str, extra: dict, root: Path) -> str:
    """The 16-hex-digit sha256 prefixes of the run's three artifacts."""
    out = root / f"{kind}-{len(extra)}"
    overrides = {**CRITERION_10, **extra, "model.variant": kind, "output.directory": str(out)}
    args = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    for command in ("train", "eval"):
        if cli_main([command] + args) != 0:
            raise SystemExit(f"fingerprint: {command} failed for {kind}")
    return "/".join(_sha((out / name).read_bytes())[:16] for name in ("checkpoint.bin", "metrics.csv", "loss.csv"))


def batch_digest(kind: str, heads: int) -> str:
    """sha256 over the loss, every gradient and the forward outputs on the fixed batch."""
    cfg = M.ModelConfig(
        vocab=40, d=8, d_h=8 // heads, heads=heads, d_ffn=12, n=max(LENGTHS),
        n_buckets=16, negatives=5, max_time_span=200_000,
    )
    rng = np.random.default_rng(7)
    params = M.init_params(cfg, kind, seed=3)
    for _, t in params.named():  # lively values: alpha and beta start at zero
        t.data = rng.normal(0.0, 0.3, size=t.data.shape)
    params.item_emb.data[0] = 0.0
    batch = M.SequenceBatch.from_sequences(
        [rng.integers(1, cfg.vocab, size=length) for length in LENGTHS],
        [np.cumsum(rng.integers(0, 3000, size=length)) for length in LENGTHS],
        cfg.n,
    )
    with Tape() as tape:
        loss = batch_loss(batch, params, cfg, np.random.default_rng(11))
    backward(loss, tape)
    h = hashlib.sha256(loss.data.tobytes())
    for name, t in params.named():
        h.update(name.encode())
        h.update(b"none" if t.grad is None else t.grad.tobytes())
    h.update(M.forward_hidden(batch, params, cfg).data.tobytes())
    h.update(M.forward_hidden(batch, params, cfg, rows=rng.integers(0, batch.valid_len)).data.tobytes())
    h.update(M.forward(batch, params, cfg).data.tobytes())
    return h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, extra in HEADS.items():
            print(f"criterion-10 {label}: checkpoint.bin/metrics.csv/loss.csv")
            for kind in M.VARIANT_KINDS:
                print(f"  {kind:10s} {criterion_10(kind, extra, Path(tmp))}")
    print(f"batch n={max(LENGTHS)}, lengths {LENGTHS}: loss, gradients, forward_hidden, forward")
    for heads in (1, 2):
        for kind in M.VARIANT_KINDS:
            print(f"  {kind:10s} heads={heads} {batch_digest(kind, heads)}")


if __name__ == "__main__":
    main()
