import os

import numpy as np
import pytest
from conftest import random_params, tiny_config

from fuxi_alpha.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from fuxi_alpha.model import VARIANT_KINDS


@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_round_trip_preserves_everything(tmp_path, kind):
    cfg = tiny_config()
    params = random_params(cfg, kind=kind, seed=3)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, cfg, extra={"note": "x", "epoch": 4})
    loaded, loaded_cfg, extra = load_checkpoint(path)
    assert loaded.kind == kind
    assert loaded_cfg == cfg
    assert extra == {"note": "x", "epoch": 4}
    assert [n for n, _ in params.named()] == [n for n, _ in loaded.named()]
    for (_, a), (_, b) in zip(params.named(), loaded.named()):
        np.testing.assert_array_equal(a.data, b.data)


def test_identical_params_produce_identical_bytes(tmp_path):
    cfg = tiny_config()
    params = random_params(cfg, seed=1)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, params, cfg)
    save_checkpoint(p2, params, cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_corruption_is_detected(tmp_path):
    cfg = tiny_config()
    params = random_params(cfg, seed=2)
    path = tmp_path / "c.bin"
    save_checkpoint(path, params, cfg)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_rejects_non_checkpoint_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all, way too short?" * 3)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_failed_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    cfg = tiny_config()
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, random_params(cfg, seed=4), cfg)
    before = path.read_bytes()

    def crash(src, dst):
        assert os.path.getsize(src) == len(before)  # the new file was written in full
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated"):
        save_checkpoint(path, random_params(cfg, seed=5), cfg)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]
