"""tools/fingerprint.py runs end to end and prints every line it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("full", "base", "no_ams", "no_mffn", "vanilla", "hstu_like")


def test_fingerprint_prints_every_prefix_and_digest():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py")], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    prefix, digest = re.compile(r"[0-9a-f]{16}/[0-9a-f]{16}/[0-9a-f]{16}"), re.compile(r"heads=[12] [0-9a-f]{64}")
    blocks = [lines[0:7], lines[7:14]]
    for header, block in zip(("criterion-10 heads=1:", "criterion-10 heads=2 d_h=4:"), blocks):
        assert block[0].startswith(header)
        assert [line.split()[0] for line in block[1:]] == list(KINDS)
        assert all(prefix.fullmatch(line.split()[1]) for line in block[1:])
    assert lines[14].startswith("batch n=150")
    batch = lines[15:]
    assert [line.split()[0] for line in batch] == list(KINDS) * 2
    assert all(digest.fullmatch(line.split(None, 1)[1]) for line in batch)
    # a variant's two heads settings train different models
    assert len({line.split()[1] for block in blocks for line in block[1:]}) == 12
