"""tools/stepmem.py runs end to end on one workload and prints every figure it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stepmem_prints_the_step_memory_and_the_faults_of_each_phase():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stepmem.py"), "--workload", "train_desk"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    name, *pairs = line.split()
    fields = dict(pair.split("=") for pair in pairs)
    assert name == "train_desk"
    assert list(fields) == ["tape_mb", "step_peak_mb", "faults_step", "faults_evaluate", "faults_request", "faults_setup"]
    # the step's peak includes what its forward end holds
    assert 0 < float(fields["tape_mb"]) <= float(fields["step_peak_mb"])
    counts = r"\d+(,\d+)*"
    # two measured rounds: three train steps (train_desk's batches per round), an evaluate call and a setup pass each
    assert re.fullmatch(counts, fields["faults_step"]) and len(fields["faults_step"].split(",")) == 6
    assert re.fullmatch(counts, fields["faults_evaluate"]) and len(fields["faults_evaluate"].split(",")) == 2
    assert re.fullmatch(counts, fields["faults_setup"]) and len(fields["faults_setup"].split(",")) == 2
    assert float(fields["faults_request"]) >= 0
