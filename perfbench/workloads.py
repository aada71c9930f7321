"""Workload definitions: the shape of each workload's log, model and work.

Each workload does a fixed amount of work, 25-40 s of timed work on a
2-vCPU machine. README.md gives the reason for each workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    users: int          # users in the generated log
    min_length: int     # shortest history in the log
    n: int              # model sequence length
    batch: int          # training batch size
    rounds: int         # interleaved rounds of train, evaluate and predict
    train_batches: int  # batches per round's epoch, one train() call
    eval_users: int     # validation users ranked per round, one evaluate() call of one batch
    requests: int       # predict_next() calls per round
    setups: int         # ingest-to-ready passes in the run; setup_s is their median


# A setup pass costs about 0.4 s on the two training workloads and 6 s on
# eval_serve, so only the training workloads can afford enough passes for a
# steady median. Runs are kept under about 45 s on a slow 2-vCPU machine, so
# that 70 runs of the three workloads fit in an hour.
WORKLOADS = {
    # ROADMAP desk config on ML-1M-shaped histories: half the positions are
    # padding and the sampled-softmax head runs beside the attention.
    "train_desk": Workload(users=512, min_length=20, n=200, batch=32, rounds=3, train_batches=3,
                           eval_users=128, requests=120, setups=7),
    # Same positions per step (8 x 800 = 32 x 200) on full rows: the [B, n, n]
    # attention work is four times larger, the head costs the same.
    "train_long": Workload(users=64, min_length=800, n=800, batch=8, rounds=3, train_batches=2,
                           eval_users=8, requests=20, setups=5),
    # ML-1M-scale ingest, then mostly forward-only work: full-catalog ranking
    # of a 512-user validation slice and single-history requests padded to n.
    "eval_serve": Workload(users=6040, min_length=20, n=200, batch=32, rounds=4, train_batches=1,
                           eval_users=128, requests=250, setups=3),
}

