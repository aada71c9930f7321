"""Full-catalog ranking evaluation: hit ratio, NDCG, and mean reciprocal rank."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import EvalInstance
from .model import ModelConfig, ModelParams, SequenceBatch, forward_hidden


@dataclass
class MetricsReport:
    hr: dict[int, float]
    ndcg: dict[int, float]
    mrr: float
    user_count: int
    ranks: np.ndarray | None = None


def _ranked(who: str, vocab: int, targets: list[int], excluded: Iterable[int], first: int) -> np.ndarray:
    """The [vocab] mask of the ranked ids: all but `excluded` and those below `first`.
    A ValueError names an id out of range (numpy would wrap a negative one) or rejects an excluded target."""
    excluded = list(excluded)
    for kind, ids, lo in (("excluded", excluded, 0), ("target", targets, first)):
        bad = next((i for i in ids if not lo <= i < vocab), None)
        if bad is not None:
            raise ValueError(f"{who}: {kind} id {bad} is outside [{lo}, {vocab})")
    keep = np.ones(vocab, dtype=bool)
    keep[:first] = False
    keep[excluded] = False
    if not keep[targets].all():
        raise ValueError(f"{who}: a target is excluded from ranking")
    return keep


def _ranks(logits: np.ndarray, targets: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """1-based rank of each row's target among the ids `keep` marks in that
    row of logits [B, vocab]; ties count against the target (conservative)."""
    tvals = logits[np.arange(len(targets)), targets]
    return ((logits >= tvals[:, None]) & keep).sum(axis=1)


def rank_of_target(logits_row: np.ndarray, target: int, excluded: Iterable[int] = ()) -> int:
    """1-based rank of the target; ties count against it (conservative)."""
    logits_row = np.asarray(logits_row)
    keep = _ranked("rank_of_target", logits_row.shape[0], [target], excluded, first=0)
    return int(_ranks(logits_row[None], np.array([target]), keep)[0])


def compute_metrics(ranks: Sequence[int], ks: Sequence[int]) -> MetricsReport:
    """Aggregate 1-based ranks into HR@K, NDCG@K and MRR."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("compute_metrics: no ranks")
    if np.any(ranks < 1):
        raise ValueError("compute_metrics: ranks must be >= 1")
    if any(k < 1 for k in ks):
        raise ValueError(f"compute_metrics: every k must be >= 1, got {list(ks)}")
    hr = {k: float(np.mean(ranks <= k)) for k in ks}
    ndcg = {
        k: float(np.mean(np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0))) for k in ks
    }
    mrr = float(np.mean(1.0 / ranks))
    return MetricsReport(hr=hr, ndcg=ndcg, mrr=mrr, user_count=int(ranks.size), ranks=ranks)


def evaluate(
    params: ModelParams,
    instances: Sequence[EvalInstance],
    ks: Sequence[int],
    cfg: ModelConfig,
    batch_size: int = 256,
    excluded: Iterable[int] = (),
) -> MetricsReport:
    """Rank each instance's ground-truth target against the full catalog.

    The padding item is always excluded; additional ids in [0, vocab) may be
    excluded as long as no instance's target (in [1, vocab)) is among them,
    which is checked before any forward pass. The instances are ranked in
    chunks of batch_size in order of history length (stably); each chunk is
    padded to its longest history (at most n), and only the last position of
    each history is computed in the last block. Padding costs no attention
    work; sorting keeps a chunk's width and padded inputs close to its
    histories' lengths. Ranks are reported in input order.
    """
    if not instances:
        raise ValueError("evaluate: empty partition")
    if batch_size < 1:
        raise ValueError(f"evaluate: batch_size must be positive, got {batch_size}")
    for inst in instances:
        if len(inst.items) == 0:
            raise ValueError(f"evaluate: user {inst.user} has an empty history")
    keep = _ranked("evaluate", cfg.vocab, [inst.target for inst in instances], excluded, first=1)
    ranks = np.empty(len(instances), dtype=np.int64)
    by_length = np.argsort([len(inst.items) for inst in instances], kind="stable")
    for start in range(0, len(instances), batch_size):
        picked = by_length[start : start + batch_size]
        chunk = [instances[i] for i in picked]
        width = min(max(len(inst.items) for inst in chunk), cfg.n)
        batch = SequenceBatch.from_sequences([inst.items for inst in chunk], [inst.timestamps for inst in chunk], width)
        last = forward_hidden(batch, params, cfg, rows=batch.valid_len - 1).data
        ranks[picked] = _ranks(last @ params.item_emb.data.T, np.array([inst.target for inst in chunk]), keep)
    return compute_metrics(ranks, ks)


def metrics_records(report: MetricsReport, variant: str, epoch: int | str) -> list[tuple]:
    """Flat (variant, epoch, K, metric, value) rows for the long-form CSV."""
    rows = []
    for k in sorted(report.hr):
        rows.append((variant, epoch, k, "hr", report.hr[k]))
        rows.append((variant, epoch, k, "ndcg", report.ndcg[k]))
    rows.append((variant, epoch, "", "mrr", report.mrr))
    return rows

