"""Optimization loop: decoupled-weight-decay adaptive moments, per-position
negative sampling, and early stopping on validation ranking quality."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetSplit, batch_iterator
from .evaluate import evaluate
from .model import ModelConfig, ModelParams, forward_hidden, init_params, sampled_loss
from .tensor import Tape, Tensor, backward


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 1   # epochs between validation evaluations; used only when patience > 0
    patience: int = 0     # evaluations without improvement before stopping; 0 disables validation and stopping

    def __post_init__(self):
        problems = []
        if self.lr <= 0:
            problems.append("lr must be positive")
        if self.weight_decay < 0:
            problems.append("weight_decay must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            problems.append("betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            problems.append("adam_eps must be positive")
        for name in ("lr", "weight_decay", "beta1", "beta2", "adam_eps"):
            if not math.isfinite(getattr(self, name)):
                problems.append(f"{name} must be finite")
        if self.epochs < 0 or self.batch_size < 1 or self.eval_every < 0 or self.patience < 0:
            problems.append("epochs/batch_size/eval_every/patience out of range")
        if problems:
            raise ValueError("invalid TrainConfig: " + "; ".join(problems))


class AdamW:
    """Adaptive moments with decoupled weight decay."""

    def __init__(self, named_params, cfg: TrainConfig):
        self.params = [(name, t) for name, t in named_params if t.requires_grad]
        self.cfg = cfg
        self.m = {name: np.zeros_like(t.data) for name, t in self.params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params}
        self.t = 0

    def step(self) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + c.adam_eps)
            p.data -= c.lr * (update + c.weight_decay * p.data)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


# negative sampling ------------------------------------------------------------


def sample_negatives_batch(
    positives: np.ndarray, n_neg: int, vocab: int, rng: np.random.Generator
) -> np.ndarray:
    """n_neg negatives for each of the positives [P], as [P, n_neg]: uniform over
    [1, vocab) excluding that row's positive, distinct within a row, independent
    across rows."""
    if n_neg < 1:
        raise ValueError("sample_negatives_batch: need at least one negative")
    if n_neg > vocab - 2:
        raise ValueError(f"sample_negatives_batch: N={n_neg} too large for vocab {vocab} (max {vocab - 2})")
    pos = np.asarray(positives, dtype=np.int64)
    # Floyd's algorithm (Bentley and Floyd, CACM 1987) over the vocab - 2
    # candidates of every row at once: round j draws t in [0, j] and keeps it,
    # or keeps j when t is already one of that row's picks; every N-subset is
    # equally likely after the N rounds.
    span = vocab - 2
    picks = np.empty((n_neg, pos.size), dtype=np.int64)
    for k, j in enumerate(range(span - n_neg, span)):
        t = rng.integers(0, j + 1, size=pos.size)
        picks[k] = np.where((picks[:k] == t).any(axis=0), j, t)
    # candidate c is id c + 1, shifted past the row's positive
    out = picks.T + 1
    out += out >= pos[:, None]
    return out


# training ----------------------------------------------------------------------


@dataclass
class TrainResult:
    params: ModelParams
    loss_history: list[float] = field(default_factory=list)       # per-epoch mean loss
    val_history: list[tuple[int, float]] = field(default_factory=list)  # (epoch, validation ndcg@10)
    best_epoch: int | None = None


def next_item_targets(batch) -> np.ndarray:
    """The next item of each of the batch's T valid positions, packed in
    row-major order as [T]; 0 at each sequence's last position."""
    targets = np.zeros_like(batch.items)
    targets[:, :-1] = batch.items[:, 1:]
    return targets[batch.valid]


def next_item_negatives(targets: np.ndarray, cfg: ModelConfig, rng: np.random.Generator) -> np.ndarray:
    """cfg.negatives sampled ids for each position that has a target, in the
    order of targets ([P, N]); no row holds its own position's target."""
    return sample_negatives_batch(targets[targets > 0], cfg.negatives, cfg.vocab, rng)


def batch_loss(batch, params: ModelParams, cfg: ModelConfig, rng: np.random.Generator) -> Tensor | None:
    """The batch's sampled-softmax next-item loss, recorded on the active tape,
    with negatives drawn from rng; None, drawing nothing, if no position has a
    next item. Every step that trains, times or grad-checks the model builds
    its loss here."""
    targets = next_item_targets(batch)
    if not targets.any():
        return None
    negs = next_item_negatives(targets, cfg, rng)
    return sampled_loss(forward_hidden(batch, params, cfg), params.item_emb, targets, negs)


def train_step(
    batch,
    params: ModelParams,
    cfg: ModelConfig,
    opt: AdamW,
    rng: np.random.Generator,
) -> float | None:
    """One forward/backward/update; returns the loss or None if the batch has no targets."""
    with Tape() as tape:
        loss = batch_loss(batch, params, cfg, rng)
    if loss is None:
        return None
    value = loss.item()
    if not np.isfinite(value):
        raise RuntimeError(
            f"train: non-finite loss {value} at optimizer step {opt.t + 1}; "
            "lower the learning rate or check the input data"
        )
    backward(loss, tape)
    opt.step()
    opt.zero_grad()
    params.item_emb.data[0, :] = 0.0
    return value


def train(
    kind: str,
    split: DatasetSplit,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    initial_params: ModelParams | None = None,
) -> TrainResult:
    """Fit the variant `kind` on the split's training partition, from
    initial_params if given; a parameter with requires_grad=False stays fixed."""
    params = initial_params if initial_params is not None else init_params(model_cfg, kind, train_cfg.seed)
    opt = AdamW(params.named(), train_cfg)
    neg_rng = np.random.default_rng(train_cfg.seed + 1)
    result = TrainResult(params=params)
    best: ModelParams | None = None
    best_metric = -np.inf
    stale = 0
    for epoch in range(train_cfg.epochs):
        losses = []
        for batch in batch_iterator(
            split.train, train_cfg.batch_size, model_cfg.n, shuffle_seed=train_cfg.seed * 100_003 + epoch
        ):
            value = train_step(batch, params, model_cfg, opt, neg_rng)
            if value is not None:
                losses.append(value)
        result.loss_history.append(float(np.mean(losses)) if losses else float("nan"))
        run_eval = (
            train_cfg.eval_every > 0
            and (epoch + 1) % train_cfg.eval_every == 0
            and split.validation
            and train_cfg.patience > 0
        )
        if run_eval:
            report = evaluate(params, split.validation, [10], model_cfg)
            metric = report.ndcg[10]
            result.val_history.append((epoch, metric))
            if metric > best_metric:
                best_metric = metric
                best = copy.deepcopy(params)
                result.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= train_cfg.patience:
                    break
    if best is not None:
        result.params = best
    return result
