import importlib
import sys

import numpy as np
import pytest
from conftest import freeze_temporal, tiny_config

from fuxi_alpha.bench import TIMING_WINDOWS, scaling_probe, tps_benchmark
from fuxi_alpha.cli import main
from fuxi_alpha.data import (
    SyntheticSpec,
    build_sequences,
    split_leave_last,
    synthesize_dataset,
    two_class_gap_rule,
    uniform_gap_rule,
)
from fuxi_alpha.model import ModelConfig, SequenceBatch, init_params
from fuxi_alpha.train import (
    AdamW,
    TrainConfig,
    next_item_negatives,
    next_item_targets,
    sample_negatives_batch,
    train,
    train_step,
)

# chi2.isf(0.01, 97): frozen critical value for the uniformity test below
CHI2_CRIT_DOF97_P01 = 132.30887667181258
# chi2.isf(0.01, 9): the same for the joint (pair) uniformity test
CHI2_CRIT_DOF9_P01 = 21.665994333461924


def _toy_split(users=20, items=8, length=12, seed=0):
    spec = SyntheticSpec(users=users, items=items, length=length, seed=seed,
                         gap_rule=two_class_gap_rule(items, prob=0.9))
    events = synthesize_dataset(spec)
    return split_leave_last(build_sequences(events, n=length))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for name in ("lr", "weight_decay", "beta1", "beta2", "adam_eps"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})


def test_zero_epochs_returns_initialization_bitwise():
    split = _toy_split()
    cfg = tiny_config(vocab=split.vocab, n=12, negatives=3)
    tcfg = TrainConfig(epochs=0, seed=7)
    result = train("full", split, tcfg, cfg)
    reference = init_params(cfg, "full", seed=7)
    for (_, a), (_, b) in zip(result.params.named(), reference.named()):
        np.testing.assert_array_equal(a.data, b.data)


def test_same_seed_reproduces_history_and_params():
    split = _toy_split()
    cfg = tiny_config(vocab=split.vocab, n=12, negatives=4)
    tcfg = TrainConfig(epochs=2, batch_size=8, seed=3, patience=0)
    r1 = train("full", split, tcfg, cfg)
    r2 = train("full", split, tcfg, cfg)
    assert r1.loss_history == r2.loss_history
    for (_, a), (_, b) in zip(r1.params.named(), r2.params.named()):
        np.testing.assert_array_equal(a.data, b.data)


def test_loss_decreases_on_deterministic_toy():
    split = _toy_split(users=20, items=8, length=12)
    cfg = tiny_config(vocab=split.vocab, n=12, negatives=4, layers=1, d=8, d_h=8, d_ffn=16)
    tcfg = TrainConfig(epochs=5, batch_size=8, seed=0, patience=0)
    result = train("full", split, tcfg, cfg)
    assert result.loss_history[-1] < result.loss_history[0]


def test_padding_row_stays_zero_after_training():
    split = _toy_split()
    cfg = tiny_config(vocab=split.vocab, n=12, negatives=3)
    result = train("full", split, TrainConfig(epochs=2, batch_size=8, seed=1), cfg)
    np.testing.assert_array_equal(result.params.item_emb.data[0], np.zeros(cfg.d))


def test_non_finite_loss_aborts_with_diagnostic():
    split = _toy_split()
    cfg = tiny_config(vocab=split.vocab, n=12, negatives=3)
    poisoned = init_params(cfg, "full", seed=0)
    poisoned.item_emb.data[1:] = 1e200
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite"):
        train("full", split, TrainConfig(epochs=1, batch_size=8, seed=0), cfg, initial_params=poisoned)


def test_freeze_temporal_keeps_alpha_zero():
    split = _toy_split()
    cfg = tiny_config(vocab=split.vocab, n=12, negatives=3)
    frozen = freeze_temporal(init_params(cfg, "full", seed=0))
    result = train("full", split, TrainConfig(epochs=2, batch_size=8, seed=0), cfg, initial_params=frozen)
    for blk in result.params.blocks:
        for a in blk.alpha:
            np.testing.assert_array_equal(a.data, np.zeros_like(a.data))


def test_early_stopping_restores_best_params():
    split = _toy_split(users=24)
    cfg = tiny_config(vocab=split.vocab, n=12, negatives=3, layers=1)
    tcfg = TrainConfig(epochs=6, batch_size=8, seed=2, eval_every=1, patience=2)
    result = train("full", split, tcfg, cfg)
    assert result.val_history  # validation ran
    assert result.best_epoch is not None
    best = max(v for _, v in result.val_history)
    assert result.val_history[result.best_epoch // tcfg.eval_every][1] == best


# negative sampling ------------------------------------------------------------


def test_forced_negative_with_tiny_vocab():
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = sample_negatives_batch(np.array([1]), n_neg=1, vocab=3, rng=rng)
        assert out.tolist() == [[2]]


def test_negatives_exclude_positive_and_stay_in_range():
    rng = np.random.default_rng(1)
    pos = np.full(20_000, 17)
    out = sample_negatives_batch(pos, 5, vocab=100, rng=rng)
    assert out.shape == (20_000, 5)
    assert not np.any(out == 17)
    assert out.min() >= 1 and out.max() <= 99


def test_negatives_distinct_within_position():
    rng = np.random.default_rng(2)
    out = sample_negatives_batch(np.arange(1, 200), 40, vocab=64, rng=rng)
    for row in out:
        assert len(set(row.tolist())) == 40


def test_negatives_chi_square_uniformity():
    # 1e5 draws over the 98 allowed ids of a 100-item vocab
    rng = np.random.default_rng(3)
    pos = np.full(20_000, 17)
    out = sample_negatives_batch(pos, 5, vocab=100, rng=rng).ravel()
    values = np.arange(1, 100)
    values = values[values != 17]
    counts = np.array([(out == v).sum() for v in values])
    expected = out.size / values.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_CRIT_DOF97_P01


def test_negatives_reject_oversized_n():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_negatives_batch(np.array([1]), n_neg=4, vocab=5, rng=rng)


def test_negatives_joint_uniformity():
    # each of the C(5, 2) = 10 pairs of the ids other than 3 in a 7-item vocab
    rng = np.random.default_rng(4)
    out = sample_negatives_batch(np.full(20_000, 3), 2, vocab=7, rng=rng)
    pairs = np.sort(out, axis=1)
    allowed = [1, 2, 4, 5, 6]
    counts = np.array([
        np.sum((pairs[:, 0] == a) & (pairs[:, 1] == b)) for i, a in enumerate(allowed) for b in allowed[i + 1:]
    ])
    assert counts.sum() == len(out)
    expected = len(out) / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_CRIT_DOF9_P01


def test_negatives_take_every_candidate_at_full_width():
    rng = np.random.default_rng(5)
    vocab = 40
    pos = rng.integers(1, vocab, size=5_000)
    out = sample_negatives_batch(pos, vocab - 2, vocab=vocab, rng=rng)
    ids = np.arange(1, vocab - 1)
    expected = ids + (ids >= pos[:, None])
    np.testing.assert_array_equal(np.sort(out, axis=1), expected)


def test_next_item_negatives_one_row_per_target():
    # N = vocab - 2 leaves each row exactly the ids other than its own target,
    # so a row paired with the wrong position would hold that position's target
    cfg = ModelConfig(vocab=12, n=6, negatives=10)
    items = np.array([[3, 5, 7, 0, 0, 0], [2, 2, 9, 4, 11, 1], [8, 0, 0, 0, 0, 0]])
    ts = np.where(items > 0, np.arange(1, 7), 0)
    targets = next_item_targets(SequenceBatch(items, ts, (items > 0).sum(axis=1)))
    wanted = targets[targets > 0]
    assert wanted.tolist() == [5, 7, 2, 9, 4, 11, 1]
    negs = next_item_negatives(targets, cfg, np.random.default_rng(6))
    assert negs.shape == (wanted.size, cfg.negatives)
    assert not (negs == wanted[:, None]).any()
    ids = np.arange(1, cfg.vocab)
    for row, target in zip(negs, wanted):
        assert sorted(row.tolist()) == ids[ids != target].tolist()
    # the draws are exactly the sampler's for the targets alone, in row-major order
    again = sample_negatives_batch(wanted, cfg.negatives, cfg.vocab, np.random.default_rng(6))
    np.testing.assert_array_equal(negs, again)


# one batch loss ------------------------------------------------------------------


def test_every_step_builds_its_loss_in_batch_loss(monkeypatch, tmp_path):
    # `fuxi_alpha.train` is the function; the module is reached by import path
    train_mod = importlib.import_module("fuxi_alpha.train")
    original = train_mod.batch_loss
    calls = []

    def spy(batch, *args):
        calls.append((sys._getframe(1).f_code.co_name, batch))
        return original(batch, *args)

    for mod in ("train", "bench", "cli"):
        monkeypatch.setattr(importlib.import_module(f"fuxi_alpha.{mod}"), "batch_loss", spy)

    def callers(run):
        del calls[:]
        run()
        return calls[:]

    cfg = tiny_config(vocab=13, n=8, negatives=3, layers=1)
    params = init_params(cfg, "full", seed=0)
    batch = SequenceBatch(np.array([[1, 2, 3, 0]]), np.array([[1, 2, 3, 0]]), np.array([3]))
    step = callers(lambda: train_step(batch, params, cfg, AdamW(params.named(), TrainConfig()), np.random.default_rng(0)))
    assert step == [("train_step", batch)]

    spec = SyntheticSpec(users=8, items=12, length=8, seed=5, gap_rule=uniform_gap_rule(12))
    dataset = build_sequences(synthesize_dataset(spec), n=8)
    tps = callers(lambda: tps_benchmark("full", cfg, [4, 8], batch_size=4, dataset=dataset, passes=2))
    # two batches a sweep; untimed, one sweep at the longest length and then
    # one at each length, before TIMING_WINDOWS windows of `passes` sweeps each
    assert len(tps) == 2 * (1 + 2 + 2 * 2 * TIMING_WINDOWS)
    assert {b.items.shape[1] for _, b in tps} == {4, 8}

    probe = callers(lambda: scaling_probe(cfg, "layers", [1, 2], batch_size=2, repeats=2))
    assert len(probe) == 1 + 2 + 2 * 2

    check = callers(lambda: main(["gradcheck", "--set", f"output.directory={tmp_path}"]))
    # every grad-checked batch has a full row and a padded one
    assert check and all(b.valid_len.tolist() == [4, 3] for _, b in check)
    assert {name for name, _ in tps + probe} == {"_train_steps"}
    assert {name for name, _ in check} == {"<lambda>"}


def test_train_step_without_next_item_changes_nothing():
    cfg = tiny_config(vocab=9, n=3)
    params = init_params(cfg, "full", seed=3)
    opt = AdamW(params.named(), TrainConfig())
    rng = np.random.default_rng(4)
    full = SequenceBatch(np.array([[1, 2, 3]]), np.array([[1, 2, 3]]), np.array([3]))
    assert train_step(full, params, cfg, opt, rng) is not None  # nonzero moments, opt.t = 1

    def state():
        return (
            [t.data.copy() for _, t in params.named()],
            [m.copy() for m in opt.m.values()] + [v.copy() for v in opt.v.values()],
            opt.t,
            rng.bit_generator.state,
        )

    before = state()
    # every history one event: no position has a next item
    single = SequenceBatch(np.array([[3, 0, 0], [5, 0, 0]]), np.array([[4, 0, 0], [9, 0, 0]]), np.array([1, 1]))
    assert train_step(single, params, cfg, opt, rng) is None
    after = state()
    for a, b in zip(before[0] + before[1], after[0] + after[1]):
        assert a.tobytes() == b.tobytes()
    assert after[2:] == before[2:]
