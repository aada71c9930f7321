"""The fused attention ops: gradients, the tape they leave, and the memory a step takes."""

import tracemalloc

import numpy as np
import pytest

from fuxi_alpha import model as M
from fuxi_alpha import tensor as T
from fuxi_alpha.model import ModelConfig, SequenceBatch
from fuxi_alpha.tensor import Tape, Tensor
from fuxi_alpha.train import AdamW, TrainConfig, next_item_negatives, next_item_targets, train_step


def _padded_context(n: int, n_buckets: int, seed: int) -> M.AttnContext:
    """Two rows, the second padded after three events."""
    cfg = ModelConfig(vocab=9, d=4, d_h=4, n=n, n_buckets=n_buckets, negatives=2, max_time_span=200)
    rng = np.random.default_rng(seed)
    lens = np.array([n, 3])
    items = np.zeros((2, n), dtype=np.int64)
    ts = np.zeros((2, n), dtype=np.int64)
    for row, length in enumerate(lens):
        items[row, :length] = rng.integers(1, cfg.vocab, size=length)
        ts[row, :length] = np.cumsum(rng.integers(1, 40, size=length))
    return M.build_attn_context(SequenceBatch(items, ts, lens), cfg)


def _operands(heads: int, n: int = 5, d_h: int = 3, n_buckets: int = 6, seed: int = 0):
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(rng.normal(size=(2, n, heads * d_h))) for _ in range(3))
    alpha = [Tensor(rng.normal(size=n_buckets)) for _ in range(heads)]
    beta = [Tensor(rng.normal(size=n)) for _ in range(heads)]
    return q, k, v, alpha, beta


def _silu_loss(q, k, v, alpha, beta, ctx, summed, weights):
    out = T.silu_attention(q, k, v, alpha, beta, ctx.allowed, ctx.bucket_idx, ctx.rel_idx, 1.0 / 5, summed)
    return T.mul(out, weights).sum()


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("summed", [False, True], ids=["ams", "hstu"])
def test_silu_attention_grad_check(heads, summed):
    ctx = _padded_context(5, 6, seed=heads)
    q, k, v, alpha, beta = _operands(heads, seed=10 + heads)
    channels = 1 if summed else 3
    weights = Tensor(np.random.default_rng(3).normal(size=(2, 5, channels * q.shape[-1])))
    err = T.grad_check_params(
        lambda: _silu_loss(q, k, v, alpha, beta, ctx, summed, weights), [q, k, v, *alpha, *beta]
    )
    assert err < 1e-7


@pytest.mark.parametrize("heads", [1, 2])
def test_masked_softmax_attention_grad_check(heads):
    ctx = _padded_context(5, 6, seed=heads)
    q, k, v, _, _ = _operands(heads, seed=20 + heads)
    weights = Tensor(np.random.default_rng(4).normal(size=(2, 5, q.shape[-1])))
    err = T.grad_check_params(
        lambda: T.mul(T.masked_softmax_attention(q, k, v, ctx.allowed, heads), weights).sum(), [q, k, v]
    )
    assert err < 1e-7


@pytest.mark.parametrize("summed", [False, True], ids=["ams", "hstu"])
def test_frozen_time_bias_gets_no_grad(summed):
    ctx = _padded_context(5, 6, seed=1)
    grads = {}
    for frozen in (False, True):
        q, k, v, alpha, beta = _operands(2, seed=30)
        for t in (q, k, v, *alpha, *beta):
            t.requires_grad = True
        for a in alpha:
            a.requires_grad = not frozen
        weights = Tensor(np.random.default_rng(5).normal(size=(2, 5, (1 if summed else 3) * 6)))
        with Tape() as tape:
            loss = _silu_loss(q, k, v, alpha, beta, ctx, summed, weights)
        T.backward(loss, tape)
        if frozen:
            assert all(a.grad is None for a in alpha)
        grads[frozen] = [t.grad for t in (q, k, v, *beta)]
    for unfrozen, frozen in zip(grads[False], grads[True]):
        np.testing.assert_array_equal(unfrozen, frozen)


def test_context_keeps_one_bool_mask_and_narrow_buckets():
    ctx = _padded_context(5, 6, seed=0)
    assert ctx.allowed.dtype == np.bool_
    assert ctx.bucket_idx.dtype == np.uint8
    assert not any(isinstance(value, Tensor) for value in vars(ctx).values())


def _step_batch(cfg: ModelConfig, b: int, seed: int = 0) -> SequenceBatch:
    rng = np.random.default_rng(seed)
    items = rng.integers(1, cfg.vocab, size=(b, cfg.n))
    ts = np.cumsum(rng.integers(1, 5000, size=(b, cfg.n)), axis=1)
    return SequenceBatch(items, ts, np.full(b, cfg.n))


@pytest.mark.parametrize("kind", M.VARIANT_KINDS)
def test_forward_tape_holds_no_n_by_n_array(kind):
    cfg = ModelConfig(vocab=20, d=4, d_h=3, heads=2, d_ffn=6, layers=2, n=7, n_buckets=8, negatives=3)
    params = M.init_params(cfg, kind, seed=0)
    with Tape() as tape:
        M.forward_hidden(_step_batch(cfg, 2), params, cfg)
    shapes = [out.shape for out, _ in tape._nodes]
    assert shapes and all(shape[-2:] != (cfg.n, cfg.n) for shape in shapes)


def test_desk_shaped_step_tape_length():
    # the ROADMAP desk config (d=50, 2 layers, N=128, ML-1M vocab) on two full
    # rows; the node count depends on layers and heads, not on the batch size
    cfg = ModelConfig(vocab=3707, n=200)
    params = M.init_params(cfg, "full", seed=0)
    batch = _step_batch(cfg, 2)
    targets = next_item_targets(batch)
    negs = next_item_negatives(targets, cfg, np.random.default_rng(0))
    with Tape() as tape:
        M.sampled_loss(M.forward_hidden(batch, params, cfg), params.item_emb, targets, negs)
    assert len(tape) == 57


def test_train_step_peak_memory_is_a_few_attention_maps():
    # tracemalloc counts numpy's allocations the same on every run, so this
    # bound does not depend on timing; holding the attention maps on the tape
    # took about 45 maps at this shape
    b = 4
    cfg = ModelConfig(vocab=64, d=16, d_h=16, d_ffn=32, n=256, n_buckets=32, negatives=8)
    params = M.init_params(cfg, "full", seed=0)
    batch = _step_batch(cfg, b)
    rng = np.random.default_rng(0)
    opt = AdamW(params.named(), TrainConfig())
    train_step(batch, params, cfg, opt, rng)  # first-step allocations (optimizer moments) stay out
    tracemalloc.start()
    try:
        train_step(batch, params, cfg, opt, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    attention_map = b * cfg.n * cfg.n * 8
    assert peak < 12 * attention_map, f"peak {peak / attention_map:.1f} [B, n, n] float64 arrays"
