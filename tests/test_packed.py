"""The packed layout: activations exist only at valid positions, so padding is invisible."""

import numpy as np
import pytest
from conftest import random_batch, random_params, tiny_config

from fuxi_alpha import model as M
from fuxi_alpha.model import SequenceBatch
from fuxi_alpha.tensor import Tape, backward
from fuxi_alpha.train import next_item_negatives, next_item_targets

WIDTH, EXTRA = 7, 5


def _widened(batch: SequenceBatch, extra: int) -> SequenceBatch:
    """The same sequences with `extra` more padding columns."""
    pad = np.zeros((batch.size, extra), dtype=np.int64)
    return SequenceBatch(np.hstack([batch.items, pad]), np.hstack([batch.timestamps, pad]), batch.valid_len)


def _loss_and_grads(batch, params, cfg):
    targets = next_item_targets(batch)
    negs = next_item_negatives(targets, cfg, np.random.default_rng(0))
    with Tape() as tape:
        loss = M.sampled_loss(M.forward_hidden(batch, params, cfg), params.item_emb, targets, negs)
    backward(loss, tape)
    grads = {name: t.grad for name, t in params.named()}
    for t in params.tensors():
        t.grad = None
    return loss.item(), grads


def _assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("kind", M.VARIANT_KINDS)
def test_padding_is_invisible(kind, heads):
    cfg = tiny_config(vocab=13, n=WIDTH + EXTRA, d=6, d_h=3, heads=heads, d_ffn=7, max_time_span=300)
    params = random_params(cfg, kind, seed=heads)
    narrow = random_batch(cfg, 5, seed=heads, width=WIDTH)
    wide = _widened(narrow, EXTRA)

    loss, grads = _loss_and_grads(narrow, params, cfg)
    wide_loss, wide_grads = _loss_and_grads(wide, params, cfg)
    assert abs(wide_loss - loss) <= 1e-12 * abs(loss)
    for name, g in grads.items():
        _assert_close(wide_grads[name], g)

    # the ranked rows are the matching rows of the packed all-rows result
    hidden = M.forward_hidden(wide, params, cfg).data
    assert hidden.shape == (narrow.valid_len.sum(), cfg.d)
    last = M.forward_hidden(wide, params, cfg, rows=wide.valid_len - 1).data
    _assert_close(last, hidden[np.cumsum(wide.valid_len) - 1])


@pytest.mark.parametrize("kind", M.VARIANT_KINDS)
def test_forward_is_zero_at_padding(kind):
    cfg = tiny_config(vocab=13, n=9, heads=2, d_h=2, max_time_span=300)
    params = random_params(cfg, kind, seed=4)
    batch = random_batch(cfg, 4, seed=5)
    assert not batch.valid.all()
    logits = M.forward(batch, params, cfg).data
    assert logits.shape == (4, cfg.n, cfg.vocab)
    np.testing.assert_array_equal(logits[~batch.valid], 0.0)
    hidden = M.forward_hidden(batch, params, cfg).data
    np.testing.assert_array_equal(logits[batch.valid], (hidden @ params.item_emb.data.T))


def test_next_item_targets_are_packed():
    items = np.array([[3, 5, 7, 0], [2, 9, 4, 1], [8, 0, 0, 0]])
    batch = SequenceBatch(items, np.where(items > 0, 1, 0), (items > 0).sum(axis=1))
    targets = next_item_targets(batch)
    # one entry per valid position, 0 at each sequence's last one
    assert targets.tolist() == [5, 7, 0, 9, 4, 1, 0, 0]
