"""The rank-only forward: query rows in the last block, histories at their own width."""

import numpy as np
import pytest
from conftest import random_batch, random_params, tiny_config

from fuxi_alpha import model as M
from fuxi_alpha import tensor as T
from fuxi_alpha.data import EvalInstance
from fuxi_alpha.evaluate import evaluate, rank_of_target
from fuxi_alpha.model import ModelConfig, SequenceBatch


def _history(rng, length: int, vocab: int):
    return rng.integers(1, vocab, size=length), np.cumsum(rng.integers(1, 40, size=length))


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("kind", M.VARIANT_KINDS)
def test_query_rows_match_the_all_rows_path(kind, heads, layers):
    cfg = tiny_config(vocab=11, n=6, d=4, d_h=3, heads=heads, layers=layers, n_buckets=8, max_time_span=200)
    params = random_params(cfg, kind, seed=heads + 3 * layers)
    rng = np.random.default_rng(layers)
    padded = random_batch(cfg, 5, seed=heads)  # rows of random valid length, the rest padding
    items, ts = _history(rng, 3 * cfg.n, cfg.vocab)
    long = SequenceBatch.from_sequences([items], [ts], cfg.n)  # a history longer than n, cut to its last n
    for batch in (padded, long):
        full = M.forward_hidden(batch, params, cfg).data  # packed: each sequence's valid rows in turn
        starts = np.cumsum(batch.valid_len) - batch.valid_len
        for rows in (batch.valid_len - 1, rng.integers(0, batch.valid_len)):  # random rows in each valid prefix
            picked = M.forward_hidden(batch, params, cfg, rows=rows).data
            assert picked.shape == (batch.size, cfg.d)
            np.testing.assert_allclose(picked, full[starts + rows], rtol=0, atol=1e-12)


def test_forward_hidden_rejects_rows_outside_the_batch():
    cfg = tiny_config()
    params = random_params(cfg)
    batch = SequenceBatch.from_sequences([[1, 2, 3, 4], [5, 6]], [[1, 2, 3, 4], [5, 6]], cfg.n)
    # [0, 2] names a row in the second sequence's padding
    for rows in ([-1, 0], [0, cfg.n], [0], [[0, 1]], [0, 2]):
        with pytest.raises(ValueError, match="rows"):
            M.forward_hidden(batch, params, cfg, rows=np.array(rows))


def _forward_last_logits(items, ts, params, cfg):
    """Catalog scores at the last event of a history, from forward() at the full width n."""
    batch = SequenceBatch.from_sequences([items], [ts], cfg.n)
    return M.forward(batch, params, cfg).data[0, batch.valid_len[0] - 1]


@pytest.mark.parametrize("kind", M.VARIANT_KINDS)
def test_predict_next_and_evaluate_match_forward_logits(kind):
    cfg = tiny_config(vocab=30, n=8, d=6, d_h=3, heads=2, d_ffn=8, n_buckets=8, max_time_span=300)
    params = random_params(cfg, kind, seed=4)
    rng = np.random.default_rng(5)
    instances = []
    for user, length in enumerate([1, 3, 8, 13, 5, 2, 20]):
        items, ts = _history(rng, length, cfg.vocab)
        instances.append(EvalInstance(user, items, ts, target=int(rng.integers(1, cfg.vocab))))
    expected_ranks = []
    for inst in instances:
        logits = _forward_last_logits(inst.items, inst.timestamps, params, cfg)
        ids = np.arange(1, cfg.vocab)
        top = ids[np.lexsort((ids, -logits[1:]))][:5].tolist()
        assert M.predict_next(inst.items, inst.timestamps, params, cfg, k=5) == top
        expected_ranks.append(rank_of_target(logits, inst.target, excluded=[0]))
    for batch_size in (1, 3, len(instances)):
        report = evaluate(params, instances, ks=[5], cfg=cfg, batch_size=batch_size)
        np.testing.assert_array_equal(report.ranks, expected_ranks)


def _spy(monkeypatch, owner, name, record):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("kind, op", [("full", "silu_attention"), ("vanilla", "masked_softmax_attention")])
def test_predict_next_runs_at_history_width_with_one_query_row(monkeypatch, kind, op):
    cfg = ModelConfig(vocab=40, d=8, d_h=8, d_ffn=16, layers=2, n=200, n_buckets=16, negatives=3)
    params = random_params(cfg, kind, seed=1)
    widths, shapes = [], []
    _spy(monkeypatch, M, "build_attn_context", lambda batch, cfg: widths.append(batch.items.shape))
    _spy(monkeypatch, T, op, lambda q, k, *rest: shapes.append((q.shape, k.shape)))
    items, ts = _history(np.random.default_rng(2), 10, cfg.vocab)
    M.predict_next(items, ts, params, cfg, k=3)
    assert widths == [(1, 10)]
    width = cfg.channel_width
    assert shapes == [((10, width), (10, width)), ((1, width), (10, width))]


def test_evaluate_pads_each_batch_to_its_longest_history(monkeypatch):
    cfg = tiny_config(vocab=20, n=12, layers=1)
    params = random_params(cfg, seed=3)
    rng = np.random.default_rng(3)
    instances = [EvalInstance(u, *_history(rng, length, cfg.vocab), target=1) for u, length in enumerate([2, 5, 30, 4])]
    widths = []
    _spy(monkeypatch, M, "build_attn_context", lambda batch, cfg: widths.append(batch.items.shape))
    evaluate(params, instances, ks=[5], cfg=cfg, batch_size=2)
    assert widths == [(2, 4), (2, 12)]  # chunked in order of length: [2, 4], then [5, 30]
