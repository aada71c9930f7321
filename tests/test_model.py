import math

import numpy as np
import pytest
from conftest import random_batch, random_params, reference_logits, tiny_config

from fuxi_alpha import model as M
from fuxi_alpha import tensor as T
from fuxi_alpha.model import ModelConfig, SequenceBatch, Tensor
from fuxi_alpha.tensor import Tape, backward
from fuxi_alpha.train import next_item_negatives, sample_negatives_batch


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def _silu(z):
    return z * _sigmoid(z)


# ModelConfig / SequenceBatch ------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ModelConfig(vocab=1)
    with pytest.raises(ValueError):
        ModelConfig(vocab=10, n_buckets=1, negatives=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab=10, negatives=0)
    ModelConfig(vocab=10, negatives=8)  # every item but the target
    with pytest.raises(ValueError, match="negatives=9"):
        ModelConfig(vocab=10, negatives=9)
    for name in ("time_bucket_base", "rms_eps"):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelConfig(vocab=10, negatives=4, **{name: math.nan})


def test_batch_invariants_enforced():
    with pytest.raises(ValueError):  # item in padding region
        SequenceBatch(np.array([[1, 2, 3]]), np.array([[1, 2, 3]]), np.array([2]))
    with pytest.raises(ValueError):  # decreasing timestamps on the prefix
        SequenceBatch(np.array([[1, 2, 0]]), np.array([[5, 3, 0]]), np.array([2]))
    with pytest.raises(ValueError):  # nonzero padding timestamp
        SequenceBatch(np.array([[1, 0, 0]]), np.array([[5, 7, 0]]), np.array([1]))
    with pytest.raises(ValueError, match="2 items but 3 timestamps"):
        SequenceBatch.from_sequences([[3, 4]], [[10, 20, 30]], 4)
    with pytest.raises(ValueError, match="3 items but 2 timestamps"):
        SequenceBatch.from_sequences([[3, 4, 5]], [[10, 20]], 4)
    with pytest.raises(ValueError, match="2 item sequences but 1 timestamp"):
        SequenceBatch.from_sequences([[3], [4]], [[10]], 4)


def test_batch_names_a_negative_item_and_where_it_is():
    with pytest.raises(ValueError, match="negative item id -2 in row 1 at position 1"):
        SequenceBatch.from_sequences([[3], [1, -2]], [[5], [1, 2]], 3)


def test_batch_rejects_a_valid_len_outside_its_width():
    # a length past the width would claim more packed rows than the row holds
    with pytest.raises(ValueError, match=r"valid_len 5 of row 0 is outside \[0, 3\]"):
        SequenceBatch(np.array([[1, 2, 3], [4, 5, 0]]), np.array([[1, 2, 3], [4, 5, 0]]), np.array([5, 2]))
    with pytest.raises(ValueError, match=r"valid_len -1 of row 1 is outside \[0, 3\]"):
        SequenceBatch(np.array([[1, 2, 3], [0, 0, 0]]), np.array([[1, 2, 3], [0, 0, 0]]), np.array([3, -1]))


def test_batch_rejects_a_width_below_one():
    with pytest.raises(ValueError, match="n=0"):
        SequenceBatch.from_sequences([[1, 2]], [[1, 2]], 0)


# embed_sequence ---------------------------------------------------------------


def test_embed_all_padding_rows_are_zero():
    cfg = tiny_config()
    params = random_params(cfg)
    batch = SequenceBatch(
        np.array([[1, 2, 0, 0], [0, 0, 0, 0]]),
        np.array([[3, 9, 0, 0], [0, 0, 0, 0]]),
        np.array([2, 0]),
    )
    out = M.embed_sequence(batch, params, cfg).data
    # packed: the padding of either row has no row at all, so only the two valid positions remain
    expected = params.item_emb.data[[1, 2]] + params.pos_emb.data[[0, 1]]
    np.testing.assert_array_equal(out, expected)


def test_embed_first_row_is_item_plus_position():
    cfg = tiny_config()
    params = random_params(cfg)
    batch = SequenceBatch(
        np.array([[3, 0, 0, 0]]), np.array([[7, 0, 0, 0]]), np.array([1])
    )
    out = M.embed_sequence(batch, params, cfg).data
    expected = params.item_emb.data[3] + params.pos_emb.data[0]
    np.testing.assert_array_equal(out[0], expected)


def test_embed_matches_table_lookup_oracle():
    cfg = tiny_config(n=3)
    params = random_params(cfg)
    items = np.array([[2, 5, 0], [4, 1, 6]])
    ts = np.array([[1, 4, 0], [2, 2, 9]])
    lens = np.array([2, 3])
    out = M.embed_sequence(SequenceBatch(items, ts, lens), params, cfg).data
    assert out.shape == (lens.sum(), cfg.d)  # one packed row per valid position, none for padding
    row = 0
    for b in range(2):
        for j in range(lens[b]):
            expected = params.item_emb.data[items[b, j]] + params.pos_emb.data[j]
            np.testing.assert_array_equal(out[row], expected)
            row += 1


def test_embed_rejects_out_of_range_id():
    cfg = tiny_config()
    params = random_params(cfg)
    batch = SequenceBatch(
        np.array([[cfg.vocab, 0, 0, 0]]), np.array([[1, 0, 0, 0]]), np.array([1])
    )
    with pytest.raises(ValueError):
        M.embed_sequence(batch, params, cfg)


# relative_time_bucket -----------------------------------------------------------


def test_bucket_zero_and_clamp():
    cfg = tiny_config(n_buckets=8, max_time_span=256)
    assert M.relative_time_bucket(0, cfg) == 0
    assert M.relative_time_bucket(256, cfg) == 7
    assert M.relative_time_bucket(99_999, cfg) == 7


def test_bucket_exact_region():
    cfg = tiny_config(n_buckets=8, max_time_span=256)
    assert M.relative_time_bucket(3, cfg) == 3


def test_bucket_monotone_and_in_range():
    cfg = tiny_config(n_buckets=16, max_time_span=10_000)
    deltas = np.arange(0, 12_000, 7)
    buckets = M.bucket_indices(deltas, cfg)
    assert np.all(np.diff(buckets) >= 0)
    assert buckets.min() == 0 and buckets.max() == 15


def test_bucket_rejects_negative():
    with pytest.raises(ValueError):
        M.relative_time_bucket(-1, tiny_config())


@pytest.mark.parametrize("delta_t", [math.nan, math.inf, -math.inf])
def test_bucket_rejects_non_finite(delta_t):
    with pytest.raises(ValueError, match=f"got {delta_t}"):
        M.relative_time_bucket(delta_t, tiny_config())


@pytest.mark.parametrize(
    "deltas, first",
    [([math.nan, math.inf, 5.0], "nan"), ([2.0, math.inf, -1.0], "inf"), ([-3.0], "-3.0"), ([[0, 5], [-2, -7]], "-2")],
    ids=["nan", "inf", "negative", "int-grid"],
)
def test_bucket_indices_name_the_first_invalid_difference(deltas, first):
    # an invalid difference would become a negative bucket id, which the
    # attention op's clipped gather would read as bucket 0
    with pytest.raises(ValueError, match=f"got {first}$"):
        M.bucket_indices(np.array(deltas), tiny_config())


def test_bucket_base_rescales_units():
    # with a 60-second unit, minutes (not seconds) land in the exact region
    cfg = tiny_config(n_buckets=8, time_bucket_base=60.0, max_time_span=60 * 256)
    assert M.relative_time_bucket(0, cfg) == 0
    assert M.relative_time_bucket(59, cfg) == 0
    assert M.relative_time_bucket(3 * 60, cfg) == 3
    assert M.relative_time_bucket(60 * 256, cfg) == 7
    deltas = np.arange(0, 60 * 300, 37)
    buckets = M.bucket_indices(deltas, cfg)
    assert np.all(np.diff(buckets) >= 0)


# ams_attention ------------------------------------------------------------------


def _ams(x, batch, layer, cfg):
    return M.ams_attention(x, M.build_attn_context(batch, cfg), layer, cfg)


def _ams_channels(x, batch, layer, cfg):
    xt = T.rms_norm(x, layer.attn_gain, cfg.rms_eps)
    out = M.channel_outputs(xt, M.build_attn_context(batch, cfg), layer, cfg, summed=False)
    return np.split(out.data, 3, axis=-1)


def test_ams_zero_input_gives_zero_output():
    cfg = tiny_config()
    params = random_params(cfg)
    batch = random_batch(cfg, 2, seed=1)
    x = Tensor(np.zeros((batch.valid_len.sum(), cfg.d)))
    out = _ams(x, batch, params.blocks[0], cfg)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_ams_scalar_transcription():
    # One head, one-dimensional everything: transcribe the channel equations
    # with plain floats and compare.
    cfg = ModelConfig(
        vocab=4, d=1, d_h=1, heads=1, d_ffn=1, layers=1, n=2,
        n_buckets=4, negatives=1, time_bucket_base=1.0, max_time_span=16,
    )
    params = M.init_params(cfg, "full", seed=0)
    blk = params.blocks[0]
    params.item_emb.data = np.array([[0.0], [0.8], [-0.5], [0.3]])
    params.pos_emb.data = np.array([[0.1], [-0.2]])
    blk.w_q.data = np.array([[0.7]])
    blk.w_k.data = np.array([[-0.4]])
    blk.w_v.data = np.array([[1.1]])
    blk.w_u.data = np.array([[0.5, -0.3, 0.8]])
    blk.attn_gain.data = np.array([1.2])
    blk.alpha[0].data = np.array([0.2, -0.1, 0.4, 0.3])
    blk.beta[0].data = np.array([0.6, -0.7])

    batch = SequenceBatch(np.array([[1, 2]]), np.array([[5, 9]]), np.array([2]))
    x = M.embed_sequence(batch, params, cfg)
    out = _ams(x, batch, blk, cfg).data

    eps = cfg.rms_eps
    x0, x1 = 0.8 + 0.1, -0.5 - 0.2
    xt = [xi / math.sqrt(xi * xi + eps) * 1.2 for xi in (x0, x1)]
    q = [_silu(v * 0.7) for v in xt]
    k = [_silu(v * -0.4) for v in xt]
    v = [_silu(v * 1.1) for v in xt]
    # causal lower triangle; bucket(0) = 0, bucket(4) = 2 for n_buckets=4, span 16
    sem = [[_silu(q[0] * k[0]) / 2, 0.0], [_silu(q[1] * k[0]) / 2, _silu(q[1] * k[1]) / 2]]
    tmp = [[0.2, 0.0], [0.4, 0.2]]
    posw = [[0.6, 0.0], [-0.7, 0.6]]
    for i in range(2):
        sem_o = sum(sem[i][j] * v[j] for j in range(2))
        pos_o = sum(posw[i][j] * v[j] for j in range(2))
        tmp_o = sum(tmp[i][j] * v[j] for j in range(2))
        c = np.array([sem_o, pos_o, tmp_o])
        cn = c / math.sqrt(np.mean(c * c) + eps)
        gate = np.array([_silu(xt[i] * 0.5), _silu(xt[i] * -0.3), _silu(xt[i] * 0.8)])
        np.testing.assert_allclose(out[i], cn * gate, atol=1e-12)


def test_ams_causal_bitwise():
    cfg = tiny_config(vocab=9, n=5)
    params = random_params(cfg, seed=3)
    items_a = np.array([[2, 4, 1, 3, 8]])
    items_b = np.array([[2, 4, 1, 7, 5]])  # differs only after position 2
    ts = np.array([[1, 5, 9, 12, 20]])
    lens = np.array([5])
    xa = M.embed_sequence(SequenceBatch(items_a, ts, lens), params, cfg)
    xb = M.embed_sequence(SequenceBatch(items_b, ts, lens), params, cfg)
    out_a = _ams(xa, SequenceBatch(items_a, ts, lens), params.blocks[0], cfg).data
    out_b = _ams(xb, SequenceBatch(items_b, ts, lens), params.blocks[0], cfg).data
    np.testing.assert_array_equal(out_a[:3], out_b[:3])


# mffn ---------------------------------------------------------------------------


def test_mffn_zero_weights_pass_residual_through():
    cfg = tiny_config()
    params = M.init_params(cfg, "full", seed=0)
    blk = params.blocks[0]
    for t in (blk.w_o, blk.w_1, blk.w_2, blk.w_3):
        t.data[:] = 0.0
    rng = np.random.default_rng(0)
    x_prev = Tensor(rng.normal(size=(2, cfg.n, cfg.d)))
    h = Tensor(rng.normal(size=(2, cfg.n, 3 * cfg.channel_width)))
    out = M.mffn(h, x_prev, blk, cfg)
    np.testing.assert_array_equal(out.data, x_prev.data)


def test_mffn_output_shape():
    cfg = tiny_config()
    params = random_params(cfg)
    rng = np.random.default_rng(1)
    h = Tensor(rng.normal(size=(3, cfg.n, 3 * cfg.channel_width)))
    x_prev = Tensor(rng.normal(size=(3, cfg.n, cfg.d)))
    assert M.mffn(h, x_prev, params.blocks[0], cfg).shape == (3, cfg.n, cfg.d)


def test_mffn_scalar_transcription():
    cfg = ModelConfig(
        vocab=4, d=1, d_h=1, heads=1, d_ffn=1, layers=1, n=2,
        n_buckets=4, negatives=1,
    )
    params = M.init_params(cfg, "full", seed=0)
    blk = params.blocks[0]
    blk.w_o.data = np.array([[0.9], [-0.6], [0.4]])
    blk.ffn_gain.data = np.array([0.7])
    blk.w_1.data = np.array([[1.3]])
    blk.w_2.data = np.array([[-0.8]])
    blk.w_3.data = np.array([[0.55]])
    h = Tensor(np.array([[[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]]]))
    x_prev = Tensor(np.array([[[0.25], [-0.45]]]))
    out = M.mffn(h, x_prev, blk, cfg).data[0]
    eps = cfg.rms_eps
    for i in range(2):
        o = float(h.data[0, i] @ np.array([0.9, -0.6, 0.4])) + float(x_prev.data[0, i, 0])
        on = o / math.sqrt(o * o + eps) * 0.7
        f = _silu(on * 1.3) * (on * -0.8) * 0.55
        np.testing.assert_allclose(out[i, 0], f + o, atol=1e-12)


# forward -------------------------------------------------------------------------


def test_forward_no_blocks_is_embedding_times_emb_transpose():
    cfg = tiny_config(layers=0)
    params = random_params(cfg)
    batch = random_batch(cfg, 3, seed=5)
    logits = M.forward(batch, params, cfg).data
    x0 = M.embed_sequence(batch, params, cfg).data
    np.testing.assert_array_equal(logits[batch.valid], x0 @ params.item_emb.data.T)
    np.testing.assert_array_equal(logits[~batch.valid], 0.0)


def test_forward_causal_bitwise():
    cfg = tiny_config(vocab=9, n=5, layers=2)
    params = random_params(cfg, seed=2)
    ts = np.array([[2, 4, 9, 11, 30]])
    a = SequenceBatch(np.array([[3, 1, 4, 2, 6]]), ts, np.array([5]))
    b = SequenceBatch(np.array([[3, 1, 4, 8, 1]]), ts, np.array([5]))
    la = M.forward(a, params, cfg).data
    lb = M.forward(b, params, cfg).data
    np.testing.assert_array_equal(la[0, :3], lb[0, :3])


def test_forward_matches_loop_transcription():
    cfg = ModelConfig(
        vocab=5, d=2, d_h=2, heads=1, d_ffn=3, layers=1, n=3,
        n_buckets=6, negatives=1, max_time_span=500,
    )
    params = random_params(cfg, seed=9)
    items = np.array([[2, 4, 1]])
    ts = np.array([[3, 8, 40]])
    batch = SequenceBatch(items, ts, np.array([3]))
    got = M.forward(batch, params, cfg).data[0]
    expected = reference_logits(items[0], ts[0], 3, params, cfg)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_forward_multilayer_matches_loop_transcription():
    cfg = tiny_config(layers=3, n=4, vocab=8)
    params = random_params(cfg, seed=11)
    batch = random_batch(cfg, 1, seed=12)
    length = int(batch.valid_len[0])
    got = M.forward(batch, params, cfg).data[0]
    expected = reference_logits(batch.items[0], batch.timestamps[0], length, params, cfg)
    np.testing.assert_allclose(got[:length], expected[:length], atol=1e-9)


def test_forward_multihead_shapes_and_causality():
    cfg = tiny_config(heads=2, d_h=3, n=5, vocab=9)
    params = random_params(cfg, seed=4)
    ts = np.array([[1, 2, 3, 4, 5]])
    a = SequenceBatch(np.array([[1, 2, 3, 4, 5]]), ts, np.array([5]))
    b = SequenceBatch(np.array([[1, 2, 3, 7, 8]]), ts, np.array([5]))
    la = M.forward(a, params, cfg).data
    assert la.shape == (1, 5, 9)
    lb = M.forward(b, params, cfg).data
    np.testing.assert_array_equal(la[0, :3], lb[0, :3])


def test_forward_multihead_matches_loop_transcription():
    cfg = tiny_config(heads=3, d_h=2, n=5, vocab=9, layers=2, d=6, d_ffn=7)
    params = random_params(cfg, seed=15)
    batch = random_batch(cfg, 1, seed=16)
    length = int(batch.valid_len[0])
    got = M.forward(batch, params, cfg).data[0]
    expected = reference_logits(batch.items[0], batch.timestamps[0], length, params, cfg)
    np.testing.assert_allclose(got[:length], expected[:length], atol=1e-9)


def test_grad_check_multihead_attention():
    cfg = tiny_config(heads=2, d_h=3, n=4, vocab=6, layers=1, d=4, d_ffn=5)
    params = random_params(cfg, seed=17)
    batch = random_batch(cfg, 1, seed=18)

    def loss_fn():
        return M.forward(batch, params, cfg).sum()

    err = T.grad_check_params(loss_fn, params.tensors(), fd_step=1e-5)
    assert err < 1e-4


def test_padding_neutrality_wider_batch_same_logits():
    cfg = tiny_config(n=6, vocab=9)
    params = random_params(cfg, seed=6)
    items = [3, 1, 4, 2]
    ts = [2, 5, 9, 40]
    narrow = SequenceBatch(
        np.array([items]), np.array([ts]), np.array([4])
    )
    wide = SequenceBatch(
        np.array([items + [0, 0]]), np.array([ts + [0, 0]]), np.array([4])
    )
    ln = M.forward(narrow, params, cfg).data
    lw = M.forward(wide, params, cfg).data
    np.testing.assert_array_equal(ln[0, :4], lw[0, :4])


def test_channel_separation():
    cfg = tiny_config(n=5, vocab=9)
    batch = random_batch(cfg, 2, seed=8)

    base = random_params(cfg, seed=8)
    x = M.embed_sequence(batch, base, cfg)
    sem0, pos0, tmp0 = _ams_channels(x, batch, base.blocks[0], cfg)

    # zeroing the temporal/positional biases must not touch the semantic channel
    zeroed = random_params(cfg, seed=8)
    zeroed.blocks[0].alpha[0].data[:] = 0.0
    zeroed.blocks[0].beta[0].data[:] = 0.0
    sem1, pos1, tmp1 = _ams_channels(x, batch, zeroed.blocks[0], cfg)
    np.testing.assert_array_equal(sem0, sem1)
    np.testing.assert_array_equal(pos1, np.zeros_like(pos1))
    np.testing.assert_array_equal(tmp1, np.zeros_like(tmp1))

    # zeroing q/k projections must not touch the bias-driven channels
    blind = random_params(cfg, seed=8)
    blind.blocks[0].w_q.data[:] = 0.0
    blind.blocks[0].w_k.data[:] = 0.0
    _, pos2, tmp2 = _ams_channels(x, batch, blind.blocks[0], cfg)
    np.testing.assert_array_equal(pos0, pos2)
    np.testing.assert_array_equal(tmp0, tmp2)


def test_semantic_scale_factor_is_configured_length():
    # Same single valid position under n=2 and n=4 configs: the semantic
    # channel output must scale exactly as 1/n.
    cfg4 = tiny_config(n=4, vocab=5)
    donor = random_params(cfg4, seed=10)
    out = {}
    for n in (2, 4):
        cfg = tiny_config(n=n, vocab=5)
        params = M.init_params(cfg, "full", seed=10)
        for (_, dst), (_, src) in zip(params.named(), donor.named()):
            dst.data = src.data[: dst.data.shape[0]].copy() if dst.data.ndim else src.data.copy()
        batch = SequenceBatch(
            np.array([[2] + [0] * (n - 1)]), np.array([[7] + [0] * (n - 1)]), np.array([1])
        )
        x = M.embed_sequence(batch, params, cfg)
        sem, _, _ = _ams_channels(x, batch, params.blocks[0], cfg)
        out[n] = sem[0]
    np.testing.assert_array_equal(out[2] * 2.0, out[4] * 4.0)


# sampled softmax loss --------------------------------------------------------------


def test_loss_equal_scores_closed_form():
    for n_neg in (1, 4, 128):
        pos = Tensor(np.full((6, 1), 0.37))
        neg = Tensor(np.full((6, n_neg), 0.37))
        loss = M.sampled_softmax_loss(pos, neg)
        assert abs(loss.item() - math.log(n_neg + 1)) < 1e-12


def test_loss_dominant_positive_approaches_zero():
    pos = Tensor(np.full((2, 1), 50.0))
    neg = Tensor(np.zeros((2, 5)))
    loss = M.sampled_softmax_loss(pos, neg)
    assert loss.item() < 1e-10


def test_loss_rejects_no_positions_and_no_negatives():
    with pytest.raises(ValueError):
        M.sampled_softmax_loss(Tensor(np.zeros((0, 1))), Tensor(np.zeros((0, 3))))
    with pytest.raises(ValueError):
        M.sampled_softmax_loss(Tensor(np.zeros((2, 1))), Tensor(np.zeros((2, 0))))


def test_padding_never_reaches_the_loss_head():
    # packed rows without a target (target 0) added after each sequence's
    # rows, with large hidden values there, leave the loss and the gradients
    # bitwise unchanged
    rng = np.random.default_rng(5)
    b, n, d, vocab, pad = 3, 6, 4, 30, 4
    item_emb = Tensor(rng.normal(size=(vocab, d)), requires_grad=True)
    hidden = rng.normal(size=(b, n, d))
    targets = rng.integers(1, vocab, size=(b, n))
    targets[1, 2:] = 0
    targets[:, -1] = 0
    negs = sample_negatives_batch(targets[targets > 0], 7, vocab, rng)
    padded_hidden = np.concatenate([hidden, rng.normal(0.0, 1e3, size=(b, pad, d))], axis=1)
    padded_targets = np.concatenate([targets, np.zeros((b, pad), dtype=np.int64)], axis=1)
    kept = np.arange(n + pad)[None, :].repeat(b, axis=0).reshape(-1) < n  # packed rows of the unpadded input
    runs = []
    for h, t in ((hidden, targets), (padded_hidden, padded_targets)):
        h = Tensor(h.reshape(-1, d), requires_grad=True)
        with Tape() as tape:
            loss = M.sampled_loss(h, item_emb, t.reshape(-1), negs)
        backward(loss, tape)
        runs.append((loss.item(), item_emb.grad, h.grad))
        item_emb.grad = None
    (loss, emb_grad, h_grad), (padded_loss, padded_emb_grad, padded_h_grad) = runs
    assert padded_loss == loss
    np.testing.assert_array_equal(padded_emb_grad, emb_grad)
    np.testing.assert_array_equal(padded_h_grad[kept], h_grad)
    assert not padded_h_grad[~kept].any() and not h_grad[targets.reshape(-1) == 0].any()


# predict_next -----------------------------------------------------------------------


def test_predict_full_k_is_permutation():
    cfg = tiny_config(vocab=8)
    params = random_params(cfg, seed=1)
    ranked = M.predict_next([2, 5], [3, 9], params, cfg, k=7)
    assert sorted(ranked) == list(range(1, 8))


def test_predict_dominant_item_ranks_first():
    cfg = tiny_config(vocab=6, d=2, layers=0)
    params = M.init_params(cfg, "full", seed=0)
    params.pos_emb.data[:] = 0.0
    e = np.zeros((6, 2))
    e[1] = [1.0, 0.0]
    e[2] = [0.1, 0.2]
    e[3] = [5.0, 0.0]  # strongly aligned with item 1's embedding
    e[4] = [-1.0, 0.3]
    e[5] = [0.4, -0.2]
    params.item_emb.data = e
    assert M.predict_next([1], [5], params, cfg, k=1) == [3]


def test_predict_matches_argsort_of_forward_logits():
    cfg = tiny_config(vocab=5, n=3, d=2, d_h=2, d_ffn=3, layers=1, n_buckets=6)
    params = random_params(cfg, seed=9)
    items, ts = [2, 4, 1], [3, 8, 40]
    batch = SequenceBatch(np.array([items]), np.array([ts]), np.array([3]))
    logits = M.forward(batch, params, cfg).data[0, 2, 1:]
    expected = list(1 + np.lexsort((np.arange(1, 5), -logits)))[:3]
    assert M.predict_next(items, ts, params, cfg, k=3) == expected


def test_predict_breaks_ties_by_ascending_id():
    cfg = tiny_config(vocab=6, d=2, layers=0)
    params = M.init_params(cfg, "full", seed=0)
    params.pos_emb.data[:] = 0.0
    e = np.zeros((6, 2))
    e[1] = [1.0, 0.0]
    for i in range(2, 6):
        e[i] = [0.5, 0.0]  # all tie
    params.item_emb.data = e
    assert M.predict_next([1], [5], params, cfg, k=5) == [1, 2, 3, 4, 5]


def test_predict_top_k_matches_a_full_sort():
    # duplicate embedding rows put ties across the k-th score; inf and NaN
    # rows give non-finite scores, a NaN sorting after every number
    cfg = tiny_config(vocab=12, d=2, layers=0)
    params = M.init_params(cfg, "full", seed=0)
    params.pos_emb.data[:] = 0.0
    e = np.random.default_rng(3).normal(size=(12, 2))
    e[[4, 7, 9]] = e[2]
    e[[5, 11]] = e[8]
    for rows in ([], [3], [3, 6, 10]):
        rows_e = e.copy()
        rows_e[rows[:1]] = [np.inf, 0.0]
        rows_e[rows[1:]] = np.nan
        params.item_emb.data = rows_e
        hidden = M.forward_hidden(SequenceBatch(np.array([[1]]), np.array([[5]]), np.array([1])), params, cfg).data[0]
        scores = rows_e[1:] @ hidden
        ids = np.arange(1, cfg.vocab)
        full = ids[np.lexsort((ids, -scores))].tolist()
        for k in range(1, cfg.vocab):
            assert M.predict_next([1], [5], params, cfg, k=k) == full[:k]


def test_predict_rejects_empty_history():
    cfg = tiny_config()
    params = random_params(cfg)
    with pytest.raises(ValueError):
        M.predict_next([], [], params, cfg, k=1)
    with pytest.raises(ValueError, match="timestamps"):
        M.predict_next([3, 4], [10, 20, 30], params, cfg, k=1)


def test_predict_truncates_long_history_to_most_recent():
    cfg = tiny_config(vocab=8, n=4)
    params = random_params(cfg, seed=19)
    rng = np.random.default_rng(20)
    items = rng.integers(1, 8, size=11).tolist()
    ts = np.cumsum(rng.integers(1, 30, size=11)).tolist()
    long_rank = M.predict_next(items, ts, params, cfg, k=7)
    short_rank = M.predict_next(items[-4:], ts[-4:], params, cfg, k=7)
    assert long_rank == short_rank


def test_predict_consistent_with_rank_of_target():
    from fuxi_alpha.evaluate import rank_of_target

    cfg = tiny_config(vocab=9, n=5)
    params = random_params(cfg, seed=21)
    items, ts = [2, 7, 4], [3, 9, 30]
    ranking = M.predict_next(items, ts, params, cfg, k=8)
    batch = SequenceBatch(
        np.array([items + [0, 0]]), np.array([ts + [0, 0]]), np.array([3])
    )
    logits = M.forward(batch, params, cfg).data[0, 2]
    for position, item in enumerate(ranking, start=1):
        assert rank_of_target(logits, item, excluded=[0]) == position


# param_count --------------------------------------------------------------------------


def test_param_count_no_blocks():
    cfg = tiny_config(layers=0)
    assert M.param_count(cfg) == cfg.vocab * cfg.d + cfg.n * cfg.d


def test_param_count_matches_allocation():
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        cfg = ModelConfig(
            vocab=int(rng.integers(3, 40)),
            d=int(rng.integers(1, 9)),
            d_h=int(rng.integers(1, 7)),
            heads=int(rng.integers(1, 4)),
            d_ffn=int(rng.integers(1, 12)),
            layers=int(rng.integers(0, 4)),
            n=int(rng.integers(2, 12)),
            n_buckets=int(rng.integers(2, 20)),
            negatives=1,
        )
        params = M.init_params(cfg, "full", seed=seed)
        assert M.param_count(cfg) == M.count_params(params)


def test_param_count_linear_in_layers():
    base = tiny_config(layers=1)
    doubled = tiny_config(layers=2)
    emb = base.vocab * base.d + base.n * base.d
    assert M.param_count(doubled) - emb == 2 * (M.param_count(base) - emb)


# gradient through the whole model ----------------------------------------------------


def test_grad_check_through_tiny_model():
    cfg = tiny_config()
    params = random_params(cfg, seed=0)
    batch = random_batch(cfg, 2, seed=0)
    targets = ((batch.items % (cfg.vocab - 1)) + 1)[batch.valid]  # packed, as next_item_targets
    negs = next_item_negatives(targets, cfg, np.random.default_rng(0))

    def loss_fn():
        return M.sampled_loss(M.forward_hidden(batch, params, cfg), params.item_emb, targets, negs)

    err = T.grad_check_params(loss_fn, params.tensors(), fd_step=1e-5)
    assert err < 1e-4
