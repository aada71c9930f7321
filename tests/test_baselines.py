import math

import numpy as np
import pytest
from conftest import random_batch, random_params, tiny_config

from fuxi_alpha import model as M
from fuxi_alpha import tensor as T
from fuxi_alpha.config import ConfigError, resolve_config
from fuxi_alpha.model import ModelConfig, SequenceBatch, Tensor


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def _silu(z):
    return z * _sigmoid(z)


def _block(apply, x, batch, layer, cfg):
    return apply(x, M.build_attn_context(batch, cfg), layer, cfg)


def test_variant_spec_is_closed_enum():
    assert set(M.VARIANT_KINDS) == set(M.VARIANTS) == set(M.BLOCK_APPLIERS)
    for kind in M.VARIANT_KINDS:
        assert M.init_params(tiny_config(), kind).kind == kind
        assert resolve_config({"model": {"variant": kind}})["model"]["variant"] == kind
    with pytest.raises(ValueError):
        M.init_params(tiny_config(), "mystery")
    with pytest.raises(ConfigError):
        resolve_config({}, ["model.variant=mystery"])


def test_full_variant_forward_identical_to_model():
    cfg = tiny_config()
    batch = random_batch(cfg, 3, seed=2)
    params = M.init_params(cfg, "full", seed=5)
    ctx = M.build_attn_context(batch, cfg)
    x = M.embed_sequence(batch, params, cfg)
    for blk in params.blocks:
        x = M.mffn(M.ams_attention(x, ctx, blk, cfg), x, blk, cfg)
    np.testing.assert_array_equal(M.forward_hidden(batch, params, cfg).data, x.data)


def test_vanilla_zero_weights_pass_input_through():
    cfg = tiny_config()
    params = M.init_params(cfg, "vanilla", seed=0)
    blk = params.blocks[0]
    for t in (blk.w_o, blk.w_1, blk.w_2):
        t.data[:] = 0.0
    batch = random_batch(cfg, 2, seed=3)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(batch.valid_len.sum(), cfg.d)))
    out = _block(M.BLOCK_APPLIERS["vanilla"], x, batch, blk, cfg)
    np.testing.assert_array_equal(out.data, x.data)


def test_vanilla_causal_bitwise():
    cfg = tiny_config(vocab=9, n=5, layers=1)
    params = random_params(cfg, kind="vanilla", seed=4)
    ts = np.array([[1, 3, 6, 9, 12]])
    a = SequenceBatch(np.array([[2, 7, 1, 3, 4]]), ts, np.array([5]))
    b = SequenceBatch(np.array([[2, 7, 1, 8, 6]]), ts, np.array([5]))
    la = M.forward(a, params, cfg).data
    lb = M.forward(b, params, cfg).data
    np.testing.assert_array_equal(la[0, :3], lb[0, :3])


def test_vanilla_scalar_transcription():
    cfg = ModelConfig(
        vocab=4, d=1, d_h=1, heads=1, d_ffn=1, layers=1, n=2,
        n_buckets=4, negatives=1,
    )
    params = M.init_params(cfg, "vanilla", seed=0)
    blk = params.blocks[0]
    blk.w_q.data = np.array([[0.7]])
    blk.w_k.data = np.array([[-0.4]])
    blk.w_v.data = np.array([[1.1]])
    blk.w_o.data = np.array([[0.9]])
    blk.attn_gain.data = np.array([1.2])
    blk.ffn_gain.data = np.array([0.7])
    blk.w_1.data = np.array([[1.3]])
    blk.w_2.data = np.array([[-0.8]])
    batch = SequenceBatch(np.array([[1, 2]]), np.array([[5, 9]]), np.array([2]))
    x = Tensor(np.array([[0.9], [-0.7]]))
    out = _block(M.BLOCK_APPLIERS["vanilla"], x, batch, blk, cfg).data

    eps = cfg.rms_eps
    xt = [xi / math.sqrt(xi * xi + eps) * 1.2 for xi in (0.9, -0.7)]
    q = [v * 0.7 for v in xt]
    k = [v * -0.4 for v in xt]
    v = [v * 1.1 for v in xt]
    # row 0 attends only to itself; row 1 softmaxes over both positions
    s10, s11 = q[1] * k[0], q[1] * k[1]
    m = max(s10, s11)
    w10 = math.exp(s10 - m) / (math.exp(s10 - m) + math.exp(s11 - m))
    attn = [v[0], w10 * v[0] + (1 - w10) * v[1]]
    for i, (xi, a) in enumerate(zip((0.9, -0.7), attn)):
        o = a * 0.9 + xi
        on = o / math.sqrt(o * o + eps) * 0.7
        f = max(on * 1.3, 0.0) * -0.8
        np.testing.assert_allclose(out[i, 0], f + o, atol=1e-12)


def test_hstu_reduces_to_semantic_channel_when_biases_zero():
    cfg = tiny_config(n=5, vocab=9)
    batch = random_batch(cfg, 2, seed=7)
    hstu = random_params(cfg, kind="hstu_like", seed=7)
    hstu.blocks[0].alpha[0].data[:] = 0.0
    hstu.blocks[0].beta[0].data[:] = 0.0
    full = random_params(cfg, kind="full", seed=99)
    for name in ("w_q", "w_k", "w_v", "attn_gain"):
        getattr(full.blocks[0], name).data = getattr(hstu.blocks[0], name).data.copy()
    x = Tensor(np.random.default_rng(0).normal(size=(batch.valid_len.sum(), cfg.d)))
    ctx = M.build_attn_context(batch, cfg)
    xt = T.rms_norm(x, hstu.blocks[0].attn_gain, cfg.rms_eps)
    hstu_out = M.channel_outputs(xt, ctx, hstu.blocks[0], cfg, summed=True).data
    sem, _, _ = np.split(M.channel_outputs(xt, ctx, full.blocks[0], cfg, summed=False).data, 3, axis=-1)
    np.testing.assert_array_equal(hstu_out, sem)


def test_hstu_zero_input_gives_zero_output_before_residual():
    cfg = tiny_config()
    params = random_params(cfg, kind="hstu_like", seed=1)
    batch = random_batch(cfg, 2, seed=1)
    x = Tensor(np.zeros((batch.valid_len.sum(), cfg.d)))
    out = _block(M.BLOCK_APPLIERS["hstu_like"], x, batch, params.blocks[0], cfg)
    # gate silu(0) = 0 annihilates the attention path; residual carries the zeros
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_hstu_scalar_transcription():
    cfg = ModelConfig(
        vocab=4, d=1, d_h=1, heads=1, d_ffn=1, layers=1, n=2,
        n_buckets=4, negatives=1, max_time_span=16,
    )
    params = M.init_params(cfg, "hstu_like", seed=0)
    blk = params.blocks[0]
    blk.w_q.data = np.array([[0.7]])
    blk.w_k.data = np.array([[-0.4]])
    blk.w_v.data = np.array([[1.1]])
    blk.w_u.data = np.array([[0.5]])
    blk.w_o.data = np.array([[0.9]])
    blk.attn_gain.data = np.array([1.2])
    blk.alpha[0].data = np.array([0.2, -0.1, 0.4, 0.3])
    blk.beta[0].data = np.array([0.6, -0.7])
    batch = SequenceBatch(np.array([[1, 2]]), np.array([[5, 9]]), np.array([2]))
    x = Tensor(np.array([[0.9], [-0.7]]))
    out = _block(M.BLOCK_APPLIERS["hstu_like"], x, batch, blk, cfg).data

    eps = cfg.rms_eps
    xt = [xi / math.sqrt(xi * xi + eps) * 1.2 for xi in (0.9, -0.7)]
    q = [_silu(t * 0.7) for t in xt]
    k = [_silu(t * -0.4) for t in xt]
    v = [_silu(t * 1.1) for t in xt]
    # combined weight = silu(q k)/n + alpha[bucket] + beta[i-j]; bucket(0)=0, bucket(4)=2
    w = [
        [_silu(q[0] * k[0]) / 2 + 0.2 + 0.6, 0.0],
        [_silu(q[1] * k[0]) / 2 + 0.4 + -0.7, _silu(q[1] * k[1]) / 2 + 0.2 + 0.6],
    ]
    for i, xi in enumerate((0.9, -0.7)):
        a = sum(w[i][j] * v[j] for j in range(2))
        an = a / math.sqrt(a * a + eps)
        gated = an * _silu(xt[i] * 0.5)
        np.testing.assert_allclose(out[i, 0], gated * 0.9 + xi, atol=1e-12)


def test_baseline_variants_grad_check():
    for kind in ("vanilla", "hstu_like", "no_ams", "base", "no_mffn"):
        cfg = tiny_config(vocab=6, n=4, layers=1, d=4, d_h=4, d_ffn=5)
        params = random_params(cfg, kind=kind, seed=35)
        batch = random_batch(cfg, 1, seed=36)

        def loss_fn():
            return M.forward(batch, params, cfg).sum()

        err = T.grad_check_params(loss_fn, params.tensors(), fd_step=1e-5)
        assert err < 1e-4, f"{kind}: grad error {err}"


def test_all_variants_shape_and_causality():
    cfg = tiny_config(vocab=9, n=5, layers=2)
    ts = np.array([[1, 4, 9, 16, 25]])
    a = SequenceBatch(np.array([[2, 7, 1, 3, 4]]), ts, np.array([5]))
    b = SequenceBatch(np.array([[2, 7, 1, 8, 6]]), ts, np.array([5]))
    for kind in M.VARIANT_KINDS:
        params = random_params(cfg, kind=kind, seed=13)
        la = M.forward(a, params, cfg).data
        lb = M.forward(b, params, cfg).data
        assert la.shape == (1, 5, 9)
        assert np.all(np.isfinite(la))
        np.testing.assert_array_equal(la[0, :3], lb[0, :3])


def test_all_variants_padding_neutrality():
    cfg = tiny_config(vocab=9, n=6, layers=1)
    items = [3, 1, 4, 2]
    ts = [2, 5, 9, 40]
    narrow = SequenceBatch(np.array([items]), np.array([ts]), np.array([4]))
    wide = SequenceBatch(np.array([items + [0, 0]]), np.array([ts + [0, 0]]), np.array([4]))
    for kind in M.VARIANT_KINDS:
        params = random_params(cfg, kind=kind, seed=21)
        ln = M.forward(narrow, params, cfg).data
        lw = M.forward(wide, params, cfg).data
        np.testing.assert_array_equal(ln[0, :4], lw[0, :4])


def test_param_count_orderings():
    cfg = tiny_config()
    counts = {kind: M.count_params(M.init_params(cfg, kind, 0)) for kind in M.VARIANT_KINDS}
    assert counts["full"] > counts["no_mffn"]
    assert counts["full"] > counts["no_ams"]
    assert counts["no_mffn"] < counts["full"]
    assert counts["base"] < counts["vanilla"]
