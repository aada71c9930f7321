"""Shared helpers for the test suite."""

import math

import numpy as np

from fuxi_alpha import tensor as T
from fuxi_alpha.data import DataError, InteractionLog
from fuxi_alpha.model import ModelConfig, ModelParams, SequenceBatch, init_params
from fuxi_alpha.tensor import Tensor


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        vocab=7, d=4, d_h=4, heads=1, d_ffn=8, layers=2, n=4,
        n_buckets=8, negatives=3, time_bucket_base=1.0, max_time_span=1000,
    )
    base.update(overrides)
    return ModelConfig(**base)


def freeze_temporal(params: ModelParams) -> ModelParams:
    """params with every time-bucket bias zeroed and fixed (requires_grad=False,
    so AdamW skips it): the temporal channel off, the architecture unchanged."""
    for blk in params.blocks:
        for a in blk.alpha:
            a.data[:] = 0.0
            a.requires_grad = False
    return params


def random_params(cfg: ModelConfig, kind: str = "full", seed: int = 0) -> ModelParams:
    """Init then overwrite every tensor with lively random values (alpha/beta included)."""
    params = init_params(cfg, kind, seed)
    rng = np.random.default_rng(seed + 77_000)
    for _, t in params.named():
        t.data = rng.normal(0.0, 0.3, size=t.data.shape)
    params.item_emb.data[0, :] = 0.0
    return params


def random_batch(cfg: ModelConfig, batch_size: int, seed: int = 0, width: int | None = None) -> SequenceBatch:
    rng = np.random.default_rng(seed)
    n = cfg.n if width is None else width
    items = np.zeros((batch_size, n), dtype=np.int64)
    ts = np.zeros((batch_size, n), dtype=np.int64)
    lens = rng.integers(1, n + 1, size=batch_size)
    for i, length in enumerate(lens):
        items[i, :length] = rng.integers(1, cfg.vocab, size=length)
        ts[i, :length] = np.cumsum(rng.integers(1, 50, size=length))
    return SequenceBatch(items, ts, lens)


# One loop transcription of the block stack for every model kind. Its own
# table names each kind's attention and feed-forward halves, so a mis-wired
# `model.VARIANTS` still fails against it; each half is written once.

REFERENCE_HALVES = {
    "full": ("ams", "mffn"),
    "base": ("softmax", "fusion"),
    "no_ams": ("softmax", "mffn"),
    "no_mffn": ("ams", "fusion"),
    "vanilla": ("softmax", "relu"),
    "hstu_like": ("hstu", "fusion"),
}


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _silu(z):
    return z * _sigmoid(z)


def _rms_row(v, gain, eps):
    r = np.sqrt(np.mean(v * v) + eps)
    return v / r * (gain if gain is not None else 1.0)


def _bucket_scalar(delta, cfg):
    u = delta / cfg.time_bucket_base
    half = cfg.n_buckets // 2
    if u < half:
        return int(u)
    max_u = cfg.max_time_span / cfg.time_bucket_base
    if max_u <= half or u >= max_u:
        return cfg.n_buckets - 1
    frac = np.log(u / half) / np.log(max_u / half)
    return min(half + int(frac * (cfg.n_buckets - half)), cfg.n_buckets - 1)


def _embed_rows(items, valid_len, params, cfg):
    m = len(items)
    x = np.zeros((m, cfg.d))
    for j in range(valid_len):
        x[j] = params.item_emb.data[items[j]] + params.pos_emb.data[j]
    return x


def _channel_weight_rows(items, ts, valid_len, cfg, q, k, blk, head):
    """Per-head weight matrices (semantic, positional, temporal), causally masked."""
    m = len(items)
    lo, hi = head * cfg.d_h, (head + 1) * cfg.d_h
    sem = np.zeros((m, m))
    posw = np.zeros((m, m))
    tmpw = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if j <= i and j < valid_len:
                sem[i, j] = _silu(float(q[i, lo:hi] @ k[j, lo:hi])) / cfg.n
                posw[i, j] = blk.beta[head].data[i - j]
                tmpw[i, j] = blk.alpha[head].data[_bucket_scalar(max(ts[i] - ts[j], 0), cfg)]
    return sem, posw, tmpw


def _softmax_head(q, k, v, valid_len, cfg, head):
    """One head of causal softmax attention, a weighted sum of value rows per query."""
    m = len(q)
    lo, hi = head * cfg.d_h, (head + 1) * cfg.d_h
    out = np.zeros((m, cfg.d_h))
    for i in range(m):
        cols = [j for j in range(m) if j <= i and j < valid_len]
        if not cols:
            continue
        scores = np.array([float(q[i, lo:hi] @ k[j, lo:hi]) for j in cols]) / np.sqrt(cfg.d_h)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        out[i] = sum(wj * v[j, lo:hi] for wj, j in zip(w, cols))
    return out


def _attention_rows(attention, items, ts, valid_len, xt, blk, cfg):
    """The attention half on the normalized rows xt, before the fusion projection:
    heads concatenated per channel, then (ams, hstu) RMS-normalized and gated."""
    gated = attention != "softmax"
    q, k, v = (_silu(xt @ w.data) if gated else xt @ w.data for w in (blk.w_q, blk.w_k, blk.w_v))
    heads = []  # each head's channel outputs
    for head in range(cfg.heads):
        if not gated:
            heads.append([_softmax_head(q, k, v, valid_len, cfg, head)])
            continue
        sem, posw, tmpw = _channel_weight_rows(items, ts, valid_len, cfg, q, k, blk, head)
        maps = [sem, posw, tmpw] if attention == "ams" else [sem + posw + tmpw]
        heads.append([w @ v[:, head * cfg.d_h : (head + 1) * cfg.d_h] for w in maps])
    stacked = np.concatenate([outs[c] for c in range(len(heads[0])) for outs in heads], axis=-1)
    if not gated:
        return stacked
    normed = np.stack([_rms_row(row, None, cfg.rms_eps) for row in stacked])
    return normed * _silu(xt @ blk.w_u.data)


def _ffn_rows(ffn, h, x, blk, cfg):
    """The feed-forward half: fusion projection plus residual, then (mffn, relu)
    an RMS-normalized transform plus residual."""
    o = h @ blk.w_o.data + x
    if ffn == "fusion":
        return o
    on = np.stack([_rms_row(row, blk.ffn_gain.data, cfg.rms_eps) for row in o])
    if ffn == "mffn":
        f = (_silu(on @ blk.w_1.data) * (on @ blk.w_2.data)) @ blk.w_3.data
    else:
        f = np.maximum(on @ blk.w_1.data, 0.0) @ blk.w_2.data
    return f + o


def reference_hidden(kind, items, ts, valid_len, params, cfg):
    """Plain-loop re-derivation of the stacked-block hidden states of one
    history, [len(items), d], for any kind and head count."""
    attention, ffn = REFERENCE_HALVES[kind]
    x = _embed_rows(items, valid_len, params, cfg)
    for blk in params.blocks:
        xt = np.stack([_rms_row(row, blk.attn_gain.data, cfg.rms_eps) for row in x])
        x = _ffn_rows(ffn, _attention_rows(attention, items, ts, valid_len, xt, blk, cfg), x, blk, cfg)
    return x


# Dense transcriptions of the fused attention ops from tape primitives: every
# head's whole [B, n, n] weight maps on the padded [B, n] grid, with gradients
# taken by the tape. Like the ops, they take packed q, k and v as the
# context lays them out and return their output packed; the layout goes
# through tape gathers.


def _on_grid(x: Tensor, at: np.ndarray, grid: tuple) -> Tensor:
    """The packed rows x at the flat positions `at` of the grid, zero rows elsewhere."""
    slot = np.zeros(math.prod(grid), dtype=np.int64)
    slot[at] = np.arange(1, len(at) + 1)
    return T.take(T.concat([Tensor(np.zeros((1, x.shape[-1]))), x], axis=0), slot.reshape(grid))


def _packed(x: Tensor, at: np.ndarray) -> Tensor:
    return T.take(T.reshape(x, (-1, x.shape[-1])), at)


def _query_positions(ctx) -> np.ndarray:
    """bool [B, n]: the positions of the context's query rows."""
    pos = np.arange(ctx.rel_idx.shape[0])
    return pos < ctx.lengths[:, None] if ctx.positions is None else pos == ctx.positions[:, None]


def dense_allowed(ctx) -> np.ndarray:
    """The context's layout as a [B, n, n] bool mask: the query row at position i of sequence b attends key j."""
    pos = np.arange(ctx.rel_idx.shape[0])
    return _query_positions(ctx)[:, :, None] & (pos[None, :] <= pos[:, None])


def _grids(q, k, v, ctx):
    """q, k and v on the [B, n] grid, and the flat grid positions of the query rows."""
    grid = (len(ctx.lengths), ctx.rel_idx.shape[0])
    keys = np.flatnonzero(np.arange(grid[1]) < ctx.lengths[:, None])
    queries = np.flatnonzero(_query_positions(ctx))
    return _on_grid(q, queries, grid), _on_grid(k, keys, grid), _on_grid(v, keys, grid), queries


def _exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data))
    return T._record(out, (x,), lambda g: T._accumulate(x, g * out.data, own=True))


def _reciprocal(x: Tensor) -> Tensor:
    out = Tensor(1.0 / x.data)
    return T._record(out, (x,), lambda g: T._accumulate(x, -g * out.data**2, own=True))


def _head(x: Tensor, h: int, heads: int) -> Tensor:
    """Head h's columns of x, as x times a 0/1 selection matrix (exact)."""
    d_h = x.shape[-1] // heads
    select = np.zeros((x.shape[-1], d_h))
    select[h * d_h + np.arange(d_h), np.arange(d_h)] = 1.0
    return T.matmul(x, Tensor(select))


def dense_buckets(timestamps: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """[B, n, n] time bucket of t_i - t_j (clipped at 0) at every pair of the
    padded grid, one `_bucket_scalar` call an entry."""
    b, n = timestamps.shape
    ts = timestamps.tolist()
    out = np.zeros((b, n, n), dtype=np.int64)
    for s in range(b):
        for i in range(n):
            for j in range(n):
                out[s, i, j] = _bucket_scalar(max(ts[s][i] - ts[s][j], 0), cfg)
    return out


def dense_silu_attention(q, k, v, alpha, beta, ctx, inv_n, summed, timestamps, cfg):
    """tensor.silu_attention, each head's weight maps built whole and masked.
    The time-bucket and distance maps are its own, from the batch timestamps
    [B, n] and cfg; the context gives only the layout."""
    q, k, v, queries = _grids(q, k, v, ctx)
    heads = len(alpha)
    mask = Tensor(dense_allowed(ctx).astype(np.float64))
    pos = np.arange(timestamps.shape[1])
    buckets, distances = dense_buckets(timestamps, cfg), np.maximum(pos[:, None] - pos[None, :], 0)
    channels = ([], [], [])
    for h in range(heads):
        qh, kh, vh = (_head(x, h, heads) for x in (q, k, v))
        w = T.scale(T.silu(T.matmul(qh, T.swap_last(kh))), inv_n)
        time_bias, pos_bias = T.take(alpha[h], buckets), T.take(beta[h], distances)
        if summed:
            w = T.add(T.add(w, time_bias), pos_bias)
        channels[0].append(T.matmul(T.mul(w, mask), vh))
        if not summed:
            channels[1].append(T.matmul(T.mul(pos_bias, mask), vh))
            channels[2].append(T.matmul(T.mul(time_bias, mask), vh))
    return _packed(T.concat([out for channel in channels for out in channel], axis=-1), queries)


def dense_softmax_attention(q, k, v, ctx, heads):
    """tensor.masked_softmax_attention, each head's weight map built whole."""
    q, k, v, queries = _grids(q, k, v, ctx)
    allowed = dense_allowed(ctx)
    inv_sqrt = 1.0 / np.sqrt(v.shape[-1] // heads)
    empty_rows = Tensor((~allowed.any(axis=-1, keepdims=True)).astype(np.float64))
    outs = []
    for h in range(heads):
        qh, kh, vh = (_head(x, h, heads) for x in (q, k, v))
        s = T.scale(T.matmul(qh, T.swap_last(kh)), inv_sqrt)
        # shifted by each row's largest allowed score; -inf removes the disallowed entries
        top = np.max(np.where(allowed, s.data, -np.inf), axis=-1, keepdims=True)
        shift = np.where(allowed, -np.where(np.isfinite(top), top, 0.0), -np.inf)
        e = _exp(T.add(s, Tensor(shift)))
        total = T.add(T.tsum(e, axis=-1, keepdims=True), empty_rows)  # a row with no key gives 0 / 1
        outs.append(T.matmul(T.mul(e, _reciprocal(total)), vh))
    return _packed(T.concat(outs, axis=-1), queries)


# Loop transcription of the per-line `movielens_dat` parser that the array
# parse in data.py replaced. Its grammar is wider: Python's int and float
# decide a field, each line is stripped, and a lone "\r" ends a line.


def reference_movielens_line(line: str, ln: int) -> tuple[int, int, int]:
    parts = line.split("::")
    if len(parts) != 4:
        raise DataError(f"line {ln}: expected 4 '::'-separated fields, got {len(parts)}")
    try:
        user, item = int(parts[0]), int(parts[1])
        float(parts[2])  # the rating is checked, not kept
        ts = int(parts[3])
    except ValueError as e:
        raise DataError(f"line {ln}: {e}") from None
    return user, item, ts


def reference_parse_movielens(path) -> tuple[InteractionLog, dict[int, int]]:
    """parse_interactions(path, "movielens_dat"), one Python loop step a line."""
    users, items, stamps = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                user, item, ts = reference_movielens_line(line, ln)
                users.append(user)
                items.append(item)
                stamps.append(ts)
    except UnicodeDecodeError as e:
        raise DataError(f"{path} is not UTF-8 text: {e}") from None
    if not users:
        raise DataError(f"no events parsed from {path}")
    try:
        raw = InteractionLog(users, items, stamps)
    except OverflowError:
        raise DataError(f"{path}: an id or timestamp does not fit in 64 bits") from None
    if (raw.timestamp < 0).any():
        raise DataError("negative timestamp encountered")
    item_ids, item_col = np.unique(raw.item, return_inverse=True)
    user_col = np.unique(raw.user, return_inverse=True)[1]
    item_remap = dict(zip(item_ids.tolist(), range(1, len(item_ids) + 1)))
    return InteractionLog(user_col + 1, item_col + 1, raw.timestamp), item_remap
