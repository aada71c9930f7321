"""The FuXi-alpha network: embeddings, stacked blocks, prediction, sampled loss.

Each block pairs an attention half with a feed-forward half, and `VARIANTS`
maps every model kind to that pair. The table drives both the parameter
layout (`init_block`) and the forward pass (`BLOCK_APPLIERS`):

  kind       attention  ffn
  full       ams        mffn    the reference FuXi-alpha block
  base       softmax    fusion
  no_ams     softmax    mffn
  no_mffn    ams        fusion
  vanilla    softmax    relu    SASRec-style block
  hstu_like  hstu       fusion  HSTU-style block

Attention halves:
  ams      multi-channel SiLU attention: separate semantic, positional and
           temporal weight channels share one value projection; the channel
           outputs are concatenated, RMS-normalized and gated by a learned
           SiLU projection of the input
  hstu     the same gated SiLU attention with the three weights summed into
           one channel
  softmax  causal multi-head softmax attention

Feed-forward halves, each starting with a fusion projection plus residual:
  fusion   that projection alone
  mffn     then an RMS-normalized SwiGLU transform plus residual
  relu     then a two-layer relu transform plus residual
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .tensor import AttnContext, Tensor

# kind -> (attention, ffn); see the module docstring
VARIANTS = {
    "full": ("ams", "mffn"),
    "base": ("softmax", "fusion"),
    "no_ams": ("softmax", "mffn"),
    "no_mffn": ("ams", "fusion"),
    "vanilla": ("softmax", "relu"),
    "hstu_like": ("hstu", "fusion"),
}
VARIANT_KINDS = tuple(VARIANTS)

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    """All hyperparameters of the network."""

    vocab: int                     # embedding rows; row 0 is the padding item
    d: int = 50                    # embedding dimension
    d_h: int = 50                  # per-head attention dimension
    heads: int = 1                 # heads per channel
    d_ffn: int = 100               # feed-forward inner dimension
    layers: int = 2                # stacked blocks
    n: int = 200                   # maximum sequence length
    n_buckets: int = 128           # relative-time buckets
    negatives: int = 128           # sampled negatives per position
    time_bucket_base: float = 1.0  # seconds per bucketing unit
    max_time_span: int = 63_072_000  # two years; gaps beyond clamp to the last bucket
    rms_eps: float = 1e-6

    def __post_init__(self):
        problems = []
        for name in ("vocab", "d", "d_h", "heads", "d_ffn", "n", "n_buckets", "negatives"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be positive")
        if self.n_buckets < 2:
            problems.append("n_buckets must be >= 2")
        if self.vocab < 2:
            problems.append("vocab must be >= 2 (padding row plus at least one item)")
        if self.layers < 0:
            problems.append("layers must be >= 0")
        if self.time_bucket_base <= 0 or self.max_time_span <= 0 or self.rms_eps <= 0:
            problems.append("time_bucket_base, max_time_span and rms_eps must be positive")
        for name in ("time_bucket_base", "max_time_span", "rms_eps"):
            if not math.isfinite(getattr(self, name)):
                problems.append(f"{name} must be finite")
        if self.negatives > self.vocab - 2:
            problems.append(
                f"negatives={self.negatives} exceeds the {self.vocab - 2} items a position can draw "
                f"(vocab {self.vocab} minus padding and the target)"
            )
        if problems:
            raise ValueError("invalid ModelConfig: " + "; ".join(problems))

    @property
    def channel_width(self) -> int:
        return self.heads * self.d_h


@dataclass
class SequenceBatch:
    """Padded item-id rows with timestamps and per-row valid lengths.

    Valid entries occupy a prefix of each row; item id 0 marks padding and
    timestamps are non-decreasing over the valid prefix.
    """

    items: np.ndarray       # int64 [B, n]
    timestamps: np.ndarray  # int64 [B, n]
    valid_len: np.ndarray   # int64 [B]

    def __post_init__(self):
        self.items = np.asarray(self.items, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.valid_len = np.asarray(self.valid_len, dtype=np.int64)
        b, n = self.items.shape
        if self.timestamps.shape != (b, n) or self.valid_len.shape != (b,):
            raise ValueError("SequenceBatch: inconsistent array shapes")
        if np.any(self.items < 0):
            row, col = np.argwhere(self.items < 0)[0]
            raise ValueError(f"SequenceBatch: negative item id {self.items[row, col]} in row {row} at position {col}")
        bad = np.flatnonzero((self.valid_len < 0) | (self.valid_len > n))
        if bad.size:
            row = bad[0]
            raise ValueError(f"SequenceBatch: valid_len {self.valid_len[row]} of row {row} is outside [0, {n}]")
        valid = self.valid
        if not np.array_equal(self.items > 0, valid):
            raise ValueError("SequenceBatch: items must be nonzero exactly on the valid prefix")
        if np.any(self.timestamps[~valid] != 0):
            raise ValueError("SequenceBatch: padding timestamps must be zero")
        both = valid[:, 1:] & valid[:, :-1]
        if np.any((self.timestamps[:, 1:] - self.timestamps[:, :-1])[both] < 0):
            raise ValueError("SequenceBatch: timestamps must be non-decreasing over the valid prefix")

    @classmethod
    def from_sequences(cls, items: Sequence, timestamps: Sequence, n: int) -> SequenceBatch:
        """One row per sequence: its last n events left-aligned, zero-padded to width n."""
        if n < 1:
            raise ValueError(f"SequenceBatch.from_sequences: width n must be positive, got n={n}")
        b = len(items)
        if len(timestamps) != b:
            raise ValueError(f"SequenceBatch.from_sequences: {b} item sequences but {len(timestamps)} timestamp sequences")
        rows = np.zeros((b, n), dtype=np.int64)
        ts = np.zeros((b, n), dtype=np.int64)
        lens = np.zeros(b, dtype=np.int64)
        for row, (seq_items, seq_ts) in enumerate(zip(items, timestamps)):
            if len(seq_items) != len(seq_ts):
                raise ValueError(
                    f"SequenceBatch.from_sequences: sequence {row} has {len(seq_items)} items but {len(seq_ts)} timestamps"
                )
            take = min(len(seq_items), n)
            rows[row, :take] = seq_items[-take:]
            ts[row, :take] = seq_ts[-take:]
            lens[row] = take
        return cls(rows, ts, lens)

    @property
    def size(self) -> int:
        return self.items.shape[0]

    @property
    def valid(self) -> np.ndarray:
        """bool [B, n]: True on each row's valid prefix."""
        return np.arange(self.items.shape[1])[None, :] < self.valid_len[:, None]


@dataclass
class BlockParams:
    """Learnable parameters of one block; populated fields depend on the variant."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    attn_gain: Tensor
    w_u: Tensor | None = None
    alpha: list[Tensor] = field(default_factory=list)   # per-head time-bucket biases
    beta: list[Tensor] = field(default_factory=list)    # per-head position biases
    ffn_gain: Tensor | None = None
    w_1: Tensor | None = None
    w_2: Tensor | None = None
    w_3: Tensor | None = None

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for name in ("w_q", "w_k", "w_v", "w_o", "attn_gain", "w_u", "ffn_gain", "w_1", "w_2", "w_3"):
            t = getattr(self, name)
            if t is not None:
                yield f"{prefix}.{name}", t
        for h, t in enumerate(self.alpha):
            yield f"{prefix}.alpha.{h}", t
        for h, t in enumerate(self.beta):
            yield f"{prefix}.beta.{h}", t


@dataclass
class ModelParams:
    """Item/positional embeddings plus per-layer block parameters."""

    kind: str
    item_emb: Tensor   # [vocab, d]; row 0 frozen at zero for the padding item
    pos_emb: Tensor    # [n, d]
    blocks: list[BlockParams]

    def named(self) -> Iterator[tuple[str, Tensor]]:
        yield "item_embeddings", self.item_emb
        yield "positional_embeddings", self.pos_emb
        for i, blk in enumerate(self.blocks):
            yield from blk.named(f"blocks.{i}")

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]


def _normal(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def init_block(kind: str, cfg: ModelConfig, rng: np.random.Generator) -> BlockParams:
    if kind not in VARIANTS:
        raise ValueError(f"unknown variant kind {kind!r}; expected one of {VARIANT_KINDS}")
    attention, ffn = VARIANTS[kind]
    h, d, f = cfg.channel_width, cfg.d, cfg.d_ffn
    width = 3 * h if attention == "ams" else h  # attention output the fusion projection reads
    blk = BlockParams(
        w_q=_normal(rng, (d, h)),
        w_k=_normal(rng, (d, h)),
        w_v=_normal(rng, (d, h)),
        w_o=_normal(rng, (width, d)),
        attn_gain=_ones(d),
    )
    if attention != "softmax":
        blk.w_u = _normal(rng, (d, width))
        blk.alpha = [_zeros(cfg.n_buckets) for _ in range(cfg.heads)]
        blk.beta = [_zeros(cfg.n) for _ in range(cfg.heads)]
    if ffn == "mffn":
        blk.ffn_gain, blk.w_1, blk.w_2, blk.w_3 = _ones(d), _normal(rng, (d, f)), _normal(rng, (d, f)), _normal(rng, (f, d))
    if ffn == "relu":
        blk.ffn_gain, blk.w_1, blk.w_2 = _ones(d), _normal(rng, (d, f)), _normal(rng, (f, d))
    return blk


def init_params(cfg: ModelConfig, kind: str = "full", seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    item_emb = _normal(rng, (cfg.vocab, cfg.d))
    item_emb.data[0, :] = 0.0
    pos_emb = _normal(rng, (cfg.n, cfg.d))
    blocks = [init_block(kind, cfg, rng) for _ in range(cfg.layers)]
    return ModelParams(kind=kind, item_emb=item_emb, pos_emb=pos_emb, blocks=blocks)


def count_params(params: ModelParams) -> int:
    """Number of learnable scalars actually allocated."""
    return sum(t.size for t in params.tensors())


def param_count(cfg: ModelConfig) -> int:
    """Closed-form learnable-scalar count of the full model for this config."""
    h = cfg.channel_width
    per_block = (
        3 * cfg.d * h          # q, k, v projections
        + cfg.d * 3 * h        # gate projection
        + 3 * h * cfg.d        # fusion projection
        + 2 * cfg.d * cfg.d_ffn + cfg.d_ffn * cfg.d  # SwiGLU stage
        + cfg.heads * cfg.n_buckets                  # temporal biases
        + cfg.heads * cfg.n                          # positional biases
        + 2 * cfg.d                                  # the two rms gains
    )
    return cfg.vocab * cfg.d + cfg.n * cfg.d + cfg.layers * per_block


# time bucketing --------------------------------------------------------------


def bucket_indices(delta: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Map finite, non-negative time differences (seconds) to bucket ids in [0, n_buckets).

    The first half of the buckets is exact in time_bucket_base units; the
    rest are log-spaced up to max_time_span and clamp to the last bucket.
    """
    d = np.asarray(delta, dtype=np.float64)
    if not (d.min(initial=0.0) >= 0 and d.max(initial=0.0) < math.inf):  # a NaN fails both
        first = np.asarray(delta)[~((d >= 0) & (d < math.inf))][0]
        raise ValueError(f"bucket_indices: time differences must be finite and non-negative, got {first}")
    u = d / cfg.time_bucket_base
    half = cfg.n_buckets // 2
    max_u = cfg.max_time_span / cfg.time_bucket_base
    out = np.empty(u.shape, dtype=np.int64)
    small = u < half
    out[small] = u[small].astype(np.int64)
    if max_u <= half:
        out[~small] = cfg.n_buckets - 1
    else:
        frac = np.log(u[~small] / half) / math.log(max_u / half)
        out[~small] = np.minimum(half + (frac * (cfg.n_buckets - half)).astype(np.int64), cfg.n_buckets - 1)
    return out


def relative_time_bucket(delta_t: float, cfg: ModelConfig) -> int:
    """Bucket id for a single finite, non-negative timestamp difference."""
    return int(bucket_indices(np.array([delta_t]), cfg)[0])


def bucket_edges(cfg: ModelConfig) -> np.ndarray:
    """The exact integer edges E [n_buckets] of `bucket_indices`, read-only,
    found once per bucketing config. E[b] is the smallest integer difference
    in bucket b or above (int64 max if no int64 one is); bucketing never
    falls as a difference grows, so d >= 0 lies in bucket
    searchsorted(E, d, side="right") - 1."""
    return _edges(cfg.n_buckets, cfg.time_bucket_base, cfg.max_time_span)


@functools.lru_cache(maxsize=None)
def _edges(n_buckets: int, base: float, span: int) -> np.ndarray:
    cfg = ModelConfig(vocab=3, negatives=1, n_buckets=n_buckets, time_bucket_base=base, max_time_span=span)
    lo, hi = np.zeros(n_buckets - 1, dtype=np.int64), np.full(n_buckets - 1, np.iinfo(np.int64).max)
    while np.any(hi - lo > 1):  # bisection for buckets 1, 2, ...: lo lies below, hi in or above, or is int64 max
        mid = lo + (hi - lo) // 2
        up = bucket_indices(mid, cfg) >= np.arange(1, n_buckets)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    edges = np.concatenate([[0], hi])
    edges.flags.writeable = False
    return edges


# attention context ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _distances(n: int) -> np.ndarray:
    """[n, n] index distance i - j, clipped at 0; read-only, built once per model width."""
    pos = np.arange(n, dtype=np.min_scalar_type(-n))
    rel = np.maximum(np.subtract.outer(pos, pos), 0)
    rel.flags.writeable = False
    return rel


def build_attn_context(batch: SequenceBatch, cfg: ModelConfig) -> AttnContext:
    """The batch's attention layout (`tensor.AttnContext`): every valid
    position a query row, in tiles of up to `tensor._TILE_ROWS` rows of one
    sequence, each with the buckets of t_i - t_j at queries i and keys j:
    the count of `bucket_edges` after E[0] it reaches, exact, and 0 if j > i."""
    lengths, ts, n, step = batch.valid_len, batch.timestamps, batch.items.shape[1], T._TILE_ROWS
    first, edges, longest = np.cumsum(lengths) - lengths, bucket_edges(cfg)[1:], int(lengths.max(initial=0))
    # The tiles at rows [r0, r0 + step) of all sequences that reach r0 share
    # [G, t, r1] blocks of up to _CHUNK_ELEMS entries, so short histories
    # share a call and int64 temporaries stay cache-sized. A tile's buckets
    # are a view of its block; entries past a sequence's length go unread.
    tiles, tops, by_length = [[] for _ in lengths], [0], np.argsort(lengths, kind="stable")
    for r0 in range(0, longest, step):
        live, r1 = by_length[lengths[by_length] > r0], min(r0 + step, longest)
        group = max(1, T._CHUNK_ELEMS // ((r1 - r0) * r1))  # sequences a block
        for seqs in np.split(live, range(group, live.size, group)):
            stops = np.minimum(lengths[seqs], r1)  # each tile's end; the last is the block's
            gaps = ts[seqs, r0 : stops[-1], None] - ts[seqs, None, : stops[-1]]
            block = np.searchsorted(edges, gaps, side="right").astype(np.min_scalar_type(cfg.n_buckets - 1))
            tops.append(int(block[np.arange(len(seqs)), stops - r0 - 1, 0].max()))  # a tile's largest: last row, key 0
            for seq, f, stop, buckets in zip(seqs.tolist(), first[seqs].tolist(), stops.tolist(), block):
                tile = T._Tile(seq, slice(f + r0, f + stop), slice(r0, stop), slice(f, f + stop), buckets[: stop - r0, :stop])
                tiles[seq].append(tile)
    return AttnContext(first, lengths, tiles, _distances(max(n, cfg.n))[:n, :n], max(tops))


# layers ----------------------------------------------------------------------


def embed_sequence(batch: SequenceBatch, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Item embedding plus positional embedding at the batch's T valid
    positions, packed in row-major order as [T, d]."""
    if batch.items.max(initial=0) >= cfg.vocab:
        raise ValueError(
            f"embed_sequence: item id {int(batch.items.max())} out of range for vocab {cfg.vocab}"
        )
    n = batch.items.shape[1]
    if n > cfg.n:
        raise ValueError(f"embed_sequence: sequence length {n} exceeds configured n={cfg.n}")
    valid = batch.valid
    e = T.take(params.item_emb, batch.items[valid])
    p = T.take(params.pos_emb, np.nonzero(valid)[1])
    return T.add(e, p)


# Each attention half below reads keys and values at every packed row and
# computes its queries (and the gate) at ctx's query rows only: it returns
# [T, ·] for every row, or [B, ·] after ctx.at_rows.


def channel_outputs(xt: Tensor, ctx: AttnContext, layer: BlockParams, cfg: ModelConfig, summed: bool) -> Tensor:
    """Attention output of the normalized input xt, heads concatenated per channel.

    Each head scores (1/n)·SiLU(q·kᵀ) and reads the learned position (beta) and
    time-bucket (alpha) biases. AMS (summed=False) masks the semantic,
    positional and temporal weights and applies each to V, giving the three
    channels [semantic | positional | temporal]; HSTU (summed=True) adds them
    before masking, giving one.
    """
    q = T.silu(T.matmul(ctx.query(xt), layer.w_q))
    k = T.silu(T.matmul(xt, layer.w_k))
    v = T.silu(T.matmul(xt, layer.w_v))
    return T.silu_attention(q, k, v, layer.alpha, layer.beta, ctx, 1.0 / cfg.n, summed)


def _gated_attention(x: Tensor, ctx: AttnContext, layer: BlockParams, cfg: ModelConfig, summed: bool) -> Tensor:
    xt = T.rms_norm(x, layer.attn_gain, cfg.rms_eps)
    gate = T.silu(T.matmul(ctx.query(xt), layer.w_u))
    stacked = channel_outputs(xt, ctx, layer, cfg, summed)
    return T.mul(T.rms_norm(stacked, None, cfg.rms_eps), gate)


def ams_attention(x: Tensor, ctx: AttnContext, layer: BlockParams, cfg: ModelConfig) -> Tensor:
    """Multi-channel attention: gated concat of semantic/positional/temporal channels."""
    return _gated_attention(x, ctx, layer, cfg, summed=False)


def hstu_attention(x: Tensor, ctx: AttnContext, layer: BlockParams, cfg: ModelConfig) -> Tensor:
    """Gated single SiLU channel whose weights add the time and position biases."""
    return _gated_attention(x, ctx, layer, cfg, summed=True)


def softmax_attention(x: Tensor, ctx: AttnContext, layer: BlockParams, cfg: ModelConfig) -> Tensor:
    """Pre-norm causal multi-head softmax attention; returns concatenated heads."""
    xt = T.rms_norm(x, layer.attn_gain, cfg.rms_eps)
    q = T.matmul(ctx.query(xt), layer.w_q)
    k = T.matmul(xt, layer.w_k)
    v = T.matmul(xt, layer.w_v)
    return T.masked_softmax_attention(q, k, v, ctx, cfg.heads)


def stage_one(h: Tensor, x_prev: Tensor, layer: BlockParams) -> Tensor:
    """Fusion projection of the attention output plus the layer's residual input."""
    return T.add(T.matmul(h, layer.w_o), x_prev)


def mffn(h: Tensor, x_prev: Tensor, layer: BlockParams, cfg: ModelConfig) -> Tensor:
    """Two-stage feed-forward: channel fusion + residual, then SwiGLU + residual."""
    o = stage_one(h, x_prev, layer)
    on = T.rms_norm(o, layer.ffn_gain, cfg.rms_eps)
    inner = T.mul(T.silu(T.matmul(on, layer.w_1)), T.matmul(on, layer.w_2))
    return T.add(T.matmul(inner, layer.w_3), o)


def relu_ffn(h: Tensor, x_prev: Tensor, layer: BlockParams, cfg: ModelConfig) -> Tensor:
    """Channel fusion + residual, then a two-layer pointwise relu FFN + residual."""
    o = stage_one(h, x_prev, layer)
    on = T.rms_norm(o, layer.ffn_gain, cfg.rms_eps)
    return T.add(T.matmul(T.relu(T.matmul(on, layer.w_1)), layer.w_2), o)


ATTENTIONS = {"ams": ams_attention, "softmax": softmax_attention, "hstu": hstu_attention}


def _block_applier(attention: str, ffn: str) -> Callable[..., Tensor]:
    attend = ATTENTIONS[attention]

    def apply(x: Tensor, ctx: AttnContext, layer: BlockParams, cfg: ModelConfig) -> Tensor:
        """The block at ctx's query rows of the packed x: every row, or one per sequence."""
        h = attend(x, ctx, layer, cfg)
        x = ctx.query(x)
        # looked up by module-level name on each call, so a rebound mffn is seen
        if ffn == "mffn":
            return mffn(h, x, layer, cfg)
        if ffn == "relu":
            return relu_ffn(h, x, layer, cfg)
        return stage_one(h, x, layer)

    return apply


BLOCK_APPLIERS = {kind: _block_applier(*layout) for kind, layout in VARIANTS.items()}


def forward_hidden(
    batch: SequenceBatch, params: ModelParams, cfg: ModelConfig, rows: np.ndarray | None = None
) -> Tensor:
    """Hidden states after the embedding layer and all stacked blocks at the
    batch's T valid positions, packed in row-major order as [T, d].

    Given rows (one valid position per sequence), only the hidden state at
    rows[b] of each sequence b is returned, as [B, d]: every block but the last
    runs at all positions, the last computes its queries, gate and feed-forward
    at those rows alone.
    """
    try:
        apply = BLOCK_APPLIERS[params.kind]
    except KeyError:
        raise ValueError(f"unknown variant kind {params.kind!r}; expected one of {VARIANT_KINDS}") from None
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape != (batch.size,) or np.any(rows < 0) or np.any(rows >= batch.valid_len):
            raise ValueError("forward_hidden: rows must hold one valid position per sequence, in [0, valid_len)")
    x = embed_sequence(batch, params, cfg)
    ctx = build_attn_context(batch, cfg)
    if not params.blocks:
        return ctx.at_rows(rows).query(x)
    *early, last = params.blocks
    for blk in early:
        x = apply(x, ctx, blk, cfg)
    return apply(x, ctx.at_rows(rows), last, cfg)


def forward(batch: SequenceBatch, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Pre-softmax scores over the catalog at every position, [B, n, vocab]:
    hidden @ E^T at valid positions, zero at padding."""
    hidden = forward_hidden(batch, params, cfg)
    valid = batch.valid
    slot = np.zeros(valid.shape, dtype=np.int64)  # 0 reads the zero row, r + 1 packed row r
    slot[valid] = np.arange(1, hidden.shape[0] + 1)
    padded = T.take(T.concat([Tensor(np.zeros((1, cfg.d))), hidden], axis=0), slot)
    return T.matmul(padded, T.swap_last(params.item_emb))


def sampled_softmax_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Mean over P rows of logsumexp([s+ | s-]) - s+, from the positive scores
    [P, 1] and the negative scores [P, N]."""
    if pos_scores.shape[0] < 1 or neg_scores.shape[-1] < 1:
        raise ValueError(f"sampled_softmax_loss: need a position and a negative, got [P, N] = {neg_scores.shape}")
    all_scores = T.concat([pos_scores, neg_scores], axis=-1)
    per_pos = T.add(T.logsumexp(all_scores), T.scale(T.reshape(pos_scores, (-1,)), -1.0))
    return T.tmean(per_pos)


def sampled_loss(hidden: Tensor, item_emb: Tensor, targets: np.ndarray, negs: np.ndarray) -> Tensor:
    """Sampled-softmax loss at the P packed rows of hidden [T, d] whose target
    id in targets [T] is non-zero, in order, against their negatives [P, N]."""
    scored = np.flatnonzero(targets > 0)
    h = T.take(hidden, scored)
    pos = T.rows_dot(h, item_emb, targets[scored, None])
    return sampled_softmax_loss(pos, T.rows_dot(h, item_emb, negs))


def predict_next(
    items: Sequence[int],
    timestamps: Sequence[int],
    params: ModelParams,
    cfg: ModelConfig,
    k: int,
) -> list[int]:
    """Top-k next items at the end of one history; ties break by ascending id."""
    if len(items) == 0:
        raise ValueError("predict_next: history is empty")
    if not 1 <= k <= cfg.vocab - 1:
        raise ValueError(f"predict_next: k must lie in [1, {cfg.vocab - 1}]")
    # padding changes no hidden state, so the history is padded to its own width
    batch = SequenceBatch.from_sequences([items], [timestamps], min(len(items), cfg.n))
    hidden = forward_hidden(batch, params, cfg, rows=batch.valid_len - 1).data[0]
    key = -(params.item_emb.data[1:] @ hidden)  # ascending key, then ascending id
    # Only the ids whose key is at most the k-th smallest are sorted. A NaN
    # compares false, so a NaN key stays a candidate, sorted last as a full
    # sort would, and a NaN k-th key keeps every id.
    kth = np.partition(key, k - 1)[k - 1]
    cand = np.flatnonzero(~(key > kth))
    order = cand[np.lexsort((cand, key[cand]))]
    return (order[:k] + 1).tolist()
