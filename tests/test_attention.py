"""The fused attention ops: gradients, tiling, the tape they leave, and the memory they take."""

import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import dense_allowed, dense_buckets, dense_silu_attention, dense_softmax_attention

from fuxi_alpha import model as M
from fuxi_alpha import tensor as T
from fuxi_alpha.model import ModelConfig, SequenceBatch
from fuxi_alpha.tensor import Tape, Tensor
from fuxi_alpha.train import AdamW, TrainConfig, batch_loss, next_item_negatives, next_item_targets, train_step


def _padded_batch(n: int, n_buckets: int, seed: int, lengths=None) -> tuple[SequenceBatch, ModelConfig]:
    """A row per length; by default two rows, the second padded after three events."""
    cfg = ModelConfig(vocab=9, d=4, d_h=4, n=n, n_buckets=n_buckets, negatives=2, max_time_span=200)
    rng = np.random.default_rng(seed)
    lens = np.array([n, 3] if lengths is None else lengths)
    items = np.zeros((len(lens), n), dtype=np.int64)
    ts = np.zeros((len(lens), n), dtype=np.int64)
    for row, length in enumerate(lens):
        items[row, :length] = rng.integers(1, cfg.vocab, size=length)
        ts[row, :length] = np.cumsum(rng.integers(1, 40, size=length))
    return SequenceBatch(items, ts, lens), cfg


def _padded_context(n: int, n_buckets: int, seed: int, lengths=None) -> M.AttnContext:
    return M.build_attn_context(*_padded_batch(n, n_buckets, seed, lengths))


def _pack(x: np.ndarray, ctx: M.AttnContext) -> np.ndarray:
    """The rows of the [B, n, ·] grid array x at the context's valid positions, in row-major order."""
    return x[np.arange(x.shape[1]) < ctx.lengths[:, None]]


def _operands(heads: int, ctx: M.AttnContext, d_h: int = 3, n_buckets: int = 6, seed: int = 0):
    """Random q, k, v drawn on the [B, n] grid and packed at ctx's valid positions, and the biases."""
    b, n = len(ctx.lengths), ctx.rel_idx.shape[0]
    rng = np.random.default_rng(seed)
    q, k, v = (Tensor(_pack(rng.normal(size=(b, n, heads * d_h)), ctx)) for _ in range(3))
    alpha = [Tensor(rng.normal(size=n_buckets)) for _ in range(heads)]
    beta = [Tensor(rng.normal(size=n)) for _ in range(heads)]
    return q, k, v, alpha, beta


def _silu_loss(q, k, v, alpha, beta, ctx, summed, weights):
    return T.mul(T.silu_attention(q, k, v, alpha, beta, ctx, 1.0 / 5, summed), weights).sum()


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("summed", [False, True], ids=["ams", "hstu"])
def test_silu_attention_grad_check(heads, summed):
    ctx = _padded_context(5, 6, seed=heads)
    q, k, v, alpha, beta = _operands(heads, ctx, seed=10 + heads)
    channels = 1 if summed else 3
    weights = Tensor(_pack(np.random.default_rng(3).normal(size=(2, 5, channels * q.shape[-1])), ctx))
    err = T.grad_check_params(
        lambda: _silu_loss(q, k, v, alpha, beta, ctx, summed, weights), [q, k, v, *alpha, *beta]
    )
    assert err < 1e-7


@pytest.mark.parametrize("heads", [1, 2])
def test_masked_softmax_attention_grad_check(heads):
    ctx = _padded_context(5, 6, seed=heads)
    q, k, v, _, _ = _operands(heads, ctx, seed=20 + heads)
    weights = Tensor(_pack(np.random.default_rng(4).normal(size=(2, 5, q.shape[-1])), ctx))
    err = T.grad_check_params(
        lambda: T.mul(T.masked_softmax_attention(q, k, v, ctx, heads), weights).sum(), [q, k, v]
    )
    assert err < 1e-7


@pytest.mark.parametrize("frozen", [("alpha",), ("beta",), ("alpha", "beta")], ids=["alpha", "beta", "both"])
@pytest.mark.parametrize("summed", [False, True], ids=["ams", "hstu"])
def test_frozen_bias_gets_no_grad(summed, frozen):
    # a frozen bias gets no gradient, and every other gradient is bitwise the
    # unfrozen run's; in AMS a frozen bias-only channel skips its weight gradient
    ctx = _padded_context(5, 6, seed=1)
    grads = []
    for freeze in ((), frozen):
        q, k, v, alpha, beta = _operands(2, ctx, seed=30)
        named = {"q": [q], "k": [k], "v": [v], "alpha": alpha, "beta": beta}
        for name, tensors in named.items():
            for t in tensors:
                t.requires_grad = name not in freeze
        weights = Tensor(_pack(np.random.default_rng(5).normal(size=(2, 5, (1 if summed else 3) * 6)), ctx))
        with Tape() as tape:
            loss = _silu_loss(q, k, v, alpha, beta, ctx, summed, weights)
        T.backward(loss, tape)
        grads.append({name: [t.grad for t in tensors] for name, tensors in named.items()})
    unfrozen, partly = grads
    for name, got in partly.items():
        if name in frozen:
            assert all(g is None for g in got)
        else:
            for want, g in zip(unfrozen[name], got):
                np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("kind", ["ams", "hstu", "softmax"])
def test_ops_reject_operands_of_the_wrong_shape(kind):
    ctx = _padded_context(5, 6, seed=0)
    q, k, v, alpha, beta = _operands(2, ctx, d_h=5)  # width 10
    three = _operands(3, ctx, d_h=3)[3:]  # alpha and beta for three heads
    op = _ops(kind, 3, ctx)[0]
    with pytest.raises(T.ShapeError, match="width 10 does not split into 3 heads"):
        op(q, k, v, *three)  # unchecked, column 9 would belong to no head
    op = _ops(kind, 2, ctx)[0]
    with pytest.raises(T.ShapeError, match=r"one width, got \(8, 10\), \(8, 8\), \(8, 10\)"):
        op(q, Tensor(k.data[:, :8]), v, alpha, beta)
    with pytest.raises(T.ShapeError, match=r"one width, got \(1, 8, 10\)"):
        op(Tensor(q.data[None]), k, v, alpha, beta)
    # the context lays out 8 query rows and 8 keys (lengths 5 and 3)
    rows = r"the context has 8 query rows and 8 keys, got q, k and v of {} rows"
    with pytest.raises(T.ShapeError, match=rows.format("7, 8 and 8")):
        op(Tensor(q.data[:7]), k, v, alpha, beta)
    with pytest.raises(T.ShapeError, match=rows.format("8, 9 and 8")):
        op(q, Tensor(np.vstack([k.data, k.data[:1]])), v, alpha, beta)
    with pytest.raises(T.ShapeError, match=rows.format("8, 8 and 7")):
        op(q, k, Tensor(v.data[1:]), alpha, beta)
    ranked = _ops(kind, 2, ctx.at_rows(np.array([4, 2])))[0]  # one query row per sequence
    with pytest.raises(T.ShapeError, match=r"the context has 2 query rows and 8 keys, got q, k and v of 8, 8 and 8 rows"):
        ranked(q, k, v, alpha, beta)
    if kind != "softmax":
        with pytest.raises(T.ShapeError, match=r"2 heads need 2 vectors per bias, got \[(2, 1|1, 2)\]"):
            op(q, k, v, alpha, beta[:1])


@pytest.mark.parametrize("summed", [False, True], ids=["ams", "hstu"])
def test_a_bias_shorter_than_its_index_map_is_rejected(summed):
    # one sequence of 8: beta is read up to index 7 and alpha up to the
    # context's largest bucket; a shorter vector used to be read clipped in
    # forward, and backward then failed inside numpy
    batch, cfg = _padded_batch(8, 16, seed=0, lengths=[8])
    ctx = M.build_attn_context(batch, cfg)
    top = int(dense_buckets(batch.timestamps, cfg)[0][np.tri(8, dtype=bool)].max())  # over the attended keys
    assert ctx.max_bucket == top > 0
    assert max(int(tile.buckets.max()) for own in ctx.tiles for tile in own) == top
    q, k, v = (Tensor(np.random.default_rng(i).normal(size=(8, 4)), requires_grad=True) for i in range(3))
    alpha, beta = [Tensor(np.zeros(top + 1))], [Tensor(np.zeros(8))]
    with pytest.raises(T.ShapeError, match=r"beta vectors of \[3\] entries are read at index 7"):
        T.silu_attention(q, k, v, alpha, [Tensor(np.zeros(3))], ctx, 1.0 / 8, summed)
    with pytest.raises(T.ShapeError, match=rf"alpha vectors of \[{top}\] entries are read at index {top}"):
        T.silu_attention(q, k, v, [Tensor(np.zeros(top))], beta, ctx, 1.0 / 8, summed)
    with Tape() as tape:  # long enough: forward and backward run
        loss = T.silu_attention(q, k, v, alpha, beta, ctx, 1.0 / 8, summed).sum()
    T.backward(loss, tape)
    assert q.grad is not None


def test_context_holds_no_b_m_n_array_but_narrow_buckets():
    # the layout is each sequence's first packed row and length; the time
    # buckets are each tile's own narrow [t, r1] block, for every row and for
    # one query row per sequence; no [B, n, n] array is left. An every-row
    # tile owns its block; a one-row tile's is a view of its held tile's row
    ctx = _padded_context(5, 6, seed=0)
    positions = np.array([3, 1])
    ranked = ctx.at_rows(positions)
    for c in (ctx, ranked):
        b, n = len(c.lengths), c.rel_idx.shape[0]
        arrays = {name: x for name, x in vars(c).items() if isinstance(x, np.ndarray)}
        assert [name for name, x in arrays.items() if x.size >= b * n * n] == []
        tiles = [tile for own in c.tiles for tile in own]
        assert tiles and sum(tile.buckets.size for tile in tiles) < b * n * n
        for tile in tiles:
            assert tile.buckets.dtype == np.uint8
            assert tile.buckets.shape == (tile.pos.stop - tile.pos.start, tile.pos.stop)
    assert all(tile.buckets.flags.owndata for own in ctx.tiles for tile in own)
    for seq, ((tile,), p) in enumerate(zip(ranked.tiles, positions.tolist())):
        held = ctx.tiles[seq][p // T._TILE_ROWS]
        assert not tile.buckets.flags.owndata and np.shares_memory(tile.buckets, held.buckets)
        np.testing.assert_array_equal(tile.buckets, held.buckets[p - held.pos.start, : p + 1][None])
    assert ctx.first.dtype.kind == ctx.lengths.dtype.kind == "i"
    assert not any(isinstance(value, Tensor) for value in vars(ctx).values())


@pytest.mark.parametrize("b, n, base", [(5, 9, 1 << 16), (5, 9, 3 * 5 * 9), (3, 70, 1)])
def test_context_matches_the_dense_formula(monkeypatch, b, n, base):
    # tiles of 3, 4 or 64 rows, each bucketed on its own: the last tile of a
    # sequence partial, or the whole sequence one tile. Three random length
    # draws and one of full rows. The bucketing unit `base` (seconds) moves
    # the edges: at 1 and 135 large gaps reach the log-spaced and the clamped
    # buckets; at 65536 the span is under the exact half, so buckets 8..15
    # share one edge and every gap here falls in bucket 0. Every tile's block
    # is the dense formula at its rows and keys, 0 above the diagonal.
    for tile_rows, seed in itertools.product((3, 4, 64), range(4)):
        monkeypatch.setattr(T, "_TILE_ROWS", tile_rows)
        cfg = ModelConfig(
            vocab=9, d=4, d_h=4, n=n, n_buckets=16, negatives=2, time_bucket_base=base, max_time_span=5000
        )
        rng = np.random.default_rng(seed)
        lens = rng.integers(0, n + 1, size=b) if seed < 3 else np.full(b, n)
        items = np.zeros((b, n), dtype=np.int64)
        ts = np.zeros((b, n), dtype=np.int64)
        for row, length in enumerate(lens):
            items[row, :length] = rng.integers(1, cfg.vocab, size=length)
            ts[row, :length] = np.cumsum(rng.integers(0, 400, size=length))
        batch = SequenceBatch(items, ts, lens)
        ctx = M.build_attn_context(batch, cfg)
        pos = np.arange(n)
        valid = pos[None, :] < lens[:, None]
        allowed = (pos[:, None] >= pos[None, :])[None] & valid[:, None, :] & valid[:, :, None]
        np.testing.assert_array_equal(ctx.lengths, lens)
        np.testing.assert_array_equal(ctx.first, np.cumsum(lens) - lens)
        np.testing.assert_array_equal(dense_allowed(ctx), allowed)  # a padded query row attends nothing
        dense = M.bucket_indices(np.maximum(ts[:, :, None] - ts[:, None, :], 0), cfg)
        seen = np.zeros(allowed.shape, dtype=bool)
        for seq, own in enumerate(ctx.tiles):
            for tile in own:
                assert tile.buckets.dtype == np.uint8
                keys = slice(0, tile.pos.stop)
                want = np.where(allowed[seq, tile.pos, keys], dense[seq, tile.pos, keys], 0)
                np.testing.assert_array_equal(tile.buckets, want)
                seen[seq, tile.pos, keys] = True
        np.testing.assert_array_equal(seen & allowed, allowed)  # every attended key has its bucket
        assert ctx.max_bucket == dense[allowed].max(initial=0)
        causal = pos[:, None] >= pos[None, :]
        np.testing.assert_array_equal(ctx.rel_idx[causal], (pos[:, None] - pos[None, :])[causal])
        assert ctx.positions is None and ctx.rows is None


def test_at_rows_picks_one_query_row_per_sequence():
    # random padded batches; one position drawn in each sequence's valid prefix
    for seed in range(5):
        rng = np.random.default_rng(seed)
        b, n = int(rng.integers(1, 7)), int(rng.integers(1, 12))
        cfg = ModelConfig(vocab=9, d=4, d_h=4, n=n, n_buckets=16, negatives=2, max_time_span=5000)
        lens = rng.integers(1, n + 1, size=b)
        items = np.where(np.arange(n) < lens[:, None], rng.integers(1, cfg.vocab, size=(b, n)), 0)
        ts = np.where(np.arange(n) < lens[:, None], np.cumsum(rng.integers(0, 400, size=(b, n)), axis=1), 0)
        ctx = M.build_attn_context(SequenceBatch(items, ts, lens), cfg)
        assert ctx.at_rows(None) is ctx
        positions = rng.integers(0, lens)
        picked = ctx.at_rows(positions)
        np.testing.assert_array_equal(picked.rows, np.cumsum(lens) - lens + positions)
        np.testing.assert_array_equal(picked.positions, positions)
        # the layout and the maps are the context's own; each tile's buckets a view of its row
        for name in ("first", "lengths", "rel_idx", "max_bucket"):
            assert getattr(picked, name) is getattr(ctx, name)
        for seq, (own, p) in enumerate(zip(picked.tiles, positions)):
            (tile,) = own
            held = ctx.tiles[seq][p // T._TILE_ROWS]
            assert np.shares_memory(tile.buckets, held.buckets)
            np.testing.assert_array_equal(tile.buckets, held.buckets[p - held.pos.start, : p + 1][None])
        x = Tensor(rng.normal(size=(int(lens.sum()), 3)))
        assert ctx.query(x) is x
        np.testing.assert_array_equal(picked.query(x).data, x.data[picked.rows])


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
    shapes = [slot.shape for slot, _ in tape._nodes]
    assert shapes and all(shape[-2:] != (cfg.n, cfg.n) for shape in shapes)


@pytest.mark.parametrize("kind", M.VARIANT_KINDS)
def test_step_rules_capture_no_tensor(kind):
    # a rule keeps the arrays it reads and its inputs' gradient slots, so an
    # op output no rule reads is freed once the model drops it
    cfg = ModelConfig(vocab=20, d=4, d_h=3, heads=2, d_ffn=6, layers=2, n=7, n_buckets=8, negatives=3)
    params = M.init_params(cfg, kind, seed=0)
    with Tape() as tape:
        batch_loss(_step_batch(cfg, 2), params, cfg, np.random.default_rng(0))
    reached, seen = [rule for _, rule in tape._nodes], set()
    for x in reached:  # grows as it goes: closures, lists, tuples and dicts, walked through
        if id(x) not in seen:
            seen.add(id(x))
            if isinstance(x, (list, tuple)):
                reached.extend(x)
            elif isinstance(x, dict):
                reached.extend([*x, *x.values()])
            elif callable(x) and getattr(x, "__closure__", None):
                reached.extend(cell.cell_contents for cell in x.__closure__)
    assert len(reached) > len(tape) and not [x for x in reached if isinstance(x, Tensor)]


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
    assert len(tape) == 55


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


# tiles ---------------------------------------------------------------------------
#
# With three-row tiles at n=11 the last tile is partial, and the padded second
# sequence makes a tile's key range shorter than its last row.

SMALL_TILE, TILED_N = 3, 11


@pytest.fixture
def small_tiles(monkeypatch):
    monkeypatch.setattr(T, "_TILE_ROWS", SMALL_TILE)


def _ops(kind: str, heads: int, ctx: M.AttnContext, batch: SequenceBatch | None = None, cfg: ModelConfig | None = None):
    """(tiled op, its dense transcription), each a function of (q, k, v,
    alpha, beta); the dense SiLU op reads the time buckets of batch under cfg."""
    if kind == "softmax":
        return (
            lambda q, k, v, alpha, beta: T.masked_softmax_attention(q, k, v, ctx, heads),
            lambda q, k, v, alpha, beta: dense_softmax_attention(q, k, v, ctx, heads),
        )
    args = (ctx, 1.0 / TILED_N, kind == "hstu")
    return (
        lambda q, k, v, alpha, beta: T.silu_attention(q, k, v, alpha, beta, *args),
        lambda q, k, v, alpha, beta: dense_silu_attention(q, k, v, alpha, beta, *args, batch.timestamps, cfg),
    )


def _output_and_grads(op, operands, seed: int = 6, weights=None):
    """op's output and the gradient of every operand it reads, for a fixed
    weighting of it: `weights`, or random ones drawn from seed."""
    q, k, v, alpha, beta = operands
    leaves = [q, k, v, *alpha, *beta]
    for t in leaves:
        t.requires_grad, t.grad = True, None
    with Tape() as tape:
        out = op(q, k, v, alpha, beta)
        if weights is None:
            weights = np.random.default_rng(seed).normal(size=out.shape)
        loss = T.mul(out, Tensor(weights)).sum()
    T.backward(loss, tape)
    return [out.data] + [t.grad for t in leaves if t.grad is not None]


def _assert_close(got, want, rel=1e-12):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= rel * np.abs(w).max()


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("kind", ["ams", "hstu", "softmax"])
@pytest.mark.parametrize("path", ["all_rows", "rows"])
def test_tiled_ops_match_dense_transcription(small_tiles, kind, heads, path):
    batch, cfg = _padded_batch(TILED_N, 6, seed=heads)
    ctx = M.build_attn_context(batch, cfg)
    q, k, v, alpha, beta = _operands(heads, ctx, seed=40 + heads)
    if path == "rows":  # one arbitrary query row per sequence, as the ranked position is
        ctx = ctx.at_rows(np.array([7, 1]))  # position 7 of the first sequence, 1 of the second
        q = ctx.query(q)
    tiled, dense = _ops(kind, heads, ctx, batch, cfg)
    operands = (q, k, v, alpha, beta)
    _assert_close(_output_and_grads(tiled, operands), _output_and_grads(dense, operands))


# The tile walk. The lengths are n, 1, 6 (ending on a tile boundary), 4
# (ending inside a tile) and 0.

RULE_LENGTHS = (TILED_N, 1, 6, 4, 0)
RULE_ROWS = np.array([7, 0, 5, 2])  # one valid position per sequence, for the at_rows path


def _rule_context(path: str) -> M.AttnContext:
    if path == "all_rows":
        return _padded_context(TILED_N, 6, seed=0, lengths=RULE_LENGTHS)
    return _padded_context(TILED_N, 6, seed=0, lengths=RULE_LENGTHS[:-1]).at_rows(RULE_ROWS)


@pytest.mark.parametrize("path", ["all_rows", "rows"])
def test_every_query_row_lies_in_exactly_one_tile(small_tiles, path):
    ctx = _rule_context(path)
    rows = int(ctx.lengths.sum()) if path == "all_rows" else len(RULE_ROWS)
    covered = np.zeros(rows, dtype=int)
    for tile in (tile for own in ctx.tiles for tile in own):
        covered[tile.rows] += 1
    np.testing.assert_array_equal(covered, 1)


def test_each_tile_is_a_run_of_one_sequence(small_tiles):
    # every row: each sequence's rows in order, in tiles of SMALL_TILE rows
    # (the last one partial), reading the sequence's first packed rows up to
    # the tile's last query, with a [t, r1] bucket block; a sequence of length
    # 0 has no tile
    def layout(c):
        """Each sequence's tiles as (seq, rows, pos, keys), and their bucket shapes."""
        tiles = [(seq, tile) for seq, own in enumerate(c.tiles) for tile in own]
        assert all(tile.buckets.shape == (tile.pos.stop - tile.pos.start, tile.pos.stop) for _, tile in tiles)
        return [(seq, tile.rows, tile.pos, tile.keys) for seq, tile in tiles]

    ctx = _rule_context("all_rows")
    first = np.cumsum(RULE_LENGTHS) - RULE_LENGTHS
    want = []
    for seq, (f, length) in enumerate(zip(first.tolist(), RULE_LENGTHS)):
        for r0 in range(0, length, SMALL_TILE):
            r1 = min(length, r0 + SMALL_TILE)
            want.append((seq, slice(f + r0, f + r1), slice(r0, r1), slice(f, f + r1)))
    assert layout(ctx) == want
    assert [len(own) for own in ctx.tiles] == [-(-length // SMALL_TILE) for length in RULE_LENGTHS]
    # the ranked rows: one one-row tile per sequence, keys up to its ranked position
    ranked = _rule_context("rows")
    want = [(seq, slice(seq, seq + 1), slice(p, p + 1), slice(f, f + p + 1)) for seq, (f, p) in enumerate(zip(first, RULE_ROWS))]
    assert layout(ranked) == want
    assert [len(own) for own in ranked.tiles] == [1] * len(RULE_ROWS)


@pytest.mark.parametrize("path", ["all_rows", "rows"])
def test_tiles_follow_the_dense_mask(small_tiles, path):
    # random lengths, some of them 0 on the every-row path; on the rows path
    # one drawn position a sequence. Each tile's rows attend every key before
    # its first position and, on its own positions, the causal [t, t] mask
    # the op applies to its last t columns, as the dense layout at its rows
    # has it; its keys hold every key those rows attend.
    for seed in range(8):
        rng = np.random.default_rng(seed)
        lens = rng.integers(0 if path == "all_rows" else 1, TILED_N + 1, size=3)
        ctx = _padded_context(TILED_N, 6, seed=seed, lengths=lens)
        if path == "rows":
            ctx = ctx.at_rows(rng.integers(0, lens))
        allowed = dense_allowed(ctx)
        seen = np.zeros(allowed.shape[:2], dtype=bool)
        for seq, tile in ((seq, tile) for seq, own in enumerate(ctx.tiles) for tile in own):
            assert tile.keys.stop - tile.keys.start == tile.pos.stop <= ctx.lengths[seq]
            t = tile.pos.stop - tile.pos.start
            mask = np.hstack([np.ones((t, tile.pos.start), dtype=bool), np.tri(t, dtype=bool)])
            np.testing.assert_array_equal(mask, allowed[seq, tile.pos, : tile.pos.stop])
            assert not allowed[seq, tile.pos, tile.pos.stop :].any()
            seen[seq, tile.pos] = True
        np.testing.assert_array_equal(seen, allowed.any(axis=-1))  # every query row, and nothing else


def test_context_buckets_only_the_sequences_with_a_valid_row(small_tiles, monkeypatch):
    # one search a tile, over that tile's own [t, r1] gaps: each sequence's
    # tiles in order of position, rows [r0, r1) against keys [0, r1), the last
    # one ending at the sequence's length; a sequence of length 0 has no tile
    # and no search
    batch, cfg = _padded_batch(TILED_N, 6, seed=0, lengths=RULE_LENGTHS)
    M.bucket_edges(cfg)  # found once, before the spy
    searchsorted, bucketed = np.searchsorted, []

    def spy(edges, gaps, side):
        bucketed.append(gaps.shape)
        return searchsorted(edges, gaps, side=side)

    monkeypatch.setattr(np, "searchsorted", spy)
    ctx = M.build_attn_context(batch, cfg)
    monkeypatch.setattr(np, "searchsorted", searchsorted)
    ends = [(r0, min(r0 + SMALL_TILE, length)) for length in RULE_LENGTHS for r0 in range(0, length, SMALL_TILE)]
    assert bucketed == [(r1 - r0, r1) for r0, r1 in ends]
    assert [tile.buckets.shape for own in ctx.tiles for tile in own] == bucketed


def test_at_rows_tiles_are_views_of_the_dense_bucket_rows(small_tiles):
    # three full sequences ranked in their first tile (position 1), a middle
    # one (5) and the last, partial one (10): each one-row tile is row p of
    # the dense bucket map over keys [0, p + 1), a view of its tile's block
    batch, cfg = _padded_batch(TILED_N, 6, seed=3, lengths=[TILED_N] * 3)
    ctx = M.build_attn_context(batch, cfg)
    positions = np.array([1, 5, TILED_N - 1])
    ranked = ctx.at_rows(positions)
    dense = dense_buckets(batch.timestamps, cfg)
    for seq, (own, p) in enumerate(zip(ranked.tiles, positions.tolist())):
        (tile,) = own
        held = ctx.tiles[seq][p // SMALL_TILE]
        assert held.pos.start <= p < held.pos.stop
        assert tile.buckets.base is not None and np.shares_memory(tile.buckets, held.buckets)
        assert (tile.pos, tile.keys.stop - tile.keys.start) == (slice(p, p + 1), p + 1)
        np.testing.assert_array_equal(tile.buckets, dense[seq, p : p + 1, : p + 1])
    assert [p // SMALL_TILE for p in positions] == [0, 1, len(ctx.tiles[0]) - 1]


INDEPENDENT_LENGTHS = (150, 3, 97, 150, 1, 64)  # 64-row tiles, full and partial, and a one-row sequence


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("kind", ["ams", "hstu", "softmax"])
@pytest.mark.parametrize("path", ["all_rows", "rows"])
def test_each_sequence_is_bitwise_what_it_is_alone(kind, heads, path):
    # each sequence's output rows and its q, k and v gradients are bitwise
    # those of a batch that holds that sequence alone, at the same width
    lens = np.array(INDEPENDENT_LENGTHS)
    batch, cfg = _padded_batch(int(lens.max()), 6, seed=heads, lengths=lens)
    ctx = M.build_attn_context(batch, cfg)
    q, k, v, alpha, beta = _operands(heads, ctx, seed=80 + heads)
    ranked = np.random.default_rng(81).integers(0, lens)
    if path == "rows":
        ctx = ctx.at_rows(ranked)
        q = ctx.query(q)
    weights = np.random.default_rng(82).normal(size=(q.shape[0], (3 if kind == "ams" else 1) * q.shape[1]))
    out, dq, dk, dv = _output_and_grads(_ops(kind, heads, ctx)[0], (q, k, v, alpha, beta), weights=weights)[:4]
    for b, (first, length) in enumerate(zip(ctx.first, lens)):
        keys = slice(first, first + length)
        rows = keys if path == "all_rows" else slice(b, b + 1)
        alone = M.build_attn_context(SequenceBatch(batch.items[b : b + 1], batch.timestamps[b : b + 1], lens[b : b + 1]), cfg)
        alone = alone.at_rows(None if path == "all_rows" else ranked[b : b + 1])
        operands = (Tensor(q.data[rows]), Tensor(k.data[keys]), Tensor(v.data[keys]), alpha, beta)
        got = _output_and_grads(_ops(kind, heads, alone)[0], operands, weights=weights[rows])[:4]
        for g, want in zip(got, (out[rows], dq[rows], dk[keys], dv[keys])):
            np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("summed", [False, True], ids=["ams", "hstu"])
def test_silu_attention_grad_check_across_tiles(small_tiles, heads, summed):
    ctx = _padded_context(TILED_N, 6, seed=heads)
    q, k, v, alpha, beta = _operands(heads, ctx, seed=60 + heads)
    channels = 1 if summed else 3
    weights = Tensor(_pack(np.random.default_rng(7).normal(size=(2, TILED_N, channels * q.shape[-1])), ctx))
    err = T.grad_check_params(
        lambda: _silu_loss(q, k, v, alpha, beta, ctx, summed, weights), [q, k, v, *alpha, *beta]
    )
    assert err < 1e-7


@pytest.mark.parametrize("heads", [1, 2])
def test_masked_softmax_attention_grad_check_across_tiles(small_tiles, heads):
    ctx = _padded_context(TILED_N, 6, seed=heads)
    q, k, v, _, _ = _operands(heads, ctx, seed=70 + heads)
    weights = Tensor(_pack(np.random.default_rng(8).normal(size=(2, TILED_N, q.shape[-1])), ctx))
    err = T.grad_check_params(
        lambda: T.mul(T.masked_softmax_attention(q, k, v, ctx, heads), weights).sum(), [q, k, v]
    )
    assert err < 1e-7


@pytest.mark.parametrize("kind", ["ams", "hstu", "softmax"])
def test_op_peak_memory_is_below_one_attention_map(kind):
    # one forward and backward at B=4, n=800; building a head's whole map
    # (and its gradient) took 3.3 maps for AMS and 4.1 for HSTU
    b, n = 4, 800
    cfg = ModelConfig(vocab=64, d=16, d_h=16, n=n, n_buckets=32, negatives=8)
    rng = np.random.default_rng(0)
    items = rng.integers(1, cfg.vocab, size=(b, n))
    ts = np.cumsum(rng.integers(1, 5000, size=(b, n)), axis=1)
    ctx = M.build_attn_context(SequenceBatch(items, ts, np.full(b, n)), cfg)
    q, k, v = (Tensor(rng.normal(size=(b * n, 16)), requires_grad=True) for _ in range(3))  # full rows, packed
    alpha = [Tensor(rng.normal(size=cfg.n_buckets), requires_grad=True)]
    beta = [Tensor(rng.normal(size=n), requires_grad=True)]
    op, _ = _ops(kind, 1, ctx)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = op(q, k, v, alpha, beta).sum()
        T.backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    attention_map = b * n * n * 8
    assert peak < attention_map, f"peak {peak / attention_map:.2f} [B, n, n] float64 arrays"
