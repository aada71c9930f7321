"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Small by design: exactly the operations the FuXi block needs, each with a
hand-written backward rule that grad_check can verify against central
differences. Arrays are numpy float64 throughout; reductions keep numpy's
fixed evaluation order so repeated runs are bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "AttnContext",
    "matmul",
    "silu",
    "relu",
    "rms_norm",
    "logsumexp",
    "concat",
    "take",
    "rows_dot",
    "silu_attention",
    "masked_softmax_attention",
    "backward",
    "grad_check",
    "grad_check_params",
]

# Element budget of one chunk's gathered [rows, k, d] block in rows_dot, so
# scoring large negative-sample blocks keeps peak memory bounded.
_CHUNK_ELEMS = 4_000_000


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tape:
    """Records operations in execution order for one reverse pass.

    Execution order is a topological order, so `backward` replays the node
    list reversed and visits every recorded op exactly once. A tape can be
    consumed by backward() only once.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple["Tensor", Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self._nodes)


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        raise TypeError("tensor division only supports scalars")

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape._nodes.append((out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add g into t's grad. own=True promises g is freshly allocated and not
    aliased anywhere else, so it may be adopted without a defensive copy."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if own else np.array(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced or stretched."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


# elementwise and linear algebra ------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def bwd(g: np.ndarray) -> None:
        ga = _unbroadcast(g, a.shape)
        gb = _unbroadcast(g, b.shape)
        _accumulate(a, ga, own=ga is not g)
        _accumulate(b, gb, own=gb is not g)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.shape), own=True)
        _accumulate(b, _unbroadcast(g * a.data, b.shape), own=True)

    return _record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * c, own=True)

    return _record(out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g: np.ndarray) -> None:
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.shape), own=True)
        _accumulate(b, _unbroadcast(gb, b.shape), own=True)

    return _record(out, (a, b), bwd)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 0.5·(1 + tanh(x/2)) equals 1 / (1 + e^-x) and never overflows; it is
    # built in place in `out` (allocated when not given), with no temporary
    z = np.multiply(x, 0.5, out=out)
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), the gating nonlinearity used throughout the model.

    Only x is kept for the backward pass, which recomputes the sigmoid."""
    out = _sigmoid(x.data)
    out *= x.data
    result = Tensor(out)

    def bwd(g: np.ndarray) -> None:
        # SiLU'(x) = sigmoid(x)·(1 + x·(1 - sigmoid(x)))
        s = _sigmoid(x.data)
        dx = np.subtract(1.0, s)
        dx *= x.data
        dx += 1.0
        dx *= s
        dx *= g
        _accumulate(x, dx, own=True)

    return _record(result, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0.0), own=True)

    return _record(out, (x,), bwd)


def rms_norm(x: Tensor, gain: Tensor | None = None, eps: float = 1e-6) -> Tensor:
    """Row normalization by root-mean-square over the last axis.

    y = x / sqrt(mean(x^2) + eps) * gain. gain=None means a fixed unit gain.
    """
    if eps <= 0:
        raise ValueError("rms_norm: eps must be positive")
    d = x.shape[-1]
    r = np.sqrt(np.mean(x.data * x.data, axis=-1, keepdims=True) + eps)
    normed = x.data / r
    gd = gain.data if gain is not None else None
    out = Tensor(normed * gd if gd is not None else normed)

    def bwd(g: np.ndarray) -> None:
        gg = g * gd if gd is not None else g
        dot = np.sum(gg * x.data, axis=-1, keepdims=True)
        _accumulate(x, gg / r - x.data * (dot / (d * r**3)), own=True)
        if gain is not None:
            _accumulate(gain, _unbroadcast(g * normed, gain.shape), own=True)

    inputs = (x,) if gain is None else (x, gain)
    return _record(out, inputs, bwd)


def _masked_softmax_rows(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of x restricted to `mask`, in place in x."""
    np.copyto(x, -np.inf, where=~mask)
    m = np.max(x, axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    x -= m
    np.exp(x, out=x)  # exactly 0 outside the mask
    z = np.sum(x, axis=-1, keepdims=True)
    return np.divide(x, z, out=x, where=z > 0)


def logsumexp(x: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis, max-shifted for stability."""
    m = np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = np.sum(e, axis=-1, keepdims=True)
    out = Tensor((m + np.log(s)).squeeze(-1))
    p = e / s

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, np.expand_dims(g, -1) * p, own=True)

    return _record(out, (x,), bwd)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(np.sum(x.data, axis=axis, keepdims=keepdims))

    def bwd(g: np.ndarray) -> None:
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.shape))
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(ge, x.shape))

    return _record(out, (x,), bwd)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    return scale(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g.reshape(x.shape))

    return _record(out, (x,), bwd)


def swap_last(x: Tensor) -> Tensor:
    """Transpose the last two axes."""
    out = Tensor(np.swapaxes(x.data, -1, -2))

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, np.swapaxes(g, -1, -2))

    return _record(out, (x,), bwd)


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    widths = [p.shape[axis] for p in parts]

    def bwd(g: np.ndarray) -> None:
        offset = 0
        for p, w in zip(parts, widths):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + w)
            _accumulate(p, g[tuple(idx)])
            offset += w

    return _record(out, tuple(parts), bwd)


# gathers -------------------------------------------------------------------


def _scatter(idx: np.ndarray, column: Callable[[int], np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The gradient a gather through idx sends back to the vector or 2-D
    table of `shape` it read, as a fresh array: column j of row r sums the
    weights column(j) (shaped as idx) at the entries where idx is r.

    One bincount per column is much faster than np.add.at for the
    millions-of-rows scatter the sampled loss produces, and only one
    column's weights exist at a time.
    """
    flat = idx.ravel()
    out = np.empty(shape).reshape(shape[0], -1)
    for j in range(out.shape[1]):
        out[:, j] = np.bincount(flat, weights=column(j).ravel(), minlength=shape[0])
    return out.reshape(shape)


def take(values: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along axis 0 of a vector or a 2-D table: out = values[idx], any idx shape."""
    if values.ndim not in (1, 2):
        raise ShapeError(f"take: values must be a vector or a 2-D table, got {values.shape}")
    out = Tensor(values.data[idx])

    def bwd(g: np.ndarray) -> None:
        cols = g.reshape(idx.size, math.prod(values.shape[1:]))
        _accumulate(values, _scatter(idx, lambda j: cols[:, j], values.shape), own=True)

    return _record(out, (values,), bwd)


def rows_dot(x: Tensor, table: Tensor, idx: np.ndarray) -> Tensor:
    """Score rows of x against gathered table rows without materializing the gather.

    out[p, k] = x[p, :] . table[idx[p, k], :] for x [P, d] and idx [P, K]. Work
    is chunked so peak memory stays bounded even for large candidate counts.
    """
    if table.ndim != 2:
        raise ShapeError(f"rows_dot: table must be 2-D, got {table.shape}")
    if x.ndim != 2 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"rows_dot: index shape {idx.shape} does not match x shape {x.shape}")
    rows, d = x.shape
    k = idx.shape[1]
    scores = np.empty((rows, k))
    chunk = max(1, _CHUNK_ELEMS // max(1, k * d))
    for s in range(0, rows, chunk):
        scores[s : s + chunk] = np.einsum("rd,rkd->rk", x.data[s : s + chunk], table.data[idx[s : s + chunk]])
    out = Tensor(scores)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            gx = np.empty_like(x.data)
            for s in range(0, rows, chunk):
                gx[s : s + chunk] = np.einsum("rk,rkd->rd", g[s : s + chunk], table.data[idx[s : s + chunk]])
            _accumulate(x, gx, own=True)
        if table.requires_grad:
            _accumulate(table, _scatter(idx, lambda j: g * x.data[:, j : j + 1], table.shape), own=True)

    return _record(out, (x, table), bwd)


# fused attention -------------------------------------------------------------
#
# Each head's attention weights are [B, m, n] for m query rows and n keys
# (m = n in training, m = 1 when only the ranked position is wanted). These
# ops never build them whole. Query row i of sequence b attends the keys
# [0, ctx.extent[b, i]). The ops walk the query rows in tiles of _TILE_ROWS
# rows. A tile runs only over the G sequences with a nonzero extent in its
# rows, and for them computes q·kᵀ, the weights, W·V and every gradient over
# keys [0, kend) only, kend being the tile's largest extent, under a
# [G, t, kend] mask built from the extents once per call. That one rule
# skips the causal upper triangle, the padded query rows and trailing
# padding of the batch and the keys a ranked row cannot see; a tile whose
# rows attend nothing is skipped and its outputs and gradients stay zero.
# When the G sequences are consecutive (every tile of a batch of full rows,
# and every tile of a batch in order of length) the tile's operands are
# views of the grids; otherwise they are gathered. A tile's [G, t, kend]
# arrays are views of a float64 workspace allocated once per call and
# reused across tiles and heads. Backward rebuilds the weights from q, k and
# the biases, so nothing of size [B, n, n] stays on the tape. Head h is the
# h-th equal slice of the last axis of q, k and v.
#
# Both ops take their layout from one AttnContext. q, k and v arrive packed:
# q [Tq, w] holds the query rows at the flat positions ctx.queries of the
# [B, m] query grid, k and v [T, w] the keys at the flat positions ctx.keys of
# the [B, n] key grid. The ops lay them out on their grids, zero elsewhere,
# only while they run (a full grid is a view of the packed rows), return their
# output packed as q, and keep only the packed operands on the tape.


@dataclass
class AttnContext:
    """A batch's causal attention layout, shared by every layer and every
    channel, for query i and key j.

    Valid positions are a prefix and attention is causal, so query row i of
    sequence b attends a prefix of the n keys, `extent[b, i]` of them: i + 1
    at a valid position, none at a padded one. Activations are packed: a
    [T, ·] activation holds the batch's T valid positions in row-major order,
    and `keys` names where each sits in the flattened [B, n] key grid. The
    query rows are every packed row (rows=None), or one per sequence after
    `at_rows`.
    """

    extent: np.ndarray      # [B, m] how many keys each query row attends
    n: int                  # width of the key grid
    bucket_idx: np.ndarray  # [B, m, n] time bucket of t_i - t_j (clipped at 0) where j < i, else 0; narrowest unsigned dtype
    rel_idx: np.ndarray     # [m, n], or [B, m, n], index distance i - j (clipped at 0)
    keys: np.ndarray        # [T] flat positions of the packed rows in the [B, n] key grid
    queries: np.ndarray     # flat positions of the query rows in the [B, m] query grid
    rows: np.ndarray | None = None  # packed ids of the query rows among the T; None for every row

    def at_rows(self, positions: np.ndarray | None) -> AttnContext:
        """The context of one query row per sequence, at the valid position
        positions[b] of sequence b: every array becomes [B, 1] or [B, 1, n] and
        `rows` holds the rows' packed ids. positions=None keeps every query row."""
        if positions is None:
            return self
        seq = np.arange(len(positions))
        return AttnContext(
            extent=self.extent[seq, positions, None],
            n=self.n,
            bucket_idx=self.bucket_idx[seq, positions, None],
            rel_idx=self.rel_idx[positions, None],
            keys=self.keys,
            queries=seq,
            rows=np.searchsorted(self.keys, seq * self.n + positions),
        )

    def query(self, x: Tensor) -> Tensor:
        """The query rows of the packed x [T, ·]: x itself, or its rows at `rows`."""
        return x if self.rows is None else take(x, self.rows)


_TILE_ROWS = 64


def _grid(x: np.ndarray, at: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """The packed rows x [T, w] at the flat positions `at` of the grid, as
    grid + [w] with zero rows elsewhere; for a full grid, a view of x."""
    if x.ndim != 2 or x.shape[0] != len(at):
        raise ShapeError(f"packed rows {x.shape} do not match {len(at)} grid positions")
    size = math.prod(grid)
    if len(at) == size:
        return x.reshape(grid + x.shape[1:])
    out = np.zeros((size,) + x.shape[1:])
    out[at] = x
    return out.reshape(grid + x.shape[1:])


def _packed(x: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The rows of the grid array x [..., w] at the flat positions `at`, as
    [T, w]; for a full grid, a view of x."""
    flat = x.reshape(-1, x.shape[-1])
    return flat if len(at) == flat.shape[0] else flat[at]


def _grids(q: Tensor, k: Tensor, v: Tensor, ctx: AttnContext):
    """q on the [B, m] query grid, and k and v on the [B, n] key grid, of ctx."""
    b, m = ctx.extent.shape
    return _grid(q.data, ctx.queries, (b, m)), _grid(k.data, ctx.keys, (b, ctx.n)), _grid(v.data, ctx.keys, (b, ctx.n))


def _head_slices(width: int, heads: int) -> list[slice]:
    d_h = width // heads
    return [slice(h * d_h, (h + 1) * d_h) for h in range(heads)]


class _Tile(NamedTuple):
    seqs: slice | np.ndarray  # the G sequences with a nonzero extent in the tile's rows
    rows: slice               # the tile's query rows
    kend: int                 # the largest extent of those rows
    mask: np.ndarray          # [G, t, kend] bool: row i of sequence b attends key j


def consecutive(idx: np.ndarray) -> slice | np.ndarray:
    """The ascending indices idx as a slice when they are consecutive, so
    that indexing by them gives views; else idx itself."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _tiles(extent: np.ndarray) -> list[_Tile]:
    """Every tile of query rows that attends some key, over its live sequences only."""
    m = extent.shape[1]
    tiles = []
    for r0 in range(0, m, _TILE_ROWS):
        rows = slice(r0, min(m, r0 + _TILE_ROWS))
        reach = extent[:, rows].max(axis=1)  # [B]: the most keys any of sequence b's rows attends
        kend = int(reach.max(initial=0))
        if kend:
            seqs = consecutive(np.flatnonzero(reach))
            tiles.append(_Tile(seqs, rows, kend, np.arange(kend) < extent[seqs, rows, None]))
    return tiles


def _at(x: np.ndarray, tile: _Tile) -> np.ndarray:
    """The tile's entries of a [B, m, n] map, or of an [m, n] map shared by every sequence."""
    return x[tile.rows, : tile.kend] if x.ndim == 2 else x[tile.seqs, tile.rows, : tile.kend]


def _workspace(ctx: AttnContext, slots: int) -> Callable[[int, tuple[int, ...]], np.ndarray]:
    """view(slot, shape): float64 workspace slot `slot`, allocated here for
    the largest tile, shaped as a tile's weight maps.

    Each slot is its own array, not a slice of one block: glibc raises its
    mmap and trim thresholds to the largest block freed, and with one block
    the heap kept about 20 MB more at eval_serve's peak in half the runs.
    """
    b, m = ctx.extent.shape
    bufs = [np.empty(b * min(m, _TILE_ROWS) * ctx.n) for _ in range(slots)]

    def view(slot: int, shape: tuple[int, ...]) -> np.ndarray:
        return bufs[slot][: math.prod(shape)].reshape(shape)

    return view


def _swapped_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """aᵀ·b over the last two axes."""
    return np.matmul(np.swapaxes(a, -1, -2), b)


def _gather(bias: Tensor, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """bias[idx], written to the start of the workspace view buf (idx may lack its leading axes).

    The indices are in range by construction; mode="clip" lets np.take write
    straight into buf, where the default mode would go through a buffer.
    """
    return np.take(bias.data, idx, out=buf.reshape(-1)[: idx.size].reshape(idx.shape), mode="clip")


def _bias_grad(bias: Tensor, idx: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """The gradient of the bias vector that a weight map gathered through idx, given the map's gradient dw."""
    if idx.ndim < dw.ndim:  # one index map shared by every sequence
        dw = dw.sum(axis=tuple(range(dw.ndim - idx.ndim)))
    return _scatter(idx, lambda j: dw, bias.shape)


def silu_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    alpha: Sequence[Tensor],
    beta: Sequence[Tensor],
    ctx: AttnContext,
    inv_n: float,
    summed: bool,
) -> Tensor:
    """Causal SiLU attention with learned time and position biases, one head per alpha.

    Head h weighs value j at query i by the semantic score SiLU(q_i·k_j)·inv_n,
    the position bias beta[h][ctx.rel_idx[i, j]] and the time bias
    alpha[h][ctx.bucket_idx[b, i, j]], each zero on keys j >= ctx.extent[b, i].
    summed=False applies the three to V separately and returns the channels
    [semantic | positional | temporal]; summed=True applies their sum and
    returns one channel. Heads are concatenated within each channel. q, k and
    v are packed as ctx lays out (see above); the output is packed as q.
    """
    qg, kg, vg = _grids(q, k, v, ctx)
    width = v.shape[-1]
    head_cols = _head_slices(width, len(alpha))
    out_shape = qg.shape[:-1] + (1 if summed else 3, width)
    out = np.zeros(out_shape)
    view = _workspace(ctx, slots=2)
    for tile in _tiles(ctx.extent):
        seqs, rows, kend, mask = tile
        bucket, rel = _at(ctx.bucket_idx, tile), _at(ctx.rel_idx, tile)
        for h, cols in enumerate(head_cols):
            qt, kt, vt = qg[seqs, rows, cols], kg[seqs, :kend, cols], vg[seqs, :kend, cols]
            s = np.matmul(qt, np.swapaxes(kt, -1, -2), out=view(0, mask.shape))
            s *= _sigmoid(s, view(1, mask.shape))
            s *= inv_n
            if summed:
                s += _gather(alpha[h], bucket, view(1, mask.shape))
                s += _gather(beta[h], rel, view(1, mask.shape))
            s *= mask
            out[seqs, rows, 0, cols] = np.matmul(s, vt)
            if not summed:
                for c, bias, idx in ((1, beta[h], rel), (2, alpha[h], bucket)):
                    np.multiply(_gather(bias, idx, view(1, mask.shape)), mask, out=s)
                    out[seqs, rows, c, cols] = np.matmul(s, vt)
    result = Tensor(_packed(out.reshape(qg.shape[:-1] + (-1,)), ctx.queries))

    def bwd(g: np.ndarray) -> None:
        qg, kg, vg = _grids(q, k, v, ctx)
        g = _grid(g, ctx.queries, qg.shape[:-1]).reshape(out_shape)
        dq, dk, dv = np.zeros(qg.shape), np.zeros(kg.shape), np.zeros(vg.shape)
        d_alpha, d_beta = [np.zeros(a.shape) for a in alpha], [np.zeros(be.shape) for be in beta]
        view = _workspace(ctx, slots=4)
        for tile in _tiles(ctx.extent):
            seqs, rows, kend, mask = tile
            bucket, rel = _at(ctx.bucket_idx, tile), _at(ctx.rel_idx, tile)
            for a, be, da, db, cols in zip(alpha, beta, d_alpha, d_beta, head_cols):
                qt, kt, vt = qg[seqs, rows, cols], kg[seqs, :kend, cols], vg[seqs, :kend, cols]
                g_sem, *g_bias = (g[seqs, rows, c, cols] for c in range(out_shape[-2]))
                dv_t = dv[seqs, :kend, cols]  # a view, or a copy written back below

                def weight_grad(gw: np.ndarray) -> np.ndarray:
                    """Gradient of a masked weight map whose output's gradient is gw, in slot 0."""
                    dw = np.matmul(gw, np.swapaxes(vt, -1, -2), out=view(0, mask.shape))
                    dw *= mask
                    return dw

                if not summed:  # temporal, positional, then semantic, as a tape replay would
                    g_pos, g_tmp = g_bias
                    for bias, idx, gb, grad in ((a, bucket, g_tmp, da), (be, rel, g_pos, db)):
                        w = np.multiply(_gather(bias, idx, view(3, mask.shape)), mask, out=view(0, mask.shape))
                        dv_t += _swapped_matmul(w, gb)
                        if bias.requires_grad:
                            grad += _bias_grad(bias, idx, weight_grad(gb))
                s = np.matmul(qt, np.swapaxes(kt, -1, -2), out=view(0, mask.shape))
                sig = _sigmoid(s, view(1, mask.shape))
                w = np.multiply(s, sig, out=view(2, mask.shape))
                w *= inv_n
                if summed:
                    w += _gather(a, bucket, view(3, mask.shape))
                    w += _gather(be, rel, view(3, mask.shape))
                w *= mask
                dv_t += _swapped_matmul(w, g_sem)
                # w becomes SiLU'(s) = sigmoid(s)·(1 + s·(1 - sigmoid(s)))
                np.subtract(1.0, sig, out=w)
                w *= s
                w += 1.0
                w *= sig
                ds = weight_grad(g_sem)  # overwrites s
                if summed:
                    if a.requires_grad:
                        da += _bias_grad(a, bucket, ds)
                    if be.requires_grad:
                        db += _bias_grad(be, rel, ds)
                ds *= inv_n
                ds *= w
                dq[seqs, rows, cols] = np.matmul(ds, kt)
                dk[seqs, :kend, cols] += _swapped_matmul(ds, qt)
                if not isinstance(seqs, slice):
                    dv[seqs, :kend, cols] = dv_t
        for bias, grad in zip((*alpha, *beta), (*d_alpha, *d_beta)):
            _accumulate(bias, grad, own=True)
        _accumulate(q, _packed(dq, ctx.queries), own=True)
        _accumulate(k, _packed(dk, ctx.keys), own=True)
        _accumulate(v, _packed(dv, ctx.keys), own=True)

    return _record(result, (q, k, v, *alpha, *beta), bwd)


def masked_softmax_attention(q: Tensor, k: Tensor, v: Tensor, ctx: AttnContext, heads: int) -> Tensor:
    """Multi-head scaled dot-product softmax attention over each query row's
    keys [0, ctx.extent[b, i]).

    Head h's weights are the softmax of q_h·k_hᵀ / sqrt(d_h) over those keys,
    zero elsewhere and in a row that attends none; its output is those
    weights times v_h, and the heads are concatenated. q, k and v are packed
    as ctx lays out (see above); the output is packed as q.
    """
    qg, kg, vg = _grids(q, k, v, ctx)
    head_cols = _head_slices(v.shape[-1], heads)
    inv_sqrt = 1.0 / np.sqrt(v.shape[-1] // heads)

    def weights(qg: np.ndarray, kg: np.ndarray, tile: _Tile, cols: slice, out: np.ndarray) -> np.ndarray:
        seqs, rows, kend, mask = tile
        s = np.matmul(qg[seqs, rows, cols], np.swapaxes(kg[seqs, :kend, cols], -1, -2), out=out)
        s *= inv_sqrt
        return _masked_softmax_rows(s, mask)

    out = np.zeros(qg.shape[:-1] + v.shape[-1:])
    view = _workspace(ctx, slots=1)
    for tile in _tiles(ctx.extent):
        seqs, rows, kend, mask = tile
        for cols in head_cols:
            p = weights(qg, kg, tile, cols, view(0, mask.shape))
            out[seqs, rows, cols] = np.matmul(p, vg[seqs, :kend, cols])
    result = Tensor(_packed(out, ctx.queries))

    def bwd(g: np.ndarray) -> None:
        qg, kg, vg = _grids(q, k, v, ctx)
        g = _grid(g, ctx.queries, qg.shape[:-1])
        dq, dk, dv = np.zeros(qg.shape), np.zeros(kg.shape), np.zeros(vg.shape)
        view = _workspace(ctx, slots=3)
        for tile in _tiles(ctx.extent):
            seqs, rows, kend, mask = tile
            for cols in head_cols:
                gh = g[seqs, rows, cols]
                p = weights(qg, kg, tile, cols, view(0, mask.shape))
                dv[seqs, :kend, cols] += _swapped_matmul(p, gh)
                ds = np.matmul(gh, np.swapaxes(vg[seqs, :kend, cols], -1, -2), out=view(1, mask.shape))
                ds -= np.sum(np.multiply(ds, p, out=view(2, mask.shape)), axis=-1, keepdims=True)
                ds *= p
                ds *= inv_sqrt
                dq[seqs, rows, cols] = np.matmul(ds, kg[seqs, :kend, cols])
                dk[seqs, :kend, cols] += _swapped_matmul(ds, qg[seqs, rows, cols])
        _accumulate(q, _packed(dq, ctx.queries), own=True)
        _accumulate(k, _packed(dk, ctx.keys), own=True)
        _accumulate(v, _packed(dv, ctx.keys), own=True)

    return _record(result, (q, k, v), bwd)


# reverse pass ---------------------------------------------------------------


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate grads of every requires_grad leaf reachable from loss.

    loss must be a scalar recorded on `tape`; a tape can be consumed once.
    Gradients of intermediate results are not kept.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if tape._consumed:
        raise RuntimeError("backward: tape already consumed; build a fresh tape")
    if loss.tape is not tape:
        raise RuntimeError("backward: loss was not produced on this tape")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    while nodes:
        # Each node is dropped once replayed, and its output's gradient once
        # passed on, so the arrays they hold are freed as the pass proceeds.
        out, bwd = nodes.pop()
        g, out.grad = out.grad, None
        if g is not None:
            bwd(g)


# gradient checking ----------------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, fd_step: float = 1e-5) -> float:
    """Max relative error of the analytic gradient of scalar f against central differences."""
    return grad_check_params(lambda: f(x), [x], fd_step)


def grad_check_params(f: Callable[[], Tensor], params: Sequence[Tensor], fd_step: float = 1e-5) -> float:
    if not (0.0 < fd_step <= 1e-3):
        raise ValueError("grad_check: fd_step must lie in (0, 1e-3]")
    saved_flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = True
        p.grad = None
    try:
        with Tape() as tape:
            loss = f()
        if loss.data.size != 1:
            raise ValueError(f"grad_check: f must be scalar-valued, got shape {loss.shape}")
        backward(loss, tape)
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    finally:
        for p, flag in zip(params, saved_flags):
            p.requires_grad = flag
            p.grad = None

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.ravel()
        gflat = ga.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd_step
            fp = f().item()
            flat[i] = orig - fd_step
            fm = f().item()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * fd_step)
            err = abs(gflat[i] - fd) / max(1.0, abs(fd))
            if err > worst:
                worst = err
    return worst
