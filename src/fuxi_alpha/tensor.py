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


def _silu_grad(x: np.ndarray, sig: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """SiLU'(x) = sigmoid(x)·(1 + x·(1 - sigmoid(x))) from x and its sigmoid
    sig, built in `out` (allocated when not given)."""
    d = np.subtract(1.0, sig, out=out)
    d *= x
    d += 1.0
    d *= sig
    return d


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), the gating nonlinearity used throughout the model.

    Only x is kept for the backward pass, which recomputes the sigmoid."""
    out = _sigmoid(x.data)
    out *= x.data
    result = Tensor(out)

    def bwd(g: np.ndarray) -> None:
        dx = _silu_grad(x.data, _sigmoid(x.data))
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
# silu_attention and masked_softmax_attention are one tiled op, _attention,
# over a list of channels (_Channel): AMS is [semantic | positional |
# temporal], HSTU [semantic + temporal + positional] and softmax attention
# [softmax]. A channel's weight maps are [B, m, n] per head for m query rows
# and n keys (m = n in training, m = 1 when only the ranked position is
# wanted); the op never builds them whole. Query row i of sequence b attends
# the keys [0, ctx.extent[b, i]). The op walks the query rows in tiles of
# _TILE_ROWS rows. A tile runs only over the G sequences with a nonzero
# extent in its rows, and for them computes q·kᵀ, the weights, W·V and every
# gradient over keys [0, kend) only, kend being the tile's largest extent,
# under a [G, t, kend] mask built from the extents once per call. That one
# rule skips the causal upper triangle, the padded query rows and trailing
# padding of the batch and the keys a ranked row cannot see; a tile whose
# rows attend nothing is skipped and its outputs and gradients stay zero.
# When the G sequences are consecutive (every tile of a batch of full rows,
# and every tile of a batch in order of length) the tile's operands are
# views of the grids; otherwise they are gathered. A tile's [G, t, kend]
# arrays are views of a float64 workspace allocated once per call and
# reused across tiles, heads and channels. Backward rebuilds each map with
# the code forward ran (_weights), replaying the channels in reverse as a
# tape would, so nothing of size [B, n, n] stays on the tape. Head h is the
# h-th equal slice of the last axis of q, k and v, and the heads are
# concatenated within each channel of the output.
#
# The op takes its layout from one AttnContext. q, k and v arrive packed:
# q [Tq, w] holds the query rows at the flat positions ctx.queries of the
# [B, m] query grid, k and v [T, w] the keys at the flat positions ctx.keys of
# the [B, n] key grid. The op lays them out on their grids, zero elsewhere,
# only while it runs (a full grid is a view of the packed rows), returns its
# output packed as q, and keeps only the packed operands on the tape.


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


def _workspace(ctx: AttnContext, slots: int) -> Callable[[tuple[int, ...]], list[np.ndarray]]:
    """views(shape): a tile's four workspace slots, views shaped `shape` of
    `slots` float64 arrays allocated here for the largest tile, slot i on
    array i modulo `slots`: forward applies each map once built, so two
    arrays serve it, slots 2 and 3 falling on 0 and 1 (see _weights). Each
    array is its own allocation, not a slice of one block: glibc raises its
    mmap and trim thresholds to the largest block freed, and with one block
    the heap kept about 20 MB more at eval_serve's peak in half the runs."""
    b, m = ctx.extent.shape
    bufs = [np.empty(b * min(m, _TILE_ROWS) * ctx.n) for _ in range(slots)]

    def views(shape: tuple[int, ...]) -> list[np.ndarray]:
        size = math.prod(shape)
        return [bufs[slot % slots][:size].reshape(shape) for slot in range(4)]

    return views


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


class _Channel(NamedTuple):
    """One output channel of _attention. Head h's weight map, zero on keys
    the query row does not attend, is SiLU(q·kᵀ)·scale plus each bias term
    in order (score "silu"), the softmax of q·kᵀ·scale over the attended
    keys ("softmax"), or the one bias term (None). A bias term (vectors,
    index map) is vectors[h] gathered through a [B, m, n] map or an [m, n]
    map shared by every sequence."""

    score: str | None
    scale: float = 1.0
    biases: tuple[tuple[Sequence[Tensor], np.ndarray], ...] = ()


def _weights(ch: _Channel, biases, h: int, mask: np.ndarray, qt: np.ndarray, kt: np.ndarray, ws) -> np.ndarray:
    """Head h's weight map of channel ch on a tile with the given mask, from
    the tile's q and k rows qt and kt and the channel's bias terms cut to the
    tile; forward and backward both build it here. Of the workspace slots
    ws, the score stays in slot 0 and its sigmoid in slot 1, the map is in
    slot 0 (softmax) or 2, and a gathered bias passes through slot 3."""
    if ch.score is None:
        ((bias, idx),) = biases
        return np.multiply(_gather(bias[h], idx, ws[3]), mask, out=ws[2])
    s = np.matmul(qt, np.swapaxes(kt, -1, -2), out=ws[0])
    if ch.score == "softmax":
        s *= ch.scale
        return _masked_softmax_rows(s, mask)
    w = np.multiply(s, _sigmoid(s, ws[1]), out=ws[2])
    w *= ch.scale
    for bias, idx in biases:
        w += _gather(bias[h], idx, ws[3])
    w *= mask
    return w


def _attention(q: Tensor, k: Tensor, v: Tensor, ctx: AttnContext, heads: int, channels: Sequence[_Channel]) -> Tensor:
    """The tiled op behind both attention ops (see above): output channel c
    holds, heads concatenated, each head's channels[c] weight map times v."""
    if any(x.ndim != 2 for x in (q, k, v)) or not q.shape[1] == k.shape[1] == v.shape[1]:
        raise ShapeError(f"attention: q, k and v must be packed rows of one width, got {q.shape}, {k.shape}, {v.shape}")
    width = v.shape[1]
    if heads < 1 or width % heads:
        raise ShapeError(f"attention: width {width} does not split into {heads} heads")
    terms = [bias for ch in channels for bias, _ in ch.biases]
    if any(len(bias) != heads for bias in terms):
        raise ShapeError(f"attention: {heads} heads need {heads} vectors per bias, got {[len(bias) for bias in terms]}")
    qg, kg, vg = _grids(q, k, v, ctx)
    d_h = width // heads
    head_cols = [slice(h * d_h, (h + 1) * d_h) for h in range(heads)]
    out_shape = qg.shape[:-1] + (len(channels), width)
    out = np.zeros(out_shape)
    views = _workspace(ctx, slots=2)
    for tile in _tiles(ctx.extent):
        seqs, rows, kend, mask = tile
        tiled = [[(bias, _at(idx, tile)) for bias, idx in ch.biases] for ch in channels]
        ws = views(mask.shape)
        for h, cols in enumerate(head_cols):
            qt, kt, vt = qg[seqs, rows, cols], kg[seqs, :kend, cols], vg[seqs, :kend, cols]
            for c, ch in enumerate(channels):
                w = _weights(ch, tiled[c], h, mask, qt, kt, ws)
                out[seqs, rows, c, cols] = np.matmul(w, vt)
    result = Tensor(_packed(out.reshape(qg.shape[:-1] + (-1,)), ctx.queries))

    def bwd(g: np.ndarray) -> None:
        qg, kg, vg = _grids(q, k, v, ctx)
        g = _grid(g, ctx.queries, qg.shape[:-1]).reshape(out_shape)
        dq, dk, dv = np.zeros(qg.shape), np.zeros(kg.shape), np.zeros(vg.shape)
        d_bias = {t: np.zeros(t.shape) for bias in terms for t in bias if t.requires_grad}
        views = _workspace(ctx, slots=4)
        for tile in _tiles(ctx.extent):
            seqs, rows, kend, mask = tile
            tiled = [[(bias, _at(idx, tile)) for bias, idx in ch.biases] for ch in channels]
            ws = views(mask.shape)
            for h, cols in enumerate(head_cols):
                qt, kt, vt = qg[seqs, rows, cols], kg[seqs, :kend, cols], vg[seqs, :kend, cols]
                dv_t = dv[seqs, :kend, cols]  # a view, or a copy written back below
                for c in reversed(range(len(channels))):  # as a tape replay would
                    ch, gc = channels[c], g[seqs, rows, c, cols]
                    w = _weights(ch, tiled[c], h, mask, qt, kt, ws)
                    dv_t += _swapped_matmul(w, gc)
                    grads = [(d_bias[bias[h]], bias[h], idx) for bias, idx in tiled[c] if bias[h] in d_bias]
                    if ch.score is None and not grads:  # frozen biases need no weight gradient
                        continue
                    dw = np.matmul(gc, np.swapaxes(vt, -1, -2), out=ws[3])
                    if ch.score == "softmax":
                        dw -= np.sum(np.multiply(dw, w, out=ws[2]), axis=-1, keepdims=True)
                        dw *= w
                    else:
                        dw *= mask
                    for grad, bias, idx in grads:
                        grad += _bias_grad(bias, idx, dw)
                    if ch.score is not None:
                        dw *= ch.scale
                        if ch.score == "silu":
                            dw *= _silu_grad(ws[0], ws[1], out=ws[2])
                        dq[seqs, rows, cols] = np.matmul(dw, kt)  # one score channel a list
                        dk[seqs, :kend, cols] += _swapped_matmul(dw, qt)
                if not isinstance(seqs, slice):
                    dv[seqs, :kend, cols] = dv_t
        for bias, grad in d_bias.items():
            _accumulate(bias, grad, own=True)
        _accumulate(q, _packed(dq, ctx.queries), own=True)
        _accumulate(k, _packed(dk, ctx.keys), own=True)
        _accumulate(v, _packed(dv, ctx.keys), own=True)

    return _record(result, (q, k, v, *(t for bias in terms for t in bias)), bwd)


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
    temporal, positional = (alpha, ctx.bucket_idx), (beta, ctx.rel_idx)
    if summed:  # HSTU
        channels = [_Channel("silu", inv_n, (temporal, positional))]
    else:  # AMS
        channels = [_Channel("silu", inv_n), _Channel(None, biases=(positional,)), _Channel(None, biases=(temporal,))]
    return _attention(q, k, v, ctx, len(alpha), channels)


def masked_softmax_attention(q: Tensor, k: Tensor, v: Tensor, ctx: AttnContext, heads: int) -> Tensor:
    """Multi-head scaled dot-product softmax attention over each query row's
    keys [0, ctx.extent[b, i]).

    Head h's weights are the softmax of q_h·k_hᵀ / sqrt(d_h) over those keys,
    zero elsewhere and in a row that attends none; its output is those
    weights times v_h, and the heads are concatenated. q, k and v are packed
    as ctx lays out (see above); the output is packed as q.
    """
    return _attention(q, k, v, ctx, heads, [_Channel("softmax", 1.0 / np.sqrt(v.shape[-1] // heads))])


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
