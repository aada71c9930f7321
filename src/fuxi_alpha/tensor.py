"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Small by design: exactly the operations the FuXi block needs, each with a
hand-written backward rule that grad_check can verify against central
differences. Arrays are numpy float64 throughout; reductions keep numpy's
fixed evaluation order so repeated runs are bitwise identical.

A training step's memory is what the tape keeps alive, so the tape keeps
only what backward reads. Each tensor has a gradient slot (grad,
requires_grad, tape and shape, never the data); the tape records the output
slot and the backward rule of every op, and a rule captures its inputs'
slots and the arrays it reads; the only Tensors a rule reaches are
attention's bias parameters. An op output that no rule reads, such as a
projection fed only to a residual add or the scores fed to the loss's
concat, is freed as soon as the model drops it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
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

# Element budget of rows_dot's gathered [rows, k, d] scratch block, 512 KB of
# 8-byte entries, so the block is still in cache when the next pass reads it.
# It sizes a scratch block, not an op's memory.
_CHUNK_ELEMS = 1 << 16


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tape:
    """Records operations in execution order for one reverse pass.

    Each node is an op's output slot and its backward rule. The tape holds
    no Tensor and no output array: the arrays backward reads live in the
    rules' closures, each rule keeping only what its formula reads (matmul
    and mul their operands, silu, relu and rows_dot their inputs, rms_norm
    its input and row scales, logsumexp its probabilities, attention q, k
    and v), and add, scale, reshape, swap_last, concat, sum and take keep
    no activation (take only its index array).

    Execution order is a topological order, so `backward` replays the node
    list reversed and visits every recorded op exactly once. A tape can be
    consumed by backward() only once.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[_Slot, Callable[[np.ndarray], None]]] = []
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


class _Slot:
    """What the tape and the backward rules keep of a tensor: its gradient,
    whether it wants one, the tape that recorded it and its shape."""

    __slots__ = ("grad", "requires_grad", "tape", "shape")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tape: Tape | None = None
        self.shape: tuple[int, ...] = ()


def _through(name: str) -> property:
    """A Tensor attribute read and written through to its slot."""
    return property(lambda t: getattr(t.slot, name), lambda t, value: setattr(t.slot, name, value))


class Tensor:
    """A dense float64 array plus its gradient slot."""

    __slots__ = ("_data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        self.slot = _Slot(bool(requires_grad))
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self.slot.shape = value.shape  # kept true when a parameter's array is replaced

    grad = _through("grad")
    requires_grad = _through("requires_grad")
    tape = _through("tape")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.slot.shape

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


def _record(out: Tensor, inputs: Sequence[_Slot | Tensor], backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Put out's slot and its backward rule on the active tape if an input
    wants a gradient. The rule must capture no op output (see Tape): each
    op rebinds its input names to their slots before defining its rule."""
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.tape = tape
        tape._nodes.append((out.slot, backward_fn))
    return out


def _accumulate(t: _Slot | Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add g into the grad of slot (or tensor) t. own=True promises g is
    freshly allocated and not aliased anywhere else, so it may be adopted
    without a defensive copy."""
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
    a, b = a.slot, b.slot

    def bwd(g: np.ndarray) -> None:
        ga = _unbroadcast(g, a.shape)
        gb = _unbroadcast(g, b.shape)
        _accumulate(a, ga, own=ga is not g)
        _accumulate(b, gb, own=gb is not g)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    a, b = a.slot, b.slot

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * bd, a.shape), own=True)
        _accumulate(b, _unbroadcast(g * ad, b.shape), own=True)

    return _record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)
    a = a.slot

    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * c, own=True)

    return _record(out, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))
    ad, bd = a.data, b.data
    a, b = a.slot, b.slot

    def bwd(g: np.ndarray) -> None:
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
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
    x, xd = x.slot, x.data
    out = _sigmoid(xd)
    out *= xd
    result = Tensor(out)

    def bwd(g: np.ndarray) -> None:
        dx = _silu_grad(xd, _sigmoid(xd))
        dx *= g
        _accumulate(x, dx, own=True)

    return _record(result, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    x, xd = x.slot, x.data

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g * (xd > 0.0), own=True)

    return _record(out, (x,), bwd)


def rms_norm(x: Tensor, gain: Tensor | None = None, eps: float = 1e-6) -> Tensor:
    """Row normalization by root-mean-square over the last axis.

    y = x / sqrt(mean(x^2) + eps) * gain. gain=None means a fixed unit gain.
    """
    if eps <= 0:
        raise ValueError("rms_norm: eps must be positive")
    d = x.shape[-1]
    xd, gd = x.data, gain.data if gain is not None else None
    r = np.sqrt(np.mean(xd * xd, axis=-1, keepdims=True) + eps)
    out = xd / r
    if gd is not None:
        out *= gd
    inputs = (x,) if gain is None else (x, gain)
    x, gain = x.slot, gain.slot if gain is not None else None

    def bwd(g: np.ndarray) -> None:
        gg = g * gd if gd is not None else g
        dot = np.sum(gg * xd, axis=-1, keepdims=True)
        _accumulate(x, gg / r - xd * (dot / (d * r**3)), own=True)
        if gain is not None:  # x / r again, rather than a second [.., d] array kept from forward
            _accumulate(gain, _unbroadcast(g * (xd / r), gain.shape), own=True)

    return _record(Tensor(out), inputs, bwd)


def _masked_softmax_rows(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of the 2-D x, in place in x, restricted in
    its last len(mask) columns to `mask`; every row keeps at least one entry."""
    np.copyto(x[:, -len(mask) :], -np.inf, where=~mask)
    x -= np.max(x, axis=-1, keepdims=True)
    np.exp(x, out=x)  # exactly 0 outside the mask
    x /= np.sum(x, axis=-1, keepdims=True)
    return x


def logsumexp(x: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis, max-shifted for stability."""
    m = np.max(x.data, axis=-1, keepdims=True)
    p = x.data - m
    np.exp(p, out=p)
    s = np.sum(p, axis=-1, keepdims=True)
    out = Tensor((m + np.log(s)).squeeze(-1))
    p /= s  # the probabilities, the one array the rule keeps
    x = x.slot

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, np.expand_dims(g, -1) * p, own=True)

    return _record(out, (x,), bwd)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(np.sum(x.data, axis=axis, keepdims=keepdims))
    x = x.slot

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
    x = x.slot

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, g.reshape(x.shape))

    return _record(out, (x,), bwd)


def swap_last(x: Tensor) -> Tensor:
    """Transpose the last two axes."""
    out = Tensor(np.swapaxes(x.data, -1, -2))
    x = x.slot

    def bwd(g: np.ndarray) -> None:
        _accumulate(x, np.swapaxes(g, -1, -2))

    return _record(out, (x,), bwd)


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    widths = [p.shape[axis] for p in parts]
    parts = [p.slot for p in parts]

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
    values = values.slot

    def bwd(g: np.ndarray) -> None:
        cols = g.reshape(idx.size, math.prod(values.shape[1:]))
        _accumulate(values, _scatter(idx, lambda j: cols[:, j], values.shape), own=True)

    return _record(out, (values,), bwd)


def rows_dot(x: Tensor, table: Tensor, idx: np.ndarray) -> Tensor:
    """Score rows of x against gathered table rows without materializing the gather.

    out[p, k] = x[p, :] . table[idx[p, k], :] for x [P, d] and idx [P, K]. The
    gather goes in chunks of rows of at most _CHUNK_ELEMS elements; a row's
    result does not depend on the chunking.
    """
    if table.ndim != 2:
        raise ShapeError(f"rows_dot: table must be 2-D, got {table.shape}")
    if x.ndim != 2 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"rows_dot: index shape {idx.shape} does not match x shape {x.shape}")
    rows, d = x.shape
    k = idx.shape[1]
    xd, td = x.data, table.data
    x, table = x.slot, table.slot
    scores = np.empty((rows, k))
    chunk = max(1, _CHUNK_ELEMS // max(1, k * d))
    for s in range(0, rows, chunk):
        scores[s : s + chunk] = np.einsum("rd,rkd->rk", xd[s : s + chunk], td[idx[s : s + chunk]])
    out = Tensor(scores)

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            gx = np.empty_like(xd)
            for s in range(0, rows, chunk):
                gx[s : s + chunk] = np.einsum("rk,rkd->rd", g[s : s + chunk], td[idx[s : s + chunk]])
            _accumulate(x, gx, own=True)
        if table.requires_grad:
            _accumulate(table, _scatter(idx, lambda j: g * xd[:, j : j + 1], table.shape), own=True)

    return _record(out, (x, table), bwd)


# fused attention -------------------------------------------------------------
#
# silu_attention and masked_softmax_attention are one tiled op, _attention,
# over a list of channels (_Channel): AMS is [semantic | positional |
# temporal], HSTU [semantic + temporal + positional] and softmax attention
# [softmax]. q, k and v arrive packed, one row per valid position, each
# sequence's rows consecutive from its first packed row (AttnContext); q
# holds every row, or one per sequence after `at_rows`. The query at
# position i of a sequence attends that sequence's keys [0, i], so
# AttnContext.build cuts each sequence's query rows into tiles (_Tile) of up
# to _TILE_ROWS rows, once per batch: a tile of positions [r0, r1) reads the
# sequence's first r1 key rows, its q, k and v are slices of the packed
# arrays, and it owns its [t, r1] time buckets. All its rows attend every key
# before r0, so the causal mask covers only the last t columns. Forward and
# backward walk the same tiles and heads, and for each head and channel
# compute q·kᵀ, the weight map, W·V and every gradient, written in place to
# the packed output, dq, dk and dv. The tile's [t, r1] arrays are views of a
# float64 workspace allocated once per call for the largest tile. Backward
# rebuilds each map with the code forward ran (_weights), replaying the
# channels in reverse as a tape would, so no weight map stays on the tape.
# Head h is the h-th equal slice of the last axis of q, k and v, and the
# heads are concatenated within each channel of the output.

_TILE_ROWS = 64


class _Tile(NamedTuple):
    rows: slice          # the tile's query rows, packed
    pos: slice           # their positions [r0, r1) in the sequence
    keys: slice          # the sequence's first r1 packed rows, every key the rows attend
    buckets: np.ndarray  # [t, r1] time bucket of t_i - t_j at query i and key j (0 where j > i), narrowest uint


@functools.lru_cache(maxsize=None)
def _distances(n: int) -> np.ndarray:
    """[n, n] index distance i - j, clipped at 0; read-only, built once per model width."""
    pos = np.arange(n, dtype=np.min_scalar_type(-n))
    rel = np.maximum(np.subtract.outer(pos, pos), 0)
    rel.flags.writeable = False
    return rel


@dataclass
class AttnContext:
    """A batch's causal attention layout, shared by every layer and every
    channel, for query i and key j.

    Activations are packed: a [T, ·] activation holds the batch's T valid
    positions in row-major order, so sequence b's positions are the packed
    rows [first[b], first[b] + lengths[b]). Valid positions are a prefix and
    attention is causal: the query at position i attends the sequence's keys
    [0, i]. The query rows are every packed row (positions=None), or one per
    sequence, at positions[b], after `at_rows`; each lies in one tile.
    """

    first: np.ndarray         # [B] each sequence's first packed row
    lengths: np.ndarray       # [B] each sequence's valid positions
    tiles: list[list[_Tile]]  # [B] each sequence's tiles of query rows, in order of position
    rel_idx: np.ndarray       # [n, n] index distance i - j (clipped at 0), read-only
    max_bucket: int           # the largest time bucket a tile reads
    positions: np.ndarray | None = None  # [B] the one query position of each sequence; None for every row

    @classmethod
    def build(cls, lengths: np.ndarray, timestamps: np.ndarray, edges: np.ndarray, n: int) -> AttnContext:
        """Every valid position of the int64 [B, width] `timestamps` a query row,
        in tiles of up to _TILE_ROWS rows. A tile's buckets of t_i - t_j are the
        count of `edges` after edges[0] it reaches (0 if key j > query i), from one
        search over its own gaps; rel_idx is a cut of the model width n's map."""
        width, narrow, cuts = timestamps.shape[1], np.min_scalar_type(len(edges) - 1), edges[1:]
        first, tiles, top = np.cumsum(lengths) - lengths, [], 0
        for f, length, ts in zip(first.tolist(), lengths.tolist(), timestamps):
            tiles.append([])
            for r0 in range(0, length, _TILE_ROWS):
                r1 = min(r0 + _TILE_ROWS, length)
                buckets = np.searchsorted(cuts, ts[r0:r1, None] - ts[None, :r1], side="right").astype(narrow)
                top = max(top, int(buckets[-1, 0]))  # a tile's largest: last row, key 0
                tiles[-1].append(_Tile(slice(f + r0, f + r1), slice(r0, r1), slice(f, f + r1), buckets))
        return cls(first, lengths, tiles, _distances(max(width, n))[:width, :width], top)

    @property
    def rows(self) -> np.ndarray | None:
        """The packed ids of the query rows among the T; None for every row."""
        return None if self.positions is None else self.first + self.positions

    def at_rows(self, positions: np.ndarray | None) -> AttnContext:
        """The every-row context narrowed to one query row per sequence, at
        valid position p = positions[b] of sequence b: row p alone of the tile
        holding p, over keys [0, p + 1). positions=None keeps every query row."""
        if positions is None:
            return self
        tiles = []
        for seq, p in enumerate(positions.tolist()):
            tile = self.tiles[seq][p // _TILE_ROWS]
            row, keys = p - tile.pos.start, slice(tile.keys.start, tile.keys.start + p + 1)
            tiles.append([_Tile(slice(seq, seq + 1), slice(p, p + 1), keys, tile.buckets[row : row + 1, : p + 1])])
        return replace(self, tiles=tiles, positions=positions)

    def query(self, x: Tensor) -> Tensor:
        """The query rows of the packed x [T, ·]: x itself, or its rows at `rows`."""
        return x if self.positions is None else take(x, self.rows)


def _workspace(tiles: list[_Tile], slots: int) -> Callable[[tuple[int, ...]], list[np.ndarray]]:
    """views(shape): a tile's four workspace slots, views shaped `shape` of
    `slots` float64 arrays allocated here for the largest tile, slot i on
    array i modulo `slots`: forward applies each map once built, so two
    arrays serve it, slots 2 and 3 falling on 0 and 1 (see _weights). Each
    array is its own allocation, not a slice of one block: glibc raises its
    mmap and trim thresholds to the largest block freed, and with one block
    the heap kept about 20 MB more at eval_serve's peak in half the runs."""
    size = max(((t.pos.stop - t.pos.start) * t.pos.stop for t in tiles), default=0)
    bufs = [np.empty(size) for _ in range(slots)]

    def views(shape: tuple[int, ...]) -> list[np.ndarray]:
        size = math.prod(shape)
        return [bufs[slot % slots][:size].reshape(shape) for slot in range(4)]

    return views


def _gather(bias: Tensor, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """bias[idx], written to the workspace view buf of idx's shape.

    The indices are in range by construction; mode="clip" lets np.take write
    straight into buf, where the default mode would go through a buffer.
    """
    return np.take(bias.data, idx, out=buf, mode="clip")


class _Channel(NamedTuple):
    """One output channel of _attention. Head h's weight map, zero on keys
    the query row does not attend, is SiLU(q·kᵀ)·scale plus each bias term
    in order (score "silu"), the softmax of q·kᵀ·scale over the attended
    keys ("softmax"), or the one bias term (None). A bias term (vectors,
    index) is vectors[h] gathered through index(tile), the tile's [t, r1]
    index map."""

    score: str | None
    scale: float = 1.0
    biases: tuple[tuple[Sequence[Tensor], Callable[[_Tile], np.ndarray]], ...] = ()


def _weights(ch: _Channel, biases, h: int, mask: np.ndarray, qt: np.ndarray, kt: np.ndarray, ws) -> np.ndarray:
    """Head h's weight map of channel ch on a tile, from the tile's q and k
    rows qt and kt and the channel's bias terms cut to the tile; forward and
    backward both build it here. mask is the causal mask of the map's last t
    columns, the only keys a row may not attend. Of the workspace slots ws,
    the score stays in slot 0 and its sigmoid in slot 1, the map is in slot
    0 (softmax) or 2, and a gathered bias passes through slot 3."""
    if ch.score is None:
        ((bias, idx),) = biases
        w = _gather(bias[h], idx, ws[2])
    else:
        s = np.matmul(qt, kt.T, out=ws[0])
        if ch.score == "softmax":
            s *= ch.scale
            return _masked_softmax_rows(s, mask)
        w = np.multiply(s, _sigmoid(s, ws[1]), out=ws[2])
        w *= ch.scale
        for bias, idx in biases:
            w += _gather(bias[h], idx, ws[3])
    w[:, -len(mask) :] *= mask
    return w


def _attention(q: Tensor, k: Tensor, v: Tensor, ctx: AttnContext, heads: int, channels: Sequence[_Channel]) -> Tensor:
    """The tiled op behind both attention ops (see above): output channel c
    holds, heads concatenated, each head's channels[c] weight map times v."""
    if any(x.ndim != 2 for x in (q, k, v)) or not q.shape[1] == k.shape[1] == v.shape[1]:
        raise ShapeError(f"attention: q, k and v must be packed rows of one width, got {q.shape}, {k.shape}, {v.shape}")
    keys = int(ctx.lengths.sum())
    queries = keys if ctx.positions is None else len(ctx.positions)
    if q.shape[0] != queries or k.shape[0] != keys or v.shape[0] != keys:
        raise ShapeError(
            f"attention: the context has {queries} query rows and {keys} keys, got q, k and v of {q.shape[0]}, "
            f"{k.shape[0]} and {v.shape[0]} rows"
        )
    width = v.shape[1]
    if heads < 1 or width % heads:
        raise ShapeError(f"attention: width {width} does not split into {heads} heads")
    terms = [bias for ch in channels for bias, _ in ch.biases]
    if any(len(bias) != heads for bias in terms):
        raise ShapeError(f"attention: {heads} heads need {heads} vectors per bias, got {[len(bias) for bias in terms]}")
    qd, kd, vd = q.data, k.data, v.data
    inputs = (q, k, v, *(t for bias in terms for t in bias))
    q, k, v = q.slot, k.slot, v.slot

    def walk(slots: int):
        """Each tile and head: the tile, the causal mask on its own positions, the
        bias terms cut to it, its workspace slots, the head, its columns and q, k, v."""
        tiles, d_h = [tile for own in ctx.tiles for tile in own], width // heads
        causal = np.tri(max((len(t.buckets) for t in tiles), default=0), dtype=bool)  # key j <= query i
        views = _workspace(tiles, slots)
        for tile in tiles:
            mask = causal[: len(tile.buckets), : len(tile.buckets)]
            tiled = [[(bias, index(tile)) for bias, index in ch.biases] for ch in channels]
            ws = views(tile.buckets.shape)
            for h in range(heads):
                cols = slice(h * d_h, (h + 1) * d_h)
                yield tile, mask, tiled, ws, h, cols, qd[tile.rows, cols], kd[tile.keys, cols], vd[tile.keys, cols]

    out = np.empty((queries, len(channels), width))  # every query row lies in one tile
    for tile, mask, tiled, ws, h, cols, qt, kt, vt in walk(slots=2):
        for c, ch in enumerate(channels):
            out[tile.rows, c, cols] = np.matmul(_weights(ch, tiled[c], h, mask, qt, kt, ws), vt)
    result = Tensor(out.reshape(queries, -1))

    def bwd(g: np.ndarray) -> None:
        g = g.reshape(queries, len(channels), width)
        dq, dk, dv = np.empty(q.shape), np.zeros(k.shape), np.zeros(v.shape)
        d_bias = {t: np.zeros(t.shape) for bias in terms for t in bias if t.requires_grad}
        for tile, mask, tiled, ws, h, cols, qt, kt, vt in walk(slots=4):
            for c in reversed(range(len(channels))):  # as a tape replay would
                ch, gc = channels[c], g[tile.rows, c, cols]
                w = _weights(ch, tiled[c], h, mask, qt, kt, ws)
                dv[tile.keys, cols] += w.T @ gc
                grads = [(d_bias[bias[h]], idx) for bias, idx in tiled[c] if bias[h] in d_bias]
                if ch.score is None and not grads:  # frozen biases need no weight gradient
                    continue
                dw = np.matmul(gc, vt.T, out=ws[3])
                if ch.score == "softmax":
                    dw -= np.sum(np.multiply(dw, w, out=ws[2]), axis=-1, keepdims=True)
                    dw *= w
                else:
                    dw[:, -len(mask) :] *= mask
                for grad, idx in grads:
                    grad += _scatter(idx, lambda j: dw, grad.shape)
                if ch.score is not None:
                    dw *= ch.scale
                    if ch.score == "silu":
                        dw *= _silu_grad(ws[0], ws[1], out=ws[2])
                    dq[tile.rows, cols] = dw @ kt  # one score channel a list
                    dk[tile.keys, cols] += dw.T @ qt
        for bias, grad in d_bias.items():
            _accumulate(bias, grad, own=True)
        _accumulate(q, dq, own=True)
        _accumulate(k, dk, own=True)
        _accumulate(v, dv, own=True)

    return _record(result, inputs, bwd)


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

    Head h weighs value j at query i of sequence b by the semantic score
    SiLU(q_i·k_j)·inv_n, the position bias beta[h][ctx.rel_idx[i, j]] and the
    time bias alpha[h] at the bucket of t_i - t_j (its tile's `buckets`),
    over the sequence's keys [0, i] and zero elsewhere. summed=False applies
    the three to V separately and returns the channels [semantic | positional
    | temporal]; summed=True applies their sum and returns one channel. Heads
    are concatenated within each channel. q, k and v are packed as ctx lays
    out (see above); the output is packed as q.
    """
    # the largest index each bias is read at: the context's largest bucket,
    # and the longest sequence's last position
    for name, vectors, top in (("alpha", alpha, ctx.max_bucket), ("beta", beta, int(ctx.lengths.max(initial=1)) - 1)):
        if any(t.shape[0] <= top for t in vectors):
            sizes = [t.shape[0] for t in vectors]
            raise ShapeError(f"silu_attention: {name} vectors of {sizes} entries are read at index {top}")
    temporal = (alpha, lambda tile: tile.buckets)
    positional = (beta, lambda tile: ctx.rel_idx[tile.pos, : tile.pos.stop])
    if summed:  # HSTU
        channels = [_Channel("silu", inv_n, (temporal, positional))]
    else:  # AMS
        channels = [_Channel("silu", inv_n), _Channel(None, biases=(positional,)), _Channel(None, biases=(temporal,))]
    return _attention(q, k, v, ctx, len(alpha), channels)


def masked_softmax_attention(q: Tensor, k: Tensor, v: Tensor, ctx: AttnContext, heads: int) -> Tensor:
    """Multi-head scaled dot-product softmax attention of the query at
    position i over its sequence's keys [0, i].

    Head h's weights are the softmax of q_h·k_hᵀ / sqrt(d_h) over those keys,
    zero elsewhere; its output is those weights times v_h, and the heads are
    concatenated. q, k and v are packed as ctx lays out (see above); the
    output is packed as q.
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
        # passed on, so the arrays its rule keeps are freed as the pass proceeds.
        slot, bwd = nodes.pop()
        g, slot.grad = slot.grad, None
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
