"""Reverse-mode automatic differentiation over numpy arrays.

Ops build a define-by-run graph: each result records its parent tensors and one
vector-Jacobian closure per parent. ``tape`` linearizes the graph reachable
from an output into topological order; ``backward`` walks that tape in reverse,
accumulating gradients additively (so a tensor used twice gets both
contributions). Every op that computes new values checks its result for
NaN/Inf and fails loudly, naming the op, instead of letting poison propagate.
Ops that only move or negate values already screened (neg, transpose,
reshape, concat, slice_rows) skip that check.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigError, NumericsError, ShapeError
from .threads import drop, helper, in_halves

Array = np.ndarray
TensorLike = Union["Tensor", Array, float, int]


class Tensor:
    """One node of the recorded computation graph.

    ``values`` is a float64 array written by the op that produced the node.
    Leaf values may be updated in place between tapes (the optimizer does),
    but never while a tape that read them is still to be replayed.
    """

    __slots__ = ("values", "parents", "vjps", "op", "grad")

    def __init__(
        self,
        values,
        parents: Sequence["Tensor"] = (),
        vjps: Sequence[Callable[[Array], Array]] = (),
        op: str = "leaf",
        screen: bool = True,
    ):
        arr = np.asarray(values, dtype=np.float64)
        # NaN/Inf both poison a sum, so one reduction screens the whole array.
        # A finite array can only trip this by overflowing the sum itself,
        # which needs magnitudes near 1e308; raising on that is fine too.
        if screen and not math.isfinite(np.add.reduce(arr, axis=None)):
            raise NumericsError(f"{op} produced non-finite values")
        self.values = arr
        self.parents = parents if type(parents) is tuple else tuple(parents)
        self.vjps = vjps if type(vjps) is tuple else tuple(vjps)
        self.op = op
        self.grad: Optional[Array] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    # Arithmetic sugar; non-tensors are wrapped as constants.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __neg__(self):
        return neg(self)


def _wrap(x: TensorLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values
    return Tensor(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.values.shape),
            lambda g: _unbroadcast(g, b.values.shape),
        ),
        op="add",
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.values - b.values
    return Tensor(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.values.shape),
            lambda g: _unbroadcast(-g, b.values.shape),
        ),
        op="sub",
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values
    return Tensor(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.values, a.values.shape),
            lambda g: _unbroadcast(g * a.values, b.values.shape),
        ),
        op="mul",
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.values / b.values
    return Tensor(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g / b.values, a.values.shape),
            lambda g: _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape),
        ),
        op="div",
    )


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.values, (a,), (lambda g: -g,), op="neg", screen=False)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands, or of a matrix and a vector, batched over 3-D stacks.

    A 3-D operand is a stack of matrices; the other operand is either a stack
    of the same depth or one 2-D matrix broadcast against every layer (its
    gradient is summed back over the stack). A 1-D operand may only stand on
    the right of a 2-D one.
    """
    av, bv = a.values, b.values
    batched = av.ndim == 3 or bv.ndim == 3
    if av.ndim not in (2, 3) or bv.ndim not in ((2, 3) if batched else (1, 2)):
        raise ShapeError(
            f"matmul takes 2-D @ 2-D, 2-D @ 1-D or 2-D/3-D stacks, got {av.ndim}-D @ {bv.ndim}-D"
        )
    if av.shape[-1] != bv.shape[-2 if bv.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dimensions differ: {av.shape} @ {bv.shape}")
    if av.ndim == 3 and bv.ndim == 3 and av.shape[0] != bv.shape[0]:
        raise ShapeError(f"matmul stack depths differ: {av.shape} @ {bv.shape}")
    if batched and bv.size < av.size and not bv.flags.c_contiguous:
        # a strided right operand smaller than the left one (a transposed view)
        # costs the product more than one copy of it: the GAT's (8, 800, 100) @
        # (8, 100, 2) logit fold took 0.81 ms on the view and 0.30 ms with the
        # copy, on one thread. The copy holds the same values.
        bv = np.ascontiguousarray(bv)
    out = np.matmul(av, bv)

    if batched:
        vjp_a = lambda g: _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)
        vjp_b = lambda g: _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)
    elif bv.ndim == 2:
        vjp_a = lambda g: np.matmul(g, bv.T)
        if bv.flags.f_contiguous and not bv.flags.c_contiguous:
            # b is a transposed view (x @ transpose(w)): return the gradient
            # in b's layout, so transpose hands w a C-ordered gradient that
            # adds to w's other gradients at full speed.
            vjp_b = lambda g: np.matmul(g.T, av).T
        else:
            vjp_b = lambda g: np.matmul(av.T, g)
    else:  # 2-D @ 1-D
        vjp_a = lambda g: np.outer(g, bv)
        vjp_b = lambda g: np.matmul(av.T, g)
    return Tensor(out, (a, b), (vjp_a, vjp_b), op="matmul")


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute axes; without ``axes``, swap the two axes of a 2-D tensor."""
    if axes is None:
        if a.ndim != 2:
            raise ShapeError(f"transpose expects a 2-D tensor, got shape {a.shape}")
        return Tensor(a.values.T, (a,), (lambda g: g.T,), op="transpose", screen=False)
    axes = tuple(int(i) for i in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation for shape {a.shape}")
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return Tensor(
        a.values.transpose(axes), (a,), (lambda g: g.transpose(inverse),), op="transpose",
        screen=False,
    )


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    original = a.values.shape
    try:
        out = a.values.reshape(tuple(shape))
    except ValueError:
        raise ShapeError(f"cannot reshape {original} to {tuple(shape)}") from None
    return Tensor(out, (a,), (lambda g: g.reshape(original),), op="reshape", screen=False)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    try:
        out = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p.values.shape[axis])

    def make_vjp(i: int):
        lo, hi = offsets[i], offsets[i + 1]
        def vjp(g: Array) -> Array:
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]
        return vjp

    vjps = tuple(make_vjp(i) for i in range(len(parts)))
    return Tensor(out, tuple(parts), vjps, op="concat", screen=False)


class _RowScatter:
    """The slice_rows VJP. Called, it returns a fresh dense gradient; ``add_into``
    adds the same row sums into a gradient ``backward`` owns, at the gathered rows only."""

    __slots__ = ("idx", "n")

    def __init__(self, idx: Array, n: int):
        self.idx, self.n = idx, n

    def __call__(self, g: Array) -> Array:
        return _segment_rows(g, self.idx, self.n)

    def add_into(self, out: Array, g: Array) -> None:
        rows, sums = _segment_runs(g, self.idx, self.n)
        out[rows] += sums


def slice_rows(a: Tensor, indices) -> Tensor:
    """Gather along axis 0. Duplicate indices accumulate gradient additively."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"slice_rows expects a flat index list, got shape {idx.shape}")
    n = a.values.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"slice_rows index out of range for axis of length {n}")
    out = a.values[idx]
    return Tensor(out, (a,), (_RowScatter(idx, n),), op="slice_rows", screen=False)


def segment_sum(x: Tensor, seg, n: int) -> Tensor:
    """Sum rows into ``n`` segments: row s of the result adds every x[i] with seg[i] == s.

    ``seg`` holds one id in [0, n) per row of ``x``; a segment no row names
    comes out zero. The gradient is the row gather g[seg].
    """
    ids = np.asarray(seg, dtype=np.intp)
    if x.ndim < 1 or ids.shape != x.shape[:1]:
        raise ShapeError(f"segment_sum needs one id per row, got {ids.shape} ids for {x.shape}")
    return Tensor(_segment_rows(x.values, ids, n), (x,), (lambda g: g[ids],), op="segment_sum")


def edge_sum(z: Tensor, alpha: Tensor, src, dst, n: int) -> Tensor:
    """Row i of the result adds alpha[e] * z[src[e]] over the edges e with dst[e] == i.

    ``z`` is (N, ..., d) and ``alpha`` (E, ..., 1): one weight per edge and
    middle index (a head, say). A 2-D ``z`` (N, d) under an ``alpha`` of
    three or more axes is shared: every middle index weighs the same rows,
    and the result is (n, ..., d).
    Edges may come in any order, and a repeated edge adds its weights. The
    edges are cut into dense blocks (:func:`_edge_blocks`); each block's
    weights are scattered into a (heads, rows, columns) array and multiplied
    by its z rows, so no (E, ..., d) edge block is formed. The z gradient is
    block.T @ g and the alpha gradient is g @ z.T read at the edges, block by
    block.
    """
    s, t = np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    zv, av = z.values, alpha.values
    shared = zv.ndim == 2 and av.ndim > 2
    middle = av.shape[1:-1] if shared else zv.shape[1:-1]
    if s.ndim != 1 or t.shape != s.shape or zv.ndim < 2 or av.shape != s.shape + middle + (1,):
        raise ShapeError(f"edge_sum: z {zv.shape}, alpha {av.shape}, src {s.shape}, dst {t.shape}")
    m, d = len(zv), zv.shape[-1]
    # read as unsigned, a negative index is huge, so one max checks both ends
    if s.size and np.maximum.reduce(s.view(np.uintp)) >= m:
        raise ShapeError(f"edge_sum source out of range for {m} rows")
    if t.size and np.maximum.reduce(t.view(np.uintp)) >= n:
        raise ShapeError(f"edge_sum destination out of range for {n} rows")
    heads = math.prod(middle)
    zk = zv if shared else zv.reshape(m, heads, d)
    order, blocks = _edge_blocks(s, t, n, m, heads, d)
    w = av.reshape(len(s), heads)
    if order is not None:
        w = w[order]

    def vjp_z(g: Array) -> Array:
        gh, out = g.reshape(n, heads, d), np.zeros(zk.shape)
        for rows, cols, edges, cells in blocks:
            block = _dense_block(w[edges], cells, rows, cols)
            if shared:  # every head's rows add into the same z rows: one product
                out[cols] += block.reshape(-1, block.shape[2]).T @ _stacked(gh[rows])
            else:
                _put(out, cols, block.transpose(0, 2, 1), gh[rows].transpose(1, 0, 2))
        return out.reshape(zv.shape)

    def vjp_alpha(g: Array) -> Array:
        gh, out = g.reshape(n, heads, d), np.empty((len(s), heads))
        for rows, cols, edges, cells in blocks:
            if shared:
                scores = _stacked(gh[rows]) @ zk[cols].T
            else:
                scores = np.matmul(gh[rows].transpose(1, 0, 2), zk[cols].transpose(1, 2, 0))
            out[edges] = scores.reshape(-1)[cells].T
        if order is not None:
            out[order] = out.copy()
        return out.reshape(av.shape)

    out = np.zeros((n, heads, d))
    for rows, cols, edges, cells in blocks:
        block = _dense_block(w[edges], cells, rows, cols)
        if shared:
            product = block.reshape(-1, block.shape[2]) @ zk[cols]
            out[rows] += product.reshape(heads, -1, d).transpose(1, 0, 2)
        else:
            _put(out, rows, block, zk[cols].transpose(1, 0, 2))
    return Tensor(out.reshape((n,) + middle + (d,)), (z, alpha), (vjp_z, vjp_alpha), op="edge_sum")


def _stacked(g: Array) -> Array:
    """A (rows, heads, d) gradient as one (heads * rows, d) matrix, head-major."""
    return g.transpose(1, 0, 2).reshape(-1, g.shape[2])


def _put(target: Array, index, a: Array, b: Array) -> None:
    """Add a @ b, a (heads, rows, d) stack, into the (rows, heads, d) target at ``index``."""
    target[index] += np.matmul(a, b).transpose(1, 0, 2)


def _count(index) -> int:
    return index.stop - index.start if type(index) is slice else len(index)


def _dense_block(w: Array, cells: Array, rows, cols) -> Array:
    """Scatter-add the (e, heads) edge weights at their (heads, e) cells into (heads, rows, cols)."""
    shape = (w.shape[1], _count(rows), _count(cols))
    return np.bincount(cells.reshape(-1), w.T.reshape(-1), math.prod(shape)).reshape(shape)


def _block(rows, cols, edges: slice, cells: Array, heads: int) -> tuple:
    """A block whose edge e sits at cells[e] of each head's (rows, cols) plane; its
    cells become (heads, e) positions in the flat (heads, rows, cols) array."""
    return rows, cols, edges, cells + _count(rows) * _count(cols) * np.arange(heads)[:, None]


# The largest dense edge block, in entries (heads x rows x columns) of a block
# whose z rows are at most EDGE_WIDTH wide: 512 KB. A wider block is charged
# its multiply-adds, entries x width, against the same EDGE_BLOCK x EDGE_WIDTH,
# so the zeros a merge adds cost no more at width 800 than at 100; a narrower
# block is bound by scattering its entries, not by multiplying them.
# Neighbouring graphs share a block up to this size, and a graph over it is cut
# into row tiles. Merged blocks hold zeros between their graphs, and tiles cost
# more calls than one block. Measured on one thread of a 2-vCPU host, seed-1
# bench corpus, paper sizes (8 heads, d=100), budgets 2^14 / 2^16 / 2^18 / 2^19:
# - full-size batches (128 cases, prefix lengths 1-3), the GGNN's and both GAT
#   layers' calls, forward and both VJPs, min of 5: 526 / 553 / 693 / 1,058 ms;
# - the forwards of a serve layer-1 GAT over 53 graphs of 90+ nodes:
#   51 / 61 / 39 / 32 ms, and over 71 graphs of 40-89 nodes: 40 / 15 / 17 / 13 ms.
# Graphs of up to 90 nodes, most of serve's, are one block at 2^16.
EDGE_BLOCK = 1 << 16
EDGE_WIDTH = 100


def _edge_blocks(src: Array, dst: Array, n: int, m: int, heads: int, width: int = 1):
    """The dense blocks of an edge list over ``n`` result rows and ``m`` z rows.

    Returns (order, blocks). ``order`` sorts the edges by destination, or is
    None when they need no sort. Each block is (rows, cols, edges, cells):
    its result rows and z rows, each a slice or an ascending index array; a
    slice of the sorted edges; and each edge's cell in the flat
    (heads, rows, cols) block, one row per head. Edges are cut where every edge before the cut reads
    lower z rows than every edge after it; graphs laid end to end separate
    there. Neighbouring pieces share a block while it holds at most
    ``budget`` entries (EDGE_BLOCK, scaled down for z rows wider than
    EDGE_WIDTH), and a piece over it becomes row tiles whose columns
    are the tile's distinct sources. Result rows of different blocks never
    overlap; z rows overlap only between tiles, whose gradients add.
    """
    budget = EDGE_BLOCK * EDGE_WIDTH // max(width, EDGE_WIDTH)
    e = len(src)
    if heads * n * m <= budget:  # the whole call is one block, in any edge order
        return None, [_block(slice(0, n), slice(0, m), slice(0, e), dst * m + src, heads)]
    if e == 0:
        return None, []
    order = None
    if np.minimum.reduce(dst[1:] - dst[:-1], initial=0) < 0:
        order = np.argsort(dst, kind="stable")
        src, dst = src[order], dst[order]
    lo = np.minimum.accumulate(src[::-1])[::-1]  # the lowest source at or after each edge
    hi = np.maximum.accumulate(src)              # the highest source up to each edge
    cut = np.flatnonzero((dst[:-1] < dst[1:]) & (hi[:-1] < lo[1:])) + 1
    first, end = np.concatenate(([0], cut)), np.concatenate((cut, [e]))
    r0, r1 = dst[first].tolist(), (dst[end - 1] + 1).tolist()
    c0, c1 = lo[first].tolist(), (hi[end - 1] + 1).tolist()
    first, end = first.tolist(), end.tolist()
    size = lambda i, j: heads * (r1[j] - r0[i]) * (c1[j] - c0[i])  # pieces i..j as one block
    blocks, i = [], 0
    while i < len(first):
        j = i
        while j + 1 < len(first) and size(i, j + 1) <= budget:
            j += 1
        if size(i, j) <= budget:
            edges = slice(first[i], end[j])
            cells = (dst[edges] - r0[i]) * (c1[j] - c0[i]) + (src[edges] - c0[i])
            blocks.append(_block(slice(r0[i], r1[j]), slice(c0[i], c1[j]), edges, cells, heads))
        else:
            blocks += _row_tiles(src, dst, first[i], end[i], heads, budget)
        i = j + 1
    return order, blocks


def _row_tiles(src: Array, dst: Array, a: int, b: int, heads: int, budget: int) -> list:
    """Blocks over the dst-sorted edges a..b, each the same number of whole rows,
    with the tile's distinct sources as its columns.

    A tile of r rows reads at most C sources, C being the piece's width, and
    about r * degree of them, degree being its mean edges a row; r is the
    most rows for which either count keeps the tile within ``budget`` entries,
    so the tiles of a sparse piece stay linear in its edges.
    """
    starts = np.flatnonzero(np.diff(dst[a:b], prepend=-1))  # each row's first edge
    width = int(src[a:b].max() - src[a:b].min()) + 1
    budget //= heads
    per_tile = max(budget // width, math.isqrt(budget * len(starts) // (b - a)), 1)
    cuts = starts[::per_tile].tolist() + [b - a]
    tiles = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        edges = slice(a + lo, a + hi)
        rows, r = np.unique(dst[edges], return_inverse=True)
        cols, c = np.unique(src[edges], return_inverse=True)
        tiles.append(_block(rows, cols, edges, r * len(cols) + c, heads))
    return tiles


def _segment_rows(x: Array, ids: Array, n: int) -> Array:
    """The scatter-add behind segment_sum and the slice_rows gradient."""
    rows, sums = _segment_runs(x, ids, n)
    if len(rows) == n:  # every segment is present, in order
        return sums
    out = np.zeros((n,) + x.shape[1:])
    out[rows] = sums
    return out


def _segment_runs(x: Array, ids: Array, n: int) -> tuple[Array, Array]:
    """The ids present, ascending, and for each the sum of the rows of x that name it.

    A stable sort (skipped when the ids already ascend) groups equal ids into
    runs, and each run is added up in row order, so results are deterministic.
    """
    if ids.size == 0:
        return ids, x[:0]
    step = ids[1:] - ids[:-1]
    if step.size and np.minimum.reduce(step) < 0:
        order = np.argsort(ids, kind="stable")
        ids, x = ids[order], x[order]
        step = ids[1:] - ids[:-1]
    if ids[0] < 0 or ids[-1] >= n:
        raise ShapeError(f"segment id out of range for {n} segments")
    starts = np.concatenate(([1], step)).nonzero()[0]
    return ids[starts], _run_sums(x, starts)


# np.add.reduceat makes one inner-loop call per run and column, which on wide
# rows costs several times a row-wise add: summing 500 rows of 800 values into
# 120 runs takes 4.2 ms with it and 0.7 ms rank by rank. The rank loop has a
# fixed cost (a sort and two scatters) that loses below REDUCEAT_MAX_SIZE
# values, and one Python-level step per rank, so it also needs each step to
# move at least RANK_BLOCK_MIN_SIZE values on average.
REDUCEAT_MAX_SIZE = 1 << 14
RANK_BLOCK_MIN_SIZE = 1 << 10


def _run_sums(x: Array, starts: Array) -> Array:
    """Sum each run of rows x[starts[s]:starts[s + 1]] (the last run ends at len(x)).

    Small inputs and inputs with a few long runs go to np.add.reduceat.
    Otherwise the runs are taken longest first: row r of every run longer
    than r is then one gather, added onto the first rows with one in-place add
    per rank, so every run is summed in row order.
    """
    if x.size <= REDUCEAT_MAX_SIZE:
        return np.add.reduceat(x, starts, axis=0)
    lengths = np.diff(starts, append=len(x))
    if lengths.max() * RANK_BLOCK_MIN_SIZE > x.size:
        return np.add.reduceat(x, starts, axis=0)
    longest_first = np.argsort(-lengths, kind="stable")
    first_rows = starts[longest_first]
    sums = x[first_rows]
    longer_than = len(starts) - np.cumsum(np.bincount(lengths))
    for rank in range(1, len(longer_than) - 1):
        longer = longer_than[rank]
        sums[:longer] += x[first_rows[:longer] + rank]
    out = np.empty_like(sums)
    out[longest_first] = sums
    return out


def sigmoid(a: Tensor) -> Tensor:
    v = a.values
    e = np.abs(v, out=np.empty_like(v))  # an array even for 0-d input, so the rest is in place
    np.negative(e, out=e)
    np.exp(e, out=e)
    # the numerator, 1 where v >= 0 else e <= 1, as a max: np.where's values without its branch
    out = np.greater_equal(v, 0.0, out=np.empty_like(v))
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return Tensor(out, (a,), (lambda g: g * out * (1.0 - out),), op="sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return Tensor(out, (a,), (lambda g: g * (1.0 - out * out),), op="tanh")


def edge_softmax(scores: Tensor, src, dst, out, n: int, slope: float = 0.2) -> Tensor:
    """GAT attention, (E, H, 1), from (N, 2, H) self and peer scores, as one tape node.

    Edge e's logit is leaky_relu(self score of dst[e] + peer score of src[e])
    by the select formula: numpy's max (min for slope > 1) of v and slope * v,
    which gives slope * v at v = +-0. Each result row ``out[e]``, ascending
    below ``n``, takes a softmax over its edges, shifted by its largest logit.
    Value and gradient are bit-identical to the chain slice_rows, add, leaky_relu,
    sub, exp, segment_sum, slice_rows, div: the VJP repeats its backward in order.
    """
    sv = scores.values
    s, t, o = (np.asarray(i, dtype=np.intp) for i in (src, dst, out))
    if (sv.ndim != 3 or sv.shape[1] != 2 or s.ndim != 1 or not s.size
            or not s.shape == t.shape == o.shape
            or np.maximum.reduce(np.concatenate((s, t)).view(np.uintp)) >= len(sv)  # negatives too
            or o[0] < 0 or o[-1] >= n or np.minimum.reduce(o[1:] - o[:-1], initial=0) < 0):
        raise ShapeError(f"edge_softmax takes (N, 2, H) scores, got {sv.shape}, and E >= 1 "
                         f"edges whose rows are in range and whose out rows ascend below {n}")
    v = sv[t, 0] + sv[s, 1]  # (E, H)
    e = (np.maximum if slope <= 1 else np.minimum)(v, slope * v)
    if not math.isfinite(np.add.reduce(e, axis=None)):  # finite logits give weights in [0, 1]
        raise NumericsError("edge_softmax produced non-finite values")
    first = np.concatenate(([True], o[1:] != o[:-1]))
    starts, run = first.nonzero()[0], np.cumsum(first) - 1  # a row's first edge; an edge's row
    w = np.exp(e - np.maximum.reduceat(e, starts, axis=0)[run])
    totals = _run_sums(w, starts)[run]

    def vjp(g: Array) -> Array:
        g = g.reshape(w.shape)
        grad = g / totals
        grad += _run_sums(-g * w / (totals * totals), starts)[run]
        grad *= w
        grad *= np.where(v > 0, 1.0, slope)
        halves = np.zeros(sv.shape)  # the chain sets the self half and adds the peer half
        halves[:, 0] = _segment_rows(grad, t, len(sv))
        halves[:, 1] += _segment_rows(grad, s, len(sv))
        return halves

    return Tensor((w / totals)[:, :, None], (scores,), (vjp,), op="edge_softmax", screen=False)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)
    return Tensor(out, (a,), (lambda g: g * out,), op="exp")


def log(a: Tensor) -> Tensor:
    out = np.log(a.values)
    return Tensor(out, (a,), (lambda g: g / a.values,), op="log")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    v = a.values
    out = np.clip(v, lo, hi)
    mask = (v >= lo) & (v <= hi)
    return Tensor(out, (a,), (lambda g: g * mask,), op="clip")


def _softmax_values(v: Array, axis: int, out: Optional[Array] = None) -> Array:
    out = np.subtract(v, v.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = _softmax_values(a.values, axis)

    def vjp(g: Array) -> Array:
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return Tensor(out, (a,), (vjp,), op="softmax")


PROB_CLAMP = 1e-12


def item_targets(target, rows: int, n: int) -> Array:
    """``target`` as one item index in [0, n) per row of a (rows, n) block.

    Takes an integer or a flat sequence of ``rows`` integers; anything else
    (floats, strings, nested lists, bools) raises ConfigError. A block of no
    rows raises ShapeError.
    """
    if rows < 1:
        raise ShapeError(f"a loss needs a block of B >= 1 rows, got {rows}")
    try:
        found = np.asarray(target)
    except ValueError:  # a ragged nest of lists
        found = np.asarray(None)
    if found.dtype.kind not in "iu" or found.ndim > 1:
        raise ConfigError(f"targets must be integer item indices, got {target!r}")
    if found.size != rows:
        raise ConfigError(f"expected {rows} targets, got {target!r}")
    if np.minimum.reduce(found, axis=None) < 0 or np.maximum.reduce(found, axis=None) >= n:
        raise ConfigError(f"target {target} out of range for {n} items")
    return found.reshape(-1).astype(np.intp)


# score_loss cuts the row passes of a (B, V) block of SCORE_SPLIT_MIN values or
# more in two, one half on the caller and one on the helper thread: the
# softmax, clamp screen, 1 - p and log forward, and the logit gradient
# backward. backward then forms the embedding's (V, d) gradient product on the
# helper while it goes on. No GEMM is cut: on OpenBLAS a column split of one
# can change its bits. Forward plus backward (wrt both parents, d=100) on a
# 2-vCPU Xeon host with one BLAS thread, median of 41-61 alternating runs,
# serial -> split: 8 x 5,000 1.49 -> 1.61 ms; 8 x 8,192 2.27 -> 2.06 ms;
# 26 x 5,000 3.03 -> 3.06 ms; 16 x 8,192 3.65 -> 2.90 ms; 19 x 13,611 (the
# train bench's batches) 7.41 -> 5.21 ms; 128 x 13,611 51.1 -> 33.9 ms and
# 128 x 40,000 151.9 -> 94.6 ms (of 9). Below about 100K values the hand-off
# costs what the second thread saves.
SCORE_SPLIT_MIN = 1 << 17


class _Later:
    """A VJP whose product ``backward`` starts on the helper thread and joins
    only where the parent's gradient is next needed. ``start(g)`` returns the
    helper's future of the product, a fresh array; called, the VJP returns it
    joined."""

    __slots__ = ("start",)

    def __init__(self, start: Callable[[Array], Future]):
        self.start = start

    def __call__(self, g: Array) -> Array:
        return self.start(g).result()


def score_loss(s_h: Tensor, embedding: Tensor, targets) -> Tensor:
    """The summed two-sided loss of softmax(s_h @ embedding.T), one target per row.

    ``s_h`` is (B, d) with B >= 1, ``embedding`` (V, d) and ``targets`` as
    :func:`item_targets` takes them. Value and gradients are those of
    ``model.loss(model.score_and_predict(...))``, bit for bit, as one tape
    node: the VJP forms the (B, V) logit gradient once for both parents.
    From ``SCORE_SPLIT_MIN`` values up, the row passes run in two row halves
    on two threads and the embedding's gradient product on the helper; every
    pass is per row, so no bit changes. The parents are (embedding, s_h), so
    that ``backward`` starts the embedding's product before s_h's.
    """
    sv, ev = s_h.values, embedding.values
    if sv.ndim != 2 or ev.ndim != 2 or sv.shape[1] != ev.shape[1]:
        raise ShapeError(f"score_loss takes (B, d) and (V, d), got {sv.shape} and {ev.shape}")
    rows, n = sv.shape[0], ev.shape[0]
    flat = np.arange(rows) * n + item_targets(targets, rows, n)
    probs = np.matmul(sv, ev.T)  # the softmax runs in place in the logits
    miss, log_miss = np.empty_like(probs), np.empty_like(probs)  # 1 - p and its log
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    split = probs.size >= SCORE_SPLIT_MIN
    cut = (rows + 1) // 2

    def by_rows(fn: Callable, *args) -> tuple:
        """``fn(*args, part)`` over every row: in two halves when split, else at once."""
        if split and cut < rows:
            return in_halves(fn, (*args, slice(0, cut)), (*args, slice(cut, rows)))
        return (fn(*args, slice(0, rows)),)

    def forward_rows(part: slice) -> bool:
        """Softmax these rows; if none of them is clamped, their 1 - p and its log."""
        p = _softmax_values(probs[part], -1, out=probs[part])
        if not (np.minimum.reduce(p, axis=None) >= lo and np.maximum.reduce(p, axis=None) <= hi):
            return False
        np.log(np.subtract(1.0, p, out=miss[part]), out=log_miss[part])
        return True

    if all(by_rows(forward_rows)):
        kept = None  # nothing clamped: the clamp is the identity and its mask all ones
        p_target = probs.reshape(-1)[flat]
    else:  # the whole block, on the caller
        kept = (probs >= lo) & (probs <= hi)  # where the clamp passes gradient
        np.clip(probs, lo, hi, out=miss)
        p_target = miss.reshape(-1)[flat]
        np.log(np.subtract(1.0, miss, out=miss), out=log_miss)
    out = (log_miss.reshape(-1)[flat] - np.log(p_target)).sum() - log_miss.sum()

    def grad_rows(g: Array, grad: Array, part: slice) -> None:
        # the chain's order: g / (1 - p) off target and -g / p_t on it, the
        # clamp's mask if any p was clamped, then the softmax VJP p * (grad - sum(grad * p))
        block = np.divide(g, miss[part], out=grad[part])
        grad.reshape(-1)[flat[part]] = (-g) / p_target[part]
        if kept is not None:
            block *= kept[part]
        dot = (block * probs[part]).sum(axis=-1, keepdims=True)
        block -= dot
        block *= probs[part]

    stash: list = []  # (g, logit gradient): formed by the first VJP to run, taken by the second

    def logit_grad(g: Array) -> Array:
        if stash and stash[0] is g:
            grad = stash[1]
            stash.clear()
            return grad
        grad = np.empty_like(probs)
        by_rows(grad_rows, g, grad)
        stash[:] = (g, grad)
        return grad

    def vjp_e(g: Array) -> Array:
        return np.matmul(logit_grad(g).T, sv)

    def vjp_s(g: Array) -> Array:
        return np.matmul(logit_grad(g), ev)

    if split:
        vjp_e = _Later(lambda g: helper().submit(np.matmul, logit_grad(g).T, sv))
    return Tensor(out, (embedding, s_h), (vjp_e, vjp_s), op="score_loss")


def sum(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out = a.values.sum(axis=axis, keepdims=keepdims)

    def vjp(g: Array) -> Array:
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.values.shape).copy()

    return Tensor(out, (a,), (vjp,), op="sum")


def mean(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    out = a.values.mean(axis=axis, keepdims=keepdims)
    count = a.values.size if axis is None else a.values.shape[axis]

    def vjp(g: Array) -> Array:
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.values.shape).copy() / count

    return Tensor(out, (a,), (vjp,), op="mean")


def tape(output: Tensor) -> list[Tensor]:
    """Topologically ordered record of the graph below ``output``.

    Parents always precede the nodes they feed; ``output`` is last. Iterative
    so arbitrarily deep graphs cannot hit the recursion limit.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


# Ops whose every VJP returns a new array that nothing else holds. The others
# (add, sub, transpose, reshape, concat) may hand a parent g or a view of it.
FRESH_VJP_OPS = frozenset({
    "mul", "div", "neg", "matmul", "slice_rows", "segment_sum", "edge_sum", "edge_softmax",
    "sigmoid", "tanh", "exp", "log", "clip", "softmax", "sum", "mean", "score_loss",
})


def backward(
    output: Tensor, wrt: Optional[Sequence[Tensor]] = None
) -> Optional[list[Array]]:
    """Accumulate gradients of a scalar ``output`` through the recorded tape.

    Sets ``.grad`` on the output and, without ``wrt``, on every leaf of the
    tape. With ``wrt``, runs only the VJPs into tensors on a path from a
    ``wrt`` tensor to the output, sets ``.grad`` on each ``wrt`` tensor (other
    leaves get None) and returns the gradient for each (zeros if it never fed
    the output). Any other node's gradient is dropped once its VJPs have run,
    so the replay holds only the gradients still to be propagated. Each tape
    node is visited exactly once.

    A tensor fed by several ops sums their gradients. The sum is taken in
    place when ``backward`` owns the array it holds: one a fresh-array op
    (``FRESH_VJP_OPS``) returned, or one ``backward`` allocated for an earlier
    sum. A ``slice_rows`` gradient is then added into the gathered rows only.
    Any other array may be ``g`` itself or a view of it, so it is summed out
    of place. A gradient a large ``score_loss`` hands the helper thread (its
    embedding's product) is joined only where that gradient is next needed,
    and nothing started there is left running when this returns or raises.
    """
    if output.values.size != 1:
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    order = tape(output)
    kept = {id(output)} | {id(t) for t in wrt or ()}
    # tensors on a path from a wrt tensor to the output; all of them without wrt
    live = {id(t) for t in (order if wrt is None else wrt)}
    for node in order if wrt is not None else ():
        if not live.isdisjoint(map(id, node.parents)):
            live.add(id(node))
    grads: dict[int, Array] = {id(output): np.ones_like(output.values)}
    owned: set[int] = set()  # keys of the gradients in grads that backward may write into
    later: dict[int, Future] = {}  # gradients a _Later VJP is forming on the helper thread
    found: dict[int, Array] = {}

    def join(key: int) -> None:
        grads[key] = later.pop(key).result()
        owned.add(key)

    try:
        for node in reversed(order):
            if later and id(node) in later:
                join(id(node))
            g = grads.pop(id(node), None)
            owned.discard(id(node))
            if not node.parents or id(node) in kept:
                node.grad = g
                found[id(node)] = g
            if g is None:
                continue
            fresh = node.op in FRESH_VJP_OPS
            for parent, vjp in zip(node.parents, node.vjps):
                key = id(parent)
                if key not in live:
                    continue
                if later and key in later:
                    join(key)
                seen = grads.get(key)
                if key in owned:
                    if type(vjp) is _RowScatter:
                        vjp.add_into(seen, g)
                    else:
                        seen += vjp(g)
                    continue
                if seen is None and type(vjp) is _Later:
                    later[key] = vjp.start(g)
                    continue
                total = vjp(g) if seen is None else seen + vjp(g)
                grads[key] = total
                if type(total) is np.ndarray and (fresh or seen is not None):
                    owned.add(key)
    finally:
        for product in later.values():
            drop(product)
    if wrt is None:
        return None
    return [g if (g := found.get(id(t))) is not None else np.zeros_like(t.values) for t in wrt]
