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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..errors import NumericsError, ShapeError

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


def slice_rows(a: Tensor, indices) -> Tensor:
    """Gather along axis 0. Duplicate indices accumulate gradient additively."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"slice_rows expects a flat index list, got shape {idx.shape}")
    n = a.values.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"slice_rows index out of range for axis of length {n}")
    out = a.values[idx]
    return Tensor(out, (a,), (lambda g: _segment_rows(g, idx, n),), op="slice_rows", screen=False)


def segment_sum(x: Tensor, seg, n: int) -> Tensor:
    """Sum rows into ``n`` segments: row s of the result adds every x[i] with seg[i] == s.

    ``seg`` holds one id in [0, n) per row of ``x``; a segment no row names
    comes out zero. The gradient is the row gather g[seg].
    """
    ids = np.asarray(seg, dtype=np.intp)
    if x.ndim < 1 or ids.shape != x.shape[:1]:
        raise ShapeError(f"segment_sum needs one id per row, got {ids.shape} ids for {x.shape}")
    return Tensor(_segment_rows(x.values, ids, n), (x,), (lambda g: g[ids],), op="segment_sum")


def _segment_rows(x: Array, ids: Array, n: int) -> Array:
    """The scatter-add behind segment_sum and the slice_rows gradient.

    A stable sort (skipped when the ids already ascend) groups equal ids into
    runs, and each run is added up in row order, so results are deterministic.
    """
    if ids.size == 0:
        return np.zeros((n,) + x.shape[1:])
    step = ids[1:] - ids[:-1]
    if step.size and np.minimum.reduce(step) < 0:
        order = np.argsort(ids, kind="stable")
        ids, x = ids[order], x[order]
        step = ids[1:] - ids[:-1]
    if ids[0] < 0 or ids[-1] >= n:
        raise ShapeError(f"segment id out of range for {n} segments")
    starts = np.concatenate(([1], step)).nonzero()[0]
    sums = _run_sums(x, starts)
    if len(starts) == n:  # every segment is present, in order
        return sums
    out = np.zeros((n,) + x.shape[1:])
    out[ids[starts]] = sums
    return out


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
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0, e) / (1.0 + e)
    return Tensor(out, (a,), (lambda g: g * out * (1.0 - out),), op="sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)
    return Tensor(out, (a,), (lambda g: g * (1.0 - out * out),), op="tanh")


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    v = a.values
    out = np.where(v > 0, v, slope * v)
    return Tensor(out, (a,), (lambda g: g * np.where(v > 0, 1.0, slope),), op="leaky_relu")


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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    v = a.values
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g: Array) -> Array:
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return Tensor(out, (a,), (vjp,), op="softmax")


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


def backward(
    output: Tensor, wrt: Optional[Sequence[Tensor]] = None
) -> Optional[list[Array]]:
    """Accumulate gradients of a scalar ``output`` through the recorded tape.

    Sets ``.grad`` on the output, on every leaf of the tape and on each
    ``wrt`` tensor. Any other node's gradient is dropped once its VJPs have
    run, so the replay holds only the gradients still to be propagated. With
    ``wrt``, also returns the gradient for each requested tensor (zeros if it
    never fed the output). Each tape node is visited exactly once.
    """
    if output.values.size != 1:
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    order = tape(output)
    kept = {id(output)} | {id(t) for t in wrt or ()}
    grads: dict[int, Array] = {id(output): np.ones_like(output.values)}
    found: dict[int, Array] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if not node.parents or id(node) in kept:
            node.grad = g
            found[id(node)] = g
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contribution = vjp(g)
            seen = grads.get(id(parent))
            grads[id(parent)] = contribution if seen is None else seen + contribution
    if wrt is None:
        return None
    return [g if (g := found.get(id(t))) is not None else np.zeros_like(t.values) for t in wrt]
