"""The autodiff tape: op semantics, gradient fidelity, optimizer, persistence."""

import io
import math
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sessionrec import gradkit as gk
from sessionrec.errors import CheckpointError, ConfigError, NumericsError, ShapeError
from sessionrec.gradkit import ParamSpec, ParamStore, Tensor
from sessionrec.gradkit import tensor as tensor_module
from sessionrec.gradkit.params import ADAM_BLOCK

RNG = np.random.default_rng(12345)


def t(shape, scale=1.0, offset=0.0):
    return Tensor(RNG.normal(offset, scale, size=shape))


# ---------------------------------------------------------------------------
# forward values


def test_identity_gradient():
    x = Tensor([3.0])
    y = gk.sum(x)
    (g,) = gk.backward(y, wrt=[x])
    assert g.tolist() == [1.0]


def test_square_at_three():
    x = Tensor([3.0])
    y = gk.sum(x * x)
    (g,) = gk.backward(y, wrt=[x])
    assert g.tolist() == [6.0]


def test_op_values():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 5.0])
    assert (a + b).values.tolist() == [4.0, 7.0]
    assert (a - b).values.tolist() == [-2.0, -3.0]
    assert (a * b).values.tolist() == [3.0, 10.0]
    assert (a / b).values.tolist() == [1 / 3, 0.4]
    assert (-a).values.tolist() == [-1.0, -2.0]
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert gk.transpose(m).values.tolist() == [[1.0, 3.0], [2.0, 4.0]]
    assert gk.reshape(m, (4,)).values.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert (m @ Tensor([1.0, 1.0])).values.tolist() == [3.0, 7.0]
    assert gk.concat([a, b]).values.tolist() == [1.0, 2.0, 3.0, 5.0]
    assert gk.slice_rows(m, [1, 0, 1]).values.tolist() == [
        [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]
    ]
    assert gk.clip(a, 1.5, 10.0).values.tolist() == [1.5, 2.0]
    assert gk.sum(m, axis=0).values.tolist() == [4.0, 6.0]
    assert gk.mean(m, axis=1).values.tolist() == [1.5, 3.5]


def test_scalar_operand_broadcasts():
    a = Tensor([1.0, 2.0])
    assert (a + 1.0).values.tolist() == [2.0, 3.0]
    assert (2.0 * a).values.tolist() == [2.0, 4.0]
    assert (1.0 - a).values.tolist() == [0.0, -1.0]
    assert (a / 2.0).values.tolist() == [0.5, 1.0]


def test_sigmoid_extreme_inputs_stay_finite():
    x = Tensor([-800.0, 0.0, 800.0])
    y = gk.sigmoid(x).values
    assert y[0] == 0.0 and y[1] == 0.5 and y[2] == 1.0


def test_softmax_shift_invariance():
    x = np.array([1.0, 2.0, 3.0])
    a = gk.softmax(Tensor(x)).values
    b = gk.softmax(Tensor(x + 500.0)).values
    assert np.allclose(a, b, atol=1e-15)


@given(arrays(np.float64, st.integers(2, 6),
              elements=st.floats(-30, 30, allow_nan=False)))
def test_softmax_rows_normalized(x):
    y = gk.softmax(Tensor(x)).values
    assert (y > 0).all()
    assert abs(y.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# per-op gradients against central differences


def fd_check(f, args, tol=1e-4, h=1e-5):
    worst = gk.grad_check(f, args, h=h)
    assert worst < tol, f"max relative error {worst}"


def test_grad_add_sub_neg():
    a, b = t((3, 4)), t((3, 4))
    fd_check(lambda a, b: gk.sum((a + b) - (-a)), [a, b], tol=1e-9)


def test_grad_mul_div():
    a, b = t((3, 4)), t((3, 4), offset=4.0)  # keep denominators away from 0
    fd_check(lambda a, b: gk.sum(a * b), [a, b], tol=1e-7)
    fd_check(lambda a, b: gk.sum(a / b), [a, b])


def test_grad_broadcast_add_mul():
    a, b = t((3, 4)), t((4,))
    fd_check(lambda a, b: gk.sum(a + b), [a, b], tol=1e-9)
    fd_check(lambda a, b: gk.sum(a * b), [a, b], tol=1e-7)


def test_grad_matmul_all_arities():
    v, _ = t((4,)), t((4,))  # the unused draw holds RNG at the same place for later tests
    m, n = t((3, 4)), t((4, 5))
    fd_check(lambda m, v: gk.sum(m @ v), [m, v], tol=1e-7)
    fd_check(lambda m, n: gk.sum(m @ n), [m, n], tol=1e-7)


def test_grad_structural_ops():
    m = t((4, 3))
    # exp keeps every partial bounded away from zero, so the relative-error
    # denominator never sits on the 1e-8 floor
    fd_check(lambda m: gk.sum(gk.exp(gk.transpose(m) * 0.5)), [m], tol=1e-6)
    fd_check(lambda m: gk.sum(gk.reshape(m, (2, 6)) * 2.0), [m], tol=1e-9)
    a, b = t((2, 3)), t((4, 3))
    fd_check(lambda a, b: gk.sum(gk.exp(gk.concat([a, b], axis=0) * 0.3)),
             [a, b], tol=1e-6)


def test_batched_matmul_and_transpose_values():
    rng = np.random.default_rng(7)
    stack, single = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))
    mine = (Tensor(stack) @ Tensor(single)).values
    assert mine.shape == (3, 4, 2)
    for k in range(3):
        assert np.allclose(mine[k], stack[k] @ single, atol=1e-14)
    moved = gk.transpose(Tensor(stack), (2, 0, 1)).values
    assert moved.shape == (5, 3, 4)
    assert moved[4, 1, 2] == stack[1, 2, 4]
    with pytest.raises(ShapeError):
        gk.transpose(Tensor(stack), (0, 1))
    with pytest.raises(ShapeError):
        gk.transpose(Tensor(stack), (0, 1, 1))
    with pytest.raises(ShapeError):
        gk.transpose(Tensor(stack))
    with pytest.raises(ShapeError):
        Tensor(stack) @ Tensor(rng.normal(size=(2, 5, 4)))  # stack depths differ


def test_grad_batched_matmul():
    # position-dependent weights, so a gradient routed to the wrong layer or
    # the wrong coordinate cannot cancel out in the sum
    rng = np.random.default_rng(8)
    a, b = Tensor(rng.normal(size=(3, 4, 5))), Tensor(rng.normal(size=(3, 5, 2)))
    m, n = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=(5, 2)))
    weights = Tensor(rng.normal(size=(3, 4, 2)))
    fd_check(lambda a, b: gk.sum((a @ b) * weights), [a, b], tol=1e-7)
    fd_check(lambda m, b: gk.sum((m @ b) * weights), [m, b], tol=1e-7)
    fd_check(lambda a, n: gk.sum((a @ n) * weights), [a, n], tol=1e-7)
    # a right operand smaller than the left and strided (a transposed view) is copied once
    c = Tensor(rng.normal(size=(3, 2, 5)))
    viewed = lambda a, c: a @ gk.transpose(c, (0, 2, 1))
    assert np.array_equal(viewed(a, c).values, np.matmul(a.values, c.values.transpose(0, 2, 1).copy()))
    fd_check(lambda a, c: gk.sum(viewed(a, c) * weights), [a, c], tol=1e-7)


def test_grad_transpose_with_axes():
    rng = np.random.default_rng(9)
    m = Tensor(rng.normal(size=(2, 3, 4)))
    weights = Tensor(rng.normal(size=(4, 2, 3)))
    fd_check(lambda m: gk.sum(gk.exp(gk.transpose(m, (2, 0, 1)) * 0.5) * weights),
             [m], tol=1e-6)


def test_grad_slice_rows_accumulates_duplicates():
    m = t((3, 2))
    # row 1 is taken twice; its gradient must be the sum of both uses
    fd_check(lambda m: gk.sum(gk.slice_rows(m, [1, 1, 2]) * Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])),
             [m], tol=1e-7)
    y = gk.sum(gk.slice_rows(m, [1, 1]))
    (g,) = gk.backward(y, wrt=[m])
    assert g[1].tolist() == [2.0, 2.0]
    assert g[0].tolist() == [0.0, 0.0]


def test_segment_sum_values_with_empty_segments_and_repeated_ids():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    out = gk.segment_sum(x, [3, 0, 3, 3], 5).values
    assert out.tolist() == [[3.0, 4.0], [0.0, 0.0], [0.0, 0.0], [13.0, 16.0], [0.0, 0.0]]
    assert gk.segment_sum(Tensor(np.zeros((0, 2))), [], 3).values.tolist() == [[0.0, 0.0]] * 3
    with pytest.raises(ShapeError):
        gk.segment_sum(x, [0, 1, 2, 5], 5)
    with pytest.raises(ShapeError):
        gk.segment_sum(x, [0, -1, 2, 3], 5)
    with pytest.raises(ShapeError):
        gk.segment_sum(x, [0, 1], 5)


def test_grad_segment_sum():
    # unsorted ids, a repeated id, and segments 1 and 4 left empty
    x = t((6, 3))
    weights = Tensor(RNG.normal(size=(5, 3)))
    for ids in ([2, 0, 2, 3, 0, 2], [0, 0, 0, 0, 0, 0], [4, 3, 2, 1, 0, 0]):
        fd_check(lambda x: gk.sum(gk.segment_sum(x, ids, 5) * weights), [x], tol=1e-7)
    (g,) = gk.backward(gk.sum(gk.segment_sum(x, [2, 0, 2, 3, 0, 2], 5) * weights), wrt=[x])
    assert (g == weights.values[[2, 0, 2, 3, 0, 2]]).all()
    # 3-D rows, as the attention layers use them
    y = t((4, 2, 3))
    w3 = Tensor(RNG.normal(size=(3, 2, 3)))
    fd_check(lambda y: gk.sum(gk.segment_sum(y, [1, 1, 0, 1], 3) * w3), [y], tol=1e-7)


def test_segment_sums_match_add_at_on_both_kernel_paths():
    # Wide rows in short runs are summed rank by rank; a few long runs of
    # narrow rows go to np.add.reduceat. Both back segment_sum and the
    # slice_rows gradient.
    rng = np.random.default_rng(5)
    for rows, width, n in [(300, 800, 120), (400, 2, 3)]:
        ids = rng.integers(0, n, rows)
        x = rng.normal(size=(rows, width))
        expected = np.zeros((n, width))
        np.add.at(expected, ids, x)
        assert np.allclose(gk.segment_sum(Tensor(x), ids, n).values, expected, rtol=0, atol=1e-12)
        table = Tensor(rng.normal(size=(n, width)))
        (g,) = gk.backward(gk.sum(gk.slice_rows(table, ids) * Tensor(x)), wrt=[table])
        assert np.allclose(g, expected, rtol=0, atol=1e-12)


def test_edge_sum_values_and_central_differences():
    # several heads, unsorted sources, destination 3 receiving no edge, and
    # the (N, 2, d) shape of the GGNN's two message halves
    rng = np.random.default_rng(31)
    src, dst = np.array([4, 0, 2, 0, 1, 4, 3]), np.array([0, 0, 1, 2, 2, 2, 4])
    for shape in [(5, 3, 4), (5, 2, 3)]:
        z = Tensor(rng.normal(size=shape))
        alpha = Tensor(rng.normal(size=(len(src), shape[1], 1)))
        out = gk.edge_sum(z, alpha, src, dst, 5).values
        expected = np.zeros(shape)
        np.add.at(expected, dst, alpha.values * z.values[src])
        assert np.allclose(out, expected, rtol=0, atol=1e-12)
        assert (out[3] == 0.0).all()
        probe = Tensor(rng.normal(size=shape))
        fd_check(lambda z, a: gk.sum(gk.edge_sum(z, a, src, dst, 5) * probe), [z, alpha], tol=1e-7)


def _edge_sum_reference(z, alpha, src, dst, n, probe):
    """Values and the gradients of sum(edge_sum(...) * probe), by np.add.at."""
    out = np.zeros((n,) + z.shape[1:])
    np.add.at(out, dst, alpha * z[src])
    grad_z = np.zeros_like(z)
    np.add.at(grad_z, src, alpha * probe[dst])
    return out, grad_z, (probe[dst] * z[src]).sum(axis=-1, keepdims=True)


def _assert_edge_sum_matches_reference(src, dst, n, z_shape, seed):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.normal(size=z_shape))
    alpha = Tensor(rng.normal(size=(len(src),) + z_shape[1:-1] + (1,)))
    probe = rng.normal(size=(n,) + z_shape[1:])
    out = gk.edge_sum(z, alpha, src, dst, n)
    grads = gk.backward(gk.sum(out * Tensor(probe)), wrt=[z, alpha])
    for got, want in zip([out.values, *grads], _edge_sum_reference(
            z.values, alpha.values, np.asarray(src), np.asarray(dst), n, probe)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _packed_edges(rng, sizes, per_node):
    """Random edges, repeats included, inside each of several graphs laid end to end."""
    src, dst, base = [], [], 0
    for size in sizes:
        count = per_node * size
        src.append(base + rng.integers(0, size, count))
        dst.append(base + rng.integers(0, size, count))
        base += size
    src, dst = np.concatenate(src), np.concatenate(dst)
    order = np.argsort(dst, kind="stable")
    return src[order], dst[order], base


@pytest.mark.parametrize("rows, heads, width, edges", [(6, 2, 3, 15), (300, 8, 100, 2000)])
def test_edge_sum_matches_an_add_at_reference(rows, heads, width, edges):
    # random edges with repeats: one block at the small size, row tiles at the large one
    rng = np.random.default_rng(32)
    src = rng.integers(0, rows, edges)
    dst = np.sort(rng.integers(0, rows, edges))
    _assert_edge_sum_matches_reference(src, dst, rows, (rows, heads, width), seed=rows)


@pytest.mark.parametrize(
    "case", ["merged", "over-budget", "chain", "empty-rows", "unsorted", "targets"]
)
def test_edge_sum_blocks_match_the_reference(case, monkeypatch):
    monkeypatch.setattr(tensor_module, "EDGE_BLOCK", 2048)
    rng = np.random.default_rng(len(case))
    heads, width = 4, 5
    sizes = [4, 60, 5] if case == "over-budget" else [3, 7, 2, 9, 5, 4, 6, 8, 3, 5]
    src, dst, n = _packed_edges(rng, sizes, 3)
    m = n
    if case == "chain":  # row i reads rows i and i + 1: no cut can fall inside the path
        src, dst = np.arange(60)[:, None] + [0, 1], np.repeat(np.arange(60), 2)
        src, n, m = src.reshape(-1), 61, 61
    if case == "empty-rows":  # every second row receives no edge
        src, dst = src[dst % 2 == 0], dst[dst % 2 == 0]
    if case == "unsorted":
        shuffle = rng.permutation(len(src))
        src, dst = src[shuffle], dst[shuffle]
    if case == "targets":  # results at each graph's first and last rows, read from all rows
        ends = np.cumsum(sizes)
        targets = np.sort(np.concatenate([ends - np.array(sizes), ends - 1]))
        keep = np.isin(dst, targets)
        src, dst, n = src[keep], np.searchsorted(targets, dst[keep]), len(targets)
    order, blocks = tensor_module._edge_blocks(
        src.astype(np.intp), dst.astype(np.intp), n, m, heads)
    tiles = sum(type(rows) is not slice for rows, *_ in blocks)
    assert (order is not None) == (case == "unsorted")
    if case in ("over-budget", "chain"):  # a 60-node graph alone holds 4 * 60 * 60 entries
        assert tiles > 1
    else:  # neighbouring graphs share blocks
        assert tiles == 0 and 1 < len(blocks) < len(sizes)
    _assert_edge_sum_matches_reference(src, dst, n, (m, heads, width), seed=len(case))


@pytest.mark.parametrize("budget", [None, 2048, 64], ids=["one-block", "merged", "tiled"])
def test_shared_edge_sum_matches_its_per_head_broadcast(budget, monkeypatch):
    """A 2-D z that every head shares gives the per-head form's values over z
    repeated per head; its z gradient is that form's summed over the heads."""
    rng = np.random.default_rng(33)
    heads, width = 4, 5
    src, dst, n = _packed_edges(rng, [3, 7, 2, 9, 5, 4, 6, 8, 3, 5], 3)
    if budget is not None:
        monkeypatch.setattr(tensor_module, "EDGE_BLOCK", budget)
        _, blocks = tensor_module._edge_blocks(src, dst, n, n, heads, width)
        tiles = sum(type(rows) is not slice for rows, *_ in blocks)
        assert (tiles > 0) == (budget == 64) and 1 < len(blocks)
    z = Tensor(rng.normal(size=(n, width)))
    alpha = Tensor(rng.normal(size=(len(src), heads, 1)))
    wide = Tensor(np.repeat(z.values[:, None], heads, axis=1))
    probe = Tensor(rng.normal(size=(n, heads, width)))
    shared, per_head = gk.edge_sum(z, alpha, src, dst, n), gk.edge_sum(wide, alpha, src, dst, n)
    assert shared.shape == per_head.shape == (n, heads, width)
    assert np.allclose(shared.values, per_head.values, rtol=0, atol=1e-12)
    g_z, g_alpha = gk.backward(gk.sum(shared * probe), wrt=[z, alpha])
    g_wide, g_alpha_wide = gk.backward(gk.sum(per_head * probe), wrt=[wide, alpha])
    assert np.allclose(g_z, g_wide.sum(axis=1), rtol=0, atol=1e-12)
    assert np.allclose(g_alpha, g_alpha_wide, rtol=0, atol=1e-12)


def test_shared_edge_sum_central_differences_over_merged_blocks_and_tiles(monkeypatch):
    monkeypatch.setattr(tensor_module, "EDGE_BLOCK", 40)  # the 2-node graphs merge, 5 nodes tile
    rng = np.random.default_rng(34)
    src, dst, n = _packed_edges(rng, [2, 2, 5, 2], 2)
    _, blocks = tensor_module._edge_blocks(src, dst, n, n, 2, 3)
    assert blocks[0][0] == slice(0, 4) and type(blocks[1][0]) is not slice
    z, alpha = Tensor(rng.normal(size=(n, 3))), Tensor(rng.normal(size=(len(src), 2, 1)))
    probe = Tensor(rng.normal(size=(n, 2, 3)))
    fd_check(lambda z, a: gk.sum(gk.edge_sum(z, a, src, dst, n) * probe), [z, alpha], tol=1e-7)


def test_edge_blocks_charge_wide_z_rows_their_multiply_adds(monkeypatch):
    """Up to EDGE_WIDTH a block is budgeted by entries, so the blocks do not
    change with the width; an 800-wide block gets an eighth of the entries."""
    monkeypatch.setattr(tensor_module, "EDGE_BLOCK", 2048)
    rng = np.random.default_rng(35)
    heads, sizes = 4, [3, 7, 2, 9, 5, 4, 6, 8, 3, 5]
    src, dst, n = _packed_edges(rng, sizes, 3)

    def layout(width):
        _, blocks = tensor_module._edge_blocks(src, dst, n, n, heads, width)
        return [(rows, cols, edges, cells.tolist()) for rows, cols, edges, cells in blocks]

    assert layout(1) == layout(5) == layout(tensor_module.EDGE_WIDTH)
    wide = layout(8 * tensor_module.EDGE_WIDTH)
    assert len(wide) > len(layout(1))
    for rows, cols, *_ in wide:  # the 9-node graph alone is over it: row tiles
        if type(rows) is slice:
            assert heads * (rows.stop - rows.start) * (cols.stop - cols.start) <= 2048 // 8


def test_edge_sum_rejects_mismatched_shapes():
    z, alpha = Tensor(np.ones((3, 2, 4))), Tensor(np.ones((2, 2, 1)))
    gk.edge_sum(z, alpha, [0, 2], [1, 1], 3)
    for z_, alpha_, src, dst in [
        (z, Tensor(np.ones((2, 2, 4))), [0, 2], [1, 1]),  # alpha not one weight per head
        (z, Tensor(np.ones((2, 3, 1))), [0, 2], [1, 1]),  # head counts differ
        (z, alpha, [0, 2, 1], [1, 1, 1]),                 # one weight per edge
        (z, alpha, [0, 2], [1]),                          # src and dst differ in length
        (Tensor(np.ones(3)), Tensor(np.ones((2, 1))), [0, 2], [1, 1]),  # z needs a row axis
        (z, alpha, [0, 3], [1, 1]),                       # source out of range
        (z, alpha, [0, 2], [1, 3]),                       # destination out of range
        (Tensor(np.ones((3, 4))), Tensor(np.ones((2, 2, 4))), [0, 2], [1, 1]),  # shared z too
    ]:
        with pytest.raises(ShapeError):
            gk.edge_sum(z_, alpha_, src, dst, 3)


def test_grad_nonlinearities():
    x = t((6,))
    fd_check(lambda x: gk.sum(gk.sigmoid(x)), [x], tol=1e-6)
    fd_check(lambda x: gk.sum(gk.tanh(x)), [x])
    fd_check(lambda x: gk.sum(gk.exp(x)), [x])
    y = t((6,), offset=5.0)  # positive inputs for log
    fd_check(lambda y: gk.sum(gk.log(y)), [y])


def edge_and_random_values():
    """Signed zeros and saturating inputs spread through random ones, at an
    odd length so vectorised loops also run their tails."""
    v = np.random.default_rng(0).standard_normal(1001)
    v[::7] = np.resize([0.0, -0.0, 800.0, -800.0], len(v[::7]))
    return v


def values_and_grad(op, v, w):
    """op's output and the gradient of sum(op(x) * w) with respect to x."""
    x = Tensor(v)
    y = op(x)
    (g,) = gk.backward(gk.sum(y * Tensor(w)), wrt=[x])
    return y.values, g


def test_sigmoid_matches_the_select_formula_bit_for_bit():
    v = edge_and_random_values()
    w = np.random.default_rng(1).standard_normal(v.shape)
    e = np.exp(-np.abs(v))
    want = np.where(v >= 0, 1.0, e) / (1.0 + e)
    out, g = values_and_grad(gk.sigmoid, v, w)
    assert out.tobytes() == want.tobytes()
    assert g.tobytes() == (w * want * (1.0 - want)).tobytes()


# ---------------------------------------------------------------------------
# edge_softmax: GAT attention as one tape node


def attention_chain(scores, src, dst, out, n, slope):
    """edge_softmax spelled out in tape ops, with leaky_relu as the select formula:
    a product with the constant mask that is 1 where the logit is positive, else slope."""
    m, _, heads = scores.shape
    flat = gk.reshape(scores, (2 * m, heads, 1))
    v = gk.slice_rows(flat, 2 * dst) + gk.slice_rows(flat, 2 * src + 1)
    e = v * Tensor(np.where(v.values > 0, 1.0, slope))
    first = np.concatenate(([True], out[1:] != out[:-1]))
    peaks = np.maximum.reduceat(e.values, first.nonzero()[0], axis=0)
    weights = gk.exp(e - Tensor(peaks[np.cumsum(first) - 1]))
    return weights / gk.slice_rows(gk.segment_sum(weights, out, n), out)


def attention_case(seed, m=40, n=25, edges=160, heads=3):
    """Scores with signed zeros and saturating values, unsorted sources, and
    ascending result rows that are not the destinations, some holding one edge."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((m, 2, heads))
    spread = scores.reshape(-1)[::7]
    spread[:] = np.resize([0.0, -0.0, 800.0, -800.0], len(spread))
    scores[0], scores[1] = 0.0, -0.0  # node 0 scores +0 and node 1 -0, both halves, every head
    src, dst = rng.integers(0, m, edges), rng.integers(0, m, edges)
    src[:2] = dst[:2] = [0, 1]    # so two edges' logits are +0 and -0
    out = np.concatenate((np.sort(rng.integers(0, n - 2, edges - 2)), [n - 2, n - 1]))
    return scores, src, dst, out, n


@pytest.mark.parametrize("slope", [0.0, -0.5, -0.1, 0.2, 1.0, 1.5, 3])
def test_leaky_relu_matches_the_select_formula_bit_for_bit(slope):
    """edge_softmax's values and gradient are those of the chain, byte for byte,
    with leaky_relu as the select formula, for result rows that are the
    destinations and for rows that are not."""
    for seed in range(3):
        scores, src, dst, out, n = attention_case(seed)
        cases = [(src, dst, out, n), (src, np.sort(dst), np.sort(dst), len(scores))]
        for s, d, o, rows in cases:
            w = np.random.default_rng(seed + 10).standard_normal((len(s), scores.shape[2], 1))
            got, want = Tensor(scores.copy()), Tensor(scores.copy())
            alpha = gk.edge_softmax(got, s, d, o, rows, slope)
            chained = attention_chain(want, s, d, o, rows, slope)
            assert alpha.shape == chained.shape
            assert alpha.values.tobytes() == chained.values.tobytes()
            (g,) = gk.backward(gk.sum(alpha * Tensor(w)), wrt=[got])
            (g_chain,) = gk.backward(gk.sum(chained * Tensor(w)), wrt=[want])
            assert g.tobytes() == g_chain.tobytes()


def test_grad_leaky_relu_away_from_kink():
    """edge_softmax against central differences, every logit at least 0.8 from
    leaky_relu's kink; a row of one edge weighs exactly 1 and passes no gradient."""
    rng = np.random.default_rng(8)
    m, heads = 9, 2
    values = np.empty((m, 2, heads))
    values[:, 0] = rng.uniform(-0.1, 0.1, (m, heads))                         # self scores
    values[:, 1] = rng.choice([-1.0, 1.0], (m, heads)) * rng.uniform(1.0, 2.0, (m, heads))
    src, dst = rng.integers(0, m, 30), np.sort(rng.integers(0, m, 30))
    w = Tensor(rng.standard_normal((30, heads, 1)))
    for slope in (0.2, -0.5, 3.0):
        fd_check(lambda s: gk.sum(gk.edge_softmax(s, src, dst, dst, m, slope) * w),
                 [Tensor(values)], tol=1e-6)
    scores = Tensor(values)
    alpha = gk.edge_softmax(scores, [2, 0, 1], [0, 1, 2], [0, 1, 2], 3)
    (g,) = gk.backward(gk.sum(alpha * Tensor(rng.standard_normal((3, heads, 1)))), wrt=[scores])
    assert alpha.values.tolist() == [[[1.0]] * heads] * 3
    assert not g.any()


def test_edge_softmax_checks_its_inputs():
    scores = Tensor(np.zeros((3, 2, 2)))
    for args in [
        (Tensor(np.zeros((3, 3, 2))), [0], [0], [0], 1),  # not a (N, 2, H) block
        (scores, [0, 1], [0], [0, 0], 1),                 # src and dst differ in length
        (scores, [0], [0], [0, 0], 1),                    # one result row per edge
        (scores, [], [], [], 1),                          # no edges
        (scores, [3], [0], [0], 1),                       # source out of range
        (scores, [0], [-1], [0], 1),                      # destination out of range
        (scores, [0, 1], [0, 1], [1, 0], 2),              # result rows must ascend
        (scores, [0, 1], [0, 1], [0, 2], 2),              # result row out of range
    ]:
        with pytest.raises(ShapeError):
            gk.edge_softmax(*args)
    with np.errstate(all="ignore"):
        for bad in (np.nan, np.inf, -np.inf):
            values = np.ones((3, 2, 2))
            values[1, 1, 0] = bad  # one peer score: one edge's logit
            with pytest.raises(NumericsError, match="edge_softmax"):
                scores = Tensor(values, screen=False)  # as a reshape would pass it on
                gk.edge_softmax(scores, [0, 1, 2], [0, 0, 1], [0, 0, 1], 2)


def test_grad_clip_blocks_out_of_range():
    x = Tensor([-2.0, 0.5, 2.0])
    y = gk.sum(gk.clip(x, 0.0, 1.0))
    (g,) = gk.backward(y, wrt=[x])
    assert g.tolist() == [0.0, 1.0, 0.0]


def test_grad_softmax_and_reductions():
    x = t((5,))
    w = t((5,))
    fd_check(lambda x, w: gk.sum(gk.softmax(x) * w), [x, w], tol=1e-6)
    m = t((3, 4))
    fd_check(lambda m: gk.sum(gk.softmax(m, axis=1) * m), [m], tol=1e-6)
    fd_check(lambda m: gk.sum(gk.mean(m, axis=0)), [m], tol=1e-9)
    fd_check(lambda m: gk.sum(gk.sum(m, axis=1, keepdims=True) * 3.0), [m], tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_grad_random_compositions(rows, cols, data):
    """Chained smooth ops match central differences within 1e-4 everywhere.

    The composition is chosen so no partial derivative can vanish on the
    sampled box: exp(0.3 a) dominates the sigmoid*tanh term for |a|, |b| <= 2,
    keeping each coordinate's gradient above ~1e-3 and far from the
    finite-difference noise floor.
    """
    raw_a = data.draw(arrays(np.float64, (rows, cols),
                             elements=st.floats(-2, 2, allow_nan=False)))
    raw_b = data.draw(arrays(np.float64, (rows, cols),
                             elements=st.floats(-2, 2, allow_nan=False)))
    a, b = Tensor(raw_a), Tensor(raw_b)

    def f(a, b):
        mixed = gk.sigmoid(a) * gk.tanh(b) + gk.exp(a * 0.3)
        return gk.sum(mixed * mixed)

    fd_check(f, [a, b])


def test_duplicate_leaf_receives_summed_gradient():
    x = Tensor([2.0])
    y = gk.sum(x * x + x)
    (g,) = gk.backward(y, wrt=[x])
    assert g.tolist() == [5.0]  # 2x + 1 at x=2

    # same function with two separate leaves shows the split pieces
    x1, x2 = Tensor([2.0]), Tensor([2.0])
    y2 = gk.sum(x1 * x2 + x1)
    g1, g2 = gk.backward(y2, wrt=[x1, x2])
    assert g1.tolist() == [3.0]
    assert g2.tolist() == [2.0]
    assert g1[0] + g2[0] == g[0]


def _out_of_place_backward(output, wrt):
    """Reference replay: every repeated gradient is summed into a new array."""
    grads = {id(output): np.ones_like(output.values)}
    for node in reversed(gk.tape(output)):
        g = grads.get(id(node))
        for parent, vjp in zip(node.parents, node.vjps if g is not None else ()):
            seen = grads.get(id(parent))
            grads[id(parent)] = vjp(g) if seen is None else seen + vjp(g)
    return [grads[id(t)] for t in wrt]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 2, 0)])
def test_in_place_sums_match_out_of_place_sums_bit_for_bit(order):
    """One tensor feeds add (which hands both parents the same g), slice_rows
    and matmul, in every order; backward's in-place sums must not touch the
    shared g and must equal the sums of fresh arrays."""
    rng = np.random.default_rng(3)
    x, k, m, w1, w2, w3 = (
        Tensor(rng.normal(size=shape)) for shape in [(6, 3), (6, 3), (3, 4), (6, 3), (5, 3), (6, 4)]
    )

    def objective():
        terms = [
            gk.sum((x + k) * w1),
            gk.sum(gk.slice_rows(x, [4, 1, 4, 0, 1]) * w2),  # rows 2, 3, 5 untouched
            gk.sum((x @ m) * w3),
        ]
        first, second, third = (terms[i] for i in order)
        return (first + second) + third

    got = gk.backward(objective(), wrt=[x, k, m])
    want = _out_of_place_backward(objective(), [x, k, m])
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got[1].tobytes() == w1.values.tobytes()  # add's shared g reached k untouched


def _fresh_op_outputs(monkeypatch) -> list:
    """Tensors made by every op in FRESH_VJP_OPS, each path of an op's VJP covered."""
    a, b, pos = t((3, 4)), t((3, 4)), t((3, 4), offset=4.0)
    z, alpha = t((12, 2, 3)), t((20, 2, 1))
    src, dst = RNG.integers(0, 12, 20), np.sort(RNG.integers(0, 12, 20))
    made = [
        a * b, a * t((4,)), a / pos, t((4,)) / pos, -a,
        a @ t((4, 2)), a @ t((4,)), t((2, 3, 4)) @ t((4, 5)), a @ gk.transpose(t((2, 4))),
        gk.slice_rows(a, [2, 0, 2]), gk.slice_rows(a, [0, 1, 2]), gk.slice_rows(a, []),
        gk.segment_sum(a, [1, 1, 0], 2), gk.segment_sum(a, [0, 1, 2], 3),
        gk.sigmoid(a), gk.tanh(a), gk.exp(a), gk.log(pos),
        gk.edge_softmax(z, src, dst, dst, 12), gk.edge_softmax(z, src, dst, np.sort(src), 12, 3.0),
        gk.clip(a, -0.5, 0.5), gk.softmax(a), gk.sum(a), gk.sum(a, axis=1), gk.mean(a),
        gk.mean(a, axis=0, keepdims=True), gk.score_loss(a, t((5, 4)), [0, 4, 4]),
        gk.edge_sum(z, alpha, src, dst, 12), gk.edge_sum(z, alpha, src[::-1], dst[::-1], 12),
        gk.edge_sum(t((12, 3)), alpha, src, dst, 12),
        t((2, 6, 4)) @ gk.transpose(t((2, 2, 4)), (0, 2, 1)),
    ]
    monkeypatch.setattr(tensor_module, "EDGE_BLOCK", 16)  # merged blocks and row tiles
    loops = np.arange(12)
    made += [gk.edge_sum(z, alpha, src, dst, 12), gk.edge_sum(z, t((12, 2, 1)), loops, loops, 12)]
    made += [gk.edge_sum(t((12, 3)), alpha, src, dst, 12)]
    return made


def test_fresh_vjp_ops_return_arrays_nothing_else_holds(monkeypatch):
    """backward adds into the gradient of a FRESH_VJP_OPS op in place, so each
    such VJP must return memory that g, the op's inputs and its output do not share."""
    made = _fresh_op_outputs(monkeypatch)
    assert {out.op for out in made} == tensor_module.FRESH_VJP_OPS
    for out in made:
        g = RNG.normal(size=out.shape)
        held = [g, out.values, *(parent.values for parent in out.parents)]
        for vjp in out.vjps:
            grad = vjp(g)
            assert not any(np.shares_memory(grad, other) for other in held), out.op


def test_embedding_gathered_and_scored_keeps_an_exact_gradient():
    """The fused op's fresh (V, d) gradient takes the row gather's gradient in place."""
    rng = np.random.default_rng(4)
    emb, w = Tensor(rng.normal(size=(9, 4))), Tensor(rng.normal(size=(4, 4)))
    rows = [7, 2, 7, 0]

    def objective(*_):
        s_h = gk.tanh(gk.slice_rows(emb, rows) @ w)
        return gk.score_loss(s_h, emb, [1, 7, 7, 3]) * 0.25

    got = gk.backward(objective(), wrt=[emb, w])
    want = _out_of_place_backward(objective(), [emb, w])
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert gk.grad_check(objective, [emb, w]) < 1e-6


def test_grad_check_flags_corrupted_gradient():
    """Fault injection: a deliberately wrong VJP must be caught loudly."""
    def f(x):
        base = gk.sigmoid(x)
        wrong = Tensor(
            base.values,
            parents=(x,),
            vjps=(lambda g: 1.5 * g * base.values * (1 - base.values),),
            op="sigmoid-broken",
        )
        return gk.sum(wrong)

    worst = gk.grad_check(f, [t((4,))])
    assert worst > 1e-2


# ---------------------------------------------------------------------------
# tape and backward mechanics


def test_tape_is_topologically_sorted():
    x = t((3,))
    y = gk.sum(gk.sigmoid(x) * x + gk.tanh(x))
    order = gk.tape(y)
    position = {id(node): i for i, node in enumerate(order)}
    for node in order:
        for parent in node.parents:
            assert position[id(parent)] < position[id(node)]
    assert order[-1] is y


def test_backward_requires_scalar():
    x = t((3,))
    with pytest.raises(ShapeError):
        gk.backward(x + x)


def test_backward_unreached_tensor_gets_zeros():
    x, unused = t((3,)), t((5,))
    y = gk.sum(x)
    gx, gu = gk.backward(y, wrt=[x, unused])
    assert gx.tolist() == [1.0, 1.0, 1.0]
    assert gu.tolist() == [0.0] * 5


def test_transposed_operand_gets_a_c_ordered_gradient():
    """x @ transpose(w) hands w a gradient in w's own (C) layout, so it adds
    to w's other gradients without a strided pass."""
    x, w = t((4, 3)), t((5, 3))
    (gw,) = gk.backward(gk.sum(x @ gk.transpose(w)), wrt=[w])
    assert gw.flags.c_contiguous
    assert np.allclose(gw, np.ones((4, 5)).T @ x.values)


def test_backward_sets_grad_attribute():
    x = t((2,))
    y = gk.sum(gk.sigmoid(x))
    gk.backward(y)
    assert x.grad is not None
    assert float(y.grad) == 1.0


def test_backward_with_wrt_skips_constant_branches():
    param, const = t((3,)), t((3,))
    squashed = gk.sigmoid(const)  # an inner node fed by constants only

    def refuse(g):
        raise AssertionError("VJP into a constant branch was run")

    prod = Tensor(
        param.values * squashed.values, (param, squashed),
        (lambda g: g * squashed.values, refuse), op="mul",
    )
    (g,) = gk.backward(gk.sum(prod), wrt=[param])
    assert np.array_equal(g, squashed.values)
    assert param.grad is g and const.grad is None
    # without wrt every leaf still gets its gradient
    gk.backward(gk.sum(param * squashed))
    assert np.allclose(const.grad, param.values * squashed.values * (1 - squashed.values))


def test_nan_trap_names_the_op():
    with np.errstate(all="ignore"):  # the bad values are the point here
        with pytest.raises(NumericsError, match="log"):
            gk.log(Tensor([-1.0]))
        with pytest.raises(NumericsError, match="div"):
            Tensor([1.0]) / Tensor([0.0])
        with pytest.raises(NumericsError, match="exp"):
            gk.exp(Tensor([10000.0]))


def test_matmul_shape_validation():
    with pytest.raises(ShapeError):
        Tensor([[1.0, 2.0]]) @ Tensor([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2))) @ Tensor(np.zeros((2,)))
    for right in (np.ones((2, 2)), np.ones(2)):  # a vector only stands on the right
        with pytest.raises(ShapeError):
            Tensor(np.ones(2)) @ Tensor(right)


def test_slice_rows_bounds_checked():
    m = t((3, 2))
    with pytest.raises(ShapeError):
        gk.slice_rows(m, [0, 3])
    with pytest.raises(ShapeError):
        gk.slice_rows(m, [-4])
    with pytest.raises(ShapeError):
        gk.slice_rows(m, [-1])


# ---------------------------------------------------------------------------
# parameter store and Adam


def store_with(shapes, seed=0):
    specs = [ParamSpec(name, shape, group) for name, shape, group in shapes]
    return gk.init_params(specs, seed=seed)


def test_init_params_deterministic_and_order_sensitive():
    shapes = [("a", (2, 3), "intra_shared"), ("b", (4,), "inter")]
    s1, s2 = store_with(shapes, seed=7), store_with(shapes, seed=7)
    for n in s1.names():
        assert (s1[n].values == s2[n].values).all()
    s3 = store_with(shapes, seed=8)
    assert not (s1["a"].values == s3["a"].values).all()
    # values are drawn in spec order from one stream: swapping names moves draws
    s4 = store_with([("b", (2, 3), "intra_shared"), ("a", (4,), "inter")], seed=7)
    assert (s4["b"].values == s1["a"].values).all()


def test_store_rejects_duplicates_and_bad_groups():
    store = ParamStore()
    store.add("w", np.zeros((2,)), "inter")
    with pytest.raises(ConfigError, match="duplicate"):
        store.add("w", np.zeros((2,)), "inter")
    with pytest.raises(ConfigError, match="group"):
        store.add("v", np.zeros((2,)), "no-such-group")


def test_adam_first_step_is_signed_lr():
    """With fresh moments, m-hat/(sqrt(v-hat)+eps) = g/(|g|+eps) ~ sign(g)."""
    store = store_with([("w", (3,), "intra_shared")])
    before = store["w"].values.copy()
    grad = np.array([0.5, -2.0, 0.0])
    gk.adam_step(store, {"w": grad}, lr=0.01)
    moved = store["w"].values - before
    expect = -0.01 * grad / (np.abs(grad) + 1e-8)
    assert np.allclose(moved, expect, atol=1e-9)
    assert moved[2] == 0.0


def test_adam_two_steps_match_hand_rollout():
    store = store_with([("w", (1,), "inter")])
    w0 = store["w"].values.copy()
    g1, g2 = np.array([0.3]), np.array([-0.1])
    gk.adam_step(store, {"w": g1}, lr=0.1)
    gk.adam_step(store, {"w": g2}, lr=0.1)

    m = 0.1 * g1
    v = 0.001 * g1**2
    w = w0 - 0.1 * (m / (1 - 0.9)) / (np.sqrt(v / (1 - 0.999)) + 1e-8)
    m = 0.9 * m + 0.1 * g2
    v = 0.999 * v + 0.001 * g2**2
    w = w - 0.1 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
    assert np.allclose(store["w"].values, w, atol=1e-12)


def test_adam_matches_the_allocating_formula_bit_for_bit():
    """The scratch-buffer update equals the efficient-form expressions
    (Kingma & Ba, section 2) evaluated as written."""
    rng = np.random.default_rng(31)
    shapes = [
        ("emb", (7, 3), "intra_shared"),
        ("vec", (4,), "inter"),
        ("w", (3, 5), "inter"),
        ("big", (3, ADAM_BLOCK // 2 + 5), "intra_shared"),  # a full block and a partial one
    ]
    store = store_with(shapes, seed=3)
    params = {name: store[name].values.copy() for name, _, _ in shapes}
    m = {name: np.zeros_like(v) for name, v in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    lr = {"intra_shared": 0.01, "inter": 0.003}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 6):
        grads = {name: rng.normal(0.0, 1.0, p.shape) for name, p in params.items()}
        if t == 3:
            del grads["vec"]  # a parameter without a gradient this step
        gk.adam_step(store, grads, lr)
        for name, g in grads.items():
            step = store.step_count(name)
            m[name] = beta1 * m[name] + (1.0 - beta1) * g
            v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
            lr_t = lr[store.group(name)] * math.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
            eps_t = eps * math.sqrt(1.0 - beta2**step)
            params[name] = params[name] - lr_t * m[name] / (np.sqrt(v[name]) + eps_t)
        for name, p in params.items():
            assert (store[name].values == p).all(), (t, name)
    assert store.step_count("vec") == 4


def test_adam_stays_within_rounding_of_the_textbook_formula():
    """500 random steps of the efficient form against the bias-corrected
    textbook update, m_hat / (sqrt(v_hat) + eps), carried side by side."""
    rng = np.random.default_rng(5)
    store = store_with([("w", (64,), "inter")], seed=2)
    p = store["w"].values.copy()
    m, v = np.zeros_like(p), np.zeros_like(p)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 501):
        # magnitudes from 1e-10, where eps outweighs sqrt(v_hat), to 1e2
        g = rng.normal(0.0, 1.0, p.shape) * 10.0 ** rng.uniform(-10, 2, p.shape)
        gk.adam_step(store, {"w": g}, 0.01)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        p = p - 0.01 * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        assert np.abs(store["w"].values - p).max() <= 1e-14, t


def test_adam_per_group_learning_rates():
    store = store_with([("fast", (1,), "intra_shared"), ("slow", (1,), "inter")])
    before_fast = store["fast"].values.copy()
    before_slow = store["slow"].values.copy()
    grads = {"fast": np.array([1.0]), "slow": np.array([1.0])}
    gk.adam_step(store, grads, lr={"intra_shared": 0.1, "inter": 0.001})
    assert np.isclose(before_fast[0] - store["fast"].values[0], 0.1, atol=1e-6)
    assert np.isclose(before_slow[0] - store["slow"].values[0], 0.001, atol=1e-6)


def test_adam_skips_absent_grads_and_keeps_their_step_count():
    store = store_with([("w", (1,), "inter"), ("u", (1,), "inter")])
    u_before = store["u"].values.copy()
    gk.adam_step(store, {"w": np.array([1.0])}, lr=0.1)
    assert (store["u"].values == u_before).all()
    assert store.step_count("w") == 1
    assert store.step_count("u") == 0


def test_adam_validates_gradients():
    """Every gradient is checked before any parameter moves, so a rejected
    step leaves values, moments and step counts as they were."""
    store = store_with([("a", (3,), "intra_shared"), ("w", (2,), "inter")])
    gk.adam_step(store, {"a": np.ones(3), "w": np.ones(2)}, lr=0.1)
    before = store.values()
    ok = np.ones(3)
    with pytest.raises(ShapeError):
        gk.adam_step(store, {"a": ok, "w": np.zeros(3)}, lr=0.1)
    with pytest.raises(NumericsError):
        gk.adam_step(store, {"a": ok, "w": np.array([np.nan, 0.0])}, lr=0.1)
    with pytest.raises(ConfigError, match="inter"):
        gk.adam_step(store, {"a": ok, "w": np.zeros(2)}, lr={"intra_shared": 0.1})
    with pytest.raises(ConfigError, match="typo"):
        gk.adam_step(store, {"a": ok, "typo": np.zeros(2)}, lr=0.1)
    for name, values in before.items():
        assert (store[name].values == values).all(), name
        assert store.step_count(name) == 1, name
    gk.adam_step(store, {"a": ok, "w": np.ones(2)}, lr=0.1)
    assert store.step_count("a") == store.step_count("w") == 2


@pytest.mark.parametrize(
    "lr",
    [
        {"intra_shared": 0.1, "inter": float("nan")},
        {"intra_shared": 0.1, "inter": float("inf")},
        {"intra_shared": 0.1, "inter": -0.1},
        {"intra_shared": 0.0, "inter": 0.1},
        {"intra_shared": 0.1, "inter": "0.1"},
        {"intra_shared": True, "inter": 0.1},
        "0.1",
        None,
        float("nan"),
    ],
)
def test_adam_rejects_bad_learning_rates_before_any_change(lr):
    store = store_with([("a", (3,), "intra_shared"), ("w", (2,), "inter")])
    grads = {"a": np.ones(3), "w": np.ones(2)}
    gk.adam_step(store, grads, lr=0.1)
    before = store.values()
    with pytest.raises(ConfigError, match="learning rate"):
        gk.adam_step(store, grads, lr)
    for name, values in before.items():
        assert (store[name].values == values).all(), name
        assert store.step_count(name) == 1, name
    gk.adam_step(store, grads, {"intra_shared": 1, "inter": np.float32(0.5)})
    assert store.step_count("a") == store.step_count("w") == 2


# sizes that put the value midpoint of the blocks inside the last parameter
SPLIT_SHAPES = [
    ("one", (1,), "inter"),
    ("under", (ADAM_BLOCK - 1,), "intra_shared"),
    ("over", (ADAM_BLOCK + 1,), "inter"),
    ("triple", (3, ADAM_BLOCK), "intra_shared"),
]


def recording_blocks(monkeypatch, split_min=0):
    """Split steps of ``split_min`` values and up (every step by default), and
    record per thread the names of the blocks each ``_adam_blocks`` run gets."""
    from sessionrec.gradkit import params as params_module

    monkeypatch.setattr(params_module, "ADAM_SPLIT_MIN", split_min)
    runs = []
    original = params_module._adam_blocks

    def recording(blocks, beta1, beta2):
        runs.append((threading.get_ident(), [b[0] for b in blocks]))
        return original(blocks, beta1, beta2)

    monkeypatch.setattr(params_module, "_adam_blocks", recording)
    return runs


def test_split_adam_step_equals_a_serial_block_by_block_run(monkeypatch):
    rng = np.random.default_rng(17)
    runs = recording_blocks(monkeypatch)
    store = store_with(SPLIT_SHAPES, seed=4)
    params = {name: store[name].values.reshape(-1).copy() for name, _, _ in SPLIT_SHAPES}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    steps = dict.fromkeys(params, 0)
    lr = {"intra_shared": 0.02, "inter": 0.005}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(5):
        grads = {name: rng.normal(0.0, 1.0, store[name].shape) for name in params}
        if t == 2:
            del grads["over"]  # a parameter without a gradient this step
        gk.adam_step(store, grads, lr)
        for name, g in grads.items():
            steps[name] += 1
            step = steps[name]
            lr_t = lr[store.group(name)] * math.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
            eps_t = eps * math.sqrt(1.0 - beta2**step)
            g = g.reshape(-1)
            for lo in range(0, g.size, ADAM_BLOCK):
                block = slice(lo, lo + ADAM_BLOCK)
                m[name][block] = beta1 * m[name][block] + (1.0 - beta1) * g[block]
                v[name][block] = beta2 * v[name][block] + (1.0 - beta2) * g[block] * g[block]
                params[name][block] -= lr_t * m[name][block] / (np.sqrt(v[name][block]) + eps_t)
        for name, p in params.items():
            assert (store[name].values.reshape(-1) == p).all(), (t, name)
            assert (store._m[name].reshape(-1) == m[name]).all(), (t, name)
            assert (store._v[name].reshape(-1) == v[name]).all(), (t, name)
            assert store.step_count(name) == steps[name], (t, name)
    # every step ran in two halves, one on this thread and one on the helper,
    # and the cut fell inside "triple"
    assert len(runs) == 10
    for pair in zip(runs[::2], runs[1::2]):
        (_, caller), (helper_id, helper) = sorted(pair, key=lambda run: run[0] != threading.get_ident())
        assert helper_id != threading.get_ident()
        assert caller[-1] == helper[0] == "triple", (caller, helper)


@pytest.mark.parametrize(
    "poisoned, named",
    [
        (["triple"], "triple"),  # a block of the helper's half only
        (["under", "triple"], "under"),  # both halves: the caller's is earlier
        (["over", "one"], "one"),  # both in the caller's half
    ],
)
def test_split_adam_step_names_the_earliest_non_finite_parameter(poisoned, named, monkeypatch):
    runs = recording_blocks(monkeypatch)
    store = store_with(SPLIT_SHAPES, seed=4)
    for name in poisoned:
        store[name].values.reshape(-1)[-1] = np.inf
    grads = {name: np.ones(store[name].shape) for name in store.names()}
    with pytest.raises(NumericsError, match=rf"parameter {named} went non-finite"):
        gk.adam_step(store, grads, lr=0.01)
    assert len(runs) == 2


def test_only_steps_of_at_least_the_split_minimum_are_split(monkeypatch):
    from sessionrec.gradkit.params import ADAM_SPLIT_MIN

    runs = recording_blocks(monkeypatch, ADAM_SPLIT_MIN)
    small = store_with([("w", (ADAM_SPLIT_MIN - 2,), "inter"), ("b", (1,), "inter")])
    large = store_with([("w", (ADAM_SPLIT_MIN - 1,), "inter"), ("b", (1,), "inter")])
    for store in (small, large):
        gk.adam_step(store, {name: np.ones(store[name].shape) for name in store.names()}, lr=0.01)
    assert len(runs) == 3  # the small step in one run, the large one in two


def test_in_halves_raises_the_callers_error_ahead_of_the_helpers():
    from sessionrec.gradkit.threads import in_halves

    def half(error):
        if error is not None:
            raise error
        return "ok"

    with pytest.raises(ValueError, match="caller"):
        in_halves(half, (ValueError("caller"),), (KeyError("helper"),))
    with pytest.raises(KeyError, match="helper"):
        in_halves(half, (None,), (KeyError("helper"),))
    assert in_halves(half, (None,), (None,)) == ("ok", "ok")


def test_the_helper_runs_with_the_callers_numpy_error_state():
    from sessionrec.gradkit.threads import helper

    with np.errstate(over="ignore"):
        assert helper().submit(np.geterr).result()["over"] == "ignore"
    assert helper().submit(np.geterr).result()["over"] == np.geterr()["over"]


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip(tmp_path):
    store = store_with([("emb", (3, 2), "intra_shared"), ("attn", (4,), "inter")])
    meta = {"epoch": 3, "note": "midway"}
    path = tmp_path / "state.ckpt"
    gk.save_params(path, store, meta)
    back, got_meta = gk.load_params(path)
    assert got_meta == meta
    assert back.names() == store.names()
    for n in store.names():
        assert (back[n].values == store[n].values).all()
        assert back.group(n) == store.group(n)


def test_checkpoint_bytes_deterministic(tmp_path):
    store = store_with([("w", (5,), "inter")])
    gk.save_params(tmp_path / "a.ckpt", store, {"k": 1})
    gk.save_params(tmp_path / "b.ckpt", store, {"k": 1})
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    store = store_with([("w", (2,), "inter")])
    path = tmp_path / "x.ckpt"
    gk.save_params(path, store, {})
    intact = path.read_bytes()
    blob = bytearray(intact)
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        gk.load_params(path)
    with pytest.raises(CheckpointError):
        gk.load_params(tmp_path / "missing.ckpt")
    deep = b"[" * 100_000  # metadata nested past the decoder's recursion limit
    path.write_bytes(intact[:5] + struct.pack("<I", len(deep)) + deep + intact[11:])
    with pytest.raises(CheckpointError):
        gk.load_params(path)


def test_checkpoint_truncation_detected(tmp_path):
    store = store_with([("w", (64,), "inter")])
    path = tmp_path / "x.ckpt"
    gk.save_params(path, store, {})
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointError):
        gk.load_params(path)


def test_checkpoint_metadata_must_be_an_object(tmp_path):
    path = tmp_path / "x.ckpt"
    gk.save_params(path, store_with([("w", (2,), "inter")]), ["not", "an", "object"])
    with pytest.raises(CheckpointError, match="metadata"):
        gk.load_params(path)


def test_failed_checkpoint_write_leaves_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "x.ckpt"
    gk.save_params(path, store_with([("w", (64,), "inter")]), {"epoch": 0})
    before = path.read_bytes()

    class TornFile(io.FileIO):
        """Takes the first buffer written to it, then runs out of space."""

        def write(self, data):
            if self.tell():
                raise OSError("disk full")
            return super().write(data)

    monkeypatch.setattr(Path, "open", lambda self, mode="r": TornFile(self, mode))
    with pytest.raises(OSError, match="disk full"):
        gk.save_params(path, store_with([("w", (64,), "inter")], seed=1), {"epoch": 1})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_concurrent_writes_of_one_path_each_land_whole(tmp_path):
    """Two threads replace one path and are both mid-write at once: each
    write has its own temporary file, so neither takes the other's."""
    from sessionrec.files import write_atomic

    path = tmp_path / "x.ckpt"
    met = threading.Barrier(2, timeout=10)

    def parts(tag):
        yield tag * 4
        met.wait()  # both temporary files are open and half written
        yield tag * 4

    errors = []

    def write(tag):
        try:
            write_atomic(path, parts(tag))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(tag,)) for tag in (b"a", b"b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []
    assert path.read_bytes() in (b"a" * 8, b"b" * 8)
    assert list(tmp_path.iterdir()) == [path]


def test_many_threads_rewriting_one_path_leave_one_whole_file(tmp_path):
    from sessionrec.files import write_atomic

    path = tmp_path / "x.ckpt"
    payloads = [bytes([65 + n]) * 4096 for n in range(4)]
    errors = []

    def rewrite(payload):
        try:
            for _ in range(25):
                write_atomic(path, [payload[:2048], payload[2048:]])
        except OSError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=rewrite, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert path.read_bytes() in payloads
    assert list(tmp_path.iterdir()) == [path]
