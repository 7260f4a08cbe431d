"""The autodiff tape: op semantics, gradient fidelity, optimizer, persistence."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sessionrec import gradkit as gk
from sessionrec.errors import CheckpointError, ConfigError, NumericsError, ShapeError
from sessionrec.gradkit import ParamSpec, ParamStore, Tensor
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


def test_grad_nonlinearities():
    x = t((6,))
    fd_check(lambda x: gk.sum(gk.sigmoid(x)), [x], tol=1e-6)
    fd_check(lambda x: gk.sum(gk.tanh(x)), [x])
    fd_check(lambda x: gk.sum(gk.exp(x)), [x])
    y = t((6,), offset=5.0)  # positive inputs for log
    fd_check(lambda y: gk.sum(gk.log(y)), [y])


def test_grad_leaky_relu_away_from_kink():
    x = Tensor([-3.0, -0.5, 0.5, 2.0])
    fd_check(lambda x: gk.sum(gk.leaky_relu(x)), [x], tol=1e-9)
    y = gk.sum(gk.leaky_relu(x))
    (g,) = gk.backward(y, wrt=[x])
    assert g.tolist() == [0.2, 0.2, 1.0, 1.0]


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
    """The scratch-buffer update equals the textbook expressions evaluated as written."""
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
            m_hat = m[name] / (1.0 - beta1**step)
            v_hat = v[name] / (1.0 - beta2**step)
            params[name] = params[name] - lr[store.group(name)] * m_hat / (np.sqrt(v_hat) + eps)
        for name, p in params.items():
            assert (store[name].values == p).all(), (t, name)
    assert store.step_count("vec") == 4


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

    def torn_write(self, data):
        with open(self, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError, match="disk full"):
        gk.save_params(path, store_with([("w", (64,), "inter")], seed=1), {"epoch": 1})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
