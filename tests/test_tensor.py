import math
import tracemalloc
import weakref

import numpy as np
import pytest

from fuxi_alpha import model as M
from fuxi_alpha import tensor as T
from fuxi_alpha.tensor import Tape, Tensor, backward, grad_check


def _one_sequence(length: int) -> T.AttnContext:
    """The attention layout of one sequence of `length` positions, as the model builds it."""
    items, ts = np.ones((1, length), dtype=np.int64), np.zeros((1, length), dtype=np.int64)
    return M.build_attn_context(M.SequenceBatch(items, ts, [length]), M.ModelConfig(vocab=3, negatives=1, n=length))


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_case():
    # [[1,2]] @ [[3],[4]] = [[1*3 + 2*4]] = [[11]]
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_zero_annihilates():
    z = Tensor(np.zeros((3, 4)))
    rng = np.random.default_rng(0)
    m = Tensor(rng.normal(size=(4, 5)))
    out = T.matmul(z, m)
    np.testing.assert_array_equal(out.data, np.zeros((3, 5)))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(T.ShapeError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_associativity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        c = Tensor(rng.normal(size=(5, 2)))
        left = T.matmul(T.matmul(a, b), c).data
        right = T.matmul(a, T.matmul(b, c)).data
        np.testing.assert_allclose(left, right, atol=1e-9)


def test_silu_values():
    assert T.silu(Tensor([0.0])).data[0] == 0.0
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(T.silu(Tensor([1.0])).data[0] - expected) < 1e-15
    # approaches identity for large input
    assert abs(T.silu(Tensor([50.0])).data[0] - 50.0) < 1e-12


def test_sigmoid_matches_the_logistic_formula():
    x = np.linspace(-40.0, 40.0, 100_001)
    want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert np.abs(T._sigmoid(x) - want).max() <= 1e-15
    assert np.abs(T.silu(Tensor(x)).data - x * want).max() <= 1e-14


def test_silu_keeps_only_its_input_for_backward():
    # the output is the one new array a silu node holds; its sigmoid is
    # recomputed in backward
    x = Tensor(np.random.default_rng(0).normal(size=100_000), requires_grad=True)
    with Tape() as tape:
        tracemalloc.start()
        try:
            out = T.silu(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        loss = T.tsum(out)
    assert held < 1.5 * x.data.nbytes
    T.backward(loss, tape)
    s = 1.0 / (1.0 + np.exp(-x.data))
    np.testing.assert_allclose(x.grad, s * (1.0 + x.data * (1.0 - s)), rtol=0, atol=1e-15)


_UNREAD_OUTPUTS = {
    # an op output, and the op it is fed to, whose rule reads no array
    "matmul_into_add": (lambda x, table, idx: T.matmul(x, T.swap_last(table)), lambda y, x: T.add(y, y)),
    "rows_dot_into_concat": (lambda x, table, idx: T.rows_dot(x, table, idx), lambda y, x: T.concat([y, y])),
    "take_into_add": (lambda x, table, idx: T.take(table, idx[:, 0]), lambda y, x: T.add(y, x)),
}


@pytest.mark.parametrize("case", list(_UNREAD_OUTPUTS))
def test_an_output_no_rule_reads_is_freed_when_dropped(case):
    produce, consume = _UNREAD_OUTPUTS[case]
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    table = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    idx = rng.integers(0, 5, size=(6, 3))
    with Tape() as tape:
        y = produce(x, table, idx)
        freed = weakref.ref(y.data)
        loss = T.tsum(consume(y, x))
        del y
        assert freed() is None
    backward(loss, tape)
    assert x.grad is not None and table.grad is not None


def test_arrays_a_rule_reads_live_until_backward_replays_it():
    # matmul keeps its operands and silu its input; once backward has popped
    # their nodes they are freed
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    with Tape() as tape:
        h = T.scale(x, 2.0)
        pre = T.matmul(h, w)
        kept = [weakref.ref(h.data), weakref.ref(pre.data)]
        loss = T.tsum(T.silu(pre))
        del h, pre
    assert all(ref() is not None for ref in kept)
    backward(loss, tape)
    assert all(ref() is None for ref in kept)


def test_silu_no_overflow_for_extreme_inputs():
    out = T.silu(Tensor([-800.0, 800.0, 0.0]))
    assert np.all(np.isfinite(out.data))


def test_rms_norm_ones_row():
    x = Tensor(np.ones((2, 4)))
    gain = Tensor(np.ones(4))
    out = T.rms_norm(x, gain, eps=1e-12)
    np.testing.assert_allclose(out.data, np.ones((2, 4)), atol=1e-9)


def test_rms_norm_zero_row_stays_zero():
    out = T.rms_norm(Tensor(np.zeros((1, 5))), Tensor(np.ones(5)))
    np.testing.assert_array_equal(out.data, np.zeros((1, 5)))


def test_rms_norm_hand_case():
    # mean square of [3,4] is 12.5; row scales by 1/sqrt(12.5)
    out = T.rms_norm(Tensor([[3.0, 4.0]]), Tensor(np.ones(2)), eps=1e-15)
    expected = np.array([[3.0, 4.0]]) / math.sqrt(12.5)
    np.testing.assert_allclose(out.data, expected, atol=1e-9)


def test_rms_norm_scale_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    gain = Tensor(np.ones(6))
    a = T.rms_norm(Tensor(x), gain, eps=1e-14).data
    b = T.rms_norm(Tensor(2.5 * x), gain, eps=1e-14).data
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_masked_softmax_zeroes_disallowed_keys():
    # with V the identity the attention output is its weight matrix, here the
    # causal softmax of the scores [1, 2, 3] of one sequence of three positions
    q = Tensor(np.array([[np.sqrt(3.0), 0.0, 0.0]] * 3))
    k = Tensor(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    ctx = _one_sequence(3)
    p = T.masked_softmax_attention(q, k, Tensor(np.eye(3)), ctx, heads=1).data
    np.testing.assert_array_equal(p[0], [1.0, 0.0, 0.0])  # position 0 attends key 0 alone
    assert p[1, 2] == 0.0
    np.testing.assert_allclose(p[1, :2].sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(p[2], np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum(), atol=1e-12)
    # the ranked position 1 alone: its row of the above
    ranked = T.masked_softmax_attention(Tensor(q.data[:1]), k, Tensor(np.eye(3)), ctx.at_rows(np.array([1])), heads=1)
    np.testing.assert_array_equal(ranked.data, p[1:2])


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = x.sum()
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic_hand_derivative():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = T.mul(x, x).sum()
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)


def test_backward_constant_loss_zero_grad():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = (x * 0.0).sum()
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.zeros(3))


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ValueError):
        backward(y, tape)


def test_backward_rejects_consumed_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = x.sum()
    backward(loss, tape)
    with pytest.raises(RuntimeError):
        backward(loss, tape)


def test_backward_rejects_foreign_loss():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        _ = x * 2.0
    with Tape() as other:
        loss = x.sum()
    with pytest.raises(RuntimeError):
        backward(loss, tape)


def test_grad_check_quadratic():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 2)))
    err = grad_check(lambda t: T.mul(t, t).sum(), x, fd_step=1e-5)
    assert err < 1e-8


def test_grad_check_constant_function_zero_error():
    x = Tensor([1.0, 2.0])
    err = grad_check(lambda t: (t * 0.0).sum(), x, fd_step=1e-5)
    assert err == 0.0


def test_grad_check_silu_at_zero():
    # silu'(0) = sigmoid(0) * (1 + 0) = 0.5 per coordinate
    x = Tensor(np.zeros(4))
    for p in [x]:
        p.requires_grad = True
    with Tape() as tape:
        loss = T.silu(x).sum()
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, np.full(4, 0.5), atol=1e-12)
    err = grad_check(lambda t: T.silu(t).sum(), Tensor(np.zeros(4)), fd_step=1e-5)
    assert err < 1e-6


def test_grad_check_rejects_bad_step_and_nonscalar():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        grad_check(lambda t: t.sum(), x, fd_step=0.0)
    with pytest.raises(ValueError):
        grad_check(lambda t: t * 2.0, x, fd_step=1e-5)


def _gradcheck_cases(rng):
    """One scalar-valued function per differentiable op, random operands."""
    a = Tensor(rng.normal(size=(4, 8)))
    b = Tensor(rng.normal(size=(8, 3)))
    c = Tensor(rng.normal(size=(4, 8)))
    gain = Tensor(rng.normal(size=8) * 0.1 + 1.0)
    vec = Tensor(rng.normal(size=6))
    table = Tensor(rng.normal(size=(5, 3)))
    idx = rng.integers(0, 6, size=(2, 4))
    ridx = rng.integers(0, 5, size=(4, 2))
    xq = Tensor(rng.normal(size=(4, 3)))
    cand = rng.integers(0, 5, size=(4, 3))
    causal4 = _one_sequence(4)
    return [
        (lambda: T.matmul(a, b).sum(), [a, b]),
        (lambda: T.silu(c).sum(), [c]),
        (lambda: T.relu(Tensor(c.data + 0.3)).sum(), []),
        (lambda: T.rms_norm(a, gain).sum(), [a, gain]),
        (lambda: T.logsumexp(a).sum(), [a]),
        (lambda: T.concat([a, c], axis=-1).sum(), [a, c]),
        (lambda: T.mul(T.swap_last(a), T.swap_last(c)).sum(), [a]),
        (lambda: T.mul(T.take(vec, idx), T.take(vec, idx)).sum(), [vec]),
        (lambda: T.mul(T.take(table, ridx), T.take(table, ridx)).sum(), [table]),
        (lambda: T.mul(T.rows_dot(xq, table, cand), T.rows_dot(xq, table, cand)).sum(), [xq, table]),
        (lambda: T.add(T.mul(a, c), a).mean(), [a, c]),
        (lambda: a.mean(axis=0).sum(), [a]),
        (lambda: T.mul(T.masked_softmax_attention(a, c, c, causal4, 2), a).sum(), [a, c]),
    ]


def test_every_op_passes_grad_check_across_seeds():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        for fn, params in _gradcheck_cases(rng):
            if not params:
                continue
            err = T.grad_check_params(fn, params, fd_step=1e-5)
            assert err < 1e-4, f"seed {seed}: grad error {err}"


def test_no_nan_after_forward_on_finite_inputs():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(3, 5)) * 300)
    for out in [T.silu(x), T.logsumexp(x), T.rms_norm(x, None), T.relu(x)]:
        assert not np.any(np.isnan(out.data))


def test_grad_accumulates_across_uses():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = T.add(T.mul(x, x), x).sum()  # x^2 + x -> grad 2x + 1 = 5
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [5.0], atol=1e-12)


def test_rows_dot_matches_dense_gather():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(12, 5)))
    table = Tensor(rng.normal(size=(7, 5)))
    idx = rng.integers(0, 7, size=(12, 6))
    out = T.rows_dot(x, table, idx).data
    expected = np.einsum("pd,pkd->pk", x.data, table.data[idx])
    np.testing.assert_allclose(out, expected, atol=1e-12)
    with pytest.raises(T.ShapeError):  # rows are [P, d], candidates [P, K]
        T.rows_dot(Tensor(x.data.reshape(3, 4, 5)), table, idx.reshape(3, 4, 6))


def _scattered(idx, weights, shape):
    """np.add.at reference for the gradient of a gather: weights [*idx.shape, *shape[1:]]."""
    out = np.zeros(shape)
    np.add.at(out, idx.ravel(), weights.reshape((idx.size,) + shape[1:]))
    return out


def test_gather_gradients_equal_the_add_at_scatter_bitwise():
    rng = np.random.default_rng(12)
    vec = Tensor(rng.normal(size=6), requires_grad=True)
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    idx = rng.integers(0, 5, size=(4, 7))  # 28 entries over 5 rows: repeats
    assert np.bincount(idx.ravel()).max() > 1
    w_vec, w_table, w_scores = rng.normal(size=(4, 7)), rng.normal(size=(4, 7, 3)), rng.normal(size=(4, 7))
    with Tape() as tape:
        loss = T.add(
            T.add(T.mul(T.take(vec, idx), Tensor(w_vec)).sum(), T.mul(T.take(table, idx), Tensor(w_table)).sum()),
            T.mul(T.rows_dot(x, table, idx), Tensor(w_scores)).sum(),
        )
    backward(loss, tape)
    np.testing.assert_array_equal(vec.grad, _scattered(idx, w_vec, vec.shape))
    # the table's two gradients accumulate in tape order: rows_dot's, then take's
    rows_dot_grad = _scattered(idx, w_scores[..., None] * x.data[:, None, :], table.shape)
    np.testing.assert_array_equal(table.grad, rows_dot_grad + _scattered(idx, w_table, table.shape))
    with pytest.raises(T.ShapeError):
        T.take(Tensor(np.zeros((2, 2, 2))), idx)


def test_rows_dot_chunks_match_one_chunk(monkeypatch):
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(12, 5)), requires_grad=True)
    table = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
    idx = rng.integers(0, 7, size=(12, 6))
    weights = Tensor(rng.normal(size=(12, 6)))
    runs = []
    for elems in (T._CHUNK_ELEMS, 5 * 6 * 5):  # one chunk; chunks of 5 rows, the last partial
        monkeypatch.setattr(T, "_CHUNK_ELEMS", elems)
        with Tape() as tape:
            out = T.rows_dot(x, table, idx)
            loss = T.mul(out, weights).sum()
        backward(loss, tape)
        runs.append((out.data, x.grad, table.grad))
        x.grad = table.grad = None
    for whole, chunked in zip(*runs):
        np.testing.assert_array_equal(chunked, whole)
