import numpy as np
import pytest

from defreach import tensor as T


def leaf(tape, rng, r, c):
    return tape.tensor(rng.standard_normal((r, c)))


def check_scalar_fn(build, arrays, tol=1e-6, h=1e-6):
    """Compare tape gradients of build(list of arrays) -> scalar Tensor
    against central finite differences, per input array."""
    tape = T.Tape()
    tensors = [tape.tensor(a) for a in arrays]
    loss = build(tensors)
    grads, _ = T.gradients(loss, tensors)
    for i, a in enumerate(arrays):
        def f(x, i=i):
            inputs = [T.Tensor(v) for v in arrays]
            inputs[i] = T.Tensor(x)
            return build(inputs).item()

        fd = T.numeric_gradient(f, a.copy(), h=h)
        err = T.relative_error(grads[i], fd)
        assert err < tol, f"input {i}: relative error {err:.3e}"


class TestForward:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.Tensor([[0.0]])).item() == 0.5

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_random_chain_matches_naive_evaluation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal((1, 3))
        got = T.tanh(T.add(T.matmul(T.Tensor(x), T.Tensor(w)), T.Tensor(b))).data
        np.testing.assert_allclose(got, np.tanh(x @ w + b), rtol=1e-15)

    def test_softplus_stable_at_extremes(self):
        out = T.softplus(T.Tensor([[-800.0, 0.0, 800.0]]))
        np.testing.assert_allclose(out.data, [[0.0, np.log(2.0), 800.0]], atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.TensorError, match=r"\(2, 3\) @ \(2, 3\)"):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
        with pytest.raises(T.TensorError, match=r"\(2, 3\) \+ \(3, 2\)"):
            T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))

    def test_non_finite_output_rejected(self):
        with pytest.raises(T.TensorError, match="non-finite output of scale"):
            T.scale(T.Tensor([[np.inf]]), 2.0)

    def test_only_2d(self):
        with pytest.raises(T.TensorError):
            T.Tensor(np.ones(3))


class TestGradients:
    def test_sigmoid_derivative_at_zero(self):
        tape = T.Tape()
        x = tape.tensor([[0.0]])
        loss = T.sum_all(T.sigmoid(x))
        grads, _ = T.gradients(loss, [x])
        assert grads[0][0, 0] == pytest.approx(0.25)

    def test_linear_loss_gradient_is_input_broadcast(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 2))
        x = rng.standard_normal((4, 3))
        tape = T.Tape()
        wt = tape.tensor(w)
        loss = T.sum_all(T.matmul(tape.tensor(x), wt))
        grads, _ = T.gradients(loss, [wt])
        np.testing.assert_allclose(grads[0], x.T @ np.ones((4, 2)), rtol=1e-12)

    def test_param_off_tape_gets_zero_grad_and_flag(self):
        tape = T.Tape()
        x = tape.tensor([[1.0]])
        stray = T.Tensor([[5.0]])
        loss = T.sum_all(x)
        grads, off = T.gradients(loss, [x, stray])
        assert off == [1]
        np.testing.assert_array_equal(grads[1], [[0.0]])

    def test_gradient_linearity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))

        def grad_of(build):
            tape = T.Tape()
            x = tape.tensor(a)
            g, _ = T.gradients(build(x), [x])
            return g[0]

        g_sum = grad_of(lambda x: T.sum_all(T.add(T.sigmoid(x), T.tanh(x))))
        g_parts = grad_of(lambda x: T.sum_all(T.sigmoid(x))) + grad_of(
            lambda x: T.sum_all(T.tanh(x))
        )
        np.testing.assert_allclose(g_sum, g_parts, rtol=1e-12)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(4)
        arrs = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]

        def run():
            tape = T.Tape()
            a, b = (tape.tensor(x) for x in arrs)
            loss = T.sum_all(T.relu(T.matmul(a, b)))
            g, _ = T.gradients(loss, [a, b])
            return loss.item(), g

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        for x, y in zip(g1, g2):
            assert np.array_equal(x, y)


class TestFiniteDifferenceChecks:
    def test_elementwise_ops(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        check_scalar_fn(lambda t: T.sum_all(T.hadamard(T.sigmoid(t[0]), T.tanh(t[1]))), [a, b])
        check_scalar_fn(lambda t: T.sum_all(T.softplus(t[0])), [a])
        check_scalar_fn(lambda t: T.sum_all(T.scale_rows(t[0], t[1])), [a, b[:, :1].copy()])

    def test_bias_broadcast(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 3))
        b = rng.standard_normal((1, 3))
        check_scalar_fn(lambda t: T.sum_all(T.tanh(T.add(t[0], t[1]))), [x, b])

    def test_edge_gather_and_segment_sum(self):
        rng = np.random.default_rng(12)
        h = rng.standard_normal((5, 4))
        src = np.array([0, 1, 1, 3, 4], dtype=np.int64)
        dst = np.array([1, 2, 3, 4, 0], dtype=np.int64)
        seg = np.array([0, 0, 1, 1, 1], dtype=np.int64)
        check_scalar_fn(
            lambda t: T.sum_all(T.tanh(T.segment_sum(T.edge_gather_sum(t[0], src, dst), seg, 2))),
            [h],
        )

    def test_gru_cell(self):
        rng = np.random.default_rng(13)
        n, hdim = 3, 4
        h0 = rng.standard_normal((n, hdim))
        a = rng.standard_normal((n, hdim))
        mats = [rng.standard_normal((hdim, hdim)) * 0.5 for _ in range(6)]
        biases = [rng.standard_normal((1, hdim)) * 0.1 for _ in range(3)]

        def gru(t):
            h, av = t[0], t[1]
            wz, uz, wr, ur, wh, uh = t[2:8]
            bz, br, bh = t[8:11]
            z = T.sigmoid(T.add(T.add(T.matmul(av, wz), T.matmul(h, uz)), bz))
            r = T.sigmoid(T.add(T.add(T.matmul(av, wr), T.matmul(h, ur)), br))
            cand = T.tanh(T.add(T.add(T.matmul(av, wh), T.matmul(T.hadamard(r, h), uh)), bh))
            keep = T.add_const(T.scale(z, -1.0), 1.0)
            out = T.add(T.hadamard(keep, h), T.hadamard(z, cand))
            return T.sum_all(T.tanh(out))

        check_scalar_fn(gru, [h0, a, *mats, *biases], tol=1e-6)
