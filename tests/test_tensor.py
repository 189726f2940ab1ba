import numpy as np
import pytest

from defreach import kernels
from defreach import tensor as T


def leaf(tape, rng, r, c):
    return tape.tensor(rng.standard_normal((r, c)))


def check_scalar_fn(build, arrays, tol=1e-6, h=1e-6):
    """Compare tape gradients of build(list of arrays) -> scalar Tensor
    against central finite differences, per input array."""
    tape = T.Tape()
    tensors = [tape.tensor(a) for a in arrays]
    loss = build(tensors)
    grads = T.gradients(loss, tensors)
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
        grads = T.gradients(loss, [x])
        assert grads[0][0, 0] == pytest.approx(0.25)

    def test_linear_loss_gradient_is_input_broadcast(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 2))
        x = rng.standard_normal((4, 3))
        tape = T.Tape()
        wt = tape.tensor(w)
        loss = T.sum_all(T.matmul(tape.tensor(x), wt))
        grads = T.gradients(loss, [wt])
        np.testing.assert_allclose(grads[0], x.T @ np.ones((4, 2)), rtol=1e-12)

    def test_param_off_tape_gets_zero_grad_and_flag(self):
        tape = T.Tape()
        x = tape.tensor([[1.0]])
        stray = T.Tensor([[5.0]])
        loss = T.sum_all(x)
        grads = T.gradients(loss, [x, stray])
        np.testing.assert_array_equal(grads[1], [[0.0]])

    def test_operands_on_different_tapes_rejected(self):
        a, b = T.Tape().tensor([[1.0]]), T.Tape().tensor([[2.0]])
        with pytest.raises(T.TensorError, match="operands recorded on different tapes"):
            T.add(a, b)

    def test_loss_off_tape_rejected(self):
        x = T.Tensor([[1.0]])
        with pytest.raises(T.TensorError, match="loss was not recorded on a tape"):
            T.gradients(T.sum_all(x), [x])

    def test_backward_from_non_scalar_rejected(self):
        x = T.Tape().tensor(np.ones((2, 2)))
        with pytest.raises(T.TensorError, match=r"backward from non-scalar shape \(2, 2\)"):
            T.gradients(T.tanh(x), [x])

    def test_constant_operand_gets_no_grad(self):
        tape = T.Tape()
        w = tape.tensor([[2.0]])
        c = T.Tensor([[3.0]])
        grads = T.gradients(T.sum_all(T.hadamard(c, w)), [w])
        assert c.grad is None
        np.testing.assert_array_equal(grads[0], [[3.0]])

    def test_op_off_the_loss_path_is_skipped(self):
        tape = T.Tape()
        x = tape.tensor([[0.5]])
        T.tanh(x)  # recorded, but the loss does not depend on it
        grads = T.gradients(T.sum_all(x), [x])
        np.testing.assert_array_equal(grads[0], [[1.0]])

    def test_gradient_linearity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))

        def grad_of(build):
            tape = T.Tape()
            x = tape.tensor(a)
            g = T.gradients(build(x), [x])
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
            g = T.gradients(loss, [a, b])
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


def loop_scatter(x, index, n):
    """Reference scatter: out[index[r]] += x[r], one row at a time."""
    out = np.zeros((n, x.shape[1]))
    for r in range(x.shape[0]):
        out[index[r]] += x[r]
    return out


class TestKernels:
    EDGE_CASES = {
        "duplicates-and-isolated": (
            np.array([0, 1, 1, 0, 3, 0], dtype=np.int64),
            np.array([1, 2, 2, 1, 0, 3], dtype=np.int64),
        ),  # node 4 has no edges at all
        "no-edges": (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_sum_matches_loop(self, case):
        src, dst = self.EDGE_CASES[case]
        h = np.random.default_rng(30).standard_normal((5, 3))
        got = kernels.edge_sum(h, src, dst)
        np.testing.assert_array_equal(got, loop_scatter(h[src], dst, 5))
        assert not got[4].any()

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_segment_sum_matches_loop(self, rows):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((rows, 4))
        seg = np.sort(rng.integers(0, 3, rows))
        got = kernels.segment_sum(x, seg, 4)  # segment 3 stays empty
        np.testing.assert_array_equal(got, loop_scatter(x, seg, 4))
        assert got.shape == (4, 4) and not got[3].any()

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(32)
        h = rng.standard_normal((300, 32))
        src = rng.integers(0, 300, 900)
        dst = rng.integers(0, 300, 900)
        first = kernels.edge_sum(h, src, dst)
        for _ in range(3):
            assert np.array_equal(kernels.edge_sum(h, src, dst), first)
        seg = np.sort(rng.integers(0, 10, 300))
        first = kernels.segment_sum(h, seg, 10)
        assert np.array_equal(kernels.segment_sum(h, seg, 10), first)


class TestEmbedSum:
    SLOTS = np.array([[0, 3, -1], [2, 2, 5], [-1, -1, -1], [5, 0, 3]], dtype=np.int64)

    def test_equals_one_hot_product(self):
        w = np.random.default_rng(33).standard_normal((6, 3))
        dense = np.zeros((4, 6))
        for i, row in enumerate(self.SLOTS):
            for s in row[row >= 0]:
                dense[i, s] += 1.0
        got = T.embed_sum(self.SLOTS, T.Tensor(w)).data
        np.testing.assert_allclose(got, dense @ w, rtol=1e-15, atol=1e-15)
        assert not got[2].any()

    def test_gradient_check_with_empty_and_repeated_slots(self):
        w = np.random.default_rng(34).standard_normal((6, 3))
        check_scalar_fn(lambda t: T.sum_all(T.tanh(T.embed_sum(self.SLOTS, t[0]))), [w])

    def test_non_finite_weight_rejected(self):
        w = np.ones((6, 3))
        w[5, 1] = np.inf
        with pytest.raises(T.TensorError, match="non-finite output of embed_sum"):
            T.embed_sum(self.SLOTS, T.Tensor(w))

    @pytest.mark.parametrize("bad", [-2, 6])
    def test_slot_out_of_range_rejected(self, bad):
        slots = self.SLOTS.copy()
        slots[1, 1] = bad
        with pytest.raises(T.TensorError, match="slot outside"):
            T.embed_sum(slots, T.Tensor(np.ones((6, 3))))


class TestSigmoid:
    def test_tanh_form_matches_two_branch_formula(self):
        x = np.linspace(-30.0, 30.0, 6001)
        ex = np.exp(-np.abs(x))
        old = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        got = T.sigmoid(T.Tensor(x.reshape(1, -1))).data[0]
        assert np.max(np.abs(got - old)) <= 1e-15
        assert ((got >= 0.0) & (got <= 1.0)).all()


class TestMatmulRows:
    @pytest.mark.parametrize("cols", [1, 8])
    def test_row_result_independent_of_position(self, cols):
        # a graph's rows must give the same bits wherever it sits in a batch
        rng = np.random.default_rng(35)
        w = T.Tensor(rng.standard_normal((32, cols)))
        for n in range(1, 12):
            a = rng.standard_normal((n, 32))
            for pad in range(1, 6):
                stacked = np.vstack([a, rng.standard_normal((pad, 32)), a])
                out = T.matmul(T.Tensor(stacked), w).data
                assert np.array_equal(out[:n], out[n + pad:]), (n, pad)
