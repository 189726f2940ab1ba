import gc
import re
import warnings
import weakref

import numpy as np
import pytest

from conftest import gru_chain, per_gate_step, projection_chain, random_slots, readout_chain, step_chain
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
        with pytest.raises(T.TensorError, match=r"^hadamard shape mismatch: \(2, 3\) \* \(3, 2\)$"):
            T.hadamard(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))
        with pytest.raises(T.TensorError, match=r"bias shape \(1, 3\) for product \(2, 2\)"):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))), bias=T.Tensor(np.ones((1, 3))))

    def test_non_finite_output_rejected(self):
        with pytest.raises(T.TensorError, match="non-finite output of scale"):
            T.scale(T.Tensor([[np.inf]]), 2.0)

    def test_only_2d(self):
        with pytest.raises(T.TensorError):
            T.Tensor(np.ones(3))

    def test_item_of_non_scalar_rejected(self):
        with pytest.raises(T.TensorError, match=r"^item\(\) on non-scalar shape \(2, 3\)$"):
            T.Tensor(np.ones((2, 3))).item()


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

    def test_gradients_written_into_out(self):
        rng = np.random.default_rng(5)
        tape = T.Tape()
        x, w, unused = leaf(tape, rng, 3, 4), leaf(tape, rng, 4, 2), leaf(tape, rng, 2, 2)
        loss = T.sum_all(T.tanh(T.matmul(T.add(x, x), w)))
        out = [np.full(t.shape, np.nan) for t in (x, w, unused)]
        returned = T.gradients(loss, [x, w, unused], out)
        assert all(r is o for r, o in zip(returned, out))
        fresh = T.gradients(loss, [x, w, unused])
        for a, b in zip(out, fresh):
            assert a.tobytes() == b.tobytes()
        assert not out[2].any()
        # with add, a second loss's gradients are added into out
        unused_sum = T.sum_all(unused)
        assert T.gradients(unused_sum, [x, w, unused], out, add=True) is out
        assert out[0].tobytes() == fresh[0].tobytes() and out[1].tobytes() == fresh[1].tobytes()
        assert (out[2] == 1.0).all()
        T.gradients(loss, [x, w, unused], out, add=True)
        for a, b in zip(out[:2], fresh[:2]):
            assert a.tobytes() == (b + b).tobytes()

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
        assert c.index == -1  # the constant has no slot on the tape
        np.testing.assert_array_equal(grads[0], [[3.0]])

    def test_gradients_twice_on_one_loss_agree(self):
        tape = T.Tape()
        x = tape.tensor([[2.0]])
        loss = T.sum_all(T.hadamard(x, x))
        first = T.gradients(loss, [x])
        second = T.gradients(loss, [x])
        np.testing.assert_array_equal(first[0], [[4.0]])
        np.testing.assert_array_equal(second[0], first[0])

    def test_param_on_another_differentiated_tape_gets_zeros(self):
        other = T.Tape()
        y = other.tensor([[2.0]])
        T.gradients(T.sum_all(T.hadamard(y, y)), [y])
        tape = T.Tape()
        x = tape.tensor([[1.0]])
        grads = T.gradients(T.sum_all(x), [x, y])
        np.testing.assert_array_equal(grads[0], [[1.0]])
        np.testing.assert_array_equal(grads[1], [[0.0]])

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
        inputs = gru_inputs(np.random.default_rng(13), n=3, m=4, hdim=4)
        check_scalar_fn(lambda t: T.sum_all(T.tanh(gru_chain(*t))), inputs, tol=1e-6)


def gru_inputs(rng, n, m, hdim):
    """Input a, state h and the nine weights, in gru_chain's argument order."""
    arrays = [rng.standard_normal((n, m)), rng.standard_normal((n, hdim))]
    for _ in "zrh":
        arrays += [rng.standard_normal((m, hdim)) * 0.5, rng.standard_normal((hdim, hdim)) * 0.5,
                   rng.standard_normal((1, hdim)) * 0.1]
    return arrays


def step_inputs(rng, n, m, hdim):
    """State h, agg_w, agg_b and the nine GRU weights, in T.message_step's
    argument order; m is the aggregate's width, the GRU's input width."""
    _, h, *weights = gru_inputs(rng, n, m, hdim)
    return [h, rng.standard_normal((hdim, m)) * 0.5, rng.standard_normal((1, m)) * 0.1] + weights


def edges(rng, n):
    """2n random edges: repeated edges, self-loops and nodes without predecessors."""
    return rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n)


def fused_step(h, src, dst, *weights):
    """T.message_step over the edges (src, dst), in step_chain's arguments."""
    return T.message_step(h, kernels.Edges(src, dst, h.shape[1]), T.StepWeights(*weights))


# (rows, aggregate width, state width); a one-column state takes matmul's row-wise path
GRU_SHAPES = [(3, 4, 4), (5, 3, 1), (1, 2, 3)]


class TestFusedOps:
    """T.message_step against step_chain. The GRU update exists only inside
    message_step, so the test_gru_* tests check it there."""

    @pytest.mark.parametrize("n, m, hdim", GRU_SHAPES)
    def test_gru_output_bit_identical_to_chain(self, n, m, hdim):
        rng = np.random.default_rng(40)
        h, *weights = [T.Tensor(x) for x in step_inputs(rng, n, m, hdim)]
        src, dst = edges(rng, n)
        fused = fused_step(h, src, dst, *weights).data
        assert np.array_equal(fused, step_chain(h, src, dst, *weights).data)

    @pytest.mark.parametrize("n, m, hdim", GRU_SHAPES)
    def test_gru_gradients_match_chain(self, n, m, hdim):
        rng = np.random.default_rng(41)
        arrays = step_inputs(rng, n, m, hdim)
        src, dst = edges(rng, n)

        def grads(step):
            tape = T.Tape()
            tensors = [tape.tensor(x) for x in arrays]
            out = step(tensors[0], src, dst, *tensors[1:])
            # a second step on the output, so h's and every weight's gradient has several terms
            out = step(out, src, dst, *tensors[1:])
            return T.gradients(T.sum_all(T.tanh(out)), tensors)

        for i, (fused, chain) in enumerate(zip(grads(fused_step), grads(step_chain))):
            assert fused.tobytes() == chain.tobytes(), f"input {i}"

    @pytest.mark.parametrize("n, m, hdim", GRU_SHAPES)
    def test_gru_finite_differences(self, n, m, hdim):
        rng = np.random.default_rng(42)
        inputs = step_inputs(rng, n, m, hdim)
        src, dst = edges(rng, n)
        check_scalar_fn(lambda t: T.sum_all(T.tanh(fused_step(t[0], src, dst, *t[1:]))), inputs)

    @pytest.mark.parametrize("n, cols", [(n, cols) for n in (1, 2, 5, 40) for cols in (3, 2, 1)])
    def test_matmul_bias(self, n, cols):
        rng = np.random.default_rng(43)
        x, w, b = rng.standard_normal((n, 4)), rng.standard_normal((4, cols)), rng.standard_normal((1, cols))
        b[0, 0] = -9.0  # a column where the relu is off, so the gradient upstream of it is -0.0
        fused = outcome(lambda x, w, b: T.scale(T.relu(T.matmul(x, w, bias=b)), -1.0), [x, w, b])
        chain = outcome(lambda x, w, b: T.scale(T.relu(T.add(T.matmul(x, w), b)), -1.0), [x, w, b])
        for i, (got, want) in enumerate(zip(fused, chain)):
            assert same_bits(got, want), "output" if i == 0 else f"input {i - 1}"
        check_scalar_fn(lambda t: T.sum_all(T.tanh(T.matmul(t[0], t[1], bias=t[2]))), [x, w, b])

    @pytest.mark.parametrize("weight", [2, 3, 5, 6, 8, 9])  # wz uz wr ur wh uh, by gru_chain's arguments
    def test_gru_overflow_raises_where_chain_raises(self, weight):
        rng = np.random.default_rng(44)
        arrays = step_inputs(rng, 4, 3, 3)
        src, dst = edges(rng, 4)
        arrays[0] = arrays[0] * 1e10
        tensors = [T.Tensor(x) for x in arrays]
        fused_step(tensors[0], src, dst, *tensors[1:])  # large, but finite
        # message_step takes agg_w and agg_b where gru_chain takes its input a
        arrays[weight + 1] = arrays[weight + 1] * 1e300
        tensors = [T.Tensor(x) for x in arrays]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.TensorError, match="non-finite output of matmul"):
                step_chain(tensors[0], src, dst, *tensors[1:])
            with pytest.raises(T.TensorError, match="non-finite .* pre-activation of message_step"):
                fused_step(tensors[0], src, dst, *tensors[1:])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_aggregate_overflow_raises_where_chain_raises(self, sign):
        # With sign -1 every overflow is -inf, which the relu would map to 0:
        # the aggregate must be checked before it.
        rng = np.random.default_rng(46)
        arrays = step_inputs(rng, 4, 3, 3)
        src, dst = edges(rng, 4)
        arrays[0] = np.abs(arrays[0]) * 1e10
        arrays[1] = sign * np.abs(arrays[1]) * 1e300
        tensors = [T.Tensor(x) for x in arrays]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.TensorError, match="non-finite output of matmul"):
                step_chain(tensors[0], src, dst, *tensors[1:])
            with pytest.raises(T.TensorError, match="non-finite output of message_step aggregate"):
                fused_step(tensors[0], src, dst, *tensors[1:])

    @pytest.mark.parametrize("cols", [3, 1])
    def test_matmul_bias_overflow_raises(self, cols):
        rng = np.random.default_rng(45)
        x = T.Tensor(rng.standard_normal((4, 2)) * 1e10)
        w = T.Tensor(rng.standard_normal((2, cols)) * 1e300)
        b = T.Tensor(np.zeros((1, cols)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.TensorError, match="non-finite output of matmul"):
                T.add(T.matmul(x, w), b)
            with pytest.raises(T.TensorError, match="non-finite output of matmul"):
                T.matmul(x, w, bias=b)


def stacked_case(name, rng):
    """State, weights and edges of a stacked-gates case: (n, m, d) rows,
    aggregate width and state width, and its edges."""
    n, m, d = STACKED_CASES[name]
    arrays = step_inputs(rng, n, m, d)
    arrays[2] = arrays[2] + 0.3  # agg_b: relus on both sides of zero
    if name == "one-row":
        src = dst = np.zeros(0, dtype=np.int64)
    elif name == "isolated-node":  # node n - 1 has no edge in or out
        src, dst = rng.integers(0, n - 1, 2 * n), rng.integers(0, n - 1, 2 * n)
    else:
        src, dst = edges(rng, n)
    return arrays, src, dst


# (rows, aggregate width, state width): the model's hidden widths (32, 1, 8
# and 4, aggregate as wide as the state), two other aggregate widths, a
# one-row graph without edges and a graph with an isolated node
STACKED_CASES = {
    "hidden-32": (40, 32, 32), "hidden-1": (9, 1, 1), "hidden-8": (17, 8, 8), "hidden-4": (11, 4, 4),
    "aggregate-3-state-5": (7, 3, 5), "aggregate-3-state-1": (5, 3, 1),
    "one-row": (1, 6, 6), "isolated-node": (8, 5, 5),
}


def stacked_and_reference(arrays, src, dst):
    """The output of two steps and the 12 gradients through a loss, from
    T.message_step and from per_gate_step."""
    results = []
    for step in (lambda h, e, *w: T.message_step(h, e, T.StepWeights(*w)), per_gate_step):
        tape = T.Tape()
        tensors = [tape.tensor(a) for a in arrays]
        e = kernels.Edges(src, dst, arrays[0].shape[1])
        out = step(step(tensors[0], e, *tensors[1:]), e, *tensors[1:])
        results.append([out.data] + T.gradients(T.sum_all(T.tanh(out)), tensors))
    return results


def step_outcome(step, arrays, src, dst):
    """The type and message of what one step raises, or None."""
    tensors = [T.Tensor(a) for a in arrays]
    try:
        step(tensors[0], kernels.Edges(src, dst, arrays[0].shape[1]), *tensors[1:])
    except T.TensorError as e:
        return type(e), str(e)
    return None


def stacked(h, e, *weights):
    return T.message_step(h, e, T.StepWeights(*weights))


class TestStackedGates:
    """T.message_step computes the update and reset gates in one stacked
    buffer. Its output, its 12 gradients and its non-finite errors must be
    bit for bit those of per_gate_step, which takes each gate apart; its
    shape errors are StepWeights'."""

    @pytest.mark.parametrize("name", sorted(STACKED_CASES))
    def test_output_and_gradients_bit_identical(self, name):
        arrays, src, dst = stacked_case(name, np.random.default_rng(80))
        fused, reference = stacked_and_reference(arrays, src, dst)
        assert len(fused) == 13
        for i, (a, b) in enumerate(zip(fused, reference)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"output and gradients, entry {i}"

    # (index in step_inputs' order, scale): a weight (agg_w, wz uz, wr ur, wh
    # uh) scaled to overflow, or a bias (agg_b, bz, br, bh) with infinities
    OVERFLOWS = ([(i, s) for i in (1, 3, 4, 6, 7, 9, 10) for s in (1e300, -1e300)]
                 + [(i, s) for i in (2, 5, 8, 11) for s in (np.inf, -np.inf)])

    @pytest.mark.parametrize("index, scale", OVERFLOWS)
    def test_overflow_raises_as_the_reference(self, index, scale):
        arrays, src, dst = stacked_case("hidden-4", np.random.default_rng(81))
        arrays[0] = np.abs(arrays[0]) * 1e10
        arrays[index] = np.abs(arrays[index]) * scale
        with np.errstate(over="ignore", invalid="ignore"):
            raised = step_outcome(stacked, arrays, src, dst)
            assert raised is not None and raised == step_outcome(per_gate_step, arrays, src, dst)

    @pytest.mark.parametrize("overflowing, gate", [((3, 6), "update"), ((4, 7), "update"), ((6,), "reset"),
                                                    ((7,), "reset"), ((5, 8), "update"), ((8,), "reset")])
    def test_update_gate_reported_before_reset_gate(self, overflowing, gate):
        arrays, src, dst = stacked_case("hidden-4", np.random.default_rng(82))
        arrays[0] = np.abs(arrays[0]) * 1e10
        for index in overflowing:
            arrays[index] = np.abs(arrays[index]) * (np.inf if index in (5, 8) else 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            raised = step_outcome(stacked, arrays, src, dst)
            assert raised == (T.TensorError, f"non-finite {gate} gate pre-activation of message_step")
            assert raised == step_outcome(per_gate_step, arrays, src, dst)

    @pytest.mark.parametrize("index", range(12))
    def test_shape_errors_as_the_reference(self, index):
        # the reference is StepWeights, which checks the 11 weights against
        # each other when it is built; message_step checks the state
        # (index 0) against them
        arrays, src, dst = stacked_case("aggregate-3-state-5", np.random.default_rng(83))
        rows, cols = arrays[index].shape
        # one row too many; for the state, one column: any number of rows fits
        arrays[index] = np.ones((rows, cols + 1) if index == 0 else (rows + 1, cols))
        shape = re.escape(str(arrays[index].shape))
        h, *weights = [T.Tensor(a) for a in arrays]
        if index == 0:
            with pytest.raises(T.TensorError, match=rf"^message_step weights for state width 5, state {shape}$"):
                stacked(h, kernels.Edges(src, dst, h.shape[1]), *weights)
        else:
            with pytest.raises(T.TensorError, match=rf"^message_step (aggregate|gru) weights .*{shape}"):
                T.StepWeights(*weights)

    def test_weights_prepared_once_serve_every_step(self):
        arrays, src, dst = stacked_case("hidden-8", np.random.default_rng(84))
        tensors = [T.Tensor(a) for a in arrays]
        weights = T.StepWeights(*tensors[1:])
        assert weights.w_zr.shape == (2, 8, 8) and weights.b_zr.shape == (2, 1, 8)
        e = kernels.Edges(src, dst, 8)
        h = tensors[0]
        for _ in range(3):
            h, ref = T.message_step(h, e, weights), per_gate_step(h, e, *tensors[1:])
            assert h.data.tobytes() == ref.data.tobytes()


class TestMessageStepInPlace:
    """message_step computes its sums, squashings and gradients in place:
    nothing it is given, nor any array its rule keeps, may change."""

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        arrays = step_inputs(rng, 6, 3, 4)
        return rng, arrays, *edges(rng, 6)

    def test_leaves_state_and_weights_unchanged(self):
        _, arrays, src, dst = self.inputs(60)
        before = [a.copy() for a in arrays]
        tape = T.Tape()
        tensors = [tape.tensor(a) for a in arrays]  # no copy: data is each array itself
        T.gradients(T.sum_all(T.tanh(fused_step(tensors[0], src, dst, *tensors[1:]))), tensors)
        for i, (a, b) in enumerate(zip(arrays, before)):
            assert np.array_equal(a, b), f"input {i}"

    def test_output_shares_no_memory_with_inputs(self):
        _, arrays, src, dst = self.inputs(61)
        tensors = [T.Tensor(a) for a in arrays]
        index = kernels.Edges(src, dst, 4)
        out = T.message_step(tensors[0], index, T.StepWeights(*tensors[1:])).data
        for i, t in enumerate(tensors):
            assert not np.shares_memory(out, t.data), f"input {i}"
        for name in ("src", "dst", "into_dst", "into_src"):
            assert not np.shares_memory(out, getattr(index, name)), name

    def test_gradients_of_one_tape_twice_identical(self):
        _, arrays, src, dst = self.inputs(62)
        tape = T.Tape()
        tensors = [tape.tensor(a) for a in arrays]
        out = fused_step(tensors[0], src, dst, *tensors[1:])
        loss = T.sum_all(T.tanh(fused_step(out, src, dst, *tensors[1:])))
        first = T.gradients(loss, tensors)
        second = T.gradients(loss, tensors)
        for i, (a, b) in enumerate(zip(first, second)):
            assert np.array_equal(a, b), f"input {i}"

    def test_rule_leaves_its_gradient_unchanged(self):
        rng, arrays, src, dst = self.inputs(63)
        tape = T.Tape()
        tensors = [tape.tensor(a) for a in arrays]
        out = fused_step(tensors[0], src, dst, *tensors[1:])
        ((_, _, rule),) = [op for op in tape._ops if op[0] == out.index]
        g = rng.standard_normal(out.shape)
        g0 = g.copy()
        first = rule(g)
        assert np.array_equal(g, g0)
        second = rule(g)
        assert np.array_equal(g, g0)
        for i, (a, b) in enumerate(zip(first, second)):
            assert np.array_equal(a, b), f"input {i}"

    def test_edges_of_another_width_rejected(self):
        _, arrays, src, dst = self.inputs(64)
        tensors = [T.Tensor(a) for a in arrays]
        with pytest.raises(T.TensorError, match=r"message_step edges built for width 3, state \(6, 4\)"):
            T.message_step(tensors[0], kernels.Edges(src, dst, 3), T.StepWeights(*tensors[1:]))


def loop_scatter(x, index, n):
    """Reference scatter: out[index[r]] += x[r], one row at a time."""
    out = np.zeros((n, x.shape[1]))
    for r in range(x.shape[0]):
        out[index[r]] += x[r]
    return out


def add_at(x, index, n):
    """np.add.at reference scatter: out[index[r]] += x[r] in row order."""
    out = np.zeros((n, x.shape[1]))
    np.add.at(out, index, x)
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Every public op: its operand shapes and a call on operands of those shapes.
TAPED_OPS = {
    "matmul": ([(3, 4), (4, 2)], T.matmul),
    "matmul-bias": ([(3, 4), (4, 2), (1, 2)], T.matmul),
    "message_step": ([(3, 4), (4, 2), (1, 2)] + [(2, 4), (4, 4), (1, 4)] * 3,
                     lambda h, *weights: fused_step(h, np.array([0, 1, 2]), np.array([1, 2, 1]), *weights)),
    "project": ([(6, 3), (1, 3)], lambda w, b: T.project(np.array([[0, 5, -1], [2, 2, 1]]), w, b)),
    "readout": ([(4, 3), (3, 1), (1, 1), (3, 2), (1, 2)],
                lambda h, *weights: T.readout(h, *weights, np.array([0, 0, 1, 1]), 2)),
    "add": ([(3, 2), (1, 2)], T.add),
    "hadamard": ([(3, 2), (3, 2)], T.hadamard),
    "sigmoid": ([(3, 2)], T.sigmoid),
    "tanh": ([(3, 2)], T.tanh),
    "relu": ([(3, 2)], T.relu),
    "softplus": ([(3, 2)], T.softplus),
    "scale": ([(3, 2)], lambda a: T.scale(a, 2.0)),
    "sum_all": ([(3, 2)], T.sum_all),
    "edge_gather_sum": ([(4, 2)],
                        lambda h: T.edge_gather_sum(h, np.array([0, 1, 3]), np.array([1, 2, 0]))),
    "segment_sum": ([(4, 2)], lambda x: T.segment_sum(x, np.array([0, 0, 1, 1]), 2)),
}


class TestTapeLifetime:
    @pytest.mark.parametrize("name", sorted(TAPED_OPS))
    def test_tape_freed_by_reference_count(self, name):
        # With the collector off, a tape that holds a reference cycle would outlive its names.
        shapes, op = TAPED_OPS[name]
        rng = np.random.default_rng(50)
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape = T.Tape()
            inputs = [tape.tensor(rng.standard_normal(shape)) for shape in shapes]
            loss = T.sum_all(op(*inputs))
            T.gradients(loss, inputs)
            freed = weakref.ref(tape)
            del tape, inputs, loss
            assert freed() is None
        finally:
            if enabled:
                gc.enable()


class TestKernels:
    """edge_sum over the scatter positions kernels.Edges builds once per
    batch, forward (into dst) and reverse (into src), against a row-by-row
    loop and np.add.at."""

    # (src, dst, nodes, width)
    EDGE_CASES = {
        "duplicates-and-isolated": (
            np.array([0, 1, 1, 0, 3, 0], dtype=np.int64),
            np.array([1, 2, 2, 1, 0, 3], dtype=np.int64),
            5, 3,
        ),  # node 4 has no edges at all
        # two 3-node graphs, the second's edges offset by 3 as batch_graphs
        # stacks them; nodes 0 and 3 have no incoming edge
        "two-graphs": (np.array([0, 1, 0, 3, 4, 4]), np.array([1, 2, 2, 4, 5, 5]), 6, 4),
        "width-1": (np.array([0, 1, 3, 3, 2]), np.array([1, 2, 0, 1, 1]), 4, 1),
        "no-edges": (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 5, 3),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_sum_matches_loop(self, case):
        src, dst, n, width = self.EDGE_CASES[case]
        rng = np.random.default_rng(30)
        h, g = rng.standard_normal((n, width)), rng.standard_normal((n, width))
        edges = kernels.Edges(src, dst, width)
        forward = kernels.edge_sum(h, src, edges.into_dst)
        reverse = kernels.edge_sum(g, dst, edges.into_src)
        np.testing.assert_array_equal(forward, loop_scatter(h[src], dst, n))
        np.testing.assert_array_equal(reverse, loop_scatter(g[dst], src, n))
        assert same_bits(forward, add_at(h[src], dst, n))
        assert same_bits(reverse, add_at(g[dst], src, n))
        assert not forward[np.setdiff1d(np.arange(n), dst)].any()  # no incoming edge: a zero row

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
        edges = kernels.Edges(src, dst, 32)
        first = kernels.edge_sum(h, src, edges.into_dst)
        assert same_bits(first, add_at(h[src], dst, 300))
        assert same_bits(kernels.edge_sum(h, dst, edges.into_src), add_at(h[dst], src, 300))
        for _ in range(3):
            assert np.array_equal(kernels.edge_sum(h, src, edges.into_dst), first)
        seg = np.sort(rng.integers(0, 10, 300))
        first = kernels.segment_sum(h, seg, 10)
        assert np.array_equal(kernels.segment_sum(h, seg, 10), first)


class TestProject:
    """The projection's sum of the weight rows named by slot indices, through T.project."""

    SLOTS = np.array([[0, 3, -1], [2, 2, 5], [-1, -1, -1], [5, 0, 3]], dtype=np.int64)

    def test_equals_one_hot_product(self):
        rng = np.random.default_rng(33)
        w, b = rng.standard_normal((6, 3)), rng.standard_normal((1, 3))
        dense = np.zeros((4, 6))
        for i, row in enumerate(self.SLOTS):
            for s in row[row >= 0]:
                dense[i, s] += 1.0
        got = T.project(self.SLOTS, T.Tensor(w), T.Tensor(b)).data
        np.testing.assert_allclose(got, np.maximum(dense @ w + b, 0.0), rtol=1e-15, atol=1e-15)
        assert np.array_equal(got[2], np.maximum(b[0], 0.0))  # no hot slot: relu of the bias

    def test_gradient_check_with_empty_and_repeated_slots(self):
        rng = np.random.default_rng(34)
        w, b = rng.standard_normal((6, 3)), rng.standard_normal((1, 3))
        check_scalar_fn(lambda t: T.sum_all(T.tanh(T.project(self.SLOTS, t[0], t[1]))), [w, b])

    def test_non_finite_weight_rejected(self):
        w = np.ones((6, 3))
        w[5, 1] = np.inf
        with pytest.raises(T.TensorError, match="non-finite output of project row sum"):
            T.project(self.SLOTS, T.Tensor(w), T.Tensor(np.zeros((1, 3))))

    @pytest.mark.parametrize("bad", [-2, 6])
    def test_slot_out_of_range_rejected(self, bad):
        slots = self.SLOTS.copy()
        slots[1, 1] = bad
        with pytest.raises(T.TensorError, match="slot outside"):
            T.project(slots, T.Tensor(np.ones((6, 3))), T.Tensor(np.zeros((1, 3))))


K = 3  # vocabulary size of the fused-op batches: 4 property blocks of K + 2 slots
SEG = np.repeat([0, 1, 2], [4, 1, 6])  # three graphs of 4, 1 and 6 nodes; graph 3 is empty
NUM_GRAPHS = 4


def batch_slots(rng):
    """Slots of SEG's 11 nodes: a node without definition, a masked property,
    a slot repeated in one row, and NONE and UNKNOWN slots."""
    slots = np.arange(4) * (K + 2) + rng.integers(0, K + 2, (len(SEG), 4))
    slots[0] = -1  # no definition
    slots[:, 2] = -1  # the constant property masked
    slots[1, 1] = slots[1, 0]  # repeated
    slots[2, 0], slots[3, 1] = 0, K + 2 + 1  # NONE of the api block, UNKNOWN of the datatype block
    return slots


def fused_inputs(rng, hidden):
    """batch_slots, and each fused op's arrays in its argument order."""
    arrays = {
        "project": [rng.standard_normal((4 * (K + 2), hidden)), rng.standard_normal((1, hidden))],
        "readout": [rng.standard_normal((len(SEG), hidden)), rng.standard_normal((hidden, 1)),
                    rng.standard_normal((1, 1)), rng.standard_normal((hidden, hidden)),
                    rng.standard_normal((1, hidden))],
    }
    return batch_slots(rng), arrays


# Each fused op and its chain of primitives, as functions of the op's tensors.
def fused_ops(slots):
    return {
        "project": (lambda w, b: T.project(slots, w, b), lambda w, b: projection_chain(slots, w, b)),
        "readout": (lambda h, *w: T.readout(h, *w, SEG, NUM_GRAPHS),
                    lambda h, *w: readout_chain(h, *w, SEG, NUM_GRAPHS)),
    }


def outcome(build, arrays):
    """build's output and its inputs' gradients through a loss, or the TensorError it raised."""
    tape = T.Tape()
    tensors = [tape.tensor(a) for a in arrays]
    try:
        out = build(*tensors)
    except T.TensorError as e:
        return str(e)
    return [out.data] + T.gradients(T.sum_all(T.tanh(out)), tensors)


class TestProjectAndReadout:
    """T.project and T.readout against their chains of primitive ops."""

    @pytest.mark.parametrize("hidden", [1, 32])
    @pytest.mark.parametrize("name", ["project", "readout"])
    def test_output_and_gradients_bit_identical_to_chain(self, name, hidden):
        slots, arrays = fused_inputs(np.random.default_rng(70), hidden)
        fused, chain = fused_ops(slots)[name]
        got, want = outcome(fused, arrays[name]), outcome(chain, arrays[name])
        for i, (a, b) in enumerate(zip(got, want)):
            assert same_bits(a, b), "output" if i == 0 else f"input {i - 1}"

    def test_project_on_one_node_bit_identical_to_chain(self):
        # The bias turns the relu off in two columns, where the gradient
        # scaled by -1 is -0.0; the bias's gradient is the sum over the one
        # row, 0.0 there, in ``project`` as in the chain's ``add``.
        rng = np.random.default_rng(71)
        arrays = [rng.standard_normal((6, 3)), np.array([[-9.0, 9.0, -9.0]])]
        slots = np.array([[0, 3, -1, 5]])
        got = outcome(lambda w, b: T.scale(T.project(slots, w, b), -1.0), arrays)
        want = outcome(lambda w, b: T.scale(projection_chain(slots, w, b), -1.0), arrays)
        for i, (a, b) in enumerate(zip(got, want)):
            assert same_bits(a, b), i

    def test_readout_on_one_row_bit_identical_to_chain(self):
        # feat_b turns the pooled row negative in one column, so the relu is
        # off and the gradient scaled by -1 is -0.0 there; each bias's
        # gradient is the sum over the one row, in ``readout`` as in the
        # chain's ``add``.
        rng = np.random.default_rng(76)
        arrays = fused_inputs(rng, 3)[1]["readout"]
        arrays[0] = arrays[0][:1]
        arrays[4][0, 0] = -9.0
        seg = np.zeros(1, dtype=np.int64)
        got = outcome(lambda *t: T.scale(T.relu(T.readout(*t, seg, 1)), -1.0), arrays)
        want = outcome(lambda *t: T.scale(T.relu(readout_chain(*t, seg, 1)), -1.0), arrays)
        for i, (a, b) in enumerate(zip(got, want)):
            assert same_bits(a, b), i

    @pytest.mark.parametrize("hidden", [1, 3])
    def test_finite_differences(self, hidden):
        slots, arrays = fused_inputs(np.random.default_rng(72), hidden)
        for name, (fused, _) in fused_ops(slots).items():
            check_scalar_fn(lambda t: T.sum_all(T.tanh(fused(*t))), arrays[name])

    # (scaled weights, scale): w, b or both by +-1e300, and by +-1e308, where
    # a sum of two of these weights overflows
    PROJECT_SCALES = [(which, scale) for which in ("w", "b", "both") for scale in (1e300, -1e300, 1e308, -1e308)]

    @pytest.mark.parametrize("one_per_row", [False, True])
    @pytest.mark.parametrize("which, scale", PROJECT_SCALES)
    def test_project_overflow_raises_where_chain_raises(self, which, scale, one_per_row):
        rng = np.random.default_rng(73)
        slots = batch_slots(rng)
        if one_per_row:  # each row sum is one weight, so only adding the bias can overflow
            slots[:, 1:] = -1
        w, b = rng.uniform(0.5, 1.5, (4 * (K + 2), 4)), rng.uniform(0.5, 1.5, (1, 4))
        arrays = [w * scale if which != "b" else w, b * scale if which != "w" else b]
        big = abs(scale) > 1e300
        stage = ("project row sum" if big and which != "b" and not one_per_row
                 else "project bias" if big and which == "both" else None)
        with np.errstate(over="ignore", invalid="ignore"):
            chain = outcome(lambda w, b: projection_chain(slots, w, b), arrays)
            fused = outcome(lambda w, b: T.project(slots, w, b), arrays)
        if stage is None:
            assert not isinstance(chain, str), chain
            assert not isinstance(fused, str), fused
        else:
            chain_op = {"project row sum": "edge_gather_sum", "project bias": "add"}[stage]
            assert chain == f"non-finite output of {chain_op}"
            assert fused == f"non-finite output of {stage}"

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    # gate_w gate_b feat_w feat_b by readout's arguments, and both weights
    @pytest.mark.parametrize("scaled", [(1,), (2,), (3,), (4,), (1, 3)])
    def test_readout_overflow_raises_where_chain_raises(self, scaled, sign):
        arrays = fused_inputs(np.random.default_rng(74), 4)[1]["readout"]
        arrays[0] = arrays[0] * 1e10
        for i in scaled:
            arrays[i] = arrays[i] * sign * 1e300
        # a weight overflows its layer's product, the gate's first; a bias of 1e300 stays finite
        stage = "gate" if 1 in scaled else "feature" if 3 in scaled else None
        with np.errstate(over="ignore", invalid="ignore"):
            chain = outcome(lambda *t: readout_chain(*t, SEG, NUM_GRAPHS), arrays)
            fused = outcome(lambda *t: T.readout(*t, SEG, NUM_GRAPHS), arrays)
            if stage == "feature":  # the chain's gate layer, before it, passes
                T.add(T.matmul(T.Tensor(arrays[0]), T.Tensor(arrays[1])), T.Tensor(arrays[2]))
        if stage is None:
            assert not isinstance(chain, str), chain
            assert not isinstance(fused, str), fused
        else:
            assert chain == "non-finite output of matmul"
            assert fused == f"non-finite output of readout {stage}"

    def test_shape_errors_name_both_shapes(self):
        slots = np.array([[0, 5, -1], [2, 2, 1]])
        with pytest.raises(T.TensorError, match=r"project bias shape \(1, 4\) for weights \(6, 3\)"):
            T.project(slots, T.Tensor(np.ones((6, 3))), T.Tensor(np.ones((1, 4))))
        h = T.Tensor(np.ones((4, 3)))
        weights = [T.Tensor(np.ones(shape)) for shape in [(3, 1), (1, 1), (3, 2), (1, 2)]]
        seg = np.array([0, 0, 1, 1])
        for i, bad in enumerate([(2, 1), (1, 2), (2, 2), (1, 3)]):
            wrong = weights.copy()
            wrong[i] = T.Tensor(np.ones(bad))
            with pytest.raises(T.TensorError, match=rf"readout weights .*{re.escape(str(bad))}.* for state \(4, 3\)"):
                T.readout(h, *wrong, seg, 2)
        with pytest.raises(T.TensorError, match=r"readout segment ids of shape \(3,\) for state \(4, 3\)"):
            T.readout(h, *weights, seg[:3], 2)


class TestFusedInPlace:
    """project and readout compute in place: nothing they are given, nor any
    array their rules keep, may change."""

    @pytest.mark.parametrize("name", ["project", "readout"])
    def test_leaves_inputs_unchanged_and_gradients_repeat(self, name):
        rng = np.random.default_rng(75)
        slots, inputs = fused_inputs(rng, 4)
        arrays = inputs[name]
        before = [a.copy() for a in arrays], slots.copy(), SEG.copy()
        fused, _ = fused_ops(slots)[name]
        tape = T.Tape()
        tensors = [tape.tensor(a) for a in arrays]  # no copy: data is each array itself
        out = fused(*tensors)
        for i, t in enumerate(tensors):
            assert not np.shares_memory(out.data, t.data), f"input {i}"
        ((_, _, rule),) = tape._ops
        g = rng.standard_normal(out.shape)
        g0 = g.copy()
        first, second = rule(g), rule(g)
        assert np.array_equal(g, g0)
        for i, (a, b) in enumerate(zip(first, second)):
            assert np.array_equal(a, b), f"input {i}"
        loss = T.sum_all(T.tanh(out))
        for a, b in zip(T.gradients(loss, tensors), T.gradients(loss, tensors)):
            assert np.array_equal(a, b)
        for i, (a, b) in enumerate(zip(arrays, before[0])):
            assert np.array_equal(a, b), f"input {i}"
        assert np.array_equal(slots, before[1]) and np.array_equal(SEG, before[2])


def bincount_sum(x, index, n):
    """out[i] = sum of x[r] over the rows r with index[r] == i, as one
    np.bincount over the flat positions: the row sum ``project`` and a
    one-segment ``kernels.segment_sum`` must give byte for byte."""
    m = x.shape[1]
    flat = (index[:, None] * m + np.arange(m)).ravel()
    return np.bincount(flat, weights=x.ravel(), minlength=n * m).astype(np.float64, copy=False).reshape(n, m)


class TestPreparedLayouts:
    """The layouts prepared for the hot products and sums keep the
    arithmetic they replace: ``project``'s gathers from its padded table,
    the one-segment ``segment_sum`` and the contiguous transposes of the
    backward products."""

    @pytest.mark.parametrize("k", [3, 20, 1000])
    @pytest.mark.parametrize("rows", [1, 11, 400, 2790])
    def test_project_is_the_bincount_row_sum(self, rows, k):
        rng = np.random.default_rng(90)
        slots = random_slots(rng, rows, k)
        slots[:, 2] = -1  # a masked property
        slots[0] = 1, -1, -1, 1  # a slot repeated within a row, and nothing else
        slots[rows // 2] = -1  # a node without definitions
        w = rng.standard_normal((4 * (k + 2), 6))
        w[rng.random(w.shape) < 0.2] = -0.0
        w[1] = -0.0  # row 0 sums -0.0 with -0.0 in every column
        b = rng.standard_normal((1, 6))
        b[0, :3] = -0.0, 0.0, -0.0
        hot_rows, cols = np.nonzero(slots >= 0)
        for sign in (1.0, -1.0):  # the relu keeps one sign; the other pins the rest
            summed = bincount_sum(sign * w[slots[hot_rows, cols]], hot_rows, rows)
            summed += sign * b
            got = T.project(slots, T.Tensor(sign * w), T.Tensor(sign * b)).data
            assert same_bits(got, np.maximum(summed, 0.0)), sign

    def test_a_slot_naming_the_zero_row_raises(self):
        w = T.Tensor(np.ones((6, 3)))
        table = T.project_table(w.data)
        assert table.shape == (7, 3) and not table[6].any()
        with pytest.raises(T.SlotError, match=r"slot outside \[-1, 6\)"):
            T.project(np.array([[0, 6, -1]]), w, T.Tensor(np.zeros((1, 3))), table)

    @pytest.mark.parametrize("cols", [1, 2, 32])
    @pytest.mark.parametrize("rows", [0, 1, 2, 11, 400, 2790])
    def test_one_segment_sum_is_the_bincount_sum(self, rows, cols):
        rng = np.random.default_rng(91)
        x = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 8, (rows, cols))
        x[:, 0] = -0.0  # a column of -0.0 alone
        x[::3, -1] = -0.0  # and one where they mix with other values
        seg = np.zeros(rows, dtype=np.int64)
        want = bincount_sum(x, seg, 1)
        for layout in (x, np.asfortranarray(x)):
            assert same_bits(kernels.segment_sum(layout, seg, 1), want)

    # below about 38 rows OpenBLAS rounds a product by a transposed view
    # otherwise than one by a contiguous copy
    ROWS = [1, 2, 3, 37, 38, 39, 64]

    @pytest.mark.parametrize("rows", ROWS)
    def test_matmul_with_bias_equals_its_chain(self, rows):
        rng = np.random.default_rng(92)
        arrays = [rng.standard_normal((rows, 32)), rng.standard_normal((32, 32)), rng.standard_normal((1, 32))]
        fused = outcome(lambda x, w, b: T.matmul(x, w, bias=b), arrays)
        chain = outcome(lambda x, w, b: T.add(T.matmul(x, w), b), arrays)
        for i, (a, b) in enumerate(zip(fused, chain)):
            assert same_bits(a, b), i

    @pytest.mark.parametrize("rows", ROWS)
    def test_readout_equals_its_chain(self, rows):
        rng = np.random.default_rng(93)
        arrays = [rng.standard_normal((rows, 32)), rng.standard_normal((32, 1)), rng.standard_normal((1, 1)),
                  rng.standard_normal((32, 32)), rng.standard_normal((1, 32))]
        seg = np.sort(rng.integers(0, 3, rows))
        for graphs, ids in ((3, seg), (1, np.zeros(rows, dtype=np.int64))):
            fused = outcome(lambda *t: T.readout(*t, ids, graphs), arrays)
            chain = outcome(lambda *t: readout_chain(*t, ids, graphs), arrays)
            for i, (a, b) in enumerate(zip(fused, chain)):
                assert same_bits(a, b), (graphs, i)

    @pytest.mark.parametrize("rows", ROWS)
    def test_message_step_equals_its_chains(self, rows):
        rng = np.random.default_rng(94)
        arrays = step_inputs(rng, rows, 32, 32)
        src, dst = edges(rng, rows)
        fused = outcome(lambda h, *w: fused_step(fused_step(h, src, dst, *w), src, dst, *w), arrays)
        chain = outcome(lambda h, *w: step_chain(step_chain(h, src, dst, *w), src, dst, *w), arrays)
        e = kernels.Edges(src, dst, 32)
        per_gate = outcome(lambda h, *w: per_gate_step(per_gate_step(h, e, *w), e, *w), arrays)
        for i, (a, b, c) in enumerate(zip(fused, chain, per_gate)):
            assert same_bits(a, b) and same_bits(a, c), i

    def test_biases_tiled_for_other_rows_rejected(self):
        rng = np.random.default_rng(95)
        h, *weights = [T.Tensor(a) for a in step_inputs(rng, 6, 3, 4)]
        prepared = T.StepWeights(*weights)
        with pytest.raises(T.TensorError, match=r"message_step biases tiled to 5 rows, state \(6, 4\)"):
            T.message_step(h, kernels.Edges(*edges(rng, 6), 4), prepared, prepared.biases(5))


class TestSigmoid:
    def test_tanh_form_matches_two_branch_formula(self):
        x = np.linspace(-30.0, 30.0, 6001)
        ex = np.exp(-np.abs(x))
        old = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        got = T.sigmoid(T.Tensor(x.reshape(1, -1))).data[0]
        assert np.max(np.abs(got - old)) <= 1e-15
        assert ((got >= 0.0) & (got <= 1.0)).all()


class TestUnaryOps:
    # every elementwise op the model records, with the constants it passes
    OPS = {
        "relu": T.relu,
        "sigmoid": T.sigmoid,
        "tanh": T.tanh,
        "softplus": T.softplus,
        "scale": lambda t: T.scale(t, -1.0),
        "scale-mean": lambda t: T.scale(t, 1.0 / 32),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_no_division_or_invalid_value_on_extreme_finite_input(self, name):
        x = np.array([[-1e308, -745.0, -0.0, 0.0, 745.0, 1e308]])
        tape = T.Tape()
        with np.errstate(divide="raise", invalid="raise"):
            y = self.OPS[name](tape.tensor(x))
            (_, _, rule), = tape._ops
            (g,) = rule(np.ones_like(x))
        assert np.isfinite(y.data).all() and np.isfinite(g).all()


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


class TestFinite:
    SPECIAL = (np.inf, -np.inf, np.nan, 1.797e308, -1.797e308, 5e-324, -0.0)
    # ascending sizes, so the zeros buffer grows along the way, then small
    # arrays again, which read a prefix of the grown buffer
    SHAPES = ((0, 4), (0, 1), (1, 1), (5, 1), (1, 32), (11, 32), (300, 32), (2770, 32), (3, 1), (11, 32))

    def test_agrees_with_isfinite(self, monkeypatch):
        monkeypatch.setattr(T, "_zeros", np.zeros(0))  # start from an empty buffer
        rng = np.random.default_rng(0)
        for rows, cols in self.SHAPES:
            for _ in range(25):
                x = rng.standard_normal((rows, cols)) * 10.0 ** float(rng.integers(-300, 300))
                for _ in range(int(rng.integers(0, 4)) if x.size else 0):
                    x.flat[rng.integers(x.size)] = rng.choice(self.SPECIAL)
                expected = bool(np.isfinite(x).all())
                # neither a floating-point error nor a warning, whatever x holds
                with np.errstate(all="raise"), warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert T._finite(x) == expected, (rows, cols)
                    assert T._finite(x.T) == expected, (rows, cols)
                    # a non-finite entry leaves no error behind for the next ops
                    np.add(np.ones(3), 1.0)
                    np.ones((2, 3)) @ np.ones((3, 2))
        assert T._zeros.size <= 2 * 2770 * 32

    def test_every_special_value_alone(self):
        for value in self.SPECIAL:
            x = np.zeros((4, 3))
            x[2, 1] = value
            assert T._finite(x) == bool(np.isfinite(value)), value


def rule_case(name, rng):
    """An op that records a rule, as a function of its tensors, and its input arrays."""
    x, y = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    src, dst = edges(rng, 4)
    slots, fused = fused_inputs(rng, 3)
    cases = {
        "add": (T.add, [x, y]),
        "add-bias": (T.add, [x, rng.standard_normal((1, 3))]),
        "hadamard": (T.hadamard, [x, y]),
        "matmul": (T.matmul, [x, rng.standard_normal((3, 2))]),
        "matmul-bias": (lambda a, b, c: T.matmul(a, b, bias=c),
                        [x, rng.standard_normal((3, 2)), rng.standard_normal((1, 2))]),
        "sigmoid": (T.sigmoid, [x]),
        "tanh": (T.tanh, [x]),
        "relu": (T.relu, [x]),
        "softplus": (T.softplus, [x]),
        "scale": (lambda a: T.scale(a, -2.0), [x]),
        "sum_all": (T.sum_all, [x]),
        "edge_gather_sum": (lambda h: T.edge_gather_sum(h, src, dst), [x]),
        "segment_sum": (lambda a: T.segment_sum(a, np.array([0, 2, 2, 0]), 3), [x]),
        "project-one-node": (lambda w, b: T.project(slots[1:2], w, b), fused["project"]),
        "project": (lambda w, b: T.project(slots, w, b), fused["project"]),
        "message_step": (lambda h, *w: fused_step(h, src, dst, *w), step_inputs(rng, 4, 3, 5)),
        "readout": (lambda h, *w: T.readout(h, *w, SEG, NUM_GRAPHS), fused["readout"]),
    }
    return cases[name]


RULE_OPS = ["add", "add-bias", "hadamard", "matmul", "matmul-bias", "sigmoid", "tanh", "relu",
            "softplus", "scale", "sum_all", "edge_gather_sum", "segment_sum",
            "project-one-node", "project", "message_step", "readout"]


class TestRuleOwnership:
    """Every rule hands over the arrays it returns, which ``gradients``
    adopts as they are (see the tensor module's docstring)."""

    @pytest.mark.parametrize("name", RULE_OPS)
    def test_rule_returns_fresh_arrays_and_repeats(self, name):
        rng = np.random.default_rng(80)
        build, arrays = rule_case(name, rng)
        tape = T.Tape()
        tensors = [tape.tensor(a) for a in arrays]  # no copy: data is each array itself
        out = build(*tensors)
        ((slot, inputs, rule),) = tape._ops
        assert slot == out.index and inputs == tuple(t.index for t in tensors)
        g = rng.standard_normal(out.shape)
        g0 = g.copy()
        first = rule(g)
        assert [a.shape for a in first] == [a.shape for a in arrays]
        held = {"g": g, "output": out.data, **{f"input {j}": a for j, a in enumerate(arrays)}}
        for i, gi in enumerate(first):
            others = {**held, **{f"gradient {j}": first[j] for j in range(i)}}
            for what, other in others.items():
                assert not np.shares_memory(gi, other), f"gradient {i} shares memory with {what}"
        assert g.tobytes() == g0.tobytes()
        second = rule(g)
        for i, (a, b) in enumerate(zip(first, second)):
            assert a.tobytes() == b.tobytes(), f"gradient {i}"


def numeric_grads(build, arrays, i):
    """Central differences of build(tensors) -> scalar in arrays[i]."""
    def f(v):
        inputs = [T.Tensor(a) for a in arrays]
        inputs[i] = T.Tensor(v)
        return build(*inputs).item()

    return T.numeric_gradient(f, arrays[i].copy())


class TestGradientCases:
    """Slots that get more than one gradient, or that are both intermediate
    and param, against finite differences."""

    def check(self, build, arrays, got):
        for i, a in enumerate(arrays):
            err = T.relative_error(got[i], numeric_grads(build, arrays, i))
            assert err < 1e-6, f"input {i}: relative error {err:.3e}"

    def test_param_listed_twice(self):
        rng = np.random.default_rng(81)
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]

        def build(x, w):
            return T.sum_all(T.tanh(T.matmul(T.sigmoid(x), w)))

        tape = T.Tape()
        x, w = (tape.tensor(a) for a in arrays)
        got = T.gradients(build(x, w), [x, w, x])
        self.check(build, arrays, got[:2])
        assert got[2].tobytes() == got[0].tobytes() and got[2] is not got[0]

    def test_add_of_one_operand_twice(self):
        rng = np.random.default_rng(82)
        arrays = [rng.standard_normal((3, 2))]

        def build(x):
            return T.sum_all(T.tanh(T.add(x, x)))

        tape = T.Tape()
        x = tape.tensor(arrays[0])
        self.check(build, arrays, T.gradients(build(x), [x]))

    def test_add_output_feeds_two_consumers(self):
        rng = np.random.default_rng(83)
        arrays = [rng.standard_normal((4, 3)), rng.standard_normal((1, 3))]

        def build(x, b):
            y = T.add(x, b)
            return T.sum_all(T.hadamard(T.tanh(y), T.sigmoid(y)))

        tape = T.Tape()
        tensors = [tape.tensor(a) for a in arrays]
        self.check(build, arrays, T.gradients(build(*tensors), tensors))

    def test_intermediate_listed_as_param(self):
        # y = x + b, and x also feeds a sigmoid recorded before y, whose
        # gradient reaches x after add's: adding it must leave y's gradient
        # (and b's) alone
        rng = np.random.default_rng(84)
        x0, b0 = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        s0 = T.sigmoid(T.Tensor(x0)).data

        def build(x, b):
            s = T.sigmoid(x)
            return T.sum_all(T.hadamard(T.tanh(T.add(x, b)), s))

        def tail(y):  # the loss as a function of y, with x held
            return T.sum_all(T.hadamard(T.tanh(y), T.Tensor(s0)))

        tape = T.Tape()
        x, b = tape.tensor(x0), tape.tensor(b0)
        s = T.sigmoid(x)
        y = T.add(x, b)
        loss = T.sum_all(T.hadamard(T.tanh(y), s))
        got = T.gradients(loss, [x, b, y])
        self.check(build, [x0, b0], got[:2])
        assert T.relative_error(got[2], numeric_grads(tail, [x0 + b0], 0)) < 1e-6
