"""Dense 2-D float64 tensors with a reverse-mode tape.

Every primitive checks shapes explicitly and rejects non-finite outputs;
the only broadcast allowed is a 1-row bias in ``add`` and the per-row
gate in ``scale_rows``. Ops executed while any operand carries a Tape are
recorded; ``gradients`` replays the tape in exact reverse order with
additive accumulation.
"""

from __future__ import annotations

import numpy as np

from . import kernels


class TensorError(Exception):
    pass


class Tensor:
    __slots__ = ("data", "tape", "grad")

    def __init__(self, data, tape: "Tape | None" = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise TensorError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.tape = tape
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on non-scalar shape {self.shape}")
        return float(self.data[0, 0])


class Tape:
    """Recorded primitives, replayed in reverse for gradients."""

    def __init__(self):
        self._ops: list = []
        self._seen: set[int] = set()

    def tensor(self, data) -> Tensor:
        t = Tensor(data, tape=self)
        self._seen.add(id(t))
        return t

    def record(self, backward, *inputs: Tensor) -> None:
        self._ops.append(backward)
        for t in inputs:
            self._seen.add(id(t))

    def saw(self, t: Tensor) -> bool:
        return id(t) in self._seen

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise TensorError(f"backward from non-scalar shape {loss.shape}")
        _accum(loss, np.ones((1, 1)))
        for op in reversed(self._ops):
            op()


def gradients(loss: Tensor, params: list[Tensor]) -> tuple[list[np.ndarray], list[int]]:
    """d loss / d param per param; indices of params never seen on the tape."""
    tape = loss.tape
    if tape is None:
        raise TensorError("loss was not recorded on a tape")
    tape.backward(loss)
    grads, off_tape = [], []
    for i, p in enumerate(params):
        if p.grad is None:
            grads.append(np.zeros_like(p.data))
            if not tape.saw(p):
                off_tape.append(i)
        else:
            grads.append(p.grad.copy())
    return grads, off_tape


def _tape_of(*ts: Tensor) -> "Tape | None":
    tape = None
    for t in ts:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise TensorError("operands recorded on different tapes")
            tape = t.tape
    return tape


def _out(data: np.ndarray, tape: "Tape | None", op: str) -> Tensor:
    if not np.isfinite(data).all():
        raise TensorError(f"non-finite output of {op}")
    return Tensor(data, tape=tape)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()  # a copy: ``add`` hands the same array to both operands
    else:
        t.grad += g


def check_slots(slots: np.ndarray, rows: int) -> None:
    """Raise TensorError unless ``slots`` is a 2-D integer array of values in [-1, rows)."""
    if slots.ndim != 2 or slots.dtype.kind not in "iu":
        raise TensorError(f"slots must be a 2-D integer array, got {slots.dtype} {slots.shape}")
    if slots.size and (slots.min() < -1 or slots.max() >= rows):
        raise TensorError(f"slot outside [-1, {rows})")


def embed_sum(slots: np.ndarray, w: Tensor) -> Tensor:
    """out[i] = sum of w[slots[i, j]] over the columns j with slots[i, j] >= 0.

    The product of one-hot rows with ``w``, taken without the rows: the
    slots are the hot columns, -1 marks none. Columns are added in order
    j = 0, 1, ..., the order of the hot columns in a one-hot row. The
    slots are constant input, so only ``w`` gets a gradient.
    """
    check_slots(slots, w.shape[0])
    padded = np.vstack([w.data, np.zeros((1, w.shape[1]))])  # slot -1 reads the zero last row
    data = np.zeros((slots.shape[0], w.shape[1]))
    for j in range(slots.shape[1]):
        data += padded[slots[:, j]]
    tape = w.tape
    out = _out(data, tape, "embed_sum")
    if tape:
        rows, cols = np.nonzero(slots >= 0)

        def backward():
            _accum(w, kernels.segment_sum(out.grad[rows], slots[rows, cols], w.shape[0]))
        tape.record(backward, w, out)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    tape = _tape_of(a, b)
    if b.shape[1] == 1:
        # BLAS computes a one-column product (gemv) with rounding that depends
        # on the row's position in ``a``; a row-wise dot gives every row the
        # same result wherever it sits in the batch.
        data = (a.data * b.data.T).sum(axis=1, keepdims=True)
    else:
        data = a.data @ b.data
    out = _out(data, tape, "matmul")
    if tape:
        def backward():
            _accum(a, out.grad @ b.data.T)
            _accum(b, a.data.T @ out.grad)
        tape.record(backward, a, b, out)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    bias = b.shape == (1, a.shape[1]) and a.shape[0] != 1
    if not bias and a.shape != b.shape:
        raise TensorError(f"add shape mismatch: {a.shape} + {b.shape}")
    tape = _tape_of(a, b)
    out = _out(a.data + b.data, tape, "add")
    if tape:
        def backward():
            _accum(a, out.grad)
            _accum(b, out.grad.sum(axis=0, keepdims=True) if bias else out.grad)
        tape.record(backward, a, b, out)
    return out


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise TensorError(f"hadamard shape mismatch: {a.shape} * {b.shape}")
    tape = _tape_of(a, b)
    out = _out(a.data * b.data, tape, "hadamard")
    if tape:
        def backward():
            _accum(a, out.grad * b.data)
            _accum(b, out.grad * a.data)
        tape.record(backward, a, b, out)
    return out


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Scale row i of ``a`` by the scalar s[i, 0]."""
    if s.shape != (a.shape[0], 1):
        raise TensorError(f"scale_rows needs gate shape {(a.shape[0], 1)}, got {s.shape}")
    tape = _tape_of(a, s)
    out = _out(a.data * s.data, tape, "scale_rows")
    if tape:
        def backward():
            _accum(a, out.grad * s.data)
            _accum(s, (out.grad * a.data).sum(axis=1, keepdims=True))
        tape.record(backward, a, s, out)
    return out


def _unary(a: Tensor, fwd, dfdy, op: str) -> Tensor:
    tape = a.tape
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _out(fwd(a.data), tape, op)
    if tape:
        def backward():
            _accum(a, out.grad * dfdy(a.data, out.data))
        tape.record(backward, a, out)
    return out


def sigmoid(a: Tensor) -> Tensor:
    return _unary(a, lambda x: 0.5 * np.tanh(0.5 * x) + 0.5, lambda x, y: y * (1.0 - y), "sigmoid")


def tanh(a: Tensor) -> Tensor:
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y, "tanh")


def relu(a: Tensor) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(np.float64), "relu")


def softplus(a: Tensor) -> Tensor:
    def fwd(x):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def dfdy(x, y):
        pos = x >= 0
        ex = np.exp(np.where(pos, -x, x))
        return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))

    return _unary(a, fwd, dfdy, "softplus")


def scale(a: Tensor, c: float) -> Tensor:
    return _unary(a, lambda x: x * c, lambda x, y: np.full_like(x, c), "scale")


def add_const(a: Tensor, c: float) -> Tensor:
    return _unary(a, lambda x: x + c, lambda x, y: np.ones_like(x), "add_const")


def sum_all(a: Tensor) -> Tensor:
    tape = a.tape
    out = _out(a.data.sum(keepdims=True).reshape(1, 1), tape, "sum_all")
    if tape:
        def backward():
            _accum(a, np.full_like(a.data, out.grad[0, 0]))
        tape.record(backward, a, out)
    return out


def edge_gather_sum(h: Tensor, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """out[v] = sum over edges (u, v) of h[u]; gradient gathers along reversed edges."""
    tape = h.tape
    out = _out(kernels.edge_sum(h.data, src, dst), tape, "edge_gather_sum")
    if tape:
        def backward():
            _accum(h, kernels.edge_sum(out.grad, dst, src))
        tape.record(backward, h, out)
    return out


def segment_sum(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment row sums: (n, m) -> (num_segments, m)."""
    tape = x.tape
    out = _out(kernels.segment_sum(x.data, seg, num_segments), tape, "segment_sum")
    if tape:
        def backward():
            _accum(x, out.grad[seg])
        tape.record(backward, x, out)
    return out


def numeric_gradient(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x0, one coordinate at a time."""
    g = np.zeros_like(x0)
    flat, gflat = x0.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x0)
        flat[i] = orig - h
        fm = f(x0)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, 1)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
