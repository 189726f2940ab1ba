"""Dense 2-D float64 tensors with a reverse-mode tape.

Every primitive checks shapes explicitly and rejects non-finite outputs;
the only broadcast allowed is a 1-row bias in ``add`` and the per-row
gate in ``scale_rows``. An op with an operand on a Tape appends one
record to it: the output, the inputs, and a rule that maps the output's
gradient to one gradient per input. ``gradients`` replays the records in
exact reverse order, adding each rule's gradients into the inputs that
are on the tape.

A tape with records is a reference cycle (a record holds its output,
whose ``tape`` holds the record), so its activations outlive the last
name bound to them until the cyclic collector runs. ``Tape.clear`` drops
the records and breaks the cycle: the training loop clears each step's
tape one step late, so at most two steps' tapes are live at once.
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
    """(output, inputs, rule) per recorded op, replayed in reverse for gradients."""

    def __init__(self):
        self._ops: list = []

    def tensor(self, data) -> Tensor:
        return Tensor(data, tape=self)

    def clear(self) -> None:
        """Drop every record, so the tape's activations are freed by reference count."""
        self._ops.clear()

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise TensorError(f"backward from non-scalar shape {loss.shape}")
        _accum(loss, np.ones((1, 1)))
        for out, inputs, rule in reversed(self._ops):
            if out.grad is None:  # the loss does not depend on this output
                continue
            for t, g in zip(inputs, rule(out.grad)):
                if t.tape is not None:
                    _accum(t, g)


def gradients(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """d loss / d param per param; zeros where the loss does not depend on it."""
    if loss.tape is None:
        raise TensorError("loss was not recorded on a tape")
    loss.tape.backward(loss)
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


def _op(data: np.ndarray, op: str, inputs: tuple[Tensor, ...], rule) -> Tensor:
    """The output of ``op``, recorded on its inputs' tape if they have one.

    ``rule(g)`` maps the output's gradient ``g`` to one gradient per input.
    """
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise TensorError("operands recorded on different tapes")
            tape = t.tape
    if not np.isfinite(data).all():
        raise TensorError(f"non-finite output of {op}")
    out = Tensor(data, tape=tape)
    if tape is not None:
        tape._ops.append((out, inputs, rule))
    return out


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
    rows, cols = np.nonzero(slots >= 0)  # row-major, so each row's columns in order
    hot = slots[rows, cols]
    return _op(kernels.segment_sum(w.data[hot], rows, slots.shape[0]), "embed_sum", (w,),
               lambda g: (kernels.segment_sum(g[rows], hot, w.shape[0]),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if b.shape[1] == 1:
        # BLAS computes a one-column product (gemv) with rounding that depends
        # on the row's position in ``a``; a row-wise dot gives every row the
        # same result wherever it sits in the batch.
        data = (a.data * b.data.T).sum(axis=1, keepdims=True)
    else:
        data = a.data @ b.data
    return _op(data, "matmul", (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    bias = b.shape == (1, a.shape[1]) and a.shape[0] != 1
    if not bias and a.shape != b.shape:
        raise TensorError(f"add shape mismatch: {a.shape} + {b.shape}")
    return _op(a.data + b.data, "add", (a, b),
               lambda g: (g, g.sum(axis=0, keepdims=True) if bias else g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise TensorError(f"hadamard shape mismatch: {a.shape} * {b.shape}")
    return _op(a.data * b.data, "hadamard", (a, b), lambda g: (g * b.data, g * a.data))


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Scale row i of ``a`` by the scalar s[i, 0]."""
    if s.shape != (a.shape[0], 1):
        raise TensorError(f"scale_rows needs gate shape {(a.shape[0], 1)}, got {s.shape}")
    return _op(a.data * s.data, "scale_rows", (a, s),
               lambda g: (g * s.data, (g * a.data).sum(axis=1, keepdims=True)))


def _unary(a: Tensor, fwd, dfdy, op: str) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        y = fwd(a.data)
    return _op(y, op, (a,), lambda g: (g * dfdy(a.data, y),))


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
    return _op(a.data.sum(keepdims=True).reshape(1, 1), "sum_all", (a,),
               lambda g: (np.full_like(a.data, g[0, 0]),))


def edge_gather_sum(h: Tensor, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """out[v] = sum over edges (u, v) of h[u]; gradient gathers along reversed edges."""
    return _op(kernels.edge_sum(h.data, src, dst), "edge_gather_sum", (h,),
               lambda g: (kernels.edge_sum(g, dst, src),))


def segment_sum(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment row sums: (n, m) -> (num_segments, m)."""
    return _op(kernels.segment_sum(x.data, seg, num_segments), "segment_sum", (x,),
               lambda g: (g[seg],))


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
