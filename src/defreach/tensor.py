"""Dense 2-D float64 tensors with a reverse-mode tape.

Every primitive checks shapes explicitly and rejects non-finite outputs;
the only broadcasts allowed are a 1-row bias in ``add`` and ``matmul``
and the per-row gate in ``scale_rows``. Each tensor on a Tape has an
integer slot on it. An op with an operand on a Tape appends one record
to it: the output's slot, the inputs' slots, and a rule that maps the
output's gradient to one gradient per input. ``gradients`` replays the
records in exact reverse order, adding each rule's gradients into the
slots of the inputs that are on the tape.

``message_step`` is a fused primitive: one record, and one hand-derived
rule, for a message-passing step that the other primitives spell out as
24 records (an edge sum, the aggregate layer, its relu and a 21-record GRU
update). It checks the aggregate before its relu, the GRU's three
pre-activations and its output, which raises on exactly the inputs where
the chain of primitives would raise. ``edge_gather_sum`` stays a primitive
of its own: it is the sparse propagation op that callers outside the
model, such as the acceptance tests, build on.

A rule holds arrays, never tensors, so nothing on a tape refers back to
the tensors recorded on it: a tape and its activations are freed by
reference count when the last tensor recorded on it goes. A rule may work
in place only on arrays it allocates itself: it must not write into ``g``,
which ``gradients`` still holds as the output's gradient, nor into the
arrays it closes over, which may be an operand's data or shared with
another record, so that replaying a tape twice gives the same gradients.
"""

from __future__ import annotations

import numpy as np

from . import kernels


class TensorError(Exception):
    pass


class Tensor:
    __slots__ = ("data", "tape", "index")

    def __init__(self, data, tape: "Tape | None" = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise TensorError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.tape = tape
        if tape is None:
            self.index = -1
        else:
            self.index = tape._size
            tape._size += 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on non-scalar shape {self.shape}")
        return float(self.data[0, 0])


class Tape:
    """(output slot, input slots, rule) per recorded op, replayed in reverse for gradients."""

    def __init__(self):
        self._ops: list = []
        self._size = 0  # slots handed out: index < _size for every tensor on the tape

    def tensor(self, data) -> Tensor:
        return Tensor(data, tape=self)


def gradients(loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
    """d loss / d param per param; zeros where the loss does not depend on it."""
    tape = loss.tape
    if tape is None:
        raise TensorError("loss was not recorded on a tape")
    if loss.data.size != 1:
        raise TensorError(f"backward from non-scalar shape {loss.shape}")
    grads: list[np.ndarray | None] = [None] * tape._size
    grads[loss.index] = np.ones((1, 1))
    for out, inputs, rule in reversed(tape._ops):
        g = grads[out]
        if g is None:  # the loss does not depend on this output
            continue
        for i, gi in zip(inputs, rule(g)):
            if i < 0:  # a constant operand, off the tape
                continue
            if grads[i] is None:
                grads[i] = gi.copy()  # a copy: ``add`` hands the same array to both operands
            else:
                grads[i] += gi
    found = [grads[p.index] if p.tape is tape else None for p in params]
    return [np.zeros_like(p.data) if g is None else g for p, g in zip(params, found)]


def _op(data: np.ndarray, op: str, inputs: tuple[Tensor, ...], rule) -> Tensor:
    """The output of ``op``, recorded on its inputs' tape if they have one.

    ``rule(g)`` maps the output's gradient ``g`` to one gradient per input.
    It closes over arrays only, never over a tensor.
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
        tape._ops.append((out.index, tuple(t.index for t in inputs), rule))
    return out


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
    w_rows = w.shape[0]
    check_slots(slots, w_rows)
    rows, cols = np.nonzero(slots >= 0)  # row-major, so each row's columns in order
    hot = slots[rows, cols]
    return _op(kernels.segment_sum(w.data[hot], rows, slots.shape[0]), "embed_sum", (w,),
               lambda g: (kernels.segment_sum(g[rows], hot, w_rows),))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if b.shape[1] == 1:
        # BLAS computes a one-column product (gemv) with rounding that depends
        # on the row's position in ``a``; a row-wise dot gives every row the
        # same result wherever it sits in the batch.
        return (a * b.T).sum(axis=1, keepdims=True)
    return a @ b


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus the 1-row ``bias`` added to every row when one is given.

    With a bias the op is one record for what ``add(matmul(a, b), bias)``
    records as two, with the same arithmetic: the product is finite exactly
    when the sum is, so one finiteness check stands for both.
    """
    if a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    data = _product(ad, bd)
    if bias is None:
        return _op(data, "matmul", (a, b), lambda g: (g @ bd.T, ad.T @ g))
    if bias.shape != (1, b.shape[1]):
        raise TensorError(f"matmul bias shape {bias.shape} for product {data.shape}")
    return _op(data + bias.data, "matmul", (a, b, bias),
               lambda g: (g @ bd.T, ad.T @ g, g.sum(axis=0, keepdims=True)))


def _gate(x: np.ndarray, w: np.ndarray, y: np.ndarray, u: np.ndarray, b: np.ndarray, f, name: str):
    """f(x @ w + y @ u + b) for a GRU gate of ``message_step``, summed and
    squashed in one buffer; raises when the pre-activation is not finite."""
    p = _product(x, w)
    p += _product(y, u)
    p += b
    if not np.isfinite(p).all():
        raise TensorError(f"non-finite {name} pre-activation of message_step")
    return f(p, out=p)


def message_step(h: Tensor, edges: kernels.Edges, agg_w: Tensor, agg_b: Tensor,
                 wz: Tensor, uz: Tensor, bz: Tensor, wr: Tensor, ur: Tensor, br: Tensor,
                 wh: Tensor, uh: Tensor, bh: Tensor) -> Tensor:
    """One message-passing step of state ``h`` over the edges (src, dst),
    recorded as one op:

        a = relu(s @ agg_w + agg_b), s[v] = sum over edges (u, v) of h[u]
        z = sigmoid(a @ wz + h @ uz + bz)
        r = sigmoid(a @ wr + h @ ur + br)
        c = tanh(a @ wh + (r * h) @ uh + bh)
        out = (1 - z) * h + z * c

    ``edges`` holds the scatter positions of rows as wide as ``h``, built
    once for every step over the same edges. The arithmetic is that of the
    chain ``edge_gather_sum``, ``matmul`` with a bias, ``relu`` and the GRU
    update spelled out in ``matmul``, ``add``, ``sigmoid``, ``tanh``,
    ``hadamard``, ``scale`` and ``add_const``, in the same order, so the
    output is bit-identical to the chain's; each sum and squashing function
    runs in place on a buffer of its own. Its gradients are too: the rule
    adds h's GRU-state gradient and then its reversed-edge term, the order
    ``gradients`` adds them in for the chain. So are its failures: a
    non-finite value in the chain first appears in a sum or a product, and
    it stays non-finite through every later ``+`` and product up to the
    relu or a squashing function, so checking the aggregate before the relu
    (which maps -inf to 0), the three GRU pre-activations and the output
    raises exactly where the chain would.
    """
    n, d = h.shape
    m = agg_w.shape[1]
    if agg_w.shape != (d, m) or agg_b.shape != (1, m):
        raise TensorError(f"message_step aggregate weights {agg_w.shape}, {agg_b.shape} for state {h.shape}")
    for w, u, b in ((wz, uz, bz), (wr, ur, br), (wh, uh, bh)):
        if w.shape != (m, d) or u.shape != (d, d) or b.shape != (1, d):
            raise TensorError(f"message_step gru weights {w.shape}, {u.shape}, {b.shape} for "
                              f"aggregate width {m} and state {h.shape}")
    if edges.width != d:
        raise TensorError(f"message_step edges built for width {edges.width}, state {h.shape}")
    hd, aggd = h.data, agg_w.data
    wzd, uzd, wrd, urd, whd, uhd = wz.data, uz.data, wr.data, ur.data, wh.data, uh.data
    summed = kernels.edge_sum(hd, edges.src, edges.into_dst)
    a = _product(summed, aggd)
    a += agg_b.data
    if not np.isfinite(a).all():
        raise TensorError("non-finite output of message_step aggregate")
    np.maximum(a, 0.0, out=a)  # relu in place: its gradient needs only a > 0, true where pre > 0
    z = _gate(a, wzd, hd, uzd, bz.data, _sigmoid, "update gate")
    r = _gate(a, wrd, hd, urd, br.data, _sigmoid, "reset gate")
    rh = r * hd
    c = _gate(a, whd, rh, uhd, bh.data, np.tanh, "candidate")
    out = z * -1.0
    out += 1.0  # keep = 1 - z
    out *= hd
    out += z * c

    def rule(g):
        # g, and every array the rule closes over, is read only: each
        # gradient below is a fresh array, updated in place. The rule keeps
        # summed, a, z, r and c; keep and r * h are recomputed, which holds
        # two arrays fewer per step on a tape.
        dz = g * c
        t = g * hd
        t *= -1.0
        dz += t
        dpc = g * z
        np.multiply(c, c, out=t)
        np.subtract(1.0, t, out=t)
        dpc *= t
        drh = dpc @ uhd.T
        dpr = drh * hd
        np.subtract(1.0, r, out=t)
        np.multiply(r, t, out=t)
        dpr *= t
        np.subtract(1.0, z, out=t)
        np.multiply(z, t, out=t)
        dpz = dz  # dz is not needed again
        dpz *= t
        dpre = dpz @ wzd.T
        dpre += dpr @ wrd.T
        dpre += dpc @ whd.T
        dpre *= a > 0
        dh = z * -1.0
        dh += 1.0
        dh *= g  # g * keep
        drh *= r
        dh += drh
        dh += dpr @ urd.T
        dh += dpz @ uzd.T
        dh += kernels.edge_sum(dpre @ aggd.T, edges.dst, edges.into_src)
        rh = np.multiply(r, hd, out=t)
        return (
            dh, summed.T @ dpre, dpre.sum(axis=0, keepdims=True),
            a.T @ dpz, hd.T @ dpz, dpz.sum(axis=0, keepdims=True),
            a.T @ dpr, hd.T @ dpr, dpr.sum(axis=0, keepdims=True),
            a.T @ dpc, rh.T @ dpc, dpc.sum(axis=0, keepdims=True),
        )

    return _op(out, "message_step", (h, agg_w, agg_b, wz, uz, bz, wr, ur, br, wh, uh, bh), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    bias = b.shape == (1, a.shape[1]) and a.shape[0] != 1
    if not bias and a.shape != b.shape:
        raise TensorError(f"add shape mismatch: {a.shape} + {b.shape}")
    return _op(a.data + b.data, "add", (a, b),
               lambda g: (g, g.sum(axis=0, keepdims=True) if bias else g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise TensorError(f"hadamard shape mismatch: {a.shape} * {b.shape}")
    ad, bd = a.data, b.data
    return _op(ad * bd, "hadamard", (a, b), lambda g: (g * bd, g * ad))


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Scale row i of ``a`` by the scalar s[i, 0]."""
    if s.shape != (a.shape[0], 1):
        raise TensorError(f"scale_rows needs gate shape {(a.shape[0], 1)}, got {s.shape}")
    ad, sd = a.data, s.data
    return _op(ad * sd, "scale_rows", (a, s),
               lambda g: (g * sd, (g * ad).sum(axis=1, keepdims=True)))


def _unary(a: Tensor, fwd, dfdy, op: str) -> Tensor:
    x = a.data
    with np.errstate(divide="ignore", invalid="ignore"):
        y = fwd(x)
    return _op(y, op, (a,), lambda g: (g * dfdy(x, y),))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * tanh(0.5 * x) + 0.5, written into ``out`` when one is given."""
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def sigmoid(a: Tensor) -> Tensor:
    return _unary(a, _sigmoid, lambda x, y: y * (1.0 - y), "sigmoid")


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
    shape = a.shape
    return _op(a.data.sum(keepdims=True).reshape(1, 1), "sum_all", (a,),
               lambda g: (np.full(shape, g[0, 0]),))


def edge_gather_sum(h: Tensor, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """out[v] = sum over edges (u, v) of h[u]; gradient gathers along reversed edges."""
    edges = kernels.Edges(src, dst, h.shape[1])
    return _op(kernels.edge_sum(h.data, src, edges.into_dst), "edge_gather_sum", (h,),
               lambda g: (kernels.edge_sum(g, dst, edges.into_src),))


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
