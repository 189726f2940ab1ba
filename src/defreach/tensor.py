"""Dense 2-D float64 tensors with a reverse-mode tape.

Every primitive checks shapes explicitly and rejects non-finite outputs;
the only broadcasts allowed are a 1-row bias in ``add``, ``matmul`` and the
fused primitives, and the per-row gate inside ``readout``. Each tensor on a
Tape has an integer slot on it. An op with an operand on a Tape appends one
record to it: the output's slot, the inputs' slots, and a rule that maps the
output's gradient to one gradient per input. ``gradients`` replays the
records in exact reverse order, adding each rule's gradients into the
slots of the inputs that are on the tape.

Three fused primitives each record one op, with one hand-derived rule, for
a chain the other primitives would spell out in several records, with the
chain's arithmetic in the chain's order, so their outputs and gradients are
bit-identical to the chain's at any number of rows:

- ``project``, the input projection: a sum of weight rows named by slot
  indices, a bias and a relu (3 records);
- ``message_step``, a message-passing step: an edge sum, the aggregate
  layer, its relu and a 21-record GRU update (24 records);
- ``readout``, the gated attention readout: a gate and a feature layer,
  their product and a per-graph sum (6 records).

``message_step`` computes the GRU's update gate z and reset gate r
together: both read the same two inputs, a and h, so their pre-activations
go into the two halves of one (2, n, d) buffer, from the weights that
``StepWeights`` stacks once for every step that uses them (``model``
prepares them once per forward, and a checkpoint once for all its
predicts). One product for a @ W_zr, one for h @ U_zr, one bias add, one
finiteness check and one sigmoid cover both gates, and the rule takes one
batched product per gradient term. That is bit-identical to a product per
gate: ``np.matmul`` over a stack axis calls BLAS once per (n, d) slab,
with the operands, transposes and shapes a 2-D product of that slab passes
it, so each slab holds that product's result; with one state column (d =
1) ``_product`` takes row-wise dots instead, slab by slab, as it does for
a 2-D one-column product. The rule adds the gates' terms in the chain's
order.

Each checks its intermediate values where the chain could first turn
non-finite, which raises on exactly the inputs where the chain would, and
names the stage. ``edge_gather_sum`` stays a primitive of its own: it is
the sparse propagation op that callers outside the model, such as the
acceptance tests, build on.

Every finiteness check is ``_finite``: one BLAS dot of the array with a
buffer of zeros, where ``np.isfinite(x).all()`` takes a boolean pass and a
reduction. ``0 * v`` is +-0 for every finite ``v`` and NaN for +-inf and
NaN, so the dot is 0 exactly when every entry is finite. It is
``np.vdot`` because ``np.dot`` and ``@`` check numpy's floating-point
error state after the product and warn ("invalid value encountered in
dot") on an infinite entry, where ``np.vdot`` leaves the error state
alone, so a check never warns or raises under ``np.errstate``.

A rule holds arrays, never tensors, so nothing on a tape refers back to
the tensors recorded on it: a tape and its activations are freed by
reference count when the last tensor recorded on it goes. A rule writes
neither into ``g`` nor into the arrays it closes over, which may be an
operand's data or shared with another record, so that replaying a tape
twice gives the same gradients. It hands over every array it returns: none
is ``g``, an input's data or an array the rule keeps, and no two share
memory, so ``gradients`` owns them and adds into them without a copy.
"""

from __future__ import annotations

import numpy as np

from . import kernels


class TensorError(Exception):
    pass


class SlotError(TensorError):
    """Slot features that are not a 2-D integer array of values in [-1, rows)."""


class Tensor:
    # ``shape`` is stored, not read off ``data``: ``data`` is never rebound,
    # and an in-place update (as Adam's) keeps its shape
    __slots__ = ("data", "tape", "index", "shape")

    def __init__(self, data, tape: "Tape | None" = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise TensorError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.shape = arr.shape
        self.tape = tape
        if tape is None:
            self.index = -1
        else:
            self.index = tape._size
            tape._size += 1

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


def gradients(loss: Tensor, params: list[Tensor], out: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """d loss / d param per param; zeros where the loss does not depend on it.

    A slot's first gradient is the array its rule hands over (see the
    module docstring), and later ones are added into it. Each param's
    gradient is then copied into its array of ``out``, one array of the
    param's shape per param, which is returned; without ``out`` the arrays
    are new.
    """
    tape = loss.tape
    if tape is None:
        raise TensorError("loss was not recorded on a tape")
    if loss.data.size != 1:
        raise TensorError(f"backward from non-scalar shape {loss.shape}")
    if out is None:
        out = [np.empty_like(p.data) for p in params]
    grads: list[np.ndarray | None] = [None] * tape._size
    grads[loss.index] = np.ones((1, 1))
    for slot, inputs, rule in reversed(tape._ops):
        g = grads[slot]
        if g is None:  # the loss does not depend on this output
            continue
        for i, gi in zip(inputs, rule(g)):
            if i < 0:  # a constant operand, off the tape
                continue
            if grads[i] is None:
                grads[i] = gi
            else:
                grads[i] += gi
    for p, o in zip(params, out):
        g = grads[p.index] if p.tape is tape else None
        np.copyto(o, 0.0 if g is None else g)
    return out


# Zeros that every finiteness check dots against, never written. It grows to
# the largest array checked and never shrinks; the largest is a stacked
# (2, n, d) gate buffer, which a buffer of twice its size would double
# again. A check that races a growth reads the old buffer or the new one,
# both all zeros.
_zeros = np.zeros(0)


def _finite(x: np.ndarray) -> bool:
    """``np.isfinite(x).all()`` as one dot with zeros (see the module docstring)."""
    global _zeros
    n = x.size
    if n > _zeros.size:
        _zeros = np.zeros(n)
        _zeros.flags.writeable = False
    return np.vdot(x, _zeros[:n]) == 0


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
    if not _finite(data):
        raise TensorError(f"non-finite output of {op}")
    out = Tensor(data, tape=tape)
    if tape is not None:
        tape._ops.append((out.index, tuple(t.index for t in inputs), rule))
    return out


def check_slots(slots: np.ndarray) -> None:
    """Raise SlotError unless ``slots`` is a 2-D integer array; ``project``
    checks the values, once per forward."""
    if slots.ndim != 2 or slots.dtype.kind not in "iu":
        raise SlotError(f"slots must be a 2-D integer array, got {slots.dtype} {slots.shape}")


def _product(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b, or one a @ b[i] per slab of a stack b of shape (k, m, d)."""
    if b.shape[-1] == 1:
        # BLAS computes a one-column product (gemv) with rounding that depends
        # on the row's position in ``a``; a row-wise dot gives every row the
        # same result wherever it sits in the batch.
        return np.add.reduce(a * b.swapaxes(-1, -2), axis=-1, keepdims=True, out=out)
    return np.matmul(a, b, out=out)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus the 1-row ``bias`` added to every row when one is given.

    With a bias the op is one record for what ``add(matmul(a, b), bias)``
    records as two, with the same arithmetic and gradients. The sum is
    non-finite wherever the product is, so one check of it stands for both.
    """
    if a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    data = _product(ad, bd)
    if bias is None:
        return _op(data, "matmul", (a, b), lambda g: (g @ bd.T, ad.T @ g))
    if bias.shape != (1, b.shape[1]):
        raise TensorError(f"matmul bias shape {bias.shape} for product {data.shape}")
    data += bias.data  # the product is a fresh array
    return _op(data, "matmul", (a, b, bias),
               lambda g: (g @ bd.T, ad.T @ g, g.sum(axis=0, keepdims=True)))


class StepWeights:
    """The 11 weights of ``message_step``, prepared once for every step that
    uses them: their shapes compared with each other, and the update and
    reset gates' weights stacked.

    ``fits`` is whether the shapes are those of an aggregate layer from
    state width ``width`` (the rows of ``agg_w``) and a GRU over its output.
    When they fit, ``w_zr`` (2, m, d), ``u_zr`` (2, d, d) and ``b_zr``
    (2, 1, d) hold the z gate's weights, then the r gate's. They are copies:
    build new StepWeights when the weights change, as ``model.forward_batch``
    does once per forward.
    """

    __slots__ = ("tensors", "width", "fits", "w_zr", "u_zr", "b_zr")

    def __init__(self, agg_w: Tensor, agg_b: Tensor, wz: Tensor, uz: Tensor, bz: Tensor,
                 wr: Tensor, ur: Tensor, br: Tensor, wh: Tensor, uh: Tensor, bh: Tensor):
        self.tensors = (agg_w, agg_b, wz, uz, bz, wr, ur, br, wh, uh, bh)
        d, m = agg_w.shape
        gru = (m, d), (d, d), (1, d)
        self.width = d
        self.fits = tuple(t.shape for t in self.tensors) == ((d, m), (1, m), *gru, *gru, *gru)
        if self.fits:
            self.w_zr = np.array((wz.data, wr.data))
            self.u_zr = np.array((uz.data, ur.data))
            self.b_zr = np.array((bz.data, br.data))
        else:  # message_step names the misfit against the state it is given
            self.w_zr = self.u_zr = self.b_zr = None


def message_step(h: Tensor, edges: kernels.Edges, weights: StepWeights) -> Tensor:
    """One message-passing step of state ``h`` over the edges (src, dst),
    recorded as one op; ``weights`` holds agg_w, agg_b, then wz, uz, bz,
    wr, ur, br, wh, uh and bh:

        a = relu(s @ agg_w + agg_b), s[v] = sum over edges (u, v) of h[u]
        z = sigmoid(a @ wz + h @ uz + bz)
        r = sigmoid(a @ wr + h @ ur + br)
        c = tanh(a @ wh + (r * h) @ uh + bh)
        out = (1 - z) * h + z * c

    ``edges`` holds the scatter positions of rows as wide as ``h``, built
    once for every step over the same edges. z and r are computed together
    in one (2, n, d) buffer from the stacked weights (see the module
    docstring). The arithmetic is that of the chain ``edge_gather_sum``,
    ``matmul`` with a bias, ``relu`` and the GRU update spelled out in
    ``matmul``, ``add``, ``sigmoid``, ``tanh``, ``hadamard`` and ``scale``
    (``1 - z`` is ``scale`` by -1, then ``add`` of an off-tape constant), in
    the same order, so the output and the gradients are bit-identical to the
    chain's: the rule adds the gates' terms of a's and h's gradients c's
    first, then r's, then z's, as ``gradients`` replays the chain. Each sum
    and squashing function runs in place, and a stacked temporary is written
    over once a later value can use it. Its failures are the chain's: a
    non-finite value in the chain first appears in a sum or a product, and
    it stays non-finite through every later ``+`` and product up to the relu
    or a squashing function, so checking the aggregate before the relu
    (which maps -inf to 0), the GRU pre-activations (the update gate's, then
    the reset gate's, then the candidate's) and the output raises exactly
    where the chain would.
    """
    n, d = h.shape
    agg_w, agg_b, wz, uz, bz, wr, ur, br, wh, uh, bh = weights.tensors
    if not weights.fits or weights.width != d:  # the checks below name the misfit
        m = agg_w.shape[1]
        if agg_w.shape != (d, m) or agg_b.shape != (1, m):
            raise TensorError(f"message_step aggregate weights {agg_w.shape}, {agg_b.shape} "
                              f"for state {h.shape}")
        for w, u, b in ((wz, uz, bz), (wr, ur, br), (wh, uh, bh)):
            if w.shape != (m, d) or u.shape != (d, d) or b.shape != (1, d):
                raise TensorError(f"message_step gru weights {w.shape}, {u.shape}, {b.shape} for "
                                  f"aggregate width {m} and state {h.shape}")
    if edges.width != d:
        raise TensorError(f"message_step edges built for width {edges.width}, state {h.shape}")
    hd, aggd, whd, uhd = h.data, agg_w.data, wh.data, uh.data
    w_zr, u_zr = weights.w_zr, weights.u_zr
    summed = kernels.edge_sum(hd, edges.src, edges.into_dst)
    a = _product(summed, aggd)
    a += agg_b.data
    if not _finite(a):
        raise TensorError("non-finite output of message_step aggregate")
    np.maximum(a, 0.0, out=a)  # relu in place: its gradient needs only a > 0, true where pre > 0
    zr = _product(a, w_zr)  # z's pre-activation in zr[0], r's in zr[1]
    buf = _product(hd, u_zr)
    zr += buf
    zr += weights.b_zr
    if not _finite(zr):
        gate = "reset" if _finite(zr[0]) else "update"
        raise TensorError(f"non-finite {gate} gate pre-activation of message_step")
    _sigmoid(zr, out=zr)
    z, r = zr[0], zr[1]  # indexing: unpacking iterates over the stack
    rh = r * hd
    c, out = buf[0], buf[1]  # h @ U_zr's buffer, once added, holds c and the output
    _product(a, whd, out=c)
    c += _product(rh, uhd)
    c += bh.data
    if not _finite(c):
        raise TensorError("non-finite candidate pre-activation of message_step")
    np.tanh(c, out=c)
    np.subtract(1.0, z, out=out)  # keep
    out *= hd
    out += z * c

    def rule(g):
        # g, and every array the rule closes over, is read only: each
        # gradient below is a fresh array, updated in place, or written into
        # one the rule allocated and no longer needs. The rule keeps summed,
        # a, zr and c; keep and r * h are recomputed, which holds two arrays
        # fewer per step on a tape.
        dzr = np.empty_like(zr)  # the gradients of z's and r's pre-activations
        dpz, dpr = dzr[0], dzr[1]
        np.multiply(g, c, out=dpz)
        t = np.multiply(g, hd)
        dpz -= t
        dpc = g * z
        np.multiply(c, c, out=t)
        np.subtract(1.0, t, out=t)
        dpc *= t
        drh = dpc @ uhd.T
        np.multiply(drh, hd, out=dpr)
        s = np.subtract(1.0, zr)
        s *= zr
        dzr *= s  # sigmoid' of both gates
        p = np.matmul(dzr, w_zr.transpose(0, 2, 1))
        dpre = dpc @ whd.T  # c's term, then r's, then z's
        dpre += p[1]
        dpre += p[0]
        dpre *= a > 0
        dh = np.subtract(1.0, z)
        dh *= g  # g * keep
        drh *= r
        dh += drh
        q = np.matmul(dzr, u_zr.transpose(0, 2, 1), out=s)
        dh += q[1]  # r's term, then z's
        dh += q[0]
        dh += kernels.edge_sum(np.matmul(dpre, aggd.T, out=drh), edges.dst, edges.into_src)
        rh = np.multiply(r, hd, out=t)
        dw, du, db = np.matmul(a.T, dzr), np.matmul(hd.T, dzr), dzr.sum(axis=1, keepdims=True)
        return (
            dh, summed.T @ dpre, dpre.sum(axis=0, keepdims=True),
            dw[0], du[0], db[0], dw[1], du[1], db[1],
            a.T @ dpc, rh.T @ dpc, dpc.sum(axis=0, keepdims=True),
        )

    return _op(out, "message_step", (h, *weights.tensors), rule)


def project(slots: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """relu(x @ w + b) for the one-hot rows x whose hot columns are ``slots``,
    recorded as one op.

    The product is taken without the rows: row i is the sum of w[slots[i, j]]
    over the columns j with slots[i, j] >= 0 (-1 marks none), added in order
    j = 0, 1, ..., the order of the hot columns in a one-hot row. The slots
    are constant input, so only ``w`` and ``b`` get gradients. The
    arithmetic, the gradients and the failures are those of the row sum,
    ``add`` and ``relu`` as three ops: the row sum is checked, then the sum
    with the bias, before the relu (which maps -inf to 0).
    """
    w_rows = w.shape[0]
    check_slots(slots)
    # ufunc reductions: ndarray.min and max go through a Python wrapper
    if slots.size and (np.minimum.reduce(slots, axis=None) < -1
                       or np.maximum.reduce(slots, axis=None) >= w_rows):
        raise SlotError(f"slot outside [-1, {w_rows})")
    if b.shape != (1, w.shape[1]):
        raise TensorError(f"project bias shape {b.shape} for weights {w.shape}")
    rows, cols = np.nonzero(slots >= 0)  # row-major, so each row's columns in order
    hot = slots[rows, cols]
    out = kernels.segment_sum(w.data[hot], rows, slots.shape[0])
    if not _finite(out):
        raise TensorError("non-finite output of project row sum")
    out += b.data
    if not _finite(out):
        raise TensorError("non-finite output of project bias")
    np.maximum(out, 0.0, out=out)  # relu in place: out > 0 exactly where the sum is

    def rule(g):
        dpre = g * (out > 0)
        return kernels.segment_sum(dpre[rows], hot, w_rows), dpre.sum(axis=0, keepdims=True)

    return _op(out, "project", (w, b), rule)


def readout(h: Tensor, gate_w: Tensor, gate_b: Tensor, feat_w: Tensor, feat_b: Tensor,
            seg: np.ndarray, num_graphs: int) -> Tensor:
    """Gated attention pooling of the rows of ``h`` into ``num_graphs`` rows,
    recorded as one op:

        gate = sigmoid(h @ gate_w + gate_b), one column
        feat = tanh(h @ feat_w + feat_b)
        out[k] = sum of gate[i] * feat[i] over the rows i with seg[i] == k

    The arithmetic is that of the chain ``matmul`` with a bias, ``sigmoid``,
    ``matmul`` with a bias, ``tanh``, the per-row product and
    ``segment_sum``, in that order, so output and gradients are
    bit-identical to it. Only the two pre-activations can be non-finite
    when h and the weights are not: each is checked, the gate's first,
    which raises exactly where the chain would.
    """
    n, d = h.shape
    m = feat_w.shape[1]
    if gate_w.shape != (d, 1) or gate_b.shape != (1, 1) or feat_w.shape != (d, m) or feat_b.shape != (1, m):
        raise TensorError(f"readout weights {gate_w.shape}, {gate_b.shape}, {feat_w.shape}, "
                          f"{feat_b.shape} for state {h.shape}")
    if seg.shape != (n,):
        raise TensorError(f"readout segment ids of shape {seg.shape} for state {h.shape}")
    hd, gwd, fwd = h.data, gate_w.data, feat_w.data
    gate = _product(hd, gwd)
    gate += gate_b.data
    if not _finite(gate):
        raise TensorError("non-finite output of readout gate")
    _sigmoid(gate, out=gate)
    feat = _product(hd, fwd)
    feat += feat_b.data
    if not _finite(feat):
        raise TensorError("non-finite output of readout feature")
    np.tanh(feat, out=feat)
    pooled = kernels.segment_sum(feat * gate, seg, num_graphs)

    def rule(g):
        # g, gate, feat and h's data are read only; every gradient below is
        # a fresh array, updated in place
        dfeat = g[seg]  # the gradient of gate * feat, until scaled by gate
        dgate = (dfeat * feat).sum(axis=1, keepdims=True)
        dfeat *= gate
        t = feat * feat
        np.subtract(1.0, t, out=t)
        dfeat *= t  # tanh'
        s = np.subtract(1.0, gate)
        s *= gate
        dgate *= s  # sigmoid'
        dh = dfeat @ fwd.T
        dh += dgate @ gwd.T
        return (dh, hd.T @ dgate, dgate.sum(axis=0, keepdims=True),
                hd.T @ dfeat, dfeat.sum(axis=0, keepdims=True))

    return _op(pooled, "readout", (h, gate_w, gate_b, feat_w, feat_b), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b of one shape, or a 1-row bias ``b`` added to every row of ``a``;
    a bias's gradient is the row sum of the output's, also for one row."""
    bias = b.shape == (1, a.shape[1])
    if not bias and a.shape != b.shape:
        raise TensorError(f"add shape mismatch: {a.shape} + {b.shape}")
    return _op(a.data + b.data, "add", (a, b),
               lambda g: (g.copy(), g.sum(axis=0, keepdims=True) if bias else g.copy()))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise TensorError(f"hadamard shape mismatch: {a.shape} * {b.shape}")
    ad, bd = a.data, b.data
    return _op(ad * bd, "hadamard", (a, b), lambda g: (g * bd, g * ad))


def _unary(a: Tensor, fwd, dfdy, op: str) -> Tensor:
    """An elementwise op; none of them divides by zero or goes invalid on finite input."""
    x = a.data
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
