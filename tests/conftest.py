import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from defreach import kernels
from defreach import tensor as T
from defreach.cfg import Cfg, Statement, dump_cfg, load_cfg, predecessor_lists

# Tier-1 runs hypothesis's default budget of 100 examples per test; CI runs
# tests/test_fuzz.py and tests/test_frontend.py once more with
# --hypothesis-profile=ci, ten times that.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)

FIG1_SRC = """\
void f(int argc) {
    char *str = NULL;
    if (argc > 1) { str = malloc(10 * argc); }
    str[(10 * argc) - 1];
}
"""


@pytest.fixture
def fig1_src():
    return FIG1_SRC


def random_cfg(
    rng: random.Random, max_nodes: int = 20, max_vars: int = 8, min_nodes: int = 3
) -> Cfg:
    """Random structured CFG built directly (no parser): a chain guaranteeing
    the reachability invariants, plus random extra edges."""
    n_mid = rng.randint(min_nodes - 2, max_nodes - 2)
    variables = [f"v{i}" for i in range(rng.randint(1, max_vars))]
    nodes = [Statement(kind="nop", code="<entry>")]
    for i in range(n_mid):
        r = rng.random()
        if r < 0.55:
            var = rng.choice(variables)
            nodes.append(
                Statement(kind="assign", code=f"{var} = {i}", target=var, constants=(str(i),))
            )
        elif r < 0.8:
            nodes.append(Statement(kind="condition", code="x > 0", uses={"x"}))
        else:
            nodes.append(Statement(kind="nop"))
    nodes.append(Statement(kind="nop", code="<exit>"))
    exit_id = n_mid + 1
    edges = {(i, i + 1) for i in range(exit_id)}
    for _ in range(rng.randint(0, 2 * n_mid)):
        a = rng.randrange(0, exit_id)
        b = rng.randrange(1, exit_id + 1)
        if a != b:
            edges.add((a, b))
    cfg = Cfg(
        function="rand", nodes=nodes, preds=predecessor_lists(len(nodes), edges), entry=0, exit=exit_id
    )
    cfg.validate()
    return cfg


def assert_adjacency_survives_interchange(cfg: Cfg) -> None:
    """The parser's adjacency, built from the predecessor lists it hands over,
    equals the adjacency ``load_cfg`` builds from the dumped edge list; every
    list ascends strictly."""
    loaded = load_cfg(dump_cfg(cfg))
    nodes = range(len(cfg.nodes))
    for name in ("successors", "predecessors"):
        lists = [getattr(cfg, name)(v) for v in nodes]
        assert lists == [getattr(loaded, name)(v) for v in nodes], name
        assert all(a < b for adjacent in lists for a, b in zip(adjacent, adjacent[1:])), name
    assert np.array_equal(cfg.edge_array, loaded.edge_array)
    assert list(map(tuple, cfg.edge_array.tolist())) == sorted(cfg.edges)


def random_slots(nrng: np.random.Generator, n_nodes: int, k: int) -> np.ndarray:
    """Random slot features: one hot column per property block of k + 2
    columns, about a third of them -1 (masked or no definition)."""
    hot = np.arange(4) * (k + 2) + nrng.integers(0, k + 2, (n_nodes, 4))
    return np.where(nrng.random((n_nodes, 4)) < 0.3, -1, hot)


def projection_chain(slots: np.ndarray, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """T.project spelled out in primitive ops: ``edge_gather_sum`` adds each
    node's hot rows of w into that node's row, in column order, an identity
    ``matmul`` keeps the node rows, then ``add`` the bias and ``relu``."""
    n, rows_w = slots.shape[0], w.shape[0]
    if n > rows_w:  # zero rows below w's, so that every node has a row to sum into
        w = T.matmul(T.Tensor(np.eye(n, rows_w)), w)
    rows, cols = np.nonzero(slots >= 0)
    summed = T.edge_gather_sum(w, slots[rows, cols], rows)
    return T.relu(T.add(T.matmul(T.Tensor(np.eye(n, summed.shape[0])), summed), b))


def scale_rows(a: T.Tensor, s: T.Tensor) -> T.Tensor:
    """Row i of ``a`` times s[i, 0], recorded as an op of its own. No public
    primitive's rule sums a row as the gate's gradient does (numpy's
    pairwise sum along axis 1), so the reference records it directly."""
    ad, sd = a.data, s.data
    return T._op(ad * sd, "scale_rows", (a, s), lambda g: (g * sd, (g * ad).sum(axis=1, keepdims=True)))


def readout_chain(h, gate_w, gate_b, feat_w, feat_b, seg: np.ndarray, num_graphs: int) -> T.Tensor:
    """T.readout spelled out in primitive ops."""
    gate = T.sigmoid(T.matmul(h, gate_w, bias=gate_b))
    feat = T.tanh(T.matmul(h, feat_w, bias=feat_b))
    return T.segment_sum(scale_rows(feat, gate), seg, num_graphs)


def _gate_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with one product per gate; a one-column product as row-wise dots."""
    if b.shape[1] == 1:
        return np.add.reduce(a * b.T, axis=1, keepdims=True)
    return a @ b


def _gate(x, w, y, u, b, f, name):
    p = _gate_product(x, w)
    p += _gate_product(y, u)
    p += b
    if not T._finite(p):
        raise T.TensorError(f"non-finite {name} pre-activation of message_step")
    return f(p, out=p)


def per_gate_step(h, edges, agg_w, agg_b, wz, uz, bz, wr, ur, br, wh, uh, bh) -> T.Tensor:
    """T.message_step with each GRU gate in buffers of its own: two 2-D
    products, a bias, a check and a squashing function per gate, and a rule
    that takes each gate's products apart. The reference for the stacked
    update and reset gates of T.message_step, whose outputs, gradients and
    errors must be bit for bit these."""
    n, d = h.shape
    m = agg_w.shape[1]
    if agg_w.shape != (d, m) or agg_b.shape != (1, m):
        raise T.TensorError(f"message_step aggregate weights {agg_w.shape}, {agg_b.shape} for state {h.shape}")
    for w, u, b in ((wz, uz, bz), (wr, ur, br), (wh, uh, bh)):
        if w.shape != (m, d) or u.shape != (d, d) or b.shape != (1, d):
            raise T.TensorError(f"message_step gru weights {w.shape}, {u.shape}, {b.shape} for "
                                f"aggregate width {m} and state {h.shape}")
    if edges.width != d:
        raise T.TensorError(f"message_step edges built for width {edges.width}, state {h.shape}")
    hd, aggd = h.data, agg_w.data
    wzd, uzd, wrd, urd, whd, uhd = wz.data, uz.data, wr.data, ur.data, wh.data, uh.data
    summed = kernels.edge_sum(hd, edges.src, edges.into_dst)
    a = _gate_product(summed, aggd)
    a += agg_b.data
    if not T._finite(a):
        raise T.TensorError("non-finite output of message_step aggregate")
    np.maximum(a, 0.0, out=a)
    z = _gate(a, wzd, hd, uzd, bz.data, T._sigmoid, "update gate")
    r = _gate(a, wrd, hd, urd, br.data, T._sigmoid, "reset gate")
    rh = r * hd
    c = _gate(a, whd, rh, uhd, bh.data, np.tanh, "candidate")
    out = np.subtract(1.0, z)
    out *= hd
    out += z * c

    def rule(g):
        dz = g * c - g * hd
        dpc = g * z * (1.0 - c * c)
        drh = dpc @ uhd.T
        dpr = drh * hd * (r * (1.0 - r))
        dpz = dz * (z * (1.0 - z))
        dpre = dpz @ wzd.T
        dpre += dpr @ wrd.T
        dpre += dpc @ whd.T
        dpre *= a > 0
        dh = (1.0 - z) * g
        dh += drh * r
        dh += dpr @ urd.T
        dh += dpz @ uzd.T
        dh += kernels.edge_sum(dpre @ aggd.T, edges.dst, edges.into_src)
        return (
            dh, summed.T @ dpre, dpre.sum(axis=0, keepdims=True),
            a.T @ dpz, hd.T @ dpz, dpz.sum(axis=0, keepdims=True),
            a.T @ dpr, hd.T @ dpr, dpr.sum(axis=0, keepdims=True),
            a.T @ dpc, (r * hd).T @ dpc, dpc.sum(axis=0, keepdims=True),
        )

    return T._op(out, "message_step", (h, agg_w, agg_b, wz, uz, bz, wr, ur, br, wh, uh, bh), rule)


def brute_gen_kill(cfg: Cfg, deref_defines: bool = False):
    """Independent per-variable-grouping oracle for GEN/KILL, using sets."""
    defs = []
    for node, stmt in enumerate(cfg.nodes):
        if stmt.is_definition():
            defs.append((len(defs), node, stmt.target))
        elif deref_defines and stmt.kind == "deref-use":
            defs.append((len(defs), node, f"<deref@{node}>"))
    gen = {v: set() for v in range(len(cfg.nodes))}
    kill = {v: set() for v in range(len(cfg.nodes))}
    for did, node, var in defs:
        gen[node] = {did}
        kill[node] = {d for d, _, v in defs if v == var and d != did}
    return defs, gen, kill


def gen_by_variable(cfg: Cfg, gen: list[int], deref_defines: bool = False) -> dict[str, int]:
    """Per variable, the OR of the GEN masks of its definitions, grouped as
    ``brute_gen_kill`` groups them."""
    masks: dict[str, int] = {}
    for _, node, var in brute_gen_kill(cfg, deref_defines)[0]:
        masks[var] = masks.get(var, 0) | gen[node]
    return masks


def pairwise_label(cfg: Cfg, reaches) -> int:
    """The oracle label pair by pair: 1 iff some deref-use node v and some
    NULL-constant definition d that calls nothing, of a variable v uses,
    have ``reaches(d, v)`` (d's id in IN[v])."""
    defs, _, _ = brute_gen_kill(cfg)
    for v, stmt in enumerate(cfg.nodes):
        if stmt.kind != "deref-use":
            continue
        for d, node, var in defs:
            source = cfg.nodes[node]
            if var in stmt.uses and "NULL" in source.constants and source.callee is None and reaches(d, v):
                return 1
    return 0


def null_dereference_core(w, vulnerable: bool) -> None:
    """A core shape for ``harness._CORE_SHAPES`` that mislabels on purpose:
    it writes a NULL dereference whatever label it is asked for."""
    w.lines += ["char *p = NULL;", "p[0];"]


def with_nulls_and_derefs(rng: random.Random, cfg: Cfg) -> Cfg:
    """``cfg`` (say, from ``random_cfg``) with about half its assignments
    made NULL, some of those through a call, and about half its other inner
    nodes made dereferences of one or two of its variables."""
    variables = sorted({stmt.target for stmt in cfg.nodes if stmt.is_definition()}) or ["v0"]
    nodes = list(cfg.nodes)
    for v in range(1, len(nodes) - 1):
        r = rng.random()
        if nodes[v].is_definition() and r < 0.5:
            callee = "lookup" if r < 0.1 else None
            nodes[v] = replace(nodes[v], constants=("NULL",), callee=callee)
        elif not nodes[v].is_definition() and r < 0.5:
            uses = set(rng.sample(variables, min(len(variables), rng.randint(1, 2))))
            nodes[v] = Statement(kind="deref-use", code="*p", uses=uses)
    return Cfg(function=cfg.function, nodes=nodes, preds=[list(p) for p in cfg.preds],
               entry=cfg.entry, exit=cfg.exit)


def naive_solve(cfg: Cfg, gen, kill):
    """Dense round-robin full sweeps with python sets, iterated to stability."""
    nodes = range(len(cfg.nodes))
    out = {v: frozenset() for v in nodes}
    while True:
        prev = out
        out = {}
        for v in nodes:
            inb = frozenset().union(*(prev[u] for u in cfg.predecessors(v)), frozenset())
            out[v] = frozenset(gen[v] | (inb - kill[v]))
        if out == prev:
            break
    inb = {
        v: frozenset().union(*(out[u] for u in cfg.predecessors(v)), frozenset()) for v in nodes
    }
    return inb, out
