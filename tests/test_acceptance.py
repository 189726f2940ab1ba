"""Acceptance gate: seven end-to-end criteria with pinned tolerances.

Each test prints a single ``[acceptance] criterion N ... PASS`` line on
success (run with ``pytest -s`` or ``-rA`` to see them); a failure raises
with the measured value in the message.
"""

import json
import random
import time

import numpy as np
import pytest

from conftest import FIG1_SRC, brute_gen_kill, naive_solve, random_cfg, random_slots
from defreach import model as M
from defreach import tensor as T
from defreach.cli import main
from defreach.dataflow import compute_gen_kill, solve, trace
from defreach.embedding import build_vocabulary, encode, one_hot
from defreach.harness import (
    compute_metrics,
    f1_from_pr,
    split,
    synth_generate,
    undersample,
)
from defreach.parser import parse_function


def set_of(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def report(n, name, detail):
    print(f"[acceptance] criterion {n} ({name}): PASS — {detail}")


GOLDEN_ROUNDS = [
    ["000", "000", "000", "000"],
    ["100", "000", "010", "001"],
    ["100", "100", "010", "011"],
    ["100", "100", "010", "111"],
]


def test_criterion_1_sync_trace_golden(tmp_path, capsys):
    """The 3-sweep synchronous trace of the motivating example matches the
    published per-round OUT table, through the CLI, in under 1 second."""
    src = tmp_path / "fig1.c"
    src.write_text(FIG1_SRC)
    start = time.perf_counter()
    code = main(["dfa", str(src), "--trace", "3", "--deref-defines"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    rounds = [[snap[str(v)] for v in (1, 2, 3, 4)] for snap in doc["trace"]]
    assert rounds == GOLDEN_ROUNDS, rounds
    assert elapsed < 1.0, f"{elapsed:.3f}s"
    report(1, "synchronous trace golden table", f"4 rounds bit-exact in {elapsed*1000:.0f}ms")


def test_criterion_2_solver_vs_oracle_200_graphs():
    """On 200 random CFGs the round-robin solver equals an independent dense
    solver, per-round OUT sets grow monotonically, and the trace is stable
    once converged. Budget: 10 seconds."""
    start = time.perf_counter()
    rng = random.Random(20)
    for i in range(200):
        cfg = random_cfg(rng, max_nodes=20, max_vars=8)
        n = len(cfg.nodes)
        _, state = compute_gen_kill(cfg)
        solve(cfg, state)
        _, oracle_gen, oracle_kill = brute_gen_kill(cfg)
        oracle_in, oracle_out = naive_solve(cfg, oracle_gen, oracle_kill)
        for v in range(n):
            assert set_of(state.inb[v]) == oracle_in[v], f"graph {i} node {v} IN"
            assert set_of(state.out[v]) == oracle_out[v], f"graph {i} node {v} OUT"
        _, fresh = compute_gen_kill(cfg)
        snaps = trace(cfg, fresh, n + 2)
        for a, b in zip(snaps, snaps[1:]):
            for v in range(n):
                assert a[v] & ~b[v] == 0, f"graph {i}: OUT shrank at node {v}"
        assert all(snaps[-1][v] == snaps[-2][v] for v in range(n)), f"graph {i} unstable"
        assert all(set_of(snaps[-1][v]) == oracle_out[v] for v in range(n))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    report(2, "solver matches dense oracle", f"200 graphs in {elapsed:.2f}s")


def test_criterion_3_f1_reference_value():
    """F1 computed from the published precision/recall pair matches the
    published score within 5e-4."""
    f1 = f1_from_pr(0.5398, 0.9281)
    assert abs(f1 - 0.6826) < 5e-4, f1
    report(3, "F1 reference value", f"f1(0.5398, 0.9281) = {f1:.4f}")


def test_criterion_4_gradient_checks():
    """Analytic gradients of composite ops agree with central differences to
    1e-6 relative error, and a full 4-node model loss to 1e-5. Budget: 30s."""
    start = time.perf_counter()
    rng = np.random.default_rng(21)

    def check(build, arrays, tol):
        tape = T.Tape()
        tensors = [tape.tensor(a) for a in arrays]
        grads = T.gradients(build(tensors), tensors)
        worst = 0.0
        for i, a in enumerate(arrays):
            def f(x, i=i):
                inputs = [T.Tensor(v) for v in arrays]
                inputs[i] = T.Tensor(x)
                return build(inputs).item()

            err = T.relative_error(grads[i], T.numeric_gradient(f, a.copy(), h=1e-6))
            worst = max(worst, err)
        assert worst < tol, f"relative error {worst:.3e}"
        return worst

    # composite operations
    a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
    bias = rng.standard_normal((1, 3))
    worst = check(
        lambda t: T.sum_all(T.tanh(T.add(T.matmul(T.sigmoid(t[0]), t[1]), t[2]))),
        [a, b, bias],
        1e-6,
    )
    h = rng.standard_normal((5, 4))
    src = np.array([0, 1, 2, 3, 4], dtype=np.int64)
    dst = np.array([1, 2, 3, 4, 0], dtype=np.int64)
    seg = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    worst = max(
        worst,
        check(
            lambda t: T.sum_all(
                T.softplus(T.segment_sum(T.edge_gather_sum(t[0], src, dst), seg, 2))
            ),
            [h],
            1e-6,
        ),
    )

    # end-to-end: full model loss on a 4-node graph
    c = M.ModelConfig(k=2, hidden=4, steps=2, output_layers=2)
    params = M.init_params(c, seed=22)
    for name in params:  # keep relu inputs away from the kink
        params[name] = params[name] + 0.05 * rng.standard_normal(params[name].shape)
    cfg = random_cfg(random.Random(22), max_nodes=4, max_vars=2)
    x = random_slots(rng, len(cfg.nodes), c.k)
    batch = M.batch_graphs([(x, cfg)])
    labels = np.array([[1.0]])
    tape = T.Tape()
    pt = {k: tape.tensor(v) for k, v in params.items()}
    analytic = T.gradients(M.bce_logits(M.forward_batch(pt, batch, c), labels), list(pt.values()))
    worst_model = 0.0
    for name, grad in zip(pt.keys(), analytic):
        def f(arr, name=name):
            trial = {k: T.Tensor(v if k != name else arr) for k, v in params.items()}
            return M.bce_logits(M.forward_batch(trial, batch, c), labels).item()

        err = T.relative_error(grad, T.numeric_gradient(f, params[name].copy(), h=1e-6))
        worst_model = max(worst_model, err)
    assert worst_model < 1e-5, f"model relative error {worst_model:.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{elapsed:.2f}s"
    report(4, "gradient checks", f"ops {worst:.1e}, model {worst_model:.1e}, {elapsed:.1f}s")


def _train_and_score(regime, seed=0):
    data = synth_generate(770, seed=seed)
    fractions = (500 / 770, 70 / 770, 200 / 770)
    train, valid, test = split(data, regime, fractions, seed=seed)
    train = undersample(train, seed=seed)
    vocab = build_vocabulary([e.cfg for e in train], k=20)
    config = M.ModelConfig(batch_size=32, k=20)
    params, _, _ = M.train_model(
        config,
        [(e.cfg, e.label) for e in train],
        [(e.cfg, e.label) for e in valid],
        vocab,
        seed=seed,
        epochs=50,
    )
    ckpt = M.Checkpoint(params=params, config=config, vocab=vocab, best_epoch=0)
    probs = [M.predict(ckpt, e.cfg) for e in test]
    return compute_metrics(probs, [e.label for e in test]).f1


def test_criterion_5_learned_detector_quality():
    """Trained on 500 synthetic examples, the model reaches F1 >= 0.95 on a
    held-out mixed test set within 50 epochs, and moving to a cross-project
    holdout costs fewer than 10 F1 points. Budget: 5 minutes."""
    start = time.perf_counter()
    mixed_f1 = _train_and_score("mixed")
    cross_f1 = _train_and_score("cross")
    elapsed = time.perf_counter() - start
    assert mixed_f1 >= 0.95, f"mixed F1 {mixed_f1:.4f}"
    drop = (mixed_f1 - cross_f1) * 100.0
    assert drop < 10.0, f"cross-project drop {drop:.1f} F1 points"
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    report(
        5,
        "learned detector quality",
        f"mixed F1 {mixed_f1:.4f}, cross F1 {cross_f1:.4f}, drop {drop:+.1f} pts, {elapsed:.0f}s",
    )


def test_criterion_6_invariant_battery():
    """Structural invariants hold across 60 generated programs: sources
    reparse to identical graphs, stored labels match the analysis, feature
    blocks are one-hot for definition rows and zero otherwise, and model
    output is invariant to node relabeling. Budget: 2 minutes."""
    start = time.perf_counter()
    data = synth_generate(60, seed=23)
    vocab = build_vocabulary([e.cfg for e in data], k=10)
    c = M.ModelConfig(k=10, hidden=8, steps=2)
    params = M.init_params(c, seed=23)
    nrng = np.random.default_rng(23)
    block = vocab.k + 2
    from defreach.harness import oracle_label

    for e in data:
        assert parse_function(e.source).structurally_equal(e.cfg)
        assert oracle_label(e.cfg) == e.label
        rows = one_hot(encode(e.cfg, vocab), vocab.row_width)
        for node, stmt in enumerate(e.cfg.nodes):
            blocks = rows[node].reshape(4, block)
            if stmt.kind in ("decl-init", "assign", "call-assign"):
                assert (blocks.sum(axis=1) == 1).all(), f"{e.id} node {node}"
            else:
                assert not rows[node].any(), f"{e.id} node {node}"

        x = random_slots(nrng, len(e.cfg.nodes), c.k)
        (p0,) = M.infer(params, [(x, e.cfg)], c)
        perm = nrng.permutation(len(e.cfg.nodes))
        inv = np.argsort(perm)
        relabeled = type(e.cfg)(
            function=e.cfg.function,
            nodes=[e.cfg.nodes[perm[i]] for i in range(len(e.cfg.nodes))],
            edges=[(int(inv[s]), int(inv[d])) for s, d in e.cfg.edges],
            entry=int(inv[e.cfg.entry]),
            exit=int(inv[e.cfg.exit]),
        )
        (p1,) = M.infer(params, [(x[perm], relabeled)], c)
        assert abs(p0 - p1) <= 1e-9, f"{e.id}: relabeling changed output"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    report(6, "invariant battery", f"60 programs in {elapsed:.1f}s")


def test_criterion_7_inference_latency(tmp_path, capsys):
    """Feature encoding plus a forward pass costs under 10ms per example,
    measured by the evaluation command's --timing report."""
    data_dir = tmp_path / "data"
    ckpt = tmp_path / "model.json"
    assert main(["synth", "--n", "60", "--seed", "24", "-o", str(data_dir)]) == 0
    assert main([
        "train", "--data", str(data_dir), "--epochs", "2", "--batch-size", "16",
        "--k", "10", "-o", str(ckpt),
    ]) == 0
    capsys.readouterr()
    report_path = tmp_path / "metrics.json"
    assert main([
        "eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--timing",
        "-o", str(report_path),
    ]) == 0
    ms = json.loads(report_path.read_text())["ms_per_example"]
    assert ms < 10.0, f"{ms:.2f} ms/example"
    report(7, "inference latency", f"{ms:.2f} ms/example over 60 examples")
