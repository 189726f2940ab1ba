import dataclasses
import gc
import io
import json
import random
import weakref

import numpy as np
import pytest

from conftest import per_gate_step, projection_chain, random_cfg, random_slots, readout_chain, step_chain
from defreach import kernels
from defreach import model as M
from defreach import tensor as T
from defreach.cfg import predecessor_lists
from defreach.embedding import build_vocabulary, encode
from defreach.harness import compute_metrics, synth_generate, undersample


def tiny_config(**kw):
    base = dict(k=3, hidden=8, steps=2, output_layers=2)
    base.update(kw)
    return M.ModelConfig(**base)


def random_graphs(config, seed, n_graphs=3):
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n_graphs):
        cfg = random_cfg(rng, max_nodes=7, max_vars=3)
        x = random_slots(nrng, len(cfg.nodes), config.k)
        graphs.append((x, cfg))
    return graphs


class TestConfig:
    def test_steps_are_bounded(self):
        # every forward runs config.steps rounds, so an unbounded value hangs predict
        with pytest.raises(ValueError, match=r"steps must be in \[0, 64\], got 1000000000"):
            M.ModelConfig(steps=10**9)
        with pytest.raises(ValueError, match="steps must be in"):
            M.ModelConfig(steps=-1)
        assert M.ModelConfig(steps=M.MAX_STEPS).steps == 64

    def test_k_and_hidden_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            M.ModelConfig(k=0)
        with pytest.raises(ValueError, match=r"^hidden and output_layers must be >= 1$"):
            M.ModelConfig(hidden=0)


class TestInit:
    def test_deterministic_per_seed(self):
        c = tiny_config()
        p1 = M.init_params(c, seed=7)
        p2 = M.init_params(c, seed=7)
        assert p1.keys() == p2.keys()
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_seeds_differ(self):
        c = tiny_config()
        p1 = M.init_params(c, seed=1)
        p2 = M.init_params(c, seed=2)
        assert any(not np.array_equal(p1[k], p2[k]) for k in p1 if k.endswith("_w"))

    @pytest.mark.parametrize(
        "config",
        [M.ModelConfig(), M.ModelConfig(k=20, hidden=8, output_layers=1), tiny_config()],
        ids=["default", "k20-h8-1-layer", "tiny"],
    )
    def test_params_follow_param_shapes(self, config):
        params = M.init_params(config, seed=0)
        assert [(n, v.shape) for n, v in params.items()] == list(M.param_shapes(config).items())

    def test_weight_bounds_and_zero_biases(self):
        params = M.init_params(tiny_config(), seed=0)
        for name, arr in params.items():
            if name.endswith("_b"):
                assert not arr.any(), name
            else:
                fan_in, fan_out = arr.shape
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                assert np.abs(arr).max() <= bound, name


class TestForward:
    def test_probability_range_and_shape(self):
        c = tiny_config()
        params = M.init_params(c, seed=0)
        batch = M.batch_graphs(random_graphs(c, seed=0, n_graphs=4))
        pt = {k: T.Tensor(v) for k, v in params.items()}
        probs = M.forward_probs(pt, batch, c).data
        assert probs.shape == (4, 1)
        assert ((probs > 0.0) & (probs < 1.0)).all()

    def test_entry_row_of_edge_gather_sum_is_zero(self):
        # the entry node has no predecessors, so its incoming message is zero
        # and its aggregate reduces to relu(agg_b)
        c = tiny_config()
        (x, cfg), = random_graphs(c, seed=5, n_graphs=1)
        batch = M.batch_graphs([(x, cfg)])
        h = np.random.default_rng(4).standard_normal((len(cfg.nodes), c.hidden))
        summed = T.edge_gather_sum(T.Tensor(h), batch.src, batch.dst).data
        assert not summed[cfg.entry].any()
        assert summed.any()

    def test_duplicate_batch_members_get_identical_logits(self):
        c = tiny_config()
        params = M.init_params(c, seed=0)
        g = random_graphs(c, seed=6, n_graphs=2)
        batch = M.batch_graphs([g[0], g[1], g[0]])
        pt = {k: T.Tensor(v) for k, v in params.items()}
        logits = M.forward_batch(pt, batch, c).data
        assert logits[0, 0] == logits[2, 0]
        assert logits[0, 0] != logits[1, 0]

    def test_batched_matches_single_graph_forward(self):
        c = tiny_config()
        params = M.init_params(c, seed=1)
        graphs = random_graphs(c, seed=7, n_graphs=3)
        pt = {k: T.Tensor(v) for k, v in params.items()}
        probs = M.forward_probs(pt, M.batch_graphs(graphs), c).data
        for i, (x, cfg) in enumerate(graphs):
            (single,) = M.infer(params, [(x, cfg)], c)
            assert probs[i, 0] == pytest.approx(single, abs=1e-12)

    def test_zero_steps_ignores_edges(self):
        c = tiny_config(steps=0)
        params = M.init_params(c, seed=0)
        (x, cfg), = random_graphs(c, seed=8, n_graphs=1)
        pruned = type(cfg)(
            function=cfg.function,
            nodes=cfg.nodes,
            preds=predecessor_lists(len(cfg.nodes), [(cfg.entry, cfg.exit)]),
            entry=cfg.entry,
            exit=cfg.exit,
        )
        (p_full,) = M.infer(params, [(x, cfg)], c)
        (p_pruned,) = M.infer(params, [(x, pruned)], c)
        assert p_full == p_pruned


class TestTapeRecords:
    @pytest.mark.parametrize("steps, layers", [(0, 1), (1, 1), (2, 3), (5, 3)])
    def test_records_per_forward_and_loss(self, steps, layers):
        # projection 1 (project); per message step 1 (message_step); readout
        # 1 (readout); per classifier layer a matmul and, but for the last, a
        # relu; the loss 6
        c = tiny_config(steps=steps, output_layers=layers)
        params = M.init_params(c, seed=0)
        graphs = random_graphs(c, seed=9, n_graphs=3)
        tape = T.Tape()
        pt = {k: tape.tensor(v) for k, v in params.items()}
        M.bce_logits(M.forward_batch(pt, M.batch_graphs(graphs), c), np.array([1.0, 0.0, 1.0]))
        assert len(tape._ops) == 1 + steps + 1 + (2 * layers - 1) + 6


def chain_forward(pt, batch, config):
    """forward_batch spelled out in primitive ops, with ``matmul`` then ``add``
    for every bias."""
    h = projection_chain(batch.features, pt["proj_w"], pt["proj_b"])
    for _ in range(config.steps):
        h = step_chain(h, batch.src, batch.dst, *[pt[name] for name in M.STEP_PARAMS])
    y = readout_chain(h, pt["att_gate_w"], pt["att_gate_b"], pt["att_feat_w"], pt["att_feat_b"],
                      batch.seg, batch.num_graphs)
    for i in range(config.output_layers):
        y = T.add(T.matmul(y, pt[f"cls{i}_w"]), pt[f"cls{i}_b"])
        if i < config.output_layers - 1:
            y = T.relu(y)
    return y


# (k, hidden, steps, output layers, graphs in the batch); a batch of 40 is
# the default, left out of the test's id
FUSED_LAYER_CASES = [(20, 32, 5, 3, 40), (1000, 32, 5, 3, 40), (5, 1, 2, 1, 40), (7, 8, 0, 2, 40),
                     (3, 4, 3, 4, 40), (20, 32, 5, 3, 1), (20, 32, 5, 3, 2), (5, 1, 2, 1, 1),
                     (7, 8, 0, 2, 3), (3, 4, 3, 4, 1)]


class TestFusedLayers:
    """forward_batch's fused records against chain_forward, at batches of
    40 graphs and of one, two and three."""

    @pytest.mark.parametrize("k, hidden, steps, layers, graphs", [
        pytest.param(*case, id="-".join(map(str, case[:4] if case[4] == 40 else case)))
        for case in FUSED_LAYER_CASES
    ])
    def test_logits_and_gradients_bit_identical_to_chain(self, k, hidden, steps, layers, graphs):
        data = synth_generate(40, seed=k)[:graphs]
        vocab = build_vocabulary([e.cfg for e in data], k=k)
        c = M.ModelConfig(k=k, hidden=hidden, steps=steps, output_layers=layers)
        rng = np.random.default_rng(k)
        # nonzero biases, so that the relus and the gates see both signs
        params = {n: v + rng.standard_normal(v.shape) * 0.1 if n.endswith("_b") else v
                  for n, v in M.init_params(c, seed=k).items()}
        batch = M.batch_graphs([(encode(e.cfg, vocab), e.cfg) for e in data])
        labels = np.array([e.label for e in data], dtype=np.float64)

        def logits_and_gradients(forward):
            tape = T.Tape()
            pt = {n: tape.tensor(v) for n, v in params.items()}
            logits = forward(pt, batch, c)
            return logits.data, T.gradients(M.bce_logits(logits, labels), list(pt.values()))

        logits, grads = logits_and_gradients(M.forward_batch)
        chain_logits, chain_grads = logits_and_gradients(chain_forward)
        assert logits.tobytes() == chain_logits.tobytes()
        for name, a, b in zip(params, grads, chain_grads):
            assert a.tobytes() == b.tobytes(), name


class TestBatch:
    def test_features_stay_slot_indices_at_k1000(self):
        # 4 int64 slots per node, not a 4008-column float64 one-hot row
        data = synth_generate(40, seed=3)
        vocab = build_vocabulary([e.cfg for e in data], k=1000)
        batch = M.batch_graphs([(encode(e.cfg, vocab), e.cfg) for e in data])
        nodes = sum(len(e.cfg.nodes) for e in data)
        assert batch.features.shape == (nodes, 4)
        assert batch.features.nbytes <= 32 * nodes


    def test_feature_rows_must_match_nodes(self):
        cfg = synth_generate(1, seed=3)[0].cfg
        n = len(cfg.nodes)
        with pytest.raises(ValueError, match=rf"^graph 0: feature rows {n - 1} != nodes {n}$"):
            M.batch_graphs([(np.zeros((n - 1, 4), dtype=np.int64), cfg)])

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda n: np.zeros((n, 5), dtype=np.int64), "feature width: need 4 slot columns, got 5"),
            (lambda n: np.zeros((n, 4)), "feature width: slots must be a 2-D integer array, got float64 ({n}, 4)"),
            (lambda n: np.zeros(n, dtype=np.int64), "feature width: slots must be a 2-D integer array, got int64 ({n},)"),
            (lambda n: np.zeros((n + 1, 4), dtype=np.int64), "feature rows {m} != nodes {n}"),
        ],
        ids=["five-columns", "float", "one-d", "rows-not-nodes"],
    )
    def test_each_graph_checked_as_it_is_batched(self, make, message):
        # the malformed graph comes after a valid one, so the check runs per graph
        good, bad = (e.cfg for e in synth_generate(2, seed=3))
        vocab = build_vocabulary([good], k=3)
        n = len(bad.nodes)
        with pytest.raises(Exception) as caught:
            M.batch_graphs([(encode(good, vocab), good), (make(n), bad)])
        assert caught.type is ValueError and str(caught.value) == "graph 1: " + message.format(n=n, m=n + 1)


class TestGraphPosition:
    """A malformed graph is named by its index in the caller's list, in
    ``batch_graphs`` and across ``infer``'s batches."""

    GRAPHS = 7

    @pytest.fixture
    def graphs(self):
        data = synth_generate(self.GRAPHS, seed=5)
        vocab = build_vocabulary([e.cfg for e in data], k=3)
        return [(encode(e.cfg, vocab), e.cfg) for e in data]

    @staticmethod
    def spoil(graphs, at):
        """``graphs`` with graph ``at`` given one feature row too many."""
        x, cfg = graphs[at]
        return graphs[:at] + [(np.vstack([x, x[:1]]), cfg)] + graphs[at + 1:], len(cfg.nodes)

    @pytest.mark.parametrize("at", [0, 3, 6])  # first, middle, last
    def test_batch_graphs_names_the_index(self, graphs, at):
        spoiled, n = self.spoil(graphs, at)
        with pytest.raises(ValueError) as caught:
            M.batch_graphs(spoiled)
        assert str(caught.value) == f"graph {at}: feature rows {n + 1} != nodes {n}"

    @pytest.mark.parametrize("at", [0, 2, 3, 6])  # 3 opens the second batch of 3, 6 the third
    def test_infer_counts_across_batches(self, graphs, at):
        c = tiny_config(batch_size=3)
        spoiled, n = self.spoil(graphs, at)
        with pytest.raises(ValueError) as caught:
            M.infer(M.init_params(c, seed=0), spoiled, c)
        assert str(caught.value) == f"graph {at}: feature rows {n + 1} != nodes {n}"

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda x: np.hstack([x, x[:, :1]]), "graph 4: feature width: need 4 slot columns, got 5"),
            (lambda x: x.astype(np.float64), "graph 4: feature width: slots must be a 2-D integer array, got float64 ({n}, 4)"),
        ],
        ids=["five-columns", "float"],
    )
    def test_infer_names_the_index_of_a_slot_error(self, graphs, make, message):
        c = tiny_config(batch_size=3)
        x, cfg = graphs[4]
        graphs[4] = (make(x), cfg)
        with pytest.raises(ValueError) as caught:
            M.infer(M.init_params(c, seed=0), graphs, c)
        assert str(caught.value) == message.format(n=len(cfg.nodes))


class TestBatchScatter:
    """forward_batch builds its batch's scatter positions once (kernels.Edges)
    for every step; logits and gradients must equal those of steps that
    each build their own."""

    @pytest.mark.parametrize("k", [20, 1000])
    def test_matches_per_call_kernel(self, k, monkeypatch):
        data = synth_generate(120, seed=4)
        vocab = build_vocabulary([e.cfg for e in data], k=k)
        c = M.ModelConfig(k=k)
        params = M.init_params(c, seed=3)
        batch = M.batch_graphs([(encode(e.cfg, vocab), e.cfg) for e in data])
        labels = np.array([e.label for e in data], dtype=np.float64)

        def forward_and_gradients():
            tape = T.Tape()
            pt = {n: tape.tensor(v) for n, v in params.items()}
            logits = M.forward_batch(pt, batch, c)
            return logits.data, T.gradients(M.bce_logits(logits, labels), list(pt.values()))

        logits, grads = forward_and_gradients()
        shared = T.message_step
        monkeypatch.setattr(
            T, "message_step", lambda h, e, *w: shared(h, kernels.Edges(e.src, e.dst, e.width), *w)
        )
        per_step_logits, per_step_grads = forward_and_gradients()
        assert logits.tobytes() == per_step_logits.tobytes()
        for name, a, b in zip(params, grads, per_step_grads):
            assert a.tobytes() == b.tobytes(), name


class TestLoss:
    def test_half_probability_gives_ln2(self):
        logits = T.Tensor([[0.0], [0.0]])
        labels = np.array([[1.0], [0.0]])
        assert M.bce_logits(logits, labels).item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_perfect_prediction_near_zero(self):
        logits = T.Tensor([[40.0], [-40.0]])
        labels = np.array([[1.0], [0.0]])
        assert M.bce_logits(logits, labels).item() < 1e-15

    def test_bce_logits_matches_bce_in_safe_range(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((6, 1)) * 3
        labels = rng.integers(0, 2, (6, 1)).astype(np.float64)
        a = M.bce_logits(T.Tensor(logits), labels).item()
        p = 1.0 / (1.0 + np.exp(-logits))
        b = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
        assert a == pytest.approx(b, rel=1e-10)

    def test_decoupled_decay_shrinks_weights_not_biases(self):
        # with zero gradients the Adam moments stay zero, so the whole
        # update is the decoupled decay lr * wd * w, applied to weights only
        params = M.init_params(tiny_config(), seed=0)
        params = M.FlatParams.of({n: v + 0.5 for n, v in params.items()})
        before = {n: v.copy() for n, v in params.items()}
        lr, wd = 0.1, 0.5
        opt = M.Adam(params, lr=lr, weight_decay=wd)
        opt.step(params, params.like())
        for n, v in params.items():
            if n.endswith("_w"):
                np.testing.assert_allclose(v, before[n] - lr * wd * before[n], rtol=1e-12)
            else:
                np.testing.assert_array_equal(v, before[n])

    def test_in_place_step_bit_identical_to_reference(self):
        # the step as plain expressions, each a fresh array
        def reference(params, m, v, grads, t, lr, wd):
            b1, b2, eps = M.Adam.beta1, M.Adam.beta2, M.Adam.eps
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n, g in grads.items():
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                update = (m[n] / bc1) / (np.sqrt(v[n] / bc2) + eps)
                if n.endswith("_w"):
                    update = update + wd * params[n]
                params[n] = params[n] - lr * update

        rng = np.random.default_rng(3)
        params = M.FlatParams.of(M.init_params(tiny_config(), seed=1))
        ref = {n: p.copy() for n, p in params.items()}
        m = {n: np.zeros_like(p) for n, p in params.items()}
        v = {n: np.zeros_like(p) for n, p in params.items()}
        opt = M.Adam(params, lr=0.01, weight_decay=0.1)
        for t in range(1, 4):
            grads = {n: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-3, 3) for n, p in params.items()}
            opt.step(params, M.FlatParams.of(grads))
            reference(ref, m, v, grads, t, 0.01, 0.1)
            for n in params:
                assert np.array_equal(params[n], ref[n]) and np.array_equal(opt.m[n], m[n]), (t, n)
                assert np.array_equal(opt.v[n], v[n]), (t, n)


class TestEndToEndGradient:
    def test_four_node_graph_gradient_check(self):
        c = tiny_config(k=2, hidden=4, steps=2, output_layers=2)
        params = M.init_params(c, seed=11)
        # move zero-initialized biases off the relu kink, where central
        # differences disagree with the one-sided analytic derivative
        jitter = np.random.default_rng(11)
        for name in params:
            params[name] = params[name] + 0.05 * jitter.standard_normal(params[name].shape)
        rng = random.Random(12)
        cfg = random_cfg(rng, max_nodes=4, max_vars=2)
        x = random_slots(np.random.default_rng(12), len(cfg.nodes), c.k)
        batch = M.batch_graphs([(x, cfg)])
        labels = np.array([[1.0]])

        tape = T.Tape()
        pt = {k: tape.tensor(v) for k, v in params.items()}
        analytic = T.gradients(
            M.bce_logits(M.forward_batch(pt, batch, c), labels), list(pt.values())
        )

        for name, grad in zip(pt.keys(), analytic):
            def f(arr, name=name):
                trial = {k: T.Tensor(v if k != name else arr) for k, v in params.items()}
                return M.bce_logits(M.forward_batch(trial, batch, c), labels).item()

            fd = T.numeric_gradient(f, params[name].copy(), h=1e-6)
            err = T.relative_error(grad, fd)
            assert err < 1e-5, f"{name}: relative error {err:.3e}"


def small_training_setup(seed=0):
    data = synth_generate(60, seed=seed)
    train = [(ex.cfg, ex.label) for ex in undersample(data[:40], seed=seed)]
    valid = [(ex.cfg, ex.label) for ex in data[40:]]
    vocab = build_vocabulary([cfg for cfg, _ in train], k=5)
    return train, valid, vocab


def per_gate_forward(pt, batch, config):
    """forward_batch with per-gate message steps (conftest.per_gate_step)."""
    h = T.project(batch.features, pt["proj_w"], pt["proj_b"])
    edges = kernels.Edges(batch.src, batch.dst, h.shape[1])
    for _ in range(config.steps):
        h = per_gate_step(h, edges, *[pt[name] for name in M.STEP_PARAMS])
    y = T.readout(h, pt["att_gate_w"], pt["att_gate_b"], pt["att_feat_w"], pt["att_feat_b"],
                  batch.seg, batch.num_graphs)
    for i in range(config.output_layers):
        y = T.matmul(y, pt[f"cls{i}_w"], bias=pt[f"cls{i}_b"])
        if i < config.output_layers - 1:
            y = T.relu(y)
    return y


def reference_training(config, train_set, valid_set, vocab, seed, epochs, patience):
    """train_model spelled out with a separate array per param, per-gate
    message steps and one Adam step per param, each as plain expressions."""
    mask = config.mask_dict()
    train_graphs = [(encode(cfg, vocab, mask), cfg) for cfg, _ in train_set]
    train_labels = np.array([lbl for _, lbl in train_set], dtype=np.float64)
    valid_graphs = [(encode(cfg, vocab, mask), cfg) for cfg, _ in valid_set]
    params = M.init_params(config, seed)
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    b1, b2, eps, lr, wd = M.Adam.beta1, M.Adam.beta2, M.Adam.eps, config.learning_rate, config.l2_weight
    rng = np.random.default_rng(seed)
    order = np.arange(len(train_set))
    best_f1, best_epoch, best = -1.0, 0, {n: p.copy() for n, p in params.items()}
    losses, since_best, t = [], 0, 0
    for epoch in range(1, epochs + 1):
        rng.shuffle(order)
        total, steps = 0.0, 0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo : lo + config.batch_size]
            tape = T.Tape()
            pt = {n: tape.tensor(p) for n, p in params.items()}
            obj = M.bce_logits(per_gate_forward(pt, M.batch_graphs([train_graphs[i] for i in idx]), config),
                               train_labels[idx].reshape(-1, 1))
            t += 1
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n, g in zip(pt, T.gradients(obj, list(pt.values()))):
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                update = (m[n] / bc1) / (np.sqrt(v[n] / bc2) + eps)
                if n.endswith("_w"):
                    update = update + wd * params[n]
                params[n] = params[n] - lr * update
            total += obj.item()
            steps += 1
        wrapped = {n: T.Tensor(p) for n, p in params.items()}
        probs = np.concatenate([
            T.sigmoid(per_gate_forward(wrapped, M.batch_graphs(valid_graphs[lo : lo + config.batch_size]),
                                       config)).data[:, 0]
            for lo in range(0, len(valid_graphs), config.batch_size)
        ])
        f1 = compute_metrics(probs.tolist(), [lbl for _, lbl in valid_set]).f1
        losses.append((total / steps, f1))
        if f1 > best_f1:
            best_f1, best_epoch, best = f1, epoch, {n: p.copy() for n, p in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    return best, best_epoch, losses


class TestTrainingBitIdentical:
    """train_model, with its flat parameter store, whole-buffer Adam steps
    and stacked update and reset gates, against reference_training."""

    @pytest.mark.parametrize("config, epochs, patience", [
        (dict(k=5, hidden=8, steps=2, output_layers=2, batch_size=8), 4, 10),
        (dict(k=7, hidden=1, steps=3, output_layers=1, batch_size=16, learning_rate=0.05, l2_weight=0.1), 6, 2),
    ])
    def test_params_best_epoch_and_losses(self, config, epochs, patience):
        train, valid, vocab = small_training_setup()
        vocab = build_vocabulary([cfg for cfg, _ in train], k=config["k"])
        c = M.ModelConfig(**config)
        params, best_epoch, history = M.train_model(c, train, valid, vocab, seed=3, epochs=epochs, patience=patience)
        ref_params, ref_epoch, ref_losses = reference_training(c, train, valid, vocab, 3, epochs, patience)
        assert best_epoch == ref_epoch
        assert [(e.train_loss, e.valid_f1) for e in history] == ref_losses
        assert list(params) == list(ref_params)
        for n in params:
            assert params[n].tobytes() == ref_params[n].tobytes(), n


class TestFlatParams:
    def test_named_views_with_the_weights_first(self):
        shapes = M.param_shapes(tiny_config())
        store = M.FlatParams(shapes)
        assert list(store) == list(shapes)
        weights = sum(np.prod(shape) for n, shape in shapes.items() if n.endswith("_w"))
        assert store.decayed == weights and store.flat.size == sum(np.prod(s) for s in shapes.values())
        for n, shape in shapes.items():
            view = store[n]
            assert view.shape == shape and np.shares_memory(view, store.flat)
            offset = (view.__array_interface__["data"][0] - store.flat.__array_interface__["data"][0]) // 8
            assert (offset + view.size <= weights) == n.endswith("_w"), n
        copy = M.FlatParams.of({n: np.full(shape, i, dtype=np.float64) for i, (n, shape) in enumerate(shapes.items())})
        assert all((copy[n] == i).all() for i, n in enumerate(shapes))
        assert not copy.like().flat.any() and list(copy.like()) == list(shapes)


class TestTraining:
    def test_training_is_deterministic(self):
        train, valid, vocab = small_training_setup()
        c = tiny_config(k=5, hidden=8, steps=2, batch_size=8)
        r1 = M.train_model(c, train, valid, vocab, seed=1, epochs=3)
        r2 = M.train_model(c, train, valid, vocab, seed=1, epochs=3)
        assert r1[1] == r2[1]
        for k in r1[0]:
            assert np.array_equal(r1[0][k], r2[0][k])
        assert [e.train_loss for e in r1[2]] == [e.train_loss for e in r2[2]]

    def test_at_most_two_step_tapes_hold_records(self, monkeypatch):
        # With the collector off, a tape that still holds records stays live
        # until train_model clears it; count those at every backward.
        train, valid, vocab = small_training_setup()
        c = tiny_config(k=5, batch_size=8)
        expected, _, _ = M.train_model(c, train, valid, vocab, seed=1, epochs=2)
        tapes, live_counts = [], []

        def holding():
            return sum(1 for ref in tapes if ref() is not None and ref()._ops)

        def counting_gradients(loss, params, out=None, original=T.gradients):
            tapes.append(weakref.ref(loss.tape))
            live_counts.append(holding())
            grads = original(loss, params, out)
            live_counts.append(holding())
            return grads

        monkeypatch.setattr(T, "gradients", counting_gradients)
        enabled = gc.isenabled()
        gc.disable()
        try:
            params, _, _ = M.train_model(c, train, valid, vocab, seed=1, epochs=2)
            assert len(tapes) > 2
            assert max(live_counts) <= 2
            assert holding() == 0
        finally:
            if enabled:
                gc.enable()
        for name in expected:
            assert np.array_equal(params[name], expected[name])

    def test_validation_sees_every_adam_step(self, monkeypatch):
        # validation wraps params once per run; Adam's in-place updates must
        # reach it, so every validation forward reads the current params
        train, valid, vocab = small_training_setup()
        c = tiny_config(k=5, batch_size=8)
        current, checked = {}, []

        def step(self, params, grads, original=M.Adam.step):
            current.update(params)
            original(self, params, grads)

        def validate(pt, graphs, config, original=M._infer):
            checked.append(all(np.array_equal(pt[n].data, current[n]) for n in current))
            return original(pt, graphs, config)

        monkeypatch.setattr(M.Adam, "step", step)
        monkeypatch.setattr(M, "_infer", validate)
        M.train_model(c, train, valid, vocab, seed=1, epochs=3, patience=3)
        assert checked == [True] * 3

    def test_empty_training_set_rejected(self):
        _, valid, vocab = small_training_setup()
        with pytest.raises(ValueError, match=r"^empty training split$"):
            M.train_model(tiny_config(k=5), [], valid, vocab, seed=1, epochs=1)

    def test_vocabulary_k_mismatch_rejected_before_encoding(self, monkeypatch):
        # a vocabulary's columns run past a config's smaller k, which would
        # otherwise surface as a slot error at the first training step
        train, valid, vocab = small_training_setup()
        encoded = []
        monkeypatch.setattr(M, "encode", lambda *a: encoded.append(a))
        with pytest.raises(ValueError, match=r"^vocabulary k=5 does not match config k=2$"):
            M.train_model(tiny_config(k=2), train, valid, vocab, seed=1, epochs=1)
        assert encoded == []

    def test_checkpoint_roundtrip(self, tmp_path):
        train, valid, vocab = small_training_setup()
        c = tiny_config(k=5, hidden=8, steps=2, batch_size=8)
        params, best_epoch, _ = M.train_model(c, train, valid, vocab, seed=2, epochs=2)

        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(vocab.to_json())
        ckpt_path = tmp_path / "model.json"
        M.save_checkpoint(str(ckpt_path), params, c, str(vocab_path), best_epoch)
        ckpt = M.load_checkpoint(str(ckpt_path))

        assert ckpt.config == c
        assert ckpt.best_epoch == best_epoch
        assert ckpt.vocab.ranks == vocab.ranks
        for k in params:
            np.testing.assert_array_equal(params[k], ckpt.params[k])
        cfg = valid[0][0]
        features = encode(cfg, vocab, c.mask_dict())
        (direct,) = M.infer(params, [(features, cfg)], c)
        assert M.predict(ckpt, cfg) == pytest.approx(direct, abs=1e-15)
        cfgs = [cfg for cfg, _ in valid]
        graphs = [(encode(cfg, vocab, c.mask_dict()), cfg) for cfg in cfgs]
        assert np.array_equal(M.predict_many(ckpt, cfgs), M.infer(params, graphs, c))

    def test_checkpoint_bytes_are_one_shot_json(self, tmp_path):
        c = tiny_config()
        params = M.init_params(c, seed=4)
        path = tmp_path / "model.json"
        M.save_checkpoint(str(path), params, c, "vocab.json", 3)
        doc = {
            "version": 1,
            "config": dataclasses.asdict(c),
            "vocab_path": "vocab.json",
            "params": {n: {"shape": list(v.shape), "data": v.ravel().tolist()} for n, v in params.items()},
            "best_epoch": 3,
        }
        streamed = io.StringIO()
        json.dump(doc, streamed)
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode() == (streamed.getvalue() + "\n").encode()

    def test_predict_wraps_params_once_per_checkpoint(self, monkeypatch):
        data = synth_generate(6, seed=5)
        c = tiny_config()
        params = M.init_params(c, seed=0)
        ckpt = M.Checkpoint(params, c, build_vocabulary([e.cfg for e in data], k=c.k), best_epoch=0)
        assert all(ckpt.tensors[n].data is params[n] for n in params)
        wrapped = []
        monkeypatch.setattr(M, "_as_tensors", lambda *a: wrapped.append(a))
        probs = [M.predict(ckpt, e.cfg) for e in data]
        assert not wrapped
        assert probs == M.predict_many(ckpt, [e.cfg for e in data]).tolist()

    @pytest.mark.parametrize("vocab_k", [3, 9])
    def test_a_built_checkpoint_rejects_a_vocabulary_of_another_k(self, vocab_k):
        # a smaller k shifts every hot column of proj_w, a larger one runs
        # past it: either is refused when the checkpoint is built, not at predict
        data = synth_generate(6, seed=5)
        c = tiny_config(k=5)
        vocab = build_vocabulary([e.cfg for e in data], k=vocab_k)
        with pytest.raises(ValueError, match=rf"^vocabulary k={vocab_k} does not match config k=5$"):
            M.Checkpoint(M.init_params(c, seed=0), c, vocab, best_epoch=0)

    def test_bad_checkpoint_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            M.load_checkpoint(str(path))

    def test_feature_width_mismatch_rejected(self):
        c = tiny_config(k=3)
        params = M.init_params(c, seed=0)
        (_, cfg), = random_graphs(c, seed=10, n_graphs=1)
        x = np.zeros((len(cfg.nodes), 4), dtype=np.int64)
        x[0, 0] = c.feature_width
        with pytest.raises(ValueError, match="feature width"):
            M.infer(params, [(x, cfg)], c)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.zeros((n, 5), dtype=np.int64),
            lambda n: np.zeros((n, 4)),
            lambda n: np.full((n, 4), -2, dtype=np.int64),
        ],
        ids=["five-columns", "float", "below-minus-one"],
    )
    def test_malformed_slot_features_rejected(self, make):
        c = tiny_config(k=3)
        params = M.init_params(c, seed=0)
        (_, cfg), = random_graphs(c, seed=10, n_graphs=1)
        with pytest.raises(ValueError, match="feature width"):
            M.infer(params, [(make(len(cfg.nodes)), cfg)], c)

    def test_adam_converges_on_quadratic(self):
        params = M.FlatParams.of({"w_w": np.array([[4.0]])})
        opt = M.Adam(params, lr=0.1, weight_decay=0.0)
        for _ in range(300):
            opt.step(params, M.FlatParams.of({"w_w": 2.0 * params["w_w"]}))
        assert abs(params["w_w"][0, 0]) < 1e-2

    def test_classify_threshold(self):
        assert M.classify(0.5) == 1
        assert M.classify(0.49) == 0
