import gc
import random
import weakref

import numpy as np
import pytest

from conftest import random_cfg, random_slots
from defreach import model as M
from defreach import tensor as T
from defreach.embedding import build_vocabulary, encode
from defreach.harness import synth_generate, undersample


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
            edges=[(cfg.entry, cfg.exit)],
            entry=cfg.entry,
            exit=cfg.exit,
        )
        (p_full,) = M.infer(params, [(x, cfg)], c)
        (p_pruned,) = M.infer(params, [(x, pruned)], c)
        assert p_full == p_pruned


class TestTapeRecords:
    @pytest.mark.parametrize("steps, layers", [(0, 1), (1, 1), (2, 3), (5, 3)])
    def test_records_per_forward_and_loss(self, steps, layers):
        # projection 3 (embed_sum, bias, relu); per message step 4 (edge sum,
        # aggregate matmul, relu, gru); readout 6; per classifier layer a
        # matmul and, but for the last, a relu; the loss 6
        c = tiny_config(steps=steps, output_layers=layers)
        params = M.init_params(c, seed=0)
        graphs = random_graphs(c, seed=9, n_graphs=3)
        tape = T.Tape()
        pt = {k: tape.tensor(v) for k, v in params.items()}
        M.bce_logits(M.forward_batch(pt, M.batch_graphs(graphs), c), np.array([1.0, 0.0, 1.0]))
        assert len(tape._ops) == 3 + 4 * steps + 6 + (2 * layers - 1) + 6


class TestBatch:
    def test_features_stay_slot_indices_at_k1000(self):
        # 4 int64 slots per node, not a 4008-column float64 one-hot row
        data = synth_generate(40, seed=3)
        vocab = build_vocabulary([e.cfg for e in data], k=1000)
        batch = M.batch_graphs([(encode(e.cfg, vocab), e.cfg) for e in data])
        nodes = sum(len(e.cfg.nodes) for e in data)
        assert batch.features.shape == (nodes, 4)
        assert batch.features.nbytes <= 32 * nodes


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
        params = {n: v + 0.5 for n, v in params.items()}
        before = {n: v.copy() for n, v in params.items()}
        lr, wd = 0.1, 0.5
        opt = M.Adam(params, lr=lr, weight_decay=wd)
        opt.step(params, {n: np.zeros_like(v) for n, v in params.items()})
        for n, v in params.items():
            if n.endswith("_w"):
                np.testing.assert_allclose(v, before[n] - lr * wd * before[n], rtol=1e-12)
            else:
                np.testing.assert_array_equal(v, before[n])


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

        def counting_gradients(loss, params, original=T.gradients):
            tapes.append(weakref.ref(loss.tape))
            live_counts.append(holding())
            grads = original(loss, params)
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
        params = {"w_w": np.array([[4.0]])}
        opt = M.Adam(params, lr=0.1, weight_decay=0.0)
        for _ in range(300):
            opt.step(params, {"w_w": 2.0 * params["w_w"]})
        assert abs(params["w_w"][0, 0]) < 1e-2

    def test_classify_threshold(self):
        assert M.classify(0.5) == 1
        assert M.classify(0.49) == 0
