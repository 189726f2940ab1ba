import hashlib
import json
import random

import pytest

from conftest import brute_gen_kill, naive_solve, null_dereference_core, pairwise_label, random_cfg, with_nulls_and_derefs
from defreach import harness
from defreach.cfg import dump_cfg
from defreach.dataflow import analyze
from defreach.harness import (
    TEMPLATES,
    GenerationError,
    compute_metrics,
    f1_from_pr,
    load_dataset,
    oracle_label,
    save_dataset,
    split,
    synth_generate,
    undersample,
)
from defreach.parser import parse_function


def brute_confusion(probs, labels, threshold=0.5):
    tp = fp = tn = fn = 0
    for p, y in zip(probs, labels):
        pred = 1 if p >= threshold else 0
        if pred and y:
            tp += 1
        elif pred and not y:
            fp += 1
        elif not pred and not y:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


class TestGeneration:
    def test_class_counts_honor_fraction(self):
        data = synth_generate(10, seed=0, vulnerable_fraction=0.5)
        assert len(data) == 10
        assert sum(e.label for e in data) == 5

    def test_all_vulnerable_and_all_safe(self):
        assert all(e.label == 1 for e in synth_generate(8, seed=1, vulnerable_fraction=1.0))
        assert all(e.label == 0 for e in synth_generate(8, seed=2, vulnerable_fraction=0.0))

    def test_deterministic_per_seed(self):
        a = synth_generate(12, seed=5)
        b = synth_generate(12, seed=5)
        assert [(e.id, e.project, e.source, e.label) for e in a] == [
            (e.id, e.project, e.source, e.label) for e in b
        ]

    def test_corpus_and_its_graphs_are_pinned(self):
        # The acceptance gate trains on this generator: a change to the corpus
        # or to the graphs parsed from it must update these digests on purpose.
        corpus, graphs = hashlib.sha256(), hashlib.sha256()
        for e in synth_generate(200, seed=0):
            for part in (e.id, e.project, str(e.label), e.source):
                corpus.update(part.encode() + b"\0")
            graphs.update(dump_cfg(parse_function(e.source)).encode())
        assert corpus.hexdigest() == "a4a5120235d68cc65dbead28a40a783df959fb0aca68ceefca6b238d9379d964"
        assert graphs.hexdigest() == "54a43f05ea864cb74a2029e766082330c9b189c4b07212e9aa00a950c934a99c"

    def test_projects_drawn_from_template_families(self):
        data = synth_generate(200, seed=3)
        assert {e.project for e in data} <= set(TEMPLATES)
        assert len({e.project for e in data}) >= 5

    def test_sources_parse_back_to_stored_graphs(self):
        for e in synth_generate(30, seed=4):
            assert parse_function(e.source).structurally_equal(e.cfg)

    def test_labels_match_oracle(self):
        for e in synth_generate(50, seed=6):
            assert oracle_label(e.cfg) == e.label

    def test_mislabelling_core_raises_generation_error(self, monkeypatch):
        monkeypatch.setattr(harness, "_CORE_SHAPES", (null_dereference_core,))
        with pytest.raises(GenerationError) as caught:
            synth_generate(3, seed=0, vulnerable_fraction=0.0)
        assert str(caught.value).splitlines()[0] == "template audio produced label vulnerable, wanted safe:"

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(0, seed=0)
        with pytest.raises(ValueError):
            synth_generate(5, seed=0, vulnerable_fraction=1.5)


class TestOracle:
    def test_vulnerable_means_null_def_reaches_deref(self):
        # the label from the per-variable masks equals the pair-by-pair
        # reference: a NULL-constant definition of a variable in IN of a
        # deref-use node of that same variable
        for seed in range(5):
            for e in synth_generate(770, seed=seed):
                _, state = analyze(e.cfg)
                assert oracle_label(e.cfg) == e.label == pairwise_label(e.cfg, lambda d, v: state.inb[v] >> d & 1)

    def test_label_equals_pairwise_reference_on_random_graphs(self):
        rng = random.Random(11)
        labels = []
        for _ in range(300):
            cfg = with_nulls_and_derefs(rng, random_cfg(rng))
            _, gen, kill = brute_gen_kill(cfg)
            inb, _ = naive_solve(cfg, gen, kill)
            labels.append(oracle_label(cfg))
            assert labels[-1] == pairwise_label(cfg, lambda d, v: d in inb[v])
        assert 0 < sum(labels) < len(labels)

    def test_guarded_deref_is_safe(self):
        src = (
            "int f(int n) {\n"
            "  char *p = NULL;\n"
            "  p = malloc(n);\n"
            "  *p;\n"
            "  return 0;\n"
            "}\n"
        )
        assert oracle_label(parse_function(src)) == 0

    def test_unguarded_deref_is_vulnerable(self):
        src = "int f(int n) {\n  char *p = NULL;\n  *p;\n  return 0;\n}\n"
        assert oracle_label(parse_function(src)) == 1


class TestSplits:
    def test_mixed_sizes_800_100_100(self):
        data = synth_generate(1000, seed=8)
        train, valid, test = split(data, "mixed", (0.8, 0.1, 0.1), seed=0)
        assert (len(train), len(valid), len(test)) == (800, 100, 100)
        ids = [e.id for e in train + valid + test]
        assert sorted(ids) == sorted(e.id for e in data)
        assert len(set(ids)) == 1000

    def test_cross_project_disjoint(self):
        data = synth_generate(400, seed=9)
        train, valid, test = split(data, "cross", (0.8, 0.1, 0.1), seed=1)
        train_projects = {e.project for e in train}
        held_projects = {e.project for e in valid + test}
        assert train_projects
        assert held_projects
        assert not train_projects & held_projects

    def test_unknown_regime_rejected(self):
        data = synth_generate(10, seed=10)
        with pytest.raises(ValueError, match="regime"):
            split(data, "stratified", (0.8, 0.1, 0.1), seed=0)
        with pytest.raises(ValueError, match="sum to 1"):
            split(data, "mixed", (0.5, 0.1, 0.1), seed=0)


    def test_cross_regime_needs_a_project_to_hold_out(self):
        data = synth_generate(20, seed=10)
        one = [e for e in data if e.project == data[0].project]
        with pytest.raises(ValueError, match=r"^cross regime needs >= 2 projects, found 1$"):
            split(one, "cross", (0.8, 0.1, 0.1), seed=0)
        with pytest.raises(ValueError, match=r"^cross regime could not hold out any project$"):
            split(data, "cross", (1.0, 0.0, 0.0), seed=0)


class TestUndersample:
    def test_balances_to_minority_count(self):
        data = synth_generate(100, seed=12, vulnerable_fraction=0.3)
        balanced = undersample(data, seed=0)
        pos = sum(e.label for e in balanced)
        assert pos == len(balanced) - pos == 30

    def test_keeps_all_minority_examples(self):
        data = synth_generate(60, seed=13, vulnerable_fraction=0.25)
        minority_ids = {e.id for e in data if e.label == 1}
        balanced_ids = {e.id for e in undersample(data, seed=0)}
        assert minority_ids <= balanced_ids

    def test_deterministic(self):
        data = synth_generate(50, seed=14, vulnerable_fraction=0.3)
        assert [e.id for e in undersample(data, seed=7)] == [
            e.id for e in undersample(data, seed=7)
        ]

    def test_single_class_rejected(self):
        data = synth_generate(10, seed=15, vulnerable_fraction=1.0)
        with pytest.raises(ValueError):
            undersample(data, seed=0)


class TestMetrics:
    def test_published_precision_recall_pair(self):
        # harmonic mean of P=0.5398 and R=0.9281
        assert f1_from_pr(0.5398, 0.9281) == pytest.approx(0.6826, abs=5e-4)

    def test_all_correct(self):
        m = compute_metrics([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0])
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 0, 2, 0)
        assert m.precision == m.recall == m.f1 == 1.0
        assert not m.degenerate

    def test_all_negative_predictions_use_zero_convention(self):
        m = compute_metrics([0.1, 0.2], [1, 0])
        assert m.precision == m.recall == m.f1 == 0.0
        assert m.degenerate

    def test_confusion_against_brute_force(self):
        rng = random.Random(16)
        for _ in range(20):
            n = rng.randrange(1, 30)
            probs = [rng.random() for _ in range(n)]
            labels = [rng.randrange(2) for _ in range(n)]
            m = compute_metrics(probs, labels)
            assert (m.tp, m.fp, m.tn, m.fn) == brute_confusion(probs, labels)

    def test_length_mismatch_and_empty_input_rejected(self):
        with pytest.raises(ValueError, match=r"^length mismatch: 1 predictions, 2 labels$"):
            compute_metrics([0.5], [1, 0])
        with pytest.raises(ValueError, match=r"^empty input$"):
            compute_metrics([], [])

    def test_threshold_is_inclusive(self):
        m = compute_metrics([0.5], [1])
        assert m.tp == 1

    def test_report_lists_the_fields_in_order_without_degenerate(self):
        report = compute_metrics([0.9, 0.1, 0.8, 0.2], [1, 0, 0, 1]).to_dict()
        assert list(report.items()) == [
            ("precision", 0.5), ("recall", 0.5), ("f1", 0.5), ("tp", 1), ("fp", 1), ("tn", 1), ("fn", 1)
        ]


class TestDatasetFormat:
    def test_save_load_roundtrip(self, tmp_path):
        data = synth_generate(12, seed=17)
        save_dataset(data, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        assert [(e.id, e.project, e.label, e.source) for e in loaded] == [
            (e.id, e.project, e.label, e.source) for e in data
        ]
        for a, b in zip(loaded, data):
            assert a.cfg.structurally_equal(b.cfg)

    def test_manifest_naming_sources_loads_the_graphs_of_their_documents(self, tmp_path):
        save_dataset(synth_generate(6, seed=19), str(tmp_path))
        from_documents = load_dataset(str(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for rec in manifest["examples"]:
            assert rec["path"] == rec["id"] + ".json"
            rec["path"] = rec["id"] + ".c"
        manifest_path.write_text(json.dumps(manifest))
        from_sources = load_dataset(str(tmp_path))
        assert [dump_cfg(e.cfg) for e in from_sources] == [dump_cfg(e.cfg) for e in from_documents]

    def test_tampered_label_fails_revalidation(self, tmp_path):
        data = synth_generate(6, seed=18)
        save_dataset(data, str(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        rec = manifest["examples"][0]
        rec["label"] = "safe" if rec["label"] == "vulnerable" else "vulnerable"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="re-validation"):
            load_dataset(str(tmp_path))
