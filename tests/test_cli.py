import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

import defreach
from conftest import FIG1_SRC, null_dereference_core
from defreach import cli, dataflow, harness, model
from defreach.cli import main
from defreach.embedding import Vocabulary, build_vocabulary
from defreach.model import ModelConfig, init_params, save_checkpoint


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.c"
    path.write_text(FIG1_SRC)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseAndDfa:
    def test_parse_emits_valid_graph_document(self, fig1_file, capsys):
        code, out, _ = run(capsys, "parse", fig1_file)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["nodes"]) == 6
        assert sorted(tuple(e) for e in doc["edges"]) == [
            [0, 1], [1, 2], [2, 3], [2, 4], [3, 4], [4, 5]
        ] or sorted(map(tuple, doc["edges"])) == [
            (0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)
        ]

    def test_parse_accepts_graph_json_input(self, fig1_file, tmp_path, capsys):
        code, out, _ = run(capsys, "parse", fig1_file)
        json_path = tmp_path / "fig1.json"
        json_path.write_text(out)
        code2, out2, _ = run(capsys, "parse", json_path)
        assert code2 == 0 and out2 == out

    def test_dfa_solve_report(self, fig1_file, capsys):
        code, out, _ = run(capsys, "dfa", fig1_file)
        assert code == 0
        doc = json.loads(out)
        assert [d["variable"] for d in doc["definitions"]] == ["str", "str"]
        by_id = {int(n["id"]): n for n in doc["nodes"]}
        assert by_id[4]["in"] == "11"  # both definitions of str reach the deref

    def test_dfa_trace_reproduces_sync_rounds(self, fig1_file, capsys):
        code, out, _ = run(capsys, "dfa", fig1_file, "--trace", "3", "--deref-defines")
        assert code == 0
        doc = json.loads(out)
        rounds = [[snap[str(v)] for v in (1, 2, 3, 4)] for snap in doc["trace"]]
        assert rounds == [
            ["000", "000", "000", "000"],
            ["100", "000", "010", "001"],
            ["100", "100", "010", "011"],
            ["100", "100", "010", "111"],
        ]

    @pytest.mark.parametrize("rounds", [None, 0, 3])
    def test_dfa_trace_text_is_the_whole_report_dumped(self, fig1_file, tmp_path, capsys, rounds):
        # the nodes or rounds are written one at a time; the text must still
        # be json.dumps of the whole report, as when it was built in memory
        # (rounds None is solve mode, without --trace)
        cfg = harness.read_cfg(str(fig1_file))
        table, state = dataflow.compute_gen_kill(cfg, deref_defines=True)
        report = {
            "function": cfg.function,
            "definitions": [{"id": d.def_id, "node": d.node, "variable": d.variable} for d in table],
        }

        def bits(x):
            return dataflow.bit_string(x, len(table))

        if rounds is None:
            dataflow.solve(cfg, state)
            report["nodes"] = [{"id": v, "in": bits(state.inb[v]), "out": bits(state.out[v])}
                               for v in range(len(cfg.nodes))]
            argv = ["dfa", fig1_file, "--deref-defines"]
        else:
            report["trace"] = [{str(v): bits(snap[v]) for v in range(len(cfg.nodes))}
                               for snap in dataflow.trace(cfg, state, rounds)]
            argv = ["dfa", fig1_file, "--trace", rounds, "--deref-defines"]
        expected = json.dumps(report, indent=2) + "\n"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == expected
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, *argv, "-o", path)
        assert code == 0 and out == "" and path.read_text() == expected


class TestLargeInputs:
    """Sizes past the depth where a recursive depth-first search overflows."""

    def test_1200_statement_straight_line(self, tmp_path, capsys):
        src = tmp_path / "long.c"
        src.write_text("void f(int n) {\n" + "".join(f"  n = n + {i};\n" for i in range(1200)) + "}\n")
        code, out, err = run(capsys, "dfa", src)
        assert code == 0, err
        nodes = json.loads(out)["nodes"]
        assert nodes[-1]["in"] == "0" * 1199 + "1"  # each definition of n kills the one before

    def test_5000_statement_straight_line(self, tmp_path, capsys):
        src = tmp_path / "longer.c"
        src.write_text("void f(int n) {\n  char *p = NULL;\n" + "  p[n];\n" * 4999 + "}\n")
        code, out, err = run(capsys, "dfa", src)
        assert code == 0, err
        nodes = json.loads(out)["nodes"]
        assert len(nodes) == 5002 and nodes[-1]["in"] == "1"

    def test_900_sequential_ifs(self, tmp_path, capsys):
        src = tmp_path / "ifs.c"
        body = "".join(f"  if (n > {i}) {{ n = n - 1; }}\n" for i in range(900))
        src.write_text("void f(int n) {\n" + body + "}\n")
        code, out, err = run(capsys, "dfa", src)
        assert code == 0, err
        assert json.loads(out)["nodes"][-1]["in"] == "1" * 900  # every if may be skipped


class TestPipeline:
    def test_synth_split_train_eval_predict(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        code, out, _ = run(capsys, "synth", "--n", "40", "--seed", "0", "-o", data_dir)
        assert code == 0 and "40 examples" in out

        split_path = tmp_path / "split.json"
        code, _, _ = run(capsys, "split", "--data", data_dir, "--seed", "0",
                         "-o", split_path)
        assert code == 0
        doc = json.loads(split_path.read_text())
        assert len(doc["train"]) + len(doc["valid"]) + len(doc["test"]) == 40

        ckpt = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "train", "--data", data_dir, "--split", split_path,
            "--epochs", "2", "--batch-size", "8", "--k", "5", "--steps", "2",
            "--hidden", "8", "-o", ckpt,
        )
        assert code == 0 and "saved checkpoint" in out
        assert ckpt.exists() and (tmp_path / "model.json.vocab.json").exists()

        report_path = tmp_path / "metrics.json"
        code, _, _ = run(capsys, "eval", "--ckpt", ckpt, "--data", data_dir,
                         "--split", split_path, "--timing", "-o", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert {"precision", "recall", "f1", "ms_per_example"} <= report.keys()

        sources = sorted(data_dir.glob("*.c"))[:3]
        singles = []
        for src in sources:
            code, out, _ = run(capsys, "predict", src, "--ckpt", ckpt)
            assert code == 0
            singles.append(json.loads(out))
        for verdict in singles:
            assert 0.0 < verdict["probability"] < 1.0
            assert verdict["classification"] in ("safe", "vulnerable")

        # one checkpoint load and one batched infer: a line per file, in argument order
        code, out, _ = run(capsys, "predict", *sources, "--ckpt", ckpt)
        assert code == 0
        verdicts = [json.loads(line) for line in out.splitlines()]
        assert [v["classification"] for v in verdicts] == [v["classification"] for v in singles]
        assert [v["probability"] for v in verdicts] == pytest.approx(
            [v["probability"] for v in singles], abs=1e-12
        )

    def test_train_and_split_defaults_have_one_home(self, tmp_path, capsys, monkeypatch):
        # train without model options builds ModelConfig(), and split's default
        # fractions are those train and eval split by without --split
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "10", "--seed", "2", "-o", data_dir)
        configs, fractions = [], []

        def train_model(config, *args, **kwargs):
            configs.append(config)
            raise ValueError("stop before training")

        monkeypatch.setattr(model, "train_model", train_model)
        assert run(capsys, "train", "--data", data_dir, "-o", tmp_path / "m.json")[0] == 2
        assert [(f.name, getattr(configs[0], f.name)) for f in dataclasses.fields(ModelConfig)] == [
            (f.name, getattr(ModelConfig(), f.name)) for f in dataclasses.fields(ModelConfig)
        ]

        def split(dataset, regime, parts, seed):
            fractions.append(parts)
            return [], [], []

        monkeypatch.setattr(harness, "split", split)
        assert run(capsys, "split", "--data", data_dir)[0] == 0
        cli._apply_split(harness.load_dataset(data_dir), None, 0)
        assert fractions[0] == fractions[1] and len(fractions) == 2

    def test_predict_after_moving_run_directory(self, tmp_path, fig1_file, capsys):
        run_dir = tmp_path / "a"
        data_dir = run_dir / "data"
        run(capsys, "synth", "--n", "20", "--seed", "3", "-o", data_dir)
        code, _, _ = run(
            capsys, "train", "--data", data_dir, "--epochs", "1", "--batch-size", "8",
            "--k", "5", "--steps", "1", "--hidden", "4", "-o", run_dir / "model.json",
        )
        assert code == 0
        moved = tmp_path / "b"
        run_dir.rename(moved)
        code, out, err = run(capsys, "predict", fig1_file, "--ckpt", moved / "model.json")
        assert code == 0, err
        assert 0.0 < json.loads(out)["probability"] < 1.0

    def test_vocab_build_and_encode(self, tmp_path, fig1_file, capsys):
        data_dir = tmp_path / "data"
        run(capsys, "synth", "--n", "10", "--seed", "1", "-o", data_dir)
        vocab_path = tmp_path / "vocab.json"
        code, _, _ = run(capsys, "vocab", "build", "--corpus", data_dir,
                         "--k", "5", "-o", vocab_path)
        assert code == 0
        vocab = json.loads(vocab_path.read_text())
        assert {"k", "api", "datatype", "constant", "operator"} <= vocab.keys()

        code, out, _ = run(capsys, "encode", fig1_file, "--vocab", vocab_path,
                           "--mask", "api,datatype")
        assert code == 0
        rows = [line.split() for line in out.strip().split("\n")]
        assert len(rows) == 6
        assert all(len(r) == 4 * 7 for r in rows)
        assert set("".join("".join(r) for r in rows)) <= {"0", "1"}


    def test_vocab_build_on_a_directory_of_sources_and_graph_documents(self, tmp_path, capsys):
        # without a manifest, vocab build reads every .c and .json file in the directory
        data_dir = tmp_path / "data"
        run(capsys, "synth", "--n", "10", "--seed", "1", "-o", data_dir)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(10):  # odd examples as sources, even ones as graph documents
            name = f"ex{i:05d}." + ("c" if i % 2 else "json")
            (corpus / name).write_bytes((data_dir / name).read_bytes())
        code, out, err = run(capsys, "vocab", "build", "--corpus", corpus, "--k", "1000")
        assert (code, err) == (0, "")
        paths = sorted(str(p) for p in corpus.iterdir())
        assert out == build_vocabulary([harness.read_cfg(p) for p in paths], 1000).to_json()


class TestErrors:
    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int f( {")
        code, _, err = run(capsys, "parse", bad)
        assert code == 2 and "error:" in err

    def test_unreachable_statement_exits_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "dead.c"
        path.write_text("void f() { return; int x = 1; }")
        code, _, err = run(capsys, "parse", path)
        assert code == 2 and err.startswith(f"error: {path}:1:20: ")

    DEAD_SOURCE = "void f() { return; int x = 1; }"

    def test_predict_names_the_bad_file_among_several(self, tmp_path, fig1_file, capsys):
        ckpt = tmp_path / "model.json"
        self._write_checkpoint(ckpt)
        bad = tmp_path / "bad.c"
        bad.write_text(self.DEAD_SOURCE)
        code, out, err = run(capsys, "predict", fig1_file, bad, "--ckpt", ckpt)
        assert code == 2 and out == ""
        assert err == f"error: {bad}:1:20: unreachable statement after return\n"

    def test_vocab_build_names_the_bad_corpus_file(self, tmp_path, fig1_file, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.c").write_text(fig1_file.read_text())
        bad = corpus / "bad.c"
        bad.write_text(self.DEAD_SOURCE)
        code, _, err = run(capsys, "vocab", "build", "--corpus", corpus, "--k", "5")
        assert code == 2 and err == f"error: {bad}:1:20: unreachable statement after return\n"

    def test_train_names_the_bad_example_document(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        doc_path = data_dir / "ex00003.json"
        doc = json.loads(doc_path.read_text())
        doc["nodes"][1]["kind"] = "bogus"
        doc_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "train", "--data", data_dir, "-o", tmp_path / "model.json")
        assert code == 2 and err == f"error: {doc_path}: $.nodes[1].kind: unknown kind 'bogus'\n"

    def test_synth_with_a_mislabelling_template_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "_CORE_SHAPES", (null_dereference_core,))
        code, out, err = run(capsys, "synth", "--n", "3", "--vuln-frac", "0", "-o", tmp_path / "d")
        assert code == 2 and out == "" and not (tmp_path / "d").exists()
        assert err.splitlines()[0] == "error: template audio produced label vulnerable, wanted safe:"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "dfa", "/nonexistent.c")
        assert code == 2 and "error:" in err

    def test_negative_trace_exits_2(self, fig1_file, capsys):
        code, _, err = run(capsys, "dfa", fig1_file, "--trace", "-1")
        assert code == 2 and "error:" in err

    def test_trace_above_the_round_bound_exits_2(self, fig1_file, tmp_path, capsys):
        # checked before any round runs: an unbounded count grows memory without end
        rounds = dataflow.MAX_TRACE_ROUNDS + 1
        code, out, err = run(capsys, "dfa", fig1_file, "--trace", rounds)
        assert code == 2 and out == ""
        assert err == f"error: rounds must be <= {dataflow.MAX_TRACE_ROUNDS}, got {rounds}\n"
        # and before the output file is opened
        code, _, _ = run(capsys, "dfa", fig1_file, "--trace", rounds, "-o", tmp_path / "trace.json")
        assert code == 2 and not (tmp_path / "trace.json").exists()

    def test_bad_fractions_exit_2(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        for fractions in ("0.5,0.1", "2,-1,0", "0.9,0.2,-0.1", "nan,0.5,0.5"):
            code, _, err = run(capsys, "split", "--data", data_dir, "--fractions", fractions)
            assert code == 2 and "error:" in err, fractions
        code, out, err = run(capsys, "split", "--data", data_dir, "--fractions", "a,b,c")
        assert code == 2 and out == ""
        assert err == "error: --fractions needs three comma-separated numbers, got 'a,b,c'\n"

    def test_vocab_build_on_a_directory_without_graphs_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        code, out, err = run(capsys, "vocab", "build", "--corpus", corpus, "--k", "5")
        assert code == 2 and out == ""
        assert err == f"error: no CFG documents or sources found in {corpus}\n"

    def test_empty_mask_exits_2(self, tmp_path, fig1_file, capsys):
        path = tmp_path / "v.json"
        path.write_text(Vocabulary(k=2, ranks={}).to_json())
        code, out, err = run(capsys, "encode", fig1_file, "--vocab", path, "--mask", ",")
        assert code == 2 and out == ""
        assert err == "error: mask must enable at least one property\n"

    def test_checkpoint_missing_field_exits_2(self, tmp_path, fig1_file, capsys):
        ckpt = tmp_path / "model.json"
        ckpt.write_text('{"version": 1}')
        code, _, err = run(capsys, "predict", fig1_file, "--ckpt", ckpt)
        assert code == 2 and "error:" in err and "'config'" in err

    def test_directory_input_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "parse", tmp_path)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("ifs.c", "void f(int n) {" + "if (n > 0) {" * 600 + "n = 1;" + "}" * 600 + "}"),
            ("parens.c", "void f(int n) { n = " + "(" * 2000 + "n" + ")" * 2000 + "; }"),
            ("nots.c", "void f(int n) { n = " + "!" * 2000 + "n; }"),
            ("arrays.json", "[" * 100000 + "]" * 100000),
        ],
        ids=["600-ifs", "2000-parens", "2000-nots", "nested-json"],
    )
    def test_deep_nesting_exits_2(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run(capsys, "dfa", path)
        assert code == 2 and "error:" in err and "nest" in err

    @staticmethod
    def _write_checkpoint(path, edit=None):
        """A valid checkpoint (k=5, hidden 8, 3 output layers) and its
        vocabulary v.json; ``edit`` changes the document in place."""
        config = ModelConfig(k=5, hidden=8, steps=1)
        save_checkpoint(str(path), init_params(config, 0), config, "v.json", 1)
        (path.parent / "v.json").write_text(Vocabulary(k=5, ranks={}).to_json())
        if edit:
            doc = json.loads(path.read_text())
            edit(doc)
            path.write_text(json.dumps(doc))

    @pytest.mark.parametrize(
        "case,problem",
        [
            ("[1]", "JSON object"),
            ('{"version": 1, "config": {"bogus": 1}, "vocab_path": "v.json", "params": {}, '
             '"best_epoch": 0}', "config"),
            ('{"version": 1, "config": {}, "vocab_path": "v.json", "params": [1], "best_epoch": 0}',
             "params"),
            ('{"version": 1, "config": {"batch_size": 0}, "vocab_path": "v.json", "params": {}, '
             '"best_epoch": 0}', "batch_size must be >= 1"),
            (lambda d: d["params"].pop("agg_w"), "missing ['agg_w']"),
            (lambda d: d["config"].update(output_layers=4), "missing ['cls3_b', 'cls3_w']"),
            (lambda d: d["config"].update(output_layers=10**9), "one record per param"),
            (lambda d: d["config"].update(steps=2.5), "steps must be an int, got 2.5"),
            (lambda d: d["config"].update(steps=10**9), "steps must be in [0, 64], got 1000000000"),
            (lambda d: d.update(vocab_path=3), "vocab_path must be a string, got 3"),
            (lambda d: d["config"].update(hidden=7), "param proj_w must have shape [28, 7]"),
            (lambda d: d["config"].update(hidden=10**9), "param proj_w must have shape [28, 1000000000]"),
            (lambda d: d.update(best_epoch="x"), "best_epoch must be an int >= 0, got 'x'"),
            (lambda d: d["config"].update(k="5"), "k must be an int, got '5'"),
        ],
        ids=["non-object", "unknown-config-key", "params-not-object", "batch-size-zero",
             "missing-agg_w", "output-layers-4", "output-layers-1e9", "steps-2.5", "steps-1e9", "vocab-path-3", "hidden-7",
             "hidden-1e9", "best-epoch-x", "k-string"],
    )
    def test_malformed_checkpoint_exits_2(self, tmp_path, fig1_file, capsys, case, problem):
        ckpt = tmp_path / "model.json"
        if isinstance(case, str):
            ckpt.write_text(case)
        else:
            self._write_checkpoint(ckpt, case)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "predict", fig1_file, "--ckpt", ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert str(ckpt) in err and problem in err
        assert peak < 20e6  # no array sized from the config alone

    def test_unedited_checkpoint_predicts(self, tmp_path, fig1_file, capsys):
        ckpt = tmp_path / "model.json"
        self._write_checkpoint(ckpt)
        code, out, err = run(capsys, "predict", fig1_file, "--ckpt", ckpt)
        assert code == 0, err
        assert 0.0 < json.loads(out)["probability"] < 1.0

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_batch_size_below_one_exits_2(self, tmp_path, capsys, size):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        code, _, err = run(capsys, "train", "--data", data_dir, "--batch-size", size,
                           "-o", tmp_path / "model.json")
        assert code == 2 and "error:" in err and f"batch_size must be >= 1, got {size}" in err

    @pytest.mark.parametrize(
        "option,value,problem",
        [
            ("--epochs", "0", "epochs must be >= 1, got 0"),
            ("--epochs", "-3", "epochs must be >= 1, got -3"),
            ("--patience", "0", "patience must be >= 1, got 0"),
            ("--lr", "nan", "learning_rate must be finite and > 0, got nan"),
            ("--lr", "inf", "learning_rate must be finite and > 0, got inf"),
            ("--lr", "0", "learning_rate must be finite and > 0, got 0.0"),
            ("--l2", "nan", "l2_weight must be finite and >= 0, got nan"),
            ("--l2", "-1", "l2_weight must be finite and >= 0, got -1.0"),
            ("--steps", "1000000000", "steps must be in [0, 64], got 1000000000"),
        ],
        ids=["epochs-0", "epochs-neg", "patience-0", "lr-nan", "lr-inf", "lr-0", "l2-nan", "l2-neg",
             "steps-1e9"],
    )
    def test_invalid_training_setting_exits_2(self, tmp_path, capsys, option, value, problem):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        ckpt = tmp_path / "model.json"
        code, _, err = run(capsys, "train", "--data", data_dir, option, value, "-o", ckpt)
        assert code == 2 and err == f"error: {problem}\n"
        assert not ckpt.exists()

    def test_overflowing_training_exits_2(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        ckpt = tmp_path / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would print more lines
            code, _, err = run(capsys, "train", "--data", data_dir, "--lr", "1e300", "--k", "3",
                               "--steps", "1", "--hidden", "4", "-o", ckpt)
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("error: training diverged at epoch 1, step 1: non-finite output of ")
        assert not ckpt.exists()

    def test_unallocatable_model_exits_2(self, tmp_path, capsys):
        # proj_w would take 931 TiB, beyond a 47-bit address space, so the
        # allocation fails at once without touching any memory.
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "40", "--seed", "0", "-o", data_dir)
        code, _, err = run(capsys, "train", "--data", data_dir, "--k", "1000000000000",
                           "-o", tmp_path / "model.json")
        assert code == 2 and err.startswith("error: out of memory") and err.count("\n") == 1

    def test_vocabulary_k_mismatch_exits_2(self, tmp_path, fig1_file, capsys):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "10", "--seed", "2", "-o", data_dir)
        ckpt = tmp_path / "model.json"
        code, _, _ = run(capsys, "train", "--data", data_dir, "--epochs", "1", "--k", "3",
                         "--steps", "1", "--hidden", "4", "-o", ckpt)
        assert code == 0
        vocab_path = tmp_path / "model.json.vocab.json"
        code, _, _ = run(capsys, "vocab", "build", "--corpus", data_dir, "--k", "2",
                         "-o", vocab_path)
        assert code == 0
        code, out, err = run(capsys, "predict", fig1_file, "--ckpt", ckpt)
        assert code == 2 and out == "" and "error:" in err
        assert str(vocab_path) in err and str(ckpt) in err

    @pytest.mark.parametrize(
        "doc,problem",
        [
            ([], "lists of ids"),
            ({"train": [], "valid": []}, "lists of ids"),
            ({"train": ["nope"], "valid": [], "test": []}, "'nope'"),
            ({"train": [], "valid": [], "test": []}, "error: empty training split\n"),
        ],
        ids=["not-object", "missing-part", "unknown-id", "empty-train"],
    )
    def test_bad_split_file_exits_2(self, tmp_path, capsys, doc, problem):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "train", "--data", data_dir, "--split", split_path,
                           "-o", tmp_path / "model.json")
        assert code == 2 and "error:" in err and problem in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "doc,repeated",
        [
            ({"train": ["ex00000", "ex00001", "ex00000"], "valid": [], "test": ["ex00002"]}, "ex00000"),
            ({"train": ["ex00000", "ex00001"], "valid": ["ex00001"], "test": ["ex00000"]}, "ex00001"),
        ],
        ids=["within-a-part", "across-parts"],
    )
    def test_split_file_repeating_an_id_exits_2(self, tmp_path, capsys, command, doc, repeated):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps(doc))
        ckpt = tmp_path / "model.json"
        if command == "train":
            argv = ["train", "--data", data_dir, "--split", split_path, "-o", ckpt]
        else:
            self._write_checkpoint(ckpt)
            argv = ["eval", "--ckpt", ckpt, "--data", data_dir, "--split", split_path]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: split file {split_path} lists an id more than once: {repeated!r}\n"

    def test_eval_with_an_empty_test_part_names_the_split_file(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        split_path = tmp_path / "split.json"
        split_path.write_text(json.dumps({"train": ["ex00000"], "valid": ["ex00001"], "test": []}))
        ckpt = tmp_path / "model.json"
        self._write_checkpoint(ckpt)
        code, out, err = run(capsys, "eval", "--ckpt", ckpt, "--data", data_dir, "--split", split_path)
        assert code == 2 and out == ""
        assert err == f"error: split file {split_path} has an empty test part\n"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    def test_non_finite_param_exits_2(self, tmp_path, fig1_file, capsys, literal):
        # Python's json reads all three, the last as inf
        ckpt = tmp_path / "model.json"
        self._write_checkpoint(ckpt, lambda d: d["params"]["cls0_b"]["data"].__setitem__(1, "here"))
        ckpt.write_text(ckpt.read_text().replace('"here"', literal))
        code, out, err = run(capsys, "predict", fig1_file, "--ckpt", ckpt)
        assert code == 2 and out == ""
        assert err == f"error: checkpoint {ckpt}: param cls0_b holds a non-finite value\n"

    DEEP_JSON = "[" * 100000 + "]" * 100000

    @pytest.mark.parametrize("target", ["checkpoint", "vocabulary", "manifest", "split"])
    def test_deeply_nested_json_input_exits_2(self, tmp_path, fig1_file, capsys, target):
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP_JSON)
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        if target == "checkpoint":
            argv = ["predict", fig1_file, "--ckpt", deep]
        elif target == "vocabulary":
            argv = ["encode", fig1_file, "--vocab", deep]
        elif target == "manifest":
            (data_dir / "manifest.json").write_text(self.DEEP_JSON)
            argv = ["split", "--data", data_dir]
            deep = data_dir / "manifest.json"
        else:
            argv = ["train", "--data", data_dir, "--split", deep, "-o", tmp_path / "m.json"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error:" in err and "nested too deeply" in err and str(deep) in err

    @pytest.mark.parametrize(
        "manifest,problem",
        [
            ([1], "'examples' list"),
            ({}, "'examples' list"),
            ({"examples": [{"id": "a", "path": "a.json", "label": "safe"}]}, "examples[0]"),
            ({"examples": [{"id": "a", "path": "a.json", "label": "buggy", "project": "p"}]},
             "examples[0] has label 'buggy', not one of safe, vulnerable"),
        ],
        ids=["not-object", "no-examples", "record-missing-field", "unknown-label"],
    )
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, manifest, problem):
        data_dir = tmp_path / "d"
        data_dir.mkdir()
        (data_dir / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run(capsys, "split", "--data", data_dir)
        assert code == 2 and "error:" in err and problem in err

    def _run_on_dataset(self, capsys, tmp_path, command, data_dir):
        """``command`` run on the dataset in ``data_dir``: (exit code, stdout, stderr)."""
        ckpt = tmp_path / "model.json"
        if command == "eval":
            self._write_checkpoint(ckpt)
        argv = {
            "split": ["split", "--data", data_dir],
            "vocab": ["vocab", "build", "--corpus", data_dir, "--k", "2"],
            "eval": ["eval", "--ckpt", ckpt, "--data", data_dir],
            "train": ["train", "--data", data_dir, "-o", ckpt],
        }[command]
        return run(capsys, *argv)

    @pytest.mark.parametrize("command", ["split", "vocab", "eval", "train"])
    def test_empty_dataset_names_its_manifest(self, tmp_path, capsys, command):
        data_dir = tmp_path / "d"
        data_dir.mkdir()
        manifest_path = data_dir / "manifest.json"
        manifest_path.write_text(json.dumps({"examples": []}))
        code, out, err = self._run_on_dataset(capsys, tmp_path, command, data_dir)
        assert code == 2 and out == ""
        assert err == f"error: {manifest_path} lists no examples\n"

    @pytest.mark.parametrize("command", ["split", "vocab", "eval", "train"])
    def test_repeated_manifest_id_exits_2(self, tmp_path, capsys, command):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "20", "--seed", "2", "-o", data_dir)
        manifest_path = data_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["examples"].append(manifest["examples"][0])
        manifest_path.write_text(json.dumps(manifest))
        code, out, err = self._run_on_dataset(capsys, tmp_path, command, data_dir)
        assert code == 2 and out == ""
        assert err == f"error: {manifest_path}: examples[20] repeats id 'ex00000'\n"

    @pytest.mark.parametrize(
        "vocab",
        [[1], {"k": "3"}, {"k": 3, "api": 5}, {"k": 3, "api": [["malloc"]]}],
        ids=["not-object", "k-not-int", "ranks-not-list", "rank-not-string"],
    )
    def test_malformed_vocabulary_exits_2(self, tmp_path, fig1_file, capsys, vocab):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(vocab))
        code, _, err = run(capsys, "encode", fig1_file, "--vocab", path)
        assert code == 2 and "error:" in err and str(path) in err

    @pytest.mark.parametrize(
        "vocab,problem",
        [
            ({"k": 0}, "k must be >= 1"),
            ({"k": 2, "api": ["a", "b", "c"]}, "api rank list longer than k=2"),
            ({"k": 2, "operator": ["+", "+"]}, "operator rank list has duplicates"),
        ],
        ids=["k-zero", "ranks-longer-than-k", "duplicate-ranks"],
    )
    def test_invalid_vocabulary_names_its_file(self, tmp_path, fig1_file, capsys, vocab, problem):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(vocab))
        code, out, err = run(capsys, "encode", fig1_file, "--vocab", path)
        assert code == 2 and out == "" and err == f"error: {path}: {problem}\n"

    def test_tampered_label_names_the_manifest_and_record(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        manifest_path = data_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        rec = manifest["examples"][1]
        rec["label"] = "safe" if rec["label"] == "vulnerable" else "vulnerable"
        manifest_path.write_text(json.dumps(manifest))
        code, out, err = run(capsys, "split", "--data", data_dir)
        assert code == 2 and out == ""
        assert err == (f"error: {manifest_path}: examples[1] ({rec['id']}): "
                       f"stored label {rec['label']} fails re-validation\n")


class TestFileEncoding:
    """Every file is read and written as UTF-8 whatever the locale; a byte
    that is not UTF-8 exits 2 naming its file, line and column."""

    @staticmethod
    def _spoil(path, after):
        """Put a 0xff byte into ``path`` just after the first ``after``;
        returns the byte's "line:col", lines and columns counted in
        characters as the parser counts them."""
        data = path.read_bytes()
        i = data.index(after.encode()) + len(after.encode())
        path.write_bytes(data[:i] + b"\xff" + data[i:])
        lines_before = data[:i].decode("utf-8").replace("\r\n", "\n").split("\n")
        return f"{len(lines_before)}:{len(lines_before[-1]) + 1}"

    @pytest.mark.parametrize(
        "case",
        ["graph-document", "vocabulary", "checkpoint", "side-vocabulary", "split-file",
         "manifest", "example-graph-document", "example-source"],
    )
    def test_a_byte_that_is_not_utf8_names_its_file_and_position(self, tmp_path, fig1_file, capsys, case):
        data_dir, ckpt = tmp_path / "d", tmp_path / "model.json"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        split_path = tmp_path / "split.json"
        run(capsys, "split", "--data", data_dir, "-o", split_path)
        TestErrors._write_checkpoint(ckpt)
        if case == "graph-document":
            bad, after = tmp_path / "g.json", '"uses": ['
            run(capsys, "parse", fig1_file, "-o", bad)
            argv = ["parse", bad]
        elif case == "vocabulary":
            bad, after = tmp_path / "v5.json", '"mall'
            bad.write_text(Vocabulary(k=5, ranks={"api": ["malloc"]}).to_json())
            argv = ["encode", fig1_file, "--vocab", bad]
        elif case == "checkpoint":
            bad, after = ckpt, '"vocab_path": "'
            argv = ["predict", fig1_file, "--ckpt", ckpt]
        elif case == "side-vocabulary":
            bad, after = tmp_path / "v.json", '"k": '
            argv = ["predict", fig1_file, "--ckpt", ckpt]
        elif case == "split-file":
            bad, after = split_path, '"train": [\n    "'
            argv = ["train", "--data", data_dir, "--split", split_path, "-o", tmp_path / "m.json"]
        else:
            bad, after = {
                "manifest": (data_dir / "manifest.json", '"project": "'),
                "example-graph-document": (data_dir / "ex00003.json", '"code": "'),
                "example-source": (data_dir / "ex00002.c", "(int n"),
            }[case]
            argv = ["split", "--data", data_dir]
        position = self._spoil(bad, after)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:{position}: not valid UTF-8: byte 0xff\n"

    def test_a_bad_byte_in_a_source_is_where_the_parser_puts_a_bad_character(self, tmp_path, capsys):
        # columns count characters (é is two bytes) and a CRLF ends one line
        source = "void f(int n) {\r\n  int café = n;\r\n  n = café + X;\r\n}\r\n"
        at, bad = tmp_path / "at.c", tmp_path / "bad.c"
        at.write_bytes(source.replace("X", "@").encode())
        bad.write_bytes(source.encode().replace(b"X", b"\xff"))
        assert run(capsys, "parse", at) == (2, "", f"error: {at}:3:14: unexpected character '@'\n")
        assert run(capsys, "parse", bad) == (2, "", f"error: {bad}:3:14: not valid UTF-8: byte 0xff\n")

    @pytest.mark.parametrize("case", ["source", "graph-document", "vocabulary", "manifest"])
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, fig1_file, capsys, case):
        data_dir, vocab = tmp_path / "d", tmp_path / "v.json"
        run(capsys, "synth", "--n", "6", "--seed", "2", "-o", data_dir)
        run(capsys, "vocab", "build", "--corpus", data_dir, "--k", "5", "-o", vocab)
        graph = tmp_path / "g.json"
        run(capsys, "parse", fig1_file, "-o", graph)
        marked, argv = {
            "source": (fig1_file, ["parse", fig1_file]),
            "graph-document": (graph, ["dfa", graph]),
            "vocabulary": (vocab, ["encode", fig1_file, "--vocab", vocab]),
            "manifest": (data_dir / "manifest.json", ["split", "--data", data_dir]),
        }[case]
        unmarked = run(capsys, *argv)
        assert unmarked[0] == 0
        marked.write_bytes("\ufeff".encode() + marked.read_bytes())
        assert run(capsys, *argv) == unmarked

    def test_a_mark_past_the_first_character_stands_where_it_is(self, tmp_path, capsys):
        # one mark is dropped, so positions count from after it; a second one,
        # or one inside the text, is a character the lexer does not accept
        bom, path = "\ufeff".encode(), tmp_path / "f.c"
        for data, error in [
            (bom + bom + b"void f() { }\n", "1:1: unexpected character '\\ufeff'"),
            (b"void f() {\n  " + bom + b"}\n", "2:3: unexpected character '\\ufeff'"),
            (bom + b"void f() { \xff }\n", "1:12: not valid UTF-8: byte 0xff"),
            (bom[:2], "1:1: not valid UTF-8: byte 0xef"),  # a mark cut short is two bad bytes
        ]:
            path.write_bytes(data)
            assert run(capsys, "parse", path) == (2, "", f"error: {path}:{error}\n"), data

    def test_crlf_source_gives_the_graph_and_positions_of_its_lf_copy(self, tmp_path, capsys):
        dead = "void f(int n) {\n  if (n) { return; } else { return; }\n  n = 1;\n}\n"
        results = []
        for newline in ("\n", "\r\n"):
            good, bad = tmp_path / "good.c", tmp_path / "dead.c"
            good.write_bytes(FIG1_SRC.replace("\n", newline).encode())
            bad.write_bytes(dead.replace("\n", newline).encode())
            results.append((run(capsys, "parse", good), run(capsys, "parse", bad)))
        assert results[0] == results[1]
        (code, out, _), dead_result = results[0]
        assert code == 0 and json.loads(out)["function"] == "f"
        assert dead_result == (2, "", f"error: {bad}:3:3: unreachable statement after return\n")

    def test_parse_under_the_c_locale_reads_utf8(self, tmp_path):
        path = tmp_path / "f.c"
        path.write_bytes("void f(int n) {\n  int café = n;\n  n = café;\n}\n".encode())
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "LC_CTYPE")}
        src = os.path.dirname(os.path.dirname(os.path.abspath(defreach.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def parse(**locale):
            argv = [sys.executable, "-m", "defreach.cli", "parse", str(path)]
            return subprocess.run(argv, env={**env, **locale}, cwd=tmp_path, capture_output=True, timeout=60)

        c_locale = parse(LC_ALL="C", LANG="C", PYTHONUTF8="0")
        utf8_mode = parse(PYTHONUTF8="1")
        assert (c_locale.returncode, c_locale.stderr) == (0, b"")
        assert c_locale.stdout == utf8_mode.stdout and b'"target": "caf\\u00e9"' in c_locale.stdout
