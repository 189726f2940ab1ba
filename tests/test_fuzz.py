"""Mutation fuzzing of every JSON document the CLI reads: a CFG, a
checkpoint, a vocabulary, a dataset manifest and a split file.

A mutant drops a key or an element, swaps a value for one of another type,
nests a value one level deeper or truncates the text. ``cli.main`` runs
in-process on it and must return 0, or 2 with a single ``error:`` line;
it must never raise. Mutants hold no large numbers, so a run that asks
for more memory than can be allocated means an array was sized from a
config field rather than from the document's data. The budget is
hypothesis's ``max_examples``; the ``ci`` profile in conftest.py raises it.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_SRC
from defreach import cli, embedding, harness, model
from defreach.cfg import dump_cfg
from defreach.parser import parse_function

SWAPS = (None, True, 1.5, "x", [], {})


def paths(value, prefix=()):
    """Every path into a JSON value; of a list longer than three, only its
    first and last elements."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i in range(len(value)) if len(value) <= 3 else (0, len(value) - 1):
            yield from paths(value[i], prefix + (i,))


@st.composite
def mutants(draw, text: str) -> str:
    how = draw(st.sampled_from(("drop", "swap", "deepen", "truncate")))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    path = draw(st.sampled_from([p for p in paths(doc) if p or how != "drop"]))
    holder = {"root": doc}
    parent, key = holder, "root"
    for step in path:
        parent, key = parent[key], step
    if how == "drop":
        del parent[key]
    elif how == "swap":
        old = parent[key]
        parent[key] = draw(st.sampled_from([v for v in SWAPS if type(v) is not type(old)]))
    else:
        parent[key] = draw(st.sampled_from(([parent[key]], {"x": parent[key]})))
    return json.dumps(holder["root"])


# Per document kind: the valid document, where its mutant goes and the runs
# that read the mutant. Paths are relative to the workspace directory.
KINDS = {
    "cfg": ("fig1.json", "mutant.json",
            [["dfa", "{mutant}"], ["predict", "{mutant}", "--ckpt", "{root}/model.json"]]),
    "checkpoint": ("model.json", "mutant-model.json",
                   [["predict", "{root}/fig1.c", "--ckpt", "{mutant}"]]),
    "vocabulary": ("vocab.json", "v/vocab.json",
                   [["encode", "{root}/fig1.c", "--vocab", "{mutant}"],
                    ["predict", "{root}/fig1.c", "--ckpt", "{root}/v/model.json"]]),
    "manifest": ("data/manifest.json", "m/manifest.json", [["split", "--data", "{root}/m"]]),
    "split": ("split.json", "mutant-split.json",
              [["eval", "--ckpt", "{root}/model.json", "--data", "{root}/data", "--split", "{mutant}",
                "--timing"]]),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory holding a valid document of each kind and everything
    else the runs in KINDS read."""
    root = tmp_path_factory.mktemp("fuzz")
    examples = harness.synth_generate(6, seed=0)
    harness.save_dataset(examples, str(root / "data"))
    config = model.ModelConfig(k=2, hidden=4, steps=1, output_layers=2, batch_size=4)
    model.save_checkpoint(str(root / "model.json"), model.init_params(config, 0), config, "vocab.json", 1)
    vocab = embedding.build_vocabulary([e.cfg for e in examples], k=2)
    (root / "vocab.json").write_text(vocab.to_json())
    (root / "fig1.c").write_text(FIG1_SRC)
    (root / "fig1.json").write_text(dump_cfg(parse_function(FIG1_SRC)))
    ids = [e.id for e in examples]
    (root / "split.json").write_text(json.dumps({"train": ids[:3], "valid": ids[3:4], "test": ids[4:]}))
    (root / "v").mkdir()  # a checkpoint beside the mutated vocabulary
    shutil.copy(root / "model.json", root / "v" / "model.json")
    shutil.copytree(root / "data", root / "m")  # a dataset for the mutated manifest
    return root


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("kind", ["cfg", "checkpoint", "vocabulary", "manifest", "split"])
@settings(derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_document_exits_0_or_2(workspace, kind, data):
    original, mutant, runs = KINDS[kind]
    (workspace / mutant).write_text(data.draw(mutants((workspace / original).read_text()), label="mutant"))
    for argv in runs:
        code, err = run_cli([a.format(root=workspace, mutant=workspace / mutant) for a in argv])
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "out of memory" not in err, err
