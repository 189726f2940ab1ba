"""Command-line interface.

Subcommands: parse, dfa, vocab, encode, synth, split, train, eval,
predict. Validation failures (bad input files, schema violations,
unsupported constructs) exit with status 2, and so do a request for
more memory than can be allocated (say, an enormous ``--k``) and a
training run whose values overflow (say, ``--lr 1e300``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import glob
import json
import os
import sys
import time

import numpy as np

from . import dataflow, embedding, harness, model, tensor
from .cfg import Cfg, CfgError, dump_cfg, parse_json
from .parser import ParseError


@contextlib.contextmanager
def _opened(out: str | None):
    """The file ``out`` opened for writing, or standard output without one."""
    if out:
        with open(out, "w") as f:
            yield f
    else:
        yield sys.stdout


def _write(text: str, out: str | None) -> None:
    with _opened(out) as f:
        f.write(text)


def cmd_parse(args) -> int:
    _write(dump_cfg(harness.read_cfg(args.file)), args.output)
    return 0


def cmd_dfa(args) -> int:
    cfg = harness.read_cfg(args.file)
    definitions, state = dataflow.compute_gen_kill(cfg, deref_defines=args.deref_defines)
    report = {
        "function": cfg.function,
        "definitions": [{"id": d.def_id, "node": d.node, "variable": d.variable} for d in definitions],
    }
    bits = functools.partial(dataflow.bit_string, width=len(definitions))
    nodes = range(len(cfg.nodes))
    if args.trace is None:
        dataflow.solve(cfg, state)
        key, items = "nodes", ({"id": v, "in": bits(state.inb[v]), "out": bits(state.out[v])}
                               for v in nodes)
    else:  # trace_rounds checks the count here, before the output is opened
        key, items = "trace", ({str(v): bits(snap[v]) for v in nodes}
                               for snap in dataflow.trace_rounds(cfg, state, args.trace))
    # A trace holds rounds x nodes bit strings, so each item is written as it
    # is computed; the text is what json.dumps(report, indent=2) gives with the
    # items, never none, as report[key].
    with _opened(args.output) as f:
        f.write(json.dumps(report, indent=2)[:-2] + f',\n  "{key}": [')
        for i, item in enumerate(items):
            f.write(("," if i else "") + "\n    " + json.dumps(item, indent=2).replace("\n", "\n    "))
        f.write("\n  ]\n}\n")
    return 0


def _corpus_cfgs(directory: str) -> list[Cfg]:
    if os.path.exists(os.path.join(directory, "manifest.json")):
        return [e.cfg for e in harness.load_dataset(directory)]
    paths = [path for ext in ("json", "c") for path in sorted(glob.glob(os.path.join(directory, f"*.{ext}")))]
    cfgs = [harness.read_cfg(path) for path in paths]
    if not cfgs:
        raise ValueError(f"no CFG documents or sources found in {directory}")
    return cfgs


def cmd_vocab_build(args) -> int:
    vocab = embedding.build_vocabulary(_corpus_cfgs(args.corpus), args.k)
    _write(vocab.to_json(), args.output)
    return 0


def cmd_encode(args) -> int:
    with open(args.vocab) as f:
        vocab = embedding.Vocabulary.from_json(f.read(), args.vocab)
    mask = embedding.parse_mask(args.mask)
    rows = embedding.one_hot(embedding.encode(harness.read_cfg(args.file), vocab, mask), vocab.row_width)
    text = "\n".join(" ".join(str(int(x)) for x in row) for row in rows) + "\n"
    _write(text, args.output)
    return 0


def cmd_synth(args) -> int:
    examples = harness.synth_generate(args.n, args.seed, vulnerable_fraction=args.vuln_frac)
    harness.save_dataset(examples, args.output)
    n_vuln = sum(e.label for e in examples)
    print(f"wrote {len(examples)} examples ({n_vuln} vulnerable) to {args.output}")
    return 0


def cmd_split(args) -> int:
    dataset = harness.load_dataset(args.data)
    fractions = tuple(float(x) for x in args.fractions.split(","))
    if len(fractions) != 3:
        raise ValueError("--fractions needs three comma-separated values")
    train, valid, test = harness.split(dataset, args.regime, fractions, args.seed)
    doc = {
        "train": [e.id for e in train],
        "valid": [e.id for e in valid],
        "test": [e.id for e in test],
    }
    _write(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _apply_split(dataset, split_path: str | None, seed: int):
    if split_path:
        with open(split_path) as f:
            doc = parse_json(f.read(), f"split file {split_path}")
        parts = [doc.get(p) if isinstance(doc, dict) else None for p in ("train", "valid", "test")]
        if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids) for ids in parts):
            raise ValueError(f"split file {split_path} must map train, valid and test to lists of ids")
        by_id = {e.id: e for e in dataset}
        listed = [i for ids in parts for i in ids]
        unknown = [i for i in listed if i not in by_id]
        if unknown:
            raise ValueError(f"split file {split_path} names an id not in the dataset: {unknown[0]!r}")
        seen = set()
        for i in listed:  # within a part or across parts: either would train or score it twice
            if i in seen:
                raise ValueError(f"split file {split_path} lists an id more than once: {i!r}")
            seen.add(i)
        return tuple([by_id[i] for i in ids] for ids in parts)
    return harness.split(dataset, "mixed", (0.8, 0.1, 0.1), seed)


def cmd_train(args) -> int:
    dataset = harness.load_dataset(args.data)
    train, valid, _ = _apply_split(dataset, args.split, args.seed)
    if not train:
        raise ValueError("empty training split")
    vocab = embedding.build_vocabulary([e.cfg for e in train], args.k)
    train = harness.undersample(train, args.seed)
    mask = embedding.parse_mask(args.mask)
    config = model.ModelConfig(
        hidden=args.hidden,
        steps=args.steps,
        learning_rate=args.lr,
        l2_weight=args.l2,
        batch_size=args.batch_size,
        k=args.k,
        mask=[p for p in embedding.PROPERTIES if mask[p]],
    )
    params, best_epoch, history = model.train_model(
        config,
        [(e.cfg, e.label) for e in train],
        [(e.cfg, e.label) for e in valid],
        vocab,
        seed=args.seed,
        epochs=args.epochs,
        patience=args.patience,
    )
    vocab_path = args.output + ".vocab.json"
    with open(vocab_path, "w") as f:
        f.write(vocab.to_json())
    # the basename, which load_checkpoint resolves against the checkpoint's
    # directory, so the run directory can be moved as a whole
    model.save_checkpoint(args.output, params, config, os.path.basename(vocab_path), best_epoch)
    for h in history:
        print(f"epoch {h.epoch}: loss {h.train_loss:.4f} valid_f1 {h.valid_f1:.4f}")
    print(f"saved checkpoint {args.output} (best epoch {best_epoch})")
    return 0


def cmd_eval(args) -> int:
    ckpt = model.load_checkpoint(args.ckpt)
    dataset = harness.load_dataset(args.data)
    if args.split:
        _, _, dataset = _apply_split(dataset, args.split, 0)
        if not dataset:
            raise ValueError(f"split file {args.split} has an empty test part")
    start = time.perf_counter()
    probs = model.predict_many(ckpt, [e.cfg for e in dataset])
    elapsed = time.perf_counter() - start
    report = harness.compute_metrics(probs.tolist(), [e.label for e in dataset]).to_dict()
    if args.timing:
        report["ms_per_example"] = elapsed * 1000.0 / len(dataset)
    _write(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def cmd_predict(args) -> int:
    ckpt = model.load_checkpoint(args.ckpt)
    for prob in model.predict_many(ckpt, [harness.read_cfg(path) for path in args.files]).tolist():
        print(json.dumps({"probability": prob, "classification": harness.LABELS[harness.classify(prob)]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="defreach")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse mini-C into the CFG interchange format")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("dfa", help="reaching-definitions report for one function")
    p.add_argument("file")
    p.add_argument("--trace", type=int, default=None, metavar="N",
                   help="emit per-round OUT snapshots for N synchronous sweeps")
    p.add_argument("--deref-defines", action="store_true",
                   help="treat dereference statements as anonymous definitions")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_dfa)

    p = sub.add_parser("vocab", help="vocabulary operations")
    vsub = p.add_subparsers(dest="vocab_command", required=True)
    b = vsub.add_parser("build")
    b.add_argument("--corpus", required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("-o", "--output")
    b.set_defaults(fn=cmd_vocab_build)

    p = sub.add_parser("encode", help="emit the per-node feature matrix")
    p.add_argument("file")
    p.add_argument("--vocab", required=True)
    p.add_argument("--mask", default=",".join(embedding.PROPERTIES))
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vuln-frac", type=float, default=0.5)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("split", help="produce train/valid/test id lists")
    p.add_argument("--data", required=True)
    p.add_argument("--regime", choices=("mixed", "cross"), default="mixed")
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--mask", default=",".join(embedding.PROPERTIES))
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--l2", type=float, default=1e-2)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", help="evaluate the test part of this split file")
    p.add_argument("--timing", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="classify functions, one JSON line per file")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(fn=cmd_predict)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Tensor ops reject non-finite results with a TensorError, so numpy's
        # overflow warnings would only repeat that error.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ParseError, CfgError, ValueError, harness.GenerationError, tensor.TensorError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
