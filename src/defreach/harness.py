"""Synthetic corpus of null-dereference examples, split management, metrics.

Every generated program is labeled by the exact analysis: vulnerable iff
some NULL-valued definition of a pointer reaches a dereference of that
pointer. Reaching definitions is solved with only those NULL definitions
tracked, then one AND of masks per (dereference, used variable). Labels are
validated at generation time and again on load; a mislabeled template is a
hard error, never an emitted example.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass

from .cfg import Cfg, CfgError, Statement, dump_cfg, load_cfg, parse_json, read_text, write_text
from .dataflow import analyze
from .parser import ParseError, parse_function

LABELS = ("safe", "vulnerable")


class GenerationError(Exception):
    pass


@dataclass
class Example:
    id: str
    project: str
    source: str
    cfg: Cfg
    label: int  # 1 = vulnerable


@dataclass
class Metrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    degenerate: bool = False  # a zero-denominator convention was applied

    def to_dict(self) -> dict:
        """The fields in order, ``degenerate`` only when it is set."""
        report = asdict(self)
        if not self.degenerate:
            del report["degenerate"]
        return report


def classify(prob: float) -> int:
    """The verdict for a probability: 1 (vulnerable) iff ``prob >= 0.5``."""
    return int(prob >= 0.5)


def compute_metrics(probs: list[float], labels: list[int]) -> Metrics:
    if len(probs) != len(labels):
        raise ValueError(f"length mismatch: {len(probs)} predictions, {len(labels)} labels")
    if not probs:
        raise ValueError("empty input")
    tp = fp = tn = fn = 0
    for p, y in zip(probs, labels):
        pred = classify(p)
        if pred and y:
            tp += 1
        elif pred:
            fp += 1
        elif y:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = f1_from_pr(precision, recall)
    degenerate = tp + fp == 0 or tp + fn == 0 or precision + recall == 0
    return Metrics(precision, recall, f1, tp, fp, tn, fn, degenerate)


def f1_from_pr(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _null_definition(stmt: Statement) -> bool:
    """Whether a definition sets its variable to the NULL constant and calls nothing."""
    return "NULL" in stmt.constants and stmt.callee is None


def oracle_label(cfg: Cfg) -> int:
    """1 iff a NULL-constant definition that calls nothing reaches a
    dereference of its variable: iff IN[v] & by_variable[x] != 0 for a
    ``deref-use`` node v and a variable x it uses, with only those NULL
    definitions tracked."""
    _, state = analyze(cfg, _null_definition)
    masks = state.by_variable
    for stmt, inb in zip(cfg.nodes, state.inb):
        if inb and stmt.kind == "deref-use" and any(inb & masks.get(x, 0) for x in stmt.uses):
            return 1
    return 0


# -- program templates -------------------------------------------------
#
# Every template family can express the same four core shapes (capturing
# whether a NULL definition survives to the dereference): straight-line,
# re-null after allocation, branch-guarded allocation, loop-carried
# allocation. What distinguishes a family -- and so a "project" -- is its
# surface style: allocator APIs, identifier pools, distractor density,
# condition and index idioms. This makes cross-project holdouts a shift
# in style rather than in mechanics, the same generalization the model is
# being asked to demonstrate.

@dataclass(frozen=True)
class TemplateStyle:
    allocs: tuple[str, ...]
    ptr_names: tuple[str, ...]
    int_names: tuple[str, ...]
    cond_var: str  # "n" or "c"
    plain_max: int  # max count of plain arithmetic distractors
    branch_prob: float
    loop_prob: float


TEMPLATES: dict[str, TemplateStyle] = {
    "parser": TemplateStyle(("malloc", "xmalloc"), ("buf", "tok"), ("len", "pos"), "n", 3, 0.6, 0.2),
    "netio": TemplateStyle(("calloc", "grab_mem"), ("pkt", "frame"), ("sz", "mtu"), "c", 2, 0.3, 0.4),
    "imglib": TemplateStyle(("malloc", "pool_get"), ("pix", "row"), ("w", "h"), "n", 1, 0.5, 0.1),
    "dbcore": TemplateStyle(("realloc", "calloc"), ("rec", "page"), ("nrec", "cap"), "c", 3, 0.2, 0.3),
    "audio": TemplateStyle(("xmalloc", "pool_get"), ("smp", "ring"), ("rate", "nch"), "n", 2, 0.4, 0.4),
    "crypto": TemplateStyle(("malloc", "calloc"), ("key", "digest"), ("bits", "rounds"), "c", 1, 0.6, 0.2),
    "termui": TemplateStyle(("grab_mem", "realloc"), ("cell", "pane"), ("cols", "rows"), "n", 2, 0.5, 0.3),
    "gamesim": TemplateStyle(("pool_get", "xmalloc"), ("ent", "tile"), ("hp", "lvl"), "c", 3, 0.3, 0.2),
    "compress": TemplateStyle(("malloc", "realloc"), ("win", "dict"), ("bits2", "lit"), "n", 1, 0.4, 0.5),
    "jsonkit": TemplateStyle(("calloc", "xmalloc"), ("obj", "arr"), ("depth", "nkey"), "c", 2, 0.5, 0.1),
}


class _Writer:
    def __init__(self, rng: random.Random, style: TemplateStyle):
        self.rng = rng
        self.style = style
        self.lines: list[str] = []
        self.counter = 0

    def fresh(self, pool: tuple[str, ...]) -> str:
        self.counter += 1
        return f"{self.rng.choice(pool)}{self.rng.randrange(10, 100)}_{self.counter}"

    def alloc(self) -> str:
        return self.rng.choice(self.style.allocs)

    def num(self) -> int:
        return self.rng.randrange(1, 64)

    def cond(self) -> str:
        op = self.rng.choice((">", "<", ">=", "!="))
        return f"{self.style.cond_var} {op} {self.num()}"

    def index(self) -> str:
        return self.rng.choice(("0", str(self.num()), "n", "n - 1", "c"))

    def distractors(self) -> None:
        """Definition/branch/loop statements unrelated to the pointer."""
        for _ in range(self.rng.randrange(0, self.style.plain_max + 1)):
            v = self.fresh(self.style.int_names)
            self.lines.append(f"int {v} = {self.num()};")
            if self.rng.random() < 0.5:
                op = self.rng.choice(("+", "*", "-"))
                self.lines.append(f"{v} = {v} {op} {self.num()};")
        if self.rng.random() < self.style.branch_prob:
            v = self.fresh(self.style.int_names)
            self.lines.append(f"int {v} = {self.num()};")
            self.lines.append(f"if ({self.cond()}) {{ {v} = {v} * 2; }}")
        if self.rng.random() < self.style.loop_prob:
            v = self.fresh(self.style.int_names)
            self.lines.append(f"int {v} = {self.num()};")
            self.lines.append(f"while ({v} > 0) {{ {v} = {v} - 1; }}")


def _core_straight(w: _Writer, vulnerable: bool) -> None:
    p = w.fresh(w.style.ptr_names)
    if vulnerable:
        w.lines.append(f"char *{p} = NULL;")
        w.distractors()
    elif w.rng.random() < 0.5:
        w.lines.append(f"char *{p} = NULL;")
        w.distractors()
        w.lines.append(f"{p} = {w.alloc()}({w.num()});")
    else:
        w.lines.append(f"char *{p} = {w.alloc()}({w.num()});")
        w.distractors()
    w.lines.append(f"{p}[{w.index()}];")


def _core_renull(w: _Writer, vulnerable: bool) -> None:
    p = w.fresh(w.style.ptr_names)
    w.lines.append(f"char *{p} = {w.alloc()}({w.num()} * n);")
    w.distractors()
    if vulnerable:
        if w.rng.random() < 0.5:
            w.lines.append(f"{p} = NULL;")
        else:
            w.lines.append(f"if ({w.cond()}) {{ {p} = NULL; }}")
    w.lines.append(f"{p}[{w.index()}];")


def _core_guard(w: _Writer, vulnerable: bool) -> None:
    p = w.fresh(w.style.ptr_names)
    x = w.fresh(w.style.int_names)
    w.lines.append(f"char *{p} = NULL;")
    w.lines.append(f"int {x} = {w.num()};")
    w.distractors()
    then = f"{p} = {w.alloc()}({w.num()} * n);"
    if vulnerable:
        if w.rng.random() < 0.5:
            w.lines.append(f"if ({w.cond()}) {{ {then} }}")
        else:
            w.lines.append(f"if ({w.cond()}) {{ {x} = {x} + 1; }} else {{ {then} }}")
    elif w.rng.random() < 0.5:
        w.lines.append(f"if ({w.cond()}) {{ {then} }} else {{ {p} = {w.alloc()}({x}); }}")
    else:
        w.lines.append(f"if ({w.cond()}) {{ {x} = {x} + 1; }}")
        w.lines.append(f"{p} = {w.alloc()}({x});")
    w.lines.append(f"{p}[{w.index()}];")


def _core_loop(w: _Writer, vulnerable: bool) -> None:
    p = w.fresh(w.style.ptr_names)
    i = w.fresh(w.style.int_names)
    w.lines.append(f"char *{p} = NULL;")
    w.lines.append(f"int {i} = {w.style.cond_var};")
    if vulnerable:
        # the loop body may never run, so NULL can survive to the dereference
        body = f"{p} = {w.alloc()}({w.num()});"
        if w.rng.random() < 0.5:
            body = f"if ({w.cond()}) {{ {body} }}"
        w.lines.append(f"while ({i} > 0) {{ {body} {i} = {i} - 1; }}")
    else:
        w.lines.append(f"{p} = {w.alloc()}({w.num()});")
        w.lines.append(f"while ({i} > 0) {{ {i} = {i} - 1; }}")
    w.distractors()
    w.lines.append(f"{p}[{w.index()}];")


_CORE_SHAPES = (_core_straight, _core_renull, _core_guard, _core_loop)


def _render(w: _Writer, name: str) -> str:
    body = "\n".join(f"    {line}" for line in w.lines)
    return f"void {name}(int n, int c) {{\n{body}\n    return;\n}}\n"


def synth_generate(n: int, seed: int, vulnerable_fraction: float = 0.5) -> list[Example]:
    """Generate n labeled examples; labels are re-derived from the analysis."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= vulnerable_fraction <= 1.0:
        raise ValueError("vulnerable fraction must be in [0, 1]")
    rng = random.Random(seed)
    n_vuln = round(n * vulnerable_fraction)
    labels = [1] * n_vuln + [0] * (n - n_vuln)
    rng.shuffle(labels)
    families = sorted(TEMPLATES)
    examples = []
    for i, label in enumerate(labels):
        project = families[rng.randrange(len(families))]
        w = _Writer(rng, TEMPLATES[project])
        shape = _CORE_SHAPES[rng.randrange(len(_CORE_SHAPES))]
        shape(w, bool(label))
        source = _render(w, f"fn_{i}")
        cfg = parse_function(source)
        actual = oracle_label(cfg)
        if actual != label:
            raise GenerationError(
                f"template {project} produced label {LABELS[actual]}, wanted {LABELS[label]}:\n{source}"
            )
        examples.append(Example(id=f"ex{i:05d}", project=project, source=source, cfg=cfg, label=label))
    return examples


# -- splits ------------------------------------------------------------

def split(
    dataset: list[Example],
    regime: str,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[list[Example], list[Example], list[Example]]:
    if not all(f >= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be >= 0 and sum to 1, got {fractions}")
    rng = random.Random(seed)
    n = len(dataset)
    if regime == "mixed":
        order = list(dataset)
        rng.shuffle(order)
        n_train = round(fractions[0] * n)
        n_valid = round(fractions[1] * n)
        return order[:n_train], order[n_train : n_train + n_valid], order[n_train + n_valid :]
    if regime == "cross":
        projects = sorted({e.project for e in dataset})
        if len(projects) < 2:
            raise ValueError(f"cross regime needs >= 2 projects, found {len(projects)}")
        rng.shuffle(projects)
        held_target = (fractions[1] + fractions[2]) * n
        held_projects: set[str] = set()
        held_count = 0
        for proj in projects:
            if held_count >= held_target or len(held_projects) == len(projects) - 1:
                break
            held_projects.add(proj)
            held_count += sum(1 for e in dataset if e.project == proj)
        if not held_projects:
            raise ValueError("cross regime could not hold out any project")
        train = [e for e in dataset if e.project not in held_projects]
        held = [e for e in dataset if e.project in held_projects]
        rng.shuffle(held)
        denom = fractions[1] + fractions[2]
        n_valid = round(len(held) * (fractions[1] / denom))
        return train, held[:n_valid], held[n_valid:]
    raise ValueError(f"unknown regime {regime!r}")


def undersample(train: list[Example], seed: int) -> list[Example]:
    """Randomly drop majority-class examples down to the minority count."""
    pos = [e for e in train if e.label == 1]
    neg = [e for e in train if e.label == 0]
    if not pos or not neg:
        raise ValueError("undersample needs both classes present")
    rng = random.Random(seed)
    if len(pos) > len(neg):
        pos = rng.sample(pos, len(neg))
    elif len(neg) > len(pos):
        neg = rng.sample(neg, len(pos))
    balanced = pos + neg
    rng.shuffle(balanced)
    return balanced


# -- reading graphs and dataset directories ----------------------------

def read_cfg(path: str) -> Cfg:
    """The graph in ``path``: a CFG document if the name ends in .json, else
    one mini-C function; a dataset manifest may name either. A syntax or
    schema error is re-raised as a ValueError that names the file and keeps
    its position: ``f.c:1:20: …`` or ``g.json: $.nodes[1].kind: …``."""
    text = read_text(path)
    try:
        return load_cfg(text) if path.endswith(".json") else parse_function(text)
    except ParseError as e:
        raise ValueError(f"{path}:{e}") from e
    except CfgError as e:
        raise ValueError(f"{path}: {e}") from e


MANIFEST_FIELDS = ("id", "path", "label", "project")


def save_dataset(examples: list[Example], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    manifest = {"examples": []}
    for e in examples:
        path = f"{e.id}.json"
        write_text(os.path.join(directory, path), dump_cfg(e.cfg))
        write_text(os.path.join(directory, f"{e.id}.c"), e.source)
        manifest["examples"].append(
            {"id": e.id, "project": e.project, "label": LABELS[e.label], "path": path}
        )
    write_text(os.path.join(directory, "manifest.json"), json.dumps(manifest, indent=2) + "\n")


def load_dataset(directory: str) -> list[Example]:
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = parse_json(read_text(manifest_path), manifest_path)
    records = manifest.get("examples") if isinstance(manifest, dict) else None
    if not isinstance(records, list):
        raise ValueError(f"{manifest_path} must be a JSON object with an 'examples' list")
    if not records:
        raise ValueError(f"{manifest_path} lists no examples")
    examples = []
    ids = set()
    for i, rec in enumerate(records):
        if not (isinstance(rec, dict) and all(isinstance(rec.get(k), str) for k in MANIFEST_FIELDS)):
            raise ValueError(f"{manifest_path}: examples[{i}] needs string fields {', '.join(MANIFEST_FIELDS)}")
        if rec["id"] in ids:  # split would list it twice, eval score it twice, vocab count it twice
            raise ValueError(f"{manifest_path}: examples[{i}] repeats id {rec['id']!r}")
        ids.add(rec["id"])
        if rec["label"] not in LABELS:
            raise ValueError(
                f"{manifest_path}: examples[{i}] has label {rec['label']!r}, not one of {', '.join(LABELS)}"
            )
        cfg = read_cfg(os.path.join(directory, rec["path"]))
        label = LABELS.index(rec["label"])
        if oracle_label(cfg) != label:
            raise ValueError(f"{manifest_path}: examples[{i}] ({rec['id']}): "
                             f"stored label {rec['label']} fails re-validation")
        source_path = os.path.join(directory, rec["id"] + ".c")
        source = read_text(source_path) if os.path.exists(source_path) else ""
        examples.append(
            Example(id=rec["id"], project=rec["project"], source=source, cfg=cfg, label=label)
        )
    return examples
