"""Front-end outputs on large functions, pinned by digest.

The synthetic corpus pinned in test_harness.py has functions of a few dozen
nodes. These come from their own seeded generator: twelve functions of 600
to 1500 CFG nodes with nested ``if``/``while`` blocks, calls, NULL
definitions and dereferences. A change to the parser, the CFG, the
reaching-definitions solver, the oracle or the encoder that alters any
output on them must update these digests on purpose.
"""

import gc
import hashlib
import random

from conftest import assert_adjacency_survives_interchange

from defreach.cfg import dump_cfg, load_cfg
from defreach.dataflow import compute_gen_kill, solve
from defreach.embedding import build_vocabulary, encode
from defreach.harness import oracle_label
from defreach.parser import parse_function

POINTERS = [f"p{i}" for i in range(6)]
INTS = [f"v{i}" for i in range(8)]
CALLEES = ["malloc", "xmalloc", "calloc", "lookup"]


def large_function(rng: random.Random, target: int) -> str:
    """A function of about ``target`` statements, blocks nested at most six deep.

    About half of the functions define no pointer as NULL, so the oracle
    labels both ways."""
    budget = target - len(POINTERS) - len(INTS)
    fresh = 0
    nulls = rng.random() < 0.5

    def atom() -> str:
        return rng.choice([*INTS, "n", str(rng.randrange(100))])

    def expr() -> str:
        r = rng.random()
        if r < 0.4:
            return atom()
        if r < 0.8:
            return f"{atom()} {rng.choice('+-*/%')} {atom()}"
        return f"({atom()} {rng.choice('+-')} {atom()}) * {atom()}"

    def cond() -> str:
        r = rng.random()
        if r < 0.4:
            return f"{rng.choice(INTS)} {rng.choice(['<', '>', '<=', '>=', '==', '!='])} {expr()}"
        if r < 0.6:
            return f"!{rng.choice(POINTERS)}"
        if r < 0.8:
            return f"{rng.choice(POINTERS)} == NULL"
        return f"{expr()} && {rng.choice(INTS)}"

    def statement(depth: int, indent: str) -> list[str]:
        nonlocal budget, fresh
        budget -= 1
        r = rng.random()
        if r < 0.12 and depth < 6:
            lines = [f"{indent}if ({cond()}) {{", *block(depth + 1, indent + "  ")]
            if rng.random() < 0.5:
                lines += [f"{indent}}} else {{", *block(depth + 1, indent + "  ")]
            return [*lines, f"{indent}}}"]
        if r < 0.2 and depth < 6:
            return [f"{indent}while ({cond()}) {{", *block(depth + 1, indent + "  "), f"{indent}}}"]
        if r < 0.35:
            args = ", ".join(expr() for _ in range(rng.randint(1, 2)))
            return [f"{indent}{rng.choice(POINTERS)} = {rng.choice(CALLEES)}({args});"]
        if r < 0.45:
            value = "NULL" if nulls else f"{rng.choice(CALLEES)}(n)"
            return [f"{indent}{rng.choice(POINTERS)} = {value};"]
        if r < 0.6:
            p = rng.choice(POINTERS)
            return [f"{indent}{p}[{expr()}];" if rng.random() < 0.7 else f"{indent}*{p};"]
        if r < 0.75:
            fresh += 1
            return [f"{indent}int w{fresh} = {expr()};"]
        return [f"{indent}{rng.choice(INTS)} = {expr()};"]

    def block(depth: int, indent: str) -> list[str]:
        lines: list[str] = []
        while budget > 0 and rng.random() < 0.9:
            lines += statement(depth, indent)
        return lines

    lines = ["void big(int n, char *q) {"]
    lines += [f"  char *{p} = {'NULL' if nulls else 'malloc(n)'};" for p in POINTERS]
    lines += [f"  int {v} = {i};" for i, v in enumerate(INTS)]
    while budget > 0:
        lines += statement(0, "  ")
    return "\n".join([*lines, "  return v0;", "}", ""])


def pinned_cfgs() -> list:
    rng = random.Random(13)
    return [parse_function(large_function(rng, rng.randint(600, 1500))) for _ in range(12)]


def test_large_function_graphs_meet_the_interchange_schema():
    for cfg in pinned_cfgs():
        doc = dump_cfg(cfg)
        assert dump_cfg(load_cfg(doc)) == doc


def test_large_function_adjacency_equals_loaded_adjacency():
    for cfg in pinned_cfgs():
        assert_adjacency_survives_interchange(cfg)


def test_parsed_node_leaves_four_objects_for_the_collector():
    # a Statement, its uses set, its successor list and its predecessor list;
    # constants and operators are tuples of strings, which the collector
    # stops tracking. FIXED covers the Cfg, its instance dict where the
    # interpreter keeps one, and its node, successor and predecessor lists.
    FIXED = 8
    source = large_function(random.Random(13), 700)
    gc.collect()
    before = len(gc.get_objects())
    cfg = parse_function(source)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(cfg.nodes) >= 600
    assert added <= 4 * len(cfg.nodes) + FIXED, (added, len(cfg.nodes))


def test_large_function_outputs_are_pinned():
    cfgs = pinned_cfgs()
    assert all(600 <= len(cfg.nodes) <= 1500 for cfg in cfgs), [len(cfg.nodes) for cfg in cfgs]

    graphs, masks, features = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    vocab = build_vocabulary(cfgs, k=20)
    for cfg in cfgs:
        graphs.update(dump_cfg(cfg).encode())
        _, state = compute_gen_kill(cfg)
        solve(cfg, state)
        for row in (state.gen, state.kill, state.inb, state.out):
            masks.update(",".join(format(m, "x") for m in row).encode() + b"\n")
        features.update(encode(cfg, vocab).tobytes())
    labels = [oracle_label(cfg) for cfg in cfgs]

    assert graphs.hexdigest() == "1aec14835d01f384d567db5dfdd26c260cadf558723290475a6255a33425413b"
    assert masks.hexdigest() == "60b7140a2c01357afbf866b10e6e60fff7e1197cb205823382b4981ddbf38ebf"
    assert labels == [1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0]
    assert features.hexdigest() == "c89bde2b8bc82b66f2fc632a992162e120fa0ad0acfb4d6985a28e6e996acc41"
