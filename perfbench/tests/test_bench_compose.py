"""The composed-function generator: labels by construction, distinct variables."""

import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import compose  # noqa: E402
from defreach.harness import oracle_label, synth_generate  # noqa: E402
from defreach.parser import parse_function  # noqa: E402

POOL = synth_generate(60, seed=7)
SHAPES = synth_generate(60, seed=0)


def chunks_of(source):
    """Split a composed body back into chunks by the _k<j> suffix of its declarations."""
    per_chunk = {}
    for name in compose.declared(source.splitlines()):
        match = re.fullmatch(r"(.+)_k(\d+)", name)
        assert match, f"declared variable {name} has no chunk suffix"
        per_chunk.setdefault(int(match.group(2)), []).append(match.group(1))
    return per_chunk


def test_label_node_count_and_oracle_agree():
    functions = compose.make_functions(POOL, 12, seed=3, lo=30, hi=200, shape_pool=SHAPES, shape_seed=0)
    assert [f.label for f in functions].count(1) == 6
    for fn in functions:
        cfg = parse_function(fn.source)
        assert len(cfg.nodes) == fn.nodes
        assert oracle_label(cfg) == fn.label, fn.source


def test_vulnerable_functions_hold_exactly_one_vulnerable_chunk():
    by_lines = {compose.chunk_of(e).lines: e.label for e in POOL}
    rng = random.Random(0)
    safe = [compose.chunk_of(e) for e in POOL if e.label == 0]
    vulnerable = [compose.chunk_of(e) for e in POOL if e.label == 1]
    for _ in range(5):
        picked = rng.sample(safe, 4)
        assert compose.compose("f", picked).label == 0
        picked[rng.randrange(4)] = rng.choice(vulnerable)
        fn = compose.compose("f", picked)
        assert fn.label == 1
        assert sum(by_lines[c.lines] for c in picked) == 1
        assert oracle_label(parse_function(fn.source)) == 1


def test_each_chunk_declares_its_own_variables():
    chunk = compose.chunk_of(POOL[0])
    fn = compose.compose("twice", [chunk, chunk, chunk])  # the same chunk three times
    per_chunk = chunks_of(fn.source)
    assert sorted(per_chunk) == [0, 1, 2]
    original = sorted(compose.declared(chunk.lines))
    for names in per_chunk.values():
        assert sorted(names) == original
    declared = compose.declared(fn.source.splitlines())
    assert len(declared) == 3 * len(original)
    assert parse_function(fn.source).function == "twice"


def test_sizes_are_stratified_and_deterministic():
    a = compose.make_functions(POOL, 10, seed=5, lo=30, hi=300, shape_pool=SHAPES, shape_seed=1)
    b = compose.make_functions(POOL, 10, seed=5, lo=30, hi=300, shape_pool=SHAPES, shape_seed=1)
    assert [f.source for f in a] == [f.source for f in b]
    sizes = compose.log_uniform_sizes(10, 30, 300)
    ratios = [y / x for x, y in zip(sizes, sizes[1:])]
    assert max(ratios) - min(ratios) < 1e-9 and 30 < sizes[0] < sizes[-1] < 300
    largest_chunk = max(compose.chunk_of(e).nodes for e in POOL)
    assert all(30 <= f.nodes <= 300 + 2 * largest_chunk for f in a)


def test_every_seed_fills_the_same_skeleton():
    other = synth_generate(60, seed=8)
    a = compose.make_functions(POOL, 6, seed=1, lo=30, hi=200, shape_pool=SHAPES, shape_seed=0)
    b = compose.make_functions(other, 6, seed=2, lo=30, hi=200, shape_pool=SHAPES, shape_seed=0)
    assert [f.source for f in a] != [f.source for f in b]
    assert [f.source.count("while") for f in a] == [f.source.count("while") for f in b]
    assert all(abs(x.nodes - y.nodes) <= 0.1 * x.nodes for x, y in zip(a, b))
