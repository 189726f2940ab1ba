"""Large mini-C functions built from synthetic chunks, labelled by construction.

A composed function concatenates the bodies of ``synth_generate`` examples
(the chunks). Every variable a chunk declares gets the chunk's index as a
suffix, so no definition made in one chunk can reach a use in another: the
function is vulnerable iff one of its chunks is. A vulnerable function gets
exactly one vulnerable chunk, so its label is known without running the
analysis the benchmark measures.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

_DECLARED = re.compile(r"\b(?:int|char)\s*\*?\s*([A-Za-z_]\w*)\s*=")


@dataclass(frozen=True)
class Chunk:
    lines: tuple[str, ...]
    nodes: int  # CFG nodes of the body: the example's nodes minus entry, return and exit
    label: int


@dataclass(frozen=True)
class Composed:
    name: str
    source: str
    label: int
    nodes: int  # CFG nodes the parser must produce


def chunk_of(example) -> Chunk:
    """The body of a generated example, without its header and final return."""
    lines = example.source.splitlines()
    if len(lines) < 4 or lines[-2].strip() != "return;" or lines[-1] != "}":
        raise ValueError(f"unexpected example layout:\n{example.source}")
    return Chunk(tuple(lines[1:-2]), len(example.cfg.nodes) - 3, example.label)


def loops(chunk: Chunk) -> int:
    return sum(line.count("while") for line in chunk.lines)


def declared(lines) -> set[str]:
    return set(_DECLARED.findall("\n".join(lines)))


def rename(lines, index: int) -> list[str]:
    """Suffix every variable the chunk declares with ``_k<index>``."""
    names = declared(lines)
    if not names:
        return list(lines)
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, sorted(names))) + r")\b")
    return [pattern.sub(lambda m: f"{m.group(1)}_k{index}", line) for line in lines]


def compose(name: str, chunks: list[Chunk]) -> Composed:
    body = [line for j, chunk in enumerate(chunks) for line in rename(chunk.lines, j)]
    source = f"void {name}(int n, int c) {{\n" + "\n".join(body) + "\n    return;\n}\n"
    label = int(any(chunk.label for chunk in chunks))
    return Composed(name, source, label, 3 + sum(chunk.nodes for chunk in chunks))


def log_uniform_sizes(count: int, lo: float, hi: float) -> list[float]:
    """The midpoints of ``count`` equal-width strata of log size, smallest first.

    Every seed gets the same size profile, so the share of functions past a
    size-dependent defect and the size of the median function stay put; the
    seed picks the chunks, the labels and where the vulnerable chunk goes.
    """
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + 0.5) / count) for i in range(count)]


def shape(chunk: Chunk) -> tuple[int, int]:
    """What a chunk's cost depends on most: its loops, then its nodes."""
    return loops(chunk), chunk.nodes


def nearest(by_shape: dict, want: tuple[int, int], rng: random.Random) -> Chunk:
    """A random chunk of shape ``want``, else of the nearest shape, same loop count first."""
    key = min(by_shape, key=lambda k: (k[0] != want[0], abs(k[0] - want[0]), abs(k[1] - want[1]), k))
    return rng.choice(by_shape[key])


def skeletons(pool, count: int, lo: float, hi: float, rng: random.Random) -> list[list[tuple[int, int]]]:
    """For each of ``count`` functions of lo..hi CFG nodes, the shapes of its chunks in order.

    Each loop makes the dataflow solver revisit everything after it, so the
    cost of a function grows with its number of loops. Chunks are therefore
    drawn stratified by loop count: every prefix of a function holds each
    loop count in the pool's proportion, and only which chunk of that count
    comes next is random.
    """
    safe: dict[int, list[Chunk]] = defaultdict(list)
    for c in map(chunk_of, pool):
        if not c.label:
            safe[loops(c)].append(c)
    total = sum(len(v) for v in safe.values())
    share = {k: len(v) / total for k, v in sorted(safe.items())}
    result = []
    for target in log_uniform_sizes(count, lo, hi):
        picked: list[tuple[int, int]] = []
        taken: Counter = Counter()
        nodes = 3
        while nodes < target:
            k = max(share, key=lambda k: share[k] * (len(picked) + 1) - taken[k])
            taken[k] += 1
            picked.append(shape(rng.choice(safe[k])))
            nodes += picked[-1][1]
        result.append(picked)
    return result


def make_functions(
    pool, count: int, seed: int, lo: float, hi: float, shape_pool, shape_seed: int
) -> list[Composed]:
    """``count`` functions of lo..hi CFG nodes, half of them vulnerable.

    The chunk shapes come from ``skeletons`` of ``shape_pool``, drawn with
    ``shape_seed``, so every seed's i-th function has the same loops at the same
    places and, where ``pool`` has a chunk of each shape, the same size: its
    cost then varies little with the seed. The seed picks the chunk of each
    shape, the labels and where the vulnerable chunk goes.
    """
    safe: dict[tuple[int, int], list[Chunk]] = defaultdict(list)
    vulnerable: dict[tuple[int, int], list[Chunk]] = defaultdict(list)
    for c in map(chunk_of, pool):
        (vulnerable if c.label else safe)[shape(c)].append(c)
    if not safe or not vulnerable:
        raise ValueError("the chunk pool needs safe and vulnerable examples")
    rng = random.Random(seed)
    shapes = skeletons(shape_pool, count, lo, hi, random.Random(shape_seed))
    labels = [i % 2 for i in range(count)]
    rng.shuffle(labels)
    functions = []
    for i, wanted in enumerate(shapes):
        picked = [nearest(safe, want, rng) for want in wanted]
        if labels[i]:
            j = rng.randrange(len(picked))
            picked[j] = nearest(vulnerable, wanted[j], rng)
        functions.append(compose(f"big_{i}", picked))
    return functions
