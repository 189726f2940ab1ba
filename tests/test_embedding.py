import itertools
import os
import sys

import numpy as np
import pytest

from defreach.embedding import (
    PROPERTIES,
    RESERVED_SLOTS,
    SLOT_NONE,
    SLOT_UNKNOWN,
    Vocabulary,
    build_vocabulary,
    encode,
    one_hot,
    parse_mask,
)
from defreach.harness import synth_generate
from defreach.parser import parse_function

from conftest import FIG1_SRC

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def fn(body: str) -> "Cfg":
    return parse_function(f"void f(int n, int c) {{ {body} }}")


# Ranks every property value that TestProfiles expects, so each decodes from its slot.
PROFILE_VOCAB = Vocabulary(
    k=2,
    ranks={
        "api": ["malloc"],
        "datatype": ["char*", "int"],
        "constant": ["10", "NULL"],
        "operator": ["*", "+"],
    },
)


def profile(slots: np.ndarray, node: int) -> tuple:
    """The node's four property values from its encoded slots; None for NONE."""
    block = PROFILE_VOCAB.k + RESERVED_SLOTS
    values = []
    for j, prop in enumerate(PROPERTIES):
        slot = slots[node, j] - j * block
        assert 0 <= slot < block and slot != SLOT_UNKNOWN, f"{prop} slot {slot} is not NONE or ranked"
        values.append(None if slot == SLOT_NONE else PROFILE_VOCAB.ranks[prop][slot - RESERVED_SLOTS])
    return tuple(values)


class TestProfiles:
    def test_fig1_call_assign(self):
        slots = encode(parse_function(FIG1_SRC), PROFILE_VOCAB)
        assert profile(slots, 3) == ("malloc", "char*", "10", "*")

    def test_null_decl(self):
        slots = encode(parse_function(FIG1_SRC), PROFILE_VOCAB)
        assert profile(slots, 1) == (None, "char*", "NULL", None)

    def test_plain_arithmetic(self):
        slots = encode(fn("int a = 1; int b = 2; int x = a + b;"), PROFILE_VOCAB)
        assert profile(slots, 3) == (None, "int", None, "+")

    def test_non_definitions_have_no_profile(self):
        slots = encode(parse_function(FIG1_SRC), PROFILE_VOCAB)
        # not condition, deref, entry/exit
        assert list(np.flatnonzero((slots >= 0).any(axis=1))) == [1, 3]


class TestVocabulary:
    def test_frequency_ranking_truncated(self):
        corpus = [fn("char *p = malloc(1); p = malloc(2); p = malloc(3); p = malloc(4); p = malloc(5);")]
        corpus.append(fn("char *q = strlen(1); q = strlen(2); q = free(1);"))
        vocab = build_vocabulary(corpus, k=2)
        assert vocab.ranks["api"] == ["malloc", "strlen"]

    def test_tie_break_lexicographic(self):
        corpus = [fn("char *p = zzz(1); char *q = aaa(2);")]
        vocab = build_vocabulary(corpus, k=5)
        assert vocab.ranks["api"] == ["aaa", "zzz"]

    def test_empty_corpus(self):
        vocab = build_vocabulary([], k=3)
        assert all(vocab.ranks[p] == [] for p in PROPERTIES)
        assert vocab.columns[0] == {None: SLOT_NONE} and vocab.unknown[0] == SLOT_UNKNOWN
        slots = encode(fn("int x = 1; char *p = anything();"), vocab)
        assert (slots[1, 0], slots[2, 0]) == (SLOT_NONE, SLOT_UNKNOWN)  # api of x, api of p

    def test_k_larger_than_distinct_count(self):
        vocab = build_vocabulary([fn("char *p = malloc(1);")], k=100)
        assert vocab.ranks["api"] == ["malloc"]  # no padding

    def test_json_roundtrip(self):
        vocab = build_vocabulary([parse_function(FIG1_SRC)], k=4)
        again = Vocabulary.from_json(vocab.to_json())
        assert again.k == vocab.k and again.ranks == vocab.ranks

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            Vocabulary(k=3, ranks={"api": ["a", "a"]})

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            Vocabulary(k=0, ranks={})

    def test_rank_list_longer_than_k_rejected(self):
        with pytest.raises(ValueError, match=r"^datatype rank list longer than k=1$"):
            Vocabulary(k=1, ranks={"datatype": ["int", "char*"]})

    def test_boolean_k_rejected(self):
        with pytest.raises(ValueError, match="integer 'k'"):
            Vocabulary.from_json('{"k": true}')

    def test_ranks_passed_in_are_copied(self):
        ranks = {"api": ["malloc"]}
        vocab = Vocabulary(k=2, ranks=ranks)
        assert ranks == {"api": ["malloc"]}
        ranks["api"].append("free")
        assert vocab.ranks["api"] == ["malloc"] and vocab.columns[0].get("free") is None
        assert encode(fn("char *p = free();"), vocab)[1, 0] == vocab.unknown[0] == SLOT_UNKNOWN
        assert Vocabulary.from_json(vocab.to_json()) == vocab


class TestEncode:
    def make_vocab(self):
        return Vocabulary(
            k=3,
            ranks={
                "api": ["malloc"],
                "datatype": ["int", "char*"],
                "constant": ["10"],
                "operator": ["+", "-", "*"],
            },
        )

    def test_stated_layout_example(self):
        vocab = self.make_vocab()
        cfg = parse_function(FIG1_SRC)
        rows = one_hot(encode(cfg, vocab), vocab.row_width)
        block = vocab.k + 2
        row = rows[3]  # str = malloc(10 * argc)
        hot = np.flatnonzero(row)
        # block-local hot slots: api=2, datatype=3, constant=2, operator=4
        assert list(hot) == [0 * block + 2, 1 * block + 3, 2 * block + 2, 3 * block + 4]

    def test_slot_indices(self):
        vocab = self.make_vocab()
        block = vocab.k + 2
        slots = encode(parse_function(FIG1_SRC), vocab, parse_mask("api,datatype,operator"))
        assert slots.dtype == np.int64 and slots.shape == (6, 4)
        assert list(slots[3]) == [2, block + 3, -1, 3 * block + 4]  # constant masked off
        assert (slots[[0, 2, 4, 5]] == -1).all()  # not definitions

    def test_one_hot_renders_slots(self):
        slots = np.array([[0, 6, -1], [-1, -1, -1], [2, 4, 7]])
        rows = one_hot(slots, 8)
        assert rows.dtype == np.uint8
        assert rows.tolist() == [
            [1, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 1, 0, 0, 1],
        ]

    def test_condition_row_all_zero(self):
        vocab = self.make_vocab()
        rows = one_hot(encode(parse_function(FIG1_SRC), vocab), vocab.row_width)
        assert not rows[2].any()
        assert not rows[4].any()  # deref-use is not a definition either

    def test_unranked_api_hits_unknown_slot(self):
        vocab = self.make_vocab()
        rows = one_hot(encode(fn("char *y = user_fn();"), vocab), vocab.row_width)
        assert rows[1][1] == 1  # api block, slot 1 = UNKNOWN

    def test_absent_property_hits_none_slot(self):
        vocab = self.make_vocab()
        rows = one_hot(encode(fn("char *p = NULL;"), vocab), vocab.row_width)
        block = vocab.k + 2
        assert rows[1][0 * block + 0] == 1  # api absent -> NONE
        assert rows[1][3 * block + 0] == 1  # operator absent -> NONE

    def test_mask_zeroes_blocks(self):
        vocab = self.make_vocab()
        mask = parse_mask("datatype,operator")
        rows = one_hot(encode(parse_function(FIG1_SRC), vocab, mask), vocab.row_width)
        block = vocab.k + 2
        assert not rows[:, 0:block].any()  # api block off
        assert not rows[:, 2 * block : 3 * block].any()  # constant block off
        assert rows[3, block:2 * block].sum() == 1

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            parse_mask("api,banana")
        with pytest.raises(ValueError):
            parse_mask("")

    def test_row_width_constant_across_functions(self):
        vocab = self.make_vocab()
        a = one_hot(encode(fn("int x = 1;"), vocab), vocab.row_width)
        b = one_hot(encode(parse_function(FIG1_SRC), vocab), vocab.row_width)
        assert a.shape[1] == b.shape[1] == vocab.row_width == 4 * (vocab.k + 2)

    def test_exactly_one_hot_per_unmasked_block(self):
        from defreach.harness import synth_generate

        vocab = self.make_vocab()
        block = vocab.k + 2
        for e in synth_generate(30, seed=21):
            rows = one_hot(encode(e.cfg, vocab), vocab.row_width)
            for node, stmt in enumerate(e.cfg.nodes):
                sums = [rows[node, j * block : (j + 1) * block].sum() for j in range(4)]
                assert sums == ([1, 1, 1, 1] if stmt.is_definition() else [0, 0, 0, 0])

    def test_encode_is_pure_and_does_not_mutate_vocab(self):
        vocab = self.make_vocab()
        before = {p: list(vocab.ranks[p]) for p in PROPERTIES}
        cfg = fn("char *z = brand_new_api(99);")
        r1 = encode(cfg, vocab)
        r2 = encode(cfg, vocab)
        assert np.array_equal(r1, r2)
        assert vocab.ranks == before  # unseen values never leak into the vocabulary


def reference_encode(cfg, vocab, mask):
    """Node by node, slot by slot, with a linear search of the rank lists."""
    block = vocab.k + 2
    slots = np.full((len(cfg.nodes), 4), -1, dtype=np.int64)
    for node, stmt in enumerate(cfg.nodes):
        if not stmt.is_definition():
            continue
        values = (
            stmt.callee,
            stmt.decl_type,
            stmt.constants[0] if stmt.constants else None,
            stmt.operators[0] if stmt.operators else None,
        )
        for j, (prop, value) in enumerate(zip(PROPERTIES, values)):
            if mask[prop]:
                ranks = vocab.ranks[prop]
                slot = 0 if value is None else 2 + ranks.index(value) if value in ranks else 1
                slots[node, j] = j * block + slot
    return slots


def scan_large_corpus():
    """The functions of one draw of perfbench's scan-large workload (58..1250 nodes)."""
    sys.path.insert(0, PERFBENCH)
    try:
        import compose
        import workloads as W
    finally:
        sys.path.remove(PERFBENCH)
    pool = synth_generate(W.SCAN_POOL, seed=1)
    shapes = synth_generate(W.SCAN_POOL, seed=W.SHAPE_SEED)
    functions = compose.make_functions(
        pool, W.SCAN_FUNCTIONS, W.SCAN_DRAWS, W.SCAN_MIN_NODES, W.SCAN_MAX_NODES, shapes, 0
    )
    return [e.cfg for e in pool[: W.SCAN_TRAIN]], [parse_function(f.source) for f in functions]


CORPORA = {
    "synthetic": lambda: ([e.cfg for e in synth_generate(100, seed=31)],
                          [e.cfg for e in synth_generate(200, seed=32)]),
    "scan-large": scan_large_corpus,
}
MASKS = [
    {p: p in on for p in PROPERTIES}
    for r in range(1, len(PROPERTIES) + 1)
    for on in itertools.combinations(PROPERTIES, r)
]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_encode_matches_reference_under_every_mask(corpus):
    train, functions = CORPORA[corpus]()
    for k in (3, 1000):  # most values unknown; every value ranked
        vocab = build_vocabulary(train, k)
        for mask in MASKS:
            for cfg in functions:
                got = encode(cfg, vocab, mask)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, reference_encode(cfg, vocab, mask))
