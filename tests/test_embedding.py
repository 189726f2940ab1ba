import numpy as np
import pytest

from defreach.embedding import (
    PROPERTIES,
    DefinitionProfile,
    Vocabulary,
    build_vocabulary,
    encode,
    extract_profiles,
    one_hot,
    parse_mask,
)
from defreach.parser import parse_function

from conftest import FIG1_SRC


def fn(body: str) -> "Cfg":
    return parse_function(f"void f(int n, int c) {{ {body} }}")


class TestProfiles:
    def test_fig1_call_assign(self):
        profiles = extract_profiles(parse_function(FIG1_SRC))
        assert profiles[3] == DefinitionProfile(
            api="malloc", datatype="char*", constant="10", operator="*"
        )

    def test_null_decl(self):
        profiles = extract_profiles(parse_function(FIG1_SRC))
        p = profiles[1]
        assert (p.api, p.datatype, p.constant, p.operator) == (None, "char*", "NULL", None)

    def test_plain_arithmetic(self):
        cfg = fn("int a = 1; int b = 2; int x = a + b;")
        p = extract_profiles(cfg)[3]
        assert (p.api, p.datatype, p.constant, p.operator) == (None, "int", None, "+")

    def test_non_definitions_have_no_profile(self):
        profiles = extract_profiles(parse_function(FIG1_SRC))
        assert set(profiles) == {1, 3}  # not condition, deref, entry/exit


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
        assert vocab.slot("api", None) == 0
        assert vocab.slot("api", "anything") == 1

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
