import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defreach.cfg import (
    Cfg, CfgError, Statement, dump_cfg, load_cfg, predecessor_lists, read_text, write_text,
)
from defreach.harness import synth_generate
from defreach.parser import MAX_NESTING, ParseError, UnsupportedError, parse_function

from conftest import FIG1_SRC, assert_adjacency_survives_interchange


class TestFig1:
    def test_node_kinds_and_edges(self):
        cfg = parse_function(FIG1_SRC)
        kinds = [s.kind for s in cfg.nodes]
        assert kinds == ["nop", "decl-init", "condition", "call-assign", "deref-use", "nop"]
        # statement nodes v1..v4 are ids 1..4; edges v1->v2, v2->v3, v2->v4, v3->v4
        assert cfg.edges == {(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)}
        assert cfg.entry == 0 and cfg.exit == 5

    def test_properties_extracted_verbatim(self):
        cfg = parse_function(FIG1_SRC)
        v1, v2, v3, v4 = cfg.nodes[1:5]
        assert (v1.target, v1.decl_type, v1.constants) == ("str", "char*", ("NULL",))
        assert (v2.constants, v2.operators, v2.uses) == (("1",), (">",), {"argc"})
        assert (v3.callee, v3.constants, v3.operators) == ("malloc", ("10",), ("*",))
        assert v3.decl_type == "char*"  # resolved from the in-scope declaration
        assert (v4.kind, v4.uses) == ("deref-use", {"argc", "str"})
        assert v4.constants == ("10", "1") and v4.operators == ("*", "-")

    def test_branch_has_two_successors_then_first(self):
        cfg = parse_function(FIG1_SRC)
        assert cfg.successors(2) == [3, 4]  # then-block node first (lower id)


def test_empty_body():
    cfg = parse_function("void f() {}")
    assert len(cfg.nodes) == 2
    assert cfg.edges == {(0, 1)}
    assert cfg.entry == 0 and cfg.exit == 1


def test_while_golden_cfg():
    cfg = parse_function("void f(int n) { while (n > 0) { n = n - 1; } }")
    golden = Cfg(
        function="f",
        nodes=[
            Statement(kind="nop", code="<entry>"),
            Statement(kind="condition", code="n > 0", constants=("0",), operators=(">",), uses={"n"}),
            Statement(
                kind="assign", code="n = n - 1", target="n", decl_type="int",
                constants=("1",), operators=("-",), uses={"n"},
            ),
            Statement(kind="nop", code="<exit>"),
        ],
        preds=predecessor_lists(4, [(0, 1), (1, 2), (2, 1), (1, 3)]),
        entry=0,
        exit=3,
    )
    assert cfg.structurally_equal(golden)
    assert (2, 1) in cfg.edges  # back edge from body to header


@pytest.mark.parametrize(
    "body",
    [
        "if (c) {}",  # the join after the branch gets the condition twice
        "while (c) {}",  # a self-loop
        "while (c) { if (d) { x = 1; } }",  # a back edge leaves d, whose successor x was added first
        "if (c) { x = 1; } else { while (d) { x = 2; } } x = 3;",
    ],
)
def test_parser_adjacency_equals_loaded_adjacency(body):
    cfg = parse_function(f"void f(int c, int d, int x) {{ {body} }}")
    assert_adjacency_survives_interchange(cfg)


def test_parser_adjacency_equals_loaded_adjacency_on_the_synthetic_corpus():
    for e in synth_generate(200, seed=0):
        assert_adjacency_survives_interchange(e.cfg)


def test_duplicate_and_unsorted_predecessors_are_merged():
    cfg = parse_function("void f(int c) { if (c) {} }")
    assert cfg.predecessors(2) == [1] and cfg.successors(1) == [2]
    nodes = [Statement(kind="nop") for _ in range(4)]
    cfg = Cfg(function="f", nodes=nodes, preds=[[], [0], [0], [2, 1, 2]], entry=0, exit=3)
    assert cfg.predecessors(3) == [1, 2]
    assert cfg.successors(0) == [1, 2]
    assert cfg.edge_array.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert cfg.edges == {(0, 1), (0, 2), (1, 3), (2, 3)}


@pytest.mark.parametrize("preds", [[[], [2]], [[], [-1]]], ids=["past-the-end", "negative"])
def test_dangling_predecessor_rejected(preds):
    nodes = [Statement(kind="nop"), Statement(kind="nop")]
    with pytest.raises(CfgError, match="dangling edge"):
        Cfg(function="f", nodes=nodes, preds=preds, entry=0, exit=1)


def test_wrong_number_of_predecessor_lists_rejected():
    nodes = [Statement(kind="nop"), Statement(kind="nop")]
    with pytest.raises(CfgError, match=r"^1 predecessor lists for 2 nodes$"):
        Cfg(function="f", nodes=nodes, preds=[[]], entry=0, exit=1)


def test_entry_or_exit_out_of_range_rejected():
    nodes = [Statement(kind="nop"), Statement(kind="nop")]
    for entry, exit_ in ((0, 2), (-1, 1)):
        cfg = Cfg(function="f", nodes=nodes, preds=[[], [0]], entry=entry, exit=exit_)
        with pytest.raises(CfgError, match=r"^entry/exit id out of range for 2 nodes$"):
            cfg.validate()


def test_self_loop_sink_cannot_reach_exit():
    nodes = [Statement(kind="nop") for _ in range(4)]
    cfg = Cfg(function="f", nodes=nodes, preds=[[], [0], [1, 2], [1]], entry=0, exit=3)
    with pytest.raises(CfgError, match=r"^exit unreachable from nodes: \[2\]$"):
        cfg.validate()


def test_parse_deterministic():
    assert dump_cfg(parse_function(FIG1_SRC)) == dump_cfg(parse_function(FIG1_SRC))


def test_every_definition_kind_has_target():
    cfg = parse_function(FIG1_SRC)
    for stmt in cfg.nodes:
        assert stmt.is_definition() == (stmt.target is not None)


class TestInterchange:
    def test_roundtrip_fig1(self):
        cfg = parse_function(FIG1_SRC)
        doc = dump_cfg(cfg)
        assert load_cfg(doc).structurally_equal(cfg)
        assert dump_cfg(load_cfg(doc)) == doc  # byte-for-byte after canonicalization

    def test_dangling_edge(self):
        import json

        doc = json.loads(dump_cfg(parse_function("void f() {}")))
        doc["edges"] = [[0, 99]]
        with pytest.raises(CfgError, match="dangling"):
            load_cfg(json.dumps(doc))

    def test_schema_violation_has_field_path(self):
        with pytest.raises(CfgError, match=r"\$\.nodes"):
            load_cfg('{"function": "f", "nodes": [42], "edges": [], "entry": 0, "exit": 0}')
        with pytest.raises(CfgError, match="missing field"):
            load_cfg('{"function": "f"}')
        doc = (
            '{"function": "f", "nodes": [{"id": 0, "kind": "nop"}, {"id": 1, "kind": "nop"}], '
            '"edges": [[0, 1]], "entry": 0, "exit": 1}'
        )
        load_cfg(doc)
        for old, new, path in [
            ('"id": 1', '"id": "a"', r"\$\.nodes\[1\]\.id"),
            ('"kind": "nop"}]', '"kind": ["nop"]}]', r"\$\.nodes\[1\]\.kind"),
            ('"kind": "nop"}]', '"kind": "nop", "code": 7}]', r"\$\.nodes\[1\]\.code"),
            # a node has a target exactly when its kind is a definition
            ('"kind": "nop"}]', '"kind": "assign"}]', r"\$\.nodes\[1\]\.target: required for kind 'assign'"),
            ('"kind": "nop"}]', '"kind": "nop", "target": "x"}]', r"\$\.nodes\[1\]\.target: must be null"),
            # JSON booleans are not ints
            ("[[0, 1]]", "[[false, true]]", r"\$\.edges\[0\]: must be a \[from, to\] pair of ints"),
            ('"entry": 0', '"entry": true', r"\$\.entry: must be an int"),
            ('"exit": 1', '"exit": true', r"\$\.exit: must be an int"),
            # entry and exit name nodes
            ('"exit": 1', '"exit": 5', r"\$\.exit: id 5 out of range for 2 nodes"),
            ('"entry": 0', '"entry": -1', r"\$\.entry: id -1 out of range for 2 nodes"),
            ('[{"id": 0, "kind": "nop"}, {"id": 1, "kind": "nop"}], "edges": [[0, 1]]', '[], "edges": []',
             r"\$\.entry: id 0 out of range for 0 nodes"),
        ]:
            assert doc.count(old) == 1
            with pytest.raises(CfgError, match=path):
                load_cfg(doc.replace(old, new))

    def test_random_roundtrip(self):
        from defreach.harness import synth_generate

        for e in synth_generate(200, seed=7):
            doc = dump_cfg(e.cfg)
            assert load_cfg(doc).structurally_equal(e.cfg)


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_function("void f() {\n  int x = ;\n}")
        assert exc.value.line == 2
        # comments are skipped when counting tokens; the end of input has a position too
        with pytest.raises(ParseError) as exc:
            parse_function("// a\nvoid f() { // b\n  int x = ; }")
        assert (exc.value.line, exc.value.col) == (3, 11)
        with pytest.raises(ParseError, match="end of input") as exc:
            parse_function("void f() {\n  int x = 1;\n  ")
        assert (exc.value.line, exc.value.col) == (3, 3)

    @pytest.mark.parametrize(
        "source,message",
        [
            ("f() { return; }", "1:1: expected return type, found 'f'"),
            ("void f(int n { return; }", "1:14: expected ')', found '{'"),
            ("void (int n) { return; }", "1:6: expected identifier, found '('"),
            ("void f(int n, x) { return; }", "1:15: expected parameter type, found 'x'"),
            ("void f() { 3 = x; }", "1:12: unexpected token '3'"),
            ("void f() { int y = 2, z = 3; }", "1:21: unsupported construct: multiple declarators in one declaration"),
            ("void f() { int y, z = 3; }", "1:17: unsupported construct: multiple declarators in one declaration"),
        ],
        ids=["no-return-type", "unclosed-parameters", "no-name", "untyped-parameter", "number-statement",
             "second-declarator", "uninitialised-first-declarator"],
    )
    def test_error_message_and_position(self, source, message):
        with pytest.raises(ParseError) as exc:
            parse_function(source)
        assert str(exc.value) == message
        assert f"{exc.value.line}:{exc.value.col}: " == message[: message.index(" ") + 1]

    @pytest.mark.parametrize(
        "source,construct",
        [
            ("void f() { int x = 1, y = 2; }", "declarator"),
            ("void f() { int x; }", "initializer"),
            ("void f(int n) { int x = g(h(n)); }", "nested"),
            ("void f(int n) { char *p = NULL; p[0] = 1; }", "dereference"),
            ("void f(int n) { n; }", "expression statement"),
        ],
    )
    def test_unsupported_constructs_are_named(self, source, construct):
        with pytest.raises(UnsupportedError, match=construct):
            parse_function(source)

    def test_nesting_limit_counts_blocks_and_expressions_together(self):
        # the function body is the first level
        inner = MAX_NESTING - 2
        ok = "void f(int n) { if (n) { n = " + "(" * inner + "n" + ")" * inner + "; } }"
        parse_function(ok)
        prefix = "void f(int n) { if (n) { n = "
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            parse_function(prefix + "(" * (inner + 1) + "n" + ")" * (inner + 1) + "; } }")
        assert exc.value.col == len(prefix) + inner + 1  # the '(' that opened the extra level

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_function("void f() { int x = 1 @ 2; }")

    def test_non_ascii_letters_are_unexpected_and_digits_are_numbers(self):
        with pytest.raises(ParseError, match="unexpected character 'é'"):
            parse_function("void f() { int é = 1; }")
        cfg = parse_function("void f() { int x٣ = ٣4; }")  # \w and \d are Unicode-aware
        assert (cfg.nodes[1].target, cfg.nodes[1].constants) == ("x٣", ("٣4",))

    @pytest.mark.parametrize(
        "source,line,col",
        [
            ("void f() { return; int x = 1; }", 1, 20),
            ("void f(int n) {\n  if (n) { return; } else { return; }\n  n = 1;\n}", 3, 3),
            ("void f(int n) {\n  while (n) { return 1; n = 2; }\n}", 2, 25),
        ],
        ids=["after-return", "after-if-else-both-returning", "in-while-body"],
    )
    def test_unreachable_statement_is_positioned(self, source, line, col):
        with pytest.raises(ParseError, match="unreachable statement after return") as exc:
            parse_function(source)
        assert (exc.value.line, exc.value.col) == (line, col)


# Positions are worked out only when an error is raised; these properties pin
# them down on realistic functions.
SYNTH_SOURCES = [e.source for e in synth_generate(12, seed=5)]
# Token spans of a synthetic source (ASCII, no "/"), found independently of
# the lexer: a boundary is where a token starts or ends.
SYNTH_TOKEN_RE = re.compile(r"\w+|[<>=!]=|&&|\|\||\S")


# Half as many examples again as the profile's budget: 150 in tier-1, and
# ten times that under CI's --hypothesis-profile=ci (conftest.py).
@settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
@given(st.sampled_from(SYNTH_SOURCES), st.sampled_from('@#$?~^:`"'), st.data())
def test_unexpected_character_reports_its_offset(source, char, data):
    offset = data.draw(st.integers(0, len(source)))
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse_function(source[:offset] + char + source[offset:])
    lines_before = source[:offset].split("\n")
    assert (exc.value.line, exc.value.col) == (len(lines_before), len(lines_before[-1]) + 1)


@settings(deadline=None)
@given(st.sampled_from(SYNTH_SOURCES), st.data())
def test_whitespace_and_comments_between_tokens_leave_the_cfg_alone(source, data):
    boundaries = sorted(
        {0, len(source)} | {b for m in SYNTH_TOKEN_RE.finditer(source) for b in m.span()}
    )
    picked = data.draw(st.lists(st.sampled_from(boundaries), min_size=1, max_size=12, unique=True))
    blanks = [" ", "\t", "\r\n", "\f", "\v", "\u00a0", "\u3000", "// note\n"]
    runs = st.lists(st.sampled_from(blanks), min_size=1, max_size=4)
    noisy = source
    for b in sorted(picked, reverse=True):
        noisy = noisy[:b] + "".join(data.draw(runs)) + noisy[b:]
    assert dump_cfg(parse_function(noisy)) == dump_cfg(parse_function(source))


# The lexer consumes the whitespace before each token inside the token's own
# match. Its pattern ends in an end-of-input alternative: without it a run of
# trailing whitespace would be rescanned from each of its positions, in time
# quadratic in the run's length, and these 200k-character runs would hang.
LONG_RUNS = {"spaces": " " * 200_000, "newlines": "\n" * 200_000, "mixed": " \t\n" * 70_000}


@pytest.mark.parametrize("run", LONG_RUNS.values(), ids=LONG_RUNS.keys())
def test_long_whitespace_runs_parse_in_linear_time(run):
    source = "void f(int n) { n = n + 1; }"
    graph = dump_cfg(parse_function(source))
    assert dump_cfg(parse_function(source + run)) == graph  # at the end
    assert dump_cfg(parse_function(source.replace("+ ", "+" + run))) == graph  # between two tokens
    assert dump_cfg(parse_function(source + run + "// no newline")) == graph
    with pytest.raises(ParseError, match="trailing input") as exc:  # positions count the run too
        parse_function(source + run + "n")
    lines = (source + run).split("\n")
    assert (exc.value.line, exc.value.col) == (len(lines), len(lines[-1]) + 1)


def test_trailing_comment_without_newline():
    source = "void f(int n) { n = n + 1; }"
    assert dump_cfg(parse_function(source + "// " + "x" * 200_000)) == dump_cfg(parse_function(source))
    with pytest.raises(ParseError, match="end of input") as exc:
        parse_function("void f(int n) { n = n + 1; // }")
    assert (exc.value.line, exc.value.col) == (1, 32)


class TestTextFiles:
    def test_write_text_writes_utf8(self, tmp_path):
        path = tmp_path / "f.c"
        write_text(str(path), "int café = 1;\n")
        assert path.read_bytes() == b"int caf\xc3\xa9 = 1;\n"

    def test_read_text_reads_crlf_and_cr_as_lf(self, tmp_path):
        path = tmp_path / "f.c"
        path.write_bytes(b"a\r\nb\rc\n\xc3\xa9")
        assert read_text(str(path)) == "a\nb\nc\n\u00e9"

    @pytest.mark.parametrize(
        "data,position,byte",
        [
            (b"\xff", "1:1", "0xff"),
            (b"ab\r\n\xc3\xa9\xc3\xa9\x80", "2:3", "0x80"),  # columns count characters
            (b"a\rb\rc\xc3", "3:2", "0xc3"),  # a truncated sequence at the end
            (b"\xed\xa0\x80", "1:1", "0xed"),  # an encoded surrogate is not UTF-8
        ],
        ids=["first", "after-crlf-and-multibyte", "truncated-after-cr", "surrogate"],
    )
    def test_read_text_names_the_first_bad_byte(self, tmp_path, data, position, byte):
        path = tmp_path / "f.c"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            read_text(str(path))
        assert str(exc.value) == f"{path}:{position}: not valid UTF-8: byte {byte}"
