"""Recursive-descent parser for the mini-C subset, producing a Cfg.

Grammar (EBNF in docs/grammar.ebnf): one function per source text;
declarations with initializers, assignments, call assignments, if/else,
while, pointer-dereference expression statements, and return. Condition
expressions become their own CFG nodes; entry/exit are synthetic nops.

The lexer makes one regex pass over the source and yields two parallel
lists, token texts and token kinds; the parser walks them by index. A
token's line and column are worked out only when an error is raised at it.
"""

from __future__ import annotations

import re
from itertools import islice

from .cfg import Cfg, Statement


# Blocks and nested expressions share one depth counter, kept well below the
# interpreter's recursion limit (a block level costs three parser frames).
MAX_NESTING = 200

TYPE_KEYWORDS = {"int", "char", "float", "double", "void", "long"}
KEYWORDS = TYPE_KEYWORDS | {"if", "else", "while", "return", "NULL"}
_OPERATORS = ("<=", ">=", "==", "!=", "&&", "||", *"-+*/%<>!=")

# Group 1 is a token; a comment matches with no group and whitespace is never
# matched, so findall skips both. The catch-all \S is an unexpected character.
_TOKEN_RE = re.compile(
    r"""
    //[^\n]*
  | ( \d+
    | [A-Za-z_]\w*
    | <=|>=|==|!=|&&|\|\||[-+*/%<>!=]
    | [()\[\]{};,]
    | \S
    )
    """,
    re.VERBOSE,
)

# Kinds: num | ident | keyword | op | punct | eof. Keywords, operators and
# punctuation are known by their text, numbers and identifiers by their
# first character.
_KIND_OF_TEXT = {
    **{k: "keyword" for k in KEYWORDS},
    **{o: "op" for o in _OPERATORS},
    **{p: "punct" for p in "()[]{};,"},
}
_KIND_OF_FIRST = {
    **{c: "ident" for c in "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"},
    **{c: "num" for c in "0123456789"},
}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnsupportedError(ParseError):
    def __init__(self, construct: str, line: int, col: int):
        super().__init__(f"unsupported construct: {construct}", line, col)
        self.construct = construct


def _lex(source: str) -> tuple[list[str], list[str]]:
    """Token texts and kinds, each list ending with the eof sentinel ("", "eof")."""
    texts = [t for t in _TOKEN_RE.findall(source) if t]  # a comment matches as ""
    kinds = [_KIND_OF_TEXT.get(t) or _KIND_OF_FIRST.get(t[0], "?") for t in texts]
    if "?" in kinds:
        for i, text in enumerate(texts):
            if kinds[i] == "?":
                if not text[0].isdecimal():  # \d also matches non-ASCII digits
                    raise ParseError(f"unexpected character {text!r}", *_position(source, i))
                kinds[i] = "num"
    texts.append("")
    kinds.append("eof")
    return texts, kinds


def _position(source: str, i: int) -> tuple[int, int]:
    """1-based line and column of token ``i`` of ``_lex(source)``; the eof token is at the end."""
    starts = (m.start() for m in _TOKEN_RE.finditer(source) if m.lastindex)
    start = next(islice(starts, i, None), len(source))
    return source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start)


class _ExprInfo:
    """Accumulates the properties read off an expression."""

    def __init__(self):
        self.constants: list[str] = []
        self.operators: list[str] = []
        self.uses: set[str] = set()
        self.text_parts: list[str] = []


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.texts, self.kinds = _lex(source)
        self.i = 0
        self.depth = 0  # open blocks and nested expressions
        self.types: dict[str, str] = {}  # in-scope declarations

    # -- token helpers -------------------------------------------------
    def pos(self, i: int) -> tuple[int, int]:
        return _position(self.source, i)

    def advance(self) -> int:
        self.i += 1
        return self.i - 1

    def expect(self, text: str) -> int:
        if self.texts[self.i] != text:
            found = self.texts[self.i] or "end of input"
            raise ParseError(f"expected {text!r}, found {found!r}", *self.pos(self.i))
        return self.advance()

    def expect_ident(self) -> int:
        if self.kinds[self.i] != "ident":
            found = self.texts[self.i] or "end of input"
            raise ParseError(f"expected identifier, found {found!r}", *self.pos(self.i))
        return self.advance()

    def open_level(self, i: int) -> None:
        """Enter a nesting level opened by token ``i``; the caller decrements ``depth`` on leaving."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", *self.pos(i))

    def at_type(self) -> bool:
        return self.kinds[self.i] == "keyword" and self.texts[self.i] in TYPE_KEYWORDS

    def parse_type(self) -> str:
        base = self.texts[self.advance()]
        stars = ""
        while self.texts[self.i] == "*":
            self.advance()
            stars += "*"
        return base + stars

    # -- function ------------------------------------------------------
    def parse_function(self) -> Cfg:
        if not self.at_type():
            raise ParseError(
                f"expected return type, found {self.texts[self.i]!r}", *self.pos(self.i)
            )
        self.parse_type()
        name = self.texts[self.expect_ident()]
        self.expect("(")
        if self.texts[self.i] != ")":
            while True:
                if not self.at_type():
                    raise ParseError(
                        f"expected parameter type, found {self.texts[self.i]!r}",
                        *self.pos(self.i),
                    )
                ptype = self.parse_type()
                pname = self.texts[self.expect_ident()]
                self.types[pname] = ptype
                if self.texts[self.i] != ",":
                    break
                self.advance()
        self.expect(")")

        builder = _CfgBuilder(name)
        dangling = self.parse_block(builder, [0])  # the entry node
        if self.kinds[self.i] != "eof":
            raise ParseError(
                f"trailing input after function body: {self.texts[self.i]!r}",
                *self.pos(self.i),
            )
        cfg = builder.finish(dangling)
        cfg.validate()
        return cfg

    # -- statements ----------------------------------------------------
    def parse_block(self, builder: "_CfgBuilder", preds: list[int]) -> list[int]:
        self.open_level(self.expect("{"))
        while self.texts[self.i] != "}":
            if self.kinds[self.i] == "eof":
                raise ParseError("unexpected end of input in block", *self.pos(self.i))
            if not preds:  # every path through the previous statement returned
                raise ParseError("unreachable statement after return", *self.pos(self.i))
            preds = self.parse_statement(builder, preds)
        self.expect("}")
        self.depth -= 1
        return preds

    def parse_statement(self, builder: "_CfgBuilder", preds: list[int]) -> list[int]:
        text = self.texts[self.i]
        if text == "if":
            return self.parse_if(builder, preds)
        if text == "while":
            return self.parse_while(builder, preds)
        if text == "return":
            self.parse_return(builder, preds)
            return []
        if self.at_type():
            return [builder.add(self.parse_decl(), preds)]
        return [builder.add(self.parse_simple(), preds)]

    def parse_if(self, builder: "_CfgBuilder", preds: list[int]) -> list[int]:
        self.expect("if")
        self.expect("(")
        cond = self.parse_condition()
        self.expect(")")
        cond_id = builder.add(cond, preds)
        then_out = self.parse_block(builder, [cond_id])
        if self.texts[self.i] == "else":
            self.advance()
            else_out = self.parse_block(builder, [cond_id])
            return then_out + else_out
        return then_out + [cond_id]

    def parse_while(self, builder: "_CfgBuilder", preds: list[int]) -> list[int]:
        self.expect("while")
        self.expect("(")
        cond = self.parse_condition()
        self.expect(")")
        cond_id = builder.add(cond, preds)
        body_out = self.parse_block(builder, [cond_id])
        for v in body_out:  # back edge(s) to the loop header
            builder.edges.add((v, cond_id))
        return [cond_id]

    def parse_condition(self) -> Statement:
        info = _ExprInfo()
        self.parse_expr(info)
        return Statement(
            kind="condition",
            code="".join(info.text_parts),
            constants=info.constants,
            operators=info.operators,
            uses=info.uses,
        )

    def parse_return(self, builder: "_CfgBuilder", preds: list[int]) -> None:
        self.expect("return")
        info = _ExprInfo()
        if self.texts[self.i] != ";":
            self.parse_expr(info)
        self.expect(";")
        stmt = Statement(
            kind="return",
            code=("return " + "".join(info.text_parts)).strip(),
            constants=info.constants,
            operators=info.operators,
            uses=info.uses,
        )
        node = builder.add(stmt, preds)
        builder.returns.append(node)

    def parse_decl(self) -> Statement:
        start = self.i
        decl_type = self.parse_type()
        name = self.texts[self.expect_ident()]
        if self.texts[self.i] == ",":
            raise UnsupportedError("multiple declarators in one declaration", *self.pos(self.i))
        if self.texts[self.i] != "=":
            raise UnsupportedError("declaration without initializer", *self.pos(start))
        self.advance()
        self.types[name] = decl_type
        stmt = self.parse_def_rhs(name, decl_type, "decl-init", f"{decl_type} {name} = ")
        if self.texts[self.i] == ",":
            raise UnsupportedError("multiple declarators in one declaration", *self.pos(self.i))
        self.expect(";")
        return stmt

    def parse_simple(self) -> Statement:
        i, text, kind = self.i, self.texts[self.i], self.kinds[self.i]
        if text == "*" or (kind == "ident" and self.texts[i + 1] == "["):
            return self.parse_deref_stmt()
        if kind != "ident":
            raise ParseError(f"unexpected token {text!r}", *self.pos(i))
        if self.texts[i + 1] != "=":
            raise UnsupportedError(
                f"expression statement {text!r} without assignment or dereference",
                *self.pos(i),
            )
        self.i += 2  # the name and '='
        stmt = self.parse_def_rhs(text, self.types.get(text), None, f"{text} = ")
        self.expect(";")
        return stmt

    def parse_def_rhs(
        self, target: str, decl_type: str | None, kind: str | None, prefix: str
    ) -> Statement:
        """Parse the right-hand side of a definition; detects call assignments."""
        callee = None
        info = _ExprInfo()
        if self.kinds[self.i] == "ident" and self.texts[self.i + 1] == "(":
            callee = self.texts[self.i]
            self.i += 2  # the callee and '('
            info.text_parts.append(callee + "(")
            if self.texts[self.i] != ")":
                while True:
                    self.parse_expr(info)
                    if self.texts[self.i] != ",":
                        break
                    self.advance()
                    info.text_parts.append(", ")
            self.expect(")")
            info.text_parts.append(")")
            kind = "call-assign"
        else:
            self.parse_expr(info)
            if kind is None:
                kind = "assign"
        return Statement(
            kind=kind,
            code=prefix + "".join(info.text_parts),
            target=target,
            decl_type=decl_type,
            callee=callee,
            constants=info.constants,
            operators=info.operators,
            uses=info.uses,
        )

    def parse_deref_stmt(self) -> Statement:
        """A statement starting ``*x`` or ``x[``, the only ones ``parse_simple`` sends here."""
        info = _ExprInfo()
        self.parse_expr(info)
        if self.texts[self.i] == "=":
            raise UnsupportedError("assignment through a dereference", *self.pos(self.i))
        self.expect(";")
        return Statement(
            kind="deref-use",
            code="".join(info.text_parts),
            constants=info.constants,
            operators=info.operators,
            uses=info.uses,
        )

    # -- expressions ---------------------------------------------------
    def parse_expr(self, info: _ExprInfo) -> None:
        self.parse_atom(info)
        while self.kinds[self.i] == "op" and self.texts[self.i] not in ("!", "="):
            op = self.texts[self.advance()]
            info.operators.append(op)
            info.text_parts.append(f" {op} ")
            self.parse_atom(info)

    def parse_atom(self, info: _ExprInfo) -> None:
        i, text, kind = self.i, self.texts[self.i], self.kinds[self.i]
        if text == "(":
            self.open_level(self.advance())
            info.text_parts.append("(")
            self.parse_expr(info)
            self.expect(")")
            info.text_parts.append(")")
            self.depth -= 1
        elif text == "*":
            self.advance()
            name = self.texts[self.expect_ident()]
            info.uses.add(name)
            info.text_parts.append(f"*{name}")
        elif text == "!":
            self.open_level(self.advance())
            info.operators.append("!")
            info.text_parts.append("!")
            self.parse_atom(info)
            self.depth -= 1
        elif kind == "num":
            self.advance()
            info.constants.append(text)
            info.text_parts.append(text)
        elif text == "NULL":
            self.advance()
            info.constants.append("NULL")
            info.text_parts.append("NULL")
        elif kind == "ident":
            self.advance()
            info.uses.add(text)
            info.text_parts.append(text)
            if self.texts[self.i] == "[":
                self.open_level(self.advance())
                info.text_parts.append("[")
                self.parse_expr(info)
                self.expect("]")
                info.text_parts.append("]")
                self.depth -= 1
            elif self.texts[self.i] == "(":
                raise UnsupportedError(
                    f"call to {text!r} nested inside an expression", *self.pos(i)
                )
        else:
            raise ParseError(
                f"unexpected token {text or 'end of input'!r} in expression", *self.pos(i)
            )


class _CfgBuilder:
    """Collects statement nodes in source order and their edges; ``finish`` builds the Cfg."""

    def __init__(self, function: str):
        self.function = function
        self.nodes = [Statement(kind="nop", code="<entry>")]
        self.edges: set[tuple[int, int]] = set()
        self.returns: list[int] = []

    def add(self, stmt: Statement, preds: list[int]) -> int:
        node = len(self.nodes)
        self.nodes.append(stmt)
        self.edges.update((p, node) for p in preds)
        return node

    def finish(self, dangling: list[int]) -> Cfg:
        exit_id = self.add(Statement(kind="nop", code="<exit>"), dangling + self.returns)
        return Cfg(self.function, self.nodes, self.edges, 0, exit_id)


def parse_function(source: str) -> Cfg:
    """Parse one mini-C function into its control-flow graph."""
    return _Parser(source).parse_function()
