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

from .cfg import Cfg, Statement, line_col


# Blocks and nested expressions share one depth counter, kept well below the
# interpreter's recursion limit (a block level costs three parser frames).
MAX_NESTING = 200

TYPE_KEYWORDS = {"int", "char", "float", "double", "void", "long"}
KEYWORDS = TYPE_KEYWORDS | {"if", "else", "while", "return", "NULL"}
_OPERATORS = ("<=", ">=", "==", "!=", "&&", "||", *"-+*/%<>!=")
_BINARY_OPERATORS = frozenset(_OPERATORS) - {"!", "="}

# Each match consumes the whitespace before it and then a comment, a token
# (group 1) or the end of the input, so whitespace costs no match attempt of
# its own; findall yields "" for a comment and for the end. The catch-all \S
# is an unexpected character. Without the \Z alternative a run of trailing
# whitespace would be rescanned from each of its positions: quadratic time.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?: //[^\n]*
      | ( \d+
        | [A-Za-z_]\w*
        | <=|>=|==|!=|&&|\|\||[-+*/%<>!=]
        | [()\[\]{};,]
        | \S
        )
      | \Z
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
    texts = [t for t in _TOKEN_RE.findall(source) if t]
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
    starts = (m.start(1) for m in _TOKEN_RE.finditer(source) if m.lastindex)
    return line_col(source, next(islice(starts, i, None), len(source)))


class _ExprInfo:
    """Accumulates the properties read off an expression."""

    __slots__ = ("constants", "operators", "uses", "text_parts")

    def __init__(self):
        self.constants: list[str] = []
        self.operators: list[str] = []
        self.uses: set[str] = set()
        self.text_parts: list[str] = []

    def statement(
        self, kind: str, prefix: str = "", target: str | None = None,
        decl_type: str | None = None, callee: str | None = None,
    ) -> Statement:
        """The statement whose code is ``prefix`` then the expression's text;
        a definition also gives its target, type and callee."""
        code = prefix + "".join(self.text_parts)
        # positional, in Statement's field order: this runs once per parsed node,
        # and passing keywords slowed parsing the scan-large functions by 1-4%
        return Statement(
            kind, code, target, decl_type, callee, tuple(self.constants), tuple(self.operators), self.uses
        )


class _Parser:
    """Walks the token lists by index, adding each statement's node and its
    predecessor list as it goes. The hot paths step ``self.i`` themselves
    rather than through a helper method, which a scan-large sweep called
    about 170k times."""

    def __init__(self, source: str):
        self.source = source
        self.texts, self.kinds = _lex(source)
        self.i = 0
        self.depth = 0  # open blocks and nested expressions
        self.types: dict[str, str] = {}  # in-scope declarations
        self.nodes = [Statement(kind="nop", code="<entry>")]  # in source order
        self.preds: list[list[int]] = [[]]  # per node, the Cfg's predecessor lists
        self.returns: list[int] = []  # return nodes, each an in-edge of the exit

    def add(self, stmt: Statement, preds: list[int]) -> int:
        """Add ``stmt`` as the next node, with an edge from each of ``preds``.

        The node keeps the list itself: no caller uses it again, but for a
        loop header, whose back edges ``parse_while`` appends to it.
        """
        node = len(self.nodes)
        self.nodes.append(stmt)
        self.preds.append(preds)
        return node

    # -- token helpers -------------------------------------------------
    def pos(self, i: int) -> tuple[int, int]:
        return _position(self.source, i)

    def expect(self, text: str) -> int:
        i = self.i
        if self.texts[i] != text:
            found = self.texts[i] or "end of input"
            raise ParseError(f"expected {text!r}, found {found!r}", *self.pos(i))
        self.i = i + 1
        return i

    def expect_ident(self) -> str:
        i = self.i
        if self.kinds[i] != "ident":
            found = self.texts[i] or "end of input"
            raise ParseError(f"expected identifier, found {found!r}", *self.pos(i))
        self.i = i + 1
        return self.texts[i]

    def open_level(self, i: int) -> None:
        """Enter a nesting level opened by token ``i``; the caller decrements ``depth`` on leaving."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", *self.pos(i))

    def parse_type(self) -> str:
        """A type keyword, which the caller has seen, and its stars."""
        start = self.i
        end = start + 1
        while self.texts[end] == "*":
            end += 1
        self.i = end
        return self.texts[start] + "*" * (end - start - 1)

    # -- function ------------------------------------------------------
    def parse_function(self) -> Cfg:
        if self.texts[self.i] not in TYPE_KEYWORDS:
            raise ParseError(
                f"expected return type, found {self.texts[self.i]!r}", *self.pos(self.i)
            )
        self.parse_type()
        name = self.expect_ident()
        self.expect("(")
        if self.texts[self.i] != ")":
            while True:
                if self.texts[self.i] not in TYPE_KEYWORDS:
                    raise ParseError(
                        f"expected parameter type, found {self.texts[self.i]!r}",
                        *self.pos(self.i),
                    )
                ptype = self.parse_type()
                self.types[self.expect_ident()] = ptype
                if self.texts[self.i] != ",":
                    break
                self.i += 1
        self.expect(")")

        dangling = self.parse_block([0])  # the entry node
        if self.kinds[self.i] != "eof":
            raise ParseError(
                f"trailing input after function body: {self.texts[self.i]!r}",
                *self.pos(self.i),
            )
        exit_id = self.add(Statement(kind="nop", code="<exit>"), dangling + self.returns)
        cfg = Cfg(name, self.nodes, self.preds, 0, exit_id)
        cfg.validate()
        return cfg

    # -- statements ----------------------------------------------------
    def parse_block(self, preds: list[int]) -> list[int]:
        """``{ statement* }``: returns the nodes control leaves the block from."""
        self.open_level(self.expect("{"))
        texts = self.texts
        while True:
            text = texts[self.i]
            if text == "}":
                break
            if not text:  # the eof sentinel
                raise ParseError("unexpected end of input in block", *self.pos(self.i))
            if not preds:  # every path through the previous statement returned
                raise ParseError("unreachable statement after return", *self.pos(self.i))
            if text == "if":
                preds = self.parse_if(preds)
            elif text == "while":
                preds = self.parse_while(preds)
            elif text == "return":
                self.parse_return(preds)
                preds = []
            elif text in TYPE_KEYWORDS:
                preds = [self.add(self.parse_decl(), preds)]
            else:
                preds = [self.add(self.parse_simple(), preds)]
        self.i += 1  # the '}'
        self.depth -= 1
        return preds

    def parse_condition(self, preds: list[int]) -> int:
        """``( expr )`` after an if or a while keyword: adds the condition node."""
        self.i += 1  # the keyword
        self.expect("(")
        info = _ExprInfo()
        self.parse_expr(info)
        self.expect(")")
        return self.add(info.statement("condition"), preds)

    def parse_if(self, preds: list[int]) -> list[int]:
        cond_id = self.parse_condition(preds)
        then_out = self.parse_block([cond_id])
        if self.texts[self.i] == "else":
            self.i += 1
            else_out = self.parse_block([cond_id])
            return then_out + else_out
        return then_out + [cond_id]

    def parse_while(self, preds: list[int]) -> list[int]:
        cond_id = self.parse_condition(preds)
        body_out = self.parse_block([cond_id])
        self.preds[cond_id] += body_out  # back edge(s) to the loop header
        return [cond_id]

    def parse_return(self, preds: list[int]) -> None:
        self.i += 1  # the keyword
        info = _ExprInfo()
        if self.texts[self.i] != ";":
            self.parse_expr(info)
        self.expect(";")
        stmt = info.statement("return", "return " if info.text_parts else "return")
        self.returns.append(self.add(stmt, preds))

    def parse_decl(self) -> Statement:
        start = self.i
        decl_type = self.parse_type()
        name = self.expect_ident()
        if self.texts[self.i] == ",":
            raise UnsupportedError("multiple declarators in one declaration", *self.pos(self.i))
        if self.texts[self.i] != "=":
            raise UnsupportedError("declaration without initializer", *self.pos(start))
        self.i += 1
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
                    self.i += 1
                    info.text_parts.append(", ")
            self.expect(")")
            info.text_parts.append(")")
            kind = "call-assign"
        else:
            self.parse_expr(info)
            if kind is None:
                kind = "assign"
        return info.statement(kind, prefix, target, decl_type, callee)

    def parse_deref_stmt(self) -> Statement:
        """A statement starting ``*x`` or ``x[``, the only ones ``parse_simple`` sends here."""
        info = _ExprInfo()
        self.parse_expr(info)
        if self.texts[self.i] == "=":
            raise UnsupportedError("assignment through a dereference", *self.pos(self.i))
        self.expect(";")
        return info.statement("deref-use")

    # -- expressions ---------------------------------------------------
    def parse_expr(self, info: _ExprInfo) -> None:
        self.parse_atom(info)
        texts = self.texts
        while (op := texts[self.i]) in _BINARY_OPERATORS:
            self.i += 1
            info.operators.append(op)
            info.text_parts.append(f" {op} ")
            self.parse_atom(info)

    def parse_atom(self, info: _ExprInfo) -> None:
        i = self.i
        text = self.texts[i]
        kind = self.kinds[i]
        if kind == "ident":
            self.i = i + 1
            info.uses.add(text)
            info.text_parts.append(text)
            after = self.texts[i + 1]
            if after == "[":
                self.open_level(i + 1)
                self.i = i + 2
                info.text_parts.append("[")
                self.parse_expr(info)
                self.expect("]")
                info.text_parts.append("]")
                self.depth -= 1
            elif after == "(":
                raise UnsupportedError(
                    f"call to {text!r} nested inside an expression", *self.pos(i)
                )
        elif kind == "num":
            self.i = i + 1
            info.constants.append(text)
            info.text_parts.append(text)
        elif text == "(":
            self.open_level(i)
            self.i = i + 1
            info.text_parts.append("(")
            self.parse_expr(info)
            self.expect(")")
            info.text_parts.append(")")
            self.depth -= 1
        elif text == "*":
            self.i = i + 1
            name = self.expect_ident()
            info.uses.add(name)
            info.text_parts.append(f"*{name}")
        elif text == "!":
            self.open_level(i)
            self.i = i + 1
            info.operators.append("!")
            info.text_parts.append("!")
            self.parse_atom(info)
            self.depth -= 1
        elif text == "NULL":
            self.i = i + 1
            info.constants.append("NULL")
            info.text_parts.append("NULL")
        else:
            raise ParseError(
                f"unexpected token {text or 'end of input'!r} in expression", *self.pos(i)
            )


def parse_function(source: str) -> Cfg:
    """Parse one mini-C function into its control-flow graph."""
    return _Parser(source).parse_function()
