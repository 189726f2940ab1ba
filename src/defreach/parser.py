"""Recursive-descent parser for the mini-C subset, producing a Cfg.

Grammar (EBNF in docs/grammar.ebnf): one function per source text;
declarations with initializers, assignments, call assignments, if/else,
while, pointer-dereference expression statements, and return. Condition
expressions become their own CFG nodes; entry/exit are synthetic nops.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cfg import Cfg, CfgError, Statement


# Blocks and nested expressions share one depth counter, kept well below the
# interpreter's recursion limit (a block level costs three parser frames).
MAX_NESTING = 200

TYPE_KEYWORDS = {"int", "char", "float", "double", "void", "long"}
KEYWORDS = TYPE_KEYWORDS | {"if", "else", "while", "return", "NULL"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/%<>!=])
  | (?P<punct>[()\[\]{};,])
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnsupportedError(ParseError):
    def __init__(self, construct: str, line: int, col: int):
        super().__init__(f"unsupported construct: {construct}", line, col)
        self.construct = construct


@dataclass
class Token:
    kind: str  # num | ident | keyword | op | punct | eof
    text: str
    line: int
    col: int


def _lex(source: str) -> list[Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "ident" and text in KEYWORDS:
                kind = "keyword"
            tokens.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _ExprInfo:
    """Accumulates the properties read off an expression."""

    def __init__(self):
        self.constants: list[str] = []
        self.operators: list[str] = []
        self.uses: set[str] = set()
        self.has_deref = False
        self.text_parts: list[str] = []


class _Parser:
    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.i = 0
        self.depth = 0  # open blocks and nested expressions
        self.types: dict[str, str] = {}  # in-scope declarations

    # -- token helpers -------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        if self.cur.text != text or self.cur.kind == "eof":
            raise ParseError(
                f"expected {text!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.cur.kind != "ident":
            raise ParseError(
                f"expected identifier, found {self.cur.text or 'end of input'!r}",
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    def open_level(self, tok: Token) -> None:
        """Enter a nesting level opened by ``tok``; the caller decrements ``depth`` on leaving."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)

    def at_type(self) -> bool:
        return self.cur.kind == "keyword" and self.cur.text in TYPE_KEYWORDS

    def parse_type(self) -> str:
        base = self.advance().text
        stars = ""
        while self.cur.text == "*":
            self.advance()
            stars += "*"
        return base + stars

    # -- function ------------------------------------------------------
    def parse_function(self) -> Cfg:
        if not self.at_type():
            raise ParseError(
                f"expected return type, found {self.cur.text!r}", self.cur.line, self.cur.col
            )
        self.parse_type()
        name = self.expect_ident().text
        self.expect("(")
        if self.cur.text != ")":
            while True:
                if not self.at_type():
                    raise ParseError(
                        f"expected parameter type, found {self.cur.text!r}",
                        self.cur.line,
                        self.cur.col,
                    )
                ptype = self.parse_type()
                pname = self.expect_ident().text
                self.types[pname] = ptype
                if self.cur.text != ",":
                    break
                self.advance()
        self.expect(")")

        builder = _CfgBuilder(name)
        dangling = self.parse_block(builder, [0])  # the entry node
        if self.cur.kind != "eof":
            raise ParseError(
                f"trailing input after function body: {self.cur.text!r}",
                self.cur.line,
                self.cur.col,
            )
        cfg = builder.finish(dangling)
        cfg.validate()
        return cfg

    # -- statements ----------------------------------------------------
    def parse_block(self, builder: "_CfgBuilder", preds: list[int]) -> list[int]:
        self.open_level(self.expect("{"))
        while self.cur.text != "}":
            if self.cur.kind == "eof":
                raise ParseError("unexpected end of input in block", self.cur.line, self.cur.col)
            preds = self.parse_statement(builder, preds)
        self.expect("}")
        self.depth -= 1
        return preds

    def parse_statement(self, builder: "_CfgBuilder", preds: list[int]) -> list[int]:
        tok = self.cur
        if tok.text == "if":
            return self.parse_if(builder, preds)
        if tok.text == "while":
            return self.parse_while(builder, preds)
        if tok.text == "return":
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
        if self.cur.text == "else":
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
        tok = self.expect("return")
        info = _ExprInfo()
        if self.cur.text != ";":
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
        tok = self.cur
        decl_type = self.parse_type()
        name = self.expect_ident().text
        if self.cur.text == ",":
            raise UnsupportedError(
                "multiple declarators in one declaration", self.cur.line, self.cur.col
            )
        if self.cur.text != "=":
            raise UnsupportedError("declaration without initializer", tok.line, tok.col)
        self.advance()
        self.types[name] = decl_type
        stmt = self.parse_def_rhs(name, decl_type, "decl-init", f"{decl_type} {name} = ")
        if self.cur.text == ",":
            raise UnsupportedError(
                "multiple declarators in one declaration", self.cur.line, self.cur.col
            )
        self.expect(";")
        return stmt

    def parse_simple(self) -> Statement:
        tok = self.cur
        if tok.text == "*" or (
            tok.kind == "ident" and self.tokens[self.i + 1].text in ("[",)
        ):
            return self.parse_deref_stmt()
        if tok.kind != "ident":
            raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        if self.tokens[self.i + 1].text != "=":
            raise UnsupportedError(
                f"expression statement {tok.text!r} without assignment or dereference",
                tok.line,
                tok.col,
            )
        name = self.advance().text
        self.advance()  # '='
        stmt = self.parse_def_rhs(name, self.types.get(name), None, f"{name} = ")
        self.expect(";")
        return stmt

    def parse_def_rhs(
        self, target: str, decl_type: str | None, kind: str | None, prefix: str
    ) -> Statement:
        """Parse the right-hand side of a definition; detects call assignments."""
        callee = None
        info = _ExprInfo()
        if self.cur.kind == "ident" and self.tokens[self.i + 1].text == "(":
            callee = self.advance().text
            self.advance()  # '('
            info.text_parts.append(callee + "(")
            if self.cur.text != ")":
                while True:
                    self.parse_expr(info)
                    if self.cur.text != ",":
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
        info = _ExprInfo()
        self.parse_expr(info)
        if self.cur.text == "=":
            raise UnsupportedError(
                "assignment through a dereference", self.cur.line, self.cur.col
            )
        self.expect(";")
        if not info.has_deref:
            raise ParseError("expected a dereference", self.cur.line, self.cur.col)
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
        while self.cur.kind == "op" and self.cur.text not in ("!", "="):
            op = self.advance().text
            info.operators.append(op)
            info.text_parts.append(f" {op} ")
            self.parse_atom(info)

    def parse_atom(self, info: _ExprInfo) -> None:
        tok = self.cur
        if tok.text == "(":
            self.open_level(self.advance())
            info.text_parts.append("(")
            self.parse_expr(info)
            self.expect(")")
            info.text_parts.append(")")
            self.depth -= 1
        elif tok.text == "*":
            self.advance()
            name = self.expect_ident().text
            info.uses.add(name)
            info.has_deref = True
            info.text_parts.append(f"*{name}")
        elif tok.text == "!":
            self.open_level(self.advance())
            info.operators.append("!")
            info.text_parts.append("!")
            self.parse_atom(info)
            self.depth -= 1
        elif tok.kind == "num":
            self.advance()
            info.constants.append(tok.text)
            info.text_parts.append(tok.text)
        elif tok.text == "NULL":
            self.advance()
            info.constants.append("NULL")
            info.text_parts.append("NULL")
        elif tok.kind == "ident":
            name = self.advance().text
            info.uses.add(name)
            info.text_parts.append(name)
            if self.cur.text == "[":
                self.open_level(self.advance())
                info.has_deref = True
                info.text_parts.append("[")
                self.parse_expr(info)
                self.expect("]")
                info.text_parts.append("]")
                self.depth -= 1
            elif self.cur.text == "(":
                raise UnsupportedError(
                    f"call to {name!r} nested inside an expression", tok.line, tok.col
                )
        else:
            raise ParseError(
                f"unexpected token {tok.text or 'end of input'!r} in expression",
                tok.line,
                tok.col,
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
