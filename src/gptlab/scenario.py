"""Scenario DSL: a line-oriented language for spaces, maps and checks.

Grammar (one statement per line, '#' comments):

    space ID = simplex(2) | point() | gbit() | cube(3) | cross(2)
             | product(A, B) | dsum(A, B)
             | vertices [[...], ...] unit [...]
    map   ID = [[...], ...] | identity(A) | swap(A, B) | cnot
             | product(X, Y) | ctrl(D, B, M0, M1, ...)
    check decompose A | transitive A | group A | theorem1 A
        | theorem2 A B? | distributivity A B C
        | lri M on P | theorem3 M on P | broadcaster M on P [b=K]
        | entangled (prbox | [...]) on P
      ... [expect WORD]

Rationals are written p or p/q.  Identifiers must be defined before use and
defined only once; every diagnostic carries line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

BUILDER_NAMES = ("simplex", "point", "gbit", "cube", "cross")
CHECK_KINDS = (
    "decompose", "transitive", "group", "lri", "broadcaster",
    "theorem1", "theorem2", "theorem3", "distributivity", "entangled",
)
NAMED_MAPS = ("identity", "swap", "cnot", "product", "ctrl")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: tuple = ()):
        self.line = line
        self.col = col
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


@dataclass(frozen=True)
class Loc:
    line: int
    col: int


@dataclass(frozen=True)
class BuilderCall:
    builder: str
    args: tuple


@dataclass(frozen=True)
class CompositeExpr:
    kind: str  # "product" | "dsum"
    left: str
    right: str


@dataclass(frozen=True)
class VerticesLiteral:
    rows: tuple
    unit: tuple


@dataclass(frozen=True)
class MatrixLit:
    rows: tuple


@dataclass(frozen=True)
class NamedMapExpr:
    name: str
    args: tuple  # identifier arguments


@dataclass(frozen=True)
class SpaceDef:
    name: str
    expr: object
    loc: Loc


@dataclass(frozen=True)
class MapDef:
    name: str
    expr: object
    loc: Loc


@dataclass(frozen=True)
class CheckStmt:
    kind: str
    ids: tuple                      # identifier operands, kind-specific order
    loc: Loc
    state: Optional[object] = None  # "prbox" or a coordinate tuple (entangled)
    b_index: Optional[int] = None   # broadcaster fixed input
    expect: Optional[str] = None


@dataclass(frozen=True)
class ScenarioAst:
    statements: tuple

    @property
    def checks(self) -> list:
        return [s for s in self.statements if isinstance(s, CheckStmt)]


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#.*)|(?P<rat>-?\d+(?:/\d+)?)|"
    r"(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[()\[\],=])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "rat" | "id" | "sym" | "eol"
    text: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        if m.lastgroup == "comment":
            break
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), line_no, m.start() + 1))
        pos = m.end()
    tokens.append(_Token("eol", "", line_no, len(text) + 1))
    return tokens


class _LineParser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def at_end(self) -> bool:
        return self.cur.kind == "eol"

    def error(self, message: str, expected: tuple = ()):
        raise ParseError(message, self.cur.line, self.cur.col, expected)

    def take(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = (text,) if text else (kind,)
            self.error(f"found {tok.text!r}" if tok.text else "unexpected end of line",
                       expected=want)
        self.pos += 1
        return tok

    def take_id(self) -> _Token:
        return self.take("id")

    def peek_is(self, kind: str, text: Optional[str] = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    def take_int(self) -> int:
        tok = self.take("rat")
        if "/" in tok.text:
            raise ParseError(f"expected an integer, found {tok.text!r}", tok.line, tok.col)
        return int(tok.text)

    def rational(self) -> Fraction:
        tok = self.take("rat")
        try:
            return Fraction(tok.text)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {tok.text!r}", tok.line, tok.col) from None

    def vector(self) -> tuple:
        self.take("sym", "[")
        items = [self.rational()]
        while self.peek_is("sym", ","):
            self.take("sym", ",")
            items.append(self.rational())
        self.take("sym", "]")
        return tuple(items)

    def matrix(self) -> tuple:
        self.take("sym", "[")
        rows = [self.vector()]
        while self.peek_is("sym", ","):
            self.take("sym", ",")
            rows.append(self.vector())
        self.take("sym", "]")
        return tuple(rows)

    def id_args(self) -> tuple:
        """Parenthesized comma-separated identifier list."""
        self.take("sym", "(")
        args = []
        if not self.peek_is("sym", ")"):
            args.append(self.take_id().text)
            while self.peek_is("sym", ","):
                self.take("sym", ",")
                args.append(self.take_id().text)
        self.take("sym", ")")
        return tuple(args)


def parse(text: str) -> ScenarioAst:
    """Parse a scenario; raises ParseError with line:col on the first error."""
    statements = []
    spaces: dict = {}
    maps: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if tokens[0].kind == "eol":
            continue
        p = _LineParser(tokens)
        head = p.take_id()
        loc = Loc(head.line, head.col)
        if head.text == "space":
            stmt = _parse_space(p, loc, spaces)
            spaces[stmt.name] = stmt
        elif head.text == "map":
            stmt = _parse_map(p, loc, spaces, maps)
            maps[stmt.name] = stmt
        elif head.text == "check":
            stmt = _parse_check(p, loc, spaces, maps)
        else:
            raise ParseError(f"unknown statement {head.text!r}", head.line, head.col,
                             expected=("space", "map", "check"))
        if not p.at_end():
            p.error(f"trailing input {p.cur.text!r}")
        statements.append(stmt)
    return ScenarioAst(tuple(statements))


def _declare(name_tok: _Token, spaces: dict, maps: dict):
    if name_tok.text in spaces or name_tok.text in maps:
        raise ParseError(f"duplicate definition of {name_tok.text!r}",
                         name_tok.line, name_tok.col)


def _resolve(p: _LineParser, table: dict, what: str) -> str:
    tok = p.take_id()
    if tok.text not in table:
        raise ParseError(f"undefined {what} {tok.text!r}", tok.line, tok.col)
    return tok.text


def _parse_space(p: _LineParser, loc: Loc, spaces: dict) -> SpaceDef:
    name = p.take_id()
    _declare(name, spaces, {})
    p.take("sym", "=")
    tok = p.cur
    if tok.kind == "id" and tok.text == "vertices":
        p.take_id()
        rows = p.matrix()
        p.take("id", "unit")
        unit = p.vector()
        return SpaceDef(name.text, VerticesLiteral(rows, unit), loc)
    if tok.kind == "id" and tok.text in ("product", "dsum"):
        kind = p.take_id().text
        args = p.id_args()
        if len(args) != 2:
            raise ParseError(f"{kind} takes two spaces", tok.line, tok.col)
        for a in args:
            if a not in spaces:
                raise ParseError(f"undefined space {a!r}", tok.line, tok.col)
        return SpaceDef(name.text, CompositeExpr(kind, args[0], args[1]), loc)
    if tok.kind == "id" and tok.text in BUILDER_NAMES:
        p.take_id()
        p.take("sym", "(")
        args = []
        if not p.peek_is("sym", ")"):
            args.append(p.take_int())
            while p.peek_is("sym", ","):
                p.take("sym", ",")
                args.append(p.take_int())
        p.take("sym", ")")
        return SpaceDef(name.text, BuilderCall(tok.text, tuple(args)), loc)
    if tok.kind == "id":
        raise ParseError(f"unknown builder {tok.text!r}", tok.line, tok.col,
                         expected=BUILDER_NAMES + ("product", "dsum", "vertices"))
    p.error("expected a space expression",
            expected=BUILDER_NAMES + ("product", "dsum", "vertices"))


def _parse_map(p: _LineParser, loc: Loc, spaces: dict, maps: dict) -> MapDef:
    name = p.take_id()
    _declare(name, spaces, maps)
    p.take("sym", "=")
    tok = p.cur
    if tok.kind == "sym" and tok.text == "[":
        return MapDef(name.text, MatrixLit(p.matrix()), loc)
    if tok.kind == "id" and tok.text in NAMED_MAPS:
        p.take_id()
        if tok.text == "cnot":
            return MapDef(name.text, NamedMapExpr("cnot", ()), loc)
        args = p.id_args()
        expected_tables = {
            "identity": (1, (spaces,)),
            "swap": (2, (spaces, spaces)),
            "product": (2, (maps, maps)),
        }
        if tok.text in expected_tables:
            count, tables = expected_tables[tok.text]
            if len(args) != count:
                raise ParseError(f"{tok.text} takes {count} argument(s)", tok.line, tok.col)
            for a, table in zip(args, tables):
                if a not in table:
                    what = "space" if table is spaces else "map"
                    raise ParseError(f"undefined {what} {a!r}", tok.line, tok.col)
        else:  # ctrl(D, B, M0, M1, ...)
            if len(args) < 3:
                raise ParseError("ctrl takes a control space, a system space and maps",
                                 tok.line, tok.col)
            for a in args[:2]:
                if a not in spaces:
                    raise ParseError(f"undefined space {a!r}", tok.line, tok.col)
            for a in args[2:]:
                if a not in maps:
                    raise ParseError(f"undefined map {a!r}", tok.line, tok.col)
        return MapDef(name.text, NamedMapExpr(tok.text, args), loc)
    if tok.kind == "id":
        raise ParseError(f"unknown map construction {tok.text!r}", tok.line, tok.col,
                         expected=NAMED_MAPS + ("[",))
    p.error("expected a map expression", expected=NAMED_MAPS + ("[",))


def _parse_check(p: _LineParser, loc: Loc, spaces: dict, maps: dict) -> CheckStmt:
    kind_tok = p.take_id()
    kind = kind_tok.text
    if kind not in CHECK_KINDS:
        raise ParseError(f"unknown check kind {kind!r}", kind_tok.line, kind_tok.col,
                         expected=CHECK_KINDS)
    ids: tuple = ()
    state = None
    b_index = None
    if kind in ("decompose", "transitive", "group", "theorem1"):
        ids = (_resolve(p, spaces, "space"),)
    elif kind == "theorem2":
        first = _resolve(p, spaces, "space")
        if p.peek_is("id") and p.cur.text not in ("expect",):
            ids = (first, _resolve(p, spaces, "space"))
        else:
            ids = (first,)
    elif kind == "distributivity":
        ids = (_resolve(p, spaces, "space"), _resolve(p, spaces, "space"),
               _resolve(p, spaces, "space"))
    elif kind in ("lri", "theorem3", "broadcaster"):
        map_name = _resolve(p, maps, "map")
        p.take("id", "on")
        space_name = _resolve(p, spaces, "space")
        ids = (map_name, space_name)
        if kind == "broadcaster" and p.peek_is("id", "b"):
            p.take_id()
            p.take("sym", "=")
            b_index = p.take_int()
    elif kind == "entangled":
        if p.peek_is("id", "prbox"):
            p.take_id()
            state = "prbox"
        else:
            state = p.vector()
        p.take("id", "on")
        ids = (_resolve(p, spaces, "space"),)
    expect = None
    if p.peek_is("id", "expect"):
        p.take_id()
        tok = p.cur
        if tok.kind in ("id", "rat"):
            expect = tok.text
            p.pos += 1
        else:
            p.error("expected an outcome word", expected=("WORD",))
    return CheckStmt(kind, ids, loc, state=state, b_index=b_index, expect=expect)


# -- printer -------------------------------------------------------------------


def _fmt_vec(v) -> str:
    return "[" + ", ".join(str(Fraction(x)) for x in v) + "]"


def _fmt_mat(rows) -> str:
    return "[" + ", ".join(_fmt_vec(r) for r in rows) + "]"


def print_ast(ast: ScenarioAst) -> str:
    """Canonical text form; parse(print_ast(parse(s))) == parse(s)."""
    lines = []
    for stmt in ast.statements:
        if isinstance(stmt, SpaceDef):
            e = stmt.expr
            if isinstance(e, BuilderCall):
                body = f"{e.builder}({', '.join(str(a) for a in e.args)})"
            elif isinstance(e, CompositeExpr):
                body = f"{e.kind}({e.left}, {e.right})"
            else:
                body = f"vertices {_fmt_mat(e.rows)} unit {_fmt_vec(e.unit)}"
            lines.append(f"space {stmt.name} = {body}")
        elif isinstance(stmt, MapDef):
            e = stmt.expr
            if isinstance(e, MatrixLit):
                body = _fmt_mat(e.rows)
            elif e.name == "cnot":
                body = "cnot"
            else:
                body = f"{e.name}({', '.join(e.args)})"
            lines.append(f"map {stmt.name} = {body}")
        else:
            parts = ["check", stmt.kind]
            if stmt.kind in ("lri", "theorem3", "broadcaster"):
                parts.append(stmt.ids[0])
                parts.append("on")
                parts.append(stmt.ids[1])
                if stmt.b_index is not None:
                    parts.append(f"b={stmt.b_index}")
            elif stmt.kind == "entangled":
                parts.append("prbox" if stmt.state == "prbox" else _fmt_vec(stmt.state))
                parts.append("on")
                parts.append(stmt.ids[0])
            else:
                parts.extend(stmt.ids)
            if stmt.expect is not None:
                parts.append("expect")
                parts.append(stmt.expect)
            lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
