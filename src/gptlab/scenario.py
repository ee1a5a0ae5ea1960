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

Each space and map construction is one entry of ``checks.SPACES`` or
``checks.MAPS``; the parser reads a call's arguments off its operands and the
printer writes every call alike.  A map construction without operands is
written bare (``cnot``); a space builder keeps its parentheses (``gbit()``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .checks import CHECKS, MAPS, SPACES


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
class Call:
    name: str   # an entry of checks.SPACES or checks.MAPS
    args: tuple  # integers and identifiers, in the entry's operand order


@dataclass(frozen=True)
class VerticesLiteral:
    rows: tuple
    unit: tuple


@dataclass(frozen=True)
class MatrixLit:
    rows: tuple


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
    ids: tuple                      # identifier operands, in the kind's slot order
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
    if name_tok.text == "expect":
        raise ParseError("'expect' is a keyword, not a name", name_tok.line, name_tok.col)
    if name_tok.text in spaces or name_tok.text in maps:
        raise ParseError(f"duplicate definition of {name_tok.text!r}",
                         name_tok.line, name_tok.col)


def _resolve(tok: _Token, table: dict, what: str) -> str:
    if tok.text not in table:
        raise ParseError(f"undefined {what} {tok.text!r}", tok.line, tok.col)
    return tok.text


def _parse_space(p: _LineParser, loc: Loc, spaces: dict) -> SpaceDef:
    name = p.take_id()
    _declare(name, spaces, {})
    p.take("sym", "=")
    if p.peek_is("id", "vertices"):
        p.take_id()
        rows = p.matrix()
        p.take("id", "unit")
        return SpaceDef(name.text, VerticesLiteral(rows, p.vector()), loc)
    return SpaceDef(name.text, _parse_call(p, "space", spaces, {}), loc)


def _parse_map(p: _LineParser, loc: Loc, spaces: dict, maps: dict) -> MapDef:
    name = p.take_id()
    _declare(name, spaces, maps)
    p.take("sym", "=")
    if p.peek_is("sym", "["):
        return MapDef(name.text, MatrixLit(p.matrix()), loc)
    return MapDef(name.text, _parse_call(p, "map", spaces, maps), loc)


def _parse_call(p: _LineParser, head: str, spaces: dict, maps: dict) -> Call:
    """A construction of ``checks.SPACES`` (head "space") or ``checks.MAPS``,
    its arguments read off the entry's operands: integers, or names resolved
    among the spaces or the maps once the argument count is known right."""
    table, noun, literal = ((SPACES, "builder", "vertices") if head == "space"
                            else (MAPS, "map construction", "["))
    expected = tuple(table) + (literal,)
    tok = p.cur
    if tok.kind != "id":
        p.error(f"expected a {head} expression", expected=expected)
    if tok.text not in table:
        raise ParseError(f"unknown {noun} {tok.text!r}", tok.line, tok.col, expected=expected)
    p.take_id()
    entry = table[tok.text]
    if head == "map" and not entry.operands:
        return Call(tok.text, ())
    args: list = []

    def argument():
        return p.take_int() if entry.operand(len(args)) == "int" else p.take_id()

    p.take("sym", "(")
    if not p.peek_is("sym", ")"):
        args.append(argument())
        while p.peek_is("sym", ","):
            p.take("sym", ",")
            args.append(argument())
    p.take("sym", ")")
    arity = len(entry.operands)
    variadic = entry.operands[-1:] == ("maps",)
    if not (len(args) == arity or variadic and len(args) > arity):
        raise ParseError(f"{tok.text} takes {arity}{' or more' if variadic else ''} argument(s), "
                         f"found {len(args)}", tok.line, tok.col)
    for k, arg in enumerate(args):
        operand = entry.operand(k)
        if operand != "int":
            args[k] = _resolve(arg, *((spaces, "space") if operand == "space" else (maps, "map")))
    return Call(tok.text, tuple(args))


def _parse_check(p: _LineParser, loc: Loc, spaces: dict, maps: dict) -> CheckStmt:
    kind_tok = p.take_id()
    kind = kind_tok.text
    if kind not in CHECKS:
        raise ParseError(f"unknown check kind {kind!r}", kind_tok.line, kind_tok.col,
                         expected=tuple(CHECKS))
    ids = []
    state = None
    b_index = None
    for slot in CHECKS[kind].slots:
        if slot == "map":
            ids.append(_resolve(p.take_id(), maps, "map"))
        elif slot == "on":
            p.take("id", "on")
        elif slot == "state":
            state = p.take_id().text if p.peek_is("id", "prbox") else p.vector()
        elif slot == "b=K":
            if p.peek_is("id", "b"):
                p.take_id()
                p.take("sym", "=")
                b_index = p.take_int()
        else:  # space, product, or a pair: one space name or two
            ids.append(_resolve(p.take_id(), spaces, "space"))
            if slot == "pair" and p.peek_is("id") and p.cur.text != "expect":
                ids.append(_resolve(p.take_id(), spaces, "space"))
    expect = None
    if p.peek_is("id", "expect"):
        p.take_id()
        expect = _parse_outcome(p, kind)
    return CheckStmt(kind, tuple(ids), loc, state=state, b_index=b_index, expect=expect)


def _parse_outcome(p: _LineParser, kind: str) -> str:
    """The word after ``expect``, checked against the kind's outcomes; an
    integer outcome is kept in canonical form, so ``08`` reads as ``8``."""
    tok = p.cur
    words = CHECKS[kind].outcomes
    if tok.text in words + ("budget_exceeded",):
        p.pos += 1
        return tok.text
    if not words and tok.kind == "rat" and "/" not in tok.text and int(tok.text) > 0:
        p.pos += 1
        return str(int(tok.text))
    p.error(f"unknown outcome {tok.text!r} for check {kind}" if tok.text
            else "expected an outcome word",
            expected=(words or ("a positive integer",)) + ("budget_exceeded",))


# -- printer -------------------------------------------------------------------


def _fmt_vec(v) -> str:
    return "[" + ", ".join(str(Fraction(x)) for x in v) + "]"


def _fmt_mat(rows) -> str:
    return "[" + ", ".join(_fmt_vec(r) for r in rows) + "]"


def print_ast(ast: ScenarioAst) -> str:
    """Canonical text form; parse(print_ast(parse(s))) == parse(s)."""
    lines = []
    for stmt in ast.statements:
        if isinstance(stmt, (SpaceDef, MapDef)):
            e = stmt.expr
            if isinstance(e, Call):
                bare = isinstance(stmt, MapDef) and not e.args
                body = e.name if bare else f"{e.name}({', '.join(str(a) for a in e.args)})"
            elif isinstance(e, MatrixLit):
                body = _fmt_mat(e.rows)
            else:
                body = f"vertices {_fmt_mat(e.rows)} unit {_fmt_vec(e.unit)}"
            head = "space" if isinstance(stmt, SpaceDef) else "map"
            lines.append(f"{head} {stmt.name} = {body}")
        else:
            parts = ["check", stmt.kind]
            ids = iter(stmt.ids)
            for slot in CHECKS[stmt.kind].slots:
                if slot == "on":
                    parts.append("on")
                elif slot == "state":
                    parts.append("prbox" if stmt.state == "prbox" else _fmt_vec(stmt.state))
                elif slot == "b=K":
                    if stmt.b_index is not None:
                        parts.append(f"b={stmt.b_index}")
                else:  # a pair prints the names it was given, one or two
                    parts.extend(ids if slot == "pair" else [next(ids)])
            if stmt.expect is not None:
                parts.append("expect")
                parts.append(stmt.expect)
            lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
