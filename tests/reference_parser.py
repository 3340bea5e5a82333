"""A plainer tokenizer and parser for the expression language, kept as the
reference that gclang's parser must agree with: the same AST for every
input, or the same error with the same message, line, column and hint.

Each token is a named tuple that carries its line and column, and the
parser reads tokens through peek, advance and at_op, with one call per
grammar level (binary, prefix, power, atom) for every operand.  The tables are
written out again here, so the reference does not follow a change to
gclang's own.
"""
import re
from typing import NamedTuple, Optional, Tuple

from grosscalc import gnum
from grosscalc.errors import ParseError, RepresentationLimit
from grosscalc.gclang import Ast, Bin, Call, Cmp, Let, Lit, Name, SetLit, Unary


class Tok(NamedTuple):
    kind: str  # INT, IDENT, STR, OP, EOF
    text: str
    line: int
    col: int


# BAD takes any character no kind starts with, and tokenize
# refuses ² or ½ as an IDENT start, which [^\W\d] admits
_TOKEN = re.compile(
    r"""(?P<NEWLINE>\n)
      | (?P<BLANK>[ \t\r]+)
      | (?P<COMMENT>\#[^\n]*)
      | (?P<CIRCLED_ONE>①)
      | (?P<INT>[0-9]+)
      | (?P<IDENT>[^\W\d]\w*)
      | (?P<STR>"[^"\n]*")
      | (?P<UNTERMINATED>")
      | (?P<OP><=|>=|==|[-()+*/^<>&|\\~{},:=])
      | (?P<BAD>.)""",
    re.VERBOSE,
)


def tokenize(text: str):
    toks = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind, start, end = m.lastgroup, m.start(), m.end()
        at = start - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, end
        elif kind == "COMMENT":
            end = start  # a comment leaves the column where it began
        elif kind == "CIRCLED_ONE":
            toks.append(Tok("IDENT", "G", line, at))
        elif kind == "STR":
            toks.append(Tok("STR", m.group()[1:-1], line, at))
        elif kind == "UNTERMINATED":
            raise ParseError("unterminated string", line, at, '"')
        elif kind == "BAD" or kind == "IDENT" and not (text[start].isalpha() or text[start] == "_"):
            raise ParseError(f"unexpected character {text[start]!r}", line, at)
        elif kind != "BLANK":
            toks.append(Tok(kind, m.group(), line, at))
    toks.append(Tok("EOF", "", line, end - line_start + 1))
    return toks


_VERDICTS = ("<", "<=", "==", ">=", ">")
_BINDING = {"|": 1, "\\": 1, "&": 2, "+": 3, "-": 3, "*": 4, "/": 4}
_MAX_NESTING = 100


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> Tok:
        return self.toks[self.i]

    def advance(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at_op(self, *texts) -> bool:
        t = self.peek()
        return t.kind == "OP" and t.text in texts

    @staticmethod
    def describe(t: Tok) -> str:
        return "end of input" if t.kind == "EOF" else f"{t.text!r}"

    def expect(self, kind: str, text: Optional[str] = None, expected: str = ""):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = expected or (text if text is not None else kind.lower())
            raise ParseError(f"unexpected {self.describe(t)}", t.line, t.col, want)
        return self.advance()

    def statement(self) -> Ast:
        t = self.peek()
        if t.kind == "IDENT" and t.text == "let":
            self.advance()
            name = self.expect("IDENT", expected="identifier").text
            self.expect("OP", "=")
            node: Ast = Let(name, self.expr())
        else:
            node = self.expr()
        tail = self.peek()
        if tail.kind != "EOF":
            raise ParseError(
                f"unexpected {self.describe(tail)} after expression",
                tail.line,
                tail.col,
                "end of input",
            )
        return node

    def expr(self) -> Ast:
        left = self.binary()
        if self.at_op(*_VERDICTS):
            op = self.advance().text
            right = self.binary()
            if self.at_op(*_VERDICTS):
                t = self.peek()
                raise ParseError("comparisons do not chain", t.line, t.col, "end of input")
            return Cmp(op, left, right)
        return left

    def binary(self) -> Ast:
        pending = []  # (power, operator, left operand), powers increasing
        node = self.prefix()
        while True:
            t = self.peek()
            power = _BINDING.get(t.text, 0) if t.kind == "OP" else 0
            while pending and pending[-1][0] >= power:
                _, op, left = pending.pop()
                node = Bin(op, left, node)
            if not power:
                return node
            self.advance()
            pending.append((power, t.text, node))
            node = self.prefix()

    def prefix(self) -> Ast:
        t = self.peek()
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", t.line, t.col)
        self.depth += 1
        if t.kind == "OP" and t.text in ("-", "~"):
            self.advance()
            node: Ast = Unary(t.text, self.prefix())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Ast:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            return Bin("^", base, self.prefix())
        return base

    def atom(self) -> Ast:
        t = self.advance()
        if t.kind == "INT":
            if len(t.text) > gnum.MAX_DIGITS:
                raise RepresentationLimit(
                    f"digits of a literal: {len(t.text)} past MAX_DIGITS = {gnum.MAX_DIGITS}"
                )
            return Lit(int(t.text))
        if t.kind == "IDENT":
            if not self.at_op("("):
                return Name(t.text)
            self.advance()
            args = self.items(")")
            if t.text != "num" or not self.at_op("{"):
                return Call(t.text, args)
            self.advance()
            return Call(t.text, args, self.items("}", _Parser.field))
        if t.kind == "OP" and t.text == "(":
            node = self.expr()
            self.expect("OP", ")")
            return node
        if t.kind == "OP" and t.text == "{":
            return SetLit(self.items("}"))
        raise ParseError(f"unexpected {self.describe(t)}", t.line, t.col, "expression")

    def field(self) -> Tuple[str, str]:
        key = self.expect("IDENT", expected="field name").text
        self.expect("OP", ":")
        return key, self.expect("STR", expected="quoted digits").text

    def items(self, close: str, item=expr) -> tuple:
        elems = []
        if not self.at_op(close):
            elems.append(item(self))
            while self.at_op(","):
                self.advance()
                elems.append(item(self))
        self.expect("OP", close)
        return tuple(elems)


def parse(text: str) -> Ast:
    return _Parser(tokenize(text)).statement()
