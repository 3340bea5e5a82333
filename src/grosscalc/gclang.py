"""The calculator's expression language: parser, evaluator, renderer.

Grammar:

    stmt    := 'let' IDENT '=' expr | expr
    expr    := binary (CMP binary)?            CMP: < <= == >= >
    binary  := prefix (BINOP prefix)*          by binding power, below
    prefix  := ('-' | '~') prefix | power
    power   := atom ('^' prefix)?
    atom    := INT | '(' expr ')' | '{' items '}'
             | IDENT '(' items ')' fields? | IDENT
    items   := [expr (',' expr)*]

Binary operators by binding power, loosest first; each power is one
left-associative level, and `^` (right-associative) binds tighter than all:

    1  |  \\        2  &        3  +  -        4  *  /

Comparisons do not chain.  The glyph `①` reads as the identifier `G`.
Tokens are one table, _TOKEN: blanks, newlines and `#` comments to the end of
the line go in front of a token, then INT (ASCII digits), IDENT (a letter or
`_`, then letters, digits or `_`), STR (double-quoted, on one line, read only
in num's fields) or OP.  A token is a (kind, text, offset) tuple, and an OP's
kind is its own text; a line and column are worked out only for a ParseError.
An input may nest at most 100 levels deep, counting brackets, call
arguments, unary operators and exponents; a deeper one is a ParseError,
not a recursion.  A long chain such as 1 - 1 - ... - 1 nests one level.
The `fields` block is a brace-suffixed record accepted only by `num`,
carrying the strings that posnum.numeral reads and checks:
num(10, G){head: "", tail: "1", sign: "-"}.

Calls are one table, _CALLS, with one row per call: the library call, then
one (check, what, minimum) triple per argument, so a row's arity is its
number of triples.  A call evaluates all its arguments first, then runs the
checks in argument order; a check names its argument (what) in the error it
raises, bounds an integer below (minimum), and returns the value the library
call receives, followed by num's field pairs.

Evaluation produces plain library values plus set values.  Every set
value is dual-route: one private base carries the set both as its
canonical residue record and as the expression tree it was built from,
and its two empty subclasses only tell a subset of N (MeasuredSet) from a
subset of Z (SignedMeasured, whose record and tree are both
setmeasure.SignedSet containers).  The record answers algebraic questions
(cardinality, rendering); the tree answers the extensional one (its members
in 1..L, as a bitmask), so every measurement stays checkable against brute
force.  The two are never merged.  A card result is a SetCount: the count,
holding the set it counted, so the oracle checks that set as printed.

Canonical rendering is inverse to the parser on calculator values:
re-parsing a rendered count, set, or boolean evaluates to an equal value.
"""

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple, Union

from . import gnum, observer, oracle, posnum, setmeasure
from .errors import EvalError, ParseError, RepresentationLimit, UnboundIdentifier
from .gnum import (
    CritRef,
    ExpCount,
    GrossNumber,
    GrossPoly,
    Ordering,
    fin,
    render_critref,
    render_gross,
)
from .observer import (
    CountingSystem,
    ExactToken,
    NamedToken,
    Observation,
    tokens_equal,
)
from .setmeasure import (
    INTEGERS,
    NATURALS,
    UNIVERSE_Z_E,
    ComplementE,
    CombineE,
    FiniteSetE,
    NatSubset,
    ProgressionE,
    SetExpr,
    SetOp,
    SignedSet,
    UniverseNE,
)


# ---------------------------------------------------------------------------
# syntax tree


# Syntax nodes are plain dataclasses, not tuples: bench/tracer.py walks a tree by
# vars(), and a Bin must not equal a Cmp of the same fields.


@dataclass(unsafe_hash=True)
class Lit:
    value: int


@dataclass(unsafe_hash=True)
class Name:
    ident: str


@dataclass(unsafe_hash=True)
class Unary:
    op: str
    operand: "Ast"


@dataclass(unsafe_hash=True)
class Bin:
    op: str
    left: "Ast"
    right: "Ast"


@dataclass(unsafe_hash=True)
class Cmp:
    op: str
    left: "Ast"
    right: "Ast"


@dataclass(unsafe_hash=True)
class SetLit:
    elems: Tuple["Ast", ...]


@dataclass(unsafe_hash=True)
class Call:
    func: str
    args: Tuple["Ast", ...]
    fields: Tuple[Tuple[str, str], ...] = ()


@dataclass(unsafe_hash=True)
class Let:
    name: str
    value: "Ast"


Ast = Union[Lit, Name, Unary, Bin, Cmp, SetLit, Call, Let]


# ---------------------------------------------------------------------------
# tokens


# see the module docstring; blanks, newlines and comments that end in a
# newline are skipped in front of each token, and EOF takes a comment that
# ends the input; IDENT starts with an ASCII letter or _, UIDENT with any
# other character [^\W\d] admits, though _tokenize refuses ² or ½ there, and
# BAD takes any character no kind starts with
_TOKEN = re.compile(
    r"""[ \t\r\n]*(?:\#[^\n]*\n[ \t\r\n]*)*
    (?: (?P<OP>[<>=]=?|[-()+*/^&|\\~{},:])
      | (?P<INT>[0-9]+)
      | (?P<IDENT>[A-Za-z_]\w*)
      | (?P<STR>"[^"\n]*")
      | (?P<UNTERMINATED>")
      | (?P<EOF>(?:\#[^\n]*)?\Z)
      | (?P<CIRCLED_ONE>①)
      | (?P<UIDENT>[^\W\d]\w*)
      | (?P<BAD>.))""",
    re.VERBOSE,
)


def _where(text: str, offset: int) -> Tuple[int, int]:
    """(line, column) of an offset, both counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str):
    toks = []
    push = toks.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "OP":
            op = m.group(kind)
            push((op, op, m.start(kind)))
        elif kind == "INT" or kind == "IDENT":
            push((kind, m.group(kind), m.start(kind)))
        else:
            at = m.start(kind)
            if kind == "EOF":
                push((kind, "", at))
                return toks
            if kind == "STR":
                push((kind, m.group(kind)[1:-1], at))
            elif kind == "CIRCLED_ONE":
                push(("IDENT", "G", at))
            elif kind == "UIDENT" and text[at].isalpha():
                push(("IDENT", m.group(kind), at))
            elif kind == "UNTERMINATED":
                raise ParseError("unterminated string", *_where(text, at), '"')
            else:
                raise ParseError(f"unexpected character {text[at]!r}", *_where(text, at))


# ---------------------------------------------------------------------------
# parser

# the orderings each comparison accepts
_VERDICTS = {
    "<": (Ordering.LESS,),
    "<=": (Ordering.LESS, Ordering.EQUAL),
    "==": (Ordering.EQUAL,),
    ">=": (Ordering.GREATER, Ordering.EQUAL),
    ">": (Ordering.GREATER,),
}
# binding power of each binary operator; '^' binds tighter still, see prefix
_BINDING = {"|": 1, "\\": 1, "&": 2, "+": 3, "-": 3, "*": 4, "/": 4}
# nesting levels one input may open; deeper inputs are refused, not recursed
_MAX_NESTING = 100


class _Parser:
    """Reads the token list by index: kinds are INT, IDENT, STR, EOF or an OP."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, message: str, tok, expected: str = "") -> ParseError:
        return ParseError(message, *_where(self.text, tok[2]), expected)

    def unexpected(self, tok, expected: str, after: str = "") -> ParseError:
        what = "end of input" if tok[0] == "EOF" else repr(tok[1])
        return self.error(f"unexpected {what}{after}", tok, expected)

    def expect(self, kind: str, expected: str = "") -> str:
        t = self.toks[self.i]
        if t[0] != kind:
            raise self.unexpected(t, expected or kind)
        self.i += 1
        return t[1]

    def statement(self) -> Ast:
        t = self.toks[0]
        if t[0] == "IDENT" and t[1] == "let":
            self.i = 1
            name = self.expect("IDENT", "identifier")
            self.expect("=")
            node: Ast = Let(name, self.expr())
        else:
            node = self.expr()
        tail = self.toks[self.i]
        if tail[0] != "EOF":
            raise self.unexpected(tail, "end of input", " after expression")
        return node

    def expr(self) -> Ast:
        left = self.binary()
        op = self.toks[self.i][0]
        if op in _VERDICTS:
            self.i += 1
            right = self.binary()
            t = self.toks[self.i]
            if t[0] in _VERDICTS:
                raise self.error("comparisons do not chain", t, "end of input")
            return Cmp(op, left, right)
        return left

    def binary(self) -> Ast:
        """Operands joined by binary operators, grouped by binding power, each
        power left-associative.  Pending operators wait on a stack, so mixing
        powers costs no recursion."""
        toks = self.toks
        pending = []  # (power, operator, left operand), powers increasing
        node = self.prefix()
        while True:
            op = toks[self.i][0]
            power = _BINDING.get(op, 0)
            while pending and pending[-1][0] >= power:
                _, bop, left = pending.pop()
                node = Bin(bop, left, node)
            if not power:
                return node
            self.i += 1
            pending.append((power, op, node))
            node = self.prefix()

    def prefix(self) -> Ast:
        # every nesting level (brackets, call arguments, unary operators,
        # exponents) enters here once, while a left-spine chain stays level;
        # a literal or a name that no '^' or '(' follows is a leaf read here
        toks, i = self.toks, self.i
        kind, text, _ = t = toks[i]
        if self.depth > _MAX_NESTING:
            raise self.error(f"nesting deeper than {_MAX_NESTING} levels", t)
        if (kind == "INT" or kind == "IDENT") and toks[i + 1][0] not in ("^", "("):
            self.i = i + 1
            return Name(text) if kind == "IDENT" else _literal(text)
        self.depth += 1
        if kind == "-" or kind == "~":
            self.i = i + 1
            node: Ast = Unary(kind, self.prefix())
        else:
            node = self.atom()
            if toks[self.i][0] == "^":
                self.i += 1
                node = Bin("^", node, self.prefix())
        self.depth -= 1
        return node

    def atom(self) -> Ast:
        kind, text, _ = t = self.toks[self.i]
        self.i += 1
        if kind == "INT":
            return _literal(text)
        if kind == "IDENT":
            if self.toks[self.i][0] != "(":
                return Name(text)
            self.i += 1
            args = self.items(")")
            if text != "num" or self.toks[self.i][0] != "{":
                return Call(text, args)
            self.i += 1
            return Call(text, args, self.items("}", _Parser.field))
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "{":
            return SetLit(self.items("}"))
        raise self.unexpected(t, "expression")

    def field(self) -> Tuple[str, str]:
        key = self.expect("IDENT", "field name")
        self.expect(":")
        return key, self.expect("STR", "quoted digits")

    def items(self, close: str, item=expr) -> tuple:
        """Comma-separated items, expressions unless item says otherwise, up
        to and including the close bracket."""
        elems = []
        if self.toks[self.i][0] != close:
            elems.append(item(self))
            while self.toks[self.i][0] == ",":
                self.i += 1
                elems.append(item(self))
        self.expect(close)
        return tuple(elems)


def _literal(text: str) -> Lit:
    # measured on the text, before int() has to read it
    gnum.refuse(RepresentationLimit, len(text), "MAX_DIGITS", "digits of a literal")
    return Lit(int(text))


def parse(text: str) -> Ast:
    return _Parser(text).statement()


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True, repr=False)
class _DualRoute:
    """A set kept on both bookkeeping routes: the canonical residue record
    and the expression tree it came from.  Equality and hash read the
    record alone, so two trees of one set make equal values."""

    record: Union[NatSubset, SignedSet]
    expr: Union[SetExpr, SignedSet] = field(compare=False)

    def __repr__(self):
        return f"{type(self).__name__}<{self.record}>"


class MeasuredSet(_DualRoute):
    """A subset of the naturals: a NatSubset record and a SetExpr tree."""


class SignedMeasured(_DualRoute):
    """A subset of the integers: a SignedSet of records and one of trees."""


@dataclass(frozen=True, repr=False, eq=False, kw_only=True)
class SetCount(GrossPoly):
    """The count of a set, holding the set it counted as ``source``, so the
    oracle can check that set as it was printed.  It equals, hashes and
    renders as the plain count; arithmetic on it yields a plain GrossPoly."""

    source: _DualRoute


Value = object


def default_env() -> Dict[str, Value]:
    env: Dict[str, Value] = {
        "G": gnum.G,
        "N": MeasuredSet(NATURALS, UniverseNE()),
        "Z": SignedMeasured(INTEGERS, UNIVERSE_Z_E),
        "true": True,
        "false": False,
    }
    for system in observer.SYSTEMS:
        env[str(system)] = system
        env.update((str(rung), rung) for rung, _ in system.ladder)
    return env


_BUILTINS = frozenset(default_env()) | {"let"}


# argument checks: (value, what, minimum) -> the value the call receives


_COUNTS = (GrossPoly, ExpCount)


def _is_number(v) -> bool:
    return isinstance(v, _COUNTS)


def _want(kinds, message: str):
    """A check that passes a value of kinds as it is and refuses any other
    with message, given the argument's name (what) and the value's tag."""

    def check(v, what=None, minimum=None):
        if isinstance(v, kinds):
            return v
        raise EvalError(message.format(what=what, tag=type_tag(v)))

    return check


_want_number = _want(_COUNTS, "{what} must be a count, got {tag}")
_want_set = _want(_DualRoute, "{what} expects a set, got {tag}")
_want_numeral = _want(posnum.InfNumeral, "{what} must be a numeral, got {tag}")
_want_system = _want(CountingSystem, "expected a counting system, got {tag}")


def _want_length(v, what: str, minimum=None) -> Union[GrossNumber, CritRef]:
    """A count, or a critical length passed through as it is."""
    return v if isinstance(v, CritRef) else _want_number(v, what)


def _want_int(v, what: str, minimum: Optional[int] = None) -> int:
    n = v.as_int() if isinstance(v, GrossPoly) else None
    if n is None:
        raise EvalError(f"{what} must be a finite integer, got {render_value(v)}")
    gnum.check_digits(n, what)
    if minimum is not None and n < minimum:
        raise EvalError(f"{what} must be at least {minimum}, got {n}")
    return n


def _want_nat_set(v, what: str, minimum=None) -> MeasuredSet:
    if isinstance(v, SignedMeasured):
        raise EvalError(f"{what} must be a subset of N, not of Z")
    if not isinstance(v, MeasuredSet):
        raise EvalError(f"{what} must be a set, got {type_tag(v)}")
    return v


def _want_weak_operand(v, what=None, minimum=None):
    if isinstance(v, Observation):
        return v.token
    if isinstance(v, (ExactToken, NamedToken)) or _is_number(v):
        return v
    raise EvalError(f"expected a numeral token or count, got {type_tag(v)}")


def _signed(op, *sets: _DualRoute) -> SignedMeasured:
    """op, one route-generic setmeasure function, on the records and on the trees."""
    return SignedMeasured(op(*(s.record for s in sets)), op(*(s.expr for s in sets)))


def _as_signed(v: _DualRoute) -> SignedMeasured:
    return v if isinstance(v, SignedMeasured) else _signed(setmeasure.lift_signed, v)


def _call_num(base, length, *fields):
    given = {}
    for key, text in fields:
        if key not in ("head", "tail", "sign"):
            raise EvalError(f"num has no field {key!r}")
        if key in given:
            raise EvalError(f"num field {key!r} is given twice")
        given[key] = text
    return posnum.numeral(base, length, **given)


# one row per call, see the module docstring; each library function is
# looked up at call time, like every other call into the library
_BASE = (_want_int, "the numeral base", 2)
_LENGTH = (_want_number, "the digit length", None)
_TARGET = (_want_number, "the target count", None)
_SYSTEM = (_want_system, None, None)
_WEAK = (_want_weak_operand, None, None)
_CALLS = {
    "card": (lambda s: SetCount(s.record.card().terms, source=s), (_want_set, "card", None)),
    "members": (lambda s, n: setmeasure.members(s.record, n),
                (_want_nat_set, "the first argument of members", None),
                (_want_int, "the member count", 1)),
    "prodcard": (lambda s, t: setmeasure.product_card(s.record, t.record),
                 (_want_nat_set, "the first argument of prodcard", None),
                 (_want_nat_set, "the second argument of prodcard", None)),
    "ap": (lambda a, d: MeasuredSet(setmeasure.progression(a, d), ProgressionE(a, d)),
           (_want_int, "the progression start", 1), (_want_int, "the progression step", 1)),
    "mirror": (lambda s: _signed(setmeasure.mirror_signed, s),
               (_want_nat_set, "the argument of mirror", None)),
    "numerals": (lambda b, n: posnum.numeral_count(b, n),
                 _BASE, (_want_length, "the digit length", None)),
    "signedcount": (lambda b: posnum.signed_line_count(b), _BASE),
    "floatcount": (lambda b: posnum.float_count(b), _BASE),
    "critical": (lambda b, m: posnum.critical(b, m), _BASE, _TARGET),
    "crit": (lambda b, m: posnum.critical(b, m).k1, _BASE, _TARGET),
    "num": (_call_num, _BASE, _LENGTH),
    "succ": (lambda x: posnum.successor(x), (_want_numeral, "the argument of succ", None)),
    "pred": (lambda x: posnum.predecessor(x), (_want_numeral, "the argument of pred", None)),
    "first": (lambda b, n, k: posnum.enumerate_first(b, n, k),
              _BASE, _LENGTH, (_want_int, "the chain length", 1)),
    "observe": (lambda sys, c: observer.observe(sys, c),
                _SYSTEM, (_want_number, "the observed count", None)),
    "wadd": (lambda sys, a, b: observer.weak_add(sys, a, b), _SYSTEM, _WEAK, _WEAK),
    "distinct": (lambda sys, u, v: observer.distinguishable(sys, u, v), _SYSTEM,
                 (_want_number, "the first count", None), (_want_number, "the second count", None)),
    "subst": (lambda x, point: fin(oracle.subst(x, point)),
              (_want_length, "the expression to substitute", None),
              (_want_int, "the substitution point", 1)),
}


# operator semantics


def _eval_pow(base, exp):
    if isinstance(exp, CritRef):
        return gnum.pow_count(_want_int(base, "the base of a critical power"), exp)
    return gnum.power(_want_number(base, "the base of ^"), _want_number(exp, "the exponent"))


def _eval_arith(op, a, b):
    if isinstance(a, _COUNTS) and isinstance(b, _COUNTS):
        if op == "+":
            return gnum.add(a, b)
        if op == "-":
            return gnum.sub(a, b)
        if op == "*":
            return gnum.mul(a, b)
        return gnum.div_exact(a, b)
    if isinstance(a, CritRef) or isinstance(b, CritRef):
        # critical lengths shift by finite integers and nothing else
        if op == "+" and isinstance(b, CritRef) and not isinstance(a, CritRef):
            a, b = b, a
        if op in ("+", "-") and isinstance(a, CritRef) and not isinstance(b, CritRef):
            n = _want_int(b, "the critical-length shift")
            return CritRef(a.base, a.target, a.offset + (n if op == "+" else -n))
        raise EvalError("critical lengths only shift by finite integers")
    if isinstance(a, _DualRoute) or isinstance(b, _DualRoute):
        raise EvalError(f"{op} does not apply to sets; use | & \\ ~")
    # one side is not a count, and the first check that finds it raises
    _want_number(a, f"the left operand of {op}")
    _want_number(b, f"the right operand of {op}")
    raise AssertionError("unreachable: both operands are counts")


def _eval_setop(op, a, b):
    for side in (a, b):
        if not isinstance(side, _DualRoute):
            raise EvalError(f"{op} expects sets, got {type_tag(side)}")
    op = SetOp(op)
    if isinstance(a, MeasuredSet) and isinstance(b, MeasuredSet):
        return MeasuredSet(
            setmeasure.combine(op, a.record, b.record), CombineE(op, a.expr, b.expr)
        )
    return _signed(partial(setmeasure.combine_signed, op), _as_signed(a), _as_signed(b))


def _eval_cmp(op, a, b):
    if _is_number(a) and _is_number(b):
        return gnum.compare(a, b) in _VERDICTS[op]
    if isinstance(a, posnum.InfNumeral) and isinstance(b, posnum.InfNumeral):
        return posnum.compare_numerals(a, b) in _VERDICTS[op]
    if op == "==":
        if isinstance(a, _DualRoute) and isinstance(b, _DualRoute):
            return _as_signed(a) == _as_signed(b)
        if isinstance(a, (ExactToken, NamedToken)) and isinstance(
            b, (ExactToken, NamedToken)
        ):
            return tokens_equal(a, b)
        if isinstance(a, Observation) and isinstance(b, Observation):
            return a.system == b.system and tokens_equal(a.token, b.token)
        if isinstance(a, bool) and isinstance(b, bool):
            return a is b
    raise EvalError(f"cannot compare {type_tag(a)} and {type_tag(b)} with {op}")


def _eval_set_literal(elems):
    negatives, has_zero, positives = set(), False, set()
    for v in elems:
        n = _want_int(v, "a set element")
        if n > 0:
            positives.add(n)
        elif n == 0:
            has_zero = True
        else:
            negatives.add(-n)
    pos = MeasuredSet(setmeasure.finite_set(positives), FiniteSetE(frozenset(positives)))
    if not negatives and not has_zero:
        return pos
    neg = MeasuredSet(setmeasure.finite_set(negatives), FiniteSetE(frozenset(negatives)))
    return _signed(lambda below, above: SignedSet(below, has_zero, above), neg, pos)


def evaluate(ast: Ast, env: Dict[str, Value]) -> Value:
    """Evaluate under env; a let-statement also binds its name there."""
    # node kinds in order of how often they occur
    kind = type(ast)
    if kind is Bin:
        # a loop down the left spine, evaluating left to right: a rendered
        # union of a thousand residue classes must not recurse per operator
        spine = []
        while type(ast) is Bin:
            spine.append(ast)
            ast = ast.left
        acc = evaluate(ast, env)
        for node in reversed(spine):
            b = evaluate(node.right, env)
            op = node.op
            if op in ("+", "-", "*", "/"):
                acc = _eval_arith(op, acc, b)
            elif op == "^":
                acc = _eval_pow(acc, b)
            else:
                acc = _eval_setop(op, acc, b)
        return acc
    if kind is Lit:
        return fin(ast.value)
    if kind is Name:
        try:
            return env[ast.ident]
        except KeyError:
            raise UnboundIdentifier(f"unbound identifier {ast.ident!r}") from None
    if kind is Call:
        row = _CALLS.get(ast.func)
        if row is None:
            raise UnboundIdentifier(f"unknown function {ast.func!r}")
        arity = len(row) - 1
        if len(ast.args) != arity:
            raise EvalError(
                f"{ast.func} takes {arity} argument{'s' if arity != 1 else ''}, "
                f"got {len(ast.args)}"
            )
        values = [evaluate(a, env) for a in ast.args]
        for i in range(arity):
            check, what, minimum = row[i + 1]
            values[i] = check(values[i], what, minimum)
        return row[0](*values, *ast.fields)
    if kind is Unary:
        v = evaluate(ast.operand, env)
        if ast.op == "-":
            return gnum.neg(_want_number(v, "the operand of unary -"))
        if isinstance(v, MeasuredSet):
            return MeasuredSet(setmeasure.complement(v.record), ComplementE(v.expr))
        if isinstance(v, SignedMeasured):
            return _signed(setmeasure.complement_signed, v)
        raise EvalError(f"~ expects a set, got {type_tag(v)}")
    if kind is Cmp:
        return _eval_cmp(ast.op, evaluate(ast.left, env), evaluate(ast.right, env))
    if kind is SetLit:
        return _eval_set_literal([evaluate(e, env) for e in ast.elems])
    if kind is Let:
        if ast.name in _BUILTINS or ast.name in _CALLS:
            raise EvalError(f"{ast.name!r} is reserved")
        value = evaluate(ast.value, env)
        env[ast.name] = value
        return value
    raise EvalError(f"unexpected syntax node {ast!r}")


def eval_text(text: str, env: Optional[Dict[str, Value]] = None) -> Value:
    if env is None:
        env = default_env()
    return evaluate(parse(text), env)


# ---------------------------------------------------------------------------
# rendering


# One row per value kind: (classes, type tag, renderer).  The first row
# that matches wins, so bool comes before int.  posnum's renderers are
# looked up at call time, like every other call into the library.
_KINDS = (
    (bool, "bool", lambda v: "true" if v else "false"),
    (int, "int", lambda v: str(gnum.check_digits(v))),
    ((GrossPoly, ExpCount), "count", render_gross),
    (CritRef, "critical_length", render_critref),
    (MeasuredSet, "set", lambda v: str(v.record)),
    (SignedMeasured, "signed_set", lambda v: str(v.record)),
    (posnum.InfNumeral, "numeral", lambda v: posnum.render_numeral(v)),
    (posnum.CriticalPair, "critical_pair", lambda v: posnum.render_critical_pair(v)),
    (Observation, "observation", str),
    ((ExactToken, NamedToken), "token", str),
    (CountingSystem, "system", str),
    (tuple, "sequence", lambda v: "[" + ", ".join(render_value(x) for x in v) + "]"),
)


def _kind(v: Value):
    """(type tag, renderer) of a value."""
    for classes, tag, render in _KINDS:
        if isinstance(v, classes):
            return tag, render
    return type(v).__name__, repr


def render_value(v: Value) -> str:
    return _kind(v)[1](v)


def type_tag(v: Value) -> str:
    return _kind(v)[0]
