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
An input may nest at most 100 levels deep, counting brackets, call
arguments, unary operators and exponents; a deeper one is a ParseError,
not a recursion.  A long chain such as 1 - 1 - ... - 1 nests one level.
The `fields` block is a brace-suffixed record accepted only by `num`,
carrying digit strings: num(10, G){head: "", tail: "1", sign: "-"}.

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
(cardinality, rendering); the tree answers extensional ones (membership,
finite enumeration), so every measurement stays checkable against brute
force.  The two are never merged.  A card result is a SetCount: the count,
holding the set it counted, so the oracle checks that set as printed.

Canonical rendering is inverse to the parser on calculator values:
re-parsing a rendered count, set, or boolean evaluates to an equal value.
"""

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Ast"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True)
class Cmp:
    op: str
    left: "Ast"
    right: "Ast"


@dataclass(frozen=True)
class SetLit:
    elems: Tuple["Ast", ...]


@dataclass(frozen=True)
class Call:
    func: str
    args: Tuple["Ast", ...]
    fields: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Let:
    name: str
    value: "Ast"


Ast = Union[Lit, Name, Unary, Bin, Cmp, SetLit, Call, Let]


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class _Tok:
    kind: str  # INT, IDENT, STR, OP, EOF
    text: str
    line: int
    col: int


_DIGITS = "0123456789"
_TWO_CHAR = ("<=", ">=", "==")
_ONE_CHAR = set("()+-*/^<>&|\\~{},:=")


def _tokenize(text: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        at = col
        if c == "①":  # ①, the circled-one glyph
            toks.append(_Tok("IDENT", "G", line, at))
            i += 1
            col += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(_Tok("INT", text[i:j], line, at))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("IDENT", text[i:j], line, at))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in ('"', "\n"):
                j += 1
            if j >= n or text[j] == "\n":
                raise ParseError("unterminated string", line, at, '"')
            toks.append(_Tok("STR", text[i + 1 : j], line, at))
            col += j - i + 1
            i = j + 1
            continue
        if text[i : i + 2] in _TWO_CHAR:
            toks.append(_Tok("OP", text[i : i + 2], line, at))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            toks.append(_Tok("OP", c, line, at))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, at)
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser

_COMPARATORS = ("<", "<=", "==", ">=", ">")
# binding power of each binary operator; '^' binds tighter still, see power
_BINDING = {"|": 1, "\\": 1, "&": 2, "+": 3, "-": 3, "*": 4, "/": 4}
# nesting levels one input may open; deeper inputs are refused, not recursed
_MAX_NESTING = 100


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at_op(self, *texts) -> bool:
        t = self.peek()
        return t.kind == "OP" and t.text in texts

    @staticmethod
    def describe(t: _Tok) -> str:
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
        if self.at_op(*_COMPARATORS):
            op = self.advance().text
            right = self.binary()
            t = self.peek()
            if t.kind == "OP" and t.text in _COMPARATORS:
                raise ParseError("comparisons do not chain", t.line, t.col, "end of input")
            return Cmp(op, left, right)
        return left

    def binary(self) -> Ast:
        """Operands joined by binary operators, grouped by binding power, each
        power left-associative.  Pending operators wait on a stack, so mixing
        powers costs no recursion."""
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
        # every nesting level (brackets, call arguments, unary operators,
        # exponents) enters here once, while a left-spine chain stays level
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
            # measured on the text, before int() has to read it
            if len(t.text) > gnum.MAX_DIGITS:
                raise RepresentationLimit(
                    f"a literal has {len(t.text)} digits, more than {gnum.MAX_DIGITS}"
                )
            return Lit(int(t.text))
        if t.kind == "IDENT":
            if not self.at_op("("):
                return Name(t.text)
            self.advance()
            args = self.items(")")
            fields = self.field_block() if t.text == "num" and self.at_op("{") else ()
            return Call(t.text, args, fields)
        if t.kind == "OP" and t.text == "(":
            node = self.expr()
            self.expect("OP", ")")
            return node
        if t.kind == "OP" and t.text == "{":
            return SetLit(self.items("}"))
        raise ParseError(f"unexpected {self.describe(t)}", t.line, t.col, "expression")

    def items(self, close: str) -> Tuple[Ast, ...]:
        """Comma-separated expressions up to and including the close bracket."""
        elems = []
        if not self.at_op(close):
            elems.append(self.expr())
            while self.at_op(","):
                self.advance()
                elems.append(self.expr())
        self.expect("OP", close)
        return tuple(elems)

    def field_block(self):
        self.expect("OP", "{")
        pairs = []
        if not self.at_op("}"):
            while True:
                key = self.expect("IDENT", expected="field name").text
                self.expect("OP", ":")
                value = self.expect("STR", expected="quoted digits").text
                pairs.append((key, value))
                if self.at_op(","):
                    self.advance()
                    continue
                break
        self.expect("OP", "}")
        return tuple(pairs)


def parse(text: str) -> Ast:
    return _Parser(_tokenize(text)).statement()


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True, eq=False)
class _DualRoute:
    """A set kept on both bookkeeping routes: the canonical residue record
    and the expression tree it came from.  Values compare by record."""

    record: Union[NatSubset, SignedSet]
    expr: Union[SetExpr, SignedSet]

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.record == other.record
        return NotImplemented

    def __hash__(self):
        return hash(self.record)

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


def _is_number(v) -> bool:
    return isinstance(v, (GrossPoly, ExpCount))


def _want_number(v, what: str, minimum=None) -> GrossNumber:
    if not _is_number(v):
        raise EvalError(f"{what} must be a count, got {type_tag(v)}")
    return v


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


def _want_set(v, what: str, minimum=None) -> _DualRoute:
    if not isinstance(v, _DualRoute):
        raise EvalError(f"{what} expects a set, got {type_tag(v)}")
    return v


def _want_nat_set(v, what: str, minimum=None) -> MeasuredSet:
    if isinstance(v, SignedMeasured):
        raise EvalError(f"{what} must be a subset of N, not of Z")
    if not isinstance(v, MeasuredSet):
        raise EvalError(f"{what} must be a set, got {type_tag(v)}")
    return v


def _want_numeral(v, what: str, minimum=None) -> posnum.InfNumeral:
    if not isinstance(v, posnum.InfNumeral):
        raise EvalError(f"{what} must be a numeral, got {type_tag(v)}")
    return v


def _want_system(v, what=None, minimum=None) -> CountingSystem:
    if not isinstance(v, CountingSystem):
        raise EvalError(f"expected a counting system, got {type_tag(v)}")
    return v


def _want_weak_operand(v, what=None, minimum=None):
    if isinstance(v, Observation):
        return v.token
    if isinstance(v, (ExactToken, NamedToken)) or _is_number(v):
        return v
    raise EvalError(f"expected a numeral token or count, got {type_tag(v)}")


def _as_signed(v: _DualRoute) -> SignedMeasured:
    if isinstance(v, SignedMeasured):
        return v
    return SignedMeasured(setmeasure.lift_signed(v.record), setmeasure.lift_signed(v.expr))


def _digit_tuple(text: str, what: str) -> Tuple[int, ...]:
    out = []
    for ch in text:
        if ch not in _DIGITS:
            raise EvalError(f"{what} must contain digits only, got {ch!r}")
        out.append(int(ch))
    return tuple(out)


def _call_num(base, length, *fields):
    head: Tuple[int, ...] = ()
    tail: Tuple[int, ...] = ()
    sign = ""
    for key, text in fields:
        if key == "head":
            head = _digit_tuple(text, "head")
        elif key == "tail":
            tail = _digit_tuple(text, "tail")
        elif key == "sign":
            if text not in ("", "+", "-"):
                raise EvalError(f'sign must be "", "+" or "-", got {text!r}')
            sign = text
        else:
            raise EvalError(f"num has no field {key!r}")
    return posnum.numeral(base, length, head=head, tail=tail, sign=sign)


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
    "mirror": (lambda s: SignedMeasured(setmeasure.mirror_signed(s.record),
                                        setmeasure.mirror_signed(s.expr)),
               (_want_nat_set, "the argument of mirror", None)),
    "numerals": (lambda b, n: gnum.pow_count(b, n) if isinstance(n, CritRef)
                 else posnum.numeral_count(b, n),
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
    a = _want_number(a, f"the left operand of {op}")
    b = _want_number(b, f"the right operand of {op}")
    if op == "+":
        return gnum.add(a, b)
    if op == "-":
        return gnum.sub(a, b)
    if op == "*":
        return gnum.mul(a, b)
    return gnum.div_exact(a, b)


def _eval_setop(op, a, b):
    for side in (a, b):
        if not isinstance(side, _DualRoute):
            raise EvalError(f"{op} expects sets, got {type_tag(side)}")
    op = SetOp(op)
    if isinstance(a, MeasuredSet) and isinstance(b, MeasuredSet):
        return MeasuredSet(
            setmeasure.combine(op, a.record, b.record), CombineE(op, a.expr, b.expr)
        )
    a, b = _as_signed(a), _as_signed(b)
    return SignedMeasured(
        setmeasure.combine_signed(op, a.record, b.record),
        setmeasure.combine_signed(op, a.expr, b.expr),
    )


_VERDICTS = {
    "<": (Ordering.LESS,),
    "<=": (Ordering.LESS, Ordering.EQUAL),
    "==": (Ordering.EQUAL,),
    ">=": (Ordering.GREATER, Ordering.EQUAL),
    ">": (Ordering.GREATER,),
}


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
    pos = MeasuredSet(
        setmeasure.finite_set(positives), FiniteSetE(frozenset(positives))
    )
    if not negatives and not has_zero:
        return pos
    return SignedMeasured(
        SignedSet(setmeasure.finite_set(negatives), has_zero, pos.record),
        SignedSet(FiniteSetE(frozenset(negatives)), has_zero, pos.expr),
    )


def evaluate(ast: Ast, env: Dict[str, Value]) -> Value:
    """Evaluate under env; a let-statement also binds its name there."""
    if isinstance(ast, Let):
        if ast.name in _BUILTINS or ast.name in _CALLS:
            raise EvalError(f"{ast.name!r} is reserved")
        value = evaluate(ast.value, env)
        env[ast.name] = value
        return value
    if isinstance(ast, Lit):
        return fin(ast.value)
    if isinstance(ast, Name):
        try:
            return env[ast.ident]
        except KeyError:
            raise UnboundIdentifier(f"unbound identifier {ast.ident!r}") from None
    if isinstance(ast, Unary):
        v = evaluate(ast.operand, env)
        if ast.op == "-":
            return gnum.neg(_want_number(v, "the operand of unary -"))
        if isinstance(v, MeasuredSet):
            return MeasuredSet(setmeasure.complement(v.record), ComplementE(v.expr))
        if isinstance(v, SignedMeasured):
            return SignedMeasured(
                setmeasure.complement_signed(v.record), setmeasure.complement_signed(v.expr)
            )
        raise EvalError(f"~ expects a set, got {type_tag(v)}")
    if isinstance(ast, Bin):
        # a loop down the left spine, evaluating left to right: a rendered
        # union of a thousand residue classes must not recurse per operator
        spine = []
        while isinstance(ast, Bin):
            spine.append(ast)
            ast = ast.left
        acc = evaluate(ast, env)
        for node in reversed(spine):
            b = evaluate(node.right, env)
            if node.op == "^":
                acc = _eval_pow(acc, b)
            elif node.op in ("+", "-", "*", "/"):
                acc = _eval_arith(node.op, acc, b)
            else:
                acc = _eval_setop(node.op, acc, b)
        return acc
    if isinstance(ast, Cmp):
        return _eval_cmp(ast.op, evaluate(ast.left, env), evaluate(ast.right, env))
    if isinstance(ast, SetLit):
        return _eval_set_literal([evaluate(e, env) for e in ast.elems])
    if isinstance(ast, Call):
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
