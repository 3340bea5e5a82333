"""Span tracing of grosscalc from outside the package.

Each traced public function is replaced, in every grosscalc module namespace
that binds it, by a wrapper that records a span: name, start, end, parent
span and op id, plus the time its child spans cover, so that self time
(duration minus children) charges recursive calls such as ``evaluate`` and
``build`` to each level once.  Size counters are taken at the same
boundaries, after the span has ended, and their cost is kept out of the
parent's self time.  Nothing under ``src/`` is edited; ``uninstall`` puts
every original function back.
"""
from __future__ import annotations

import math
import sys
from time import perf_counter_ns


def _ast_nodes(node) -> int:
    n = 1
    for v in vars(node).values():
        if isinstance(v, tuple):
            n += sum(_ast_nodes(x) for x in v if hasattr(x, "__dataclass_fields__"))
        elif hasattr(v, "__dataclass_fields__"):
            n += _ast_nodes(v)
    return n


def _poly_depth(p) -> int:
    return 1 + max((_poly_depth(e) for _, e in p.terms), default=-1) if p.terms else 0


def _gross_shape(x):
    """(terms, exponent depth) of a gnum result."""
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms), _poly_depth(x)
    tail = getattr(x, "tail", None)
    if tail is None:
        return 0, 0
    exponent = x.exponent
    inner = exponent if hasattr(exponent, "terms") else exponent.target
    return 1 + len(tail.terms), 1 + _poly_depth(inner)


# counters: f(tracer, args, result, parent_name)


def _count_parse(t, args, result, parent):
    t.add("gclang.ast_nodes", _ast_nodes(result))


def _count_render(t, args, result, parent):
    if parent != "gclang.render_value":
        t.add("gclang.render_chars", len(result))


def _count_arith(t, args, result, parent):
    terms, depth = _gross_shape(result)
    t.add("gnum.result_terms.sum", terms)
    t.peak("gnum.result_terms.max", terms)
    t.peak("gnum.exponent_depth.max", depth)


def _count_combine(t, args, result, parent):
    lcm = math.lcm(args[1].modulus, args[2].modulus)
    t.add("setmeasure.combine.lcm_sum", lcm)
    t.peak("setmeasure.combine.lcm_max", lcm)


def _count_nat_subset(t, args, result, parent):
    t.add("setmeasure.nat_subset.modulus_sum", args[0])
    t.peak("setmeasure.residues.max", len(result.residues))


def _count_progression(t, args, result, parent):
    first, step = args[0], args[1]
    r = first % step
    t.add("setmeasure.progression.holes_sum", len(range(r if r >= 1 else step, first, step)))


def _count_brute(t, args, result, parent):
    L = args[1]
    t.add("oracle.brute_points_sum", 2 * L + 1 if type(args[0]).__name__ == "SignedExprE" else L)


def _count_build(t, args, result, parent):
    if parent != "setmeasure.build":
        t.add("setmeasure.build.top", 1)


def targets(modules):
    """(owner, attribute, span name, counter) for every traced callable."""
    cli, gclang, gnum = modules["cli"], modules["gclang"], modules["gnum"]
    setmeasure, oracle = modules["setmeasure"], modules["oracle"]
    out = [
        (cli, "run_line", "cli.run_line", None),
        (gclang, "parse", "gclang.parse", _count_parse),
        (gclang, "evaluate", "gclang.evaluate", None),
        (gclang, "render_value", "gclang.render_value", _count_render),
        (gnum, "compare", "gnum.compare", None),
        (setmeasure, "combine", "setmeasure.combine", _count_combine),
        (setmeasure, "nat_subset", "setmeasure.nat_subset", _count_nat_subset),
        (setmeasure, "progression", "setmeasure.progression", _count_progression),
        (setmeasure, "complement", "setmeasure.complement", None),
        (setmeasure, "card", "setmeasure.card", None),
        (setmeasure, "members", "setmeasure.members", None),
        (oracle, "check_card", "oracle.check_card", None),
        (oracle, "brute_count", "oracle.brute_count", _count_brute),
        (oracle, "subst", "oracle.subst", None),
        (oracle, "admissible_points", "oracle.admissible_points", None),
    ]
    out += [(gnum, f, "gnum.arith", _count_arith)
            for f in ("add", "sub", "mul", "div_exact", "neg", "pow_count")]
    for key in ("posnum", "observer"):
        mod = modules[key]
        out += [(mod, name, key, None) for name, fn in vars(mod).items()
                if not name.startswith("_") and callable(fn) and isinstance(fn, type(targets))
                and fn.__module__ == mod.__name__]
    for cls in vars(setmeasure).values():
        if isinstance(cls, type) and "build" in vars(cls) and cls.__module__ == setmeasure.__name__:
            out.append((cls, "build", "setmeasure.build", _count_build))
    return out


class Tracer:
    def __init__(self, modules):
        self.spans = []  # (name, start_ns, end_ns, parent index, op id, child_ns)
        self.stack = []  # open span indices
        self.names = []  # open span names
        self.child = []  # child time covered so far, per open span
        self.op = -1
        self.counters = {}
        self.patches = []
        package = [m for n, m in sys.modules.items() if n == "grosscalc" or n.startswith("grosscalc.")]
        for owner, attr, name, counter in targets(modules):
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self.patches.append((owner, attr, original, wrapper))
                continue
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self.patches.append((mod, key, original, wrapper))

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def install(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def reset(self):
        self.spans = []
        self.counters = {}

    def _wrap(self, name, fn, counter):
        stack, names, child = self.stack, self.names, self.child
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            parent_name = names[-1] if names else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            names.append(name)
            child.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter_ns()
                stack.pop()
                names.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op, child.pop())
                if child:
                    child[-1] += t1 - t0
                raise
            t1 = perf_counter_ns()
            stack.pop()
            names.pop()
            spans[idx] = (name, t0, t1, parent, tracer.op, child.pop())
            if counter is not None:
                counter(tracer, args, result, parent_name)
            if child:
                child[-1] += perf_counter_ns() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self):
        """{span name: (calls, self ns)} over the recorded spans."""
        out = {}
        for name, t0, t1, _, _, child_ns in self.spans:
            calls, ns = out.get(name, (0, 0))
            out[name] = (calls + 1, ns + t1 - t0 - child_ns)
        return out
