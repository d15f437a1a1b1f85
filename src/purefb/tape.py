"""Straight-line tapes of right-hand sides, compiled to Python functions.

A ``Var`` is a tracing scalar: it carries the concrete value of one
evaluation point and the SSA name of the tape line that computes it.
Running a generic right-hand side ``f(t, y)`` once on ``Var`` inputs --
through the plant, the controller stack and the dual-number tower of
``autodiff``, which are all generic over their scalar -- records every
float operation it performs (``+ - * / **``, ``abs`` and the ``sqrt``,
``cos`` and ``sin`` of ``autodiff``), in order (tape-based AD as in
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008).  The tape is
emitted as the source of one flat function and compiled with
``compile()``.

The compiled function returns the same bits as ``f`` at every point:

* operations are recorded with their operands in evaluation order; the
  only rewrites are x*1.0, 1.0*x, x/1.0 and x-0.0 -> x, exact in IEEE
  arithmetic.  Operations between constants never reach the tape;
* a repeated operation on the same operands reuses the first line;
* a comparison on a ``Var`` (the sqrt domain and division-by-zero checks,
  any data-dependent branch) becomes a guard: where it comes out
  differently than at the traced point, the call returns ``f(t, y)``,
  which takes the other branch or raises the error ``f`` raises;
* ``select_lt`` records a conditional expression instead of a guard;
* lines that no output or guard reads are dropped unless they may raise
  (division by a ``Var``, powers, sqrt, cos, sin);
* a line read exactly once that cannot raise is written into its reader
  as a nested expression (up to ``_MAX_DEPTH`` deep) instead of a
  temporary; raising lines and guards stay statements, in order.

``Traced`` compiles ``f`` itself and, given the step h, one whole RK4
step of ``f`` (``simkit.rk4_combine`` traced on ``Var`` inputs), whose
guards return None instead of calling ``f``.
"""

from __future__ import annotations

import collections
import math
import operator
import types

from .simkit import ABORT_LIMIT, rk4_combine

__all__ = ["Traced", "Var", "select_lt"]


# inlined expressions nest at most this deep, far below the parser's limit
_MAX_DEPTH = 40


class _Tape:
    """Lines of one trace: (name or None for a guard, format, operands,
    names of the traced operands, may raise)."""

    def __init__(self):
        self.lines = []
        self.seen = {}  # expression or guard text -> name
        self.consts = {}  # names of constants without a literal form

    def operand(self, x):
        if x.__class__ is Var:
            return x.name
        if x.__class__ is not float and x.__class__ is not int:
            raise TypeError("cannot trace a %s operand" % type(x).__name__)
        if not math.isfinite(x):
            name = "_c_" + repr(x).replace("-", "neg")
            self.consts[name] = x
            return name
        text = repr(x)
        return "(%s)" % text if text[0] == "-" else text

    def emit(self, fmt, args, value, may_raise=False):
        ops = tuple(self.operand(a) for a in args)
        expr = fmt % ops
        name = self.seen.get(expr)
        if name is None:
            name = self.seen[expr] = "v%d" % len(self.lines)
            deps = tuple(a.name for a in args if a.__class__ is Var)
            self.lines.append((name, fmt, ops, deps, may_raise))
        return Var(self, name, value)

    def guard(self, cond, args, outcome):
        fmt = ("if %s:" if not outcome else "if not %s:") % cond
        ops = tuple(self.operand(a) for a in args)
        text = fmt % ops
        if text not in self.seen:
            self.seen[text] = None
            deps = tuple(a.name for a in args if a.__class__ is Var)
            self.lines.append((None, fmt, ops, deps, True))

    def source(self, out, name, miss, limit=None):
        """Source of ``def name(t, y)`` returning ``out``.

        A guard that misses runs the statement ``miss``.  With limit, the
        function returns None instead of ``out`` unless every component
        lies in [-limit, limit] (so not NaN).  Dead lines are dropped; a
        line read exactly once that cannot raise is written into its
        reader as a nested expression, up to _MAX_DEPTH deep.
        """
        ops = tuple(self.operand(v) for v in out)
        outs = [v.name for v in out if v.__class__ is Var]
        live = set(outs)
        kept = []
        for line in reversed(self.lines):
            if line[4] or line[0] in live:
                live.update(line[3])
                kept.append(line)
        kept.reverse()
        uses = collections.Counter(d for line in kept for d in line[3])
        uses.update(outs if limit is None else outs * 2)  # the range test reads them too
        nested = {}  # name -> (expression, depth) awaiting its one reader

        def render(fmt, ops):
            parts, depth = [], 0
            for op in ops:
                sub = nested.pop(op, None)
                if sub is None:
                    parts.append(op)
                else:
                    parts.append("(%s)" % sub[0])
                    depth = max(depth, sub[1])
            return fmt % tuple(parts), depth + 1

        body = []
        for line_name, fmt, line_ops, _, may_raise in kept:
            text, depth = render(fmt, line_ops)
            if line_name is None:
                body.append("%s %s" % (text, miss))
            elif not may_raise and uses[line_name] == 1 and depth < _MAX_DEPTH:
                nested[line_name] = (text, depth)
            else:
                body.append("%s = %s" % (line_name, text))
        items = render(", ".join(["%s"] * len(ops)), ops)[0]
        ret = ("(%s,)" if out.__class__ is tuple else "[%s]") % items
        if limit is None:
            body.append("return " + ret)
        else:
            bound = repr(float(limit))
            inside = " and ".join("-%s <= %s <= %s" % (bound, op, bound) for op in ops)
            body += ["if %s:" % inside, "    return " + ret, "return None"]
        return "def %s(t, y):\n%s" % (name, "".join("    %s\n" % text for text in body))


def _value(x):
    return x.value if x.__class__ is Var else x


def _binary(op, fn, reflected=False):
    def method(self, other):
        if other.__class__ not in (Var, float, int):
            return NotImplemented
        a, b = (other, self) if reflected else (self, other)
        value = fn(_value(a), _value(b))
        # exact identities: x*1.0 = 1.0*x = x/1.0 = x-0.0 = x, signed zeros,
        # infinities and NaNs included
        if op in ("*", "/") and b.__class__ is float and b == 1.0:
            return a
        if op == "*" and a.__class__ is float and a == 1.0:
            return b
        if op == "-" and b.__class__ is float and b == 0.0 and math.copysign(1.0, b) > 0:
            return a
        may_raise = op == "**" or (op == "/" and b.__class__ is Var)
        return self.tape.emit("%s " + op + " %s", (a, b), value, may_raise)

    return method


def _compare(op, fn):
    def method(self, other):
        if other.__class__ not in (Var, float, int):
            return NotImplemented
        outcome = fn(self.value, _value(other))
        self.tape.guard("%s " + op + " %s", (self, other), outcome)
        return outcome

    return method


class Var:
    """Tracing scalar: a concrete value plus the tape line that computes it."""

    __slots__ = ("tape", "name", "value")

    def __init__(self, tape, name, value):
        self.tape = tape
        self.name = name
        self.value = value

    def __repr__(self):
        return "Var(%s=%r)" % (self.name, self.value)

    __add__ = _binary("+", operator.add)
    __radd__ = _binary("+", operator.add, True)
    __sub__ = _binary("-", operator.sub)
    __rsub__ = _binary("-", operator.sub, True)
    __mul__ = _binary("*", operator.mul)
    __rmul__ = _binary("*", operator.mul, True)
    __truediv__ = _binary("/", operator.truediv)
    __rtruediv__ = _binary("/", operator.truediv, True)
    __pow__ = _binary("**", operator.pow)
    __rpow__ = _binary("**", operator.pow, True)
    __lt__ = _compare("<", operator.lt)
    __le__ = _compare("<=", operator.le)
    __gt__ = _compare(">", operator.gt)
    __ge__ = _compare(">=", operator.ge)
    __eq__ = _compare("==", operator.eq)
    __ne__ = _compare("!=", operator.ne)
    __hash__ = None

    def __neg__(self):
        return self.tape.emit("-%s", (self,), -self.value)

    def __pos__(self):
        return self

    def __abs__(self):
        return self.tape.emit("abs(%s)", (self,), abs(self.value))

    def __bool__(self):
        outcome = bool(self.value)
        self.tape.guard("%s", (self,), outcome)
        return outcome

    def sqrt(self):
        """math.sqrt of this value, for ``autodiff.sqrt`` past its domain check."""
        return self.tape.emit("_sqrt(%s)", (self,), math.sqrt(self.value), True)

    def cos(self):
        """math.cos of this value, for ``autodiff.cos``; raises at infinities."""
        return self.tape.emit("_cos(%s)", (self,), math.cos(self.value), True)

    def sin(self):
        """math.sin of this value, for ``autodiff.sin``; raises at infinities."""
        return self.tape.emit("_sin(%s)", (self,), math.sin(self.value), True)


def select_lt(a, b, then, other):
    """``then if a < b else other``; traced as a conditional expression, not a guard."""
    args = (a, b, then, other)
    for x in args:
        if x.__class__ is Var:
            tape = x.tape
            break
    else:
        return then if a < b else other
    value = _value(then) if _value(a) < _value(b) else _value(other)
    return tape.emit("(%s if %s < %s else %s)", (then, a, b, other), value)


def _untraced(t, y):
    """Code of ``Traced.call`` until a trace succeeds."""
    return _fallback(t, y)  # a global of each Traced namespace


class Traced:
    """Stand-in for a right-hand side ``fn(t, y)``, compiled by ``trace``.

    ``call`` is a plain function with the signature of ``fn``.  It runs
    ``fn`` until ``trace`` succeeds and never traces by itself; afterwards
    its code object is the compiled tape, so whoever holds ``call`` -- an
    integrator, a profiling wrapper -- runs the tape with no frame in
    between.  ``fn`` stays the reference: guard misses fall back to it.

    ``step``, once ``trace`` was given a step h, is one whole RK4 step of
    ``fn`` (``simkit.rk4_combine`` traced at h): step(t, y) returns the
    list ``rk4_step(fn, y, t, h)`` returns, bit for bit, or None where a
    guard misses or a component is NaN or beyond +-``simkit.ABORT_LIMIT``.
    It may raise the arithmetic error ``fn`` raises.
    """

    def __init__(self, fn):
        self.fn = fn
        self.source = None  # emitted source once traced
        self.step = None
        self.step_source = None
        self.step_h = None  # the h step was compiled at
        self._ns = {"_fallback": fn, "_sqrt": math.sqrt, "_cos": math.cos, "_sin": math.sin}
        self.call = types.FunctionType(_untraced.__code__, self._ns, "rhs")

    def trace(self, t, y, h=None):
        """Compile at (t, y) unless done; True when ``call`` runs the tape.

        With h, also compile ``step`` at h, tracing its first stage at
        (t, y); ``step`` stays None where that trace fails.
        """
        if self.source is None:
            self.source = self._compile(self.fn, t, y, "tape", "return _fallback(t, y)")
            if self.source is None:
                return False
            self.call.__code__ = self._ns["tape"].__code__
        if h is not None and h != self.step_h:
            fn = self.fn
            self.step_source = self._compile(
                lambda tv, yv: rk4_combine(fn, yv, tv, h), t, y, "step", "return None",
                ABORT_LIMIT)
            self.step = self._ns.pop("step", None)
            self.step_h = h
        return True

    def _compile(self, fn, t, y, name, miss, limit=None):
        """Trace fn at (t, y) and define ``name`` in the namespace; its source or None."""
        tape = _Tape()
        ys = []
        for i, v in enumerate(y):
            var_name = "y%d" % i
            tape.lines.append((var_name, "y[%d]" % i, (), (), False))
            ys.append(Var(tape, var_name, v))
        try:
            source = tape.source(fn(Var(tape, "t", t), ys), name, miss, limit)
        except Exception:
            # fn fails at this point (fn(t, y) raises the same error) or
            # does what a Var cannot record; either way fn answers
            return None
        self._ns.update(tape.consts)
        exec(compile(source, "<tape>", "exec"), self._ns)
        return source
