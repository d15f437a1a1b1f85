"""Straight-line tapes of traced functions, compiled to Python functions.

A ``Var`` is a tracing scalar: it carries the concrete value of one
evaluation point and the SSA name of the tape line that computes it.
Running a generic function once on ``Var`` inputs -- such as
``simkit.rk4_step`` of a scenario's right-hand side, through the plant,
the controller stack and the dual-number tower of ``autodiff``, which are
all generic over their scalar -- records every float operation it makes
(``+ - * / **``, ``abs`` and each primitive of ``autodiff.PRIMITIVES`` as
a call ``_<name>(...)``, bound to ``math.<name>``), in order, and its
control flow at the traced point as guards (tape-based AD as in Griewank
& Walther, *Evaluating Derivatives*, 2nd ed., 2008).  ``compile_loop``
traces a recorded row and a step on one tape, so what they share is
computed once, and emits a run loop that keeps the state in locals,
compiled with ``compile()``: it steps, and on every decimation-th step
records a row.

The loop computes the same bits as the traced functions, or stops where
it cannot vouch for them:

* operations are recorded with their operands in evaluation order; the
  only rewrites are x*1.0, 1.0*x, x/1.0 and x-0.0 -> x, exact in IEEE
  arithmetic.  Operations between constants never reach the tape;
* a repeated operation on the same operands reuses the first line;
* a comparison on a ``Var`` (a range check, any data-dependent branch)
  becomes a guard: where it comes out differently than at the traced
  point, a NaN operand included, the loop stops;
* ``autodiff.select_lt`` with a ``Var`` among its operands
  (``Var.select_lt``) records a conditional expression instead of a guard;
* lines that no output or guard reads are dropped unless they may raise
  (division by a ``Var``, powers, primitives);
* a line read exactly once that cannot raise is written into its reader
  as a nested expression (up to ``_MAX_DEPTH`` deep) instead of a
  temporary; raising lines and guards stay statements, in order.

A ``try`` in the traced function is not on the tape: where an operation
raises ArithmeticError or ValueError, the loop stops too.  It returns
where it stopped, so that the caller takes that one step or row on the
plain path and enters the loop again.  Where the trace itself fails (the
row or the step raises at the traced point, or does what a ``Var``
cannot record), there is no loop: ``compile_loop`` returns None, as
``compile_lanes`` does, and the caller runs on floats.

One walk of the tape (``_Tape.walk``: the dead-line drop and the nesting
above) has a second backend.  ``compile_lanes`` traces a generic
function once and emits the same expression text over numpy float64
columns, one lane per evaluation point, as in the ensemble pattern of
DifferentialEquations.jl (Rackauckas & Nie, JORS 5(1), 2017).  Elementwise
``+ - * /``, ``abs`` and ``sqrt`` round in numpy exactly as on Python
floats, so each lane holds the serial bits; a tape with ``**`` or another
primitive has no lanes form.  A conditional expression becomes ``np.where``,
and a guard, a division by a ``Var`` and a sqrt mark the lanes where the
float code would branch otherwise or raise in a ``miss`` mask instead of
returning.
"""

from __future__ import annotations

import collections
import math
import operator

import numpy as np

__all__ = ["Var", "compile_lanes", "compile_loop"]


# inlined expressions nest at most this deep, far below the parser's limit
_MAX_DEPTH = 40

# lines that may raise and that numpy rounds as Python does: the format, the
# condition under which the float form raises and the operand it tests
# (division by a Var, sqrt); powers and the other primitives have no lanes form
_LANE_RAISES = {"%s / %s": ("%s == 0.0", 1), "_sqrt(%s)": ("%s < 0.0", 0)}

# lines the lanes form writes differently: format -> (format, operand order)
_LANE_FORMS = {"(%s if %s < %s else %s)": ("_where(%s < %s, %s, %s)", (1, 2, 0, 3))}


class _Tape:
    """Lines of one trace: (name, format, operands, names of the traced
    operands, may raise); a guard is (None, condition format, operands,
    names, the traced outcome)."""

    def __init__(self):
        self.lines = []
        self.seen = {}  # expression or guard text -> name
        self.consts = {}  # names of constants without a literal form
        self.primitives = set()  # names of the primitives its lines call

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
        ops = tuple(self.operand(a) for a in args)
        text = ("if %s:" if not outcome else "if not %s:") % (cond % ops)
        if text not in self.seen:
            self.seen[text] = None
            deps = tuple(a.name for a in args if a.__class__ is Var)
            self.lines.append((None, cond, ops, deps, outcome))

    def record(self, cells):
        """A line named "record" that hands ``[t, *cells]`` to ``record``;
        it is kept, in order, like a raising line."""
        ops = tuple(self.operand(c) for c in cells)
        fmt = "record([t, %s])" % ", ".join(["%s"] * len(ops))
        deps = tuple(c.name for c in cells if c.__class__ is Var)
        self.lines.append(("record", fmt, ops, deps, True))

    def functions(self, module):
        """``_<name>``: module.<name> for exactly the primitives on the tape."""
        return {"_" + name: getattr(module, name) for name in self.primitives}

    def inputs(self, values):
        """Vars y0, y1, ...: locals that each backend unpacks from its argument ``y``."""
        ys = [Var(self, "y%d" % i, v) for i, v in enumerate(values)]
        self.state = "".join(v.name + ", " for v in ys)  # "y0, y1, ": targets or items
        return ys

    def walk(self, out, reads, forms):
        """The live tape as statements: ``(line, text)`` pairs, and the outputs' text.

        One walk serves every backend.  Lines that no output or guard reads
        are dropped unless they may raise; each name in ``reads`` is read
        once more besides the lines (by the return, a domain check), and
        a line read exactly once that cannot raise is written into its
        reader as a nested expression, up to _MAX_DEPTH deep.
        ``text`` is the expression of a line, or the condition of a guard
        (a line named None, whose last field is the traced outcome).
        ``forms`` maps a line format to the backend's (format, operand
        order).
        """
        ops = tuple(self.operand(v) for v in out)
        live = {v.name for v in out if v.__class__ is Var}
        kept = []
        for line in reversed(self.lines):
            if line[0] is None or line[4] or line[0] in live:
                live.update(line[3])
                kept.append(line)
        kept.reverse()
        uses = collections.Counter(d for line in kept for d in line[3])
        uses.update(reads)
        nested = {}  # name -> (expression, depth) awaiting its one reader

        def render(fmt, ops):
            if fmt in forms:
                fmt, order = forms[fmt]
                ops = [ops[k] for k in order]
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
        for line in kept:
            text, depth = render(line[1], line[2])
            if line[0] is not None and not line[4] and uses[line[0]] == 1 and depth < _MAX_DEPTH:
                nested[line[0]] = (text, depth)
            else:
                body.append((line, text))
        return body, render(", ".join(["%s"] * len(ops)), ops)[0]

    def statements(self, out):
        """The loop backend: one pass of the run loop as statements.  A
        guard that misses breaks out, the ``record`` line runs where a row
        is due, and the last statement assigns the outputs ``out`` to the
        state."""
        # the outputs are read once more, by the state assignment
        statements, items = self.walk(out, [v.name for v in out if v.__class__ is Var], {})
        body = []
        for line, text in statements:
            if line[0] is None:
                body.append(("if %s: break" if not line[4] else "if not %s: break") % text)
            elif line[0] == "record":
                body += ["if not left:", "    " + text, "    left = decimation",
                         "    if s == steps: break"]
            else:
                body.append("%s = %s" % (line[0], text))
        body.append("%s= %s," % (self.state, items))
        return body

    def lanes_source(self, out):
        """Source of ``def lanes(y, miss)`` returning the list ``out`` over
        numpy columns, or None where the tape holds a line numpy does not
        round as Python does.

        Every guard ORs the lanes where it comes out differently into the
        bool array ``miss``, and so does every line that may raise, where
        its float form raises.
        """
        checks = {}  # name of a raising line -> its raise condition
        reads = [v.name for v in out if v.__class__ is Var]  # by the return
        for name, fmt, ops, _, may_raise in self.lines:
            if name is not None and may_raise:
                if fmt not in _LANE_RAISES:
                    return None
                cond, k = _LANE_RAISES[fmt]
                checks[name] = cond % ops[k]
                reads.append(ops[k])
        statements, items = self.walk(out, reads, _LANE_FORMS)
        body = ["%s= y" % self.state]
        tested = set()  # one check per condition, e.g. two divisions by one Var
        for line, text in statements:
            if line[0] is None:
                cond = text if not line[4] else "~(%s)" % text
            else:
                body.append("%s = %s" % (line[0], text))
                cond = checks.get(line[0])
            if cond is not None and cond not in tested:
                tested.add(cond)
                body.append("miss |= " + cond)
        body.append("return [%s]" % items)
        return "def lanes(y, miss):\n%s" % "".join("    %s\n" % text for text in body)


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

    def __abs__(self):
        return self.tape.emit("abs(%s)", (self,), abs(self.value))

    def __bool__(self):
        return self != 0.0

    def primitive(self, name):
        """math.<name> of this value, for ``autodiff``: a line that may raise
        (sqrt below zero, sin and cos at infinities, exp on overflow)."""
        value = getattr(math, name)(self.value)
        self.tape.primitives.add(name)
        return self.tape.emit("_%s(%%s)" % name, (self,), value, True)

    def select_lt(self, a, b, then, other):
        """``then if a < b else other``, traced as a conditional expression, not a guard."""
        value = _value(then) if _value(a) < _value(b) else _value(other)
        return self.tape.emit("(%s if %s < %s else %s)", (then, a, b, other), value)


def compile_loop(step, row, t, y):
    """A run loop compiled from the traces of ``row(t, y)`` and ``step(t, y)`` at (t, y).

    row maps (t, y) to a recorded row after t, step maps it to the next
    state.  Both are traced on one tape, the row first, so what they share
    runs once.  Returns ``loop(s, y, left, steps, h, decimation, record)``,
    which keeps the state y in locals and from step index s on runs the
    traced step at t = s * h, counting ``left`` down by one per step;
    where ``left`` is 0, it first calls ``record([t, *row(t, y)])`` at the
    same t and y and sets ``left`` to decimation.  It returns ``(s, y,
    left)`` where it cannot vouch for what is due (a guard missed, or
    ArithmeticError or ValueError was raised): the row at s where left ==
    0, else step s; or s == steps, left > 0 where the run is done.
    Whatever the row alone computes beyond its ``record`` call runs at
    every step, and where it misses or raises, that step is not vouched
    for.  ``loop.source`` is the emitted source, ``loop.width`` the traced
    row's length.

    Returns None where either trace fails (row or step raises at this
    point, or does what a ``Var`` cannot record): a run is compiled whole
    or not at all.
    """
    tape = _Tape()
    tv, ys = Var(tape, "t", t), tape.inputs(y)
    try:
        cells = list(row(tv, ys))
        tape.record(cells)
        body = tape.statements(list(step(tv, ys)))
    except Exception:
        return None
    # every way out of the loop returns where it stopped
    source = (
        "def loop(s, y, left, steps, h, decimation, record):\n"
        "    %s= y\n"
        "    while True:\n"
        "        t = s * h\n"
        "        try:\n%s"
        "        except (ArithmeticError, ValueError):\n"
        "            break\n"
        "        s += 1\n"
        "        left -= 1\n"
        "    return s, [%s], left\n"
        % (tape.state, "".join(" " * 12 + text + "\n" for text in body), tape.state))
    ns = {**tape.functions(math), **tape.consts}
    exec(compile(source, "<tape>", "exec"), ns)
    loop = ns["loop"]
    loop.source = source
    loop.width = len(cells)
    return loop


def compile_lanes(fn, point):
    """``fn`` of a list of scalars, compiled over numpy columns from a trace at point.

    Returns ``lanes(cols)``: cols holds one float64 column per entry of
    point, and lanes returns ``(outputs, miss)``.  outputs is a list of
    float64 columns, one per output of ``fn`` (a constant output broadcast
    to the lane count), and each lane of it holds the bits ``fn`` returns
    on that lane's floats, wherever the bool column ``miss`` is False.
    miss marks exactly the lanes where ``fn`` on floats takes another
    branch at a guard or raises, and those lanes hold no answer.  Call it
    under ``np.errstate(all="ignore")``: masked lanes may overflow or
    divide by zero.  ``lanes.source`` is the emitted source.

    Returns None where the trace fails (``fn`` raises at this point or does
    what a ``Var`` cannot record), or where the tape holds an operation numpy does not round as Python does
    (``**``, a primitive but sqrt); elementwise + - * /, abs and sqrt round alike.
    """
    tape = _Tape()
    try:
        source = tape.lanes_source(list(fn(tape.inputs(point))))
    except Exception:
        return None
    if source is None:
        return None
    ns = {"_where": np.where, **tape.functions(np), **tape.consts}
    exec(compile(source, "<lanes>", "exec"), ns)
    body = ns["lanes"]

    def lanes(cols):
        n = len(cols[0])
        miss = np.zeros(n, dtype=bool)
        outs = body(cols, miss)
        return [np.full(n, v, dtype=float) if v.__class__ is not np.ndarray else v
                for v in outs], miss

    lanes.source = source
    return lanes
