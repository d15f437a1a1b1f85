"""Forward-mode automatic differentiation on nestable dual numbers.

Stage-function synthesis needs partial derivatives of virtual control laws
with respect to state and gain variables, including derivatives of functions
that already contain derivatives of earlier stages.  All controller
arithmetic is therefore written against a generic scalar: a plain float, or a
``Dual`` carrying a dense vector of first partials for one differentiation
pass, whose value and partials may themselves be ``Dual`` values of an
enclosing pass.

Every call to ``seed`` opens a fresh pass identified by a strictly
increasing tag.  Each of ``+ - * /`` has two rules: both operands belong to
one pass, or one operand is a constant of the other's pass.  A dual of an
older (outer) pass is such a constant of a newer (inner) pass, so the newer
operand always applies the rule; that is what makes nested passes compose
without perturbation confusion (Siskind & Pearlmutter, "Nesting
forward-mode AD in a functional framework", HOSC 21(4), 2008).  A
quotient divides once, so its value is the float quotient.  Partials are
extracted with ``partial(y, j, tag)`` so that a function which degenerates
to a constant of the queried pass correctly reports a zero derivative.

Supported primitives: ``+ - * /``, integer powers, ``smooth_abs``,
``select_lt`` and the table ``PRIMITIVES`` of ``sqrt``, ``sin``, ``cos`` and
``exp``: a real takes ``math`` (or the plain conditional), any other scalar
(a ``Dual``, a tracing ``tape.Var``) its method ``primitive(name)`` (or
``select_lt``).  Anything else (``math.*`` calls, float-exponent ``**``,
plain ``abs``) fails loudly rather than silently dropping derivatives.
"""

from __future__ import annotations

import functools
import math
import numbers

__all__ = [
    "Dual",
    "EvaluationError",
    "PRIMITIVES",
    "cos",
    "exp",
    "gradient",
    "partial",
    "real_value",
    "second_derivative",
    "seed",
    "select_lt",
    "sin",
    "smooth_abs",
    "sqrt",
]


class EvaluationError(ArithmeticError):
    """A supported primitive was evaluated outside its domain."""


_tag_counter = 0


def _new_tag():
    global _tag_counter
    _tag_counter += 1
    return _tag_counter


def real_value(x):
    """Innermost float of a generic scalar (the raw evaluation-point value)."""
    while x.__class__ is Dual:
        x = x.value
    return x


def partial(y, j, tag):
    """j-th partial of y in the pass identified by tag.

    Returns 0.0 when y is constant with respect to that pass (a plain float,
    or a dual belonging to a different pass).
    """
    if y.__class__ is Dual and y.tag == tag:
        return y.partials[j]
    return 0.0


class Dual:
    """Scalar carrying first partials with respect to one seeded pass.

    ``value`` and each entry of ``partials`` are themselves generic scalars
    (floats, or duals of an enclosing pass).  Instances are immutable in
    practice; build them through ``seed`` rather than by hand.

    Each of ``+ - * /`` has two rules.  Both operands belong to this pass:
    values and partials combine elementwise.  The other operand is a
    constant of this pass (a float, another scalar or a dual of an older
    pass): it meets the value and each partial.  A dual of a newer pass
    takes the operation over through its reflected method, where this dual
    is the constant.  A quotient divides once, ``value / b`` and
    ``(p - q r) / b``, so its value is the float quotient.
    """

    __slots__ = ("tag", "value", "partials")

    def __init__(self, tag, value, partials):
        self.tag = tag
        self.value = value
        self.partials = partials

    def __repr__(self):
        return "Dual(tag=%d, %r, %r)" % (self.tag, self.value, self.partials)

    def _check(self, other):
        if len(self.partials) != len(other.partials):
            raise EvaluationError(
                "seed-set mismatch: %d vs %d partials within one pass"
                % (len(self.partials), len(other.partials))
            )

    def __add__(self, other):
        if other.__class__ is Dual:
            if other.tag == self.tag:
                self._check(other)
                return Dual(
                    self.tag,
                    self.value + other.value,
                    tuple([a + b for a, b in zip(self.partials, other.partials)]),
                )
            if other.tag > self.tag:
                return other.__radd__(self)
        return Dual(self.tag, self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is Dual:
            if other.tag == self.tag:
                self._check(other)
                return Dual(
                    self.tag,
                    self.value - other.value,
                    tuple([a - b for a, b in zip(self.partials, other.partials)]),
                )
            if other.tag > self.tag:
                return other.__rsub__(self)
        return Dual(self.tag, self.value - other, self.partials)

    def __rsub__(self, other):
        return Dual(self.tag, other - self.value, tuple([-p for p in self.partials]))

    def __neg__(self):
        return Dual(self.tag, -self.value, tuple([-p for p in self.partials]))

    def __pos__(self):
        return self

    def __mul__(self, other):
        if other.__class__ is Dual:
            if other.tag == self.tag:
                self._check(other)
                sv = self.value
                ov = other.value
                return Dual(
                    self.tag,
                    sv * ov,
                    tuple([sv * q + p * ov for p, q in zip(self.partials, other.partials)]),
                )
            if other.tag > self.tag:
                return other.__rmul__(self)
        return Dual(self.tag, self.value * other, tuple([p * other for p in self.partials]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Dual and other.tag > self.tag:
            return other.__rtruediv__(self)
        if real_value(other) == 0.0:
            raise EvaluationError("division by zero")
        if other.__class__ is Dual and other.tag == self.tag:
            self._check(other)
            b = other.value
            q = self.value / b
            return Dual(
                self.tag,
                q,
                tuple([(p - q * r) / b for p, r in zip(self.partials, other.partials)]),
            )
        return Dual(self.tag, self.value / other, tuple([p / other for p in self.partials]))

    def __rtruediv__(self, other):
        b = self.value
        if real_value(b) == 0.0:
            raise EvaluationError("division by zero")
        q = other / b
        return Dual(self.tag, q, tuple([-(q * r) / b for r in self.partials]))

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            raise EvaluationError(
                "only integer powers are supported on dual scalars; "
                "got exponent %r" % (n,)
            )
        if n == 0:
            return 1.0
        if n == 1:
            return self
        if n < 0:
            return 1.0 / self.__pow__(-n)
        vn1 = self.value ** (n - 1)
        coef = n * vn1
        return Dual(self.tag, vn1 * self.value, tuple([coef * p for p in self.partials]))

    def primitive(self, name):
        """Primitive ``name`` of ``PRIMITIVES``: its value, and the partials
        scaled by its slope there (the chain rule)."""
        v = self.value
        r = _apply(name, v)
        d = PRIMITIVES[name][1](v, r)
        return Dual(self.tag, r, tuple([d * p for p in self.partials]))

    def select_lt(self, a, b, then, other):
        """``then if a < b else other``, the branch taken on the innermost values."""
        return then if real_value(a) < real_value(b) else other


def _root(x):
    if x < 0.0:
        raise EvaluationError("sqrt of negative value %r" % (x,))
    return math.sqrt(x)


def _root_slope(v, r):
    if real_value(r) == 0.0:
        raise EvaluationError("sqrt is not differentiable at zero")
    return 0.5 / r


# the primitive set: name -> (its function on a real, its slope at v, where it is r)
PRIMITIVES = {
    "sqrt": (_root, _root_slope),
    "sin": (math.sin, lambda v, r: cos(v)),
    "cos": (math.cos, lambda v, r: -sin(v)),
    "exp": (math.exp, lambda v, r: r),
}


def _apply(name, x):
    return PRIMITIVES[name][0](x) if isinstance(x, numbers.Real) else x.primitive(name)


sqrt, sin, cos, exp = [functools.partial(_apply, name) for name in ("sqrt", "sin", "cos", "exp")]


def select_lt(a, b, then, other):
    """``then if a < b else other``, or the method of the first operand that is not real."""
    for x in (a, b, then, other):
        if not isinstance(x, numbers.Real):
            return x.select_lt(a, b, then, other)
    return then if a < b else other


def smooth_abs(a, eps):
    """C1 surrogate for |a|: sqrt(a^2 + eps^2), |a| <= result <= |a| + eps."""
    if not eps > 0.0:
        raise ValueError("smoothing constant must be positive, got %r" % (eps,))
    return sqrt(a * a + eps * eps)


def seed(values):
    """Open a differentiation pass: identity-seeded duals plus the pass tag.

    Entries of ``values`` may themselves be duals of an enclosing pass; they
    become the carried values while the new partials vectors form the
    identity basis of this pass.  Returns ``(duals, tag)``.
    """
    tag = _new_tag()
    m = len(values)
    out = []
    for j, v in enumerate(values):
        row = [0.0] * m
        row[j] = 1.0
        out.append(Dual(tag, v, tuple(row)))
    return out, tag


def gradient(f, point):
    """Value and gradient of ``f(*point)`` in one forward pass.

    f must be built from the supported primitives; point is a sequence of
    reals.  Returns ``(value, partials)`` with ``partials`` a tuple of
    floats of the same length as ``point``.
    """
    duals, tag = seed([float(v) for v in point])
    y = f(*duals)
    m = len(duals)
    return real_value(y), tuple(float(real_value(partial(y, j, tag))) for j in range(m))


def second_derivative(f, x):
    """d²f/dx² at x for a univariate f, via one nested forward pass."""
    (inner,), t1 = seed([float(x)])
    (outer,), t2 = seed([inner])
    y = f(outer)
    d1 = partial(y, 0, t2)
    return float(real_value(partial(d1, 0, t1)))
