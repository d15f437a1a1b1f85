"""Forward-mode dual arithmetic against finite differences and hand values."""

import collections
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purefb.autodiff import (
    Dual,
    EvaluationError,
    cos,
    exp,
    gradient,
    partial,
    real_value,
    second_derivative,
    seed,
    select_lt,
    sin,
    smooth_abs,
    sqrt,
)
from purefb.backstep import ControllerStack, DesignParams
from purefb.plant import BoundSpec

rng = np.random.default_rng(20260822)


def central_diff(f, point, j, h=1e-6):
    """Central finite difference of f(*point) in coordinate j."""
    p_hi = list(point)
    p_lo = list(point)
    p_hi[j] += h
    p_lo[j] -= h
    return (f(*p_hi) - f(*p_lo)) / (2.0 * h)


def test_gradient_square():
    val, parts = gradient(lambda x: x * x, (3.0,))
    assert val == 9.0
    assert parts == (6.0,)


def test_gradient_constant_function():
    val, parts = gradient(lambda x, y: 2.5, (1.0, -4.0))
    assert val == 2.5
    assert parts == (0.0, 0.0)


def test_gradient_mixed_trig_poly():
    f = lambda x, y: sin(x) * y + y ** 3
    val, parts = gradient(f, (0.7, 1.3))
    assert val == pytest.approx(math.sin(0.7) * 1.3 + 1.3 ** 3, rel=1e-15)
    for j in range(2):
        fd = central_diff(f, (0.7, 1.3), j)
        assert abs(parts[j] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_primitives_match_finite_differences():
    """All primitives, composed, against central differences at random points."""
    f = lambda x, y: (
        sin(x) * cos(y)
        + exp(0.3 * x)
        + sqrt(x * x + 2.0)
        + smooth_abs(x - y, 1e-3)
        + (x / (y + 3.0)) ** 2
        - y ** 3 / 7.0
    )
    pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
    for x, y in pts:
        _, parts = gradient(f, (x, y))
        for j in range(2):
            fd = central_diff(f, (x, y), j)
            err = abs(parts[j] - fd)
            assert err <= max(1e-6 * abs(fd), 1e-8), (x, y, j, parts[j], fd)


def test_smooth_abs_values_and_sandwich():
    assert smooth_abs(0.0, 0.01) == 0.01
    assert abs(smooth_abs(3.0, 1e-6) - 3.0) <= 1e-12
    a = rng.uniform(-10.0, 10.0, size=10000)
    for eps in (1e-6, 1e-3, 0.1):
        s = np.sqrt(a * a + eps * eps)
        assert np.all(s >= np.abs(a))
        assert np.all(s <= np.abs(a) + eps)
        got = np.array([smooth_abs(float(v), eps) for v in a[:100]])
        np.testing.assert_allclose(got, s[:100], rtol=1e-15)


def test_smooth_abs_derivative_is_smooth_at_zero():
    _, parts = gradient(lambda x: smooth_abs(x, 0.1), (0.0,))
    assert parts[0] == 0.0


def test_smooth_abs_rejects_bad_eps():
    with pytest.raises(ValueError):
        smooth_abs(1.0, 0.0)


def test_second_derivative_hand_values():
    assert second_derivative(lambda x: x ** 3, 2.0) == pytest.approx(12.0, rel=1e-14)
    assert second_derivative(lambda x: sin(x), 0.0) == pytest.approx(0.0, abs=1e-14)
    assert second_derivative(lambda x: exp(2.0 * x), 0.3) == pytest.approx(
        4.0 * math.exp(0.6), rel=1e-10
    )


def test_second_derivative_of_linear_is_zero():
    assert second_derivative(lambda x: 3.0 * x - 1.0, 5.0) == 0.0


def test_nested_second_derivatives_random_polynomials():
    """Nested passes reproduce analytic second derivatives of degree<=5 polys."""
    for _ in range(200):
        coeffs = rng.uniform(-2.0, 2.0, size=6)
        x0 = float(rng.uniform(-1.5, 1.5))

        def poly(x, c=coeffs):
            acc = 0.0
            for k in range(6):
                acc = acc + float(c[k]) * x ** k
            return acc

        exact = sum(k * (k - 1) * coeffs[k] * x0 ** (k - 2) for k in range(2, 6))
        got = second_derivative(poly, x0)
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (coeffs, x0)


def test_nested_pass_sees_outer_dual_as_constant():
    """An inner pass over x with an outer-pass coefficient a stays consistent.

    g(a) = d/dx [a * x^2] at x = 3 equals 6a, so g(2) = 12 and dg/da = 6.
    The bare a entering the inner arithmetic must be treated as an inner
    constant while keeping its own outer partials alive.
    """

    def g(a):
        (xs,), tag = seed([3.0])
        inner = a * xs ** 2
        return partial(inner, 0, tag)

    val, parts = gradient(g, (2.0,))
    assert val == pytest.approx(12.0, rel=1e-15)
    assert parts[0] == pytest.approx(6.0, rel=1e-15)


def test_partial_of_foreign_pass_value_is_zero():
    """A result constant w.r.t. the queried pass reports a zero derivative."""
    (a,), t_outer = seed([2.0])
    (_x,), t_inner = seed([3.0])
    assert partial(a, 0, t_inner) == 0.0
    assert partial(5.0, 0, t_inner) == 0.0
    assert partial(a, 0, t_outer) == 1.0


def test_integer_power_rules():
    (x,), tag = seed([1.7])
    y = x ** 0
    assert y == 1.0
    z = x ** -2
    assert real_value(z) == pytest.approx(1.7 ** -2, rel=1e-15)
    assert partial(z, 0, tag) == pytest.approx(-2.0 * 1.7 ** -3, rel=1e-13)
    with pytest.raises(EvaluationError):
        x ** 0.5


def test_division_by_zero_names_primitive():
    (x,), _tag = seed([1.0])
    with pytest.raises(EvaluationError, match="division"):
        x / 0.0
    with pytest.raises(EvaluationError, match="division"):
        1.0 / (x - 1.0)
    # across passes, in both orders
    (zero,), _outer = seed([0.0])
    (y,), _inner = seed([2.0])
    with pytest.raises(EvaluationError, match="division"):
        y / zero
    with pytest.raises(EvaluationError, match="division"):
        zero / (y - 2.0)


def test_sqrt_domain_error_names_primitive():
    with pytest.raises(EvaluationError, match="sqrt"):
        sqrt(-1.0)
    (x,), _tag = seed([-4.0])
    with pytest.raises(EvaluationError, match="sqrt"):
        sqrt(x)
    (z,), _tag = seed([0.0])
    with pytest.raises(EvaluationError, match="sqrt"):
        sqrt(z)


def test_seed_set_mismatch_detected():
    a = Dual(99, 1.0, (1.0, 0.0))
    b = Dual(99, 2.0, (1.0,))
    with pytest.raises(EvaluationError, match="seed-set"):
        a + b


def test_real_value_unwraps_nesting():
    d = Dual(2, Dual(1, 4.0, (1.0,)), (Dual(1, 1.0, (0.0,)),))
    assert real_value(d) == 4.0


# -- the primitive protocol ---------------------------------------------------


def test_real_numbers_take_math():
    assert sqrt(np.float32(4.0)) == math.sqrt(4.0)
    assert sin(np.int64(1)) == math.sin(1)
    assert cos(True) == math.cos(1)
    assert exp(np.float64(0.5)) == math.exp(0.5)
    assert select_lt(np.float32(1.0), 2, 3.0, np.int64(4)) == 3.0
    with pytest.raises(EvaluationError, match="sqrt of negative"):
        sqrt(-1)


def _unbox(x):
    return x.v if x.__class__ is Boxed else x


def _boxed_op(fn, reflected=False):
    def method(self, other):
        if other.__class__ not in (Boxed, float, int):
            return NotImplemented  # a Dual takes over through its reflected method
        a, b = (other, self) if reflected else (self, other)
        return Boxed(fn(_unbox(a), _unbox(b)))

    return method


def _boxed_primitive(name, fn):
    def method(self):
        Boxed.calls[name] += 1
        return Boxed(fn(self.v))

    return method


class Boxed:
    """A third scalar: a float with arithmetic, abs and its own primitives,
    which count their calls.  Neither autodiff nor backstep knows it."""

    __slots__ = ("v",)
    calls = collections.Counter()

    def __init__(self, v):
        self.v = v

    __add__ = _boxed_op(operator.add)
    __radd__ = _boxed_op(operator.add, True)
    __sub__ = _boxed_op(operator.sub)
    __rsub__ = _boxed_op(operator.sub, True)
    __mul__ = _boxed_op(operator.mul)
    __rmul__ = _boxed_op(operator.mul, True)
    __truediv__ = _boxed_op(operator.truediv)
    __rtruediv__ = _boxed_op(operator.truediv, True)
    sqrt = _boxed_primitive("sqrt", math.sqrt)
    sin = _boxed_primitive("sin", math.sin)
    cos = _boxed_primitive("cos", math.cos)
    exp = _boxed_primitive("exp", math.exp)

    def __neg__(self):
        return Boxed(-self.v)

    def __abs__(self):
        return Boxed(abs(self.v))

    def select_lt(self, a, b, then, other):
        Boxed.calls["select_lt"] += 1
        return then if _unbox(a) < _unbox(b) else other


def bits(values):
    return [None if v is None else float(_unbox(v)).hex() for v in values]


def test_dual_chain_rules_run_over_a_third_scalar():
    def f(x, y):
        return exp(sin(x) * y) + cos(x) / sqrt(y)

    point = (0.7, 1.3)
    Boxed.calls.clear()
    got, got_tag = seed([Boxed(v) for v in point])
    want, want_tag = seed(list(point))
    got, want = f(*got), f(*want)
    assert set(Boxed.calls) == {"sqrt", "sin", "cos", "exp"}
    assert bits([real_value(got)]) == bits([real_value(want)])
    assert bits([partial(got, j, got_tag) for j in (0, 1)]) == bits(
        [partial(want, j, want_tag) for j in (0, 1)])


def test_a_third_scalar_runs_the_auto_stack_and_the_dead_zone():
    """Nested passes (stage 3 differentiates through stage 2's) over a
    scalar that supplies its own sqrt and select_lt give the float bits."""
    bounds = BoundSpec(
        rho=(lambda xb: 1.0,
             lambda xb: 0.5 + 0.1 * xb[0] * xb[0],
             lambda xb: 0.3 + 0.05 * (xb[1] * xb[1] + xb[2] * xb[2])),
        phi=(lambda xb: 1.0 + 0.2 * xb[1] * xb[1],
             lambda xb: 1.0 + 0.1 * xb[2] * xb[2]),
    )
    stack = ControllerStack(bounds, DesignParams(mu=(0.3,) * 3, gamma=(0.1,) * 3,
                                                 deadzone=0.05))
    x, k = (0.01, -0.4, 0.7), (0.5, 0.4, 0.3)  # |z1| inside the dead zone
    want = stack.evaluate(x, k)
    Boxed.calls.clear()
    got = stack.evaluate([Boxed(v) for v in x], [Boxed(v) for v in k])
    rates = stack.params.gain_rates(got.psi, got.z)
    assert Boxed.calls["sqrt"] > 0 and Boxed.calls["select_lt"] == 3
    assert rates[0] == 0.0 and rates[1].__class__ is Boxed
    for field in ("z", "psi", "eta", "alpha"):
        assert bits(getattr(got, field)) == bits(getattr(want, field)), field
    assert bits(rates) == bits(stack.params.gain_rates(want.psi, want.z))


# -- algebraic identities (properties) ----------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
divisor = finite.filter(lambda v: abs(v) >= 1e-3)


@settings(max_examples=100, deadline=None)
@given(a=finite, b=finite, c=divisor)
def test_dual_values_are_the_float_operations(a, b, c):
    """A pass carries the bits of the float operations, and exact partials."""
    (da, db), tag = seed([a, b])
    assert real_value(da + db).hex() == (a + b).hex()
    assert real_value(da - db).hex() == (a - b).hex()
    assert real_value(da * db).hex() == (a * b).hex()
    # a quotient divides once: every form carries the float quotient
    (dn, dc), _tag = seed([a, c])
    assert real_value(dn / dc).hex() == (a / c).hex()
    assert real_value(dn / c).hex() == (a / c).hex()
    assert real_value(b / dc).hex() == (b / c).hex()
    # exact in IEEE arithmetic: 1 +- 0, 0 +- 1 and x*0 + 1*y = y (zeros
    # compare equal whatever their sign)
    assert [partial(da + db, j, tag) for j in (0, 1)] == [1.0, 1.0]
    assert [partial(da - db, j, tag) for j in (0, 1)] == [1.0, -1.0]
    assert [partial(da * db, j, tag) for j in (0, 1)] == [b, a]


@settings(max_examples=100, deadline=None)
@given(a=finite, b=finite)
def test_nested_pass_treats_the_outer_dual_as_a_constant(a, b):
    (x,), outer = seed([a])
    (y,), inner = seed([b])
    assert partial(x * x, 0, inner) == 0.0
    assert partial(x + y, 0, inner) == 1.0
    assert partial((x + y).value, 0, outer) == 1.0  # the carried x + b
    d = partial(x * y, 0, inner)  # d/dy (x y) = x, a dual of the outer pass
    assert real_value(d) == a and partial(d, 0, outer) == 1.0


@settings(max_examples=100, deadline=None)
@given(a=divisor, b=divisor)
def test_nested_difference_and_quotient_in_both_orders(a, b):
    """Older op newer and newer op older: the newer pass applies the rule."""
    (x,), outer = seed([a])
    (y,), inner = seed([b])
    for d in (x - y, y - x, x / y, y / x):
        assert d.tag == inner
    assert real_value(x - y) == a - b and real_value(y - x) == b - a
    assert partial(x - y, 0, inner) == -1.0 and partial(y - x, 0, inner) == 1.0
    # the difference carries x -+ b, whose outer partial is +-1
    assert partial((x - y).value, 0, outer) == 1.0
    assert partial((y - x).value, 0, outer) == -1.0
    assert real_value(x / y) == a / b and real_value(y / x) == b / a
    # d/dy (x / y) = -x / y^2 and d/dy (y / x) = 1 / x, duals of the outer pass
    dq = partial(x / y, 0, inner)
    assert real_value(dq) == pytest.approx(-a / (b * b), rel=1e-14)
    assert partial(dq, 0, outer) == pytest.approx(-1.0 / (b * b), rel=1e-14)
    dr = partial(y / x, 0, inner)
    assert real_value(dr) == 1.0 / a
    assert partial(dr, 0, outer) == pytest.approx(-1.0 / (a * a), rel=1e-14)
