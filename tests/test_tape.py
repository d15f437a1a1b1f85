"""Traced right-hand sides: guards, fallback and bit-exact rewrites."""

import math

import pytest

from purefb import autodiff
from purefb.autodiff import EvaluationError, partial, real_value, seed
from purefb.tape import Traced, Var, select_lt


def guarded(t, y):
    """Dual division and sqrt: both carry data-dependent domain checks."""
    (d,), tag = seed([y[0]])
    q = 1.0 / d
    return (real_value(q), partial(q, 0, tag), autodiff.sqrt(y[1]) * t)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_trace_compiles_into_the_same_function_object():
    tr = Traced(guarded)
    call = tr.call
    assert tr.trace(2.0, [4.0, 9.0])
    assert tr.call is call and call.__code__.co_name == "tape"
    assert "_sqrt(" in tr.source and "return _fallback(t, y)" in tr.source
    assert call(2.0, [4.0, 9.0]) == guarded(2.0, [4.0, 9.0])


@pytest.mark.parametrize("y", [[0.0, 9.0], [4.0, -1.0]], ids=["div-zero", "sqrt-domain"])
def test_guard_miss_raises_like_the_generic_path(y):
    tr = Traced(guarded)
    assert tr.trace(2.0, [4.0, 9.0])
    err = raised(tr.call, 2.0, y)
    assert err[0] is EvaluationError
    assert err == raised(guarded, 2.0, y)


def test_guard_miss_takes_the_other_branch():
    def branchy(t, y):
        return (y[0] * 3.0 if y[0] > 1.0 else y[0] - 3.0,)

    tr = Traced(branchy)
    assert tr.trace(0.0, [2.0])
    for v in (0.5, 1.0, 7.0, -0.0):
        assert tr.call(0.0, [v]) == branchy(0.0, [v])


def test_select_compiles_to_a_conditional_expression():
    def dead_zone(t, y):
        return (select_lt(abs(y[0]), 0.5, 0.0, y[0] * y[1]),)

    tr = Traced(dead_zone)
    assert tr.trace(0.0, [2.0, 3.0])
    assert "if not" not in tr.source and "(0.0 if" in tr.source
    for y in ([0.1, 3.0], [-2.0, 3.0], [0.5, 1.0]):
        assert tr.call(0.0, y) == dead_zone(0.0, y)


def test_only_exact_rewrites():
    def ops(t, y):
        a = y[0]
        return (a * 1.0, 1.0 * a, a / 1.0, a - 0.0, a + 0.0, a * 0.0, -(-a))

    tr = Traced(ops)
    assert tr.trace(0.0, [1.5])
    assert "* 1.0" not in tr.source and "/ 1.0" not in tr.source
    for v in (-0.0, 0.0, math.inf, math.nan, -2.5):
        assert [r.hex() for r in tr.call(0.0, [v])] == [r.hex() for r in ops(0.0, [v])]


def test_failing_trace_point_runs_the_reference_until_traced():
    tr = Traced(guarded)
    assert not tr.trace(0.0, [0.0, 1.0])
    assert raised(tr.call, 0.0, [0.0, 1.0]) == raised(guarded, 0.0, [0.0, 1.0])
    assert tr.call(1.0, [2.0, 4.0]) == guarded(1.0, [2.0, 4.0]) and tr.source is None
    assert tr.trace(1.0, [2.0, 4.0]) and tr.source is not None


def test_calls_never_trace():
    attempts = []

    def uses_math(t, y):
        if t.__class__ is Var:
            attempts.append(t)
        return (math.cos(t) * y[0],)

    tr = Traced(uses_math)
    assert not tr.trace(0.5, [2.0])
    for i in range(100):
        assert tr.call(0.5 + i, [2.0]) == uses_math(0.5 + i, [2.0])
    assert len(attempts) == 1 and tr.source is None


def test_untraceable_function_runs_the_reference():
    def uses_math(t, y):
        return (math.cos(t) * y[0],)

    tr = Traced(uses_math)
    assert not tr.trace(0.5, [2.0])
    assert tr.call(0.5, [2.0]) == uses_math(0.5, [2.0])
    assert tr.source is None
