"""Scenario registry: wiring, recorders, and the compiled step, row and run loop
against the plain path."""

import hashlib
import inspect
import math
import re
from collections.abc import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purefb import scenarios, simkit
from purefb.backstep import DesignParams
from purefb.config import load_text
from purefb.plant import PlantSpec
from purefb.simkit import ABORT_LIMIT, DivergenceError, StatePoint, integrate, rk4_step
from purefb.tape import compile_loop

rng = np.random.default_rng(6021023)


def test_registry_lists_both_benchmarks():
    assert tuple(scenarios.SCENARIO_IDS) == ("numeric-2d", "stt-missile")


def test_build_unknown_id():
    with pytest.raises(ValueError, match="numeric-2d"):
        scenarios.build("no-such-loop")


def test_two_state_wiring():
    scn = scenarios.build("numeric-2d")
    assert scn.n == 2
    assert scn.x0 == (-2.0, 3.0)
    assert scn.adaptive == (1, 2)
    assert scn.theta.box == ((1.0, 1.0), (2.0, 2.0))
    assert scn.y0() == (-2.0, 3.0, 0.01, 0.01, 0.0, 0.0)
    names, build_row = scn.recorder
    assert tuple(names) == (
        "x1", "x2", "z1", "z2", "k1", "k2", "u",
        "psi1", "psi2", "intz1", "intz2",
    )
    row = build_row(0.0, scn.y0())
    assert len(row) == len(names)
    assert row[0] == -2.0 and row[1] == 3.0


def test_auto_mode_records_eta():
    scn = scenarios.build("numeric-2d", mode="auto")
    names, build_row = scn.recorder
    assert "eta2" in names
    assert len(build_row(0.0, scn.y0())) == len(names)


def test_meta_carries_verifier_grouping():
    for sid, kwargs in (("numeric-2d", {}), ("stt-missile", {})):
        scn = scenarios.build(sid, **kwargs)
        for key in ("x_cols", "z_cols", "k_cols", "intz_cols", "mu", "gamma",
                    "adaptive", "n"):
            assert key in scn.meta, (sid, key)
        assert len(scn.meta["gamma"]) == len(scn.meta["k_cols"])
        assert len(scn.meta["intz_cols"]) == len(scn.meta["k_cols"])


@pytest.mark.parametrize("sid,kwargs", [("numeric-2d", {"mode": "paper"}),
                                         ("numeric-2d", {"mode": "auto"}),
                                         ("stt-missile", {})],
                         ids=["numeric-2d-paper", "numeric-2d-auto", "stt-missile"])
def test_build_does_not_sample(monkeypatch, sid, kwargs):
    """Building is pure construction: no controller sweep runs."""
    calls = []
    reconstruct = scenarios.ControllerStack.reconstruct

    def counted(self, zbar, kbar):
        calls.append(1)
        return reconstruct(self, zbar, kbar)

    monkeypatch.setattr(scenarios.ControllerStack, "reconstruct", counted)
    scenarios.build(sid, **kwargs)
    assert calls == []


def test_theta_outside_declared_box_rejected():
    with pytest.raises(ValueError, match="box"):
        scenarios.build(
            "numeric-2d", theta=(3.0, 2.0),
            theta_box=((0.8, 1.2), (1.6, 2.4)),
        )


# numeric-2d keywords it rejects, and the start of each message: its keyword
REJECTED = [
    ({"mode": "other"}, "mode must be 'paper' or 'auto'"),
    ({"theta": (1.0, 2.0, 3.0)}, "theta must have 2 entries"),
    ({"theta": (1.0,)}, "theta must have 2 entries"),
    ({"theta_box": ((1.0, 1.0),)}, "theta_box must have 2 entries"),
    ({"theta": (0.0, 2.0)}, r"theta_box\[1\] must be a positive interval"),
    ({"x0": (1.0,)}, "x0 must have 2 entries"),
    ({"x0": (1.0, 2.0, 3.0)}, "x0 must have 2 entries"),
    ({"k0": (0.01,)}, "k0 must have 2 entries"),
    ({"mu": (0.2, 0.2, 0.2)}, "mu must have 2 entries"),
    ({"mu": (0.2, 0.2, 0.2), "mode": "auto"}, "mu must have 2 entries"),
    ({"mu": (0.2, -0.2)}, r"mu\[2\] must be positive"),
    ({"gamma": (0.2,)}, "gamma must have 2 entries"),
    ({"gamma": (0.2, 0.2, 0.2), "mode": "auto"}, "gamma must have 2 entries"),
    # a scalar where a vector belongs, and a theta_box entry that is not a pair
    ({"x0": 5.0}, "x0 must have 2 entries"),
    ({"theta": 5.0}, "theta must have 2 entries"),
    ({"mu": 0.2}, "mu must have 2 entries"),
    ({"theta_box": 1.0}, "theta_box must have 2 entries"),
    ({"theta_box": ((0.8, 1.2), (1.6,))}, r"theta_box\[2\] must be a \(lo, hi\) pair"),
    ({"theta_box": ((0.8, 1.2), 1.6)}, r"theta_box\[2\] must be a \(lo, hi\) pair"),
    # an unordered pair, named before the theta it may leave
    ({"theta_box": ((1.2, 0.8), (1.6, 2.4))}, r"theta_box\[1\] must have lo <= hi"),
    # an unordered vector, and a keyword numeric-2d does not take
    ({"x0": {3.0, -2.0}}, "x0 must be a sequence"),
    ({"x0": {"a": 1.0, "b": 2.0}}, "x0 must be a sequence"),
    ({"k0": iter((0.01, 0.01))}, "k0 must have 2 entries"),
    ({"bogus": 1}, "bogus is not a keyword of numeric-2d; its keywords are mode, theta, "),
    # a real that is not finite, and a sign that is not +-1
    ({"x0": (math.nan, 0.0)}, r"x0\[1\] must be finite, got nan"),
    ({"deadzone": math.nan}, "deadzone must be finite, got nan"),
    ({"smoothing": math.inf, "mode": "auto"}, "smoothing must be finite, got inf"),
    ({"theta_box": ((0.8, math.inf), (1.6, 2.4))}, r"theta_box\[1\]\[2\] must be finite"),
    ({"sign": 2.0}, "sign must be 1.0 or -1.0, got 2.0"),
    ({"sign": 0.0}, "sign must be 1.0 or -1.0, got 0.0"),
]


def _case_id(kwargs):
    """`key=value` per keyword; an iterator, whose repr holds its address, is
    named by its type, so the id is the same in every session."""
    return "-".join("%s=<%s>" % (k, type(v).__name__) if isinstance(v, Iterator) else "%s=%s" % (k, v)
                    for k, v in kwargs.items())


@pytest.mark.parametrize("kwargs, message", REJECTED, ids=[_case_id(kw) for kw, _ in REJECTED])
def test_numeric2d_rejects_each_keyword_by_name(kwargs, message):
    """Building rejects the value before anything runs, naming the
    keyword first: a wrong-length vector keyword included."""
    with pytest.raises(ValueError, match="^" + message):
        scenarios.build("numeric-2d", **kwargs)


@pytest.mark.parametrize("sid, kwargs, stage", [
    ("numeric-2d", {"k0": (0.01, 0.0)}, "k2"),
    ("stt-missile", {"k20": -0.1}, "k2"),
    ("stt-missile", {"k30": 0.0}, "k3"),
])
def test_initial_gains_must_be_positive(sid, kwargs, stage):
    with pytest.raises(ValueError, match="initial gain %s" % stage):
        scenarios.build(sid, **kwargs)


@pytest.mark.parametrize("keyword", ["x0", "theta", "bogus"])
def test_a_keyword_the_missile_does_not_take_is_named(keyword):
    """Not a TypeError: a ValueError naming the keyword and the keywords
    stt-missile takes."""
    keywords = ", ".join(scenarios.DEFAULTS["stt-missile"])
    with pytest.raises(ValueError, match="^%s is not a keyword of stt-missile; its keywords "
                       "are %s$" % (keyword, keywords)):
        scenarios.build("stt-missile", **{keyword: (0.0, 0.0, 0.0)})


@pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
def test_non_integral_decimation_is_rejected(sid):
    with pytest.raises(ValueError, match="decimation must be a whole number, got 2.5"):
        scenarios.build(sid, decimation=2.5)
    # not a real number: a str, then None; a bool is not a number here
    for value in ("ten", None, "10", True):
        with pytest.raises(ValueError, match="^decimation must be a whole number, got %r$" % value):
            scenarios.build(sid, decimation=value)
    for value in (100.0, np.int64(100), np.float64(100.0)):
        decimation = scenarios.build(sid, decimation=value).decimation
        assert type(decimation) is int and decimation == 100
    assert scenarios.build(sid, T=1.0, h=0.1, decimation=5.0).decimation == 5
    # a whole number too large for a float is kept and fails to divide the steps
    with pytest.raises(ValueError, match="decimation must divide the 10 integration steps"):
        scenarios.build(sid, T=1.0, h=0.1, decimation=10 ** 400)


# a value of the wrong type, or not finite, for a keyword of either factory
WRONG_TYPE = [
    ("numeric-2d", {"x0": ("a", 1.0)}, r"x0\[1\] must be a real number"),
    ("numeric-2d", {"mu": (0.2, None)}, r"mu\[2\] must be a real number"),
    ("numeric-2d", {"k0": (0.01, "x")}, r"k0\[2\] must be a real number"),
    ("numeric-2d", {"deadzone": None}, "deadzone must be a real number"),
    ("numeric-2d", {"T": "40"}, "T must be a real number"),
    ("stt-missile", {"roll_deg": None}, "roll_deg must be a real number"),
    ("stt-missile", {"k1": None}, "k1 must be a real number"),
    ("stt-missile", {"v_mean": "200"}, "v_mean must be a real number"),
    ("stt-missile", {"rate": "0"}, "rate must be a real number"),
    ("stt-missile", {"k1": math.inf}, "k1 must be finite, got inf"),
    ("stt-missile", {"v_freq": math.inf}, "v_freq must be finite, got inf"),
    ("stt-missile", {"roll_deg": math.nan}, "roll_deg must be finite, got nan"),
]


@pytest.mark.parametrize("sid, kwargs, message", WRONG_TYPE, ids=[
    "-".join([sid] + ["%s=%s" % (k, v) if type(v) is float else k for k, v in kw.items()])
    for sid, kw, _ in WRONG_TYPE])  # a float value (one not finite) is named too
def test_a_value_of_the_wrong_type_is_rejected_by_name(sid, kwargs, message):
    with pytest.raises(ValueError, match="^" + message):
        scenarios.build(sid, **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"T": 10 ** 400}, "T must be finite, got inf"),
    ({"T": -10 ** 400}, "T must be finite, got -inf"),
    ({"x0": (10 ** 400, 0.0)}, r"x0\[1\] must be finite, got inf"),
], ids=["T", "T-negative", "x0"])
def test_a_real_beyond_the_largest_float_is_rejected_by_name(kwargs, message):
    """An int too large for a float is an infinity where a float belongs."""
    with pytest.raises(ValueError, match="^%s$" % message):
        scenarios.build("numeric-2d", **kwargs)


# how deep each factory keyword nests floats: theta_box holds (lo, hi) pairs
DEPTH = {(sid, kw): 2 if kw == "theta_box" else int(isinstance(like, tuple))
         for sid in scenarios.SCENARIO_IDS for kw, like in scenarios.DEFAULTS[sid].items()}


def malformed(sid, keyword):
    """Values keyword never takes: None (unless it is the default), a str, a
    bool, floats nested one level too deep, or a sequence of the wrong length."""
    depth, like = DEPTH[sid, keyword], scenarios.DEFAULTS[sid][keyword]
    n = 1 if depth == 0 else 2  # a scalar, or two entries at each level
    leaf = st.floats(allow_nan=False)
    too_deep = leaf
    for _ in range(depth + 1):
        too_deep = st.lists(too_deep, max_size=3)
    entry = leaf
    for _ in range(depth - 1):
        entry = st.lists(entry, min_size=2, max_size=2)
    options = [st.text().filter(lambda s: s not in scenarios.MODES), st.booleans(),
               too_deep, st.lists(entry, max_size=4).filter(lambda v: len(v) != n)]
    return st.one_of(options + [st.none()] * (like is not None))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_malformed_keyword_is_a_value_error_naming_it(data):
    sid, keyword = data.draw(st.sampled_from(sorted(DEPTH)))
    value = data.draw(malformed(sid, keyword))
    with pytest.raises(ValueError, match=r"^%s(\[\d+\])* " % re.escape(keyword)):
        scenarios.build(sid, **{keyword: value})


def whole(sid, keyword, like):
    """A whole-numbered value of a float or float-tuple keyword that builds alone."""
    for pick in (math.ceil, math.floor):
        value = (tuple(float(pick(v)) for v in like) if isinstance(like, tuple)
                 else float(pick(like)))
        try:
            scenarios.build(sid, **{keyword: value})
            return value
        except ValueError:
            pass
    raise AssertionError((sid, keyword))


# per scenario, the (default, whole-numbered) values of each float or tuple
# keyword; but h, whose whole value (1.0) leaves no step to compile
WHOLE = {sid: {kw: (like, whole(sid, kw, like)) for kw, like in defaults.items()
               if isinstance(like, (float, tuple)) and kw != "h"}
         for sid, defaults in scenarios.DEFAULTS.items()}
WHOLE["numeric-2d"]["theta_box"] = ((1.0, 1.0), (2.0, 2.0)), ((1.0, 2.0), (1.0, 3.0))


def loosen(value):
    """value with each whole float as an int and each tuple as a list."""
    if isinstance(value, tuple):
        return [loosen(v) for v in value]
    return int(value) if value.is_integer() else value


def built(sid, kwargs):
    """The y0 and compiled run-loop source of the built scenario, or its error."""
    try:
        scn = scenarios.build(sid, **kwargs)
    except ValueError as exc:
        return str(exc)
    with mock.patch.object(scenarios, "integrate", lambda *args, loop, **kw: loop):
        loop = scn.run()
    return repr(scn.y0()), loop and loop.source


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ints_and_lists_build_what_floats_and_tuples_do(data):
    sid = data.draw(st.sampled_from(scenarios.SCENARIO_IDS))
    keywords = data.draw(st.lists(st.sampled_from(sorted(WHOLE[sid])), unique=True))
    call = {kw: data.draw(st.sampled_from(WHOLE[sid][kw])) for kw in keywords}
    assert built(sid, {kw: loosen(v) for kw, v in call.items()}) == built(sid, call)


def spelled(value):
    """Ways a caller may spell value: as it is or a numpy scalar, each whole
    float also as an int, each tuple also as a list or a numpy array."""
    if isinstance(value, tuple):
        entries = st.tuples(*map(spelled, value))
        return st.one_of(entries, entries.map(list), st.just(np.array(value)))
    ways = [value, np.float64(value)]
    if float(value).is_integer():
        ways += [int(value), np.int64(value), float(value)]
    return st.sampled_from(ways)


def received(sid, kwargs):
    """The keywords sid's factory receives from scenarios.build(sid, **kwargs)."""
    calls = []
    factory = scenarios.SCENARIOS[sid]

    def recording(**given):
        calls.append(given)
        return factory(**given)

    with mock.patch.dict(scenarios.SCENARIOS, {sid: recording}):
        scenarios.build(sid, **kwargs)
    return calls.pop()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_factory_receives_each_keyword_as_its_defaults_type(data):
    """build types every keyword before the factory runs, so neither the
    factory nor Scenario converts one; theta_box, whose default is None, is
    typed by numeric-2d against theta."""
    sid = data.draw(st.sampled_from(scenarios.SCENARIO_IDS))
    values = dict(WHOLE[sid], h=(scenarios.DEFAULTS[sid]["h"],),
                  decimation=(scenarios.DEFAULTS[sid]["decimation"],))
    keywords = data.draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    call = {kw: data.draw(st.sampled_from(values[kw]).flatmap(spelled)) for kw in keywords}
    if sid == "numeric-2d":
        call["mode"] = data.draw(st.sampled_from(scenarios.MODES))
    try:
        got = received(sid, call)
    except ValueError:  # a theta outside its box, say
        return
    for keyword, value in got.items():
        if keyword == "theta_box":
            continue
        like = scenarios.DEFAULTS[sid][keyword]
        assert type(value) is type(like), keyword
        if type(like) is tuple:
            assert [*map(type, value)] == [*map(type, like)], keyword


def test_step_consistency_errors():
    """Building checks the time grid; each message starts with its keyword."""
    for sid in scenarios.SCENARIO_IDS:
        for kwargs, message in [
            ({"T": 1.0, "h": 0.3}, "T must be an integer multiple of h"),
            ({"T": 1.0, "h": 0.1, "decimation": 3}, "decimation must divide"),
            ({"T": 1.0, "h": 0.1, "decimation": 0}, "decimation must divide"),
            ({"T": -1.0, "h": 0.1}, "T must be positive"),
            ({"T": 0.0}, "T must be positive"),
            ({"T": 1.0, "h": 0.0}, "h must be positive"),
            ({"T": 1.0, "h": -0.1}, "h must be positive"),
            ({"T": 1e308, "h": 1e-308}, "h = 1e-308 asks for inf steps"),
            ({"T": 1.0, "h": 1e-8}, "h = 1e-08 asks for .* budget of %d" % scenarios.STEP_BUDGET),
        ]:
            with pytest.raises(ValueError, match="^" + message):
                scenarios.build(sid, **kwargs)


def bits(values):
    return [float(v).hex() for v in values]


LOOPS = [(mode, dz, sign) for mode in ("paper", "auto")
         for dz in (0.0, 0.05) for sign in (1.0, -1.0)]

# (scenario id, factory keywords) of every loop the compiled code is checked on
CASES = [("numeric-2d", {"mode": m, "deadzone": dz, "sign": s}) for m, dz, s in LOOPS] + [
    ("stt-missile", {"sign": s}) for s in (1.0, -1.0)]
CASE_IDS = ["%s-dz%g-sign%+d" % loop for loop in LOOPS] + [
    "stt-missile-sign%+d" % s for s in (1.0, -1.0)]


def loop_state(scn, z, k, intz):
    """Augmented state whose errors are z, at gains k."""
    if scn.stack is None:  # the published law: x1 = z1, x2 = z2 + alpha1
        x = [z[0], z[1] + -(scn.meta["mu"][0] * k[0] * 2.0 * z[0])]
    else:
        x, _, _, _ = scn.stack.reconstruct(z, k[:1])
    return [float(v) for v in x] + list(k) + list(intz)


def numeric_point(scn, i):
    """A numeric-2d state and time, and which side of the dead zone each error is on."""
    width = 0.1 if i % 2 else 2.0  # odd draws lie near the dead-zone edge of both errors
    z = [float(v) for v in rng.uniform(-width, width, size=2)]
    k = [float(v) for v in rng.uniform(0.01, 3.0, size=2)]
    y = loop_state(scn, z, k, [float(v) for v in rng.uniform(0.0, 5.0, size=2)])
    return y, float(rng.uniform(0.0, 100.0)), {abs(zi) < 0.05 for zi in z}


def missile_point(scn, i):
    """A stt-missile state (roll, rate, deflection, gains, integrals) and time.

    Gains up to 1 leave about a fifth of the RK4 steps past the abort
    limit.
    """
    x = [float(v) for v in rng.uniform(-1.0, 1.0, size=3) * (0.5, 0.5, 0.05)]
    k = [float(v) for v in rng.uniform(0.01, 1.0, size=2)]
    y = x + k + [float(v) for v in rng.uniform(0.0, 5.0, size=2)]
    return y, float(rng.uniform(0.0, 20.0)), set()


SAMPLERS = {"numeric-2d": numeric_point, "stt-missile": missile_point}


def plain_step(scn, t, y):
    """Bits of rk4_step of the generic rhs, or None where integrate stops there."""
    try:
        return bits(rk4_step(scn.rhs_reference, y, t, scn.h))
    except DivergenceError:
        return None


def looped(scn, t=0.0, y=None, row=None):
    """The run loop scn.run compiles: step and row traced at (0, y0), or at (t, y)."""
    return compile_loop(lambda t, y: rk4_step(scn.rhs_reference, y, t, scn.h),
                        row or scn.recorder[1], t, list(scn.y0()) if y is None else y)


def on_grid(scn, t):
    """The step index s nearest t / h, and its time s * h, as the loop computes it."""
    s = round(t / scn.h)
    return s, s * scn.h


def loop_at(loop, scn, s, y):
    """One pass of loop from step s at decimation 1, with the row at s due:
    the rows it records, and the bits of the state after step s or None
    where it does not vouch for that step.  Where it takes step s, the
    row at s + 1 is due next, and it records that one too where it can."""
    rows = []
    end, out, _ = loop(s, list(y), 0, s + 1, scn.h, 1, rows.append)
    return rows, (bits(out) if end == s + 1 else None)


def check_rows(scn, rows, s, y, after):
    """rows are build's rows at step s from y and, where after holds the
    bits of the state after step s, at step s + 1 from that state."""
    build = scn.recorder[1]
    points = [(s, y)]
    if after is not None:
        points.append((s + 1, [float.fromhex(v) for v in after]))
    assert rows and len(rows) <= len(points)
    for row, (k, yk) in zip(rows, points):
        assert bits(row) == bits([k * scn.h, *build(k * scn.h, yk)])


@pytest.mark.parametrize("sid,kwargs", CASES, ids=CASE_IDS)
def test_compiled_step_matches_rk4_step(sid, kwargs):
    """The run loop's step is rk4_step of the generic rhs, bit for bit, at
    step indices s with s * h nearest each sampled t, and it records the
    plain rows on the way."""
    scn = scenarios.build(sid, **kwargs)
    points = []
    for i in range(200):
        y, t, side = SAMPLERS[sid](scn, i)
        points.append((y, on_grid(scn, t), side))
    if plain_step(scn, 0.0, list(scn.y0())) is None:
        # the auto-*-sign-1 loops leave the limit in their first step: trace
        # at the first sample that stays inside it
        y, (_, t), _ = next(p for p in points if plain_step(scn, p[1][1], p[0]) is not None)
        loop = looped(scn, t, y)
    else:
        loop = looped(scn)
    if kwargs.get("deadzone"):
        assert "(0.0 if" in loop.source
    sides = set()
    taken = 0
    for y, (s, t), side in points:
        sides |= side
        want = plain_step(scn, t, y)
        rows, got = loop_at(loop, scn, s, y)
        assert got == want
        check_rows(scn, rows, s, y, got)
        taken += want is not None
    assert sides == ({True, False} if sid == "numeric-2d" else set())
    assert taken >= 100  # most of these steps stay within the abort limit


_STEPPED = {}


def stepped(mode):
    """A numeric-2d loop of this mode and its run loop, built once."""
    if mode not in _STEPPED:
        scn = scenarios.build("numeric-2d", mode=mode, deadzone=0.05)
        _STEPPED[mode] = scn, looped(scn)
    return _STEPPED[mode]


coordinate = st.floats(-2.0, 2.0)


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from(["paper", "auto"]),
       z=st.tuples(coordinate, coordinate),
       k=st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
       intz=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
       s=st.integers(0, 10_000))
def test_compiled_step_matches_rk4_step_everywhere(mode, z, k, intz, s):
    scn, loop = stepped(mode)
    y = loop_state(scn, z, k, intz)
    t = s * scn.h
    rows, got = loop_at(loop, scn, s, y)
    assert got == plain_step(scn, t, y)
    check_rows(scn, rows, s, y, got)


# sha256 prefixes of the run loop source Scenario.run compiles at T = 1.0;
# a change to the emitted code updates these and names itself in CHANGES.md
LOOP_PINS = [
    ("numeric-2d", {"mode": "paper"}, "568efe7768dd0dc8"),
    ("numeric-2d", {"mode": "auto"}, "535c2ac06d051337"),
    ("numeric-2d", {"mode": "paper", "deadzone": 0.05}, "ec83e88414c11f0f"),
    ("numeric-2d", {"mode": "auto", "deadzone": 0.05}, "06f50e5d23e0edfb"),
    ("numeric-2d", {"mode": "paper", "sign": -1.0}, "944b081451351a77"),
    ("stt-missile", {}, "6b6924877ebbcdd8"),
    ("stt-missile", {"sign": -1.0}, "a838dda4fc489706"),
]


@pytest.mark.parametrize("sid, kwargs, pin", LOOP_PINS,
                         ids=["%s-%s" % (sid, "-".join("%s=%s" % kv for kv in kw.items()))
                              for sid, kw, _ in LOOP_PINS])
def test_compiled_run_loop_source_is_pinned(sid, kwargs, pin, monkeypatch):
    handed = []
    monkeypatch.setattr(scenarios, "integrate",
                        lambda *args, loop, **kwargs: handed.append(loop))
    scenarios.build(sid, T=1.0, **kwargs).run()
    assert hashlib.sha256(handed[0].source.encode()).hexdigest()[:16] == pin


def run_from(scn, y0, loop=None, rhs=None):
    return integrate(rhs or scn.rhs, y0, 0.01, scn.h, 1, recorder=scn.recorder,
                     sid=scn.sid, meta=scn.meta, loop=loop)


def same_run(fused, plain):
    """Two trajectories with the same samples, flags and failure point, bit for bit."""
    assert fused.diverged == plain.diverged
    assert repr(fused.failure) == repr(plain.failure)
    assert bits(fused.data.ravel()) == bits(plain.data.ravel())


@pytest.mark.parametrize("mode", ["paper", "auto"])
@pytest.mark.parametrize("bad", ["nan", "out-of-range"])
def test_compiled_step_declines_and_the_plain_step_fails_as_before(mode, bad):
    scn, loop = stepped(mode)
    y = list(scn.y0())
    if bad == "nan":
        y[-1] = math.nan
    else:
        y[-1] = ABORT_LIMIT * (1.0 - 1e-15)  # grows past the limit in one step
    assert loop_at(loop, scn, 0, y)[1] is None
    fused = run_from(scn, y, loop=looped(scn))
    plain = run_from(scn, y, rhs=scn.rhs_reference)
    assert fused.diverged and plain.diverged
    assert fused.failure.t == plain.failure.t
    assert bits(fused.failure.y) == bits(plain.failure.y)
    assert np.array_equal(fused.data, plain.data, equal_nan=True)


def test_replaced_rhs_is_integrated_as_given():
    """A replaced rhs compiles no loop: its steps and the rows both run as given."""
    scn = scenarios.build("numeric-2d", T=0.5)
    calls, rows = [], []
    reference = scn.rhs
    names, build = scn.recorder

    def counting(t, y):
        calls.append(t)
        return reference(t, y)

    scn.rhs = counting
    scn.recorder = (names, lambda t, y: rows.append(t) or build(t, y))
    traj = scn.run()
    assert len(calls) == 4 * 500
    assert rows == traj.t.tolist()  # the recorder runs once per row, never on a trace
    assert np.array_equal(traj.data, scenarios.build("numeric-2d", T=0.5).run().data)


def test_sign_flipped_run_diverges_like_the_reference():
    scn = scenarios.build("numeric-2d", sign=-1.0, T=1.0, decimation=1)
    traj = scn.run()
    ref = integrate(scn.rhs_reference, scn.y0(), scn.T, scn.h, scn.decimation,
                    recorder=scn.recorder, sid=scn.sid, meta=scn.meta)
    assert traj.diverged and ref.diverged
    assert traj.data.shape[0] > 1
    assert np.array_equal(traj.data, ref.data)
    assert isinstance(traj.failure, StatePoint)
    assert traj.failure.t == ref.failure.t
    assert bits(traj.failure.y) == bits(ref.failure.y)


@pytest.mark.parametrize("sid,kwargs", CASES, ids=CASE_IDS)
def test_run_loop_matches_the_plain_run(sid, kwargs):
    """A run through the compiled loop is the plain run, bit for bit: rows,
    flags and failure point.  The sign-flipped loops diverge: auto mode in
    its first step, paper mode and the missile tens of steps in."""
    scn = scenarios.build(sid, T=1.0 if sid == "numeric-2d" else 2.0, decimation=8, **kwargs)
    traj = scn.run()
    plain = integrate(scn.rhs_reference, scn.y0(), scn.T, scn.h, scn.decimation,
                      recorder=scn.recorder, sid=scn.sid, meta=scn.meta, loop=None)
    same_run(traj, plain)
    assert traj.diverged == (kwargs["sign"] < 0)
    if traj.diverged:
        first = kwargs.get("mode") == "auto"
        assert (traj.failure.t == scn.h) == first and (len(traj.data) == 1) == first


RECORDED = [("numeric-2d", {"mode": "paper"}), ("numeric-2d", {"mode": "auto"}),
            ("stt-missile", {})]
RECORDED_IDS = ["numeric-2d-paper", "numeric-2d-auto", "stt-missile"]


def counting_floats(build, calls):
    """build, appending t to calls on each call on floats (not on a trace's Vars)."""
    def counted(t, y):
        if y[0].__class__ is float:
            calls.append(t)
        return build(t, y)

    return counted


def plain_calls(scn, monkeypatch):
    """Lists of the plain steps and plain rows a run of scn takes."""
    steps, rows = [], []
    step = simkit.rk4_step
    monkeypatch.setattr(simkit, "rk4_step", lambda *args: steps.append(args) or step(*args))
    names, build = scn.recorder
    scn.recorder = (names, counting_floats(build, rows))
    return steps, rows


@pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
def test_every_scenario_runs_compiled(sid, monkeypatch):
    scn = scenarios.build(sid, T=0.1)  # the default decimation
    steps, rows = plain_calls(scn, monkeypatch)
    traj = scn.run()
    assert not traj.diverged and len(traj.data) == 1 + 100 // scn.decimation
    assert steps == [] and rows == []  # every step and row ran compiled


@pytest.mark.parametrize("sid,kwargs", CASES, ids=CASE_IDS)
def test_compiled_row_matches_the_plain_row(sid, kwargs):
    """The row a run compiles, traced at (0, y0), is the plain row bit for
    bit.  The auto-mode sign-flipped runs diverge in their first step, so
    they compile no loop; their row is checked in the loop traced at the
    first sampled point whose step does not diverge instead."""
    scn = scenarios.build(sid, **kwargs)
    build = scn.recorder[1]
    points = [on_grid(scn, t) + (y,) for y, t, _ in (SAMPLERS[sid](scn, i) for i in range(200))]
    loop = looped(scn)
    assert (loop is None) == (kwargs.get("mode") == "auto" and kwargs["sign"] < 0)
    if loop is None:
        loop = next(filter(None, (looped(scn, t, y) for _, t, y in points)))
    for s, t, y in points:
        rows = loop_at(loop, scn, s, y)[0]
        assert rows and bits(rows[0]) == bits([t, *build(t, y)])


@pytest.mark.parametrize("sid,kwargs", RECORDED, ids=RECORDED_IDS)
def test_every_scenario_records_compiled(sid, kwargs, monkeypatch):
    scn = scenarios.build(sid, T=0.1, decimation=1, **kwargs)
    steps, rows = plain_calls(scn, monkeypatch)
    traj = scn.run()
    assert not traj.diverged and len(traj.data) == 101
    assert steps == [] and rows == []  # every step and row ran compiled


def test_missed_row_guard_records_the_plain_row():
    """Where the compiled row's guard misses, the plain builder builds that row.

    The auto-mode row's own guards are sqrt domain checks of a^2 + eps^2,
    which no float state misses; this builder adds the sign of z2 as a
    column, a guard once traced, and z2 changes sign within 0.1 s.
    """
    scn = scenarios.build("numeric-2d", mode="auto", T=0.1, decimation=1)
    names, build = scn.recorder

    def sided(t, y):
        row = build(t, y)
        return [*row, 1.0 if row[3] > 0.0 else -1.0]

    recorder = ((*names, "side"), sided)
    plain = []
    scn.recorder = (recorder[0], counting_floats(sided, plain))
    traj = scn.run()
    ref = integrate(scn.rhs, scn.y0(), scn.T, scn.h, 1, recorder=recorder,
                    sid=scn.sid, meta=scn.meta, loop=None)
    same_run(traj, ref)
    missed = traj.t[traj.col("side") < 0.0]
    assert len(missed) > 0 and plain == missed.tolist()
    j = int(np.argmax(traj.col("side") < 0.0))
    y = [float(traj.col(c)[j]) for c in ("x1", "x2", "k1", "k2", "intz1", "intz2")]
    # the loop stops before the row at that point, so before its step too
    s = on_grid(scn, float(traj.t[j]))[0]
    assert loop_at(looped(scn, row=sided), scn, s, y) == ([], None)


def test_untraceable_recorder_records_as_given():
    scn = scenarios.build("stt-missile", T=0.1, decimation=1)
    names, build = scn.recorder
    scn.recorder = (names, lambda t, y: build(t, [float(v) for v in y]))
    assert looped(scn) is None  # the row's trace fails: every step and row is plain
    traj = scn.run()
    assert np.array_equal(traj.data,
                          scenarios.build("stt-missile", T=0.1, decimation=1).run().data)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_missile_run_matches_the_reference_integration(sign):
    scn = scenarios.build("stt-missile", sign=sign, T=2.0, decimation=1)
    traj = scn.run()
    ref = integrate(scn.rhs_reference, scn.y0(), scn.T, scn.h, scn.decimation,
                    recorder=scn.recorder, sid=scn.sid, meta=scn.meta)
    assert traj.diverged == ref.diverged == (sign < 0)
    assert np.array_equal(traj.data, ref.data, equal_nan=True)
    assert repr(traj.failure) == repr(ref.failure)


def test_missile_declares_no_theta_box():
    """stt-missile's flight condition is a known profile, not an uncertainty box."""
    assert scenarios.build("stt-missile").theta is None


def test_missile_wiring():
    scn = scenarios.build("stt-missile")
    assert scn.n == 3
    assert scn.adaptive == (2, 3)
    assert scn.x0[0] == pytest.approx(math.radians(10.0), rel=1e-15)
    names, build_row = scn.recorder
    assert tuple(names) == (
        "x1", "x2", "x3", "z1", "z2", "z3", "k2", "k3", "u",
        "psi3", "roll_deg", "intz2", "intz3",
    )
    row = build_row(0.0, scn.y0())
    assert row[names.index("roll_deg")] == pytest.approx(10.0, rel=1e-12)
    assert scn.stack is None


def test_missile_rhs_initial_rates():
    scn = scenarios.build("stt-missile")
    rates = scn.rhs(0.0, scn.y0())
    assert rates[0] == 0.0  # rate starts at zero
    assert rates[1] == 0.0  # no deflection yet
    assert rates[2] == pytest.approx(-8.7097351184015917, rel=1e-12)
    # gain integrators move from the start
    assert rates[3] > 0.0 and rates[4] > 0.0
    assert rates[5] > 0.0 and rates[6] > 0.0


def test_equilibrium_short_run_stays_at_zero():
    scn = scenarios.build("numeric-2d", x0=(0.0, 0.0), T=1.0)
    traj = scn.run()
    assert not traj.diverged
    for c in ("x1", "x2", "z1", "z2", "u"):
        assert float(np.max(np.abs(traj.col(c)))) == 0.0
    for c in ("k1", "k2"):
        assert np.all(traj.col(c) == traj.col(c)[0])


def test_run_respects_overridden_grid():
    scn = scenarios.build("numeric-2d", T=2.0, h=1e-3, decimation=200)
    traj = scn.run()
    assert traj.data.shape[0] == 11
    assert traj.t[-1] == pytest.approx(2.0, abs=1e-12)


def schema_overrides(sid):
    return load_text("scenario.id = %s\n" % sid).scenario_overrides()


@pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
def test_config_keys_are_factory_keywords(sid):
    params = inspect.signature(scenarios.SCENARIOS[sid]).parameters
    assert set(schema_overrides(sid)) == set(params)


@pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
def test_factory_defaults_match_schema_defaults(sid):
    plain = scenarios.build(sid)
    configured = scenarios.build(sid, **schema_overrides(sid))
    assert plain.y0() == configured.y0()
    assert (plain.T, plain.h, plain.decimation) == (
        configured.T, configured.h, configured.decimation)
    assert plain.recorder[0] == configured.recorder[0]
    assert plain.meta == configured.meta
    y0 = list(plain.y0())
    assert bits(plain.rhs(0.0, y0)) == bits(configured.rhs(0.0, y0))


# -- the closed loop as each factory once assembled it by hand ------------


def handwritten_numeric2d(scn, mode, sign, deadzone, theta=(1.0, 2.0)):
    """numeric-2d's (rhs_reference, probe), written out as its factory once did."""
    mu, gamma = scn.meta["mu"], scn.meta["gamma"]
    params = DesignParams(mu=tuple(mu), gamma=tuple(gamma), deadzone=deadzone)
    plant = PlantSpec(drift=(scenarios._n2_drift1, scenarios._n2_drift2),
                      gain=(scenarios._n2_gain1, scenarios._n2_gain2))

    def control(y):
        """(z, psi, recorded shapes, sign * u) at y."""
        x1, x2, k1, k2 = y[:4]
        if mode == "auto":
            ev = scn.stack.evaluate((x1, x2), (k1, k2))
            return ev.z, ev.psi, (*ev.psi, ev.eta[1]), sign * ev.alpha[1]
        # the published law: psi1 = 2 and the closed-form psi2, unsquared
        alpha1 = -(mu[0] * k1 * 2.0 * x1)
        z2 = x2 - alpha1
        psi = (2.0, scenarios._n2_psi2_closed_form(x1, k1, x1, x2, mu[0], gamma[0]))
        return (x1, z2), psi, psi, sign * -(mu[1] * k2 * psi[1] * z2)

    def rhs_reference(t, y):
        x = (y[0], y[1])
        z, psi, _, u = control(y)
        return (
            plant.stage_rate(0, x, y[1], theta),
            plant.stage_rate(1, x, u, theta),
            *params.gain_rates(psi, z),
            z[0] * z[0],
            z[1] * z[1],
        )

    def probe(t, y):
        z, _, shapes, u = control(y)
        return z, u, shapes

    return rhs_reference, probe


def handwritten_missile(sign):
    """stt-missile's (rhs_reference, probe) at its defaults, written out from the
    roll-channel and three-step equations of ``missile``, in their operation order."""
    k1, mu2, mu3, gamma2, gamma3, epsilon, xi = 5.0, 0.5, 0.5, 0.1, 0.1, 0.1, 1.0

    def control(y):
        """(z, psi3, dk2/dt, dk3/dt, sign * cmd) at y."""
        roll, rate, defl, k2, k3 = y[:5]
        z1 = roll
        z2 = rate + k1 * z1
        z3 = defl + mu2 * k2 * z2
        dk2 = gamma2 * z2 * z2  # before psi3, which reads it
        psi3 = (mu2 * k2 + mu2 * dk2 + xi * mu2 * mu2 * k2 * k2 + 0.5 * xi * mu2 * k2
                + mu2 * k1 * k1 * k2 / math.sqrt(epsilon) + mu2 * k1 * k2 + xi + 1.0)
        dk3 = gamma3 * psi3 * psi3 * z3 * z3
        return (z1, z2, z3), psi3, dk2, dk3, sign * -(mu3 * k3 * psi3 * psi3 * z3)

    def rhs_reference(t, y):
        (_, z2, z3), _, dk2, dk3, cmd = control(y)
        # rho_air V(t)^2 s l mx(t) / (2 Jx), V = 200 (1 + 0.1 cos 2t), mx = 2.12 (1 + 0.2 sin t)
        v = 200.0 * (1.0 + 0.1 * math.cos(2.0 * t))
        gain = 0.7361 * v * v * 0.42 * 0.68 * (2.12 * (1.0 + 0.2 * math.sin(1.0 * t))) / 200.0
        return (y[1], gain * y[2], (cmd - y[2]) / 0.01, dk2, dk3, z2 * z2, z3 * z3)

    def probe(t, y):
        z, psi3, _, _, cmd = control(y)
        return z, cmd, (psi3, math.degrees(y[0]))

    return rhs_reference, probe


def handwritten_row(probe, n, m):
    def build_row(t, y):
        z, u, extra = probe(t, y)
        return [*y[:n], *z, *y[n:n + m], u, *extra, *y[n + m:]]

    return build_row


ASSEMBLED = [("numeric-2d", {"mode": "paper"}), ("numeric-2d", {"mode": "auto"}),
             ("numeric-2d", {"deadzone": 0.05}), ("numeric-2d", {"sign": -1.0}),
             ("stt-missile", {"sign": 1.0}), ("stt-missile", {"sign": -1.0})]


@pytest.mark.parametrize("sid,kwargs", ASSEMBLED,
                         ids=["%s-%s" % (sid, "-".join("%s=%s" % kv for kv in kw.items()))
                              for sid, kw in ASSEMBLED])
def test_assembled_loop_is_the_handwritten_one(sid, kwargs):
    """Scenario's rhs and recorded row from plant + law + sign, bit for bit."""
    scn = scenarios.build(sid, **kwargs)
    sign = kwargs.get("sign", 1.0)
    if sid == "numeric-2d":
        rhs, probe = handwritten_numeric2d(scn, kwargs.get("mode", "paper"), sign,
                                           kwargs.get("deadzone", 0.0))
    else:
        rhs, probe = handwritten_missile(sign)
    row = handwritten_row(probe, scn.n, len(scn.adaptive))
    for i in range(200):
        y, t, _ = SAMPLERS[sid](scn, i)
        assert bits(scn.rhs_reference(t, y)) == bits(rhs(t, y))
        assert bits(scn.recorder[1](t, y)) == bits(row(t, y))
