"""Scenario registry: wiring, recorders, compiled-rhs equivalence."""

import math

import numpy as np
import pytest

from purefb import scenarios
from purefb.simkit import StatePoint, integrate

rng = np.random.default_rng(6021023)


def test_registry_lists_both_benchmarks():
    assert tuple(scenarios.SCENARIO_IDS) == ("numeric-2d", "stt-missile")
    assert tuple(scenarios.scenario_ids()) == ("numeric-2d", "stt-missile")


def test_build_unknown_id():
    with pytest.raises(ValueError, match="numeric-2d"):
        scenarios.build("no-such-loop")


def test_two_state_wiring():
    scn = scenarios.build("numeric-2d")
    assert scn.n == 2
    assert scn.x0 == (-2.0, 3.0)
    assert scn.adaptive == (1, 2)
    assert scn.theta(0.0) == (1.0, 2.0)
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
        for key in ("x_cols", "z_cols", "k_cols", "intz_cols", "gamma",
                    "adaptive", "n", "mode", "scenario"):
            assert key in scn.meta, (sid, key)
        assert len(scn.meta["gamma"]) == len(scn.meta["k_cols"])
        assert len(scn.meta["intz_cols"]) == len(scn.meta["k_cols"])


def test_theta_outside_declared_box_rejected():
    with pytest.raises(ValueError, match="box"):
        scenarios.build(
            "numeric-2d", theta=(3.0, 2.0),
            theta_box=((0.8, 1.2), (1.6, 2.4)),
        )


def bits(values):
    return [float(v).hex() for v in values]


LOOPS = [(mode, dz, sign) for mode in ("paper", "auto")
         for dz in (0.0, 0.05) for sign in (1.0, -1.0)]


@pytest.mark.parametrize(
    "mode,deadzone,sign", LOOPS,
    ids=["%s-dz%g-sign%+d" % (m, dz, s) for m, dz, s in LOOPS])
def test_compiled_rhs_matches_reference(mode, deadzone, sign):
    """The compiled right-hand side is the generic one, bit for bit."""
    scn = scenarios.build("numeric-2d", mode=mode, deadzone=deadzone, sign=sign)
    assert scn.traced.source is None  # build does not trace
    assert scn.traced.trace(0.0, list(scn.y0()))
    assert scn.rhs.__code__.co_name == "tape"
    if deadzone:
        assert "(0.0 if" in scn.traced.source
    sides = set()
    for i in range(200):
        # every other point lands near the dead-zone edge of both errors
        width = 0.1 if i % 2 else 4.0
        z = [float(v) for v in rng.uniform(-width, width, size=2)]
        k = [float(v) for v in rng.uniform(0.01, 10.0, size=2)]
        x, _, _, _ = scn.stack.reconstruct(z, k[:1])
        y = [float(v) for v in x] + k + [float(v) for v in rng.uniform(0.0, 5.0, size=2)]
        t = float(rng.uniform(0.0, 100.0))
        sides.update(abs(zi) < 0.05 for zi in z)
        assert bits(scn.rhs(t, y)) == bits(scn.rhs_reference(t, y))
    assert sides == {True, False}


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


def test_missile_is_not_compiled():
    scn = scenarios.build("stt-missile")
    assert scn.traced is None and scn.rhs is scn.rhs_reference


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
    assert scn.stack is None and scn.plant is None
    assert scn.missile_parts is not None


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
