"""Fixed-step closed-loop integration and trajectory recording.

The augmented state (plant state, adaptive gains, squared-error integrals)
is advanced by classical fourth-order Runge-Kutta with a constant step, so
a run is a pure function of its configuration: identical settings produce
bit-identical trajectories.  Time-varying inputs are sampled exactly at the
stage times t, t + h/2, t + h.  The step is written once, in ``rk4_step``,
abort rule included; ``tape.compile_loop`` traces it, next to the row
builder, to compile a whole run loop, which ``integrate`` accepts as
``loop``.

Divergence is handled as data, not as a crash: a non-finite step or a
component exceeding ``ABORT_LIMIT`` ends the run early with the partial
trajectory and its failure point, which the Monte-Carlo harness
aggregates.  simkit owns the library's value rule, ``_typed``: it types
``check_grid``'s T and h and every keyword of ``scenarios`` and ``verify``.
"""

from __future__ import annotations

import array
import itertools
import math
import numbers
from collections.abc import Mapping, Set, Sized
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "DivergenceError",
    "STEP_BUDGET",
    "StatePoint",
    "Trajectory",
    "check_grid",
    "integrate",
    "measure_order",
    "rk4_step",
]

ABORT_LIMIT = 1e9
CSV_BLOCK_ROWS = 256
# most integration steps (T / h) one run may ask for
STEP_BUDGET = 10_000_000


class StatePoint(NamedTuple):
    """Snapshot of the augmented closed-loop state at one instant."""

    t: float
    y: tuple


class DivergenceError(RuntimeError):
    """A step diverged.  ``rk4_step`` raises it by two rules: at the
    pre-step point (t, y) where a stage fails or the new state is not
    finite, and at the new point (t + h, out) where a finite component
    lies beyond +-``ABORT_LIMIT``."""

    def __init__(self, t, y, detail="non-finite stage evaluation"):
        self.point = StatePoint(float(t), tuple(float(v) for v in y))
        super().__init__("%s at t=%.6g" % (detail, t))


def _check(ok, message, *args):
    """ValueError(message % args) unless ok; each message starts with its keyword."""
    if not ok:
        raise ValueError(message % args)


def _float(value):
    """float(value), or an infinity for a real beyond the largest float."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _typed(keyword, value, like, rule=None):
    """value typed like its keyword's default like, or a ValueError that
    starts with keyword or its entry: a float or int default takes a finite
    real number but a bool (a whole one for an int), as its default's type;
    an n-tuple default a sequence (not a str, set or mapping) of n entries,
    each typed like its own as keyword[i], a tuple entry as a (lo, hi) pair
    or as rule says; any other default leaves value to its keyword's rule."""
    kind = type(like)
    if kind is tuple:
        if type(value) is tuple and [*map(type, value + like)] == [float] * 2 * len(like):
            if all(map(math.isfinite, value)):
                return value  # n finite floats where n floats belong, as they are
        _check(not isinstance(value, (Set, Mapping)), "%s must be a sequence, got %r",
               keyword, value)
        _check(isinstance(value, Sized) and not isinstance(value, (str, bytes))
               and len(value) == len(like), "%s must %s; got %r", keyword,
               rule or "have %d entries, one per stage" % len(like), value)
        return tuple(_typed("%s[%d]" % (keyword, i), v, w, "be a (lo, hi) pair")
                     for i, (v, w) in enumerate(zip(value, like), 1))
    if kind in (float, int) and type(value) is not kind:  # an int of any size as it is
        _check(isinstance(value, numbers.Real) and not isinstance(value, bool)
               and (kind is float or _float(value).is_integer()), "%s must be a %s number, "
               "got %r", keyword, "real" if kind is float else "whole", value)
        value = kind(value) if kind is int else _float(value)
    _check(kind is not float or math.isfinite(value), "%s must be finite, got %r", keyword, value)
    return value


def check_grid(T, h, decimation):
    """The step count T/h of the time grid (T, h, decimation), or a
    ValueError that starts with the one it rejects: T and h, typed as
    floats, must be positive, T a whole multiple of h in at most
    ``STEP_BUDGET`` steps, and the int decimation must divide the steps."""
    T, h = _typed("T", T, 0.0), _typed("h", h, 0.0)
    _check(T > 0.0, "T must be positive, got %r", T)
    _check(h > 0.0, "h must be positive, got %r", h)
    _check(T / h <= STEP_BUDGET, "h = %r asks for %.3g steps over T = %r, more than "
           "the budget of %d", h, T / h, T, STEP_BUDGET)
    steps = round(T / h)
    _check(steps >= 1 and abs(steps * h - T) <= 1e-9 * max(1.0, T),
           "T must be an integer multiple of h, got T = %r, h = %r", T, h)
    _check(type(decimation) is int, "decimation must be a whole number, got %r", decimation)
    _check(decimation >= 1 and steps % decimation == 0,
           "decimation must divide the %d integration steps, got %d", steps, decimation)
    return steps


def rk4_step(rhs, y, t, h):
    """One classical Runge-Kutta step from t to t+h, then the abort rule.

    Returns a list, or raises DivergenceError by either of its two rules.
    Generic over the scalar type of t and y: ``tape.compile_loop`` traces
    it, the rule's comparisons as guards, to compile a whole step.
    """
    try:
        k1 = rhs(t, y)
        h2 = 0.5 * h
        t2 = t + h2
        y2 = [yi + h2 * ki for yi, ki in zip(y, k1)]
        k2 = rhs(t2, y2)
        y3 = [yi + h2 * ki for yi, ki in zip(y, k2)]
        k3 = rhs(t2, y3)
        y4 = [yi + h * ki for yi, ki in zip(y, k3)]
        k4 = rhs(t + h, y4)
        out = [yi + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
               for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
    except (ArithmeticError, ValueError) as exc:
        raise DivergenceError(t, y, detail=str(exc) or "arithmetic failure") from exc
    if not all(-ABORT_LIMIT <= v <= ABORT_LIMIT for v in out):
        if not math.isfinite(sum(out)):
            raise DivergenceError(t, y)
        raise DivergenceError(t + h, out, detail="component beyond the abort limit")
    return out


@dataclass
class Trajectory:
    """Decimated record of one closed-loop run.

    data holds one row per retained sample; columns[0] is always "t".
    CSV serialization uses shortest round-trip float formatting, so the
    file bytes are as deterministic as the run itself.
    """

    sid: str
    columns: tuple
    data: np.ndarray
    h: float
    seed: Optional[int] = None
    failure: Optional[StatePoint] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("data shape does not match column names")
        if not len(self.data):
            raise ValueError("data has no rows")
        t = self.data[:, 0]
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("sample times must be strictly increasing")

    def col(self, name):
        """Column by name as a 1-D array."""
        try:
            j = self.columns.index(name)
        except ValueError:
            raise KeyError("no column %r; have %s" % (name, list(self.columns)))
        return self.data[:, j]

    @property
    def t(self):
        return self.data[:, 0]

    def max_abs(self):
        """The largest |value| of each column but t (summary.json's max_abs,
        check_theorem1's bounded check), from two reductions rather than a
        copy of the table; not finite where a cell is not."""
        v = self.data[:, 1:]
        return np.abs(np.maximum(-np.min(v, axis=0), np.max(v, axis=0)))  # -0.0 -> 0.0

    @property
    def diverged(self):
        """True when the run stopped early; ``failure`` says where."""
        return self.failure is not None

    def write_csv(self, path):
        """Write the table, streamed in blocks of ``CSV_BLOCK_ROWS`` rows.

        Each cell is written as ``repr(float(v))``.  A block's distinct
        float64 bit patterns are formatted once each and its rows assembled
        from those strings: the gains and the z_i^2 integrals of a
        converged run repeat from row to row.  Keying on bits keeps -0.0
        apart from 0.0 and each NaN payload apart.  Only one block of text
        is held at a time, so writing takes memory in proportion to the
        block, not to the table.
        """
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for start in range(0, len(self.data), CSV_BLOCK_ROWS):
                block = np.asarray(self.data[start:start + CSV_BLOCK_ROWS], dtype=float)
                # ravel first: numpy 1.x returns a 1-D inverse, 2.x the input's shape
                bits, where = np.unique(block.view(np.int64).ravel(), return_inverse=True)
                text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
                rows = text[where].reshape(block.shape).tolist()
                fh.write("\n".join(map(",".join, rows)) + "\n")


def read_csv(path, sid="", h=0.0, seed=None):
    """Load a trajectory table written by Trajectory.write_csv."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError("empty trajectory file %s" % path)
        columns = tuple(header.split(","))
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ValueError("trajectory file %s has a header but no rows" % path)
        try:
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
            return Trajectory(sid=sid, columns=columns, data=data, h=h, seed=seed)
        except ValueError as exc:
            # numpy appends advice on its own arguments after a ';'
            reason = str(exc).split(";")[0]
            raise ValueError("trajectory file %s: %s" % (path, reason)) from None


def integrate(
    rhs,
    y0,
    T,
    h,
    decimation=1,
    recorder=None,
    sid="",
    seed=None,
    meta=None,
    loop=None,
):
    """Integrate dy/dt = rhs(t, y) on [0, T] and record every decimation-th step.

    recorder, when given, is a (column_names, build) pair; build maps
    (t, y) to the full sample row after "t" (state components interleaved
    with derived values such as the control input and gain shapes).  By
    default the raw state is recorded under names y1..ym.  Each row goes
    straight into one flat float64 buffer, and the trajectory's ``data``
    is a zero-copy (rows, columns) view of it; a row whose length does not
    match the columns raises ValueError.  Every call checks its grid by
    ``check_grid``, which ``Scenario`` also calls when it is built, so a
    run that does not diverge retains T/h/decimation + 1 samples, the last
    at t = T.
    A step that ``rk4_step`` rejects stops the run instead of raising: the
    partial trajectory's ``failure`` holds the point of its
    DivergenceError, and that alone makes it ``diverged``.

    loop, when given, is a run loop of ``tape.compile_loop`` whose step is
    ``rk4_step(rhs, ., ., h)`` and whose row is the recorder's build.  It
    runs the steps and rows it can vouch for and returns at the first it
    cannot; that one step goes through ``rk4_step``, or that one row
    through build, and the loop is entered again.  So every row, flag and
    failure point is that of the plain path.  With loop None (no loop, or
    one whose trace failed), every step and row runs on the plain path.
    """
    steps = check_grid(T, h, decimation)
    y = [float(v) for v in y0]
    if recorder is None:
        names = tuple("y%d" % (i + 1) for i in range(len(y)))
        build = lambda t, yv: yv
    else:
        names, build = recorder
    columns = ("t",) + tuple(names)
    cells = array.array("d")

    def fits(width):
        if width != len(columns):
            raise ValueError("recorded row has %d cells for the %d columns %s"
                             % (width, len(columns), ",".join(columns)))

    if loop is not None:
        fits(1 + loop.width)  # every row the loop records has this width
    failure = None
    s, left = 0, 0  # left: steps to the next row; 0 while the row at s is due
    while s < steps or not left:
        if loop is not None:
            s, y, left = loop(s, y, left, steps, h, decimation, cells.fromlist)
        if not left:
            t = s * h
            row = [t, *build(t, y)]
            fits(len(row))
            cells.fromlist(row)  # one call per row; extend would append per cell
            left = decimation
        elif s < steps:
            try:
                y = rk4_step(rhs, y, s * h, h)
            except DivergenceError as exc:
                failure = exc.point
                break
            s += 1
            left -= 1
    return Trajectory(
        sid=sid,
        columns=columns,
        data=np.frombuffer(cells, dtype=float).reshape(-1, len(columns)),
        h=h,
        seed=seed,
        failure=failure,
        meta=dict(meta or {}),
    )


def measure_order(rhs, y0, T, h):
    """Self-convergence order of the integrator on a smooth problem.

    Integrates at steps 2h, h, h/2, each grid checked by ``integrate``,
    and compares terminal states: for a 4th-order method the coarse/fine
    difference ratio is about 16, so the returned log2 ratio is about 4.
    """
    h, finals = _typed("h", h, 0.0), []
    for step in (2.0 * h, h, 0.5 * h):
        traj = integrate(rhs, y0, T, step)
        if traj.diverged:
            raise DivergenceError(*traj.failure, detail="the run at step %r diverged" % step)
        finals.append(traj.data[-1, 1:].tolist())
    d_coarse = max(abs(a - b) for a, b in zip(finals[0], finals[1]))
    d_fine = max(abs(a - b) for a, b in zip(finals[1], finals[2]))
    if d_fine == 0.0 or d_coarse == 0.0:
        raise ValueError("test problem too simple to measure an order")
    return math.log2(d_coarse / d_fine)
