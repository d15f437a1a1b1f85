"""Flat, typed key=value run configuration.

The format is deliberately dumb: one ``section.key = value`` per line,
``#`` lines and blank lines ignored, no nesting, no quoting.  Keys are
validated against a closed schema (unknown keys are rejected with their
path), values are typed (float, int, bool, str, comma-separated float
lists), and every effective setting has exactly one canonical rendering.
The SHA-256 of that canonical text identifies the run in the registry, so
two configs that mean the same thing hash the same way regardless of key
order or float spelling.

Schema keys are either common or scoped to one scenario; the scenario is
picked by the required ``scenario.id`` key.  ``schema_markdown`` renders
the documented schema shipped under docs/.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

from .verify import VerifyTolerances

__all__ = [
    "ConfigError",
    "RunConfig",
    "SCHEMA",
    "load_file",
    "load_text",
    "schema_markdown",
]


class ConfigError(ValueError):
    """A config file failed parsing or schema validation."""


def _positive(v):
    return None if v > 0 else "must be positive"


def _nonneg(v):
    return None if v >= 0 else "must be >= 0"


def _each_positive(v):
    return None if all(x > 0 for x in v) else "every component must be positive"


def _fraction(v):
    return None if 0.0 < v <= 0.5 else "must lie in (0, 0.5]"


def _amplitude(v):
    return None if 0.0 <= v < 1.0 else "must lie in [0, 1)"


@dataclass(frozen=True)
class Key:
    """One schema entry; scen=None means common to all scenarios."""

    name: str
    typ: str  # float | int | bool | str | floats
    default: object  # None (with required=True) or value or {scenario: value}
    doc: str
    scen: Optional[str] = None
    required: bool = False
    count: Optional[int] = None  # arity for typ == "floats"
    choices: Optional[tuple] = None
    check: Optional[Callable] = None


N2 = "numeric-2d"
MS = "stt-missile"

SCHEMA = (
    Key("scenario.id", "str", None, "registered scenario to run",
        required=True, choices=(N2, MS)),
    Key("run.seed", "int", 0, "seed recorded with the run and used by sweeps",
        check=_nonneg),
    Key("run.out", "str", "runs", "run-registry root directory"),
    Key("integrator.T", "float", {N2: 100.0, MS: 20.0}, "horizon, seconds",
        check=_positive),
    Key("integrator.h", "float", 1e-3, "fixed integration step, seconds",
        check=_positive),
    Key("integrator.decimation", "int", {N2: 100, MS: 20},
        "record every this many steps (must divide T/h)", check=_positive),
    Key("design.sign_flip", "bool", False,
        "sabotage toggle: flip the sign of the applied input (negative "
        "controls only)"),
    Key("verify.tol_x", "float", 1e-2, "tail sup-norm threshold on the state",
        check=_positive),
    Key("verify.tol_k", "float", 1e-3, "gain settling threshold over the tail",
        check=_positive),
    Key("verify.tail_frac", "float", 0.1,
        "fraction of the horizon treated as the tail window", check=_fraction),
    Key("verify.z_tail", "float", 1e-2,
        "allowed tail increment of each squared-error integral",
        check=_positive),
    Key("verify.energy_slack", "float", 1e-6,
        "slack in gamma_i * int z_i^2 <= k_i(T) - k_i(0)", check=_positive),
    Key("verify.budget_slack", "float", 1e-6,
        "absolute slack of the energy-budget monitor", check=_positive),
    Key("verify.k_monotone", "float", 1e-12,
        "tolerated per-sample gain decrease", check=_nonneg),
    Key("verify.audit_samples", "int", 10000,
        "sample count for the stage-dominance audit", check=_positive),
    Key("verify.audit_seed", "int", 0, "seed of the dominance audit",
        check=_nonneg),
    # two-state numeric benchmark
    Key("design.mode", "str", "paper",
        "gain-shape source: the benchmark's closed forms or constructive "
        "synthesis", scen=N2, choices=("paper", "auto")),
    Key("design.mu", "floats", (0.2, 0.2), "per-stage control weights mu_i",
        scen=N2, count=2, check=_each_positive),
    Key("design.gamma", "floats", (0.2, 0.2), "per-stage adaptation rates",
        scen=N2, count=2, check=_each_positive),
    Key("design.k0", "floats", (0.01, 0.01), "initial adaptive gains",
        scen=N2, count=2, check=_each_positive),
    Key("design.deadzone", "float", 0.0,
        "freeze adaptation while |z_i| is below this", scen=N2, check=_nonneg),
    Key("design.smoothing", "float", 1e-6,
        "smooth-absolute-value width used inside synthesized shapes",
        scen=N2, check=_positive),
    Key("init.x0", "floats", (-2.0, 3.0), "initial plant state", scen=N2,
        count=2),
    Key("uncertainty.theta", "floats", (1.0, 2.0),
        "constant uncertainty vector of the run", scen=N2, count=2),
    Key("uncertainty.box_lo", "floats", None,
        "lower edge of the declared uncertainty box (defaults to theta)",
        scen=N2, count=2),
    Key("uncertainty.box_hi", "floats", None,
        "upper edge of the declared uncertainty box (defaults to theta)",
        scen=N2, count=2),
    Key("sweep.x0_lo", "floats", (-3.0, -3.0),
        "lower corner of the initial-state box sampled by the sweep",
        scen=N2, count=2),
    Key("sweep.x0_hi", "floats", (3.0, 3.0),
        "upper corner of the initial-state box sampled by the sweep",
        scen=N2, count=2),
    # missile roll channel
    Key("init.roll_deg", "float", 10.0, "initial roll angle, degrees",
        scen=MS),
    Key("init.rate", "float", 0.0, "initial roll rate, rad/s", scen=MS),
    Key("init.defl", "float", 0.0, "initial aileron deflection, rad",
        scen=MS),
    Key("design.k1", "float", 5.0, "fixed first-stage gain", scen=MS,
        check=_positive),
    Key("design.mu2", "float", 0.5, "second-stage control weight", scen=MS,
        check=_positive),
    Key("design.mu3", "float", 0.5, "third-stage control weight", scen=MS,
        check=_positive),
    Key("design.gamma2", "float", 0.1, "second-stage adaptation rate",
        scen=MS, check=_positive),
    Key("design.gamma3", "float", 0.1, "third-stage adaptation rate",
        scen=MS, check=_positive),
    Key("design.k20", "float", 0.1, "initial second-stage gain", scen=MS,
        check=_positive),
    Key("design.k30", "float", 0.1, "initial third-stage gain", scen=MS,
        check=_positive),
    Key("design.epsilon", "float", 0.1,
        "completion-of-squares constant (needs k1 - 3 epsilon / 4 > 0)",
        scen=MS, check=_positive),
    Key("missile.s", "float", 0.42, "reference area, m^2", scen=MS,
        check=_positive),
    Key("missile.l", "float", 0.68, "reference length, m", scen=MS,
        check=_positive),
    Key("missile.jx", "float", 100.0, "roll inertia, kg m^2", scen=MS,
        check=_positive),
    Key("missile.tau_a", "float", 0.01, "actuator time constant, s",
        scen=MS, check=_positive),
    Key("missile.rho_air", "float", 0.7361, "air density, kg/m^3", scen=MS,
        check=_positive),
    Key("missile.v_mean", "float", 200.0, "mean airspeed, m/s", scen=MS,
        check=_positive),
    Key("missile.v_amp", "float", 0.1, "relative airspeed ripple amplitude",
        scen=MS, check=_amplitude),
    Key("missile.v_freq", "float", 2.0, "airspeed ripple frequency, rad/s",
        scen=MS, check=_nonneg),
    Key("missile.mx_mean", "float", 2.12, "mean roll-moment slope, 1/rad",
        scen=MS, check=_positive),
    Key("missile.mx_amp", "float", 0.2,
        "relative roll-moment-slope ripple amplitude", scen=MS,
        check=_amplitude),
    Key("missile.mx_freq", "float", 1.0,
        "roll-moment-slope ripple frequency, rad/s", scen=MS, check=_nonneg),
    Key("missile.xi_const", "float", 1.0,
        "constant deflection weight xi used inside psi3", scen=MS,
        check=_positive),
)

_BY_NAME = {k.name: k for k in SCHEMA}

# sections whose keys are the scenario factories' keywords
SCENARIO_SECTIONS = ("integrator", "design", "init", "uncertainty", "missile")
# (key path, factory keyword) of every key in those sections
_KEYWORDS = tuple(
    (k.name, k.name.partition(".")[2])
    for k in SCHEMA if k.name.partition(".")[0] in SCENARIO_SECTIONS
)


def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _coerce(key, text):
    text = text.strip()
    try:
        if key.typ == "float":
            return _finite(text)
        if key.typ == "int":
            return int(text)
        if key.typ == "bool":
            low = text.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError("not a boolean")
        if key.typ == "floats":
            vals = tuple(_finite(p) for p in text.split(","))
            if key.count is not None and len(vals) != key.count:
                raise ValueError("expected %d comma-separated values" % key.count)
            return vals
        return text
    except ValueError as exc:
        raise ConfigError("%s: %s (got %r)" % (key.name, exc, text)) from None


def _render(key, value):
    if key.typ == "float":
        return repr(float(value))
    if key.typ == "int":
        return str(int(value))
    if key.typ == "bool":
        return "true" if value else "false"
    if key.typ == "floats":
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated effective configuration of one run."""

    sid: str
    values: dict
    canonical: str
    sha256: str

    @property
    def run_id(self):
        return self.sha256[:12]

    def __getitem__(self, name):
        return self.values[name]

    @property
    def seed(self):
        return self.values["run.seed"]

    @property
    def out_dir(self):
        return self.values["run.out"]

    def tolerances(self):
        v = self.values
        return VerifyTolerances(
            **{f.name: v["verify." + f.name] for f in fields(VerifyTolerances)}
        )

    def scenario_overrides(self):
        """Keyword arguments for scenarios.build.

        Every key of the sections in SCENARIO_SECTIONS is passed under its
        name after the dot.  Two are reshaped: design.sign_flip becomes
        sign = -1.0 or 1.0, and uncertainty.box_lo/box_hi become theta_box,
        each edge defaulting to theta.
        """
        v = self.values
        over = {key: v[name] for name, key in _KEYWORDS if name in v}
        over["sign"] = -1.0 if over.pop("sign_flip") else 1.0
        if "theta" in over:
            lo, hi = over.pop("box_lo"), over.pop("box_hi")
            theta = over["theta"]
            over["theta_box"] = tuple(zip(lo or theta, hi or theta))
        return over


def parse_text(text):
    """Raw key=value extraction with line-number errors."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("line %d: expected 'key = value'" % lineno)
        name, _, value = stripped.partition("=")
        name = name.strip()
        if not name:
            raise ConfigError("line %d: empty key" % lineno)
        if name in raw:
            raise ConfigError("line %d: duplicate key %r" % (lineno, name))
        raw[name] = value.strip()
    return raw


def load_text(text, overrides=None):
    """Parse and validate config text into a RunConfig.

    overrides maps key paths to raw string values applied on top of the
    file (CLI flags); they go through the same validation.
    """
    raw = parse_text(text)
    for name, value in (overrides or {}).items():
        raw[name] = value
    sid = raw.get("scenario.id")
    if sid is None:
        raise ConfigError("scenario.id: required key is missing")
    id_key = _BY_NAME["scenario.id"]
    if sid not in id_key.choices:
        raise ConfigError(
            "scenario.id: unknown scenario %r (choose from %s)"
            % (sid, ", ".join(id_key.choices))
        )
    values = {"scenario.id": sid}
    for name, text_value in raw.items():
        if name == "scenario.id":
            continue
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError("unknown key %r" % name)
        if key.scen is not None and key.scen != sid:
            raise ConfigError(
                "%s: not a setting of scenario %r (it belongs to %r)"
                % (name, sid, key.scen)
            )
        values[name] = _coerce(key, text_value)
    for key in SCHEMA:
        if key.name in values or (key.scen is not None and key.scen != sid):
            continue
        default = key.default
        if isinstance(default, dict):
            default = default[sid]
        if default is None and key.required:
            raise ConfigError("%s: required key is missing" % key.name)
        values[key.name] = default
    for name, value in values.items():
        key = _BY_NAME[name]
        if key.choices is not None and value not in key.choices:
            raise ConfigError(
                "%s: %r is not one of %s" % (name, value, ", ".join(key.choices))
            )
        if key.check is not None and value is not None:
            problem = key.check(value)
            if problem:
                raise ConfigError("%s: %s (got %s)" % (name, problem, value))
    lines = []
    for name in sorted(values):
        if values[name] is None or name == "run.out":
            # the registry location does not change what ran
            continue
        lines.append("%s = %s" % (name, _render(_BY_NAME[name], values[name])))
    canonical = "\n".join(lines) + "\n"
    sha = hashlib.sha256(canonical.encode()).hexdigest()
    return RunConfig(sid=sid, values=values, canonical=canonical, sha256=sha)


def load_file(path, overrides=None):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    return load_text(text, overrides=overrides)


def schema_markdown():
    """Render the documented schema (shipped under docs/)."""
    out = [
        "# Run configuration schema",
        "",
        "Format: one `section.key = value` per line; `#` starts a comment",
        "line; blank lines are ignored.  Float lists are comma separated.",
        "Unknown keys are rejected.  Keys marked with a scenario apply only",
        "when `scenario.id` selects it.",
        "",
        "| key | type | default | applies to | description |",
        "|---|---|---|---|---|",
    ]
    for key in SCHEMA:
        if key.required:
            default = "(required)"
        elif isinstance(key.default, dict):
            default = "; ".join(
                "%s: %s" % (sid, _render(key, val))
                for sid, val in sorted(key.default.items())
            )
        elif key.default is None:
            default = "(unset)"
        else:
            default = _render(key, key.default)
        typ = key.typ
        if key.choices:
            typ = " \\| ".join(key.choices)
        elif key.typ == "floats":
            typ = "%d floats" % key.count if key.count else "floats"
        out.append(
            "| `%s` | %s | %s | %s | %s |"
            % (key.name, typ, default, key.scen or "all", key.doc)
        )
    out.append("")
    return "\n".join(out)
