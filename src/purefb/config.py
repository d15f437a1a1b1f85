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

A key that sets a library keyword takes that keyword's default, read once
at import: a scenario section's key the factory keyword of its name,
``verify.<field>`` the ``VerifyTolerances`` field and ``verify.audit_*``
the ``dominance_audit`` keyword.  Only the other keys state their own.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

from . import scenarios
from .verify import VerifyTolerances, dominance_audit

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
    doc: str
    scen: Optional[str] = None
    # own default (None: unset); a key that sets a library keyword has none
    default: object = None
    required: bool = False
    count: Optional[int] = None  # arity for typ == "floats"
    choices: Optional[tuple] = None
    check: Optional[Callable] = None


N2 = "numeric-2d"
MS = "stt-missile"

# most integration steps (integrator.T / integrator.h) one run may ask for
STEP_BUDGET = 10_000_000

SCHEMA = (
    Key("scenario.id", "str", "registered scenario to run", required=True,
        choices=scenarios.SCENARIO_IDS),
    Key("run.seed", "int", "seed recorded with the run and used by sweeps",
        default=0, check=_nonneg),
    Key("run.out", "str", "run-registry root directory", default="runs"),
    Key("integrator.T", "float", "horizon, seconds", check=_positive),
    Key("integrator.h", "float", "fixed integration step, seconds",
        check=_positive),
    Key("integrator.decimation", "int",
        "record every this many steps (must divide T/h)", check=_positive),
    Key("design.sign_flip", "bool",
        "sabotage toggle: flip the sign of the applied input (negative "
        "controls only)", default=False),
    Key("verify.tol_x", "float", "tail sup-norm threshold on the state",
        check=_positive),
    Key("verify.tol_k", "float", "gain settling threshold over the tail",
        check=_positive),
    Key("verify.tail_frac", "float",
        "fraction of the horizon treated as the tail window", check=_fraction),
    Key("verify.z_tail", "float",
        "allowed tail increment of each squared-error integral",
        check=_positive),
    Key("verify.energy_slack", "float",
        "slack in gamma_i * int z_i^2 <= k_i(T) - k_i(0)", check=_positive),
    Key("verify.budget_slack", "float",
        "absolute slack of the energy-budget monitor", check=_positive),
    Key("verify.k_monotone", "float", "tolerated per-sample gain decrease",
        check=_nonneg),
    Key("verify.audit_samples", "int",
        "sample count for the stage-dominance audit", check=_positive),
    Key("verify.audit_seed", "int", "seed of the dominance audit",
        check=_nonneg),
    # two-state numeric benchmark
    Key("design.mode", "str",
        "gain-shape source: the benchmark's closed forms or constructive "
        "synthesis", scen=N2, choices=scenarios.MODES),
    Key("design.mu", "floats", "per-stage control weights mu_i", scen=N2,
        count=2, check=_each_positive),
    Key("design.gamma", "floats", "per-stage adaptation rates", scen=N2,
        count=2, check=_each_positive),
    Key("design.k0", "floats", "initial adaptive gains", scen=N2, count=2,
        check=_each_positive),
    Key("design.deadzone", "float",
        "freeze adaptation while |z_i| is below this", scen=N2, check=_nonneg),
    Key("design.smoothing", "float",
        "smooth-absolute-value width used inside synthesized shapes",
        scen=N2, check=_positive),
    Key("init.x0", "floats", "initial plant state", scen=N2, count=2),
    Key("uncertainty.theta", "floats",
        "constant uncertainty vector of the run", scen=N2, count=2),
    Key("uncertainty.box_lo", "floats",
        "lower edge of the declared uncertainty box (defaults to theta)",
        scen=N2, count=2),
    Key("uncertainty.box_hi", "floats",
        "upper edge of the declared uncertainty box (defaults to theta)",
        scen=N2, count=2),
    Key("sweep.x0_lo", "floats",
        "lower corner of the initial-state box sampled by the sweep",
        default=(-3.0, -3.0), scen=N2, count=2),
    Key("sweep.x0_hi", "floats",
        "upper corner of the initial-state box sampled by the sweep",
        default=(3.0, 3.0), scen=N2, count=2),
    # missile roll channel
    Key("init.roll_deg", "float", "initial roll angle, degrees", scen=MS),
    Key("init.rate", "float", "initial roll rate, rad/s", scen=MS),
    Key("init.defl", "float", "initial aileron deflection, rad", scen=MS),
    Key("design.k1", "float", "fixed first-stage gain", scen=MS,
        check=_positive),
    Key("design.mu2", "float", "second-stage control weight", scen=MS,
        check=_positive),
    Key("design.mu3", "float", "third-stage control weight", scen=MS,
        check=_positive),
    Key("design.gamma2", "float", "second-stage adaptation rate", scen=MS,
        check=_positive),
    Key("design.gamma3", "float", "third-stage adaptation rate", scen=MS,
        check=_positive),
    Key("design.k20", "float", "initial second-stage gain", scen=MS,
        check=_positive),
    Key("design.k30", "float", "initial third-stage gain", scen=MS,
        check=_positive),
    Key("design.epsilon", "float",
        "completion-of-squares constant (needs k1 - 3 epsilon / 4 > 0)",
        scen=MS, check=_positive),
    Key("missile.s", "float", "reference area, m^2", scen=MS,
        check=_positive),
    Key("missile.l", "float", "reference length, m", scen=MS,
        check=_positive),
    Key("missile.jx", "float", "roll inertia, kg m^2", scen=MS,
        check=_positive),
    Key("missile.tau_a", "float", "actuator time constant, s", scen=MS,
        check=_positive),
    Key("missile.rho_air", "float", "air density, kg/m^3", scen=MS,
        check=_positive),
    Key("missile.v_mean", "float", "mean airspeed, m/s", scen=MS,
        check=_positive),
    Key("missile.v_amp", "float", "relative airspeed ripple amplitude",
        scen=MS, check=_amplitude),
    Key("missile.v_freq", "float", "airspeed ripple frequency, rad/s",
        scen=MS, check=_nonneg),
    Key("missile.mx_mean", "float", "mean roll-moment slope, 1/rad",
        scen=MS, check=_positive),
    Key("missile.mx_amp", "float",
        "relative roll-moment-slope ripple amplitude", scen=MS,
        check=_amplitude),
    Key("missile.mx_freq", "float",
        "roll-moment-slope ripple frequency, rad/s", scen=MS, check=_nonneg),
    Key("missile.xi_const", "float",
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


def _defaults(sid):
    """Scenario sid's optional keys and their defaults; a key whose path is
    a prefix below plus a keyword's name takes that keyword's default."""
    sources = [(section + ".", scenarios.SCENARIOS[sid])
               for section in SCENARIO_SECTIONS]
    sources += [("verify.", VerifyTolerances), ("verify.audit_", dominance_audit)]
    library = {
        prefix + p.name: p.default
        for prefix, source in sources
        for p in inspect.signature(source).parameters.values()
        if p.default is not p.empty
    }
    return {k.name: library.get(k.name, k.default) for k in SCHEMA
            if k.scen in (None, sid) and not k.required}


_DEFAULTS = {sid: _defaults(sid) for sid in _BY_NAME["scenario.id"].choices}


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
    for name, default in _DEFAULTS[sid].items():
        values.setdefault(name, default)
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
    steps = values["integrator.T"] / values["integrator.h"]
    if steps > STEP_BUDGET:
        raise ConfigError(
            "integrator.h: %r asks for %.3g steps over integrator.T = %r, "
            "more than the budget of %d" % (values["integrator.h"], steps,
                                            values["integrator.T"], STEP_BUDGET)
        )
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
        "when `scenario.id` selects it.  A run may take at most %d" % STEP_BUDGET,
        "integration steps (`integrator.T / integrator.h`).",
        "",
        "| key | type | default | applies to | description |",
        "|---|---|---|---|---|",
    ]
    for key in SCHEMA:
        shown = {sid: "(unset)" if d[key.name] is None else _render(key, d[key.name])
                 for sid, d in sorted(_DEFAULTS.items()) if key.name in d}
        if key.required:
            default = "(required)"
        elif len(set(shown.values())) > 1:
            default = "; ".join("%s: %s" % item for item in shown.items())
        else:
            (default,) = set(shown.values())
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
