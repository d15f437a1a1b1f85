"""Flat, typed key=value run configuration.

The format is deliberately dumb: one ``section.key = value`` per line,
``#`` lines and blank lines ignored, no nesting, no quoting.  Keys are
validated against a closed schema (unknown keys are rejected with their
path), values are typed (float, int, bool, str, comma-separated float
lists), and every effective setting has exactly one canonical rendering.
The SHA-256 of that canonical text identifies the run in the registry, so
two configs that mean the same thing hash the same way regardless of key
order or float spelling.

The required ``scenario.id`` key picks the scenario.  A key applies to the
scenarios whose library sets it (or the key it is ``like``), or to all if
none does.  ``schema_markdown`` renders the schema shipped under docs/.

A key that sets a library keyword takes that keyword's default, read once
at import: a scenario section's key the factory keyword of its name,
``verify.<field>`` the ``VerifyTolerances`` field and ``verify.audit_*``
the ``dominance_audit`` keyword.  Only the other keys state their own.  A
key's type is its default's in each scenario: a float, an int, a bool, a
str or n floats.  ``load_text`` checks types, choices and the rules of the
keys that set neither a scenario keyword nor a ``VerifyTolerances`` field;
``build`` leaves every other value rule to the library and names the key
of the keyword or field a ValueError starts with.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import re
from dataclasses import dataclass, fields
from typing import Callable, Optional

from . import scenarios
from .verify import VerifyTolerances, dominance_audit

__all__ = [
    "ConfigError",
    "RunConfig",
    "SCHEMA",
    "build",
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


def _nonempty(v):
    return None if v else "must not be empty"


@dataclass(frozen=True)
class Key:
    """One schema entry; the scenarios it applies to are derived (_APPLIES_TO)."""

    name: str
    doc: str
    # own default (None: unset); a key that sets a library keyword has none
    default: object = None
    required: bool = False
    choices: Optional[tuple] = None
    check: Optional[Callable] = None  # value rule the library does not own
    like: Optional[str] = None  # the key that gives this key's type and scenarios


SCHEMA = (
    Key("scenario.id", "registered scenario to run", required=True,
        choices=scenarios.SCENARIO_IDS),
    Key("run.seed", "seed recorded with the run and used by sweeps", default=0,
        check=_nonneg),
    Key("run.out", "run-registry root directory", default="runs", check=_nonempty),
    Key("integrator.T", "horizon, seconds"),
    Key("integrator.h", "fixed integration step, seconds"),
    Key("integrator.decimation", "record every this many steps (must divide T/h)"),
    Key("design.sign_flip", "sabotage toggle: flip the sign of the applied input "
        "(negative controls only)", default=False),
    Key("verify.tol_x", "tail sup-norm threshold on the state"),
    Key("verify.tol_k", "gain settling threshold over the tail"),
    Key("verify.tail_frac", "fraction of the horizon treated as the tail window"),
    Key("verify.z_tail", "allowed tail increment of each squared-error integral"),
    Key("verify.energy_slack", "slack in gamma_i * int z_i^2 <= k_i(T) - k_i(0)"),
    Key("verify.budget_slack", "absolute slack of the energy-budget monitor"),
    Key("verify.k_monotone", "tolerated per-sample gain decrease"),
    Key("verify.audit_samples", "sample count for the stage-dominance audit",
        check=_positive),
    Key("verify.audit_seed", "seed of the dominance audit", check=_nonneg),
    # two-state numeric benchmark
    Key("design.mode", "gain-shape source: the benchmark's closed forms or "
        "constructive synthesis", choices=scenarios.MODES),
    Key("design.mu", "per-stage control weights mu_i"),
    Key("design.gamma", "per-stage adaptation rates"),
    Key("design.k0", "initial adaptive gains"),
    Key("design.deadzone", "freeze adaptation while |z_i| is below this"),
    Key("design.smoothing", "smooth-absolute-value width used inside synthesized shapes"),
    Key("init.x0", "initial plant state"),
    Key("uncertainty.theta", "constant uncertainty vector of the run"),
    Key("uncertainty.box_lo", "lower edge of the declared uncertainty box (defaults "
        "to theta)", like="uncertainty.theta"),
    Key("uncertainty.box_hi", "upper edge of the declared uncertainty box (defaults "
        "to theta)", like="uncertainty.theta"),
    Key("sweep.x0_lo", "lower corner of the initial-state box sampled by the sweep",
        default=(-3.0, -3.0), like="init.x0"),
    Key("sweep.x0_hi", "upper corner of the initial-state box sampled by the sweep",
        default=(3.0, 3.0), like="init.x0"),
    # missile roll channel
    Key("init.roll_deg", "initial roll angle, degrees"),
    Key("init.rate", "initial roll rate, rad/s"),
    Key("init.defl", "initial aileron deflection, rad"),
    Key("design.k1", "fixed first-stage gain"),
    Key("design.mu2", "second-stage control weight"),
    Key("design.mu3", "third-stage control weight"),
    Key("design.gamma2", "second-stage adaptation rate"),
    Key("design.gamma3", "third-stage adaptation rate"),
    Key("design.k20", "initial second-stage gain"),
    Key("design.k30", "initial third-stage gain"),
    Key("design.epsilon", "completion-of-squares constant (needs k1 - 3 epsilon / 4 > 0)"),
    Key("missile.s", "reference area, m^2"),
    Key("missile.l", "reference length, m"),
    Key("missile.jx", "roll inertia, kg m^2"),
    Key("missile.tau_a", "actuator time constant, s"),
    Key("missile.rho_air", "air density, kg/m^3"),
    Key("missile.v_mean", "mean airspeed, m/s"),
    Key("missile.v_amp", "relative airspeed ripple amplitude"),
    Key("missile.v_freq", "airspeed ripple frequency, rad/s"),
    Key("missile.mx_mean", "mean roll-moment slope, 1/rad"),
    Key("missile.mx_amp", "relative roll-moment-slope ripple amplitude"),
    Key("missile.mx_freq", "roll-moment-slope ripple frequency, rad/s"),
    Key("missile.xi_const", "constant deflection weight xi used inside psi3"),
)

_BY_NAME = {k.name: k for k in SCHEMA}

# sections whose keys are the scenario factories' keywords
SCENARIO_SECTIONS = ("integrator", "design", "init", "uncertainty", "missile")
# (key path, factory keyword) of every key in those sections
_KEYWORDS = tuple(
    (k.name, k.name.partition(".")[2])
    for k in SCHEMA if k.name.partition(".")[0] in SCENARIO_SECTIONS
)
# (key path, field) of every verify.* key that sets a VerifyTolerances field
_TOLERANCES = tuple(("verify." + f.name, f.name) for f in fields(VerifyTolerances))


def _library(sid):
    """The library defaults of scenario sid by key path: a prefix below plus
    a keyword's name."""
    sources = [(section + ".", scenarios.SCENARIOS[sid])
               for section in SCENARIO_SECTIONS]
    sources += [("verify.", VerifyTolerances), ("verify.audit_", dominance_audit)]
    return {
        prefix + p.name: p.default
        for prefix, source in sources
        for p in inspect.signature(source).parameters.values()
        if p.default is not p.empty
    }


_LIBRARY = {sid: _library(sid) for sid in scenarios.SCENARIO_IDS}
# the scenarios whose library sets each key, or the key it is like; a key
# no library sets applies to every scenario
_APPLIES_TO = {k.name: tuple(sid for sid, lib in _LIBRARY.items()
                             if (k.like or k.name) in lib) or scenarios.SCENARIO_IDS
               for k in SCHEMA}
# per scenario, the default of each optional key that applies to it
_DEFAULTS = {sid: {k.name: lib.get(k.name, k.default) for k in SCHEMA
                   if sid in _APPLIES_TO[k.name] and not k.required}
             for sid, lib in _LIBRARY.items()}
# per scenario, a value of each key's type: its default, or if it has none
# the default of the key it is like
_TYPES = {sid: {name: d[_BY_NAME[name].like] if v is None else v for name, v in d.items()}
          for sid, d in _DEFAULTS.items()}


def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _coerce(name, like, text):
    """text as a value of the type of like."""
    text = text.strip()
    try:
        if isinstance(like, float):
            return _finite(text)
        if isinstance(like, bool):  # before int: a bool is an int
            low = text.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError("not a boolean")
        if isinstance(like, int):
            return int(text)
        if isinstance(like, tuple):
            vals = tuple(_finite(p) for p in text.split(","))
            if len(vals) != len(like):
                raise ValueError("expected %d comma-separated values" % len(like))
            return vals
        return text
    except ValueError as exc:
        raise ConfigError("%s: %s (got %r)" % (name, exc, text)) from None


def _render(value):
    """The canonical text of a value of its key's type."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return value if isinstance(value, str) else repr(value)


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
    """Parse config text into a RunConfig, checking each value's type.

    overrides maps key paths to raw string values applied on top of the
    file (CLI flags); they go through the same checks.  The value rules of
    the scenario keywords and the tolerances are the library's: ``build``
    checks them.
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
    types = _TYPES[sid]
    values = {"scenario.id": sid}
    for name, text_value in raw.items():
        if name == "scenario.id":
            continue
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError("unknown key %r" % name)
        if sid not in _APPLIES_TO[name]:
            raise ConfigError(
                "%s: not a setting of scenario %r (it belongs to %s)"
                % (name, sid, ", ".join(map(repr, _APPLIES_TO[name])))
            )
        values[name] = _coerce(name, types[name], text_value)
    for name, default in _DEFAULTS[sid].items():
        values.setdefault(name, default)
    for name, value in values.items():
        key = _BY_NAME[name]
        if key.choices is not None and value not in key.choices:
            raise ConfigError(
                "%s: %r is not one of %s" % (name, value, ", ".join(key.choices))
            )
        if key.check is not None:
            problem = key.check(value)
            if problem:
                raise ConfigError("%s: %s (got %r)" % (name, problem, value))
    lo, hi = values.get("sweep.x0_lo"), values.get("sweep.x0_hi")
    if lo is not None and not all(a <= b for a, b in zip(lo, hi)):
        raise ConfigError("sweep.x0_lo / sweep.x0_hi: each lower corner component must "
                          "be <= its upper one (got %r, %r)" % (lo, hi))
    lines = []
    for name in sorted(values):
        if values[name] is None or name == "run.out":
            # the registry location does not change what ran
            continue
        lines.append("%s = %s" % (name, _render(values[name])))
    canonical = "\n".join(lines) + "\n"
    sha = hashlib.sha256(canonical.encode()).hexdigest()
    return RunConfig(sid=sid, values=values, canonical=canonical, sha256=sha)


def build(cfg):
    """The scenario of cfg, from ``scenarios.build``.

    Every value rule of a scenario keyword or a ``VerifyTolerances`` field
    is checked here, by the library: its ValueError, which starts with the
    keyword or field it rejects, becomes a ConfigError that names its key.
    ``theta_box`` is named by the box edges the config sets, or by
    uncertainty.theta, which each unset edge defaults to.
    """
    try:
        cfg.tolerances()
        return scenarios.build(cfg.sid, **cfg.scenario_overrides())
    except ValueError as exc:
        keyword = re.match(r"\w*", str(exc)).group()
        if keyword == "theta_box":
            names = [name for name in ("uncertainty.box_lo", "uncertainty.box_hi")
                     if cfg.values[name] is not None] or ["uncertainty.theta"]
        else:
            names = [name for name, kw in _KEYWORDS + _TOLERANCES
                     if kw == keyword and name in cfg.values]
        raise ConfigError("%s: %s" % (" / ".join(names), exc) if names else str(exc)) from None


def load_file(path, overrides=None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's own text names the file again
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError("cannot read config %s: %s" % (path, reason)) from None
    return load_text(text, overrides=overrides)


def _per_scenario(texts):
    """The one text of every scenario, or each scenario's where they differ."""
    if len(set(texts.values())) > 1:
        return "; ".join("%s: %s" % item for item in texts.items())
    (text,) = set(texts.values())
    return text


def schema_markdown():
    """Render the documented schema (shipped under docs/)."""
    out = [
        "# Run configuration schema",
        "",
        "Format: one `section.key = value` per line; `#` starts a comment",
        "line; blank lines are ignored.  Float lists are comma separated.",
        "Unknown keys are rejected.  Keys marked with a scenario apply only",
        "when `scenario.id` selects it.  Types are checked when a config is",
        "loaded (a key's type is that of its default), value rules when its",
        "scenario is built, both before anything runs.  A run may take at",
        "most %d integration steps (`integrator.T / integrator.h`)."
        % scenarios.STEP_BUDGET,
        "",
        "| key | type | default | applies to | description |",
        "|---|---|---|---|---|",
    ]
    for key in SCHEMA:
        scens = _APPLIES_TO[key.name]
        if key.required:
            default = "(required)"
        else:
            default = _per_scenario({
                sid: "(unset)" if _DEFAULTS[sid][key.name] is None
                else _render(_DEFAULTS[sid][key.name]) for sid in scens})
        if key.choices:
            typ = " \\| ".join(key.choices)
        else:
            likes = {sid: _TYPES[sid][key.name] for sid in scens}
            typ = _per_scenario({sid: "%d floats" % len(t) if isinstance(t, tuple)
                                 else type(t).__name__ for sid, t in likes.items()})
        applies = "all" if scens == scenarios.SCENARIO_IDS else ", ".join(scens)
        out.append("| `%s` | %s | %s | %s | %s |" % (key.name, typ, default, applies, key.doc))
    out.append("")
    return "\n".join(out)
