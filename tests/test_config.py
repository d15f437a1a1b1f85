"""Config parsing, schema validation, canonical hashing."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purefb import cli, config, runstore, scenarios
from purefb.config import (
    SCHEMA,
    ConfigError,
    build,
    load_file,
    load_text,
    schema_markdown,
)

MINIMAL = "scenario.id = numeric-2d\n"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_defaults_fill_in_per_scenario():
    cfg = load_text(MINIMAL)
    assert cfg.sid == "numeric-2d"
    assert cfg["integrator.T"] == 100.0
    assert cfg["integrator.decimation"] == 100
    assert cfg["design.mode"] == "paper"
    missile = load_text("scenario.id = stt-missile\n")
    assert missile["integrator.T"] == 20.0
    assert missile["integrator.decimation"] == 20


# run ids of the all-default and the bundled configs, recorded before the
# schema read its defaults from the library keywords they set
RUN_IDS = {
    "numeric-2d": "900d61dc4049",
    "stt-missile": "d972a2aeea81",
    "configs/numeric-2d.cfg": "3bbeeed406d0",
    "configs/stt-missile.cfg": "a805d1d88d7b",
}


@pytest.mark.parametrize("name", list(RUN_IDS))
def test_run_ids_are_pinned(name):
    if name.startswith("configs/"):
        cfg = load_file(os.path.join(REPO, name))
    else:
        cfg = load_text("scenario.id = %s\n" % name)
    assert cfg.run_id == RUN_IDS[name]


def test_only_keys_that_set_no_library_keyword_state_a_default():
    own = {k.name for k in SCHEMA if k.default is not None}
    assert own == {"run.seed", "run.out", "design.sign_flip",
                   "sweep.x0_lo", "sweep.x0_hi"}
    # every other optional key but the uncertainty box edges is filled in
    # from the library
    for sid, defaults in config._DEFAULTS.items():
        unset = {name for name, value in defaults.items() if value is None}
        assert unset == ({"uncertainty.box_lo", "uncertainty.box_hi"}
                         if sid == "numeric-2d" else set()), sid


def test_hash_ignores_key_order_and_float_spelling():
    a = load_text("scenario.id = numeric-2d\ndesign.mu = 0.2, 0.2\nrun.seed = 3\n")
    b = load_text("run.seed = 3\nscenario.id = numeric-2d\ndesign.mu = 2e-1,0.20\n")
    assert a.sha256 == b.sha256
    assert a.run_id == b.run_id
    assert len(a.run_id) == 12


def test_hash_is_sensitive_to_values():
    a = load_text(MINIMAL)
    b = load_text("scenario.id = numeric-2d\nrun.seed = 1\n")
    assert a.sha256 != b.sha256


def test_registry_location_does_not_change_identity():
    a = load_text(MINIMAL)
    b = load_text("scenario.id = numeric-2d\nrun.out = elsewhere\n")
    assert a.sha256 == b.sha256
    assert "run.out" not in a.canonical


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="bogus.key"):
        load_text(MINIMAL + "bogus.key = 1\n")


def test_foreign_scenario_key_rejected():
    with pytest.raises(ConfigError, match="missile.s"):
        load_text(MINIMAL + "missile.s = 0.42\n")
    with pytest.raises(ConfigError, match="design.mode"):
        load_text("scenario.id = stt-missile\ndesign.mode = auto\n")


def test_scenario_id_required_and_validated():
    with pytest.raises(ConfigError, match="required"):
        load_text("run.seed = 1\n")
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_text("scenario.id = pendulum\n")


def test_line_level_errors():
    with pytest.raises(ConfigError, match="line 2"):
        load_text(MINIMAL + "not a setting\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_text(MINIMAL + "run.seed = 1\nrun.seed = 2\n")
    with pytest.raises(ConfigError, match="^line 2: empty key$"):
        load_text(MINIMAL + "= 1\n")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="run.seed"):
        load_text(MINIMAL + "run.seed = soon\n")
    with pytest.raises(ConfigError, match="design.mu"):
        load_text(MINIMAL + "design.mu = 0.2\n")  # needs two components
    with pytest.raises(ConfigError, match="design.sign_flip"):
        load_text(MINIMAL + "design.sign_flip = maybe\n")


def test_schema_checks_run_before_any_simulation():
    with pytest.raises(ConfigError, match="^design.mu: mu"):
        build(load_text(MINIMAL + "design.mu = -1.0, 0.2\n"))
    with pytest.raises(ConfigError, match="^integrator.h: h"):
        build(load_text(MINIMAL + "integrator.h = 0.0\n"))
    with pytest.raises(ConfigError, match="^verify.tail_frac"):
        build(load_text(MINIMAL + "verify.tail_frac = 0.9\n"))


def test_factory_keys_take_their_type_from_the_keyword():
    """A key's type is its default's: a float, an int, a bool, a str or n floats."""
    for sid, types in config._TYPES.items():
        for name, like in types.items():
            assert type(like) in (float, int, bool, str, tuple), (sid, name)
            if isinstance(like, tuple):
                assert all(type(v) is float for v in like), (sid, name)
    n2 = config._TYPES["numeric-2d"]
    assert {name for name, like in n2.items() if isinstance(like, tuple)} == {
        "design.mu", "design.gamma", "design.k0", "init.x0", "uncertainty.theta",
        "uncertainty.box_lo", "uncertainty.box_hi", "sweep.x0_lo", "sweep.x0_hi"}
    assert n2["uncertainty.box_lo"] == n2["uncertainty.theta"] == (1.0, 2.0)
    assert type(config._TYPES["stt-missile"]["integrator.decimation"]) is int
    assert type(n2["design.mode"]) is str


def test_comments_and_blank_lines_ignored():
    cfg = load_text("# leading note\n\nscenario.id = numeric-2d\n# tail\n")
    assert cfg.sid == "numeric-2d"


def test_overrides_go_through_validation():
    cfg = load_text(MINIMAL, overrides={"design.mode": "auto"})
    assert cfg["design.mode"] == "auto"
    with pytest.raises(ConfigError, match="design.mode"):
        load_text(MINIMAL, overrides={"design.mode": "wild"})


def test_scenario_overrides_mapping():
    cfg = load_text(
        MINIMAL
        + "uncertainty.box_lo = 0.8, 1.6\n"
        + "uncertainty.box_hi = 1.2, 2.4\n"
        + "design.sign_flip = true\n"
    )
    over = cfg.scenario_overrides()
    assert over["theta_box"] == ((0.8, 1.2), (1.6, 2.4))
    assert over["sign"] == -1.0
    assert over["T"] == 100.0
    assert over["mode"] == "paper"


def test_uncertainty_box_defaults_to_theta():
    over = load_text(MINIMAL).scenario_overrides()
    assert over["theta_box"] == ((1.0, 1.0), (2.0, 2.0))


@pytest.mark.parametrize("lines,keys", [
    ("uncertainty.box_lo = 0.0, 1.0\nuncertainty.box_hi = 1.2, 2.4\n",
     "uncertainty.box_lo / uncertainty.box_hi"),
    ("uncertainty.box_hi = 1.2, 2.4\nuncertainty.theta = -1.0, 2.0\n"
     "uncertainty.box_lo = -1.0, 2.0\n", "uncertainty.box_lo / uncertainty.box_hi"),
    ("uncertainty.theta = 0.0, 2.0\n", "uncertainty.theta"),
], ids=["both-edges", "edges-beside-theta", "theta"])
def test_a_box_edge_that_is_not_positive_names_its_keys(lines, keys):
    with pytest.raises(ConfigError, match=r"^%s: theta_box\[1\] must be a positive" % keys):
        build(load_text(MINIMAL + lines))


def test_tolerances_mapping():
    cfg = load_text(MINIMAL + "verify.tol_x = 0.5\n")
    tol = cfg.tolerances()
    assert tol.tol_x == 0.5
    assert tol.tol_k == 1e-3


def test_missile_overrides_mapping():
    cfg = load_text("scenario.id = stt-missile\ndesign.k1 = 6.0\n")
    over = cfg.scenario_overrides()
    assert over["k1"] == 6.0
    assert over["tau_a"] == 0.01
    assert over["T"] == 20.0


def test_load_file_missing(tmp_path):
    path = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError, match="cannot read") as info:
        load_file(path)
    assert str(info.value).count(str(path)) == 1, info.value


def test_load_file_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"scenario.id = numeric-2d\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot read config .*latin1.cfg: 'utf-8'"):
        load_file(path)


def test_bundled_configs_validate():
    paper = load_file(os.path.join(REPO, "configs", "numeric-2d.cfg"))
    assert paper.sid == "numeric-2d"
    missile = load_file(os.path.join(REPO, "configs", "stt-missile.cfg"))
    assert missile.sid == "stt-missile"
    assert missile["verify.tol_x"] == 0.00175


def test_schema_doc_covers_every_key():
    doc = schema_markdown()
    for key in SCHEMA:
        assert "`%s`" % key.name in doc, key.name
        assert key.doc  # every entry carries a description
    with open(os.path.join(REPO, "docs", "config-schema.md")) as fh:
        assert fh.read() == doc


# (lo, hi, open at lo, open at hi) of the numbers drawn for each key; every
# value in the range passes the key's rules, and a key not named here draws
# from ANY
ANY = (-1e3, 1e3, False, False)
POSITIVE = (0.0, 1e3, True, False)
NONNEG = (0.0, 1e3, False, False)
RANGES = {
    **dict.fromkeys([
        "integrator.T", "integrator.h", "integrator.decimation", "verify.tol_x",
        "verify.tol_k", "verify.z_tail", "verify.energy_slack", "verify.budget_slack",
        "verify.audit_samples", "design.mu", "design.gamma", "design.k0",
        "design.smoothing", "design.k1", "design.mu2", "design.mu3", "design.gamma2",
        "design.gamma3", "design.k20", "design.k30", "design.epsilon", "missile.s",
        "missile.l", "missile.jx", "missile.tau_a", "missile.rho_air",
        "missile.v_mean", "missile.mx_mean", "missile.xi_const"], POSITIVE),
    **dict.fromkeys([
        "run.seed", "verify.k_monotone", "verify.audit_seed", "design.deadzone",
        "missile.v_freq", "missile.mx_freq"], NONNEG),
    "verify.tail_frac": (0.0, 0.5, True, False),
    # every corner component drawn lies on its side of 0, and so of the
    # other corner, whether that one is drawn or the default
    "sweep.x0_lo": (-1e3, 0.0, False, False),
    "sweep.x0_hi": NONNEG,
    "missile.v_amp": (0.0, 1.0, False, True),
    "missile.mx_amp": (0.0, 1.0, False, True),
}
BOOL_SPELLINGS = ("true", "yes", "on", "1", "True", "false", "no", "off", "0", "OFF")


def value_text(sid, key):
    """Strategy for the text of one value of key that passes its rules."""
    like = config._TYPES[sid][key.name]
    lo, hi, open_lo, open_hi = RANGES.get(key.name, ANY)
    if key.choices:
        return st.sampled_from(key.choices)
    if isinstance(like, bool):
        return st.sampled_from(BOOL_SPELLINGS)
    if isinstance(like, str):
        return st.text(alphabet="abxyz_/", min_size=1, max_size=8)
    if isinstance(like, int):
        return st.integers(min_value=int(lo) + open_lo, max_value=10**6).map(str)
    number = st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi)
    spelled = number.map(lambda v: "%.17g" % v)
    if isinstance(like, float):
        return spelled
    return st.lists(spelled, min_size=len(like), max_size=len(like)).map(",".join)


# values of the keys that set what a run costs, each small enough for a
# run of a few steps and a short audit
SHORT_RUN = {
    "integrator.T": st.sampled_from(["0.01", "0.02", "0.05"]),
    "integrator.h": st.sampled_from(["0.001", "0.002", "0.005", "0.01", "0.03"]),
    "integrator.decimation": st.integers(1, 6).map(str),
    "verify.audit_samples": st.integers(1, 64).map(str),
}


@st.composite
def config_texts(draw, short=False):
    """A config of either scenario: a random subset of its keys, any order.

    When short, every key of SHORT_RUN is set, to one of its values.
    """
    sid = draw(st.sampled_from(scenarios.SCENARIO_IDS))
    keys = [k for k in SCHEMA if k.name != "scenario.id" and sid in config._APPLIES_TO[k.name]]
    chosen = draw(st.lists(st.sampled_from(keys), unique_by=lambda k: k.name))
    if short:
        chosen = [k for k in chosen if k.name not in SHORT_RUN]
        chosen += [k for k in keys if k.name in SHORT_RUN]
    lines = ["scenario.id = %s" % sid]
    lines += ["%s = %s" % (k.name, draw(SHORT_RUN[k.name] if short and k.name in SHORT_RUN
                                        else value_text(sid, k)))
              for k in chosen]
    return "\n".join(draw(st.permutations(lines))) + "\n"


def built(cfg):
    """What a stored run's loader takes from the scenario of cfg."""
    try:
        scn = build(cfg)
    except ConfigError as exc:  # e.g. theta outside its declared box
        return str(exc)
    return scn.meta, scn.recorder[0]


@settings(max_examples=100, deadline=None)
@given(text=config_texts())
def test_canonical_text_reparses_to_the_same_run(text):
    cfg = load_text(text)  # every value drawn has the right type
    again = load_text(cfg.canonical)
    assert (again.canonical, again.sha256) == (cfg.canonical, cfg.sha256)
    assert built(again) == built(cfg)


def refuse(token):
    raise ValueError("non-standard JSON token %s" % token)


def exits_without_internal_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv[0], code, err.getvalue())


@settings(max_examples=40, deadline=None)
@given(text=config_texts(short=True))
def test_a_valid_config_runs_or_exits_2(text):
    """A config the schema accepts runs (0, 1, 3) or exits 2, never 4.

    A stored run verifies and plots the same way, and so does a two-run
    sweep.  Every JSON file the commands write is RFC 8259 JSON: a strict
    parser reads it.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        runs = os.path.join(tmp, "runs")
        exits_without_internal_error(["run", "--config", path, "--out", runs])
        exits_without_internal_error(["verify", "--config", path])
        for rid in runstore.list_runs(runs):
            exits_without_internal_error(["verify", rid, "--out", runs])
            exits_without_internal_error(["plot", rid, "--out", runs])
        exits_without_internal_error(["montecarlo", "--config", path, "--out", runs,
                                      "--runs", "2"])
        for root, _, files in os.walk(tmp):
            for name in files:
                if name.endswith(".json"):
                    with open(os.path.join(root, name)) as fh:
                        json.load(fh, parse_constant=refuse)
