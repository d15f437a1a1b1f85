"""The benchmark workloads: inputs made from a seed, one timed pass, checks.

Every pass calls the public functions of the purefb modules through their
module attributes (``verify.monte_carlo``, ``cli.main``, ...), so the
wrappers that ``probes`` installs on those names see each call.

sweep-paper
    ``verify.monte_carlo`` over the numeric-2d sweep box and uncertainty box
    in paper mode, one worker.  Loads the RK4 stepper and the hand-flattened
    paper rhs; the dual-number tower does no work.
auto-verify
    The library equivalent of ``purefb verify --config numeric-2d.cfg
    --mode auto`` with a seeded x0: build, run, ``check_theorem1``,
    ``lyapunov_budget`` and a stage-2 ``dominance_audit``.  Loads
    ``ControllerStack.evaluate`` through ``autodiff`` on every rhs call.
missile-registry
    ``cli.main run`` then ``cli.main verify <run-id>`` for stt-missile
    configs recorded at full resolution, one of them a sign-flipped
    negative control.  Loads config, cli, runstore, CSV I/O and svgplot.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

WORKLOADS = ("sweep-paper", "auto-verify", "missile-registry")

# the seed a run uses when none is given; expected.json holds the digests
# of the outputs at these seeds
DEFAULT_SEED = {"sweep-paper": 2026, "auto-verify": 11, "missile-registry": 5}

SIZES = {
    # sweep_T: at T = 20 s about 1 % of draws from the sweep and
    # uncertainty boxes fail the state-tail check of check_theorem1, at 35 s
    # a few near x0 = (0.3, -0.1) still do; none of ~900 draws (340 of them
    # near that point) failed at 40 s
    "full": {
        "sweep_runs": 32,
        "sweep_T": 40.0,
        "auto_T": 100.0,
        "audit_samples": 10000,
        "missile_configs": 4,
        "setup_reps": 15,
    },
    "tiny": {
        "sweep_runs": 2,
        "sweep_T": 40.0,
        "auto_T": 20.0,
        "audit_samples": 200,
        "missile_configs": 2,
        "setup_reps": 3,
    },
}

N2_CONFIG = os.path.join("configs", "numeric-2d.cfg")
MS_CONFIG = os.path.join("configs", "stt-missile.cfg")

EXIT_OK = 0
EXIT_DIVERGED = 3


def csv_digest(trajectories, scratch):
    """SHA-256 over the trajectory.csv bytes the program writes, in order."""
    digest = hashlib.sha256()
    path = os.path.join(scratch, "digest.csv")
    for traj in trajectories:
        traj.write_csv(path)
        with open(path, "rb") as fh:
            digest.update(fh.read())
    os.remove(path)
    return digest.hexdigest()


def csv_matches(path, traj):
    """True when the stored CSV parses back, exactly, to the trajectory.

    Parsed here with float() per cell rather than with the program's own
    reader, so a fault shared by writer and reader still shows.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    if tuple(header) != tuple(traj.columns):
        return False
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return data.shape == traj.data.shape and bool(np.array_equal(data, traj.data))


def run_steps(traj):
    """RK4 steps a recorded run completed (up to its failure point)."""
    t_end = traj.failure.t if traj.diverged and traj.failure is not None else traj.t[-1]
    return int(round(t_end / traj.h))


class Pass:
    """Outcome of one pass: operations attempted, failures, wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # operations that raised or failed a check
        self.wrong = []  # outputs that a check found incorrect
        self.digests = {}
        self.extra = {}

    def op(self, name, ok, detail=""):
        """An operation whose output was checked; a failed check is a wrong output."""
        self.attempted += 1
        if not ok:
            self.failures.append({"op": name, "detail": detail})
            self.wrong.append("%s: %s" % (name, detail))

    def raised(self, name, exc):
        """An operation that raised: failed, with no output to check."""
        self.attempted += 1
        self.failures.append(
            {"op": name, "detail": "raised %s: %s" % (type(exc).__name__, exc)}
        )


# -- sweep-paper -----------------------------------------------------------


class SweepPaper:
    name = "sweep-paper"

    def __init__(self, mods, root, seed, size, scratch):
        self.path = os.path.join(root, N2_CONFIG)
        self.seed = seed
        self.size = size
        self.config_overrides = {"integrator.T": repr(size["sweep_T"])}

    def setup_once(self, mods):
        cfg = mods["config"].load_file(self.path, overrides=self.config_overrides)
        return mods["scenarios"].build(cfg.sid, **cfg.scenario_overrides())

    def run(self, mods, tracer, tick):
        config, verify = mods["config"], mods["verify"]
        out = Pass()
        # mirrors `purefb montecarlo` with a one-worker sweep
        cfg = config.load_file(self.path, overrides=self.config_overrides)
        over = cfg.scenario_overrides()
        x0_box = tuple(zip(cfg["sweep.x0_lo"], cfg["sweep.x0_hi"]))
        overrides = {key: over[key] for key in
                     ("mode", "mu", "gamma", "k0", "deadzone", "smoothing",
                      "sign", "T", "h", "decimation")}
        overrides["theta_box"] = over["theta_box"]
        report = verify.monte_carlo(
            cfg.sid, self.size["sweep_runs"], self.seed,
            x0_box=x0_box, theta_box=over["theta_box"],
            overrides=overrides, tol=cfg.tolerances(), workers=1,
        )
        out.extra["report"] = report
        return out

    def check(self, out, runs, scratch):
        """runs: the trajectories Scenario.run returned during the pass."""
        report = out.extra.pop("report")
        for idx, res in enumerate(report.results):
            out.op("sweep run %d" % idx, res["passed"] and not res["diverged"],
                   "failed %s" % res["failed"])
        if len(runs) != report.runs:
            out.wrong.append("sweep made %d runs, expected %d" % (len(runs), report.runs))
        text = json.dumps(report.to_dict(), sort_keys=True)
        out.digests["report"] = hashlib.sha256(text.encode()).hexdigest()
        out.digests["csv"] = csv_digest(runs, scratch)


# -- auto-verify -----------------------------------------------------------


class AutoVerify:
    name = "auto-verify"

    # x0 box: in the corners of the +-3 sweep box (|x1| > 2.4 and
    # |x2| > 2.6, 24 of 1500 draws) the auto-mode loop is too stiff for
    # h = 1e-3 and the run diverges at the first step
    X0_BOX = ((-2.0, 2.0), (-2.0, 2.0))

    def __init__(self, mods, root, seed, size, scratch):
        self.path = os.path.join(root, N2_CONFIG)
        self.seed = seed
        self.size = size
        rng = np.random.default_rng(seed)
        x0 = [float(rng.uniform(lo, hi)) for lo, hi in self.X0_BOX]
        self.config_overrides = {
            "design.mode": "auto",
            "init.x0": ", ".join(repr(v) for v in x0),
            "integrator.T": repr(size["auto_T"]),
        }

    def setup_once(self, mods):
        cfg = mods["config"].load_file(self.path, overrides=self.config_overrides)
        return mods["scenarios"].build(cfg.sid, **cfg.scenario_overrides())

    def run(self, mods, tracer, tick):
        config, scenarios, verify = mods["config"], mods["scenarios"], mods["verify"]
        out = Pass()
        cfg = config.load_file(self.path, overrides=self.config_overrides)
        scn = scenarios.build(cfg.sid, **cfg.scenario_overrides())
        traj = scn.run(seed=cfg.seed)
        out.op("run", not traj.diverged, "diverged at %s" % (traj.failure,))
        inv = verify.check_theorem1(traj, tol=cfg.tolerances())
        out.op("check_theorem1", inv.passed, "failed %s" % inv.failed_names())
        budget = verify.lyapunov_budget(traj, scn.oracle, slack=cfg["verify.budget_slack"])
        out.op("lyapunov_budget", budget.applicable and budget.passed,
               "min slack %r" % budget.min_slack)
        audit = verify.dominance_audit(
            scn.stack, scn.bounds, scn.oracle, stage=scn.n,
            samples=self.size["audit_samples"], seed=self.seed,
            theta_box=scn.theta.box,
        )
        out.op("dominance_audit", audit.passed and audit.samples == self.size["audit_samples"],
               "%d violations" % audit.violations)
        out.extra["audit_samples"] = audit.samples
        return out

    def check(self, out, runs, scratch):
        out.digests["csv"] = csv_digest(runs, scratch)


# -- missile-registry ------------------------------------------------------


def _config_text(base, values):
    """base config text with the keys in values set (replaced or appended)."""
    lines = []
    for line in base.splitlines():
        key = line.partition("=")[0].strip()
        if "=" in line and key in values:
            continue
        lines.append(line)
    lines += ["%s = %s" % item for item in values.items()]
    return "\n".join(lines) + "\n"


class MissileRegistry:
    name = "missile-registry"

    def __init__(self, mods, root, seed, size, scratch):
        with open(os.path.join(root, MS_CONFIG)) as fh:
            base = fh.read()
        rng = np.random.default_rng(seed)
        self.configs = []  # (name, path, negative control)
        os.makedirs(os.path.join(scratch, "configs"), exist_ok=True)
        for idx in range(size["missile_configs"]):
            control = idx == size["missile_configs"] - 1
            # |roll| >= 2 deg keeps the negative control off the equilibrium
            roll = float(rng.uniform(2.0, 20.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            values = {"integrator.decimation": "1", "init.roll_deg": repr(roll)}
            if control:
                values["design.sign_flip"] = "true"
            name = "control" if control else "nominal-%d" % idx
            path = os.path.join(scratch, "configs", name + ".cfg")
            with open(path, "w") as fh:
                fh.write(_config_text(base, values))
            self.configs.append((name, path, control))
        # the id a user reads off `purefb run`: the hash of the canonical config
        self.run_ids = [mods["config"].load_file(path).run_id for _, path, _ in self.configs]
        self.out_dir = os.path.join(scratch, "runs")

    def setup_once(self, mods):
        cfg = mods["config"].load_file(self.configs[0][1])
        return mods["scenarios"].build(cfg.sid, **cfg.scenario_overrides())

    def run(self, mods, tracer, tick):
        cli = mods["cli"]
        out = Pass()
        shutil.rmtree(self.out_dir, ignore_errors=True)

        def main(command, argv):
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    return tracer.span("cli.main." + command, cli.main, argv)
            finally:
                tick()

        for (name, path, control), run_id in zip(self.configs, self.run_ids):
            want = EXIT_DIVERGED if control else EXIT_OK
            for command, argv in (
                ("run", ["run", "--config", path, "--out", self.out_dir]),
                ("verify", ["verify", run_id, "--out", self.out_dir]),
            ):
                op = "%s %s" % (command, name)
                try:
                    code = main(command, argv)
                except Exception as exc:  # an operation that raises is counted, not fatal
                    out.raised(op, exc)
                    continue
                out.op(op, code == want, "exit %r, expected %d" % (code, want))
        return out

    def check(self, out, runs, scratch):
        if len(runs) != len(self.configs):
            out.wrong.append("%d runs integrated, expected %d" % (len(runs), len(self.configs)))
            return
        digest = hashlib.sha256()
        for (name, _, _), run_id, traj in zip(self.configs, self.run_ids, runs):
            path = os.path.join(self.out_dir, run_id, "trajectory.csv")
            if not os.path.isfile(path):
                out.wrong.append("%s: no stored trajectory.csv" % name)
                continue
            if not csv_matches(path, traj):
                out.wrong.append("%s: stored trajectory.csv differs from the run" % name)
            with open(path, "rb") as fh:
                digest.update(fh.read())
        out.digests["csv"] = digest.hexdigest()
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOAD_CLASSES = {cls.name: cls for cls in (SweepPaper, AutoVerify, MissileRegistry)}


def make(name, mods, root, seed, size, scratch):
    return WORKLOAD_CLASSES[name](mods, root, seed, SIZES[size], scratch)
