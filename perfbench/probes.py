"""Which purefb boundaries the benchmark wraps, and the metrics read off them.

Two sets of wrappers:

``install_timers``
    A few timers on calls made once per run or per command
    (``scenarios.build``, ``Scenario.run``, the monitors, the registry and
    the plots).  They are always on; the end-to-end metrics are read off
    them, and they cost microseconds per call on calls that take
    milliseconds to seconds.
``install_tracing``
    The per-layer spans and counters (RK4 step, rhs, controller sweep,
    dual-number arithmetic, CSV I/O, ...).  Installed only in the traced
    pass, whose wall time minus the untraced pass's is the tracing
    overhead.
"""

import os
import time

DUAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__pos__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)


MONITORS = ("check_theorem1", "lyapunov_budget", "dominance_audit")
PERSIST = ("runstore.save_run", "svgplot.plot", "runstore.load_run")


def _sizes(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


class Probes:
    """Installs the wrappers on one Tracer and collects per-run records."""

    def __init__(self, tracer, mods, speed):
        self.tracer = tracer
        self.mods = mods
        self.speed = speed  # samples the machine's speed between operations
        # (start, end, seconds, trajectory) of each Scenario.run and
        # (span name, start, end, seconds) of each timed call; seconds
        # leave out the speed samples taken inside
        self.runs = []
        self.intervals = []
        self.traced = False
        self._calls = 0

    def install_timers(self):
        tr = self.tracer
        m = self.mods
        scenarios = m["scenarios"]

        def built(start, dt, args, scn):
            if self.traced:
                self._trace_scenario(scn)
            names, row = scn.recorder
            scn.recorder = (names, self._sampling(row))

        def ran(start, dt, args, traj):
            self.runs.append((start, time.perf_counter(), dt, traj))
            self.speed.sample_if_due()

        def timed(name, after=None):
            """Span that also keeps each call's interval, then samples the speed if due."""
            def on_return(start, dt, args, result):
                self.intervals.append((name, start, time.perf_counter(), dt))
                if after is not None:
                    after(result)
                self.speed.sample_if_due()
            return lambda f: tr.wrap(name, f, on_return)

        tr.patch(scenarios, "build", lambda f: tr.wrap("scenarios.build", f, built))
        tr.patch(scenarios.Scenario, "run", lambda f: tr.wrap("scenarios.run", f, ran))
        tr.patch(m["config"], "load_file", lambda f: tr.wrap("config.load", f))
        for name in MONITORS:
            tr.patch(m["verify"], name, timed("verify." + name))
        tr.patch(m["runstore"], "save_run", timed("runstore.save_run", self._saved))
        tr.patch(m["runstore"], "load_run", timed("runstore.load_run"))
        tr.patch(m["svgplot"], "plot_trajectory", timed("svgplot.plot", self._plotted))
        # the audit reconstructs one state per sample
        tr.patch(m["backstep"].ControllerStack, "reconstruct", self._sampling)

    def install_tracing(self):
        self.traced = True
        tr = self.tracer
        m = self.mods
        tr.counts.update({"autodiff.dual_ops": 0, "autodiff.dual_ops_in_rhs": 0,
                          "runstore.bytes_written": 0, "svgplot.bytes_written": 0})
        tr.patch(m["simkit"], "rk4_step", lambda f: tr.wrap("simkit.rk4_step", f))
        tr.patch(m["scenarios"], "integrate", lambda f: tr.wrap("simkit.integrate", f))
        stack = m["backstep"].ControllerStack
        tr.patch(stack, "evaluate", lambda f: tr.wrap("backstep.evaluate", f))
        tr.patch(stack, "reconstruct", lambda f: tr.wrap("backstep.reconstruct", f))
        tr.patch(m["backstep"], "seed", lambda f: tr.counter("autodiff.seed", f))
        for op in DUAL_OPS:
            tr.patch(m["autodiff"].Dual, op, lambda f: tr.counter("autodiff.dual_ops", f))
        tr.patch(m["scenarios"], "missile_control", lambda f: tr.wrap("missile.control", f))
        tr.patch(m["scenarios"], "stt_dynamics", lambda f: tr.wrap("missile.dynamics", f))
        tr.patch(m["simkit"].Trajectory, "write_csv", lambda f: tr.wrap("simkit.write_csv", f))
        tr.patch(m["runstore"], "read_csv", lambda f: tr.wrap("simkit.read_csv", f))
        tr.patch(m["runstore"], "save_report", lambda f: tr.wrap("runstore.save_report", f, self._reported))
        tr.patch(m["verify"], "_mc_run", lambda f: tr.counter("verify.mc_runs", f))
        tr.patch(m["plant"].PlantSpec, "stage_rate", lambda f: tr.counter("plant.stage_rate", f))

    # -- hooks -------------------------------------------------------------

    def _sampling(self, fn):
        """fn that also samples the speed during long operations.

        Wraps calls made many times inside one run or audit (the recorder,
        ``ControllerStack.reconstruct``).  The clock is read on every 64th
        call only, so a run recorded at every step pays a counter increment
        per row.
        """
        speed = self.speed

        def sampling(*args):
            self._calls += 1
            if not self._calls & 63:
                speed.sample_if_due()
            return fn(*args)

        return sampling

    def _trace_scenario(self, scn):
        """Wrap the closures a freshly built scenario integrates with."""
        tr = self.tracer
        counts = tr.counts
        rhs = tr.wrap("scenarios.rhs", scn.rhs)

        def traced_rhs(t, y):
            before = counts["autodiff.dual_ops"]
            out = rhs(t, y)
            counts["autodiff.dual_ops_in_rhs"] += counts["autodiff.dual_ops"] - before
            return out

        scn.rhs = traced_rhs
        names, row = scn.recorder
        scn.recorder = (names, tr.wrap("scenarios.record", row))

    def _saved(self, paths):
        if self.traced:
            self.tracer.counts["runstore.bytes_written"] += _sizes(
                (paths.config, paths.trajectory, paths.summary))

    def _reported(self, start, dt, args, path):
        self.tracer.counts["runstore.bytes_written"] += _sizes((path,))

    def _plotted(self, written):
        if self.traced:
            self.tracer.counts["svgplot.bytes_written"] += _sizes(written)

    # -- metrics -----------------------------------------------------------

    def end_to_end(self):
        """Reference seconds per pass in the monitors, the registry and the plots.

        Each call is scaled by the speed sampled around it (see speed.py).
        """
        groups = {"verify_s": ["verify." + n for n in MONITORS],
                  "persist_s": list(PERSIST),
                  "audit_s": ["verify.dominance_audit"]}
        out = {}
        for key, names in groups.items():
            calls = [(start, end, dt) for name, start, end, dt in self.intervals if name in names]
            out[key] = sum(self.speed.reference_seconds(start, end) for start, end, _ in calls)
            out[key + "_raw"] = sum(dt for _, _, dt in calls)
        return out

    def per_layer(self, audit_samples):
        """The per-layer metrics of one traced pass: name -> (value, unit)."""
        tr = self.tracer
        c = tr.counts
        rhs_calls = tr.calls("scenarios.rhs")
        steps = tr.calls("simkit.rk4_step")
        out = {
            "simkit.rk4_steps": (steps, "count"),
            "simkit.step_self_us": (1e6 * tr.self_s("simkit.rk4_step") / steps if steps else 0.0, "us"),
            "scenarios.rhs_calls": (rhs_calls, "count"),
            "scenarios.rhs_us": (tr.per_call_us("scenarios.rhs"), "us"),
            "scenarios.build_s": (tr.total_s("scenarios.build"), "s"),
            "scenarios.record_us": (tr.per_call_us("scenarios.record"), "us"),
            "autodiff.dual_ops_per_rhs": (
                c["autodiff.dual_ops_in_rhs"] / rhs_calls if rhs_calls else 0.0, "count"),
            "autodiff.dual_ops": (c["autodiff.dual_ops"], "count"),
            "autodiff.seed_calls": (c.get("autodiff.seed", 0), "count"),
            "backstep.evaluate_calls": (tr.calls("backstep.evaluate"), "count"),
            "backstep.evaluate_us": (tr.per_call_us("backstep.evaluate"), "us"),
            "backstep.reconstruct_us": (tr.per_call_us("backstep.reconstruct"), "us"),
            "verify.audit_sample_us": (
                1e6 * tr.total_s("verify.dominance_audit") / audit_samples
                if audit_samples else 0.0, "us"),
            "missile.control_us": (tr.per_call_us("missile.control"), "us"),
            "missile.dynamics_us": (tr.per_call_us("missile.dynamics"), "us"),
            "simkit.write_csv_s": (tr.total_s("simkit.write_csv"), "s"),
            "simkit.read_csv_s": (tr.total_s("simkit.read_csv"), "s"),
            "runstore.save_run_s": (tr.total_s("runstore.save_run"), "s"),
            "runstore.load_run_s": (tr.total_s("runstore.load_run"), "s"),
            "runstore.bytes_written": (c["runstore.bytes_written"], "bytes"),
            "svgplot.plot_s": (tr.total_s("svgplot.plot"), "s"),
            "svgplot.bytes_written": (c["svgplot.bytes_written"], "bytes"),
            "config.load_s": (tr.total_s("config.load"), "s"),
            "cli.main_s.run": (tr.total_s("cli.main.run"), "s"),
            "cli.main_s.verify": (tr.total_s("cli.main.verify"), "s"),
            "verify.check_theorem1_s": (tr.total_s("verify.check_theorem1"), "s"),
            "verify.lyapunov_budget_s": (tr.total_s("verify.lyapunov_budget"), "s"),
            "verify.dominance_audit_s": (tr.total_s("verify.dominance_audit"), "s"),
            "verify.mc_runs": (c.get("verify.mc_runs", 0), "count"),
            "plant.stage_rate_calls": (c.get("plant.stage_rate", 0), "count"),
        }
        return out
