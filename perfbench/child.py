"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/child.py '<spec json>'

The spec names the workload, seed, size, checkout root, scratch directory
and whether the pass is traced.  The last line of standard output is one
JSON object with the pass's timings, operation counts, digests and, when
traced, its per-layer metrics.  ``run.py`` starts one child per pass so
that every pass pays its imports and reports its own peak RSS.
"""

import json
import os
import resource
import sys
import time


def _load_modules(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import purefb
    from purefb import (autodiff, backstep, cli, config, plant, runstore,
                        scenarios, simkit, svgplot, verify)

    where = os.path.realpath(purefb.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("imported purefb from %s, not from %s" % (where, src))
    return {
        "autodiff": autodiff, "backstep": backstep, "cli": cli,
        "config": config, "plant": plant, "runstore": runstore,
        "scenarios": scenarios, "simkit": simkit, "svgplot": svgplot,
        "verify": verify,
    }


def run_pass(spec):
    t_start = time.perf_counter()
    mods = _load_modules(spec["root"])
    import numpy

    import_s = time.perf_counter() - t_start
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import probes
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer

    scratch = spec["scratch"]
    os.makedirs(scratch, exist_ok=True)
    size = workloads.SIZES[spec["size"]]
    work = workloads.make(spec["workload"], mods, spec["root"], spec["seed"],
                          spec["size"], scratch)
    speed = SpeedProbe(interval=0.25)

    # set-up: config load plus scenario build (synthesis, paper floor probe)
    setup = []
    speed.sample()
    t_setup = time.perf_counter()
    for _ in range(size["setup_reps"]):
        t0 = time.perf_counter()
        work.setup_once(mods)
        setup.append(time.perf_counter() - t0)
    t1 = time.perf_counter()
    speed.sample()
    setup_scale = speed.reference_seconds(t_setup, t1) / (t1 - t_setup)

    tracer = Tracer(left_out=speed)
    probes_ = probes.Probes(tracer, mods, speed)
    probes_.install_timers()
    if spec["traced"]:
        probes_.install_tracing()
    load_before = os.getloadavg()
    speed.sample()
    spent = speed.spent
    t0 = time.perf_counter()
    try:
        out = work.run(mods, tracer, speed.sample_if_due)
    finally:
        t1 = time.perf_counter()
        tracer.uninstall()
    wall = t1 - t0 - (speed.spent - spent)
    speed.sample()
    wall_ref = speed.reference_seconds(t0, t1)
    load_after = os.getloadavg()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = []  # (trajectory, raw seconds, reference seconds), sampling left out
    for start, end, dt, traj in probes_.runs:
        runs.append((traj, dt, speed.reference_seconds(start, end)))
    work.check(out, [traj for traj, _, _ in runs], scratch)
    parts = probes_.end_to_end()
    result = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "traced": spec["traced"],
        "numpy": numpy.__version__,
        "import_s": import_s,
        # times are reference seconds (see speed.py); *_raw are as measured
        "scale": wall_ref / wall,
        "wall_s": wall_ref,
        "wall_s_raw": wall,
        "setup_samples": [dt * setup_scale for dt in setup],
        "setup_samples_raw": setup,
        "run_s": [cal for traj, _, cal in runs if not traj.diverged],
        "run_s_all": [cal for _, _, cal in runs],
        "run_s_raw": [dt for traj, dt, _ in runs if not traj.diverged],
        "run_total_s": sum(cal for _, _, cal in runs),
        "runs": len(runs),
        "steps": sum(workloads.run_steps(traj) for traj, _, _ in runs),
        "verify_s": parts["verify_s"],
        "verify_s_raw": parts["verify_s_raw"],
        "persist_s": parts["persist_s"],
        "audit_s": parts["audit_s"],
        "peak_rss_mb": peak_rss_mb,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "attempted": out.attempted,
        "failures": out.failures,
        "wrong": out.wrong,
        "digests": out.digests,
        "audit_samples": out.extra.get("audit_samples", 0),
    }
    if spec["traced"]:
        result["per_layer"] = {
            name: (value * wall_ref / wall if unit in ("s", "us") else value, unit)
            for name, (value, unit) in probes_.per_layer(result["audit_samples"]).items()
        }
        result["trace"] = tracer.to_dict()
    return result


def main(argv):
    spec = json.loads(argv[1])
    result = run_pass(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
