"""purefb benchmark: one workload, timed for a fixed budget, outputs checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep-paper --seed 2026 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seeds

Each pass of the workload runs in a fresh interpreter (``child.py``), one
after the other, on one thread, until the next pass would overrun
``--seconds`` (at least one pass runs).  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics; with ``--trace 1`` one
untraced pass is followed by traced passes, and the last line holds the
per-layer metrics.  Every metric is also printed on its own line with its
unit, and the full record (provenance, every pass, every span) is written
under ``.perfbench_work/results/``.

Exit codes: 0 result printed (``correct`` says whether the outputs
checked out), 1 a pass crashed or timed out, 2 usage error or not run
from a purefb checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# name -> unit; the metrics the last line carries with --trace 0
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s.p50": "s",
    "steps_per_s": "1/s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNT_UNITS = ("count", "bytes")  # per-layer units that must repeat exactly
PASS_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench_work"
EXPECTED = os.path.join(HERE, "expected.json")


class BenchError(RuntimeError):
    """A pass could not produce a result."""


# -- provenance ------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root):
    """HEAD commit when the checkout is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _src_sha256(root):
    """Digest of the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "purefb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(root):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
    }


# -- passes ----------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec, timeout):
    """One pass in a fresh interpreter; returns its result dict."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=spec["root"], env=_child_env())
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass exceeded %.0f s" % (spec["workload"], timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s pass exited %d:\n%s"
                         % (spec["workload"], proc.returncode, proc.stderr[-4000:]))
    result = json.loads(lines[-1])
    result["child_s"] = time.perf_counter() - t0
    return result


def run_passes(name, seed, seconds, trace, size, root):
    """Untraced (then, with trace, traced) passes within the time budget."""
    scratch = os.path.join(root, WORK_DIR, "%s-s%d-t%d-%d" % (name, seed, trace, os.getpid()))
    spec = {"workload": name, "seed": seed, "size": size, "root": root,
            "scratch": scratch, "traced": False}
    begin = time.perf_counter()
    passes = []
    try:
        while True:
            spec["traced"] = bool(trace) and bool(passes)
            left = PASS_TIMEOUT_S - (time.perf_counter() - begin)
            passes.append(run_child(spec, max(left, 1.0)))
            same = [p["child_s"] for p in passes if p["traced"] == spec["traced"]]
            elapsed = time.perf_counter() - begin
            if trace and len(passes) < 2:
                continue
            if elapsed + max(same) > seconds:
                return passes
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# -- aggregation -----------------------------------------------------------


def tail_percentile(samples):
    """(p, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, int(p / 100.0 * n))]
    return None


def end_to_end(passes):
    """End-to-end metrics of the untraced passes: name -> (value, unit)."""
    # runs that reached their horizon; every run when none did (the run is
    # then also reported as not correct)
    runs = [dt for p in passes for dt in p["run_s"]] or [
        dt for p in passes for dt in p["run_s_all"]]
    setup = [dt for p in passes for dt in p["setup_samples"]]
    out = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "run_s.p50": statistics.median(runs),
        "steps_per_s": sum(p["steps"] for p in passes) / sum(p["run_total_s"] for p in passes),
        "runs_per_s": statistics.median(p["runs"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: (value, END_TO_END[name]) for name, value in out.items()}


def workload_extras(passes):
    """Metrics that apply to one workload only, or are not steady enough to
    gate on, plus sample counts.

    verify_s is milliseconds of numpy-heavy work on two workloads; over ten
    seeds its spread was 0.06-0.26 of its median, raw or scaled.
    """
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    runs = [dt for p in passes for dt in p["run_s"]]
    out = {
        "run_s.samples": (len(runs), "count"),
        "passes": (len(passes), "count"),
        "failed_frac": (failed / attempted if attempted else 0.0, "ratio"),
        "import_s": (statistics.median(p["import_s"] for p in passes), "s"),
        "wall_s.raw": (statistics.median(p["wall_s_raw"] for p in passes), "s"),
        "run_s.p50.raw": (statistics.median(dt for p in passes for dt in p["run_s_raw"]), "s"),
        "speed_scale": (statistics.median(p["scale"] for p in passes), "ratio"),
        "verify_s": (statistics.median(p["verify_s"] for p in passes), "s"),
        "verify_s.raw": (statistics.median(p["verify_s_raw"] for p in passes), "s"),
    }
    tail = tail_percentile(runs)
    if tail is not None:
        out["run_s.p%g" % tail[0]] = (tail[1], "s")
    if any(p["audit_samples"] for p in passes):
        out["audit_samples_per_s"] = (
            statistics.median(p["audit_samples"] / p["audit_s"] for p in passes), "1/s")
    if any(p["persist_s"] for p in passes):
        out["persist_s"] = (statistics.median(p["persist_s"] for p in passes), "s")
    return out


def per_layer(untraced, traced):
    """Per-layer metrics: counts of the first traced pass, median times."""
    first = traced[0]["per_layer"]
    out = {}
    for name, (value, unit) in first.items():
        if unit in COUNT_UNITS:
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(p["per_layer"][name][0] for p in traced), unit)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def _expected(name):
    with open(EXPECTED) as fh:
        return json.load(fh).get(name)


def verdict(name, seed, size, passes):
    """(correct, problems): outputs checked, deterministic, bit-identical."""
    problems = [w for p in passes for w in p["wrong"]]
    digests = [p["digests"] for p in passes]
    if any(d != digests[0] for d in digests):
        problems.append("digests differ between passes of one seed")
    traced = [p["per_layer"] for p in passes if p["traced"]]
    for layer in traced[1:]:
        for metric, (value, unit) in layer.items():
            if unit in COUNT_UNITS and value != traced[0][metric][0]:
                problems.append("count %s differs between traced passes" % metric)
    want = _expected(name)
    if size == "full" and want and seed == want["seed"] and digests[0] != want["digests"]:
        problems.append("digests at seed %d differ from the recorded ones: %s"
                        % (seed, digests[0]))
    return not problems, problems


def bench(name, seed, seconds, trace, size, root):
    passes = run_passes(name, seed, seconds, trace, size, root)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    correct, problems = verdict(name, seed, size, passes)
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
    extras = workload_extras(untraced)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "size": size,
        "correct": correct,
        "problems": problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "failures": [dict(f, **{"pass": i}) for i, p in enumerate(passes) for f in p["failures"]],
        "metrics": metrics,
        "extras": extras,
        "passes": passes,
    }


def _print_result(res):
    print("== %s seed %d trace %d: %d passes, %d/%d operations failed, correct=%s"
          % (res["workload"], res["seed"], res["trace"], len(res["passes"]),
             res["failed"], res["attempted"], res["correct"]))
    for problem in res["problems"]:
        print("   wrong: %s" % problem)
    for failure in res["failures"]:
        print("   failed: pass %d %s: %s" % (failure["pass"], failure["op"], failure["detail"]))
    for group in ("metrics", "extras"):
        for metric, (value, unit) in res[group].items():
            print("%-18s %-28s %-14.6g %s" % (res["workload"], metric, value, unit))
    for p in res["passes"]:
        print("   pass traced=%s wall %.3f s, loadavg %s -> %s"
              % (p["traced"], p["wall_s"], p["loadavg_before"][0], p["loadavg_after"][0]))


def _write_record(root, res, prov):
    target = os.path.join(root, WORK_DIR, "results")
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, "%s-seed%d-trace%d.json"
                        % (res["workload"], res["seed"], res["trace"]))
    with open(path, "w") as fh:
        json.dump(dict(res, provenance=prov), fh, indent=1, sort_keys=True)
    return path


def _line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny runs the benchmark's own tests quickly")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "purefb", "__init__.py"))
            and os.path.isfile(os.path.join(root, workloads.N2_CONFIG))
            and os.path.isfile(os.path.join(root, workloads.MS_CONFIG))):
        print("error: run from the root of a purefb checkout (src/purefb and "
              "configs/ not found under %s)" % root, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    prov = provenance(root)
    results = []
    try:
        for name in names:
            seed = workloads.DEFAULT_SEED[name] if args.seed is None else args.seed
            results.append(bench(name, seed, args.seconds, args.trace, args.size, root))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for res in results:
        prov.setdefault("numpy", res["passes"][0]["numpy"])
        _print_result(res)
        print("   record -> %s" % _write_record(root, res, prov))
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    if len(results) == 1:
        res = results[0]
        print(_line(res["correct"], res["attempted"], res["failed"], res["metrics"]))
    else:
        print(_line(
            all(r["correct"] for r in results),
            sum(r["attempted"] for r in results),
            sum(r["failed"] for r in results),
            {"%s/%s" % (r["workload"], m): v for r in results for m, v in r["metrics"].items()},
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
