"""Command-line front end.

Subcommands:

    run         simulate a configured scenario and persist it
    verify      run the stability monitors on a run (fresh or stored)
    montecarlo  seeded initial-condition/uncertainty sweep
    plot        re-render the SVG charts of a stored run

Exit codes: 0 success, 1 monitor failure, 2 usage or config error (any
ValueError), 3 divergence, 4 internal error (anything else that went
wrong, such as an unwritable registry; printed as one line, without a
traceback).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import config as configmod
from . import runstore, svgplot, verify

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_INTERNAL = 4


# where a stored run id is looked up without --out
_REGISTRY = configmod._BY_NAME["run.out"].default


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="purefb",
        description="Adaptive backstepping for pure-feedback plants: "
        "simulate, verify, sweep, plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required):
        p.add_argument("--config", required=config_required,
                       help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        p.add_argument("--out", default=None, help="override run.out")
        p.add_argument("--mode", choices=configmod._BY_NAME["design.mode"].choices,
                       default=None,
                       help="override design.mode (scenario %s)"
                       % ", ".join(configmod._APPLIES_TO["design.mode"]))

    p_run = sub.add_parser("run", help="simulate and persist one run")
    common(p_run, config_required=True)

    p_verify = sub.add_parser("verify", help="run the stability monitors")
    p_verify.add_argument("run_id", nargs="?", default=None,
                          help="stored run id (omit to verify --config "
                          "freshly)")
    common(p_verify, config_required=False)

    p_mc = sub.add_parser("montecarlo",
                          help="seeded sweep over the configured boxes")
    common(p_mc, config_required=True)
    p_mc.add_argument("--runs", type=int, default=20,
                      help="number of sweep runs (default 20)")

    p_plot = sub.add_parser("plot", help="re-render charts of a stored run")
    p_plot.add_argument("run_id", help="stored run id")
    p_plot.add_argument("--out", default=None,
                        help="registry root (default %s)" % _REGISTRY)
    return parser


def _overrides(args):
    out = {}
    if getattr(args, "seed", None) is not None:
        out["run.seed"] = str(args.seed)
    if getattr(args, "out", None) is not None:
        out["run.out"] = args.out
    if getattr(args, "mode", None) is not None:
        out["design.mode"] = args.mode
    return out


def _load_config(args):
    if not args.config:
        raise ValueError("a --config file is required here")
    return configmod.load_file(args.config, overrides=_overrides(args))


def _execute(cfg):
    scn = configmod.build(cfg)
    traj = scn.run(seed=cfg.seed)
    return scn, traj


def _print_trajectory(traj):
    x_cols = traj.meta.get("x_cols", [])
    k_cols = traj.meta.get("k_cols", [])
    tail = ", ".join("%s=%.3e" % (c, traj.col(c)[-1]) for c in x_cols)
    gains = ", ".join("%s=%.6g" % (c, traj.col(c)[-1]) for c in k_cols)
    print("samples: %d  (h=%g)" % (traj.data.shape[0], traj.h))
    if tail:
        print("terminal state: %s" % tail)
    if gains:
        print("settled gains: %s" % gains)
    if traj.diverged:
        print("DIVERGED: %s" % (traj.failure,))


def _cmd_run(args):
    cfg = _load_config(args)
    start = time.perf_counter()
    _, traj = _execute(cfg)
    elapsed = time.perf_counter() - start
    paths = runstore.save_run(cfg, traj)
    svgplot.plot_trajectory(traj, paths.plots)
    print("run %s (%s) -> %s" % (cfg.run_id, cfg.sid, paths.root))
    _print_trajectory(traj)
    print("integrated in %.2f s" % elapsed)
    return EXIT_DIVERGED if traj.diverged else EXIT_OK


def _monitor_report(cfg, traj, scn):
    """All monitors applicable to the scenario; returns (payload, ok).

    scn is the scenario that produced traj.
    """
    tol = cfg.tolerances()
    invariants = verify.check_theorem1(traj, tol=tol)
    payload = {"invariants": invariants.to_dict(), "tolerances": tol.to_dict()}
    ok = invariants.passed
    for check in invariants.checks:
        print("%-16s %s  (margin=%.3e)%s"
              % (check.name, "PASS" if check.passed else "FAIL",
                 check.margin,
                 "  [%s]" % check.detail if not check.passed else ""))
    if traj.diverged:
        return payload, ok
    if scn.oracle is not None:
        # every scenario with oracle constants is judged by the budget, which
        # fails as not applicable where some stage keeps a fixed gain
        budget = verify.lyapunov_budget(traj, scn.oracle, slack=tol.budget_slack)
        payload["budget"] = budget.to_dict()
        ok = ok and budget.passed
        print("%-16s %s  (min slack=%.3e)"
              % ("energy-budget", "PASS" if budget.passed else "FAIL",
                 budget.min_slack))
    if scn.stack is not None and scn.n >= 2:
        audit = verify.dominance_audit(
            scn.stack, scn.bounds, scn.oracle,
            stage=scn.n,
            samples=cfg["verify.audit_samples"],
            seed=cfg["verify.audit_seed"],
            theta_box=scn.theta.box,
        )
        payload["dominance"] = audit.to_dict()
        ok = ok and audit.passed
        print("%-16s %s  (%d samples, min slack=%.3e)"
              % ("dominance", "PASS" if audit.passed else "FAIL",
                 audit.samples, audit.min_slack))
    return payload, ok


def _cmd_verify(args):
    if args.run_id is not None:
        given = [f for f in ("config", "seed", "mode") if getattr(args, f) is not None]
        if given:
            raise ValueError("a stored run is verified as it ran; --%s cannot "
                             "change it" % ", --".join(given))
        out_dir = args.out or _REGISTRY
        cfg, scn, traj = runstore.load_run(out_dir, args.run_id)
        paths = runstore.paths_for(out_dir, args.run_id)
    else:
        if args.out is not None:
            raise ValueError("a fresh verify stores nothing; --out names the "
                             "registry of a stored run id")
        cfg = _load_config(args)
        scn, traj = _execute(cfg)
        paths = None
    payload, ok = _monitor_report(cfg, traj, scn)
    verdict = "PASS" if ok else "FAIL"
    payload["verdict"] = verdict
    if paths is not None:
        report_path = runstore.save_report(paths, payload)
        print("report -> %s" % report_path)
    print("verdict: %s" % verdict)
    if traj.diverged:
        return EXIT_DIVERGED
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_montecarlo(args):
    cfg = _load_config(args)
    sweep = configmod._APPLIES_TO["sweep.x0_lo"]
    if cfg.sid not in sweep:
        raise ValueError("the sweep is defined for scenario %s" % ", ".join(map(repr, sweep)))
    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    configmod.build(cfg)  # the base config's values, checked before the sweep
    x0_box = tuple(zip(cfg["sweep.x0_lo"], cfg["sweep.x0_hi"]))
    overrides = cfg.scenario_overrides()
    start = time.perf_counter()
    report = verify.monte_carlo(
        cfg.sid, args.runs, cfg.seed,
        x0_box=x0_box, theta_box=overrides["theta_box"],
        overrides=overrides, tol=cfg.tolerances(),
    )
    elapsed = time.perf_counter() - start
    tag = "mc-m%d-s%d" % (args.runs, cfg.seed)
    target = runstore.save_aggregate(
        cfg.out_dir, cfg.run_id, tag, report.to_dict())
    print("sweep %s: %d/%d passed in %.1f s"
          % (tag, report.passes, report.runs, elapsed))
    print("aggregate -> %s" % target)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_plot(args):
    out_dir = args.out or _REGISTRY
    _, _, traj = runstore.load_run(out_dir, args.run_id)
    paths = runstore.paths_for(out_dir, args.run_id)
    os.makedirs(paths.plots, exist_ok=True)
    written = svgplot.plot_trajectory(traj, paths.plots)
    for path in written:
        print("wrote %s" % path)
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return EXIT_USAGE if exc.code not in (0,) else 0
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "montecarlo": _cmd_montecarlo,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # a rejected value; ConfigError and RunStoreError are ValueErrors
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # KeyboardInterrupt and SystemExit are not Exceptions: they pass
        print("error: internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
