"""Command-line front end.

Subcommands: solve, verify, grid, estimate.  Exit codes: 0 on success, 1 on
validation/configuration errors, 2 when a verify suite refutes a certificate.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    _SUITES,
    ConfigError,
    ExperimentConfig,
    cmd_estimate,
    cmd_grid,
    cmd_solve,
    cmd_verify,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdsaddle",
        description="Solvers and convergence certificates for bilinear "
                    "convex-concave saddle point problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run configured solvers, write traces")
    p_solve.add_argument("--config", required=True, help="JSON experiment config")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--seed", type=int, default=None, help="override config seed")

    p_verify = sub.add_parser("verify", help="run a certificate suite")
    p_verify.add_argument("--suite", required=True, choices=list(_SUITES))
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--eta1-scale", type=float, default=None,
                          help="props suite: set eta1 to this multiple of its "
                               "precondition bound (default: theory schedule)")
    p_verify.add_argument("--eta2-scale", type=float, default=None,
                          help="props suite: set eta2 to this multiple of its "
                               "precondition bound (default: theory schedule)")
    p_verify.add_argument("--out", default=None, help="write the report JSON here")

    p_grid = sub.add_parser("grid", help="step-size grid search")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--budget", type=float, default=None,
                        help="grad-unit budget per grid point")
    p_grid.add_argument("--seed", type=int, default=None)

    p_est = sub.add_parser("estimate", help="curvature constants and schedule")
    p_est.add_argument("--config", required=True,
                       help="JSON file holding an instance spec (or a full "
                            "experiment config; its instance block is used)")
    p_est.add_argument("--out", default=None)
    return parser


def _print_report(report: dict, out: str | None):
    """Print ``report`` as JSON, and write it to ``out`` when given."""
    text = json.dumps(report, indent=2, default=str, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("solve", "grid"):
            # the flags are config fields, checked as the document is read
            config = ExperimentConfig.load(args.config, seed=args.seed,
                                           budget=getattr(args, "budget", None))
        if args.command == "solve":
            summary = cmd_solve(config, args.out)
            diverged = [s["name"] for s in summary["solvers"]
                        if s.get("status") == "diverged"]
            if diverged:
                print(f"done with diverged solvers: {', '.join(diverged)}")
            else:
                print(f"done: {len(summary['solvers'])} solver runs -> {args.out}")
            return 0

        if args.command == "verify":
            # a suite takes the scale flags its _SUITES entry names
            kw = {}
            for option in ("eta1_scale", "eta2_scale"):
                value = getattr(args, option)
                if option in _SUITES[args.suite].options:
                    kw[option] = value
                elif value is not None:
                    raise ConfigError("--" + option.replace("_", "-"),
                                      f"the {args.suite} suite takes no step scale")
            report = cmd_verify(args.suite, args.trials, args.seed, **kw)
            _print_report(report, args.out)
            return 2 if report.get("refuted") else 0

        if args.command == "grid":
            if not any(spec.schedule["source"] == "grid" for spec in config.solvers):
                print("no grid-source solvers in config", file=sys.stderr)
                return 1
            report = cmd_grid(config, args.out)
            for entry in report["solvers"]:
                print(f"{entry['name']}: {entry['status']} best={entry['best']}")
            return 0

        if args.command == "estimate":
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
            spec = doc.get("instance", doc) if isinstance(doc, dict) else doc
            report = cmd_estimate(spec)
            _print_report(report, args.out)
            return 0 if report.get("status") == "ok" else 1

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, RuntimeError) as exc:
        # RuntimeError: a reference solver that missed its tolerance
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
