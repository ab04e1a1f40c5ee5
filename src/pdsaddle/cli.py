"""Command-line front end.

Subcommands: solve, verify, grid, estimate.  Exit codes: 0 on success, 2 when
a verify suite refutes a certificate, 1 on an error: "config error: <field
path>: ..." for a fault in what is read or an --out that cannot be written,
"error: ..." for one while running.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    _SUITES,
    ConfigError,
    ExperimentConfig,
    cmd_estimate,
    cmd_grid,
    cmd_solve,
    cmd_verify,
    load_json,
)


class _Parser(argparse.ArgumentParser):
    """Usage errors are ConfigErrors at the flag they name, or the command."""

    def error(self, message):
        head, _, rest = message.partition(": ")
        if head.startswith("argument "):
            raise ConfigError(head.removeprefix("argument "), rest)
        raise ConfigError(self.prog, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _check_out(out: str, directory: bool):
    """ConfigError at --out, before the command does any work, when ``out``
    cannot be written: a report file (verify, estimate) needs an existing
    writable directory, and an output directory (solve, grid) a writable
    nearest existing ancestor, as the command makes the rest."""
    path = os.path.abspath(out)
    if directory:
        while not os.path.exists(path):
            path = os.path.dirname(path)
    elif os.path.isdir(path):
        raise ConfigError("--out", f"{out!r} is a directory, not a file")
    else:
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError("--out", f"no directory {path!r}")
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError("--out", f"directory {path!r} is not writable")


def _print_report(report: dict, out: str | None):
    """Print ``report`` as JSON, and write it to ``out`` when given."""
    text = json.dumps(report, indent=2, default=str, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.out is not None:
            _check_out(args.out, directory=args.command in ("solve", "grid"))
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
            report = cmd_grid(config, args.out)
            for entry in report["solvers"]:
                print(f"{entry['name']}: {entry['status']} best={entry['best']}")
            return 0

        if args.command == "estimate":
            doc = load_json(args.config, "--config")
            spec = doc.get("instance", doc) if isinstance(doc, dict) else doc
            _print_report(cmd_estimate(spec), args.out)
            return 0

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:
        # a write that fails all the same (a full disk); a reference solver
        # that missed its tolerance
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
