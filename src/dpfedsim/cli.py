"""Command-line front end.

Subcommands: run, sweep, plan, validate. Exit codes: 0 success, 1 config or
validation error or an input too large for memory, 2 runtime divergence in
all repeats, 3 I/O error. Warnings go to stderr as ``warning: <message>``
lines.
"""
from __future__ import annotations

import argparse
import math
import sys
import warnings

from .harness import cmd_plan, cmd_run, cmd_sweep, cmd_validate
from .regression import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfedsim",
        description=(
            "Deterministic simulator for differentially private federated "
            "averaging on linear regression tasks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", required=True, help="path to the experiment config file")
        p.add_argument(
            "--out",
            required=out_required,
            default=None,
            help="output directory for CSV / report files",
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress stdout reporting")

    p_run = sub.add_parser("run", help="execute the configured repeats and write rounds CSV")
    common(p_run)
    p_run.add_argument("--repeats", type=int, default=None, help="override the repeat count")

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid and write sweep CSV")
    common(p_sweep)
    p_sweep.add_argument("--repeats", type=int, default=None, help="override the repeat count")

    p_plan = sub.add_parser("plan", help="report calibration, tuned E and bound samples")
    common(p_plan, out_required=False)

    p_val = sub.add_parser("validate", help="Monte-Carlo check of the noise variance predictor")
    common(p_val, out_required=False)
    p_val.add_argument(
        "--draws", type=int, default=10**6, help="number of simulated pool aggregations"
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # only the text changes: warnings are still issued, filtered and recordable as usual
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        if args.command == "run":
            summary = cmd_run(
                args.config, args.out, seed=args.seed, repeats=args.repeats,
                quiet=args.quiet,
            )
            if summary.divergence_count == summary.repeats:
                return EXIT_DIVERGED
        elif args.command == "sweep":
            rows = cmd_sweep(
                args.config, args.out, seed=args.seed, repeats=args.repeats,
                quiet=args.quiet,
            )
            if all(not math.isfinite(r.mean_final_loss) for r in rows):
                return EXIT_DIVERGED
        elif args.command == "plan":
            cmd_plan(args.config, out_dir=args.out, seed=args.seed, quiet=args.quiet)
        else:
            cmd_validate(
                args.config, draws=args.draws, out_dir=args.out, seed=args.seed,
                quiet=args.quiet,
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # the places that can name the array that does not fit raise a ConfigError
        # of their own; any other allocation failure ends here, not in a traceback
        detail = str(exc) or "the config asks for more than this process can allocate"
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        warnings.formatwarning = formatwarning
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
