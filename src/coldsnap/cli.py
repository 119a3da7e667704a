"""Command-line interface.

    coldsnap run --config cfg.json [--scenario co] [--trials N] [--seed S]
                 [--out DIR] [--threads K] [--traces]
    coldsnap compare DIR [DIR ...] [--out FILE]
    coldsnap export-exposure DIR
    coldsnap demo --out DIR

Exit codes: 0 success, 1 runtime error, 2 configuration or ingestion error or a
path the OS refuses.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError
from .outage import Scenario
from .report import compare_scenarios, export_exposure, format_comparison, format_exposure

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
# Upper bound of `--threads`: workers past a large host's core count add
# memory, not speed, and an unbounded value would ask the OS for one thread
# per trial batch, 156,250 of them at `MAX_TRIALS`.
MAX_THREADS = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldsnap",
        description="Simulate and value customer losses from extreme-temperature outages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario end to end")
    run_p.add_argument("--config", required=True, help="path to the JSON scenario config")
    run_p.add_argument("--scenario", choices=[s.value for s in Scenario],
                       help="override the config's scenario selection")
    run_p.add_argument("--trials", type=int, help="override the Monte-Carlo trial count")
    run_p.add_argument("--seed", type=int, help="override the master seed")
    run_p.add_argument("--out", help="override the output directory")
    run_p.add_argument("--threads", type=int, default=1, help="trial worker threads")
    run_p.add_argument("--traces", action="store_true",
                       help="also export full per-building temperature traces")

    cmp_p = sub.add_parser("compare", help="tabulate two or more completed runs")
    cmp_p.add_argument("dirs", nargs="+", help="run output directories")
    cmp_p.add_argument("--out", help="comparison CSV path (default comparison.csv in cwd)")

    exp_p = sub.add_parser("export-exposure", help="per-insulation-class exposure summary")
    exp_p.add_argument("dir", help="run output directory")

    demo_p = sub.add_parser("demo", help="write the bundled demo config and weather")
    demo_p.add_argument("--out", required=True, help="directory for the demo assets")
    return parser


def _cmd_run(args) -> int:
    from .scenario import load_config, run_scenario

    overrides = {}
    if args.scenario:
        overrides["scenario"] = args.scenario
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out_dir"] = args.out
    if not 1 <= args.threads <= MAX_THREADS:
        raise ConfigurationError(f"--threads must lie in [1, {MAX_THREADS}], got {args.threads}")

    config = load_config(args.config, overrides)
    config.threads, config.write_traces = args.threads, args.traces
    result = run_scenario(config)
    summary = result.summary
    print(f"scenario {config.scenario.value}: {config.n_trials} trials, seed {config.seed}")
    print(f"  mean total cost : ${summary['total']['mean']:,.2f}")
    print(f"  mean NEI cost   : ${summary['nei_total']['mean']:,.2f}")
    print(f"  mean deaths     : {summary['n_death']['mean']:.3f}")
    print(f"  mean RR         : {summary['mean_rr_population']:.4f}")
    print(f"  outputs in      : {config.out_dir}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    out = args.out if args.out else "comparison.csv"
    rows = compare_scenarios(args.dirs, out)
    print(format_comparison(rows))
    print(f"comparison written to {out}")
    return EXIT_OK


def _cmd_export_exposure(args) -> int:
    rows = export_exposure(args.dir)
    print(format_exposure(rows))
    return EXIT_OK


def _cmd_demo(args) -> int:
    from .demo import write_demo

    config_path = write_demo(args.out)
    print(f"demo assets written; run with:\n  coldsnap run --config {config_path} --scenario co")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "export-exposure": _cmd_export_exposure,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a path the OS refuses: missing, taken, too long, not permitted
        where = "" if exc.filename is None else f"cannot open {exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
