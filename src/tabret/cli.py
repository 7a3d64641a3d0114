"""Command-line entry points: run, compare, gradcheck.

Exit codes: 0 success, 1 runtime or OS error, 2 configuration error, 3
missing or corrupt prerequisite artifact, 4 provider failure, 130
interrupted (Ctrl-C). Every workspace file and the manifest are written
by one atomic replace each, and the embedding cache trims a torn tail,
so an interrupted run resumes when run again. Progress goes to stderr;
the comparison table is the only stdout payload, so it pipes cleanly.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import ConfigError, load_config
from .pipeline import STAGES, StageError, parse_variants, run_compare, run_pipeline
from .train import gradient_check


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set)
    run_pipeline(cfg, args.stage, log=_log)
    return 0


def _format_compare_table(rows: list[dict]) -> str:
    ks = sorted(rows[0]["recall"], key=lambda s: int(s.split("@")[1]))
    header = ["variant", *ks, "queries"]
    body = [
        [r["variant"], *(f"{r['recall'][k]:.2f}" for k in ks), str(r["query_count"])]
        for r in rows
    ]
    widths = [max(len(line[i]) for line in [header, *body]) for i in range(len(header))]
    lines = []
    for line in [header, *body]:
        cells = [line[0].ljust(widths[0])] + [
            c.rjust(w) for c, w in zip(line[1:], widths[1:])
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set)
    variants = parse_variants(args.strategies, cfg)
    report = run_compare(cfg, variants, log=_log)
    print(_format_compare_table(report["rows"]))
    return 0


def _count(text: str) -> int:
    """An argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _step(text: str) -> float:
    """An argparse type: a finite, nonzero float."""
    value = float(text)
    if not math.isfinite(value) or value == 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and nonzero, got {text}")
    return value


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    worst = gradient_check(dim=args.dim, n_triples=args.triples, step=args.step, seed=args.seed)
    print(f"max relative error: {worst:.3e} (threshold 1e-4)")
    return 0 if worst < 1e-4 else 1  # a NaN error fails too


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabret",
        description="Cluster-guided partial-table retrieval pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one pipeline stage or all of them")
    run_p.add_argument("--stage", default="all", choices=[*STAGES, "all"])
    run_p.add_argument("--config", required=True, help="path to the YAML config")
    run_p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field, e.g. --set train.epochs=4",
    )
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run and tabulate strategy variants")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument(
        "--strategies",
        required=True,
        help="comma-separated variants: sampling[+hard|random][+adapter|no-adapter]",
    )
    cmp_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    cmp_p.set_defaults(func=_cmd_compare)

    grad_p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    grad_p.add_argument("--dim", type=_count, default=8)
    grad_p.add_argument("--triples", type=_count, default=5)
    grad_p.add_argument("--step", type=_step, default=1e-5)
    grad_p.add_argument("--seed", type=int, default=7)
    grad_p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, RuntimeError) as exc:  # a full disk outside a stage, a locked workspace
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted; run the same command again to resume", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
