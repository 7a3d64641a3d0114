"""Alternating pairs of benchmark runs of two checkouts, and their summary.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds 21-30 [--seconds 32]

PARENT and CHANGE are tabret checkouts. Pair i runs each checkout's own
``perfbench/run.py --trace 0`` once on the i-th seed, the parent first
when i is even and the change first when it is odd, one run at a time.
Each run's last line of standard output is its JSON result; a run whose
``correct`` is false, or that printed no result, is reported and its
metrics are left out.

For each end-to-end metric that the parent's ``BENCHMARK.json`` declares,
the summary gives the parent's median and quartiles, the change's median,
the relative change, and the pairs the change won, a tie counting for
neither side. ``rule`` says whether a gain may be claimed: the change won
at least nine tenths of the pairs run, and its median is better than the
parent's by more than the parent's interquartile range. A metric that
the runs also print as a ``# raw wall time`` line, uncorrected for the
host's speed, shows both sides' medians of those raw values next to it,
so a claim can be checked against raw time. Each pair's two values, and
their raw values, follow the table. ``--seconds`` defaults to the
benchmark's ``run_seconds``.

The script reads ``BENCHMARK.json`` and writes nothing, and runs Python
with ``PYTHONDONTWRITEBYTECODE=1`` so neither checkout gains bytecode
files; ``perfbench/run.py`` keeps its scratch files under the checkout's
``.bench_work/`` and removes them when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

SIDES = ("parent", "change")
# what perfbench/run.py prints for each timing: "# raw wall time NAME VALUE (corrected ...)"
RAW_LINE = re.compile(r"^# raw wall time (\S+) +(\S+)", re.MULTILINE)


def parse_seeds(spec: str) -> list[int]:
    """Seeds from "21-30", "21,23,25" or a mix of ranges and single seeds."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair i in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def last_json(stdout: str) -> dict | None:
    """The JSON object on the last non-blank line of stdout, if any."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def parse_run(stdout: str) -> dict | None:
    """A run's JSON result, with its raw wall times under "raw"."""
    result = last_json(stdout)
    if result is not None:
        result["raw"] = {name: float(value) for name, value in RAW_LINE.findall(stdout)}
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One unpatched benchmark run of the checkout; its JSON result."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    return parse_run(proc.stdout) if proc.returncode == 0 else None


def metric_value(result: dict | None, name: str) -> float | None:
    """A metric's value in a run's result; None for a run that was not correct."""
    if not result or result.get("correct") is not True:
        return None
    metric = result.get("metrics", {}).get(name)
    return metric.get("value") if isinstance(metric, dict) else None


def raw_value(result: dict | None, name: str) -> float | None:
    """A metric's raw wall time in a run's result, if it printed one;
    None for a run that was not correct."""
    if not result or result.get("correct") is not True:
        return None
    return result.get("raw", {}).get(name)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated as numpy does."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


@dataclass
class Summary:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    pairs: list[tuple[int, float, float]]  # (seed, parent value, change value)
    raw: list[tuple[int, float, float]]  # the same for the raw wall times

    @property
    def wins(self) -> int:
        sign = 1 if self.better == "lower" else -1
        return sum(sign * (p - c) > 0 for _, p, c in self.pairs)

    def medians(self) -> tuple[float, float, float, float]:
        """The parent's quartiles and median, and the change's median."""
        q1, parent, q3 = quartiles([p for _, p, _ in self.pairs])
        return q1, parent, q3, statistics.median(c for _, _, c in self.pairs)

    @property
    def rule_holds(self) -> bool:
        """The change won at least 9/10 of the pairs, and its median beats
        the parent's by more than the parent's interquartile range."""
        if not self.pairs:
            return False
        q1, parent, q3, change = self.medians()
        gain = parent - change if self.better == "lower" else change - parent
        return 10 * self.wins >= 9 * len(self.pairs) and gain > q3 - q1

    def row(self) -> str:
        if not self.pairs:
            return f"{self.name:16s} no correct pair"
        q1, parent, q3, change = self.medians()
        relative = f"{100 * (change - parent) / parent:+7.1f}%" if parent else "    n/a"
        quartiled = f"{parent:.4g} [{q1:.4g}, {q3:.4g}]"
        rule = "holds" if self.rule_holds else "not met"
        raw = ""
        if self.raw:
            p_raw = statistics.median(p for _, p, _ in self.raw)
            c_raw = statistics.median(c for _, _, c in self.raw)
            raw_relative = f" ({100 * (c_raw - p_raw) / p_raw:+.1f}%)" if p_raw else ""
            raw = f"  raw {p_raw:.4g} -> {c_raw:.4g}{raw_relative}"
        return (f"{self.name:16s} {quartiled:>32s}  {change:10.4g}  {relative}"
                f"  {self.wins:2d}/{len(self.pairs)}  {rule:7s}{raw}"
                f"  ({self.unit}, {self.better} is better)")


def summarize(declared: list[dict], seeds: list[int],
              results: list[dict[str, dict | None]]) -> list[Summary]:
    """One Summary per declared metric over the pairs where both runs hold
    it, and over those where both runs hold its raw wall time."""
    out = []
    for metric in declared:
        name = metric["name"]
        pairs, raw = [], []
        for seed, pair in zip(seeds, results):
            for value, into in ((metric_value, pairs), (raw_value, raw)):
                p, c = (value(pair.get(side), name) for side in SIDES)
                if p is not None and c is not None:
                    into.append((seed, p, c))
        out.append(Summary(name, metric["unit"], metric["better"], pairs, raw))
    return out


def report(summaries: list[Summary], seeds: list[int],
           results: list[dict[str, dict | None]]) -> str:
    lines = []
    for seed, pair in zip(seeds, results):
        for side in SIDES:
            result = pair.get(side)
            if result is None:
                lines.append(f"seed {seed} {side}: no result")
            elif result.get("correct") is not True:
                lines.append(f"seed {seed} {side}: correct is {result.get('correct')!r} "
                             f"({result.get('failed')} of {result.get('attempted')} failed)")
    lines.append(f"{'metric':16s} {'parent median [Q1, Q3]':>32s}  {'change':>10s}  "
                 f"{'rel':>8s}    won  rule     raw medians")
    lines.extend(s.row() for s in summaries)
    for s in summaries:
        shown = "; ".join(f"{seed}: {p:.4g} -> {c:.4g}" for seed, p, c in s.pairs)
        lines.append(f"{s.name}: {shown}")
        if s.raw:
            shown = "; ".join(f"{seed}: {p:.4g} -> {c:.4g}" for seed, p, c in s.raw)
            lines.append(f"{s.name} raw: {shown}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: list[dict[str, dict | None]] = []
    for i, seed in enumerate(args.seeds):
        pair: dict[str, dict | None] = {}
        for side in pair_order(i):
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
            print(f"# pair {i} seed {seed} {side} done", file=sys.stderr, flush=True)
        results.append(pair)
    summaries = summarize(benchmark["end_to_end"], args.seeds, results)
    print(report(summaries, args.seeds, results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
