"""Paired before/after runs of the benchmark, written to one history file.

    python3 tools/bench_pairs.py --parent ../parent-checkout --out BENCH_n.json [--seed S]

Runs ``bench/run.py --workload W --seed S --seconds T`` unchanged, in a
checkout of the parent commit and in this one, on every workload and at the
run length that ``BENCHMARK.json`` declares: ``PAIRS`` pairs of runs on the
seed given by ``--seed`` (default 1), alternating which checkout runs first
so that a drift in the host's speed falls on both sides alike.  First
``compileall`` writes fresh bytecode for ``src``, ``tests`` and ``bench`` in
both checkouts (with ``PYTHONDONTWRITEBYTECODE`` unset for that one
command), so that neither side reads a stale cache: a copied tree whose
``tests/__pycache__`` was stale read a higher ``peak_rss_mb`` than the same
``src/`` with fresh caches.  Then one discarded ``--seconds 0`` run in each
checkout, so that no measured run is the first one after the tree was copied
or edited.  Then ``TRACED_PAIRS`` alternating pairs of ``--trace 1`` runs
for the per-layer figures; each side's traced figure is the median of its
runs, so a per-layer time is compared over paired runs, not over two runs
taken one after the other.  The output file holds, per workload and side,
every run's end-to-end metrics, their medians and quartiles, the pairs the
change won per metric, the failed share, every traced run and the traced
medians, and under ``traced_changed`` each count, chars or ratio counter
whose parent and change medians differ, as ``[parent, change]``: every
counter that moves needs an explanation.  A traced figure is the mean over
the run's rounds, and two runs may take different numbers of rounds, so
values within a relative 1e-9 of each other count as equal: the same ratio
in every round can average to two floats one bit apart.  Every end-to-end
metric is better when lower.  Each pair's end-to-end metrics are printed to
stderr as it completes, and so are the changed counters.  Runs go one at a
time; take both sides on the same, otherwise quiet host.  A claim made on the
default seed is checked on a held-out one by a second run with another
``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
TRACED_PAIRS = 2


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``tree``: its last line of output."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compile_tree(tree: Path) -> None:
    """Fresh bytecode caches for everything a run in ``tree`` imports."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "tests", "bench"],
                   cwd=tree, env=env, check=True, capture_output=True)


def alternating(parent: Path, change: Path, count: int, one, report=None) -> dict:
    """``count`` pairs of ``one(tree, i)``, the side that runs first
    alternating from pair to pair, as ``{"parent": [...], "change": [...]}``;
    ``report(i, parent_result, change_result)`` follows each pair."""
    sides = {"parent": [], "change": []}
    for i in range(count):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            sides[side].append(one(parent if side == "parent" else change, i))
        if report is not None:
            report(i, sides["parent"][-1], sides["change"][-1])
    return sides


def summary(runs: list[dict]) -> dict:
    metrics = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
    out = {"runs": metrics, "failed_share": [r["failed"] / r["attempted"] for r in runs],
           "correct": all(r["correct"] for r in runs)}
    for name, values in metrics.items():
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.setdefault("median", {})[name] = med
        out.setdefault("quartiles", {})[name] = [q1, q3]
    return out


def pairs(parent: Path, change: Path, workload: str, seeds: list[int], seconds: float,
          counters: list[str]) -> dict:
    for tree in (parent, change):
        compile_tree(tree)
        # discarded: the first run after a tree is copied or edited reads a
        # higher peak_rss_mb than the same code does afterwards
        run(tree, workload, seeds[0], 0, 0)

    def shown(i: int, p: dict, c: dict) -> None:
        p, c = p["metrics"], c["metrics"]
        line = ", ".join(f"{k} {p[k]['value']:.4g} -> {c[k]['value']:.4g}" for k in p)
        print(f"{workload} seed {seeds[i]}: {line}", file=sys.stderr)

    sides = alternating(parent, change, len(seeds),
                        lambda tree, i: run(tree, workload, seeds[i], seconds, 0), shown)
    out = {"seeds": seeds, "seconds": seconds, "parent": summary(sides["parent"]),
           "change": summary(sides["change"])}
    out["change_wins"] = {
        name: sum(c < p for p, c in zip(out["parent"]["runs"][name], out["change"]["runs"][name]))
        for name in out["parent"]["runs"]
    }
    traced = alternating(parent, change, TRACED_PAIRS, lambda tree, _i: {
        k: v["value"] for k, v in run(tree, workload, seeds[0], seconds, 1)["metrics"].items()})
    out["traced_runs"] = traced
    out["traced"] = {side: {k: statistics.median(r[k] for r in runs) for k in runs[0]}
                     for side, runs in traced.items()}
    p, c = out["traced"]["parent"], out["traced"]["change"]
    out["traced_changed"] = {
        k: [p.get(k), c.get(k)]
        for k in counters
        if k not in p or k not in c or not math.isclose(p[k], c[k], rel_tol=1e-9)
    }
    print(f"{workload} traced counters changed: {out['traced_changed'] or 'none'}", file=sys.stderr)
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=1, help="workload seed of every run (default 1)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, seeds = bench["run_seconds"], [args.seed] * PAIRS
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "chars", "ratio")]
    doc = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor()},
        "command": "bench/run.py --workload W --seed S --seconds T [--trace 1]",
        "workloads": {
            w["name"]: pairs(args.parent.resolve(), ROOT, w["name"], seeds, seconds, counters)
            for w in bench["workloads"]
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
