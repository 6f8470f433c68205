"""Paired start-up times of ``import pibisim`` and of one-shot CLI runs.

    python3 tools/startup_pairs.py --parent ../parent-checkout --out BENCH_n_startup.json

Each of ``ROUNDS`` rounds spawns ``python3 -I -S`` once per command in a
checkout of the parent commit and once in this one, alternating which goes
first, with the checkout's ``src`` first on ``sys.path``.  The commands are
``import pibisim`` and the README's one-shot ``bisim`` and ``check`` runs;
a time is the whole spawn.  As in ``bench_pairs.py``, both checkouts first
get fresh bytecode and one discarded round.  The output holds, per command
and side, every time in ms, the median and quartiles, and the rounds the
change won.  Take both sides on the same, otherwise quiet host.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import ROOT, alternating, compile_tree

ROUNDS = 20
COMMANDS = {
    "import": None,
    "bisim": ["bisim", "x.0 | y!.0", "x.y!.0 + y!.x.0", "--prefix", "forall x, forall y"],
    "check": ["check", "a?(x).0", "[a?(x)]L [x=a] false", "--prefix", "nabla a"],
}


def spawn(tree: Path, argv: list[str] | None) -> float:
    """The wall time in ms of one ``python3 -I -S`` run of a command in ``tree``."""
    code = f"import sys; sys.path.insert(0, {str(tree / 'src')!r}); "
    if argv is None:
        code += "import pibisim"
    else:
        code += f"sys.argv[1:] = {argv!r}; from pibisim.cli import main; sys.exit(main())"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], stdout=subprocess.DEVNULL)
    elapsed = (time.perf_counter() - t0) * 1000
    if proc.returncode not in (0, 1):  # 1: not bisimilar or not satisfied
        sys.exit(f"startup_pairs: {argv or 'import'} in {tree} exited with {proc.returncode}")
    return elapsed


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    parent = args.parent.resolve()
    for tree in (parent, ROOT):
        compile_tree(tree)

    def one_round(tree: Path, _i: int) -> dict:
        return {name: spawn(tree, command) for name, command in COMMANDS.items()}

    alternating(parent, ROOT, 1, one_round)  # discarded
    sides = alternating(parent, ROOT, ROUNDS, one_round)
    out = {}
    for name in COMMANDS:
        runs = {side: [r[name] for r in rounds] for side, rounds in sides.items()}
        out[name] = {"runs_ms": runs, "change_wins": sum(map(float.__lt__, runs["change"], runs["parent"]))}
        for side, times in runs.items():
            q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
            out[name][side] = {"median_ms": med, "quartiles_ms": [q1, q3]}
        print(f"{name}: {out[name]['parent']['median_ms']:.1f} -> {out[name]['change']['median_ms']:.1f} ms, "
              f"{out[name]['change_wins']} of {ROUNDS}", file=sys.stderr)
    host = {"python": platform.python_version(), "machine": platform.machine()}
    doc = {"host": host, "rounds": ROUNDS, "commands": COMMANDS, "results": out}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
