"""One digest per workload and seed over every query's outputs.

    python3 tools/outputs_digest.py            # seeds 1 and 2 of every workload

Generates each workload's queries with ``bench/workloads.generate`` and runs
them one by one through ``run_query``, in the checkout that holds this file.
Each query adds to its workload's sha256:

* pair -- the verdict, ``Stats``, the certificate and witness ``repr``s, the
  witness replay's result, and the formula text and side;
* step -- the ``repr``s of the free and bound successor lists;
* sat  -- both verdicts;
* a query that raises -- the exception's type.

Run it in two checkouts: equal lines mean every output is unchanged.
Nothing is timed and nothing is checked against the oracles.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import workloads as W  # noqa: E402

SEEDS = (1, 2)


def outputs(q: W.Query, out) -> tuple:
    if q.kind == "pair":
        res = out.result
        return (res.bisimilar, res.stats, res.certificate, res.witness, out.witness_ok,
                out.formula, out.side)
    if q.kind == "step":
        _p, free, bound = out
        return free, bound
    return out


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for q in W.generate(workload, seed):
        try:
            text = repr(outputs(q, W.run_query(q)))
        except Exception as e:  # a query that raises adds its exception's type
            text = f"raised {type(e).__name__}"
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    for workload in W.WORKLOADS:
        for seed in SEEDS:
            print(f"{workload} seed {seed}: {digest(workload, seed)}", flush=True)


if __name__ == "__main__":
    main()
