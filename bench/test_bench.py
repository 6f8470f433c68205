"""The benchmark's own tests, on the smoke sizes:

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(*args):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", *args], capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


# Queries per smoke round that fail today, each on a known fault: the printed
# formula of one x?(u).0 refutation at width 3 does not parse back; the deep
# tau chain and the deep sum raise RecursionError.
KNOWN_FAILED = {"wide": 1, "random-mix": 2}


def test_smoke_every_workload_is_correct():
    result, out = run()
    assert set(result) == {"wide", "random-mix"}
    for w, r in result.items():
        assert r["correct"], w
        assert r["attempted"] >= 1 and r["failed"] == KNOWN_FAILED[w], (w, r)
        assert set(r["metrics"]) == {"setup_s", "wall_s", "query_ms_p50", "query_ms_p90", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in r["metrics"].values()), (w, r)
    assert out.count("digest=") == 2


def test_failed_share_is_the_same_in_every_round():
    result, out = run("--workload", "random-mix", "--seconds", "4")
    rounds = int(out.split("rounds: ")[1].split()[0])
    assert rounds >= 2, out
    assert result["correct"]
    assert result["failed"] == rounds * KNOWN_FAILED["random-mix"]
    assert result["attempted"] % rounds == 0


def test_traced_layers_fit_in_traced_wall():
    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    for w in ("wide", "random-mix"):
        result, _ = run("--workload", w, "--trace", "1")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(m) == {p["name"] for p in spec["per_layer"]}
        assert 0 < m["trace.layers_self_s"] <= m["trace.wall_s"], (w, m)


def test_inputs_follow_the_seed():
    def digest(seed):
        _, out = run("--workload", "random-mix", "--seed", str(seed), "--seconds", "0")
        return out.split("digest=")[1].split()[0]

    assert digest(5) == digest(5) != digest(6)
