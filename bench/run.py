"""pibisim benchmark: seeded workloads through the public library API.

    python3 bench/run.py --workload wide --seed 1 --seconds 55 --trace 0
    python3 bench/run.py                      # every workload, one after another
    python3 bench/run.py --trace 1            # per-layer figures instead
    python3 bench/run.py --repeat 10          # medians and quartiles over seeds
    python3 bench/run.py --smoke              # tiny sizes, for the benchmark's tests

A single-workload run runs whole rounds of the workload's query list until
``--seconds`` is used up, each round in a fresh interpreter, so that no round
sees what an earlier one left in memory.  A round is a closed loop on one
thread: the next query starts when the previous one has returned, and every
output is checked outside the timed region.  The run prints each metric with
its unit; its last line of output is one JSON object.  The other forms run
each workload in a fresh interpreter.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 10  # before the rounds and again after them
REFERENCE_EVERY_S = 0.5  # query time between two timings of the reference work
CHILD_TIMEOUT_S = 170  # a single-workload run ends within this, rounds included
MAX_REPORTED_FAILURES = 5


def _require_checkout() -> None:
    """The benchmark runs pibisim from this checkout's sources, never from an
    installed copy, and needs the oracles and corpus from tests/."""
    missing = [
        str(p.relative_to(ROOT))
        for p in (SRC / "pibisim" / "__init__.py", TESTS / "oracles.py", TESTS / "corpus.py")
        if not p.is_file()
    ]
    if missing:
        sys.exit(f"bench: not a pibisim checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(SRC), str(TESTS)]


def _setup_times() -> list[float]:
    """Times from starting a fresh interpreter until ``import pibisim`` has
    returned and the interpreter has exited, each scaled by the reference
    work timed right after it.  The interpreter runs isolated and without
    ``site`` (``-I -S``): site-packages start-up hooks belong to the machine,
    not to pibisim, which needs only the standard library."""
    import reference

    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pibisim"
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantise the measurement.
        code_ = subprocess.Popen([sys.executable, "-I", "-S", "-c", code]).wait()
        elapsed = time.perf_counter() - t0
        if code_ != 0:
            sys.exit(f"bench: importing pibisim failed with exit code {code_}")
        times.append(elapsed * reference.NOMINAL_S / reference.chunk())
    return times


def _self_cmd(*args: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *args]


# ------------------------------------------------------------------ one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Whole rounds of the workload's query list, each in a fresh interpreter,
    until ``seconds`` is used up (at least one round)."""
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setup_times = _setup_times()

    import workloads as W

    queries = W.generate(workload, seed, smoke)
    digest = W.digest(queries)
    print(f"inputs: workload={workload} seed={seed} queries={len(queries)} digest={digest}")
    # Reference answers are computed here, once, and handed to every round.
    answers = json.dumps([W.oracle_answer(q) for q in queries])

    rounds: list[dict] = []
    last_stderr = ""
    begin = time.perf_counter()
    while True:
        args = ["--round", digest, "--workload", workload, "--seed", str(seed),
                "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
        if trace and not rounds:
            args += ["--spans", str(HERE / "out" / f"spans-{workload}-{seed}.tsv")]
        proc = subprocess.run(_self_cmd(*args), input=answers, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        if proc.stderr != last_stderr:
            sys.stderr.write(proc.stderr)
            last_stderr = proc.stderr
        if proc.returncode != 0:
            sys.exit(f"bench: round {len(rounds) + 1} of {workload} exited with {proc.returncode}")
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(rounds) > seconds:
            break

    n = len(rounds)
    round_walls = [sum(r["latencies"]) for r in rounds]
    attempted = n * len(queries)
    failed = sum(r["failed"] for r in rounds)
    wrong = sum(r["wrong"] for r in rounds)
    print(f"rounds: {n} of {len(queries)} queries; attempted={attempted} failed={failed}; "
          f"round walls {' '.join(f'{w:.3f}' for w in round_walls)} s")
    if trace:
        # Means over the rounds; the mean round wall bounds the mean self times.
        metrics = {k: statistics.fmean(r["layers"][k] for r in rounds) for k in rounds[0]["layers"]}
        units = _per_layer_units()
    else:
        # Each query's time is scaled to the reference work's nominal speed
        # (see reference.py), then taken at its median over the rounds, all
        # of which start cold.  Set-up is sampled before and after the rounds.
        raw = [statistics.median(ts) for ts in zip(*(r["latencies"] for r in rounds))]
        print(f"unscaled: wall_s {sum(raw):.6g} s, query_ms_p50 {statistics.median(raw) * 1e3:.6g} ms, "
              f"query_ms_p90 {statistics.quantiles(raw, n=10)[-1] * 1e3:.6g} ms; round slowdowns "
              + " ".join(f"{statistics.median(r['slowdown']):.3f}" for r in rounds))
        scaled = [[t / f for t, f in zip(r["latencies"], r["slowdown"])] for r in rounds]
        per_query = [statistics.median(ts) for ts in zip(*scaled)]
        metrics = {
            "setup_s": statistics.median(setup_times + _setup_times()),
            "wall_s": sum(per_query),
            "query_ms_p50": statistics.median(per_query) * 1e3,
            "query_ms_p90": statistics.quantiles(per_query, n=10)[-1] * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_round(workload: str, seed: int, trace: bool, smoke: bool, digest: str, spans: str | None) -> dict:
    """One round of the query list in this fresh interpreter, with the
    reference answers read from standard input.  Each output is checked
    right after its query, outside the timed region."""
    answers = json.load(sys.stdin)

    import pibisim
    import reference
    import workloads as W

    if Path(pibisim.__file__).resolve().parent != SRC / "pibisim":
        sys.exit(f"bench: imported pibisim from {pibisim.__file__}, not from {SRC}")
    queries = W.generate(workload, seed, smoke)
    if W.digest(queries) != digest:
        sys.exit("bench: a round's inputs differ from the run's inputs")

    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    clock = time.perf_counter
    latencies = []
    failed = wrong = 0
    # (index of the next query, time of the reference work), untraced only
    speed = [] if trace else [(0, reference.chunk())]
    since = 0.0
    gc.collect()
    try:
        for i, q in enumerate(queries):
            if speed and since >= REFERENCE_EVERY_S:
                speed.append((i, reference.chunk()))
                since = 0.0
            if tracer:
                tracer.begin_query(i)
            out = None  # drop the previous output before timing the next query
            t0 = clock()
            try:
                out = W.run_query(q)
            except Exception as e:  # a query that raises counts as failed
                error = e
            lat = clock() - t0
            if tracer:
                tracer.end_query()
            latencies.append(lat)
            since += lat
            if out is None:
                failed += 1
                _report(failed, q, f"raised {error!r}")
                continue
            if tracer and q.kind == "pair":
                tracer.note_result(out.result)
            try:
                ok = W.check_query(q, out, answers[i])
            except W.Fault as e:
                failed += 1
                _report(failed, q, str(e))
                continue
            if not ok:
                wrong += 1
                _report(wrong, q, "WRONG output")
    finally:
        if tracer:
            tracer.restore()

    result = {
        "latencies": latencies,
        "failed": failed,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["layers"] = layers.layer_metrics(tracer, 1, sum(latencies))
    else:
        # Each query's slowdown: the reference work's time just before and
        # just after it, against nominal.
        speed.append((len(queries), reference.chunk()))
        result["slowdown"] = []
        for (start, before), (end, after) in zip(speed, speed[1:]):
            result["slowdown"] += [(before + after) / 2 / reference.NOMINAL_S] * (end - start)
        if spans:
            Path(spans).parent.mkdir(exist_ok=True)
            tracer.write_spans(spans, len(tracer.start))
    return result


def _report(n: int, q, what: str) -> None:
    import workloads as W

    if n <= MAX_REPORTED_FAILURES:
        print(f"bench: {q.label}: {what}: {W.describe(q)}", file=sys.stderr)


def _per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ------------------------------------------------------------- several workloads


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload in a fresh interpreter; echoes its report."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    proc = subprocess.run(_self_cmd(*args), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S + 10)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"bench: {workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    return json.loads(lines[-1])


def run_all(names, seed, seconds, trace, smoke) -> dict:
    results = {}
    for w in names:
        print(f"== {w}")
        results[w] = run_child(w, seed, seconds, trace, smoke)
        r = results[w]
        print(f"  correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    return results


def run_repeat(names, seed, seconds, repeat, smoke) -> dict:
    """Each workload ``repeat`` times on seeds seed, seed+1, ...; per end-to-end
    metric the median, the quartiles and their distance as a share of the
    median, which is what the bounds in BENCHMARK.json are set against."""
    summary = {}
    for w in names:
        runs = [run_child(w, seed + i, seconds, False, smoke) for i in range(repeat)]
        summary[w] = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                      "correct": all(r["correct"] for r in runs)}
        print(f"== {w}: {repeat} runs, failed share {summary[w]['failed_share']}")
        for name, unit in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    return summary


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this workload only")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload, on successive seeds")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one short round")
    ap.add_argument("--round", metavar="DIGEST", help=argparse.SUPPRESS)
    ap.add_argument("--spans", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_checkout()
    import workloads as W

    if args.workload is not None and args.workload not in W.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(W.WORKLOADS)}")
    if args.round:
        if args.workload is None:
            ap.error("--round needs --workload")
        return print(json.dumps(run_round(args.workload, args.seed, bool(args.trace), args.smoke,
                                          args.round, args.spans)))
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = [args.workload] if args.workload else list(W.WORKLOADS)
    if args.repeat:
        result = run_repeat(names, args.seed, seconds, args.repeat, args.smoke)
    elif args.workload:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    else:
        result = run_all(names, args.seed, seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
