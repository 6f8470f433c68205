"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces pibisim's layer functions from outside: in the module
that defines each one and in every pibisim module that imported it by name
(``pibisim.bisim.successors_free``, ``pibisim.lts.unify_names``, ...), plus
the ``_Game`` methods.  ``restore`` puts the originals back.  Nothing under
``src/`` changes.

Each wrapped call inside a query records a span -- name, start, end, parent
span and query id -- in flat arrays that stay in memory until the run ends.
A direct recursive call of the same function (``_Game.check`` calling itself
through ``_defended``, ``sat_open_at`` descending a formula) is counted but
gets no span of its own.  A layer's self time is its spans' time minus the
time covered by their child spans; its busy time is the time covered by the
spans through which the layer was entered from another layer.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

from pibisim import bisim, lts, modal, syntax, unify

QUERY = "query"

# (span name, layer, owner, attribute); the owner is a module or a class.
FUNCTIONS = (
    ("parse_prefix", "syntax", syntax, "parse_prefix"),
    ("parse_process", "syntax", syntax, "parse_process"),
    ("encode", "syntax", syntax, "encode"),
    ("parse_formula", "syntax", modal, "parse_formula"),
    ("encode_formula", "syntax", modal, "encode_formula"),
    ("unify_names", "unify", unify, "unify_names"),
    ("compose", "unify", unify, "compose"),
    ("respects", "unify", unify, "respects"),
    ("successors_free", "lts", lts, "successors_free"),
    ("successors_bound", "lts", lts, "successors_bound"),
    ("check", "bisim.check", bisim._Game, "check"),
    ("canonical_key", "bisim.check", bisim, "canonical_key"),
    ("explain", "bisim.explain", bisim._Game, "explain"),
    ("verify_witness", "bisim.explain", bisim, "verify_witness"),
    ("distinguishing_formula", "bisim.synth", bisim, "distinguishing_formula"),
    ("build_left", "bisim.synth", bisim._Game, "build_left"),
    ("enumerate_separator", "bisim.synth", bisim._Game, "_enumerate_separator"),
    ("holds_left_only", "bisim.synth", bisim._Game, "_holds_left_only"),
    ("pretty_formula", "bisim.synth", modal, "pretty_formula"),
    ("sat_ground", "modal", modal, "sat_ground"),
    ("sat_open", "modal", modal, "sat_open"),
    ("sat_open_at", "modal", modal, "sat_open_at"),
)

LAYERS = ("syntax", "unify", "lts", "bisim.check", "bisim.explain", "bisim.synth", "modal")


def _pibisim_modules():
    return [m for name, m in sys.modules.items() if name == "pibisim" or name.startswith("pibisim.")]


class Tracer:
    def __init__(self):
        self.span_names = [QUERY]
        self.span_layers = [QUERY]
        self.kind = array("H")
        self.parent = array("l")
        self.query = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- installation

    def install(self) -> None:
        hooks = {
            "check": (lambda args: args[0].stats.goals, self._after_check),
            "successors_free": (None, self._after_successors),
            "successors_bound": (None, self._after_successors),
            "build_left": (None, lambda args, res, tok: self._count("synth.build_left_calls")),
            "enumerate_separator": (None, lambda args, res, tok: self._count("synth.fallbacks")),
            "holds_left_only": (None, self._after_holds),
            "pretty_formula": (None, self._after_pretty),
        }
        modules = _pibisim_modules()
        for name, layer, owner, attr in FUNCTIONS:
            original = getattr(owner, attr)
            sid = len(self.span_names)
            self.span_names.append(name)
            self.span_layers.append(layer)
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(sid, original, before, after)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, wrapper)
        self._patch(modal, "enumerate_lm", self._counting(modal.enumerate_lm))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, sid, fn, before, after):
        stack, kind, parent, query = self.stack, self.kind, self.parent, self.query
        start, end = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:  # outside a query: output checks, input set-up
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            top = stack[-1]
            if kind[top] == sid:
                result = fn(*args, **kwargs)
            else:
                idx = len(start)
                kind.append(sid)
                parent.append(top)
                query.append(query[top])
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def _counting(self, gen_fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if stack:
                    counts["synth.fallback_candidates"] += 1
                yield item

        return wrapper

    # ------------------------------------------------------------------ hooks

    def _count(self, key, n=1):
        self.counts[key] += n

    def _after_check(self, args, result, goals_before):
        self.counts["bisim.check_calls"] += 1
        if args[0].stats.goals == goals_before:  # no new goal: answered from the memo
            self.counts["bisim.memo_hits"] += 1

    def _after_successors(self, args, result, token):
        self.counts["lts.transitions"] += len(result)

    def _after_holds(self, args, result, token):
        self.counts["synth.verify_calls"] += 1
        if not result:
            self.counts["synth.verify_rejects"] += 1

    def _after_pretty(self, args, result, token):
        self.counts["synth.formula_chars"] += len(result)

    # ---------------------------------------------------------------- queries

    def begin_query(self, qid: int) -> None:
        self.kind.append(0)
        self.parent.append(-1)
        self.query.append(qid)
        self.end.append(0.0)
        self.stack.append(len(self.start))
        self.start.append(time.perf_counter())

    def end_query(self) -> None:
        self.end[self.stack.pop()] = time.perf_counter()

    def note_result(self, result: bisim.BisimResult) -> None:
        """Counters read from a finished query's result, outside its span."""
        self.counts["bisim.goals"] += result.stats.goals
        self.counts["bisim.branches"] += result.stats.branches
        if result.bisimilar:
            self.counts["bisim.certificate_goals"] += len(result.certificate)
        elif result.witness is not None:
            nodes, goals = 0, set()
            todo = [result.witness]
            while todo:
                node = todo.pop()
                nodes += 1
                goals.add(node.goal)
                todo.extend(r.child for r in node.replies)
            self.counts["explain.witness_nodes"] += nodes
            self.counts["explain.witness_goals"] += len(goals)

    # ---------------------------------------------------------------- results

    def fold(self) -> dict:
        """Per span name and per layer: spans, self time, busy time."""
        n = len(self.start)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        names = {s: {"spans": 0, "self_s": 0.0, "total_s": 0.0} for s in self.span_names}
        layers = {l: {"entries": 0, "self_s": 0.0, "busy_s": 0.0} for l in LAYERS + (QUERY,)}
        for i in range(n):
            dur = end[i] - start[i]
            name, layer = self.span_names[kind[i]], self.span_layers[kind[i]]
            rec = names[name]
            rec["spans"] += 1
            rec["self_s"] += dur - covered[i]
            rec["total_s"] += dur
            lrec = layers[layer]
            lrec["self_s"] += dur - covered[i]
            p = parent[i]
            if p < 0 or self.span_layers[kind[p]] != layer:
                lrec["entries"] += 1
                lrec["busy_s"] += dur
        return {"names": names, "layers": layers}

    def write_spans(self, path, count: int) -> None:
        """The first ``count`` spans, one tab-separated line each: id, name,
        parent, query, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tquery\tstart_s\tend_s\n")
            for i in range(count):
                fh.write(
                    f"{i}\t{self.span_names[self.kind[i]]}\t{self.parent[i]}\t{self.query[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def layer_metrics(tracer: Tracer, rounds: int, traced_wall_s: float) -> dict:
    """The per-layer metrics, per round of the workload's query list."""
    folded = tracer.fold()
    layers, names, c = folded["layers"], folded["names"], tracer.counts
    per = 1.0 / rounds
    checks = c["bisim.check_calls"]
    return {
        "syntax.calls": layers["syntax"]["entries"] * per,
        "syntax.busy_s": layers["syntax"]["busy_s"] * per,
        "unify.calls": layers["unify"]["entries"] * per,
        "unify.busy_s": layers["unify"]["busy_s"] * per,
        "lts.calls": layers["lts"]["entries"] * per,
        "lts.transitions": c["lts.transitions"] * per,
        "lts.self_s": layers["lts"]["self_s"] * per,
        "bisim.goals": c["bisim.goals"] * per,
        "bisim.branches": c["bisim.branches"] * per,
        "bisim.check_calls": c["bisim.check_calls"] * per,
        "bisim.memo_hit_ratio": c["bisim.memo_hits"] / checks if checks else 0.0,
        "bisim.canonical_key_s": names["canonical_key"]["total_s"] * per,
        "bisim.check_self_s": names["check"]["self_s"] * per,
        "bisim.certificate_goals": c["bisim.certificate_goals"] * per,
        "explain.calls": layers["bisim.explain"]["entries"] * per,
        "explain.witness_nodes": c["explain.witness_nodes"] * per,
        "explain.witness_goals": c["explain.witness_goals"] * per,
        "explain.self_s": layers["bisim.explain"]["self_s"] * per,
        "explain.verify_s": names["verify_witness"]["total_s"] * per,
        "synth.busy_s": layers["bisim.synth"]["busy_s"] * per,
        "synth.build_left_calls": c["synth.build_left_calls"] * per,
        "synth.fallbacks": c["synth.fallbacks"] * per,
        "synth.fallback_candidates": c["synth.fallback_candidates"] * per,
        "synth.verify_calls": c["synth.verify_calls"] * per,
        "synth.verify_rejects": c["synth.verify_rejects"] * per,
        "synth.formula_chars": c["synth.formula_chars"] * per,
        "modal.calls": layers["modal"]["entries"] * per,
        "modal.busy_s": layers["modal"]["busy_s"] * per,
        "trace.wall_s": traced_wall_s,
        "trace.layers_self_s": sum(layers[l]["self_s"] for l in LAYERS) * per,
    }
