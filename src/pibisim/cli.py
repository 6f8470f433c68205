"""Command-line front end.

Commands: ``parse`` (validate and echo the canonical form), ``steps``
(enumerate one-step transitions), ``lts`` (reachable transition graph, with
optional DOT export), ``bisim`` (open/late/early equivalence with witness or
certificate), ``check`` (modal assertion checking).

Exit codes: 0 affirmative verdict, 1 negative verdict, 2 usage or input
error, including input nested too deeply to process (one line starting with
``error:`` on stderr), 3 engine invariant failure (one line starting with
``internal error:`` on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import bisim as B
from . import lts as L
from . import modal as M
from . import syntax as S
from . import unify as U


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _at_least(least: int):
    """An argparse type for an integer no smaller than ``least``; any other
    text is a usage error."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="pibisim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--prefix", default="", help="quantifier prefix, e.g. 'forall x, nabla a'")
        sp.add_argument("--defs", help="file of process declarations 'name(params) := proc'")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("parse", help="validate a process and echo its canonical form")
    sp.add_argument("process")
    common(sp)
    sp.set_defaults(fn=_cmd_parse)

    sp = sub.add_parser("steps", help="enumerate one-step transitions")
    sp.add_argument("process")
    sp.add_argument("--bound", action="store_true", help="bound-action successors instead of free")
    common(sp)
    sp.set_defaults(fn=_cmd_steps)

    sp = sub.add_parser("lts", help="reachable transition graph")
    sp.add_argument("process")
    sp.add_argument("--max-states", type=_at_least(1), default=10000)
    sp.add_argument("--dot", metavar="FILE", help="write the graph in DOT format")
    common(sp)
    sp.set_defaults(fn=_cmd_lts)

    sp = sub.add_parser("bisim", help="decide bisimilarity")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--mode", choices=("open", "late", "early"), default="open")
    sp.add_argument("--distinct", default="", help="extra distinction pairs, e.g. 'a#b,c#d'")
    common(sp)
    sp.set_defaults(fn=_cmd_bisim)

    sp = sub.add_parser("check", help="check a modal assertion")
    sp.add_argument("process")
    sp.add_argument("formula")
    sp.add_argument("--mode", choices=("ground", "open"), default="ground")
    sp.add_argument(
        "--fresh", type=_at_least(0), default=None, help="override the fresh-name budget"
    )
    common(sp)
    sp.set_defaults(fn=_cmd_check)

    return parser


_INPUT_ERRORS = (
    S.ParseError,
    S.UnboundName,
    S.DuplicatePrefixName,
    ValueError,
    B.ReplicationUnsupported,
    B.WitnessMalformed,
    B.DepthBudgetExceeded,
    M.FormulaOutsideLM,
    L.StateBudgetExceeded,
    OSError,
)


# The status a shell reports for a process that SIGPIPE ended (128 + 13).
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that left early is met here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``): nothing is wrong with the
        # input, so say nothing, and send the unflushed rest to devnull so
        # that the interpreter's flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _INPUT_ERRORS as e:
        print(f"error: {_describe(e)}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply (maximum recursion depth exceeded)", file=sys.stderr)
        return 2
    except U.InternalError as e:
        print(f"internal error: {_describe(e)}", file=sys.stderr)
        return 3


def _describe(e: Exception) -> str:
    return str(e) or type(e).__name__


# ------------------------------------------------------------------- shared setup


def _load_defs(path: str | None) -> dict | None:
    if not path:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return S.parse_decls(fh.read())


def _prep(args, *texts: str):
    defs = _load_defs(args.defs)
    prefix = S.parse_prefix(args.prefix)
    surfaces = [S.parse_process(t, defs) for t in texts]
    prefix = S.extend_prefix_for_reserved(prefix, *surfaces)
    return prefix, [S.encode(p, prefix) for p in surfaces]


def _payload(command: str, verdict: bool, *, witness=None, certificate=None, stats=None, data=None):
    return {
        "command": command,
        "verdict": verdict,
        "witness": witness,
        "certificate": certificate,
        "stats": stats or {"goals": 0, "branches": 0, "time_ms": 0},
        "data": data,
    }


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        import json  # only --json needs it
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def _parse_distinct(text: str, prefix: S.Prefix) -> U.Distinction:
    text = text.strip()
    if not text:
        return U.EMPTY_DISTINCTION
    mapping = prefix.name_map()
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if "#" not in part:
            raise ValueError(f"bad distinction entry {part!r}; expected 'a#b'")
        a, b = (s.strip() for s in part.split("#", 1))
        for ident in (a, b):
            if ident not in mapping:
                raise ValueError(f"distinction name {ident!r} is not bound by the prefix")
        if a == b:
            raise ValueError(f"distinction pair must be irreflexive: {part!r}")
        pairs.append((mapping[a], mapping[b]))
    return U.Distinction.of(*pairs)


def _transition_line(t, prefix: S.Prefix) -> tuple[str, str, str]:
    theta_s = U.pretty_subst(t.theta, prefix)
    if t.is_bound:
        binder = S._Namer(prefix, t.cont).binder([])
        act = S.pretty_action(t.action, prefix, binder=binder)
        cont = S.pretty(S.open_abs(t.cont, S.Free(binder)), prefix)
    else:
        act = S.pretty_action(t.action, prefix)
        cont = S.pretty(t.cont, prefix)
    return theta_s, act, cont


# ----------------------------------------------------------------------- commands


def _cmd_parse(args) -> int:
    prefix, (p,) = _prep(args, args.process)
    text = S.pretty(p, prefix)
    _emit(args, _payload("parse", True, data={"pretty": text}), [text])
    return 0


def _cmd_steps(args) -> int:
    prefix, (p,) = _prep(args, args.process)
    depth = max(prefix.nabla_count, L.infer_depth(p))
    ts = list(L.successors_bound(p, depth) if args.bound else L.successors_free(p, depth))
    rows = [_transition_line(t, prefix) for t in ts]
    data = {
        "transitions": [
            {"theta": th, "action": act, "continuation": cont} for th, act, cont in rows
        ]
    }
    _emit(
        args,
        _payload("steps", bool(ts), data=data),
        [f"{th} ; {act} ; {cont}" for th, act, cont in rows],
    )
    return 0 if ts else 1


def _cmd_lts(args) -> int:
    prefix, (p,) = _prep(args, args.process)
    depth = max(prefix.nabla_count, L.infer_depth(p))
    g = L.lts_graph(p, max_states=args.max_states, depth=depth)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(L.to_dot(g, prefix))
    human = [f"{len(g.states)} states, {len(g.edges)} edges"]
    for e in g.edges:
        human.append(f"  {e.src} -> {e.dst} : {L.edge_label(e, prefix)}")
    data = {
        "states": [S.pretty(s, prefix) for s in g.states],
        "edges": [
            {"src": e.src, "dst": e.dst, "label": L.edge_label(e, prefix)} for e in g.edges
        ],
    }
    _emit(args, _payload("lts", True, data=data), human)
    return 0


def _goal_json(goal: B.Goal, prefix: S.Prefix) -> dict:
    return {
        "left": S.pretty(goal.left, prefix),
        "right": S.pretty(goal.right, prefix),
        "depth": goal.depth,
        "distinct": sorted(
            sorted([S.pretty_name(a, prefix), S.pretty_name(b, prefix)])
            for a, b in goal.distinct.pairs
        ),
    }


def _witness_json(res: B.BisimResult, prefix: S.Prefix):
    try:
        f, side = B.distinguishing_formula(res)
        formula_text = M.pretty_formula(f, prefix)
    except B.NoSeparator:
        formula_text = side = None
    binder = S._Namer(prefix).binder([])
    trace = []
    for node, reply in B.witness_mainline(res.witness):
        inst = node.instantiation or (reply.instantiation if reply else None)
        trace.append(
            {
                "side": node.side,
                "theta": U.pretty_subst(node.theta, prefix),
                "action": S.pretty_action(node.action, prefix, binder=binder),
                "instantiation": S.pretty_name(inst, prefix) if inst is not None else None,
                "attacker_index": node.attacker_index,
                "defender_count": len(node.replies),
                "chosen_continuation_index": reply.defender_index if reply else None,
            }
        )
    return {"trace": trace, "formula": formula_text, "formula_holds": side}


def _cmd_bisim(args) -> int:
    prefix, (left, right) = _prep(args, args.left, args.right)
    distinct = _parse_distinct(args.distinct, prefix)
    if args.mode in ("late", "early") and not prefix.is_all_nabla():
        raise ValueError(f"mode {args.mode!r} requires an all-nabla prefix")
    t0 = time.perf_counter()
    if args.mode == "open":
        res = B.open_bisim(left, right, prefix, distinct)
    elif args.mode == "late":
        res = B.late_bisim(left, right, depth=prefix.nabla_count, distinct=distinct)
    else:
        res = B.early_bisim(left, right, depth=prefix.nabla_count, distinct=distinct)
    ms = int((time.perf_counter() - t0) * 1000)
    stats = {"goals": res.stats.goals, "branches": res.stats.branches, "time_ms": ms}
    if res.bisimilar:
        cert = [_goal_json(g, prefix) for g in res.certificate]
        human = ["bisimilar", f"certificate: {len(cert)} goals"]
        _emit(args, _payload("bisim", True, certificate=cert, stats=stats), human)
        return 0
    wit = _witness_json(res, prefix)
    human = ["not bisimilar", "witness:"]
    for step in wit["trace"]:
        line = f"  {step['side']} attacks: {step['theta']} ; {step['action']}"
        if step["instantiation"]:
            line += f" ; name {step['instantiation']}"
        if step["chosen_continuation_index"] is None:
            line += " ; no defender reply"
        else:
            line += (
                f" ; defender {step['chosen_continuation_index']}"
                f" of {step['defender_count']}"
            )
        human.append(line)
    human.append(f"formula: {wit['formula'] or '(none by construction in the open sublogic)'}")
    if wit["formula_holds"]:
        human.append(f"holds on: {wit['formula_holds']}")
    _emit(args, _payload("bisim", False, witness=wit, stats=stats), human)
    return 1


def _cmd_check(args) -> int:
    if args.mode == "open" and args.fresh is not None:
        raise ValueError("--fresh applies only to ground mode")
    prefix, (p,) = _prep(args, args.process)
    f = M.encode_formula(M.parse_formula(args.formula), prefix)
    t0 = time.perf_counter()
    if args.mode == "open":
        ok = M.sat_open(p, f, prefix)
        budget = None
    else:
        if not prefix.is_all_nabla():
            raise ValueError("ground mode requires an all-nabla prefix")
        ok = M.sat_ground(p, f, extra_names=args.fresh, depth=prefix.nabla_count)
        budget = args.fresh if args.fresh is not None else M.fresh_budget(f)
    ms = int((time.perf_counter() - t0) * 1000)
    stats = {"goals": 0, "branches": 0, "time_ms": ms}
    data = {"mode": args.mode, "budget": budget}
    _emit(
        args,
        _payload("check", ok, stats=stats, data=data),
        ["satisfied" if ok else "not satisfied"],
    )
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
