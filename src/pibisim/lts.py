"""Symbolic one-step transition enumeration for the late transition system.

Each successor is a triple (theta, action, continuation): theta is the most
general eigenvariable substitution under which the step exists, and bound
continuations are one-binder-deep terms.

The paper's clauses for free and bound transitions are ``_free`` and
``_bound``, one case per constructor.  Prefixes make their one move; a match
moves as its continuation under the unifier of its names; a sum moves as
either summand.  Restriction opens its body at a fresh nabla level one above
the current depth and re-abstracts it in the result, so transitions never
leak new levels; in ``_bound`` it also turns an output of the fresh name into
a bound output.  Parallel composition moves one side beside the other
(``_beside``), and in ``_free`` also lets an input of either side
communicate with an output of the other (``_communicate``: com for a free
output, close for a bound one).  Replication ``!q`` uses the same two: a
move of one copy of ``q``, or a communication between two copies, beside
``!q``.

The functions here keep no state: every call recomputes the successors of its
term, computing each parallel operand's free and bound successors once per
call.  A caller that asks for the same term repeatedly keeps a table of the
results and reads it through ``tabled_successors``: the bisimulation game
keeps one for the duration of a game, a satisfaction check one for the
duration of the check, and the check of a distinguishing formula reads the
table of the game that built it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .syntax import (
    Action,
    Bang,
    BoundIn,
    BoundOut,
    Eigen,
    FreeOut,
    In,
    Match,
    Nabla,
    Nil,
    Nu,
    Out,
    Par,
    Prefix,
    Process,
    Sum,
    TAU,
    TauPref,
    free_names,
    close_abs,
    open_abs,
    pretty,
    pretty_action,
    pretty_name,
)
from .unify import IDENTITY, Subst, compose, pretty_subst, unify_names


class StateBudgetExceeded(Exception):
    def __init__(self, max_states: int):
        self.max_states = max_states
        super().__init__(f"state budget of {max_states} exceeded")


@dataclass(frozen=True, slots=True)
class Transition:
    theta: Subst
    action: Action
    cont: Process  # free actions: closed at source depth; bound: one binder deep

    @property
    def is_bound(self) -> bool:
        return isinstance(self.action, (BoundIn, BoundOut))


def infer_depth(p: Process) -> int:
    return max(
        (n.level if isinstance(n, Nabla) else n.ceiling
         for n in free_names(p) if isinstance(n, (Nabla, Eigen))),
        default=0,
    )


def _dedup(transitions: list[Transition]) -> list[Transition]:
    if len(transitions) < 2:
        return transitions  # most lists: nothing to drop, so no term to hash
    seen = set()
    out = []
    for t in transitions:
        key = (t.theta.bindings, t.action, t.cont)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def successors_free(p: Process, depth: int | None = None) -> list[Transition]:
    if depth is None:
        depth = infer_depth(p)
    return _dedup(_free(p, depth))


def successors_bound(p: Process, depth: int | None = None) -> list[Transition]:
    if depth is None:
        depth = infer_depth(p)
    return _dedup(_bound(p, depth))


def tabled_successors(
    p: Process, depth: int, table: dict
) -> tuple[list[Transition], list[Transition]]:
    """The free and bound successors of ``p`` at ``depth``, read through
    ``table``, which maps ``(term, depth)`` to that pair and is filled on a
    miss."""
    key = (p, depth)
    hit = table.get(key)
    if hit is None:
        hit = table[key] = (successors_free(p, depth), successors_bound(p, depth))
    return hit


def _compose_all(ts: list[Transition], rho: Subst) -> list[Transition]:
    return [Transition(compose(t.theta, rho), t.action, t.cont) for t in ts]


def _beside(ts: list[Transition], other: Process, swapped: bool = False) -> list[Transition]:
    """Each move of ``ts`` with ``other``, under the move's unifier, in
    parallel: to the right of the continuation, or to its left when
    ``swapped``."""
    out = []
    for t in ts:
        pair = Par(t.theta(other), t.cont) if swapped else Par(t.cont, t.theta(other))
        out.append(Transition(t.theta, t.action, pair))
    return out


def _communicate(sides: list[tuple], depth: int) -> list[Transition]:
    """The tau moves in which a bound input meets an output on the same
    channel.  Each side is ``(inputs, other, free, bound, swapped)``: one
    process's bound successors, the process beside it, and that process's
    free and bound successors at ``depth``, recomputed under an input's
    unifier that is not the identity.  A bound output's name is restricted
    over both continuations (close); a free output's object is applied to
    the input's abstraction (com).  Closes come first, then coms, each side
    in turn; the input's continuation stands left of the output's, right
    when ``swapped``."""
    out = []
    for kind in (BoundOut, FreeOut):
        for inputs, other, free, bound, swapped in sides:
            known, moves = (bound, _bound) if kind is BoundOut else (free, _free)
            for ti in inputs:
                if not isinstance(ti.action, BoundIn):
                    continue
                outputs = known if ti.theta.is_identity() else moves(ti.theta(other), depth)
                for to in outputs:
                    if not isinstance(to.action, kind):
                        continue
                    rho = unify_names(to.theta.name(ti.action.ch), to.action.ch)
                    if rho is None:
                        continue
                    theta = compose(rho, compose(to.theta, ti.theta))
                    got, sent = rho(to.theta(ti.cont)), rho(to.cont)
                    if kind is FreeOut:
                        got = open_abs(got, rho.name(to.action.obj))
                    pair = Par(sent, got) if swapped else Par(got, sent)
                    out.append(Transition(theta, TAU, Nu(pair) if kind is BoundOut else pair))
    return out


def _free(p: Process, depth: int) -> list[Transition]:
    out: list[Transition] = []
    match p:
        case Nil() | In(_, _):
            pass
        case TauPref(cont):
            out.append(Transition(IDENTITY, TAU, cont))
        case Out(ch, obj, cont):
            out.append(Transition(IDENTITY, FreeOut(ch, obj), cont))
        case Match(a, b, cont):
            rho = unify_names(a, b)
            if rho is not None:
                out.extend(_compose_all(_free(rho(cont), depth), rho))
        case Sum(left, right):
            out.extend(_free(left, depth))
            out.extend(_free(right, depth))
        case Par(left, right):
            free_l, bound_l = _free(left, depth), _bound(left, depth)
            free_r, bound_r = _free(right, depth), _bound(right, depth)
            out.extend(_beside(free_l, right))
            out.extend(_beside(free_r, left, swapped=True))
            out.extend(_communicate([(bound_l, right, free_r, bound_r, False),
                                     (bound_r, left, free_l, bound_l, True)], depth))
        case Nu(body):
            fresh = Nabla(depth + 1)
            for t in _free(open_abs(body, fresh), depth + 1):
                if fresh in free_names(t.action):
                    continue  # extrusion of the restricted name is a bound action
                out.append(Transition(t.theta, t.action, Nu(close_abs(t.cont, fresh))))
        case Bang(q):
            # one copy of the body moves, or two copies communicate, beside p
            free, bound = _free(q, depth), _bound(q, depth)
            out.extend(_beside(free, p))
            out.extend(_beside(_communicate([(bound, q, free, bound, True)], depth), p))
        case _:
            raise TypeError(f"not a process: {p!r}")
    return out


def _bound(p: Process, depth: int) -> list[Transition]:
    out: list[Transition] = []
    match p:
        case Nil() | TauPref(_) | Out(_, _, _):
            pass
        case In(ch, body):
            out.append(Transition(IDENTITY, BoundIn(ch), body))
        case Match(a, b, cont):
            rho = unify_names(a, b)
            if rho is not None:
                out.extend(_compose_all(_bound(rho(cont), depth), rho))
        case Sum(left, right):
            out.extend(_bound(left, depth))
            out.extend(_bound(right, depth))
        case Par(left, right):
            out.extend(_beside(_bound(left, depth), right))
            out.extend(_beside(_bound(right, depth), left, swapped=True))
        case Nu(body):
            fresh = Nabla(depth + 1)
            opened = open_abs(body, fresh)
            for t in _bound(opened, depth + 1):
                if t.action.ch == fresh:
                    continue  # the restricted channel cannot be observed
                out.append(
                    Transition(t.theta, t.action, Nu(close_abs(t.cont, fresh)))
                )
            for t in _free(opened, depth + 1):
                match t.action:
                    case FreeOut(ch, obj) if obj == fresh and ch != fresh:
                        out.append(
                            Transition(t.theta, BoundOut(ch), close_abs(t.cont, fresh))
                        )
        case Bang(q):
            out.extend(_beside(_bound(q, depth), p))
        case _:
            raise TypeError(f"not a process: {p!r}")
    return out


def has_no_transition(p: Process, depth: int | None = None) -> bool:
    return not successors_free(p, depth) and not successors_bound(p, depth)


# ----------------------------------------------------------------------- LTS graphs


@dataclass(frozen=True, slots=True)
class Edge:
    src: int
    dst: int
    action: Action
    theta: Subst
    instance: object  # Name instantiating a bound action's binder, or None


@dataclass(frozen=True, slots=True)
class Graph:
    states: tuple[Process, ...]
    depths: tuple[int, ...]
    edges: tuple[Edge, ...]


def lts_graph(p: Process, max_states: int, depth: int | None = None) -> Graph:
    """Breadth-first closure of the successor relation.  Bound inputs are
    instantiated at every nabla level in scope plus one fresh level; bound
    outputs at one fresh level, so states are processes."""
    if depth is None:
        depth = infer_depth(p)
    states: dict[Process, int] = {p: 0}
    depths: list[int] = [depth]
    edges: list[Edge] = []
    queue = deque([p])
    while queue:
        src = queue.popleft()
        si = states[src]
        d = depths[si]

        def register(dst: Process, dst_depth: int) -> int:
            if dst in states:
                return states[dst]
            if len(states) >= max_states:
                raise StateBudgetExceeded(max_states)
            states[dst] = len(states)
            depths.append(dst_depth)
            queue.append(dst)
            return states[dst]

        for t in successors_free(src, d):
            di = register(t.cont, d)
            edges.append(Edge(si, di, t.action, t.theta, None))
        for t in successors_bound(src, d):
            if isinstance(t.action, BoundIn):
                candidates = [Nabla(l) for l in range(1, d + 2)]
            else:
                candidates = [Nabla(d + 1)]
            for w in candidates:
                dst_depth = max(d, w.level)
                di = register(open_abs(t.cont, w), dst_depth)
                edges.append(Edge(si, di, t.action, t.theta, w))
    return Graph(tuple(states), tuple(depths), tuple(edges))


def edge_label(e: Edge, prefix: Prefix = Prefix(())) -> str:
    shown = None if e.instance is None else pretty_name(e.instance, prefix)
    return f"{pretty_action(e.action, prefix, shown)} ; {pretty_subst(e.theta, prefix)}"


def to_dot(g: Graph, prefix: Prefix = Prefix(())) -> str:
    lines = ["digraph lts {", '  rankdir=LR;', '  node [shape=box, fontname="monospace"];']
    for i, s in enumerate(g.states):
        label = pretty(s, prefix).replace('"', '\\"')
        lines.append(f'  s{i} [label="{label}"];')
    for e in g.edges:
        label = edge_label(e, prefix).replace('"', '\\"')
        lines.append(f'  s{e.src} -> s{e.dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
