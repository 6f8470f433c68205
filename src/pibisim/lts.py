"""Symbolic one-step transition enumeration for the late transition system.

Each successor is a triple (theta, action, continuation): theta is the most
general eigenvariable substitution under which the step exists, and bound
continuations are one-binder-deep terms.  Restriction opens its body at a
fresh nabla level one above the current depth and re-abstracts it in the
result, so transitions never leak new levels.

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
    levels = [n.level for n in free_names(p) if isinstance(n, Nabla)]
    ceilings = [n.ceiling for n in free_names(p) if isinstance(n, Eigen)]
    return max(levels + ceilings + [0])


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
            free_l, free_r = _free(left, depth), _free(right, depth)
            bound_l, bound_r = _bound(left, depth), _bound(right, depth)
            for t in free_l:
                out.append(Transition(t.theta, t.action, Par(t.cont, t.theta(right))))
            for t in free_r:
                out.append(Transition(t.theta, t.action, Par(t.theta(left), t.cont)))
            out.extend(_close(bound_l, right, bound_r, depth, swapped=False))
            out.extend(_close(bound_r, left, bound_l, depth, swapped=True))
            out.extend(_com(bound_l, right, free_r, depth, swapped=False))
            out.extend(_com(bound_r, left, free_l, depth, swapped=True))
        case Nu(body):
            fresh = Nabla(depth + 1)
            for t in _free(open_abs(body, fresh), depth + 1):
                if fresh in free_names(t.action):
                    continue  # extrusion of the restricted name is a bound action
                out.append(Transition(t.theta, t.action, Nu(close_abs(t.cont, fresh))))
        case Bang(q):
            out.extend(_rep_free(p, q, depth))
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
            for t in _bound(left, depth):
                out.append(Transition(t.theta, t.action, Par(t.cont, t.theta(right))))
            for t in _bound(right, depth):
                out.append(Transition(t.theta, t.action, Par(t.theta(left), t.cont)))
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
                    case _:
                        pass
        case Bang(q):
            for t in _bound(q, depth):
                out.append(
                    Transition(t.theta, t.action, Par(t.cont, t.theta(Bang(q))))
                )
        case _:
            raise TypeError(f"not a process: {p!r}")
    return out


def _close(
    inputs: list[Transition],
    other: Process,
    other_bound: list[Transition],
    depth: int,
    swapped: bool,
) -> list[Transition]:
    """Pair a bound input of one side (``inputs``, that side's bound
    successors) with a bound output of ``other``; the result restricts the
    communicated name over both continuations.  ``other_bound`` is
    ``_bound(other, depth)``, reused when the input needs no substitution."""
    out = []
    for ti in inputs:
        if not isinstance(ti.action, BoundIn):
            continue
        outs = other_bound if ti.theta.is_identity() else _bound(ti.theta(other), depth)
        for to in outs:
            if not isinstance(to.action, BoundOut):
                continue
            rho = unify_names(to.theta.name(ti.action.ch), to.action.ch)
            if rho is None:
                continue
            theta = compose(rho, compose(to.theta, ti.theta))
            in_body = rho(to.theta(ti.cont))
            out_body = rho(to.cont)
            pair = (out_body, in_body) if swapped else (in_body, out_body)
            out.append(Transition(theta, TAU, Nu(Par(*pair))))
    return out


def _com(
    inputs: list[Transition],
    other: Process,
    other_free: list[Transition],
    depth: int,
    swapped: bool,
) -> list[Transition]:
    """Pair a bound input of one side with a free output of ``other``;
    ``other_free`` is ``_free(other, depth)``, reused as in ``_close``."""
    out = []
    for ti in inputs:
        if not isinstance(ti.action, BoundIn):
            continue
        frees = other_free if ti.theta.is_identity() else _free(ti.theta(other), depth)
        for tf in frees:
            if not isinstance(tf.action, FreeOut):
                continue
            rho = unify_names(tf.theta.name(ti.action.ch), tf.action.ch)
            if rho is None:
                continue
            theta = compose(rho, compose(tf.theta, ti.theta))
            obj = rho.name(tf.action.obj)
            applied = open_abs(rho(tf.theta(ti.cont)), obj)
            other_cont = rho(tf.cont)
            pair = (other_cont, applied) if swapped else (applied, other_cont)
            out.append(Transition(theta, TAU, Par(*pair)))
    return out


def _rep_free(whole: Process, q: Process, depth: int) -> list[Transition]:
    out = []
    # one free action of the body, in parallel with a fresh copy
    for t in _free(q, depth):
        out.append(Transition(t.theta, t.action, Par(t.cont, t.theta(whole))))
    # self-communication: free output meets bound input of another copy
    for tf in _free(q, depth):
        if not isinstance(tf.action, FreeOut):
            continue
        for ti in _bound(tf.theta(q), depth):
            if not isinstance(ti.action, BoundIn):
                continue
            rho = unify_names(ti.theta.name(tf.action.ch), ti.action.ch)
            if rho is None:
                continue
            theta = compose(rho, compose(ti.theta, tf.theta))
            obj = rho.name(ti.theta.name(tf.action.obj))
            left = Par(rho(ti.theta(tf.cont)), open_abs(rho(ti.cont), obj))
            out.append(Transition(theta, TAU, Par(left, theta(whole))))
    # self-communication with extrusion: bound output meets bound input
    for to in _bound(q, depth):
        if not isinstance(to.action, BoundOut):
            continue
        for ti in _bound(to.theta(q), depth):
            if not isinstance(ti.action, BoundIn):
                continue
            rho = unify_names(ti.theta.name(to.action.ch), ti.action.ch)
            if rho is None:
                continue
            theta = compose(rho, compose(ti.theta, to.theta))
            closed = Nu(Par(rho(ti.theta(to.cont)), rho(ti.cont)))
            out.append(Transition(theta, TAU, Par(closed, theta(whole))))
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
    from .syntax import pretty_name

    act = pretty_action(e.action, prefix)
    if e.instance is not None:
        shown = pretty_name(e.instance, prefix)
        act = act[: act.rindex("(")] + f"({shown})"
    return f"{act} ; {pretty_subst(e.theta, prefix)}"


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
