"""Symbolic one-step transition enumeration for the late transition system.

Each successor is a triple (theta, action, continuation): theta is the most
general eigenvariable substitution under which the step exists, and bound
continuations are one-binder-deep terms.

The paper's clauses for free and bound transitions have the same shape, so
``_moves`` gives both lists of a term in one pass, one rule per constructor.
Prefixes make their one move; a match moves as its continuation under the
unifier of its names; a sum moves as either summand.  Restriction opens its
body at a fresh nabla level one above the current depth and re-abstracts it
in the result, so transitions never leak new levels; a free output of the
fresh name on another channel becomes a bound output.  Parallel composition
moves one side beside the other (``_beside``), and lets an input of either
side communicate with an output of the other (``_communicate``: com for a
free output, close for a bound one).  Replication ``!q`` uses the same two:
a move of one copy of ``q``, or a communication between two copies, beside
``!q``.

``successors_free`` and ``successors_bound`` read one deduplicated pass,
``_successors``, through a one-entry memo keyed by the term and the depth.
Every caller asks for the free and then the bound list of the same term
object (``tabled_successors``, ``lts_graph``, ``has_no_transition``), so the
pair costs one pass: the 2,440 calls that a ``wide`` benchmark round (seed 1)
makes to the two take 1,220 passes, which apply 3,700 rules, one per node
visited.  The memo compares terms by identity, so it never hashes one: keyed
by equality, it hashed every one-shot query's term, which nothing else does,
and made the median ``random-mix`` query 7% slower.  The entry is replaced
whole, so a concurrent caller can only miss.  The returned lists are shared
and must not be mutated.

A caller that asks for the same term repeatedly keeps a table of the results
and reads it through ``tabled_successors``: the bisimulation game keeps one
for the duration of a game, a satisfaction check one for the duration of the
check, and the check of a distinguishing formula and the replay of a
refutation witness read the table of the game that decided.  Such a replay
checks the game over these lists, not the lists themselves.
"""

from __future__ import annotations

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
    _Table,
    _record,
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


@_record
class Transition:
    """One symbolic step: under ``theta`` the process does ``action`` and
    continues as ``cont``."""

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


# The last term asked for, its depth and its deduplicated successors.
_last: tuple = (None, None, None)


def _successors(p: Process, depth: int) -> tuple[list[Transition], list[Transition]]:
    global _last
    term, d, pair = _last
    if term is not p or d != depth:
        free, bound = _moves(p, depth)
        pair = _dedup(free), _dedup(bound)
        _last = (p, depth, pair)
    return pair


def successors_free(p: Process, depth: int | None = None) -> list[Transition]:
    return _successors(p, infer_depth(p) if depth is None else depth)[0]


def successors_bound(p: Process, depth: int | None = None) -> list[Transition]:
    return _successors(p, infer_depth(p) if depth is None else depth)[1]


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
    channel.  Each side is ``(inputs, other, moves, swapped)``: one process's
    bound successors, the process beside it, and that process's free and
    bound successors at ``depth``, recomputed once per input whose unifier
    is not the identity.  A bound output's name is restricted over both
    continuations (close); a free output's object is applied to the input's
    abstraction (com).  Closes come first, then coms, each side in turn; the
    input's continuation stands left of the output's, right when
    ``swapped``."""
    partners = [
        (swapped, [(ti, moves if ti.theta.is_identity() else _moves(ti.theta(other), depth))
                   for ti in inputs if isinstance(ti.action, BoundIn)])
        for inputs, other, moves, swapped in sides
    ]
    out = []
    for kind, which in ((BoundOut, 1), (FreeOut, 0)):
        for swapped, pairs in partners:
            for ti, moves in pairs:
                for to in moves[which]:
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


def _moves(p: Process, depth: int) -> tuple[list[Transition], list[Transition]]:
    """The free and bound successors of ``p`` at ``depth``, in one pass and
    before deduplication."""
    return _RULES[type(p)](p, depth)


def _match_rule(p, depth):
    rho = unify_names(p.left, p.right)
    if rho is None:
        return [], []
    cont = rho(p.cont)
    free, bound = _RULES[type(cont)](cont, depth)
    return _compose_all(free, rho), _compose_all(bound, rho)


def _sum_rule(p, depth):
    left, right = p.left, p.right
    free_l, bound_l = _RULES[type(left)](left, depth)
    free_r, bound_r = _RULES[type(right)](right, depth)
    return free_l + free_r, bound_l + bound_r


def _par_rule(p, depth):
    left, right = p.left, p.right
    moves_l, moves_r = _RULES[type(left)](left, depth), _RULES[type(right)](right, depth)
    (free_l, bound_l), (free_r, bound_r) = moves_l, moves_r
    coms = _communicate([(bound_l, right, moves_r, False),
                         (bound_r, left, moves_l, True)], depth)
    return (_beside(free_l, right) + _beside(free_r, left, swapped=True) + coms,
            _beside(bound_l, right) + _beside(bound_r, left, swapped=True))


def _nu_rule(p, depth):
    fresh = Nabla(depth + 1)
    body = open_abs(p.body, fresh)
    free, bound = _RULES[type(body)](body, depth + 1)
    nu_free, opened = [], []
    for t in free:
        action = t.action
        if type(action) is FreeOut and action.obj == fresh and action.ch != fresh:
            # extrusion of the restricted name is a bound output
            opened.append(Transition(t.theta, BoundOut(action.ch), close_abs(t.cont, fresh)))
        elif fresh not in free_names(action):
            nu_free.append(Transition(t.theta, action, Nu(close_abs(t.cont, fresh))))
    nu_bound = [Transition(t.theta, t.action, Nu(close_abs(t.cont, fresh)))
                for t in bound
                if t.action.ch != fresh]  # the restricted channel cannot be observed
    return nu_free, nu_bound + opened


def _bang_rule(p, depth):
    # one copy of the body moves, or two copies communicate, beside p
    q = p.cont
    free, bound = moves = _RULES[type(q)](q, depth)
    selfcom = _communicate([(bound, q, moves, True)], depth)
    return _beside(free, p) + _beside(selfcom, p), _beside(bound, p)


_RULES = _Table("a process", {
    Nil: lambda p, depth: ([], []),
    TauPref: lambda p, depth: ([Transition(IDENTITY, TAU, p.cont)], []),
    Out: lambda p, depth: ([Transition(IDENTITY, FreeOut(p.ch, p.obj), p.cont)], []),
    In: lambda p, depth: ([], [Transition(IDENTITY, BoundIn(p.ch), p.body)]),
    Match: _match_rule, Sum: _sum_rule, Par: _par_rule, Nu: _nu_rule, Bang: _bang_rule,
})


def has_no_transition(p: Process, depth: int | None = None) -> bool:
    return not successors_free(p, depth) and not successors_bound(p, depth)


# ----------------------------------------------------------------------- LTS graphs


@_record
class Edge:
    src: int
    dst: int
    action: Action
    theta: Subst
    instance: object  # Name instantiating a bound action's binder, or None


@_record
class Graph:
    states: tuple[Process, ...]
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
    queue = [p]  # every state found, each expanded once in order
    for src in queue:
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
    return Graph(tuple(states), tuple(edges))


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
