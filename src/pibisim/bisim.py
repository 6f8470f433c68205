"""Bisimilarity games over symbolic transitions.

Three deciders share one engine.  ``open`` plays the substitution-closed game:
an attacker move is any symbolic transition whose substitution respects the
current distinction, the defender must answer with an identity-substitution
transition of the instantiated opponent carrying exactly the same action, and
bound inputs continue at a fresh eigenvariable (capped at the current nabla
depth).  ``late`` and ``early`` play the classical games over an all-nabla
prefix, where a bound input is split over the scoped constants in scope plus
one strictly fresh constant; they differ only in whether the defender commits
to a continuation before or after the received name is chosen.

The game is played up to structural congruence.  Moves, witnesses and
formulas are computed on the raw terms, but each goal is memoised under the
normal forms of its two sides (``syntax.normal_form``, cached per game), and a
goal whose two normal forms are equal holds at once: congruent processes are
bisimilar in every mode and under every substitution.  So goals that differ
only in the order of parallel components, ``0`` operands, repeated summands or
unused restrictions share one memo entry, and the certificate of a positive
verdict is a bisimulation up to congruence, which ``verify_certificate``
checks in a fresh game.  Memo keys rename eigenvariables only when they are
not already numbered by first occurrence.

Each game tables the successors of every (term, depth) it meets, so a term
reaches ``lts`` once per game however often it attacks or defends; the table
lives and dies with the game.

On refutation the engine extracts the winning attacker strategy as a witness:
a DAG with one node object per refuted goal, shared wherever a goal repeats.
``verify_witness`` replays it structurally, move by move, in a fresh game that
only enumerates moves and never decides a goal, and replays each node once.
The distinguishing formula is folded from the same nodes, one modality per
node, and machine-checked against both processes before it is returned; that
check reads successors from the game's own table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from . import modal as M
from .lts import Transition, infer_depth, tabled_successors
from .syntax import (
    Action,
    BoundIn,
    BoundOut,
    Eigen,
    Free,
    FreeOut,
    Nabla,
    Name,
    Prefix,
    Process,
    Tau,
    contains_bang,
    map_names,
    max_eigen_id,
    normal_form,
    open_abs,
    walk_names,
)
from .unify import (
    Distinction,
    EMPTY_DISTINCTION,
    InternalError,
    Subst,
    respects,
)


class ReplicationUnsupported(Exception):
    def __init__(self):
        super().__init__("bisimilarity games require replication-free processes")


class WitnessMalformed(Exception):
    pass


class DepthBudgetExceeded(Exception):
    def __init__(self, max_depth: int):
        self.max_depth = max_depth
        super().__init__(f"game exceeded the requested depth budget {max_depth}")


@dataclass
class Stats:
    goals: int = 0
    branches: int = 0


@dataclass(frozen=True, slots=True)
class Goal:
    """One game position: the processes, the nabla depth, the next unused
    eigenvariable id, and the distinctions the attacker must respect."""

    depth: int
    next_eigen: int
    distinct: Distinction
    left: Process
    right: Process

    def mirrored(self) -> "Goal":
        return Goal(self.depth, self.next_eigen, self.distinct, self.right, self.left)


@dataclass(frozen=True, slots=True)
class Reply:
    defender_index: int
    instantiation: Name | None  # per-defender received name (late ground input)
    child: "FailNode"


@dataclass(frozen=True, slots=True)
class FailNode:
    """A winning attacker move: every defender reply leads to a refuted goal."""

    goal: Goal
    side: str  # which process attacks: "left" | "right"
    attacker_index: int  # into the concatenated free+bound successor list
    theta: Subst
    action: Action
    instantiation: Name | None  # shared received/extruded name, if any
    replies: tuple[Reply, ...]


def _pair_key(pair):
    def k(n: Name):
        return (0, n.level, 0) if isinstance(n, Nabla) else (1, n.id, n.ceiling)

    a, b = pair
    return (k(a), k(b))


def canonical_key(goal: Goal):
    """Alpha-canonical form of a goal: eigenvariables renumbered by first
    occurrence so memoized verdicts transfer between alpha-variants."""
    order: list[Eigen] = []
    seen: set[int] = set()

    def note(n, _d):
        if isinstance(n, Eigen) and n.id not in seen:
            seen.add(n.id)
            order.append(n)

    walk_names(goal.left, note)
    walk_names(goal.right, note)
    for a, b in sorted(goal.distinct.pairs, key=_pair_key):
        note(a, 0)
        note(b, 0)
    if all(e.id == i + 1 for i, e in enumerate(order)):
        # The renaming is the identity, and Distinction already stores each
        # pair in _pair_key order, so the renamed goal is the goal itself.
        return (goal.depth, goal.left, goal.right, goal.distinct.pairs)
    ren = {e.id: Eigen(i + 1, e.ceiling) for i, e in enumerate(order)}

    def sub(n, _d):
        return ren[n.id] if isinstance(n, Eigen) else n

    pairs = frozenset(
        tuple(sorted(((sub(a, 0), sub(b, 0))), key=lambda n: _pair_key((n, n))))
        for a, b in goal.distinct.pairs
    )
    return (goal.depth, map_names(goal.left, sub), map_names(goal.right, sub), pairs)


def _ground_inputs(depth: int) -> list[Nabla]:
    return [Nabla(l) for l in range(1, depth + 2)]


class _Game:
    def __init__(self, mode: str, clause_style: str = "late", max_depth: int | None = None):
        if mode not in ("open", "late", "early"):
            raise ValueError(f"unknown mode {mode!r}")
        if clause_style not in ("late", "early"):
            raise ValueError(f"unknown clause style {clause_style!r}")
        self.mode = mode
        self.clause_style = clause_style
        self.max_depth = max_depth
        self.stats = Stats()
        self.memo: dict = {}
        self.fmemo: dict = {}
        self.wmemo: dict[Goal, FailNode] = {}  # explain: one witness node per goal
        self.replayed: dict[int, FailNode] = {}  # verify_node: nodes accepted, by identity
        self.cert: list[Goal] = []
        # (term, depth) -> (free successors, bound successors), for this game only
        self.table: dict[tuple[Process, int], tuple[list[Transition], list[Transition]]] = {}
        # term -> its normal form modulo structural congruence, for this game only
        self.nf: dict[Process, Process] = {}

    # ------------------------------------------------------------- the game

    def attacks(self, p: Process, depth: int) -> list[Transition]:
        free, bound = tabled_successors(p, depth, self.table)
        return free + bound

    def _defenders(self, q: Process, action: Action, depth: int) -> list[Transition]:
        free, bound = tabled_successors(q, depth, self.table)
        ts = free if isinstance(action, (Tau, FreeOut)) else bound
        return [t for t in ts if t.theta.is_identity() and t.action == action]

    def _normal_form(self, p: Process) -> Process:
        hit = self.nf.get(p)
        if hit is None:
            hit = self.nf[p] = normal_form(p)
        return hit

    def _normalised(self, goal: Goal) -> Goal:
        """The goal with both sides in normal form modulo congruence."""
        return Goal(
            goal.depth,
            goal.next_eigen,
            goal.distinct,
            self._normal_form(goal.left),
            self._normal_form(goal.right),
        )

    def check(self, goal: Goal) -> bool:
        if self.max_depth is not None and goal.depth > self.max_depth:
            raise DepthBudgetExceeded(self.max_depth)
        norm = self._normalised(goal)
        key = canonical_key(norm)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.stats.goals += 1
        congruent = norm.left == norm.right
        result = congruent or (self._side_holds(goal, "left") and self._side_holds(goal, "right"))
        self.memo[key] = result
        if result and not congruent:
            self.cert.append(goal)
        return result

    def _side_holds(self, goal: Goal, side: str) -> bool:
        p = goal.left if side == "left" else goal.right
        for t in self.attacks(p, goal.depth):
            self.stats.branches += 1
            if not respects(t.theta, goal.distinct):
                continue  # the induced world collapses a distinction: discharged
            if not self._defended(goal, side, t):
                return False
        return True

    def _pair(self, side: str, attacker_cont: Process, defender_cont: Process):
        if side == "left":
            return attacker_cont, defender_cont
        return defender_cont, attacker_cont

    def _instantiated_opponent(self, goal: Goal, side: str, t: Transition) -> Process:
        q = goal.right if side == "left" else goal.left
        return t.theta(q)

    def _child(
        self,
        goal: Goal,
        side: str,
        t: Transition,
        d: Transition,
        w: Name | None,
        depth: int,
        next_eigen: int,
        d2: Distinction,
    ) -> Goal:
        if w is None:
            a_cont, d_cont = t.cont, d.cont
        else:
            a_cont, d_cont = open_abs(t.cont, w), open_abs(d.cont, w)
        l, r = self._pair(side, a_cont, d_cont)
        return Goal(depth, next_eigen, d2, l, r)

    def _defended(self, goal: Goal, side: str, t: Transition) -> bool:
        d2 = goal.distinct.apply(t.theta)
        q = self._instantiated_opponent(goal, side, t)
        dfs = self._defenders(q, t.action, goal.depth)
        act = t.action
        if isinstance(act, (Tau, FreeOut)):
            return any(
                self.check(self._child(goal, side, t, d, None, goal.depth, goal.next_eigen, d2))
                for d in dfs
            )
        if isinstance(act, BoundOut):
            w = Nabla(goal.depth + 1)
            return any(
                self.check(self._child(goal, side, t, d, w, goal.depth + 1, goal.next_eigen, d2))
                for d in dfs
            )
        # bound input
        if self.mode == "open":
            w = Eigen(goal.next_eigen, goal.depth)
            ne = goal.next_eigen + 1
            return any(
                self.check(self._child(goal, side, t, d, w, goal.depth, ne, d2)) for d in dfs
            )
        cands = _ground_inputs(goal.depth)
        if self.mode == "late":
            return any(
                all(
                    self.check(
                        self._child(goal, side, t, d, w, max(goal.depth, w.level), goal.next_eigen, d2)
                    )
                    for w in cands
                )
                for d in dfs
            )
        # early: the received name is chosen before the defender commits
        return all(
            any(
                self.check(
                    self._child(goal, side, t, d, w, max(goal.depth, w.level), goal.next_eigen, d2)
                )
                for d in dfs
            )
            for w in cands
        )

    # ------------------------------------------------------ witness extraction

    def _winning_attacks(self, goal: Goal, side: str = "left", start: int = 0):
        """The attacks from ``goal`` that the defender cannot answer, left side
        first, beginning at attack ``start`` of ``side``."""
        for s in ("left", "right") if side == "left" else ("right",):
            ats = self.attacks(goal.left if s == "left" else goal.right, goal.depth)
            for idx in range(start if s == side else 0, len(ats)):
                t = ats[idx]
                if respects(t.theta, goal.distinct) and not self._defended(goal, s, t):
                    yield s, idx, t

    def explain(self, goal: Goal) -> FailNode:
        """The first winning attack from a refuted goal, one node object per
        goal, so a witness shares the node of every goal that repeats."""
        node = self.wmemo.get(goal)
        if node is None:
            for side, idx, t in self._winning_attacks(goal):
                node = self.wmemo[goal] = self._fail_node(goal, side, idx, t)
                break
            else:
                raise InternalError("refuted goal has no winning attack")
        return node

    def _fail_node(self, goal: Goal, side: str, idx: int, t: Transition) -> FailNode:
        d2 = goal.distinct.apply(t.theta)
        q = self._instantiated_opponent(goal, side, t)
        dfs = self._defenders(q, t.action, goal.depth)
        act = t.action
        inst: Name | None = None
        replies: list[Reply] = []
        if isinstance(act, (Tau, FreeOut)):
            for i, d in enumerate(dfs):
                child = self._child(goal, side, t, d, None, goal.depth, goal.next_eigen, d2)
                replies.append(Reply(i, None, self.explain(child)))
        elif isinstance(act, BoundOut):
            inst = Nabla(goal.depth + 1)
            for i, d in enumerate(dfs):
                child = self._child(goal, side, t, d, inst, goal.depth + 1, goal.next_eigen, d2)
                replies.append(Reply(i, None, self.explain(child)))
        elif self.mode == "open":
            inst = Eigen(goal.next_eigen, goal.depth)
            for i, d in enumerate(dfs):
                child = self._child(goal, side, t, d, inst, goal.depth, goal.next_eigen + 1, d2)
                replies.append(Reply(i, None, self.explain(child)))
        elif self.mode == "late":
            for i, d in enumerate(dfs):
                w, child = self._late_failing_input(goal, side, t, d, d2)
                replies.append(Reply(i, w, self.explain(child)))
        else:  # early
            inst = self._early_failing_input(goal, side, t, dfs, d2)
            for i, d in enumerate(dfs):
                child = self._child(
                    goal, side, t, d, inst, max(goal.depth, inst.level), goal.next_eigen, d2
                )
                replies.append(Reply(i, None, self.explain(child)))
        return FailNode(goal, side, idx, t.theta, t.action, inst, tuple(replies))

    def _late_failing_input(self, goal, side, t, d, d2) -> tuple[Nabla, Goal]:
        for w in _ground_inputs(goal.depth):
            child = self._child(goal, side, t, d, w, max(goal.depth, w.level), goal.next_eigen, d2)
            if not self.check(child):
                return w, child
        raise InternalError("defender reported defeated but every received name works")

    def _early_failing_input(self, goal, side, t, dfs, d2) -> Nabla:
        for w in _ground_inputs(goal.depth):
            children = [
                self._child(goal, side, t, d, w, max(goal.depth, w.level), goal.next_eigen, d2)
                for d in dfs
            ]
            if not any(self.check(c) for c in children):
                return w
        raise InternalError("attack reported winning but every received name is answered")

    # ------------------------------------------------- strategy re-verification

    def verify_node(self, goal: Goal, node: FailNode) -> bool:
        """Whether ``node`` is a winning attack from ``goal``: its move and
        every defender reply are replayed down to the leaves, where the
        defender has no answer.  No goal is decided on the way, and a node
        already accepted at its own goal is not replayed again."""
        if node.goal != goal:
            return False
        if id(node) in self.replayed:
            return True
        p = goal.left if node.side == "left" else goal.right
        ats = self.attacks(p, goal.depth)
        if not (0 <= node.attacker_index < len(ats)):
            return False
        t = ats[node.attacker_index]
        if t.theta != node.theta or t.action != node.action:
            return False
        if not respects(t.theta, goal.distinct):
            return False
        d2 = goal.distinct.apply(t.theta)
        q = self._instantiated_opponent(goal, node.side, t)
        dfs = self._defenders(q, t.action, goal.depth)
        if [r.defender_index for r in node.replies] != list(range(len(dfs))):
            return False
        for reply, d in zip(node.replies, dfs):
            expected = self._expected_child(goal, node, t, d, reply, d2)
            if expected is None or not self.verify_node(expected, reply.child):
                return False
        self.replayed[id(node)] = node
        return True

    def _expected_child(self, goal, node, t, d, reply, d2) -> Goal | None:
        act = t.action
        if isinstance(act, (Tau, FreeOut)):
            return self._child(goal, node.side, t, d, None, goal.depth, goal.next_eigen, d2)
        if isinstance(act, BoundOut):
            if node.instantiation != Nabla(goal.depth + 1):
                return None
            return self._child(
                goal, node.side, t, d, node.instantiation, goal.depth + 1, goal.next_eigen, d2
            )
        if self.mode == "open":
            if node.instantiation != Eigen(goal.next_eigen, goal.depth):
                return None
            return self._child(
                goal, node.side, t, d, node.instantiation, goal.depth, goal.next_eigen + 1, d2
            )
        w = reply.instantiation if self.mode == "late" else node.instantiation
        if not isinstance(w, Nabla) or not 1 <= w.level <= goal.depth + 1:
            return None
        return self._child(
            goal, node.side, t, d, w, max(goal.depth, w.level), goal.next_eigen, d2
        )

    # ------------------------------------------------- distinguishing formulas

    def build_left(self, goal: Goal) -> M.Formula | None:
        """A formula true of goal.left and false of goal.right, or None if the
        goal is bisimilar (or, in open mode, if the search is exhausted)."""
        if goal in self.fmemo:
            return self.fmemo[goal]
        if self.check(goal):
            self.fmemo[goal] = None
            return None
        res = self._build_left(goal)
        self.fmemo[goal] = res
        return res

    def _build_left(self, goal: Goal) -> M.Formula | None:
        """Fold a formula from the goal's witness node.  Only in open mode can
        that fail; then each later winning attack is tried, then the search."""
        node = self.explain(goal)
        later = self._winning_attacks(goal, node.side, node.attacker_index + 1)
        for n in chain((node,), (self._fail_node(goal, *a) for a in later)):
            f = self._compose(n)
            if f is not None:
                return f
        if self.mode == "open":
            return self._enumerate_separator(goal)
        raise InternalError("formula composition failed in a ground mode")

    def _compose(self, node: FailNode) -> M.Formula | None:
        """The formula of a winning attack, read off its witness node: guards,
        then a diamond over the conjunction of the replies' formulas when the
        left process attacks, a box over their disjunction when the right one
        does.  In open mode a box is only kept if satisfaction checking
        confirms it."""
        left, act, w = node.side == "left", node.action, node.instantiation
        late = self.mode == "late" and isinstance(act, BoundIn)
        recv_guard = M.MatchBox if left else M.MatchDia
        subs = []
        for r in node.replies:
            h = self.build_left(r.child.goal)
            if h is None:
                return None
            subs.append(recv_guard(_RECV, r.instantiation, h) if late else h)
        body = _conj(subs) if left else _disj(subs)
        if isinstance(act, (Tau, FreeOut)):
            core = (M.FreeDia if left else M.FreeBox)(act, body)
        elif isinstance(act, BoundOut):
            core = (M.OutDia if left else M.OutBox)(act.ch, M.close_formula(body, w))
        elif self.mode == "open":
            core = (M.InDiaL if left else M.InBoxL)(act.ch, M.close_formula(body, w))
        elif late:
            core = (M.InDiaL if left else M.InBoxL)(act.ch, M.close_formula(body, _RECV))
        else:  # early
            core = (M.InDiaE if left else M.InBoxE)(
                act.ch, M.close_formula(recv_guard(_RECV, w, body), _RECV)
            )
        f = _guard(node.theta, core)
        if self.mode == "open" and not left and not self._holds_left_only(node.goal, f):
            return None
        return f

    def _holds_left_only(self, goal: Goal, f: M.Formula) -> bool:
        """Machine-check ``f`` on both sides, reading successors from this
        game's table, which already holds most of the terms the check meets."""
        d, ne, table = goal.depth, goal.next_eigen, self.table
        if self.mode == "open":
            return M.sat_open_at(goal.left, f, d, ne, table) and not M.sat_open_at(
                goal.right, f, d, ne, table
            )
        return M.sat_ground(goal.left, f, depth=d, table=table) and not M.sat_ground(
            goal.right, f, depth=d, table=table
        )

    _ENUM_CAP = 50_000

    def _enumerate_separator(self, goal: Goal) -> M.Formula | None:
        names: list[Name] = [Nabla(l) for l in range(1, goal.depth + 1)]
        seen: set[int] = set()

        def note(n, _d):
            if isinstance(n, Eigen) and n.id not in seen:
                seen.add(n.id)
                names.append(n)

        walk_names(goal.left, note)
        walk_names(goal.right, note)
        tried = 0
        for f in M.enumerate_lm(names, 3):
            tried += 1
            if tried > self._ENUM_CAP:
                return None
            if self._holds_left_only(goal, f):
                return f
        return None


_RECV = Free("\0recv")  # stands for the received name until the formula closes over it


def _conj(fs: list[M.Formula]) -> M.Formula:
    if not fs:
        return M.TRUE
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = M.And(f, out)
    return out


def _disj(fs: list[M.Formula]) -> M.Formula:
    if not fs:
        return M.FALSE
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = M.Or(f, out)
    return out


def _guard(theta: Subst, f: M.Formula) -> M.Formula:
    for var, val in reversed(theta.bindings):
        f = M.MatchBox(var, val, f)
    return f


# ------------------------------------------------------------------ entry points


@dataclass
class BisimResult:
    bisimilar: bool
    mode: str
    root: Goal
    # root first, then every goal explored and won; goals whose two sides are
    # congruent hold without a move and are left out
    certificate: tuple[Goal, ...] | None
    witness: FailNode | None
    stats: Stats
    game: _Game = field(repr=False)


def _check_inputs(left: Process, right: Process) -> None:
    if contains_bang(left) or contains_bang(right):
        raise ReplicationUnsupported()


def _run(mode: str, root: Goal, game: _Game) -> BisimResult:
    ok = game.check(root)
    if ok:
        cert = tuple([root] + [g for g in game.cert if g != root])
        return BisimResult(True, mode, root, cert, None, game.stats, game)
    return BisimResult(False, mode, root, None, game.explain(root), game.stats, game)


def open_bisim(
    left: Process,
    right: Process,
    prefix: Prefix = Prefix(()),
    distinct: Distinction = EMPTY_DISTINCTION,
    clause_style: str = "late",
    max_depth: int | None = None,
) -> BisimResult:
    _check_inputs(left, right)
    depth = max(prefix.nabla_count, infer_depth(left), infer_depth(right))
    ne = max(prefix.eigen_count, max_eigen_id(left), max_eigen_id(right)) + 1
    root = Goal(depth, ne, distinct, left, right)
    return _run("open", root, _Game("open", clause_style, max_depth))


def _ground_bisim(mode: str, left, right, depth, distinct, max_depth) -> BisimResult:
    _check_inputs(left, right)
    if max_eigen_id(left) or max_eigen_id(right):
        raise ValueError("ground modes require an all-nabla prefix")
    if depth is None:
        depth = max(infer_depth(left), infer_depth(right))
    root = Goal(depth, 1, distinct, left, right)
    return _run(mode, root, _Game(mode, max_depth=max_depth))


def late_bisim(
    left: Process,
    right: Process,
    depth: int | None = None,
    distinct: Distinction = EMPTY_DISTINCTION,
    max_depth: int | None = None,
) -> BisimResult:
    return _ground_bisim("late", left, right, depth, distinct, max_depth)


def early_bisim(
    left: Process,
    right: Process,
    depth: int | None = None,
    distinct: Distinction = EMPTY_DISTINCTION,
    max_depth: int | None = None,
) -> BisimResult:
    return _ground_bisim("early", left, right, depth, distinct, max_depth)


def distinguishing_formula(result: BisimResult) -> tuple[M.Formula, str]:
    """A formula holding on exactly one side of a refuted root, paired with
    the side (``"left"``/``"right"``) it holds on.  Raises WitnessMalformed on
    bisimilar results and InternalError if no checkable separator is found."""
    if result.bisimilar:
        raise WitnessMalformed("bisimilar results carry no distinguishing formula")
    game = result.game
    f = game.build_left(result.root)
    side = "left"
    if f is None:
        f = game.build_left(result.root.mirrored())
        side = "right"
    if f is None:
        raise InternalError("distinguishing-formula search exhausted")
    holder = result.root if side == "left" else result.root.mirrored()
    if not game._holds_left_only(holder, f):
        raise InternalError("constructed formula failed verification")
    return f, side


def verify_witness(result: BisimResult) -> bool:
    """Structurally replay a refutation witness, without deciding any goal:
    at every node the recorded attack must exist and respect the goal's
    distinction, the replies must be exactly the defender's answers in order,
    and each reply's child must be the goal that the mode's instantiation
    rule gives and must itself replay.  The witness is finite and a node
    without replies is an attack the defender cannot answer, so by induction
    every recorded attack wins.  The witness is a DAG that shares one node
    per goal; the replay is memoised per node object, so a node met again
    at a goal equal to its own is accepted without a second replay, and one
    met at any other goal is rejected."""
    if result.bisimilar or result.witness is None:
        raise WitnessMalformed("only refutations carry a witness")
    game = _Game(result.mode, result.game.clause_style)
    return game.verify_node(result.root, result.witness)


class _CertificateGame(_Game):
    """A game whose goals hold exactly when their two normal forms are equal
    or their memo key is that of a goal in the certificate, so that playing
    one round from each certificate goal checks it through the same moves and
    open/late/early quantifier shapes as the game that produced it."""

    def __init__(self, result: BisimResult):
        super().__init__(result.mode, result.game.clause_style)
        self.members = {canonical_key(self._normalised(g)) for g in result.certificate}

    def check(self, goal: Goal) -> bool:
        norm = self._normalised(goal)
        return norm.left == norm.right or canonical_key(norm) in self.members


def verify_certificate(result: BisimResult) -> bool:
    """Check a positive verdict's certificate as a bisimulation up to
    structural congruence: the root is in it or congruent, and every attack
    from either side of every certificate goal is answered, as the mode's
    game requires, by child goals that are in it or congruent."""
    if not result.bisimilar or result.certificate is None:
        raise WitnessMalformed("only bisimilar results carry a certificate")
    game = _CertificateGame(result)
    return game.check(result.root) and all(
        game._side_holds(g, "left") and game._side_holds(g, "right") for g in result.certificate
    )


def witness_mainline(node: FailNode) -> list[tuple[FailNode, Reply | None]]:
    """The principal branch of a witness: at each step the attack plus the
    first defender reply (None when the defender is stuck)."""
    line = []
    cur: FailNode | None = node
    while cur is not None:
        reply = cur.replies[0] if cur.replies else None
        line.append((cur, reply))
        cur = reply.child if reply else None
    return line
