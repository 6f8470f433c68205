"""Bisimilarity games over symbolic transitions.

Three deciders share one engine.  An attacker move is any symbolic transition
of either side whose substitution respects the current distinction; the
defender answers with an identity-substitution transition of the
instantiated opponent carrying exactly the same action.  Each move kind has
one proof-search clause, and ``_Game._clause`` is the only place that tells
the kinds apart.  The clause table, in the modes each row applies to:

    move           names opened at              shape             modalities
    tau, x!y       none                         one name          <a>, [a]
    x!(w)          the next scoped constant     one name          <x!(w)>, [x!(w)]
    x?(w), open    a fresh eigenvariable        one name          <x?(w)>L, [x?(w)]L
    x?(w), late    scoped constants + 1 fresh   exists d, all w   <x?(w)>L, [x?(w)]L
    x?(w), early   scoped constants + 1 fresh   all w, exists d   <x?(w)>E, [x?(w)]E

``open`` plays the substitution-closed game over a mixed prefix, its
eigenvariables capped at the current nabla depth; ``late`` and ``early`` play
the classical games over an all-nabla prefix and differ only in the order of
the two quantifiers over the received name ``w`` and the defender's answer
``d``.  With one generic name the two orders coincide, so open mode has a
single input clause.  Deciding, extracting a witness, replaying it and
folding its formula all read the clause: its defenders, its names with the
depth and next eigenvariable each opens at, its shape, its modalities, and
its child goals, built on demand.

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
node, with no search: a diamond where the left side attacks, a box where the
right one does.  An open box also meets the left side's moves that answer the
attack only under a unifier, and the clause lists these conditional answers,
one ``<x=y>true`` guard each.  The formula is machine-checked against both
processes before it is returned; that check reads successors from the game's
own table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import modal as M
from .lts import Transition, infer_depth, tabled_successors
from .syntax import (
    Action,
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
    compose,
    respects,
)


class ReplicationUnsupported(Exception):
    def __init__(self):
        super().__init__("bisimilarity games require replication-free processes")


class WitnessMalformed(Exception):
    pass


class NoSeparator(Exception):
    def __init__(self):
        super().__init__("no distinguishing formula by construction in the open sublogic")


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


# Quantifier shapes of a clause over its names and the defender's answers.
_ONE = "one"  # a single name: nothing to search
_LATE = "late"  # exists an answer, for all names
_EARLY = "early"  # for all names, exists an answer


@dataclass(slots=True)
class _Clause:
    """One attack's proof-search clause.  ``names`` are the names the
    continuations open at, each with the depth and next eigenvariable id of
    its child goals (``None`` for a move that opens nothing); ``shape`` orders
    the quantifiers over names and ``defenders``; ``modalities`` is the
    diamond/box pair a formula of the move folds with.  Child goals are built
    on demand, one per defender and name, and so are the conditional answers
    among the defending side's candidate ``moves``, which only formulas read."""

    side: str
    attack: Transition
    distinct: Distinction
    defenders: list[Transition]
    names: tuple[tuple[Name | None, int, int], ...]
    shape: str
    modalities: tuple[type, type]
    moves: list[Transition]

    def conditional(self) -> list[tuple[Name, Name]]:
        """The candidate moves that answer the attack only under a unifier
        sigma != id, found as an open box finds them (the unifier of the
        actions composed with the move's own), each given by the first
        binding of its sigma, without repeats."""
        act, out = self.attack.action, {}
        for u in self.moves:
            rho = M.unify_actions(u.theta(act), u.action)
            if rho is not None and (sigma := compose(rho, u.theta)).bindings:
                out[sigma.bindings[0]] = None
        return list(out)

    def child(self, d: Transition, name: tuple[Name | None, int, int]) -> Goal:
        w, depth, next_eigen = name
        a, b = self.attack.cont, d.cont
        if w is not None:
            a, b = open_abs(a, w), open_abs(b, w)
        if self.side == "right":
            a, b = b, a
        return Goal(depth, next_eigen, self.distinct, a, b)


class _Game:
    def __init__(self, mode: str, max_depth: int | None = None):
        if mode not in ("open", "late", "early"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
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

    def _clause(self, goal: Goal, side: str, t: Transition) -> _Clause:
        """The clause of attack ``t`` by ``side``: the one place where moves
        split by kind, one row of the module docstring's table each."""
        d, ne, act = goal.depth, goal.next_eigen, t.action
        q = t.theta(goal.right if side == "left" else goal.left)
        free, bound = tabled_successors(q, d, self.table)
        if isinstance(act, (Tau, FreeOut)):
            ts, names, shape, mods = free, ((None, d, ne),), _ONE, (M.FreeDia, M.FreeBox)
        elif isinstance(act, BoundOut):
            ts, names, shape, mods = bound, ((Nabla(d + 1), d + 1, ne),), _ONE, (M.OutDia, M.OutBox)
        elif self.mode == "open":
            ts, names, shape, mods = bound, ((Eigen(ne, d), d, ne + 1),), _ONE, (M.InDiaL, M.InBoxL)
        else:
            ts, names = bound, tuple((Nabla(l), max(d, l), ne) for l in range(1, d + 2))
            if self.mode == "late":
                shape, mods = _LATE, (M.InDiaL, M.InBoxL)
            else:
                shape, mods = _EARLY, (M.InDiaE, M.InBoxE)
        defenders = [u for u in ts if u.theta.is_identity() and u.action == act]
        return _Clause(side, t, goal.distinct.apply(t.theta), defenders, names, shape, mods, ts)

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

    def _defended(self, goal: Goal, side: str, t: Transition) -> bool:
        c = self._clause(goal, side, t)
        if c.shape == _LATE:
            return any(all(self.check(c.child(d, n)) for n in c.names) for d in c.defenders)
        return all(any(self.check(c.child(d, n)) for d in c.defenders) for n in c.names)

    # ------------------------------------------------------ witness extraction

    def explain(self, goal: Goal) -> FailNode:
        """The first winning attack from a refuted goal, left side first, one
        node object per goal, so a witness shares the node of every goal that
        repeats."""
        node = self.wmemo.get(goal)
        if node is not None:
            return node
        for side, p in (("left", goal.left), ("right", goal.right)):
            for idx, t in enumerate(self.attacks(p, goal.depth)):
                if respects(t.theta, goal.distinct) and not self._defended(goal, side, t):
                    node = self.wmemo[goal] = self._fail_node(goal, side, idx, t)
                    return node
        raise InternalError("refuted goal has no winning attack")

    def _fail_node(self, goal: Goal, side: str, idx: int, t: Transition) -> FailNode:
        """The witness node of a winning attack: each defender answer with
        the refuted child goal it leads to, at the first name that refutes
        it, chosen once for all answers unless the defender answers first."""
        c = self._clause(goal, side, t)
        name = c.names[0]
        if c.shape == _EARLY:
            lost = (n for n in c.names if not any(self.check(c.child(d, n)) for d in c.defenders))
            name = next(lost, None)
            if name is None:
                raise InternalError("attack reported winning but every received name is answered")
        inst = None if c.shape == _LATE else name[0]
        replies: list[Reply] = []
        for i, d in enumerate(c.defenders):
            if c.shape == _LATE:
                name = next((n for n in c.names if not self.check(c.child(d, n))), None)
                if name is None:
                    raise InternalError("defender reported defeated but every received name works")
            w = name[0] if c.shape == _LATE else None
            replies.append(Reply(i, w, self.explain(c.child(d, name))))
        return FailNode(goal, side, idx, t.theta, t.action, inst, tuple(replies))

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
        c = self._clause(goal, node.side, t)
        if [r.defender_index for r in node.replies] != list(range(len(c.defenders))):
            return False
        for reply, d in zip(node.replies, c.defenders):
            # the recorded name must be one the clause opens at
            w = reply.instantiation if c.shape == _LATE else node.instantiation
            name = next((n for n in c.names if n[0] == w), None)
            if name is None or not self.verify_node(c.child(d, name), reply.child):
                return False
        self.replayed[id(node)] = node
        return True

    # ------------------------------------------------- distinguishing formulas

    def build_left(self, goal: Goal) -> M.Formula | None:
        """The formula folded from the witness of a refuted goal, meant to be
        true of goal.left and false of goal.right, or None if the goal is
        bisimilar."""
        if goal not in self.fmemo:
            self.fmemo[goal] = None if self.check(goal) else self._compose(self.explain(goal))
        return self.fmemo[goal]

    def _compose(self, node: FailNode) -> M.Formula:
        """The formula of a winning attack, read off its witness node and the
        attack's clause: guards, then the clause's diamond over the
        conjunction of the replies' formulas when the left process attacks,
        its box over their disjunction when the right one does.  A received
        name is guarded per reply when the defender answers first (late),
        and once for the body when the name is chosen first (early).

        In open mode the box's disjunction also holds one guard ``<x=y>true``
        per conditional answer, a move of the left side that the box meets
        because its action unifies with the attack's only under some sigma !=
        id, where ``x:=y`` is sigma's first binding.  The guard is true on the
        left: the box reads its body in sigma's world, where ``x`` and ``y``
        coincide.  It is false on the right: the attack's own move is met in
        the attack's world, where ``x`` and ``y`` are distinct names, and no
        received name can make them equal.  So one binding is enough, and
        every move the box meets on the left has a disjunct that holds."""
        goal, left, act = node.goal, node.side == "left", node.action
        t = self.attacks(goal.left if left else goal.right, goal.depth)[node.attacker_index]
        c = self._clause(goal, node.side, t)
        recv_guard = M.MatchBox if left else M.MatchDia
        subs = []
        for r in node.replies:
            h = self.build_left(r.child.goal)
            subs.append(recv_guard(_RECV, r.instantiation, h) if c.shape == _LATE else h)
        if not left and self.mode == "open":
            subs += [M.MatchDia(x, y, M.TRUE) for x, y in c.conditional()]
        body = _conj(subs) if left else _disj(subs)
        if c.shape == _EARLY:
            body = recv_guard(_RECV, node.instantiation, body)
        w = node.instantiation if c.shape == _ONE else _RECV
        modality = c.modalities[0 if left else 1]
        core = modality(act, body) if w is None else modality(act.ch, M.close_formula(body, w))
        return _guard(node.theta, core)

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
        """A search over LM formulas of depth <= 3 that no engine path calls;
        bench/layers.py still wraps it, and modal.enumerate_lm, by name."""
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
    max_depth: int | None = None,
) -> BisimResult:
    _check_inputs(left, right)
    depth = max(prefix.nabla_count, infer_depth(left), infer_depth(right))
    ne = max(prefix.eigen_count, max_eigen_id(left), max_eigen_id(right)) + 1
    root = Goal(depth, ne, distinct, left, right)
    return _run("open", root, _Game("open", max_depth))


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
    the side (``"left"``/``"right"``) it holds on.  The formula is folded from
    the witness (``_Game._compose``) and checked on both processes.  In open
    mode a late-input box reads its received name over the names in scope, so
    the box of an input attack by the right side may also hold on the right;
    then the formula folded for the mirrored root, where that attack is a
    diamond, is checked instead.  Raises WitnessMalformed on bisimilar
    results, NoSeparator if in open mode neither check passes, and
    InternalError if a ground-mode formula fails its check."""
    if result.bisimilar:
        raise WitnessMalformed("bisimilar results carry no distinguishing formula")
    game = result.game
    for side, goal in (("left", result.root), ("right", result.root.mirrored())):
        f = game.build_left(goal)
        if game._holds_left_only(goal, f):
            return f, side
        if game.mode != "open":
            raise InternalError("constructed formula failed verification")
    raise NoSeparator()


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
    game = _Game(result.mode)
    return game.verify_node(result.root, result.witness)


class _CertificateGame(_Game):
    """A game whose goals hold exactly when their two normal forms are equal
    or their memo key is that of a goal in the certificate, so that playing
    one round from each certificate goal checks it through the same moves and
    open/late/early quantifier shapes as the game that produced it."""

    def __init__(self, result: BisimResult):
        super().__init__(result.mode)
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
