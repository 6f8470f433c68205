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

The game is played up to structural congruence.  The root is the user's
goal as given, but every child goal's two sides are their normal forms
(``syntax.normal_form``, cached per game, where a normal form is its own
entry), so moves, witnesses and formulas below the root are computed on one
representative per congruence class.  Each goal is memoised under the normal
forms of its two sides, and a goal whose two normal forms are equal holds at
once: congruent processes are bisimilar in every mode and under every
substitution.  So goals that differ only in the order of parallel components,
``0`` operands, repeated summands or unused restrictions share one memo entry
and one witness node, and the certificate of a positive verdict is a
bisimulation up to congruence, which ``verify_certificate`` checks in a fresh
game.  Memo keys rename eigenvariables only when they are not already
numbered by first occurrence, and a goal whose next eigenvariable id is 1,
as every late and early goal's is, has no eigenvariable and is its own key
without a walk.  The memo also holds each goal as asked, so a goal asked
again is answered before its sides are normalised or its key is computed.

Each game tables the successors of every (term, depth) it meets, so a term
reaches ``lts`` once per game however often it attacks or defends.  It also
tables the normal form of each continuation opened at each name, so a child
side that every defender, every name or a later replay meets again is read
from the table, not opened and normalised again; and it keeps the normal
form of every subterm it has normalised (``syntax.normal_form``'s memo), so
a term that shares operands with earlier ones, as a successor ``P' | Q``
shares ``Q``, only has its new parts normalised.  Both are sound because
opening and normalising are functions of the term and the name alone.  The
tables live and die with the game.

On refutation the engine extracts the winning attacker strategy as a witness:
a DAG with one node object per refuted goal, shared wherever a goal repeats.
Each node is read from the decider's own record: when it meets an attack the
defender cannot answer, the decider keeps the attack and its clause for the
goal as asked, and the node and the goal's formula are built from that
clause, with no goal decided and no clause built again.  Only a goal refuted
under another goal's memo key has no record; its attacks are scanned once,
in the decider's order.
``verify_witness`` replays it structurally, move by move, in the game that
decided it, over that game's tabled successors and normal forms; the replay
only enumerates moves, never decides a goal, and replays each node once.
The distinguishing formula is folded from the same nodes, one modality per
node, with no search: a diamond where the left side attacks, a box where the
right one does.  Different defender replies often fold to equal formulas, and
the fold keeps each operand of its conjunction or disjunction once, compared
structurally: ``A & A`` and ``A v A`` mean ``A`` in every mode, since
satisfaction reads both connectives as plain Boolean ones, so the formula
separates the same processes and is checked at its smaller size.  An open
box also meets the left side's moves that answer the attack only under a
unifier, and the clause lists these conditional answers, one ``<x=y>true``
guard each.  The formula is machine-checked on both sides
before it is returned, where the game plays: each process as given at the
root, and every continuation below it in the game's normal form, so the
check reads its successors from the game's own table.  Each side's check is
one memoised walk (``modal._Walk``), so a subformula that the formula shares
is checked once per term.
"""

from __future__ import annotations

from . import modal as M
from .lts import Transition, tabled_successors
from .syntax import (
    Action,
    BoundOut,
    Eigen,
    Free,
    FreeOut,
    Label,
    Nabla,
    Name,
    Prefix,
    Process,
    Tau,
    _Field,
    _name_key,
    _record,
    close_abs,
    contains_bang,
    free_names,
    map_names,
    normal_form,
    open_abs,
    right_nest,
)
from .unify import (
    Distinction,
    EMPTY_DISTINCTION,
    InternalError,
    Subst,
    respects,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable


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


@_record(frozen=False)
class Stats:
    goals: int = 0
    branches: int = 0


@_record
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


@_record
class Reply:
    defender_index: int
    instantiation: Name | None  # per-defender received name (late ground input)
    child: "FailNode"


@_record
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
    return (_name_key(pair[0]), _name_key(pair[1]))


def canonical_key(goal: Goal):
    """Alpha-canonical form of a goal: eigenvariables renumbered by first
    occurrence so memoized verdicts transfer between alpha-variants."""
    if goal.next_eigen == 1:
        # every eigenvariable's id is below next_eigen, so there is none
        return (goal.depth, goal.left, goal.right, goal.distinct.pairs)
    order: list[Eigen] = []
    seen: set[int] = set()

    def note(n, _d):
        if isinstance(n, Eigen) and n.id not in seen:
            seen.add(n.id)
            order.append(n)
        return n

    map_names(goal.left, note)
    map_names(goal.right, note)
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
        tuple(sorted((sub(a, 0), sub(b, 0)), key=_name_key))
        for a, b in goal.distinct.pairs
    )
    return (goal.depth, map_names(goal.left, sub), map_names(goal.right, sub), pairs)


# Quantifier shapes of a clause over its names and the defender's answers.
_ONE = "one"  # a single name: nothing to search
_LATE = "late"  # exists an answer, for all names
_EARLY = "early"  # for all names, exists an answer


@_record(frozen=False)
class _Clause:
    """One attack's proof-search clause.  ``names`` are the names the
    continuations open at, each with the depth and next eigenvariable id of
    its child goals (``None`` for a move that opens nothing); ``shape`` orders
    the quantifiers over names and ``defenders``; ``label`` is the label of
    the modality a formula of the move folds with.  Child goals are built
    on demand, one per defender and name, each side the normal form of a
    continuation ``opened`` at the name, and so are the conditional answers
    among the defending side's candidate ``moves``, which only formulas
    read."""

    side: str
    attack: Transition
    distinct: Distinction
    defenders: list[Transition]
    names: tuple[tuple[Name | None, int, int], ...]
    shape: str
    label: Label
    moves: list[Transition]
    opened: Callable[[Process, Name | None], Process]

    def conditional(self) -> list[tuple[Name, Name]]:
        """The candidate moves that answer the attack only under a unifier
        sigma != id, found as an open box finds them (``modal._open_meet``),
        each given by the first binding of its sigma, without repeats."""
        act, out = self.attack.action, {}
        for u in self.moves:
            if (meet := M._open_meet(u, act)) is not None and meet[1].bindings:
                out[meet[1].bindings[0]] = None
        return list(out)

    def child(self, d: Transition, name: tuple[Name | None, int, int]) -> Goal:
        w, depth, next_eigen = name
        a, b = self.opened(self.attack.cont, w), self.opened(d.cont, w)
        if self.side == "right":
            a, b = b, a
        return Goal(depth, next_eigen, self.distinct, a, b)


def _normalisers(
    nf: dict[Process, Process], parts: dict, opened: dict[tuple[Process, Name], Process]
) -> tuple[Callable[[Process], Process], Callable[[Process, Name | None], Process]]:
    """Normal forms modulo structural congruence, cached in ``nf``, with the
    normal form of every subterm met kept in ``parts``; and the normal form
    of a continuation opened at a name (unopened when the name is ``None``),
    cached in ``opened`` by the pair.  Plain functions over the caches, not
    methods of the game, so that a clause the game keeps does not refer back
    to the game."""

    def normal(p: Process) -> Process:
        hit = nf.get(p)
        if hit is None:
            hit = normal_form(p, parts)
            nf[p] = nf[hit] = hit  # a normal form is its own
        return hit

    def opened_normal(cont: Process, w: Name | None) -> Process:
        if w is None:
            return normal(cont)
        key = (cont, w)
        hit = opened.get(key)
        if hit is None:
            hit = opened[key] = normal(open_abs(cont, w))
        return hit

    return normal, opened_normal


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
        # term -> its normal form modulo structural congruence, for this game
        # only; subterm -> its normal form and sort key (syntax.normal_form's
        # memo); (continuation, name) -> the normal form of the opened term
        self.nf: dict[Process, Process] = {}
        self.nf_parts: dict = {}
        self.opened: dict[tuple[Process, Name], Process] = {}
        self._normal_form, self._opened = _normalisers(self.nf, self.nf_parts, self.opened)
        # refuted goal as asked -> its winning attack's index and clause
        self.won: dict[Goal, tuple[int, _Clause]] = {}

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
            ts, names, shape, label = free, ((None, d, ne),), _ONE, act
        elif isinstance(act, BoundOut):
            ts, names, shape, label = bound, ((Nabla(d + 1), d + 1, ne),), _ONE, act
        elif self.mode == "open":
            ts, names, shape, label = bound, ((Eigen(ne, d), d, ne + 1),), _ONE, M.LateIn(act.ch)
        else:
            ts, names = bound, tuple((Nabla(l), max(d, l), ne) for l in range(1, d + 2))
            if self.mode == "late":
                shape, label = _LATE, M.LateIn(act.ch)
            else:
                shape, label = _EARLY, M.EarlyIn(act.ch)
        defenders = [u for u in ts if u.theta.is_identity() and u.action == act]
        return _Clause(
            side, t, goal.distinct.apply(t.theta), defenders, names, shape, label, ts, self._opened
        )

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
        result = self.memo.get(goal)  # a goal asked before: no key to compute
        if result is not None:
            return result
        norm = self._normalised(goal)
        key = canonical_key(norm)
        result = self.memo.get(key)
        if result is None:
            self.stats.goals += 1
            congruent = norm.left == norm.right
            result = congruent or (
                self._side_holds(goal, "left") and self._side_holds(goal, "right")
            )
            self.memo[key] = result
            if result and not congruent:
                self.cert.append(goal)
        self.memo[goal] = result
        return result

    def _side_holds(self, goal: Goal, side: str) -> bool:
        p = goal.left if side == "left" else goal.right
        for idx, t in enumerate(self.attacks(p, goal.depth)):
            self.stats.branches += 1
            if self._wins(goal, side, idx, t):
                return False
        return True

    def _wins(self, goal: Goal, side: str, idx: int, t: Transition) -> bool:
        """Whether attack ``t``, the ``idx``-th of ``side``, wins ``goal``;
        a winning attack is recorded, with its clause, as the goal's."""
        if not respects(t.theta, goal.distinct):
            return False  # the induced world collapses a distinction: discharged
        c = self._clause(goal, side, t)
        if self._defended(c):
            return False
        self.won[goal] = (idx, c)
        return True

    def _defended(self, c: _Clause) -> bool:
        if c.shape == _LATE:
            return any(all(self.check(c.child(d, n)) for n in c.names) for d in c.defenders)
        return all(any(self.check(c.child(d, n)) for d in c.defenders) for n in c.names)

    # ------------------------------------------------------ witness extraction

    def explain(self, goal: Goal) -> FailNode:
        """The first winning attack from a refuted goal, left side first, one
        node object per goal, so a witness shares the node of every goal that
        repeats.  The attack is the one the decider recorded when it refuted
        the goal; a goal refuted under another goal's memo key has none, and
        only its attacks are scanned again, in the decider's order."""
        node = self.wmemo.get(goal)
        if node is not None:
            return node
        if goal not in self.won and not any(
            self._wins(goal, side, idx, t)
            for side, p in (("left", goal.left), ("right", goal.right))
            for idx, t in enumerate(self.attacks(p, goal.depth))
        ):
            raise InternalError("refuted goal has no winning attack")
        node = self.wmemo[goal] = self._fail_node(goal, *self.won[goal])
        return node

    def _fail_node(self, goal: Goal, idx: int, c: _Clause) -> FailNode:
        """The witness node of a winning attack: each defender answer with
        the refuted child goal it leads to, at the first name that refutes
        it, chosen once for all answers unless the defender answers first."""
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
        t = c.attack
        return FailNode(goal, c.side, idx, t.theta, t.action, inst, tuple(replies))

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
        every move the box meets on the left has a disjunct that holds.

        Replies and guards that fold to equal formulas are kept once each, in
        first-occurrence order, before the chain is nested: a repeated
        conjunct or disjunct changes no verdict in any mode, and dropping it
        here means the check, ``close_abs`` and the printer all see the
        smaller formula."""
        left, c = node.side == "left", self.won[node.goal][1]
        recv_guard = M.Box if left else M.Dia
        subs = []
        for r in node.replies:
            h = self.build_left(r.child.goal)
            subs.append(recv_guard(M.Eq(_RECV, r.instantiation), h) if c.shape == _LATE else h)
        if not left and self.mode == "open":
            subs += [M.Dia(M.Eq(x, y), M.TRUE) for x, y in c.conditional()]
        subs = list(dict.fromkeys(subs))
        body = right_nest(M.And, subs, M.TRUE) if left else right_nest(M.Or, subs, M.FALSE)
        if c.shape == _EARLY:
            body = recv_guard(M.Eq(_RECV, node.instantiation), body)
        w = node.instantiation if c.shape == _ONE else _RECV
        core = (M.Dia if left else M.Box)(c.label, body if w is None else close_abs(body, w))
        return _guard(node.theta, core)

    def _holds_left_only(self, goal: Goal, f: M.Formula) -> bool:
        """Machine-check that ``f`` holds on ``goal.left`` and not on
        ``goal.right``, where the game plays: each side as given at the
        root, and every continuation below it that the game has met in its
        normal form, so the check reads its successors from the game's
        table.  A continuation the game never met is checked as it is: its
        normal form would be computed only to miss the table.  Satisfaction
        is invariant under the mode's bisimilarity, and congruent processes
        are bisimilar, so the normal forms decide it as the raw terms would.
        Each side's walk is memoised, so a subformula is checked once per
        term however often the formula shares it."""
        d, ne, nf = goal.depth, goal.next_eigen, self.nf
        walk = dict(table=self.table, normal=lambda p: nf.get(p, p))
        if self.mode == "open":
            return M.sat_open_at(goal.left, f, d, ne, **walk) and not M.sat_open_at(
                goal.right, f, d, ne, **walk
            )
        return M.sat_ground(goal.left, f, depth=d, **walk) and not M.sat_ground(
            goal.right, f, depth=d, **walk
        )

    def _enumerate_separator(self, goal: Goal) -> M.Formula | None:
        """Always ``None``: no engine path searches for a separator, since
        each refutation's formula is folded from the decider's record.  It
        stays defined because ``bench/layers.py`` wraps it by name."""
        return None


_RECV = Free("\0recv")  # stands for the received name until the formula closes over it


def _guard(theta: Subst, f: M.Formula) -> M.Formula:
    for var, val in reversed(theta.bindings):
        f = M.Box(M.Eq(var, val), f)
    return f


# ------------------------------------------------------------------ entry points


@_record(frozen=False)
class BisimResult:
    bisimilar: bool
    mode: str
    root: Goal
    # root first, then every goal explored and won; goals whose two sides are
    # congruent hold without a move and are left out
    certificate: tuple[Goal, ...] | None
    witness: FailNode | None
    stats: Stats
    game: _Game = _Field(repr=False)


def _root_names(left: Process, right: Process, distinct: Distinction) -> tuple[int, int]:
    """Refuse replication, then read each process's names in one walk: the
    depth they need (``lts.infer_depth`` of each), and the largest
    eigenvariable id of the root goal, its distinction's included, so that
    every eigenvariable lies below the next id the root is given."""
    if contains_bang(left) or contains_bang(right):
        raise ReplicationUnsupported()
    names = free_names(left) | free_names(right)
    depth = max((n.level if isinstance(n, Nabla) else n.ceiling for n in names), default=0)
    eigen = max((n.id for n in names.union(*distinct.pairs) if isinstance(n, Eigen)), default=0)
    return depth, eigen


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
    depth, eigen = _root_names(left, right, distinct)
    depth, ne = max(prefix.nabla_count, depth), max(prefix.eigen_count, eigen) + 1
    root = Goal(depth, ne, distinct, left, right)
    return _run("open", root, _Game("open", max_depth))


def _ground_bisim(mode: str, left, right, depth, distinct, max_depth) -> BisimResult:
    inferred, eigen = _root_names(left, right, distinct)
    if eigen:
        raise ValueError("ground modes require an all-nabla prefix")
    root = Goal(inferred if depth is None else depth, 1, distinct, left, right)
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
    the witness (``_Game._compose``) and checked on both processes where the
    game plays: at the root as given, and on normal forms below it
    (``_Game._holds_left_only``).  In open
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
    and each reply's child must be the normal form of the goal that the
    mode's instantiation rule gives, and must itself replay.  The witness is
    finite and a node without replies is an attack the defender cannot
    answer, so by induction every recorded attack wins its goal's normal
    form.  That is enough, and up to congruence is sound, for the reason
    ``verify_certificate`` relies on: congruent processes are bisimilar in
    every mode and under every substitution, so a goal is refuted exactly
    when the goal of its two normal forms is.  The witness is a DAG that
    shares one node per goal; the replay is memoised per node object, so a
    node met again at a goal equal to its own is accepted without a second
    replay, and one met at any other goal, a congruent one included, is
    rejected.

    The replay runs in ``result.game``, the game that decided, and reads the
    successor lists, opened continuations and normal forms that the decider
    tabled, so replaying the witness the game extracted adds no entry to any
    of its tables.  It checks the game's logic over
    ``lts``'s tabled lists, not ``lts`` or ``normal_form`` themselves: a
    fault in either is shared by the decider and the replay.  The tabled
    lists are shared and must not be mutated.  What checks ``lts`` is the
    oracle check in ``tests/test_oracle_evidence.py``, which reads each
    ground refutation's printed formula back into the independent oracles
    and evaluates it on both processes there.  The node memo outlives one
    call: a node is accepted at its own goal or not at all, and nodes are
    immutable and kept by the memo, so an identity is never reused."""
    if result.bisimilar or result.witness is None:
        raise WitnessMalformed("only refutations carry a witness")
    return result.game.verify_node(result.root, result.witness)


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
