"""Invariants of the engine's shortcuts: reusing a parallel operand's
successors, the per-game successor table and its use by the formula check
and the witness replay, the per-game tables of opened continuations and of
normalised subterms, one witness node per goal with the formula folded
from it, witnesses read from the decider's record of each refuted goal,
repeated goals answered before their memo key, the identity fast paths of
``canonical_key``, playing the game up to structural congruence, and cached
hashes over shared subterms leave steps, verdicts, evidence, keys and hashes
unchanged, and a finished game is freed without the cycle collector."""

import gc
import hashlib
import random
import re
import weakref
from collections import Counter
from dataclasses import replace

import pytest

import corpus
import oracles
import pibisim as pb
import pibisim.bisim as bisim_mod
import pibisim.lts as lts_mod
import pibisim.modal as modal_mod
import pibisim.syntax as syntax_mod
from agree import enc as enc_tuple, make_prefix
from pibisim.bisim import Goal, canonical_key, _pair_key
from pibisim.syntax import (
    Box,
    Dia,
    EarlyIn,
    Eigen,
    Eq,
    Formula,
    LateIn,
    Nabla,
    Process,
    close_abs,
    map_names,
    normal_form,
    open_abs,
)
from pibisim.unify import Distinction, EMPTY_DISTINCTION

SANGIORGI_P = "x?(u).(tau.tau.0 + tau.0)"
SANGIORGI_Q = "x?(u).(tau.tau.0 + tau.0 + tau.[u=z]tau.0)"
COMM_PAIRS = "x0!y.0 | x0?(u).u!y.0 | x1!y.0 | x1?(u).u!y.0"
COMM_PAIRS_SWAPPED = "x1!y.0 | x1?(u).u!y.0 | x0!y.0 | x0?(u).u!y.0"
# One-step expansion of COMM_PAIRS: each component's prefix before the rest,
# plus one tau per communicating pair.  Bisimilar but not congruent to it.
COMM_PAIRS_EXPANSION = " + ".join(
    [
        "x0!y.(0 | x0?(u).u!y.0 | x1!y.0 | x1?(u).u!y.0)",
        "x0?(u).(x0!y.0 | u!y.0 | x1!y.0 | x1?(u).u!y.0)",
        "x1!y.(x0!y.0 | x0?(u).u!y.0 | 0 | x1?(u).u!y.0)",
        "x1?(u).(x0!y.0 | x0?(u).u!y.0 | x1!y.0 | u!y.0)",
        "tau.(0 | y!y.0 | x1!y.0 | x1?(u).u!y.0)",
        "tau.(x0!y.0 | x0?(u).u!y.0 | 0 | y!y.0)",
    ]
)


def enc(text, prefix):
    return pb.encode(pb.parse_process(text), prefix)


# ------------------------------------------------------------ pinned counts


FORALL3 = "forall x0, forall x1, forall y"
NABLA3 = "nabla x0, nabla x1, nabla y"


def _counts(mode, prefix_text, partner, monkeypatch):
    """Verdict, goals, branches, certificate size and ``_Game.check`` calls."""
    calls = []
    real = bisim_mod._Game.check

    def counted(self, goal):
        calls.append(goal)
        return real(self, goal)

    monkeypatch.setattr(bisim_mod._Game, "check", counted)
    prefix = pb.parse_prefix(prefix_text)
    p, q = enc(COMM_PAIRS, prefix), enc(partner, prefix)
    if mode == "open":
        res = pb.open_bisim(p, q, prefix)
    else:
        res = (pb.late_bisim if mode == "late" else pb.early_bisim)(p, q, prefix.nabla_count)
    return res.bisimilar, res.stats.goals, res.stats.branches, len(res.certificate), len(calls)


@pytest.mark.parametrize(
    "mode, prefix_text, expected",
    [
        ("open", FORALL3, (True, 1, 0, 1, 1)),
        ("open", NABLA3, (True, 1, 0, 1, 1)),
        ("late", NABLA3, (True, 1, 0, 1, 1)),
    ],
)
def test_communicating_pairs_counts(monkeypatch, mode, prefix_text, expected):
    # the swapped order is congruent: the root is discharged unexplored
    assert _counts(mode, prefix_text, COMM_PAIRS_SWAPPED, monkeypatch) == expected


@pytest.mark.parametrize(
    "mode, prefix_text, expected",
    [
        ("open", FORALL3, (True, 7, 15, 1, 17)),
        ("open", NABLA3, (True, 8, 13, 1, 15)),
        ("late", NABLA3, (True, 14, 13, 1, 27)),
        ("early", NABLA3, (True, 14, 13, 1, 27)),
    ],
)
def test_communicating_pairs_expansion_counts(monkeypatch, mode, prefix_text, expected):
    # every answer to an attack on the expansion is congruent to its attacker
    assert _counts(mode, prefix_text, COMM_PAIRS_EXPANSION, monkeypatch) == expected


# ------------------------------------------- parallel operands computed once

# An input guarded by [x=y] communicates under {x:=y}; the partner must be
# instantiated by that substitution before its own successors are taken, or
# the partner's continuation keeps the x that the step identified with y.
PAR_STEPS = [
    (
        "[x=y]x?(u).0 | y!a.x!a.0",
        [("{}", "y!a", "[x=y]x.0 | x!a.0"), ("{x:=y}", "tau", "0 | y!a.0")],
    ),
    (
        "y!a.x!a.0 | [x=y]x?(u).0",
        [("{}", "y!a", "x!a.0 | [x=y]x.0"), ("{x:=y}", "tau", "y!a.0 | 0")],
    ),
    ("[x=y]x?(u).0 | (nu b)y!b.x!a.0", [("{x:=y}", "tau", "(nu z)(0 | y!a.0)")]),
    ("(nu b)y!b.x!a.0 | [x=y]x?(u).0", [("{x:=y}", "tau", "(nu z)(y!a.0 | 0)")]),
]


@pytest.mark.parametrize("text, expected", PAR_STEPS)
def test_par_communication_instantiates_the_partner(text, expected):
    prefix = pb.parse_prefix("forall x, forall y, nabla a")
    steps = pb.successors_free(enc(text, prefix), prefix.nabla_count)
    rows = [
        (
            pb.pretty_subst(t.theta, prefix),
            pb.pretty_action(t.action, prefix),
            pb.pretty(t.cont, prefix),
        )
        for t in steps
    ]
    assert rows == expected


# ------------------------------------------------------- the successor table


@pytest.fixture
def lts_requests(monkeypatch):
    """Every (function, term, depth) that the game and the satisfaction
    checks ask ``lts`` for: both ask through ``lts.tabled_successors``, which
    calls the two functions by their names in ``pibisim.lts``."""
    seen = Counter()

    def counting(name, fn):
        def wrapper(p, depth=None):
            seen[(name, p, depth)] += 1
            return fn(p, depth)

        return wrapper

    for name in ("successors_free", "successors_bound"):
        monkeypatch.setattr(lts_mod, name, counting(name, getattr(lts_mod, name)))
    return seen


def test_each_term_reaches_lts_once_per_game_bisimilar(lts_requests):
    prefix = pb.parse_prefix(FORALL3)
    res = pb.open_bisim(enc(COMM_PAIRS, prefix), enc(COMM_PAIRS_EXPANSION, prefix), prefix)
    assert res.bisimilar
    assert lts_requests, "the game never asked lts"
    assert max(lts_requests.values()) == 1


def test_each_term_reaches_lts_once_per_game_refuted(lts_requests):
    prefix = pb.parse_prefix("forall x, forall z")
    p = enc("x?(u).(tau.tau.0 + tau.0)", prefix)
    q = enc("x?(u).(tau.tau.0 + tau.0 + tau.[u=z]tau.0)", prefix)
    res = pb.open_bisim(p, q, prefix)
    assert not res.bisimilar
    pb.distinguishing_formula(res)  # formula synthesis plays in the same game
    assert lts_requests
    assert max(lts_requests.values()) == 1
    before = sum(lts_requests.values())
    assert pb.verify_witness(res)  # replays over the deciding game's table
    assert sum(lts_requests.values()) == before


def _decide(q):
    """A ``wide`` pair query decided as the benchmark decides it, without
    the evidence the benchmark then asks for."""
    prefix = pb.parse_prefix(q.prefix)
    left = pb.encode(pb.parse_process(q.left), prefix)
    right = pb.encode(pb.parse_process(q.right), prefix)
    if q.mode == "open":
        names = prefix.name_map()
        distinct = pb.Distinction.of(*[(names[a], names[b]) for a, b in q.distinct])
        return pb.open_bisim(left, right, prefix, distinct)
    return (pb.late_bisim if q.mode == "late" else pb.early_bisim)(left, right, prefix.nabla_count)


def _leaf_answered(node):
    """A copy of ``node`` whose mainline leaf, an attack the defender cannot
    answer, claims an answer: new nodes along the mainline, every other node
    shared with ``node``."""
    if not node.replies:
        return replace(node, replies=(bisim_mod.Reply(0, None, node),))
    first = replace(node.replies[0], child=_leaf_answered(node.replies[0].child))
    return replace(node, replies=(first,) + node.replies[1:])


def test_wide_replays_read_the_deciding_games_tables(workloads, lts_requests):
    """Each ``wide`` refutation at seed 1 replays over the tables of the
    game that decided it, adding no entry to either and asking ``lts``
    nothing; a second replay gives the same answer, and a corrupted witness
    that shares every node but its mainline with the accepted one is still
    rejected."""
    refuted = 0
    for q in workloads.generate("wide", 1):
        if q.kind != "pair":
            continue
        res = _decide(q)
        if res.bisimilar:
            continue
        refuted += 1
        game = res.game
        tables = (game.table, game.nf, game.nf_parts, game.opened)
        sizes, asked = [len(t) for t in tables], sum(lts_requests.values())
        assert pb.verify_witness(res), q.label
        assert [len(t) for t in tables] == sizes, q.label
        assert sum(lts_requests.values()) == asked, q.label
        assert pb.verify_witness(res)
        assert not pb.verify_witness(replace(res, witness=_leaf_answered(res.witness))), q.label
        assert pb.verify_witness(res)
    assert refuted == 136


def _inout_refutations(workloads):
    """The ``wide`` refutations of the input-then-output unit at widths 3
    and 4, in every mode and from both sides."""
    widths = ("refute/inout/3/", "refute/inout/4/")
    out = [q for q in workloads.generate("wide", 1) if q.label.startswith(widths)]
    assert len(out) == 16
    return out


def _with_evidence(q):
    """Decide ``q``, replay its witness and fold its formula, all in one game."""
    res = _decide(q)
    assert not res.bisimilar and pb.verify_witness(res), q.label
    pb.distinguishing_formula(res)
    return res


def test_each_continuation_is_opened_once_per_name(workloads, monkeypatch):
    """The game opens a continuation at a name once, however many defenders
    and names meet it; each later child reads the opened normal form from the
    game's table."""
    for q in _inout_refutations(workloads):
        opened = Counter()

        def counted(body, name, _real=bisim_mod.open_abs):
            opened[body, name] += 1
            return _real(body, name)

        monkeypatch.setattr(bisim_mod, "open_abs", counted)
        res = _with_evidence(q)
        monkeypatch.undo()
        assert opened and max(opened.values()) == 1, q.label
        assert len(res.game.opened) == len(opened), q.label


def test_each_subterm_is_normalised_once_per_game(workloads, monkeypatch):
    """``syntax._nf`` computes a subterm's normal form once per game and
    answers it from the game's memo after that, also when the subterm is an
    operand of a later, different term."""
    computed, memos = Counter(), {}
    real = syntax_mod._nf

    def counted(p, memo=None):
        if memo is None or p not in memo:
            memos[id(memo)] = memo  # kept alive, so no id is reused
            computed[id(memo), p] += 1
        return real(p) if memo is None else real(p, memo)

    monkeypatch.setattr(syntax_mod, "_nf", counted)
    for q in _inout_refutations(workloads):
        _with_evidence(q)
    assert computed and max(computed.values()) == 1


# Refutations whose distinguishing formula is checked against both sides, by
# sat_open_at in open mode and by sat_ground in late and early mode.  In the
# last two open cases the formula has a [x=y] guard: the check instantiates
# the process by the guard's unifier, a term the game only met through an
# attack's substitution, so the check asks lts for it, once.  The check puts
# every continuation below the root in the game's normal form, as the game
# does, so in the first two open cases, whose continuations are sums that
# the normal form reorders, it reads every term from the game's table.
FORMULA_CASES = [
    ("open", "nabla x", "(nu a)x!a.(a!x.0 + tau.0)", "(nu a)x!a.(a!x.0 + tau.0 + tau.tau.0)", True),
    ("open", "forall x", "x?(u).(tau.tau.0 + tau.0)", "x?(u).tau.tau.0 + x?(u).tau.0", True),
    ("late", "nabla x, nabla a", "x?(u).tau.0 + x?(v).0 + x?(w).[w=a]tau.0", "x?(u).tau.0 + x?(v).0",
     True),
    ("early", "nabla x, nabla a", "x?(u).(tau.0 + tau.tau.0)", "x?(u).tau.0 + x?(u).tau.tau.0", True),
    ("open", "forall x, forall z", SANGIORGI_P, SANGIORGI_Q, False),
    ("open", "forall x, forall y", "x?(u).0 | y!x.0", "x?(u).y!x.0 + y!x.x?(u).0", False),
]


@pytest.mark.parametrize("mode, prefix_text, left, right, in_table", FORMULA_CASES)
def test_formula_check_reads_the_game_table(
    lts_requests, monkeypatch, mode, prefix_text, left, right, in_table
):
    prefix = pb.parse_prefix(prefix_text)
    p, q = enc(left, prefix), enc(right, prefix)
    if mode == "open":
        res = pb.open_bisim(p, q, prefix)
    else:
        res = (pb.late_bisim if mode == "late" else pb.early_bisim)(p, q)
    assert not res.bisimilar
    before = Counter(lts_requests)
    checks = Counter()
    for name in ("sat_ground", "sat_open_at"):

        def counted(*args, _real=getattr(modal_mod, name), _name=name, **kwargs):
            checks[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(modal_mod, name, counted)
    pb.distinguishing_formula(res)
    assert checks["sat_open_at" if mode == "open" else "sat_ground"] >= 2
    assert max(lts_requests.values()) == 1
    assert (lts_requests == before) == in_table


# ------------------------------------------------- evidence from one pass

# Refutations in every mode; in each parallel one some goal repeats in the
# witness, so the witness shares that goal's node.
ONE_PASS_CASES = [
    ("open", "forall x", "x?(u).0 | x?(u).0 | x?(u).0", "x?(u).0 | x?(u).0 | x?(u).x?(v).0"),
    ("open", "nabla x, nabla y", "x!y.0 | x!y.0", "x!y.0 | x!y.x!y.0"),
    ("open", "forall x, forall z", SANGIORGI_P, SANGIORGI_Q),
    ("late", "", "tau.0 | tau.0", "tau.0 | tau.tau.0"),
    ("late", "nabla x", "x?(u).u!x.0 | x?(u).u!x.0", "x?(u).u!x.0 | x?(u).u!x.u!x.0"),
    ("late", "nabla x, nabla a", "x?(u).tau.0 + x?(v).0 + x?(w).[w=a]tau.0",
     "x?(u).tau.0 + x?(v).0"),
    ("early", "nabla x", "x?(u).u!x.0 | x?(u).u!x.0", "x?(u).u!x.0 | x?(u).u!x.u!x.0"),
    ("early", "nabla x, nabla a", "x?(u).(tau.0 + tau.tau.0)", "x?(u).tau.0 + x?(u).tau.tau.0"),
]


def _refute(mode, prefix_text, left, right):
    prefix = pb.parse_prefix(prefix_text)
    p, q = enc(left, prefix), enc(right, prefix)
    if mode == "open":
        res = pb.open_bisim(p, q, prefix)
    else:
        res = (pb.late_bisim if mode == "late" else pb.early_bisim)(p, q)
    assert not res.bisimilar
    return res


def _witness_nodes(node):
    """Every node of a witness, once per path that reaches it."""
    out, todo = [], [node]
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(r.child for r in node.replies)
    return out


@pytest.mark.parametrize("mode, prefix_text, left, right", ONE_PASS_CASES)
def test_one_fail_node_per_witness_goal(monkeypatch, mode, prefix_text, left, right):
    built = Counter()
    real = bisim_mod._Game._fail_node

    def counted(self, goal, *args):
        built[goal] += 1
        return real(self, goal, *args)

    monkeypatch.setattr(bisim_mod._Game, "_fail_node", counted)
    res = _refute(mode, prefix_text, left, right)
    assert pb.verify_witness(res)
    pb.distinguishing_formula(res)
    nodes = _witness_nodes(res.witness)
    goals = {n.goal for n in nodes}
    assert built == Counter(goals)
    assert len({id(n) for n in nodes}) == len(goals)
    if "|" in left:
        assert len(nodes) > len(goals)


@pytest.mark.parametrize("mode, prefix_text, left, right", ONE_PASS_CASES)
def test_one_witness_node_per_congruence_class(mode, prefix_text, left, right):
    """Goals below the root are normal forms, so the witness has one node
    object per distinct goal and one distinct goal per congruence class."""
    res = _refute(mode, prefix_text, left, right)
    nodes = _witness_nodes(res.witness)
    goals = {n.goal for n in nodes}
    classes = {canonical_key(res.game._normalised(g)) for g in goals}
    assert len({id(n) for n in nodes}) == len(goals) == len(classes)


@pytest.mark.parametrize("mode, prefix_text, left, right", ONE_PASS_CASES)
def test_formula_is_folded_from_the_witness(monkeypatch, mode, prefix_text, left, right):
    res = _refute(mode, prefix_text, left, right)
    expected = pb.distinguishing_formula(_refute(mode, prefix_text, left, right))

    def forbidden(*_args):
        raise AssertionError("formula synthesis rescanned an attack")

    # _fail_node holds the ground modes' searches for a refuting name
    for name in ("_defended", "_fail_node"):
        monkeypatch.setattr(bisim_mod._Game, name, forbidden)
    assert pb.distinguishing_formula(res) == expected


def _digest(text):
    return hashlib.sha1(text.encode()).hexdigest()[:16]


# Per ONE_PASS_CASES refutation: digests of the witness repr and of the
# formula text, and the formula's side.  The witnesses and sides are as the
# engine gave them when explain still scanned every refuted goal's attacks
# again; the texts are as the fold gives them since it keeps each operand of
# a conjunction or disjunction once.
ONE_PASS_OUTPUTS = [
    ("02b8c19b1dc6f401", "4d5a578252394290", "left"),
    ("05c8b75416db5b17", "fc49633abc5e1925", "left"),
    ("37e6e288224aa771", "12168ce8122c5d17", "left"),
    ("db622633b0fdbae4", "31aef71882776c83", "left"),
    ("cfe9d10410bb1772", "961a31f317396d8f", "left"),
    ("36a83d2f00389871", "39e9f22672a36038", "left"),
    ("d00249976cab14a8", "2fb6413fc43ccf9c", "left"),
    ("f5d71cfb52ed045d", "d4449f877236860a", "left"),
]


@pytest.mark.parametrize("case, expected", zip(ONE_PASS_CASES, ONE_PASS_OUTPUTS))
def test_one_pass_evidence_is_pinned(case, expected):
    res = _refute(*case)
    formula, side = pb.distinguishing_formula(res)
    text = pb.pretty_formula(formula, pb.parse_prefix(case[1]))
    assert (_digest(repr(res.witness)), _digest(text), side) == expected


@pytest.mark.parametrize("mode, prefix_text, left, right", ONE_PASS_CASES)
def test_explain_reads_the_deciders_record(monkeypatch, mode, prefix_text, left, right):
    """``explain`` builds the node of a goal that the decider played and
    refuted from the winning attack the decider recorded: no defence of
    that goal is tried again.  Only a goal refuted under another goal's memo
    key has its attacks scanned."""
    expected = _refute(mode, prefix_text, left, right).witness
    game = bisim_mod._Game(mode)
    played, defended, goal_of = set(), [], {}
    real = {n: getattr(bisim_mod._Game, n) for n in ("check", "_clause", "_defended")}

    def check(self, goal):
        before = self.stats.goals
        verdict = real["check"](self, goal)
        if not verdict and self.stats.goals > before:  # played, not a memo hit
            played.add(goal)
        return verdict

    def clause(self, goal, *args):
        c = real["_clause"](self, goal, *args)
        goal_of[id(c)] = goal
        return c

    def counted(self, c):
        defended.append(goal_of[id(c)])
        return real["_defended"](self, c)

    for name, fn in (("check", check), ("_clause", clause), ("_defended", counted)):
        monkeypatch.setattr(bisim_mod._Game, name, fn)
    assert not game.check(expected.goal)
    assert expected.goal in played
    defended.clear()
    node = game.explain(expected.goal)
    assert played.isdisjoint(defended)
    assert repr(node) == repr(expected)


@pytest.mark.parametrize(
    "mode, prefix_text",
    [("open", FORALL3), ("open", NABLA3), ("late", NABLA3), ("early", NABLA3)],
)
@pytest.mark.parametrize("partner", [COMM_PAIRS_EXPANSION, "x0!y.0 | x1!y.0"])
def test_a_repeated_goal_is_answered_before_its_key(monkeypatch, mode, prefix_text, partner):
    prefix = pb.parse_prefix(prefix_text)
    p, q = enc(COMM_PAIRS, prefix), enc(partner, prefix)
    if mode == "open":
        res = pb.open_bisim(p, q, prefix)
    else:
        res = (pb.late_bisim if mode == "late" else pb.early_bisim)(p, q, prefix.nabla_count)
    game = bisim_mod._Game(mode)
    assert game.check(res.root) is res.bisimilar
    goals = game.stats.goals

    def refuse(*_args):
        raise AssertionError("a repeated goal was normalised or keyed again")

    monkeypatch.setattr(game, "_normal_form", refuse)
    monkeypatch.setattr(bisim_mod, "canonical_key", refuse)
    assert game.check(replace(res.root)) is res.bisimilar
    assert game.stats.goals == goals


def test_goals_without_eigenvariables_are_their_own_key(monkeypatch):
    """``canonical_key`` does not walk a goal whose next eigenvariable id is
    1: every goal of that kind that the game meets on seeded pairs has the
    key the renaming would give it."""
    met = []
    real = bisim_mod._Game.check

    def check(self, goal):
        met.append(goal)
        return real(self, goal)

    monkeypatch.setattr(bisim_mod._Game, "check", check)
    rng = random.Random(13)
    names = ("a", "b")
    prefix = make_prefix(names)
    split = Distinction.of(tuple(prefix.name_map().values()))
    for _ in range(60):
        p, q = (enc_tuple(t, prefix) for t in corpus.random_pair(rng, max_prefixes=3, names=names))
        pb.late_bisim(p, q, prefix.nabla_count)
        pb.early_bisim(p, q, prefix.nabla_count)
        pb.open_bisim(p, q, prefix, split)
    unwalked = [g for g in met if g.next_eigen == 1]
    assert unwalked and any(g.distinct.pairs for g in unwalked)
    for g in unwalked:
        assert canonical_key(g) == renamed_key(g)


@pytest.mark.parametrize(
    "mode, prefix_text",
    [("open", "forall x"), ("late", "nabla x"), ("early", "nabla x")],
)
def test_a_dropped_result_frees_its_game(mode, prefix_text):
    """No reference cycle runs through a game, so with the collector off a
    game dies with the last result that holds it, once its evidence has
    been checked.  A winning attack's clause kept by the game must not
    refer back to it."""
    prefix = pb.parse_prefix(prefix_text)
    pairs = [
        ("x?(u).u!x.0 | x?(u).u!x.0", "x?(u).u!x.0 | x?(u).u!x.u!x.0"),
        ("x?(u).0 | tau.0", "x?(u).tau.0 + tau.x?(u).0"),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        verdicts = []
        for left, right in pairs:
            p, q = enc(left, prefix), enc(right, prefix)
            if mode == "open":
                res = pb.open_bisim(p, q, prefix)
            else:
                res = (pb.late_bisim if mode == "late" else pb.early_bisim)(p, q)
            verdicts.append(res.bisimilar)
            if res.bisimilar:
                assert pb.verify_certificate(res)
            else:
                assert pb.verify_witness(res)
                pb.distinguishing_formula(res)
            game = weakref.ref(res.game)
            del res
            assert game() is None
        assert verdicts == [False, True]
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "mode, prefix_text, left, right",
    [
        ("late", "", "tau.0 | tau.0 | tau.0 | tau.0", "tau.0 | tau.0 | tau.0 | tau.tau.0"),
        ("open", "nabla x, nabla y", "x!y.0 | x!y.0 | x!y.0 | x!y.0",
         "x!y.0 | x!y.0 | x!y.0 | x!y.x!y.0"),
        ("early", "nabla x", "x?(u).u!x.0 | x?(u).u!x.0 | x?(u).u!x.0",
         "x?(u).u!x.0 | x?(u).u!x.0 | x?(u).u!x.u!x.0"),
    ],
)
def test_formula_check_evaluates_each_memo_key_once(monkeypatch, mode, prefix_text, left, right):
    """A parallel refutation's diamonds meet several moves that lead to the
    same continuation, so the check asks about one (term, formula object,
    depth, counter, environment) more than once; each side's walk evaluates
    each such modality once and answers it from its memo after that."""
    res = _refute(mode, prefix_text, left, right)
    evaluated, asked = Counter(), []
    real_modal, real_sat = modal_mod._Walk._modal, modal_mod._Walk.sat

    def counted(self, p, a, depth, k, env):
        evaluated[(self, p, id(a), depth, k, env)] += 1
        return real_modal(self, p, a, depth, k, env)

    def asking(self, p, a, depth, k, env):
        if isinstance(a, (Dia, Box)) and not isinstance(a.label, Eq):
            asked.append(a)
        return real_sat(self, p, a, depth, k, env)

    monkeypatch.setattr(modal_mod._Walk, "_modal", counted)
    monkeypatch.setattr(modal_mod._Walk, "sat", asking)
    pb.distinguishing_formula(res)
    assert evaluated and max(evaluated.values()) == 1
    assert sum(evaluated.values()) < len(asked)


@pytest.mark.parametrize("mode", ["open", "late", "early"])
def test_each_root_is_read_once_at_entry(monkeypatch, mode):
    """Before the game starts, each process's names are read in one walk,
    which gives the root's depth (the largest nabla level or eigenvariable
    ceiling) and next eigenvariable id (one past the largest id, the
    distinction's included); replication is refused before an eigenvariable
    in a ground mode."""
    prefix = pb.parse_prefix(PREFIX if mode == "open" else "nabla x, nabla y")
    left, right = ("a!n.0", "b?(u).0") if mode == "open" else ("x!y.0", "y?(u).0")
    p, q = enc(left, prefix), enc(right, prefix)
    read = []

    def counted(term, _real=bisim_mod.free_names):
        read.append(term)
        return _real(term)

    monkeypatch.setattr(bisim_mod, "free_names", counted)
    monkeypatch.setattr(bisim_mod, "_run", lambda _mode, root, _game: root)
    if mode == "open":
        a, c = (prefix.name_map()[n] for n in "ac")
        root = pb.open_bisim(p, q, pb.Prefix(()), Distinction.of((a, c)))
        assert (root.depth, root.next_eigen) == (1, 4)
    else:
        root = (pb.late_bisim if mode == "late" else pb.early_bisim)(p, q)
        assert (root.depth, root.next_eigen) == (2, 1)
        with pytest.raises(pb.ReplicationUnsupported):
            pb.late_bisim(enc("!tau.0", prefix), enc("a!a.0", pb.parse_prefix("forall a")))
    assert read == [p, q]


# ---------------------------------------------------------- canonical keys


def renamed_key(goal: Goal):
    """The memo key with the eigenvariable renaming always applied."""
    order = []
    for n in _occurrences(goal):
        if isinstance(n, Eigen) and n.id not in {e.id for e in order}:
            order.append(n)
    ren = {e.id: Eigen(i + 1, e.ceiling) for i, e in enumerate(order)}

    def sub(n, _d=0):
        return ren[n.id] if isinstance(n, Eigen) else n

    pairs = frozenset(
        tuple(sorted((sub(a), sub(b)), key=lambda n: _pair_key((n, n))))
        for a, b in goal.distinct.pairs
    )
    return (goal.depth, map_names(goal.left, sub), map_names(goal.right, sub), pairs)


def _occurrences(goal: Goal):
    out = []

    def note(n, _d):
        out.append(n)
        return n

    map_names(goal.left, note)
    map_names(goal.right, note)
    for a, b in sorted(goal.distinct.pairs, key=_pair_key):
        out += [a, b]
    return out


PREFIX = "forall a, nabla n, forall b, forall c"


def goal(left, right, distinct=EMPTY_DISTINCTION):
    prefix = pb.parse_prefix(PREFIX)
    return Goal(prefix.nabla_count, 4, distinct, enc(left, prefix), enc(right, prefix))


def names():
    m = pb.parse_prefix(PREFIX).name_map()
    return m["a"], m["n"], m["b"], m["c"]


def test_canonical_key_identity_order_takes_the_goal_as_is():
    g = goal("a!b.0 | c?(u).u!a.0", "a!b.c!n.0")
    key = canonical_key(g)
    assert key == renamed_key(g)
    assert key[1] is g.left and key[2] is g.right


def test_canonical_key_permuted_order_renames():
    g = goal("c!b.0 | a?(u).u!c.0", "b!a.0")
    key = canonical_key(g)
    assert key == renamed_key(g)
    assert key[1] != g.left
    # b and c share a ceiling, so exchanging them gives an alpha-variant
    assert key == canonical_key(goal("b!c.0 | a?(u).u!b.0", "c!a.0"))


@pytest.mark.parametrize(
    "left, right",
    [
        ("a!b.0", "c!n.0"),  # identity order, then the distinction's own names
        ("b!a.0", "a!c.0"),  # permuted order
        ("n!n.0", "0"),  # every eigenvariable first met in the distinction
    ],
)
def test_canonical_key_with_distinctions(left, right):
    a, n, b, c = names()
    d = Distinction.of((c, a), (n, b), (b, a))
    g = goal(left, right, d)
    assert canonical_key(g) == renamed_key(g)


def test_canonical_key_distinguishes_distinctions():
    a, n, b, c = names()
    g1 = goal("a!b.0", "a!b.0", Distinction.of((a, b)))
    g2 = goal("a!b.0", "a!b.0", Distinction.of((a, n)))
    assert canonical_key(g1) != canonical_key(g2)
    assert canonical_key(g1) != canonical_key(goal("a!b.0", "a!b.0"))


def test_canonical_key_ground_goal_is_the_goal():
    prefix = pb.parse_prefix("nabla x, nabla y")
    d = Distinction.of((Nabla(2), Nabla(1)))
    g = Goal(2, 1, d, enc("x!y.0", prefix), enc("tau.0", prefix))
    assert canonical_key(g) == renamed_key(g) == (2, g.left, g.right, d.pairs)


# --------------------------------------------------- structural congruence

CONGRUENCE_PREFIX = "forall a, nabla b, forall c"


def _two_texts(rng):
    """Surface texts of two seeded replication-free terms, parenthesised."""
    return (f"({corpus.to_text(corpus.random_proc(rng, max_prefixes=5))})" for _ in range(2))


def congruence_terms(seed, count):
    """Seeded replication-free terms, each also wrapped in the shapes the
    normal form rewrites: a 0 operand, reordered and repeated summands, and
    an unused restriction."""
    rng = random.Random(seed)
    prefix = pb.parse_prefix(CONGRUENCE_PREFIX)
    for _ in range(count):
        p, q = _two_texts(rng)
        for text in (p, f"({q} | 0) | {p}", f"{p} + ({q} + {p})", f"(nu z)({p} | {q})"):
            yield enc(text, prefix)


def test_normal_form_is_idempotent_and_keeps_names():
    for p in congruence_terms(11, 120):
        nf = normal_form(p)
        assert normal_form(nf) == nf, pb.pretty(p)
        assert pb.free_names(nf) == pb.free_names(p)
        assert pb.infer_depth(nf) == pb.infer_depth(p)


def test_normal_form_identifies_the_congruence_laws():
    prefix = pb.parse_prefix(CONGRUENCE_PREFIX)
    rng = random.Random(12)
    for _ in range(120):
        p, q = _two_texts(rng)
        nf = normal_form(enc(f"{p} | {q}", prefix))
        assert nf == normal_form(enc(f"{q} | (0 | {p})", prefix))
        assert nf == normal_form(enc(f"(nu z)({q} | {p})", prefix))
        assert normal_form(enc(f"{p} + {q}", prefix)) == normal_form(enc(f"{q} + {p} + {p}", prefix))


def test_normal_form_keeps_summands_apart_by_their_bound_names():
    prefix = pb.parse_prefix("nabla x, nabla a")
    p = enc("x?(u).x?(v).(u!a.0 + v!a.0 + u!a.0)", prefix)
    assert normal_form(p) == enc("x?(u).x?(v).(v!a.0 + u!a.0)", prefix)


def test_normal_form_leaves_no_cyclic_garbage():
    """Normalising nested ``|`` and ``+`` frees what it builds by reference
    counting, so with the collector off nothing is left for it to find."""
    terms = list(congruence_terms(16, 40))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for p in terms:
            normal_form(p)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_terms_are_bisimilar_to_their_normal_form(monkeypatch):
    """Decided by the game on raw terms, with the normal form switched off."""
    prefix = pb.parse_prefix(CONGRUENCE_PREFIX)
    terms = list(congruence_terms(15, 120))
    normal = [normal_form(p) for p in terms]
    # the game passes its subterm memo; the identity ignores it
    monkeypatch.setattr(bisim_mod, "normal_form", lambda p, _memo: p)
    for p, nf in zip(terms, normal):
        assert pb.open_bisim(p, nf, prefix).bisimilar, pb.pretty(p, prefix)


def _matched(steps, others):
    return all(
        any(
            u.theta == t.theta
            and u.action == t.action
            and normal_form(u.cont) == normal_form(t.cont)
            for u in others
        )
        for t in steps
    )


def test_normal_form_steps_match_up_to_congruence():
    """Every step of p is a step of its normal form with the same
    substitution and action and a congruent continuation, and back."""
    depth = pb.parse_prefix(CONGRUENCE_PREFIX).nabla_count
    for p in congruence_terms(13, 120):
        nf = normal_form(p)
        for succ in (pb.successors_free, pb.successors_bound):
            mine, theirs = succ(p, depth), succ(nf, depth)
            assert _matched(mine, theirs) and _matched(theirs, mine), pb.pretty(p)


def _evidence(res, prefix):
    """The verdict and, for a refutation, the formula's text and side, then
    the number of distinct witness nodes; the witness must replay."""
    if res.bisimilar:
        return True, 0
    formula, side = pb.distinguishing_formula(res)
    assert pb.verify_witness(res)
    nodes = len({id(n) for n in _witness_nodes(res.witness)})
    return (False, pb.pretty_formula(formula, prefix), side), nodes


def _evidence_cases():
    """Seeded pairs in open mode with and without a distinction, and in late
    and early mode; in a third of them the right side is ``0 | (q + p)``,
    which the normal form rewrites."""
    rng = random.Random(14)
    names = ("a", "b")
    for i in range(120):
        p, q = corpus.random_pair(rng, max_prefixes=3, names=names)
        if i % 3 == 0:
            q = ("par", ("nil",), ("sum", q, p))
        entries = tuple((rng.choice(("forall", "nabla")), n) for n in names)
        prefix = pb.parse_prefix(", ".join(f"{k} {n}" for k, n in entries))
        a, b = (prefix.name_map()[n] for n in names)
        for distinct in (EMPTY_DISTINCTION, Distinction.of((a, b))):
            yield "open", prefix, p, q, distinct
        ground = make_prefix(names)
        yield "late", ground, p, q, EMPTY_DISTINCTION
        yield "early", ground, p, q, EMPTY_DISTINCTION


def _play(mode, prefix, p, q, distinct):
    pe, qe = enc_tuple(p, prefix), enc_tuple(q, prefix)
    if mode == "open":
        res = pb.open_bisim(pe, qe, prefix, distinct=distinct)
    else:
        res = (pb.late_bisim if mode == "late" else pb.early_bisim)(pe, qe, prefix.nabla_count)
    return _evidence(res, prefix)


def test_evidence_is_the_same_without_the_normal_form(monkeypatch):
    """Verdicts, formulas and sides do not depend on the normal form; each
    witness replays in its own setting, and the one played on normal forms
    has no more nodes than the one played on raw terms."""
    cases = list(_evidence_cases())
    with_nf = [_play(*c) for c in cases]
    monkeypatch.setattr(bisim_mod, "normal_form", lambda p, _memo: p)
    without_nf = [_play(*c) for c in cases]
    assert [e for e, _ in without_nf] == [e for e, _ in with_nf]
    assert all(on <= off for (_, on), (_, off) in zip(with_nf, without_nf))
    verdicts = [e for e, _ in with_nf]
    assert True in verdicts and any(e is not True for e in verdicts)


# ------------------------------------------------------- the term layer


def layer_terms(seed, count):
    """Seeded terms over eigenvariables and a scoped constant, with
    replication, so that every constructor occurs."""
    rng = random.Random(seed)
    prefix = pb.parse_prefix(CONGRUENCE_PREFIX)
    for _ in range(count):
        yield enc(corpus.to_text(corpus.random_proc(rng, max_prefixes=6, allow_bang=True)), prefix)


BINDING_LABELS = (pb.BoundOut, pb.BoundIn, LateIn, EarlyIn)
LABELS = (pb.Tau, pb.FreeOut, Eq) + BINDING_LABELS


def fields(node):
    return tuple(getattr(node, f) for f in node.__match_args__)


def subterms(p):
    """Every node of ``p``, a Process or Formula, with the number of binders
    above it."""
    todo = [(p, 0)]
    while todo:
        q, depth = todo.pop()
        yield q, depth
        inner = depth + (
            isinstance(q, (pb.In, pb.Nu))
            or isinstance(q, (Dia, Box)) and isinstance(q.label, BINDING_LABELS)
        )
        todo.extend((f, inner) for f in fields(q) if isinstance(f, Process | Formula))


def dangling(q):
    """The indices of ``q`` that point above ``q`` itself."""
    out = set()

    def note(n, d):
        if isinstance(n, pb.Bound) and n.index >= d:
            out.add(n.index - d)
        return n

    map_names(q, note)
    return out


def test_term_hash_is_the_hash_of_its_fields():
    for p in layer_terms(21, 150):
        for q, _ in subterms(p):
            h = hash(fields(q))
            assert hash(q) == h, pb.pretty(p)
            assert hash(type(q)(*fields(q))) == h  # a fresh, unhashed copy
            assert hash(q) == h  # and again, from the cache


def test_unchanged_terms_are_returned_themselves():
    a, b, c = (pb.parse_prefix(CONGRUENCE_PREFIX).name_map()[n] for n in "abc")
    absent = pb.Subst.of((Eigen(7, 1), b))
    for p in layer_terms(22, 150):
        assert map_names(p, lambda n, _d: n) is p
        assert absent(p) is p
        nf = normal_form(p)
        assert normal_form(nf) is nf, pb.pretty(p)
        for q, _ in subterms(p):
            if not dangling(q):
                assert open_abs(q, Nabla(5)) is q
                assert close_abs(q, Eigen(7, 1)) is q
            if isinstance(q, (pb.In, pb.Nu)) and not dangling(q.body):
                assert open_abs(q.body, a) is q.body
        if c not in pb.free_names(p):
            assert close_abs(p, c) is p


def test_rebuilt_terms_share_their_unchanged_operands():
    prefix = pb.parse_prefix(CONGRUENCE_PREFIX)
    names = prefix.name_map()
    p = enc("a!b.tau.0 | (c!b.0 + tau.b!b.0)", prefix)
    q = pb.Subst.of((names["c"], names["b"]))(p)
    assert q == enc("a!b.tau.0 | (b!b.0 + tau.b!b.0)", prefix)
    assert q.left is p.left and q.right.right is p.right.right


def layer_formulas(seed, count):
    """Seeded formulas of every kind, then every formula of the open
    sublogic up to depth 2, over the names of ``CONGRUENCE_PREFIX``."""
    rng = random.Random(seed)
    prefix = pb.parse_prefix(CONGRUENCE_PREFIX)
    for _ in range(count):
        f = oracles.random_formula(rng, rng.randint(1, 4), ("a", "b", "c"))
        yield pb.encode_formula(pb.parse_formula(oracles.formula_to_text(f)), prefix)
    names = prefix.name_map()
    yield from modal_mod.enumerate_lm([names["a"], names["b"]], 2)


def test_unchanged_formulas_are_returned_themselves():
    """Formulas go through the processes' name walk: a formula node none of
    whose names and children change is returned itself, and closing and
    opening at a name are inverse."""
    a, b = (pb.parse_prefix(CONGRUENCE_PREFIX).name_map()[n] for n in "ab")
    w = Eigen(7, 1)
    absent = pb.Subst.of((w, b))
    shapes = set()
    for f in layer_formulas(23, 300):
        assert map_names(f, lambda n, _d: n) is f
        assert absent(f) is f
        for q, _ in subterms(f):
            shapes.add((type(q), type(q.label)) if isinstance(q, (Dia, Box)) else type(q))
            if not dangling(q):
                assert close_abs(q, w) is q
                assert open_abs(q, Nabla(5)) is q
        closed = close_abs(f, a)
        if a in pb.free_names(f):
            assert closed != f
        else:
            assert closed is f
        assert open_abs(closed, a) == f
    connectives = {modal_mod.TrueF, modal_mod.FalseF, modal_mod.And, modal_mod.Or}
    assert set(Formula.__args__) == connectives | {Dia, Box}
    # the 18 shapes: the connectives, and a diamond and a box per label
    assert shapes == connectives | {(m, label) for m in (Dia, Box) for label in LABELS}


# ------------------------------------------------------ parsing and encoding


def _exact_scans(monkeypatch, parse, text):
    """How many times parsing ``text`` cut it into its exact tokens; fails if
    the parse calls into ``re``."""
    scans, regex_calls = [], []
    scan = syntax_mod._TokenParser.scan

    def counted(self):
        scans.append(len(self.text))
        return scan(self)

    def recording(attr):
        return lambda *args, **kwargs: regex_calls.append(attr)

    monkeypatch.setattr(syntax_mod._TokenParser, "scan", counted)
    for attr in ("compile", "match", "fullmatch", "search", "split", "findall", "finditer", "sub"):
        monkeypatch.setattr(re, attr, recording(attr))
    try:
        parse(text)
    except pb.ParseError:
        pass
    monkeypatch.undo()
    assert regex_calls == []
    return len(scans)


@pytest.mark.parametrize(
    "kind, unit, joiner, bad_end",
    [
        ("process", "x!y.0", " | ", " | x 0"),
        ("formula", "<x!y>true", " & ", " & <x>true"),
    ],
)
def test_parsing_makes_a_constant_number_of_regex_calls(monkeypatch, kind, unit, joiner, bad_end):
    """A text is tokenized with no call into ``re``.  A well-formed text is
    cut into tokens by one ``split``, with no character-by-character scan,
    however long it is; a text with an error is scanned once to find the
    error's position, however long it is: scanning every text, or once per
    error check, fails this."""
    parser_cls = syntax_mod._Parser if kind == "process" else modal_mod._FormulaParser
    parse = pb.parse_process if kind == "process" else pb.parse_formula
    long_text = joiner.join([unit] * 90)
    assert len(long_text.translate(parser_cls.pad).split()) >= 500
    for text in (unit, long_text):
        assert _exact_scans(monkeypatch, parse, text) == 0
        assert _exact_scans(monkeypatch, parse, text + bad_end) == 1
        assert _exact_scans(monkeypatch, parse, text + " $") == 1


def test_encode_reads_the_prefix_map_built_once(monkeypatch):
    """``encode``, pretty-printing and the prefix counts read what the prefix
    built when it was made, not ``name_map()``'s copy."""
    prefix = pb.parse_prefix("nabla x, forall y")

    def refuse(self):
        raise AssertionError("name_map() called")

    monkeypatch.setattr(pb.Prefix, "name_map", refuse)
    p = pb.encode(pb.parse_process("x!y.y?(u).0"), prefix)
    f = pb.encode_formula(pb.parse_formula("<x!y>true"), prefix)
    assert p == pb.Out(Nabla(1), Eigen(1, 1), pb.In(Eigen(1, 1), pb.NIL))
    assert f == Dia(pb.FreeOut(Nabla(1), Eigen(1, 1)), modal_mod.TRUE)
    assert pb.pretty(p, prefix) == "x!y.y.0"
    assert (prefix.nabla_count, prefix.eigen_count) == (1, 1)
    assert pb.successors_free(p, prefix.nabla_count)


@pytest.mark.parametrize(
    "parse, text, count",
    [(pb.parse_process, "x!x.x?(y).y!x.0", 4), (pb.parse_formula, "<x!x><x?(y)>L<y!x>[x=x]true", 6)],
    ids=["process", "formula"],
)
def test_one_placeholder_per_name_per_parse(parse, text, count):
    """A parse builds one ``Free`` per identifier and every free occurrence of
    that name is the same object."""
    placeholders = []

    def collect(n, _d):
        if isinstance(n, syntax_mod.Free):
            placeholders.append(n)
        return n

    map_names(parse(text), collect)
    assert len(placeholders) == count
    assert all(p is placeholders[0] for p in placeholders)
