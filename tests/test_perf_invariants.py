"""Invariants of the engine's shortcuts: reusing a parallel operand's
successors, the per-game successor table and the identity fast path of
``canonical_key`` leave steps, counts and keys unchanged."""

from collections import Counter

import pytest

import pibisim as pb
import pibisim.bisim as bisim_mod
from pibisim.bisim import Goal, canonical_key, _pair_key
from pibisim.syntax import Eigen, Nabla, map_names
from pibisim.unify import Distinction, EMPTY_DISTINCTION

COMM_PAIRS = "x0!y.0 | x0?(u).u!y.0 | x1!y.0 | x1?(u).u!y.0"
COMM_PAIRS_SWAPPED = "x1!y.0 | x1?(u).u!y.0 | x0!y.0 | x0?(u).u!y.0"


def enc(text, prefix):
    return pb.encode(pb.parse_process(text), prefix)


# ------------------------------------------------------------ pinned counts


@pytest.mark.parametrize(
    "mode, prefix_text, expected",
    [
        ("open", "forall x0, forall x1, forall y", (True, 111, 567, 110)),
        ("open", "nabla x0, nabla x1, nabla y", (True, 63, 323, 62)),
        ("late", "nabla x0, nabla x1, nabla y", (True, 322, 1601, 321)),
    ],
)
def test_communicating_pairs_counts(mode, prefix_text, expected):
    prefix = pb.parse_prefix(prefix_text)
    p, q = enc(COMM_PAIRS, prefix), enc(COMM_PAIRS_SWAPPED, prefix)
    if mode == "open":
        res = pb.open_bisim(p, q, prefix)
    else:
        res = pb.late_bisim(p, q, prefix.nabla_count)
    assert (res.bisimilar, res.stats.goals, res.stats.branches, len(res.certificate)) == expected


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
    """Every (function, term, depth) the game asks ``lts`` for."""
    seen = Counter()

    def counting(name, fn):
        def wrapper(p, depth=None):
            seen[(name, p, depth)] += 1
            return fn(p, depth)

        return wrapper

    for name in ("successors_free", "successors_bound"):
        monkeypatch.setattr(bisim_mod, name, counting(name, getattr(bisim_mod, name)))
    return seen


def test_each_term_reaches_lts_once_per_game_bisimilar(lts_requests):
    prefix = pb.parse_prefix("forall x0, forall x1, forall y")
    res = pb.open_bisim(enc(COMM_PAIRS, prefix), enc(COMM_PAIRS_SWAPPED, prefix), prefix)
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
    assert pb.verify_witness(res)  # replays in a fresh game, with its own table
    assert sum(lts_requests.values()) > before


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
