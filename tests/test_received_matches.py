"""Open bisimilarity on pairs that match a received name under its input,
like ``a?(y).[y=a]tau.0``, against the independent oracle.

``corpus.random_pair`` rarely puts a match on a received name that the two
sides treat differently, so its sweeps cannot see what the engine opens a
received name at.  Here every match below an input reads a received name,
and each pair edits such a match: it drops one, compares it with another
name, or adds one."""

import itertools
import random

import pibisim as pb

import corpus
import oracles
from agree import enc, engine_open

NAMES = ("a", "b")
NIL = ("nil",)


def received_match_proc(rng: random.Random, budget: int):
    """A process tuple of at most ``budget`` prefixes and matches over
    ``NAMES``, in which a match below an input compares a received name."""
    counter = itertools.count(1)

    def gen(budget: int, scope: tuple, received: tuple) -> tuple:
        if budget <= 0:
            return NIL
        kinds = ("nil", "tau", "out", "in", "match", "sum", "par")
        kind = rng.choices(kinds, (1, 2, 2, 4, 4, 3, 1))[0]
        if kind == "match" and not received:
            kind = "in"
        if kind == "nil":
            return NIL
        if kind == "tau":
            return ("tau", gen(budget - 1, scope, received))
        if kind == "out":
            return ("out", rng.choice(scope), rng.choice(scope), gen(budget - 1, scope, received))
        if kind == "in":
            y = f"y{next(counter)}"
            return ("in", rng.choice(NAMES), y, gen(budget - 1, scope + (y,), received + (y,)))
        if kind == "match":
            x = rng.choice(received)
            return ("match", x, rng.choice(scope), gen(budget - 1, scope, received))
        split = rng.randint(1, budget - 1) if budget > 1 else 1
        return (kind, gen(split, scope, received), gen(budget - split, scope, received))

    return gen(budget, NAMES, ())


def _sites(p, scope=NAMES, received=(), path=()):
    """Every node below an input, with its path and the names in scope."""
    if received:
        yield path, p, scope, received
    tag = p[0]
    if tag == "tau":
        yield from _sites(p[1], scope, received, path + (1,))
    elif tag in ("out", "match"):
        yield from _sites(p[3], scope, received, path + (3,))
    elif tag == "in":
        y = p[2]
        yield from _sites(p[3], scope + (y,), received + (y,), path + (3,))
    elif tag in ("sum", "par"):
        yield from _sites(p[1], scope, received, path + (1,))
        yield from _sites(p[2], scope, received, path + (2,))


def _replace(p, path, new):
    if not path:
        return new
    i = path[0]
    return p[:i] + (_replace(p[i], path[1:], new),) + p[i + 1:]


def edit_received_match(rng: random.Random, p):
    """``p`` with one match below an input dropped or compared with another
    name, or with a match on a received name added; ``p`` itself when no
    node lies below an input."""
    sites = list(_sites(p))
    if not sites:
        return p
    path, node, scope, received = rng.choice(sites)
    if node[0] == "match" and rng.random() < 0.5:
        others = [n for n in scope if n != node[2]]
        if rng.random() < 0.5 or not others:
            return _replace(p, path, node[3])
        return _replace(p, path, ("match", node[1], rng.choice(others), node[3]))
    guard = ("match", rng.choice(received), rng.choice(scope))
    if rng.random() < 0.5:
        return _replace(p, path, guard + (node,))
    return _replace(p, path, ("sum", node, guard + (("tau", NIL),)))


def received_match_pairs(seed: int, count: int, budget: int = 4):
    """``count`` seeded pairs with a random prefix over ``NAMES``, the hand
    case ``a?(y).[y=a]tau.0`` against ``a?(y).0`` under ``forall a`` first."""
    yield (
        ("in", "a", "y", ("match", "y", "a", ("tau", NIL))),
        ("in", "a", "y", NIL),
        (("forall", "a"), ("nabla", "b")),
    )
    rng = random.Random(seed)
    for _ in range(count - 1):
        p = received_match_proc(rng, rng.randint(2, budget))
        entries = tuple((rng.choice(("forall", "nabla")), n) for n in NAMES)
        roll = rng.random()
        if roll < 0.4:
            q = edit_received_match(rng, p)
        elif roll < 0.7:
            q = ("sum", p, edit_received_match(rng, p))
        else:
            p, q = edit_received_match(rng, p), edit_received_match(rng, p)
        yield p, q, entries


def test_received_match_verdicts_match_oracle():
    """600 seeded pairs of at most 4 prefixes and matches: each open verdict
    agrees with ``oracles.o_open_bisim``, and each refutation gets a
    distinguishing formula that open satisfaction accepts on its side and
    rejects on the other, so none of these pairs reaches ``NoSeparator``."""
    refuted = 0
    for p, q, entries in received_match_pairs(11, 600):
        res = engine_open(p, q, entries)
        case = (corpus.to_text(p), corpus.to_text(q), entries)
        assert res.bisimilar == oracles.o_open_bisim(p, q, entries), case
        if res.bisimilar:
            continue
        refuted += 1
        prefix = pb.parse_prefix(", ".join(f"{quant} {n}" for quant, n in entries))
        f, side = pb.distinguishing_formula(res)
        holder, other = (p, q) if side == "left" else (q, p)
        assert pb.sat_open(enc(holder, prefix), f, prefix), case
        assert not pb.sat_open(enc(other, prefix), f, prefix), case
    assert refuted == 296
