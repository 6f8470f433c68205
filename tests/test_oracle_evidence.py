"""Ground refutations checked by the independent oracles alone.

``verify_witness`` replays a witness over the successor lists and normal
forms that the deciding game tabled, and the engine checks its own formula
with its own satisfaction walk over the same lists, so a fault in ``lts``
passes both.  The check here shares no code with the engine: a process is
an ``oracles`` tuple that the engine receives as text, and the engine's
distinguishing formula is printed, read back by ``read_formula`` into an
``oracles`` formula tuple, and evaluated by ``oracles.o_sat``.  It must hold
on the side the engine names and fail on the other.
"""

import itertools
import random
import re

import pytest

import corpus
import oracles
import pibisim as pb
import pibisim.lts as lts_mod
from agree import enc, make_prefix

_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[<>\[\]=!?()&]|\S")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def read_formula(text: str, names: tuple[str, ...]):
    """The printed formula ``text`` over the scoped ``names`` as an
    ``oracles`` formula tuple.  Each binder gets a fresh name ``fb<n>``.
    Wherever the grammar expects a name, any identifier in scope is read as
    one, ``v`` included, although ``v`` is also the disjunction keyword: a
    name never follows a complete operand, and ``v`` only ever does."""
    toks, pos, fresh = _TOKEN.findall(text), 0, itertools.count(1)

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or expected not in (None, tok):
            raise ValueError(f"{text!r}: expected {expected or 'a token'} at token {pos}, found {tok!r}")
        pos += 1
        return tok

    def name(env):
        tok = take()
        if tok not in env:
            raise ValueError(f"{text!r}: {tok!r} at token {pos - 1} is not a name in scope")
        return env[tok]

    def chain(tag, keyword, operand, env):
        parts = [operand(env)]
        while peek() == keyword:
            take()
            parts.append(operand(env))
        f = parts.pop()
        for g in reversed(parts):
            f = (tag, g, f)
        return f

    def disjunction(env):
        return chain("or", "v", conjunction, env)

    def conjunction(env):
        return chain("and", "&", unary, env)

    def unary(env):
        tok = take()
        if tok in ("true", "false"):
            return (tok,)
        if tok == "(":
            f = disjunction(env)
            take(")")
            return f
        if tok not in ("<", "["):
            raise ValueError(f"{text!r}: expected a formula at token {pos - 1}, found {tok!r}")
        dia, closer = tok == "<", ">" if tok == "<" else "]"
        if peek() == "tau":
            take()
            take(closer)
            return ("fdia" if dia else "fbox", ("tau",), unary(env))
        ch, op = name(env), take()
        if op == "=":
            other = name(env)
            take(closer)
            return ("mdia" if dia else "mbox", ch, other, unary(env))
        if op == "!" and peek() != "(":
            obj = name(env)
            take(closer)
            return ("fdia" if dia else "fbox", ("out", ch, obj), unary(env))
        if op not in ("!", "?"):
            raise ValueError(f"{text!r}: expected '=', '!' or '?' at token {pos - 1}, found {op!r}")
        take("(")
        binder = take()
        if not _IDENT.fullmatch(binder):
            raise ValueError(f"{text!r}: expected a binder at token {pos - 1}, found {binder!r}")
        take(")")
        take(closer)
        z = f"fb{next(fresh)}"
        if op == "!":
            return ("odia" if dia else "obox", ch, z, unary({**env, binder: z}))
        flavour = {"L": "l", "E": "e"}.get(peek(), "")
        if flavour:
            take()
        return (("idia" if dia else "ibox") + flavour, ch, z, unary({**env, binder: z}))

    f = disjunction({n: n for n in names})
    if pos != len(toks):
        raise ValueError(f"{text!r}: unexpected {toks[pos]!r} at token {pos}")
    return f


def oracle_separates(p, q, names, text, side) -> bool:
    """Whether the printed formula ``text`` holds, by ``oracles.o_sat``, on
    the ``side`` of the pair ``(p, q)`` that the engine names, and fails on
    the other."""
    f = read_formula(text, names)
    holder, other = (p, q) if side == "left" else (q, p)
    budget = oracles.o_budget(f)
    return oracles.o_sat(holder, f, names, budget) and not oracles.o_sat(other, f, names, budget)


def refute(p, q, names, mode):
    """The engine's ground verdict on ``(p, q)``, with its printed formula
    and side when it refutes."""
    prefix = make_prefix(names)
    fn = pb.late_bisim if mode == "late" else pb.early_bisim
    res = fn(enc(p, prefix), enc(q, prefix), len(names))
    if res.bisimilar:
        return res, None, None
    f, side = pb.distinguishing_formula(res)
    return res, pb.pretty_formula(f, prefix), side


# ------------------------------------------------------------------ the reader


def test_reader_reads_every_modality_and_gives_each_binder_a_fresh_name():
    text = "<tau>true & [x!x]false v <x=x>(<x!(y)>[y?(y)]L true v [x?(z)]E <z=x>true & <x?(u)>false)"
    assert read_formula(text, ("x",)) == (
        "or",
        ("and", ("fdia", ("tau",), ("true",)), ("fbox", ("out", "x", "x"), ("false",))),
        ("mdia", "x", "x", (
            "or",
            ("odia", "x", "fb1", ("iboxl", "fb1", "fb2", ("true",))),
            ("and", ("iboxe", "x", "fb3", ("mdia", "fb3", "x", ("true",))),
             ("idia", "x", "fb4", ("false",))),
        )),
    )


def test_reader_takes_v_as_a_name_where_a_name_is_expected():
    # the fourth nested binder of a printed formula can be named v
    text = "<x?(y)>L <x?(z)>L <x?(u)>L <x?(v)>L (<v!x>true v [v=x]false) v false"
    f = read_formula(text, ("x",))
    assert f[0] == "or" and f[2] == ("false",) and f[1][:3] == ("idial", "x", "fb1")
    inner = f[1][3][3][3]
    assert inner == ("idial", "x", "fb4", ("or", ("fdia", ("out", "fb4", "x"), ("true",)),
                                          ("mbox", "fb4", "x", ("false",))))


@pytest.mark.parametrize("text", ["<y!x>true", "<x!x>", "<x?(<)>true", "true true", "(true"])
def test_reader_rejects_what_is_not_a_formula_over_the_names(text):
    with pytest.raises(ValueError):
        read_formula(text, ("x",))


# ------------------------------------------------------------ the oracle check

NAMES = ("a", "b")
NIL = ("nil",)


def par(*ps):
    return ps[0] if len(ps) == 1 else ("par", ps[0], par(*ps[1:]))


# The shapes of the benchmark's wide refutations: n copies of a unit against
# n - 1 copies and one copy that moves once more.  At widths 3 and 4 the
# input units' formulas nest enough binders for the printer to name one v.
UNITS = {
    "in": (("in", "a", "u", NIL), ("in", "a", "u", ("in", "a", "w", NIL))),
    "inout": (("in", "a", "u", ("out", "u", "a", NIL)),
              ("in", "a", "u", ("out", "u", "a", ("out", "u", "a", NIL)))),
    "out": (("out", "a", "b", NIL), ("out", "a", "b", ("out", "a", "b", NIL))),
}


@pytest.mark.parametrize("mode", ["late", "early"])
@pytest.mark.parametrize("unit", sorted(UNITS))
def test_oracle_accepts_wide_refutations(mode, unit):
    one, more = UNITS[unit]
    for n in (2, 3, 4):
        p, q = par(*[one] * n), par(*[one] * (n - 1), more)
        for left, right in ((p, q), (q, p)):
            res, text, side = refute(left, right, NAMES, mode)
            assert not res.bisimilar
            assert oracle_separates(left, right, NAMES, text, side), text


@pytest.mark.parametrize("mode", ["late", "early"])
@pytest.mark.parametrize("family, expected", [("plain", 455), ("parallel", 219)])
def test_oracle_accepts_every_seeded_refutation(mode, family, expected):
    """1,000 seeded pairs from ``corpus.random_pair``, or 500 pairs ``p | p``
    against ``q | p``, whose defender has several replies."""
    rng = random.Random(18)
    refuted = 0
    for _ in range(1000 if family == "plain" else 500):
        p, q = corpus.random_pair(rng, max_prefixes=4, names=NAMES)
        if family == "parallel":
            p, q = ("par", p, p), ("par", q, p)
        res, text, side = refute(p, q, NAMES, mode)
        if res.bisimilar:
            continue
        refuted += 1
        assert oracle_separates(p, q, NAMES, text, side), (corpus.to_text(p), corpus.to_text(q), text)
    assert refuted == expected


# A close: the extruded name y is received by the input beside it.
CLOSE = ("par", ("nu", "y", ("out", "x", "y", NIL)), ("in", "x", "z", NIL))


@pytest.mark.parametrize("mode", ["late", "early"])
def test_oracle_check_catches_a_dropped_close(monkeypatch, mode):
    """With closes dropped from ``lts``, the engine refutes a pair that the
    oracle calls bisimilar.  The witness replay and the engine's own formula
    check read the same faulty lists and accept; the oracle check does not."""
    p, q = CLOSE, ("sum", CLOSE, ("tau", NIL))
    assert oracles.o_ground_bisim(p, q, ("x",), mode)
    assert refute(p, q, ("x",), mode)[0].bisimilar

    real = lts_mod._communicate

    def no_close(sides, depth):
        return [t for t in real(sides, depth) if not isinstance(t.cont, pb.Nu)]

    monkeypatch.setattr(lts_mod, "_communicate", no_close)
    monkeypatch.setattr(lts_mod, "_last", (None, None, None))
    res, text, side = refute(p, q, ("x",), mode)  # the engine's own check passed
    assert not res.bisimilar
    assert pb.verify_witness(res)
    assert (text, side) == ("[tau]false", "left")
    assert not oracle_separates(p, q, ("x",), text, side)
