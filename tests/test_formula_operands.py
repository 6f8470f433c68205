"""Distinguishing formulas keep each operand of a conjunction or disjunction
once: the fold drops an operand equal to one already in its chain, since
``A & A = A`` and ``A v A = A`` in every mode.  Checked on the benchmark's
``wide`` refutations at seed 1, whose replies fold to equal subformulas, and
on a seeded sweep of parallel refutations in all three modes."""

import random

import pytest

import corpus
import pibisim as pb
from agree import enc, make_prefix
from pibisim.syntax import FALSE, TAU, TRUE, And, Box, Dia, Or


def repeated_operand(f):
    """The first operand found twice in one ``&`` or ``v`` chain of ``f``,
    the chain read through its nesting in either operand, or None."""
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (Dia, Box)):
            todo.append(g.body)
        if not isinstance(g, (And, Or)):
            continue
        operands, chain = [], [g]
        while chain:
            h = chain.pop()
            if type(h) is type(g):
                chain += [h.right, h.left]
            else:
                operands.append(h)
        seen = set()
        for op in operands:
            if op in seen:
                return op
            seen.add(op)
        todo += operands
    return None


def test_repeated_operand_finds_a_repeat_at_any_nesting():
    a, b = Dia(TAU, TRUE), Box(TAU, FALSE)
    assert repeated_operand(And(a, And(b, a))) == a
    assert repeated_operand(Dia(TAU, Or(Or(b, a), b))) == b
    assert repeated_operand(And(Or(a, b), Or(b, a))) is None


def test_wide_formulas_repeat_no_operand(workloads):
    refuted = 0
    for q in workloads.generate("wide", 1):
        if q.kind != "pair" or q.evidence != "full":
            continue
        res = workloads.run_query(q).result
        if res.bisimilar:
            continue
        refuted += 1
        f, _side = pb.distinguishing_formula(res)
        assert repeated_operand(f) is None, (q.left, q.right, q.mode)
    assert refuted == 136


@pytest.mark.parametrize("mode, expected", [("open", 245), ("late", 238), ("early", 238)])
def test_parallel_refutations_repeat_no_operand(mode, expected):
    """500 seeded pairs ``p | p`` against ``q | p`` over ``a, b``, with ``p``
    and ``q`` drawn by ``corpus.random_pair``: a copy of ``p`` on each side
    gives the defender several replies, which can fold to equal formulas."""
    rng = random.Random(17)
    if mode == "open":
        prefix = pb.parse_prefix("forall a, forall b")
        decide = lambda p, q: pb.open_bisim(p, q, prefix)
    else:
        prefix = make_prefix(("a", "b"))
        fn = pb.late_bisim if mode == "late" else pb.early_bisim
        decide = lambda p, q: fn(p, q, 2)
    refuted = 0
    for _ in range(500):
        p, q = corpus.random_pair(rng, max_prefixes=4, names=("a", "b"))
        left, right = ("par", p, p), ("par", q, p)
        res = decide(enc(left, prefix), enc(right, prefix))
        if res.bisimilar:
            continue
        refuted += 1
        f, _side = pb.distinguishing_formula(res)
        assert repeated_operand(f) is None, (corpus.to_text(left), corpus.to_text(right))
    assert refuted == expected
