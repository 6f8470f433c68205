"""End-to-end acceptance suite.

Each test is one acceptance criterion, so `pytest -v` reports one pass/fail
line per criterion.  Criteria 1-5 pin exact verdicts on small worked
judgments; criteria 6-10 are property sweeps over generated corpora with
deterministic seeds.
"""

import random
import time

import pibisim as pb
from pibisim.syntax import NIL, Nabla, Nu, Out, Par

import corpus
import oracles
from agree import enc, engine_ground, engine_open, make_prefix, steps_agree

NAMES = ("a", "b", "c")


def _enc(text, prefix_text):
    prefix = pb.parse_prefix(prefix_text)
    return pb.encode(pb.parse_process(text), prefix), prefix


def test_criterion_01_stuck_process_certificate():
    """(nu y)[x=y]x!z.0 under two nablas has no transitions and equals 0 in
    every mode."""
    p, prefix = _enc("(nu y)[x=y]x!z.0", "nabla x, nabla z")
    assert pb.successors_free(p, 2) == []
    assert pb.successors_bound(p, 2) == []
    assert pb.has_no_transition(p)
    assert pb.late_bisim(p, NIL, 2).bisimilar
    assert pb.early_bisim(p, NIL, 2).bisimilar
    assert pb.open_bisim(p, NIL, prefix).bisimilar


def test_criterion_02_interleaving_law():
    """x|y! equals x.y!+y!.x under nabla-nabla in all modes, but not under
    forall-forall in open mode, where the refutation carries a verified
    distinguishing formula."""
    left = pb.parse_process("x.0 | y!.0")
    right = pb.parse_process("x.y!.0 + y!.x.0")

    nabla = pb.extend_prefix_for_reserved(pb.parse_prefix("nabla x, nabla y"), left, right)
    l, r = pb.encode(left, nabla), pb.encode(right, nabla)
    assert pb.open_bisim(l, r, nabla).bisimilar
    assert pb.late_bisim(l, r, nabla.nabla_count).bisimilar
    assert pb.early_bisim(l, r, nabla.nabla_count).bisimilar

    forall = pb.extend_prefix_for_reserved(pb.parse_prefix("forall x, forall y"), left, right)
    l, r = pb.encode(left, forall), pb.encode(right, forall)
    res = pb.open_bisim(l, r, forall)
    assert not res.bisimilar
    assert pb.verify_witness(res)
    f, side = pb.distinguishing_formula(res)
    holder, other = (l, r) if side == "left" else (r, l)
    assert pb.sat_open(holder, f, forall)
    assert not pb.sat_open(other, f, forall)


def test_criterion_03_late_open_separation():
    """The classic pair that is late bisimilar but not open bisimilar."""
    p_text = "x?(u).(tau.tau.0 + tau.0)"
    q_text = "x?(u).(tau.tau.0 + tau.0 + tau.[u=z]tau.0)"

    p, _ = _enc(p_text, "nabla x, nabla z")
    q, _ = _enc(q_text, "nabla x, nabla z")
    assert pb.late_bisim(p, q, 2).bisimilar

    p, prefix = _enc(p_text, "forall x, forall z")
    q, _ = _enc(q_text, "forall x, forall z")
    assert not pb.open_bisim(p, q, prefix).bisimilar


def test_criterion_04_modal_fresh_name_budget():
    """[a?(x)]L [x=a]false holds on a?(x).0 with one extra fresh name but not
    with zero, and fresh_budget computes exactly one."""
    prefix = pb.parse_prefix("nabla a")
    p = pb.encode(pb.parse_process("a?(x).0"), prefix)
    f = pb.encode_formula(pb.parse_formula("[a?(x)]L [x=a]false"), prefix)
    assert pb.fresh_budget(f) == 1
    assert pb.sat_ground(p, f, 1)
    assert not pb.sat_ground(p, f, 0)


def test_criterion_05_replication_single_step():
    """!(nu z)(z!a.0 | z?(y).x!y.0) has exactly one successor up to alpha: a
    tau to ((nu z)(0|x!a.0)) in parallel with the original process."""
    p, _ = _enc("!(nu z)(z!a.0 | z?(y).x!y.0)", "nabla x, nabla a")
    free = pb.successors_free(p, 2)
    assert pb.successors_bound(p, 2) == []
    assert len(free) == 1
    t = free[0]
    assert t.theta.is_identity()
    assert t.action == pb.TAU
    assert t.cont == Par(Nu(Par(NIL, Out(Nabla(1), Nabla(2), NIL))), p)


def test_criterion_06_ground_coherence_suite():
    """Symbolic one-step successors agree with the brute-force named-semantics
    oracle modulo alpha on the whole generated corpus, within 60 seconds.

    The corpus is every replication-free process with up to 4 constructor
    nodes over 3 free names (18,100 terms), plus 50,000 seeded random terms
    reaching the full range of up to 6 action prefixes.
    """
    t0 = time.time()
    checked = 0
    for p in corpus.exhaustive_upto(4, NAMES):
        assert steps_agree(p, NAMES), corpus.to_text(p)
        checked += 1
    assert checked == 18100
    rng = random.Random(606)
    deep = 0
    for _ in range(50_000):
        p = corpus.random_proc(rng, max_prefixes=6, names=NAMES)
        assert steps_agree(p, NAMES), corpus.to_text(p)
        deep = max(deep, corpus.prefix_ops(p))
        checked += 1
    elapsed = time.time() - t0
    assert deep == 6
    assert elapsed <= 60.0, f"{checked} processes took {elapsed:.1f}s"


def test_criterion_07_mode_inclusion_suite():
    """open (all-forall) implies late implies early on 1,000 random pairs."""
    rng = random.Random(707)
    entries = tuple(("forall", n) for n in NAMES)
    for _ in range(1000):
        p, q = corpus.random_pair(rng, max_prefixes=4, names=NAMES)
        open_v = engine_open(p, q, entries).bisimilar
        late_v = engine_ground(p, q, NAMES, "late")
        early_v = engine_ground(p, q, NAMES, "early")
        assert (not open_v or late_v) and (not late_v or early_v), (
            corpus.to_text(p),
            corpus.to_text(q),
            open_v,
            late_v,
            early_v,
        )


ENTRYSETS = [
    (("forall", "a"), ("forall", "b")),
    (("nabla", "a"), ("forall", "b")),
    (("forall", "a"), ("nabla", "b")),
    (("nabla", "a"), ("nabla", "b")),
]


NIL_T, TAU_T = ("nil",), ("tau", ("nil",))

# Pairs whose verdicts turn on what the received name may become: a free
# name, an earlier received name, but not a name fixed in advance.  Random
# pairs rarely do, so without these the sweep passes with the received name
# opened as a fresh constant or as a prefix name.
RECEIVED_NAME_PAIRS = [
    (("in", "a", "u", ("match", "u", "b", TAU_T)), ("in", "a", "u", NIL_T)),
    (
        ("in", "a", "u", ("in", "a", "v", ("match", "u", "v", TAU_T))),
        ("in", "a", "u", ("in", "a", "v", TAU_T)),
    ),
    (("in", "a", "u", ("out", "u", "u", NIL_T)), ("in", "a", "u", ("out", "a", "a", NIL_T))),
]


def test_criterion_08_open_early_collapse():
    """The engine's open verdicts, whose input clause instantiates the
    defender's abstraction, equal an oracle whose input clause answers
    each free input of the received name: late- and early-style open
    bisimilarity coincide."""
    rng = random.Random(808)
    pairs = []
    for i in range(800):
        entries = ENTRYSETS[i % len(ENTRYSETS)]
        names = tuple(n for _, n in entries)
        pairs.append((*corpus.random_pair(rng, max_prefixes=4, names=names), entries))
    pairs += [(p, q, entries) for p, q in RECEIVED_NAME_PAIRS for entries in ENTRYSETS]
    for p, q, entries in pairs:
        late_style = engine_open(p, q, entries).bisimilar
        early_style = oracles.o_open_bisim(p, q, entries, clause="early")
        assert late_style == early_style, (corpus.to_text(p), corpus.to_text(q), entries)


def test_criterion_09_witness_soundness():
    """Every refutation's extracted formula is satisfied by exactly one side,
    evaluated in the matching mode, and its witness replays structurally."""
    rng = random.Random(77)
    refuted = 0
    for i in range(400):
        p, q = corpus.random_pair(rng, max_prefixes=4, names=NAMES)
        mode = ("open", "late", "early")[i % 3]
        if mode == "open":
            quants = tuple(rng.choice(("forall", "nabla")) for _ in NAMES)
            entries = tuple(zip(quants, NAMES))
            res = engine_open(p, q, entries)
        else:
            prefix = make_prefix(NAMES)
            fn = pb.late_bisim if mode == "late" else pb.early_bisim
            res = fn(enc(p, prefix), enc(q, prefix), len(NAMES))
        if res.bisimilar:
            continue
        refuted += 1
        assert pb.verify_witness(res)
        f, side = pb.distinguishing_formula(res)
        holder = res.root.left if side == "left" else res.root.right
        other = res.root.right if side == "left" else res.root.left
        if mode == "open":
            pfx = pb.parse_prefix(", ".join(f"{q} {n}" for q, n in entries))
            on_holder, on_other = pb.sat_open(holder, f, pfx), pb.sat_open(other, f, pfx)
        else:
            on_holder = pb.sat_ground(holder, f, depth=len(NAMES))
            on_other = pb.sat_ground(other, f, depth=len(NAMES))
        assert on_holder and not on_other, (corpus.to_text(p), corpus.to_text(q), mode, side)
    assert refuted >= 100  # the sweep must actually exercise refutations


def test_criterion_10_ground_two_valuedness():
    """sat_ground(p, dual(a)) is the negation of sat_ground(p, a) on 500
    random process/formula pairs of formula depth up to 3."""
    rng = random.Random(910)
    prefix = make_prefix(NAMES)
    for i in range(500):
        p = corpus.random_proc(rng, max_prefixes=4, names=NAMES)
        f = oracles.random_formula(rng, rng.randint(1, 3), NAMES)
        fe = pb.encode_formula(pb.parse_formula(oracles.formula_to_text(f)), prefix)
        pe = enc(p, prefix)
        budget = pb.fresh_budget(fe)
        dual_holds = pb.sat_ground(pe, pb.dual(fe), budget, depth=len(NAMES))
        straight = pb.sat_ground(pe, fe, budget, depth=len(NAMES))
        assert dual_holds == (not straight), (i, corpus.to_text(p), oracles.formula_to_text(f))
