"""Randomized invariants, cross-checked against the independent oracles."""

import itertools
import random
import time

from hypothesis import given, settings, strategies as st

import pibisim as pb
import corpus
import oracles
from agree import (
    enc,
    engine_ground,
    engine_open,
    make_prefix,
    steps_agree,
)

NAMES = ("a", "b")
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def rnd(seed):
    return random.Random(seed)


# --------------------------------------------------------------------- syntax


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_pretty_parse_round_trip(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=6, allow_bang=True)
    prefix = make_prefix(corpus.FREE_NAMES)
    e = enc(p, prefix)
    back = pb.encode(pb.parse_process(pb.pretty(e, prefix)), prefix)
    assert pb.alpha_eq(e, back)


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_encode_bijective_on_alpha_classes(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=4)
    q = corpus.random_proc(rng, max_prefixes=4)
    prefix = make_prefix(corpus.FREE_NAMES)
    same_alpha = oracles.canon(p) == oracles.canon(q)
    assert (enc(p, prefix) == enc(q, prefix)) == same_alpha


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_free_names_within_prefix(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=6)
    prefix = make_prefix(corpus.FREE_NAMES)
    declared = set(prefix.name_map().values())
    assert set(pb.free_names(enc(p, prefix))) <= declared


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_open_close_inverse(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=5)
    e = enc(p, make_prefix(corpus.FREE_NAMES))
    for n in (pb.Nabla(7), pb.Eigen(9, 2)):
        assert pb.close_abs(pb.open_abs(pb.close_abs(e, n), n), n) == pb.close_abs(e, n)
        assert pb.open_abs(pb.close_abs(e, n), n) == e


# Token soups: tokens of each text language, characters that start no token,
# and whitespace, glued at random.  ``f`` is declared so that calls parse.
JUNK = ["$", "#", "X", "9", "_", "-", "\u00e9", " ", "  ", "\t", "\n", "\u00a0"]
SOUP_DEFS = pb.parse_decls("f(a) := a!a.0\n")
SOUPS = {
    "process": (
        lambda text: pb.parse_process(text, SOUP_DEFS),
        "0 . ! ? ( ) [ ] = + | , x y f tau nu (nu".split() + JUNK,
    ),
    "formula": (pb.parse_formula, "< > [ ] = ! ? ( ) & . v x y true false tau L E".split() + JUNK),
    "prefix": (pb.parse_prefix, "forall nabla x y tau , ,".split() + JUNK),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SOUPS)), st.data())
def test_parsers_raise_only_parse_errors(language, data):
    parse, tokens = SOUPS[language]
    text = "".join(data.draw(st.lists(st.sampled_from(tokens), max_size=40)))
    try:
        parse(text)
    except (pb.ParseError, pb.DuplicatePrefixName):
        pass


# ------------------------------------------------------------------------ lts


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_ground_coherence_random(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=6)
    assert steps_agree(p, corpus.FREE_NAMES)


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_substitution_stability(seed):
    """A symbolic step instantiated by its own unifier plus any grounding is a
    ground step of the instantiated process."""
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=5)
    prefix = pb.parse_prefix("nabla c, forall a, forall b")
    nm = prefix.name_map()
    pe = pb.encode(pb.parse_process(corpus.to_text(p)), prefix)
    sigma = pb.Subst.of((nm["a"], pb.Nabla(1)), (nm["b"], pb.Nabla(1)))

    for t in pb.successors_free(pe, 1):
        gp = sigma(t.theta(pe))
        ground_steps = {
            (u.action, u.cont)
            for u in pb.successors_free(gp, 1)
            if u.theta.is_identity()
        }
        assert (sigma(t.action), sigma(t.cont)) in ground_steps
    for t in pb.successors_bound(pe, 1):
        gp = sigma(t.theta(pe))
        ground_steps = {
            (u.action, u.cont)
            for u in pb.successors_bound(gp, 1)
            if u.theta.is_identity()
        }
        assert (sigma(t.action), sigma(t.cont)) in ground_steps


# ---------------------------------------------------------------------- bisim


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_ground_verdicts_match_oracle(seed):
    rng = rnd(seed)
    p, q = corpus.random_pair(rng, max_prefixes=4, names=NAMES)
    for mode in ("late", "early"):
        assert engine_ground(p, q, NAMES, mode) == oracles.o_ground_bisim(
            p, q, NAMES, mode
        ), (corpus.to_text(p), corpus.to_text(q), mode)


ENTRYSETS = [
    (("forall", "a"), ("forall", "b")),
    (("nabla", "a"), ("forall", "b")),
    (("forall", "a"), ("nabla", "b")),
    (("nabla", "a"), ("nabla", "b")),
]


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from(ENTRYSETS))
def test_open_verdicts_match_oracle(seed, entries):
    rng = rnd(seed)
    p, q = corpus.random_pair(rng, max_prefixes=3, names=NAMES)
    assert engine_open(p, q, entries).bisimilar == oracles.o_open_bisim(
        p, q, entries
    ), (corpus.to_text(p), corpus.to_text(q), entries)


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_mode_inclusion(seed):
    rng = rnd(seed)
    p, q = corpus.random_pair(rng, max_prefixes=4, names=NAMES)
    o = engine_open(p, q, tuple(("forall", n) for n in NAMES)).bisimilar
    l = engine_ground(p, q, NAMES, "late")
    e = engine_ground(p, q, NAMES, "early")
    assert (not o or l) and (not l or e), (corpus.to_text(p), corpus.to_text(q))


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.sampled_from(ENTRYSETS))
def test_open_early_collapse(seed, entries):
    rng = rnd(seed)
    p, q = corpus.random_pair(rng, max_prefixes=4, names=NAMES)
    late_style = engine_open(p, q, entries).bisimilar
    early_style = oracles.o_open_bisim(p, q, entries, clause="early")
    assert late_style == early_style, (corpus.to_text(p), corpus.to_text(q), entries)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from(ENTRYSETS))
def test_equivalence_laws(seed, entries):
    rng = rnd(seed)
    p, q = corpus.random_pair(rng, max_prefixes=4, names=NAMES)
    assert engine_open(p, p, entries).bisimilar
    assert engine_open(q, q, entries).bisimilar
    assert (
        engine_open(p, q, entries).bisimilar == engine_open(q, p, entries).bisimilar
    )


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_prefix_monotonicity(seed):
    """Turning a forall into a nabla (same position) preserves Bisimilar."""
    rng = rnd(seed)
    p, q = corpus.random_pair(rng, max_prefixes=3, names=NAMES)
    entries = [rng.choice([("forall", n), ("nabla", n)]) for n in NAMES]
    if not engine_open(p, q, tuple(entries)).bisimilar:
        return
    for i, (quant, name) in enumerate(entries):
        if quant == "forall":
            flipped = list(entries)
            flipped[i] = ("nabla", name)
            assert engine_open(p, q, tuple(flipped)).bisimilar, (
                corpus.to_text(p),
                corpus.to_text(q),
                entries,
                i,
            )


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.sampled_from(["open", "late", "early"]))
def test_witness_soundness(seed, mode):
    rng = rnd(seed)
    p, q = corpus.random_pair(rng, max_prefixes=4, names=NAMES)
    if mode == "open":
        res = engine_open(p, q, tuple(("forall", n) for n in NAMES))
    else:
        prefix = make_prefix(NAMES)
        fn = pb.late_bisim if mode == "late" else pb.early_bisim
        res = fn(enc(p, prefix), enc(q, prefix), len(NAMES))
    if res.bisimilar:
        return
    formula, side = pb.distinguishing_formula(res)
    assert side in ("left", "right")
    assert pb.verify_witness(res)


def test_open_separators_by_construction_sweep(monkeypatch):
    """3,000 seeded open pairs over ``a, b, c`` with at most 5 prefixes, each
    name forall or nabla at random and a quarter with a distinction (drawn as
    the benchmark's random-mix draws its open pairs): every refutation gets
    a left-holding separator folded from its witness, which open satisfaction
    accepts on the left and rejects on the right, with no formula search, in
    at most 5 seconds."""

    def no_search(self, goal):
        raise AssertionError("separator search reached")

    monkeypatch.setattr(pb.bisim._Game, "_enumerate_separator", no_search)
    rng = random.Random(777)
    t0 = time.perf_counter()
    refuted = 0
    for _ in range(3000):
        p, q = corpus.random_pair(rng, max_prefixes=5, names=corpus.FREE_NAMES)
        entries = tuple((rng.choice(("forall", "nabla")), n) for n in corpus.FREE_NAMES)
        prefix = pb.parse_prefix(", ".join(f"{quant} {n}" for quant, n in entries))
        names = prefix.name_map()
        pairs = []
        flex = [n for quant, n in entries if quant == "forall"]
        if flex and rng.random() < 0.25:
            x = rng.choice(flex)
            pairs.append((names[x], names[rng.choice([n for n in corpus.FREE_NAMES if n != x])]))
        left, right = enc(p, prefix), enc(q, prefix)
        res = pb.open_bisim(left, right, prefix, pb.Distinction.of(*pairs))
        if res.bisimilar:
            continue
        refuted += 1
        f, side = pb.distinguishing_formula(res)
        # The mirrored fallback serves right-side late-input boxes, which
        # these pairs never need; a left formula that fails its check would
        # hide behind it.
        ok = side == "left" and pb.sat_open(left, f, prefix) and not pb.sat_open(right, f, prefix)
        assert ok, (corpus.to_text(p), corpus.to_text(q), entries, side, pb.pretty_formula(f, prefix))
    elapsed = time.perf_counter() - t0
    assert refuted == 1446
    assert elapsed <= 5.0, f"{refuted} refutations took {elapsed:.1f}s"


# ---------------------------------------------------------------------- modal


@settings(max_examples=120, deadline=None)
@given(SEEDS)
def test_ground_two_valuedness(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=4, names=NAMES)
    f = oracles.random_formula(rng, rng.randint(1, 3), NAMES)
    prefix = make_prefix(NAMES)
    fe = pb.encode_formula(pb.parse_formula(oracles.formula_to_text(f)), prefix)
    b = pb.fresh_budget(fe)
    pe = enc(p, prefix)
    assert pb.sat_ground(pe, pb.dual(fe), b, depth=len(NAMES)) == (
        not pb.sat_ground(pe, fe, b, depth=len(NAMES))
    )


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_sat_ground_matches_oracle(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=4, names=NAMES)
    f = oracles.random_formula(rng, rng.randint(1, 3), NAMES)
    prefix = make_prefix(NAMES)
    fe = pb.encode_formula(pb.parse_formula(oracles.formula_to_text(f)), prefix)
    b = pb.fresh_budget(fe)
    assert pb.sat_ground(enc(p, prefix), fe, b, depth=len(NAMES)) == oracles.o_sat(
        p, f, NAMES, b
    )


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_budget_monotonicity(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=4, names=NAMES)
    f = oracles.random_formula(rng, rng.randint(1, 3), NAMES)
    prefix = make_prefix(NAMES)
    fe = pb.encode_formula(pb.parse_formula(oracles.formula_to_text(f)), prefix)
    b = pb.fresh_budget(fe)
    pe = enc(p, prefix)
    base = pb.sat_ground(pe, fe, b, depth=len(NAMES))
    for extra in (1, 2):
        assert pb.sat_ground(pe, fe, b + extra, depth=len(NAMES)) == base


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_open_soundness_under_groundings(seed):
    rng = rnd(seed)
    p = corpus.random_proc(rng, max_prefixes=3, names=NAMES)
    f = oracles.random_formula(rng, 2, NAMES, lm_only=True)
    open_prefix = pb.parse_prefix("forall a, forall b")
    fe = pb.encode_formula(pb.parse_formula(oracles.formula_to_text(f)), open_prefix)
    pe = pb.encode(pb.parse_process(corpus.to_text(p)), open_prefix)
    if not pb.sat_open(pe, fe, open_prefix):
        return
    ground_prefix = pb.parse_prefix("nabla n1, nabla n2")
    for ga, gb in itertools.product(("n1", "n2"), repeat=2):
        gp = p
        gf = f
        for src, dst in (("a", ga), ("b", gb)):
            gp = oracles.subst(gp, src, dst)
            gf = oracles.subst_formula(gf, src, dst)
        gpe = pb.encode(pb.parse_process(corpus.to_text(gp)), ground_prefix)
        gfe = pb.encode_formula(
            pb.parse_formula(oracles.formula_to_text(gf)), ground_prefix
        )
        assert pb.sat_ground(gpe, gfe, pb.fresh_budget(gfe), depth=2), (
            corpus.to_text(p),
            oracles.formula_to_text(f),
            (ga, gb),
        )


def test_bisimilar_pairs_have_no_depth2_separator():
    rng = random.Random(2024)
    prefix = make_prefix(NAMES)
    pool = [pb.Nabla(i + 1) for i in range(len(NAMES))]
    formulas = list(pb.modal.enumerate_lm(pool, 2))
    checked = 0
    while checked < 6:
        p, q = corpus.random_pair(rng, max_prefixes=3, names=NAMES)
        pe, qe = enc(p, prefix), enc(q, prefix)
        if not pb.late_bisim(pe, qe, len(NAMES)).bisimilar:
            continue
        checked += 1
        for f in formulas:
            b = pb.fresh_budget(f)
            assert pb.sat_ground(pe, f, b, depth=len(NAMES)) == pb.sat_ground(
                qe, f, b, depth=len(NAMES)
            ), (corpus.to_text(p), corpus.to_text(q), pb.pretty_formula(f, prefix))
