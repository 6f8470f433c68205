"""Modal satisfaction: ground (excluded middle) and open (intuitionistic)."""

import random

import pytest

import corpus
import modal_reference as ref
import oracles
import pibisim as pb
from agree import enc as enc_tuple, make_prefix
from pibisim.modal import (
    FALSE,
    TRUE,
    And,
    Box,
    Dia,
    EarlyIn,
    Eq,
    LateIn,
    Or,
    enumerate_lm,
    sat_open_at,
)
from pibisim.syntax import Bound, Nabla, Nil, normal_form

NIL = Nil()


def enc(text, prefix):
    return pb.encode(pb.parse_process(text), prefix)


def fml(text, prefix):
    return pb.encode_formula(pb.parse_formula(text), prefix)


PFX_A = pb.parse_prefix("nabla a")


class TestFreshBudget:
    def test_true(self):
        assert pb.fresh_budget(TRUE) == 0

    def test_single_input_box(self):
        f = Box(LateIn(Nabla(1)), Box(Eq(Bound(0), Nabla(1)), FALSE))
        assert pb.fresh_budget(f) == 1

    def test_nested_inputs(self):
        f = Box(LateIn(Nabla(1)), Dia(LateIn(Bound(0)), TRUE))
        assert pb.fresh_budget(f) == 2

    def test_parsed(self):
        assert pb.fresh_budget(fml("[a?(x)]L [x=a]false", PFX_A)) == 1

    def test_shared_subformula_counted_per_occurrence_visited_once(self):
        small = Box(LateIn(Nabla(1)), TRUE)
        assert pb.fresh_budget(And(small, Or(small, small))) == 3
        # 81 objects whose tree has 2**40 input modalities: a walk per
        # occurrence would not finish, a walk per object is instant
        f = Dia(LateIn(Nabla(1)), TRUE)
        for i in range(40):
            f = (And if i % 2 else Or)(f, Box(Eq(Nabla(1), Nabla(2)), f))
        assert pb.fresh_budget(f) == 2**40

class TestSatGround:
    def test_nil_true(self):
        assert pb.sat_ground(NIL, TRUE, 0)

    def test_budget_one_true(self):
        p = enc("a?(x).0", PFX_A)
        f = fml("[a?(x)]L [x=a]false", PFX_A)
        assert pb.sat_ground(p, f, 1)

    def test_budget_zero_false(self):
        p = enc("a?(x).0", PFX_A)
        f = fml("[a?(x)]L [x=a]false", PFX_A)
        assert not pb.sat_ground(p, f, 0)

    def test_free_out_dia(self):
        prefix = pb.parse_prefix("nabla x, nabla y")
        p = enc("x!y.0", prefix)
        f = fml("<x!y>true", prefix)
        assert pb.sat_ground(p, f, 0)

    def test_box_over_empty_successors(self):
        f = fml("[tau]false", PFX_A)
        assert not pb.sat_ground(enc("tau.0", PFX_A), f, 0)
        assert pb.sat_ground(enc("0", PFX_A), f, 0)

    def test_bound_out_dia(self):
        p = enc("(nu z)a!z.tau.0", PFX_A)
        assert pb.sat_ground(p, fml("<a!(z)><tau>true", PFX_A), 0)
        assert not pb.sat_ground(p, fml("<a!(z)>[tau]false", PFX_A), 0)

    def test_compositional_clauses(self):
        p = enc("tau.0", PFX_A)
        t = fml("<tau>true", PFX_A)
        f = fml("[a=a]false", PFX_A)
        for l in (t, f):
            for r in (t, f):
                assert pb.sat_ground(p, And(l, r), 0) == (
                    pb.sat_ground(p, l, 0) and pb.sat_ground(p, r, 0)
                )
                assert pb.sat_ground(p, Or(l, r), 0) == (
                    pb.sat_ground(p, l, 0) or pb.sat_ground(p, r, 0)
                )

    def test_match_clauses(self):
        prefix = pb.parse_prefix("nabla x, nabla y")
        p = enc("tau.0", prefix)
        body = fml("<tau>true", prefix)
        assert pb.sat_ground(p, Dia(Eq(Nabla(1), Nabla(1)), body), 0) == pb.sat_ground(
            p, body, 0
        )
        assert not pb.sat_ground(p, Dia(Eq(Nabla(1), Nabla(2)), body), 0)
        assert pb.sat_ground(p, Box(Eq(Nabla(1), Nabla(2)), FALSE), 0)

    def test_early_vs_late_quantifier_order(self):
        # A = x(u).tau + x(u).0 satisfies the early box "some continuation per
        # name" reading of [x?(u)]E (tau-or-nothing), here made concrete:
        prefix = pb.parse_prefix("nabla x, nabla a")
        a = enc("x?(u).[u=a]tau.0 + x?(v).[v=x]tau.0", prefix)
        dia_l = fml("<x?(u)>L <tau>true", prefix)   # one cont good for all names
        dia_e = fml("<x?(u)>E <tau>true", prefix)   # per-name choice
        assert not pb.sat_ground(a, dia_l, 0)
        assert not pb.sat_ground(a, dia_e, 1)  # fresh name defeats both conts
        b = enc("x?(u).[u=a]tau.0 + x?(v).[v=a]0", prefix)
        assert pb.sat_ground(b, fml("<x?(u)>[u=a]true", prefix), 1)

    def test_budget_monotonicity_spot(self):
        p = enc("a?(x).0", PFX_A)
        f = fml("[a?(x)]L [x=a]false", PFX_A)
        b = pb.fresh_budget(f)
        assert pb.sat_ground(p, f, b) == pb.sat_ground(p, f, b + 2)


class TestSatOpen:
    def test_true_always(self):
        prefix = pb.parse_prefix("forall x")
        assert pb.sat_open(enc("x!x.0", prefix), TRUE, prefix)

    def test_box_over_empty(self):
        prefix = pb.parse_prefix("")
        f = fml("[tau]false", prefix)
        assert not pb.sat_open(enc("tau.0", prefix), f, prefix)
        assert pb.sat_open(enc("0", prefix), f, prefix)

    def test_sangiorgi_witness_formula(self):
        prefix = pb.parse_prefix("forall x, forall z")
        p = enc("x?(u).(tau.tau.0 + tau.0)", prefix)
        q = enc("x?(u).(tau.tau.0 + tau.0 + tau.[u=z]tau.0)", prefix)
        res = pb.open_bisim(p, q, prefix)
        assert not res.bisimilar
        formula, side = pb.distinguishing_formula(res)
        holder, other = (p, q) if side == "left" else (q, p)
        assert pb.sat_open(holder, formula, prefix)
        assert not pb.sat_open(other, formula, prefix)

    def test_eigenvariable_equality_not_assumed(self):
        # ground mode can case-split x against z, open mode cannot
        prefix = pb.parse_prefix("forall x, forall z")
        p = enc("[x=z]tau.0 + tau.0", prefix)
        f = fml("<tau>[x=z]false", prefix)
        # open: attacker may instantiate x:=z in the diamond, so the tau.0
        # branch yields continuation 0 where the guarded box holds vacuously?
        # no: [x=z] after x:=z is an equality guard whose body false fails.
        assert not pb.sat_open(p, fml("<tau>[x=z]true & <tau>[x=z]false", prefix), prefix)
        assert pb.sat_open(p, fml("<tau>true", prefix), prefix)

    def test_match_diamond_needs_provable_equality(self):
        prefix = pb.parse_prefix("forall x, forall y")
        p = enc("[x=y]tau.0", prefix)
        # arbitrary names cannot be proven equal: the diamond guard fails,
        # and the bare tau diamond fails because the transition is conditional
        assert not pb.sat_open(p, fml("<x=y><tau>true", prefix), prefix)
        assert not pb.sat_open(p, fml("<tau>true", prefix), prefix)
        assert pb.sat_open(enc("[x=x]tau.0", prefix), fml("<x=x><tau>true", prefix), prefix)

    def test_match_box_assumes_equality(self):
        prefix = pb.parse_prefix("forall x, forall y")
        p = enc("[x=y]tau.0", prefix)
        # under the assumption x=y the guarded transition fires
        assert pb.sat_open(p, fml("[x=y]<tau>true", prefix), prefix)
        assert not pb.sat_open(p, fml("[x=y][tau]false", prefix), prefix)

    def test_box_ranges_over_unifier_branches(self):
        prefix = pb.parse_prefix("forall x, forall y")
        p = enc("[x=y]tau.tau.0", prefix)
        # the only symbolic branch carries {x:=y}; the box must cover it
        assert pb.sat_open(p, fml("[tau]<tau>true", prefix), prefix)
        assert not pb.sat_open(p, fml("[tau]false", prefix), prefix)

    def test_outside_lm_rejected(self):
        prefix = pb.parse_prefix("nabla a")
        p = enc("a?(x).0", prefix)
        for bad in (
            Dia(pb.BoundIn(Nabla(1)), TRUE),
            Dia(EarlyIn(Nabla(1)), TRUE),
        ):
            with pytest.raises(pb.FormulaOutsideLM):
                pb.sat_open(p, bad, prefix)

    def test_outside_lm_names_the_modality(self):
        """Both entry points name the input modality open mode does not
        read, at the root and under a match it walks through."""
        prefix = pb.parse_prefix("nabla a")
        p = enc("a?(x).0", prefix)
        for text, node in (
            ("<a?(x)>true", "InDia"),
            ("[a?(x)]true", "InBox"),
            ("<a?(x)>E true", "InDiaE"),
            ("[a?(x)]E true", "InBoxE"),
        ):
            for wrap in ("{}", "<a=a>{}"):
                f = fml(wrap.format(text), prefix)
                for check in (lambda: pb.sat_open(p, f, prefix), lambda: sat_open_at(p, f, 1, 1)):
                    with pytest.raises(pb.FormulaOutsideLM) as err:
                        check()
                    assert err.value.node == node
                    assert str(err.value) == (
                        f"open mode only supports the tau/out/match/late-input sublogic; got {node}"
                    )

    def test_soundness_under_groundings(self):
        # sat_open(p, f) implies sat_ground on every grounding (small pool)
        prefix = pb.parse_prefix("forall x, forall y")
        nabla_pfx = pb.parse_prefix("nabla n1, nabla n2")
        texts_p = ["[x=y]tau.0", "x!y.0 + tau.0", "x?(u).[u=y]tau.0"]
        texts_f = ["<tau>true", "[tau]false", "[x=y]<tau>true", "[x?(u)]L [u=y]false"]
        import itertools

        for pt, ft in itertools.product(texts_p, texts_f):
            p, f = enc(pt, prefix), fml(ft, prefix)
            if not pb.sat_open(p, f, prefix):
                continue
            for gx, gy in itertools.product(["n1", "n2"], repeat=2):
                gp = enc(pt.replace("x", gx).replace("y", gy), nabla_pfx)
                gf = fml(ft.replace("x", gx).replace("y", gy), nabla_pfx)
                assert pb.sat_ground(gp, gf, pb.fresh_budget(gf), depth=2), (pt, ft, gx, gy)


class TestDual:
    CASES = [
        "true",
        "false",
        "<tau>true & [tau]false",
        "[x=y]<x!y>true v <x=y>[x!y]false",
        "<x!(z)>[tau]true",
        "[x?(u)]L <u=x>true",
        "<x?(u)>E [tau]false",
        "<x?(u)>[x=y]true",
    ]

    def test_involution(self):
        prefix = pb.parse_prefix("nabla x, nabla y")
        for text in self.CASES:
            f = fml(text, prefix)
            assert pb.dual(pb.dual(f)) == f, text

    def test_ground_two_valuedness_spot(self):
        prefix = pb.parse_prefix("nabla x, nabla y")
        procs = ["0", "tau.0", "x!y.0", "x?(u).[u=y]tau.0", "(nu z)x!z.0"]
        for ptext in procs:
            p = enc(ptext, prefix)
            for ftext in self.CASES:
                f = fml(ftext, prefix)
                b = pb.fresh_budget(f)
                assert pb.sat_ground(p, pb.dual(f), b, depth=2) == (
                    not pb.sat_ground(p, f, b, depth=2)
                ), (ptext, ftext)


class TestFormulaSyntax:
    def test_round_trip(self):
        prefix = pb.parse_prefix("nabla x, nabla y")
        for text in TestDual.CASES:
            f = fml(text, prefix)
            back = pb.encode_formula(
                pb.parse_formula(pb.pretty_formula(f, prefix)), prefix
            )
            assert back == f, text

    def test_and_binds_tighter(self):
        prefix = pb.parse_prefix("")
        f = pb.parse_formula("true & false v true")
        enc_f = pb.encode_formula(f, prefix)
        assert isinstance(enc_f, Or) and isinstance(enc_f.left, And)

    def test_connectives_right_fold(self):
        enc_f = pb.encode_formula(
            pb.parse_formula("true & false & true"), pb.parse_prefix("")
        )
        assert isinstance(enc_f, And) and isinstance(enc_f.right, And)

    def test_parse_errors(self):
        for bad in ["<tau true", "[x=]false", "true &", "<x?(u)>Q true", "<x!(u)"]:
            with pytest.raises(pb.ParseError):
                pb.parse_formula(bad)

    def test_unbound_formula_name(self):
        with pytest.raises(pb.UnboundName):
            fml("<q!q>true", PFX_A)

    def test_binder_scoping(self):
        prefix = pb.parse_prefix("nabla a")
        f = fml("<a?(x)>L <x!a>true", prefix)
        assert isinstance(f, Dia) and isinstance(f.label, LateIn)
        inner = f.body
        assert isinstance(inner, Dia) and isinstance(inner.label, pb.FreeOut)  # body shape: <x!a>


WALK_NAMES = ("a", "b")
# processes with guards and binders for the open comparison, besides random ones
WALK_PROCS = (
    "[a=b]tau.0",
    "a?(u).[u=b]tau.0 + a!b.0",
    "(nu c)a!c.(c?(u).[u=b]tau.0 | [c=a]tau.0)",
    "a?(x).x!x.0",
    "a?(x).a?(y).a?(z).0",
)
# an opened name that a guard instantiates and that is read again after it;
# input boxes whose names in scope come from an outer binder's name alone,
# one and two binders out
WALK_FORMULAS = (
    "<a?(u)>L [u=a]<u!u>true",
    "[a?(u)]L <u=b>[a?(w)]L <w=u>true",
    "[a?(u)]L <u=b><a?(t)>L [a?(w)]L <w=u>true",
)


class TestEnvironmentWalk:
    """``sat_ground`` and ``sat_open_at`` read opened names through an
    environment; they agree with the substituting reference in
    ``tests/modal_reference.py``, which rebuilds each body it opens."""

    def test_ground_agrees_with_substitution(self):
        rng = random.Random(5150)
        prefix, depth = make_prefix(WALK_NAMES), len(WALK_NAMES)
        seen = set()
        for _ in range(400):
            p = enc_tuple(corpus.random_proc(rng, max_prefixes=4, names=WALK_NAMES), prefix)
            f = oracles.random_formula(rng, rng.randint(1, 3), WALK_NAMES)
            f = fml(oracles.formula_to_text(f), prefix)
            budget, table = pb.fresh_budget(f), {}
            for g in (f, pb.dual(f)):
                verdict = pb.sat_ground(p, g, budget, depth=depth)
                assert verdict == ref.sat_ground(p, g, depth, budget, table), (p, g)
                seen.add((verdict, "Bound" in repr(g)))
        assert seen == {(v, b) for v in (True, False) for b in (True, False)}

    @pytest.mark.parametrize(
        "prefix_text",
        ["forall a, forall b", "forall a, nabla b", "nabla a, forall b", "nabla a, nabla b"],
    )
    def test_open_agrees_with_substitution(self, prefix_text):
        prefix = pb.parse_prefix(prefix_text)
        depth, ne = prefix.nabla_count, prefix.eigen_count + 1
        rng = random.Random(prefix_text)
        procs = [enc(t, prefix) for t in WALK_PROCS] + [
            enc_tuple(corpus.random_proc(rng, max_prefixes=4, names=WALK_NAMES), prefix)
            for _ in range(3)
        ]
        names = [prefix.name_map()[n] for n in WALK_NAMES]
        # every formula with a binder or a guard, one in eight of the others,
        # and random ones of depth up to 4, where guards meet opened names
        formulas = [
            f
            for i, f in enumerate(enumerate_lm(names, 2))
            if i % 8 == 0 or any(k in repr(f) for k in ("Bound", "label=Eq("))
        ]
        formulas += [fml(t, prefix) for t in WALK_FORMULAS]
        for _ in range(150):
            f = oracles.random_formula(rng, rng.randint(1, 4), WALK_NAMES, lm_only=True)
            formulas.append(fml(oracles.formula_to_text(f), prefix))
        seen = set()
        for p in procs:
            table = {}
            for f in formulas:
                verdict = sat_open_at(p, f, depth, ne, table)
                assert verdict == ref.sat_open_at(p, f, depth, ne, table), (p, f)
                seen.add((verdict, "Box(label=Eq(" in repr(f)))
        assert seen == {(v, b) for v in (True, False) for b in (True, False)}


# ------------------------------------------------ satisfaction up to congruence

C9_NAMES = ("a", "b", "c")


def oracle_formula(f, names, binders=(), counter=None):
    """An engine formula as an ``oracles`` formula tuple: scoped constant
    ``Nabla(l)`` is ``names[l - 1]``, and each binder gets a fresh name."""
    counter = [0] if counter is None else counter

    def nm(n):
        return binders[n.index] if isinstance(n, Bound) else names[n.level - 1]

    def go(g, bs):
        return oracle_formula(g, names, bs, counter)

    match f:
        case pb.modal.TrueF():
            return ("true",)
        case pb.modal.FalseF():
            return ("false",)
        case And(l, r) | Or(l, r):
            return ("and" if isinstance(f, And) else "or", go(l, binders), go(r, binders))
        case Dia(Eq(x, y), body) | Box(Eq(x, y), body):
            return ("mdia" if isinstance(f, Dia) else "mbox", nm(x), nm(y), go(body, binders))
        case Dia(pb.Tau() | pb.FreeOut() as act, body) | Box(pb.Tau() | pb.FreeOut() as act, body):
            a = ("tau",) if act == pb.TAU else ("out", nm(act.ch), nm(act.obj))
            return ("fdia" if isinstance(f, Dia) else "fbox", a, go(body, binders))
    counter[0] += 1
    z = f"fb{counter[0]}"
    tag = {
        (Dia, pb.BoundOut): "odia", (Box, pb.BoundOut): "obox",
        (Dia, pb.BoundIn): "idia", (Box, pb.BoundIn): "ibox",
        (Dia, LateIn): "idial", (Box, LateIn): "iboxl",
        (Dia, EarlyIn): "idiae", (Box, EarlyIn): "iboxe",
    }[type(f), type(f.label)]
    return (tag, nm(f.label.ch), z, go(f.body, (z,) + binders))


def criterion_09_refutations():
    """Criterion 9's pairs, with their modes, prefixes and folded formulas."""
    rng = random.Random(77)
    for i in range(400):
        p, q = corpus.random_pair(rng, max_prefixes=4, names=C9_NAMES)
        mode = ("open", "late", "early")[i % 3]
        if mode == "open":
            quants = tuple(rng.choice(("forall", "nabla")) for _ in C9_NAMES)
            prefix = pb.parse_prefix(", ".join(f"{k} {n}" for k, n in zip(quants, C9_NAMES)))
            res = pb.open_bisim(enc_tuple(p, prefix), enc_tuple(q, prefix), prefix)
        else:
            prefix = make_prefix(C9_NAMES)
            fn = pb.late_bisim if mode == "late" else pb.early_bisim
            res = fn(enc_tuple(p, prefix), enc_tuple(q, prefix), len(C9_NAMES))
        if not res.bisimilar:
            yield mode, (p, q), res, pb.distinguishing_formula(res)[0]


class TestNormalFormInvariance:
    """Satisfaction is invariant under bisimilarity and congruent processes
    are bisimilar, so a formula check may play where the game plays: on the
    term as given, on its normal form, or with every continuation below it
    put in normal form (``normal=``) all give the independent reference's
    verdict on the term as given.  The reference is ``oracles.o_sat`` in
    ground mode and ``modal_reference.sat_open_at`` in open mode."""

    @staticmethod
    def ground_verdicts(p_tuple, f, prefix, depth):
        p, budget = enc_tuple(p_tuple, prefix), pb.fresh_budget(f)
        expected = oracles.o_sat(p_tuple, oracle_formula(f, C9_NAMES), C9_NAMES, budget)
        got = {
            pb.sat_ground(p, f, budget, depth=depth),
            pb.sat_ground(normal_form(p), f, budget, depth=depth),
            pb.sat_ground(p, f, budget, depth=depth, normal=normal_form),
        }
        return expected, got, p != normal_form(p)

    @staticmethod
    def open_verdicts(p, f, depth, ne):
        expected = ref.sat_open_at(p, f, depth, ne, {})
        got = {
            sat_open_at(p, f, depth, ne),
            sat_open_at(normal_form(p), f, depth, ne),
            sat_open_at(p, f, depth, ne, normal=normal_form),
        }
        return expected, got, p != normal_form(p)

    @staticmethod
    def two_steps(prefix):
        """``<a><b>true`` for every two free actions over the names: they
        tell ``P | Q`` from ``P + Q`` and ``P | P`` from ``P``, which random
        formulas rarely do, so a normal form that breaks congruence changes
        one of their verdicts."""
        names = [prefix.name_map()[n] for n in C9_NAMES]
        acts = [pb.TAU] + [pb.FreeOut(x, y) for x in names for y in names]
        return [Dia(a, Dia(b, TRUE)) for a in acts for b in acts]

    @staticmethod
    def same_on_two_steps(p, formulas, check):
        """The three readings agree on every formula, where ``check(p, f,
        **kw)`` is the mode's satisfaction check."""
        for f in formulas:
            got = {check(p, f), check(normal_form(p), f), check(p, f, normal=normal_form)}
            assert len(got) == 1, (p, f)

    def test_criterion_09_formulas(self):
        seen, unnormal = set(), 0
        for mode, tuples, res, f in criterion_09_refutations():
            root = res.root
            for p_tuple, p in zip(tuples, (root.left, root.right)):
                if mode == "open":
                    expected, got, moved = self.open_verdicts(p, f, root.depth, root.next_eigen)
                else:
                    prefix = make_prefix(C9_NAMES)
                    expected, got, moved = self.ground_verdicts(p_tuple, f, prefix, len(C9_NAMES))
                assert got == {expected}, (mode, corpus.to_text(p_tuple), f)
                seen.add((mode, expected))
                unnormal += moved
        assert seen == {(m, v) for m in ("open", "late", "early") for v in (True, False)}
        assert unnormal >= 50

    def test_random_ground_formulas(self):
        rng = random.Random(4242)
        prefix, seen, unnormal = make_prefix(C9_NAMES), set(), 0
        steps = self.two_steps(prefix)

        def check(p, f, **kw):
            return pb.sat_ground(p, f, 0, depth=len(C9_NAMES), **kw)

        for _ in range(300):
            p_tuple = corpus.random_proc(rng, max_prefixes=4, names=C9_NAMES)
            f = oracles.random_formula(rng, rng.randint(1, 3), C9_NAMES)
            f = fml(oracles.formula_to_text(f), prefix)
            expected, got, moved = self.ground_verdicts(p_tuple, f, prefix, len(C9_NAMES))
            assert got == {expected}, (corpus.to_text(p_tuple), f)
            seen.add(expected)
            if moved:
                unnormal += 1
                self.same_on_two_steps(enc_tuple(p_tuple, prefix), steps, check)
        assert seen == {True, False}
        assert unnormal >= 30

    @pytest.mark.parametrize(
        "prefix_text", ["forall a, forall b, nabla c", "nabla a, forall b, forall c"]
    )
    def test_random_open_formulas(self, prefix_text):
        prefix = pb.parse_prefix(prefix_text)
        depth, ne = prefix.nabla_count, prefix.eigen_count + 1
        rng = random.Random(prefix_text)
        seen, unnormal, steps = set(), 0, self.two_steps(prefix)

        def check(p, f, **kw):
            return sat_open_at(p, f, depth, ne, **kw)

        for _ in range(300):
            p = enc_tuple(corpus.random_proc(rng, max_prefixes=4, names=C9_NAMES), prefix)
            f = oracles.random_formula(rng, rng.randint(1, 3), C9_NAMES, lm_only=True)
            f = fml(oracles.formula_to_text(f), prefix)
            expected, got, moved = self.open_verdicts(p, f, depth, ne)
            assert got == {expected}, (p, f)
            seen.add(expected)
            if moved:
                unnormal += 1
                self.same_on_two_steps(p, steps, check)
        assert seen == {True, False}
        assert unnormal >= 30
