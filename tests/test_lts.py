"""Symbolic one-step transitions: free, bound, replication, graphs."""

import hashlib
import random

import pytest

import pibisim as pb
from pibisim import lts as lts_mod
from pibisim.syntax import (
    Bang,
    Bound,
    Eigen,
    In,
    Nabla,
    Nil,
    Nu,
    Out,
    Par,
    TauPref,
)
from pibisim.unify import IDENTITY, singleton

import corpus
from agree import steps_agree
from oracles import o_bound, o_free

NIL = Nil()


def enc(text, prefix_text):
    return pb.encode(pb.parse_process(text), pb.parse_prefix(prefix_text))


def frees(p, depth=None):
    return [(t.theta, t.action, t.cont) for t in pb.successors_free(p, depth)]


def bounds(p, depth=None):
    return [(t.theta, t.action, t.cont) for t in pb.successors_bound(p, depth)]


class TestSuccessorsFree:
    def test_tau_prefix(self):
        assert frees(TauPref(NIL)) == [(IDENTITY, pb.TAU, NIL)]

    def test_negative_example(self):
        p = enc("(nu y)[x=y]x!z.0", "nabla x, nabla z")
        assert frees(p) == []
        assert bounds(p) == []

    def test_match_under_forall_produces_unifier(self):
        p = enc("[x=y]tau.0", "forall x, forall y")
        assert frees(p) == [(singleton(Eigen(1, 0), Eigen(2, 0)), pb.TAU, NIL)]

    def test_com_clause(self):
        p = enc("x!a.0 | x?(u).u!b.0", "nabla x, nabla a, nabla b")
        expected = (
            IDENTITY,
            pb.TAU,
            Par(NIL, Out(Nabla(2), Nabla(3), NIL)),
        )
        assert expected in frees(p)

    def test_match_same_nabla_passes(self):
        p = enc("[x=x]tau.0", "nabla x")
        assert frees(p) == [(IDENTITY, pb.TAU, NIL)]

    def test_match_distinct_nablas_blocks(self):
        p = enc("[x=y]tau.0", "nabla x, nabla y")
        assert frees(p) == []

    def test_sum_order_left_then_right(self):
        p = enc("tau.0 + tau.tau.0", "")
        assert [c for _, _, c in frees(p)] == [NIL, TauPref(NIL)]

    def test_duplicate_branches_collapse(self):
        p = enc("tau.0 + tau.0", "")
        assert frees(p) == [(IDENTITY, pb.TAU, NIL)]

    def test_close_rebinds_fresh_name(self):
        p = enc("(nu z)x!z.0 | x?(u).u!a.0", "nabla x, nabla a")
        [(theta, action, cont)] = frees(p)
        assert theta == IDENTITY and action == pb.TAU
        assert cont == Nu(Par(NIL, Out(Bound(0), Nabla(2), NIL)))

    def test_res_keeps_restriction(self):
        p = enc("(nu z)tau.z!a.0", "nabla a")
        assert frees(p) == [(IDENTITY, pb.TAU, Nu(Out(Bound(0), Nabla(1), NIL)))]


class TestSuccessorsBound:
    def test_input(self):
        p = In(Nabla(1), NIL)
        [(theta, action, cont)] = bounds(p, 1)
        assert theta == IDENTITY and action == pb.BoundIn(Nabla(1)) and cont == NIL

    def test_open_clause(self):
        p = enc("(nu z)x!z.0", "nabla x")
        [(theta, action, cont)] = bounds(p)
        assert theta == IDENTITY and action == pb.BoundOut(Nabla(1))
        assert cont == NIL

    def test_nil(self):
        assert bounds(NIL) == []

    def test_open_side_condition_channel_not_extruded(self):
        # the restricted name itself cannot be the channel
        p = enc("(nu z)z!a.0", "nabla a")
        assert bounds(p) == [] and frees(p) == []

    def test_input_continuation_is_abstraction(self):
        p = enc("x?(u).u!a.0", "nabla x, nabla a")
        [(_, action, cont)] = bounds(p)
        assert action == pb.BoundIn(Nabla(1))
        assert cont == Out(Bound(0), Nabla(2), NIL)
        opened = pb.open_abs(cont, Nabla(3))
        assert opened == Out(Nabla(3), Nabla(2), NIL)


class TestReplication:
    def test_bang_nil(self):
        p = Bang(NIL)
        assert frees(p) == [] and bounds(p) == []

    def test_bang_tau(self):
        p = Bang(TauPref(NIL))
        assert frees(p) == [(IDENTITY, pb.TAU, Par(NIL, p))]

    def test_bang_bound_action_with_copy(self):
        p = enc("!x?(u).0", "nabla x")
        [(theta, action, cont)] = bounds(p)
        assert action == pb.BoundIn(Nabla(1))
        assert cont == Par(NIL, enc("!x?(u).0", "nabla x"))

    def test_worked_example_single_tau(self):
        p = enc("!(nu z)(z!a.0 | z?(y).x!y.0)", "nabla x, nabla a")
        ts = frees(p)
        assert len(ts) == 1 and bounds(p) == []
        theta, action, cont = ts[0]
        assert theta == IDENTITY and action == pb.TAU
        expected = Par(Nu(Par(NIL, Out(Nabla(1), Nabla(2), NIL))), p)
        assert cont == expected

    def test_self_communication_free(self):
        p = enc("!(x!a.0 + x?(u).u!u.0)", "nabla x, nabla a")
        conts = [c for _, a, c in frees(p) if a == pb.TAU]
        expected = Par(Par(NIL, Out(Nabla(2), Nabla(2), NIL)), enc("!(x!a.0 + x?(u).u!u.0)", "nabla x, nabla a"))
        assert expected in conts


class TestReplicationCommunication:
    """Two copies of a replicated body communicate beside a fresh copy: an
    input meets a bound output (close) or a free output (com) of the other
    copy.  Closes come first, then coms, each input by input."""

    def test_self_close(self):
        p = enc("!((nu z)x!z.0 + x?(u).u!u.0)", "nabla x")
        closed = Nu(Par(NIL, Out(Bound(0), Bound(0), NIL)))
        assert frees(p) == [(IDENTITY, pb.TAU, Par(closed, p))]

    def test_self_com_two_inputs_three_outputs(self):
        prefix = "nabla x, nabla a, nabla b"
        p = enc("!(x!a.0 + x!b.0 + (nu z)x!z.0 + x?(u).u!u.0 + x?(v).tau.v!v.0)", prefix)
        a, b = Nabla(2), Nabla(3)
        assert frees(p) == [
            (IDENTITY, pb.FreeOut(Nabla(1), a), Par(NIL, p)),
            (IDENTITY, pb.FreeOut(Nabla(1), b), Par(NIL, p)),
            (IDENTITY, pb.TAU, Par(Nu(Par(NIL, Out(Bound(0), Bound(0), NIL))), p)),
            (IDENTITY, pb.TAU, Par(Nu(Par(NIL, TauPref(Out(Bound(0), Bound(0), NIL)))), p)),
            (IDENTITY, pb.TAU, Par(Par(NIL, Out(a, a, NIL)), p)),
            (IDENTITY, pb.TAU, Par(Par(NIL, Out(b, b, NIL)), p)),
            (IDENTITY, pb.TAU, Par(Par(NIL, TauPref(Out(a, a, NIL))), p)),
            (IDENTITY, pb.TAU, Par(Par(NIL, TauPref(Out(b, b, NIL))), p)),
        ]

    def test_input_unifier_recomputes_the_partner(self):
        # The input moves under {x:=y}; its partner's moves are recomputed
        # under it, so the com sends y where the unsubstituted partner
        # would send x.
        prefix = "forall x, forall y"
        x, y = Eigen(1, 0), Eigen(2, 0)
        theta = singleton(x, y)
        receiver = enc("[x=y]x?(u).u!u.0", prefix)
        sender = enc("(nu z)y!z.0 + y!x.0", prefix)
        got, closed_got = Out(y, y, NIL), Out(Bound(0), Bound(0), NIL)
        assert frees(Par(receiver, sender)) == [
            (IDENTITY, pb.FreeOut(y, x), Par(receiver, NIL)),
            (theta, pb.TAU, Nu(Par(closed_got, NIL))),
            (theta, pb.TAU, Par(got, NIL)),
        ]
        assert frees(Par(sender, receiver)) == [
            (IDENTITY, pb.FreeOut(y, x), Par(NIL, receiver)),
            (theta, pb.TAU, Nu(Par(NIL, closed_got))),
            (theta, pb.TAU, Par(NIL, got)),
        ]
        p = enc("!([x=y]x?(u).u!u.0 + (nu z)y!z.0 + y!x.0)", prefix)
        copy = enc("!([y=y]y?(u).u!u.0 + (nu z)y!z.0 + y!y.0)", prefix)
        assert frees(p) == [
            (IDENTITY, pb.FreeOut(y, x), Par(NIL, p)),
            (theta, pb.TAU, Par(Nu(Par(NIL, closed_got)), copy)),
            (theta, pb.TAU, Par(Par(NIL, got), copy)),
        ]


SWEEP_NAMES = ("a", "b")


def _guarded(rng, k: int) -> tuple:
    """A random summand that a copy of it can communicate with: an input,
    a free or bound output, or a tau, on ``a`` or ``b``, binding ``x<k>``."""
    ch, obj, x = rng.choice(SWEEP_NAMES), rng.choice(SWEEP_NAMES), f"x{k}"
    kind = rng.choice(("in", "out", "bout", "tau"))
    if kind == "in":
        return ("in", ch, x, corpus.random_proc(rng, 2, SWEEP_NAMES + (x,)))
    if kind == "bout":
        return ("nu", x, ("out", ch, x, corpus.random_proc(rng, 2, SWEEP_NAMES + (x,))))
    cont = corpus.random_proc(rng, 2, SWEEP_NAMES)
    return ("out", ch, obj, cont) if kind == "out" else ("tau", cont)


def _guarded_sum(rng) -> tuple:
    n = rng.randint(2, 4)
    body = _guarded(rng, n)
    for k in range(n - 1, 0, -1):
        body = ("sum", _guarded(rng, k), body)
    return body


def bang_sweep() -> list[tuple]:
    """``!q`` for 400 seeded bodies, built here so that the corpus's own
    generators stay as they are (its replicated bodies have at most two
    prefixes).  Half the bodies are ``corpus.random_proc(rng, 4, ...)``, which
    offer a self-com now and then and a self-close almost never; half are
    sums of two to four ``_guarded`` summands, which offer both, often two or
    more at once."""
    rng = random.Random(36)
    sweep = [("bang", corpus.random_proc(rng, 4, SWEEP_NAMES)) for _ in range(200)]
    sweep += [("bang", _guarded_sum(rng)) for _ in range(200)]
    return sweep


def pinned_terms():
    """The sweep under every mix of nabla and forall over ``a, b`` in which
    a match can give a unifier or none, and, under the mixed prefixes,
    seeded random terms with replication anywhere and sums guarded by
    ``[a=b]`` beside sums, whose inputs meet their partners' moves under the
    match's unifier."""
    sweep = [corpus.to_text(p) for p in bang_sweep()]
    rng = random.Random(37)
    seeded = [corpus.to_text(corpus.random_proc(rng, 5, SWEEP_NAMES, allow_bang=True))
              for _ in range(300)]
    seeded += [corpus.to_text(("par", ("match", "a", "b", _guarded_sum(rng)), _guarded_sum(rng)))
               for _ in range(200)]
    yield from ((text, "nabla a, nabla b") for text in sweep)
    for prefix in ("forall a, forall b", "nabla a, forall b", "forall a, nabla b"):
        yield from ((text, prefix) for text in sweep + seeded)


# sha256 over the repr of both successor lists of every pinned term, in order
SUCCESSORS_PIN = "55f81c7ad71233c4ab6a6429aa340e6f4323cb5616e6c943d57cb9fe37adee2b"


class TestReplicationSweep:
    def test_sweep_agrees_with_oracle(self):
        for p in bang_sweep():
            assert steps_agree(p, SWEEP_NAMES), corpus.to_text(p)

    def test_sweep_offers_both_communications(self):
        # the sweep is only as strong as the self-communications of its bodies
        closes = coms = 0
        for _, q in bang_sweep():
            bound = o_bound(q)
            inputs = {ch for kind, ch, _ in bound if kind == "bin"}
            closes += any(kind == "bout" and ch in inputs for kind, ch, _ in bound)
            coms += any(a[0] == "out" and a[1] in inputs for a, _ in o_free(q))
        assert closes >= 10 and coms >= 10

    def test_successor_lists_pinned(self):
        h = hashlib.sha256()
        for text, prefix in pinned_terms():
            p = enc(text, prefix)
            h.update(repr((pb.successors_free(p), pb.successors_bound(p))).encode())
        assert h.hexdigest() == SUCCESSORS_PIN


class TestOneEntryMemo:
    """``successors_free`` and ``successors_bound`` read one pass per term
    and depth through a one-entry memo."""

    def test_alternating_terms(self):
        p = enc("x?(u).0 + tau.0", "nabla x")
        q = enc("x!x.0", "nabla x")
        expected = {
            p: ([(IDENTITY, pb.TAU, NIL)], [(IDENTITY, pb.BoundIn(Nabla(1)), NIL)]),
            q: ([(IDENTITY, pb.FreeOut(Nabla(1), Nabla(1)), NIL)], []),
        }
        for r in (p, q, p, q, q, p):
            assert (frees(r), bounds(r)) == expected[r]
            assert (bounds(r), frees(r)) == expected[r][::-1]

    def test_depth_is_part_of_the_key(self):
        # at depth 1 the restricted name opens at level 2, which is x's
        p = enc("(nu y)x!y.0", "nabla a, nabla x")
        extruded = [(IDENTITY, pb.BoundOut(Nabla(2)), NIL)]
        for depth, want in ((1, []), (2, extruded), (1, []), (None, extruded)):
            assert bounds(p, depth) == want and frees(p, depth) == []

    def test_inferred_depth_shares_the_pass(self, monkeypatch):
        p = enc("(nu y)x!y.0 | x?(u).0", "nabla a, nabla x")
        passes, moves = [], lts_mod._moves
        monkeypatch.setattr(lts_mod, "_moves", lambda q, d: passes.append(q) or moves(q, d))
        pb.successors_free(p)
        pb.successors_bound(p, pb.infer_depth(p))
        assert passes.count(p) == 1


class TestHasNoTransition:
    def test_negative_example(self):
        assert pb.has_no_transition(enc("(nu y)[x=y]x!z.0", "nabla x, nabla z"))

    def test_nil(self):
        assert pb.has_no_transition(NIL)

    def test_tau(self):
        assert not pb.has_no_transition(TauPref(NIL))


class TestLtsGraph:
    def test_tau_two_states(self):
        g = pb.lts_graph(TauPref(NIL), 10)
        assert len(g.states) == 2 and len(g.edges) == 1

    def test_four_reachable_states(self):
        p = enc("x!a.0 | x?(u).0", "nabla x, nabla a")
        g = pb.lts_graph(p, 10)
        assert len(g.states) == 4

    def test_budget_exceeded(self):
        with pytest.raises(pb.StateBudgetExceeded):
            pb.lts_graph(Bang(TauPref(NIL)), 3)

    def test_alpha_canonical_states_merge(self):
        p = enc("(nu a)x!a.tau.0 + (nu b)x!b.tau.0", "nabla x")
        g = pb.lts_graph(p, 20)
        # both branches extrude an equivalent fresh name: states merge
        assert len(g.states) == 3

    def test_dot_export(self):
        prefix = pb.parse_prefix("")
        g = pb.lts_graph(TauPref(NIL), 10)
        dot = pb.to_dot(g, prefix)
        assert dot.startswith("digraph") and "tau" in dot


class TestInvariants:
    def test_prefix_count_decrease(self):
        import corpus

        rng = __import__("random").Random(5)
        for _ in range(120):
            p = corpus.random_proc(rng, max_prefixes=5)
            prefix = pb.parse_prefix(", ".join(f"nabla {n}" for n in corpus.FREE_NAMES))
            pe = pb.encode(pb.parse_process(corpus.to_text(p)), prefix)
            n0 = pb.syntax.prefix_count(pe)
            for t in list(pb.successors_free(pe, 3)) + list(pb.successors_bound(pe, 3)):
                assert pb.syntax.prefix_count(t.cont) < n0

    def test_has_no_transition_iff_empty(self):
        import corpus

        rng = __import__("random").Random(6)
        for _ in range(120):
            p = corpus.random_proc(rng, max_prefixes=4)
            prefix = pb.parse_prefix(", ".join(f"nabla {n}" for n in corpus.FREE_NAMES))
            pe = pb.encode(pb.parse_process(corpus.to_text(p)), prefix)
            empty = not pb.successors_free(pe, 3) and not pb.successors_bound(pe, 3)
            assert pb.has_no_transition(pe) == empty
