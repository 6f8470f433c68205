"""Open/late/early bisimilarity engine: verdicts, certificates, witnesses."""

from collections import Counter
from dataclasses import replace

import pytest

import pibisim as pb
from pibisim.bisim import Goal
from pibisim.syntax import normal_form

SANGIORGI_P = "x?(u).(tau.tau.0 + tau.0)"
SANGIORGI_Q = "x?(u).(tau.tau.0 + tau.0 + tau.[u=z]tau.0)"


def enc(text, prefix):
    return pb.encode(pb.parse_process(text), prefix)


def pair(pt, qt, prefix_text):
    prefix = pb.parse_prefix(prefix_text)
    return enc(pt, prefix), enc(qt, prefix), prefix


class TestOpenBisim:
    def test_reflexivity(self):
        p, q, prefix = pair(SANGIORGI_P, SANGIORGI_P, "forall x, forall z")
        assert pb.open_bisim(p, q, prefix).bisimilar

    def test_root_eigenvariables_include_the_distinctions(self):
        # a received name opens at the goal's next eigenvariable id, which
        # must be fresh for the distinction as well as for the processes
        p, q, prefix = pair("x?(u).u!x.0", "x?(u).0", "nabla x")
        split = pb.Distinction.of((pb.Eigen(3, 1), pb.Nabla(1)))
        assert pb.open_bisim(p, q, prefix, split).root.next_eigen == 4

    def test_sangiorgi_not_open(self):
        p, q, prefix = pair(SANGIORGI_P, SANGIORGI_Q, "forall x, forall z")
        res = pb.open_bisim(p, q, prefix)
        assert not res.bisimilar
        assert res.witness is not None

    def test_interleaving_nabla_bisimilar(self):
        prefix = pb.parse_prefix("nabla x, nabla y")
        left = pb.parse_process("x.0 | y!.0")
        right = pb.parse_process("x.y!.0 + y!.x.0")
        prefix = pb.extend_prefix_for_reserved(prefix, left, right)
        l, r = pb.encode(left, prefix), pb.encode(right, prefix)
        assert pb.open_bisim(l, r, prefix).bisimilar

    def test_interleaving_forall_not_open(self):
        prefix = pb.parse_prefix("forall x, forall y")
        left = pb.parse_process("x.0 | y!.0")
        right = pb.parse_process("x.y!.0 + y!.x.0")
        prefix = pb.extend_prefix_for_reserved(prefix, left, right)
        l, r = pb.encode(left, prefix), pb.encode(right, prefix)
        res = pb.open_bisim(l, r, prefix)
        assert not res.bisimilar

    def test_no_transition_process_open_bisimilar_to_nil(self):
        p, q, prefix = pair("(nu y)[x=y]x!z.0", "0", "nabla x, nabla z")
        assert pb.open_bisim(p, q, prefix).bisimilar

    def test_certificate_contains_root(self):
        p, q, prefix = pair("tau.0", "tau.0 + tau.0", "")
        res = pb.open_bisim(p, q, prefix)
        assert res.bisimilar
        assert res.root in res.certificate

    def test_explicit_distinction_discharges_branch(self):
        # [x=y]tau.0 vs 0: the only attack needs x:=y, forbidden by x#y
        prefix = pb.parse_prefix("forall x, forall y")
        nm = prefix.name_map()
        p, q = enc("[x=y]tau.0", prefix), enc("0", prefix)
        assert not pb.open_bisim(p, q, prefix).bisimilar
        d = pb.Distinction.of((nm["x"], nm["y"]))
        assert pb.open_bisim(p, q, prefix, distinct=d).bisimilar

    def test_replication_rejected(self):
        p, q, prefix = pair("!tau.0", "tau.0", "")
        with pytest.raises(pb.ReplicationUnsupported):
            pb.open_bisim(p, q, prefix)

    def test_depth_budget(self):
        # the budget caps fresh-name (nabla) depth: each extrusion adds one.
        # The pairs are bisimilar but not congruent ([x=x]0 is not 0 up to
        # structural congruence), so the game must play down to the last goal.
        p, q, prefix = pair(
            "(nu a)x!a.(nu b)x!b.0", "(nu a)x!a.(nu b)x!b.[x=x]0", "nabla x"
        )
        with pytest.raises(pb.DepthBudgetExceeded):
            pb.open_bisim(p, q, prefix, max_depth=1)
        assert pb.open_bisim(p, q, prefix, max_depth=3).bisimilar
        # ground modes split inputs on a fresh name, growing depth too
        p2, q2, _ = pair("x?(u).x?(v).0", "x?(u).x?(v).[x=x]0", "nabla x")
        with pytest.raises(pb.DepthBudgetExceeded):
            pb.late_bisim(p2, q2, max_depth=1)

    def test_symmetry(self):
        p, q, prefix = pair(SANGIORGI_P, SANGIORGI_Q, "forall x, forall z")
        assert pb.open_bisim(p, q, prefix).bisimilar == pb.open_bisim(
            q, p, prefix
        ).bisimilar


class TestGroundBisim:
    def test_sangiorgi_late_bisimilar(self):
        p, q, prefix = pair(SANGIORGI_P, SANGIORGI_Q, "nabla x, nabla z")
        assert pb.late_bisim(p, q).bisimilar

    def test_tau_vs_nil(self):
        p, q, _ = pair("tau.0", "0", "")
        res = pb.late_bisim(p, q)
        assert not res.bisimilar

    def test_no_transition_vs_nil_all_modes(self):
        p, q, _ = pair("(nu y)[x=y]x!z.0", "0", "nabla x, nabla z")
        assert pb.late_bisim(p, q).bisimilar
        assert pb.early_bisim(p, q).bisimilar

    def test_late_early_separation(self):
        # A = x(u).tau + x(u).0;  B = A + x(u).[u=a]tau
        # late distinguishes (no single continuation covers both cases),
        # early does not (the defender may pick per received name)
        a_text = "x?(u).tau.0 + x?(v).0"
        b_text = a_text + " + x?(w).[w=a]tau.0"
        p, q, _ = pair(a_text, b_text, "nabla x, nabla a")
        assert not pb.late_bisim(p, q).bisimilar
        assert pb.early_bisim(p, q).bisimilar

    def test_par_vs_sum_inputs_not_ground_bisimilar(self):
        prefix = pb.parse_prefix("nabla x")
        left = pb.parse_process("x?(u).u!.0 | x?(v).0")
        right = pb.parse_process("x?(u).u!.0 + x?(v).0")
        prefix = pb.extend_prefix_for_reserved(prefix, left, right)
        l, r = pb.encode(left, prefix), pb.encode(right, prefix)
        assert not pb.late_bisim(l, r).bisimilar
        assert not pb.early_bisim(l, r).bisimilar

    def test_eigen_inputs_rejected(self):
        p, q, _ = pair("[x=y]tau.0", "0", "forall x, forall y")
        with pytest.raises(ValueError):
            pb.late_bisim(p, q)

    def test_eigen_distinction_rejected(self):
        p, q, _ = pair("tau.0", "0", "nabla x")
        split = pb.Distinction.of((pb.Eigen(1, 0), pb.Nabla(1)))
        for decide in (pb.late_bisim, pb.early_bisim):
            with pytest.raises(ValueError):
                decide(p, q, distinct=split)

    def test_reflexive(self):
        p, q, _ = pair(SANGIORGI_Q, SANGIORGI_Q, "nabla x, nabla z")
        assert pb.late_bisim(p, q).bisimilar
        assert pb.early_bisim(p, q).bisimilar


class TestCertificate:
    # [u=u] and [x=x] make each goal below the root bisimilar without being
    # congruent, so all of them are in the certificate; in late and early
    # mode the input is split over two received names
    LEFT, RIGHT = "x?(u).[u=u]tau.[x=x]tau.0", "x?(u).tau.tau.0"

    def results(self):
        p, q, prefix = pair(self.LEFT, self.RIGHT, "nabla x")
        return [pb.open_bisim(p, q, prefix), pb.late_bisim(p, q), pb.early_bisim(p, q)]

    def test_accepts(self):
        sizes = []
        for res in self.results():
            assert res.bisimilar and res.certificate[0] == res.root
            assert pb.verify_certificate(res)
            sizes.append(len(res.certificate))
        assert sizes == [3, 5, 5]

    def test_rejects_a_missing_goal(self):
        for res in self.results():
            cert = res.certificate
            for i in range(1, len(cert)):
                short = replace(res, certificate=cert[:i] + cert[i + 1 :])
                assert not pb.verify_certificate(short), (res.mode, i)

    def test_rejects_a_swapped_root(self):
        for res in self.results():
            bad = replace(res.root, left=enc("tau.0", pb.Prefix(())), right=pb.NIL)
            swapped = (bad,) + res.certificate[1:]
            assert not pb.verify_certificate(replace(res, root=bad, certificate=swapped))
            assert not pb.verify_certificate(replace(res, root=bad))

    def test_congruent_root_needs_no_other_goal(self):
        p, q, prefix = pair("x!x.0 | tau.0", "tau.0 | (x!x.0 + 0)", "forall x")
        res = pb.open_bisim(p, q, prefix)
        assert (res.stats.goals, res.certificate) == (1, (res.root,))
        assert pb.verify_certificate(res)

    def test_refutation_raises(self):
        p, q, _ = pair("tau.0", "0", "")
        with pytest.raises(pb.WitnessMalformed):
            pb.verify_certificate(pb.late_bisim(p, q))


class TestDistinguishingFormula:
    def verified(self, res):
        formula, side = pb.distinguishing_formula(res)
        assert pb.verify_witness(res)
        return formula, side

    def test_tau_vs_nil(self):
        p, q, _ = pair("tau.0", "0", "")
        res = pb.late_bisim(p, q)
        formula, side = self.verified(res)
        assert pb.pretty_formula(formula, pb.parse_prefix("")) == "<tau>true"
        assert side == "left"

    def test_interleaving_forall_formula_has_guard(self):
        prefix = pb.parse_prefix("forall x, forall y")
        left = pb.parse_process("x.0 | y!.0")
        right = pb.parse_process("x.y!.0 + y!.x.0")
        prefix = pb.extend_prefix_for_reserved(prefix, left, right)
        l, r = pb.encode(left, prefix), pb.encode(right, prefix)
        res = pb.open_bisim(l, r, prefix)
        formula, _ = self.verified(res)
        text = pb.pretty_formula(formula, prefix)
        assert "[x=y]" in text or "<x=y>" in text

    def test_sangiorgi_formula_depth_two(self):
        p, q, prefix = pair(SANGIORGI_P, SANGIORGI_Q, "forall x, forall z")
        res = pb.open_bisim(p, q, prefix)
        formula, side = self.verified(res)
        # input modality then one more level: the witness needs depth 2
        text = pb.pretty_formula(formula, prefix)
        assert "?(" in text and "L" in text

    def test_bisimilar_raises(self):
        p, q, _ = pair("tau.0", "tau.0", "")
        res = pb.late_bisim(p, q)
        with pytest.raises(pb.WitnessMalformed):
            pb.distinguishing_formula(res)

    def test_early_mode_refutation_formula(self):
        p, q, _ = pair("x?(u).tau.0", "x?(u).0", "nabla x")
        res = pb.early_bisim(p, q)
        assert not res.bisimilar
        self.verified(res)


# Open refutations whose separator rests on a conditional answer: the right
# side attacks, and the left side has a move that answers only under a
# unifier sigma != id, so the box gains the guard <x=y>true.  The first three
# are bench/workloads.py's FALLBACK_PAIRS (the third with a distinction); then
# an input and a bound output answered on another channel, and a free output
# answered on another channel, all under identity-theta moves.
# name: (prefix, distinction, left, right, formula, side)
SEPARATORS = {
    "match-forall": ("forall a, forall b, forall c", "", "[c=b]tau.0", "tau.0",
                     "[tau]<b=c>true", "left"),
    "match-nabla": ("nabla a, forall b, forall c", "", "[c=a]tau.0", "[c=c]tau.0",
                    "[tau]<c=a>true", "left"),
    "match-distinct": ("forall a, forall b, forall c", "a#b", "[b=a](tau.0 + 0)",
                       "[b=b](tau.0 + 0)", "[tau]<a=b>true", "left"),
    "input-channel": ("forall e1, forall e2", "", "e2?(y).tau.0", "e2?(y).tau.0 + e1?(y).0",
                      "[e1?(y)]L <e1=e2>true", "left"),
    "bound-output-channel": ("forall e1, forall e2", "", "(nu z)e2!z.0",
                             "(nu z)e2!z.0 + (nu z)e1!z.0", "[e1!(y)]<e1=e2>true", "left"),
    "free-output-channel": ("forall e1, forall e2", "", "e2!e1.0", "e2!e1.0 + e1!e1.0",
                            "[e1!e1]<e1=e2>true", "left"),
    # The right side's input attack folds to a late-input box, which reads its
    # received name over the names in scope and so holds on the right too
    # (at y = a); the mirrored root folds the same attack to a diamond.
    "mirrored-input": ("forall a", "", "a?(y).tau.0", "a?(y).tau.0 + a?(y).[y=a]tau.0",
                       "<a?(y)>L [tau]<a=y>true", "right"),
}


def _open_refutation(prefix_text, distinct_text, left, right):
    p, q, prefix = pair(left, right, prefix_text)
    names = prefix.name_map()
    pairs = [tuple(names[n] for n in d.split("#")) for d in distinct_text.split(",") if d]
    res = pb.open_bisim(p, q, prefix, pb.Distinction.of(*pairs))
    assert not res.bisimilar
    return res, p, q, prefix


class TestOpenSeparators:
    @pytest.mark.parametrize("name", SEPARATORS)
    def test_separator_by_construction(self, name, monkeypatch):
        import modal_reference as ref

        prefix_text, distinct, left, right, expected, expected_side = SEPARATORS[name]

        def no_search(self, goal):
            raise AssertionError("separator search reached")

        monkeypatch.setattr(pb.bisim._Game, "_enumerate_separator", no_search)
        res, p, q, prefix = _open_refutation(prefix_text, distinct, left, right)
        formula, side = pb.distinguishing_formula(res)
        assert (pb.pretty_formula(formula, prefix), side) == (expected, expected_side)
        holder, other = (p, q) if side == "left" else (q, p)
        assert pb.sat_open(holder, formula, prefix)
        assert not pb.sat_open(other, formula, prefix)
        depth, ne = prefix.nabla_count, prefix.eigen_count + 1
        assert ref.sat_open_at(holder, formula, depth, ne)
        assert not ref.sat_open_at(other, formula, depth, ne)

    def test_conditional_answers_are_not_read_when_deciding(self, monkeypatch):
        def unread(self):
            raise AssertionError("conditional answers read")

        monkeypatch.setattr(pb.bisim._Clause, "conditional", unread)
        for prefix_text, distinct, left, right, _f, _s in SEPARATORS.values():
            res, *_ = _open_refutation(prefix_text, distinct, left, right)
            assert pb.verify_witness(res)

    def test_no_separator_by_construction(self):
        # Both constructions fold a right-side late-input box whose body a
        # name in scope makes true on the attacker, so neither checks; the
        # depth-3 search of earlier versions found no separator either.
        inner = "(a?(v).[w=a]tau.0 + a?(v).[v=a]tau.0)"
        res, *_ = _open_refutation(
            "forall a", "", f"a?(w).{inner}", f"a?(w).{inner} + a?(w).a?(v).[w=a]tau.0"
        )
        assert pb.verify_witness(res)
        with pytest.raises(pb.NoSeparator):
            pb.distinguishing_formula(res)


def _edit(node, path, **changes):
    """``node`` with the witness node reached through the reply indices in
    ``path`` rebuilt by ``dataclasses.replace(..., **changes)``."""
    if not path:
        return replace(node, **changes)
    replies = list(node.replies)
    reply = replies[path[0]]
    replies[path[0]] = replace(reply, child=_edit(reply.child, path[1:], **changes))
    return replace(node, replies=tuple(replies))


def _edit_reply(node, path, i, **changes):
    """``node`` with reply ``i`` of the node at ``path`` rebuilt."""
    target = node
    for j in path:
        target = target.replies[j].child
    replies = list(target.replies)
    replies[i] = replace(replies[i], **changes)
    return _edit(node, path, replies=tuple(replies))


# Refuted pairs, each with a bound action at the root of its witness: an open
# input (Sangiorgi's pair), an open bound output, a late input split per
# reply and an early input with one shared received name; then each of the
# four again with a binder its continuations never use, so that only the
# instantiation rule, not the child goals, tells a wrong received or extruded
# name apart.
REFUTATIONS = {
    "open-input": ("open", SANGIORGI_P, SANGIORGI_Q, "forall x, forall z"),
    "open-output": (
        "open", "(nu a)x!a.(a!x.0 + tau.0)", "(nu a)x!a.(a!x.0 + tau.0 + tau.tau.0)", "nabla x"
    ),
    "late": (
        "late", "x?(u).tau.0 + x?(v).0", "x?(u).tau.0 + x?(v).0 + x?(w).[w=a]tau.0", "nabla x, nabla a"
    ),
    "early": (
        "early", "x?(u).(tau.0 + tau.tau.0)", "x?(u).tau.0 + x?(u).tau.tau.0", "nabla x, nabla a"
    ),
    "open-input-vacuous": ("open", "x?(u).tau.0", "x?(u).0", "forall x"),
    "open-output-vacuous": ("open", "(nu a)x!a.tau.0", "(nu a)x!a.0", "nabla x"),
    "late-vacuous": ("late", "x?(u).tau.0", "x?(u).0", "nabla x"),
    "early-vacuous": ("early", "x?(u).tau.0", "x?(u).0", "nabla x"),
}


def _refutation(case):
    mode, pt, qt, prefix_text = REFUTATIONS[case]
    p, q, prefix = pair(pt, qt, prefix_text)
    if mode == "open":
        return pb.open_bisim(p, q, prefix)
    return (pb.late_bisim if mode == "late" else pb.early_bisim)(p, q)


def _corruptions(case, res):
    """Named corruptions of the witness of ``res = _refutation(case)``."""
    w = res.witness
    out = {
        "index out of range": _edit(w, (), attacker_index=99),
        "negative index": _edit(w, (), attacker_index=-1),
        "action": _edit(w, (), action=pb.TAU),
        "theta": _edit(w, (), theta=pb.Subst.of((pb.Eigen(1, 0), pb.Nabla(1)))),
        "truncated to a leaf": _edit(w, (), replies=()),
        "mirrored root goal": _edit(w, (), goal=w.goal.mirrored()),
        "mirrored child goal": _edit(w, (0,), goal=w.replies[0].child.goal.mirrored()),
        "root goal as child": _edit(w, (0,), goal=w.goal),
    }
    if case == "open-input":
        # below the root input a right tau with two replies, the first of
        # them a right tau under {z:=u}
        inner = w.replies[0].child
        out |= {
            "input instantiation": _edit(w, (), instantiation=pb.Eigen(4, 0)),
            "other tau attack": _edit(w, (0,), attacker_index=0),
            "replies reversed": _edit(w, (0,), replies=inner.replies[::-1]),
            "reply dropped": _edit(w, (0,), replies=inner.replies[:1]),
            "children swapped": _edit_reply(
                _edit_reply(w, (0,), 0, child=inner.replies[1].child),
                (0,),
                1,
                child=inner.replies[0].child,
            ),
            "theta dropped below": _edit(w, (0, 0), theta=pb.Subst()),
            "truncated below": _edit(w, (0,), replies=()),
        }
    elif case == "open-output":
        out |= {
            "output instantiation": _edit(w, (), instantiation=pb.Nabla(3)),
            "truncated below": _edit(w, (0,), replies=()),
        }
    elif case == "late":
        # the root is a right input at depth 2 with two defender replies
        out |= {
            "other input attack": _edit(w, (), attacker_index=0),
            "replies reversed": _edit(w, (), replies=w.replies[::-1]),
            "reply dropped": _edit(w, (), replies=w.replies[1:]),
            "defenders relabelled": _edit_reply(
                _edit_reply(w, (), 0, defender_index=1), (), 1, defender_index=0
            ),
            "received name above depth+1": _edit_reply(w, (), 0, instantiation=pb.Nabla(4)),
            "received name missing": _edit_reply(w, (), 0, instantiation=None),
            "received names exchanged": _edit_reply(
                _edit_reply(w, (), 0, instantiation=w.replies[1].instantiation),
                (),
                1,
                instantiation=w.replies[0].instantiation,
            ),
        }
    elif case == "early":
        # one received name shared by the root's two defender replies
        out |= {
            "replies reversed": _edit(w, (), replies=w.replies[::-1]),
            "reply dropped": _edit(w, (), replies=w.replies[1:]),
            "shared name changed": _edit(w, (), instantiation=pb.Nabla(2)),
            "shared name missing": _edit(w, (), instantiation=None),
            "children swapped": _edit_reply(
                _edit_reply(w, (), 0, child=w.replies[1].child), (), 1, child=w.replies[0].child
            ),
            "truncated below": _edit(w, (1,), replies=()),
        }
    elif case == "open-input-vacuous":
        out |= {
            "input instantiation": _edit(w, (), instantiation=pb.Eigen(9, 0)),
            "input ceiling": _edit(w, (), instantiation=pb.Eigen(w.goal.next_eigen, 1)),
            "input instantiation a constant": _edit(w, (), instantiation=pb.Nabla(1)),
        }
    elif case == "open-output-vacuous":
        out |= {
            "output instantiation in scope": _edit(w, (), instantiation=pb.Nabla(1)),
            "output instantiation above": _edit(w, (), instantiation=pb.Nabla(3)),
            "output instantiation an eigenvariable": _edit(w, (), instantiation=pb.Eigen(1, 1)),
        }
    elif case == "late-vacuous":
        # a received name above depth+1, with a child that the game itself
        # explains at the depth that name would give it
        child = res.game.explain(replace(w.replies[0].child.goal, depth=3))
        out |= {
            "received name level 0": _edit_reply(w, (), 0, instantiation=pb.Nabla(0)),
            "received name an eigenvariable": _edit_reply(w, (), 0, instantiation=pb.Eigen(1, 1)),
            "received name above depth+1": _edit_reply(
                w, (), 0, instantiation=pb.Nabla(3), child=child
            ),
        }
    else:  # early-vacuous
        child = res.game.explain(replace(w.replies[0].child.goal, depth=3))
        out |= {
            "shared name level 0": _edit(w, (), instantiation=pb.Nabla(0)),
            "shared name an eigenvariable": _edit(w, (), instantiation=pb.Eigen(1, 1)),
            "shared name above depth+1": _edit_reply(
                _edit(w, (), instantiation=pb.Nabla(3)), (), 0, child=child
            ),
        }
    return out


class TestVerifyWitness:
    CASES = tuple(REFUTATIONS)

    def test_rejects_an_attack_the_distinction_forbids(self):
        # the only attack of [x=y]tau.0 identifies x and y; under x#y the
        # pair is bisimilar, so the refutation's witness does not carry over
        p, q, prefix = pair("[x=y]tau.0", "0", "forall x, forall y")
        res = pb.open_bisim(p, q, prefix)
        assert pb.verify_witness(res) and not res.witness.theta.is_identity()
        nm = prefix.name_map()
        root = replace(res.root, distinct=pb.Distinction.of((nm["x"], nm["y"])))
        witness = replace(res.witness, goal=root)
        assert not pb.verify_witness(replace(res, root=root, witness=witness))

    @pytest.mark.parametrize("case", CASES)
    def test_accepts_the_extracted_witness(self, case):
        res = _refutation(case)
        assert not res.bisimilar and res.witness.replies
        assert pb.verify_witness(res)

    @pytest.mark.parametrize("case", CASES)
    def test_rejects_every_corruption(self, case):
        res = _refutation(case)
        corrupted = _corruptions(case, res)
        accepted = [
            name
            for name, w in corrupted.items()
            if w == res.witness or pb.verify_witness(replace(res, witness=w))
        ]
        assert accepted == []

    def test_explain_returns_one_node_per_goal(self):
        p, q, _ = pair("tau.0 | tau.0", "tau.0 | tau.tau.0", "")
        for res in (pb.open_bisim(p, q), pb.late_bisim(p, q), pb.early_bisim(p, q)):
            nodes, by_goal, todo = 0, {}, [res.witness]
            while todo:
                node = todo.pop()
                nodes += 1
                assert by_goal.setdefault(node.goal, node) is node
                todo.extend(r.child for r in node.replies)
            assert nodes > len(by_goal)  # a goal repeats, and its node is shared
            assert res.game.explain(replace(res.root)) is res.witness
            for goal, node in by_goal.items():
                assert res.game.explain(replace(goal)) is node

    @pytest.mark.parametrize("case", CASES)
    def test_goals_below_the_root_are_normal_forms(self, case):
        res = _refutation(case)
        todo = [r.child for r in res.witness.replies]
        assert todo
        while todo:
            node = todo.pop()
            for side in (node.goal.left, node.goal.right):
                assert normal_form(side) == side
            todo.extend(r.child for r in node.replies)

    @pytest.mark.parametrize("case", CASES)
    def test_rejects_a_congruent_child_goal_not_in_normal_form(self, case):
        # 0 | P is congruent to P, so it plays the same game, but the
        # instantiation rule gives the normal form P itself
        res = _refutation(case)
        child = res.witness.replies[0].child
        for side in ("left", "right"):
            p = getattr(child.goal, side)
            variant = replace(child.goal, **{side: pb.Par(pb.NIL, p)})
            assert normal_form(getattr(variant, side)) == p
            corrupted = _edit(res.witness, (0,), goal=variant)
            assert not pb.verify_witness(replace(res, witness=corrupted))

    def test_rejects_a_node_reused_at_another_goal(self):
        # below the root input a right tau with two replies whose goals differ;
        # the second reply reuses the first one's node, which the replay has
        # just accepted at its own goal
        res = _refutation("open-input")
        inner = res.witness.replies[0].child
        first, second = (r.child for r in inner.replies)
        assert first.goal != second.goal
        reused = _edit_reply(res.witness, (0,), 1, child=first)
        assert reused.replies[0].child.replies[1].child is first
        assert not pb.verify_witness(replace(res, witness=reused))

    def test_replays_each_shared_node_once(self, monkeypatch):
        p, q, _ = pair("tau.0 | tau.0 | tau.0", "tau.0 | tau.0 | tau.tau.0", "")
        res = pb.late_bisim(p, q)
        nodes, paths, todo = {}, Counter(), [res.witness]
        while todo:
            node = todo.pop()
            nodes[id(node)] = node
            paths[id(node)] += 1
            todo.extend(r.child for r in node.replies)
        assert any(paths[i] > 1 and n.replies for i, n in nodes.items())
        replayed = Counter()
        real = pb.bisim._Game._clause

        def counted(self, goal, *args):
            replayed[goal] += 1
            return real(self, goal, *args)

        monkeypatch.setattr(pb.bisim._Game, "_clause", counted)
        assert pb.verify_witness(res)
        # one clause per node, and nodes and goals correspond one to one
        assert replayed == Counter(n.goal for n in nodes.values())

    def test_calls_no_decider(self, monkeypatch):
        res = _refutation("open-input")

        def no_decider(*_args):
            raise AssertionError("the replay decided a goal")

        for name in ("check", "_defended", "explain"):
            monkeypatch.setattr(pb.bisim._Game, name, no_decider)
        assert pb.verify_witness(res)


class TestResultShape:
    def test_stats_populated(self):
        p, q, prefix = pair(SANGIORGI_P, SANGIORGI_Q, "forall x, forall z")
        res = pb.open_bisim(p, q, prefix)
        assert res.stats.goals > 0 and res.stats.branches > 0

    def test_goal_fields(self):
        p, q, prefix = pair("tau.0", "tau.0", "")
        res = pb.open_bisim(p, q, prefix)
        g = res.root
        assert isinstance(g, Goal) and g.left == p and g.right == q

    def test_witness_mainline_replays(self):
        p, q, _ = pair("tau.tau.0", "tau.0", "")
        res = pb.late_bisim(p, q)
        steps = pb.witness_mainline(res.witness)
        assert steps and all(node.action is not None for node, _ in steps)
