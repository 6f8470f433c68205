"""Parser, encoder, alpha-equivalence, free names, pretty-printer."""

import sys

import pytest

import pibisim as pb
from pibisim.syntax import (
    Bound,
    Eigen,
    In,
    Match,
    Nabla,
    Nil,
    Nu,
    Out,
    Par,
    Sum,
    TauPref,
)

NIL = Nil()


def pfx(text):
    return pb.parse_prefix(text)


def enc(text, prefix_text, defs=None):
    return pb.encode(pb.parse_process(text, defs), pfx(prefix_text))


class TestParse:
    def test_nil(self):
        assert pb.parse_process("0") == NIL

    def test_300_nested_parentheses_parse(self):
        """The parsers spend a fixed number of frames per nesting level: 300
        levels of a process and of a formula parse under the default
        recursion limit, so a parser that spends more per level fails."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            n = 300
            proc = pb.parse_process("(" * n + "tau.0 + 0 | 0" + ")" * n)
            formula = pb.parse_formula("(" * n + "true v <tau>true & false" + ")" * n)
        finally:
            sys.setrecursionlimit(limit)
        assert proc == pb.parse_process("tau.0 + 0 | 0")
        assert formula == pb.parse_formula("true v <tau>true & false")

    def test_negative_example_shape(self):
        p = enc("(nu y)[x=y] x!z.0", "nabla x, nabla z")
        assert p == Nu(Match(Nabla(1), Bound(0), Out(Nabla(1), Nabla(2), NIL)))

    def test_input_sum_shape(self):
        p = enc("x?(u).(tau.tau.0 + tau.0)", "nabla x")
        assert p == In(Nabla(1), Sum(TauPref(TauPref(NIL)), TauPref(NIL)))

    def test_precedence_plus_loosest(self):
        p = enc("tau.0 | tau.0 + tau.0", "")
        assert isinstance(p, Sum)
        assert isinstance(p.left, Par)

    def test_right_associative(self):
        p = enc("tau.0 + 0 + tau.tau.0", "")
        assert isinstance(p, Sum) and isinstance(p.right, Sum)
        q = enc("tau.0 | 0 | tau.tau.0", "")
        assert isinstance(q, Par) and isinstance(q.right, Par)

    def test_prefix_binds_tighter_than_par(self):
        p = enc("tau.0 | 0", "")
        assert p == Par(TauPref(NIL), NIL)

    def test_vacuous_input_abbreviation(self):
        assert enc("x.tau.0", "nabla x") == In(Nabla(1), TauPref(NIL))

    def test_bare_output_abbreviation(self):
        # the reserved object is a real name, added to the prefix on demand
        q = pb.parse_process("x!.0")
        prefix = pb.extend_prefix_for_reserved(pfx("nabla x"), q)
        assert pb.encode(q, prefix) == Out(Nabla(1), Nabla(2), NIL)

    def test_shadowing_inner_binder_wins(self):
        p = enc("x?(u).u?(u).u!u.0", "nabla x")
        assert p == In(Nabla(1), In(Bound(0), Out(Bound(0), Bound(0), NIL)))

    def test_bang(self):
        p = enc("!tau.0", "")
        assert p == pb.Bang(TauPref(NIL))

    @pytest.mark.parametrize(
        "bad", ["x!", "(nu y", "0 +", "[x=]tau.0", "?", "nu x.0", "x??(y).0"]
    )
    def test_parse_errors(self, bad):
        with pytest.raises(pb.ParseError):
            pb.parse_process(bad)

    def test_keywords_rejected_as_names(self):
        with pytest.raises(pb.ParseError):
            pb.parse_process("tau!x.0")


# Malformed texts with the exact (position, expected, found) of their
# ParseError, one row or more for each place a parser raises: a character
# that starts no token, empty and blank text, trailing input, each expected
# punctuation and name (keywords used as names included), a name followed by
# none of ! ? . (, undeclared calls and wrong arities, each bad branch of a
# formula modality, and the prefix parser's two checks.
CALL_DEFS = "f(a) := a!a.0\ng() := tau.0\n"
PROCESS_ERRORS = [
    ("$", 0, ("a token",), "$"),
    ("x!y.0 $", 6, ("a token",), "$"),
    ("X!y.0", 0, ("a token",), "X"),
    ("  x!Y.0", 4, ("a token",), "Y"),
    ("x!y.0\t#", 6, ("a token",), "#"),
    ("0abc", 1, ("end of input",), "abc"),
    ("", 0, ("a process",), ""),
    ("   ", 3, ("a process",), ""),
    ("0 0", 2, ("end of input",), "0"),
    ("tau.0 )", 6, ("end of input",), ")"),
    ("tau 0", 4, ("'.'",), "0"),
    ("tau!x.0", 3, ("'.'",), "!"),
    ("(nu x 0", 6, ("')'",), "0"),
    ("(nu 0)", 4, ("restricted name",), "0"),
    ("(nu tau).0", 4, ("restricted name",), "tau"),
    ("(0", 2, ("')'",), ""),
    ("[x y]0", 3, ("'='",), "y"),
    ("[0=y]0", 1, ("name",), "0"),
    ("[x=nu]0", 3, ("name",), "nu"),
    ("[x=y 0", 5, ("']'",), "0"),
    ("x!y 0", 4, ("'.'",), "0"),
    ("x!tau.0", 2, ("'.'",), "tau"),
    ("x?y", 2, ("'('",), "y"),
    ("x?(0).0", 3, ("input name",), "0"),
    ("x?(tau).0", 3, ("input name",), "tau"),
    ("x?(y 0", 5, ("')'",), "0"),
    ("x?(y)0", 5, ("'.'",), "0"),
    ("x 0", 2, ("'!'", "'?'", "'.'", "'('"), "0"),
    ("x", 1, ("'!'", "'?'", "'.'", "'('"), ""),
    ("x!y.0 | y ]", 10, ("'!'", "'?'", "'.'", "'('"), "]"),
    ("+", 0, ("a process",), "+"),
    ("nu", 0, ("a process",), "nu"),
    ("x + )", 2, ("'!'", "'?'", "'.'", "'('"), "+"),
    ("f(x)", 0, ("a declared identifier",), "f"),
    ("tau.h(x)", 4, ("a declared identifier",), "h"),
]
CALL_ERRORS = [
    ("f(x, y)", 0, ("1 argument(s) for f",), "2"),
    ("f()", 0, ("1 argument(s) for f",), "0"),
    ("tau.g(x)", 4, ("0 argument(s) for g",), "1"),
    ("f(0)", 2, ("argument name",), "0"),
    ("f(x,)", 4, ("argument name",), ")"),
    ("f(x", 3, ("')'",), ""),
    ("f x", 2, ("'!'", "'?'", "'.'", "'('"), "x"),
]
FORMULA_ERRORS = [
    ("$", 0, ("a formula token",), "$"),
    ("true $", 5, ("a formula token",), "$"),
    ("0", 0, ("a formula token",), "0"),
    ("X", 0, ("a formula token",), "X"),
    ("true & T", 7, ("a formula token",), "T"),
    ("", 0, ("a formula",), ""),
    ("  ", 2, ("a formula",), ""),
    ("true true", 5, ("end of input",), "true"),
    ("true )", 5, ("end of input",), ")"),
    ("(true", 5, ("')'",), ""),
    ("<tau true", 5, ("'>'",), "true"),
    ("<x=y true", 5, ("'>'",), "true"),
    ("<x= >true", 4, ("name",), ">"),
    ("<v=x>true", 1, ("name",), "v"),
    ("<x=v>true", 3, ("name",), "v"),
    ("<x!y true", 5, ("'>'",), "true"),
    ("<x!(y true", 6, ("')'",), "true"),
    ("<x!(y)true", 6, ("'>'",), "true"),
    ("<x!(L)>true", 4, ("name",), "L"),
    ("<x?y>true", 3, ("'('",), "y"),
    ("<x?(y>true", 5, ("')'",), ">"),
    ("<x?(y)true", 6, ("'>'",), "true"),
    ("<x?(E)>true", 4, ("name",), "E"),
    ("v", 0, ("a formula",), "v"),
    ("&", 0, ("a formula",), "&"),
    (">", 0, ("a formula",), ">"),
    ("x", 0, ("a formula",), "x"),
    ("<x>true", 2, ("'='", "'!'", "'?'"), ">"),
    ("<x.y>true", 2, ("'='", "'!'", "'?'"), "."),
    ("<x", 2, ("'='", "'!'", "'?'"), ""),
    ("<0>true", 1, ("a formula token",), "0"),
    ("<true>true", 1, ("name",), "true"),
    ("<L?(x)>true", 1, ("name",), "L"),
    ("[x]true", 2, ("'='", "'!'", "'?'"), "]"),
    ("[tau>true", 4, ("']'",), ">"),
    ("[x=y>true", 4, ("']'",), ">"),
]
PREFIX_ERRORS = [
    ("forall", 0, ("forall IDENT", "nabla IDENT"), "forall"),
    ("exists x", 0, ("forall IDENT", "nabla IDENT"), "exists x"),
    ("forall x,", 9, ("forall IDENT", "nabla IDENT"), ""),
    ("forall X", 0, ("identifier",), "X"),
    ("nabla tau", 0, ("identifier",), "tau"),
    ("forall x y", 0, ("forall IDENT", "nabla IDENT"), "forall x y"),
    ("forall x,, nabla y", 9, ("forall IDENT", "nabla IDENT"), ""),
    ("nabla x, forall 0", 9, ("identifier",), "0"),
    ("nabla x, nabla y, forall 0", 18, ("identifier",), "0"),
    ("nabla x,  exists y", 10, ("forall IDENT", "nabla IDENT"), "exists y"),
]

# Declaration files: positions are offsets in the whole file text.
DECL_ERRORS = [
    ("d(x) := x!x.0\ne(a) := a?(u).tau 0\n", 32, ("'.'",), "0"),
    ("d(x, 0) := 0", 5, ("parameter identifier",), "0"),
    ("d(x) := 0 # c\ne(a, b c) := 0", 19, ("parameter identifier",), "b c"),
    ("# c\n  d(x) := 0\n  d(y) := 0", 18, ("a fresh declaration name",), "d"),
    ("d(x) := 0\n  oops\n", 12, ("ident(params) := proc",), "line 2"),
    ("d(x) := 0\nr(x) := r(x)\n", 18, ("a declared identifier",), "r"),
]


def _parsers():
    defs = pb.parse_decls(CALL_DEFS)
    return {
        "process": pb.parse_process,
        "call": lambda text: pb.parse_process(text, defs),
        "formula": pb.parse_formula,
        "prefix": pb.parse_prefix,
        "decls": pb.parse_decls,
    }


@pytest.mark.parametrize(
    "parser, text, position, expected, found",
    [("process", *row) for row in PROCESS_ERRORS]
    + [("call", *row) for row in CALL_ERRORS]
    + [("formula", *row) for row in FORMULA_ERRORS]
    + [("prefix", *row) for row in PREFIX_ERRORS]
    + [("decls", *row) for row in DECL_ERRORS],
)
def test_parse_error_is_pinned(parser, text, position, expected, found):
    with pytest.raises(pb.ParseError) as info:
        _parsers()[parser](text)
    assert (info.value.position, info.value.expected, info.value.found) == (
        position,
        expected,
        found,
    )


class TestEncode:
    def test_nil_empty_prefix(self):
        assert enc("0", "") == NIL

    def test_nabla_levels_in_order(self):
        p = enc("x!a.0 | x?(y).0", "nabla x, nabla a")
        assert p == Par(Out(Nabla(1), Nabla(2), NIL), In(Nabla(1), NIL))

    def test_forall_entries_become_eigenvariables(self):
        p = enc("[x=y]tau.0", "forall x, forall y")
        assert p == Match(Eigen(1, 0), Eigen(2, 0), TauPref(NIL))

    def test_ceiling_counts_nablas_to_the_left(self):
        prefix = pfx("nabla a, forall x, nabla b, forall y")
        assert prefix.name_map() == {
            "a": Nabla(1),
            "x": Eigen(1, 1),
            "b": Nabla(2),
            "y": Eigen(2, 2),
        }

    def test_unbound_name(self):
        with pytest.raises(pb.UnboundName):
            enc("a!b.0", "nabla a")

    def test_duplicate_prefix_name(self):
        with pytest.raises(pb.DuplicatePrefixName):
            pfx("nabla x, forall x")


class TestPrefixCache:
    """``parse_prefix`` is memoised by text; a cached prefix must behave as
    a freshly built one."""

    @pytest.mark.parametrize(
        "text, error",
        [("forall x,", pb.ParseError), ("nabla x, forall x", pb.DuplicatePrefixName)],
    )
    def test_bad_text_raises_on_every_call(self, text, error):
        for _ in range(3):
            with pytest.raises(error):
                pfx(text)

    def test_same_text_gives_the_same_prefix(self):
        assert pfx("nabla a, forall x") is pfx("nabla a, forall x")

    def test_name_map_is_a_copy(self):
        text = "nabla x, forall y"
        before = enc("x!y.0", text)
        names = pfx(text).name_map()
        names["x"] = Nabla(7)
        names.clear()
        assert enc("x!y.0", text) == before == Out(Nabla(1), Eigen(1, 1), NIL)
        assert pfx(text).name_map() == {"x": Nabla(1), "y": Eigen(1, 1)}

    def test_built_and_parsed_prefixes_agree(self):
        text = "nabla a, forall x, nabla b, forall y"
        built = pb.Prefix((("nabla", "a"), ("forall", "x"), ("nabla", "b"), ("forall", "y")))
        parsed = pfx(text)
        assert built == parsed and hash(built) == hash(parsed)
        proc = pb.parse_process("[a=x]b!y.0 | x?(u).u!a.0")
        formula = pb.parse_formula("<a!x>true & [y?(u)]<u=b>true")
        assert pb.encode(proc, built) == pb.encode(proc, parsed)
        assert pb.encode(formula, built) == pb.encode(formula, parsed)
        for prefix in (built, parsed):
            assert (prefix.nabla_count, prefix.eigen_count) == (2, 2)
        assert built.idents_by_name() == parsed.idents_by_name() == {
            Nabla(1): "a",
            Eigen(1, 1): "x",
            Nabla(2): "b",
            Eigen(2, 2): "y",
        }
        assert not built.is_all_nabla() and pfx("nabla a, nabla b").is_all_nabla()
        assert pb.Prefix().nabla_count == pb.Prefix().eigen_count == 0


class TestAlphaEq:
    def test_nu_renaming(self):
        a = enc("(nu a)a!b.0", "nabla b")
        c = enc("(nu c)c!b.0", "nabla b")
        assert pb.alpha_eq(a, c)

    def test_different_processes(self):
        assert not pb.alpha_eq(TauPref(NIL), NIL)

    def test_input_renaming(self):
        a = enc("x?(y).x!y.0", "nabla x")
        b = enc("x?(z).x!z.0", "nabla x")
        assert pb.alpha_eq(a, b)

    def test_alpha_eq_is_structural_equality(self):
        a = enc("(nu a)a!b.0", "nabla b")
        c = enc("(nu c)c!b.0", "nabla b")
        assert a == c


class TestFreeNames:
    def test_nil(self):
        assert pb.free_names(NIL) == frozenset()

    def test_match(self):
        p = Match(Nabla(1), Eigen(1, 0), NIL)
        assert pb.free_names(p) == {Nabla(1), Eigen(1, 0)}

    def test_binder_excluded(self):
        p = Nu(Out(Bound(0), Nabla(2), NIL))
        assert pb.free_names(p) == {Nabla(2)}

    def test_subset_of_prefix(self):
        p = enc("x?(u).u!a.0", "nabla x, nabla a, nabla unused")
        assert pb.free_names(p) <= {Nabla(1), Nabla(2), Nabla(3)}


class TestPretty:
    def test_nil(self):
        assert pb.pretty(NIL, pfx("")) == "0"

    def test_negative_example_round_trip(self):
        prefix = pfx("nabla x, nabla z")
        p = enc("(nu y)[x=y]x!z.0", "nabla x, nabla z")
        assert pb.pretty(p, prefix) == "(nu y)[x=y]x!z.0"

    def test_round_trip_alpha(self):
        prefix = pfx("nabla x, forall y")
        for text in [
            "x?(u).(tau.tau.0 + tau.0)",
            "(nu a)(a!x.0 | a?(u).y!u.0)",
            "!([x=y]tau.0 + x!y.0)",
        ]:
            p = pb.encode(pb.parse_process(text), prefix)
            back = pb.encode(pb.parse_process(pb.pretty(p, prefix)), prefix)
            assert pb.alpha_eq(p, back), text

    def test_round_trip_reserved_output(self):
        parsed = pb.parse_process("x.0 | x!.0")
        prefix = pb.extend_prefix_for_reserved(pfx("nabla x"), parsed)
        p = pb.encode(parsed, prefix)
        back = pb.encode(pb.parse_process(pb.pretty(p, prefix)), prefix)
        assert pb.alpha_eq(p, back)

    def test_bound_output_action_abbreviation(self):
        prefix = pfx("nabla x, nabla z")
        assert pb.pretty_action(pb.BoundOut(Nabla(1)), prefix, "w") == "x!(w)"
        assert pb.pretty_action(pb.BoundIn(Nabla(1)), prefix, "w") == "x?(w)"
        assert pb.pretty_action(pb.FreeOut(Nabla(1), Nabla(2)), prefix) == "x!z"
        assert pb.pretty_action(pb.TAU, prefix) == "tau"

    def test_default_binder_avoids_the_prefix_idents(self):
        prefix = pfx("nabla x, nabla w, nabla y")
        assert pb.pretty_action(pb.BoundIn(Nabla(2)), prefix) == "w?(z)"
        assert pb.pretty_action(pb.BoundOut(Nabla(1)), prefix) == "x!(z)"

    def test_undeclared_names_avoid_the_prefix_idents(self):
        prefix = pfx("nabla n4, nabla n4_1, forall e2, nabla x")
        assert pb.pretty_name(Nabla(4), prefix) == "n4_2"
        assert pb.pretty_name(Eigen(2, 2), prefix) == "e2_1"
        assert pb.pretty_name(Nabla(5), prefix) == "n5"
        assert pb.pretty(Out(Nabla(4), Nabla(1), NIL), prefix) == "n4_2!n4.0"

    def test_binders_avoid_free_idents_of_the_term(self):
        # a term opened at a display name keeps that name apart from its
        # own binders
        prefix = pfx("nabla y, nabla z, nabla u, nabla v")
        body = In(Bound(0), Out(Bound(1), Bound(0), NIL))
        assert pb.pretty(pb.open_abs(body, pb.Free("w")), prefix) == "w?(m).w!m.0"


class TestOpenClose:
    def test_open_then_close(self):
        body = Out(Bound(0), Nabla(1), NIL)
        opened = pb.open_abs(body, Nabla(7))
        assert opened == Out(Nabla(7), Nabla(1), NIL)
        assert pb.close_abs(opened, Nabla(7)) == body

    def test_close_then_open(self):
        p = Out(Eigen(3, 1), Nabla(2), NIL)
        assert pb.open_abs(pb.close_abs(p, Eigen(3, 1)), Eigen(3, 1)) == p


class TestDecls:
    DECLS = "# comment line\nd(x) := x!x.0\nev(a,b) := d(a) | b?(u).d(u)\n"

    def test_expansion(self):
        defs = pb.parse_decls(self.DECLS)
        prefix = pfx("nabla x, nabla z")
        p = pb.encode(pb.parse_process("ev(x,z)", defs), prefix)
        assert pb.pretty(p, prefix) == "x!x.0 | z?(y).y!y.0"

    def test_arity_checked(self):
        defs = pb.parse_decls(self.DECLS)
        with pytest.raises(pb.ParseError):
            pb.parse_process("d(a,b)", defs)

    def test_recursion_rejected(self):
        with pytest.raises(pb.ParseError):
            pb.parse_decls("r(x) := r(x)\n")

    def test_duplicate_rejected(self):
        with pytest.raises(pb.ParseError):
            pb.parse_decls("d(x) := 0\nd(y) := 0\n")


class TestSubstCapture:
    def test_no_capture_under_binder(self):
        # {x := n2} applied under (nu y) must not touch the bound occurrence
        from pibisim.unify import singleton

        theta = singleton(Eigen(1, 2), Nabla(2))
        p = Nu(Match(Eigen(1, 2), Bound(0), NIL))
        assert theta(p) == Nu(Match(Nabla(2), Bound(0), NIL))
