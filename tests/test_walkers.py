"""The term walkers' dispatch tables: how deep a term each walker handles
under the default recursion limit, which classes each table holds, and what a
walker raises for an object that is not a term of its sort."""

import sys
from typing import get_args

import pytest

from pibisim import lts, syntax
from pibisim.lts import successors_free
from pibisim.syntax import (
    NIL,
    Bound,
    Formula,
    Label,
    Nabla,
    Name,
    Out,
    Par,
    Process,
    Sum,
    TauPref,
    contains_bang,
    map_names,
    normal_form,
    right_nest,
)

X = Nabla(1)


def tau_chain(n: int):
    """``tau.tau. ... x!x.0`` with ``n`` prefixes, built bottom-up."""
    p = Out(X, X, NIL)
    for _ in range(n):
        p = TauPref(p)
    return p


def sum_chain(n: int):
    """``x!n1.0 + x!n2.0 + ...``: ``n`` distinct summands, right-nested."""
    return right_nest(Sum, [Out(X, Nabla(i + 1), NIL) for i in range(n)])


def test_walkers_take_one_frame_per_level():
    """A walker dispatches a node's children through its table, not back
    through its entry function, so it takes the frames per level that a
    direct recursion takes: under a recursion limit of 1000, ``map_names``
    walks a 900-deep ``tau.`` chain and ``successors_free`` a 900-deep
    ``+`` chain, and ``normal_form`` (two frames per level: its memo and
    the node) and ``hash`` handle 450-deep chains.  A walker that routes
    children through its entry function spends twice or three times the
    frames and fails."""
    deep, deep_sum = tau_chain(900), sum_chain(900)
    half, half_sum, unhashed = tau_chain(450), sum_chain(450), tau_chain(450)
    y = Nabla(2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        renamed = map_names(deep, lambda n, _d: y)
        moves = successors_free(deep_sum)
        nf, nf_sum = normal_form(half), normal_form(half_sum)
        hash(unhashed)
    finally:
        sys.setrecursionlimit(limit)
    levels = 0
    while type(renamed) is TauPref:
        renamed, levels = renamed.cont, levels + 1
    assert levels == 900 and renamed == Out(y, y, NIL)
    assert [t.action.obj for t in moves] == [Nabla(i + 1) for i in range(900)]
    assert nf is half and nf_sum is half_sum
    assert unhashed._hash is not None


@pytest.mark.parametrize("table, sorts", [
    (syntax._MAP, (Process, Label, Formula)),
    (syntax._NF, (Process,)),
    (syntax._NAME_KEY, (Name,)),
    (syntax._HAS_BANG, (Process,)),
    (lts._RULES, (Process,)),
], ids=["map_names", "_nf", "_name_key", "contains_bang", "_moves"])
def test_each_table_holds_exactly_the_classes_of_its_sort(table, sorts):
    assert set(table) == {cls for sort in sorts for cls in get_args(sort)}


def keep(n, _d):
    return n


@pytest.mark.parametrize("call, text", [
    (lambda: map_names(5, keep), "not a process, action or formula: 5"),
    (lambda: map_names(Bound(0), keep), "not a process, action or formula: Bound(0)"),
    (lambda: map_names(TauPref(5), keep), "not a process, action or formula: 5"),
    (lambda: normal_form(Bound(0)), "not a process: Bound(0)"),
    (lambda: normal_form(5), "not a process: 5"),
    (lambda: normal_form(Par(NIL, 7)), "not a process: 7"),
    (lambda: normal_form(Out(1, X, NIL)), "not a name: 1"),
    (lambda: contains_bang(5), "not a process: 5"),
    (lambda: contains_bang(Sum(NIL, 3)), "not a process: 3"),
    (lambda: successors_free(5, 0), "not a process: 5"),
    (lambda: successors_free(Par(TauPref(NIL), 4), 0), "not a process: 4"),
    (lambda: successors_free(5), "not a process, action or formula: 5"),
])
def test_a_foreign_object_raises_the_walkers_type_error(call, text):
    """At the root or below it, an object outside the walker's sort raises
    ``TypeError`` naming it, as the walkers did before they had tables."""
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == text
