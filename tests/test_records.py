"""The record classes keep the dataclass contract: ``repr`` text, equality,
hashes, ``dataclasses.replace`` and ``fields``, ``copy`` and ``pickle``,
``__match_args__`` and frozen fields; and ``import pibisim`` stays lean.

The constructor classes of terms, ``Transition`` and ``Goal`` are checked
in ``test_syntax.py``; these are the other records."""

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import pytest

from pibisim.bisim import BisimResult, FailNode, Goal, Reply, Stats, _Clause
from pibisim.lts import Edge, Graph, Transition
from pibisim.modal import _Mode
from pibisim.syntax import NIL, TAU, Eigen, FalseF, LateIn, Nabla, Nil, Prefix, Tau, TauPref, TrueF
from pibisim.unify import EMPTY_DISTINCTION, IDENTITY, Distinction, Subst

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

GOAL = Goal(1, 2, EMPTY_DISTINCTION, NIL, TauPref(NIL))
GOAL_TEXT = (
    "Goal(depth=1, next_eigen=2, distinct=Distinction(pairs=frozenset()), "
    "left=Nil(), right=TauPref(cont=Nil()))"
)
FAIL = FailNode(GOAL, "left", 0, IDENTITY, TAU, None, ())
FAIL_TEXT = (
    f"FailNode(goal={GOAL_TEXT}, side='left', attacker_index=0, "
    "theta=Subst(bindings=()), action=Tau(), instantiation=None, replies=())"
)
EDGE = Edge(0, 1, TAU, IDENTITY, None)
EDGE_TEXT = "Edge(src=0, dst=1, action=Tau(), theta=Subst(bindings=()), instance=None)"

SHOWN = (True, True)  # a field that repr shows and == compares
HIDDEN = (False, False)
# (class, arguments, repr, fields as (name, init, repr, compare))
FROZEN_RECORDS = [
    (Nil, (), "Nil()", ()),
    (Tau, (), "Tau()", ()),
    (TrueF, (), "TrueF()", ()),
    (FalseF, (), "FalseF()", ()),
    (
        Reply,
        (1, Nabla(2), FAIL),
        f"Reply(defender_index=1, instantiation=Nabla(2), child={FAIL_TEXT})",
        (("defender_index", True, *SHOWN), ("instantiation", True, *SHOWN), ("child", True, *SHOWN)),
    ),
    (
        FailNode,
        (GOAL, "right", 2, IDENTITY, TAU, Nabla(1), (Reply(0, None, FAIL),)),
        f"FailNode(goal={GOAL_TEXT}, side='right', attacker_index=2, theta=Subst(bindings=()), "
        f"action=Tau(), instantiation=Nabla(1), replies=(Reply(defender_index=0, "
        f"instantiation=None, child={FAIL_TEXT}),))",
        tuple((name, True, *SHOWN) for name in (
            "goal", "side", "attacker_index", "theta", "action", "instantiation", "replies")),
    ),
    (
        Edge,
        (0, 1, TAU, IDENTITY, None),
        EDGE_TEXT,
        tuple((name, True, *SHOWN) for name in ("src", "dst", "action", "theta", "instance")),
    ),
    (
        Graph,
        ((NIL, TauPref(NIL)), (EDGE,)),
        f"Graph(states=(Nil(), TauPref(cont=Nil())), edges=({EDGE_TEXT},))",
        (("states", True, *SHOWN), ("edges", True, *SHOWN)),
    ),
    (
        Prefix,
        ((("nabla", "x"), ("forall", "y")),),
        "Prefix(entries=(('nabla', 'x'), ('forall', 'y')))",
        (
            ("entries", True, *SHOWN),
            ("_name_map", False, *HIDDEN),
            ("nabla_count", False, *HIDDEN),
            ("eigen_count", False, *HIDDEN),
        ),
    ),
    (
        Subst,
        (((Eigen(1, 0), Nabla(1)),),),
        "Subst(bindings=((Eigen(1,c0), Nabla(1)),))",
        (("bindings", True, *SHOWN),),
    ),
    (
        Distinction,
        (frozenset({(Nabla(1), Nabla(2))}),),
        "Distinction(pairs=frozenset({(Nabla(1), Nabla(2))}))",
        (("pairs", True, *SHOWN),),
    ),
    (
        _Mode,
        (None, len, (LateIn,)),
        "_Mode(meet=None, received=<built-in function len>, inputs=(<class 'pibisim.syntax.LateIn'>,))",
        (("meet", True, *SHOWN), ("received", True, *SHOWN), ("inputs", True, *SHOWN)),
    ),
]
FROZEN_IDS = [cls.__name__ for cls, *_rest in FROZEN_RECORDS]


@pytest.mark.parametrize("cls, args, shown, spec", FROZEN_RECORDS, ids=FROZEN_IDS)
class TestFrozenRecords:
    def test_repr(self, cls, args, shown, spec):
        assert repr(cls(*args)) == shown

    def test_fields(self, cls, args, shown, spec):
        assert is_dataclass(cls) and is_dataclass(cls(*args))
        assert tuple((f.name, f.init, f.repr, f.compare) for f in fields(cls)) == spec
        assert cls.__match_args__ == tuple(name for name, init, *_flags in spec if init)

    def test_equality_and_hash(self, cls, args, shown, spec):
        node, twin = cls(*args), cls(*args)
        assert node == twin and not node != twin
        assert node.__eq__(object()) is NotImplemented
        compared = tuple(getattr(node, name) for name, _init, _repr, compare in spec if compare)
        assert hash(node) == hash(twin) == hash(compared)

    def test_replace_copy_and_pickle(self, cls, args, shown, spec):
        node = cls(*args)
        copies = [replace(node), copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))]
        for twin in copies:
            assert type(twin) is cls and twin == node and hash(twin) == hash(node)
            assert all(getattr(twin, name) == getattr(node, name) for name, *_flags in spec)
        init = [name for name, init, *_flags in spec if init]
        if init:
            mark = (("forall", "z"),) if cls is Prefix else object()
            changed = replace(node, **{init[0]: mark})
            assert getattr(changed, init[0]) is mark
            assert all(getattr(changed, name) is getattr(node, name) for name in init[1:])

    def test_frozen(self, cls, args, shown, spec):
        node = cls(*args)
        for name, *_flags in spec:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(node, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(node, name)
        assert cls(*args) == node


STATS = Stats(3, 4)
ATTACK = Transition(IDENTITY, TAU, NIL)
GAME = object()  # stands for the game a result keeps
# (class, arguments, repr, the field replaced)
MUTABLE_RECORDS = [
    (Stats, (3, 4), "Stats(goals=3, branches=4)", "branches"),
    (
        BisimResult,
        (True, "open", GOAL, (GOAL,), None, STATS, GAME),
        f"BisimResult(bisimilar=True, mode='open', root={GOAL_TEXT}, certificate=({GOAL_TEXT},), "
        "witness=None, stats=Stats(goals=3, branches=4))",
        "mode",
    ),
    (
        _Clause,
        ("left", ATTACK, EMPTY_DISTINCTION, [ATTACK], ((None, 1, 1),), "one", TAU, [], len),
        "_Clause(side='left', attack=Transition(theta=Subst(bindings=()), action=Tau(), cont=Nil()), "
        "distinct=Distinction(pairs=frozenset()), defenders=[Transition(theta=Subst(bindings=()), "
        "action=Tau(), cont=Nil())], names=((None, 1, 1),), shape='one', label=Tau(), moves=[], "
        "opened=<built-in function len>)",
        "shape",
    ),
]


@pytest.mark.parametrize(
    "cls, args, shown, changed", MUTABLE_RECORDS, ids=[cls.__name__ for cls, *_rest in MUTABLE_RECORDS]
)
def test_mutable_records(cls, args, shown, changed):
    node = cls(*args)
    assert cls.__hash__ is None
    assert repr(node) == shown
    assert node == cls(*args) and node != replace(node, **{changed: "other"})
    twin = replace(node)
    assert type(twin) is cls and twin == node and twin is not node
    setattr(twin, changed, "other")
    assert getattr(twin, changed) == "other" and twin != node


def test_a_result_compares_its_game_without_showing_it():
    game = {f.name: (f.repr, f.compare) for f in fields(BisimResult)}["game"]
    assert game == (False, True)
    args = MUTABLE_RECORDS[1][1]
    assert BisimResult(*args) != BisimResult(*args[:-1], object())


def test_import_is_lean():
    """``import pibisim`` loads none of ``dataclasses``, ``inspect``, ``re``,
    ``functools`` and ``collections``, compiles no source but its own
    modules', and leaves no second copy of any class alive; ``dataclasses``
    still reads the records once something imports it."""
    heavy = ["collections", "dataclasses", "functools", "inspect", "re"]
    code = "\n".join([
        "import gc, sys",
        "compiled = []",
        "sys.addaudithook(lambda event, args: compiled.append(str(args[1])) if event == 'compile' else None)",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import pibisim",
        "done = len(compiled)",
        f"loaded = sorted(set({heavy!r}) & sys.modules.keys())",
        "gc.collect()",
        "classes = [c for c in gc.get_objects() if isinstance(c, type)]",
        "names = [c.__qualname__ for c in classes if str(c.__module__).startswith('pibisim')]",
        "import dataclasses, json",
        "print(json.dumps({",
        "    'loaded': loaded,",
        "    'compiled': compiled[:done],",
        "    'twice': sorted({name for name in names if names.count(name) > 1}),",
        "    'par': dataclasses.is_dataclass(pibisim.Par),",
        "    'goal': [f.name for f in dataclasses.fields(pibisim.Goal)],",
        "}))",
    ])
    cmd = [sys.executable, "-I", "-S", "-c", code]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    own = SRC / "pibisim"
    assert [path for path in out.pop("compiled") if pathlib.Path(path).parent != own] == []
    assert out == {
        "loaded": [],
        "twice": [],
        "par": True,
        "goal": ["depth", "next_eigen", "distinct", "left", "right"],
    }


def test_a_term_unpickled_under_another_hash_seed_hashes_as_built_there(tmp_path):
    """A term's cached hash depends on the string hash seed through its
    names, so a pickle leaves it out: a term hashed and pickled under one
    seed, loaded under another, is found in a set by a term built there."""
    path = tmp_path / "term.pickle"
    build = (
        f"import json, pickle, sys; sys.path.insert(0, {str(SRC)!r}); "
        "from pibisim.syntax import NIL, Free, Out; p = Out(Free('x'), Free('y'), NIL); "
    )
    dump = build + f"hash(p); pickle.dump(p, open({str(path)!r}, 'wb'))"
    load = build + f"q = pickle.load(open({str(path)!r}, 'rb')); print(json.dumps([p in {{q}}, len({{p, q}})]))"
    outs = []
    for seed, code in (("1", dump), ("2", load)):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True))
    assert json.loads(outs[1].stdout) == [True, 1]
