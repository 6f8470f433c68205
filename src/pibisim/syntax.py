"""Process syntax: surface grammar, the binder-free internal representation, and
the translation between them; and the constructors of modal formulas.

A formula's two modalities are ``Dia(label, body)`` and ``Box(label, body)``,
<a>A and [a]A.  A label is an action (``BoundIn`` is the plain input), a match
``Eq``, or a late or early input (``LateIn``, ``EarlyIn``), and the body is one
binder deep when the label binds a name.

Internally binders are de Bruijn indices (index 0 is the innermost binder), so
alpha-equivalence is plain structural equality.  Free names come in two kinds:
scoped constants with a level (``Nabla``) and instantiable variables with a
level ceiling (``Eigen``).  The parser leaves free names as ``Free``
placeholders which ``encode`` resolves against a quantifier prefix.

The process parser here and the formula parser in ``modal`` are cursors over
the tokens of the whole text, which ``translate`` and ``split`` cut out; a
text that fails, or is not ASCII, is scanned for positions (``_TokenParser``).
A ``Prefix`` builds its name map and counts once, and ``parse_prefix`` is
memoised by text, so a query's prefix is parsed and mapped once.

Every layer builds nodes in bulk, so building one is kept cheap.  Every
record class of the package (the name, process, action, label and formula
classes here, and those of ``unify``, ``lts``, ``modal`` and ``bisim``) is
built once, by ``_record``, as a slotted class whose ``__init__`` writes each
slot through its member descriptor, where a dataclass-generated one calls
``object.__setattr__`` per field, from templates compiled with this module.
``import pibisim`` compiles nothing and imports only ``itertools`` and
``operator``; ``dataclasses.fields`` and ``replace`` still read records.
A parse builds one ``Free`` per identifier, shared by every free occurrence
of that name, and a ``+``, ``|``, ``v`` or ``&`` level with one operand
returns it without building a list.
Each term walker (``map_names``, ``_nf``, ``_name_key``, ``contains_bang``,
``lts._moves``) keeps one ``_Table`` from a node's exact type to a function
per constructor, and dispatches a node's children through that table, not
through its entry function, so a walk takes no more frames per level than a
direct recursion.

Processes, actions and formulas bind names alike and share one name walk,
``map_names``, so ``open_abs``, ``close_abs``, ``free_names``, ``encode``
and ``unify.Subst`` serve all three.  A reader that only collects names
passes a callback that returns each name unchanged, and gets the term back
itself, with nothing built.
"""

from __future__ import annotations

from itertools import accumulate
from operator import is_

# ------------------------------------------------------------------------- records

_MISSING = object()


class _Field:
    """A record field's default, and whether ``__init__`` takes it, ``repr``
    shows it and ``==`` compares it.  A class body assigns one where
    ``dataclasses.field`` would be called."""

    __slots__ = ("name", "type", "default", "init", "repr", "compare")

    def __init__(self, default=_MISSING, *, init=True, repr=True, compare=True):
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


def _repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._record_fields if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _getstate(self):
    """The field values, less a cached hash, which varies with the string hash seed."""
    return [None if f.name == "_hash" else getattr(self, f.name) for f in self._record_fields]


def _setstate(self, state):
    for f, value in zip(self._record_fields, state):
        object.__setattr__(self, f.name, value)


def _refuse(verb):
    """A frozen record's ``__setattr__`` or ``__delattr__``."""

    def refuse(self, name, *value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    return refuse


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, which ``dataclasses.fields``,
    ``replace`` and ``is_dataclass`` read.  The first read imports
    ``dataclasses``, has it build the fields of a throwaway class declared
    like the record, and keeps them on the record class."""

    def __get__(self, obj, cls):
        import dataclasses

        ns = {"__module__": cls.__module__, "__qualname__": cls.__qualname__}
        ns["__annotations__"] = {f.name: f.type for f in cls._record_fields}
        for f in cls._record_fields:
            default = dataclasses.MISSING if f.default is _MISSING else f.default
            ns[f.name] = dataclasses.field(default=default, init=f.init, repr=f.repr, compare=f.compare)
        spec = dataclasses.dataclass(init=False, repr=False, eq=False)(type(cls.__name__, (), ns))
        cls.__dataclass_fields__ = spec.__dataclass_fields__
        return spec.__dataclass_fields__


_SHARED = {"__dataclass_fields__": _DataclassFields(), "__getstate__": _getstate, "__setstate__": _setstate}
_FROZEN = {"__setattr__": _refuse("assign to"), "__delattr__": _refuse("delete")}

# The methods ``_record`` copies, per field count: ``_0``, ``_1``, ... become field
# names, ``_s0``, ``_s1``, ... are the init fields' slot setters, ``_sh`` the ``_hash`` slot's.
def _init0(self): pass
def _init1(self, _0): _s0(self, _0)
def _init2(self, _0, _1): _s0(self, _0); _s1(self, _1)
def _init3(self, _0, _1, _2): _s0(self, _0); _s1(self, _1); _s2(self, _2)
def _init5(self, _0, _1, _2, _3, _4): _s0(self, _0); _s1(self, _1); _s2(self, _2); _s3(self, _3); _s4(self, _4)
def _init7(self, _0, _1, _2, _3, _4, _5, _6):
    _s0(self, _0); _s1(self, _1); _s2(self, _2); _s3(self, _3); _s4(self, _4); _s5(self, _5); _s6(self, _6)
def _init9(self, _0, _1, _2, _3, _4, _5, _6, _7, _8):
    _s0(self, _0); _s1(self, _1); _s2(self, _2); _s3(self, _3); _s4(self, _4); _s5(self, _5)
    _s6(self, _6); _s7(self, _7); _s8(self, _8)
def _init_h0(self): _sh(self, None)
def _init_h1(self, _0): _sh(self, None); _s0(self, _0)
def _init_h2(self, _0, _1): _sh(self, None); _s0(self, _0); _s1(self, _1)
def _init_h3(self, _0, _1, _2): _sh(self, None); _s0(self, _0); _s1(self, _1); _s2(self, _2)
def _eq0(self, o): return True if o.__class__ is self.__class__ else NotImplemented
def _eq1(self, o): return (self._0,) == (o._0,) if o.__class__ is self.__class__ else NotImplemented
def _eq2(self, o): return (self._0, self._1) == (o._0, o._1) if o.__class__ is self.__class__ else NotImplemented
def _eq3(self, o):
    return (self._0, self._1, self._2) == (o._0, o._1, o._2) if o.__class__ is self.__class__ else NotImplemented
def _eq5(self, o):
    if o.__class__ is not self.__class__: return NotImplemented
    return (self._0, self._1, self._2, self._3, self._4) == (o._0, o._1, o._2, o._3, o._4)
def _eq7(self, o):
    if o.__class__ is not self.__class__: return NotImplemented
    return (self._0, self._1, self._2, self._3, self._4, self._5, self._6) == (o._0, o._1, o._2, o._3, o._4, o._5, o._6)
def _eq9(self, o):
    if o.__class__ is not self.__class__: return NotImplemented
    return ((self._0, self._1, self._2, self._3, self._4, self._5, self._6, self._7, self._8)
            == (o._0, o._1, o._2, o._3, o._4, o._5, o._6, o._7, o._8))
def _hash0(self): return hash(())
def _hash1(self): return hash((self._0,))
def _hash2(self): return hash((self._0, self._1))
def _hash3(self): return hash((self._0, self._1, self._2))
def _hash5(self): return hash((self._0, self._1, self._2, self._3, self._4))
def _hash7(self): return hash((self._0, self._1, self._2, self._3, self._4, self._5, self._6))
def _hash_c0(self):
    if (h := self._hash) is None: _sh(self, h := hash(()))
    return h
def _hash_c1(self):
    if (h := self._hash) is None: _sh(self, h := hash((self._0,)))
    return h
def _hash_c2(self):
    if (h := self._hash) is None: _sh(self, h := hash((self._0, self._1)))
    return h
def _hash_c3(self):
    if (h := self._hash) is None: _sh(self, h := hash((self._0, self._1, self._2)))
    return h


def _record(cls=None, /, *, frozen=True):
    """The record class that the class body ``cls`` declares, as
    ``dataclass(slots=True, frozen=frozen)`` would make it, but built once.
    Its fields are those of a record base, then each annotated name of the
    body, whose assigned value is its default or its ``_Field``.

    ``__init__`` (unless the body has one), ``__eq__`` and a frozen record's
    ``__hash__`` are the templates above for its field count, renamed to its
    fields, so nothing is compiled.  ``__init__`` writes each slot through
    its member descriptor.  ``__hash__`` is ``hash`` of the compared fields'
    tuple, which a ``_Term`` keeps in its ``_hash`` slot: a subterm hashed
    once stays hashed in every term that shares it.  ``__repr__`` (unless
    the body has one), pickling and the frozen ``__setattr__`` and
    ``__delattr__`` are shared functions."""
    if cls is None:
        return lambda cls: _record(cls, frozen=frozen)
    ns = dict(cls.__dict__)
    del ns["__dict__"], ns["__weakref__"]
    fields = list(getattr(cls, "_record_fields", ()))
    annotations = ns.get("__annotations__", {})
    for name, annotation in annotations.items():
        f = ns.pop(name, _MISSING)
        f = f if isinstance(f, _Field) else _Field(f)
        f.name, f.type = name, annotation
        fields.append(f)
    ns |= _SHARED | (_FROZEN if frozen else {"__hash__": None}) | {
        "__slots__": tuple(annotations),
        "__qualname__": cls.__qualname__,
        "__match_args__": tuple(f.name for f in fields if f.init),
        "__repr__": ns.get("__repr__", _repr),
        "_record_fields": tuple(fields),
    }
    cls = type(cls)(cls.__name__, cls.__bases__, ns)

    init, hashed = [f for f in fields if f.init], hasattr(cls, "_hash")
    env = {"__builtins__": __builtins__, "__name__": cls.__module__, "_sh": hashed and cls._hash.__set__}
    env |= {f"_s{k}": getattr(cls, f.name).__set__ for k, f in enumerate(init)}
    compared = [f.name for f in fields if f.compare]
    methods = {"__eq__": ("_eq", compared)}
    if "__init__" not in ns:
        methods["__init__"] = ("_init_h" if hashed else "_init", [f.name for f in init])
    if frozen:
        methods["__hash__"] = ("_hash_c" if hashed else "_hash", compared)
    for name, (kind, names) in methods.items():
        template = globals().get(f"{kind}{len(names)}")
        if template is None:
            raise TypeError(f"{cls.__qualname__}: no {name} template for {len(names)} fields")
        rename, code = {f"_{k}": field for k, field in enumerate(names)}.get, template.__code__
        code = code.replace(co_name=name, co_varnames=tuple(map(rename, code.co_varnames, code.co_varnames)),
                            co_names=tuple(map(rename, code.co_names, code.co_names)))
        defaults = tuple(f.default for f in init if f.default is not _MISSING) if name == "__init__" else ()
        method = type(template)(code, env, name, defaults or None)
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    return cls


# --------------------------------------------------------------------------- names


@_record
class Bound:
    """de Bruijn index pointing at an enclosing binder (0 = innermost)."""

    index: int

    def __repr__(self) -> str:
        return f"Bound({self.index})"


@_record
class Nabla:
    """Scoped fresh constant; levels start at 1 and grow inward."""

    level: int

    def __repr__(self) -> str:
        return f"Nabla({self.level})"


@_record
class Eigen:
    """Instantiable name variable; may only equal nabla levels <= ceiling."""

    id: int
    ceiling: int

    def __repr__(self) -> str:
        return f"Eigen({self.id},c{self.ceiling})"


@_record
class Free:
    """Named placeholder produced by the parser; resolved by encode()."""

    ident: str

    def __repr__(self) -> str:
        return f"Free({self.ident!r})"


Name = Bound | Nabla | Eigen | Free

# ----------------------------------------------------------------------- processes


@_record
class _Term:
    """Base of the compound process constructors and of the formula
    connectives and modalities: a slot for the node's hash, filled on its
    first use (see ``_record``)."""

    _hash: int | None = _Field(None, init=False, repr=False, compare=False)


@_record
class Nil:
    pass


@_record
class TauPref(_Term):
    """``tau.P``."""

    cont: "Process"


@_record
class Out(_Term):
    """``x!y.P``: ``obj`` sent on ``ch``."""

    ch: Name
    obj: Name
    cont: "Process"


@_record
class In(_Term):
    """``x?(y).P``: a name received on ``ch``, bound in ``body``."""

    ch: Name
    body: "Process"  # one binder deep


@_record
class Match(_Term):
    """``[x=y]P``."""

    left: Name
    right: Name
    cont: "Process"


@_record
class Sum(_Term):
    """``P + Q``."""

    left: "Process"
    right: "Process"


@_record
class Par(_Term):
    """``P | Q``."""

    left: "Process"
    right: "Process"


@_record
class Nu(_Term):
    """``(nu x)P``: a name restricted in ``body``."""

    body: "Process"  # one binder deep


@_record
class Bang(_Term):
    """``!P``."""

    cont: "Process"


Process = Nil | TauPref | Out | In | Match | Sum | Par | Nu | Bang


NIL = Nil()

# -------------------------------------------------------------------------- actions


@_record
class Tau:
    pass


@_record
class FreeOut:
    """The free output action ``x!y``."""

    ch: Name
    obj: Name


@_record
class BoundOut:
    """The bound output action ``x!(y)``: a restricted name sent on ``ch``."""

    ch: Name


@_record
class BoundIn:
    """The input action ``x?(y)``."""

    ch: Name


Action = Tau | FreeOut | BoundOut | BoundIn

TAU = Tau()

# ------------------------------------------------------------------------- formulas


@_record
class TrueF:
    pass


@_record
class FalseF:
    pass


@_record
class And(_Term):
    """``A & B``."""

    left: "Formula"
    right: "Formula"


@_record
class Or(_Term):
    """``A v B``."""

    left: "Formula"
    right: "Formula"


@_record
class Eq:
    """The match label ``x=y``."""

    left: Name
    right: Name


@_record
class LateIn:
    """The input label of ``<x?(y)>L``: the received name is chosen after
    the transition."""

    ch: Name


@_record
class EarlyIn:
    """The input label of ``<x?(y)>E``: the received name is chosen before
    the transition."""

    ch: Name


Label = Action | Eq | LateIn | EarlyIn
_BINDING_LABELS = (BoundOut, BoundIn, LateIn, EarlyIn)


@_record
class Dia(_Term):
    """``<label>A``."""

    label: Label
    body: "Formula"  # one binder deep when the label binds a name


@_record
class Box(_Term):
    """``[label]A``."""

    label: Label
    body: "Formula"  # one binder deep when the label binds a name


Formula = TrueF | FalseF | And | Or | Dia | Box

TRUE = TrueF()
FALSE = FalseF()

# ------------------------------------------------------------------- name traversal


class _Table(dict):
    """A term walker's table, from each class of the walker's sort to the
    function that walks its nodes.  A class that is no key reads as a
    function that raises the walker's ``TypeError``, so a foreign object is
    reported alike at the root and below it."""

    __slots__ = ("what",)

    def __init__(self, what: str, cases: dict):
        super().__init__(cases)
        self.what = what

    def __missing__(self, _cls):
        return self._foreign

    def _foreign(self, node, *_):
        raise TypeError(f"not {self.what}: {node!r}")


def map_names(term, f, depth: int = 0):
    """Rebuild ``term`` (Process, Action or Formula) applying ``f(name, depth)``
    to every name occurrence, where ``depth`` counts binders crossed.  A node
    none of whose names and children change is returned itself, not a copy, so
    an unchanged subterm keeps its identity, its cached hash and its sharing.
    Names are visited left to right, each node's own names before its
    children's, which is the order first-occurrence numberings read."""
    return _MAP[type(term)](term, f, depth)


def _leaf(term, _f, _depth):
    return term


def _map_unary(term, f, depth):
    cont = term.cont
    c = _MAP[type(cont)](cont, f, depth)
    return term if c is cont else type(term)(c)


def _map_out(term, f, depth):
    ch, obj, cont = term.ch, term.obj, term.cont
    a, b, c = f(ch, depth), f(obj, depth), _MAP[type(cont)](cont, f, depth)
    return term if a is ch and b is obj and c is cont else Out(a, b, c)


def _map_in(term, f, depth):
    ch, body = term.ch, term.body
    a, b = f(ch, depth), _MAP[type(body)](body, f, depth + 1)
    return term if a is ch and b is body else In(a, b)


def _map_match(term, f, depth):
    left, right, cont = term.left, term.right, term.cont
    a, b, c = f(left, depth), f(right, depth), _MAP[type(cont)](cont, f, depth)
    return term if a is left and b is right and c is cont else Match(a, b, c)


def _map_pair(term, f, depth):
    left, right = term.left, term.right
    a, b = _MAP[type(left)](left, f, depth), _MAP[type(right)](right, f, depth)
    return term if a is left and b is right else type(term)(a, b)


def _map_nu(term, f, depth):
    body = term.body
    b = _MAP[type(body)](body, f, depth + 1)
    return term if b is body else Nu(b)


def _map_modality(term, f, depth):
    label, body = term.label, term.body
    a = _MAP[type(label)](label, f, depth)
    b = _MAP[type(body)](body, f, depth + (type(label) in _BINDING_LABELS))
    return term if a is label and b is body else type(term)(a, b)


def _map_free_out(label, f, depth):
    x, y = label.ch, label.obj
    a, b = f(x, depth), f(y, depth)
    return label if a is x and b is y else FreeOut(a, b)


def _map_eq(label, f, depth):
    x, y = label.left, label.right
    a, b = f(x, depth), f(y, depth)
    return label if a is x and b is y else Eq(a, b)


def _map_channel(label, f, depth):
    a = f(label.ch, depth)
    return label if a is label.ch else type(label)(a)


_MAP = _Table("a process, action or formula", {
    Nil: _leaf, TauPref: _map_unary, Out: _map_out, In: _map_in, Match: _map_match,
    Sum: _map_pair, Par: _map_pair, Nu: _map_nu, Bang: _map_unary,
    Tau: _leaf, FreeOut: _map_free_out, BoundOut: _map_channel, BoundIn: _map_channel,
    Eq: _map_eq, LateIn: _map_channel, EarlyIn: _map_channel,
    TrueF: _leaf, FalseF: _leaf, And: _map_pair, Or: _map_pair,
    Dia: _map_modality, Box: _map_modality,
})


def open_abs(body, name: Name):
    """Instantiate a one-binder-deep term: the dangling index becomes ``name``
    and deeper dangling indices shift down by one."""

    def f(n, d):
        if type(n) is Bound and n.index >= d:
            return name if n.index == d else Bound(n.index - 1)
        return n

    return map_names(body, f)


def close_abs(term, name: Name):
    """Abstract ``term`` over ``name``: occurrences of ``name`` become the new
    innermost dangling index and existing dangling indices shift up by one."""

    def f(n, d):
        if type(n) is Bound and n.index >= d:
            return Bound(n.index + 1)
        return Bound(d) if n == name else n

    return map_names(term, f)


def free_names(term) -> frozenset:
    """All Nabla/Eigen occurrences of a Process, Action, Formula or Name."""
    acc: set = set()

    def f(n, _d):
        if type(n) is Nabla or type(n) is Eigen:
            acc.add(n)
        return n

    if isinstance(term, (Bound, Nabla, Eigen, Free)):
        f(term, 0)
    else:
        map_names(term, f)
    return frozenset(acc)


def alpha_eq(p, q) -> bool:
    """With de Bruijn binders, alpha-equivalence is structural equality."""
    return p == q


# ------------------------------------------------------------ structural congruence

_SUM_TAG, _PAR_TAG = 5, 6


def normal_form(p: Process, memo: dict | None = None) -> Process:
    """The representative of ``p`` modulo structural congruence: ``|`` and
    ``+`` flattened, ``0`` operands dropped, operands sorted by a fixed total
    order on terms, identical summands collapsed, and ``(nu x)P`` replaced by
    ``P`` when ``x`` does not occur in ``P``.  Operators are rebuilt
    right-nested, as the parser builds them.  Congruent processes are
    bisimilar in every mode, under every substitution.

    ``memo`` keeps each subterm's normal form and sort key, and each normal
    form returned as its own, so a caller that passes the same dict again, as
    a bisimulation game does for its whole life, normalises a subterm or a
    normal form met before with one lookup: a term that shares operands with
    earlier ones, like ``P' | Q`` after ``P | Q``, only has its new parts
    normalised.  Without it, the memo lasts one call."""
    if memo is None:
        return _nf(p, {})[0]
    hit = memo.get(p)
    if hit is None:
        n, k = _nf(p, memo)
        memo.setdefault(n, (None, k))
        return n
    return p if hit[0] is None else hit[0]


def _name_key(n: Name) -> tuple:
    """The order on names that normal forms, distinctions and memo keys use."""
    return _NAME_KEY[type(n)](n)


_NAME_KEY = _Table("a name", {
    Bound: lambda n: (0, n.index),
    Nabla: lambda n: (1, n.level),
    Eigen: lambda n: (2, n.id, n.ceiling),
    Free: lambda n: (3, n.ident),
})


def _nf(p: Process, memo: dict) -> tuple[Process, tuple]:
    """The normal form of ``p`` with its sort key: a tuple that starts with a
    tag per constructor, so keys compare element by element without ever
    comparing an int with a string, and equal keys mean equal terms.  A node
    whose children are their own normal forms is its own normal form and is
    returned itself.  Each term is computed once per ``memo``; a term that is
    its own normal form is kept there as ``None``, so that an equal term met
    later is returned itself too."""
    hit = memo.get(p)
    if hit is None:
        n, k = _NF[type(p)](p, memo)
        memo[p] = (None if n is p else n), k
        return n, k
    n, k = hit
    return (p if n is None else n), k


def _nf_unary(p, memo):
    cont = p.cont
    c, k = _nf(cont, memo)
    return (p if c is cont else type(p)(c)), (1 if type(p) is TauPref else 8, k)


def _nf_out(p, memo):
    ch, obj, cont = p.ch, p.obj, p.cont
    c, k = _nf(cont, memo)
    key = (2, _NAME_KEY[type(ch)](ch), _NAME_KEY[type(obj)](obj), k)
    return (p if c is cont else Out(ch, obj, c)), key


def _nf_in(p, memo):
    ch, body = p.ch, p.body
    b, k = _nf(body, memo)
    return (p if b is body else In(ch, b)), (3, _NAME_KEY[type(ch)](ch), k)


def _nf_match(p, memo):
    left, right, cont = p.left, p.right, p.cont
    c, k = _nf(cont, memo)
    key = (4, _NAME_KEY[type(left)](left), _NAME_KEY[type(right)](right), k)
    return (p if c is cont else Match(left, right, c)), key


def _nf_nu(p, memo):
    body = p.body
    b, k = _nf(body, memo)
    if _uses_binder(b):
        return (p if b is body else Nu(b)), (7, k)
    # index 0 does not occur in b, so opening it only shifts the deeper
    # dangling indices down by one
    return _nf(open_abs(b, Bound(0)), memo)


def _nf_operator(p: Sum | Par, memo: dict) -> tuple[Process, tuple]:
    cls = type(p)
    tag = _SUM_TAG if cls is Sum else _PAR_TAG
    terms: list[Process] = []
    keys: list[tuple] = []
    todo = [p]  # operands still to visit, the leftmost last
    while todo:
        q = todo.pop()
        if type(q) is cls:
            todo += (q.right, q.left)
            continue
        t, k = _nf(q, memo)
        if k[0] == tag:  # normalising exposed the same operator: splice it in
            keys.extend(k[1:])
            while type(t) is cls:
                terms.append(t.left)
                t = t.right
            terms.append(t)
        elif t is not NIL:
            terms.append(t)
            keys.append(k)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if cls is Sum:  # P + P ~ P: keep one of each run of equal summands
        order = [i for j, i in enumerate(order) if j == 0 or keys[order[j - 1]] != keys[i]]
    if not order:
        return NIL, (0,)
    if len(order) == 1:
        return terms[order[0]], keys[order[0]]
    ops = [terms[i] for i in order]
    key = (tag, *(keys[i] for i in order))
    # p itself when it already is the right-nested chain of these operands
    spine, q = [], p
    while type(q) is cls:
        spine.append(q.left)
        q = q.right
    if q is ops[-1] and len(spine) == len(ops) - 1 and all(map(is_, spine, ops)):
        return p, key
    return right_nest(cls, ops), key


def right_nest(cls, parts: list, empty=None):
    """``parts`` joined by the binary constructor ``cls``, right-nested as
    ``cls(parts[0], cls(parts[1], ...))``; a single part is itself, and no
    parts give ``empty``."""
    if not parts:
        return empty
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = cls(part, out)
    return out


_NF = _Table("a process", {
    Nil: lambda p, memo: (NIL, (0,)), TauPref: _nf_unary, Out: _nf_out, In: _nf_in, Match: _nf_match,
    Sum: _nf_operator, Par: _nf_operator, Nu: _nf_nu, Bang: _nf_unary,
})


def contains_bang(p: Process) -> bool:
    return _HAS_BANG[type(p)](p)


_HAS_BANG = _Table("a process", {
    Nil: lambda p: False,
    Bang: lambda p: True,
    **dict.fromkeys((TauPref, Out, Match), lambda p: _HAS_BANG[type(p.cont)](p.cont)),
    **dict.fromkeys((In, Nu), lambda p: _HAS_BANG[type(p.body)](p.body)),
    **dict.fromkeys(
        (Sum, Par), lambda p: _HAS_BANG[type(p.left)](p.left) or _HAS_BANG[type(p.right)](p.right)),
})


# --------------------------------------------------------------------------- errors


class ParseError(Exception):
    def __init__(self, position: int, expected, found: str = ""):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        what = " or ".join(self.expected)
        extra = f", found {found!r}" if found else ""
        super().__init__(f"at position {position}: expected {what}{extra}")


class UnboundName(Exception):
    def __init__(self, ident: str):
        self.ident = ident
        super().__init__(f"free name {ident!r} is not declared in the prefix")


class DuplicatePrefixName(Exception):
    def __init__(self, ident: str):
        self.ident = ident
        super().__init__(f"prefix declares {ident!r} more than once")


# --------------------------------------------------------------------------- prefix

RESERVED_OBJ = "_a"  # object of the `x!.P` output abbreviation
KEYWORDS = {"tau", "nu"}


def is_ident(s: str) -> bool:
    """Whether ``s`` is an identifier: ``[a-z][a-zA-Z0-9_]*``."""
    return s.isidentifier() and s.isascii() and s[0] >= "a"


@_record
class Prefix:
    """Ordered quantifier prefix over the free names, leftmost outermost.

    Each entry is ("forall" | "nabla", ident).  Nabla entries receive levels
    1..k left to right; forall entries become eigenvariables whose ceiling is
    the number of nabla entries to their left.  The name map and the two
    counts are computed once, when the prefix is built.
    """

    entries: tuple[tuple[str, str], ...] = ()
    _name_map: dict[str, Name] = _Field(init=False, repr=False, compare=False)
    nabla_count: int = _Field(init=False, repr=False, compare=False)
    eigen_count: int = _Field(init=False, repr=False, compare=False)

    def __init__(self, entries: tuple[tuple[str, str], ...] = ()):
        names: dict[str, Name] = {}
        level = eigen_id = 0
        for quant, ident in entries:
            if quant not in ("forall", "nabla"):
                raise ValueError(f"bad quantifier {quant!r}")
            if ident in names:
                raise DuplicatePrefixName(ident)
            if quant == "nabla":
                level += 1
                names[ident] = Nabla(level)
            else:
                eigen_id += 1
                names[ident] = Eigen(eigen_id, level)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_name_map", names)
        object.__setattr__(self, "nabla_count", level)
        object.__setattr__(self, "eigen_count", eigen_id)

    def name_map(self) -> dict[str, Name]:
        """ident -> encoded Name, per the level/ceiling discipline (a copy)."""
        return dict(self._name_map)

    def idents_by_name(self) -> dict[Name, str]:
        return {name: ident for ident, name in self._name_map.items()}

    @property
    def idents(self) -> tuple[str, ...]:
        return tuple(ident for _q, ident in self.entries)

    def is_all_nabla(self) -> bool:
        return self.eigen_count == 0

    def extended(self, quant: str, ident: str) -> "Prefix":
        return Prefix(self.entries + ((quant, ident),))


_PREFIXES: dict[str, Prefix] = {}  # parse_prefix's memo, oldest first


def parse_prefix(text: str) -> Prefix:
    """Parse a comma list of "forall x" / "nabla x"; empty string allowed.
    An error's position is the offset of the bad entry in ``text``.
    Memoised by text, for the last 1,024 texts: a ``Prefix`` is immutable,
    and a bad text raises on every call, as no failed call is kept."""
    if text in _PREFIXES:
        return _PREFIXES[text]
    entries, start = [], 0  # start: the offset of the current chunk
    for chunk in text.split(",") if text.strip() else ():
        parts = chunk.split()
        at = start + len(chunk) - len(chunk.lstrip())
        if len(parts) != 2 or parts[0] not in ("forall", "nabla"):
            raise ParseError(at, ("forall IDENT", "nabla IDENT"), chunk.strip())
        quant, ident = parts
        if not is_ident(ident) or ident in KEYWORDS:
            raise ParseError(at, ("identifier",), ident)
        entries.append((quant, ident))
        start += len(chunk) + 1
    if len(_PREFIXES) >= 1024:
        del _PREFIXES[next(iter(_PREFIXES))]
    _PREFIXES[text] = Prefix(tuple(entries))
    return _PREFIXES[text]


# --------------------------------------------------------------------------- parser


class _Retry(Exception):
    """A parse over the fast tokens failed: parse again over the exact ones."""


class _TokenParser:
    """A cursor over the tokens of one text, shared by the process and formula
    parsers: names (``is_ident``) and the one-character tokens ``chars``,
    then ``""`` for the end of input.  The grammar reads ``toks[i]``, moves
    ``i`` and checks every token it takes.  An ASCII text is cut by
    ``translate`` (spaces around each of ``chars`` that is no name character)
    and ``split``: tokens that are exact when every word is a token, so a
    parse over them that succeeds is exact.  Where it fails, ``error``
    raises ``_Retry`` and the grammar runs again over ``scan``'s tokens,
    which also give positions and bad characters; a non-ASCII text is only
    scanned.  A subclass sets ``chars``, ``token_what`` and ``reserved``,
    and implements ``top``."""

    chars = "0.!?()[]=+|,"
    token_what = "a token"
    reserved = KEYWORDS
    name_chars = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")

    def __init_subclass__(cls):
        cls.pad = str.maketrans({c: f" {c} " for c in cls.chars if c not in cls.name_chars})

    def __init__(self, text: str):
        self.text, self.frees, self.i = text, {}, 0
        self.pos: list[int] | None = None  # the exact tokens' positions
        if text.isascii():
            self.toks = text.translate(self.pad).split() + [""]
        else:
            self.scan()

    def scan(self) -> None:
        """The exact tokens and positions, or the ParseError of the first bad character."""
        text, n, j, name_chars = self.text, len(self.text), 0, self.name_chars
        self.toks, self.pos, self.i = [], [], 0
        for i, c in enumerate(text):
            if i < j or c.isspace():  # inside the last token, or a gap
                continue
            if c not in self.chars and not "a" <= c <= "z":
                raise ParseError(i, (self.token_what,), c)
            j = i + 1
            while "a" <= c <= "z" and j < n and text[j] in name_chars:
                j += 1
            self.toks.append(text[i:j])
            self.pos.append(i)
        self.toks.append("")
        self.pos.append(n)

    def error(self, expected, at: int | None = None, found: str | None = None) -> ParseError:
        """A ParseError at token ``at`` (default: the current one), which is also
        what was found unless ``found`` is given; ``_Retry`` on the fast tokens."""
        if self.pos is None:
            raise _Retry
        at = self.i if at is None else at
        return ParseError(self.pos[at], expected, self.toks[at] if found is None else found)

    def expect(self, value: str) -> None:
        if self.toks[self.i] != value:
            raise self.error((repr(value),))
        self.i += 1

    def expect_ident(self, what: str = "name") -> str:
        tok = self.toks[self.i]
        if not is_ident(tok) or tok in self.reserved:
            raise self.error((what,))
        self.i += 1
        return tok

    def resolve(self, ident: str, env: list) -> Name:
        """A bound name's index, or the parse's one ``Free`` for ``ident``."""
        if ident in env:
            return Bound(env.index(ident))
        free = self.frees.get(ident)
        if free is None:
            free = self.frees[ident] = Free(ident)
        return free

    def parse(self):
        try:
            return self.parse_tokens()
        except _Retry:
            self.scan()
            return self.parse_tokens()

    def parse_tokens(self):
        out = self.top([])
        if self.toks[self.i]:
            raise self.error(("end of input",))
        return out


class _Parser(_TokenParser):
    def __init__(self, text: str, defs: dict | None):
        super().__init__(text)
        self.defs = defs or {}

    # grammar: proc := sum ; sum := par ("+" par)* ; par := unary ("|" unary)*
    def top(self, env: list) -> Process:
        first = self.par(env)
        if self.toks[self.i] != "+":
            return first
        parts = [first]
        while self.toks[self.i] == "+":
            self.i += 1
            parts.append(self.par(env))
        return right_nest(Sum, parts)

    def par(self, env: list) -> Process:
        first = self.unary(env)
        if self.toks[self.i] != "|":
            return first
        parts = [first]
        while self.toks[self.i] == "|":
            self.i += 1
            parts.append(self.unary(env))
        return right_nest(Par, parts)

    def unary(self, env: list) -> Process:
        toks, i = self.toks, self.i
        tok = toks[i]
        if tok == "0":
            self.i = i + 1
            return NIL
        if tok == "!":
            self.i = i + 1
            return Bang(self.unary(env))
        if tok == "tau":
            self.i = i + 1
            self.expect(".")
            return TauPref(self.unary(env))
        if tok == "(":
            if toks[i + 1] == "nu":
                self.i = i + 2
                binder = self.expect_ident("restricted name")
                self.expect(")")
                return Nu(self.unary([binder] + env))
            self.i = i + 1
            inner = self.top(env)
            self.expect(")")
            return inner
        if tok == "[":
            self.i = i + 1
            left = self.resolve(self.expect_ident(), env)
            self.expect("=")
            right = self.resolve(self.expect_ident(), env)
            self.expect("]")
            return Match(left, right, self.unary(env))
        if is_ident(tok) and tok not in KEYWORDS:
            ch = self.resolve(tok, env)
            nxt = toks[i + 1]
            if nxt == "!":
                obj = toks[i + 2]
                if is_ident(obj) and obj not in KEYWORDS:
                    self.i = i + 3
                else:
                    self.i = i + 2
                    obj = RESERVED_OBJ  # `x!.P` abbreviation
                self.expect(".")
                return Out(ch, self.resolve(obj, env), self.unary(env))
            if nxt == "?":
                self.i = i + 2
                self.expect("(")
                binder = self.expect_ident("input name")
                self.expect(")")
                self.expect(".")
                return In(ch, self.unary([binder] + env))
            if nxt == ".":
                self.i = i + 2
                # `x.P` abbreviation: input with a vacuous binder
                return In(ch, self.unary(["\0vacuous"] + env))
            if nxt == "(":
                self.i = i + 1
                return self.call(tok, i, env)
            raise self.error(("'!'", "'?'", "'.'", "'('"), i + 1)
        raise self.error(("a process",))

    def call(self, ident: str, at: int, env: list) -> Process:
        """Expand a call of ``ident``, whose token is number ``at``."""
        if ident not in self.defs:
            raise self.error(("a declared identifier",), at)
        params, body = self.defs[ident]
        self.expect("(")
        args: list[Name] = []
        if self.toks[self.i] != ")":
            args.append(self.resolve(self.expect_ident("argument name"), env))
            while self.toks[self.i] == ",":
                self.i += 1
                args.append(self.resolve(self.expect_ident("argument name"), env))
        self.expect(")")
        if len(args) != len(params):
            raise self.error((f"{len(params)} argument(s) for {ident}",), at, str(len(args)))
        binding = dict(zip(params, args))

        def f(n, d):
            if isinstance(n, Free) and n.ident in binding:
                arg = binding[n.ident]
                if isinstance(arg, Bound):
                    return Bound(arg.index + d)
                return arg
            return n

        return map_names(body, f)


def parse_process(text: str, defs: dict | None = None) -> Process:
    """Parse surface syntax; free names stay as Free placeholders."""
    return _Parser(text, defs).parse()


def parse_decls(text: str) -> dict[str, tuple[list[str], Process]]:
    """Parse a declaration file: lines of ``ident(params) := proc`` with ``#``
    comments.  Declarations may call earlier ones; recursion is rejected.  An
    error's position is its offset in the whole text."""
    import re  # only declaration files need it
    decl = re.compile(r"\s*([a-z][a-zA-Z0-9_]*)\s*\(([^)]*)\)\s*:=\s*(.*?)\s*")
    defs: dict[str, tuple[list[str], Process]] = {}
    lines = text.splitlines(keepends=True)
    for lineno, (raw, at) in enumerate(zip(lines, accumulate(map(len, lines), initial=0)), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = decl.fullmatch(line)
        if not m:
            at += len(line) - len(line.lstrip())
            raise ParseError(at, ("ident(params) := proc",), f"line {lineno}")
        ident, params_text, body_text = m.groups()
        if ident in defs:
            raise ParseError(at + m.start(1), ("a fresh declaration name",), ident)
        params = []
        for pm in re.finditer(r"[^,\s](?:[^,]*[^,\s])?", params_text):
            p = pm.group()
            if not is_ident(p) or p in KEYWORDS:
                raise ParseError(at + m.start(2) + pm.start(), ("parameter identifier",), p)
            params.append(p)
        try:
            body = parse_process(body_text, defs)
        except ParseError as e:
            raise ParseError(at + m.start(3) + e.position, e.expected, e.found) from None
        defs[ident] = (params, body)
    return defs


# --------------------------------------------------------------------------- encode


def surface_free_idents(p: Process) -> frozenset:
    acc: set = set()

    def f(n, _d):
        if isinstance(n, Free):
            acc.add(n.ident)
        return n

    map_names(p, f)
    return frozenset(acc)


def encode(p, prefix: Prefix):
    """Resolve the Free placeholders of a Process or Formula against the
    prefix."""
    mapping = prefix._name_map

    def f(n, _d):
        if type(n) is Free:
            if n.ident not in mapping:
                raise UnboundName(n.ident)
            return mapping[n.ident]
        return n

    return map_names(p, f)


def extend_prefix_for_reserved(prefix: Prefix, *procs: Process) -> Prefix:
    """Append a trailing ``nabla _a`` entry when the output abbreviation's
    reserved object occurs free and the prefix lacks it."""
    if any(RESERVED_OBJ in surface_free_idents(p) for p in procs):
        if RESERVED_OBJ not in prefix.idents:
            return prefix.extended("nabla", RESERVED_OBJ)
    return prefix


# --------------------------------------------------------------------------- pretty

_BINDER_POOL = ("y", "z", "u", "v", "w", "m", "n", "o", "p", "q", "r", "s")


def _fresh_binder(taken: set) -> str:
    for cand in _BINDER_POOL:
        if cand not in taken:
            return cand
    i = 1
    while f"b{i}" in taken:
        i += 1
    return f"b{i}"


class _Namer:
    """Display names: a name the prefix declares reads as its ident, any
    other constant or eigenvariable as ``n<level>`` or ``e<id>`` (suffixed
    ``_<i>`` when that is taken), and binders are picked fresh.  Taken are
    the prefix's idents and those of the ``Free`` names in ``term``."""

    def __init__(self, prefix: Prefix, term=None):
        self.by_name = prefix.idents_by_name()
        self.taken = set(prefix.idents)
        if term is not None:
            self.taken |= surface_free_idents(term)

    def name(self, n: Name, binders: list[str]) -> str:
        match n:
            case Bound(i):
                if i < len(binders):
                    return binders[i]
                return f"?{i}"
            case Free(ident):
                return ident
            case _:
                if n in self.by_name:
                    return self.by_name[n]
                shown = base = f"n{n.level}" if isinstance(n, Nabla) else f"e{n.id}"
                i = 0
                while shown in self.taken:
                    i += 1
                    shown = f"{base}_{i}"
                return shown

    def binder(self, binders: list[str]) -> str:
        return _fresh_binder(self.taken | set(binders))


_SUM_LVL, _PAR_LVL, _UNARY_LVL = 0, 1, 2


def pretty(p: Process, prefix: Prefix = Prefix(())) -> str:
    namer = _Namer(prefix, p)

    def go(p: Process, need: int, binders: list[str]) -> str:
        match p:
            case Nil():
                return "0"
            case TauPref(cont):
                return f"tau.{go(cont, _UNARY_LVL, binders)}"
            case Out(ch, obj, cont):
                ch_s = namer.name(ch, binders)
                obj_s = namer.name(obj, binders)
                rest = go(cont, _UNARY_LVL, binders)
                if obj_s == RESERVED_OBJ:
                    return f"{ch_s}!.{rest}"
                return f"{ch_s}!{obj_s}.{rest}"
            case In(ch, body):
                ch_s = namer.name(ch, binders)
                if _uses_binder(body):
                    b = namer.binder(binders)
                    return f"{ch_s}?({b}).{go(body, _UNARY_LVL, [b] + binders)}"
                vacuous = ["\0"] + binders
                return f"{ch_s}.{go(body, _UNARY_LVL, vacuous)}"
            case Match(left, right, cont):
                l_s = namer.name(left, binders)
                r_s = namer.name(right, binders)
                return f"[{l_s}={r_s}]{go(cont, _UNARY_LVL, binders)}"
            case Sum(left, right):
                s = f"{go(left, _PAR_LVL, binders)} + {go(right, _SUM_LVL, binders)}"
                return f"({s})" if need > _SUM_LVL else s
            case Par(left, right):
                s = f"{go(left, _UNARY_LVL, binders)} | {go(right, _PAR_LVL, binders)}"
                return f"({s})" if need > _PAR_LVL else s
            case Nu(body):
                b = namer.binder(binders)
                return f"(nu {b}){go(body, _UNARY_LVL, [b] + binders)}"
            case Bang(cont):
                return f"!{go(cont, _UNARY_LVL, binders)}"
        raise TypeError(f"not a process: {p!r}")

    return go(p, _SUM_LVL, [])


def _uses_binder(body: Process) -> bool:
    used = False

    def f(n, d):
        nonlocal used
        if type(n) is Bound and n.index == d:
            used = True
        return n

    map_names(body, f)
    return used


def pretty_name(n: Name, prefix: Prefix = Prefix(())) -> str:
    return _Namer(prefix).name(n, [])


def pretty_action(a: Action, prefix: Prefix = Prefix(()), binder: str | None = None) -> str:
    namer = _Namer(prefix)
    return _label_text(a, namer, [], binder or namer.binder([]))


def _label_text(label: Label, namer: _Namer, binders: list[str], binder: str = "") -> str:
    """An action's or a modality label's text, its names read under
    ``binders``, and ``binder`` the name a binding label binds; a late or
    early input reads as the plain input, and its flavour follows the
    modality."""
    name = namer.name
    match label:
        case Tau():
            return "tau"
        case FreeOut(x, y):
            return f"{name(x, binders)}!{name(y, binders)}"
        case Eq(x, y):
            return f"{name(x, binders)}={name(y, binders)}"
        case BoundOut(ch):
            return f"{name(ch, binders)}!({binder})"
        case BoundIn(ch) | LateIn(ch) | EarlyIn(ch):
            return f"{name(ch, binders)}?({binder})"
    raise TypeError(f"not a label: {label!r}")
