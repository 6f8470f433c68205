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
the token strings of the whole text, which one regex ``split`` cuts out.
A ``Prefix`` builds its name map and counts once, and ``parse_prefix`` is
memoised by text, so a query's prefix is parsed and mapped once.

Processes, actions and formulas bind names alike and share one name walk,
``map_names``, so ``open_abs``, ``close_abs``, ``free_names``, ``encode``
and ``unify.Subst`` serve all three.  A reader that only collects names
passes a callback that returns each name unchanged, and gets the term back
itself, with nothing built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, islice
from operator import attrgetter, is_

# --------------------------------------------------------------------------- names


@dataclass(frozen=True, slots=True)
class Bound:
    """de Bruijn index pointing at an enclosing binder (0 = innermost)."""

    index: int

    def __repr__(self) -> str:
        return f"Bound({self.index})"


@dataclass(frozen=True, slots=True)
class Nabla:
    """Scoped fresh constant; levels start at 1 and grow inward."""

    level: int

    def __repr__(self) -> str:
        return f"Nabla({self.level})"


@dataclass(frozen=True, slots=True)
class Eigen:
    """Instantiable name variable; may only equal nabla levels <= ceiling."""

    id: int
    ceiling: int

    def __repr__(self) -> str:
        return f"Eigen({self.id},c{self.ceiling})"


@dataclass(frozen=True, slots=True)
class Free:
    """Named placeholder produced by the parser; resolved by encode()."""

    ident: str

    def __repr__(self) -> str:
        return f"Free({self.ident!r})"


Name = Bound | Nabla | Eigen | Free

# ----------------------------------------------------------------------- processes


@dataclass(frozen=True, slots=True)
class _Term:
    """Base of the compound process constructors: a slot for the node's
    hash, filled on its first use (see ``_hash_once``)."""

    _hash: int | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Nil:
    pass


@dataclass(frozen=True, slots=True)
class TauPref(_Term):
    cont: "Process"


@dataclass(frozen=True, slots=True)
class Out(_Term):
    ch: Name
    obj: Name
    cont: "Process"


@dataclass(frozen=True, slots=True)
class In(_Term):
    ch: Name
    body: "Process"  # one binder deep


@dataclass(frozen=True, slots=True)
class Match(_Term):
    left: Name
    right: Name
    cont: "Process"


@dataclass(frozen=True, slots=True)
class Sum(_Term):
    left: "Process"
    right: "Process"


@dataclass(frozen=True, slots=True)
class Par(_Term):
    left: "Process"
    right: "Process"


@dataclass(frozen=True, slots=True)
class Nu(_Term):
    body: "Process"  # one binder deep


@dataclass(frozen=True, slots=True)
class Bang(_Term):
    cont: "Process"


Process = Nil | TauPref | Out | In | Match | Sum | Par | Nu | Bang


def _hash_once(*fields: str):
    """A ``__hash__`` that computes ``hash`` of the tuple of the node's
    fields, which is the dataclass-generated hash, once per node and keeps it
    in the node's slot.  Terms share unchanged subterms, so a subterm hashed
    once stays hashed in every term that contains it, and set and dict orders
    are those of the generated hash.  The tuple is built by ``attrgetter``,
    so hashing a deep term takes one Python frame per level."""
    get = attrgetter(*fields)
    key = get if len(fields) > 1 else lambda node: (get(node),)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
        return h

    return __hash__


for _cls in (TauPref, Out, In, Match, Sum, Par, Nu, Bang):
    _cls.__hash__ = _hash_once(*_cls.__match_args__)

NIL = Nil()

# -------------------------------------------------------------------------- actions


@dataclass(frozen=True, slots=True)
class Tau:
    pass


@dataclass(frozen=True, slots=True)
class FreeOut:
    ch: Name
    obj: Name


@dataclass(frozen=True, slots=True)
class BoundOut:
    ch: Name


@dataclass(frozen=True, slots=True)
class BoundIn:
    ch: Name


Action = Tau | FreeOut | BoundOut | BoundIn

TAU = Tau()

# ------------------------------------------------------------------------- formulas


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Eq:
    """The match label ``x=y``."""

    left: Name
    right: Name


@dataclass(frozen=True)
class LateIn:
    """The input label of ``<x?(y)>L``: the received name is chosen after
    the transition."""

    ch: Name


@dataclass(frozen=True)
class EarlyIn:
    """The input label of ``<x?(y)>E``: the received name is chosen before
    the transition."""

    ch: Name


Label = Action | Eq | LateIn | EarlyIn
_BINDING_LABELS = (BoundOut, BoundIn, LateIn, EarlyIn)


@dataclass(frozen=True)
class Dia:
    label: Label
    body: "Formula"  # one binder deep when the label binds a name


@dataclass(frozen=True)
class Box:
    label: Label
    body: "Formula"  # one binder deep when the label binds a name


Formula = TrueF | FalseF | And | Or | Dia | Box

TRUE = TrueF()
FALSE = FalseF()

# ------------------------------------------------------------------- name traversal


def map_names(term, f, depth: int = 0):
    """Rebuild ``term`` (Process, Action or Formula) applying ``f(name, depth)``
    to every name occurrence, where ``depth`` counts binders crossed.  A node
    none of whose names and children change is returned itself, not a copy, so
    an unchanged subterm keeps its identity, its cached hash and its sharing.
    Names are visited left to right, each node's own names before its
    children's, which is the order first-occurrence numberings read."""
    match term:
        case Nil():
            return term
        case TauPref(cont):
            c = map_names(cont, f, depth)
            return term if c is cont else TauPref(c)
        case Out(ch, obj, cont):
            a, b, c = f(ch, depth), f(obj, depth), map_names(cont, f, depth)
            return term if a is ch and b is obj and c is cont else Out(a, b, c)
        case In(ch, body):
            a, b = f(ch, depth), map_names(body, f, depth + 1)
            return term if a is ch and b is body else In(a, b)
        case Match(left, right, cont):
            a, b, c = f(left, depth), f(right, depth), map_names(cont, f, depth)
            return term if a is left and b is right and c is cont else Match(a, b, c)
        case Sum(left, right):
            a, b = map_names(left, f, depth), map_names(right, f, depth)
            return term if a is left and b is right else Sum(a, b)
        case Par(left, right):
            a, b = map_names(left, f, depth), map_names(right, f, depth)
            return term if a is left and b is right else Par(a, b)
        case Nu(body):
            b = map_names(body, f, depth + 1)
            return term if b is body else Nu(b)
        case Bang(cont):
            c = map_names(cont, f, depth)
            return term if c is cont else Bang(c)
        case Dia(label, body) | Box(label, body):
            a = _map_label(label, f, depth)
            b = map_names(body, f, depth + isinstance(label, _BINDING_LABELS))
            return term if a is label and b is body else type(term)(a, b)
        case And(left, right) | Or(left, right):
            a, b = map_names(left, f, depth), map_names(right, f, depth)
            return term if a is left and b is right else type(term)(a, b)
        case TrueF() | FalseF():
            return term
        case _:
            return _map_label(term, f, depth)


def _map_label(label, f, depth: int):
    """``map_names`` on an action or another modality label."""
    match label:
        case Tau():
            return label
        case FreeOut(x, y) | Eq(x, y):
            a, b = f(x, depth), f(y, depth)
            return label if a is x and b is y else type(label)(a, b)
        case BoundOut(ch) | BoundIn(ch) | LateIn(ch) | EarlyIn(ch):
            a = f(ch, depth)
            return label if a is ch else type(label)(a)
    raise TypeError(f"not a process, action or formula: {label!r}")


def open_abs(body, name: Name):
    """Instantiate a one-binder-deep term: the dangling index becomes ``name``
    and deeper dangling indices shift down by one."""

    def f(n, d):
        match n:
            case Bound(i) if i == d:
                return name
            case Bound(i) if i > d:
                return Bound(i - 1)
            case _:
                return n

    return map_names(body, f)


def close_abs(term, name: Name):
    """Abstract ``term`` over ``name``: occurrences of ``name`` become the new
    innermost dangling index and existing dangling indices shift up by one."""

    def f(n, d):
        match n:
            case Bound(i) if i >= d:
                return Bound(i + 1)
            case _ if n == name:
                return Bound(d)
            case _:
                return n

    return map_names(term, f)


def free_names(term) -> frozenset:
    """All Nabla/Eigen occurrences of a Process, Action, Formula or Name."""
    acc: set = set()

    def f(n, _d):
        if isinstance(n, (Nabla, Eigen)):
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


def normal_form(p: Process) -> Process:
    """The representative of ``p`` modulo structural congruence: ``|`` and
    ``+`` flattened, ``0`` operands dropped, operands sorted by a fixed total
    order on terms, identical summands collapsed, and ``(nu x)P`` replaced by
    ``P`` when ``x`` does not occur in ``P``.  Operators are rebuilt
    right-nested, as the parser builds them.  Congruent processes are
    bisimilar in every mode, under every substitution."""
    return _nf(p)[0]


def _name_key(n: Name) -> tuple:
    """The order on names that normal forms, distinctions and memo keys use."""
    match n:
        case Bound(i):
            return (0, i)
        case Nabla(level):
            return (1, level)
        case Eigen(i, ceiling):
            return (2, i, ceiling)
        case Free(ident):
            return (3, ident)
    raise TypeError(f"not a name: {n!r}")


def _nf(p: Process) -> tuple[Process, tuple]:
    """The normal form of ``p`` with its sort key: a tuple that starts with a
    tag per constructor, so keys compare element by element without ever
    comparing an int with a string, and equal keys mean equal terms.  A node
    whose children are their own normal forms is its own normal form and is
    returned itself."""
    match p:
        case Nil():
            return NIL, (0,)
        case TauPref(cont):
            c, k = _nf(cont)
            return (p if c is cont else TauPref(c)), (1, k)
        case Out(ch, obj, cont):
            c, k = _nf(cont)
            return (p if c is cont else Out(ch, obj, c)), (2, _name_key(ch), _name_key(obj), k)
        case In(ch, body):
            b, k = _nf(body)
            return (p if b is body else In(ch, b)), (3, _name_key(ch), k)
        case Match(left, right, cont):
            c, k = _nf(cont)
            key = (4, _name_key(left), _name_key(right), k)
            return (p if c is cont else Match(left, right, c)), key
        case Sum() | Par():
            return _nf_operator(p)
        case Nu(body):
            b, k = _nf(body)
            if _uses_binder(b):
                return (p if b is body else Nu(b)), (7, k)
            # index 0 does not occur in b, so opening it only shifts the
            # deeper dangling indices down by one
            return _nf(open_abs(b, Bound(0)))
        case Bang(cont):
            c, k = _nf(cont)
            return (p if c is cont else Bang(c)), (8, k)
    raise TypeError(f"not a process: {p!r}")


def _nf_operator(p: Sum | Par) -> tuple[Process, tuple]:
    cls = type(p)
    tag = _SUM_TAG if cls is Sum else _PAR_TAG
    terms: list[Process] = []
    keys: list[tuple] = []

    def gather(q: Process) -> None:
        if type(q) is cls:
            gather(q.left)
            gather(q.right)
            return
        t, k = _nf(q)
        if k[0] == tag:  # normalising exposed the same operator: splice it in
            keys.extend(k[1:])
            while type(t) is cls:
                terms.append(t.left)
                t = t.right
            terms.append(t)
        elif t is not NIL:
            terms.append(t)
            keys.append(k)

    gather(p)
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


def contains_bang(p: Process) -> bool:
    match p:
        case Bang(_):
            return True
        case Nil():
            return False
        case TauPref(cont) | Out(_, _, cont) | Match(_, _, cont):
            return contains_bang(cont)
        case In(_, body) | Nu(body):
            return contains_bang(body)
        case Sum(left, right) | Par(left, right):
            return contains_bang(left) or contains_bang(right)
    raise TypeError(f"not a process: {p!r}")


def max_eigen_id(term) -> int:
    return max((n.id for n in free_names(term) if isinstance(n, Eigen)), default=0)


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
IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


@dataclass(frozen=True, slots=True)
class Prefix:
    """Ordered quantifier prefix over the free names, leftmost outermost.

    Each entry is ("forall" | "nabla", ident).  Nabla entries receive levels
    1..k left to right; forall entries become eigenvariables whose ceiling is
    the number of nabla entries to their left.  The name map and the two
    counts are computed once, when the prefix is built.
    """

    entries: tuple[tuple[str, str], ...] = ()
    _name_map: dict[str, Name] = field(init=False, repr=False, compare=False)
    nabla_count: int = field(init=False, repr=False, compare=False)
    eigen_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names: dict[str, Name] = {}
        level = 0
        eigen_id = 0
        for quant, ident in self.entries:
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


@lru_cache(maxsize=1024)
def parse_prefix(text: str) -> Prefix:
    """Parse a comma list of "forall x" / "nabla x"; empty string allowed.
    An error's position is the offset of the bad entry in ``text``.
    Memoised by text: a ``Prefix`` is immutable, and a bad text raises on
    every call, since a call that raises is not cached."""
    if not text.strip():
        return Prefix(())
    entries, start = [], 0  # start: the offset of the current chunk
    for chunk in text.split(","):
        parts = chunk.split()
        at = start + len(chunk) - len(chunk.lstrip())
        if len(parts) != 2 or parts[0] not in ("forall", "nabla"):
            raise ParseError(at, ("forall IDENT", "nabla IDENT"), chunk.strip())
        quant, ident = parts
        if not IDENT_RE.fullmatch(ident) or ident in KEYWORDS:
            raise ParseError(at, ("identifier",), ident)
        entries.append((quant, ident))
        start += len(chunk) + 1
    return Prefix(tuple(entries))


# --------------------------------------------------------------------------- parser


class _TokenParser:
    """A cursor over the token strings of one text, shared by the process and
    formula parsers.  One ``token_re.split`` cuts the text into the tokens,
    at odd indices, and the gaps around them; the text is well formed when
    every gap is whitespace.  The tokens end with ``""`` for the end of
    input, and a token is a name when it starts with a letter.  The grammar
    reads ``self.toks[self.i]`` and moves ``i``; a token's position in the
    text is computed only for a ``ParseError``.  A subclass sets its token
    pattern (one capturing group around the alternatives), what a bad
    character is reported as, and the reserved words that are not names, and
    implements ``top``."""

    token_re = re.compile(rf"({IDENT_RE.pattern}|[0.!?()\[\]=+|,])")
    token_what = "a token"
    reserved = KEYWORDS

    def __init__(self, text: str):
        parts = self.token_re.split(text)
        if "".join(parts[::2]).strip():
            k = next(k for k in range(0, len(parts), 2) if parts[k].strip())
            bad = len("".join(parts[:k])) + len(parts[k]) - len(parts[k].lstrip())
            raise ParseError(bad, (self.token_what,), text[bad])
        self.text = text
        self.toks = parts[1::2]
        self.toks.append("")
        self.i = 0

    def error(self, expected, at: int | None = None, found: str | None = None) -> ParseError:
        """A ParseError at token ``at`` (default: the current one), which is
        also what was found unless ``found`` is given."""
        at = self.i if at is None else at
        tok = self.toks[at]
        if tok:
            pos = next(islice(self.token_re.finditer(self.text), at, None)).start()
        else:
            pos = len(self.text)
        return ParseError(pos, expected, tok if found is None else found)

    def expect(self, value: str) -> None:
        if self.toks[self.i] != value:
            raise self.error((repr(value),))
        self.i += 1

    def expect_ident(self, what: str = "name") -> str:
        tok = self.toks[self.i]
        if not tok[:1].isalpha() or tok in self.reserved:
            raise self.error((what,))
        self.i += 1
        return tok

    def resolve(self, ident: str, env: list) -> Name:
        if ident in env:
            return Bound(env.index(ident))
        return Free(ident)

    def parse(self):
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
        parts = [self.par(env)]
        while self.toks[self.i] == "+":
            self.i += 1
            parts.append(self.par(env))
        return right_nest(Sum, parts)

    def par(self, env: list) -> Process:
        parts = [self.unary(env)]
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
        if tok[:1].isalpha() and tok not in KEYWORDS:
            ch = self.resolve(tok, env)
            nxt = toks[i + 1]
            if nxt == "!":
                obj = toks[i + 2]
                if obj[:1].isalpha() and obj not in KEYWORDS:
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


_DECL_RE = re.compile(r"\s*([a-z][a-zA-Z0-9_]*)\s*\(([^)]*)\)\s*:=\s*(.*?)\s*")


def parse_decls(text: str) -> dict[str, tuple[list[str], Process]]:
    """Parse a declaration file: lines of ``ident(params) := proc`` with ``#``
    comments.  Declarations may call earlier ones; recursion is rejected.  An
    error's position is its offset in the whole text."""
    defs: dict[str, tuple[list[str], Process]] = {}
    lines = text.splitlines(keepends=True)
    for lineno, (raw, at) in enumerate(zip(lines, accumulate(map(len, lines), initial=0)), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = _DECL_RE.fullmatch(line)
        if not m:
            at += len(line) - len(line.lstrip())
            raise ParseError(at, ("ident(params) := proc",), f"line {lineno}")
        ident, params_text, body_text = m.groups()
        if ident in defs:
            raise ParseError(at + m.start(1), ("a fresh declaration name",), ident)
        params = []
        for pm in re.finditer(r"[^,\s](?:[^,]*[^,\s])?", params_text):
            p = pm.group()
            if not IDENT_RE.fullmatch(p) or p in KEYWORDS:
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
        if isinstance(n, Free):
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
        if isinstance(n, Bound) and n.index == d:
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
