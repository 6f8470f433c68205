"""Modal assertions over processes and their satisfaction checking.

Two checking modes are provided.  Ground mode works under an all-nabla prefix
and computes a classical truth value: name quantifiers inside input modalities
are enumerated over the scoped constants in scope plus a budgeted supply of
fresh ones (one per bound-input modality on the path).  Open mode works under
a mixed forall/nabla prefix without case analysis on eigenvariables: boxes
quantify over every symbolic transition branch, diamonds must succeed without
instantiating anything, an input diamond opens a fresh eigenvariable and an
input box reads the names in scope.  Open mode is restricted to the sublogic
whose labels are tau, free output, bound output, match, and late bound input.

Both modes are one walk (``_Walk``), and a small table (``_Mode``) says what
a mode changes: how a box meets a transition and which names an input
modality reads.  A second table (``_QUANTIFIERS``) gives a diamond's two
quantifiers per label, and a box reads the same label with both flipped.  The
walk reads the formula as it is, with an environment of the names opened at
the binders crossed so far: ``Bound(i)`` reads as ``env[i]``, so a bound
modality opens its body by extending the environment, not by rebuilding the
body, and a substitution maps the environment's names along with the body.  Each modality is evaluated once per (term, formula
object, depth, budget or next eigenvariable, environment), so a subformula
that a formula shares is checked once per term.  A caller may put every
continuation below the root in a congruent normal form, as a bisimulation
game does when it checks its distinguishing formula: satisfaction is
invariant under each mode's bisimilarity, and congruent processes are
bisimilar in every mode, so the verdict is that of the term as written.

The formula constructors, their name walk and binder operations are
``syntax``'s; the constructors are re-exported here.
"""

from __future__ import annotations

from .syntax import (
    Action,
    And,
    Bound,
    BoundIn,
    BoundOut,
    Box,
    Dia,
    EarlyIn,
    Eigen,
    Eq,
    FALSE,
    FalseF,
    Formula,
    Free,
    FreeOut,
    LateIn,
    Nabla,
    Name,
    Or,
    Prefix,
    Process,
    TAU,
    TRUE,
    Tau,
    TrueF,
    close_abs,
    encode,
    free_names,
    map_names,
    open_abs,
    right_nest,
    KEYWORDS,
    _BINDING_LABELS,
    _Namer,
    _TokenParser,
    _label_text,
    _record,
)
from .lts import Transition, tabled_successors
from .unify import IDENTITY, Subst, compose, unify_names

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable


class FormulaOutsideLM(Exception):
    def __init__(self, node: str):
        self.node = node
        super().__init__(
            f"open mode only supports the tau/out/match/late-input sublogic; got {node}"
        )


_IN_LABELS = (BoundIn, LateIn, EarlyIn)


def _input_name(a: Dia | Box) -> str:
    """The name ``FormulaOutsideLM`` gives an input modality that open mode
    does not read: ``InDia``, ``InBox``, ``InDiaE`` or ``InBoxE``."""
    return f"In{type(a).__name__}{'E' if isinstance(a.label, EarlyIn) else ''}"


# ------------------------------------------------------------------ formula names


def formula_names(f: Formula, env: tuple = (), depth: int = 0) -> frozenset:
    """The scoped constants and eigenvariables of ``f``, where ``f`` sits
    under ``depth`` binders not yet opened and, outside them, under the
    binders whose opened names are ``env`` (see ``_name_at``)."""
    acc: set = set()

    def note(n, d):
        acc.add(_name_at(n, env, d))
        return n

    map_names(f, note, depth)
    return frozenset(n for n in acc if isinstance(n, (Nabla, Eigen)))


def _name_at(n: Name, env: tuple, depth: int = 0) -> Name:
    """A formula name read under an environment: ``env[i]`` is the name
    opened at the i-th binder crossed so far, innermost first, so an index
    that points past the ``depth`` binders around ``n`` names an entry of
    ``env``.  Reading names this way leaves the formula as it is."""
    if isinstance(n, Bound) and 0 <= n.index - depth < len(env):
        return env[n.index - depth]
    return n


def _action_at(act: Action, env: tuple) -> Action:
    return map_names(act, lambda n, _d: _name_at(n, env)) if env else act


def _subst_env(theta: Subst, env: tuple) -> tuple:
    return env if theta.is_identity() else tuple(theta.name(n) for n in env)


def fresh_budget(a: Formula) -> int:
    """Number of bound-input modality nodes in the formula, counted once per
    occurrence in its tree; a subformula object shared by several
    occurrences is visited once."""
    memo: dict[int, int] = {}

    def count(f: Formula) -> int:
        n = memo.get(id(f))
        if n is None:
            match f:
                case TrueF() | FalseF():
                    n = 0
                case And(l, r) | Or(l, r):
                    n = count(l) + count(r)
                case Dia(label, body) | Box(label, body):
                    n = isinstance(label, _IN_LABELS) + count(body)
                case _:
                    raise TypeError(f"not a formula: {f!r}")
            memo[id(f)] = n
        return n

    return count(a)


_DUALS = {
    TrueF: lambda f: FALSE,
    FalseF: lambda f: TRUE,
    And: lambda f: Or(dual(f.left), dual(f.right)),
    Or: lambda f: And(dual(f.left), dual(f.right)),
    Dia: lambda f: Box(f.label, dual(f.body)),
    Box: lambda f: Dia(f.label, dual(f.body)),
}


def dual(f: Formula) -> Formula:
    return _DUALS[type(f)](f)


def _first_non_lm(f: Formula) -> str:
    match f:
        case TrueF() | FalseF():
            return ""
        case And(l, r) | Or(l, r):
            return _first_non_lm(l) or _first_non_lm(r)
        case Dia(BoundIn() | EarlyIn()) | Box(BoundIn() | EarlyIn()):
            return _input_name(f)
        case Dia(_, b) | Box(_, b):
            return _first_non_lm(b)
        case _:
            return type(f).__name__


# ------------------------------------------------------------ the satisfaction walk


def unify_actions(a: Action, b: Action) -> Subst | None:
    match (a, b):
        case (Tau(), Tau()):
            return IDENTITY
        case (FreeOut(c1, o1), FreeOut(c2, o2)):
            r1 = unify_names(c1, c2)
            if r1 is None:
                return None
            r2 = unify_names(r1.name(o1), r1.name(o2))
            if r2 is None:
                return None
            return compose(r2, r1)
        case (BoundOut(c1), BoundOut(c2)) | (BoundIn(c1), BoundIn(c2)):
            return unify_names(c1, c2)
        case _:
            return None


def _in_candidates(depth: int, budget: int) -> list[tuple[Name, int, int]]:
    cands: list[tuple[Name, int, int]] = [(Nabla(l), depth, budget) for l in range(1, depth + 1)]
    if budget > 0:
        cands.append((Nabla(depth + 1), depth + 1, budget - 1))
    return cands


@_record
class _Mode:
    """What a checking mode changes in the walk.  ``meet`` is how a box
    meets a transition, as the pair (rho, sigma) of the unifier for the
    continuation and the one for the body, or None, and is None itself where
    a box meets the transitions a diamond meets; ``received`` lists the
    names an input modality reads, each with the depth and counter its body
    is read at; ``inputs`` are the input modalities the mode reads."""

    meet: Callable[[Transition, Action], tuple[Subst, Subst] | None] | None
    received: Callable[[bool, Process, tuple, int, int], list[tuple[Name, int, int]]]
    inputs: tuple[type, ...]  # input labels


# Ground mode: every theta is the identity, so a box meets the transitions
# whose action equals its own, as a diamond does, and an input modality
# reads the scoped constants plus one fresh constant while the budget lasts.
_GROUND = _Mode(
    meet=None,
    received=lambda box, p, m, depth, budget: _in_candidates(depth, budget),
    inputs=_IN_LABELS,
)


def _open_meet(t: Transition, act: Action) -> tuple[Subst, Subst] | None:
    rho = unify_actions(t.theta(act), t.action)
    return None if rho is None else (rho, compose(rho, t.theta))


def _open_received(box: bool, p: Process, m: tuple, depth: int, next_eigen: int) -> list:
    """A late input diamond reads one fresh eigenvariable; a late input box
    reads each name in scope: the scoped constants, and the eigenvariables of
    the continuation, the body and the instantiated process."""
    if not box:
        return [(Eigen(next_eigen, depth), depth, next_eigen + 1)]
    cont, body, env, sigma = m
    names = free_names(cont) | formula_names(body, env, 1) | free_names(sigma(p))
    scope = [Nabla(l) for l in range(1, depth + 1)]
    scope += sorted({n for n in names if isinstance(n, Eigen)}, key=lambda e: e.id)
    return [(y, depth, next_eigen) for y in scope]


# Open mode: a box meets every transition whose action unifies with its own
# in the transition's world.
_OPEN = _Mode(
    meet=_open_meet,
    received=_open_received,
    inputs=(LateIn,),
)

# A diamond's quantifiers per label: whether the outer one is "some", whether
# the inner one is, and whether the outer one ranges over received names
# (early), not over transitions.  Every other label's diamond reads "some
# transition, every name".  A box flips both.
_QUANTIFIERS = {BoundIn: (True, True, False), EarlyIn: (False, True, True)}
_SOME_ALL = (True, False, False)


def _as_is(p: Process) -> Process:
    return p


class _Walk:
    """One satisfaction check: its mode, its successor table, the normal
    form its continuations are put in, and its memo, which maps (term,
    id(formula), depth, budget or next eigenvariable, environment) to the
    verdict and the formula, kept so that its id is not reused."""

    __slots__ = ("mode", "table", "normal", "memo")

    def __init__(self, mode: _Mode, table: dict | None, normal: Callable | None):
        self.mode = mode
        self.table = {} if table is None else table
        self.normal = _as_is if normal is None else normal
        self.memo = {}

    def sat(self, p: Process, a: Formula, depth: int, k: int, env: tuple) -> bool:
        match a:
            case TrueF():
                return True
            case FalseF():
                return False
            case And(l, r):
                return self.sat(p, l, depth, k, env) and self.sat(p, r, depth, k, env)
            case Or(l, r):
                return self.sat(p, l, depth, k, env) or self.sat(p, r, depth, k, env)
            case Dia(Eq(x, y), body):
                # proving an equality outright: the names must already coincide
                return _name_at(x, env) == _name_at(y, env) and self.sat(p, body, depth, k, env)
            case Box(Eq(x, y), body):
                # on two scoped constants, as in ground mode, the unifier is
                # the identity if they are equal and None otherwise
                rho = unify_names(_name_at(x, env), _name_at(y, env))
                if rho is None:
                    return True  # the hypothesis x=y can never hold
                if rho.is_identity():
                    return self.sat(p, body, depth, k, env)
                return self.sat(self.normal(rho(p)), rho(body), depth, k, _subst_env(rho, env))
        key = (p, id(a), depth, k, env)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = (self._modal(p, a, depth, k, env), a)
        return hit[0]

    def _modal(self, p: Process, a: Formula, depth: int, k: int, env: tuple) -> bool:
        """A modality: the transitions it meets, each with the names its
        continuation opens at, under the modality's two quantifiers."""
        mode, label = self.mode, getattr(a, "label", None)
        if isinstance(label, (Tau, FreeOut)):
            bound, act, opens = 0, _action_at(label, env), [(None, depth, k)]
        elif isinstance(label, BoundOut):
            bound, act = 1, BoundOut(_name_at(label.ch, env))
            opens = [(Nabla(depth + 1), depth + 1, k)]
        elif isinstance(label, mode.inputs):
            bound, act, opens = 1, BoundIn(_name_at(label.ch, env)), None
        elif isinstance(label, _IN_LABELS):
            raise FormulaOutsideLM(_input_name(a))
        else:
            raise TypeError(f"not a formula: {a!r}")
        box = type(a) is Box
        outer_some, inner_some, names_first = _QUANTIFIERS.get(type(label), _SOME_ALL)
        outer_some, inner_some = outer_some != box, inner_some != box
        instantiate, body, met = mode.meet if box else None, a.body, []
        for t in tabled_successors(p, depth, self.table)[bound]:
            if instantiate is None:  # met only as it is, with nothing to instantiate
                if t.action == act and t.theta.is_identity():
                    met.append((t.cont, body, env, IDENTITY))
            elif (pair := instantiate(t, act)) is not None:
                rho, sigma = pair
                met.append((rho(t.cont), sigma(body), _subst_env(sigma, env), sigma))
        for x in mode.received(box, p, None, depth, k) if names_first else met:
            verdict = not inner_some
            for y in met if names_first else opens or mode.received(box, p, x, depth, k):
                (cont, b, e, _sigma), (w, d, k2) = (y, x) if names_first else (x, y)
                if w is not None:
                    cont, e = open_abs(cont, w), (w,) + e
                if self.sat(self.normal(cont), b, d, k2, e) == inner_some:
                    verdict = inner_some
                    break
            if verdict == outer_some:
                return outer_some
        return not outer_some


def sat_ground(
    p: Process,
    a: Formula,
    extra_names: int | None = None,
    depth: int | None = None,
    table: dict | None = None,
    normal: Callable[[Process], Process] | None = None,
) -> bool:
    """Classical satisfaction under an all-nabla prefix.  ``extra_names``
    bounds how many fresh constants the name quantifiers may consume; it
    defaults to the formula's fresh budget.  ``table`` is a successor table
    for ``lts.tabled_successors``, such as a bisimulation game's; by default
    the check starts its own, so it asks ``lts`` once per term.  ``normal``
    maps each continuation below ``p`` to a congruent term, by default the
    continuation itself."""
    if depth is None:
        levels = [n.level for n in free_names(p) | free_names(a) if isinstance(n, Nabla)]
        depth = max(levels, default=0)
    budget = fresh_budget(a) if extra_names is None else extra_names
    return _Walk(_GROUND, table, normal).sat(p, a, depth, budget, ())


def sat_open(p: Process, a: Formula, prefix: Prefix) -> bool:
    """Provability of the prefix-quantified satisfaction judgment, without
    excluded middle on eigenvariables."""
    if bad := _first_non_lm(a):
        raise FormulaOutsideLM(bad)
    return sat_open_at(p, a, prefix.nabla_count, prefix.eigen_count + 1)


def sat_open_at(
    p: Process,
    a: Formula,
    depth: int,
    next_eigen: int,
    table: dict | None = None,
    normal: Callable[[Process], Process] | None = None,
) -> bool:
    """Open satisfaction at nabla depth ``depth`` with eigenvariables from
    ``next_eigen`` on still unused; ``table`` and ``normal`` are as in
    ``sat_ground``."""
    return _Walk(_OPEN, table, normal).sat(p, a, depth, next_eigen, ())


# ------------------------------------------------------------------ surface syntax

_RESERVED_FORMULA = {"true", "false", "v", "L", "E"} | KEYWORDS


_FLAVOURS = {"L": LateIn, "E": EarlyIn}  # what follows an input modality
_FLAVOUR_TEXT = {label: f"{text} " for text, label in _FLAVOURS.items()}


class _FormulaParser(_TokenParser):
    chars = "LE<>[]=!?()&."
    token_what = "a formula token"
    reserved = _RESERVED_FORMULA

    def top(self, env) -> Formula:
        first = self.conj(env)
        if self.toks[self.i] != "v":
            return first
        parts = [first]
        while self.toks[self.i] == "v":
            self.i += 1
            parts.append(self.conj(env))
        return right_nest(Or, parts)

    def conj(self, env) -> Formula:
        first = self.unary(env)
        if self.toks[self.i] != "&":
            return first
        parts = [first]
        while self.toks[self.i] == "&":
            self.i += 1
            parts.append(self.unary(env))
        return right_nest(And, parts)

    def unary(self, env) -> Formula:
        tok = self.toks[self.i]
        if tok == "true":
            self.i += 1
            return TRUE
        if tok == "false":
            self.i += 1
            return FALSE
        if tok == "(":
            self.i += 1
            f = self.top(env)
            self.expect(")")
            return f
        if tok == "<" or tok == "[":
            self.i += 1
            return self.modal(tok == "<", ">" if tok == "<" else "]", env)
        raise self.error(("a formula",))

    def modal(self, is_dia: bool, closer: str, env) -> Formula:
        toks = self.toks
        if toks[self.i] == "tau":
            self.i += 1
            label = TAU
        else:
            ch = self.resolve(self.expect_ident(), env)
            i = self.i
            tok = toks[i]
            if tok == "=":
                self.i = i + 1
                label = Eq(ch, self.resolve(self.expect_ident(), env))
            elif tok == "!" and toks[i + 1] != "(":
                self.i = i + 1
                label = FreeOut(ch, self.resolve(self.expect_ident(), env))
            elif tok == "!" or tok == "?":
                self.i = i + 1
                self.expect("(")
                env = [self.expect_ident()] + env
                self.expect(")")
                label = BoundOut(ch) if tok == "!" else BoundIn(ch)
            else:
                raise self.error(("'='", "'!'", "'?'"))
        self.expect(closer)
        if isinstance(label, BoundIn) and toks[self.i] in _FLAVOURS:
            label = _FLAVOURS[toks[self.i]](label.ch)
            self.i += 1
        return (Dia if is_dia else Box)(label, self.unary(env))


def parse_formula(text: str) -> Formula:
    """Parse the surface formula grammar; free names stay as placeholders."""
    return _FormulaParser(text).parse()


def encode_formula(f: Formula, prefix: Prefix) -> Formula:
    return encode(f, prefix)


# ------------------------------------------------------------------------- pretty

_OR_LVL, _AND_LVL, _UNARY_F = 0, 1, 2


def pretty_formula(f: Formula, prefix: Prefix = Prefix(())) -> str:
    namer = _Namer(prefix)

    def go(f: Formula, need: int, binders: list) -> str:
        match f:
            case Dia(label, body) | Box(label, body):
                opener, closer = ("<", ">") if type(f) is Dia else ("[", "]")
                if not isinstance(label, _BINDING_LABELS):
                    text = _label_text(label, namer, binders)
                    return f"{opener}{text}{closer}{go(body, _UNARY_F, binders)}"
                b = namer.binder(binders)
                text = _label_text(label, namer, binders, b)
                flavour = _FLAVOUR_TEXT.get(type(label), "")
                return f"{opener}{text}{closer}{flavour}{go(body, _UNARY_F, [b] + binders)}"
            case TrueF():
                return "true"
            case FalseF():
                return "false"
            case And(l, r):
                s = f"{go(l, _UNARY_F, binders)} & {go(r, _AND_LVL, binders)}"
                return f"({s})" if need > _AND_LVL else s
            case Or(l, r):
                s = f"{go(l, _AND_LVL, binders)} v {go(r, _OR_LVL, binders)}"
                return f"({s})" if need > _OR_LVL else s
        raise TypeError(f"not a formula: {f!r}")

    return go(f, _OR_LVL, [])


# --------------------------------------------------------------- formula enumeration


def enumerate_lm(names: list[Name], max_depth: int):
    """All formulas of the open-checkable sublogic over the given names, up to
    the given modal/connective depth, smaller first.  Abstraction bodies may
    mention the abstracted name (as a Bound index).

    Only layers below ``max_depth`` are materialized; the top layer streams
    lazily, so consumers that stop early (or cap the count) never pay for the
    full binary-connective cross product of the deepest layer."""

    def layer(depth: int, scope: tuple[Name, ...]) -> list[Formula]:
        seen = set()
        uniq = []
        for f in stream(depth, scope):
            if f not in seen:
                seen.add(f)
                uniq.append(f)
        return uniq

    def stream(depth: int, scope: tuple[Name, ...]):
        if depth == 0:
            yield TRUE
            yield FALSE
            return
        prev = layer(depth - 1, scope)
        yield from prev
        pairs = [(a, b) for a in scope for b in scope if a != b]
        for body in prev:
            for a, b in pairs:
                yield Dia(Eq(a, b), body)
                yield Box(Eq(a, b), body)
        for body in prev:
            yield Dia(TAU, body)
            yield Box(TAU, body)
            for ch in scope:
                for obj in scope:
                    yield Dia(FreeOut(ch, obj), body)
                    yield Box(FreeOut(ch, obj), body)
        marker = Free("\0abs")
        inner_scope = scope + (marker,)
        for body in layer(depth - 1, inner_scope):
            closed = close_abs(body, marker)
            for ch in scope:
                yield Dia(BoundOut(ch), closed)
                yield Box(BoundOut(ch), closed)
                yield Dia(LateIn(ch), closed)
                yield Box(LateIn(ch), closed)
        for l in prev:
            for r in prev:
                if l not in (TRUE, FALSE) or r not in (TRUE, FALSE):
                    yield And(l, r)
                    yield Or(l, r)

    seen: set[Formula] = set()
    for f in stream(max_depth, tuple(names)):
        if f not in seen:
            seen.add(f)
            yield f
