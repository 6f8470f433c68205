"""Modal assertions over processes and their satisfaction checking.

Two checking modes are provided.  Ground mode works under an all-nabla prefix
and computes a classical truth value: name quantifiers inside input modalities
are enumerated over the scoped constants in scope plus a budgeted supply of
fresh ones (one per bound-input modality on the path).  Open mode works under
a mixed forall/nabla prefix without case analysis on eigenvariables: boxes
quantify over every symbolic transition branch, diamonds must succeed without
instantiating anything, an input diamond opens a fresh eigenvariable and an
input box reads the names in scope.  Open mode is restricted to the sublogic
whose modalities are tau, free output, bound output, match, and late bound
input (with their duals).

Both modes are one walk (``_Walk``), and a small table (``_Mode``) says what
a mode changes: how a box meets a transition and which names an input
modality reads.  The walk reads the formula as it is, with an environment of
the names opened at the binders crossed so far: ``Bound(i)`` reads as
``env[i]``, so a bound modality opens its body by extending the environment,
not by rebuilding the body, and a substitution maps the environment's names
along with the body.  Each modality is evaluated once per (term, formula
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

import re
from collections.abc import Callable
from dataclasses import dataclass

from .syntax import (
    Action,
    And,
    Bound,
    BoundIn,
    BoundOut,
    Eigen,
    FALSE,
    FalseF,
    Formula,
    Free,
    FreeBox,
    FreeDia,
    FreeOut,
    InBox,
    InBoxE,
    InBoxL,
    InDia,
    InDiaE,
    InDiaL,
    MatchBox,
    MatchDia,
    Nabla,
    Name,
    Or,
    OutBox,
    OutDia,
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
    walk_names,
    IDENT_RE,
    KEYWORDS,
    _IN_NODES,
    _Namer,
    _TokenParser,
)
from .lts import Transition, tabled_successors
from .unify import IDENTITY, Subst, compose, unify_names


class FormulaOutsideLM(Exception):
    def __init__(self, node: str):
        self.node = node
        super().__init__(
            f"open mode only supports the tau/out/match/late-input sublogic; got {node}"
        )


# ------------------------------------------------------------------ formula names


def formula_names(f: Formula, env: tuple = (), depth: int = 0) -> frozenset:
    """The scoped constants and eigenvariables of ``f``, where ``f`` sits
    under ``depth`` binders not yet opened and, outside them, under the
    binders whose opened names are ``env`` (see ``_name_at``)."""
    acc: set = set()
    walk_names(f, lambda n, d: acc.add(_name_at(n, env, d)), depth)
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
                case (
                    MatchDia(_, _, body) | MatchBox(_, _, body) | FreeDia(_, body)
                    | FreeBox(_, body) | OutDia(_, body) | OutBox(_, body)
                ):
                    n = count(body)
                case _ if isinstance(f, _IN_NODES):
                    n = 1 + count(f.body)
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
    MatchDia: lambda f: MatchBox(f.left, f.right, dual(f.body)),
    MatchBox: lambda f: MatchDia(f.left, f.right, dual(f.body)),
    FreeDia: lambda f: FreeBox(f.action, dual(f.body)),
    FreeBox: lambda f: FreeDia(f.action, dual(f.body)),
    OutDia: lambda f: OutBox(f.ch, dual(f.body)),
    OutBox: lambda f: OutDia(f.ch, dual(f.body)),
    InDia: lambda f: InBox(f.ch, dual(f.body)),
    InBox: lambda f: InDia(f.ch, dual(f.body)),
    InDiaL: lambda f: InBoxL(f.ch, dual(f.body)),
    InBoxL: lambda f: InDiaL(f.ch, dual(f.body)),
    InDiaE: lambda f: InBoxE(f.ch, dual(f.body)),
    InBoxE: lambda f: InDiaE(f.ch, dual(f.body)),
}


def dual(f: Formula) -> Formula:
    return _DUALS[type(f)](f)


def _first_non_lm(f: Formula) -> str:
    match f:
        case TrueF() | FalseF():
            return ""
        case And(l, r) | Or(l, r):
            return _first_non_lm(l) or _first_non_lm(r)
        case MatchDia(_, _, b) | MatchBox(_, _, b):
            return _first_non_lm(b)
        case FreeDia(act, b) | FreeBox(act, b):
            if not isinstance(act, (Tau, FreeOut)):
                return type(f).__name__
            return _first_non_lm(b)
        case OutDia(_, b) | OutBox(_, b) | InDiaL(_, b) | InBoxL(_, b):
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


@dataclass(frozen=True, slots=True)
class _Mode:
    """What a checking mode changes in the walk.  ``meet`` is how a box
    meets a transition, as the pair (rho, sigma) of the unifier for the
    continuation and the one for the body, or None, and is None itself where
    a box meets the transitions a diamond meets; ``received`` lists the
    names an input modality reads, each with the depth and counter its body
    is read at; ``inputs`` are the input modalities the mode reads."""

    meet: Callable[[Transition, Action], tuple[Subst, Subst] | None] | None
    received: Callable[[bool, Process, tuple, int, int], list[tuple[Name, int, int]]]
    inputs: tuple[type, ...]


# Ground mode: every theta is the identity, so a box meets the transitions
# whose action equals its own, as a diamond does, and an input modality
# reads the scoped constants plus one fresh constant while the budget lasts.
_GROUND = _Mode(
    meet=None,
    received=lambda box, p, m, depth, budget: _in_candidates(depth, budget),
    inputs=_IN_NODES,
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
    inputs=(InDiaL, InBoxL),
)

# Per modality: whether it is a box, whether its outer quantifier is "some",
# whether its inner one is, and whether the outer one ranges over received
# names (early), not over transitions.
_DIA, _BOX = (False, True, False, False), (True, False, True, False)
_SHAPES = {FreeDia: _DIA, OutDia: _DIA, InDiaL: _DIA, FreeBox: _BOX, OutBox: _BOX, InBoxL: _BOX}
_SHAPES |= {InDia: (False, True, True, False), InBox: (True, False, False, False)}
_SHAPES |= {InDiaE: (False, False, True, True), InBoxE: (True, True, False, True)}


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
            case MatchDia(x, y, body):
                # proving an equality outright: the names must already coincide
                return _name_at(x, env) == _name_at(y, env) and self.sat(p, body, depth, k, env)
            case MatchBox(x, y, body):
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
        mode = self.mode
        if isinstance(a, (FreeDia, FreeBox)):
            bound, act, opens = 0, _action_at(a.action, env), [(None, depth, k)]
        elif isinstance(a, (OutDia, OutBox)):
            bound, act = 1, BoundOut(_name_at(a.ch, env))
            opens = [(Nabla(depth + 1), depth + 1, k)]
        elif isinstance(a, mode.inputs):
            bound, act, opens = 1, BoundIn(_name_at(a.ch, env)), None
        elif isinstance(a, _IN_NODES):
            raise FormulaOutsideLM(type(a).__name__)
        else:
            raise TypeError(f"not a formula: {a!r}")
        box, outer_some, inner_some, names_first = _SHAPES[type(a)]
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
    env: tuple = (),
    normal: Callable[[Process], Process] | None = None,
) -> bool:
    """Open satisfaction at nabla depth ``depth`` with eigenvariables from
    ``next_eigen`` on still unused; ``table`` and ``normal`` are as in
    ``sat_ground``, and ``env`` holds the names opened at the binders
    crossed so far, as in ``_name_at``."""
    return _Walk(_OPEN, table, normal).sat(p, a, depth, next_eigen, env)


# ------------------------------------------------------------------ surface syntax

_RESERVED_FORMULA = {"true", "false", "v", "L", "E"} | KEYWORDS


_IN_MODALITIES = {
    ("", True): InDia,
    ("", False): InBox,
    ("L", True): InDiaL,
    ("L", False): InBoxL,
    ("E", True): InDiaE,
    ("E", False): InBoxE,
}


class _FormulaParser(_TokenParser):
    token_re = re.compile(rf"({IDENT_RE.pattern}|[LE]|[<>\[\]=!?()&.])")
    token_what = "a formula token"
    reserved = _RESERVED_FORMULA

    def top(self, env) -> Formula:
        parts = [self.conj(env)]
        while self.toks[self.i] == "v":
            self.i += 1
            parts.append(self.conj(env))
        return right_nest(Or, parts)

    def conj(self, env) -> Formula:
        parts = [self.unary(env)]
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
            self.expect(closer)
            body = self.unary(env)
            return FreeDia(TAU, body) if is_dia else FreeBox(TAU, body)
        ch = self.resolve(self.expect_ident(), env)
        i = self.i
        tok = toks[i]
        if tok == "=":
            self.i = i + 1
            other = self.resolve(self.expect_ident(), env)
            self.expect(closer)
            body = self.unary(env)
            return MatchDia(ch, other, body) if is_dia else MatchBox(ch, other, body)
        if tok == "!":
            if toks[i + 1] == "(":
                self.i = i + 2
                binder = self.expect_ident()
                self.expect(")")
                self.expect(closer)
                body = self.unary([binder] + env)
                return OutDia(ch, body) if is_dia else OutBox(ch, body)
            self.i = i + 1
            obj = self.resolve(self.expect_ident(), env)
            self.expect(closer)
            body = self.unary(env)
            act = FreeOut(ch, obj)
            return FreeDia(act, body) if is_dia else FreeBox(act, body)
        if tok == "?":
            self.i = i + 1
            self.expect("(")
            binder = self.expect_ident()
            self.expect(")")
            self.expect(closer)
            flavour = toks[self.i]
            if flavour == "L" or flavour == "E":
                self.i += 1
            else:
                flavour = ""
            body = self.unary([binder] + env)
            return _IN_MODALITIES[(flavour, is_dia)](ch, body)
        raise self.error(("'='", "'!'", "'?'"))


def parse_formula(text: str) -> Formula:
    """Parse the surface formula grammar; free names stay as placeholders."""
    return _FormulaParser(text).parse()


def encode_formula(f: Formula, prefix: Prefix) -> Formula:
    return encode(f, prefix)


# ------------------------------------------------------------------------- pretty

_OR_LVL, _AND_LVL, _UNARY_F = 0, 1, 2


def pretty_formula(f: Formula, prefix: Prefix = Prefix(())) -> str:
    namer = _Namer(prefix)
    name, fresh = namer.name, namer.binder

    def go(f: Formula, need: int, binders: list) -> str:
        match f:
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
            case MatchDia(a, b, body):
                return f"<{name(a, binders)}={name(b, binders)}>{go(body, _UNARY_F, binders)}"
            case MatchBox(a, b, body):
                return f"[{name(a, binders)}={name(b, binders)}]{go(body, _UNARY_F, binders)}"
            case FreeDia(act, body):
                return f"<{_act(act, binders)}>{go(body, _UNARY_F, binders)}"
            case FreeBox(act, body):
                return f"[{_act(act, binders)}]{go(body, _UNARY_F, binders)}"
            case OutDia(ch, body):
                b = fresh(binders)
                return f"<{name(ch, binders)}!({b})>{go(body, _UNARY_F, [b] + binders)}"
            case OutBox(ch, body):
                b = fresh(binders)
                return f"[{name(ch, binders)}!({b})]{go(body, _UNARY_F, [b] + binders)}"
            case _ if isinstance(f, _IN_NODES):
                b = fresh(binders)
                flavour = {InDia: "", InBox: "", InDiaL: "L ", InBoxL: "L ", InDiaE: "E ", InBoxE: "E "}[type(f)]
                opener, closer = ("<", ">") if isinstance(f, (InDia, InDiaL, InDiaE)) else ("[", "]")
                return (
                    f"{opener}{name(f.ch, binders)}?({b}){closer}"
                    f"{flavour}{go(f.body, _UNARY_F, [b] + binders)}"
                )
        raise TypeError(f"not a formula: {f!r}")

    def _act(act: Action, binders: list) -> str:
        match act:
            case Tau():
                return "tau"
            case FreeOut(ch, obj):
                return f"{name(ch, binders)}!{name(obj, binders)}"
        raise TypeError(f"free modality over {act!r}")

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
                yield MatchDia(a, b, body)
                yield MatchBox(a, b, body)
        for body in prev:
            yield FreeDia(TAU, body)
            yield FreeBox(TAU, body)
            for ch in scope:
                for obj in scope:
                    yield FreeDia(FreeOut(ch, obj), body)
                    yield FreeBox(FreeOut(ch, obj), body)
        marker = Free("\0abs")
        inner_scope = scope + (marker,)
        for body in layer(depth - 1, inner_scope):
            closed = close_abs(body, marker)
            for ch in scope:
                yield OutDia(ch, closed)
                yield OutBox(ch, closed)
                yield InDiaL(ch, closed)
                yield InBoxL(ch, closed)
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
