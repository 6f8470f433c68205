"""Substituting ground and open satisfaction, kept as a reference for
``pibisim.modal``: at every bound modality the check crosses, the body is
rebuilt with the opened name in place (``open_formula``), and a
substitution is applied to the whole remaining body.  ``pibisim.modal``
reads the opened names through an environment instead;
``tests/test_modal.py`` checks that the two agree.

``sat_ground(p, a, depth, budget, table)`` takes the depth and fresh-name
budget that ``pibisim.sat_ground`` would compute; ``sat_open_at`` has the
signature of ``pibisim.modal.sat_open_at`` without its environment."""

from __future__ import annotations

from pibisim.lts import tabled_successors
from pibisim.modal import (
    And,
    Box,
    Dia,
    EarlyIn,
    Eq,
    FalseF,
    Formula,
    FormulaOutsideLM,
    LateIn,
    Or,
    TrueF,
    _in_candidates,
    formula_names,
    unify_actions,
)
from pibisim.syntax import (
    Bound,
    BoundIn,
    BoundOut,
    Eigen,
    FreeOut,
    Nabla,
    Name,
    Process,
    Tau,
    free_names,
    map_names,
    open_abs,
)
from pibisim.unify import compose, unify_names


def open_formula(body: Formula, name: Name) -> Formula:
    def fn(n, d):
        match n:
            case Bound(i) if i == d:
                return name
            case Bound(i) if i > d:
                return Bound(i - 1)
            case _:
                return n

    return map_names(body, fn)


def sat_ground(p: Process, a: Formula, depth: int, budget: int, table: dict) -> bool:
    match a:
        case TrueF():
            return True
        case FalseF():
            return False
        case And(l, r):
            return sat_ground(p, l, depth, budget, table) and sat_ground(p, r, depth, budget, table)
        case Or(l, r):
            return sat_ground(p, l, depth, budget, table) or sat_ground(p, r, depth, budget, table)
        case Dia(Eq(x, y), body):
            return x == y and sat_ground(p, body, depth, budget, table)
        case Box(Eq(x, y), body):
            return x != y or sat_ground(p, body, depth, budget, table)
        case Dia(Tau() | FreeOut() as act, body):
            return any(
                sat_ground(t.cont, body, depth, budget, table)
                for t in tabled_successors(p, depth, table)[0]
                if t.action == act
            )
        case Box(Tau() | FreeOut() as act, body):
            return all(
                sat_ground(t.cont, body, depth, budget, table)
                for t in tabled_successors(p, depth, table)[0]
                if t.action == act
            )
        case Dia(BoundOut(ch), body):
            w = Nabla(depth + 1)
            return any(
                sat_ground(open_abs(t.cont, w), open_formula(body, w), depth + 1, budget, table)
                for t in tabled_successors(p, depth, table)[1]
                if t.action == BoundOut(ch)
            )
        case Box(BoundOut(ch), body):
            w = Nabla(depth + 1)
            return all(
                sat_ground(open_abs(t.cont, w), open_formula(body, w), depth + 1, budget, table)
                for t in tabled_successors(p, depth, table)[1]
                if t.action == BoundOut(ch)
            )
    # input modalities: quantifier nesting differs per flavour
    ts = [t for t in tabled_successors(p, depth, table)[1] if t.action == BoundIn(a.label.ch)]
    cands = _in_candidates(depth, budget)

    def hold(t, cand) -> bool:
        w, d2, b2 = cand
        return sat_ground(open_abs(t.cont, w), open_formula(a.body, w), d2, b2, table)

    match a:
        case Dia(BoundIn()):
            return any(any(hold(t, c) for c in cands) for t in ts)
        case Box(BoundIn()):
            return all(all(hold(t, c) for c in cands) for t in ts)
        case Dia(LateIn()):
            return any(all(hold(t, c) for c in cands) for t in ts)
        case Box(LateIn()):
            return all(any(hold(t, c) for c in cands) for t in ts)
        case Dia(EarlyIn()):
            return all(any(hold(t, c) for t in ts) for c in cands)
        case Box(EarlyIn()):
            return any(all(hold(t, c) for t in ts) for c in cands)
    raise TypeError(f"not a formula: {a!r}")


def sat_open_at(
    p: Process, a: Formula, depth: int, next_eigen: int, table: dict | None = None
) -> bool:
    """Open satisfaction at nabla depth ``depth`` with eigenvariables from
    ``next_eigen`` on still unused; ``table`` is as in ``sat_ground``."""
    if table is None:
        table = {}
    match a:
        case TrueF():
            return True
        case FalseF():
            return False
        case And(l, r):
            return sat_open_at(p, l, depth, next_eigen, table) and sat_open_at(
                p, r, depth, next_eigen, table
            )
        case Or(l, r):
            return sat_open_at(p, l, depth, next_eigen, table) or sat_open_at(
                p, r, depth, next_eigen, table
            )
        case Dia(Eq(x, y), body):
            # proving an equality outright: the names must already coincide
            return x == y and sat_open_at(p, body, depth, next_eigen, table)
        case Box(Eq(x, y), body):
            rho = unify_names(x, y)
            if rho is None:
                return True  # the hypothesis x=y can never hold
            return sat_open_at(rho(p), rho(body), depth, next_eigen, table)
        case Dia(Tau() | FreeOut() as act, body):
            return any(
                sat_open_at(t.cont, body, depth, next_eigen, table)
                for t in tabled_successors(p, depth, table)[0]
                if t.theta.is_identity() and t.action == act
            )
        case Box(Tau() | FreeOut() as act, body):
            for t in tabled_successors(p, depth, table)[0]:
                act_i = t.theta(act)
                rho = unify_actions(act_i, t.action)
                if rho is None:
                    continue
                sigma = compose(rho, t.theta)
                if not sat_open_at(
                    rho(t.cont), sigma(body), depth, next_eigen, table
                ):
                    return False
            return True
        case Dia(BoundOut(ch), body):
            w = Nabla(depth + 1)
            return any(
                sat_open_at(
                    open_abs(t.cont, w), open_formula(body, w), depth + 1, next_eigen, table
                )
                for t in tabled_successors(p, depth, table)[1]
                if t.theta.is_identity() and t.action == BoundOut(ch)
            )
        case Box(BoundOut(ch), body):
            w = Nabla(depth + 1)
            for t in tabled_successors(p, depth, table)[1]:
                if not isinstance(t.action, BoundOut):
                    continue
                rho = unify_names(t.theta.name(ch), t.action.ch)
                if rho is None:
                    continue
                sigma = compose(rho, t.theta)
                if not sat_open_at(
                    open_abs(rho(t.cont), w),
                    open_formula(sigma(body), w),
                    depth + 1,
                    next_eigen,
                    table,
                ):
                    return False
            return True
        case Dia(LateIn(ch), body):
            w = Eigen(next_eigen, depth)
            return any(
                sat_open_at(
                    open_abs(t.cont, w), open_formula(body, w), depth, next_eigen + 1, table
                )
                for t in tabled_successors(p, depth, table)[1]
                if t.theta.is_identity() and t.action == BoundIn(ch)
            )
        case Box(LateIn(ch), body):
            for t in tabled_successors(p, depth, table)[1]:
                if not isinstance(t.action, BoundIn):
                    continue
                rho = unify_names(t.theta.name(ch), t.action.ch)
                if rho is None:
                    continue
                sigma = compose(rho, t.theta)
                cont = rho(t.cont)
                body_i = sigma(body)
                scope = [Nabla(l) for l in range(1, depth + 1)]
                scope += sorted(
                    {
                        n
                        for n in (free_names(cont) | formula_names(body_i) | free_names(sigma(p)))
                        if isinstance(n, Eigen)
                    },
                    key=lambda e: e.id,
                )
                if not any(
                    sat_open_at(
                        open_abs(cont, y), open_formula(body_i, y), depth, next_eigen, table
                    )
                    for y in scope
                ):
                    return False
            return True
    raise FormulaOutsideLM(type(a).__name__)
