"""Level-checked unification at name type, substitution algebra, and
distinction handling.

Unification problems here always have an empty or singleton solution set: the
only instantiable names are eigenvariables, and an eigenvariable may only be
identified with a scoped constant whose level does not exceed the variable's
ceiling, or with another eigenvariable (binding the larger ceiling to the
smaller so level-soundness is preserved).
"""

from __future__ import annotations

from .syntax import Bound, Eigen, Free, Nabla, Name, Prefix, _name_key, _record, map_names, pretty_name


class InternalError(Exception):
    """An invariant the search relies on was violated (e.g. a unification
    problem outside the singleton-solution fragment)."""


@_record
class Subst:
    """Idempotent eigenvariable substitution: Eigen id -> Nabla | Eigen.

    The ceiling of each mapped variable is stored alongside so the binding can
    be checked and displayed without extra context.
    """

    bindings: tuple[tuple[Eigen, Name], ...] = ()

    @staticmethod
    def of(*pairs: tuple[Eigen, Name]) -> "Subst":
        return Subst(tuple(sorted(pairs, key=lambda p: p[0].id)))

    def is_identity(self) -> bool:
        return not self.bindings

    def name(self, n: Name) -> Name:
        if isinstance(n, Eigen):
            for var, val in self.bindings:
                if var.id == n.id:
                    return val
        return n

    def __call__(self, term):
        """Apply to a Process, Action or Formula (capture-avoiding by
        construction: the range contains no Bound names)."""
        if self.is_identity():
            return term
        return map_names(term, lambda n, _d: self.name(n))


IDENTITY = Subst()


def _check_level_sound(var: Eigen, val: Name) -> None:
    match val:
        case Nabla(level):
            if level > var.ceiling:
                raise InternalError(f"binding {var!r} to {val!r} breaks its ceiling")
        case Eigen(_, ceiling):
            if ceiling > var.ceiling:
                raise InternalError(f"binding {var!r} to {val!r} raises its ceiling")
        case _:
            raise InternalError(f"substitution range must be Nabla/Eigen, got {val!r}")


def singleton(var: Eigen, val: Name) -> Subst:
    _check_level_sound(var, val)
    return Subst(((var, val),))


def compose(outer: Subst, inner: Subst) -> Subst:
    """Substitution equal to applying ``inner`` first, then ``outer``."""
    if inner.is_identity():
        return outer
    if outer.is_identity():
        return inner
    merged: dict[int, tuple[Eigen, Name]] = {}
    for var, val in inner.bindings:
        new_val = outer.name(val)
        if new_val != var:
            merged[var.id] = (var, new_val)
    for var, val in outer.bindings:
        if var.id not in merged and not any(
            v.id == var.id for v, _ in inner.bindings
        ):
            merged[var.id] = (var, val)
    result = Subst(tuple(sorted(merged.values(), key=lambda p: p[0].id)))
    for var, val in result.bindings:
        if isinstance(val, Eigen) and any(v.id == val.id for v, _ in result.bindings):
            raise InternalError("composition did not normalize to idempotent form")
        _check_level_sound(var, val)
    return result


def unify_names(a: Name, b: Name) -> Subst | None:
    """Most general level-sound unifier of two names, or None on failure."""
    ta, tb = type(a), type(b)
    if ta is Bound or ta is Free or tb is Bound or tb is Free:
        raise InternalError(f"unification reached a non-global name: {a!r} ~ {b!r}")
    if a == b:
        return IDENTITY
    if ta is Nabla and tb is Nabla:
        return None  # distinct scoped constants are never equal
    if ta is Eigen and tb is Nabla:
        return singleton(a, b) if b.level <= a.ceiling else None
    if ta is Nabla and tb is Eigen:
        return singleton(b, a) if a.level <= b.ceiling else None
    if ta is Eigen and tb is Eigen:
        # Bind the larger ceiling to the smaller; on ties bind the variable
        # with the smaller id to the one with the larger id.
        return singleton(a, b) if (a.ceiling, b.id) > (b.ceiling, a.id) else singleton(b, a)
    raise InternalError(f"unexpected names {a!r} ~ {b!r}")


# --------------------------------------------------------------------- distinctions


def _canon_pair(a: Name, b: Name) -> tuple[Name, Name]:
    return (a, b) if _name_key(a) <= _name_key(b) else (b, a)


@_record
class Distinction:
    """Finite symmetric irreflexive set of name pairs that substitutions must
    keep apart; stored with a canonical order inside each pair."""

    pairs: frozenset = frozenset()

    @staticmethod
    def of(*pairs: tuple[Name, Name]) -> "Distinction":
        canon = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"distinction pair must be irreflexive: {a!r}")
            canon.add(_canon_pair(a, b))
        return Distinction(frozenset(canon))

    def apply(self, theta: Subst) -> "Distinction":
        return Distinction(
            frozenset(_canon_pair(theta.name(a), theta.name(b)) for a, b in self.pairs)
        )


EMPTY_DISTINCTION = Distinction()


def respects(theta: Subst, d: Distinction) -> bool:
    """True iff no distinction pair is mapped to syntactically equal names."""
    return all(theta.name(a) != theta.name(b) for a, b in d.pairs)


def prefix_distinction(prefix: Prefix) -> Distinction:
    """The distinction induced by a quantifier prefix: every pair of nabla
    entries, plus (forall, nabla) pairs where the forall is to the left."""
    names = [(quant, name) for (quant, _), name in zip(prefix.entries, prefix.name_map().values())]
    pairs = []
    for i, (qi, ni) in enumerate(names):
        for j in range(i + 1, len(names)):
            qj, nj = names[j]
            if qi == "nabla" and qj == "nabla":
                pairs.append((ni, nj))
            elif qi == "forall" and qj == "nabla":
                pairs.append((ni, nj))
    return Distinction.of(*pairs)


def pretty_subst(theta: Subst, prefix: Prefix = Prefix(())) -> str:
    inner = ", ".join(
        f"{pretty_name(var, prefix)}:={pretty_name(val, prefix)}"
        for var, val in theta.bindings
    )
    return "{" + inner + "}"
