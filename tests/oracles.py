"""Independent oracles the engine is tested against.

Everything here works on the named-tuple process representation from
``corpus`` (string names, explicit binders, alpha-renaming with a counter),
so none of the package's de Bruijn / symbolic machinery is reused: the late
transition rules, the ground bisimulation games, the closing-substitution
open bisimulation, and a ground modal checker are all spelled out directly.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

_counter = itertools.count(1)


def _next() -> str:
    return f"vv{next(_counter)}"


# ----------------------------------------------------------- named substitution


def subst(p, x: str, v: str):
    """Capture-avoiding replacement of free name x by v."""
    tag = p[0]
    if tag == "nil":
        return p
    if tag == "tau":
        return ("tau", subst(p[1], x, v))
    if tag == "out":
        ch = v if p[1] == x else p[1]
        obj = v if p[2] == x else p[2]
        return ("out", ch, obj, subst(p[3], x, v))
    if tag == "in":
        ch = v if p[1] == x else p[1]
        if p[2] == x:
            return ("in", ch, p[2], p[3])  # shadowed
        if p[2] == v:
            b = _next()
            return ("in", ch, b, subst(subst(p[3], p[2], b), x, v))
        return ("in", ch, p[2], subst(p[3], x, v))
    if tag == "match":
        a = v if p[1] == x else p[1]
        b = v if p[2] == x else p[2]
        return ("match", a, b, subst(p[3], x, v))
    if tag in ("sum", "par"):
        return (tag, subst(p[1], x, v), subst(p[2], x, v))
    if tag == "nu":
        if p[1] == x:
            return p
        if p[1] == v:
            b = _next()
            return ("nu", b, subst(subst(p[2], p[1], b), x, v))
        return ("nu", p[1], subst(p[2], x, v))
    raise ValueError(f"oracle cannot handle {p!r}")


def inst(ab, w: str):
    x, body = ab
    return subst(body, x, w)


def canon(p, env=()):
    """Positional renaming of binders so alpha-variants collide in memo keys."""

    def name(n):
        for i, b in enumerate(reversed(env)):
            if b == n:
                return f"#{i}"
        return n

    tag = p[0]
    if tag == "nil":
        return p
    if tag == "tau":
        return ("tau", canon(p[1], env))
    if tag == "out":
        return ("out", name(p[1]), name(p[2]), canon(p[3], env))
    if tag == "in":
        return ("in", name(p[1]), "#b", canon(p[3], env + (p[2],)))
    if tag == "match":
        return ("match", name(p[1]), name(p[2]), canon(p[3], env))
    if tag in ("sum", "par"):
        return (tag, canon(p[1], env), canon(p[2], env))
    if tag == "nu":
        return ("nu", "#b", canon(p[2], env + (p[1],)))
    raise ValueError(f"oracle cannot handle {p!r}")


# ------------------------------------------------------------- named late LTS


def _action_names(a) -> frozenset[str]:
    return frozenset(a[1:])


def o_free(p) -> frozenset:
    """Free transitions: set of ((\"tau\",) | (\"out\", ch, obj), continuation)."""
    tag = p[0]
    out: set = set()
    if tag == "tau":
        out.add((("tau",), p[1]))
    elif tag == "out":
        out.add((("out", p[1], p[2]), p[3]))
    elif tag == "match":
        if p[1] == p[2]:
            out |= o_free(p[3])
    elif tag == "sum":
        out |= o_free(p[1]) | o_free(p[2])
    elif tag == "par":
        l, r = p[1], p[2]
        for a, q in o_free(l):
            out.add((a, ("par", q, r)))
        for a, q in o_free(r):
            out.add((a, ("par", l, q)))
        for a, q in o_free(l):
            if a[0] == "out":
                for kind, ch, ab in o_bound(r):
                    if kind == "bin" and ch == a[1]:
                        out.add((("tau",), ("par", q, inst(ab, a[2]))))
        for a, q in o_free(r):
            if a[0] == "out":
                for kind, ch, ab in o_bound(l):
                    if kind == "bin" and ch == a[1]:
                        out.add((("tau",), ("par", inst(ab, a[2]), q)))
        for kindl, chl, abl in o_bound(l):
            for kindr, chr_, abr in o_bound(r):
                if chl != chr_:
                    continue
                if kindl == "bout" and kindr == "bin":
                    f = _next()
                    out.add((("tau",), ("nu", f, ("par", inst(abl, f), inst(abr, f)))))
                if kindl == "bin" and kindr == "bout":
                    f = _next()
                    out.add((("tau",), ("nu", f, ("par", inst(abl, f), inst(abr, f)))))
    elif tag == "nu":
        v = _next()
        q = subst(p[2], p[1], v)
        for a, q2 in o_free(q):
            if v not in _action_names(a):
                out.add((a, ("nu", v, q2)))
    elif tag in ("nil", "in"):
        pass
    else:
        raise ValueError(f"oracle cannot handle {p!r}")
    return frozenset(out)


def o_bound(p) -> frozenset:
    """Bound transitions: set of ((\"bin\"|\"bout\"), ch, (binder, body))."""
    tag = p[0]
    out: set = set()
    if tag == "in":
        out.add(("bin", p[1], (p[2], p[3])))
    elif tag == "match":
        if p[1] == p[2]:
            out |= o_bound(p[3])
    elif tag == "sum":
        out |= o_bound(p[1]) | o_bound(p[2])
    elif tag == "par":
        l, r = p[1], p[2]
        for kind, ch, (x, body) in o_bound(l):
            x2 = _next()
            out.add((kind, ch, (x2, ("par", subst(body, x, x2), r))))
        for kind, ch, (x, body) in o_bound(r):
            x2 = _next()
            out.add((kind, ch, (x2, ("par", l, subst(body, x, x2)))))
    elif tag == "nu":
        v = _next()
        q = subst(p[2], p[1], v)
        for kind, ch, (x, body) in o_bound(q):
            if ch != v:
                out.add((kind, ch, (x, ("nu", v, body))))
        for a, q2 in o_free(q):
            if a[0] == "out" and a[2] == v and a[1] != v:
                out.add(("bout", a[1], (v, q2)))
    elif tag in ("nil", "tau", "out"):
        pass
    else:
        raise ValueError(f"oracle cannot handle {p!r}")
    return frozenset(out)


def o_in(p, z: str) -> frozenset:
    """Free inputs of the name ``z``: set of (ch, continuation) with
    ``p --ch z--> continuation``, by the input, sum, par, restriction and
    match rules, without going through ``o_bound``'s abstractions."""
    tag = p[0]
    out: set = set()
    if tag == "in":
        out.add((p[1], subst(p[3], p[2], z)))
    elif tag == "match":
        if p[1] == p[2]:
            out |= o_in(p[3], z)
    elif tag == "sum":
        out |= o_in(p[1], z) | o_in(p[2], z)
    elif tag == "par":
        out |= {(ch, ("par", q, p[2])) for ch, q in o_in(p[1], z)}
        out |= {(ch, ("par", p[1], q)) for ch, q in o_in(p[2], z)}
    elif tag == "nu":
        v = _next()
        out |= {(ch, ("nu", v, q)) for ch, q in o_in(subst(p[2], p[1], v), z) if ch != v}
    elif tag in ("nil", "tau", "out"):
        pass
    else:
        raise ValueError(f"oracle cannot handle {p!r}")
    return frozenset(out)


def free_names_of(p) -> frozenset[str]:
    from corpus import free_names_of as f

    return f(p)


# ------------------------------------------------------- ground bisim oracle


def o_ground_bisim(p, q, names: tuple[str, ...], mode: str) -> bool:
    """Late/early strong bisimilarity by the direct game over the named LTS,
    inputs split over the known names plus one canonical fresh name."""
    assert mode in ("late", "early")
    memo: dict = {}

    def fresh_for(names):
        i = 1
        while f"fr{i}" in names:
            i += 1
        return f"fr{i}"

    def go(p, q, names) -> bool:
        key = (canon(p), canon(q), names)
        if key in memo:
            return memo[key]
        res = half(p, q, names) and half(q, p, names)
        memo[key] = res
        return res

    def half(p, q, names) -> bool:
        qf = o_free(q)
        for a, p2 in o_free(p):
            if not any(a == a2 and go(p2, q2, names) for a2, q2 in qf):
                return False
        qb = o_bound(q)
        for kind, ch, ab in o_bound(p):
            defenders = [ab2 for kind2, ch2, ab2 in qb if kind2 == kind and ch2 == ch]
            if kind == "bout":
                f = fresh_for(names)
                if not any(go(inst(ab, f), inst(ab2, f), names + (f,)) for ab2 in defenders):
                    return False
                continue
            f = fresh_for(names)
            ws = names + (f,)

            def child_ok(ab2, w):
                ns = names + ((f,) if w == f else ())
                return go(inst(ab, w), inst(ab2, w), ns)

            if mode == "late":
                if not any(all(child_ok(ab2, w) for w in ws) for ab2 in defenders):
                    return False
            else:
                if not all(any(child_ok(ab2, w) for ab2 in defenders) for w in ws):
                    return False
        return True

    return go(p, q, names)


# ------------------------------------------------- closing-substitution oracle


def _respecting_subs(names: tuple[str, ...], flex: frozenset[str], d: frozenset):
    """All idempotent identifications of flexible names that keep every
    distinction pair apart."""
    flex_list = [n for n in names if n in flex]
    for values in itertools.product(names, repeat=len(flex_list)):
        sigma = {n: n for n in names}
        sigma.update(dict(zip(flex_list, values)))
        if any(sigma[sigma[n]] != sigma[n] for n in names):
            continue
        if any(sigma[a] == sigma[b] for a, b in d):
            continue
        yield sigma


def _apply_sigma(p, sigma):
    out = p
    # simultaneous application: corpus binders are disjoint from free names,
    # so sequential replacement through fresh intermediates is safe
    tmp = {}
    for i, (src, dst) in enumerate(sigma.items()):
        if src != dst:
            t = f"tmp{i}x"
            tmp[t] = dst
            out = subst(out, src, t)
    for t, dst in tmp.items():
        out = subst(out, t, dst)
    return out


def o_open_bisim(p, q, entries, extra_distinct=(), clause="late") -> bool:
    """Open bisimilarity by closure under distinction-respecting substitutions
    at every round.  ``entries`` is the quantifier prefix as (quant, name)
    pairs; the induced distinction is added to ``extra_distinct``.  An input
    receives a fresh generic name; with ``clause="late"`` the defender picks
    an input abstraction before it is instantiated, with ``clause="early"``
    it answers each free input of that name (``o_in``) after it."""
    assert clause in ("late", "early")
    names = tuple(n for _, n in entries)
    flex = frozenset(n for quant, n in entries if quant == "forall")
    d = set(map(tuple, extra_distinct))
    for i, (qi, ni) in enumerate(entries):
        for j in range(i + 1, len(entries)):
            qj, nj = entries[j]
            if qj == "nabla" and qi in ("nabla", "forall"):
                d.add((ni, nj))
    memo: dict = {}

    def fresh_for(names):
        i = 1
        while f"fr{i}" in names:
            i += 1
        return f"fr{i}"

    def go(p, q, names, flex, d) -> bool:
        key = (canon(p), canon(q), names, flex, frozenset(d))
        if key in memo:
            return memo[key]
        memo[key] = True  # no cycles arise (prefix count decreases); benign default
        res = all(
            half(_apply_sigma(p, s), _apply_sigma(q, s), names, flex, _apply_d(d, s), s)
            for s in _respecting_subs(names, flex, frozenset(d))
        ) and all(
            half(_apply_sigma(q, s), _apply_sigma(p, s), names, flex, _apply_d(d, s), s, swap=True)
            for s in _respecting_subs(names, flex, frozenset(d))
        )
        memo[key] = res
        return res

    def _apply_d(d, sigma):
        return {(sigma[a] if a in sigma else a, sigma[b] if b in sigma else b) for a, b in d}

    def half(p, q, names, flex, d, sigma, swap=False) -> bool:
        def rec(p2, q2, names2, flex2, d2):
            if swap:
                return go(q2, p2, names2, flex2, d2)
            return go(p2, q2, names2, flex2, d2)

        qf = o_free(q)
        for a, p2 in o_free(p):
            if not any(a == a2 and rec(p2, q2, names, flex, d) for a2, q2 in qf):
                return False
        qb = o_bound(q)
        z = fresh_for(names)
        for kind, ch, ab in o_bound(p):
            defenders = [ab2 for kind2, ch2, ab2 in qb if kind2 == kind and ch2 == ch]
            if kind == "bout":
                fns = free_names_of(p) | free_names_of(q) | {n for pr in d for n in pr}
                d2 = set(d) | {(z, n) for n in fns}
                if not any(
                    rec(inst(ab, z), inst(ab2, z), names + (z,), flex, d2)
                    for ab2 in defenders
                ):
                    return False
            elif clause == "late":
                if not any(
                    rec(inst(ab, z), inst(ab2, z), names + (z,), flex | {z}, d)
                    for ab2 in defenders
                ):
                    return False
        if clause == "early":
            qi = o_in(q, z)
            for ch, p2 in o_in(p, z):
                if not any(
                    ch2 == ch and rec(p2, q2, names + (z,), flex | {z}, d) for ch2, q2 in qi
                ):
                    return False
        return True

    return go(p, q, names, flex, d)


# ------------------------------------------------------- ground modal oracle

# formula tuples:
# ("true",) ("false",) ("and",l,r) ("or",l,r)
# ("mdia",x,y,b) ("mbox",x,y,b)
# ("fdia",act,b) ("fbox",act,b)          act = ("tau",) | ("out",ch,obj)
# ("odia",ch,z,b) ("obox",ch,z,b)
# (("idia"|"ibox"|"idial"|"iboxl"|"idiae"|"iboxe"), ch, z, b)

_IN_TAGS = ("idia", "ibox", "idial", "iboxl", "idiae", "iboxe")


def o_budget(f) -> int:
    tag = f[0]
    if tag in ("true", "false"):
        return 0
    if tag in ("and", "or"):
        return o_budget(f[1]) + o_budget(f[2])
    if tag in ("mdia", "mbox"):
        return o_budget(f[3])
    if tag in ("fdia", "fbox"):
        return o_budget(f[2])
    if tag in ("odia", "obox"):
        return o_budget(f[3])
    if tag in _IN_TAGS:
        return 1 + o_budget(f[3])
    raise ValueError(f"bad formula {f!r}")


def subst_formula(f, x: str, v: str):
    def nm(n):
        return v if n == x else n

    tag = f[0]
    if tag in ("true", "false"):
        return f
    if tag in ("and", "or"):
        return (tag, subst_formula(f[1], x, v), subst_formula(f[2], x, v))
    if tag in ("mdia", "mbox"):
        return (tag, nm(f[1]), nm(f[2]), subst_formula(f[3], x, v))
    if tag in ("fdia", "fbox"):
        act = f[1] if f[1] == ("tau",) else ("out", nm(f[1][1]), nm(f[1][2]))
        return (tag, act, subst_formula(f[2], x, v))
    # binder forms: binders are globally unique in generated formulas
    if f[2] == x:
        return (tag, nm(f[1]), f[2], f[3])
    return (tag, nm(f[1]), f[2], subst_formula(f[3], x, v))


def o_sat(p, f, names: tuple[str, ...], budget: int) -> bool:
    tag = f[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "and":
        return o_sat(p, f[1], names, budget) and o_sat(p, f[2], names, budget)
    if tag == "or":
        return o_sat(p, f[1], names, budget) or o_sat(p, f[2], names, budget)
    if tag == "mdia":
        return f[1] == f[2] and o_sat(p, f[3], names, budget)
    if tag == "mbox":
        return f[1] != f[2] or o_sat(p, f[3], names, budget)
    if tag == "fdia":
        return any(a == f[1] and o_sat(q, f[2], names, budget) for a, q in o_free(p))
    if tag == "fbox":
        return all(o_sat(q, f[2], names, budget) for a, q in o_free(p) if a == f[1])
    if tag in ("odia", "obox"):
        i = 1
        while f"fr{i}" in names:
            i += 1
        w = f"fr{i}"
        succ = [
            o_sat(inst(ab, w), subst_formula(f[3], f[2], w), names + (w,), budget)
            for kind, ch, ab in o_bound(p)
            if kind == "bout" and ch == f[1]
        ]
        return any(succ) if tag == "odia" else all(succ)
    if tag in _IN_TAGS:
        i = 1
        while f"fr{i}" in names:
            i += 1
        fresh = f"fr{i}"
        cands = [(w, names, budget) for w in names]
        if budget > 0:
            cands.append((fresh, names + (fresh,), budget - 1))
        conts = [ab for kind, ch, ab in o_bound(p) if kind == "bin" and ch == f[1]]

        def hold(ab, cand):
            w, ns, b = cand
            return o_sat(inst(ab, w), subst_formula(f[3], f[2], w), ns, b)

        if tag == "idia":
            return any(any(hold(ab, c) for c in cands) for ab in conts)
        if tag == "ibox":
            return all(all(hold(ab, c) for c in cands) for ab in conts)
        if tag == "idial":
            return any(all(hold(ab, c) for c in cands) for ab in conts)
        if tag == "iboxl":
            return all(any(hold(ab, c) for c in cands) for ab in conts)
        if tag == "idiae":
            return all(any(hold(ab, c) for ab in conts) for c in cands)
        return any(all(hold(ab, c) for ab in conts) for c in cands)  # iboxe
    raise ValueError(f"bad formula {f!r}")


def formula_to_text(f) -> str:
    tag = f[0]
    if tag == "true":
        return "true"
    if tag == "false":
        return "false"
    if tag == "and":
        return f"({formula_to_text(f[1])} & {formula_to_text(f[2])})"
    if tag == "or":
        return f"({formula_to_text(f[1])} v {formula_to_text(f[2])})"
    if tag == "mdia":
        return f"<{f[1]}={f[2]}>{formula_to_text(f[3])}"
    if tag == "mbox":
        return f"[{f[1]}={f[2]}]{formula_to_text(f[3])}"
    if tag == "fdia":
        act = "tau" if f[1] == ("tau",) else f"{f[1][1]}!{f[1][2]}"
        return f"<{act}>{formula_to_text(f[2])}"
    if tag == "fbox":
        act = "tau" if f[1] == ("tau",) else f"{f[1][1]}!{f[1][2]}"
        return f"[{act}]{formula_to_text(f[2])}"
    if tag == "odia":
        return f"<{f[1]}!({f[2]})>{formula_to_text(f[3])}"
    if tag == "obox":
        return f"[{f[1]}!({f[2]})]{formula_to_text(f[3])}"
    suffix = {"idia": "", "ibox": "", "idial": "L ", "iboxl": "L ", "idiae": "E ", "iboxe": "E "}[tag]
    if tag in ("idia", "idial", "idiae"):
        return f"<{f[1]}?({f[2]})>{suffix}{formula_to_text(f[3])}"
    return f"[{f[1]}?({f[2]})]{suffix}{formula_to_text(f[3])}"


def random_formula(rng, depth: int, names: tuple[str, ...], next_b: int = 1, lm_only: bool = False):
    """Random formula tuple over the given names (binder names fresh fb-series
    shared with nothing else)."""
    if depth <= 0 or rng.random() < 0.15:
        return rng.choice([("true",), ("false",)])
    in_tags = ("idial", "iboxl") if lm_only else _IN_TAGS
    kind = rng.choice(
        ["and", "or", "mdia", "mbox", "fdia", "fbox", "odia", "obox"] + list(in_tags)
    )
    if kind in ("and", "or"):
        return (
            kind,
            random_formula(rng, depth - 1, names, next_b * 2, lm_only),
            random_formula(rng, depth - 1, names, next_b * 2 + 1, lm_only),
        )
    if kind in ("mdia", "mbox"):
        return (kind, rng.choice(names), rng.choice(names), random_formula(rng, depth - 1, names, next_b, lm_only))
    if kind in ("fdia", "fbox"):
        act = ("tau",) if rng.random() < 0.5 else ("out", rng.choice(names), rng.choice(names))
        return (kind, act, random_formula(rng, depth - 1, names, next_b, lm_only))
    z = f"fb{next_b}"
    return (kind, rng.choice(names), z, random_formula(rng, depth - 1, names + (z,), next_b + 1, lm_only))
