"""Adapters that compare the engine against the named-tuple oracles."""

from __future__ import annotations

import pibisim as pb
from corpus import to_text
from oracles import inst, o_bound, o_free

FRESH = "fr1"


def make_prefix(names, quant="nabla") -> pb.Prefix:
    if not names:
        return pb.Prefix(())
    return pb.parse_prefix(", ".join(f"{quant} {n}" for n in names))


def enc(p_tuple, prefix: pb.Prefix):
    return pb.encode(pb.parse_process(to_text(p_tuple)), prefix)


def enc_action(a, name_map):
    if a == ("tau",):
        return pb.TAU
    return pb.FreeOut(name_map[a[1]], name_map[a[2]])


def _oracle_free(p_tuple) -> frozenset:
    """The oracle's free transitions of ``p_tuple``.  The oracle has no
    replication, so those of ``("bang", q)`` are read off ``q``: a move of
    one copy, or a communication of two with the output's copy on the left,
    each without the ``!q`` it leaves beside it (see ``_engine_moves``)."""
    if p_tuple[0] != "bang":
        return o_free(p_tuple)
    q = p_tuple[1]
    free, bound = o_free(q), o_bound(q)
    coms = {(("tau",), ("par", c, inst(ab, a[2])))
            for a, c in free if a[0] == "out"
            for kind, ch, ab in bound if kind == "bin" and ch == a[1]}
    closes = {(("tau",), ("nu", FRESH, ("par", inst(sent, FRESH), inst(got, FRESH))))
              for kind_s, ch_s, sent in bound if kind_s == "bout"
              for kind_g, ch_g, got in bound if kind_g == "bin" and ch_g == ch_s}
    return free | coms | closes


def _oracle_bound(p_tuple) -> frozenset:
    """The oracle's bound transitions of ``p_tuple``; those of ``("bang",
    q)`` are the moves of one copy of ``q``."""
    return o_bound(p_tuple[1] if p_tuple[0] == "bang" else p_tuple)


def _engine_moves(p_tuple, pe, ts) -> list | None:
    """``(action, continuation)`` of each of ``ts``, the successors of
    ``pe``, or None if one has a unifier (ground terms admit only the
    identity).  When ``p_tuple`` is replicated, each continuation is taken
    without the ``pe`` beside it, or None if one lacks it."""
    out = []
    for t in ts:
        if not t.theta.is_identity():
            return None
        cont = t.cont
        if p_tuple[0] == "bang":
            if not (isinstance(cont, pb.Par) and cont.right == pe):
                return None
            cont = cont.left
        out.append((t.action, cont))
    return out


def free_agree(p_tuple, names: tuple[str, ...]) -> bool:
    """Engine free transitions equal the oracle's, modulo alpha."""
    assert FRESH not in names
    prefix = make_prefix(names)
    nm = prefix.name_map()
    pe = enc(p_tuple, prefix)
    eng = _engine_moves(p_tuple, pe, pb.successors_free(pe, len(names)))
    if eng is None:
        return False
    ora = {(enc_action(a, nm), enc(c, prefix)) for a, c in _oracle_free(p_tuple)}
    return set(eng) == ora


def bound_agree(p_tuple, names: tuple[str, ...]) -> bool:
    """Engine bound transitions equal the oracle's: abstractions compared by
    their instantiation vector at every known name plus one fresh name."""
    d = len(names)
    assert FRESH not in names
    prefix = make_prefix(names)
    ext = make_prefix(names + (FRESH,))
    nm = prefix.name_map()
    pe = enc(p_tuple, prefix)
    pool_names = names + (FRESH,)
    pool = [pb.Nabla(i) for i in range(1, d + 2)]

    eng = _engine_moves(p_tuple, pe, pb.successors_bound(pe, d))
    if eng is None:
        return False
    eng_in, eng_out = set(), set()
    for action, cont in eng:
        vec = tuple(pb.open_abs(cont, w) for w in pool)
        if isinstance(action, pb.BoundIn):
            eng_in.add((action.ch, vec))
        else:
            eng_out.add((action.ch, vec[-1]))

    ora_in, ora_out = set(), set()
    for kind, ch, ab in _oracle_bound(p_tuple):
        if kind == "bin":
            vec = tuple(enc(inst(ab, w), ext) for w in pool_names)
            ora_in.add((nm[ch], vec))
        else:
            ora_out.add((nm[ch], enc(inst(ab, FRESH), ext)))
    return eng_in == ora_in and eng_out == ora_out


def steps_agree(p_tuple, names: tuple[str, ...]) -> bool:
    return free_agree(p_tuple, names) and bound_agree(p_tuple, names)


def certified(res: pb.BisimResult) -> pb.BisimResult:
    """``res``, after checking that a positive verdict's certificate is a
    bisimulation up to structural congruence."""
    assert not res.bisimilar or pb.verify_certificate(res), res.root
    return res


def engine_ground(p_tuple, q_tuple, names: tuple[str, ...], mode: str) -> bool:
    prefix = make_prefix(names)
    fn = pb.late_bisim if mode == "late" else pb.early_bisim
    return certified(fn(enc(p_tuple, prefix), enc(q_tuple, prefix), len(names))).bisimilar


def engine_open(p_tuple, q_tuple, entries):
    """entries: sequence of (quant, name) pairs.  Returns the BisimResult."""
    if entries:
        prefix = pb.parse_prefix(", ".join(f"{q} {n}" for q, n in entries))
    else:
        prefix = pb.Prefix(())
    return certified(pb.open_bisim(enc(p_tuple, prefix), enc(q_tuple, prefix), prefix))
