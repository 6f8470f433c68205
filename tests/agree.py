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


def free_agree(p_tuple, names: tuple[str, ...]) -> bool:
    """Engine free transitions equal the oracle's, modulo alpha."""
    prefix = make_prefix(names)
    nm = prefix.name_map()
    pe = enc(p_tuple, prefix)
    eng = set()
    for t in pb.successors_free(pe, len(names)):
        if not t.theta.is_identity():
            return False  # ground terms admit only identity unifiers
        eng.add((t.action, t.cont))
    ora = {(enc_action(a, nm), enc(c, prefix)) for a, c in o_free(p_tuple)}
    return eng == ora


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

    eng_in, eng_out = set(), set()
    for t in pb.successors_bound(pe, d):
        if not t.theta.is_identity():
            return False
        vec = tuple(pb.open_abs(t.cont, w) for w in pool)
        if isinstance(t.action, pb.BoundIn):
            eng_in.add((t.action.ch, vec))
        else:
            eng_out.add((t.action.ch, vec[-1]))

    ora_in, ora_out = set(), set()
    for kind, ch, ab in o_bound(p_tuple):
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
