"""Seeded inputs, timed queries and output checks for the two workloads.

Inputs are built as ``corpus`` named tuples and rendered to surface text with
``corpus.to_text``; pibisim only ever sees the text.  The oracles in
``tests/oracles.py`` read the tuples directly, so the reference answers share
no code with the engine.

A query is one user-level operation, timed as a whole by ``run_query``:

* pair -- parse and encode both sides, decide; on a refutation also replay the
  witness and, unless ``evidence`` is ``"witness"``, synthesise and print the
  distinguishing formula;
* step -- parse and encode, then ``successors_free`` and ``successors_bound``;
* sat  -- parse and encode process and formula, then ``sat_ground`` of the
  formula and of its dual.

``check_query`` judges the output afterwards, outside the timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import asdict, dataclass

import corpus
import oracles
from corpus import to_text

import pibisim as pb

WORKLOADS = ("wide", "random-mix")

NIL = ("nil",)
MIX_NAMES = ("a", "b", "c")
FRESH = "fr1"  # the extra name bound-transition checks instantiate at


@dataclass(frozen=True)
class Query:
    kind: str  # "pair" | "step" | "sat"
    label: str  # family and size, for reports
    prefix: str
    left: str  # pair: left process; step/sat: the process
    right: str = ""  # pair: right process; sat: the formula
    mode: str = ""  # pair: "open" | "late" | "early"
    distinct: tuple = ()  # pair, open mode: extra (ident, ident) distinction
    evidence: str = "full"  # pair: "full" | "witness"
    expect: str = "oracle"  # "oracle" | "bisimilar" | "refuted" | "tau-chain"
    # Tuples the oracles read; never given to pibisim.
    ptuple: tuple = ()
    qtuple: tuple = ()


# ----------------------------------------------------------------- tuple helpers


def par(*ps):
    """Right-nested parallel composition, as ``corpus.to_text`` prints it."""
    out = ps[-1]
    for p in reversed(ps[:-1]):
        out = ("par", p, out)
    return out


def plus(*ps):
    out = ps[-1]
    for p in reversed(ps[:-1]):
        out = ("sum", p, out)
    return out


def taus(n, cont=NIL):
    for _ in range(n):
        cont = ("tau", cont)
    return cont


def prefix_text(entries) -> str:
    return ", ".join(f"{q} {n}" for q, n in entries)


def _pair(label, entries, mode, p, q, expect, evidence="full", distinct=(), oracle=True):
    return Query(
        "pair",
        label,
        prefix_text(entries),
        to_text(p),
        to_text(q),
        mode=mode,
        distinct=tuple(distinct),
        evidence=evidence,
        expect=expect,
        ptuple=(p, tuple(entries), tuple(distinct)) if oracle else (),
        qtuple=q if oracle else (),
    )


# ------------------------------------------------------- wide: bisimilar pairs


def _expansion(components, comms):
    """One-step expansion of a parallel composition by the interleaving law:
    each component's prefix followed by the composition with that component
    replaced by its residual, plus a tau summand per communication."""
    summands = []
    for i, c in enumerate(components):
        rest = list(components)
        kind = c[0]
        if kind == "tau":
            rest[i] = c[1]
            summands.append(("tau", par(*rest)))
        elif kind == "out":
            rest[i] = c[3]
            summands.append(("out", c[1], c[2], par(*rest)))
        elif kind == "in":
            rest[i] = c[3]
            summands.append(("in", c[1], c[2], par(*rest)))
    for i, j, ri, rj in comms:
        rest = list(components)
        rest[i], rest[j] = ri, rj
        summands.append(("tau", par(*rest)))
    return plus(*summands)


def _equal_modes(names):
    """(label, entries, mode) for the four query modes."""
    forall = tuple(("forall", n) for n in names)
    nabla = tuple(("nabla", n) for n in names)
    return [
        ("open-forall", forall, "open"),
        ("open-nabla", nabla, "open"),
        ("late", nabla, "late"),
        ("early", nabla, "early"),
    ]


def _mixed(names, first, rest):
    """``first`` for the first half of the names, ``rest`` for the others."""
    half = (len(names) + 1) // 2
    return tuple((first if i < half else rest, n) for i, n in enumerate(names))


# Widths per family.  The largest instance (communicating pairs at width 3
# under nabla) takes seconds.  Outputs stop at width 5, expansions of
# communicating pairs run under open-nabla only and tau expansions up to width
# 5: width-6 outputs and the late/early and width-6 expansions would lengthen
# a round by more than half again, and short rounds give each query more timed
# repetitions per run.  The oracles are consulted up to ORACLE_WIDTH.
EQUAL_SIZES = {"out": range(1, 6), "comm": range(1, 3), "comm-big": (3,), "tau": range(1, 7),
               "tau-expansion": range(2, 6)}
EQUAL_SMOKE = {"out": range(1, 3), "comm": range(1, 2), "comm-big": (), "tau": range(1, 3),
               "tau-expansion": range(2, 3)}
ORACLE_WIDTH = {"out": 3, "comm": 1, "tau": 3}


def wide_equal(rng: random.Random, smoke: bool) -> list[Query]:
    sizes = EQUAL_SMOKE if smoke else EQUAL_SIZES
    # The seed spells the channel names; widths, partners and modes are fixed.
    spell = rng.sample([f"{a}{b}" for a in "cdghjk" for b in "0123456789"], 8)
    obj = rng.choice(("y", "m", "r"))
    queries = []

    for n in sizes["out"]:
        xs = spell[:n]
        comps = [("out", x, obj, NIL) for x in xs]
        left = par(*comps)
        partners = [("reorder", par(*reversed(comps)))]
        if n > 1:  # outputs never communicate: the expansion is bisimilar in every mode
            partners.append(("expansion", _expansion(comps, [])))
        modes = _equal_modes(xs + [obj]) + [
            ("open-nf", _mixed(xs + [obj], "nabla", "forall"), "open"),
            ("open-fn", _mixed(xs + [obj], "forall", "nabla"), "open"),
        ]
        for label, entries, mode in modes:
            for pname, right in partners:
                queries.append(
                    _pair(f"equal/out/{n}/{label}/{pname}", entries, mode, left, right, "bisimilar",
                          oracle=n <= ORACLE_WIDTH["out"])
                )

    def comm_queries(n, big):
        comps = []
        for i, x in enumerate(spell[:n]):
            comps.append(("out", x, obj, NIL))
            comps.append(("in", x, f"u{i}", ("out", f"u{i}", obj, NIL)))
        left = par(*comps)
        swapped = []
        for i in range(0, len(comps), 2):
            swapped += [comps[i + 1], comps[i]]
        comms = [(2 * i, 2 * i + 1, NIL, ("out", obj, obj, NIL)) for i in range(n)]
        out = []
        for label, entries, mode in _equal_modes(spell[:n] + [obj]):
            if big and label != "open-nabla":
                continue
            partners = [("reorder", par(*swapped))]
            if label == "open-nabla" and not big:
                partners.append(("expansion", _expansion(comps, comms)))
            for pname, right in partners:
                out.append(
                    _pair(f"equal/comm/{n}/{label}/{pname}", entries, mode, left, right, "bisimilar",
                          oracle=n <= ORACLE_WIDTH["comm"])
                )
        return out

    for n in sizes["comm"]:
        queries += comm_queries(n, big=False)
    for n in sizes["comm-big"]:
        queries += comm_queries(n, big=True)

    for n in sizes["tau"]:
        comps = [("tau", NIL)] * n
        left = par(*comps)
        partners = [("chain", taus(n))]
        if n in sizes["tau-expansion"]:
            partners.append(("expansion", _expansion(comps, [])))
        for mode in ("open", "late", "early"):
            for pname, right in partners:
                queries.append(
                    _pair(f"equal/tau/{n}/{mode}/{pname}", (), mode, left, right, "bisimilar",
                          oracle=n <= ORACLE_WIDTH["tau"])
                )
    return queries


# ---------------------------------------------------------- wide: refutations

# unit, unit with its prefix doubled, free names.  Names are fixed: the
# printed formula's binder names depend on them (see the parse-back fault).
REFUTE_UNITS = {
    "tau": (("tau", NIL), ("tau", ("tau", NIL)), ()),
    "out": (("out", "x", "y", NIL), ("out", "x", "y", ("out", "x", "y", NIL)), ("x", "y")),
    "in": (("in", "x", "u", NIL), ("in", "x", "u", ("in", "x", "v", NIL)), ("x",)),
    "inout": (
        ("in", "x", "u", ("out", "u", "x", NIL)),
        ("in", "x", "u", ("out", "u", "x", ("out", "u", "x", NIL))),
        ("x",),
    ),
}
REFUTE_WIDTHS = range(1, 5)
REFUTE_SMOKE = range(1, 3)


def _refute_modes(names):
    """Every forall/nabla prefix in open mode, plus late and early."""
    out = []
    for quants in itertools.product(("forall", "nabla"), repeat=len(names)):
        entries = tuple(zip(quants, names))
        label = "open-" + "".join(q[0] for q in quants) if names else "open"
        out.append((label, entries, "open"))
    nabla = tuple(("nabla", n) for n in names)
    return out + [("late", nabla, "late"), ("early", nabla, "early")]


def wide_refute(smoke: bool) -> list[Query]:
    widths = REFUTE_SMOKE if smoke else REFUTE_WIDTHS
    queries = []
    for unit, (u, doubled, names) in REFUTE_UNITS.items():
        for n in widths:
            many = par(*[u] * n)
            fewer = par(*([u] * (n - 1) + [doubled]))
            for label, entries, mode in _refute_modes(names):
                for side, (p, q) in (("n-first", (many, fewer)), ("n-second", (fewer, many))):
                    queries.append(
                        _pair(f"refute/{unit}/{n}/{label}/{side}", entries, mode, p, q, "refuted",
                              oracle=False)
                    )
    if smoke:  # one query with the parse-back fault, so that smoke rounds have it too
        u, doubled, _ = REFUTE_UNITS["in"]
        queries.append(_pair("refute/in/3/open-n/n-first", (("nabla", "x"),), "open",
                             par(u, u, u), par(u, u, doubled), "refuted", oracle=False))
    return queries


def wide(rng: random.Random, smoke: bool) -> list[Query]:
    """The bisimilar families and the refutations in one list.  The seed
    spells the names of the bisimilar families and orders the queries; the
    refutations' names are fixed."""
    queries = wide_equal(rng, smoke) + wide_refute(smoke)
    rng.shuffle(queries)
    return queries


# ------------------------------------------------------------------- random-mix

# Queries per round: a tenth of what the random sweeps of
# tests/test_acceptance.py ask the engine.  Criterion 6 asks for the steps of
# 50,000 random terms; criteria 7-9 make 5,000 pair decisions (1,000 pairs in
# three modes, 800 in two clause styles, 400 with evidence); criterion 10 makes
# 500 sat queries.
MIX_COUNTS = {"pair": 500, "step": 5000, "sat": 50}
MIX_SMOKE = {"pair": 30, "step": 20, "sat": 20}
# Most prefixes per pair.  Open pairs stop at 3, the size at which
# tests/test_properties.py checks open verdicts against the same oracle: its
# closure under substitutions took more than a minute on a 4-prefix pair of
# nested inputs under three forall names.
MIX_PREFIXES = {"open": 3, "late": 5, "early": 5}
# No acceptance sweep passes a distinction, so this share is a choice: a
# quarter of the open pairs that have a forall name keep it apart from another
# name, enough to time the distinction path in every round.
DISTINCT_SHARE = 0.25

# Open refutations whose distinguishing formula needs the enumerative separator
# search today.  Random open pairs hit that search at random (about 1 in 100,
# at about half a second each), which would make the workload's time depend on
# the seed, so random open refutations get the witness but not the formula.
# These fixed pairs keep the search in every round at a constant share; the
# third carries a distinction, which the search's candidate check ignores.
FALLBACK_PAIRS = (
    ((("forall", "a"), ("forall", "b"), ("forall", "c")),
     ("match", "c", "b", ("tau", NIL)), ("tau", NIL), ()),
    ((("nabla", "a"), ("forall", "b"), ("forall", "c")),
     ("match", "c", "a", ("tau", NIL)), ("match", "c", "c", ("tau", NIL)), ()),
    ((("forall", "a"), ("forall", "b"), ("forall", "c")),
     ("match", "b", "a", plus(("tau", NIL), NIL)), ("match", "b", "b", plus(("tau", NIL), NIL)),
     (("a", "b"),)),
)

# Deep terms that the recursive parser and traversals cannot handle today.
DEEP_CHAIN = 3000
DEEP_SUM = 600


def _mix_open_entries(rng):
    quants = [rng.choice(("forall", "nabla")) for _ in MIX_NAMES]
    entries = tuple(zip(quants, MIX_NAMES))
    distinct = ()
    if "forall" in quants and rng.random() < DISTINCT_SHARE:
        # keep one forall name apart from one other name
        x = rng.choice([n for q, n in entries if q == "forall"])
        y = rng.choice([n for n in MIX_NAMES if n != x])
        distinct = ((x, y),)
    return entries, distinct


def random_mix(rng: random.Random, smoke: bool) -> list[Query]:
    counts = MIX_SMOKE if smoke else MIX_COUNTS
    nabla = tuple(("nabla", n) for n in MIX_NAMES)
    queries = []
    for i in range(counts["pair"]):
        mode = ("open", "late", "early")[i % 3]
        p, q = corpus.random_pair(rng, max_prefixes=MIX_PREFIXES[mode], names=MIX_NAMES)
        if mode == "open":
            entries, distinct = _mix_open_entries(rng)
            queries.append(_pair("pair/open", entries, mode, p, q, "oracle", "witness", distinct))
        else:
            queries.append(_pair(f"pair/{mode}", nabla, mode, p, q, "oracle"))
    for _ in range(counts["step"]):
        p = corpus.random_proc(rng, max_prefixes=6, names=MIX_NAMES)
        queries.append(Query("step", "step", prefix_text(nabla), to_text(p), ptuple=p))
    for _ in range(counts["sat"]):
        p = corpus.random_proc(rng, max_prefixes=4, names=MIX_NAMES)
        f = oracles.random_formula(rng, rng.randint(1, 3), MIX_NAMES)
        queries.append(
            Query("sat", "sat", prefix_text(nabla), to_text(p), oracles.formula_to_text(f),
                  ptuple=p, qtuple=f)
        )
    rng.shuffle(queries)
    # Fixed queries, the same for every seed, appended after the shuffle.
    for entries, p, q, distinct in FALLBACK_PAIRS:
        queries.append(_pair("pair/open-fallback", entries, "open", p, q, "oracle",
                             distinct=distinct))
    # The two deep-term faults, in smoke rounds too.
    queries.append(Query("step", "step/deep-chain", "", "tau." * DEEP_CHAIN + "0",
                         expect="tau-chain"))
    deep_sum = " + ".join(["tau.0"] * DEEP_SUM)
    queries.append(Query("pair", "pair/deep-sum", "", deep_sum, deep_sum, mode="open",
                         expect="bisimilar"))
    return queries


GENERATORS = {"wide": wide, "random-mix": random_mix}


def generate(workload: str, seed: int, smoke: bool = False) -> list[Query]:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), smoke)


def digest(queries: list[Query]) -> str:
    """Digest of what pibisim receives: kind, mode, prefix, texts."""
    h = hashlib.sha256()
    for q in queries:
        h.update(json.dumps([q.kind, q.mode, q.prefix, q.left, q.right, q.distinct, q.evidence])
                 .encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------- oracles


def oracle_answer(q: Query):
    """The reference answer for one query, or None when the construction
    alone fixes it.  Uses only the tuples and ``tests/oracles.py``."""
    if q.kind == "pair":
        if not q.ptuple:
            return None
        p, entries, distinct = q.ptuple
        if q.mode == "open":
            return oracles.o_open_bisim(p, q.qtuple, entries, distinct)
        return oracles.o_ground_bisim(p, q.qtuple, tuple(n for _, n in entries), q.mode)
    if q.kind == "step":
        if not q.ptuple:
            return None
        p = q.ptuple
        pool = MIX_NAMES + (FRESH,)
        bound_in, bound_out = [], []
        for kind, ch, ab in oracles.o_bound(p):
            if kind == "bin":
                bound_in.append([ch, [oracles.inst(ab, w) for w in pool]])
            else:
                bound_out.append([ch, oracles.inst(ab, FRESH)])
        return {"free": [list(t) for t in oracles.o_free(p)], "in": bound_in, "out": bound_out}
    f = q.qtuple
    return oracles.o_sat(q.ptuple, f, MIX_NAMES, oracles.o_budget(f))


def as_tuples(x):
    """Undo JSON's tuple-to-list conversion."""
    if isinstance(x, list):
        return tuple(as_tuples(e) for e in x)
    return x


# ---------------------------------------------------------------------- queries


@dataclass
class PairOut:
    prefix: pb.Prefix
    left: object
    right: object
    result: pb.BisimResult
    witness_ok: bool | None = None
    formula: str | None = None
    side: str | None = None


def run_query(q: Query):
    """One user-level operation; everything here is inside the timed region."""
    prefix = pb.parse_prefix(q.prefix)
    if q.kind == "pair":
        left = pb.encode(pb.parse_process(q.left), prefix)
        right = pb.encode(pb.parse_process(q.right), prefix)
        if q.mode == "open":
            names = prefix.name_map()
            distinct = pb.Distinction.of(*[(names[a], names[b]) for a, b in q.distinct])
            res = pb.open_bisim(left, right, prefix, distinct)
        elif q.mode == "late":
            res = pb.late_bisim(left, right, prefix.nabla_count)
        else:
            res = pb.early_bisim(left, right, prefix.nabla_count)
        out = PairOut(prefix, left, right, res)
        if not res.bisimilar:
            out.witness_ok = pb.verify_witness(res)
            if q.evidence == "full":
                f, out.side = pb.distinguishing_formula(res)
                out.formula = pb.pretty_formula(f, prefix)
        return out
    p = pb.encode(pb.parse_process(q.left), prefix)
    if q.kind == "step":
        depth = prefix.nabla_count
        return p, pb.successors_free(p, depth), pb.successors_bound(p, depth)
    f = pb.encode_formula(pb.parse_formula(q.right), prefix)
    budget = pb.fresh_budget(f)
    depth = prefix.nabla_count
    return pb.sat_ground(p, f, budget, depth=depth), pb.sat_ground(p, pb.dual(f), budget, depth=depth)


class Fault(Exception):
    """The output could not be checked because part of it is unusable; the
    query counts as failed rather than as wrong."""


def check_query(q: Query, out, answer) -> bool:
    """True when the output is right.  Raises Fault when it is unusable."""
    if q.kind == "pair":
        return _check_pair(q, out, answer)
    if q.kind == "step":
        return _check_step(q, out, answer)
    straight, dual = out
    return straight == answer and dual == (not straight)


def _check_pair(q: Query, out: PairOut, answer) -> bool:
    res = out.result
    expected = {"bisimilar": True, "refuted": False}.get(q.expect, answer)
    if answer is not None and answer != expected:
        return False
    if res.bisimilar != expected:
        return False
    if res.bisimilar:
        return bool(res.certificate) and res.certificate[0] == res.root
    if out.witness_ok is not True:
        return False
    if q.evidence != "full":
        return True
    try:
        f = pb.encode_formula(pb.parse_formula(out.formula), out.prefix)
    except pb.ParseError as e:
        raise Fault(f"printed formula does not parse back: {e}") from e
    holder, other = (out.left, out.right) if out.side == "left" else (out.right, out.left)
    if q.mode == "open":
        return pb.sat_open(holder, f, out.prefix) and not pb.sat_open(other, f, out.prefix)
    depth = out.prefix.nabla_count
    return pb.sat_ground(holder, f, depth=depth) and not pb.sat_ground(other, f, depth=depth)


def _enc_tuple(p, prefix):
    return pb.encode(pb.parse_process(to_text(p)), prefix)


def _check_step(q: Query, out, answer) -> bool:
    p, free, bound = out
    if any(not t.theta.is_identity() for t in free + bound):
        return False  # ground terms admit only identity unifiers
    if q.expect == "tau-chain":
        if bound or len(free) != 1 or free[0].action != pb.TAU:
            return False
        c, n = free[0].cont, 0
        while isinstance(c, pb.TauPref):
            c, n = c.cont, n + 1
        return n == DEEP_CHAIN - 1 and c == pb.NIL
    # Compared the way tests/agree.py does: free steps as (action, continuation)
    # sets; bound steps by their instantiation at every known name plus one.
    prefix = pb.parse_prefix(q.prefix)
    ext = prefix.extended("nabla", FRESH)
    names = prefix.name_map()
    depth = prefix.nabla_count
    pool = [pb.Nabla(i) for i in range(1, depth + 2)]

    def action(a):
        return pb.TAU if a == ("tau",) else pb.FreeOut(names[a[1]], names[a[2]])

    eng_free = {(t.action, t.cont) for t in free}
    ora_free = {(action(a), _enc_tuple(c, prefix)) for a, c in as_tuples(answer["free"])}
    eng_in, eng_out = set(), set()
    for t in bound:
        vec = tuple(pb.open_abs(t.cont, w) for w in pool)
        if isinstance(t.action, pb.BoundIn):
            eng_in.add((t.action.ch, vec))
        else:
            eng_out.add((t.action.ch, vec[-1]))
    ora_in = {
        (names[ch], tuple(_enc_tuple(c, ext) for c in vec)) for ch, vec in as_tuples(answer["in"])
    }
    ora_out = {(names[ch], _enc_tuple(c, ext)) for ch, c in as_tuples(answer["out"])}
    return eng_free == ora_free and eng_in == ora_in and eng_out == ora_out


def describe(q: Query) -> str:
    d = {k: v for k, v in asdict(q).items() if k not in ("ptuple", "qtuple") and v}
    text = json.dumps(d)
    return text if len(text) < 300 else text[:300] + "..."
