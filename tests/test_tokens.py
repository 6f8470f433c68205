"""The tokenizers against the regular expressions they replace.

The process and formula parsers once cut a text with one regex ``split``,
and the prefix and declaration parsers checked names with a regex.  Here
those patterns are the oracle: the exact scanner yields the tokens and
positions, or the bad-character ``ParseError``, that the regex did; a parse
gives the term or error of a parse forced over the exact tokens; and
``is_ident`` accepts what the name pattern matched.  The texts are the
benchmark's workload texts at seeds 1 to 3 and seeded mutations of them."""

import random
import re

import pytest

from pibisim.modal import _FormulaParser
from pibisim.syntax import ParseError, _Parser, is_ident

IDENT = r"[a-z][a-zA-Z0-9_]*"
PATTERNS = {
    _Parser: re.compile(rf"({IDENT}|[0.!?()\[\]=+|,])"),
    _FormulaParser: re.compile(rf"({IDENT}|[LE]|[<>\[\]=!?()&.])"),
}
MAKE = {_Parser: lambda text: _Parser(text, None), _FormulaParser: _FormulaParser}
# characters the mutations insert: tokens of both grammars, characters inside
# and outside names, ASCII and other whitespace, and non-ASCII letters and digits
ALPHABET = "abxyzLEAZ09_ .!?()[]=+|,<>&$-#\t\x1f\u00e9\u00a0\u2003\u0660\u017f"
MUTATIONS = 1500  # per seed


def regex_tokens(cls, text):
    """What the regex tokenizer gave: the tokens and their positions, each
    ending with the end of input, or the error it raised."""
    parts = PATTERNS[cls].split(text)
    if "".join(parts[::2]).strip():
        k = next(k for k in range(0, len(parts), 2) if parts[k].strip())
        bad = len("".join(parts[:k])) + len(parts[k]) - len(parts[k].lstrip())
        return ("error", bad, (cls.token_what,), text[bad])
    positions = [m.start() for m in PATTERNS[cls].finditer(text)]
    return parts[1::2] + [""], positions + [len(text)]


def exact_tokens(cls, text):
    parser = cls.__new__(cls)
    parser.text = text
    try:
        parser.scan()
    except ParseError as e:
        return ("error", e.position, e.expected, e.found)
    return parser.toks, parser.pos


def outcome(parse):
    try:
        return parse()
    except ParseError as e:
        return ("error", e.position, e.expected, e.found, str(e))
    except RecursionError:
        return ("recursion",)


def same(a, b):
    """``a == b`` without recursion: the workload's deep terms are deeper
    than ``==`` can compare."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if type(x) is not type(y):
            return False
        if hasattr(type(x), "_record_fields"):
            todo += [(getattr(x, f.name), getattr(y, f.name)) for f in x._record_fields if f.compare]
        elif x != y:
            return False
    return True


def exact_parse(cls, text):
    parser = MAKE[cls](text)
    parser.scan()
    return parser.parse_tokens()


def mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        edit = rng.randrange(4)
        if edit == 0:
            chars.insert(at, rng.choice(ALPHABET))
        elif edit == 1 and at < len(chars):
            del chars[at]
        elif edit == 2 and at < len(chars):
            chars[at] = rng.choice(ALPHABET)
        else:
            end = rng.randint(at, min(len(chars), at + 8))
            chars[at:at] = chars[at:end]
    return "".join(chars)


@pytest.fixture(scope="module")
def texts(workloads):
    """Per seed, the workload texts (processes and formulas alike) and
    seeded mutations of them; the deep-chain and deep-sum texts are kept."""
    out = {}
    for seed in (1, 2, 3):
        found = set()
        for workload in ("wide", "random-mix"):
            for q in workloads.generate(workload, seed):
                found |= {q.left, q.right}
        found = sorted(found)
        rng = random.Random(f"tokens/{seed}")
        short = [t for t in found if len(t) < 400]
        out[seed] = found + [mutate(rng, rng.choice(short)) for _ in range(MUTATIONS)]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cls", [_Parser, _FormulaParser], ids=["process", "formula"])
def test_exact_scanner_gives_the_regex_tokens_and_errors(texts, seed, cls):
    for text in texts[seed]:
        assert exact_tokens(cls, text) == regex_tokens(cls, text), repr(text)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cls", [_Parser, _FormulaParser], ids=["process", "formula"])
def test_a_parse_is_the_parse_over_the_exact_tokens(texts, seed, cls):
    for text in texts[seed]:
        fast = outcome(lambda: MAKE[cls](text).parse())
        assert same(fast, outcome(lambda: exact_parse(cls, text))), repr(text)


def test_edge_cases_give_the_regex_tokens():
    cases = ["", " ", "0x", "00", "x0", "Abc", "xL", "Lx", ">Ltrue", "LE", "a\u00a0b", "a\x1cb",
             "\u00e9", "x!\u00e9.0", "tau.0\u2003", "_a", "a-b", "x!y.0 $", "\u017f", "\u0660", "a\u00a0b"]
    for text in cases:
        for cls in PATTERNS:
            assert exact_tokens(cls, text) == regex_tokens(cls, text), (cls, text)
            fast = outcome(lambda: MAKE[cls](text).parse())
            assert same(fast, outcome(lambda: exact_parse(cls, text))), (cls, text)


def test_is_ident_is_the_name_pattern(workloads):
    words = {"", "a", "z", "aZ9_", "x_1", "_x", "X", "1a", "a-b", "a b", "tau", "\u00e9", "x\u00e9", "a\u017f",
             "x\u0660", "\u01c5", "a\u00a0", "zz" * 40}
    for q in workloads.generate("wide", 1) + workloads.generate("random-mix", 1):
        for entry in q.prefix.split(","):
            words.update(entry.split())
    rng = random.Random("is_ident")
    words |= {"".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 4))) for _ in range(3000)}
    for decl_params in ("x, y", "a1,b_2", " p ,Q", "\u00e9,x"):
        words.update(p.strip() for p in decl_params.split(","))
    for word in words:
        assert is_ident(word) == bool(re.fullmatch(IDENT, word)), repr(word)
