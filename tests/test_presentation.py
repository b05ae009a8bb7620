import random
import re
import sys
import types
from pathlib import Path

import pytest

from conftest import (F_TEXT, G2_TEXT, ZC2_TEXT, C5_TEXT, THREE_TEXT,
                      random_letters)
from relconj import cli, reference, shortening, words
from relconj.errors import ParseError, UnknownLetterError
from relconj.presentation import (
    HYPERBOLIC,
    INVERSE_LETTER,
    ParabolicDescriptor,
    RelativePresentation,
    load_presentation,
    parse_presentation,
    presentation_hash,
    serialize_presentation,
    short_hash,
)


def test_inverse_letter():
    assert INVERSE_LETTER["a"] == "A"
    assert INVERSE_LETTER["X"] == "x"


def test_parse_free_group(pF):
    assert pF.label == "free2"
    assert pF.alphabet == ("a", "A", "b", "B")
    assert pF.is_free_product
    assert len(pF.parabolics) == 0
    assert all(kind == HYPERBOLIC for kind in pF.letter_kind.values())


def test_parse_free_product(pG2):
    assert pG2.alphabet == ("a", "A", "x", "X", "y", "Y")
    assert pG2.letter_kind["a"] == HYPERBOLIC
    assert pG2.letter_kind["x"] == 1
    assert pG2.letter_kind["Y"] == 1
    assert pG2.is_free_product
    assert len(pG2.parabolics) == 1
    assert pG2.parabolics[0].kind == "free_abelian"


def test_parse_finite_parabolic(pZC2):
    d = pZC2.parabolics[0]
    assert d.kind == "finite"
    assert pZC2.letter_kind["t"] == 1
    assert pZC2.letter_kind["T"] == 1


def test_parse_relator_group(pC5):
    assert not pC5.is_free_product
    assert pC5.relators == ("aaaaa",)


@pytest.mark.parametrize("text", [F_TEXT, G2_TEXT, ZC2_TEXT, C5_TEXT])
def test_serialize_round_trip(text):
    p = parse_presentation(text)
    again = parse_presentation(serialize_presentation(p))
    assert again == p
    assert presentation_hash(again) == presentation_hash(p)


def test_hash_separates_presentations(pF, pG2, pZC2, pC5):
    hashes = {presentation_hash(p) for p in (pF, pG2, pZC2, pC5)}
    assert len(hashes) == 4
    assert all(len(h) == 16 for h in hashes)


def test_hash_sensitive_to_constants():
    other = G2_TEXT.replace("delta=1", "delta=2")
    assert (presentation_hash(parse_presentation(other))
            != presentation_hash(parse_presentation(G2_TEXT)))


def hash_texts():
    """Seeded strings: empty, ASCII and non-ASCII, up to 10k characters."""
    rng = random.Random(34)
    ascii_letters = [chr(c) for c in range(32, 127)]
    other = ascii_letters + ["\u00e9", "\u03a9", "\u4e2d", "\U0001f600"]
    return [""] + ["".join(rng.choice(alphabet) for _ in range(n))
                   for alphabet in (ascii_letters, other)
                   for n in (1, 3, 55, 64, 1000, 10000)]


@pytest.mark.parametrize("source", ["_sha256", "_sha2", "hashlib"])
def test_short_hash_is_the_sha256_prefix(monkeypatch, source):
    # the digest comes from the built-in module, _sha256 up to Python 3.11
    # and _sha2 from 3.12 on (a stand-in here), and from hashlib only on an
    # interpreter without either
    import hashlib

    texts = hash_texts()
    want = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in texts]
    real, calls = hashlib.sha256, {"_sha2": [], "hashlib": []}

    def spy(name):
        return lambda data: calls[name].append(data) or real(data)

    if source != "_sha256":
        monkeypatch.setitem(sys.modules, "_sha256", None)
        stand_in = None
        if source == "_sha2":
            stand_in = types.ModuleType("_sha2")
            stand_in.sha256 = spy("_sha2")
        monkeypatch.setitem(sys.modules, "_sha2", stand_in)
    monkeypatch.setattr(hashlib, "sha256", spy("hashlib"))
    assert [short_hash(text) for text in texts] == want
    assert {name: len(c) for name, c in calls.items()} == {
        name: len(texts) if name == source else 0 for name in calls}


def test_shortlex_key_orders_by_length_then_rank(pG2):
    ws = ["aa", "x", "", "Xy", "a", "A", "xy"]
    assert sorted(ws, key=pG2.shortlex_key) == ["", "a", "A", "x", "aa", "xy", "Xy"]


def test_check_word(pG2):
    assert pG2.check_word("axY") == "axY"
    with pytest.raises(UnknownLetterError):
        pG2.check_word("aq")


def test_classify_letter_unknown(pG2):
    # check_word names the first undeclared letter
    with pytest.raises(UnknownLetterError, match="letter 'z' is not declared"):
        pG2.check_word("axzq")


def test_an_undeclared_letter_ending_a_long_word_is_named(pG2):
    # the letter after 16k declared ones, and the first of two, is named
    # with the same message by check_word and by word_problem, whose
    # exponent-sum path (a non-zero count of a) checks the letters too
    w = random_letters(random.Random(30), pG2.alphabet, 16384)
    message = "letter 'Q' is not declared by 'g2'"
    for bad in (w + "Q", "a" + w + "Q", w + "Q\xe9"):
        with pytest.raises(UnknownLetterError) as info:
            pG2.check_word(bad)
        assert str(info.value) == message
        with pytest.raises(UnknownLetterError) as info:
            shortening.word_problem(pG2, bad)
        assert str(info.value) == message


@pytest.mark.parametrize("text,line", [
    ("bogus directive\n", 1),
    ("group g\nhyperbolic a\nparabolic weird 2\n", 3),
    ("group g\nletters x\n", 2),
    ("group g\nhyperbolic a\nconstants delta=x\n", 3),
    ("group g\nhyperbolic a\nparabolic finite 9\nletters t\ntable 0 1\n"
     "table 1 0\n", 3),
    ("group g\nhyperbolic a\ngroup h\n", 3),
    ("group g\nhyperbolic a\nhyperbolic b\n", 3),
    ("group g\nparabolic free 2\nletters x y\nletters u v\n", 4),
    ("group g\nhyperbolic a\nconstants delta=1 delta=5\n", 3),
    ("group g\nhyperbolic a\nconstants delta=1\nconstants c2=1 delta=2\n", 4),
    ("group g\nhyperbolic a\nparabolic finite 1\nletters\ntable 0\n", 3),
    ("group g\nhyperbolic a\nparabolic free 3\nletters x y\n", 3),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert exc.value.line == line


# a 5-element loop: Latin rows and columns, 0 the identity, yet
# (1*1)*2 = 2 while 1*(1*2) = 4
LOOP5 = "".join("table %s\n" % row for row in (
    "0 1 2 3 4", "1 0 3 4 2", "2 4 0 1 3", "3 2 4 0 1", "4 3 1 2 0"))


@pytest.mark.parametrize("reader, text, message, line", [
    ("presentation", "group a b\n", "group expects one label", 1),
    ("presentation", "group g\nparabolic free\n",
     "parabolic expects: kind and a size", 2),
    ("presentation", "group g\nparabolic free x\n",
     "parabolic size must be an integer", 2),
    ("presentation", "group g\nparabolic free 1\nhyperbolic a\n",
     "parabolic block missing a letters line", 2),
    ("presentation", "group g\nhyperbolic a\ntable 0\n",
     "table line outside a finite block", 3),
    ("presentation", "group g\nparabolic finite 2\nletters t\ntable 0 x\n",
     "table entries must be integers", 4),
    ("presentation", "group g\nhyperbolic a\nrelator\n",
     "relator expects one word", 3),
    ("presentation", "group g\nhyperbolic a\nconstants c2=1 delta\n",
     "expected key=value", 3),
    ("presentation", "group g\n", "presentation declares no generators",
     None),
    ("presentation", "group g\nhyperbolic A\n",
     "generator name 'A' must be one lowercase ASCII letter", None),
    ("presentation", "group g\nparabolic finite 2\nletters t\n"
     "table 1 0\ntable 0 1\n",
     "parabolic 1: element 0 must be the identity", None),
    ("presentation", "group g\nparabolic finite 5\nletters p q r s\n"
     + LOOP5, "parabolic 1: table is not associative", None),
    ("profile", "# comment\nc2 = 1\n\ndelta=x\n",
     "constant 'delta' must be an integer", 4),
], ids=["group", "parabolic-fields", "parabolic-size", "no-letters-line",
        "stray-table", "table-entry", "relator-fields", "constants-item",
        "no-generators", "generator-name", "identity", "associative",
        "profile-value"])
def test_every_parse_error_names_its_line(tmp_path, reader, text, message,
                                          line):
    path = tmp_path / "input"
    path.write_text(text)
    read = (load_presentation if reader == "presentation"
            else cli._read_profile_overrides)
    with pytest.raises(ParseError) as exc:
        read(path)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None
                              else "line %d: %s" % (line, message))


def test_a_byte_order_mark_is_ignored(tmp_path):
    pres = tmp_path / "g2.txt"
    pres.write_bytes(b"\xef\xbb\xbf" + G2_TEXT.encode())
    assert load_presentation(pres) == parse_presentation(G2_TEXT)
    prof = tmp_path / "prof"
    prof.write_bytes(b"\xef\xbb\xbfdelta=2\nc3 = 3\n")
    assert cli._read_profile_overrides(prof) == [("delta", 2), ("c3", 3)]
    # a bad byte is counted from the start of the file, mark included
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xef\xbb\xbfgroup g\xff\n")
    with pytest.raises(ParseError) as exc:
        load_presentation(bad)
    assert str(exc.value) == "%s is not UTF-8 text (byte 10)" % bad


def test_parse_rejects_duplicate_generator():
    with pytest.raises(ParseError, match="duplicate generator"):
        parse_presentation("group g\nhyperbolic a a\n")
    # a parabolic letter may not shadow a hyperbolic one
    with pytest.raises(ParseError, match="duplicate generator"):
        parse_presentation("group g\nhyperbolic a\nparabolic free 1\nletters a\n")


def test_parse_rejects_missing_group_line():
    with pytest.raises(ParseError, match="missing group line"):
        parse_presentation("")


def test_parse_rejects_bad_finite_table():
    base = "group g\nhyperbolic a\nparabolic finite 2\nletters t\n"
    with pytest.raises(ParseError, match="Latin square"):
        parse_presentation(base + "table 0 0\ntable 1 0\n")
    with pytest.raises(ParseError, match="2x2"):
        parse_presentation(base + "table 0 1\n")


def test_relator_with_unknown_letter():
    with pytest.raises(UnknownLetterError,
                       match=re.escape("relator 'ab' uses unknown letter 'b'")):
        parse_presentation("group g\nhyperbolic a\nrelator ab\n")


def test_constructor_rejects_an_empty_relator():
    # parsing never builds one, so only the constructor reaches this check
    with pytest.raises(ParseError, match="empty relator"):
        RelativePresentation("g", ("a",), (), ("",))


def test_constants_survive_parsing(pG2):
    pairs = dict(pG2.constants)
    assert pairs["delta"] == 1
    assert pairs["threshold"] == 3
    assert pairs["budget"] == 1000000


# ---------------------------------------------------------------------------
# the presentation records: frozen, compared and hashed by class and fields

DEMO_PRESENTATIONS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "presentations")
    .glob("*.txt"))


@pytest.mark.parametrize("path", DEMO_PRESENTATIONS,
                         ids=[path.stem for path in DEMO_PRESENTATIONS])
def test_every_demo_presentation_round_trips(path):
    p = load_presentation(path)
    p.letter_kind, p.alphabet  # cached values take no part in equality
    again = parse_presentation(serialize_presentation(p))
    assert again is not p
    assert again == p and not again != p
    assert hash(again) == hash(p)
    assert again.parabolics == p.parabolics


@pytest.mark.parametrize("path", DEMO_PRESENTATIONS + [None],
                         ids=[path.stem for path in DEMO_PRESENTATIONS]
                         + ["three"])
def test_normal_syllables_split_as_the_syllable_pattern(path):
    # the replace cuts split a normal form exactly as the reference does
    # (the name is from the compiled syllable pattern it once compared
    # with): on seeded normal forms of 0-60 letters of every demo
    # presentation and of Z^2 * F2 * C3 * Z, where runs of Z^2 and F2 meet
    # and C3 letters stand alone
    p = parse_presentation(THREE_TEXT) if path is None else (
        load_presentation(path))
    rng = random.Random(25)
    forms = ["", "xyuVx", "uXyv", "XYuvsax", "sar", "Ux"]
    for n in range(61):
        for _ in range(8):
            raw = random_letters(rng, p.alphabet, 3 * n)
            forms.append(words.normalize(p, raw)[:n])
    checked = 0
    for nf in forms:
        if nf.translate(p.declared_deletion) or words.normalize(p, nf) != nf:
            continue  # a hand case for another presentation
        assert p.normal_syllables(nf) == [
            s for _, s, _ in reference.syllables(p, nf)], nf
        checked += 1
    assert checked > 400


def test_normal_syllables_read_only_normal_forms(pZC2, pG2):
    # a finite run of two letters is not a normal form; the reference keeps
    # it whole and the replace cuts take it letter by letter, so words that
    # need not be normal forms are split otherwise
    assert [s for _, s, _ in reference.syllables(pZC2, "atta")] == [
        "a", "tt", "a"]
    assert pZC2.normal_syllables("atta") == ["a", "t", "t", "a"]
    assert pZC2.normal_syllables("ata") == ["a", "t", "a"]
    assert pG2.normal_syllables("xxYay") == ["xxY", "a", "y"]


@pytest.mark.parametrize("path", DEMO_PRESENTATIONS,
                         ids=[path.stem for path in DEMO_PRESENTATIONS])
def test_fault_pattern_has_one_alternative_per_letter(path):
    # finite factors' pairs share one alternative per first letter instead
    # of one literal each, and one class catches every undeclared character
    p = load_presentation(path)
    *alts, undeclared = p.fault_pattern.pattern.split("|")
    firsts = [alt[0] for alt in alts]
    assert len(set(firsts)) == len(firsts)
    assert set(firsts) <= p.letter_kind.keys()
    assert all(len(alt) == 1 or alt[1] == "[" and alt[-1] == "]"
               for alt in alts)
    assert undeclared == "[^%s]" % "".join(p.letter_kind)


def test_presentation_records_refuse_assignment_and_deletion(pZC2):
    par = pZC2.parabolics[0]
    for record, name in ((pZC2, "label"), (pZC2, "relators"),
                         (par, "kind"), (par, "table")):
        before = getattr(record, name)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, name, "changed")
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        pZC2.extra = 1
    assert not hasattr(pZC2, "extra")


def test_cached_property_is_computed_once():
    p = parse_presentation(G2_TEXT)
    assert "letter_kind" not in vars(p)
    kinds = p.letter_kind
    assert vars(p)["letter_kind"] is kinds
    assert p.letter_kind is kinds and p.oracles is p.oracles


def test_presentation_records_equal_only_their_own_class():
    par = ParabolicDescriptor(1, "free", ("x",))
    assert par == ParabolicDescriptor(1, "free", ("x",))
    assert par != ParabolicDescriptor(1, "free", ("y",))
    assert par != (1, "free", ("x",), ())
    p = RelativePresentation("g", ("a",), (par,))
    assert p == RelativePresentation("g", ("a",), (par,), (), ())
    assert p != ("g", ("a",), (par,), (), ())
    assert len({p, RelativePresentation("g", ("a",), (par,))}) == 1


def test_presentation_records_print_their_fields(pZC2):
    pZC2.letter_kind  # a cached value is not printed
    assert repr(pZC2) == (
        "RelativePresentation(label='zc2', hyperbolic_generators=('a',), "
        "parabolics=(ParabolicDescriptor(index=1, kind='finite', "
        "generators=('t',), table=((0, 1), (1, 0))),), relators=(), "
        "constants=(('delta', 1), ('c2', 1), ('c3', 1), "
        "('budget', 200000), ('threshold', 3)))")


def test_descriptor_validation_messages():
    with pytest.raises(ParseError) as exc:
        ParabolicDescriptor(1, "weird", ("x",))
    assert str(exc.value) == "unknown parabolic kind 'weird'"
    with pytest.raises(ParseError) as exc:
        ParabolicDescriptor(2, "finite", ("t",), ((0, 1),))
    assert str(exc.value) == "parabolic 2: table must be 2x2 (letters + identity)"
    with pytest.raises(ParseError) as exc:
        ParabolicDescriptor(1, "finite", ("t",), ((0, 0), (1, 0)))
    assert str(exc.value) == "parabolic 1: table is not a Latin square"
    with pytest.raises(ParseError) as exc:
        RelativePresentation("g", ("a", "a"), ())
    assert str(exc.value) == "duplicate generator 'a'"
