import pytest

from conftest import F_TEXT, G2_TEXT, ZC2_TEXT, C5_TEXT
from relconj.errors import ParseError, UnknownLetterError
from relconj.presentation import (
    HYPERBOLIC,
    INVERSE_LETTER,
    parse_presentation,
    presentation_hash,
    serialize_presentation,
)


def test_inverse_letter():
    assert INVERSE_LETTER["a"] == "A"
    assert INVERSE_LETTER["X"] == "x"


def test_parse_free_group(pF):
    assert pF.label == "free2"
    assert pF.alphabet == ("a", "A", "b", "B")
    assert pF.is_free_product
    assert pF.num_parabolics == 0
    assert all(kind == HYPERBOLIC for kind in pF.letter_kind.values())


def test_parse_free_product(pG2):
    assert pG2.alphabet == ("a", "A", "x", "X", "y", "Y")
    assert pG2.letter_kind["a"] == HYPERBOLIC
    assert pG2.letter_kind["x"] == 1
    assert pG2.letter_kind["Y"] == 1
    assert pG2.is_free_product
    assert pG2.num_parabolics == 1
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


def test_shortlex_key_orders_by_length_then_rank(pG2):
    ws = ["aa", "x", "", "Xy", "a", "A", "xy"]
    assert sorted(ws, key=pG2.shortlex_key) == ["", "a", "A", "x", "aa", "xy", "Xy"]


def test_check_word(pG2):
    assert pG2.check_word("axY") == "axY"
    with pytest.raises(UnknownLetterError):
        pG2.check_word("aq")


def test_classify_letter_unknown(pG2):
    with pytest.raises(UnknownLetterError):
        pG2.classify_letter("z")


@pytest.mark.parametrize("text,line", [
    ("bogus directive\n", 1),
    ("group g\nhyperbolic a\nparabolic weird 2\n", 3),
    ("group g\nletters x\n", 2),
    ("group g\nhyperbolic a\nconstants delta=x\n", 3),
    ("group g\nhyperbolic a\nparabolic finite 9\nletters t\ntable 0 1\n"
     "table 1 0\n", 3),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert exc.value.line == line


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
    with pytest.raises(UnknownLetterError):
        parse_presentation("group g\nhyperbolic a\nrelator ab\n")


def test_constants_survive_parsing(pG2):
    pairs = dict(pG2.constants)
    assert pairs["delta"] == 1
    assert pairs["threshold"] == 3
    assert pairs["budget"] == 1000000
