"""Dehn's algorithm for relator presentations: the table, the one stack
pass of shorten and word_problem, and cyclic Dehn reduction, checked
against a twin presentation of the same group and against the
abelianisation."""

import random
from pathlib import Path

import pytest

from conftest import (C5Z2_TEXT, is_cyclically_reduced, random_letters,
                      random_word, relator_conjugates)
from relconj import reference, shortening as sh, words
from relconj.errors import OracleUnavailableError
from relconj.presentation import load_presentation, parse_presentation

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "presentations"


@pytest.fixture(scope="module")
def pS2():
    return load_presentation(DEMOS / "surface2.txt")


@pytest.fixture(scope="module")
def pC5Z2():
    return parse_presentation(C5Z2_TEXT)


def test_table_of_c5(pC5):
    assert pC5.dehn_table == ({"aaa": "AA", "aaaa": "A", "aaaaa": "",
                               "AAA": "aa", "AAAA": "a", "AAAAA": ""},
                              (3, 4, 5))


def test_table_of_the_surface_group(pS2):
    # 16 symmetrized relators, each with its prefixes of 5..8 letters
    table, lengths = pS2.dehn_table
    assert len(table) == 64 and lengths == (5, 6, 7, 8)
    for u, rep in table.items():
        assert len(rep) == 8 - len(u)
        assert sh.word_problem(pS2, u + words.inverse(rep))
    assert sh.shorten(pS2, "abABcdC") == sh.ShorteningResult(
        "d", (sh.ShorteningStep(0, 7, "abABcdC", "d", sh.TABLE_REPLACEMENT),))


def test_relators_are_cyclically_reduced_first():
    p = parse_presentation("group c3\nhyperbolic a b\nrelator baaaB\n"
                           "relator bB\n")
    assert p.dehn_table[0]["aa"] == "A"
    assert sh.word_problem(p, "baaaB") and not sh.word_problem(p, "b")
    # a relator that reduces to nothing leaves an empty table
    p = parse_presentation("group f\nhyperbolic a\nparabolic free 1\n"
                           "letters x\nrelator aA\n")
    assert p.dehn_table == ({}, ())
    assert sh.shorten(p, "xaaAx").output == "xax"
    # the end runs x and x merge, and the merged run ends the cyclic form
    assert sh.cyclic_shorten(p, "xaaAx").output == "axx"


def test_small_cancellation_failure_names_the_piece():
    p = parse_presentation("group z2\nhyperbolic a b\nrelator abAB\n")
    with pytest.raises(OracleUnavailableError,
                       match=r"not C'\(1/6\): the piece '.' has 1 of the 4"):
        sh.word_problem(p, "abAB")


def test_relator_over_a_parabolic_letter_is_refused():
    p = parse_presentation("group r\nhyperbolic a\nparabolic free 1\n"
                           "letters x\nrelator axAX\n")
    with pytest.raises(OracleUnavailableError,
                       match="uses the parabolic letter 'x'"):
        sh.shorten(p, "a")


C5Z2_TWIN_TEXT = """\
group c5z2_twin
parabolic finite 5
letters a c d e
table 0 1 2 3 4
table 1 2 3 4 0
table 2 3 4 0 1
table 3 4 0 1 2
table 4 0 1 2 3
parabolic free_abelian 2
letters x y
"""


@pytest.mark.parametrize("p, twin, letters", [
    (DEMOS / "c5c7.txt", DEMOS / "c5c7_twin.txt", "aAbB"),
    (C5Z2_TEXT, C5Z2_TWIN_TEXT, "aAxXyY")], ids=["c5c7", "c5z2"])
def test_twin_presentations_agree(p, twin, letters):
    # the group by relators against its free product of finite blocks,
    # where the normal form decides; a is the same element in both
    p = load_presentation(p) if isinstance(p, Path) else parse_presentation(p)
    twin = (load_presentation(twin) if isinstance(twin, Path)
            else parse_presentation(twin))
    rng = random.Random(11)
    disagreements = trivial = 0
    for _ in range(20000):
        w = random_word(rng, letters, 0, 16)
        got = sh.word_problem(p, w)
        disagreements += got != (words.normalize(twin, w) == "")
        trivial += got
    assert disagreements == 0
    assert trivial > 500


def test_products_of_relator_conjugates_reduce_to_empty(pS2, pC5Z2):
    rng = random.Random(12)
    for p in (pS2, pC5Z2):
        for _ in range(300):
            w = relator_conjugates(rng, p, rng.randint(1, 300))
            assert sh.shorten(p, w).output == "", w


def abelianisation(p, w):
    """Exponent sums, with the hyperbolic ones of C5 * Z^2 taken mod 5."""
    image = [w.count(g) - w.count(g.upper()) for g in sorted(p.letter_kind)
             if g.islower()]
    if p.relators == ("aaaaa",):
        image[0] %= 5
    return image


def test_nonzero_abelianisation_is_never_trivial(pS2, pC5Z2):
    rng = random.Random(13)
    for p in (pS2, pC5Z2):
        checked = 0
        for trial in range(4000):
            if trial % 2:
                w = random_word(rng, p.alphabet, 1, 20)
            else:
                # a trivial word with one letter put in anywhere
                w = relator_conjugates(rng, p, rng.randint(1, 100))
                i = rng.randint(0, len(w))
                w = w[:i] + rng.choice(p.alphabet) + w[i:]
            if any(abelianisation(p, w)):
                checked += 1
                assert not sh.word_problem(p, w), w
        assert checked > 3000


def test_cyclic_dehn_reduction(pS2, pC5Z2):
    # the output is cyclically reduced and no cyclic subword of it is a
    # table key; cyclic_shorten checks the conjugator itself
    rng = random.Random(14)
    for p in (pS2, pC5Z2):
        table, lengths = p.dehn_table
        for trial in range(300):
            w = random_word(rng, p.alphabet, 0, 14)
            if trial % 3 == 0:
                g = random_letters(rng, p.alphabet, 5)
                w = g + relator_conjugates(rng, p, 8)[:9] + words.inverse(g)
            res = sh.cyclic_shorten(p, w)
            alpha = res.output
            assert is_cyclically_reduced(alpha)
            doubled = alpha + alpha
            assert not any(doubled[i:i + m] in table for m in lengths
                           if m <= len(alpha) for i in range(len(alpha)))
            assert res.cyclic_length == len(reference.syllables(p, alpha))


def test_cyclic_dehn_reduction_rotates_across_the_ends(pS2, pC5Z2):
    # abABc, more than half of the relator, only across the ends of
    # ABcaaab: one rotation, by ABca, puts it in the middle of caaabAB,
    # where shorten rewrites it to dcD
    res = sh.cyclic_shorten(pS2, "ABcaaab")
    assert (res.output, res.conjugator, res.iterations) == ("adcDa", "ABca", 1)
    # end runs of one factor merge, as without relators, in one end-run
    # merge and no rotation: aaa shortens to AA, and y * x to xy
    res = sh.cyclic_shorten(pC5Z2, "xaaay")
    assert (res.output, res.conjugator, res.iterations) == ("AAxy", "x", 1)
    assert sh.cyclic_shorten(pC5Z2, "xaX").output == "a"
