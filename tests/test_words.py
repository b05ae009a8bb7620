import random

import pytest

from relconj import words
from relconj.errors import UnknownLetterError
from relconj.presentation import HYPERBOLIC


def test_inverse():
    assert words.inverse("") == ""
    assert words.inverse("axY") == "yXA"
    assert words.inverse(words.inverse("aXbY")) == "aXbY"


def test_free_reduce():
    assert words.free_reduce("aA") == ""
    assert words.free_reduce("abBA") == ""
    assert words.free_reduce("abAB") == "abAB"
    assert words.free_reduce("xaAX") == ""


def test_mul_reduces_at_joins():
    assert words.mul("ab", "BA") == ""
    assert words.mul("a", "", "A") == ""
    assert words.mul("ax", "Xb") == "ab"


def test_cyclic_reduce():
    core, a = words.cyclic_reduce("AbxA".swapcase())  # aBXa -> reversed pair
    assert words.mul(a, core, words.inverse(a)) == "aBXa"
    core, a = words.cyclic_reduce("Aba")
    assert (core, a) == ("b", "A")
    core, a = words.cyclic_reduce("ab")
    assert (core, a) == ("ab", "")
    assert words.is_cyclically_reduced("ab")
    assert not words.is_cyclically_reduced("Aba")


def test_normalize_free_group(pF):
    assert words.normalize(pF, "abBA") == ""
    assert words.normalize(pF, "ab") == "ab"


def test_normalize_folds_parabolic_runs(pG2):
    # xyX is the element y; runs merge once the hyperbolic pair cancels
    assert words.normalize(pG2, "xyX") == "y"
    assert words.normalize(pG2, "xyXY") == ""
    assert words.normalize(pG2, "xaAy") == "xy"
    assert words.normalize(pG2, "yx") == "xy"
    assert words.normalize(pG2, "axXA") == ""


def test_normalize_is_idempotent(pG2):
    rng = random.Random(1)
    for _ in range(300):
        w = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 12)))
        nf = words.normalize(pG2, w)
        assert words.normalize(pG2, nf) == nf


def test_normalize_respects_inverses(pG2):
    rng = random.Random(2)
    for _ in range(300):
        w = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 10)))
        assert words.normalize(pG2, w + words.inverse(w)) == ""


def test_normalize_torsion_letters(pZC2):
    assert words.normalize(pZC2, "tt") == ""
    assert words.normalize(pZC2, "T") == "t"
    assert words.normalize(pZC2, "tat") == "tat"


def test_normalize_unknown_letter(pG2):
    with pytest.raises(UnknownLetterError):
        words.normalize(pG2, "z")


def test_raw_syllables(pG2):
    sylls = words.raw_syllables(pG2, "axxYa")
    assert [(s.kind, s.word, s.start) for s in sylls] == [
        (HYPERBOLIC, "a", 0), (1, "xxY", 1), (HYPERBOLIC, "a", 4)]
    assert sylls[1].end == 4
    assert words.raw_relative_length(pG2, "axxYa") == 3
    assert words.raw_relative_length(pG2, "") == 0


def test_decompose_normalizes_first(pG2):
    d = words.decompose(pG2, "xyX")
    assert d.word == "y"
    assert d.relative_length == 1
    assert words.decompose(pG2, "axYxa").relative_length == 3


def letter_by_letter_syllables(p, w):
    """The splitter's earlier definition, kept as the reference: a
    hyperbolic letter is a syllable alone, a parabolic run goes on while
    the next letter has the same kind.  (kind, word, start) triples."""
    kind_of = p.letter_kind
    out = []
    i = 0
    while i < len(w):
        kind = kind_of[w[i]]
        j = i + 1
        if kind != HYPERBOLIC:
            while j < len(w) and kind_of[w[j]] == kind:
                j += 1
        out.append((kind, w[i:j], i))
        i = j
    return out


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE"])
def test_syllable_splitter_matches_letter_by_letter_definition(request, name):
    p = request.getfixturevalue(name)
    rng = random.Random(23)
    for trial in range(800):
        hi = 200 if trial % 10 == 0 else 14
        w = "".join(rng.choice(p.alphabet) for _ in range(rng.randint(0, hi)))
        for v in (w, words.normalize(p, w)):
            want = letter_by_letter_syllables(p, v)
            got = words.raw_syllables(p, v)
            assert [(s.kind, s.word, s.start) for s in got] == want, v
            assert all(s.end == s.start + len(s.word) for s in got)
            assert words.raw_relative_length(p, v) == len(want)
