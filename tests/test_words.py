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


def is_normal_form_by_syllables(p, w):
    """The definition the recognizer compiles, checked syllable by
    syllable: no hyperbolic letter next to its inverse, and every maximal
    parabolic run nonempty and spelled as its factor's geodesic form."""
    for a, b in zip(w, w[1:]):
        if p.letter_kind[a] == HYPERBOLIC and b == words.inverse(a):
            return False
    return all(syl.kind == HYPERBOLIC
               or p.oracles[syl.kind].geodesic_form(syl.word) == syl.word
               for syl in words.raw_syllables(p, w))


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE"])
def test_normal_form_pattern_is_the_fixed_point_test(request, name):
    p = request.getfixturevalue(name)
    rng = random.Random(29)
    accepted = 0
    for trial in range(600):
        hi = 200 if trial % 10 == 0 else 14
        w = "".join(rng.choice(p.alphabet) for _ in range(rng.randint(0, hi)))
        nf = words.normalize(p, w)
        for x in (w, nf, nf + nf, words.inverse(nf),
                  nf + words.inverse(nf[:3])):
            fixed = words.normalize(p, x) == x
            assert bool(p.normal_form_pattern.fullmatch(x)) is fixed, x
            assert is_normal_form_by_syllables(p, x) is fixed, x
            accepted += fixed
    assert 600 < accepted < 2400


def test_normalize_calls_no_oracle_on_a_normal_form(monkeypatch, pTHREE):
    rng = random.Random(30)
    nf = ""
    while len(nf) < 16384:
        nf = words.normalize(pTHREE, nf + "".join(
            rng.choice(pTHREE.alphabet) for _ in range(4096)))
    assert all(c in nf for c in "axuvs")

    def boom(*args):
        raise AssertionError("oracle called on a normal form")

    for orc in pTHREE.oracles.values():
        monkeypatch.setattr(orc, "push", boom)
        monkeypatch.setattr(orc, "state_word", boom)
    assert words.normalize(pTHREE, nf) == nf
    with pytest.raises(AssertionError, match="oracle called"):
        words.normalize(pTHREE, nf + "xX")


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
