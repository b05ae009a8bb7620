import random

import pytest

from conftest import c5_trivial
from relconj import metric_oracle as mo, shortening as sh, words
from relconj.errors import RelconjError


def rand_word(p, rng, lo, hi):
    return "".join(rng.choice(p.alphabet) for _ in range(rng.randint(lo, hi)))


def test_resolve_constants(pF, pG2, tG2):
    assert sh.resolve_k(pF) == 1
    assert sh.resolve_delta(pF) == 0
    assert sh.resolve_k(pG2) == 9
    assert sh.resolve_delta(pG2) == 1
    assert sh.resolve_k(pG2, tables=tG2) == tG2.profile.k
    assert sh.resolve_k(pG2, k=13) == 13


def brute_window(p, w, k):
    """Reference scan: earliest shortest letter window of relative length
    <= k that is not a relative geodesic."""
    n = len(w)
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            seg = w[i:i + span]
            if words.raw_relative_length(p, seg) > k:
                continue
            if not mo.is_relative_geodesic(p, seg):
                return (i, i + span)
    return None


def test_window_scan_matches_reference(pG2):
    rng = random.Random(12)
    for trial in range(300):
        w = rand_word(pG2, rng, 2, 9)
        if trial % 2:
            # doubled cyclic words carry the seam violations the cyclic
            # shortening loop feeds to the scanner
            core, _ = words.cyclic_reduce(words.free_reduce(w))
            w = core + core
        assert sh.find_violating_window(pG2, w, 9) == brute_window(pG2, w, 9)


def test_window_scan_matches_reference_free_group(pF):
    # with delta=0 every two-letter window exceeds k=1, so nothing violates
    rng = random.Random(13)
    for _ in range(200):
        w = rand_word(pF, rng, 2, 9)
        assert sh.find_violating_window(pF, w, 1) == brute_window(pF, w, 1)
        assert sh.find_violating_window(pF, w, 1) is None


def test_window_scan_examples(pG2):
    assert sh.find_violating_window(pG2, "xX", 9) == (0, 2)
    assert sh.find_violating_window(pG2, "axXa", 9) == (1, 3)
    assert sh.find_violating_window(pG2, "xyX", 9) == (0, 3)
    assert sh.find_violating_window(pG2, "axya", 9) is None


def test_is_local_geodesic(pG2):
    assert sh.is_local_geodesic(pG2, "", 9)
    assert sh.is_local_geodesic(pG2, "axya", 9)
    assert not sh.is_local_geodesic(pG2, "xyX", 9)
    assert sh.is_cyclic_local_geodesic(pG2, "ax", 9)
    # ends of axA meet around the cycle and cancel
    assert not sh.is_cyclic_local_geodesic(pG2, "axA", 9)


def test_shorten_free_product_reaches_geodesic_length(pG2):
    # geodesic runs keep their spelling, so the output matches the normal
    # form as an element and in length, not letter for letter
    rng = random.Random(14)
    for _ in range(200):
        w = rand_word(pG2, rng, 0, 12)
        res = sh.shorten(pG2, w)
        nf = words.normalize(pG2, w)
        assert words.normalize(pG2, res.output) == nf
        assert len(res.output) == len(nf)
        assert res.input_word == w
        assert len(res.output) <= len(w)


def test_shorten_records_normalization_step(pG2):
    res = sh.shorten(pG2, "xyX")
    assert res.output == "y"
    assert [s.justification for s in res.steps] == [sh.PARABOLIC_NORMALIZATION]
    # runs that are already geodesic keep their spelling and need no step
    assert sh.shorten(pG2, "yx").output == "yx"
    assert sh.shorten(pG2, "yx").steps == ()
    assert sh.shorten(pG2, "xy").steps == ()


def test_word_problem_free_product(pG2):
    assert sh.word_problem(pG2, "")
    assert sh.word_problem(pG2, "xyXY")
    assert sh.word_problem(pG2, "axyXYA")
    assert not sh.word_problem(pG2, "ab" if "b" in pG2.alphabet else "ax")
    rng = random.Random(15)
    for _ in range(200):
        w = rand_word(pG2, rng, 0, 10)
        assert sh.word_problem(pG2, w) == (words.normalize(pG2, w) == "")
        assert sh.word_problem(pG2, w + words.inverse(w))


def test_cyclic_shorten_examples(pG2):
    res = sh.cyclic_shorten(pG2, "axA")
    assert (res.output, res.conjugator) == ("x", "a")
    res = sh.cyclic_shorten(pG2, "xyXY")
    assert (res.output, res.conjugator) == ("", "")
    res = sh.cyclic_shorten(pG2, "yx")
    assert res.output == "xy"


def test_cyclic_shorten_contract(pG2, tG2):
    k = tG2.profile.k
    rng = random.Random(16)
    for _ in range(200):
        w = rand_word(pG2, rng, 0, 12)
        res = sh.cyclic_shorten(pG2, w, tables=tG2)
        alpha, a = res.output, res.conjugator
        assert sh.word_problem(
            pG2, words.mul(a, alpha, words.inverse(a), words.inverse(w)))
        if alpha:
            assert sh.is_cyclic_local_geodesic(pG2, alpha, k)
        # canonical form is rotation-least: no rotation is shortlex-smaller
        # among valid cyclic local geodesics
        for j in range(1, len(alpha)):
            cand = alpha[j:] + alpha[:j]
            if pG2.shortlex_key(cand) < pG2.shortlex_key(alpha):
                assert not sh.is_cyclic_local_geodesic(pG2, cand, k)


def test_least_rotation_matches_brute_force():
    # the first start of the least rotation, also on periodic sequences
    rng = random.Random(19)
    for trial in range(2000):
        letters = "abc"[:2 + trial % 2]
        seq = [rng.choice(letters) for _ in range(rng.randint(1, 10))]
        if trial % 3 == 0:
            seq = seq[:3] * 3
        n = len(seq)
        want = min(range(n), key=lambda i: (seq[i:] + seq[:i], i))
        assert sh.least_rotation(seq) == want


def test_cyclic_shorten_is_class_invariant(pG2):
    # conjugating the input by a generator never changes the cyclic form
    rng = random.Random(17)
    for _ in range(150):
        w = rand_word(pG2, rng, 0, 8)
        g = rng.choice(pG2.alphabet)
        a = sh.cyclic_shorten(pG2, w).output
        b = sh.cyclic_shorten(pG2, g + w + words.inverse(g)).output
        assert words.normalize(pG2, a) == words.normalize(pG2, b)


def test_cyclic_shorten_torsion_parabolic(pZC2):
    # t has order two, so t.t collapses and no rotation of "t" passes the
    # doubled-word window check; the single-syllable form is still the
    # canonical class representative and must come back unchanged
    res = sh.cyclic_shorten(pZC2, "t")
    assert (res.output, res.conjugator) == ("t", "")
    assert not sh.is_cyclic_local_geodesic(pZC2, "t", 9)
    res = sh.cyclic_shorten(pZC2, "tat")
    assert (res.output, res.conjugator) == ("a", "t")
    res = sh.cyclic_shorten(pZC2, "tt")
    assert (res.output, res.conjugator) == ("", "")


def test_relator_group_shortening(pC5):
    res = sh.shorten(pC5, "aaa", trivial=c5_trivial)
    assert res.output == "AA"
    assert [s.justification for s in res.steps] == [sh.TABLE_REPLACEMENT]
    assert sh.shorten(pC5, "aaaa", trivial=c5_trivial).output == "A"
    assert sh.word_problem(pC5, "aaaaa", trivial=c5_trivial)
    assert not sh.word_problem(pC5, "aaa", trivial=c5_trivial)
    assert sh.word_problem(pC5, "", trivial=c5_trivial)


def test_relator_group_torsion_guard(pC5):
    # "a" is a one-syllable word and passes untouched; "aa" admits no cyclic
    # local geodesic at this delta because a.a wraps into the relator, and
    # the iteration guard reports the profile as inconsistent
    assert sh.cyclic_shorten(pC5, "a", trivial=c5_trivial).output == "a"
    with pytest.raises(RelconjError, match="exceeded .* iterations"):
        sh.cyclic_shorten(pC5, "aa", trivial=c5_trivial)


def test_shorten_preserves_element(pG2):
    rng = random.Random(18)
    for _ in range(100):
        w = rand_word(pG2, rng, 0, 12)
        res = sh.shorten(pG2, w)
        assert sh.word_problem(pG2, words.mul(res.output, words.inverse(w)))
