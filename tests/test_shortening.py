import random

import pytest

from relconj import metric_oracle as mo, shortening as sh, words
from relconj.errors import RelconjError
from relconj.presentation import parse_presentation


def rand_word(p, rng, lo, hi):
    return "".join(rng.choice(p.alphabet) for _ in range(rng.randint(lo, hi)))


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
    # phase one is the normal form, letter for letter
    rng = random.Random(14)
    for _ in range(200):
        w = rand_word(pG2, rng, 0, 12)
        res = sh.shorten(pG2, w)
        assert res.output == words.normalize(pG2, w)
        assert res.input_word == w
        assert len(res.output) <= len(w)


def test_shorten_records_normalization_step(pG2):
    res = sh.shorten(pG2, "xyX")
    assert res.output == "y"
    assert [s.justification for s in res.steps] == [sh.PARABOLIC_NORMALIZATION]
    # a geodesic run not spelled in normal form is respelled in one step
    res = sh.shorten(pG2, "yx")
    assert res.output == "xy"
    assert res.steps == (
        sh.ShorteningStep(0, 2, "yx", "xy", sh.PARABOLIC_NORMALIZATION),)
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
        res = sh.cyclic_shorten(pG2, w)
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


def test_cyclic_shorten_long_conjugates(pF, pG2, pZC2):
    # the cyclic form of normalize(g u g^-1) is u's, reached in at most
    # lbar end-run merges however long g is
    rng = random.Random(20)
    for p in (pF, pG2, pZC2):
        for _ in range(20):
            u = rand_word(p, rng, 200, 400)
            g = rand_word(p, rng, 50, 100)
            v = words.normalize(p, g + u + words.inverse(g))
            res = sh.cyclic_shorten(p, v)
            assert res.output == sh.cyclic_shorten(p, u).output
            assert res.iterations <= words.raw_relative_length(p, v)
            assert sh.word_problem(p, words.mul(
                res.conjugator, res.output, words.inverse(res.conjugator),
                words.inverse(v)))


def test_cyclic_shorten_counts_end_run_merges(pG2):
    # x..X cancels as one trivial merge; the merge of XXXY with xxxxy
    # leaves x, which ends the reduction
    res = sh.cyclic_shorten(pG2, "xaX")
    assert (res.output, res.conjugator, res.iterations) == ("a", "x", 1)
    res = sh.cyclic_shorten(pG2, "xxxxyAXXXY")
    assert (res.output, res.conjugator, res.iterations) == ("Ax", "xxxxy", 1)
    assert [(s.before, s.after) for s in res.steps] == [("XXXYxxxxy", "x")]


def test_cyclic_shorten_reduces_a_lone_free_factor_run():
    p = parse_presentation("group fx\nhyperbolic a\nparabolic free 2\n"
                           "letters x y\n")
    res = sh.cyclic_shorten(p, "axyXA")
    assert (res.output, res.conjugator) == ("y", "ax")


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
    res = sh.shorten(pC5, "aaa")
    assert res.output == "AA"
    assert [s.justification for s in res.steps] == [sh.TABLE_REPLACEMENT]
    assert sh.shorten(pC5, "aaaa").output == "A"
    assert sh.word_problem(pC5, "aaaaa")
    assert not sh.word_problem(pC5, "aaa")
    assert sh.word_problem(pC5, "")


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE"])
def test_cyclic_length_counts_the_cyclic_form(request, name):
    p = request.getfixturevalue(name)
    rng = random.Random(23)
    lengths = set()
    for trial in range(800):
        w = rand_word(p, rng, 0, 200 if trial % 10 == 0 else 14)
        for v in (w, words.normalize(p, w)):
            res = sh.cyclic_shorten(p, v)
            assert res.cyclic_length == words.raw_relative_length(
                p, res.output), v
            lengths.add(res.cyclic_length)
    assert {0, 1, 2} <= lengths


def test_cyclic_length_on_the_doubled_word_path(pC5):
    # with relators cyclic Dehn reduction fills the field: every power of
    # a comes out as one of a^-2 .. a^2
    rng = random.Random(31)
    lengths = set()
    for _ in range(300):
        w = "".join(rng.choice("aA") for _ in range(rng.randint(0, 14)))
        res = sh.cyclic_shorten(pC5, w)
        assert res.cyclic_length == words.raw_relative_length(
            pC5, res.output), w
        lengths.add(res.cyclic_length)
    assert lengths == {0, 1, 2}


def test_relator_group_torsion_guard(pC5):
    # a^2 is cyclically Dehn-reduced: no cyclic subword of aa is more than
    # half of aaaaa, so it comes back as it is; a^3 is rewritten to a^-2
    assert sh.cyclic_shorten(pC5, "a").output == "a"
    res = sh.cyclic_shorten(pC5, "aa")
    assert (res.output, res.conjugator, res.iterations) == ("aa", "", 0)
    assert sh.cyclic_shorten(pC5, "aaa").output == "AA"


def test_wrong_conjugator_fails_verification(monkeypatch, pG2):
    # put the relator-free pass's conjugator one letter off; the check
    # against the normal form has to catch it
    original = sh._syllable_cyclic_form

    def one_letter_off(p, nf, syls):
        alpha, conj, *rest = original(p, nf, syls)
        return (alpha, conj + "a", *rest)

    monkeypatch.setattr(sh, "_syllable_cyclic_form", one_letter_off)
    with pytest.raises(RelconjError,
                       match="cyclic shortening produced an invalid conjugator"):
        sh.cyclic_shorten(pG2, "axyAx")


def test_wrong_doubled_word_form_fails_verification(monkeypatch, pC5):
    # the relator path checks through the residue word problem; C5 is
    # abelian, so every conjugator is right there and the output is what is
    # put one letter off
    original = sh._dehn_cyclic_form

    def one_letter_off(p, w):
        rho, conj, *rest = original(p, w)
        return (rho + "a", conj, *rest)

    assert sh.cyclic_shorten(pC5, "a").output == "a"
    monkeypatch.setattr(sh, "_dehn_cyclic_form", one_letter_off)
    with pytest.raises(RelconjError,
                       match="cyclic shortening produced an invalid conjugator"):
        sh.cyclic_shorten(pC5, "a")


def test_shorten_preserves_element(pG2):
    rng = random.Random(18)
    for _ in range(100):
        w = rand_word(pG2, rng, 0, 12)
        res = sh.shorten(pG2, w)
        assert sh.word_problem(pG2, words.mul(res.output, words.inverse(w)))
