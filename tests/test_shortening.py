import functools
import itertools
import random

import pytest

from relconj import metric_oracle as mo, reference, shortening as sh, words
from relconj.errors import RelconjError, UnknownLetterError
from relconj.presentation import (HYPERBOLIC, INVERSE_LETTER,
                                  load_presentation, parse_presentation)

from conftest import (C2Z2_TEXT, C5C2F2_TEXT, C5Z2_TEXT, F_TEXT, G2_TEXT,
                      TWIN_PATH, ZC2_TEXT, ZD4_TEXT, ZS3_TEXT,
                      cyclically_reduced_syllables,
                      is_cyclic_local_geodesic, is_local_geodesic,
                      pairs_around, random_word, rotation_families, tries)


def brute_window(p, w, k):
    """The violating window by its definition on the ground truth: of all
    windows w[i:j] of two letters or more with at most k reference
    syllables that the ball oracle finds no relative geodesic, the least by
    (length, start), as (i, j); None if there is none."""
    windows = [(j - i, i) for i in range(len(w))
               for j in range(i + 2, len(w) + 1)
               if len(reference.syllables(p, w[i:j])) <= k
               and not mo.is_relative_geodesic(p, w[i:j])]
    if not windows:
        return None
    span, i = min(windows)
    return (i, i + span)


def test_window_scan_matches_reference(pG2):
    rng = random.Random(12)
    for trial in range(300):
        w = random_word(rng, pG2.alphabet, 2, 9)
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
        w = random_word(rng, pF.alphabet, 2, 9)
        assert sh.find_violating_window(pF, w, 1) == brute_window(pF, w, 1)
        assert sh.find_violating_window(pF, w, 1) is None


def test_window_scan_examples(pG2):
    assert sh.find_violating_window(pG2, "xX", 9) == (0, 2)
    assert sh.find_violating_window(pG2, "axXa", 9) == (1, 3)
    assert sh.find_violating_window(pG2, "xyX", 9) == (0, 3)
    assert sh.find_violating_window(pG2, "axya", 9) is None


def test_is_local_geodesic(pG2):
    assert is_local_geodesic(pG2, "", 9)
    assert is_local_geodesic(pG2, "axya", 9)
    assert not is_local_geodesic(pG2, "xyX", 9)
    assert is_cyclic_local_geodesic(pG2, "ax", 9)
    # ends of axA meet around the cycle and cancel
    assert not is_cyclic_local_geodesic(pG2, "axA", 9)


def test_shorten_free_product_reaches_geodesic_length(pG2):
    # phase one is the normal form, letter for letter
    rng = random.Random(14)
    for _ in range(200):
        w = random_word(rng, pG2.alphabet, 0, 12)
        res = sh.shorten(pG2, w)
        assert res.output == words.normalize(pG2, w)
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
        w = random_word(rng, pG2.alphabet, 0, 10)
        assert sh.word_problem(pG2, w) == (words.normalize(pG2, w) == "")
        assert sh.word_problem(pG2, w + words.inverse(w))


def shuffled_runs(rng, p, w):
    """w with the letters of every maximal run of a free abelian or finite
    factor shuffled: the same element where those factors are abelian, as
    the test presentations' are (Z^2, C2, C5 and C7)."""
    out = []
    for _, syl, _ in reference.syllables(p, w):
        kind = p.letter_kind[syl[0]]
        if kind != HYPERBOLIC and p.parabolics[kind - 1].kind != "free":
            syl = "".join(rng.sample(syl, len(syl)))
        out.append(syl)
    return "".join(out)


def commutator(p):
    """g h g^-1 h^-1 for the first generator g and the first generator h
    of another kind, or the second generator where there is none: every
    exponent sum is zero, and it is not trivial as g and h do not
    commute."""
    gens = p.alphabet[::2]
    g = gens[0]
    h = next((c for c in gens if p.letter_kind[c] != p.letter_kind[g]),
             gens[1])
    return g + h + INVERSE_LETTER[g] + INVERSE_LETTER[h]


def word_problem_words(p, rng, count):
    """count rounds of (expected answer, word), the answer None where only
    the reference knows it: a raw word; a trivial word x * x^-1, its
    parabolic runs shuffled so that cancelling it needs the folding; that
    word with one signed letter of each kind inserted (a hyperbolic, free
    or free abelian letter makes an exponent sum non-zero, a finite one
    does not; each is a conjugate of an element of infinite order or of a
    finite letter, so not trivial); and it with commutator(p) inserted,
    of zero image and not trivial."""
    by_kind = {}
    for c in p.alphabet:
        by_kind.setdefault(p.letter_kind[c], []).append(c)
    for _ in range(count):
        yield None, random_word(rng, p.alphabet, 0, 30)
        x = random_word(rng, p.alphabet, 0, 20)
        t = x + shuffled_runs(rng, p, words.inverse(x))
        yield True, t
        for s in [rng.choice(c) for c in by_kind.values()] + [commutator(p)]:
            i = rng.randint(0, len(t))
            yield False, t[:i] + s + t[i:]


@pytest.mark.parametrize("name, counted, normalized", [
    ("pF", 100, 110), ("pG2", 160, 110), ("pZC2", 90, 180),
    ("pZF2", 160, 110), ("twin", 0, 300)])
def test_word_problem_agrees_with_the_reference(monkeypatch, request, name,
                                                counted, normalized):
    # word_problem answers a word with a non-zero exponent sum by counting
    # and every other word by normalize; either way it agrees with the
    # reference normal form, on 60 seeded rounds of word_problem_words.
    # At least counted words take the first path and normalized the
    # second (116, 177, 103, 176, 0 and 124, 123, 197, 124, 300 of them,
    # in the order of the parameters); c5c7_twin has only finite letters,
    # so no exponent sum, and none is answered by counting
    p = (load_presentation(TWIN_PATH) if name == "twin"
         else request.getfixturevalue(name))
    calls = []
    real = words.normalize

    def spy(p, w):
        calls.append(w)
        return real(p, w)

    monkeypatch.setattr(words, "normalize", spy)
    paths = [0, 0]  # answered by counting, by normalize
    for expected, w in word_problem_words(p, random.Random(29), 60):
        truth = reference.normal_form(p, w) == ""
        assert expected in (None, truth), w
        before = len(calls)
        assert sh.word_problem(p, w) == truth, w
        paths[len(calls) > before] += 1
    assert paths[0] >= counted and paths[1] >= normalized, paths
    if not p.exponent_sum_pairs:
        assert paths[0] == 0


@pytest.mark.parametrize("w", ["aQ", "Qa", "aaQ", "Q", "aQA", "xQyXY"])
def test_word_problem_names_an_undeclared_letter(pG2, w):
    # never False, whether the image of the declared letters is zero or
    # not: the word reaches normalize, which names the letter
    with pytest.raises(UnknownLetterError, match="letter 'Q'"):
        sh.word_problem(pG2, w)


def test_word_problem_counts_before_it_normalizes(monkeypatch, pG2, pZC2,
                                                  pZF2, pC5):
    # a work count, not a timing: with normalize refused, a word with a
    # non-zero exponent sum is still answered, and every other word, or
    # any word with relators, reaches normalize
    def refuse(p, w):
        raise AssertionError("normalize(%r)" % w)

    rng = random.Random(30)
    x = random_word(rng, pG2.alphabet, 2000, 2000)
    long_one = x + shuffled_runs(rng, pG2, words.inverse(x))
    monkeypatch.setattr(words, "normalize", refuse)
    for p, w in ((pG2, "a"), (pG2, "xyXYx"), (pG2, "axAXY"),
                 (pG2, long_one[:999] + "a" + long_one[999:]),
                 (pZC2, "tat"), (pZF2, "axyXY"), (pZF2, "xyXYx")):
        assert not sh.word_problem(p, w), w
    for p, w in ((pG2, ""), (pG2, "axAX"), (pG2, long_one), (pZC2, "t"),
                 (pZC2, "atAT"), (pZF2, "xyXY"), (pC5, "aaa")):
        with pytest.raises(AssertionError, match="normalize"):
            sh.word_problem(p, w)


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
        w = random_word(rng, pG2.alphabet, 0, 12)
        res = sh.cyclic_shorten(pG2, w)
        alpha, a = res.output, res.conjugator
        assert sh.word_problem(
            pG2, words.mul(a, alpha, words.inverse(a), words.inverse(w)))
        if alpha:
            assert is_cyclic_local_geodesic(pG2, alpha, k)
        # canonical form is rotation-least: no rotation is shortlex-smaller
        # among valid cyclic local geodesics
        for j in range(1, len(alpha)):
            cand = alpha[j:] + alpha[:j]
            if pG2.shortlex_key(cand) < pG2.shortlex_key(alpha):
                assert not is_cyclic_local_geodesic(pG2, cand, k)


def test_least_rotation_matches_brute_force(monkeypatch):
    # the first start of the least rotation: every string of up to 12
    # letters over ab and up to 8 over abc, periodic strings, and the hard
    # families of up to 3,000 letters, rotated; SHORT_CYCLE = 2 cuts every
    # primitive cycle of two letters or more, at every level
    cases = ["".join(t) for letters, top in (("ab", 12), ("abc", 8))
             for n in range(1, top + 1)
             for t in itertools.product(letters, repeat=n)]
    rng = random.Random(19)
    for _ in range(300):
        block = random_word(rng, "abc", 1, 40)
        cases.append(block * rng.randint(2, 5))
    for n in (100, 1000, 3000):
        for d in rotation_families(n).values():
            i = rng.randrange(len(d))
            cases += [d, d[i:] + d[:i]]
    for short_cycle in (2, sh.SHORT_CYCLE):
        monkeypatch.setattr(sh, "SHORT_CYCLE", short_cycle)
        assert sh.least_rotation("") == 0
        for d in cases:
            assert sh.least_rotation(d) == reference.least_rotation(d), d


def test_cyclic_form_is_the_least_syllable_rotation(
        monkeypatch, pF, pG2, pZC2, pZF2, pTHREE, pC2Z2, pZ2C2, pZS3,
        pZD4):
    # a cyclically reduced normal form is rotated to the first least
    # rotation of its syllable list, compared by rank_translation: on random
    # and periodic cores of 1-80 syllables, and on runs of Z^2 one of which
    # is a proper prefix of the other (x against xy, x against xx), with
    # SHORT_CYCLE = 2 (least_rotation cuts every rank code of two
    # characters or more at its least character, the separator where
    # letters_order_syllables is false) and as it is (short codes compare
    # their rotations directly).  Where the property holds the code is the
    # core's rank string: every presentation here but THREE (Z^2 and F2
    # have runs) and Z2C2 (Z^2 ranks below C2), whose codes have separators
    cases = [(pG2, ["a", "xy", "a", "x"]), (pG2, ["a", "xx", "a", "x"]),
             (pG2, ["a", "xy", "A", "x", "a", "xy", "A", "xx"])]
    cases += [(p, ["a", "xy", "t", "a", "x", "t"]) for p in (pC2Z2, pZ2C2)]
    rng = random.Random(21)
    for p in (pF, pG2, pZC2, pZF2, pTHREE, pC2Z2, pZ2C2, pZS3, pZD4):
        for k in range(1, 81):
            cases.append((p, cyclically_reduced_syllables(p, rng, k)))
            block = cyclically_reduced_syllables(p, rng, 1 + k % 7)
            cases.append((p, block * (1 + k // 7)))
    for short_cycle in (2, sh.SHORT_CYCLE):
        monkeypatch.setattr(sh, "SHORT_CYCLE", short_cycle)
        for p, syls in cases:
            ranks = p.rank_translation
            r = reference.least_rotation([s.translate(ranks) for s in syls])
            res = sh.cyclic_shorten(p, "".join(syls))
            assert res.output == "".join(syls[r:] + syls[:r]), syls
            assert res.conjugator == "".join(syls[:r]), syls
    assert sh.cyclic_shorten(pG2, "axyax").output == "axaxy"
    # x < xy as syllables; as letters xt > xy on Z2C2, and xt < xy on C2Z2
    for p in (pC2Z2, pZ2C2):
        res = sh.cyclic_shorten(p, "axytaxt")
        assert (res.output, res.conjugator) == ("axtaxyt", "axyt")


def test_letters_order_syllables_on_every_presentation(pF, pG2, pZC2, pC5,
                                                       pZF2, pTHREE, pC2Z2,
                                                       pZ2C2, pZS3, pZD4):
    # true where at most one factor has runs and it is declared last: on
    # every demo presentation and every test one but THREE, which has two
    # run factors, and Z2C2, whose run factor comes before C2
    demos = sorted(TWIN_PATH.parent.glob("*.txt"))
    assert len(demos) == 8
    for path in demos:
        assert load_presentation(path).letters_order_syllables, path
    for p in (pF, pG2, pZC2, pC5, pZF2, pC2Z2, pZS3, pZD4,
              parse_presentation(C5Z2_TEXT), parse_presentation(C5C2F2_TEXT)):
        assert p.letters_order_syllables, p.label
    assert not pTHREE.letters_order_syllables
    assert not pZ2C2.letters_order_syllables


def test_separator_code_agrees_with_the_plain_code():
    # the rank code with a separator before each syllable is right on every
    # presentation, and where letters_order_syllables holds it must give
    # what the plain rank string gives: cyclic_shorten on seeded words
    # (random words of up to 400 letters, periodic cores and conjugates
    # g u g^-1) on every relator-free letters-order presentation in
    # conftest and demos/presentations, against a second instance of each
    # with the property written False
    loaders = [functools.partial(parse_presentation, text)
               for text in (F_TEXT, G2_TEXT, ZC2_TEXT, C2Z2_TEXT, ZS3_TEXT,
                            ZD4_TEXT)]
    loaders += [functools.partial(load_presentation, path)
                for path in sorted(TWIN_PATH.parent.glob("*.txt"))]
    rng = random.Random(43)
    checked = 0
    for load in loaders:
        plain, forced = load(), load()
        if not plain.is_free_product:
            continue
        assert plain.letters_order_syllables, plain.label
        forced.__dict__["letters_order_syllables"] = False
        cases = [random_word(rng, plain.alphabet, 0, 400) for _ in range(60)]
        for k in range(1, 61):
            size = 1 + k % 8  # even where every letter is parabolic
            size += size % 2 * (not plain.hyperbolic_generators)
            block = "".join(cyclically_reduced_syllables(plain, rng, size))
            cases.append(block * (1 + k % 12))
            g = random_word(rng, plain.alphabet, 0, 60)
            cases.append(g + random_word(rng, plain.alphabet, 0, 200)
                         + words.inverse(g))
        for w in cases:
            assert sh.cyclic_shorten(forced, w) == sh.cyclic_shorten(
                plain, w), (plain.label, w)
        checked += 1
    assert checked == 11


def test_cyclic_shorten_is_class_invariant(pG2):
    # conjugating the input by a generator never changes the cyclic form
    rng = random.Random(17)
    for _ in range(150):
        w = random_word(rng, pG2.alphabet, 0, 8)
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
            u = random_word(rng, p.alphabet, 200, 400)
            g = random_word(rng, p.alphabet, 50, 100)
            v = words.normalize(p, g + u + words.inverse(g))
            res = sh.cyclic_shorten(p, v)
            assert res.output == sh.cyclic_shorten(p, u).output
            assert res.iterations <= len(reference.syllables(p, v))
            assert sh.word_problem(p, words.mul(
                res.conjugator, res.output, words.inverse(res.conjugator),
                words.inverse(v)))


def test_cyclic_shorten_counts_end_run_merges(pG2):
    # x..X cancels as one trivial merge; the merge of XXXY with xxxxy
    # leaves x, which ends the reduction: the output is the kept syllable
    # A, then the merged run, spelled by no letters of the input
    res = sh.cyclic_shorten(pG2, "xaX")
    assert (res.output, res.conjugator, res.iterations) == ("a", "x", 1)
    res = sh.cyclic_shorten(pG2, "xxxxyAXXXY")
    assert (res.output, res.conjugator, res.iterations) == ("Ax", "xxxxy", 1)
    assert res.output == "A" + words.normalize(pG2, "XXXY" + "xxxxy")
    assert res.cyclic_length == 2


def oracle_end_loop_cyclic_form(p, nf, syls):
    """_syllable_cyclic_form spelled out as a reference: every end-run
    merge, trivial or not, is spelled by the factor oracle and tested for
    the empty word, and the core is rotated by reference.least_rotation on
    its syllables' rank strings, compared from all rotations.  Returns what
    _syllable_cyclic_form does, then the counts of trivial and of
    nontrivial merges."""
    kind_of = p.letter_kind
    trivial = nontrivial = 0
    merged = []
    i, j = 0, len(syls) - 1
    lo = 0
    while i < j and not merged:
        first, last = syls[i], syls[j]
        kind = kind_of[first[0]]
        if kind == HYPERBOLIC:
            if last != INVERSE_LETTER[first]:
                break
        elif kind == kind_of[last[0]]:
            orc = p.oracles[kind]
            state = orc.push(None, last + first)
            rep = "" if state is None else orc.state_word(state)
            if rep:
                nontrivial += 1
                merged.append(rep)
            else:
                trivial += 1
        else:
            break
        lo += len(first)
        i, j = i + 1, j - 1
    merges = (trivial + nontrivial, trivial, nontrivial)
    if i > j:
        return ("", "", 0) + merges
    core = syls[i : j + 1] + merged
    ranks = p.rank_translation
    r = reference.least_rotation([s.translate(ranks) for s in core])
    alpha = "".join(core[r:] + core[:r])
    conj = nf[:lo] + "".join(core[:r])
    if len(core) == 1:
        alpha, pre = words.cyclic_reduce(alpha)
        conj += pre
    return (alpha, conj, len(core)) + merges


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE",
                                  "pZ2C2"])
def test_end_loop_equals_the_oracle_loop(request, name):
    # the pass, which splits with normal_syllables and rotates the rank
    # code of the core, must equal the reference loop, which splits with
    # reference.syllables and compares all rotations of the syllables, in
    # the whole result, merge count included, on conjugated normal forms
    # g u g^-1 with |g| up to 60; THREE and Z2C2 rotate the code with
    # separators (letters_order_syllables is false there)
    p = request.getfixturevalue(name)
    rng = random.Random(26)
    trivial = nontrivial = 0
    for _ in range(300):
        u = words.normalize(p, random_word(rng, p.alphabet, 0, 40))
        g = words.normalize(p, random_word(rng, p.alphabet, 0, 60))
        nf = words.normalize(p, g + u + words.inverse(g))
        got = sh._syllable_cyclic_form(p, sh._end_pass(p, nf))
        syls = [s for _, s, _ in reference.syllables(p, nf)]
        want = oracle_end_loop_cyclic_form(p, nf, syls)
        assert got == (len(syls),) + want[:4], (u, g)
        trivial += want[4]
        nontrivial += want[5]
    if p.parabolics:  # both kinds of merge were exercised, except in C2,
        # where two nontrivial elements always merge to the identity
        assert trivial > 50, trivial
        assert nontrivial > 20 or name == "pZC2", nontrivial


@pytest.mark.parametrize("name, floor", [("pF", 180), ("pG2", 110),
                                         ("pZC2", 190), ("pZF2", 100),
                                         ("twin", 85)])
def test_cyclic_form_around_a_known_one_equals_the_general_pass(
        request, name, floor):
    # _cyclic_form_around reads v's normal form as P * X * P^-1 around u's
    # cyclic form where it can, and then returns what the general pass,
    # _syllable_cyclic_form, does, on 400 seeded pairs per presentation
    # whose u has a cyclic form of NEAR_CYCLE syllables or more, the
    # engine's gate, and cores on both sides of SHORT_CYCLE letters: on
    # these presentations letter order is syllable order, so least_rotation
    # is given the core's rank code, of one symbol a letter.  At least floor
    # of them are read so, on cores on both sides (228, 136, 239, 122 and
    # 109 of them, 100, 31, 111, 24 and 45 under SHORT_CYCLE letters, in
    # the order of the parameters).  cyclic_pair, reading v against u's
    # cyclic form alpha, which is its own core, and falling back on v's end
    # pass, gives cyclic_shorten exactly where it finds alpha
    p = (load_presentation(TWIN_PATH) if name == "twin"
         else request.getfixturevalue(name))
    assert p.letters_order_syllables
    rng = random.Random(27)
    taken = {False: 0, True: 0}  # by core of SHORT_CYCLE letters or more
    lengths = set()
    for u, v in pairs_around(p, rng, 400):
        ru = sh.cyclic_shorten(p, u)
        lengths.add(len(ru.output) >= sh.SHORT_CYCLE)
        if ru.cyclic_length < sh.NEAR_CYCLE:
            continue
        nf = words.normalize(p, v)
        read = sh._cyclic_form_around(p, nf, ru.output, ru.cyclic_length)
        if read is not None:
            found, k = read, (read[1] * 2).find(ru.output)
            assert found == sh._end_pass(p, nf), (u, v)
            assert sh._rotated(found, k) == sh._syllable_cyclic_form(
                p, found), (u, v)
            taken[len(ru.output) >= sh.SHORT_CYCLE] += 1
        res = sh.cyclic_pair(p, ru.output, v)[1]
        full = sh.cyclic_shorten(p, v)
        if full.output == ru.output:
            assert res == full, (u, v)
        else:
            assert res.output != ru.output, (u, v)
    assert lengths == {False, True}
    assert min(taken.values()) > 0 and sum(taken.values()) >= floor, taken


def test_cyclic_form_around_reads_whole_runs_and_the_inverse(pG2):
    # u's cyclic form is Axyyy, of two syllables.  First v = P * X *
    # inverse_form(P), P = AXyaya and X = yAxyy, whose ends are the two
    # halves of the run xyyy: the letters of Axyyy start at 1 in X + X, but
    # X's syllables are not those of Axyyy rotated, and the general pass
    # merges the run.  Then v = xa * xyyyA * yA, where yA is not
    # inverse_form(xa) = AX
    ru = sh.cyclic_shorten(pG2, "Ayyxy")
    assert (ru.output, ru.cyclic_length) == ("Axyyy", 2)
    for v in ("AXyayayAxyyAYAxYa", "xaxyyyAyA"):
        assert words.normalize(pG2, v) == v
        assert sh._cyclic_form_around(pG2, v, ru.output, 2) is None
    res = sh.cyclic_shorten(pG2, "AXyayayAxyyAYAxYa")
    assert (res.iterations, res.linear_length) == (3, 13)
    # and where both hold: xyyyA under xAXya, whose runs x and Xy merge
    # with their inverses, rotated from its hyperbolic letter
    v = "xAXya" + "xyyyA" + pG2.inverse_form("xAXya")
    assert words.normalize(pG2, v) == v
    found = sh._cyclic_form_around(pG2, v, ru.output, 2)
    k = (found[1] * 2).find(ru.output)
    assert found == sh._end_pass(pG2, v)
    assert sh._rotated(found, k) == sh._syllable_cyclic_form(pG2, found)
    res = sh.cyclic_shorten(pG2, v)
    assert sh.cyclic_pair(pG2, ru.output, v)[1] == res
    assert (res.conjugator, res.iterations, res.linear_length) == (
        "xAXyaxyyy", 2, 10)


def test_cyclic_core_finds_u_only_in_a_core_of_as_many_letters(pG2):
    # w = alpha * c, where c is the last letter of alpha, u's cyclic form,
    # and ends a parabolic run of it, is a cyclically reduced normal form
    # with alpha's syllable count that starts with alpha.  So alpha occurs
    # in v + v for v, w rotated by one syllable, and only the letter counts
    # tell that v is not a rotation of alpha (nor conjugate to u: its
    # exponent sum of c is one more).  v's core, v itself, comes back
    # unrotated, with v's own cyclic length, both where v is read as it is
    # and where it is conjugated by a hyperbolic letter g, so that v's end
    # pass, not the read around alpha, leaves the core
    rng = random.Random(39)
    for _ in tries("test_cyclic_core_finds_u_only_in_a_core_of_as_many_"
                   "letters"):
        u = "".join(cyclically_reduced_syllables(pG2, rng, 8))
        ru = sh.cyclic_shorten(pG2, u)
        if pG2.letter_kind[ru.output[-1]] != HYPERBOLIC:
            break
    assert ru.cyclic_length >= sh.NEAR_CYCLE  # so cyclic_pair reads v
    w = ru.output + ru.output[-1]
    first = len(pG2.normal_syllables(w)[0])
    v = w[first:] + w[:first]
    assert words.normalize(pG2, v) == v and ru.output in v + v
    g = "A" if v[-1] == "a" else "a"
    gv = g + v + words.inverse(g)
    assert words.normalize(pG2, gv) == gv
    for x, conjugator in ((v, ""), (gv, g)):
        res = sh.cyclic_pair(pG2, ru.output, x)[1]
        assert (res.output, res.conjugator, res.cyclic_length) == (
            v, conjugator, ru.cyclic_length), x
    assert res.cyclic_length == sh.cyclic_shorten(pG2, v).cyclic_length


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
    assert not is_cyclic_local_geodesic(pZC2, "t", 9)
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
        w = random_word(rng, p.alphabet, 0, 200 if trial % 10 == 0 else 14)
        for v in (w, words.normalize(p, w)):
            res = sh.cyclic_shorten(p, v)
            assert res.cyclic_length == len(reference.syllables(
                p, res.output)), v
            lengths.add(res.cyclic_length)
    assert {0, 1, 2} <= lengths


def test_cyclic_length_on_the_doubled_word_path(pC5):
    # with relators cyclic Dehn reduction fills the field: every power of
    # a comes out as one of a^-2 .. a^2
    rng = random.Random(31)
    lengths = set()
    for _ in range(300):
        w = random_word(rng, "aA", 0, 14)
        res = sh.cyclic_shorten(pC5, w)
        assert res.cyclic_length == len(reference.syllables(
            pC5, res.output)), w
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

    def one_letter_off(p, nf):
        n, alpha, conj, *rest = original(p, nf)
        return (n, alpha, conj + "a", *rest)

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
        w = random_word(rng, pG2.alphabet, 0, 12)
        res = sh.shorten(pG2, w)
        assert sh.word_problem(pG2, words.mul(res.output, words.inverse(w)))
