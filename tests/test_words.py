import itertools
import random
import re

import pytest

from relconj import reference, shortening, words
from relconj.errors import UnknownLetterError
from relconj.presentation import (HYPERBOLIC, INVERSE_LETTER, cancel_length,
                                  load_presentation)

from conftest import (ZF2_PATH, is_cyclically_reduced, random_letters,
                      random_reduced_word, random_word)


def test_inverse():
    assert words.inverse("") == ""
    assert words.inverse("axY") == "yXA"
    assert words.inverse(words.inverse("aXbY")) == "aXbY"


def test_inverse_is_the_reversed_swapcase_on_ascii_words():
    # one translate of the reversed word swaps the case of every ASCII
    # letter, as swapcase does, and passes every other character through
    ascii_chars = "".join(map(chr, range(128)))
    assert words.inverse(ascii_chars) == ascii_chars.swapcase()[::-1]
    rng = random.Random(44)
    for n in list(range(9)) + [15, 16, 17, 466, 4096]:
        w = "".join(rng.choice(ascii_chars) for _ in range(n))
        assert words.inverse(w) == w.swapcase()[::-1], w
    assert words.inverse("a1 b?é\u00c9") == "\u00c9é?B 1A"


def test_free_reduce():
    assert words.free_reduce("aA") == ""
    assert words.free_reduce("abBA") == ""
    assert words.free_reduce("abAB") == "abAB"
    assert words.free_reduce("xaAX") == ""


def test_mul_reduces_at_joins():
    # mul cancels only at the joins, which is free reduction of the whole
    # concatenation when every part is freely reduced, also when a middle
    # part cancels completely and its neighbours then cancel each other
    assert words.mul("ab", "BA") == ""
    assert words.mul("a", "", "A") == ""
    assert words.mul("ax", "Xb") == "ab"
    assert words.mul("cab", "B", "Ad") == "cd"
    assert words.mul("ab", "B", "A") == ""
    assert words.mul("xab", "BA", "aX") == "xaX"
    rng = random.Random(34)
    letters = "aAbBxXyY"
    seen_vanishing = 0
    for _ in range(4000):
        parts = [words.free_reduce(random_word(rng, letters, 0, 9))
                 for _ in range(rng.randint(0, 4))]
        if len(parts) >= 2 and rng.random() < 0.5:
            # a middle part cancelling the whole tail of the part before it
            left = parts[0]
            tail = left[rng.randint(0, len(left)):]
            parts.insert(1, words.inverse(tail))
            keep = left[: len(left) - len(tail)]
            if keep and rng.random() < 0.5:
                parts[2] = words.free_reduce(
                    words.inverse(keep[-rng.randint(1, len(keep)):]) + parts[2])
            seen_vanishing += 1
        assert all(words.free_reduce(x) == x for x in parts)
        assert words.mul(*parts) == words.free_reduce("".join(parts)), parts
    assert seen_vanishing > 1000


def loop_mul(*parts):
    """words.mul's earlier per-letter loop, kept as the reference."""
    inv = INVERSE_LETTER
    out = ""
    for w in parts:
        if out and w and out[-1] == inv[w[0]]:
            m = len(out)
            top = m if m < len(w) else len(w)
            x = 1
            while x < top and out[m - 1 - x] == inv[w[x]]:
                x += 1
            out = out[: m - x] + w[x:]
        else:
            out += w
    return out


def loop_cyclic_reduce(w):
    """cyclic_reduce's earlier per-letter loop, kept as the reference."""
    inv = INVERSE_LETTER
    i, j = 0, len(w) - 1
    while i < j and w[i] == inv[w[j]]:
        i, j = i + 1, j - 1
    return w[i : j + 1], w[:i]


def test_native_cancellation_equals_the_per_letter_loop():
    # mul and cyclic_reduce find the letters cancelling at a join by
    # doubling and halving slice compares; they must stop exactly where the
    # per-letter loop stops, at every length the doubling can land near
    rng = random.Random(36)
    lengths = {0, 1, 3000}
    for k in range(1, 12):
        lengths |= {2 ** k - 1, 2 ** k, 2 ** k + 1}
    reduced = words.free_reduce
    for x in sorted(lengths):
        for left, right in ((0, 0), (1, 2), (7, 0), (0, 5), (300, 301)):
            # u = a s and v = s^-1 b, freely reduced, cancel exactly s
            while True:
                a, s, b = (random_reduced_word(rng, "aAbBxXyY", n)
                           for n in (left, x, right))
                u, v = a + s, words.inverse(s) + b
                if reduced(u) == u and reduced(v) == v and (
                        not a or not b or a[-1] != INVERSE_LETTER[b[0]]):
                    break
            assert words.mul(u, v) == a + b == loop_mul(u, v), (x, a, b)
            assert words.mul(u, v) == reduced(u + v)
            assert words.mul(u, "", v) == words.mul("", u, v, "") == a + b
            # cancel_length compares three letters one by one, then takes
            # the common suffix with the inverse, which compares the whole
            # of top, then doubles and halves: it stops where the loop
            # stops, or at top
            most = min(len(u), len(v))
            for top in {0, 1, 2, 3, 4, rng.randint(0, most), most} & set(
                    range(most + 1)):
                assert cancel_length(u, v, top) == min(top, x), (u, v, top)
                # the same count as the common suffix of u and v^-1
                assert words.common_suffix(u, words.inverse(v), top) == min(
                    top, x), (u, v, top)
            # w = s core s^-1 strips exactly s, for odd and even |w|
            while True:
                core = random_reduced_word(rng, "aAbBxXyY",
                                           left + right + x % 2)
                if len(core) < 2 or core[0] != INVERSE_LETTER[core[-1]]:
                    break
            w = s + core + words.inverse(s)
            assert words.cyclic_reduce(w) == (core, s) == loop_cyclic_reduce(w)
    for w in ("", "a", "A", "ab", "aA", "aaA", "abBA", "aBcCbA"):
        assert words.cyclic_reduce(w) == loop_cyclic_reduce(w), w
        for v in ("", "a", w, words.inverse(w)):
            assert words.mul(w, v) == loop_mul(w, v), (w, v)
    for n in (1, 2, 3, 2999, 3000):
        w = random_reduced_word(rng, "aAbBxXyY", n)
        assert words.mul(w, words.inverse(w)) == ""
        assert cancel_length(w, words.inverse(w), n) == n
        assert words.mul(words.inverse(w), w) == ""
        assert words.cyclic_reduce(w + words.inverse(w)) == ("", w)
        assert loop_cyclic_reduce(w + words.inverse(w)) == ("", w)


def presentation_named(request, name):
    if name == "c5c7_twin":
        return load_presentation(ZF2_PATH.with_name("c5c7_twin.txt"))
    return request.getfixturevalue(name)


def random_normal_form(rng, p, n):
    """A random normal form of at most n letters (a prefix of a normal
    form is one)."""
    return words.normalize(p, random_letters(rng, p.alphabet, 3 * n))[:n]


INVERSE_FORM_PRESENTATIONS = ["pF", "pG2", "pZC2", "pZF2", "pTHREE",
                              "c5c7_twin"]


@pytest.mark.parametrize("name", INVERSE_FORM_PRESENTATIONS)
def test_inverse_form_is_the_normal_form_of_the_inverse(request, name):
    p = presentation_named(request, name)
    rng = random.Random(41)
    plain_faults = 0
    for trial in range(300):
        w = random_normal_form(rng, p, rng.randint(0, 200))
        inv = p.inverse_form(w)
        assert p.fault_pattern.search(inv) is None, (w, inv)
        assert inv == words.normalize(p, words.inverse(w)), w
        assert words.normalize(p, w + inv) == "" == words.normalize(p, inv + w)
        plain_faults += p.fault_pattern.search(words.inverse(w)) is not None
        # on any word it still spells the inverse
        raw = random_word(rng, p.alphabet, 0, 30)
        assert words.normalize(p, raw + p.inverse_form(raw)) == "", raw
    # the plain inverse writes a fault at every Z^2 run of two generators
    # and every finite letter, which it writes in upper case
    assert (plain_faults > 100) == (name not in ("pF", "pZF2"))


@pytest.mark.parametrize("name", INVERSE_FORM_PRESENTATIONS)
def test_conjugate_form_is_g_x_g_inverse(request, name):
    p = presentation_named(request, name)
    rng = random.Random(42)
    n = words._PLAIN_INVERSE_LETTERS
    reduced = words.free_reduce
    for trial in range(200):
        g = random_normal_form(rng, p, rng.choice([0, 1, n - 1, n, n + 1, 15,
                                                   16, 60, 200]))
        r = random_normal_form(rng, p, rng.randint(0, 60))
        k = rng.randint(0, len(g))
        xs = [r,
              # x starting with g^-1, spelled plainly or as a normal form
              reduced(words.inverse(g)[:k] + r),
              words.normalize(p, words.inverse(g[len(g) - k:]) + r),
              # x ending in g, so that g^-1 cancels against it
              reduced(r + g[len(g) - k:]), words.normalize(p, r + g),
              words.inverse(g)]
        for x in xs:
            got = words.conjugate_form(p, g, x)
            want = words.normalize(p, g + x + words.inverse(g))
            assert words.normalize(p, got) == want, (g, x, got)
            if len(g) < n:
                assert got == words.mul(g, x, words.inverse(g))


def test_conjugate_form_spells_the_rest_of_g_inverse_canonically(pG2):
    n = words._PLAIN_INVERSE_LETTERS
    for g in ("xy", "axxyy"[:n - 1], "axxyy"[:n], "axxyy" * 3):
        plain = words.mul(g, "a", words.inverse(g))
        got = words.conjugate_form(pG2, g, "a")
        if len(g) < n:
            assert got == plain
        else:
            assert got == g + "a" + pG2.inverse_form(g) != plain
            assert pG2.fault_pattern.search(got) is None
        assert pG2.fault_pattern.search(plain) is not None
    # the plain inverse cancels two letters, into the run xxyy of g, and
    # the rest of g^-1 is spelled canonically from inside that run
    g = "axY" * 4 + "axxyy"
    x = "aayy"
    gx = words.mul(g, x)
    assert cancel_length(gx, words.inverse(g), len(g)) == 2
    got = words.conjugate_form(pG2, g, x)
    assert got == gx[:-2] + pG2.inverse_form(g[:-2])
    assert got == g + "aaXXA" + "XyA" * 4
    assert pG2.fault_pattern.search(got) is None
    assert words.normalize(pG2, got) == words.normalize(
        pG2, g + x + words.inverse(g))


def test_cyclic_reduce():
    core, a = words.cyclic_reduce("AbxA".swapcase())  # aBXa -> reversed pair
    assert words.mul(a, core, words.inverse(a)) == "aBXa"
    core, a = words.cyclic_reduce("Aba")
    assert (core, a) == ("b", "A")
    core, a = words.cyclic_reduce("ab")
    assert (core, a) == ("ab", "")
    assert is_cyclically_reduced("ab")
    assert not is_cyclically_reduced("Aba")


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
        w = random_word(rng, pG2.alphabet, 0, 12)
        nf = words.normalize(pG2, w)
        assert words.normalize(pG2, nf) == nf


def test_normalize_respects_inverses(pG2):
    rng = random.Random(2)
    for _ in range(300):
        w = random_word(rng, pG2.alphabet, 0, 10)
        assert words.normalize(pG2, w + words.inverse(w)) == ""


def test_normalize_torsion_letters(pZC2):
    assert words.normalize(pZC2, "tt") == ""
    assert words.normalize(pZC2, "T") == "t"
    assert words.normalize(pZC2, "tat") == "tat"


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE"])
def test_normal_form_pattern_is_the_fixed_point_test(request, name):
    p = request.getfixturevalue(name)
    rng = random.Random(29)
    accepted = 0
    for trial in range(600):
        hi = 200 if trial % 10 == 0 else 14
        w = random_word(rng, p.alphabet, 0, hi)
        nf = words.normalize(p, w)
        for x in (w, nf, nf + nf, words.inverse(nf),
                  nf + words.inverse(nf[:3])):
            fixed = words.normalize(p, x) == x
            assert (p.fault_pattern.search(x) is None) is fixed, x
            assert (reference.normal_form(p, x) == x) is fixed, x
            accepted += fixed
    assert 600 < accepted < 2400


def reference_stretch_end(p, w, i, bounds):
    """The end of the normal-form stretch of w from the syllable boundary
    i, by the definition: the longest syllable-aligned w[i:j] of declared
    letters that is its own reference normal form, cut before its last
    letter when that is hyperbolic and w goes on with its inverse.  A
    syllable-aligned prefix of an accepted word is accepted, so the longest
    is found by bisection over the boundaries."""
    lo, hi = bounds.index(i), len(bounds)  # bounds[lo] is accepted
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = w[i:bounds[mid]]
        if not x.translate(p.declared_deletion) and reference.normal_form(p, x) == x:
            lo = mid
        else:
            hi = mid
    best = bounds[lo]
    if (best > i and p.letter_kind[w[best - 1]] == HYPERBOLIC
            and w[best:best + 1] == words.inverse(w[best - 1])):
        best -= 1
    return best


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE"])
def test_fault_search_ends_each_stretch_where_the_definition_does(request,
                                                                  name):
    # normalize keeps w[i:j] whole, with j found by the fault finds from
    # i: the first fault, or the start of the parabolic run it lies in.  A
    # word with an undeclared letter is rejected before any stretch
    p = request.getfixturevalue(name)
    rng = random.Random(35)
    undeclared = 0
    for trial in range(600):
        hi = 200 if trial % 10 == 0 else 14
        w = random_word(rng, p.alphabet, 0, hi)
        if trial % 2:
            w = words.normalize(p, w)
        if rng.random() < 0.02:
            k = rng.randint(0, len(w))
            w = w[:k] + rng.choice("Qé") + w[k:]
            undeclared += 1
            with pytest.raises(UnknownLetterError):
                words.normalize(p, w)
            continue
        # a position starts a syllable unless it continues the parabolic
        # run of the letter before it; an undeclared letter stands alone
        kind = p.letter_kind.get
        bounds = [j for j, c in enumerate(w)
                  if j == 0 or kind(c, HYPERBOLIC) == HYPERBOLIC
                  or kind(w[j - 1]) != kind(c)]
        bounds.append(len(w))
        for i in bounds:
            got = words._stretch_end(p, w, i, words.first_fault(
                p, w, i, words.fault_finds(p, w.encode())))
            assert got == reference_stretch_end(p, w, i, bounds), (w, i)
    assert undeclared >= 5


def test_normalize_calls_no_oracle_on_a_normal_form(monkeypatch, pTHREE):
    rng = random.Random(30)
    nf = ""
    while len(nf) < 16384:
        nf = words.normalize(pTHREE, nf + "".join(
            rng.choice(pTHREE.alphabet) for _ in range(4096)))
    assert all(c in nf for c in "axuvs")

    def boom(*args):
        raise AssertionError("oracle or fold called on a normal form")

    for orc in pTHREE.oracles.values():
        monkeypatch.setattr(orc, "push", boom)
        monkeypatch.setattr(orc, "state_word", boom)
    monkeypatch.setattr(words, "_fold", boom)
    assert words.normalize(pTHREE, nf) == nf
    with pytest.raises(AssertionError, match="fold called"):
        words.normalize(pTHREE, nf + "xX")


def factor_letters(p, kind):
    return [c for c in p.alphabet if p.letter_kind[c] == kind]


def almost_normal_words(rng, p):
    """Normal forms with one fault each: a cancelling pair or a parabolic
    run inserted, an inverse suffix (raw or itself a normal form) that
    cancels deep into them, one run spelled non-canonically, and two
    normal forms joined across a cancelling pair, so that a run of the
    first merges with one of the second."""
    kinds = sorted({p.letter_kind[c] for c in p.alphabet} - {HYPERBOLIC})
    n = rng.choice([3, 12, 40, 150])
    nf = words.normalize(p, random_letters(rng, p.alphabet, 2 * n))
    i = rng.randint(0, len(nf))
    c = rng.choice(p.alphabet)
    yield nf[:i] + c + words.inverse(c) + nf[i:]
    if kinds:
        run = random_word(rng, factor_letters(p, rng.choice(kinds)), 1, 4)
        yield nf[:i] + run + nf[i:]
    k = rng.randint(0, len(nf))
    yield nf + words.inverse(nf[k:])
    yield nf + words.normalize(p, words.inverse(nf[k:]) + random_word(
        rng, p.alphabet, 0, 20))
    runs = [s for s in reference.syllables(p, nf) if s[0] != HYPERBOLIC]
    if runs:
        kind, run, start = rng.choice(runs)
        x = random_word(rng, factor_letters(p, kind), 1, 3)
        spelt = x + reference.normal_form(p, words.inverse(x) + run)
        yield nf[:start] + spelt + nf[start + len(run) :]
    if kinds:
        kind = rng.choice(kinds)
        left = words.normalize(p, random_letters(rng, p.alphabet, n)
                               + rng.choice(factor_letters(p, kind)))
        right = words.normalize(p, rng.choice(factor_letters(p, kind))
                                + random_letters(rng, p.alphabet, n))
        c = rng.choice(p.alphabet)
        yield left + c + words.inverse(c) + right
        yield left + right


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE"])
def test_normalize_almost_normal_words(request, name):
    p = request.getfixturevalue(name)
    rng = random.Random(31)
    seen = 0
    for _ in range(200):
        for w in almost_normal_words(rng, p):
            assert words.normalize(p, w) == reference.normal_form(p, w), w
            seen += 1
    assert seen >= 600


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE"])
def test_normalize_agrees_with_the_definition_on_raw_words(request, name):
    p = request.getfixturevalue(name)
    rng = random.Random(32)
    for trial in range(400):
        w = random_letters(rng, p.alphabet,
                           rng.choice([0, 1, 3, 5, 17, 60, 300]))
        assert words.normalize(p, w) == reference.normal_form(p, w), w


def test_normalize_folds_only_the_fault(monkeypatch, pTHREE):
    # a 16k-letter normal form with one xX inserted folds at most 8 letters
    # wherever the pair goes, and calls no oracle push: the stretches on
    # either side are kept whole, and only the letters at the fault and
    # the run they meet are folded, each by a lookup in the letter table
    # that the normalize calls building nf made
    rng = random.Random(33)
    nf = ""
    while len(nf) < 16384:
        nf = words.normalize(pTHREE, nf + random_letters(rng, pTHREE.alphabet,
                                                         4096))
    folded = []

    def fold(t, codes, i, k, *rest, real=words._fold):
        folded.append(k - i)
        return real(t, codes, i, k, *rest)

    def refuse(*args):
        raise AssertionError("normalize called an oracle's push")

    monkeypatch.setattr(words, "_fold", fold)
    for orc in pTHREE.oracles.values():
        monkeypatch.setattr(orc, "push", refuse)
    runs = [s for s in reference.syllables(pTHREE, nf) if s[0] == 1]
    cuts = [0, 1, 15, 16, 17, len(nf) // 2, len(nf) - 16, len(nf) - 1,
            len(nf)] + [rng.randint(0, len(nf)) for _ in range(40)]
    cuts += [start + 1 for _, run, start in runs[:20] if len(run) > 1]
    for i in cuts:
        w = nf[:i] + "xX" + nf[i:]
        del folded[:]
        assert words.normalize(pTHREE, w) == nf
        assert 0 < sum(folded) <= 8, (i, folded)


RELATOR_FREE = ["pF", "pG2", "pZC2", "pZF2", "pTHREE", "pC2Z2", "pZ2C2",
                "pZS3", "pZD4", "pZ3"]


def long_fold_words(rng, p):
    """Words of 128 to 2,000 letters for normalize's stack pass: raw ones,
    normal forms with raw letters inserted (stretches kept, and folded
    where they meet the stack) and normal forms followed by the inverse of
    a suffix, raw or not (exposures deep into a kept stretch)."""
    for n in (128, 300, 777, 2000):
        yield random_letters(rng, p.alphabet, n)
        nf = words.normalize(p, random_letters(rng, p.alphabet, 3 * n))[:n]
        for _ in range(3):
            k = rng.randint(0, len(nf))
            nf = nf[:k] + random_word(rng, p.alphabet, 1, 40) + nf[k:]
        yield nf
        k = rng.randint(0, len(nf))
        tail = words.inverse(nf[k:])
        yield nf + tail
        yield nf + "".join(random_letters(rng, p.alphabet, 2) + c
                           for c in tail)


def packing_words(p):
    """For lengths n = 2^j - 1, 2^j and 2^j + 1: every letter c to the
    power n - 1 after or before one other letter d, n letters long, so
    that c's exponent n - 1 sits beside d's in one packed run, and
    c^k d D C^k with 2k + 2 = n or n + 1, which cancels to nothing
    through a run exposed whole."""
    for j in (7, 9, 11):
        for n in (2 ** j - 1, 2 ** j, 2 ** j + 1):
            for c in p.alphabet:
                for d in p.alphabet:
                    if d != c:
                        yield c * (n - 1) + d
                        yield d + c * (n - 1)
                k = n // 2 - 1
                yield c * k + "a" + "A" + words.inverse(c) * k


@pytest.mark.parametrize("name", RELATOR_FREE)
def test_normalize_agrees_with_the_reference_on_long_words(
        monkeypatch, request, name):
    # the stack pass, its exposures, the fault finds and the folds where a
    # kept stretch meets the stack, on every relator-free layout: finite
    # factors that do not commute (Z * S3, Z * D4), all three kinds at
    # once, both orders of C2 and Z^2, and free abelian runs of rank three
    p = request.getfixturevalue(name)
    rng = random.Random(49)
    seen = {"expose": 0, "find": 0, "spell": 0}  # calls

    def count(key, real):
        def counted(*args):
            seen[key] += 1
            return real(*args)
        return counted

    monkeypatch.setattr(words, "_expose",
                        count("expose", words._expose))
    monkeypatch.setattr(words, "first_fault",
                        count("find", words.first_fault))
    monkeypatch.setattr(words, "_spell", count("spell", words._spell))
    count_words = 0
    for _ in range(3):
        for w in long_fold_words(rng, p):
            assert words.normalize(p, w) == reference.normal_form(p, w), w
            count_words += 1
    # a spelling beside each word's last one is a stretch kept whole
    assert seen["spell"] - count_words >= 20, seen
    assert seen["expose"] >= 100 and seen["find"] >= 100, seen


@pytest.mark.parametrize("name", ["pG2", "pZ2C2", "pZ3", "pZS3", "pTHREE"])
def test_runs_pack_exactly_up_to_the_word_length(request, name):
    # a run's exponents are packed in base 2^(bit length of n + 1), above
    # 2n, so an exponent of n - 1 beside another one is still exact at n =
    # 2^j - 1, 2^j and 2^j + 1, where a base half as large is not
    p = request.getfixturevalue(name)
    for w in packing_words(p):
        assert words.normalize(p, w) == reference.normal_form(p, w), w


DEMO_PRESENTATIONS = sorted(ZF2_PATH.parent.glob("*.txt"))


@pytest.mark.parametrize("path", DEMO_PRESENTATIONS, ids=lambda p: p.stem)
def test_fault_finds_agree_with_the_pattern_and_the_reference(path):
    # normalize recognises a word of _FIND_LETTERS letters or more by the
    # finds of first_fault, a shorter one by its fault_pattern search
    # (found None): on declared words both find the same first fault, from
    # any start, and a word has one exactly when it is not its own
    # reference normal form; the search reports an undeclared letter too
    p = load_presentation(path)
    rng = random.Random(47)
    other = random.Random(48)  # the undeclared letters, apart from rng
    faults = 0
    lengths = [rng.randint(0, 64) for _ in range(300)] + [1024] * 12
    for trial, n in enumerate(lengths):
        w = random_letters(rng, p.alphabet, n)
        if trial % 3:
            w = words.normalize(p, w + random_letters(rng, p.alphabet, n))[:n]
        if trial % 3 == 2:
            k, f = rng.randint(0, len(w)), rng.choice(p.fault_factors)
            w = w[:k] + f + w[k:]
        has_fault = reference.normal_form(p, w) != w
        faults += has_fault
        assert (words.first_fault(p, w, 0, words.fault_finds(p, w.encode()))
                < len(w)) is has_fault, w
        assert (p.fault_pattern.search(w) is not None) is has_fault, w
        found = words.fault_finds(p, w.encode())  # one normalize's finds
        for i in sorted(rng.sample(range(len(w) + 1), min(len(w) + 1, 8))):
            match = p.fault_pattern.search(w, i)
            want = len(w) if match is None else match.start()
            assert words.first_fault(p, w, i, None) == want, (w, i)
            assert words.first_fault(
                p, w, i, words.fault_finds(p, w.encode())) == want, (w, i)
            assert words.first_fault(p, w, i, found) == want, (w, i)
        k = other.randint(0, len(w))
        bad = w[:k] + other.choice("Qé") + w[k:]
        for i in (0, k // 2, k, k + 1):
            match = p.fault_pattern.search(bad, i)
            want = len(bad) if match is None else match.start()
            assert words.first_fault(p, bad, i, None) == want, (bad, i)
            assert (want <= k) is (i <= k), (bad, i)
    assert 100 < faults < len(lengths) - 50


def long_normal_form(rng, p, n):
    """A normal form of n letters: a prefix of a long one."""
    nf = ""
    while len(nf) < n:
        nf = words.normalize(p, nf + random_letters(rng, p.alphabet, 4 * n))
    return nf[:n]


def next_faults(p, w):
    """For each start i of w, where its first fault at or after i starts
    by fault_pattern, from one match at each position."""
    want = [len(w)] * (len(w) + 1)
    for j in range(len(w) - 1, -1, -1):
        want[j] = j if p.fault_pattern.match(w, j) else want[j + 1]
    return want


SCAN_PRESENTATIONS = [path.stem for path in DEMO_PRESENTATIONS] + RELATOR_FREE


@pytest.mark.parametrize("name", SCAN_PRESENTATIONS)
def test_the_scan_finds_every_short_word_where_the_pattern_does(request,
                                                                name):
    # every word x of up to three letters, at the start, in the middle and
    # at the end of a normal form of _FIND_LETTERS letters: from every
    # start, the passes of fault_finds, shared across the starts as in one
    # normalize, find the first fault where fault_pattern does, and so do
    # fresh passes from the starts around x
    if name.startswith("p"):
        p = request.getfixturevalue(name)
    else:
        p = load_presentation(ZF2_PATH.with_name(name + ".txt"))
    nf = long_normal_form(random.Random(51), p, words._FIND_LETTERS)
    m = len(nf) // 2
    letters = list(p.letter_kind)
    faults = 0
    for size in (1, 2, 3):
        for x in map("".join, itertools.product(letters, repeat=size)):
            for k in (0, m, len(nf)):
                w = nf[:k] + x + nf[k:]
                want = next_faults(p, w)
                found = words.fault_finds(p, w.encode())
                for i in range(len(w) + 1):
                    assert words.first_fault(p, w, i, found) == want[i], (
                        w, i)
                for i in range(max(k - 1, 0), k + size + 1):
                    assert words.first_fault(
                        p, w, i, words.fault_finds(p, w.encode())
                    ) == want[i], (w, i)
                faults += want[0] < len(w)
    assert faults > 0


def test_fault_classes_refuse_an_inverse_pair_that_is_no_fault():
    # the XOR pass flags every letter followed by its inverse, so
    # fault_classes refuses fault factors that leave out one such pair
    p = load_presentation(ZF2_PATH.with_name("zxz2.txt"))
    p.__dict__["fault_factors"] = tuple(f for f in p.fault_factors
                                        if f != "aA")
    with pytest.raises(AssertionError, match="miss 'aA'"):
        p.fault_classes


@pytest.mark.parametrize("name", RELATOR_FREE)
def test_a_fault_at_every_position_is_found_and_folded(request, name):
    # each fault factor at every position of normal forms of _FIND_LETTERS
    # - 2 to _FIND_LETTERS + 1 letters, so that every word takes the
    # passes: the XOR meets the fault at every alignment with the 30-bit
    # digits of a CPython int and at its last byte, the last code alone,
    # and normalize's stack pass and attempts at every offset from their
    # chunk edges.  first_fault agrees with fault_pattern from the start
    # and from the fault, and normalize with the reference
    p = request.getfixturevalue(name)
    rng = random.Random(52)
    n = words._FIND_LETTERS
    for length in (n - 2, n, n + 1):
        nf = long_normal_form(rng, p, length)
        for k in range(len(nf) + 1):
            for f in p.fault_factors:
                w = nf[:k] + f + nf[k:]
                found = words.fault_finds(p, w.encode())
                want = next_faults(p, w)
                for i in (0, k):
                    assert words.first_fault(p, w, i, found) == want[i], (
                        w, i)
            w = nf[:k] + rng.choice(p.fault_factors) + nf[k:]
            assert words.normalize(p, w) == reference.normal_form(p, w), w


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2"])
def test_an_undeclared_letter_fails_as_check_word_does_at_any_length(
        request, name):
    # below _FIND_LETTERS normalize meets an undeclared letter in its
    # fault search and stack pass, from there on in its stack pass or the
    # check of a stretch it keeps whole, or of a word without a fault,
    # before or after a fault; the error is check_word's, naming the
    # first undeclared letter
    p = request.getfixturevalue(name)
    rng = random.Random(48)
    n, m = words._ATTEMPT_LETTERS, words._FIND_LETTERS
    for length in (0, 1, n - 1, n, n + 1, m - 2, m - 1, m, m + 1, 1024):
        nf = words.normalize(p, random_letters(rng, p.alphabet, 4 * length))
        nf = nf[:length]
        for bad in ("Q", "é", "5", "\n", "Qé"):
            k = rng.randint(0, len(nf))
            w = nf[:k] + bad + nf[k:]
            f = rng.randint(0, len(w))
            for w in (w, w[:f] + rng.choice(p.fault_factors) + w[f:]):
                with pytest.raises(UnknownLetterError) as want:
                    p.check_word(w)
                assert repr(bad[0]) in str(want.value)
                with pytest.raises(UnknownLetterError) as got:
                    words.normalize(p, w)
                assert str(got.value) == str(want.value), w


@pytest.mark.parametrize("name", RELATOR_FREE)
def test_an_undeclared_character_anywhere_fails_typed(request, name):
    # an undeclared ASCII letter, also before its inverse (their codes XOR
    # to 0x20, as a declared inverse pair's do), NUL (the fault class of an
    # undeclared code), a non-ASCII letter and a lone surrogate (what a
    # command line byte that is not UTF-8 decodes to), first, in the middle
    # or last, in raw words and normal forms below and above _FIND_LETTERS:
    # normalize and word_problem raise UnknownLetterError naming it
    p = request.getfixturevalue(name)
    assert "q" not in p.letter_kind
    rng = random.Random(50)
    n = words._FIND_LETTERS
    for lo, hi in ((1, 20), (130, 300), (n, 2 * n)):
        for trial in range(6):
            w = random_word(rng, p.alphabet, lo, hi)
            if trial % 2:
                w = words.normalize(p, w + w) or w
            for bad in ("q", "é", "\udc80", "qQ", "\0", "\xff"):
                m = len(w) // 2
                for x in (bad + w, w[:m] + bad + w[m:], w + bad):
                    for solve in (words.normalize, shortening.word_problem):
                        with pytest.raises(UnknownLetterError,
                                           match=re.escape(repr(bad[0]))):
                            solve(p, x)


def test_normalize_unknown_letter(pG2):
    with pytest.raises(UnknownLetterError):
        words.normalize(pG2, "z")


@pytest.mark.parametrize("w, letter", [
    ("xXz", "z"), ("ax\nb", "\n"), ("axA" * 10 + "xX?", "?"),
    ("axA" * 10 + "é" + "axA" * 10, "é"), ("xyXY" * 10 + " a", " "),
])
def test_normalize_names_the_undeclared_letter_wherever_it_is(pG2, w,
                                                              letter):
    # normalize checks letters on the way: the first undeclared one is
    # named whether a stretch, a stack pass or a fold meets it
    with pytest.raises(UnknownLetterError, match=re.escape(repr(letter))):
        words.normalize(pG2, w)


@pytest.mark.parametrize("bad", ["Q", "é"])
def test_an_undeclared_letter_in_a_long_normal_form_fails_typed(pG2, bad):
    # the fault search stops at an undeclared letter as at any fault, and
    # the error names the first such letter wherever it stands
    rng = random.Random(37)
    nf = ""
    while len(nf) < 4096:
        nf = words.normalize(pG2, nf + random_letters(rng, pG2.alphabet, 4096))
    nf = nf[:4096]
    other = "é" if bad == "Q" else "Q"
    for i in (0, 1, 2048, 4095, 4096):
        w = nf[:i] + bad + nf[i:]
        with pytest.raises(UnknownLetterError, match=repr(bad)):
            words.normalize(pG2, w)
        with pytest.raises(UnknownLetterError, match=repr(bad)):
            words.normalize(pG2, w + other)


def test_raw_syllables(pG2):
    # the reference splits a word as written, letter by letter
    assert reference.syllables(pG2, "axxYa") == [
        (HYPERBOLIC, "a", 0), (1, "xxY", 1), (HYPERBOLIC, "a", 4)]
    assert reference.syllables(pG2, "") == []


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE"])
def test_syllable_splitter_matches_letter_by_letter_definition(request, name):
    # normal_syllables splits a normal form as the reference does, and
    # count_syllables counts its syllables without the split
    p = request.getfixturevalue(name)
    rng = random.Random(23)
    for trial in range(800):
        hi = 200 if trial % 10 == 0 else 14
        v = words.normalize(p, random_word(rng, p.alphabet, 0, hi))
        assert p.normal_syllables(v) == [
            s for _, s, _ in reference.syllables(p, v)], v
        assert p.count_syllables(v) == len(p.normal_syllables(v)), v
