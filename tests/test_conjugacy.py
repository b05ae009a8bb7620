import collections
import itertools
import random
import re

import pytest

from conftest import (G2_TEXT, THREE_TEXT, TWIN_PATH,
                      counted_inverse_spellings, pairs_around, random_word,
                      tries)
from relconj import (conjugacy as cj, metric_oracle as mo, reference,
                     shortening as sh, tables as tb, words)
from relconj.errors import (
    NotConjugateError,
    OracleUnavailableError,
    RelconjError,
    UnknownLetterError,
)
from relconj.presentation import (HYPERBOLIC, RelativePresentation,
                                  load_presentation, parse_presentation)

ZZ_TEXT = """\
group zz2
hyperbolic a
parabolic free_abelian 2
letters x y
parabolic free_abelian 2
letters s t
constants delta=1 c2=1 c3=1 threshold=3
"""


def test_classify_parabolic(pG2, tG2):
    c = cj.classify(pG2, tG2, "axA")
    assert c.verdict == "parabolic"
    assert c.index == 1
    assert c.representative == "x"
    assert c.conjugator == "a"
    assert not c.identity


def test_classify_hyperbolic(pG2, tG2):
    c = cj.classify(pG2, tG2, "a")
    assert c.verdict == "hyperbolic"
    assert c.index is None
    assert c.representative == "a"
    assert not c.identity


def test_classify_identity(pG2, tG2, pF, tF):
    c = cj.classify(pG2, tG2, "")
    assert (c.verdict, c.identity) == ("parabolic", True)
    assert cj.classify(pG2, tG2, "xyXY").identity
    # with no parabolics the trivial element counts as hyperbolic
    c = cj.classify(pF, tF, "")
    assert (c.verdict, c.identity) == ("hyperbolic", True)


def test_classify_long_word_is_hyperbolic(pG2, tG2):
    c = cj.classify(pG2, tG2, "axaxax")
    assert c.verdict == "hyperbolic"
    assert c.index is None


def test_classify_representative_relation(pG2, tG2):
    # representative = conjugator^-1 * word * conjugator, always verified
    rng = random.Random(23)
    for _ in range(150):
        w = random_word(rng, pG2.alphabet, 0, 8)
        c = cj.classify(pG2, tG2, w)
        assert sh.word_problem(
            pG2,
            words.mul(words.inverse(c.conjugator), w, c.conjugator,
                      words.inverse(c.representative)))
        if c.verdict == "parabolic" and not c.identity:
            assert c.index == 1
            assert all(pG2.letter_kind[ch] == 1 for ch in c.representative)


def test_classify_agrees_between_conjugates(pG2, tG2):
    rng = random.Random(24)
    for _ in range(100):
        w = random_word(rng, pG2.alphabet, 0, 6)
        g = random_word(rng, pG2.alphabet, 0, 3)
        a = cj.classify(pG2, tG2, w)
        b = cj.classify(pG2, tG2, words.mul(g, w, words.inverse(g)))
        assert a.verdict == b.verdict


def test_decide_short_hyperbolic(pF, tF):
    cert = cj.decide(pF, tF, "ab", "ba")
    assert cert.answer == "conjugate"
    assert cert.witness == "b"
    assert cert.regime == "short-hyperbolic"
    assert cert.reason is None
    assert (cert.lbar, cert.length) == (2, 2)
    assert cert.verified
    assert cert.profile == tF.profile.hash


def test_decide_record_format(pF, tF, pG2, tG2):
    cert = cj.decide(pF, tF, "ab", "ba")
    assert cert.to_record() == (
        "answer=conjugate witness=b reason=- regime=short-hyperbolic "
        "lbar=2 L=2 profile=%s verified=1" % tF.profile.hash)
    cert = cj.decide(pG2, tG2, "x", "y")
    assert cert.to_record() == (
        "answer=not-conjugate witness=- reason=parabolic-tables-miss "
        "regime=parabolic lbar=1 L=1 profile=%s verified=0"
        % tG2.profile.hash)


def test_decide_reads_only_the_profile(pG2, tG2):
    # tables are accepted for their profile alone: the certificates, profile
    # hash included, are those of the bare profile
    prof = tb.profile_for(pG2)
    for u, v in (("axA", "x"), ("x", "y"), ("a", "x"), ("axyA", "yx"),
                 ("axxyAy", "xxyyA"), ("axxyAy", "yaxxyA")):
        assert cj.decide(pG2, prof, u, v).to_record() == \
            cj.decide(pG2, tG2, u, v).to_record()


def test_engine_refuses_relators(pC5):
    # cyclic forms are canonical only in a free product, so the engine
    # refuses relators and takes no triviality test
    prof = tb.profile_for(pC5)
    with pytest.raises(OracleUnavailableError, match="relators get no tables"):
        cj.decide(pC5, prof, "a", "aaaaaa")
    with pytest.raises(OracleUnavailableError, match="relators get no tables"):
        cj.bounded_class(pC5, prof, "a", 2)


def test_decide_parabolic_pairs(pG2, tG2):
    cert = cj.decide(pG2, tG2, "x", "y")
    assert cert.answer == "not-conjugate"
    assert cert.regime == "parabolic"
    cert = cj.decide(pG2, tG2, "axxA", "xx")
    assert cert.answer == "conjugate"
    assert cert.regime == "parabolic"
    assert sh.word_problem(
        pG2, words.mul(cert.witness, "axxA", words.inverse(cert.witness),
                       words.inverse("xx")))


def test_decide_class_mismatch(pG2, tG2):
    cert = cj.decide(pG2, tG2, "a", "x")
    assert cert.answer == "not-conjugate"
    assert cert.reason == "class-mismatch"
    cert = cj.decide(pG2, tG2, "", "a")
    assert cert.answer == "not-conjugate"
    assert cert.reason == "class-mismatch"


def test_decide_identity_pair(pG2, tG2):
    cert = cj.decide(pG2, tG2, "", "xyXY")
    assert cert.answer == "conjugate"
    assert cert.witness == ""
    assert cert.verified


def test_decide_long_regime(pG2, tG2):
    cert = cj.decide(pG2, tG2, "axaxax", "xaxaxa")
    assert cert.answer == "conjugate"
    assert cert.regime == "long"
    assert cert.length > tG2.profile.threshold
    assert sh.word_problem(
        pG2, words.mul(cert.witness, "axaxax", words.inverse(cert.witness),
                       words.inverse("xaxaxa")))


def test_decide_positive_witnesses_verify(pG2, tG2, engG2):
    rng = random.Random(25)
    for _ in range(150):
        u = random_word(rng, pG2.alphabet, 0, 6)
        g = random_word(rng, pG2.alphabet, 0, 4)
        v = words.mul(g, u, words.inverse(g))
        cert = cj.decide(pG2, tG2, u, v, engine=engG2)
        assert cert.answer == "conjugate"
        assert cert.verified
        assert sh.word_problem(
            pG2, words.mul(cert.witness, u, words.inverse(cert.witness),
                           words.inverse(v)))


@pytest.mark.parametrize("u, v, witness", [
    ("aAx", "axA", "a"), ("xaAy", "Axya", "A"), ("aAxyYx", "axxA", "a"),
    ("xXaAaxA", "AaxAa", "A"), ("axXAaxA", "yxYAa", "A"),
])
def test_decide_with_an_unreduced_u_verifies_its_witness(pG2, tG2, u, v,
                                                          witness):
    # mul needs freely reduced parts; decide checks its witness on the
    # normal form of u, so an unreduced u keeps the witness it always had
    cert = cj.decide(pG2, tG2, u, v)
    assert cert.answer == "conjugate" and cert.verified
    assert cert.witness == witness
    assert sh.word_problem(pG2, words.mul(witness, u, words.inverse(witness),
                                          words.inverse(v)))


def test_wrong_witness_fails_verification(monkeypatch, pF, tF, pG2, tG2):
    # equal cyclic forms answered with the conjugator a instead of the
    # empty word: the witness check against v's normal form has to catch it
    def off_by_a(self, alpha, beta, regime):
        if alpha == beta:
            return ("conjugate", "a")
        return ("not-conjugate", cj.LONG_EXHAUSTED)

    monkeypatch.setattr(cj.ConjugacyEngine, "core", off_by_a)
    for p, t, u, v in ((pF, tF, "ab", "ba"), (pG2, tG2, "axay", "yaxa")):
        with pytest.raises(RelconjError,
                           match="conjugacy witness failed verification"):
            cj.decide(p, t, u, v)


def long_conjugate_pair(p, seed):
    """(u, v, g): a cyclically reduced normal form u of 512 letters and its
    conjugate v = g u g^-1 under a normal form g of 128 letters, with
    nothing cancelling or merging where they meet, so v is a normal form
    of 768 letters."""
    rng = random.Random(seed)

    def normal_form(n):
        for _ in tries("long_conjugate_pair"):
            w = words.normalize(p, "".join(
                rng.choice(p.alphabet) for _ in range(4 * n)))[:n]
            if len(w) == n:
                return w

    for _ in tries("long_conjugate_pair"):
        u = normal_form(512)
        if words.normalize(p, u + u) == u + u:  # no reduction across ends
            break
    for _ in tries("long_conjugate_pair"):
        g = normal_form(128)
        v = words.normalize(p, g + u + words.inverse(g))
        if len(v) == 768:
            return u, v, g


def record_checks(monkeypatch):
    """Lists that fill, while the test runs, with the (w, x, nf) of every
    same_element check and the word of every normalize call."""
    checked, normalized = [], []
    real_check, real_normalize = sh.same_element, words.normalize

    def recording(p, x, w, nf):
        checked.append((w, x, nf))
        return real_check(p, x, w, nf)

    def counting(p, w):
        normalized.append(w)
        return real_normalize(p, w)

    monkeypatch.setattr(sh, "same_element", recording)
    monkeypatch.setattr(words, "normalize", counting)
    return checked, normalized


def test_long_witness_checks_have_no_fault_to_fold(monkeypatch, pG2, tG2):
    # the products behind decide's check and cyclic_shorten(v)'s are normal
    # forms except at their joins, and here nothing happens at the joins:
    # each product is spelled exactly as the normal form it is checked
    # against, so the check is one string compare and normalize runs only
    # on the inputs.  A work count, not a timing: the plain spelling of
    # g^-1 writes every Z^2 run backwards
    u, v, g = long_conjugate_pair(pG2, 45)
    checked, normalized = record_checks(monkeypatch)
    cert = cj.decide(pG2, tG2, u, v)
    assert cert.answer == "conjugate" and cert.verified
    assert cert.witness == g
    # cyclic_shorten(u), cyclic_shorten(v), then decide
    assert [w for w, _, _ in checked] == [u, v, v]
    for w, x, nf in checked:
        assert x == nf, x
        assert pG2.fault_pattern.findall(x) == [], x
    assert normalized == [u, v]
    assert checked[2][1] == g + u + pG2.inverse_form(g)
    plain = words.mul(g, u, words.inverse(g))
    assert len(pG2.fault_pattern.findall(plain)) > 10


def test_a_long_positive_decide_spells_the_inverse_of_its_conjugator_once(
        monkeypatch):
    # v = g u g^-1 is read around u's cyclic form, which compares v's tail
    # with inverse_form(g); the checks of v's conjugator and of the witness
    # need the same word, and a one-entry memo gives it them.  A work
    # count on a fresh presentation, so that no memo is left from before
    p = parse_presentation(G2_TEXT)
    u, v, g = long_conjugate_pair(p, 45)
    spelled = counted_inverse_spellings(monkeypatch)
    cert = cj.decide(p, tb.profile_for(p), u, v)
    assert cert.answer == "conjugate" and cert.witness == g
    assert spelled.count(g) == 1
    assert all(len(w) < len(g) for w in spelled if w != g)


def test_a_short_witness_check_with_faults_goes_through_normalize(
        monkeypatch, pG2, tG2):
    # a witness shorter than _PLAIN_INVERSE_LETTERS keeps the plain inverse,
    # so its Z^2 run is spelled backwards and the product has a fault: it is
    # not the normal form of v as written, and verifies through normalize
    u = "aaxyaxxY" * 10
    g = "xy"
    assert len(g) < words._PLAIN_INVERSE_LETTERS
    v = words.normalize(pG2, g + u + words.inverse(g))
    checked, normalized = record_checks(monkeypatch)
    cert = cj.decide(pG2, tG2, u, v)
    assert cert.answer == "conjugate" and cert.verified
    assert cert.witness == g
    _, x, nf = checked[-1]
    assert x != nf and pG2.fault_pattern.search(x)
    assert normalized[-1] == x and words.normalize(pG2, x) == nf


def test_a_wrong_long_check_spelling_or_witness_is_caught(monkeypatch, pG2,
                                                          tG2):
    # the checks spell the uncancelled part of g^-1 with inverse_form; one
    # run of it spelled wrong, or a witness one letter off, must fail the
    # check, never pass as "conjugate"
    u, v, g = long_conjugate_pair(pG2, 46)
    eng = cj.ConjugacyEngine(pG2, tG2)
    eng.cyclic(u), eng.cyclic(v)  # checked with the right spelling
    real = RelativePresentation.inverse_form

    def one_run_inverted(self, w):
        out = real(self, w)
        run = re.search("[xXyY]+", out)
        return out[: run.start()] + run[0].swapcase() + out[run.end() :]

    with monkeypatch.context() as m:
        m.setattr(RelativePresentation, "inverse_form", one_run_inverted)
        with pytest.raises(RelconjError,
                           match="conjugacy witness failed verification"):
            cj.decide(pG2, tG2, u, v, engine=eng)
        with pytest.raises(RelconjError, match="cyclic shortening produced "
                                               "an invalid conjugator"):
            sh.cyclic_shorten(pG2, v)

    def off_by_a(self, alpha, beta, regime):
        return ("conjugate", "a") if alpha == beta else (
            "not-conjugate", cj.LONG_EXHAUSTED)

    monkeypatch.setattr(cj.ConjugacyEngine, "core", off_by_a)
    with pytest.raises(RelconjError,
                       match="conjugacy witness failed verification"):
        cj.decide(pG2, tG2, u, v, engine=eng)


def test_decide_is_symmetric(pG2, tG2, engG2):
    rng = random.Random(26)
    for _ in range(120):
        u = random_word(rng, pG2.alphabet, 0, 4)
        v = random_word(rng, pG2.alphabet, 0, 4)
        a = cj.decide(pG2, tG2, u, v, engine=engG2).answer
        b = cj.decide(pG2, tG2, v, u, engine=engG2).answer
        assert a == b


def test_decide_matches_closure_small_balls(pF, tF, engF, pG2, tG2, engG2,
                                            pZC2, tZC2, pZF2, tZF2):
    # exhaustive agreement with the ball oracle's conjugacy classes on small
    # balls, a free parabolic among them (187 elements of Z * F2); the
    # acceptance suite scales this check up
    for p, t, eng, radius in ((pF, tF, engF, 3), (pG2, tG2, engG2, 3),
                              (pZC2, tZC2, None, 3), (pZF2, tZF2, None, 3)):
        classes = mo.conjugacy_classes(p, radius)
        els = sorted(mo.ball(p, radius).elements, key=p.shortlex_key)
        eng = eng or cj.ConjugacyEngine(p, t)
        for u, v in itertools.product(els, els):
            want = classes[u] == classes[v]
            got = cj.decide(p, t, u, v, engine=eng).answer == "conjugate"
            assert got == want, (u, v)


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "pTHREE",
                                  "pZ2C2", "pZS3", "pZD4"])
def test_decide_agrees_with_the_reference_past_the_balls(request, name):
    # decide against conjugacy by the definition (reference.conjugacy_key)
    # on words longer than the exhaustive balls hold: conjugates g u g^-1,
    # words in one factor, their reverses and unrelated pairs
    p = request.getfixturevalue(name)
    eng = cj.ConjugacyEngine(p, tb.profile_for(p))
    rng = random.Random(43)
    factors = [par.letters for par in p.parabolics]
    seen = set()
    for _ in range(150):
        letters = rng.choice([p.alphabet] + factors)
        u = random_word(rng, letters, 0, 16)
        g = random_word(rng, p.alphabet, 0, 8)
        for v in (g + u + words.inverse(g), u[::-1],
                  random_word(rng, letters, 0, 16)):
            want = reference.conjugacy_key(p, u) == reference.conjugacy_key(
                p, v)
            got = cj.decide(p, eng.profile, u, v, engine=eng).answer
            assert (got == "conjugate") == want, (u, v)
            seen.add(want)
    assert seen == {True, False}


def test_decide_agrees_with_the_reference_on_z_s3(pZS3):
    # Z * S3, whose finite factor is not abelian, so that the oracle must
    # conjugate by an element other than the identity: decide against
    # reference.conjugacy_key on 2,000 seeded pairs, half of them with u in
    # S3.  v is a conjugate g u g^-1 or an unrelated word; 300 or more pairs
    # are parabolic and conjugate with unequal representatives
    p = pZS3
    eng = cj.ConjugacyEngine(p, tb.profile_for(p))
    rng = random.Random(47)
    factor = p.parabolics[0].letters
    seen = collections.Counter()
    for i in range(1000):
        letters = factor if i % 2 else p.alphabet
        u = random_word(rng, letters, 1, 12)
        g = random_word(rng, p.alphabet, 0, 6)
        for v in (g + u + words.inverse(g), random_word(rng, letters, 1, 12)):
            want = reference.conjugacy_key(p, u) == reference.conjugacy_key(
                p, v)
            cert = cj.decide(p, eng.profile, u, v, engine=eng)
            assert (cert.answer == "conjugate") == want, (u, v)
            moved = (eng.classification(u).representative
                     != eng.classification(v).representative)
            seen[cert.regime, want, moved] += 1
    assert seen[cj.PARABOLIC, True, True] >= 300, seen
    assert seen[cj.PARABOLIC, False, True] and seen[cj.SHORT, True, False]


@pytest.mark.parametrize("name", ["pF", "pG2", "pZC2", "pZF2", "twin",
                                  "pTHREE", "pZ2C2", "pZS3", "pZD4"])
def test_reading_v_against_u_answers_as_rotating_both(monkeypatch, request,
                                                      name):
    # decide reads v against u's cyclically reduced core, and rotates u's
    # core only on a hit, and v's never.  On 400 pairs_around pairs per
    # presentation (u of 8 syllables or more, so every pair passes
    # NEAR_CYCLE; on THREE and Z2C2 letter order is not syllable order, and
    # the finite factors of ZS3 and ZD4 are not abelian):
    # - the record is the one of an engine that holds v's cyclic form
    #   already, and so compares two cyclic forms;
    # - a positive answer's witness is verified, and a negative answer is
    #   the ground truth's;
    # - least_rotation is called (not counting its recursion) exactly once
    #   for a positive answer, on u's core, and never for a negative one;
    # - after a negative the engine hands out u's and v's canonical cyclic
    #   forms and classifications, as a fresh engine does.
    # Each presentation has 150 negatives or more
    p = (load_presentation(TWIN_PATH) if name == "twin"
         else request.getfixturevalue(name))
    profile = tb.profile_for(p, [])
    rotations = depth = negatives = 0
    original = sh.least_rotation

    def spy(s):
        nonlocal rotations, depth
        rotations += depth == 0
        depth += 1
        try:
            return original(s)
        finally:
            depth -= 1

    monkeypatch.setattr(sh, "least_rotation", spy)
    for u, v in pairs_around(p, random.Random(39), 400):
        eng = cj.ConjugacyEngine(p, profile)
        rotations = 0
        cert = cj.decide(p, profile, u, v, engine=eng)
        assert rotations == (cert.answer == "conjugate"), (u, v)
        rotated = cj.ConjugacyEngine(p, profile)
        rotated.cyclic(v)
        assert cert.to_record() == cj.decide(
            p, profile, u, v, engine=rotated).to_record(), (u, v)
        if cert.answer == "conjugate":
            assert cert.verified
        else:
            assert reference.conjugacy_key(p, u) != reference.conjugacy_key(
                p, v), (u, v)
            negatives += 1
            fresh = cj.ConjugacyEngine(p, profile)
            for w in (u, v):
                assert eng.cyclic(w) == fresh.cyclic(w)
                assert eng.classification(w) == fresh.classification(w)
    assert negatives >= 150, negatives


def test_decide_matches_closure_on_three_factor_kinds():
    # Z^2 * F2 * C3 * Z: parabolic pairs over a free (non-abelian) factor
    # and over two different factors, which the reference groups lack
    p = parse_presentation(THREE_TEXT)
    t = tb.precompute(p)
    classes = mo.conjugacy_classes(p, 2)
    els = sorted(mo.ball(p, 2).elements, key=p.shortlex_key)
    assert len(els) == 139
    eng = cj.ConjugacyEngine(p, t)
    parabolic = {}  # (same factor, answer) -> pairs in the parabolic regime
    for u, v in itertools.product(els, els):
        cert = cj.decide(p, t, u, v, engine=eng)
        assert (cert.answer == "conjugate") == (classes[u] == classes[v]), \
            (u, v)
        if cert.regime == cj.PARABOLIC:
            same = (eng.classification(u).index ==
                    eng.classification(v).index)
            key = (same, cert.answer)
            parabolic[key] = parabolic.get(key, 0) + 1
    assert sum(parabolic.values()) == 900
    assert parabolic[(False, "not-conjugate")] > 0
    assert parabolic[(True, "conjugate")] > 0
    # a free-factor pair whose witness is nontrivial
    cert = cj.decide(p, t, "uv", "vu", engine=eng)
    assert cert.answer == "conjugate" and cert.witness == "U"


def test_search_returns_verified_witness(pF, tF):
    g = cj.search(pF, tF, "ab", "ba")
    assert words.mul(g, "ab", words.inverse(g)) == "ba"


def test_search_raises_on_negative(pG2, tG2):
    with pytest.raises(NotConjugateError, match="class-mismatch"):
        cj.search(pG2, tG2, "a", "x")
    with pytest.raises(NotConjugateError):
        cj.search(pG2, tG2, "x", "y")


def test_search_accepts_matching_certificate(pF, tF):
    # search returns decide's verified witness
    cert = cj.decide(pF, tF, "ab", "ba")
    assert cj.search(pF, tF, "ab", "ba") == cert.witness


def test_bounded_class(pG2, tG2, pZC2, tZC2):
    bc = cj.bounded_class(pG2, tG2, "x", 2)
    assert set(bc) == {"x"}
    assert bc["x"] == ""
    bc = cj.bounded_class(pG2, tG2, "x", 3)
    assert set(bc) == {"x", "axA", "Axa"}
    for member, g in bc.items():
        assert sh.word_problem(
            pG2, words.mul(g, "x", words.inverse(g), words.inverse(member)))
    bc = cj.bounded_class(pZC2, tZC2, "t", 3)
    assert set(bc) == {"t", "atA", "Ata"}


def test_engine_reuse_is_equivalent(request, pG2, tG2, engG2):
    rng = random.Random(27)
    for _ in range(60):
        u = random_word(rng, pG2.alphabet, 0, 5)
        v = random_word(rng, pG2.alphabet, 0, 5)
        fresh = cj.decide(pG2, tG2, u, v)
        cached = cj.decide(pG2, tG2, u, v, engine=engG2)
        assert fresh.answer == cached.answer
        assert fresh.to_record() == cached.to_record()
    # long pairs of every pairs_around kind, conjugate (kind 0) and mostly
    # not (kinds 1 to 3), on an engine that holds v's cyclic form, then on
    # one that holds u's: the cached cyclic form must be compared with the
    # other word's cyclic form, not with its unrotated core, and afterwards
    # the engine keeps both words' cyclic forms, a fresh engine's.  Then one
    # engine shared over all ordered pairs of 20 long words answers each as
    # a fresh engine does.  u is a cyclically reduced normal form, its own
    # core, and at least 30 of the conjugate pairs on G2 have a u that is
    # not its cyclic form
    unrotated = 0
    for name in ("pF", "pG2", "pZC2", "pZF2", "twin", "pTHREE", "pZ2C2",
                 "pZS3", "pZD4"):
        p = (load_presentation(TWIN_PATH) if name == "twin"
             else request.getfixturevalue(name))
        profile = tb.profile_for(p, [])
        pairs = list(pairs_around(p, random.Random(41), 400))
        for i, (u, v) in enumerate(pairs):
            fresh = cj.decide(p, profile, u, v)
            assert fresh.answer == "conjugate" or i % 4, (name, u, v)
            for held in (v, u):
                eng = cj.ConjugacyEngine(p, profile)
                eng.cyclic(held)
                assert cj.decide(p, profile, u, v, engine=eng).to_record(
                ) == fresh.to_record(), (name, u, v, held)
                for w in (u, v):
                    assert w in eng._cyc, (name, u, v, held)
                    assert eng._cyc[w] == cj.ConjugacyEngine(
                        p, profile).cyclic(w), (name, u, v, held)
            unrotated += (name == "pG2" and i % 4 == 0
                          and sh.cyclic_shorten(p, u).output != u)
        long_words = [w for pair in pairs[:10] for w in pair]
        shared = cj.ConjugacyEngine(p, profile)
        for u, v in itertools.product(long_words, long_words):
            assert cj.decide(p, profile, u, v, engine=shared).to_record() == (
                cj.decide(p, profile, u, v).to_record()), (name, u, v)
    assert unrotated >= 30, unrotated


def cyclic_syllable_count(p, w):
    """Relative length of w read as a cyclic word: a parabolic run split
    across the ends counts once."""
    kinds = [kind for kind, _, _ in reference.syllables(p, w)]
    n = len(kinds)
    if n >= 2 and kinds[0] != HYPERBOLIC and kinds[0] == kinds[-1]:
        n -= 1
    return n


def test_linear_rel_is_the_shortened_relative_length(pF, tF, pG2, tG2, pZC2,
                                                     tZC2):
    rng = random.Random(31)
    for p, t in ((pF, tF), (pG2, tG2), (pZC2, tZC2)):
        eng = cj.ConjugacyEngine(p, t)
        for _ in range(400):
            w = random_word(rng, p.alphabet, 0, 20)
            assert eng.cyclic(w).linear_length == len(reference.syllables(
                p, sh.shorten(p, w).output))


def test_cyclic_form_keeps_parabolic_runs_whole():
    # Two parabolic factors and no hyperbolic letter in the cyclic form: a
    # rotation by letters could start inside a run and count it twice in L.
    p = parse_presentation(ZZ_TEXT)
    t = tb.precompute(p)
    cert = cj.decide(p, t, "tYxTtS", "tYxTtS")
    assert cert.answer == "conjugate"
    assert cert.length == 2
    rep = cj.classify(p, t, "tYxTtS").representative
    assert len(reference.syllables(p, rep)) == 2
    eng = cj.ConjugacyEngine(p, t)
    rng = random.Random(28)
    for _ in range(300):
        w = random_word(rng, p.alphabet, 0, 10)
        c = cj.classify(p, t, w, engine=eng)
        assert len(reference.syllables(p, c.representative)) == \
            cyclic_syllable_count(p, c.representative)


@pytest.mark.parametrize("w, message", [
    ("qax", "letter 'q' is not declared by 'g2'"),
    ("aqx", "letter 'q' is not declared by 'g2'"),
    ("axq", "letter 'q' is not declared by 'g2'"),
    ("a1", "letter '1' is not declared by 'g2'"),
    ("a x", "letter ' ' is not declared by 'g2'"),
    ("x\u00e9", "letter '\u00e9' is not declared by 'g2'"),
])
def test_unknown_letters_raise_the_typed_error(pG2, tG2, w, message):
    # the word check runs before any per-letter table lookup
    calls = [lambda: words.normalize(pG2, w),
             lambda: sh.word_problem(pG2, w),
             lambda: sh.cyclic_shorten(pG2, w),
             lambda: cj.decide(pG2, tG2, w, "a"),
             lambda: cj.decide(pG2, tG2, "a", w)]
    for call in calls:
        with pytest.raises(UnknownLetterError) as info:
            call()
        assert str(info.value) == message
