import itertools
import random

import pytest

from relconj import conjugacy as cj, metric_oracle as mo, shortening as sh, tables as tb, words
from relconj.errors import NotConjugateError
from relconj.presentation import HYPERBOLIC, parse_presentation

ZZ_TEXT = """\
group zz2
hyperbolic a
parabolic free_abelian 2
letters x y
parabolic free_abelian 2
letters s t
constants delta=1 c2=1 c3=1 c7=1 threshold=3 r4=1 r5=1 r6=2 r9=2
"""


def rand_word(p, rng, hi):
    return "".join(rng.choice(p.alphabet) for _ in range(rng.randint(0, hi)))


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
        w = rand_word(pG2, rng, 8)
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
        w = rand_word(pG2, rng, 6)
        g = rand_word(pG2, rng, 3)
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
    assert cert.profile == tb.profile_hash(tF.profile)


def test_decide_record_format(pF, tF, pG2, tG2):
    cert = cj.decide(pF, tF, "ab", "ba")
    assert cert.to_record() == (
        "answer=conjugate witness=b reason=- regime=short-hyperbolic "
        "lbar=2 L=2 profile=%s verified=1" % tb.profile_hash(tF.profile))
    cert = cj.decide(pG2, tG2, "x", "y")
    assert cert.to_record() == (
        "answer=not-conjugate witness=- reason=parabolic-tables-miss "
        "regime=parabolic lbar=1 L=1 profile=%s verified=0"
        % tb.profile_hash(tG2.profile))


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
        u = rand_word(pG2, rng, 6)
        g = rand_word(pG2, rng, 4)
        v = words.mul(g, u, words.inverse(g))
        cert = cj.decide(pG2, tG2, u, v, engine=engG2)
        assert cert.answer == "conjugate"
        assert cert.verified
        assert sh.word_problem(
            pG2, words.mul(cert.witness, u, words.inverse(cert.witness),
                           words.inverse(v)))


def test_decide_is_symmetric(pG2, tG2, engG2):
    rng = random.Random(26)
    for _ in range(120):
        u = rand_word(pG2, rng, 4)
        v = rand_word(pG2, rng, 4)
        a = cj.decide(pG2, tG2, u, v, engine=engG2).answer
        b = cj.decide(pG2, tG2, v, u, engine=engG2).answer
        assert a == b


def test_decide_matches_closure_small_balls(pF, tF, engF, pG2, tG2, engG2,
                                            pZC2, tZC2):
    # exhaustive agreement with the conjugation-closure oracle on small
    # balls; the acceptance suite scales this check up
    for p, t, eng, radius in ((pF, tF, engF, 3), (pG2, tG2, engG2, 3),
                              (pZC2, tZC2, None, 3)):
        classes = mo.conjugacy_classes(p, radius)
        els = sorted(mo.ball(p, radius).elements, key=p.shortlex_key)
        eng = eng or cj.ConjugacyEngine(p, t)
        for u, v in itertools.product(els, els):
            want = classes[u] == classes[v]
            got = cj.decide(p, t, u, v, engine=eng).answer == "conjugate"
            assert got == want, (u, v)


def test_search_returns_verified_witness(pF, tF):
    g = cj.search(pF, tF, "ab", "ba")
    assert words.mul(g, "ab", words.inverse(g)) == "ba"


def test_search_raises_on_negative(pG2, tG2):
    with pytest.raises(NotConjugateError, match="class-mismatch"):
        cj.search(pG2, tG2, "a", "x")
    with pytest.raises(NotConjugateError):
        cj.search(pG2, tG2, "x", "y")


def test_search_accepts_matching_certificate(pF, tF):
    cert = cj.decide(pF, tF, "ab", "ba")
    assert cj.search(pF, tF, "ab", "ba", certificate=cert) == cert.witness


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


def test_engine_reuse_is_equivalent(pG2, tG2, engG2):
    rng = random.Random(27)
    for _ in range(60):
        u = rand_word(pG2, rng, 5)
        v = rand_word(pG2, rng, 5)
        fresh = cj.decide(pG2, tG2, u, v)
        cached = cj.decide(pG2, tG2, u, v, engine=engG2)
        assert fresh.answer == cached.answer
        assert fresh.to_record() == cached.to_record()


def cyclic_syllable_count(p, w):
    """Relative length of w read as a cyclic word: a parabolic run split
    across the ends counts once."""
    syls = words.raw_syllables(p, w)
    n = len(syls)
    if n >= 2 and syls[0].kind != HYPERBOLIC and syls[0].kind == syls[-1].kind:
        n -= 1
    return n


def test_cyclic_form_keeps_parabolic_runs_whole():
    # Two parabolic factors and no hyperbolic letter in the cyclic form: a
    # rotation by letters could start inside a run and count it twice in L.
    p = parse_presentation(ZZ_TEXT)
    t = tb.precompute(p)
    cert = cj.decide(p, t, "tYxTtS", "tYxTtS")
    assert cert.answer == "conjugate"
    assert cert.length == 2
    rep = cj.classify(p, t, "tYxTtS").representative
    assert words.raw_relative_length(p, rep) == 2
    eng = cj.ConjugacyEngine(p, t)
    rng = random.Random(28)
    for _ in range(300):
        w = rand_word(p, rng, 10)
        c = cj.classify(p, t, w, engine=eng)
        assert words.raw_relative_length(p, c.representative) == \
            cyclic_syllable_count(p, c.representative)
