"""Seeded property tests of decide past the exhaustive radius.

On free2, Z * Z^2, Z * C2 and Z * F2 (the demo presentations that can have
tables): a conjugate pair v = g u g^-1 with |g| <= 3 is answered
conjugate, with a verified witness no longer than |u| + |v|, on normal
forms of up to 64 letters and, with |g| up to |u|/4, of 100 to 400; a
"not-conjugate" answer on short words is confirmed by the brute search
over the ball of radius 3; and cyclic_shorten keeps its contract on words
of up to 200 letters.  Examples are derandomized and bounded, so every run
checks the same pairs.

Z * S3 and Z * D4, whose finite factors are not abelian, run the same
properties as parametrized cases of their own, each with its own
derandomized examples, so that the demo presentations keep theirs; and
decide agrees there with metric_oracle.conjugacy_classes on seeded pairs
of the radius-6 ball.
"""

import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relconj import conjugacy, metric_oracle, shortening, tables, words
from relconj.presentation import load_presentation, parse_presentation

from conftest import ZD4_TEXT, ZS3_TEXT, random_word

PRES_DIR = Path(__file__).resolve().parents[1] / "demos" / "presentations"
NAMES = ("free2", "zxz2", "zc2", "zf2")
PERMUTATION_GROUPS = {"zs3": ZS3_TEXT, "zd4": ZD4_TEXT}
SEEDED = settings(derandomize=True, database=None, deadline=None)


@lru_cache(maxsize=None)
def _setup(name):
    p = (parse_presentation(PERMUTATION_GROUPS[name])
         if name in PERMUTATION_GROUPS
         else load_presentation(PRES_DIR / (name + ".txt")))
    profile = tables.profile_for(p)
    return p, profile, conjugacy.ConjugacyEngine(p, profile)


def _word(draw, p, max_size):
    # lengths uniform up to max_size; st.lists would favour short words
    return random_word(draw(st.randoms(use_true_random=False)), p.alphabet,
                       0, max_size)


def _rng(data):
    # a plain seeded generator: Hypothesis's randoms record every call,
    # which long words cannot afford
    return random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))


@settings(SEEDED, max_examples=300)
@given(st.sampled_from(NAMES), st.data())
def test_conjugates_get_short_verified_witnesses(name, data):
    p, profile, engine = _setup(name)
    u = words.normalize(p, _word(data.draw, p, 64))
    g = _word(data.draw, p, 3)
    v = words.normalize(p, g + u + words.inverse(g))
    cert = conjugacy.decide(p, profile, u, v, engine=engine)
    assert cert.answer == "conjugate"
    w = cert.witness
    assert words.normalize(p, w + u + words.inverse(w)) == v
    assert len(w) <= len(u) + len(v)


@settings(SEEDED, max_examples=300)
@given(st.sampled_from(NAMES), st.data())
def test_negative_answers_agree_with_the_brute_search(name, data):
    p, profile, engine = _setup(name)
    u = _word(data.draw, p, 5)
    # a conjugate of u or of a random word, so that near misses come up
    w = data.draw(st.sampled_from([u, _word(data.draw, p, 5)]))
    g = _word(data.draw, p, 3)
    v = g + w + words.inverse(g)
    cert = conjugacy.decide(p, profile, u, v, engine=engine)
    if cert.answer == "not-conjugate":
        assert metric_oracle.brute_conjugate(p, u, v, 3) is None


@settings(SEEDED, max_examples=100)
@given(st.sampled_from(NAMES), st.data())
def test_long_conjugates_get_short_verified_witnesses(name, data):
    p, profile, engine = _setup(name)
    rng = _rng(data)
    # a prefix of a normal form is one in every factor kind here
    u = words.normalize(p, random_word(rng, p.alphabet, 1600, 1600))
    u = u[:rng.randint(100, 400)]
    assert len(u) >= 100 and words.normalize(p, u) == u
    g = random_word(rng, p.alphabet, 0, len(u) // 4)
    v = words.normalize(p, g + u + words.inverse(g))
    w = conjugacy.search(p, profile, u, v, engine=engine)
    assert words.normalize(p, w + u + words.inverse(w)) == v
    assert len(w) <= len(u) + len(v)


@settings(SEEDED, max_examples=300)
@given(st.sampled_from(NAMES), st.data())
def test_cyclic_shorten_contract(name, data):
    p, profile, engine = _setup(name)
    rng = _rng(data)
    # random words, or words in one factor, whose forms are one syllable
    factors = [par.letters for par in p.parabolics]
    w = random_word(rng, rng.choice([p.alphabet] + factors), 0, 200)
    res = shortening.cyclic_shorten(p, w)
    form, a = res.output, res.conjugator
    assert words.normalize(p, form) == form
    again = shortening.cyclic_shorten(p, form)
    assert (again.output, again.conjugator) == (form, "")
    assert words.normalize(p, words.inverse(a) + w + a) == form
    g = random_word(rng, p.alphabet, 0, 8)
    conjugate = g + w + words.inverse(g)
    if res.cyclic_length != 1:
        assert shortening.cyclic_shorten(p, conjugate).output == form
    else:
        # one syllable in a free factor is not rotated to a canonical
        # form (yxyX and Xyxy on Z * F2), so only decide can compare them
        cert = conjugacy.decide(p, profile, w, conjugate, engine=engine)
        assert cert.answer == "conjugate"


PROPERTIES = (test_conjugates_get_short_verified_witnesses,
              test_negative_answers_agree_with_the_brute_search,
              test_long_conjugates_get_short_verified_witnesses,
              test_cyclic_shorten_contract)


@pytest.mark.parametrize("name", sorted(PERMUTATION_GROUPS))
@pytest.mark.parametrize("prop", PROPERTIES,
                         ids=[t.__name__[5:] for t in PROPERTIES])
@settings(SEEDED, max_examples=100)
@given(data=st.data())
def test_properties_on_permutation_groups(prop, name, data):
    # each property above, its body run on one presentation
    prop.hypothesis.inner_test(name, data)


@pytest.mark.parametrize("name", sorted(PERMUTATION_GROUPS))
def test_decide_agrees_with_the_classes_of_a_ball(name):
    # 3,000 seeded pairs of the radius-6 ball (6,018 elements of Z * S3 and
    # 14,356 of Z * D4), which takes about 1 s: u, then a member of u's
    # class or any element.  The classes are the ball oracle's, by
    # reference.conjugacy_key
    p, profile, engine = _setup(name)
    classes = metric_oracle.conjugacy_classes(p, 6)
    members = {}
    for w, rep in classes.items():
        members.setdefault(rep, []).append(w)
    ball = list(classes)
    rng = random.Random(42)
    seen = set()
    for i in range(3000):
        u = rng.choice(ball)
        v = rng.choice(members[classes[u]] if i % 2 else ball)
        want = classes[u] == classes[v]
        got = conjugacy.decide(p, profile, u, v, engine=engine).answer
        assert (got == "conjugate") == want, (u, v)
        seen.add((want, u != v))
    assert seen == {(True, True), (True, False), (False, True)}, seen
