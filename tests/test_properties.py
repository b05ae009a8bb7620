"""Seeded property tests of decide past the exhaustive radius.

On free2, Z * Z^2, Z * C2 and Z * F2 (the demo presentations that can have
tables): a conjugate pair v = g u g^-1 with |g| <= 3 is answered
conjugate, with a verified witness no longer than |u| + |v| on normal
forms of up to 64 letters; and a "not-conjugate" answer on short words is
confirmed by the brute search over the ball of radius 3.  Examples are
derandomized and bounded, so every run checks the same pairs.
"""

from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from relconj import conjugacy, metric_oracle, tables, words
from relconj.presentation import load_presentation

PRES_DIR = Path(__file__).resolve().parents[1] / "demos" / "presentations"
NAMES = ("free2", "zxz2", "zc2", "zf2")
SEEDED = settings(derandomize=True, database=None, deadline=None)


@lru_cache(maxsize=None)
def _setup(name):
    p = load_presentation(PRES_DIR / (name + ".txt"))
    profile = tables.profile_for(p)
    return p, profile, conjugacy.ConjugacyEngine(p, profile)


def _word(draw, p, max_size):
    # lengths uniform up to max_size; st.lists would favour short words
    rng = draw(st.randoms(use_true_random=False))
    return "".join(rng.choice(p.alphabet)
                   for _ in range(rng.randint(0, max_size)))


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
