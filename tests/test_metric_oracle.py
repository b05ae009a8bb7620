import random

import pytest

from relconj import metric_oracle as mo, shortening, words
from relconj.errors import BudgetExceededError, OracleUnavailableError


def test_ball_sizes(pF, pG2):
    assert len(mo.ball(pF, 0)) == 1
    assert len(mo.ball(pF, 1)) == 5
    assert len(mo.ball(pF, 2)) == 17
    assert len(mo.ball(pG2, 1)) == 7
    assert len(mo.ball(pG2, 4)) == 609


def test_ball_budget(pG2):
    with pytest.raises(BudgetExceededError):
        mo.ball(pG2, 6, budget=100)


def test_ball_distances_are_exact(pG2):
    index = mo.ball(pG2, 3)
    for w, d in index.dist.items():
        assert len(words.normalize(pG2, w)) == d
        assert words.normalize(pG2, w) == w


def test_ball_is_inverse_closed(pG2):
    index = mo.ball(pG2, 3)
    for w in index.elements:
        assert words.normalize(pG2, words.inverse(w)) in index


def test_ball_find(pG2):
    index = mo.ball(pG2, 2)
    assert index.find(pG2, "xyX") == "y"
    assert index.find(pG2, "aaa") is None
    assert "" in index


def test_gamma_length(pG2):
    assert mo.gamma_length(pG2, "") == 0
    assert mo.gamma_length(pG2, "xyX") == 1
    assert mo.gamma_length(pG2, "axxa") == 4


def test_gamma_triangle_inequality_sampled(pG2):
    rng = random.Random(5)
    for _ in range(100):
        u = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 5)))
        assert (mo.gamma_length(pG2, u + v)
                <= mo.gamma_length(pG2, u) + mo.gamma_length(pG2, v))


def test_normal_form_free_product(pG2):
    assert mo.normal_form(pG2, "xyXY") == ""
    assert mo.normal_form(pG2, "yx") == "xy"


def test_relative_length_examples(pG2):
    assert mo.relative_length(pG2, "xxx") == 1
    assert mo.relative_length(pG2, "axxa") == 3
    assert mo.relative_length(pG2, "") == 0
    # the coned-graph search agrees with the syllable count
    assert mo.relative_length(pG2, "axxa", method="bfs") == 3
    assert mo.relative_length(pG2, "xxx", method="bfs") == 1


def test_relative_length_never_exceeds_decomposition(pG2):
    rng = random.Random(6)
    for _ in range(80):
        w = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 6)))
        assert (mo.relative_length(pG2, w) <= words.raw_relative_length(
            pG2, words.normalize(pG2, w)))


def test_is_relative_geodesic_examples(pG2):
    assert mo.is_relative_geodesic(pG2, "axa")
    assert not mo.is_relative_geodesic(pG2, "xyX")
    assert mo.is_relative_geodesic(pG2, "")
    # a non-geodesic parabolic run is rejected even with one syllable
    assert not mo.is_relative_geodesic(pG2, "xXx")


def test_brute_conjugate_examples(pF, pG2):
    assert mo.brute_conjugate(pF, "ab", "ba", 2) == "A"
    assert mo.brute_conjugate(pF, "a", "b", 4) is None
    assert mo.brute_conjugate(pG2, "x", "x", 0) == ""


def test_brute_conjugate_symmetry(pG2):
    rng = random.Random(7)
    for _ in range(40):
        u = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 3)))
        v = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 3)))
        g = mo.brute_conjugate(pG2, u, v, 3)
        h = mo.brute_conjugate(pG2, v, u, 3)
        assert (g is None) == (h is None)
        if g is not None:
            assert words.normalize(pG2, g + u + words.inverse(g)) \
                == words.normalize(pG2, v)
            assert words.normalize(pG2, h + v + words.inverse(h)) \
                == words.normalize(pG2, u)


def test_conjugacy_classes_partition(pG2):
    classes = mo.conjugacy_classes(pG2, 3)
    index = mo.ball(pG2, 3)
    assert set(classes) == set(index.elements)
    for w, rep in classes.items():
        assert classes[rep] == rep
        # class membership is conjugation-invariant inside the ball
        for c in pG2.alphabet:
            y = mo.normal_form(pG2, c + w + words.inverse(c))
            if y in classes:
                assert classes[y] == rep


def test_conjugacy_classes_match_brute_search(pF):
    classes = mo.conjugacy_classes(pF, 3)
    els = sorted(mo.ball(pF, 3).elements, key=pF.shortlex_key)
    for u in els[:25]:
        for v in els[:25]:
            want = classes[u] == classes[v]
            got = mo.brute_conjugate(pF, u, v, 4) is not None
            assert want == got


def test_estimate_delta(pF, pG2):
    assert mo.estimate_delta(pF, 3) == 0
    assert mo.estimate_delta(pG2, 0) == 0
    # the coned-off graph of a free product is tree-like at this scale
    assert mo.estimate_delta(pG2, 2) == 0


def test_quasi_geodesic_params_validation():
    with pytest.raises(ValueError):
        mo.QuasiGeodesicParams(0, 0)
    with pytest.raises(ValueError):
        mo.QuasiGeodesicParams(1, -1)
    qp = mo.QuasiGeodesicParams(2, 0)
    assert qp.lam == 2 and qp.eps == 0


def test_estimate_bcp(pF, pG2):
    qp = mo.QuasiGeodesicParams(2, 0)
    assert mo.estimate_bcp(pF, qp, 3) == 0
    assert mo.estimate_bcp(pG2, qp, 0) == 0
    assert mo.estimate_bcp(pG2, qp, 2) == 4
    assert mo.estimate_bcp(pG2, qp, 3) == 6


def test_estimate_bcp_needs_free_product(pC5):
    with pytest.raises(OracleUnavailableError):
        mo.estimate_bcp(pC5, mo.QuasiGeodesicParams(2, 0), 2)


def test_path_backtracks(pG2):
    assert mo.path_backtracks(pG2, "xaAx")       # cancellation rejoins 1*P
    assert mo.path_backtracks(pG2, "xaAy")
    assert not mo.path_backtracks(pG2, "xax")    # x*a*P differs from P
    assert not mo.path_backtracks(pG2, "xxayy")


def test_certified_local_geodesics_are_quasi_geodesic(pG2, tG2):
    # lambda = (k + 4 delta) / (k - 4 delta), eps = 2 delta
    from fractions import Fraction
    k, delta = tG2.profile.k, tG2.profile.delta
    qp = mo.QuasiGeodesicParams(Fraction(k + 4 * delta, k - 4 * delta), 2 * delta)
    rng = random.Random(9)
    for _ in range(60):
        w = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 8)))
        out = shortening.shorten(pG2, w).output
        assert mo.is_quasi_geodesic(pG2, out, qp)
        assert not mo.path_backtracks(pG2, out)


def test_relator_free_balls_are_cached_once(pG2):
    # keyed on (p, r, budget) however budget is passed
    mo.ball.cache_clear()
    mo.ball(pG2, 3)
    mo.ball(pG2, 3, budget=None)
    assert len(mo.ball(pG2, 3, None)) == 143
    info = mo.ball.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_relator_presentations_are_refused(pC5):
    # the oracle decides equality by the free-product normal form only
    calls = [lambda: mo.ball(pC5, 2), lambda: mo.normal_form(pC5, "aaa"),
             lambda: mo.gamma_length(pC5, "aaaa"),
             lambda: mo.relative_length(pC5, "aaaa"),
             lambda: mo.brute_conjugate(pC5, "a", "a", 1)]
    for call in calls:
        with pytest.raises(OracleUnavailableError, match="'c5' has relators"):
            call()
