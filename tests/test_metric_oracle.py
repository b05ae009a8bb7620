import random
from fractions import Fraction

import pytest

from relconj import (metric_oracle as mo, parabolic_oracles, reference,
                     shortening, words)
from relconj.errors import BudgetExceededError, OracleUnavailableError
from relconj.presentation import HYPERBOLIC, Frozen, load_presentation

from conftest import ZF2_PATH, random_word


def test_ball_sizes(pF, pG2):
    assert len(mo.ball(pF, 0)) == 1
    assert len(mo.ball(pF, 1)) == 5
    assert len(mo.ball(pF, 2)) == 17
    assert len(mo.ball(pG2, 1)) == 7
    assert len(mo.ball(pG2, 4)) == 609


def test_ball_elements_come_in_shortlex_order(pG2, pZF2, pTHREE):
    # a breadth-first search meets the letters of a finite factor out of
    # rank order: in C5 the inverse A of a is e, met before c
    twin = load_presentation(ZF2_PATH.with_name("c5c7_twin.txt"))
    for p in (pG2, pZF2, pTHREE, twin):
        for r in range(4):
            elements = mo.ball(p, r).elements
            assert elements == sorted(elements, key=p.shortlex_key)


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
    assert mo.normal_form(pG2, "xyX") in index
    assert mo.normal_form(pG2, "aaa") not in index
    assert "" in index


def test_gamma_length(pG2):
    assert mo.gamma_length(pG2, "") == 0
    assert mo.gamma_length(pG2, "xyX") == 1
    assert mo.gamma_length(pG2, "axxa") == 4


def test_gamma_triangle_inequality_sampled(pG2):
    rng = random.Random(5)
    for _ in range(100):
        u = random_word(rng, pG2.alphabet, 0, 5)
        v = random_word(rng, pG2.alphabet, 0, 5)
        assert (mo.gamma_length(pG2, u + v)
                <= mo.gamma_length(pG2, u) + mo.gamma_length(pG2, v))


def test_normal_form_free_product(pG2):
    assert mo.normal_form(pG2, "xyXY") == ""
    assert mo.normal_form(pG2, "yx") == "xy"


def test_relative_length_examples(pG2):
    assert mo.relative_length(pG2, "xxx") == 1
    assert mo.relative_length(pG2, "axxa") == 3
    assert mo.relative_length(pG2, "") == 0


def test_coned_graph_distances_are_syllable_counts(pF, pG2, pZC2, pZF2):
    # Every geodesic between two vertices of the ball runs through
    # prefixes of their normal forms, so the search inside the ball finds
    # the relative length of u^-1 v; a coset clique that is missing,
    # merged with another or split moves some distance off it.  This also
    # checks the syllable count of relative_length against the graph.
    for p in (pF, pG2, pZC2, pZF2):
        graph = mo.ConedGraph(p, 3)
        for s, u in enumerate(graph.verts):
            assert graph.bfs(s)[0] == [
                mo.relative_length(p, words.inverse(u) + v)
                for v in graph.verts], (p.label, u)


def test_relative_length_never_exceeds_decomposition(pG2):
    rng = random.Random(6)
    for _ in range(80):
        w = random_word(rng, pG2.alphabet, 0, 6)
        assert (mo.relative_length(pG2, w) <= len(reference.syllables(
            pG2, words.normalize(pG2, w))))


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
        u = random_word(rng, pG2.alphabet, 0, 3)
        v = random_word(rng, pG2.alphabet, 0, 3)
        g = mo.brute_conjugate(pG2, u, v, 3)
        h = mo.brute_conjugate(pG2, v, u, 3)
        assert (g is None) == (h is None)
        if g is not None:
            assert words.normalize(pG2, g + u + words.inverse(g)) \
                == words.normalize(pG2, v)
            assert words.normalize(pG2, h + v + words.inverse(h)) \
                == words.normalize(pG2, u)


def test_conjugacy_classes_partition(pF, pG2, pZC2, pZF2, pTHREE):
    # the classes are sound (each member is conjugate to its representative
    # by a brute conjugator) and closed under single-letter conjugation
    # inside the ball, so each class of that closure lies in one class
    for p, radius in ((pF, 3), (pG2, 3), (pZC2, 3), (pZF2, 3), (pTHREE, 2)):
        classes = mo.conjugacy_classes(p, radius)
        assert set(classes) == set(mo.ball(p, radius).elements)
        for w, rep in classes.items():
            assert classes[rep] == rep
            # the representative is the shortlex least member
            assert p.shortlex_key(rep) <= p.shortlex_key(w)
            assert mo.brute_conjugate(p, rep, w, radius) is not None, w
            for c in p.alphabet:
                y = mo.normal_form(p, c + w + words.inverse(c))
                if y in classes:
                    assert classes[y] == rep, (w, c)


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


def cycle_graph(p, n):
    """The n-cycle as a ConedGraph with no cliques, its vertex 0 the
    identity: what estimate_delta reads of the coned-off graph."""
    g = object.__new__(mo.ConedGraph)
    g.p, g._id, g.verts = p, {"": 0}, list(range(n))
    g.adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    g.cliques, g.vert_cliques = [], [[] for _ in range(n)]
    return g


@pytest.mark.parametrize("n, delta", [(6, 1), (12, 3)])
def test_estimate_delta_gap_loop(monkeypatch, pF, n, delta):
    # the coned-off graphs of the presentations here are tree-like, so the
    # thin-triangle gap loop only runs on a stub: the n-cycle, with r = n/2
    # taking in every vertex.  Each side has at most n/2 edges, so a vertex
    # off the other two sides lies within floor(n/4) of an end of its own
    # side, which they contain; and the triangle (0, n/2, c), with c on the
    # half of the cycle that the side from 0 to n/2 leaves out, puts the
    # middle of that side floor(n/4) away from both other sides
    monkeypatch.setattr(mo, "_coned_graph",
                        lambda p, radius, budget=None: cycle_graph(p, n))
    assert mo.estimate_delta(pF, n // 2) == delta


class QuasiGeodesicParams(Frozen):
    _fields = ("lam", "eps")

    def __init__(self, lam: Fraction, eps: Fraction):
        lam, eps = Fraction(lam), Fraction(eps)
        self._freeze(lam, eps)
        if lam < 1 or eps < 0:
            raise ValueError("need lambda >= 1 and epsilon >= 0")


def path_backtracks(p, path_word) -> bool:
    """True if the path labeled by path_word from the identity leaves some
    parabolic coset and later re-enters it: two of its parabolic runs lie
    in one left coset, keyed by the run's kind and the coset key of the
    normal form of the prefix before the run."""
    seen = set()
    for kind, _, start in reference.syllables(p, path_word):
        if kind == HYPERBOLIC:
            continue
        prefix = mo.normal_form(p, path_word[:start])
        key = (kind, mo._coset_key(p, prefix, kind))
        if key in seen:
            return True
        seen.add(key)
    return False


def is_quasi_geodesic(p, w: str, params: QuasiGeodesicParams) -> bool:
    """Check the relative quasi-geodesic inequality on every subpath."""
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n + 1):
            seg = w[i:j]
            arc = len(reference.syllables(p, seg))
            d = mo.relative_length(p, seg)
            if arc > params.lam * d + params.eps:
                return False
    return True


def test_quasi_geodesic_params_validation():
    with pytest.raises(ValueError):
        QuasiGeodesicParams(0, 0)
    with pytest.raises(ValueError):
        QuasiGeodesicParams(1, -1)
    qp = QuasiGeodesicParams(2, 0)
    assert qp.lam == 2 and qp.eps == 0


def test_path_backtracks(pF, pG2, pZF2, pZC2):
    # in xaAx the cancellation aA rejoins 1*P; in xax the coset x*a*P
    # differs from P.  Free2 has no parabolic coset, Z * Z^2 free abelian
    # ones, Z * F2 free ones and Z * C2 finite ones
    for p, backtracking, clean in [
            (pF, [], ["aAa", "abBA", "abab"]),
            (pG2, ["xaAx", "xaAy"], ["xax", "xxayy"]),
            (pZF2, ["xaAx", "xaAy"], ["xax", "xxayy"]),
            (pZC2, ["taAt"], ["tat"])]:
        for w in backtracking:
            assert path_backtracks(p, w), (p.label, w)
        for w in clean:
            assert not path_backtracks(p, w), (p.label, w)


def test_is_quasi_geodesic_rejects_a_detour(pG2):
    # xaAy has 4 syllables between endpoints at relative distance 1
    qp = QuasiGeodesicParams(1, 0)
    assert not is_quasi_geodesic(pG2, "xaAy", qp)
    assert is_quasi_geodesic(pG2, "xay", qp)


def test_certified_local_geodesics_are_quasi_geodesic(pF, tF, pG2, tG2, pZF2,
                                                     tZF2, pZC2, tZC2):
    # lambda = (k + 4 delta) / (k - 4 delta), eps = 2 delta, from each
    # presentation's profile
    for p, t in [(pF, tF), (pG2, tG2), (pZF2, tZF2), (pZC2, tZC2)]:
        k, delta = t.profile.k, t.profile.delta
        qp = QuasiGeodesicParams(Fraction(k + 4 * delta, k - 4 * delta),
                                 2 * delta)
        rng = random.Random(9)
        for _ in range(60):
            w = random_word(rng, p.alphabet, 0, 8)
            out = shortening.shorten(p, w).output
            assert is_quasi_geodesic(p, out, qp), (p.label, w)
            assert not path_backtracks(p, out), (p.label, w)


def _ground_truth(p):
    """What the ball oracle and the reference answer on p, from empty
    caches: normal forms, lengths and geodesic tests of sampled words, the
    radius-3 ball, its conjugacy classes and brute conjugators between
    pairs of short elements."""
    for cached in (mo.ball, mo._coned_graph, mo.conjugacy_classes):
        cached.cache_clear()
    rng = random.Random(8)
    sample = [random_word(rng, p.alphabet, 0, 12) for _ in range(60)]
    short = mo.ball(p, 1).elements
    return ([(reference.normal_form(p, w), mo.relative_length(p, w),
              mo.is_relative_geodesic(p, w)) for w in sample],
            mo.ball(p, 3).dist, mo.conjugacy_classes(p, 3),
            [mo.brute_conjugate(p, u, v, 2) for u in short for v in short])


@pytest.mark.parametrize("name", ["free2", "zxz2", "zc2", "zf2"])
def test_ground_truth_shares_no_code_with_the_fast_path(monkeypatch, name):
    # with words.normalize and every oracle's push, state_word and
    # geodesic_form raising, the ground truth answers as it does without
    p = load_presentation(ZF2_PATH.with_name(name + ".txt"))
    want = _ground_truth(p)

    def boom(*args):
        raise AssertionError("the ground truth called the fast path")

    monkeypatch.setattr(words, "normalize", boom)
    for cls in vars(parabolic_oracles).values():
        if isinstance(cls, type) and issubclass(
                cls, parabolic_oracles.ParabolicOracle):
            for method in ("push", "state_word", "geodesic_form"):
                if method in vars(cls):
                    monkeypatch.setattr(cls, method, boom)
    with pytest.raises(AssertionError, match="fast path"):
        words.normalize(p, "aA")
    got = _ground_truth(p)
    assert got == want
    assert len(got[1]) == {"free2": 53, "zxz2": 143, "zc2": 22,
                           "zf2": 187}[name]


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
