from itertools import product

import pytest

from relconj import words
from relconj.errors import UnknownLetterError
from relconj.parabolic_oracles import (
    FiniteOracle,
    FreeAbelianOracle,
    FreeOracle,
)
from relconj.presentation import parse_presentation

from conftest import factor_ball

FREE_PAR_TEXT = """\
group wfree
hyperbolic a
parabolic free 2
letters u v
constants delta=1 c2=2 c3=2 budget=100000 threshold=3
"""


@pytest.fixture(scope="module")
def pFree():
    return parse_presentation(FREE_PAR_TEXT)


def test_oracles_for_picks_kinds(pG2, pZC2, pFree):
    assert isinstance(pG2.oracles[1], FreeAbelianOracle)
    assert isinstance(pZC2.oracles[1], FiniteOracle)
    assert isinstance(pFree.oracles[1], FreeOracle)


def test_abelian_geodesic_form(pG2):
    orc = pG2.oracles[1]
    assert orc.geodesic_form("xyX") == "y"
    assert orc.geodesic_form("yx") == "xy"
    assert orc.geodesic_form("xX") == ""
    assert len(orc.geodesic_form("xxY")) == 3
    assert len(orc.geodesic_form("xXy")) == 1
    assert orc.geodesic_form("xyXY") == ""
    assert orc.geodesic_form("x") != ""


def test_abelian_ball_is_shortlex_sorted(pG2):
    orc = pG2.oracles[1]
    ball2 = factor_ball(orc, 2)
    assert len(ball2) == orc.ball_size(2) == 13  # 1 + 4 + 8 lattice points
    assert ball2 == sorted(ball2, key=pG2.shortlex_key)
    assert ball2[0] == ""
    assert orc.ball_size(0) == 1


def test_ball_size_counts_the_ball(pTHREE):
    # each kind's closed form against the ball oracle's ball of the factor
    # alone: free abelian of rank 1 and 3 and free of rank 1 and 3 beside
    # the rank-2 factors and the finite one of zf3
    other = parse_presentation(
        "group q\nparabolic free_abelian 1\nletters a\n"
        "parabolic free_abelian 3\nletters b c d\n"
        "parabolic free 1\nletters e\nparabolic free 3\nletters f g h\n")
    oracles = list(pTHREE.oracles.values()) + list(other.oracles.values())
    assert {orc.descriptor.kind for orc in oracles} == {
        "free_abelian", "free", "finite"}
    for orc in oracles:
        for r in range(6):
            assert orc.ball_size(r) == len(factor_ball(orc, r)), (
                orc.descriptor, r)


def test_abelian_conjugacy_is_equality(pG2):
    orc = pG2.oracles[1]
    assert orc.conjugate("xy", "yx") == ""
    assert orc.conjugate("x", "y") is None


def test_free_oracle_reduces_words(pFree):
    orc = pFree.oracles[1]
    assert orc.geodesic_form("uvU") == "uvU"
    assert orc.geodesic_form("uU") == ""
    assert len(orc.geodesic_form("uUu")) == 1


def test_free_oracle_conjugation_convention(pFree):
    # conjugate(q1, q2) returns t with t * q1 * t^-1 = q2
    orc = pFree.oracles[1]
    t = orc.conjugate("uv", "vu")
    assert t == "U"
    assert orc.geodesic_form(t + "uv" + words.inverse(t)) == "vu"
    assert orc.conjugate("u", "v") is None


def test_free_oracle_ball_and_bound(pFree):
    orc = pFree.oracles[1]
    ball2 = factor_ball(orc, 2)
    assert orc.ball_size(2) == len(ball2) == 17  # 1 + 4 + 12 reduced words
    # the words of the ball are cyclically reduced, so each conjugator
    # undoes a rotation of at most one letter (uv onto vu takes U)
    assert max(len(t) for p in ball2 for q in ball2
               if (t := orc.conjugate(p, q)) is not None) == 1


def test_finite_oracle_torsion(pZC2):
    orc = pZC2.oracles[1]
    assert factor_ball(orc, 1) == ["", "t"] and orc.ball_size(1) == 2
    assert orc.geodesic_form("tT") == ""
    assert orc.geodesic_form("tt") == ""
    assert orc.geodesic_form("T") == "t"
    assert orc.conjugate("t", "t") == ""


def test_oracle_rejects_foreign_letters(pG2, pZC2, pFree):
    orc = pG2.oracles[1]
    with pytest.raises(UnknownLetterError):
        orc.geodesic_form("a")
    # every kind checks both conjugate arguments before reading them
    for orc in (pG2.oracles[1], pZC2.oracles[1], pFree.oracles[1]):
        good = orc.descriptor.generators[0]
        for p, q in ((good, "a"), ("a", good)):
            with pytest.raises(UnknownLetterError):
                orc.conjugate(p, q)
        # a foreign letter after a long run: the first one is named
        with pytest.raises(UnknownLetterError) as err:
            orc.geodesic_form(good * 400 + "Aa")
        assert str(err.value) == "letter 'A' is foreign to parabolic 1"


@pytest.mark.parametrize("name", ["pG2", "pZC2", "pZF2", "pTHREE"])
def test_forbidden_factors_are_exact(request, name):
    # a run is its own geodesic form exactly when it contains none of its
    # oracle's forbidden factors: every run of up to 6 letters of every
    # free abelian, free and finite factor of the fixtures
    p = request.getfixturevalue(name)
    for orc in p.oracles.values():
        letters = orc.descriptor.letters
        assert all(len(f) in (1, 2) and set(f) <= set(letters)
                   for f in orc.forbidden_factors)
        for n in range(1, 7):
            for run in map("".join, product(letters, repeat=n)):
                clean = not any(f in run for f in orc.forbidden_factors)
                assert (orc.geodesic_form(run) == run) is clean, run


def test_forbidden_factor_counts():
    # 2k^2 pairs for Z^k, 2k inverse pairs for F_k, and for a finite factor
    # of n letters its n/2 inverse letters and the n^2/2 pairs after a
    # generator
    for kind, size, k, count in (("free_abelian", 3, 3, 18),
                                 ("free", 3, 3, 6), ("finite", 4, 3, 3 + 18)):
        text = ("group g\nparabolic %s %d\nletters x y z\n" % (kind, size)
                + ("table 0 1 2 3\ntable 1 0 3 2\ntable 2 3 0 1\n"
                   "table 3 2 1 0\n" if kind == "finite" else ""))
        orc = parse_presentation(text).oracles[1]
        assert len(orc.forbidden_factors) == count == len(
            set(orc.forbidden_factors)), kind


@pytest.mark.parametrize("name", ["pG2", "pZC2", "pZF2", "pTHREE"])
def test_inverse_run_is_the_geodesic_form_of_the_inverse(request, name):
    # the inverse run that RelativePresentation.inverse_form spells, for
    # every geodesic run of up to 6 letters of every free abelian, free and
    # finite factor of the fixtures; in C3 the inverse of a generator letter
    # is the other one
    p = request.getfixturevalue(name)
    for orc in p.oracles.values():
        runs = {orc.geodesic_form("".join(w)) for n in range(1, 7)
                for w in product(orc.descriptor.letters, repeat=n)} - {""}
        for run in runs:
            assert p.inverse_form(run) == orc.geodesic_form(
                words.inverse(run)), run
    if name == "pTHREE":
        assert (p.inverse_form("s"), p.inverse_form("r")) == ("r", "s")
