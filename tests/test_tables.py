import random

import pytest

from relconj import shortening as sh, tables as tb, words
from relconj.errors import (
    BudgetExceededError,
    OracleUnavailableError,
    RelconjError,
)


def test_profile_formula_radii():
    p0 = tb.ConstantsProfile(delta=0)
    assert (p0.k, p0.threshold, p0.r4, p0.r5, p0.r6) == (1, 3, 1, 1, 18)
    assert (p0.r8, p0.r9, p0.rbcc, p0.rloops) == (4, 0, 0, 0)
    p1 = tb.ConstantsProfile(delta=1)
    assert (p1.k, p1.threshold, p1.r4, p1.r5, p1.r6) == (9, 89, 8, 17, 566)
    assert (p1.r8, p1.r9, p1.rbcc, p1.rloops) == (4, 8, 4, 4)


def test_profile_overrides_win():
    p = tb.ConstantsProfile(delta=1, threshold=3, r6=2)
    assert p.threshold == 3
    assert p.r6 == 2
    assert p.r5 == 17  # untouched radii still follow the formulas


def test_profile_validation():
    with pytest.raises(RelconjError):
        tb.ConstantsProfile(delta=-1)
    with pytest.raises(RelconjError):
        tb.ConstantsProfile(c2=5, c3=2)
    with pytest.raises(RelconjError):
        tb.profile_from_pairs([("zeta", 1)])


def test_profile_for_reads_presentation_constants(pG2):
    prof = tb.profile_for(pG2)
    assert prof.delta == 1
    assert prof.threshold == 3
    assert prof.nlin == 1 and prof.mlin == 0
    over = tb.profile_for(pG2, [("r9", 1)])
    assert over.r9 == 1


def test_profile_serialization_and_hash(pG2):
    prof = tb.profile_for(pG2)
    text = tb.serialize_profile(prof)
    assert "delta=1" in text and "threshold=3" in text
    assert tb.profile_hash(prof) == tb.profile_hash(tb.profile_for(pG2))
    assert tb.profile_hash(prof) != tb.profile_hash(tb.profile_for(pG2, [("r9", 1)]))
    assert len(tb.profile_hash(prof)) == 16


def test_filtered_ball(pG2):
    fb = tb.enumerate_filtered_ball(pG2, 1, 2, 10 ** 6, "x")
    assert (fb.rel_radius, fb.comp_bound) == (1, 2)
    # identity, a, A, and the 12 nonzero lattice points of ell-1 norm <= 2
    assert len(fb.members) == 15
    for w in fb.members:
        assert words.raw_relative_length(pG2, w) <= 1
        assert all(len(s.word) <= 2 for s in words.raw_syllables(pG2, w))
    with pytest.raises(BudgetExceededError, match="l6"):
        tb.enumerate_filtered_ball(pG2, 4, 2, 10, "l6")


def test_filtered_ball_needs_free_product(pC5):
    with pytest.raises(OracleUnavailableError):
        tb.enumerate_filtered_ball(pC5, 2, 2, 100, "l6")
    with pytest.raises(OracleUnavailableError, match="relators get no tables"):
        tb.precompute(pC5)


def test_precompute_sizes_free_group(tF):
    assert tF.sizes() == {"l3": 0, "l7": 0, "l11": 0}
    assert tF.profile.k_i == ()
    assert tF.k_hyp_4delta == 2
    assert tF.k_4delta == 2


def test_precompute_sizes_free_product(tG2):
    assert tG2.sizes() == {"l3": 13, "l7": 13, "l11": 13}
    assert tG2.profile.k_i == (0,)
    # ball(4 delta, 2 C3) has 20209 members; the loop bound multiplies in
    # the 16 delta + 2 rotation factor
    assert tG2.k_hyp_4delta == 20209 * 18
    assert tG2.k_4delta == 20209 * 18 + 4


def test_precompute_sizes_finite_parabolic(tZC2):
    assert tZC2.sizes() == {"l3": 2, "l7": 2, "l11": 2}
    assert tZC2.profile.k_i == (0,)


def test_precompute_budget(pG2):
    with pytest.raises(BudgetExceededError):
        tb.precompute(pG2, tb.profile_for(pG2, [("budget", 100)]))


def test_per_index_lists_are_oracle_balls(pG2, tG2):
    prof = tG2.profile
    from relconj.parabolic_oracles import oracles_for
    orc = oracles_for(pG2)[1]
    assert tG2.l3[1] == tuple(orc.ball(prof.c3))
    assert tG2.b_i is tG2.l3


def test_l7_conjugators_verify(pG2, tG2):
    for (i, q1, q2), c in tG2.l7.items():
        # right form: c^-1 q1 c = q2
        assert sh.word_problem(
            pG2, words.mul(words.inverse(c), q1, c, words.inverse(q2)))


def test_l11_pair(pG2, tG2):
    qs = tG2.l3[1]
    for q1 in qs:
        for q2 in qs:
            c = tG2.l11_pair(1, q1, 1, q2)
            if c is not None:
                assert sh.word_problem(
                    pG2, words.mul(words.inverse(c), q1, c, words.inverse(q2)))
    assert tG2.l11_pair(1, "x", 2, "x") is None


def test_cyclic_canonical_is_class_invariant(pG2, tG2):
    k = tG2.profile.k
    rng = random.Random(21)
    for _ in range(100):
        w = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 8)))
        g = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 3)))
        key1, c1 = tb.cyclic_canonical(pG2, w, k)
        key2, c2 = tb.cyclic_canonical(pG2, words.mul(g, w, words.inverse(g)), k)
        assert key1 == key2
        # key = c^-1 w c
        assert sh.word_problem(
            pG2, words.mul(words.inverse(c1), w, c1, words.inverse(key1)))


def test_compute_M_vanishes_for_abelian_parabolics(pG2, tG2):
    letters = [c for c in pG2.alphabet if pG2.letter_kind[c] != "hyp"]
    rng = random.Random(22)
    for _ in range(100):
        w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        assert tb.compute_M(pG2, tG2, w) == 0
    assert tb.compute_M(pG2, tG2, "axA") == 0


def test_save_load_round_trip(tmp_path, pG2, tG2, pF):
    path = tmp_path / "g2.tables"
    tb.save_tables(path, tG2)
    again = tb.load_tables(path, pG2)
    assert again.sizes() == tG2.sizes()
    assert again.l7 == tG2.l7
    assert again.l3 == tG2.l3
    assert (again.k_hyp_4delta, again.k_4delta) == (tG2.k_hyp_4delta,
                                                    tG2.k_4delta)
    assert again.profile == tG2.profile
    assert tb.profile_hash(again.profile) == tb.profile_hash(tG2.profile)
    with pytest.raises(RelconjError, match="different presentation"):
        tb.load_tables(path, pF)
    with pytest.raises(RelconjError, match="different profile"):
        tb.load_tables(path, pG2, tb.profile_for(pG2, [("r9", 1)]))
    # matching profile passes
    assert tb.load_tables(path, pG2, tb.profile_for(pG2)).sizes() == tG2.sizes()


def test_load_rejects_damaged_caches(tmp_path, pG2, tG2):
    path = tmp_path / "g2.tables"
    tb.save_tables(path, tG2)
    good = path.read_bytes()
    assert good.startswith(b"RCT2")
    assert not list(tmp_path.glob("*.tmp"))  # the atomic write cleaned up
    bad = tmp_path / "bad.tables"
    for cut in range(len(good)):
        bad.write_bytes(good[:cut])
        with pytest.raises(RelconjError):
            tb.load_tables(bad, pG2)
    bad.write_bytes(good + b"\0")
    with pytest.raises(RelconjError, match="trailing bytes"):
        tb.load_tables(bad, pG2)
    # byte 8 opens the presentation hash, the first string after the magic
    bad.write_bytes(good[:8] + b"\xff" + good[9:])
    with pytest.raises(RelconjError, match="corrupt"):
        tb.load_tables(bad, pG2)
