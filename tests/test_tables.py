import random

import pytest

from relconj import metric_oracle as mo, shortening as sh, tables as tb, words
from relconj.errors import (
    BudgetExceededError,
    OracleUnavailableError,
    RelconjError,
)


def test_profile_formula_radii():
    p0 = tb.ConstantsProfile(delta=0)
    assert (p0.k, p0.threshold) == (1, 3)
    p1 = tb.ConstantsProfile(delta=1)
    assert (p1.k, p1.threshold) == (9, 89)


def test_profile_overrides_win():
    p = tb.ConstantsProfile(delta=1, threshold=3)
    assert p.threshold == 3


def test_profile_validation():
    with pytest.raises(RelconjError):
        tb.ConstantsProfile(delta=-1)
    with pytest.raises(RelconjError):
        tb.ConstantsProfile(c2=5, c3=2)
    with pytest.raises(RelconjError, match="nonnegative"):
        tb.ConstantsProfile(c2=-3, c3=-1)
    for key in ("c3", "nlin", "mlin", "threshold"):
        with pytest.raises(RelconjError, match="nonnegative"):
            tb.ConstantsProfile(**{key: -1})
    with pytest.raises(RelconjError):
        tb.profile_from_pairs([("zeta", 1)])


def test_profile_for_reads_presentation_constants(pG2):
    prof = tb.profile_for(pG2)
    assert prof.delta == 1
    assert prof.threshold == 3
    assert prof.nlin == 1 and prof.mlin == 0
    over = tb.profile_for(pG2, [("threshold", 4)])
    assert over.threshold == 4


def test_profile_serialization_and_hash(pG2):
    prof = tb.profile_for(pG2)
    text = tb.serialize_profile(prof)
    assert "delta=1" in text and "threshold=3" in text
    assert tb.profile_hash(prof) == tb.profile_hash(tb.profile_for(pG2))
    assert tb.profile_hash(prof) != tb.profile_hash(
        tb.profile_for(pG2, [("threshold", 4)]))
    assert len(tb.profile_hash(prof)) == 16


def test_filtered_ball(pF, pG2, pZC2, pZF2):
    # identity, a, A, and the 12 nonzero lattice points of ell-1 norm <= 2
    assert tb.enumerate_filtered_ball(pG2, 1, 2, 10 ** 6, "x") == 15
    for p in (pF, pG2, pZC2, pZF2):
        for r1 in range(3):
            for r2 in range(3):
                # the ball oracle's elements of relative length <= r1 with
                # every parabolic syllable of at most r2 letters
                count = sum(
                    words.raw_relative_length(p, w) <= r1
                    and all(len(s.word) <= r2 for s in words.raw_syllables(p, w)
                            if s.kind != "hyp")
                    for w in mo.ball(p, r1 * max(r2, 1)).elements)
                assert tb.enumerate_filtered_ball(p, r1, r2) == count
                tb.enumerate_filtered_ball(p, r1, r2, count, "edge")
                with pytest.raises(BudgetExceededError, match="edge"):
                    tb.enumerate_filtered_ball(p, r1, r2, count - 1, "edge")


def test_filtered_ball_needs_free_product(pC5):
    with pytest.raises(OracleUnavailableError):
        tb.enumerate_filtered_ball(pC5, 2, 2, 100, "l6")
    with pytest.raises(OracleUnavailableError, match="relators get no tables"):
        tb.precompute(pC5)


def test_precompute_sizes_free_group(tF):
    assert tF.sizes() == {"l3": 0}
    assert tF.k_i == ()
    assert tF.k_hyp_4delta == 2
    assert tF.k_4delta == 2


def test_precompute_sizes_free_product(tG2):
    assert tG2.sizes() == {"l3": 13}
    assert tG2.k_i == (0,)
    # ball(4 delta, 2 C3) has 20209 members; the loop bound multiplies in
    # the 16 delta + 2 rotation factor
    assert tG2.k_hyp_4delta == 20209 * 18
    assert tG2.k_4delta == 20209 * 18 + 4


def test_precompute_sizes_finite_parabolic(tZC2):
    assert tZC2.sizes() == {"l3": 2}
    assert tZC2.k_i == (0,)


def test_precompute_budget(pG2):
    with pytest.raises(BudgetExceededError):
        tb.precompute(pG2, tb.profile_for(pG2, [("budget", 100)]))


def test_per_index_lists_are_oracle_balls(pG2, tG2):
    prof = tG2.profile
    orc = pG2.oracles[1]
    assert tG2.l3[1] == tuple(orc.ball(prof.c3))


def test_cyclic_canonical_is_class_invariant(pG2):
    rng = random.Random(21)
    for _ in range(100):
        w = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 8)))
        g = "".join(rng.choice(pG2.alphabet) for _ in range(rng.randint(0, 3)))
        key1, c1 = tb.cyclic_canonical(pG2, w)
        key2, c2 = tb.cyclic_canonical(pG2, words.mul(g, w, words.inverse(g)))
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
    assert again.l3 == tG2.l3
    assert (again.k_i, again.k_hyp_4delta, again.k_4delta) == (
        tG2.k_i, tG2.k_hyp_4delta, tG2.k_4delta)
    assert again.profile == tG2.profile
    assert tb.profile_hash(again.profile) == tb.profile_hash(tG2.profile)
    with pytest.raises(RelconjError, match="different presentation"):
        tb.load_tables(path, pF)
    with pytest.raises(RelconjError, match="different profile"):
        tb.load_tables(path, pG2, tb.profile_for(pG2, [("threshold", 4)]))
    # matching profile passes
    assert tb.load_tables(path, pG2, tb.profile_for(pG2)).sizes() == tG2.sizes()


def test_save_refuses_counts_past_u32(tmp_path, tG2):
    big = tb.PrecomputedTables(tG2.p_hash, tG2.profile, tG2.l3, tG2.k_i,
                               2 ** 32, tG2.k_4delta)
    path = tmp_path / "big.tables"
    with pytest.raises(RelconjError, match="u32"):
        tb.save_tables(path, big)
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_damaged_caches(tmp_path, pG2, tG2):
    path = tmp_path / "g2.tables"
    tb.save_tables(path, tG2)
    good = path.read_bytes()
    assert good.startswith(b"RCT4")
    assert not list(tmp_path.glob("*.tmp"))  # the atomic write cleaned up
    bad = tmp_path / "bad.tables"
    for cut in range(len(good)):
        bad.write_bytes(good[:cut])
        with pytest.raises(RelconjError):
            tb.load_tables(bad, pG2)
    # a cache in the previous format is refused, not misread
    bad.write_bytes(b"RCT3" + good[4:])
    with pytest.raises(RelconjError, match="not a tables cache"):
        tb.load_tables(bad, pG2)
    bad.write_bytes(good + b"\0")
    with pytest.raises(RelconjError, match="trailing bytes"):
        tb.load_tables(bad, pG2)
    # byte 8 opens the presentation hash, the first string after the magic
    bad.write_bytes(good[:8] + b"\xff" + good[9:])
    with pytest.raises(RelconjError, match="corrupt"):
        tb.load_tables(bad, pG2)
