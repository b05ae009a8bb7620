import os
import random
import subprocess
import sys

import pytest

from relconj import (
    metric_oracle as mo,
    parabolic_oracles as po,
    reference,
    shortening as sh,
    tables as tb,
    words,
)
from relconj.errors import (
    BudgetExceededError,
    OracleUnavailableError,
    ParseError,
    RelconjError,
)
from relconj.presentation import parse_presentation

from conftest import ZF2_PATH, factor_ball, random_word


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


def test_profile_validation_messages():
    with pytest.raises(ParseError) as exc:
        tb.ConstantsProfile(budget=-1)
    assert str(exc.value) == "profile constants must be nonnegative"
    with pytest.raises(ParseError) as exc:
        tb.ConstantsProfile(c2=3)
    assert str(exc.value) == "profiles require C(2) <= C(3)"


def test_profile_is_a_frozen_record():
    prof = tb.ConstantsProfile(delta=2)
    assert prof == tb.ConstantsProfile(delta=2, threshold=175)
    assert hash(prof) == hash(tb.ConstantsProfile(delta=2, threshold=175))
    assert prof != tb.ConstantsProfile(delta=2, threshold=174)
    assert prof != (2, 2, 2, 1_000_000, 1, 0, 175)
    assert (2, 2, 2, 1_000_000, 1, 0, 175) != prof
    with pytest.raises(AttributeError, match="cannot assign to field"):
        prof.delta = 3
    with pytest.raises(AttributeError, match="cannot delete field"):
        del prof.threshold
    assert (prof.delta, prof.threshold) == (2, 175)
    assert repr(prof) == ("ConstantsProfile(delta=2, c2=2, c3=2, "
                          "budget=1000000, nlin=1, mlin=0, threshold=175)")


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
    assert prof.hash == tb.profile_for(pG2).hash
    assert prof.hash != tb.profile_for(pG2, [("threshold", 4)]).hash
    assert len(prof.hash) == 16


def test_filtered_ball(pF, pG2, pZC2, pZF2):
    # identity, a, A, and the 12 nonzero lattice points of ell-1 norm <= 2
    assert tb.enumerate_filtered_ball(pG2, 1, 2, 10 ** 6, "x") == 15
    for p in (pF, pG2, pZC2, pZF2):
        for r1 in range(3):
            for r2 in range(3):
                # the ball oracle's elements of relative length <= r1 with
                # every parabolic syllable of at most r2 letters
                count = sum(
                    len(reference.syllables(p, w)) <= r1
                    and all(len(s) <= r2 for kind, s, _ in
                            reference.syllables(p, w) if kind != "hyp")
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


def test_precompute_sizes_free_product(tG2):
    assert tG2.sizes() == {"l3": 13}


def test_precompute_sizes_finite_parabolic(tZC2):
    assert tZC2.sizes() == {"l3": 2}


def test_precompute_budget(pG2):
    # the radius-2 ball of Z^2 has 13 elements
    with pytest.raises(BudgetExceededError, match="l3"):
        tb.precompute(pG2, tb.profile_for(pG2, [("budget", 10)]))


def test_over_budget_profile_builds_no_ball(monkeypatch, pZF2):
    # each ball is counted in closed form and no word is folded, whether
    # the count fits the budget (|B_i| = 1457 at C3 = 6) or not (3188645 at
    # C3 = 13, past 10^6)
    def refuse(self, state, run):
        raise AssertionError("a word was folded")

    for cls in (po.FreeAbelianOracle, po.FreeOracle, po.FiniteOracle):
        monkeypatch.setattr(cls, "push", refuse)
    assert tb.precompute(pZF2, tb.profile_for(pZF2, [("c3", 6)])).l3 == 1457
    with pytest.raises(BudgetExceededError, match="l3"):
        tb.precompute(pZF2, tb.profile_for(pZF2, [("c3", 13)]))


def test_l3_is_refused_before_the_ball_is_counted():
    # in a child process with a time limit: the free factor's ball size
    # (2k-1)^C3 at C3 = 10^9 would not finish, so a count that is not
    # refused first fails on the time limit
    script = ("import sys\n"
              "from relconj import tables\n"
              "from relconj.errors import BudgetExceededError\n"
              "from relconj.presentation import load_presentation\n"
              "p = load_presentation(sys.argv[1])\n"
              "try:\n"
              "    tables.precompute(p, tables.profile_for(p, [('c3', 10**9)"
              "]))\n"
              "except BudgetExceededError as exc:\n"
              "    print(exc.what)\n")
    src = ZF2_PATH.parents[2] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(ZF2_PATH)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "l3\n"


TWO_BLOCKS = ("group zz\nhyperbolic a\nparabolic free_abelian 2\n"
              "letters x y\nparabolic free_abelian 2\nletters u v\n")


@pytest.mark.parametrize("text, profile, refused", [
    # the radius-doubling check: the radius-2 ball of F2 has 17 elements
    (None, tb.ConstantsProfile(c3=2, budget=10), "l3"),
    (None, tb.ConstantsProfile(c3=40, budget=10), "l3"),
    # the sum check: two balls of 13 pass one by one, not together, and
    # pass together at a budget of 26
    (TWO_BLOCKS, tb.ConstantsProfile(c3=2, budget=20), "l3"),
    (TWO_BLOCKS, tb.ConstantsProfile(c3=2, budget=25), "l3"),
    (TWO_BLOCKS, tb.ConstantsProfile(c3=2, budget=26), None),
])
def test_l3_is_refused_one_ball_or_all_at_a_time(pZF2, text, profile,
                                                  refused):
    p = pZF2 if text is None else parse_presentation(text)
    if refused is None:
        assert tb.precompute(p, profile).l3 == 26
        return
    with pytest.raises(BudgetExceededError,
                       match="^%s exceeded element budget %d$"
                       % (refused, profile.budget)):
        tb.precompute(p, profile)


def test_l3_counts_the_oracle_balls(pG2, pZC2, pZF2, pTHREE):
    for p in (pG2, pZC2, pZF2, pTHREE):
        t = tb.precompute(p)
        assert t.l3 == t.sizes()["l3"] == sum(
            len(factor_ball(orc, t.profile.c3)) for orc in p.oracles.values())


def test_cyclic_canonical_is_class_invariant(pG2):
    rng = random.Random(21)
    for _ in range(100):
        w = random_word(rng, pG2.alphabet, 0, 8)
        g = random_word(rng, pG2.alphabet, 0, 3)
        key1, c1 = tb.cyclic_canonical(pG2, w)
        key2, c2 = tb.cyclic_canonical(pG2, words.mul(g, w, words.inverse(g)))
        assert key1 == key2
        # key = c^-1 w c
        assert sh.word_problem(
            pG2, words.mul(words.inverse(c1), w, c1, words.inverse(key1)))


def test_save_load_round_trip(tmp_path, pG2, tG2, pF):
    path = tmp_path / "g2.tables"
    tb.save_tables(path, tG2)
    again = tb.load_tables(path, pG2)
    assert again.sizes() == tG2.sizes()
    assert again.l3 == tG2.l3
    assert again.profile == tG2.profile
    assert again.profile.hash == tG2.profile.hash
    with pytest.raises(RelconjError, match="different presentation"):
        tb.load_tables(path, pF)
    with pytest.raises(RelconjError, match="different profile"):
        tb.load_tables(path, pG2, tb.profile_for(pG2, [("threshold", 4)]))
    # matching profile passes
    assert tb.load_tables(path, pG2, tb.profile_for(pG2)).sizes() == tG2.sizes()


def test_large_counts_round_trip(tmp_path, pG2, tG2):
    big = tG2._replace(l3=2 ** 40)
    path = tmp_path / "big.tables"
    tb.save_tables(path, big)
    assert tb.load_tables(path, pG2) == big


def test_round_trip_every_factor_kind(tmp_path, pF, pG2, pZC2, pZF2, pTHREE):
    for p in (pF, pG2, pZC2, pZF2, pTHREE):
        t = tb.precompute(p)
        path = tmp_path / ("%s.tables" % p.label)
        tb.save_tables(path, t)
        lines = path.read_text().split("\n")
        assert len(lines) == 5 and lines[0] == "RCT6" and lines[-1] == ""
        assert lines[2] == tb.serialize_profile(t.profile)
        assert tb.load_tables(path, p, t.profile) == t


def test_load_rejects_damaged_caches(tmp_path, pG2, tG2):
    path = tmp_path / "g2.tables"
    tb.save_tables(path, tG2)
    good = path.read_bytes()
    assert good.startswith(b"RCT6\n")
    assert not list(tmp_path.glob("*.tmp"))  # the atomic write cleaned up
    bad = tmp_path / "bad.tables"
    for cut in range(len(good)):
        bad.write_bytes(good[:cut])
        with pytest.raises(RelconjError):
            tb.load_tables(bad, pG2)
    # a cache in the previous format is refused, not misread
    for old in (b"RCT3", b"RCT4", b"RCT5"):
        bad.write_bytes(old + good[4:])
        with pytest.raises(RelconjError, match="not a tables cache"):
            tb.load_tables(bad, pG2)
    for extra in (b"\0", b"\n", b" "):
        bad.write_bytes(good + extra)
        with pytest.raises(RelconjError, match="truncated or malformed"):
            tb.load_tables(bad, pG2)
    # byte 5 opens the presentation hash, the line after the magic
    bad.write_bytes(good[:5] + b"\xff" + good[6:])
    with pytest.raises(RelconjError, match="truncated or malformed"):
        tb.load_tables(bad, pG2)
    # numbers that parse but are not the text save_tables writes
    for old, new in ((b"\n13\n", b"\n013\n"), (b"\n13\n", b"\n+13\n"),
                     (b"\n13\n", b"\n 13\n"), (b"delta=1", b"delta=x")):
        assert old in good
        bad.write_bytes(good.replace(old, new, 1))
        with pytest.raises(RelconjError, match="truncated or malformed"):
            tb.load_tables(bad, pG2)
