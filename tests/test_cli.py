import json
import os
import shutil

import pytest

from relconj import cli, tables as tb


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def paths(pres_dir):
    return {
        "F": os.fspath(pres_dir / "free2.txt"),
        "G2": os.fspath(pres_dir / "zxz2.txt"),
        "ZC2": os.fspath(pres_dir / "zc2.txt"),
        "C5": os.fspath(pres_dir / "c5.txt"),
    }


def test_wp_trivial(capsys, paths):
    code, out, err = run(capsys, ["wp", paths["G2"], "xyXY"])
    assert code == 0
    assert out == "status=ok\ntrivial=true\nshortened=\nsteps=1\n"
    assert err.startswith("elapsed_ms=")


def test_wp_nontrivial(capsys, paths):
    code, out, _ = run(capsys, ["wp", paths["F"], "ab"])
    assert code == 0
    assert "trivial=false" in out
    assert "shortened=ab" in out


def test_wp_missing_file(capsys):
    code, out, _ = run(capsys, ["wp", "/nonexistent/file.txt", "a"])
    assert code == 1
    assert out.startswith("status=error\nerror=io\n")


def test_parse_error_kind(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("group g\nbogus directive\n")
    code, out, _ = run(capsys, ["wp", os.fspath(bad), "a"])
    assert code == 1
    assert "error=parse" in out
    assert "line 2" in out


def test_classify(capsys, paths, g2_cache):
    code, out, _ = run(capsys, ["classify", paths["G2"], "axA",
                                "--cache", g2_cache])
    assert code == 0
    assert out == ("status=ok\nverdict=parabolic\nidentity=false\nindex=1\n"
                   "representative=x\nconjugator=a\n")
    code, out, _ = run(capsys, ["classify", paths["G2"], "a",
                                "--cache", g2_cache])
    assert "verdict=hyperbolic" in out
    assert "index=-" in out
    code, out, _ = run(capsys, ["classify", paths["G2"], "",
                                "--cache", g2_cache])
    assert "identity=true" in out


def test_conj_with_search(capsys, paths, pF, tF):
    code, out, _ = run(capsys, ["conj", paths["F"], "ab", "ba", "--search"])
    assert code == 0
    assert out == ("status=ok\nu=ab\nv=ba\nanswer=conjugate\nwitness=b\n"
                   "reason=-\nregime=short-hyperbolic\nlbar=2\nL=2\n"
                   "profile=%s\nverified=true\n" % tb.profile_hash(tF.profile))


def test_conj_negative(capsys, paths, g2_cache):
    code, out, _ = run(capsys, ["conj", paths["G2"], "x", "y",
                                "--cache", g2_cache])
    assert code == 0
    assert "answer=not-conjugate" in out
    assert "witness=-" in out
    code, out, _ = run(capsys, ["conj", paths["G2"], "a", "x",
                                "--cache", g2_cache])
    assert "reason=class-mismatch" in out


def test_conj_search_failure_exit_code(capsys, paths, g2_cache):
    code, out, _ = run(capsys, ["conj", paths["G2"], "x", "y", "--search",
                                "--cache", g2_cache])
    assert code == 1
    assert "error=conjugacy" in out


def test_precompute_free_group(capsys, paths):
    code, out, _ = run(capsys, ["precompute", paths["F"]])
    assert code == 0
    assert "size_l3=0" in out
    assert "size_l7=0" in out
    assert "size_l11=0" in out
    assert "k_i=-" in out
    assert "cache=-" in out


def test_precompute_writes_cache(capsys, paths, tmp_path, pG2):
    cache = os.fspath(tmp_path / "g2.tables")
    code, out, _ = run(capsys, ["precompute", paths["G2"], cache])
    assert code == 0
    assert "size_l3=13" in out
    assert "k_i=0" in out
    assert "k_hyp_4delta=363762" in out
    assert "k_4delta=363766" in out
    assert os.path.exists(cache)
    loaded = tb.load_tables(cache, pG2)
    assert loaded.sizes()["l3"] == 13


def test_precompute_budget_error(capsys, paths, tmp_path):
    prof = tmp_path / "tiny.prof"
    prof.write_text("budget=100\n")
    code, out, _ = run(capsys, ["precompute", paths["G2"],
                                "--profile", os.fspath(prof)])
    assert code == 1
    assert "error=budget" in out


def test_profile_override_file(capsys, paths, tmp_path):
    prof = tmp_path / "c3.prof"
    prof.write_text("# tighter ball\nc2=1\nc3=1\n")
    code, out, _ = run(capsys, ["precompute", paths["G2"],
                                "--profile", os.fspath(prof)])
    assert code == 0
    assert "size_l3=5" in out


def test_profile_override_parse_error(capsys, paths, tmp_path):
    prof = tmp_path / "bad.prof"
    prof.write_text("r9: 1\n")
    code, out, _ = run(capsys, ["wp", paths["G2"], "x",
                                "--profile", os.fspath(prof)])
    assert code == 1
    assert "error=parse" in out


def test_cache_invalidation_rebuilds(capsys, paths, tmp_path, g2_cache):
    cache = os.fspath(tmp_path / "copy.tables")
    shutil.copy(g2_cache, cache)
    prof = tmp_path / "c3.prof"
    prof.write_text("c2=1\nc3=1\n")
    # stale cache (different profile hash) is rebuilt and overwritten
    code, out, _ = run(capsys, ["crosscheck", paths["G2"], "2",
                                "--cache", cache, "--profile", os.fspath(prof)])
    assert code == 0
    assert "agreement=1.000000" in out
    code, out, _ = run(capsys, ["precompute", paths["G2"], cache,
                                "--profile", os.fspath(prof)])
    assert "size_l3=5" in out


def test_damaged_cache_is_rebuilt(capsys, paths, tmp_path, g2_cache):
    argv = ["classify", paths["G2"], "axxayA"]
    _, want, _ = run(capsys, argv + ["--cache", g2_cache])
    with open(g2_cache, "rb") as fh:
        good = fh.read()
    cache = tmp_path / "damaged.tables"
    for cut in (0, 3, 4, 30, len(good) // 2, len(good) - 1):
        cache.write_bytes(good[:cut])
        code, out, _ = run(capsys, argv + ["--cache", os.fspath(cache)])
        assert code == 0
        assert out == want
        # the rebuilt cache replaced the damaged one
        assert cache.read_bytes() == good


def test_relator_presentation_gets_no_tables(capsys, paths):
    code, out, _ = run(capsys, ["classify", paths["C5"], "a"])
    assert code == 1
    assert out.startswith("status=error\nerror=oracle\n")
    assert "relators get no tables" in out


def test_crosscheck_exhaustive(capsys, paths, g2_cache):
    code, out, _ = run(capsys, ["crosscheck", paths["G2"], "2",
                                "--cache", g2_cache])
    assert code == 0
    assert out == ("status=ok\nelements=33\npairs=1089\nagreement=1.000000\n"
                   "mismatches=0\ncounterexample=-\n")
    code, out, _ = run(capsys, ["crosscheck", paths["F"], "3"])
    assert code == 0
    assert "agreement=1.000000" in out


def test_crosscheck_sampled_is_seeded(capsys, paths, g2_cache):
    args = ["crosscheck", paths["G2"], "3", "--cache", g2_cache,
            "--sample", "150", "--seed", "7"]
    code, out1, _ = run(capsys, args)
    code, out2, _ = run(capsys, args)
    assert out1 == out2
    assert "pairs=150" in out1
    assert "agreement=1.000000" in out1


def test_crosscheck_budget_error(capsys, paths, tmp_path):
    prof = tmp_path / "tiny.prof"
    prof.write_text("budget=100\n")
    code, out, _ = run(capsys, ["crosscheck", paths["G2"], "50",
                                "--profile", os.fspath(prof)])
    assert code == 1
    assert "error=budget" in out


def test_json_output(capsys, paths):
    code, out, _ = run(capsys, ["--json", "conj", paths["F"], "ab", "ba"])
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "ok"
    assert obj["answer"] == "conjugate"
    assert obj["witness"] == "b"
    # one JSON object, sorted keys, single line
    assert out.count("\n") == 1
    assert list(obj) == sorted(obj)


def test_global_flags_in_either_position(capsys, paths, g2_cache):
    a = run(capsys, ["--cache", g2_cache, "classify", paths["G2"], "axA"])
    b = run(capsys, ["classify", paths["G2"], "axA", "--cache", g2_cache])
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


def test_outputs_are_deterministic(capsys, paths, g2_cache):
    for argv in (["wp", paths["G2"], "axxA"],
                 ["classify", paths["G2"], "axxayA", "--cache", g2_cache],
                 ["conj", paths["G2"], "axxA", "xx", "--cache", g2_cache],
                 ["--json", "wp", paths["ZC2"], "tt"]):
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


def test_wp_torsion_group(capsys, paths):
    code, out, _ = run(capsys, ["wp", paths["ZC2"], "tt"])
    assert code == 0
    assert "trivial=true" in out
    code, out, _ = run(capsys, ["wp", paths["ZC2"], "tat"])
    assert "trivial=false" in out
