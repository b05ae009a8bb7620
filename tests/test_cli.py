import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from relconj import cli, tables as tb

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "presentations"


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


def test_unknown_letter_is_a_parse_error():
    # as a process: a typed error and exit code 1, never a traceback
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "relconj", "conj",
         str(root / "demos" / "presentations" / "zxz2.txt"), "a1", "x"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 1
    assert proc.stdout == ("status=error\nerror=parse\n"
                           "message=letter '1' is not declared by 'g2'\n")
    assert "Traceback" not in proc.stderr


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


def test_precompute_deep_filtered_ball(capsys, tmp_path):
    # B(4*delta, 2*c3) of a one-letter group has 2*4*delta+1 members, one
    # per relative length and sign: delta=300 reaches length 1200
    pres = tmp_path / "z.txt"
    pres.write_text("group z\nhyperbolic a\n")
    prof = tmp_path / "d300.prof"
    prof.write_text("delta=300\n")
    code, out, _ = run(capsys, ["precompute", os.fspath(pres),
                                "--profile", os.fspath(prof)])
    assert code == 0
    assert out.startswith("status=ok\n")
    assert "k_hyp_4delta=11529602\n" in out  # 2401 members * (16*300+2)


def test_profile_override_parse_error(capsys, paths, tmp_path):
    prof = tmp_path / "bad.prof"
    prof.write_text("r9: 1\n")
    code, out, _ = run(capsys, ["wp", paths["G2"], "x",
                                "--profile", os.fspath(prof)])
    assert code == 1
    assert "error=parse" in out


def test_cache_invalidation_rebuilds(capsys, paths, tmp_path, g2_cache, pG2):
    cache = os.fspath(tmp_path / "copy.tables")
    shutil.copy(g2_cache, cache)
    prof = tmp_path / "c3.prof"
    prof.write_text("c2=1\nc3=1\n")
    # a query accepts the stale cache (different profile hash) without
    # reading it, and leaves it as it was
    code, out, _ = run(capsys, ["crosscheck", paths["G2"], "2",
                                "--cache", cache, "--profile", os.fspath(prof)])
    assert code == 0
    assert "agreement=1.000000" in out
    with open(g2_cache, "rb") as fh:
        assert Path(cache).read_bytes() == fh.read()
    # precompute overwrites the stale cache with tables under the profile
    code, out, _ = run(capsys, ["precompute", paths["G2"], cache,
                                "--profile", os.fspath(prof)])
    assert code == 0
    assert "size_l3=5" in out
    c3 = tb.profile_for(pG2, [("c2", 1), ("c3", 1)])
    assert tb.load_tables(cache, pG2, c3).sizes() == {"l3": 5}


def test_damaged_cache_is_rebuilt(capsys, paths, tmp_path, g2_cache):
    argv = ["classify", paths["G2"], "axxayA"]
    _, want, _ = run(capsys, argv)
    with open(g2_cache, "rb") as fh:
        good = fh.read()
    cache = tmp_path / "damaged.tables"
    for cut in (0, 3, 4, 30, len(good) // 2, len(good) - 1):
        cache.write_bytes(good[:cut])
        # a query accepts the damaged cache without reading it
        code, out, _ = run(capsys, argv + ["--cache", os.fspath(cache)])
        assert (code, out) == (0, want)
        assert cache.read_bytes() == good[:cut]
        # precompute replaces the damaged cache with the tables
        code, out, _ = run(capsys, ["precompute", paths["G2"],
                                    os.fspath(cache)])
        assert code == 0, out
        assert cache.read_bytes() == good


def test_old_format_cache_is_rebuilt(capsys, paths, tmp_path, g2_cache):
    argv = ["classify", paths["G2"], "axxayA"]
    _, want, _ = run(capsys, argv)
    with open(g2_cache, "rb") as fh:
        good = fh.read()
    cache = tmp_path / "old.tables"
    cache.write_bytes(b"RCT3" + good[4:])
    code, out, _ = run(capsys, argv + ["--cache", os.fspath(cache)])
    assert (code, out) == (0, want)
    code, out, _ = run(capsys, ["precompute", paths["G2"], os.fspath(cache)])
    assert code == 0, out
    assert cache.read_bytes() == good


def test_relator_presentation_gets_no_tables(capsys, paths):
    for argv in (["classify", paths["C5"], "a"],
                 ["conj", paths["C5"], "a", "aaaaaa"],
                 ["crosscheck", paths["C5"], "2"]):
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert out.startswith("status=error\nerror=oracle\n")
        assert "relators get no tables" in out


def test_wp_decides_relators_by_the_dehn_table(capsys, paths):
    code, out, _ = run(capsys, ["wp", paths["C5"], "aaaaa"])
    assert (code, out) == (0, "status=ok\ntrivial=true\nshortened=\nsteps=1\n")


@pytest.mark.parametrize("relator, named", [
    ("abAB", "not C'(1/6): the piece 'A' has 1 of the 4 letters"),
    ("axAX", "uses the parabolic letter 'x'")])
def test_wp_without_a_dehn_table_is_an_oracle_error(capsys, tmp_path,
                                                    relator, named):
    pres = tmp_path / "r.txt"
    pres.write_text("group r\nhyperbolic a b\nparabolic free 1\n"
                    "letters x\nrelator %s\n" % relator)
    code, out, err = run(capsys, ["wp", os.fspath(pres), "ab"])
    assert code == 1
    assert out.startswith("status=error\nerror=oracle\n")
    assert named in out
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, profile", [
    (["crosscheck", "G2", "-1"], None),
    (["crosscheck", "G2", "2", "--sample", "-3"], None),
    (["crosscheck", "G2", "2", "--sample", "0"], None),
    (["conj", "G2", "axA", "x"], "c3=-1"),
    (["conj", "G2", "axA", "x"], "delta=-1"),
    (["conj", "G2", "axA", "x"], "zeta=1"),
    (["precompute", "G2"], "c2=-3\nc3=-1"),
], ids=["maxlen", "negative-sample", "zero-sample", "c3", "delta", "key",
        "negative-c2"])
def test_bad_input_is_a_parse_error(capsys, paths, tmp_path, argv, profile):
    argv = [paths.get(arg, arg) for arg in argv]
    if profile is not None:
        prof = tmp_path / "bad.prof"
        prof.write_text(profile + "\n")
        argv += ["--profile", os.fspath(prof)]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert out.startswith("status=error\nerror=parse\n"), out


def test_queries_answer_past_the_tables_budget(capsys, tmp_path):
    # delta=2 puts B(8, 4) past the budget, so precompute fails; queries
    # read only the profile and answer
    prof = tmp_path / "d2.prof"
    prof.write_text("delta=2\n")
    pres = os.fspath(DEMOS / "zxz2.txt")
    code, out, _ = run(capsys, ["--profile", os.fspath(prof), "conj", pres,
                                "axA", "x", "--search"])
    assert code == 0
    assert out.startswith("status=ok\n")
    assert "answer=conjugate\n" in out and "verified=true\n" in out
    code, out, _ = run(capsys, ["--profile", os.fspath(prof), "classify",
                                pres, "axA"])
    assert code == 0
    assert "verdict=parabolic\n" in out
    code, out, _ = run(capsys, ["--profile", os.fspath(prof), "precompute",
                                pres])
    assert code == 1
    assert "error=budget" in out


def test_queries_never_precompute(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a query ran precompute")

    monkeypatch.setattr(tb, "precompute", refuse)
    pres = os.fspath(DEMOS / "zxz2.txt")
    cache = os.fspath(tmp_path / "zxz2.tables")
    for argv in (["classify", pres, "axA"],
                 ["conj", pres, "axA", "x", "--search"],
                 ["crosscheck", pres, "2"]):
        code, out, _ = run(capsys, argv + ["--cache", cache])
        assert code == 0, out
        assert out.startswith("status=ok\n")
    assert not os.path.exists(cache)


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


def parse_outputs(capsys, parser, argv):
    """(exit code, stdout, stderr) of parser.parse_args(argv); None for the
    code when it parses without exiting."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "-h"], ["--seed", "x"],
    ["--seed", "x", "conj"], ["--profile", "conj", "bogus"],
    ["--profile", "wp", "conj", "f", "u", "v"], ["conj"], ["conj", "f"],
    ["conj", "f", "u", "v", "--bogus"], ["-h", "conj"],
] + [[name, "-h"] for name, _, _ in cli._SUBCOMMANDS])
def test_parser_for_argv_prints_what_the_full_parser_prints(capsys, argv):
    # the parser built for argv holds only the subparsers argv names, and
    # every help, usage and error it prints is the full parser's
    want = parse_outputs(capsys, cli.build_parser(), argv)
    got = parse_outputs(capsys, cli.build_parser(argv), argv)
    assert got == want
    assert want[1] or want[2] or want[0] is None


def test_main_builds_only_the_named_subparser(monkeypatch, capsys):
    built = []
    real = cli._subparser

    def spy(listed_only=False, **kwargs):
        built.append((kwargs["prog"], listed_only))
        return real(listed_only, **kwargs)

    monkeypatch.setattr(cli, "_subparser", spy)
    code, _, _ = run(capsys, ["wp", os.fspath(DEMOS / "free2.txt"), "ab"])
    assert code == 0
    assert [prog for prog, listed in built if not listed] == ["relconj wp"]
    assert len(built) == len(cli._SUBCOMMANDS)
