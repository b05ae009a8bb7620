import functools
import gc
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from relconj import (cli, conjugacy, load_presentation, parse_presentation,
                     tables as tb)

from conftest import THREE_TEXT, Z2C2_TEXT, ZD4_TEXT, ZS3_TEXT
from test_cli_golden import COMMANDS, TRANSCRIPT, _argv

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "presentations"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(cwd, argv, files=(), timeout=120):
    """python -m relconj with argv in cwd, after writing files there (a
    map from name to text or bytes).  The child's streams are buffered, as
    when a shell pipes them, so output it does not flush before exit is
    lost."""
    for name, data in dict(files).items():
        if isinstance(data, str):
            data = data.encode()
        (cwd / name).write_bytes(data)
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "relconj"] + argv, cwd=cwd,
        capture_output=True, text=True, timeout=timeout, env=env)


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


@pytest.mark.parametrize("files, argv, kind, message", [
    # 3^(10^9) would not finish
    ({"prof": "c3=1000000000\n"},
     ["--profile", "prof", "precompute", str(DEMOS / "zf2.txt")], "budget",
     "l3 exceeded"),
    ({"bad.txt": b"group bad\nhyperbolic a # \xff\n"},
     ["wp", "bad.txt", "a"], "parse", "bad.txt is not UTF-8 text"),
    ({"prof": b"c3=2 # \xff\n"},
     ["--profile", "prof", "wp", str(DEMOS / "free2.txt"), "a"], "parse",
     "prof is not UTF-8 text"),
    ({}, ["conj", str(DEMOS / "zxz2.txt"), "a1", "x"], "parse",
     "letter '1' is not declared by 'g2'"),
    # the syllable pattern of a block with no letter would be "[]+"
    ({"t.txt": "group g\nhyperbolic a\nparabolic finite 1\nletters\n"
               "table 0\n"},
     ["conj", "t.txt", "a", "a"], "parse",
     "line 3: parabolic block names no letter"),
], ids=["l3", "presentation-not-utf8",
        "profile-not-utf8", "unknown-letter", "letterless-block"])
def test_bad_input_fails_typed_in_a_process(tmp_path, files, argv, kind,
                                            message):
    # a typed error and exit code 1, never a traceback
    proc = run_process(tmp_path, argv, files)
    assert proc.returncode == 1
    assert proc.stdout.startswith("status=error\nerror=%s\n" % kind)
    assert message in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", ["Q", "é"])
def test_an_undeclared_letter_in_a_long_word_fails_typed_in_a_process(
        tmp_path, bad):
    # a 4,096-letter normal form of Z * Z^2 with one undeclared letter at
    # its start, middle or end
    nf = "axyAXY" * 682 + "axyA"
    for i in (0, 2048, 4096):
        proc = run_process(tmp_path, ["wp", str(DEMOS / "zxz2.txt"),
                                      nf[:i] + bad + nf[i:]])
        assert proc.returncode == 1
        assert proc.stdout.startswith("status=error\nerror=parse\n")
        assert "letter %r is not declared by 'g2'" % bad in proc.stdout
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["free2", "zxz2", "zc2", "zf2"])
def test_an_undeclared_character_fails_wp_typed(capsys, name):
    # an undeclared ASCII letter, a non-ASCII letter and a lone surrogate
    # first, in the middle or last, in words of 1-20 and 130-300 letters
    path = str(DEMOS / (name + ".txt"))
    p = load_presentation(path)
    rng = random.Random(51)
    for n in (1, 7, 20, 130, 211, 300):
        w = "".join(rng.choice(p.alphabet) for _ in range(n))
        for bad in ("q", "é", "\udc80"):
            for x in (bad + w, w[: n // 2] + bad + w[n // 2 :], w + bad):
                code, out, _ = run(capsys, ["wp", path, x])
                assert code == 1
                assert out.startswith("status=error\nerror=parse\n"), out
                assert "letter %r is not declared" % bad in out


def test_a_byte_that_is_not_utf8_fails_wp_typed_in_a_process(tmp_path):
    # the command line decodes the byte 0x80 to the lone surrogate \udc80
    proc = run_process(tmp_path, ["wp", str(DEMOS / "zxz2.txt"),
                                  "ax" * 80 + "\udc80" + "yA"])
    assert proc.returncode == 1
    assert proc.stdout.startswith("status=error\nerror=parse\n")
    assert "letter '\\udc80' is not declared by 'g2'" in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("target", ["missing/x", "adir"])
def test_unwritable_cache_fails_alike_in_every_process(tmp_path, target):
    # the message names the cache path, never the temporary file, whose
    # name holds the process id
    (tmp_path / "adir").mkdir()
    argv = ["precompute", str(DEMOS / "zxz2.txt"), target]
    first, second = (run_process(tmp_path, argv) for _ in range(2))
    assert first.stdout == second.stdout
    assert first.returncode == 1
    assert first.stdout.startswith("status=error\nerror=io\n")
    assert "'%s'" % target in first.stdout
    assert ".tmp" not in first.stdout
    assert "Traceback" not in first.stderr
    assert sorted(os.listdir(tmp_path)) == ["adir"]
    assert os.listdir(tmp_path / "adir") == []


def test_finite_factor_precomputes_under_a_huge_c3(tmp_path):
    # the finite factor's ball size is its order at any radius past 0
    proc = run_process(tmp_path, ["--profile", "prof", "precompute",
                                  str(DEMOS / "zc2.txt")],
                       {"prof": "c3=1000000000\n"}, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("status=ok\n")


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
                   "profile=%s\nverified=true\n" % tF.profile.hash)


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
    assert "cache=-" in out


def test_precompute_writes_cache(capsys, paths, tmp_path, pG2):
    cache = os.fspath(tmp_path / "g2.tables")
    code, out, _ = run(capsys, ["precompute", paths["G2"], cache])
    assert code == 0
    assert "size_l3=13" in out
    assert os.path.exists(cache)
    loaded = tb.load_tables(cache, pG2)
    assert loaded.sizes()["l3"] == 13


def test_precompute_budget_error(capsys, paths, tmp_path):
    prof = tmp_path / "tiny.prof"
    prof.write_text("budget=10\n")
    code, out, _ = run(capsys, ["precompute", paths["G2"],
                                "--profile", os.fspath(prof)])
    assert code == 1
    assert "error=budget" in out
    assert "l3 exceeded element budget 10" in out


def test_profile_override_file(capsys, paths, tmp_path):
    prof = tmp_path / "c3.prof"
    prof.write_text("# tighter ball\nc2=1\nc3=1\n")
    code, out, _ = run(capsys, ["precompute", paths["G2"],
                                "--profile", os.fspath(prof)])
    assert code == 0
    assert "size_l3=5" in out


def test_precompute_deep_filtered_ball(capsys, tmp_path):
    # B(1200, 4) of a one-letter group has 2*1200+1 members, one per
    # relative length and sign
    pres = tmp_path / "z.txt"
    pres.write_text("group z\nhyperbolic a\n")
    assert tb.enumerate_filtered_ball(parse_presentation(pres.read_text()),
                                      1200, 4) == 2401
    prof = tmp_path / "d300.prof"
    prof.write_text("delta=300\n")
    code, out, _ = run(capsys, ["precompute", os.fspath(pres),
                                "--profile", os.fspath(prof)])
    assert code == 0
    assert out.startswith("status=ok\n")


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
    (["conj", "G2", "axA", "x"], "delta=2\ndelta=3"),
], ids=["maxlen", "negative-sample", "zero-sample", "c3", "delta", "key",
        "negative-c2", "repeated-key"])
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
    # a budget of 10 is below l3 = 13, so precompute fails; queries read
    # only the profile and answer
    prof = tmp_path / "b10.prof"
    prof.write_text("budget=10\n")
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
    assert "error=budget" in out and "l3 exceeded" in out


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


@pytest.mark.parametrize("text, radius, elements", [
    (ZS3_TEXT, 4, 434), (ZD4_TEXT, 4, 772), (Z2C2_TEXT, 3, 250),
    (THREE_TEXT, 2, 139)], ids=["zs3", "zd4", "z2c2", "three"])
def test_crosscheck_agrees_on_every_factor_layout(capsys, tmp_path, text,
                                                  radius, elements):
    # every ordered pair of the ball against the brute conjugacy classes:
    # Z * S3 and Z * D4, non-abelian finite factors, and Z2C2 and THREE,
    # whose cyclic forms rotate the rank code with separators
    path = tmp_path / "presentation.txt"
    path.write_text(text)
    code, out, _ = run(capsys, ["crosscheck", os.fspath(path), str(radius)])
    assert code == 0
    assert out == ("status=ok\nelements=%d\npairs=%d\nagreement=1.000000\n"
                   "mismatches=0\ncounterexample=-\n"
                   % (elements, elements ** 2))


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
    # the 7 elements of radius 1 make 49 pairs; a sample is held to the
    # same budget as the exhaustive check
    prof.write_text("budget=40\n")
    argv = ["crosscheck", paths["G2"], "1", "--profile", os.fspath(prof)]
    over = "status=error\nerror=budget\n"
    for extra, code_want, out_want in (
            ([], 1, over),
            (["--sample", "40"], 0, "status=ok\nelements=7\npairs=40\n"),
            (["--sample", "41"], 1, over),
            (["--sample", "1000000000"], 1, over)):
        code, out, _ = run(capsys, argv + extra)
        assert (code, out[:len(out_want)]) == (code_want, out_want), extra


@pytest.mark.parametrize("argv, wrong, tail", [
    # every answer flipped; the sample pins the order of the elements
    (["2", "--sample", "5", "--seed", "3"], lambda u, v: True,
     "elements=17\npairs=5\nagreement=0.000000\nmismatches=5\n"
     "counterexample=aB|B\n"),
    (["1"], lambda u, v: (u, v) == ("A", "b"),
     "elements=5\npairs=25\nagreement=0.960000\nmismatches=1\n"
     "counterexample=A|b\n"),
])
def test_crosscheck_reports_mismatches(capsys, monkeypatch, paths, argv,
                                       wrong, tail):
    decide = conjugacy.decide

    def answer_wrongly(p, profile, u, v, engine=None):
        cert = decide(p, profile, u, v, engine=engine)
        if not wrong(u, v):
            return cert
        flipped = ("not-conjugate" if cert.answer == "conjugate"
                   else "conjugate")
        return cert._replace(answer=flipped)

    monkeypatch.setattr(conjugacy, "decide", answer_wrongly)
    code, out, _ = run(capsys, ["crosscheck", paths["F"]] + argv)
    assert code == 0
    assert out == "status=ok\n" + tail


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


def parse_outputs(capsys, argv):
    """(exit code, stdout, stderr, arguments) of the full parser,
    cli.build_parser().parse_args(argv): no code when it parses, and no
    arguments when it exits."""
    try:
        args = vars(cli.build_parser().parse_args(argv))
        code = None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, args


def main_outputs(capsys, monkeypatch, argv):
    """parse_outputs of cli.main(argv), with run replaced by a stub that
    keeps the arguments main hands it, and the stub's output dropped."""
    ran = []
    monkeypatch.setattr(cli, "run", lambda args: (
        ran.append(vars(args)) or cli.CommandResult("ok", {})))
    try:
        cli.main(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    if ran:
        return code, "", "", ran[0]
    return code, captured.out, captured.err, None


def flags_after_positionals(argv):
    """argv with its flags, each with its value, moved after its other
    tokens: the subcommand and its positionals."""
    kinds = {flag: kind for flag, kind, *_ in cli._FLAGS}
    kinds.update((flag, kind) for *_, options in cli._SUBCOMMANDS
                 for flag, kind, *_ in options)
    words, flags = [], []
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            flags.append(token)
            if kinds[token] is not None:
                flags.append(next(tokens))
        else:
            words.append(token)
    return words + flags


def assert_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    """Where the direct parse accepts argv, its arguments are the full
    parser's; either way main runs what the full parser parses, and exits
    with its code, stdout and stderr where it exits.  One kind of line the
    direct parse accepts and the full parser rejects: an optional
    positional after a flag, which the full parser leaves unread.  There
    the full parser stands for what it parses from the same tokens with
    the flags after the positionals."""
    want = parse_outputs(capsys, argv)
    direct = cli._parse(argv)
    if direct is not None and want[3] is None:
        moved = flags_after_positionals(argv)
        _, _, _, positionals, _ = next(
            sub for sub in cli._SUBCOMMANDS if sub[0] == direct.command)
        assert moved != argv and any(
            kind is None and vars(direct)[name] is not None
            for name, kind, _ in positionals), argv
        want = parse_outputs(capsys, moved)
    if direct is not None:
        assert vars(direct) == want[3], argv
    assert main_outputs(capsys, monkeypatch, argv) == want, argv
    return direct is not None


ERROR_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "-h"], ["--seed", "x"],
    ["--seed", "x", "conj"], ["--profile", "conj", "bogus"],
    ["--profile", "wp", "conj", "f", "u", "v"], ["conj"], ["conj", "f"],
    ["conj", "f", "u", "v", "--bogus"], ["-h", "conj"],
] + [[name, "-h"] for name, *_ in cli._SUBCOMMANDS]

# each form that the direct parse leaves to argparse, once
DECLINED_ARGVS = [
    ["--cache=F", "wp", "F", "ab"], ["--ca", "F", "wp", "F", "ab"],
    ["wp", "--", "F", "ab"], ["crosscheck", "F", "-1"],
    ["--seed", "x", "wp", "F", "ab"], ["wp", "F", "ab", "--seed"],
    ["crosscheck", "F", "x"], ["crosscheck", "F", "2", "--sample", "y"],
    ["wp", "F"], ["wp", "F", "a", "b"], ["precompute"],
    ["precompute", "F", "c", "d"], ["--search", "conj", "F", "u", "v"],
]

# positionals on both sides of a flag, which the direct parse reads: the
# full parser reads the conj line alike and leaves the optional cache file
# of the precompute line unread
SPLIT_ARGVS = [["conj", "F", "--search", "u", "v"],
               ["precompute", "F", "--json", "c"]]


@pytest.mark.parametrize("argv", ERROR_ARGVS)
def test_parser_for_argv_prints_what_the_full_parser_prints(capsys,
                                                            monkeypatch,
                                                            argv):
    # every help, usage and error main prints is the full parser's
    assert_main_parses_as_the_full_parser(capsys, monkeypatch, argv)
    want = parse_outputs(capsys, argv)
    assert want[1] or want[2] or want[0] is None


# tokens of seeded command lines: the grammar's words, its flags spelled
# exactly and in the forms that the direct parse leaves to argparse, and
# values that are and are not integers
VALUES = ["", "bogus", "F", "ab", "x", "0", "3", "+4", " 5", "1_0", "\u0663",
          "a b", "-a b", "-1"]
NAMES = [name for name, *_ in cli._SUBCOMMANDS]
GRAMMAR_FLAGS = [flag for flag, *_ in cli._FLAGS] + ["--search", "--sample"]
FLAGS = GRAMMAR_FLAGS + ["--cache=F", "--ca", "--s", "--js", "--", "-",
                         "-h", "--help"]
TOKENS = NAMES + FLAGS + VALUES
GOLDEN = [shlex.split(line) for line in COMMANDS]


def grammar_argv(rng):
    """A command line of the grammar: a subcommand with its positionals (the
    last one sometimes left out), global flags before or after them and its
    own options after them, each value drawn from VALUES.  On half the
    lines with two positionals or more, the flags after them stand between
    two of them instead."""
    name, _, _, positionals, options = rng.choice(cli._SUBCOMMANDS)
    words = [rng.choice(VALUES) for _ in positionals[:rng.randrange(
        len(positionals) - 1, len(positionals) + 1)]]
    before, after = [], []
    for flag in rng.sample(cli._FLAGS + options, rng.randrange(4)):
        side = before if flag in cli._FLAGS and rng.randrange(2) else after
        side += flag[:1] if flag[1] is None else [flag[0],
                                                  rng.choice(VALUES)]
    at = len(words)
    if at > 1 and rng.randrange(2):
        at = rng.randrange(1, at)
    return before + [name] + words[:at] + after + words[at:]


def seeded_argvs(count, seed=34):
    """Command lines of the grammar, the golden ones with tokens inserted
    (a token, or a flag and a value), deleted and replaced, and lines of
    random tokens, a third each."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 3 == 0:
            out.append(grammar_argv(rng))
            continue
        if i % 3 == 1:
            out.append([rng.choice(TOKENS)
                        for _ in range(rng.randrange(8))])
            continue
        argv = list(rng.choice(GOLDEN))
        for _ in range(rng.randrange(4)):
            at = rng.randrange(len(argv) + 1)
            op = rng.randrange(4)
            if op == 0:
                argv.insert(at, rng.choice(TOKENS))
            elif op == 1:
                argv[at:at] = [rng.choice(FLAGS), rng.choice(VALUES)]
            elif at < len(argv):
                if op == 2:
                    del argv[at]
                else:
                    argv[at] = rng.choice(TOKENS)
        out.append(argv)
    return out


def test_the_direct_parse_is_the_full_parsers(capsys, monkeypatch):
    """On the golden command lines, the lines above and 2,000 seeded ones,
    main parses as the full parser does; the direct parse accepts every
    golden line and every SPLIT_ARGVS line, and declines every line of
    DECLINED_ARGVS."""
    # one parser serves every parse, main's too
    monkeypatch.setattr(cli, "build_parser",
                        functools.lru_cache(cli.build_parser))
    seeded = seeded_argvs(2000)
    accepted = [argv for argv in GOLDEN + ERROR_ARGVS + DECLINED_ARGVS
                + SPLIT_ARGVS
                + [["wp", "F", ""], ["crosscheck", "F", "2", "--sample", "0"]]
                + seeded
                if assert_main_parses_as_the_full_parser(capsys, monkeypatch,
                                                         argv)]
    # the seeded lines reach the one kind of line the two parsers read
    # apart: an optional positional after a flag
    assert any(cli._parse(argv) is not None
               and parse_outputs(capsys, argv)[3] is None for argv in seeded)
    assert all(cli._parse(argv) is not None for argv in GOLDEN + SPLIT_ARGVS)
    assert not any(cli._parse(argv) for argv in DECLINED_ARGVS)
    assert len(accepted) > len(GOLDEN) + 200
    assert ({token for argv in accepted for token in argv}
            >= set(GRAMMAR_FLAGS + NAMES))


def test_a_well_formed_command_builds_no_argparse_parser(monkeypatch,
                                                         capsys, tmp_path):
    def refuse():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    free2 = os.fspath(DEMOS / "free2.txt")
    for argv in (["wp", free2, "ab"], ["--json", "classify", free2, "aB"],
                 ["conj", free2, "ab", "ba", "--search", "--seed", "3"],
                 ["--cache", os.fspath(tmp_path / "c"), "precompute", free2],
                 ["precompute", free2, os.fspath(tmp_path / "d"), "--json"],
                 ["precompute", free2, "--json", os.fspath(tmp_path / "e")],
                 ["conj", free2, "--search", "ab", "ba"],
                 ["crosscheck", free2, "1", "--sample", "4"]):
        code, _, _ = run(capsys, argv)
        assert code == 0, argv


def test_a_cache_file_after_a_flag_is_written_alike(tmp_path):
    # precompute F --json C writes the cache that precompute F C --json
    # writes, and prints the same JSON but for the cache path
    zxz2 = str(DEMOS / "zxz2.txt")
    split = run_process(tmp_path, ["precompute", zxz2, "--json", "a"])
    after = run_process(tmp_path, ["precompute", zxz2, "b", "--json"])
    assert split.returncode == after.returncode == 0, split.stderr
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    split, after = json.loads(split.stdout), json.loads(after.stdout)
    assert (split.pop("cache"), after.pop("cache")) == ("a", "b")
    assert split == after


@pytest.mark.parametrize("argv", [
    ["conj", "G2", "axA", "x", "--search"],
    ["precompute", "G2", "CACHE"],
    ["wp", "BAD", "a"],
], ids=["query", "precompute", "parse-error"])
def test_the_library_call_leaves_the_collector_alone(capsys, paths, tmp_path,
                                                     argv):
    # only the process entry point freezes the heap; cli.main runs in its
    # caller's process
    bad = tmp_path / "bad.txt"
    bad.write_text("group g\nbogus directive\n")
    names = dict(paths, CACHE=os.fspath(tmp_path / "c"), BAD=os.fspath(bad))
    before = gc.get_freeze_count(), gc.isenabled()
    code, _, _ = run(capsys, [names.get(arg, arg) for arg in argv])
    assert code == (1 if "BAD" in argv else 0)
    assert (gc.get_freeze_count(), gc.isenabled()) == before


GOLDEN_TRANSCRIPT = dict(block.split("\n", 1)
                         for block in TRANSCRIPT.read_text().split("$ ")[1:])


@pytest.mark.parametrize("command", [
    "wp zxz2.txt xyXY",
    "classify zxz2.txt axA",
    "conj zxz2.txt axA x --search",
    "conj zxz2.txt a x",
    "--json conj free2.txt ab ba --search",
    "classify c5.txt a",
])
def test_the_process_entry_point_prints_the_golden_transcript(tmp_path,
                                                              command):
    # python -m relconj, the process the benchmark times, against the
    # in-process transcript: a wp, classify, positive and negative conj,
    # --json and error= line
    proc = run_process(tmp_path, _argv(command))
    assert ("exit=%d\n%s" % (proc.returncode, proc.stdout)
            == GOLDEN_TRANSCRIPT[command])
    assert proc.stderr.startswith("elapsed_ms=")
    assert proc.stderr.count("\n") == 1


def test_a_precompute_process_writes_the_in_process_cache(tmp_path):
    # the cache a process writes before it exits is the bytes save_tables
    # writes in-process
    zxz2 = DEMOS / "zxz2.txt"
    tb.save_tables(tmp_path / "want", tb.precompute(load_presentation(zxz2)))
    proc = run_process(tmp_path, ["precompute", str(zxz2), "got"])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def test_the_console_script_runs_the_process_entry_point():
    # `relconj` and `python -m relconj` run one function, which freezes
    # the heap only after cli.main has returned
    from relconj.__main__ import main

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert '\nrelconj = "%s:%s"\n' % (main.__module__, main.__name__) in text
