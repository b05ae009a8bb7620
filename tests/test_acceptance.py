"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line with the measured numbers.

The headline polynomial bounds are not reproducible at desk scale because
the universal constants are astronomically large, so acceptance rests on
oracle equivalence, invariant suites, and bound checks under the documented
working constants pinned in the reference presentations.
"""

import collections
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from relconj import (cli, conjugacy, metric_oracle, reference, shortening,
                     words)

from conftest import (factor_ball, is_cyclic_local_geodesic,
                      is_local_geodesic, random_letters, random_reduced_word)

F_LETTERS = "aAbB"
G2_LETTERS = "aAxXyY"


def report(capsys, line):
    # bypass capture so the per-criterion verdict always reaches the console
    with capsys.disabled():
        print(line, flush=True)


def loglog_slope(points):
    """Least-squares slope of (log n, log seconds) points."""
    xbar = sum(x for x, _ in points) / len(points)
    ybar = sum(y for _, y in points) / len(points)
    return (sum((x - xbar) * (y - ybar) for x, y in points)
            / sum((x - xbar) ** 2 for x, _ in points))


def reduced_words(letters, maxlen):
    out = [""]
    frontier = [""]
    for _ in range(maxlen):
        nxt = []
        for w in frontier:
            for c in letters:
                if w and w[-1] == words.inverse(c):
                    continue
                nxt.append(w + c)
        out.extend(nxt)
        frontier = nxt
    return out


@pytest.fixture(scope="module")
def g2_class_data(pG2, tG2):
    """Brute conjugacy classes of the radius-4 ball with verified witnesses.

    Witnesses come from an in-ball single-generator conjugation BFS, which
    must reach every member of each class: on a free product conjugates in
    a ball are linked by such conjugations inside it, so every member
    carries a word conjugating the class representative onto it.
    """
    classes = metric_oracle.conjugacy_classes(pG2, 4)
    members = collections.defaultdict(list)
    for w, rep in classes.items():
        members[rep].append(w)
    witness = {}
    for rep, ms in members.items():
        seen = {rep: ""}
        queue = collections.deque([rep])
        while queue:
            x = queue.popleft()
            for c in G2_LETTERS:
                y = words.normalize(pG2, words.mul(c, x, words.inverse(c)))
                if y in classes and y not in seen:
                    seen[y] = words.mul(c, seen[x])
                    queue.append(y)
        assert set(seen) == set(ms)
        witness[rep] = seen
    return classes, members, witness


def test_criterion_1_free_group_oracle_equivalence(capsys, pF, tF, engF):
    t0 = time.perf_counter()
    classes = metric_oracle.conjugacy_classes(pF, 5)
    corpus = sorted(classes)
    assert len(corpus) == 485
    mismatches = 0
    for u, v in itertools.product(corpus, corpus):
        cert = conjugacy.decide(pF, tF, u, v, engine=engF)
        if (cert.answer == "conjugate") != (classes[u] == classes[v]):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    report(capsys, "criterion 1: %s (free group, %d words, %d ordered pairs, "
           "%d mismatches, %.1fs)"
           % ("PASS" if ok else "FAIL", len(corpus), len(corpus) ** 2,
              mismatches, elapsed))
    assert ok


def test_criterion_2_free_product_oracle_equivalence(capsys, pG2, tG2, engG2,
                                                     g2_class_data):
    t0 = time.perf_counter()
    classes, _, _ = g2_class_data
    corpus = reduced_words(G2_LETTERS, 4)
    assert len(corpus) == 937
    cls = {w: classes[words.normalize(pG2, w)] for w in corpus}
    mismatches = 0
    for u, v in itertools.product(corpus, corpus):
        cert = conjugacy.decide(pG2, tG2, u, v, engine=engG2)
        if (cert.answer == "conjugate") != (cls[u] == cls[v]):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    report(capsys, "criterion 2: %s (Z * Z^2, %d words, %d ordered pairs, "
           "%d mismatches, %.1fs)"
           % ("PASS" if ok else "FAIL", len(corpus), len(corpus) ** 2,
              mismatches, elapsed))
    assert ok


def test_criterion_3_witness_soundness(capsys, pF, tF, engF, pG2, tG2, engG2):
    t0 = time.perf_counter()
    fails = total = 0
    for p, t, eng, letters in ((pF, tF, engF, F_LETTERS),
                               (pG2, tG2, engG2, G2_LETTERS)):
        rng = random.Random(3)
        for _ in range(1000):
            u = random_reduced_word(rng, letters, rng.randint(0, 8))
            g = random_reduced_word(rng, letters, rng.randint(0, 6))
            v = words.normalize(p, words.mul(g, u, words.inverse(g)))
            w = conjugacy.search(p, t, u, v, engine=eng)
            residue = words.mul(w, u, words.inverse(w), words.inverse(v))
            total += 1
            if not shortening.word_problem(p, residue, tables=t):
                fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0
    report(capsys, "criterion 3: %s (witness soundness, %d random conjugate pairs, "
           "%d verification failures, %.1fs)"
           % ("PASS" if ok else "FAIL", total, fails, elapsed))
    assert ok


def test_criterion_4_local_geodesic_output(capsys, pF, tF, pG2, tG2):
    t0 = time.perf_counter()
    fails = total = 0
    for p, t, letters in ((pF, tF, F_LETTERS), (pG2, tG2, G2_LETTERS)):
        k = t.profile.k
        c2 = t.profile.c2
        rng = random.Random(4)
        for _ in range(1000):
            w = random_reduced_word(rng, letters, rng.randint(1, 12))
            res = shortening.shorten(p, w)
            total += 1
            if not is_local_geodesic(p, res.output, k):
                fails += 1
            elif not len(res.output) < c2 * len(w):
                fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0
    report(capsys, "criterion 4: %s (local-geodesic output and Gamma-length bound, "
           "%d words, %d failures, %.1fs)"
           % ("PASS" if ok else "FAIL", total, fails, elapsed))
    assert ok


def test_criterion_5_cyclic_shortening_contract(capsys, pF, tF, pG2, tG2):
    t0 = time.perf_counter()
    fails = total = 0
    for p, t, letters in ((pF, tF, F_LETTERS), (pG2, tG2, G2_LETTERS)):
        k = t.profile.k
        mult = max(t.profile.c2, 8 * t.profile.delta * t.profile.c2)
        rng = random.Random(4)
        for _ in range(1000):
            w = random_reduced_word(rng, letters, rng.randint(1, 12))
            res = shortening.cyclic_shorten(p, w)
            lbar = len(reference.syllables(p, w))
            residue = words.mul(res.conjugator, res.output,
                                words.inverse(res.conjugator),
                                words.inverse(w))
            total += 1
            if not shortening.word_problem(p, residue, tables=t):
                fails += 1
            elif not is_cyclic_local_geodesic(p, res.output, k):
                fails += 1
            elif res.iterations > lbar:
                fails += 1
            elif len(res.conjugator) > mult * lbar + len(w):
                fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0
    report(capsys, "criterion 5: %s (cyclic shortening contract, %d words, "
           "%d failures, %.1fs)"
           % ("PASS" if ok else "FAIL", total, fails, elapsed))
    assert ok


def test_criterion_6_linear_conjugator_bound(capsys, pG2, tG2, g2_class_data):
    t0 = time.perf_counter()
    classes, members, witness = g2_class_data
    delta = tG2.profile.delta
    rel = {w: metric_oracle.relative_length(pG2, w) for w in classes}
    fails = pairs = 0
    for rep, ms in members.items():
        for m1, m2 in itertools.product(ms, ms):
            g = words.mul(witness[rep][m2], words.inverse(witness[rep][m1]))
            residue = words.mul(g, m1, words.inverse(g), words.inverse(m2))
            pairs += 1
            if not shortening.word_problem(pG2, residue, tables=tG2):
                fails += 1
            # Gamma length bounds relative length from above
            elif len(g) > rel[m1] + rel[m2] + 4 * delta + 2:
                fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0
    report(capsys, "criterion 6: %s (relative conjugator bound, %d conjugate pairs, "
           "%d failures, %.1fs)"
           % ("PASS" if ok else "FAIL", pairs, fails, elapsed))
    assert ok


def test_criterion_7_abelian_specialization(capsys, pG2, tG2, g2_class_data):
    # K_i = 0 and M = 0: a word of Z^2 is conjugate to an element of B_1,
    # the ball of radius c3, exactly when the two are equal, and then by
    # the empty word
    t0 = time.perf_counter()
    z2 = ["".join(tup) for n in range(5)
          for tup in itertools.product("xXyY", repeat=n)]
    ball = factor_ball(pG2.oracles[1], tG2.profile.c3)
    assert (len(z2), len(ball)) == (341, 13)
    nonzero = positive = 0
    for u in z2:
        nf = reference.normal_form(pG2, u)
        for t in ball:
            cert = conjugacy.decide(pG2, tG2, u, t)
            same = nf == reference.normal_form(pG2, t)
            positive += same
            if (cert.answer == "conjugate") != same or same and cert.witness:
                nonzero += 1
    _, members, witness = g2_class_data
    nlin, mlin = tG2.profile.nlin, tG2.profile.mlin
    fails = pairs = 0
    for rep, ms in members.items():
        for m1, m2 in itertools.product(ms, ms):
            g = words.mul(witness[rep][m2], words.inverse(witness[rep][m1]))
            pairs += 1
            if len(g) > nlin * (len(m1) + len(m2)) + mlin:
                fails += 1
    elapsed = time.perf_counter() - t0
    ok = nonzero == 0 and fails == 0
    report(capsys, "criterion 7: %s (K_i=0, M=0 on %d parabolic words against "
           "the %d elements of B_1, %d conjugate pairs, each by the empty "
           "word, linear witness bound on %d pairs with n=%d m=%d, "
           "%d failures, %.1fs)"
           % ("PASS" if ok else "FAIL", len(z2), len(ball), positive, pairs,
              nlin, mlin, nonzero + fails, elapsed))
    assert ok


def test_criterion_8_word_problem_scaling(capsys, pG2, tG2):
    t0 = time.perf_counter()
    rng = random.Random(8)

    def trivial_word(n):
        w = ""
        while len(w) < n:
            c = rng.choice(G2_LETTERS)
            i = rng.randrange(len(w) + 1)
            w = w[:i] + c + words.inverse(c) + w[i:]
        return w

    sizes = [2 ** e for e in range(8, 15)]
    points = []
    for n in sizes:
        w = trivial_word(n)
        best = math.inf
        for _ in range(3):
            t1 = time.perf_counter()
            assert shortening.word_problem(pG2, w, tables=tG2)
            best = min(best, time.perf_counter() - t1)
        points.append((math.log(n), math.log(best)))
    slope = loglog_slope(points)
    elapsed = time.perf_counter() - t0
    ok = slope < 2.0
    report(capsys, "criterion 8: %s (word-problem scaling on trivial words, "
           "n=256..16384, log-log slope %.3f < 2.0, %.1fs)"
           % ("PASS" if ok else "FAIL", slope, elapsed))
    assert ok


def cyclic_normal_word(rng, n):
    """A random cyclically reduced normal form of Z * Z^2 with about n
    letters: runs of a or A alternating with canonical x^i y^j runs, so the
    two ends are of different kinds."""
    w = ""
    while len(w) < n:
        w += rng.choice("aA") * rng.randint(1, 2)
        i, j = rng.randint(-2, 2), rng.randint(-2, 2)
        if i == j == 0:
            i = 1
        w += ("x" if i > 0 else "X") * abs(i) + ("y" if j > 0 else "Y") * abs(j)
    return w


def test_criterion_9_conjugacy_scaling(capsys, pG2, tG2):
    t0 = time.perf_counter()
    rng = random.Random(9)
    g = "xaY"
    sizes = [2 ** e for e in range(8, 13)]
    points = {"conjugate": [], "not-conjugate": []}
    for n in sizes:
        while True:
            u = cyclic_normal_word(rng, n)
            rev = "".join(s for _, s, _ in
                          reversed(reference.syllables(pG2, u)))
            if rev not in u + u:
                break
        assert words.normalize(pG2, u) == u
        pos = words.normalize(pG2, words.mul(g, u, words.inverse(g)))
        for v, answer in ((pos, "conjugate"), (rev, "not-conjugate")):
            best = math.inf
            for _ in range(3):
                t1 = time.perf_counter()
                cert = conjugacy.decide(pG2, tG2, u, v)
                best = min(best, time.perf_counter() - t1)
                assert cert.answer == answer
            points[answer].append((math.log(len(u)), math.log(best)))
    pos_slope = loglog_slope(points["conjugate"])
    neg_slope = loglog_slope(points["not-conjugate"])
    elapsed = time.perf_counter() - t0
    ok = pos_slope < 1.3 and neg_slope < 1.3
    report(capsys, "criterion 9: %s (conjugacy scaling on cyclically reduced "
           "Z * Z^2 words, n=256..4096, log-log slopes conjugate %.3f, "
           "not conjugate %.3f < 1.3, %.1fs)"
           % ("PASS" if ok else "FAIL", pos_slope, neg_slope, elapsed))
    assert ok


def test_criterion_10_conjugator_scaling(capsys, pG2, tG2):
    t0 = time.perf_counter()
    rng = random.Random(10)
    sizes = [2 ** e for e in range(8, 12)]
    points = []
    for n in sizes:
        u = cyclic_normal_word(rng, n)
        # g ends in u's first letter, so nothing cancels or merges where
        # g, u and g^-1 meet: v is a normal form of |u| + 2|g| letters
        g = cyclic_normal_word(rng, n // 4 - 1) + u[0]
        v = g + u + words.normalize(pG2, words.inverse(g))
        assert words.normalize(pG2, v) == v
        assert len(v) == len(u) + 2 * len(g)
        best = math.inf
        # the minimum of 7 runs: with 3, a busy machine could push the
        # slope of these inputs past 1.3
        for _ in range(7):
            t1 = time.perf_counter()
            cert = conjugacy.decide(pG2, tG2, u, v)
            best = min(best, time.perf_counter() - t1)
            assert cert.answer == "conjugate" and cert.verified
        points.append((math.log(len(u)), math.log(best)))
    slope = loglog_slope(points)
    elapsed = time.perf_counter() - t0
    ok = slope < 1.3
    report(capsys, "criterion 10: %s (conjugacy scaling with conjugators of "
           "n/4 letters on Z * Z^2, n=256..2048, log-log slope %.3f < 1.3, "
           "%.1fs)" % ("PASS" if ok else "FAIL", slope, elapsed))
    assert ok


def test_criterion_11_shortening_scaling(capsys, pG2):
    # the path of `relconj wp`: shorten the word, then decide the output
    t0 = time.perf_counter()
    sizes = [2 ** e for e in range(9, 13)]
    points = []
    for n in sizes:
        w = "xyXa" * (n // 4)
        best = math.inf
        for _ in range(3):
            t1 = time.perf_counter()
            res = shortening.shorten(pG2, w)
            trivial = res.output == ""
            best = min(best, time.perf_counter() - t1)
            assert not trivial
        points.append((math.log(n), math.log(best)))
    slope = loglog_slope(points)
    elapsed = time.perf_counter() - t0
    ok = slope < 1.3
    report(capsys, "criterion 11: %s (curve-shortening scaling on Z * Z^2 "
           "words (xyXa)^(n/4), n=512..4096, log-log slope %.3f < 1.3, "
           "%.1fs)" % ("PASS" if ok else "FAIL", slope, elapsed))
    assert ok


def cyclic_free_word(rng, n):
    """A random cyclically reduced word of n letters in the free parabolic
    of Z * F2."""
    while True:
        w = random_reduced_word(rng, "xXyY", n)
        if w[0] != words.inverse(w[-1]):
            return w


def test_criterion_12_free_parabolic_scaling(capsys, pZF2, tZF2):
    # Z * F2: parabolic runs are free words of any length, so the run
    # accumulator and the free factor's conjugacy test are on the path
    t0 = time.perf_counter()
    rng = random.Random(12)
    sizes = [2 ** e for e in range(10, 15)]
    points = {"word problem": [], "conjugate": [], "not conjugate": []}
    for n in sizes:
        f = random_reduced_word(rng, "xXyY", n // 2 - 2)
        trivial = "a" + f + "a" + words.inverse("a" + f + "a")
        u = cyclic_free_word(rng, n)
        rev = u[::-1]
        while rev in u + u:
            u = cyclic_free_word(rng, n)
            rev = u[::-1]
        # the conjugate is a rotation of u conjugated by xa, spelled as the
        # normal form x a rot A X
        pos = "xa" + u[n // 3:] + u[: n // 3] + "AX"
        assert words.normalize(pZF2, pos) == pos
        cases = (("word problem", lambda: shortening.word_problem(
                      pZF2, trivial, tables=tZF2), True),
                 ("conjugate", lambda: conjugacy.decide(
                     pZF2, tZF2, u, pos).answer, "conjugate"),
                 ("not conjugate", lambda: conjugacy.decide(
                     pZF2, tZF2, u, rev).answer, "not-conjugate"))
        for name, call, want in cases:
            best = math.inf
            for _ in range(3):
                t1 = time.perf_counter()
                got = call()
                best = min(best, time.perf_counter() - t1)
                assert got == want
            points[name].append((math.log(n), math.log(best)))
    slopes = {name: loglog_slope(pts) for name, pts in points.items()}
    elapsed = time.perf_counter() - t0
    ok = all(s < 1.3 for s in slopes.values())
    report(capsys, "criterion 12: %s (free-parabolic scaling on Z * F2, "
           "n=1024..16384, log-log slopes word problem %.3f, conjugate "
           "%.3f, not conjugate %.3f < 1.3, %.1fs)"
           % ("PASS" if ok else "FAIL", slopes["word problem"],
              slopes["conjugate"], slopes["not conjugate"], elapsed))
    assert ok


CHILD_LIMIT_S = 60


def run_in_child(capsys, criterion, function):
    """The JSON result of test_acceptance.function() run in a child process
    with a CHILD_LIMIT_S time limit, so that a pass that turns quadratic, or
    a pattern that backtracks exponentially, fails the gate instead of
    stalling it."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, test_acceptance as t; "
             "print(json.dumps(t.%s()))" % function],
            capture_output=True, text=True, timeout=CHILD_LIMIT_S,
            env=dict(os.environ, PYTHONPATH=path))
    except subprocess.TimeoutExpired:
        report(capsys, "criterion %d: FAIL (timeout)" % criterion)
        pytest.fail("criterion %d runs still going after %d s"
                    % (criterion, CHILD_LIMIT_S))
    if proc.returncode != 0:
        report(capsys, "criterion %d: FAIL (runs exited with status %d)"
               % (criterion, proc.returncode))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def normal_form_recognition_slopes():
    """Criterion 13's scans: log-log slopes of normalize on cyclically
    reduced normal forms of Z * Z^2, as they are and with aA appended.
    normalize recognises a normal form with one letter check and one find
    of each fault factor; on the words with aA appended the finds stop
    at their end, so both sets catch a scan that stops being linear."""
    from conftest import G2_TEXT

    from relconj.presentation import parse_presentation

    pG2 = parse_presentation(G2_TEXT)
    rng = random.Random(13)
    sizes = [2 ** e for e in range(12, 17)]
    points = {"normal form": [], "aA appended": []}
    for n in sizes:
        nf = cyclic_normal_word(rng, n)
        assert words.normalize(pG2, nf) == nf
        for name, w, want in (("normal form", nf, nf),
                              ("aA appended", nf + "aA", nf)):
            best = math.inf
            for _ in range(3):
                t1 = time.perf_counter()
                got = words.normalize(pG2, w)
                best = min(best, time.perf_counter() - t1)
                assert got == want
            points[name].append((math.log(len(w)), math.log(best)))
    return {name: loglog_slope(pts) for name, pts in points.items()}


def test_criterion_13_normal_form_recognition_scaling(capsys):
    t0 = time.perf_counter()
    slopes = run_in_child(capsys, 13, "normal_form_recognition_slopes")
    elapsed = time.perf_counter() - t0
    ok = all(s < 1.3 for s in slopes.values())
    report(capsys, "criterion 13: %s (normal-form recognition scaling on "
           "Z * Z^2, n=4096..65536, log-log slopes normal form %.3f, "
           "aA appended %.3f < 1.3, %.1fs)"
           % ("PASS" if ok else "FAIL", slopes["normal form"],
              slopes["aA appended"], elapsed))
    assert ok


def test_criterion_14_torsion_oracle_equivalence(capsys):
    # `relconj crosscheck demos/presentations/zc2.txt 6`: every ordered pair
    # of the radius-6 ball of Z * C2 against the brute conjugacy classes,
    # through the finite factor's canonical run and its torsion
    t0 = time.perf_counter()
    path = (Path(__file__).resolve().parents[1] / "demos" / "presentations"
            / "zc2.txt")
    res = cli.run(cli.build_parser().parse_args(
        ["crosscheck", str(path), "6"]))
    out = res.payload
    elapsed = time.perf_counter() - t0
    ok = (res.status == "ok" and out["pairs"] == out["elements"] ** 2
          and out["mismatches"] == 0)
    report(capsys, "criterion 14: %s (Z * C2 oracle equivalence, %d words, "
           "%d ordered pairs, %d mismatches, %.1fs)"
           % ("PASS" if ok else "FAIL", out["elements"], out["pairs"],
              out["mismatches"], elapsed))
    assert out["elements"] == 190
    assert ok


def dehn_word_problem_slopes():
    """Criterion 15's runs: log-log slopes of word_problem on products of
    relator conjugates, which are trivial, on C5, the genus-two surface
    group and C5 * Z^2."""
    from conftest import C5Z2_TEXT, relator_conjugates

    from relconj.presentation import load_presentation, parse_presentation

    demos = Path(__file__).resolve().parents[1] / "demos" / "presentations"
    groups = {"c5": load_presentation(demos / "c5.txt"),
              "surface2": load_presentation(demos / "surface2.txt"),
              "C5 * Z^2": parse_presentation(C5Z2_TEXT)}
    rng = random.Random(15)
    slopes = {}
    for name, p in groups.items():
        points = []
        for n in [2 ** e for e in range(10, 17)]:
            w = relator_conjugates(rng, p, n)
            best = math.inf
            for _ in range(3):
                t1 = time.perf_counter()
                got = shortening.word_problem(p, w)
                best = min(best, time.perf_counter() - t1)
                assert got
            points.append((math.log(len(w)), math.log(best)))
        slopes[name] = loglog_slope(points)
    return slopes


def test_criterion_15_dehn_word_problem_scaling(capsys):
    t0 = time.perf_counter()
    slopes = run_in_child(capsys, 15, "dehn_word_problem_slopes")
    elapsed = time.perf_counter() - t0
    ok = all(s < 1.3 for s in slopes.values())
    report(capsys, "criterion 15: %s (Dehn word problem scaling on trivial "
           "products of relator conjugates, n=1024..65536, log-log slopes %s "
           "< 1.3, %.1fs)"
           % ("PASS" if ok else "FAIL",
              ", ".join("%s %.3f" % kv for kv in slopes.items()), elapsed))
    assert ok


ALMOST_NORMAL_REPEATS = 9  # rounds of criterion 16's interleaved timings


def almost_normal_scaling():
    """Criterion 16's runs on Z * Z^2 and Z * F2, n = 4096..65536.  A
    normal form with one cancelling pair (aA or xX) inserted at its start,
    middle or end is normalized at nearly the recognition speed of the
    normal form itself: the worst ratio of their times per letter.  Random
    raw words keep a linear stack pass: the log-log slope of normalize on
    them.  The words of one n are timed in turns, ALMOST_NORMAL_REPEATS
    rounds of one normalize call each, and each word keeps its fastest
    call, so that a slow spell of a shared machine meets every word alike
    and no word only."""
    from conftest import G2_TEXT, ZF2_PATH

    from relconj.presentation import load_presentation, parse_presentation

    groups = {"Z * Z^2": parse_presentation(G2_TEXT),
              "Z * F2": load_presentation(ZF2_PATH)}
    rng = random.Random(16)

    def best_per_letter(p, cases):
        """The fastest normalize of each (word, normal form), per letter."""
        best = [math.inf] * len(cases)
        for _ in range(ALMOST_NORMAL_REPEATS):
            for k, (w, want) in enumerate(cases):
                t1 = time.perf_counter()
                got = words.normalize(p, w)
                best[k] = min(best[k], time.perf_counter() - t1)
                assert got == want
        return [t / len(w) for t, (w, _) in zip(best, cases)]

    ratios, slopes = {}, {}
    for name, p in groups.items():
        worst, points = 0.0, []
        for n in [2 ** e for e in range(12, 17)]:
            nf = ""
            while len(nf) < n:
                nf = words.normalize(p, nf + "".join(
                    rng.choice(p.alphabet) for _ in range(n)))
            nf = nf[:n]  # a prefix of a normal form is one
            raw = random_letters(rng, p.alphabet, n)
            cases = [(nf, nf)] + [(nf[:i] + pair + nf[i:], nf)
                                  for pair in ("aA", "xX")
                                  for i in (0, n // 2, n)]
            cases.append((raw, words.normalize(p, raw)))
            recognise, *almost, stack = best_per_letter(p, cases)
            worst = max([worst] + [t / recognise for t in almost])
            points.append((math.log(n), math.log(stack * n)))
        ratios[name] = worst
        slopes[name] = loglog_slope(points)
    return {"ratios": ratios, "slopes": slopes}


def test_criterion_16_almost_normal_forms_at_recognition_speed(capsys):
    t0 = time.perf_counter()
    out = run_in_child(capsys, 16, "almost_normal_scaling")
    elapsed = time.perf_counter() - t0
    ok = (all(r <= 2.0 for r in out["ratios"].values())
          and all(s <= 1.3 for s in out["slopes"].values()))
    report(capsys, "criterion 16: %s (almost-normal forms at recognition "
           "speed, n=4096..65536, worst time per letter over recognition %s "
           "<= 2, raw-word log-log slopes %s <= 1.3, %.1fs)"
           % ("PASS" if ok else "FAIL",
              ", ".join("%s %.2f" % kv for kv in out["ratios"].items()),
              ", ".join("%s %.3f" % kv for kv in out["slopes"].items()),
              elapsed))
    assert ok


def least_rotation_slopes():
    """Criterion 17's runs: log-log slopes of shortening.least_rotation on
    the four hard families of conftest.rotation_families, n = 4096..65536,
    min of 3 timings each.  Each answer is checked to be no greater than 64
    other rotations, the first of them the string itself."""
    from conftest import rotation_families

    rng = random.Random(17)
    points = collections.defaultdict(list)
    for n in [2 ** e for e in range(12, 17)]:
        for name, s in rotation_families(n).items():
            best = math.inf
            for _ in range(3):
                t1 = time.perf_counter()
                r = shortening.least_rotation(s)
                best = min(best, time.perf_counter() - t1)
            m, d = len(s), s + s
            assert all(d[r : r + m] <= d[i : i + m]
                       for i in [0] + rng.sample(range(m), 63))
            points[name].append((math.log(m), math.log(best)))
    return {name: loglog_slope(pts) for name, pts in points.items()}


def test_criterion_17_least_rotation_scaling(capsys):
    t0 = time.perf_counter()
    slopes = run_in_child(capsys, 17, "least_rotation_slopes")
    elapsed = time.perf_counter() - t0
    ok = all(s < 1.3 for s in slopes.values())
    report(capsys, "criterion 17: %s (least-rotation scaling on hard "
           "families, n=4096..65536, log-log slopes %s < 1.3, %.1fs)"
           % ("PASS" if ok else "FAIL",
              ", ".join("%s %.3f" % kv for kv in slopes.items()), elapsed))
    assert ok


CYCLIC_DEHN_ROUNDS = 7  # rounds of criterion 18's interleaved timings


def cyclic_dehn_slopes():
    """Criterion 18's runs: log-log slopes of cyclic_shorten with relators,
    n = 1024..16384, on (cdCD)^k * aa * (abAB)^k on the genus-two surface
    group, whose relator abABcdCD reads k times across its ends, and on g *
    u * g^-1 on that group and on C5 * Z^2, g of n/4 random letters and u
    of n/4 letters of a product of relator conjugates, so that every u has
    windows to rewrite, then n/4 random letters.  All words are timed in
    turns, CYCLIC_DEHN_ROUNDS rounds of one call each, and each word keeps
    its fastest call.  Each family word takes one rotation (iterations, as
    the group has no end runs to merge) to its cyclic form aa, and no
    output has a table window, across its ends or not.  Also the time of
    the 4098-letter family word over that of its word problem."""
    from conftest import C5Z2_TEXT, relator_conjugates

    from relconj.presentation import load_presentation, parse_presentation

    demos = Path(__file__).resolve().parents[1] / "demos" / "presentations"
    pS2 = load_presentation(demos / "surface2.txt")
    pC5Z2 = parse_presentation(C5Z2_TEXT)
    rng = random.Random(18)

    def conjugated(p, n):
        g = random_letters(rng, p.alphabet, n // 4)
        u = (relator_conjugates(rng, p, n // 4)[: n // 4]
             + random_letters(rng, p.alphabet, n // 4))
        return g + u + words.inverse(g)

    cases = []  # (name, p, word, run)
    for n in [2 ** e for e in range(10, 15)]:
        family = "cdCD" * (n // 8) + "aa" + "abAB" * (n // 8)
        cases += [("surface2 family", pS2, family, shortening.cyclic_shorten),
                  ("g u g^-1 on surface2", pS2, conjugated(pS2, n),
                   shortening.cyclic_shorten),
                  ("g u g^-1 on C5 * Z^2", pC5Z2, conjugated(pC5Z2, n),
                   shortening.cyclic_shorten)]
        if len(family) == 4098:
            cases.append(("word problem", pS2, family,
                          shortening.word_problem))
    best = [math.inf] * len(cases)
    results = [None] * len(cases)
    for _ in range(CYCLIC_DEHN_ROUNDS):
        for k, (_, p, w, run) in enumerate(cases):
            t1 = time.perf_counter()
            results[k] = run(p, w)
            best[k] = min(best[k], time.perf_counter() - t1)
    points = collections.defaultdict(list)
    for (name, p, w, run), t, res in zip(cases, best, results):
        if run is shortening.word_problem:
            continue
        table, lengths = p.dehn_table
        alpha = res.output
        assert not any((alpha + alpha)[i : i + m] in table
                       for m in lengths if m <= len(alpha)
                       for i in range(len(alpha)))
        if name == "surface2 family":
            assert (alpha, res.iterations) == ("aa", 1)
        points[name].append((math.log(len(w)), math.log(t)))
    times = {(name, len(w)): t for (name, _, w, _), t in zip(cases, best)}
    return {"slopes": {name: loglog_slope(pts)
                       for name, pts in points.items()},
            "ratio": (times["surface2 family", 4098]
                      / times["word problem", 4098])}


def test_criterion_18_cyclic_dehn_scaling(capsys):
    t0 = time.perf_counter()
    out = run_in_child(capsys, 18, "cyclic_dehn_slopes")
    elapsed = time.perf_counter() - t0
    ok = all(s < 1.3 for s in out["slopes"].values())
    report(capsys, "criterion 18: %s (cyclic Dehn reduction scaling, "
           "n=1024..16384, log-log slopes %s < 1.3, one rotation per family "
           "word; 4098-letter family word %.1fx its word problem, %.1fs)"
           % ("PASS" if ok else "FAIL",
              ", ".join("%s %.3f" % kv for kv in out["slopes"].items()),
              out["ratio"], elapsed))
    assert ok
