"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line with the measured numbers.

The headline polynomial bounds are not reproducible at desk scale because
the universal constants are astronomically large, so acceptance rests on
oracle equivalence, invariant suites, and bound checks under the documented
working constants pinned in the reference presentations.
"""

import collections
import itertools
import math
import random
import time

import pytest

from relconj import conjugacy, metric_oracle, shortening, tables as tb, words

F_LETTERS = "aAbB"
G2_LETTERS = "aAxXyY"


def report(capsys, line):
    # bypass capture so the per-criterion verdict always reaches the console
    with capsys.disabled():
        print(line, flush=True)


def random_word(rng, letters, n):
    w = ""
    while len(w) < n:
        c = rng.choice(letters)
        if w and w[-1] == words.inverse(c):
            continue
        w += c
    return w


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

    Witnesses come from the same in-ball single-generator conjugation BFS
    that makes conjugacy_classes complete on free products, so every member
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
            u = random_word(rng, letters, rng.randint(0, 8))
            g = random_word(rng, letters, rng.randint(0, 6))
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
        k = shortening.resolve_k(p, tables=t)
        c2 = t.profile.c2
        rng = random.Random(4)
        for _ in range(1000):
            w = random_word(rng, letters, rng.randint(1, 12))
            res = shortening.shorten(p, w, tables=t)
            total += 1
            if not shortening.is_local_geodesic(p, res.output, k):
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
        k = shortening.resolve_k(p, tables=t)
        mult = max(t.profile.c2, 8 * t.profile.delta * t.profile.c2)
        rng = random.Random(4)
        for _ in range(1000):
            w = random_word(rng, letters, rng.randint(1, 12))
            res = shortening.cyclic_shorten(p, w, tables=t)
            lbar = words.raw_relative_length(p, w)
            residue = words.mul(res.conjugator, res.output,
                                words.inverse(res.conjugator),
                                words.inverse(w))
            total += 1
            if not shortening.word_problem(p, residue, tables=t):
                fails += 1
            elif not shortening.is_cyclic_local_geodesic(p, res.output, k):
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
    t0 = time.perf_counter()
    assert tG2.profile.k_i == (0,)
    nonzero = 0
    checked = 0
    for n in range(5):
        for tup in itertools.product("xXyY", repeat=n):
            checked += 1
            if tb.compute_M(pG2, tG2, "".join(tup)) != 0:
                nonzero += 1
    assert checked == 341
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
    report(capsys, "criterion 7: %s (K_i=0, M=0 on %d parabolic words, linear "
           "witness bound on %d pairs with n=%d m=%d, %d failures, %.1fs)"
           % ("PASS" if ok else "FAIL", checked, pairs, nlin, mlin,
              nonzero + fails, elapsed))
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
    xbar = sum(x for x, _ in points) / len(points)
    ybar = sum(y for _, y in points) / len(points)
    slope = (sum((x - xbar) * (y - ybar) for x, y in points)
             / sum((x - xbar) ** 2 for x, _ in points))
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
            rev = "".join(s.word for s in
                          reversed(words.raw_syllables(pG2, u)))
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

    def slope(pts):
        xbar = sum(x for x, _ in pts) / len(pts)
        ybar = sum(y for _, y in pts) / len(pts)
        return (sum((x - xbar) * (y - ybar) for x, y in pts)
                / sum((x - xbar) ** 2 for x, _ in pts))

    pos_slope = slope(points["conjugate"])
    neg_slope = slope(points["not-conjugate"])
    elapsed = time.perf_counter() - t0
    ok = pos_slope < 1.3 and neg_slope < 1.3
    report(capsys, "criterion 9: %s (conjugacy scaling on cyclically reduced "
           "Z * Z^2 words, n=256..4096, log-log slopes conjugate %.3f, "
           "not conjugate %.3f < 1.3, %.1fs)"
           % ("PASS" if ok else "FAIL", pos_slope, neg_slope, elapsed))
    assert ok
