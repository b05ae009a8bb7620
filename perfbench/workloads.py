"""The three workloads.  Each one generates its inputs from the seed, computes
the expected answers with the independent reference, then times the program
on the generated words only, in a closed loop: one client, one process, no
threads, the next query sent when the previous one returns.

The amount of work is fixed by the seed and --seconds (rounds, or queries,
per second of --seconds), never by a clock.  Two commits therefore run
identical queries, and every percentile rests on the same sample count.
"""

from __future__ import annotations

import array
import compileall
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import reference
import stats
from speed import REFERENCE_CODE, Speed, reference_factors
from tracer import Instrumentation, Tracer

from relconj import conjugacy, presentation, shortening, tables, words
from relconj.presentation import HYPERBOLIC

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEMOS = ROOT / "demos" / "presentations"
OUT = ROOT / ".perfbench"  # caches, traces; listed in .gitignore

# Every module-level cache in relconj (metric_oracle.ball, oracles_for, ...).
# Captured at import, before any wrapper replaces a module attribute, and
# cleared before each set-up, so that set-up always starts cold and input
# generation cannot warm what the timed calls read.
COLD_CACHES = {obj for name, mod in list(sys.modules.items())
               if name.startswith("relconj")
               for obj in vars(mod).values() if hasattr(obj, "cache_clear")}

SETUP_REPEATS = 3
TABLE_NAMES = ("free2", "zxz2", "zc2")  # the demos that can have tables
SIZE_KEYS = ("l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8", "l9", "l10",
             "l11", "l88_classes", "bcc", "bcc_classes", "trivial_loops")
REGIMES = ("long", "short-hyperbolic", "parabolic", "class-mismatch")


def pres_path(name):
    return DEMOS / (name + ".txt")


def cache_path(name):
    return OUT / ("%s-%d.tables" % (name, os.getpid()))


def load_for_generation(names):
    """Presentations for input generation and ground truth.  The timed
    set-up parses its own copies after the caches are cleared."""
    return {n: presentation.load_presentation(pres_path(n)) for n in names}


def clear_cold_caches():
    for cache in COLD_CACHES:
        cache.cache_clear()


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# input generation


def raw_word(rng, p, n):
    """n letters drawn uniformly from the alphabet, not reduced."""
    return "".join(rng.choice(p.alphabet) for _ in range(n))


def normal_word(rng, p, n):
    """A random word that is already in normal form and has n letters: a
    random walk that appends letters and reduces as it goes, where only the
    last syllable can change."""
    syl, size = [], 0
    while size != n:
        c = rng.choice(p.alphabet)
        kind = p.letter_kind[c]
        last = syl[-1] if syl else ""
        if kind != HYPERBOLIC and last and p.letter_kind[last[0]] == kind:
            merged = words.normalize(p, last + c)
            size += len(merged) - len(last)
            if merged:
                syl[-1] = merged
            else:
                syl.pop()
        elif kind == HYPERBOLIC and last == words.inverse(c):
            syl.pop()
            size -= 1
        else:
            syl.append(c)
            size += 1
    return "".join(syl)


def cyclic_normal_word(rng, p, n):
    """A random normal form of n letters that is also cyclically reduced, so
    n is the length every cyclic procedure works on."""
    while True:
        w = normal_word(rng, p, n)
        syl = reference.syllables(p, w)
        if len(syl) < 2 or not reference.reduces(syl[0], syl[-1]):
            return w


def conjugate_without_cancellation(rng, p, u):
    """g u g^-1 for a random g of |u|/4 letters chosen so that nothing
    cancels or merges where the pieces meet: the conjugate is a normal form
    of exactly |u| + 2|g| letters."""
    syl = reference.syllables(p, u)
    first, last = syl[0], syl[-1]
    while True:
        g = normal_word(rng, p, len(u) // 4)
        g_inv = words.normalize(p, words.inverse(g))
        end = reference.syllables(p, g)[-1]
        start = reference.syllables(p, g_inv)[0]
        if not (reference.reduces(end, first) or
                reference.reduces(last, start)):
            return g + u + g_inv


def reversed_syllables(p, w):
    """The syllables of w in reverse order: the same letters and the same
    neighbours, so still a cyclically reduced normal form of the same
    length, and in general not conjugate to w."""
    return "".join(word for _, word in reversed(reference.syllables(p, w)))


def shuffle_runs(rng, p, w):
    """Permute the letters inside every parabolic run: the element is
    unchanged because the demo parabolics are abelian."""
    out, run, kind = [], [], None
    for c in w + " ":
        k = p.letter_kind.get(c)
        if run and k != kind:
            rng.shuffle(run)
            out += run
            run = []
        if k == HYPERBOLIC:
            out.append(c)
        elif k is not None:
            run.append(c)
        kind = k
    return "".join(out)


def trivial_word(rng, p, n):
    """n letters that multiply to the identity, where cancelling them needs
    the parabolic folding, not only free reduction."""
    x = raw_word(rng, p, n // 2)
    return x + shuffle_runs(rng, p, words.inverse(x))


def nontrivial_word(rng, p, n):
    """A trivial word with the hyperbolic letter 'a' inserted: a conjugate of
    a, which has infinite order in every demo group."""
    t = trivial_word(rng, p, n - 1)
    i = rng.randrange(len(t) + 1)
    return t[:i] + "a" + t[i:]


class Query:
    __slots__ = ("kind", "pres", "u", "v", "expected")

    def __init__(self, kind, pres, u, v, expected):
        self.kind, self.pres, self.u, self.v = kind, pres, u, v
        self.expected = expected  # conjugate? trivial? (verdict, index)?


# ---------------------------------------------------------------------------
# checking answers (always outside the timed region)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.regimes = dict.fromkeys(REGIMES + ("identity",), 0)

    def fail(self, what):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def decide(self, p, q, cert):
        """Check one decide() answer; a positive witness is re-verified with
        the normal form."""
        self.attempted += 1
        if isinstance(cert, Exception):
            return self.fail("%s %s %s: %r" % (q.pres, q.u, q.v, cert))
        if cert.regime is not None:
            self.regimes[cert.regime] += 1
        elif cert.reason == conjugacy.CLASS_MISMATCH:
            self.regimes["class-mismatch"] += 1
        else:
            self.regimes["identity"] += 1
        positive = cert.answer == "conjugate"
        if positive != q.expected:
            return self.fail("%s %s %s: answered %s"
                             % (q.pres, q.u, q.v, cert.answer))
        if positive and not (cert.verified and
                             reference.conjugates(p, cert.witness, q.u, q.v)):
            return self.fail("%s %s %s: witness %s does not conjugate"
                             % (q.pres, q.u, q.v, cert.witness))

    def word_problem(self, q, answer):
        self.attempted += 1
        if isinstance(answer, Exception):
            return self.fail("%s wp: %r" % (q.pres, answer))
        if answer != q.expected:
            return self.fail("%s wp of %d letters: answered %s"
                             % (q.pres, len(q.u), answer))

    def regime_shares(self):
        total = sum(self.regimes.values()) or 1
        return {"conjugacy.regime.%s.share" % r: self.regimes[r] / total
                for r in REGIMES}


# ---------------------------------------------------------------------------
# in-process workloads: shared set-up, rounds and per-layer report


def setup_in_process(names):
    """Parse plus precompute, timed, starting from cold caches."""
    clear_cold_caches()
    start = time.perf_counter()
    ps = {n: presentation.load_presentation(pres_path(n)) for n in names}
    ts = {n: tables.precompute(ps[n]) for n in names}
    return time.perf_counter() - start, ps, ts


def cache_round_trip(ps, ts):
    """Write and re-read every table cache (untimed): cache_bytes, the
    save/load layer in the trace, and a check that nothing is lost."""
    OUT.mkdir(exist_ok=True)
    total, ok = 0, True
    for n, t in ts.items():
        path = cache_path(n)
        tables.save_tables(path, t)
        total += path.stat().st_size
        ok &= tables.load_tables(path, ps[n]).sizes() == t.sizes()
        path.unlink()
    return total, ok


class Timing:
    """Per-query latencies of every round, in ms at nominal speed.

    Each query runs once per round with fresh engines, and its latency is
    its median over the rounds.  Percentiles are taken over queries, and
    throughput is queries per second of the summed latencies."""

    def __init__(self):
        self.rounds = []  # one array of normalized ms per round
        self.raw_s = []  # each round's raw wall-clock program time

    def add(self, latencies_ms, raw_s):
        self.rounds.append(array.array("d", latencies_ms))
        self.raw_s.append(raw_s)

    def per_query(self):
        return [stats.median(xs) for xs in zip(*self.rounds)]

    def metrics(self, pos, neg):
        """The latency end-to-end metrics; pos and neg pick the queries of
        pos_p50_ms and neg_p50_ms by index."""
        lat = self.per_query()
        pct, tail_ms = stats.tail(lat)
        values = {
            "queries_per_s": len(lat) / (sum(lat) / 1e3),
            "latency_p50_ms": stats.median(lat),
            "latency_tail_ms": tail_ms,
            "pos_p50_ms": stats.median([lat[i] for i in pos]),
            "neg_p50_ms": stats.median([lat[i] for i in neg]),
        }
        extras = {"tail_percentile": pct, "queries": len(lat),
                  "rounds": len(self.rounds),
                  "raw_round_s": [round(x, 4) for x in self.raw_s],
                  "nominal_round_s": [round(sum(r) / 1e3, 4)
                                      for r in self.rounds]}
        return values, extras


def run_round(ps, ts, queries, shared_engine, speed, block, tracer=None):
    """One timed pass over the queries, in blocks of `block` queries with a
    speed measurement after each block.  shared_engine: one fresh
    ConjugacyEngine per presentation for the whole pass; otherwise decide()
    builds a fresh engine for every pair.  Returns (normalized latencies in
    ms, raw program seconds, answers)."""
    engines = {n: conjugacy.ConjugacyEngine(ps[n], ts[n]) if shared_engine
               else None for n in ps}
    lat = array.array("d")
    answers = []
    clock = time.perf_counter_ns
    raw_total = 0
    speed.mark()
    for b0 in range(0, len(queries), block):
        raw = array.array("q")
        with speed.sampling():
            for i in range(b0, min(b0 + block, len(queries))):
                q = queries[i]
                if tracer is not None:
                    tracer.query = i
                p, t = ps[q.pres], ts[q.pres]
                stolen = speed.stolen_ns
                t0 = clock()
                try:
                    if q.kind == "wp":
                        ans = shortening.word_problem(p, q.u, tables=t)
                    else:
                        ans = conjugacy.decide(p, t, q.u, q.v,
                                               engine=engines[q.pres])
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    ans = exc
                raw.append(clock() - t0 - (speed.stolen_ns - stolen))
                answers.append(ans)
        scale = 1e6 * speed.factor()
        lat.extend(x / scale for x in raw)
        raw_total += sum(raw)
    return lat, raw_total / 1e9, answers


def check_round(ps, queries, answers, tally):
    for q, ans in zip(queries, answers):
        if q.kind == "wp":
            tally.word_problem(q, ans)
        else:
            tally.decide(ps[q.pres], q, ans)


class InProcessRun:
    """Set-up, cache round trip and rounds shared by short-batch and
    long-words.  With a tracer, set-up runs once traced and every round
    runs twice, untraced then traced, to measure the tracing overhead."""

    def __init__(self, names, queries, rounds, shared_engine, block, trace):
        self.names, self.queries = names, queries
        self.rounds, self.shared_engine = rounds, shared_engine
        self.block = block
        self.tally = Tally()
        self.tracer = Tracer() if trace else None
        self.inst = Instrumentation(self.tracer) if trace else None
        self.speed = Speed()
        self.timing = Timing()
        self.traced = Timing()

    def setup(self):
        self.speed.mark()
        stolen = self.speed.stolen_ns
        with self.speed.sampling():
            took, ps, ts = setup_in_process(self.names)
        took -= (self.speed.stolen_ns - stolen) / 1e9
        self.setup_raw.append(took)
        self.setup_runs.append(took / self.speed.factor())
        return ps, ts

    def run(self):
        self.setup_runs, self.setup_raw = [], []
        if self.inst:
            self.inst.install()
            ps, ts = self.setup()
            self.cache_bytes, self.cache_ok = cache_round_trip(ps, ts)
            self.inst.uninstall()
        else:
            for _ in range(SETUP_REPEATS):
                ps, ts = self.setup()
            self.cache_bytes, self.cache_ok = cache_round_trip(ps, ts)
        self.sizes = {k: sum(t.sizes().get(k, 0) for t in ts.values())
                      for k in SIZE_KEYS}
        for _ in range(self.rounds):
            lat, raw_s, answers = run_round(ps, ts, self.queries,
                                            self.shared_engine, self.speed,
                                            self.block)
            self.timing.add(lat, raw_s)
            check_round(ps, self.queries, answers, self.tally)
            if self.inst:
                self.inst.install()
                lat, raw_s, answers = run_round(
                    ps, ts, self.queries, self.shared_engine, self.speed,
                    self.block, self.tracer)
                self.inst.uninstall()
                self.traced.add(lat, raw_s)
                check_round(ps, self.queries, answers, self.tally)
        self.peak_rss_mb = peak_rss_mb()
        return self

    def end_to_end(self, pos, neg):
        values, extras = self.timing.metrics(pos, neg)
        values.update({
            "setup_s": stats.median(self.setup_runs),
            "peak_rss_mb": self.peak_rss_mb,
            "cache_bytes": self.cache_bytes,
        })
        extras["raw_setup_s"] = [round(x, 4) for x in self.setup_raw]
        extras["nominal_setup_s"] = [round(x, 4) for x in self.setup_runs]
        extras["speed_factor_p50"] = stats.median(self.speed.factors)
        return values, extras

    def per_layer(self):
        tr = self.tracer
        values = layer_metrics(tr)
        values.update(self.tally.regime_shares())
        values.update({"tables.size." + k: v for k, v in self.sizes.items()})
        values.update(overhead(self.timing, self.traced))
        values["program.query_ms"] = stats.median(self.timing.per_query())
        values["cli.run.calls"] = tr.calls("cli.run")
        return values


def overhead(untraced, traced):
    """Traced minus untraced program time over the same queries."""
    a = sum(sum(r) for r in untraced.rounds) / 1e3
    b = sum(sum(r) for r in traced.rounds) / 1e3
    return {"tracing.overhead_s": b - a, "tracing.overhead_frac": b / a - 1.0}


def layer_metrics(tr):
    """Per-layer numbers that come straight from the span aggregates."""
    v = {}
    for name in ("words.normalize", "shortening.shorten",
                 "shortening.cyclic_shorten", "shortening.word_problem",
                 "shortening.find_violating_window",
                 "conjugacy.decide.conjugate", "conjugacy.decide.not-conjugate",
                 "conjugacy.classify", "conjugacy.ConjugacyEngine.core"):
        v[name + ".calls"] = tr.calls(name)
        v[name + ".self_ms"] = tr.ms(name, which=2)
    v["words.normalize.letters"] = tr.counts.get("words.normalize.letters", 0)
    # decide() reaches the engine's memo through classification(), which
    # sits in front of its cyclic-shortening memo: a lookup is a hit unless
    # it has to call classify().  The base is the number of lookups.
    lookups = tr.calls("conjugacy.ConjugacyEngine.classification")
    misses = tr.edges.get(("conjugacy.ConjugacyEngine.classification",
                           "conjugacy.classify"), 0)
    v["conjugacy.ConjugacyEngine.classification.calls"] = lookups
    v["conjugacy.ConjugacyEngine.cyclic.calls"] = tr.calls(
        "conjugacy.ConjugacyEngine.cyclic")
    v["conjugacy.engine_hit_ratio"] = (1.0 - misses / lookups if lookups
                                       else 0.0)
    v["tables.precompute.self_ms"] = tr.ms("tables.precompute", which=2)
    for label in ("l4", "l5", "l6", "l8", "bcc", "k_hyp_4delta"):
        v["tables.enumerate_filtered_ball.%s.ms" % label] = tr.ms(
            "tables.enumerate_filtered_ball." + label)
    v["tables.cyclic_canonical.calls"] = tr.calls("tables.cyclic_canonical")
    v["tables.cyclic_canonical.ms"] = tr.ms("tables.cyclic_canonical")
    v["tables.save_tables.ms"] = tr.ms("tables.save_tables")
    v["tables.load_tables.ms"] = tr.ms("tables.load_tables")
    v["metric_oracle.ball.ms"] = tr.ms("metric_oracle.ball")
    v["metric_oracle.is_relative_geodesic.calls"] = tr.calls(
        "metric_oracle.is_relative_geodesic")
    v["metric_oracle.normal_form.calls"] = tr.calls("metric_oracle.normal_form")
    v["parabolic_oracles.conjugate.calls"] = tr.calls(
        "parabolic_oracles.conjugate")
    v["parabolic_oracles.geodesic_form.calls"] = tr.calls(
        "parabolic_oracles.geodesic_form")
    v["presentation.load_presentation.ms"] = tr.ms(
        "presentation.load_presentation")
    return v


# ---------------------------------------------------------------------------
# short-batch


SHORT_SHARES = (("zxz2", 0.70), ("free2", 0.15), ("zc2", 0.15))
SHORT_CORPUS = {"zxz2": 3000, "free2": 800, "zc2": 300}
SHORT_ROUND = 20_000  # pairs per round; about two seconds at the seed commit
SHORT_BLOCK = 2000  # pairs between speed readings, about 0.2 s


def short_batch_queries(seed):
    """Pairs of short words, half conjugate by construction (v the normal
    form of g u g^-1 with |g| <= 3), half drawn at random from a corpus, so
    the same words recur and the engine memo is used."""
    rng = random.Random(seed)
    ps = load_for_generation(SHORT_CORPUS)
    corpus = {n: [raw_word(rng, ps[n], rng.randint(1, 5))
                  for _ in range(size)] for n, size in SHORT_CORPUS.items()}
    names = [n for n, _ in SHORT_SHARES]
    weights = [w for _, w in SHORT_SHARES]
    keys = {}

    def key(n, w):
        k = keys.get((n, w))
        if k is None:
            k = keys[(n, w)] = reference.conjugacy_key(ps[n], w)
        return k

    out = []
    for _ in range(SHORT_ROUND):
        n = rng.choices(names, weights)[0]
        p = ps[n]
        u = rng.choice(corpus[n])
        if rng.random() < 0.5:
            g = raw_word(rng, p, rng.randint(0, 3))
            v = words.normalize(p, g + u + words.inverse(g))
        else:
            v = rng.choice(corpus[n])
        out.append(Query("decide", n, u, v, key(n, u) == key(n, v)))
    return out


def short_batch(seed, seconds, trace):
    """One round of SHORT_ROUND pairs per two seconds of --seconds."""
    queries = short_batch_queries(seed)
    run = InProcessRun(TABLE_NAMES, queries, max(1, seconds // 2), True,
                       SHORT_BLOCK, trace).run()
    values, extras = run.end_to_end(
        [i for i, q in enumerate(queries) if q.expected],
        [i for i, q in enumerate(queries) if not q.expected])
    extras["regimes"] = run.tally.regimes
    return finish("short-batch", run.tally, values, extras,
                  run.per_layer() if trace else None, run.tracer, run.cache_ok)


# ---------------------------------------------------------------------------
# long-words


LONG_NAMES = ("zxz2", "free2")
LONG_NS = (64, 128, 256, 512)
WP_SIZES = (1024, 4096, 16384)
LONG_POS_PAIRS = 5  # puts the median of the 60 queries inside one cluster
LONG_ROUND_S = 5  # seconds of --seconds per round: 2 rounds at 10 s


def long_words_queries(seed):
    """Per presentation and n: cyclically reduced words u of n letters, each
    with a conjugate (a random conjugator of n/4 letters that cancels with
    nothing, so every conjugate has 3n/2 letters), and for the first
    one a non-conjugate with the same letters (u's syllables reversed), so
    abelianisation cannot answer it; then word problems on trivial and
    non-trivial words of up to 16k letters.  Positive pairs are cheap, so
    there are LONG_POS_PAIRS of them per n to even out their inputs."""
    rng = random.Random(seed)
    ps = load_for_generation(LONG_NAMES)
    out = []
    for name in LONG_NAMES:
        p = ps[name]
        for n in LONG_NS:
            u = cyclic_normal_word(rng, p, n)
            w = reversed_syllables(p, u)
            while reference.conjugacy_key(p, w) == reference.conjugacy_key(
                    p, u):
                u = cyclic_normal_word(rng, p, n)
                w = reversed_syllables(p, u)
            out.append(Query("decide", name, u, w, False))
            for k in range(LONG_POS_PAIRS):
                if k:
                    u = cyclic_normal_word(rng, p, n)
                out.append(Query("decide", name, u,
                                 conjugate_without_cancellation(rng, p, u),
                                 True))
        for n in WP_SIZES:
            out.append(Query("wp", name, trivial_word(rng, p, n), None, True))
            out.append(Query("wp", name, nontrivial_word(rng, p, n), None,
                             False))
    return out


def long_words(seed, seconds, trace):
    """pos/neg_p50_ms are Z * Z^2's at the largest n (its tables are the
    large ones); the per-n medians and slopes of both presentations are
    printed beside them."""
    queries = long_words_queries(seed)
    rounds = max(1, round(seconds / LONG_ROUND_S))
    run = InProcessRun(LONG_NAMES, queries, rounds, False, 1, trace).run()
    lat = run.timing.per_query()

    def pick(name, want, n):
        return [i for i, q in enumerate(queries) if q.kind == "decide"
                and q.pres == name and q.expected is want and len(q.u) == n]

    top = max(LONG_NS)
    values, extras = run.end_to_end(pick("zxz2", True, top),
                                    pick("zxz2", False, top))
    for name in LONG_NAMES:
        for want, label in ((True, "pos"), (False, "neg")):
            by_n = {n: stats.median([lat[i] for i in pick(name, want, n)])
                    for n in LONG_NS}
            extras["%s.%s_ms_by_n" % (name, label)] = by_n
            extras["%s.%s_slope" % (name, label)] = stats.loglog_slope(
                LONG_NS, [by_n[n] for n in LONG_NS])
    wp = [(len(q.u), x) for x, q in zip(lat, queries) if q.kind == "wp"]
    extras["wp_letters_per_s"] = (sum(n for n, _ in wp) /
                                  (sum(x for _, x in wp) / 1e3))
    return finish("long-words", run.tally, values, extras,
                  run.per_layer() if trace else None, run.tracer, run.cache_ok)


# ---------------------------------------------------------------------------
# cli


CLI_ROUNDS = 2
CLI_PER_SECOND = 6  # distinct warm queries per second of --seconds


def cli_queries(seed, count):
    """Seeded warm queries, cycling classify / positive conj --search /
    negative conj / wp and, every four queries, the three presentations that
    have tables: every kind meets every table file equally often, so the
    seed picks the words but not the mix of table loads."""
    rng = random.Random(seed)
    ps = load_for_generation(TABLE_NAMES)
    out = []
    for i in range(count):
        name = TABLE_NAMES[i // 4 % len(TABLE_NAMES)]
        p = ps[name]
        kind = ("classify", "conj+", "conj-", "wp")[i % 4]
        u = raw_word(rng, p, rng.randint(2, 8))
        if kind == "classify":
            out.append(Query(kind, name, u, None, reference.verdict(p, u)))
        elif kind == "conj+":
            g = raw_word(rng, p, rng.randint(1, 4))
            out.append(Query(kind, name, u,
                             words.normalize(p, g + u + words.inverse(g)),
                             True))
        elif kind == "conj-":
            ku = reference.conjugacy_key(p, u)
            v = raw_word(rng, p, rng.randint(2, 8))
            while reference.conjugacy_key(p, v) == ku:
                v = raw_word(rng, p, rng.randint(2, 8))
            out.append(Query(kind, name, u, v, False))
        elif rng.random() < 0.5:
            out.append(Query(kind, name, trivial_word(rng, p, 16), None, True))
        else:
            out.append(Query(kind, name, nontrivial_word(rng, p, 16), None,
                             False))
    return ps, out


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliRunner:
    """Runs relconj command lines as child processes.  A traced child goes
    through cli_child.py, which installs the same wrappers and hands its
    span aggregates back in a file."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.env = child_env()
        self.children = 0

    def __call__(self, args, traced=False):
        if traced:
            self.children += 1
            snap = OUT / ("child-%d-%d" % (os.getpid(), self.children))
            cmd = [sys.executable, str(Path(__file__).with_name(
                "cli_child.py")), str(snap)] + args
        else:
            cmd = [sys.executable, "-m", "relconj"] + args
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=self.env, cwd=str(ROOT), timeout=120)
        wall = time.perf_counter() - start
        if traced:
            self.tracer.merge_file(snap)
        elapsed = None
        for line in proc.stderr.splitlines():
            if line.startswith("elapsed_ms="):
                elapsed = float(line.split("=", 1)[1]) / 1e3
        fields = dict(line.split("=", 1) for line in proc.stdout.splitlines()
                      if "=" in line)
        return proc.returncode, fields, wall, elapsed

    def reference(self):
        """Wall time of one run of the reference process (speed.py)."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_CODE], check=True,
                       capture_output=True, env=self.env, cwd=str(ROOT),
                       timeout=120)
        return time.perf_counter() - start


def check_cli(p, q, code, out, tally):
    tally.attempted += 1
    if code != 0 or out.get("status") != "ok":
        return tally.fail("%s %s %s %s: exit %d %s"
                          % (q.pres, q.kind, q.u, q.v, code, out))
    if q.kind == "wp":
        if out.get("trivial") != ("true" if q.expected else "false"):
            tally.fail("%s wp %s: trivial=%s" % (q.pres, q.u, out.get("trivial")))
        return None
    if q.kind == "classify":
        verdict, index = q.expected
        got_index = None if out.get("index") == "-" else int(out["index"])
        conj = out.get("conjugator", "")
        conj = "" if conj == "-" else conj
        if (out.get("verdict") != verdict or got_index != index or
                not reference.conjugates(p, conj, out.get("representative", ""),
                                         q.u)):
            tally.fail("%s classify %s: %s" % (q.pres, q.u, out))
        return None
    positive = out.get("answer") == "conjugate"
    regime = out.get("regime", "-")
    if regime != "-":
        tally.regimes[regime] += 1
    elif out.get("reason") == conjugacy.CLASS_MISMATCH:
        tally.regimes["class-mismatch"] += 1
    else:
        tally.regimes["identity"] += 1
    if positive != q.expected:
        tally.fail("%s conj %s %s: %s" % (q.pres, q.u, q.v, out))
    elif positive and not (out.get("verified") == "true" and
                           reference.conjugates(p, out["witness"], q.u, q.v)):
        tally.fail("%s conj %s %s: bad witness %s"
                   % (q.pres, q.u, q.v, out.get("witness")))
    return None


def cli_args(q):
    cache = str(cache_path(q.pres))
    pres = str(pres_path(q.pres))
    if q.kind == "classify":
        return ["--cache", cache, "classify", pres, q.u]
    if q.kind == "wp":
        return ["--cache", cache, "wp", pres, q.u]
    args = ["--cache", cache, "conj", pres, q.u, q.v]
    return args + ["--search"] if q.kind == "conj+" else args


def cli(seed, seconds, trace):
    """Cold `precompute FILE` per presentation, then rounds of warm --cache
    queries, each a fresh `python -m relconj` process.  Bytecode caches are
    written first, as an installed package has them."""
    compileall.compile_dir(str(SRC / "relconj"), quiet=1)
    OUT.mkdir(exist_ok=True)
    ps, queries = cli_queries(seed, max(8, CLI_PER_SECOND * seconds))
    tracer = Tracer() if trace else None
    run = CliRunner(tracer)
    tally = Tally()
    refs, walls, sizes = [], [], dict.fromkeys(SIZE_KEYS, 0)
    for rep in range(1 if trace else SETUP_REPEATS):
        for name in TABLE_NAMES:
            cache = cache_path(name)
            if cache.exists():
                cache.unlink()
            refs.append(run.reference())
            code, out, wall, _ = run(["precompute", str(pres_path(name)),
                                      str(cache)], traced=trace)
            walls.append(wall)
            if code != 0 or out.get("status") != "ok":
                tally.fail("precompute %s: exit %d %s" % (name, code, out))
            if rep == 0:
                for k in SIZE_KEYS:
                    sizes[k] += int(out.get("size_" + k, 0))
    refs.append(run.reference())
    factors = reference_factors(refs)
    per_rep = len(TABLE_NAMES)
    reps = range(0, len(walls), per_rep)
    setup_raw = [sum(walls[i:i + per_rep]) for i in reps]
    setup_runs = [sum(w / f for w, f in zip(walls[i:i + per_rep],
                                            factors[i:i + per_rep]))
                  for i in reps]
    process_factors = list(factors)
    cache_bytes = sum(cache_path(n).stat().st_size for n in TABLE_NAMES)
    timing, traced = Timing(), Timing()
    program, startup = Timing(), Timing()
    for _ in range(CLI_ROUNDS):
        refs, walls, traced_walls, elapsed = [], [], [], []
        for i, q in enumerate(queries):
            refs.append(run.reference())
            code, out, wall, took = run(cli_args(q))
            check_cli(ps[q.pres], q, code, out, tally)
            walls.append(wall)
            elapsed.append(wall if took is None else took)
            if trace:
                tracer.query = i
                code, out, wall, _ = run(cli_args(q), traced=True)
                traced_walls.append(wall)
                check_cli(ps[q.pres], q, code, out, tally)
        refs.append(run.reference())
        factors = reference_factors(refs)
        process_factors.extend(factors)
        timing.add([w * 1e3 / f for w, f in zip(walls, factors)], sum(walls))
        traced.add([w * 1e3 / f for w, f in zip(traced_walls, factors)],
                   sum(traced_walls))
        program.add([e * 1e3 / f for e, f in zip(elapsed, factors)], 0)
        startup.add([(w - e) * 1e3 / f
                     for w, e, f in zip(walls, elapsed, factors)], 0)
    for name in TABLE_NAMES:
        cache_path(name).unlink()
    values, extras = timing.metrics(
        [i for i, q in enumerate(queries) if q.kind == "conj+"],
        [i for i, q in enumerate(queries) if q.kind == "conj-"])
    values.update({
        "setup_s": stats.median(setup_runs),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "cache_bytes": cache_bytes,
    })
    extras.update({"raw_setup_s": [round(x, 4) for x in setup_raw],
                   "nominal_setup_s": [round(x, 4) for x in setup_runs],
                   "process_factor_p50": stats.median(process_factors),
                   "regimes": tally.regimes,
                   "program_ms_p50": stats.median(program.per_query()),
                   "startup_ms_p50": stats.median(startup.per_query())})
    layers = None
    if trace:
        layers = layer_metrics(tracer)
        layers.update(tally.regime_shares())
        layers.update({"tables.size." + k: v for k, v in sizes.items()})
        layers.update(overhead(timing, traced))
        layers["program.query_ms"] = extras["program_ms_p50"]
        layers["process.startup_ms"] = extras["startup_ms_p50"]
        layers["cli.run.calls"] = tracer.calls("cli.run")
    return finish("cli", tally, values, extras, layers, tracer, True)


# ---------------------------------------------------------------------------


def finish(workload, tally, values, extras, layers, tracer, cache_ok):
    extras["failed_frac"] = tally.failed / max(1, tally.attempted)
    if tally.first_failure:
        extras["first_failure"] = tally.first_failure
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / ("spans-%s.tsv" % workload)
        tracer.write_spans(path)
        extras["spans_file"] = str(path.relative_to(ROOT))
        extras["spans_dropped"] = tracer.dropped
    return {"correct": tally.failed == 0 and cache_ok,
            "attempted": tally.attempted, "failed": tally.failed,
            "values": values, "layers": layers, "extras": extras}


WORKLOADS = {"short-batch": short_batch, "long-words": long_words, "cli": cli}
