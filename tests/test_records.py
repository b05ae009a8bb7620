"""The result records are named tuples with a fixed field order, and a query
process loads no module and defines no record class it does not run, and
writes no tables cache.

A query command, with relators too, loads neither the ball oracle nor
the ground truth it rests on (metric_oracle, reference), nor fractions,
decimal, dataclasses, inspect or json, and a well-formed command loads
neither argparse nor hashlib.  The three records that validate their
fields (ParabolicDescriptor, RelativePresentation, ConstantsProfile) are
plain frozen classes: it is importing dataclasses, which brings inspect,
ast, dis and tokenize with it, and not defining a dataclass, that costs
start-up.
"""

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from relconj import conjugacy, shortening, tables, words

from conftest import (C5C2F2_TEXT, C5Z2_TEXT,
                      conjugate_without_cancellation,
                      cyclically_reduced_syllables, random_letters,
                      relator_conjugates)

ROOT = Path(__file__).resolve().parents[1]

RECORDS = [
    (shortening.ShorteningStep,
     ("start", "end", "before", "after", "justification")),
    (shortening.ShorteningResult, ("output", "steps")),
    (shortening.CyclicShorteningResult,
     ("output", "conjugator", "iterations", "linear_length", "cyclic_length",
      "normal_form")),
    (conjugacy.Classification,
     ("verdict", "identity", "index", "representative", "conjugator")),
    (conjugacy.ConjugacyCertificate,
     ("u", "v", "answer", "witness", "reason", "regime", "lbar", "length",
      "profile", "verified")),
    (tables.PrecomputedTables,
     ("p_hash", "profile", "l3")),
]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_fields_and_immutability(cls, fields):
    assert cls._fields == fields
    rec = cls(*range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], "changed")
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_certificate_record_line():
    cert = conjugacy.ConjugacyCertificate(
        "ab", "ba", "conjugate", "b", None, "short-hyperbolic", 2, 2,
        "0123456789abcdef", True)
    assert cert.to_record() == (
        "answer=conjugate witness=b reason=- regime=short-hyperbolic lbar=2 "
        "L=2 profile=0123456789abcdef verified=1")
    cert = conjugacy.ConjugacyCertificate(
        "a", "x", "not-conjugate", None, "class-mismatch", None, 1, 1,
        "0123456789abcdef", False)
    assert cert.to_record() == (
        "answer=not-conjugate witness=- reason=class-mismatch regime=- "
        "lbar=1 L=1 profile=0123456789abcdef verified=0")


QUERY_PROCESS = """\
import contextlib, io, os, sys
from relconj import cli
pres, cache, c5 = sys.argv[1:4]
for argv in (["wp", pres, "xyXY"], ["classify", pres, "axA"],
             ["conj", pres, "axA", "x"], ["conj", pres, "axA", "x", "--search"],
             ["wp", c5, "aaaaa"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["--cache", cache] + argv) == 0, argv
assert not os.path.exists(cache), "a query wrote the tables cache"
print(" ".join(sorted({"fractions", "decimal", "relconj.metric_oracle",
                       "relconj.reference", "dataclasses", "inspect",
                       "json"} & set(sys.modules))))
import dataclasses
print(" ".join(sorted(
    name for module_name, module in list(sys.modules.items())
    if module_name.split(".")[0] == "relconj"
    for name, obj in vars(module).items()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    and obj.__module__ == module_name)))
"""


def _pythonpath():
    return os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))


def test_query_process_defines_only_what_it_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", QUERY_PROCESS,
         str(ROOT / "demos" / "presentations" / "zxz2.txt"),
         str(tmp_path / "zxz2.tables"),
         str(ROOT / "demos" / "presentations" / "c5.txt")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=_pythonpath()))
    assert proc.returncode == 0, proc.stderr
    loaded, record_classes = proc.stdout.split("\n")[:2]
    assert loaded == ""
    assert record_classes.split() == []


def test_the_library_imports_the_standard_library_only():
    # every import under src/relconj, at any depth, names a standard
    # library module or is relative within the package.  CPython's built-in
    # SHA-256 module is _sha256 up to 3.11 and _sha2 from 3.12 on, and
    # presentation.short_hash tries both, where each interpreter lists only
    # its own
    import ast

    stdlib = sys.stdlib_module_names | {"_sha256", "_sha2"}
    for path in sorted((ROOT / "src" / "relconj").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in stdlib, \
                    (path.name, node.lineno, name)


def test_every_import_is_used_and_every_export_is_listed():
    # an import that a deletion leaves behind fails here; an import line
    # that says "# noqa" is a deliberate re-export
    import ast

    import relconj

    for path in sorted((ROOT / "src" / "relconj").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, str(path))
        lines = text.splitlines()
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used.update(relconj.__all__)  # a re-export is a use
        imported = []
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and "# noqa" not in lines[node.lineno - 1]):
                imported += [(alias.asname or alias.name).split(".")[0]
                             for alias in node.names]
        unused = [name for name in imported if name not in used]
        assert unused == [], (path.name, unused)

    init = ast.parse((ROOT / "src" / "relconj" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(relconj.__all__) == sorted(exported | {"__version__"})


HASH_PROCESS = """\
import sys
loaded = set(sys.modules)
from relconj import cli
code = cli.main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - loaded)))
sys.exit(code)
"""

# a fresh process per command, and what it prints of the two hashes
HASH_COMMANDS = [
    (["wp", "zxz2.txt", "xyXY"], []),
    (["classify", "zxz2.txt", "axA"], []),
    (["conj", "zxz2.txt", "axA", "x"], ["profile=ee78d136534fd600"]),
    (["precompute", "zxz2.txt"], ["presentation=1d7bf671254c87b8",
                                  "profile=ee78d136534fd600"]),
]


@pytest.mark.parametrize("argv, hashes", HASH_COMMANDS,
                         ids=[argv[0] for argv, _ in HASH_COMMANDS])
def test_a_well_formed_command_loads_neither_argparse_nor_openssl(argv,
                                                                  hashes):
    """argparse (with gettext and locale) loads only for help and errors,
    and the hashes come from the built-in _sha256 (_sha2 from Python 3.12
    on), not from hashlib and its OpenSSL, where the interpreter has
    either."""
    proc = subprocess.run(
        [sys.executable, "-c", HASH_PROCESS] + argv,
        capture_output=True, text=True, timeout=120,
        cwd=ROOT / "demos" / "presentations",
        env=dict(os.environ, PYTHONPATH=_pythonpath()))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    unwanted = {"argparse", "gettext", "locale"}
    if any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
        unwanted |= {"hashlib", "_hashlib"}
    assert unwanted.isdisjoint(lines[-1].split())
    assert [line for line in lines
            if line.startswith(("profile=", "presentation="))] == hashes


# sha256 of the decide(...).to_record() lines, each ended by "\n", over all
# ordered pairs of the radius-3 ball of each demo presentation, elements in
# shortlex order, one engine per presentation
DECIDE_DIGESTS = {
    "free2": (53, "b8013b0474c8bc11"),
    "zxz2": (143, "7a931a50cf8b4095"),
    "zc2": (22, "5fabb71eec85c798"),
    "zf2": (187, "41709ce9a1256257"),
}


@pytest.mark.parametrize("name", sorted(DECIDE_DIGESTS))
def test_decide_records_on_the_radius_3_balls_are_unchanged(name):
    """Every decide record (answer, witness, reason, regime, lengths,
    profile hash) on the radius-3 ball pairs, pinned by its digest, so that
    a speed or design change cannot move an answer or a witness unseen.  A
    deliberate record change updates the digest here and quotes the old and
    the new one in CHANGES.md."""
    import hashlib

    from relconj import metric_oracle
    from relconj.presentation import load_presentation

    p = load_presentation(ROOT / "demos" / "presentations" / (name + ".txt"))
    profile = tables.profile_for(p, [])
    engine = conjugacy.ConjugacyEngine(p, profile)
    elements = sorted(metric_oracle.ball(p, 3).elements, key=p.shortlex_key)
    digest = hashlib.sha256()
    for u in elements:
        for v in elements:
            record = conjugacy.decide(p, profile, u, v, engine=engine)
            digest.update((record.to_record() + "\n").encode())
    assert (len(elements), digest.hexdigest()[:16]) == DECIDE_DIGESTS[name]


def long_pairs(p, seed):
    """Seeded pairs per n = 64, 128, 256 on a cyclically reduced normal form
    u of n syllables, beside a conjugator of n / 4 random letters: u under
    one that cancels and merges with nothing (the fast path of
    cyclic_shorten around u's cyclic form), u rotated at a random letter,
    and u's syllables reversed under one (in general not conjugate)."""
    rng = random.Random(seed)
    out = []
    for n in (64, 128, 256):
        syls = cyclically_reduced_syllables(p, rng, n)
        u = "".join(syls)
        k = rng.randrange(len(u))
        g = random_letters(rng, p.alphabet, n // 4)
        backwards = "".join(reversed(syls))
        out += [(u, conjugate_without_cancellation(rng, p, u, n // 4)),
                (u, g + u[k:] + u[:k] + words.inverse(g)),
                (u, conjugate_without_cancellation(rng, p, backwards,
                                                   n // 4))]
    return out


# sha256 of the decide(...).to_record() lines, each ended by "\n", over
# the long_pairs of seed 29, each pair in both orders, one engine per pair
LONG_DECIDE_DIGESTS = {
    "free2": "2de32a61b4847354",
    "zxz2": "c2d6970226d0e654",
    "zc2": "37d350cbb504305f",
    "zf2": "33e339af3a00f0db",
}


@pytest.mark.parametrize("name", sorted(LONG_DECIDE_DIGESTS))
def test_decide_records_on_long_pairs_are_unchanged(name):
    """The radius-3 balls above have cores of a few syllables; these pairs
    have cores of SHORT_CYCLE syllables or more, whose rotation least_rotation
    finds on the rank code, and conjugators of up to 64 letters around
    them."""
    import hashlib

    from relconj.presentation import load_presentation

    p = load_presentation(ROOT / "demos" / "presentations" / (name + ".txt"))
    profile = tables.profile_for(p, [])
    digest = hashlib.sha256()
    for u, v in long_pairs(p, 29):
        for x, y in ((u, v), (v, u)):
            record = conjugacy.decide(p, profile, x, y)
            digest.update((record.to_record() + "\n").encode())
    assert digest.hexdigest()[:16] == LONG_DECIDE_DIGESTS[name]


@pytest.mark.parametrize("index, answer", [
    (6, "conjugate"), (1, "conjugate"), (8, "not-conjugate")],
    ids=["conjugate", "conjugate-with-cancellation", "not-conjugate"])
def test_a_long_pair_takes_one_rotation(monkeypatch, index, answer):
    """decide on u and a long v takes u's core from one end-run pass and
    reads v against it with no rotation: around u's core for a conjugate
    under a conjugator that cancels with nothing (n = 256), and by v's end
    pass and one find in v's core for u rotated at a letter under a random
    conjugator whose joins cancel (n = 64), and for u's syllables reversed
    (n = 256), which is not conjugate.  A conjugate pair then takes one
    least_rotation (not counting its recursion), of u's core, and a
    non-conjugate pair none."""
    from relconj.presentation import load_presentation

    p = load_presentation(ROOT / "demos" / "presentations" / "zxz2.txt")
    u, v = long_pairs(p, 29)[index]
    ru = shortening.cyclic_shorten(p, u)
    around = shortening._cyclic_form_around(
        p, words.normalize(p, v), ru.output, ru.cyclic_length)
    assert (around is None) == (index != 6)
    calls = {"least_rotation": 0, "_syllable_cyclic_form": 0}
    depth = dict(calls)

    def counted(name):
        original = getattr(shortening, name)

        def run(*args):
            calls[name] += depth[name] == 0
            depth[name] += 1
            try:
                return original(*args)
            finally:
                depth[name] -= 1
        monkeypatch.setattr(shortening, name, run)

    counted("least_rotation")
    counted("_syllable_cyclic_form")
    cert = conjugacy.decide(p, tables.profile_for(p, []), u, v)
    assert cert.answer == answer and cert.verified == (answer == "conjugate")
    rotations = int(answer == "conjugate")
    assert calls == {"least_rotation": rotations,
                     "_syllable_cyclic_form": rotations}


def cyclic_shorten_inputs(p, name):
    """What the cyclic_shorten digests hash: without relators each word of
    the radius-3 ball in shortlex order, then u, v and v again for each
    long_pairs(p, 29) pair (the second v was read around u's result when
    cyclic_shorten took a known cyclic form, with the same result, and
    keeps its line of the digests); with relators (c5c7, surface2, which
    take the Dehn path) seeded random words, their conjugates, the words
    between the two parts of a relator cut once (so that it wraps around
    their ends) and trivial products of relator conjugates."""
    if p.is_free_product:
        from relconj import metric_oracle

        out = sorted(metric_oracle.ball(p, 3).elements, key=p.shortlex_key)
        for u, v in long_pairs(p, 29):
            out += [u, v, v]
        return out
    rng = random.Random(30)
    out = []
    for n in range(2, 42, 2):
        w = random_letters(rng, p.alphabet, n)
        g = random_letters(rng, p.alphabet, n // 2)
        r = rng.choice(p.relators)
        k = rng.randrange(1, len(r))
        out += [w, g + w + words.inverse(g), r[k:] + w + r[:k],
                relator_conjugates(rng, p, n)]
    return out


# sha256 of the lines "output conjugator iterations linear_length
# cyclic_length normal_form\n", each field repr'd, of cyclic_shorten over
# cyclic_shorten_inputs(p, name)
CYCLIC_SHORTEN_DIGESTS = {
    "free2": "c1d5e42d578fec31",
    "zxz2": "baca8060d945f803",
    "zc2": "2cb71b38f40c0c39",
    "zf2": "4ebfaeac2dfddd54",
    "c5c7": "9e83cfb110e48395",
    "surface2": "1ca8b0dd5fb3fa3f",
}


@pytest.mark.parametrize("name", sorted(CYCLIC_SHORTEN_DIGESTS))
def test_cyclic_shorten_results_are_unchanged(name):
    """Every field of a cyclic shortening that a caller reads (the cyclic
    form, the conjugator, the merge and rotation count, both lengths and
    the normal form), pinned by its digest on the balls, on the long pairs
    and on the Dehn path.  A deliberate change
    updates the digest here and quotes the old and the new one in
    CHANGES.md."""
    import hashlib

    from relconj.presentation import load_presentation

    p = load_presentation(ROOT / "demos" / "presentations" / (name + ".txt"))
    digest = hashlib.sha256()
    for w in cyclic_shorten_inputs(p, name):
        res = shortening.cyclic_shorten(p, w)
        digest.update(("%r %r %r %r %r %r\n" % (
            res.output, res.conjugator, res.iterations, res.linear_length,
            res.cyclic_length, res.normal_form)).encode())
    assert digest.hexdigest()[:16] == CYCLIC_SHORTEN_DIGESTS[name]


DEHN_PATH_TEXTS = {"c5z2": C5Z2_TEXT, "c5c2f2": C5C2F2_TEXT}

# sha256 of the lines "output steps\n" of shorten and "output conjugator
# iterations linear_length cyclic_length normal_form\n" of cyclic_shorten,
# each field repr'd, over dehn_path_inputs(p)
DEHN_PATH_DIGESTS = {
    "c5c2f2": "3e9ffab1b4ea20eb",
    "c5z2": "a1cde7a697b0a406",
}


def dehn_path_inputs(p):
    """Seeded random words of 1 to 60 letters, their conjugates and trivial
    products of relator conjugates: on a presentation with relators and
    parabolic factors, words whose Dehn pass folds parabolic runs."""
    rng = random.Random(31)
    out = []
    for n in range(1, 61):
        w = random_letters(rng, p.alphabet, n)
        g = random_letters(rng, p.alphabet, 1 + n // 2)
        out += [w, g + w + words.inverse(g), relator_conjugates(rng, p, n)]
    return out


@pytest.mark.parametrize("name", sorted(DEHN_PATH_DIGESTS))
def test_dehn_path_with_parabolic_runs_is_unchanged(name):
    """shorten (output and steps) and cyclic_shorten (every field) on the
    Dehn path with parabolic runs, pinned by digest.  Every output is a
    normal form whose normal_syllables are the syllables of the reference,
    which lets the Dehn pass split its words with normal_syllables."""
    import hashlib

    from relconj import reference
    from relconj.presentation import parse_presentation

    p = parse_presentation(DEHN_PATH_TEXTS[name])
    digest = hashlib.sha256()
    for w in dehn_path_inputs(p):
        res = shortening.shorten(p, w)
        cyc = shortening.cyclic_shorten(p, w)
        for x in (res.output, cyc.output):
            assert words.normalize(p, x) == x, (w, x)
            assert p.normal_syllables(x) == [
                s for _, s, _ in reference.syllables(p, x)], (w, x)
        digest.update(("%r %r\n%r %r %r %r %r %r\n" % (
            res.output, res.steps, cyc.output, cyc.conjugator,
            cyc.iterations, cyc.linear_length, cyc.cyclic_length,
            cyc.normal_form)).encode())
    assert digest.hexdigest()[:16] == DEHN_PATH_DIGESTS[name]
