"""Shared fixtures: the reference presentations and their tables.

F is the free group of rank two (hyperbolic, no parabolics), G2 is Z * Z^2
(one hyperbolic letter against a rank-two free-abelian parabolic), ZC2 is
Z * C2 (a finite parabolic with torsion), ZF2 is Z * F2 (a free parabolic,
read from demos/presentations/zf2.txt), THREE is Z^2 * F2 * C3 * Z (all
three factor kinds at once), and C5 is the cyclic group of order five given
by a relator, which exercises the Dehn table (and which the ball oracle
refuses).  C5Z2 is C5 * Z^2, relators beside a parabolic, and C5C2F2 is
C5 * C2 * F2, relators beside a finite and a free factor.  C2Z2 and Z2C2
are Z * C2 * Z^2 with the two factors declared in either order, so that
letter order and syllable order agree on the first and not on the second
(RelativePresentation.letters_order_syllables), and ZS3 is Z * S3, a
non-abelian finite factor built from permutations.
Tables are built once per session; the working constants are pinned inside
the presentation texts so every derived value in the tests is reproducible.
"""

import itertools
import os
import warnings
from pathlib import Path

import pytest

from relconj import (conjugacy, metric_oracle, reference, shortening,
                     tables, words)
from relconj.presentation import (HYPERBOLIC, INVERSE_LETTER,
                                  ParabolicDescriptor, RelativePresentation,
                                  load_presentation,
                                  parse_presentation)

# On a test's first failing example hypothesis's pytest plugin imports
# hypothesis.extra._patching inside a report hook.  That imports libcst,
# whose import raises mypy_extensions' TypedDict DeprecationWarning, and
# filterwarnings = error turns it into an INTERNALERROR that ends the
# session before the other failures are reported.  Imported once here, with
# that warning ignored, the module is already loaded when the hook asks.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the hook then fails without a warning
        pass

ZF2_PATH = (Path(__file__).resolve().parents[1] / "demos" / "presentations"
            / "zf2.txt")
TWIN_PATH = ZF2_PATH.with_name("c5c7_twin.txt")

F_TEXT = """\
# Free group of rank two: hyperbolic, no parabolic subgroups.
group free2
hyperbolic a b
constants delta=0 c2=2 c3=2 budget=1000000 nlin=1 mlin=0
"""

G2_TEXT = """\
# Z * Z^2: one hyperbolic generator, one rank-two free-abelian parabolic.
group g2
hyperbolic a
parabolic free_abelian 2
letters x y
constants delta=1 c2=2 c3=2 budget=1000000 nlin=1 mlin=0 threshold=3
"""

ZC2_TEXT = """\
# Z * C2: infinite-order hyperbolic generator against a finite parabolic.
group zc2
hyperbolic a
parabolic finite 2
letters t
table 0 1
table 1 0
constants delta=1 c2=1 c3=1 budget=200000 threshold=3
"""

C5_TEXT = """\
# Cyclic group of order five, presented with a relator.
group c5
hyperbolic a
relator aaaaa
constants delta=2 c2=2 c3=2 budget=100000
"""

C5Z2_TEXT = """\
# C5 * Z^2: a relator over the hyperbolic letter beside a parabolic.
group c5z2
hyperbolic a
parabolic free_abelian 2
letters x y
relator aaaaa
"""

C5C2F2_TEXT = """\
# C5 * C2 * F2: a relator over the hyperbolic letter beside a finite and a
# free factor.
group c5c2f2
hyperbolic a
parabolic finite 2
letters t
table 0 1
table 1 0
parabolic free 2
letters u v
relator aaaaa
"""


THREE_TEXT = """\
group zf3
hyperbolic a
parabolic free_abelian 2
letters x y
parabolic free 2
letters u v
parabolic finite 3
letters s r
table 0 1 2
table 1 2 0
table 2 0 1
constants delta=1 c2=1 c3=1 threshold=3
"""

C2Z2_TEXT = """\
group c2z2
hyperbolic a
parabolic finite 2
letters t
table 0 1
table 1 0
parabolic free_abelian 2
letters x y
"""

Z2C2_TEXT = """\
group z2c2
hyperbolic a
parabolic free_abelian 2
letters x y
parabolic finite 2
letters t
table 0 1
table 1 0
"""


def permutation_group_text(label, perms, letters):
    """The presentation text of Z * P: hyperbolic a against the finite
    factor P of the permutations perms (tuples), identity first and closed
    under composition, the j-th of letters naming perms[j + 1].  Row i of
    the table composes perms[i], then each perms[j]."""
    index = {q: i for i, q in enumerate(perms)}
    rows = ["table %s" % " ".join(str(index[tuple(q[k] for k in r)])
                                  for q in perms) for r in perms]
    return "\n".join(["group %s" % label, "hyperbolic a",
                      "parabolic finite %d" % len(perms),
                      "letters %s" % " ".join(letters)] + rows) + "\n"


ZS3_TEXT = permutation_group_text(
    "zs3", list(itertools.permutations(range(3))), "bcdef")


def factor_ball(orc, r):
    """The elements of subgroup length <= r of orc's factor, shortlex
    sorted: the ball oracle's ball on the presentation of that factor
    alone, which spells its elements by reference.normal_form and so does
    not read the oracle."""
    d = orc.descriptor
    alone = RelativePresentation("alone", (), (
        ParabolicDescriptor(1, d.kind, d.generators, d.table),))
    return metric_oracle.ball(alone, r).elements


def random_letters(rng, letters, n):
    """n letters, each drawn with rng.choice."""
    return "".join(rng.choice(letters) for _ in range(n))


def random_word(rng, letters, lo, hi):
    """A word of rng.randint(lo, hi) letters, each drawn with rng.choice:
    the random-word draw of the suites, the length drawn first."""
    return random_letters(rng, letters, rng.randint(lo, hi))


def random_reduced_word(rng, letters, n):
    """A freely reduced word of n letters, each drawn with rng.choice and
    drawn again while it would cancel the letter before it."""
    out = []
    while len(out) < n:
        c = rng.choice(letters)
        if not out or c != INVERSE_LETTER[out[-1]]:
            out.append(c)
    return "".join(out)


def cyclically_reduced_syllables(p, rng, k):
    """The syllables of a random cyclically reduced normal form with k of
    them: a prefix of a normal form whose end syllables neither cancel nor
    merge (so a lone syllable is a hyperbolic letter).  k must be even
    where every letter is parabolic, as the ends of an odd number of
    syllables of two factors then lie in one."""
    kind = p.letter_kind
    while True:
        nf = words.normalize(p, random_word(rng, p.alphabet, 6 * k, 6 * k))
        syls = [s for _, s, _ in reference.syllables(p, nf)[:k]]
        if len(syls) < k:
            continue
        first, last = syls[0], syls[-1]
        if kind[first[0]] == HYPERBOLIC:
            if last != INVERSE_LETTER[first]:
                return syls
        elif kind[first[0]] != kind[last[0]]:
            return syls


def is_cyclically_reduced(w):
    """No end letters of w cancel: cyclic_reduce strips nothing."""
    return words.cyclic_reduce(w)[1] == ""


def is_local_geodesic(p, w, k) -> bool:
    """Every subword of relative length <= k is a relative geodesic."""
    return shortening.find_violating_window(p, w, k) is None


def is_cyclic_local_geodesic(p, w, k) -> bool:
    if w == "":
        return True
    if not is_cyclically_reduced(w):
        return False
    return is_local_geodesic(p, w + w, k)


def conjugate_without_cancellation(rng, p, u, n):
    """g * u * g^-1 spelled as a normal form, for the normal form g of n
    random letters, drawn again until it cancels and merges with nothing
    where it meets u: g + u + inverse_form(g), itself a normal form, whose
    syllables are those of the three parts.  Such a g exists when p has a
    hyperbolic letter."""
    syllables = p.normal_syllables
    while True:
        g = words.normalize(p, random_letters(rng, p.alphabet, n))
        v = g + u + p.inverse_form(g)
        if words.normalize(p, v) == v and len(syllables(v)) == (
                2 * len(syllables(g)) + len(syllables(u))):
            return v


def pairs_around(p, rng, count):
    """(u, v) pairs with u a cyclically reduced normal form of 8 to 60
    syllables, an even number: v is u rotated between syllables under a
    conjugator that nothing cancels or merges with (kind 0; there is none
    without hyperbolic letters, where the ends of u are runs of two
    factors, so v is the rotation), u rotated anywhere under a random
    conjugator (1), u rotated between syllables times g on the left and
    h^-1, |h| = |g|, on the right (2), and u rotated between syllables,
    one syllable replaced, under g and inverse_form(g) (3)."""
    for i in range(count):
        syls = cyclically_reduced_syllables(p, rng, 2 * rng.randint(4, 30))
        u = "".join(syls)
        j, k = rng.randrange(len(syls)), rng.randrange(len(u))
        x = "".join(syls[j:] + syls[:j])
        g = random_letters(rng, p.alphabet, rng.randint(0, 40))
        kind = i % 4
        if kind == 0:
            v = x if not p.hyperbolic_generators else (
                conjugate_without_cancellation(rng, p, x, rng.randint(1, 30)))
        elif kind == 1:
            v = g + u[k:] + u[:k] + words.inverse(g)
        elif kind == 2:
            h = random_letters(rng, p.alphabet, len(g))
            v = g + x + words.inverse(h)
        else:
            syls[j] = rng.choice(p.alphabet)
            g = words.normalize(p, g)
            v = g + "".join(syls) + p.inverse_form(g)
        yield u, v


def relator_conjugates(rng, p, n):
    """A product of conjugates g r g^-1, with g a random word over p's whole
    alphabet and r a rotation of a relator or of its inverse, of at least n
    letters: a word trivial in p's group."""
    rotations = [s[i:] + s[:i] for r in p.relators
                 for s in (r, r.swapcase()[::-1]) for i in range(len(s))]
    parts, size = [], 0
    while size < n:
        g = random_word(rng, p.alphabet, 0, 6)
        parts.append(g + rng.choice(rotations) + g.swapcase()[::-1])
        size += len(parts[-1])
    return "".join(parts)


def rotation_families(n):
    """Strings of about n letters that a least-rotation search finds hard:
    the Fibonacci word (many equal pieces at every level), the Thue-Morse
    word (squares everywhere), (ab)^k c (one symbol breaks a period) and
    a^k b a^(k-1) b (two long runs of the least letter that almost tie)."""
    fib, prev = "ab", "a"
    while len(fib) < n:
        fib, prev = fib + prev, fib
    k = n // 2
    return {"Fibonacci": fib[:n],
            "Thue-Morse": "".join("ab"[bin(i).count("1") % 2]
                                  for i in range(n)),
            "(ab)^k c": "ab" * ((n - 1) // 2) + "c",
            "a^k b a^(k-1) b": "a" * k + "b" + "a" * (k - 1) + "b"}


@pytest.fixture(scope="session")
def pF():
    return parse_presentation(F_TEXT)


@pytest.fixture(scope="session")
def pG2():
    return parse_presentation(G2_TEXT)


@pytest.fixture(scope="session")
def pZC2():
    return parse_presentation(ZC2_TEXT)


@pytest.fixture(scope="session")
def pC5():
    return parse_presentation(C5_TEXT)


@pytest.fixture(scope="session")
def pZF2():
    return load_presentation(ZF2_PATH)


@pytest.fixture(scope="session")
def pTHREE():
    return parse_presentation(THREE_TEXT)


@pytest.fixture(scope="session")
def pC2Z2():
    return parse_presentation(C2Z2_TEXT)


@pytest.fixture(scope="session")
def pZ2C2():
    return parse_presentation(Z2C2_TEXT)


@pytest.fixture(scope="session")
def pZS3():
    return parse_presentation(ZS3_TEXT)


@pytest.fixture(scope="session")
def tF(pF):
    return tables.precompute(pF)


@pytest.fixture(scope="session")
def tG2(pG2):
    return tables.precompute(pG2)


@pytest.fixture(scope="session")
def tZC2(pZC2):
    return tables.precompute(pZC2)


@pytest.fixture(scope="session")
def tZF2(pZF2):
    return tables.precompute(pZF2)


@pytest.fixture(scope="session")
def engF(pF, tF):
    return conjugacy.ConjugacyEngine(pF, tF)


@pytest.fixture(scope="session")
def engG2(pG2, tG2):
    return conjugacy.ConjugacyEngine(pG2, tG2)


@pytest.fixture(scope="session")
def pres_dir(tmp_path_factory):
    """Presentation files on disk for the command line tests."""
    d = tmp_path_factory.mktemp("presentations")
    for name, text in (("free2.txt", F_TEXT), ("zxz2.txt", G2_TEXT),
                       ("zc2.txt", ZC2_TEXT), ("c5.txt", C5_TEXT)):
        (d / name).write_text(text)
    return d


@pytest.fixture(scope="session")
def g2_cache(pres_dir, pG2, tG2, tmp_path_factory):
    """Warm tables cache for G2 so command line tests skip the rebuild."""
    path = tmp_path_factory.mktemp("cache") / "g2.tables"
    tables.save_tables(os.fspath(path), tG2)
    return os.fspath(path)
