"""Shared fixtures: the reference presentations and their tables.

F is the free group of rank two (hyperbolic, no parabolics), G2 is Z * Z^2
(one hyperbolic letter against a rank-two free-abelian parabolic), ZC2 is
Z * C2 (a finite parabolic with torsion), ZF2 is Z * F2 (a free parabolic,
read from demos/presentations/zf2.txt), THREE is Z^2 * F2 * C3 * Z (all
three factor kinds at once), and C5 is the cyclic group of order five given
by a relator, which exercises the Dehn table (and which the ball oracle
refuses).  C5Z2 is C5 * Z^2, relators beside a parabolic.
Tables are built once per session; the working constants are pinned inside
the presentation texts so every derived value in the tests is reproducible.
"""

import os
from pathlib import Path

import pytest

from relconj import conjugacy, tables
from relconj.presentation import load_presentation, parse_presentation

ZF2_PATH = (Path(__file__).resolve().parents[1] / "demos" / "presentations"
            / "zf2.txt")

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


def relator_conjugates(rng, p, n):
    """A product of conjugates g r g^-1, with g a random word over p's whole
    alphabet and r a rotation of a relator or of its inverse, of at least n
    letters: a word trivial in p's group."""
    rotations = [s[i:] + s[:i] for r in p.relators
                 for s in (r, r.swapcase()[::-1]) for i in range(len(s))]
    parts, size = [], 0
    while size < n:
        g = "".join(rng.choice(p.alphabet) for _ in range(rng.randint(0, 6)))
        parts.append(g + rng.choice(rotations) + g.swapcase()[::-1])
        size += len(parts[-1])
    return "".join(parts)


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
