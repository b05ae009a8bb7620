"""The constants profile and the precomputed values: the size of L3, the
parabolic balls B_i of words of length <= C(3), counted, not built.
Queries read only the profile: the canonical cyclic form of
shortening.cyclic_shorten decides hyperbolic conjugacy by string equality,
and the subgroup oracles decide parabolic conjugacy outright, so the
tables are what the precompute command reports and caches.

Working-constants mode: the theory's constants are astronomically large
for honest inputs, so the profile pins working values, and the regime
threshold, whose formula default is 86*delta+3, can be overridden;
algorithms state their guarantees relative to the working values and
certificates record the profile hash.

Only relator-free presentations get tables or a conjugacy engine: there
normal forms are unique, so counting canonical alternating words counts
group elements exactly, and the cyclic form is canonical.
Presentations with relators get the word problem and cyclic Dehn
reduction of the shortening layer, which read the presentation's Dehn
table and nothing here.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import NamedTuple

from . import shortening
from .errors import (
    BudgetExceededError,
    ParseError,
    RelconjError,
)
from .presentation import (
    DEFAULT_BUDGET,
    HYPERBOLIC,
    Frozen,
    RelativePresentation,
    presentation_hash,
    read_constants,
    short_hash,
)


class ConstantsProfile(Frozen):
    """delta and the BCP constants C(2), C(3), the element budget, the
    linear-bound coefficients and the regime threshold (None = the formula
    value 86*delta+3): exactly the constants an algorithm or a test of the
    paper's bounds reads.

    Every field is part of the serialized profile, and so of its hash,
    of each certificate's profile= and of each cache header."""

    # c3: the radius of L3 = B_i; nlin, mlin: the conjugator length slope
    # and offset, fitted on the reference groups; threshold: the
    # long/short-hyperbolic regime cut
    _fields = ("delta", "c2", "c3", "budget", "nlin", "mlin", "threshold")

    def __init__(self, delta: int = 1, c2: int = 2, c3: int = 2,
                 budget: int = DEFAULT_BUDGET, nlin: int = 1, mlin: int = 0,
                 threshold: int = None):
        if threshold is None:
            threshold = 86 * delta + 3
        self._freeze(delta, c2, c3, budget, nlin, mlin, threshold)
        if any(value < 0 for value in self._values()):
            raise ParseError("profile constants must be nonnegative")
        if c2 > c3:
            raise ParseError("profiles require C(2) <= C(3)")

    @property
    def k(self) -> int:
        return 8 * self.delta + 1

    @cached_property
    def hash(self) -> str:
        """The short hash of the serialized profile, computed on first use
        and kept: a profile is immutable, and every engine and certificate
        reads it."""
        return short_hash(serialize_profile(self))


_PROFILE_KEYS = ConstantsProfile._fields


def profile_from_pairs(pairs, overrides=None) -> ConstantsProfile:
    """Profile from (key, value) pairs (the presentation's constants block),
    with optional override pairs applied on top."""
    merged = {}
    for key, value in list(pairs) + list(overrides or []):
        if key not in _PROFILE_KEYS:
            raise ParseError("unknown constant %r" % key)
        merged[key] = value
    return ConstantsProfile(**merged)


def profile_for(p: RelativePresentation, overrides=None) -> ConstantsProfile:
    return profile_from_pairs(p.constants, overrides)


def serialize_profile(c: ConstantsProfile) -> str:
    return " ".join("%s=%d" % (key, getattr(c, key)) for key in _PROFILE_KEYS)


# why the tables and the conjugacy engine refuse relators
NO_TABLES = "presentations with relators get no tables"


def enumerate_filtered_ball(p: RelativePresentation, r1: int, r2: int,
                            budget=None, label="filtered ball") -> int:
    """|B(r1, r2)| for a relator-free presentation: the number of canonical
    words (alternating syllables, canonical run forms) of relative length
    <= r1 whose parabolic syllables all have Gamma-length <= r2.  Normal
    forms are unique (Lyndon-Schupp IV.1.4), so this is the number of group
    elements.  It is counted one relative length at a time by the kind of
    the last syllable, and no word is built: a hyperbolic letter may follow
    anything but its inverse, and a syllable of factor i anything but
    another one of factor i."""
    p.require_free_product(NO_TABLES)
    budget = DEFAULT_BUDGET if budget is None else budget
    hyp = sum(p.letter_kind[c] == HYPERBOLIC for c in p.alphabet)
    choices = {i: orc.ball_size(r2) - 1 for i, orc in p.oracles.items()}
    ends = dict.fromkeys(choices, 0)  # words of this length ending in P_i
    hyp_ends = 0  # words of this length ending in a hyperbolic letter
    level = total = 1  # words of this length, and of any length so far
    for _ in range(r1):
        if total > budget:
            break
        hyp_ends = hyp * level - hyp_ends
        ends = {i: m * (level - ends[i]) for i, m in choices.items()}
        level = hyp_ends + sum(ends.values())
        total += level
    if total > budget:
        raise BudgetExceededError(label, budget)
    return total


def cyclic_canonical(p: RelativePresentation, w: str):
    """The cyclic form of w and the conjugator c with form = c^-1 * w * c,
    from shortening.cyclic_shorten.  It is a conjugacy key except for one
    syllable of a free factor, which is not rotated (yxyX and Xyxy)."""
    res = shortening.cyclic_shorten(p, w)
    return res.output, res.conjugator


class PrecomputedTables(NamedTuple):
    """Immutable bundle of the precomputed values; see precompute()."""

    p_hash: str
    profile: ConstantsProfile
    l3: int  # sum over the parabolics of |B_i|, the ball of radius C(3)

    def sizes(self) -> dict:
        return {"l3": self.l3}


def precompute(p: RelativePresentation, profile=None) -> PrecomputedTables:
    """Compute the tables of a relator-free presentation under the profile:
    |L3| = sum |B_i|, counted from each oracle's closed form, no list
    built.  A count that would outgrow the budget is refused, as l3, before
    it is computed."""
    p.require_free_product(NO_TABLES)
    profile = profile_for(p) if profile is None else profile
    budget, c3 = profile.budget, profile.c3
    oracles = [p.oracles[par.index] for par in p.parabolics]

    # the radius doubles up to C3 and |B(2s)| <= |B(s)|^2, so no ball size
    # much past budget^2 is computed
    radii = sorted({min(2 ** j, c3) for j in range(c3.bit_length() + 1)})
    if any(orc.ball_size(s) > budget for orc in oracles for s in radii):
        raise BudgetExceededError("l3", budget)
    l3 = sum(orc.ball_size(c3) for orc in oracles)
    if l3 > budget:
        raise BudgetExceededError("l3", budget)
    return PrecomputedTables(presentation_hash(p), profile, l3)


# ---------------------------------------------------------------------------
# cache files: four lines of text, namely the magic, the presentation hash,
# the profile and |L3|

_MAGIC = "RCT6\n"


def _cache_text(tables: PrecomputedTables) -> str:
    lines = (tables.p_hash, serialize_profile(tables.profile), tables.l3)
    return _MAGIC + "".join("%s\n" % line for line in lines)


def save_tables(path, tables: PrecomputedTables):
    """Write the cache atomically: a temporary file beside path, then a
    rename over it, so readers never see a partial cache.  A failure is an
    OSError naming path, not the temporary file, so that its message does
    not depend on the process id."""
    path = os.fspath(path)
    data = _cache_text(tables).encode()
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_tables(path, p: RelativePresentation, profile=None) -> PrecomputedTables:
    """Load a cache, refusing one built for another presentation or (when a
    profile is supplied) another profile, and one that is truncated or
    malformed: anything but the exact text save_tables writes."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_MAGIC.encode()):
        raise RelconjError("%s is not a tables cache" % path)
    try:
        _, p_hash, prof, l3, _ = data.decode().split("\n")
        stored = profile_from_pairs(read_constants([], prof.split()))
        tables = PrecomputedTables(p_hash, stored, int(l3))
        canonical = _cache_text(tables).encode() == data
    except (ValueError, ParseError):  # UnicodeDecodeError is a ValueError
        canonical = False
    if not canonical:
        raise RelconjError("tables cache %s is truncated or malformed" % path)
    if p_hash != presentation_hash(p):
        raise RelconjError("tables cache was built for a different presentation")
    if profile is not None and stored != profile:
        raise RelconjError("tables cache was built with a different profile")
    return tables
