"""The constants profile and the precomputed values: the parabolic balls
B_i = L3 (words of length <= C(3) in each parabolic), which compute_M
reads, the per-parabolic constants K_i, and the reported K^hyp_4delta and
K_4delta.  Queries read only the profile: the canonical cyclic form of
shortening.cyclic_shorten decides hyperbolic conjugacy by string equality,
and the subgroup oracles decide parabolic conjugacy outright, so the
tables are what the precompute command reports and caches.

Working-constants mode: the theory's constants are astronomically large
for honest inputs, so the profile pins working values, and the regime
threshold, whose formula default is 86*delta+3, can be overridden;
algorithms state their guarantees relative to the working values and
certificates record the profile hash.  The derived quantities
K^hyp_4delta = |B(4delta, 2*C3)|*(16*delta+2) and K_4delta = K^hyp_4delta +
sum |S_i|^C3 are always computed from the formula radii (they are reports,
not enumeration bounds).

Only relator-free presentations get tables or a conjugacy engine: there
the filtered ball of canonical alternating words
enumerates group elements exactly and the cyclic form is canonical.
Presentations with relators get the word problem and cyclic Dehn
reduction of the shortening layer, which read the presentation's Dehn
table and nothing here.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

from . import shortening
from .errors import (
    BudgetExceededError,
    OracleUnavailableError,
    ParseError,
    RelconjError,
)
from .presentation import (
    HYPERBOLIC,
    INVERSE_LETTER,
    RelativePresentation,
    presentation_hash,
)

@dataclass(frozen=True)
class ConstantsProfile:
    """delta and the BCP constants C(2), C(3), the element budget, the
    linear-bound coefficients and the regime threshold (None = the formula
    value 86*delta+3): exactly the constants an algorithm or a test of the
    paper's bounds reads.

    Every field is part of the serialized profile, and so of profile_hash,
    of each certificate's profile= and of each cache header."""

    delta: int = 1
    c2: int = 2
    c3: int = 2  # radius of L3 = B_i
    budget: int = 1_000_000
    nlin: int = 1  # conjugator length slope, fitted on the reference groups
    mlin: int = 0  # conjugator length offset, fitted on the reference groups
    threshold: int = None  # long/short-hyperbolic regime cut, 86*delta+3

    def __post_init__(self):
        if self.threshold is None:
            object.__setattr__(self, "threshold", 86 * self.delta + 3)
        if any(getattr(self, f.name) < 0 for f in fields(self)):
            raise ParseError("profile constants must be nonnegative")
        if self.c2 > self.c3:
            raise ParseError("profiles require C(2) <= C(3)")

    @property
    def k(self) -> int:
        return 8 * self.delta + 1


_PROFILE_KEYS = tuple(f.name for f in fields(ConstantsProfile))


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


def profile_hash(c: ConstantsProfile) -> str:
    return hashlib.sha256(serialize_profile(c).encode()).hexdigest()[:16]


def check_relator_free(p: RelativePresentation):
    """Refuse a presentation with relators: the tables and the conjugacy
    engine exist only for free products."""
    if not p.is_free_product:
        raise OracleUnavailableError(
            "presentation %r has relators; presentations with relators get "
            "no tables" % p.label
        )


class FilteredBall(NamedTuple):
    """B(r1, r2): canonical words of relative length <= r1 whose parabolic
    components all have Gamma-length <= r2."""

    rel_radius: int
    comp_bound: int
    members: frozenset


def enumerate_filtered_ball(p: RelativePresentation, r1: int, r2: int,
                            budget=None, label="filtered ball") -> FilteredBall:
    """Exhaustive B(r1, r2) for a relator-free presentation, one canonical
    word per group element (alternating syllables, canonical run forms),
    built one relative length at a time."""
    check_relator_free(p)
    budget = 1_000_000 if budget is None else budget
    kind_of = p.letter_kind
    hyp = [c for c in p.alphabet if kind_of[c] == HYPERBOLIC]
    par = {i: [w for w in orc.ball(r2) if w] for i, orc in p.oracles.items()}
    members = [""]
    level = [""]  # the members of the last relative length
    for _ in range(r1):
        nxt = []
        for w in level:
            last = kind_of[w[-1]] if w else None
            for c in hyp:
                if last != HYPERBOLIC or c != INVERSE_LETTER[w[-1]]:
                    nxt.append(w + c)
            for i, elts in par.items():
                if i != last:
                    nxt += [w + q for q in elts]
            if len(members) + len(nxt) > budget:
                raise BudgetExceededError(label, budget)
        members += nxt
        level = nxt
    if len(members) > budget:
        raise BudgetExceededError(label, budget)
    return FilteredBall(r1, r2, frozenset(members))


def cyclic_canonical(p: RelativePresentation, w: str):
    """Conjugacy key of w and the conjugator c with key = c^-1 * w * c: the
    canonical cyclic form of shortening.cyclic_shorten."""
    res = shortening.cyclic_shorten(p, w)
    return res.output, res.conjugator


class PrecomputedTables:
    """Immutable bundle of the precomputed values; see precompute()."""

    def __init__(self, p_hash, profile, l3, k_i, k_hyp_4delta, k_4delta):
        self.p_hash = p_hash
        self.profile = profile
        self.l3 = l3  # dict index -> parabolic words of |.| <= C(3): B_i
        self.k_i = k_i  # per-parabolic K_i, in parabolic index order
        self.k_hyp_4delta = k_hyp_4delta
        self.k_4delta = k_4delta

    def sizes(self) -> dict:
        return {"l3": sum(len(v) for v in self.l3.values())}


def precompute(p: RelativePresentation, profile=None) -> PrecomputedTables:
    """Build the tables of a relator-free presentation under the profile:
    B_i = L3, K_i, K^hyp_4delta and K_4delta.  Loudly reports which list
    overflowed the budget."""
    check_relator_free(p)
    profile = profile_for(p) if profile is None else profile
    budget = profile.budget
    oracles = p.oracles

    l3 = {}
    total = 0
    for i, orc in oracles.items():
        l3[i] = tuple(orc.ball(profile.c3))
        total += len(l3[i])
        if total > budget:
            raise BudgetExceededError("l3", budget)

    k_i = tuple(oracles[i].conjugacy_bound(profile.c3) for i in sorted(oracles))
    formula_ball = enumerate_filtered_ball(p, 4 * profile.delta,
                                           2 * profile.c3, budget,
                                           "k_hyp_4delta")
    k_hyp_4delta = len(formula_ball.members) * (16 * profile.delta + 2)
    k_4delta = k_hyp_4delta + sum(
        len(par.generators) ** profile.c3 for par in p.parabolics
    )

    return PrecomputedTables(presentation_hash(p), profile, l3, k_i,
                             k_hyp_4delta, k_4delta)


def compute_M(p: RelativePresentation, tables: PrecomputedTables, u: str) -> int:
    """min over t in [u]_{P_i} intersect B_i of the least |y|_Gamma with
    u = y*t*y^-1 in P_i; zero when u is not a word in one parabolic
    alphabet, when u already lies in B_i, or when the intersection is
    empty."""
    p.check_word(u)
    kinds = {p.letter_kind[c] for c in u}
    if len(kinds) != 1 or HYPERBOLIC in kinds:
        return 0
    i = kinds.pop()
    orc = p.oracles[i]
    if len(orc.geodesic_form(u)) <= tables.profile.c3:
        return 0
    best = None
    for t in tables.l3[i]:
        if orc.conjugate(u, t) is None:
            continue
        y = orc.min_conjugator(t, u)
        if best is None or len(y) < best:
            best = len(y)
    return 0 if best is None else best


# ---------------------------------------------------------------------------
# cache files: magic, presentation hash, profile text, L3, K_i, K^hyp_4delta
# and K_4delta, little-endian u32 counts and length-prefixed UTF-8 strings

_MAGIC = b"RCT4"


def _encode(tables: PrecomputedTables) -> bytes:
    out = [_MAGIC]

    def u32(*values):
        try:
            out.append(struct.pack("<%dI" % len(values), *values))
        except struct.error:
            raise RelconjError("a tables count in %r does not fit the cache's "
                               "u32 fields" % (values,))

    def text(*strings):
        for s in strings:
            data = s.encode()
            u32(len(data))
            out.append(data)

    text(tables.p_hash, serialize_profile(tables.profile))
    u32(len(tables.l3))
    for i in sorted(tables.l3):
        u32(i, len(tables.l3[i]))
        text(*tables.l3[i])
    u32(len(tables.k_i), *tables.k_i)
    u32(tables.k_hyp_4delta, tables.k_4delta)
    return b"".join(out)


class _Reader:
    """Length-checked reads over a cache body; every malformed read raises
    RelconjError so callers can rebuild."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise RelconjError("tables cache %s is truncated" % self.path)
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode()
        except UnicodeDecodeError:
            raise RelconjError("tables cache %s is corrupt" % self.path)

    def finish(self):
        if self.pos != len(self.data):
            raise RelconjError("tables cache %s has trailing bytes" % self.path)


def save_tables(path, tables: PrecomputedTables):
    """Write the cache atomically: a temporary file beside path, then a
    rename over it, so readers never see a partial cache."""
    path = os.fspath(path)
    data = _encode(tables)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_tables(path, p: RelativePresentation, profile=None) -> PrecomputedTables:
    """Load a cache, refusing one built for another presentation or (when a
    profile is supplied) another profile, and one that is truncated or
    malformed."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    if r.take(4) != _MAGIC:
        raise RelconjError("%s is not a tables cache" % path)
    p_hash = r.text()
    if p_hash != presentation_hash(p):
        raise RelconjError("tables cache was built for a different presentation")
    stored = _parse_profile(r.text())
    if profile is not None and stored != profile:
        raise RelconjError("tables cache was built with a different profile")
    l3 = {}
    for _ in range(r.u32()):
        i, n = r.u32(), r.u32()
        l3[i] = tuple(r.text() for _ in range(n))
    k_i = tuple(r.u32() for _ in range(r.u32()))
    k_hyp, k4 = r.u32(), r.u32()
    r.finish()
    return PrecomputedTables(p_hash, stored, l3, k_i, k_hyp, k4)


def _parse_profile(text: str) -> ConstantsProfile:
    try:
        pairs = [(key, int(value)) for key, _, value in
                 (kv.partition("=") for kv in text.split())]
    except ValueError:
        raise RelconjError("tables cache has a malformed profile")
    return profile_from_pairs(pairs)
