"""The constants profile and the precomputed values the decision engine
reads: the parabolic ball B_i = L3 (words of length <= C(3) in each
parabolic), the within-subgroup conjugate pairs L7 with their conjugators
(L11 is its key set), and the per-parabolic constants K_i.  The parabolic
branch of conjugacy.decide walks B_i and L7; hyperbolic conjugacy needs no
table, because the canonical cyclic form of shortening.cyclic_shorten
decides it by string equality.

Working-constants mode: every radius has a formula default taken from the
profile's delta and C-constants (86*delta+3 and friends).  Those formula
values are astronomically large for honest inputs, so each radius can be
overridden in the profile; algorithms state their guarantees relative to
the working values and certificates record the profile hash.  The derived
quantities K^hyp_4delta = |B(4delta, 2*C3)|*(16*delta+2) and
K_4delta = K^hyp_4delta + sum |S_i|^C3 are always computed from the true
formula radii (they are reports, not enumeration bounds).

Only relator-free presentations get tables: there the filtered ball of
canonical alternating words enumerates group elements exactly and the
cyclic form is canonical.  Presentations with relators use the shortening
and oracle layers directly.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, fields, replace

from . import shortening, words
from .errors import (
    BudgetExceededError,
    OracleUnavailableError,
    RelconjError,
)
from .parabolic_oracles import oracles_for
from .presentation import (
    HYPERBOLIC,
    RelativePresentation,
    presentation_hash,
)

_FORMULA = {
    "threshold": lambda c: 86 * c.delta + 3,
    "r4": lambda c: 7 * c.delta + 1,
    "r5": lambda c: 16 * c.delta + 1,
    "r6": lambda c: 2 * (274 * c.delta + 9),
    "r8": lambda c: 2 * c.c3,
    "r9": lambda c: 4 * c.delta * c.c3,
    "rbcc": lambda c: 4 * c.delta,
    "rloops": lambda c: 2 * c.delta * c.c2,
}


@dataclass(frozen=True)
class ConstantsProfile:
    """delta and the BCP constants C(2), C(3), C(7,2delta), plus working
    radii (None = the formula value) and the linear-bound coefficients.

    Every field is part of the serialized profile, and so of profile_hash,
    of each certificate's profile= and of each cache header.  That is why
    the fields marked unread, which no algorithm uses, stay until the
    profile format itself changes."""

    delta: int = 1
    c2: int = 2
    c3: int = 2  # radius of L3 = B_i
    c7: int = 2  # unread
    budget: int = 1_000_000
    nlin: int = 1  # conjugator length slope, fitted on the reference groups
    mlin: int = 0  # conjugator length offset, fitted on the reference groups
    threshold: int = None  # long/short-hyperbolic regime cut, 86*delta+3
    r4: int = None  # unread, 7*delta+1
    r5: int = None  # unread, 16*delta+1
    r6: int = None  # unread, 2*(274*delta+9)
    r8: int = None  # unread, 2*C(3)
    r9: int = None  # unread, 4*delta*C(3)
    rbcc: int = None  # unread, 4*delta
    rloops: int = None  # unread, 2*delta*C(2)
    k_i: tuple = None  # per-parabolic K_i; computed by precompute when None

    def __post_init__(self):
        for name, formula in _FORMULA.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, formula(self))
        if self.delta < 0 or self.budget < 0:
            raise RelconjError("delta and budget must be nonnegative")
        if self.c2 > self.c3:
            raise RelconjError("profiles require C(2) <= C(3)")

    @property
    def k(self) -> int:
        return 8 * self.delta + 1


_PROFILE_KEYS = tuple(
    f.name for f in fields(ConstantsProfile) if f.name != "k_i"
)


def profile_from_pairs(pairs, overrides=None) -> ConstantsProfile:
    """Profile from (key, value) pairs (the presentation's constants block),
    with optional override pairs applied on top."""
    merged = {}
    for key, value in list(pairs) + list(overrides or []):
        if key not in _PROFILE_KEYS:
            raise RelconjError("unknown constant %r" % key)
        merged[key] = value
    return ConstantsProfile(**merged)


def profile_for(p: RelativePresentation, overrides=None) -> ConstantsProfile:
    return profile_from_pairs(p.constants, overrides)


def serialize_profile(c: ConstantsProfile) -> str:
    parts = ["%s=%d" % (key, getattr(c, key)) for key in _PROFILE_KEYS]
    if c.k_i is not None:
        parts.append("k_i=" + ",".join(str(v) for v in c.k_i))
    return " ".join(parts)


def profile_hash(c: ConstantsProfile) -> str:
    return hashlib.sha256(serialize_profile(c).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FilteredBall:
    """B(r1, r2): canonical words of relative length <= r1 whose parabolic
    components all have Gamma-length <= r2."""

    rel_radius: int
    comp_bound: int
    members: frozenset


def enumerate_filtered_ball(p: RelativePresentation, r1: int, r2: int,
                            budget=None, label="filtered ball") -> FilteredBall:
    """Exhaustive B(r1, r2) for a relator-free presentation, one canonical
    word per group element (alternating syllables, canonical run forms)."""
    if not p.is_free_product:
        raise OracleUnavailableError(
            "filtered-ball enumeration needs a relator-free presentation"
        )
    budget = 1_000_000 if budget is None else budget
    oracles = oracles_for(p)
    hyp = [c for c in p.alphabet if p.letter_kind[c] == HYPERBOLIC]
    par = {i: [w for w in orc.ball(r2) if w] for i, orc in oracles.items()}
    members = []

    def extend(w, last_kind, last_letter, rel):
        members.append(w)
        if len(members) > budget:
            raise BudgetExceededError(label, budget)
        if rel == r1:
            return
        for c in hyp:
            if last_kind == HYPERBOLIC and c == words.inverse(last_letter):
                continue
            extend(w + c, HYPERBOLIC, c, rel + 1)
        for i, elts in par.items():
            if last_kind == i:
                continue
            for q in elts:
                extend(w + q, i, None, rel + 1)

    extend("", None, None, 0)
    return FilteredBall(r1, r2, frozenset(members))


def cyclic_canonical(p: RelativePresentation, w: str, k: int):
    """Conjugacy key of w and the conjugator c with key = c^-1 * w * c: the
    canonical cyclic form of shortening.cyclic_shorten."""
    res = shortening.cyclic_shorten(p, w, k=k)
    return res.output, res.conjugator


class PrecomputedTables:
    """Immutable bundle of the precomputed values; see precompute()."""

    def __init__(self, p_hash, profile, l3, l7, k_hyp_4delta, k_4delta):
        self.p_hash = p_hash
        self.profile = profile
        self.l3 = l3  # dict index -> parabolic words of |.| <= C(3): B_i
        self.l7 = l7  # dict (i, q1, q2) -> right-form conjugator in P_i
        self.k_hyp_4delta = k_hyp_4delta
        self.k_4delta = k_4delta
        self.l11 = frozenset(l7)

    @property
    def b_i(self):
        return self.l3

    def l11_pair(self, i: int, q1: str, j: int, q2: str):
        if i != j:
            return None
        return self.l7.get((i, q1, q2))

    def sizes(self) -> dict:
        return {"l3": sum(len(v) for v in self.l3.values()),
                "l7": len(self.l7),
                "l11": len(self.l11)}


def _check_budget(label, n, budget):
    if n > budget:
        raise BudgetExceededError(label, budget)


def precompute(p: RelativePresentation, profile=None) -> PrecomputedTables:
    """Build the tables of a relator-free presentation under the profile:
    B_i = L3, the within-subgroup conjugate pairs L7 (L11 is its key set),
    K_i, K^hyp_4delta and K_4delta.  Loudly reports which list overflowed
    the budget."""
    if not p.is_free_product:
        raise OracleUnavailableError(
            "presentation %r has relators; presentations with relators get "
            "no tables" % p.label
        )
    profile = profile_for(p) if profile is None else profile
    budget = profile.budget
    oracles = oracles_for(p)

    l3 = {}
    total = 0
    for i, orc in oracles.items():
        l3[i] = tuple(orc.ball(profile.c3))
        total += len(l3[i])
        _check_budget("l3", total, budget)

    # within-subgroup conjugate pairs and their conjugators (right form)
    l7 = {}
    for i, ball in l3.items():
        orc = oracles[i]
        for q1 in ball:
            for q2 in ball:
                t = orc.conjugate(q1, q2)
                if t is not None:
                    l7[(i, q1, q2)] = orc.geodesic_form(words.inverse(t))
    _check_budget("l7", len(l7), budget)

    k_i = tuple(oracles[i].conjugacy_bound(profile.c3) for i in sorted(oracles))
    formula_ball = enumerate_filtered_ball(p, 4 * profile.delta,
                                           2 * profile.c3, budget,
                                           "k_hyp_4delta")
    k_hyp_4delta = len(formula_ball.members) * (16 * profile.delta + 2)
    k_4delta = k_hyp_4delta + sum(
        len(par.generators) ** profile.c3 for par in p.parabolics
    )

    return PrecomputedTables(
        presentation_hash(p),
        replace(profile, k_i=k_i) if profile.k_i is None else profile,
        l3, l7, k_hyp_4delta, k_4delta,
    )


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
    orc = oracles_for(p)[i]
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
# cache files: magic, presentation hash, profile text, L3, L7, K^hyp_4delta
# and K_4delta, little-endian u32 counts and length-prefixed UTF-8 strings

_MAGIC = b"RCT2"


def _encode(tables: PrecomputedTables) -> bytes:
    out = [_MAGIC]

    def u32(*values):
        out.append(struct.pack("<%dI" % len(values), *values))

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
    u32(len(tables.l7))
    for (i, q1, q2), c in sorted(tables.l7.items()):
        u32(i)
        text(q1, q2, c)
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
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(_encode(tables))
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
    if profile is not None and profile_hash(replace(stored, k_i=None)) != \
            profile_hash(replace(profile, k_i=None)):
        raise RelconjError("tables cache was built with a different profile")
    l3 = {}
    for _ in range(r.u32()):
        i, n = r.u32(), r.u32()
        l3[i] = tuple(r.text() for _ in range(n))
    l7 = {}
    for _ in range(r.u32()):
        i = r.u32()
        q1, q2, c = r.text(), r.text(), r.text()
        l7[(i, q1, q2)] = c
    k_hyp, k4 = r.u32(), r.u32()
    r.finish()
    return PrecomputedTables(p_hash, stored, l3, l7, k_hyp, k4)


def _parse_profile(text: str) -> ConstantsProfile:
    pairs, k_i = [], None
    try:
        for kv in text.split():
            key, _, value = kv.partition("=")
            if key == "k_i":
                k_i = tuple(int(v) for v in value.split(",") if v)
            else:
                pairs.append((key, int(value)))
    except ValueError:
        raise RelconjError("tables cache has a malformed profile")
    return replace(profile_from_pairs(pairs), k_i=k_i)
