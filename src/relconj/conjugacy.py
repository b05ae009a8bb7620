"""Hyperbolic/parabolic classification and the conjugacy decision.

Both rest on the canonical cyclic form of shortening.cyclic_shorten.  A
cyclic form of one parabolic run is parabolic, any other nonempty one is
hyperbolic.  Two hyperbolic elements are conjugate exactly when their cyclic
forms are equal strings (the conjugacy theorem for free products; only
relator-free presentations get tables).  Two parabolic elements are
conjugate when the subgroup oracle conjugates one representative onto the
other, or when both reach a conjugate pair of the within-subgroup list L7
through B_i = L3.

Conventions.  Every internal conjugator is carried in right form: a step
from x to y stores c with y = c^-1 * x * c, so chains compose by plain
concatenation.  The public witness of a certificate is converted once at
the boundary to g = c^-1 with v = g * u * g^-1.  Every "conjugate" answer
is verified through the word problem before the certificate is issued; a
failed verification is an internal error, never a silent downgrade.

Negative answers name where the decision fell: class-mismatch (identity,
parabolic and hyperbolic never meet), long-search-exhausted or
short-table-miss (unequal hyperbolic cyclic forms, by the regime of the
longer one against the profile's threshold) and parabolic-tables-miss; the
certificate records the profile hash the answer depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metric_oracle, shortening, words
from .errors import NotConjugateError, RelconjError
from .parabolic_oracles import oracles_for
from .presentation import HYPERBOLIC, RelativePresentation
from .tables import PrecomputedTables, profile_hash

CLASS_MISMATCH = "class-mismatch"
LONG_EXHAUSTED = "long-search-exhausted"
SHORT_MISS = "short-table-miss"
PARABOLIC_MISS = "parabolic-tables-miss"

LONG = "long"
SHORT = "short-hyperbolic"
PARABOLIC = "parabolic"


@dataclass(frozen=True)
class Classification:
    """Verdict for one word.  representative = conjugator^-1 * word *
    conjugator in G; for a parabolic verdict it is a word in the parabolic
    alphabet, for a hyperbolic one the canonical cyclic form."""

    word: str
    verdict: str  # "hyperbolic" or "parabolic"
    identity: bool
    index: int
    representative: str
    conjugator: str


@dataclass(frozen=True)
class ConjugacyCertificate:
    u: str
    v: str
    answer: str  # "conjugate" or "not-conjugate"
    witness: str  # g with v = g * u * g^-1; None for a negative answer
    reason: str  # exhausted search for a negative answer, else None
    regime: str  # long / short-hyperbolic / parabolic; None off both paths
    lbar: int  # max relative length of the linear shortenings
    length: int  # max relative length of the cyclic forms
    profile: str  # hash of the profile the answer is relative to
    verified: bool

    def to_record(self) -> str:
        def fmt(x):
            return "-" if x is None else x

        return ("answer=%s witness=%s reason=%s regime=%s lbar=%d L=%d "
                "profile=%s verified=%d") % (
                    self.answer, fmt(self.witness), fmt(self.reason),
                    fmt(self.regime), self.lbar, self.length, self.profile,
                    1 if self.verified else 0)


class ConjugacyEngine:
    """Per-presentation caches shared across many decide() calls: cyclic
    shortenings, linear shortening lengths and classifications."""

    def __init__(self, p: RelativePresentation, tables: PrecomputedTables,
                 trivial=None):
        self.p = p
        self.tables = tables
        self.trivial = trivial
        self.k = tables.profile.k
        self.oracles = oracles_for(p)
        self._cyc = {}
        self._lin = {}
        self._cls = {}

    def cyclic(self, w: str):
        res = self._cyc.get(w)
        if res is None:
            res = shortening.cyclic_shorten(self.p, w, k=self.k,
                                            trivial=self.trivial)
            self._cyc[w] = res
        return res

    def linear_rel(self, w: str) -> int:
        val = self._lin.get(w)
        if val is None:
            out = shortening.shorten(self.p, w, k=self.k,
                                     trivial=self.trivial).output
            val = words.raw_relative_length(self.p, out)
            self._lin[w] = val
        return val

    def classification(self, w: str) -> Classification:
        res = self._cls.get(w)
        if res is None:
            res = classify(self.p, self.tables, w, engine=self)
            self._cls[w] = res
        return res

    def core(self, alpha: str, beta: str, regime: str):
        """Right-form conjugator between two hyperbolic cyclic forms: the
        empty word when they are equal, else the regime's miss reason."""
        if alpha == beta:
            return ("conjugate", "")
        return ("not-conjugate",
                LONG_EXHAUSTED if regime == LONG else SHORT_MISS)


def _engine(p, tables, engine, trivial):
    if engine is not None:
        return engine
    return ConjugacyEngine(p, tables, trivial)


def classify(p: RelativePresentation, tables: PrecomputedTables, w: str,
             engine=None) -> Classification:
    """Hyperbolic or parabolic, decided on the cyclic shortening: a cyclic
    form of one parabolic run is parabolic, any other nonempty one is
    hyperbolic (a cyclically reduced free-product element of two or more
    syllables is never conjugate into a factor).  The cyclic form is a
    normal form, so it is the representative as it stands, and
    cyclic_shorten has verified its conjugator."""
    eng = _engine(p, tables, engine, None)
    res = eng.cyclic(w)
    alpha, a = res.output, res.conjugator
    if alpha == "":
        verdict = "parabolic" if p.parabolics else "hyperbolic"
        return Classification(w, verdict, True, None, "", a)
    kinds = {p.letter_kind[c] for c in alpha}
    if len(kinds) == 1 and HYPERBOLIC not in kinds:
        return Classification(w, "parabolic", False, kinds.pop(), alpha, a)
    return Classification(w, "hyperbolic", False, None, alpha, a)


def _parabolic_core(eng: ConjugacyEngine, cu: Classification,
                    cv: Classification):
    """Right-form conjugator between parabolic representatives: the direct
    subgroup search first, then the exhaustive walk through the conjugates
    inside B_i matched against the within-subgroup pair list."""
    tables = eng.tables
    if cu.index == cv.index:
        orc = eng.oracles[cu.index]
        t = orc.conjugate(cu.representative, cv.representative)
        if t is not None:
            return ("conjugate", orc.geodesic_form(words.inverse(t)))

    def reachable(cls):
        orc = eng.oracles[cls.index]
        out = []
        for t in tables.l3[cls.index]:
            y = orc.conjugate(cls.representative, t)
            if y is not None:
                out.append((t, words.inverse(y)))
        return out

    for pu, c1 in reachable(cu):
        for pv, c2 in reachable(cv):
            c11 = tables.l11_pair(cu.index, pu, cv.index, pv)
            if c11 is not None:
                return ("conjugate",
                        words.mul(c1, c11, words.inverse(c2)))
    return ("not-conjugate", PARABOLIC_MISS)


def decide(p: RelativePresentation, tables: PrecomputedTables, u: str,
           v: str, engine=None) -> ConjugacyCertificate:
    """Full conjugacy decision: classify both words, reject class
    mismatches, then run the regime search picked by the larger cyclic
    relative length.  Positive answers carry a verified witness."""
    eng = _engine(p, tables, engine, None)
    cu = eng.classification(u)
    cv = eng.classification(v)
    lbar = max(eng.linear_rel(u), eng.linear_rel(v))
    length = max(words.raw_relative_length(p, cu.representative),
                 words.raw_relative_length(p, cv.representative))
    phash = profile_hash(tables.profile)

    def negative(reason, regime=None):
        return ConjugacyCertificate(u, v, "not-conjugate", None, reason,
                                    regime, lbar, length, phash, False)

    def positive(core_conj, regime):
        total = words.mul(cu.conjugator, core_conj,
                          words.inverse(cv.conjugator))
        g = words.inverse(total)
        residue = words.mul(g, u, words.inverse(g), words.inverse(v))
        if not shortening.word_problem(p, residue, tables=tables,
                                       trivial=eng.trivial):
            raise RelconjError("conjugacy witness failed verification")
        return ConjugacyCertificate(u, v, "conjugate", g, None, regime,
                                    lbar, length, phash, True)

    if cu.identity or cv.identity:
        if cu.identity and cv.identity:
            return positive("", None)
        return negative(CLASS_MISMATCH)
    if cu.verdict != cv.verdict:
        return negative(CLASS_MISMATCH)
    if cu.verdict == "parabolic":
        state, payload = _parabolic_core(eng, cu, cv)
        if state == "conjugate":
            return positive(payload, PARABOLIC)
        return negative(payload, PARABOLIC)
    regime = LONG if length > tables.profile.threshold else SHORT
    state, payload = eng.core(cu.representative, cv.representative, regime)
    if state == "conjugate":
        return positive(payload, regime)
    return negative(payload, regime)


def search(p: RelativePresentation, tables: PrecomputedTables, u: str,
           v: str, certificate=None, engine=None) -> str:
    """The verified witness g with v = g * u * g^-1.  Accepts a matching
    certificate from decide() to skip re-deciding; raises
    NotConjugateError otherwise.  The parabolic regime's witness comes out
    of the subgroup oracle's conjugating-element search."""
    cert = certificate
    if cert is None or cert.u != u or cert.v != v:
        cert = decide(p, tables, u, v, engine=engine)
    if cert.answer != "conjugate":
        raise NotConjugateError(cert.reason)
    return cert.witness


def bounded_class(p: RelativePresentation, tables: PrecomputedTables,
                  u: str, radius: int, engine=None, trivial=None) -> dict:
    """Conjugates of u inside the Gamma-ball of the radius: canonical word
    -> verified witness."""
    eng = _engine(p, tables, engine, trivial)
    index = metric_oracle.ball(p, radius, trivial=trivial,
                               budget=tables.profile.budget)
    out = {}
    for x in sorted(index.elements, key=p.shortlex_key):
        cert = decide(p, tables, u, x, engine=eng)
        if cert.answer == "conjugate":
            out[x] = cert.witness
    return out
