"""Hyperbolic/parabolic classification and the conjugacy decision.

Both rest on the canonical cyclic form of shortening.cyclic_shorten.  A
cyclic form of one parabolic run is parabolic, any other nonempty one is
hyperbolic.  Two hyperbolic elements are conjugate exactly when their cyclic
forms are equal strings (the conjugacy theorem for free products; the
engine refuses presentations with relators).  Two parabolic
elements are conjugate exactly when they lie in one factor and the subgroup
oracle conjugates one representative onto the other (Lyndon-Schupp,
Combinatorial Group Theory, IV.1.4).  Neither branch reads a precomputed
list.

Conventions.  Every internal conjugator is carried in right form: a step
from x to y stores c with y = c^-1 * x * c, so chains compose by plain
concatenation.  The public witness of a certificate is converted once at
the boundary to g = c^-1 with v = g * u * g^-1.  Every "conjugate" answer
is verified before the certificate is issued (shortening.same_element:
normal-form equality of g * u * g^-1 and v, with u in its normal form so
that words.mul gets freely reduced parts); a failed verification is an
internal error, never a silent downgrade.

Negative answers name where the decision fell: class-mismatch (identity,
parabolic and hyperbolic never meet), long-search-exhausted or
short-table-miss (unequal hyperbolic cyclic forms, by the regime of the
longer one against the profile's threshold) and parabolic-tables-miss (two
factors, or no conjugator inside one); the certificate records the profile
hash the answer depends on.

Every query function takes the constants profile (a PrecomputedTables is
accepted too, for its profile): the regime threshold, the budget and the
hash are all it reads.
"""

from __future__ import annotations

from typing import NamedTuple

from . import shortening, words
from .errors import NotConjugateError, RelconjError
from .presentation import HYPERBOLIC, RelativePresentation
from .tables import (
    ConstantsProfile,
    PrecomputedTables,
    check_relator_free,
    profile_hash,
)

CLASS_MISMATCH = "class-mismatch"
LONG_EXHAUSTED = "long-search-exhausted"
SHORT_MISS = "short-table-miss"
PARABOLIC_MISS = "parabolic-tables-miss"

LONG = "long"
SHORT = "short-hyperbolic"
PARABOLIC = "parabolic"


class Classification(NamedTuple):
    """Verdict for one word.  representative = conjugator^-1 * word *
    conjugator in G; for a parabolic verdict it is a word in the parabolic
    alphabet, for a hyperbolic one the canonical cyclic form."""

    word: str
    verdict: str  # "hyperbolic" or "parabolic"
    identity: bool
    index: int
    representative: str
    conjugator: str


class ConjugacyCertificate(NamedTuple):
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
    shortenings (with the relative lengths of the linear shortening and of
    the cyclic form, and the input's normal form, against which decide
    checks witnesses), classifications, and the profile hash.  The
    presentation must be relator-free: only there are the cyclic forms
    canonical, so relators are refused.

    _cyc and _cls are plain dicts keyed by input word and never evicted:
    they grow with the distinct words an engine sees, each _cyc entry
    keeping its input, normal form, cyclic form and step log.  Callers
    that stream many distinct long words should use one engine per batch.
    """

    def __init__(self, p: RelativePresentation, profile: ConstantsProfile):
        if isinstance(profile, PrecomputedTables):
            profile = profile.profile
        check_relator_free(p)
        self.p = p
        self.profile = profile
        self.oracles = p.oracles
        self.profile_hash = profile_hash(profile)
        self._cyc = {}
        self._cls = {}

    def cyclic(self, w: str):
        res = self._cyc.get(w)
        if res is None:
            res = shortening.cyclic_shorten(self.p, w)
            self._cyc[w] = res
        return res

    def classification(self, w: str) -> Classification:
        res = self._cls.get(w)
        if res is None:
            res = classify(self.p, self.profile, w, engine=self)
            self._cls[w] = res
        return res

    def core(self, alpha: str, beta: str, regime: str):
        """Right-form conjugator between two hyperbolic cyclic forms: the
        empty word when they are equal, else the regime's miss reason."""
        if alpha == beta:
            return ("conjugate", "")
        return ("not-conjugate",
                LONG_EXHAUSTED if regime == LONG else SHORT_MISS)


def _engine(p, profile, engine):
    if engine is not None:
        return engine
    return ConjugacyEngine(p, profile)


def classify(p: RelativePresentation, profile: ConstantsProfile, w: str,
             engine=None) -> Classification:
    """Hyperbolic or parabolic, decided on the cyclic shortening: a cyclic
    form of one parabolic run is parabolic, any other nonempty one is
    hyperbolic (a cyclically reduced free-product element of two or more
    syllables is never conjugate into a factor).  The cyclic form is a
    normal form, so it is the representative as it stands, and
    cyclic_shorten has verified its conjugator."""
    eng = _engine(p, profile, engine)
    res = eng.cyclic(w)
    alpha, a = res.output, res.conjugator
    if alpha == "":
        verdict = "parabolic" if p.parabolics else "hyperbolic"
        return Classification(w, verdict, True, None, "", a)
    kind = p.letter_kind[alpha[0]]
    if res.cyclic_length == 1 and kind != HYPERBOLIC:
        return Classification(w, "parabolic", False, kind, alpha, a)
    return Classification(w, "hyperbolic", False, None, alpha, a)


def _parabolic_core(eng: ConjugacyEngine, cu: Classification,
                    cv: Classification):
    """Right-form conjugator between parabolic representatives.  Elements
    of one factor are conjugate in a free product exactly when they are
    conjugate inside it, and elements of two factors never are, so the
    subgroup oracle's answer is complete."""
    if cu.index == cv.index:
        orc = eng.oracles[cu.index]
        t = orc.conjugate(cu.representative, cv.representative)
        if t is not None:
            return ("conjugate", orc.geodesic_form(words.inverse(t)))
    return ("not-conjugate", PARABOLIC_MISS)


def decide(p: RelativePresentation, profile: ConstantsProfile, u: str,
           v: str, engine=None) -> ConjugacyCertificate:
    """Full conjugacy decision: classify both words, reject class
    mismatches, then run the regime search picked by the larger cyclic
    relative length.  Positive answers carry a verified witness."""
    eng = _engine(p, profile, engine)
    cu = eng.classification(u)
    cv = eng.classification(v)
    ru, rv = eng.cyclic(u), eng.cyclic(v)
    lbar = max(ru.linear_length, rv.linear_length)
    length = max(ru.cyclic_length, rv.cyclic_length)
    phash = eng.profile_hash

    def negative(reason, regime=None):
        return ConjugacyCertificate(u, v, "not-conjugate", None, reason,
                                    regime, lbar, length, phash, False)

    def positive(core_conj, regime):
        total = words.mul(cu.conjugator, core_conj,
                          words.inverse(cv.conjugator))
        g = words.inverse(total)
        if not shortening.same_element(
                p, words.mul(g, ru.normal_form, words.inverse(g)), v,
                rv.normal_form):
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
    regime = LONG if length > eng.profile.threshold else SHORT
    state, payload = eng.core(cu.representative, cv.representative, regime)
    if state == "conjugate":
        return positive(payload, regime)
    return negative(payload, regime)


def search(p: RelativePresentation, profile: ConstantsProfile, u: str,
           v: str, certificate=None, engine=None) -> str:
    """The verified witness g with v = g * u * g^-1.  Accepts a matching
    certificate from decide() to skip re-deciding; raises
    NotConjugateError otherwise.  The parabolic regime's witness comes out
    of the subgroup oracle's conjugating-element search."""
    cert = certificate
    if cert is None or cert.u != u or cert.v != v:
        cert = decide(p, profile, u, v, engine=engine)
    if cert.answer != "conjugate":
        raise NotConjugateError(cert.reason)
    return cert.witness


def bounded_class(p: RelativePresentation, profile: ConstantsProfile,
                  u: str, radius: int, engine=None) -> dict:
    """Conjugates of u inside the Gamma-ball of the radius: canonical word
    -> verified witness."""
    from . import metric_oracle  # the ball oracle; no query path needs it

    eng = _engine(p, profile, engine)
    index = metric_oracle.ball(p, radius, budget=eng.profile.budget)
    out = {}
    for x in sorted(index.elements, key=p.shortlex_key):
        cert = decide(p, profile, u, x, engine=eng)
        if cert.answer == "conjugate":
            out[x] = cert.witness
    return out
