"""Hyperbolic/parabolic classification and the conjugacy decision.

Both rest on the cyclically reduced cores of shortening.cyclic_core,
which the engine caches with their verdicts.  classify rotates a word's
core to its canonical cyclic form (shortening.cyclic_form): a cyclic form
of one parabolic run is parabolic, any other nonempty one is hyperbolic.
decide reads the cores unrotated, which have their cyclic forms' syllable
counts and verdicts, and rotates nothing.  Two hyperbolic elements are
conjugate exactly when the core c of one is a syllable rotation of the
other's, s (the conjugacy theorem for free products; the engine refuses
presentations with relators): exactly when the two have as many letters
and syllables and c occurs in s + s, at k, and then s rotated by k is c.
v's end pass is given u's core, so that it peels a conjugator that
cancels with nothing off v's normal form without splitting it.  Two
parabolic elements are conjugate exactly when they lie in one factor and
the subgroup oracle conjugates one representative onto the other
(Lyndon-Schupp, Combinatorial Group Theory, IV.1.4); a parabolic core is
its cyclic form.  Neither branch reads a precomputed list.

Conventions.  Every internal conjugator is carried in right form: a step
from x to y stores c with y = c^-1 * x * c, so chains compose by plain
concatenation.  The witness g with v = g * u * g^-1 is the right-form
conjugator from v to u: v's core conjugator, then the one from v's core
to u's (s[:k], or the subgroup oracle's), then the inverse of u's core
conjugator.  Every "conjugate" answer is verified before the certificate
is issued: shortening.same_element checks g * u * g^-1, spelled by
words.conjugate_form with u in its normal form, against v (the shortening
module docstring gives the account of that check); a failed verification
is an internal error, never a silent downgrade.  The check reuses the
inverse_form of v's conjugator that v's end pass spelled
(RelativePresentation.inverse_form keeps the last one).

Negative answers name where the decision fell: class-mismatch (identity,
parabolic and hyperbolic never meet), long-search-exhausted or
short-table-miss (hyperbolic cores that are not rotations of each other;
the regime, long when the larger cyclic relative length passes the
profile's threshold, only labels the answer, as no search runs) and
parabolic-tables-miss (two factors, or no conjugator inside one); the
certificate records the profile hash the answer depends on.

Every query function takes the constants profile (a PrecomputedTables is
accepted too, for its profile): the regime threshold, the budget and the
hash are all it reads.
"""

from __future__ import annotations

from typing import NamedTuple

from . import shortening, words
from .errors import NotConjugateError, RelconjError
from .presentation import HYPERBOLIC, RelativePresentation
from .tables import NO_TABLES, ConstantsProfile, PrecomputedTables

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
    alphabet, for a hyperbolic one the canonical cyclic form from classify,
    and the unrotated core in the verdict ConjugacyEngine.core(w)[1]
    holds."""

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
    """Per-presentation cache shared across many decide() calls: each
    word's checked core with its verdict, which decide reads and classify
    rotates (cyclic, classification).  A core keeps the relative lengths
    of the linear shortening and of the cyclic form, and the input's
    normal form, against which decide checks witnesses.  The profile hash
    is kept on the profile (ConstantsProfile.hash), which the first decide
    on it computes, so that classify loads no hash function.  The presentation must be
    relator-free: only there are the cyclic forms canonical and two cores
    conjugate exactly when one is a rotation of the other, so relators are
    refused.

    The cache is a plain dict keyed by input word and never evicted: it
    grows with the distinct words an engine sees, and keeps no step log.
    Callers that stream many distinct long words should use one engine per
    batch.
    """

    def __init__(self, p: RelativePresentation, profile: ConstantsProfile):
        if isinstance(profile, PrecomputedTables):
            profile = profile.profile
        p.require_free_product(NO_TABLES)
        self.p = p
        self.profile = profile
        self._cores = {}

    def core(self, w: str, around: str = ""):
        """w's checked core (shortening.cyclic_core, which may peel around
        another word's core without changing the result) and its verdict,
        cached."""
        hit = self._cores.get(w)
        if hit is None:
            res = shortening.cyclic_core(self.p, w, around)
            hit = self._cores[w] = res, _classified(self.p, res)
        return hit

    def cyclic(self, w: str):
        """The cyclic shortening of w: its cached core, rotated."""
        return shortening.cyclic_form(self.p, w, self.core(w)[0])

    def classification(self, w: str) -> Classification:
        return classify(self.p, self.profile, w, engine=self)


def classify(p: RelativePresentation, profile: ConstantsProfile, w: str,
             engine=None) -> Classification:
    """Hyperbolic or parabolic, decided on the cyclic shortening: a cyclic
    form of one parabolic run is parabolic, any other nonempty one is
    hyperbolic (a cyclically reduced free-product element of two or more
    syllables is never conjugate into a factor).  The cyclic form, the
    engine's core rotated, is a normal form, so it is the representative
    as it stands, and its conjugator is verified."""
    eng = engine or ConjugacyEngine(p, profile)
    return _classified(p, eng.cyclic(w))


def _classified(p, res) -> Classification:
    """classify's verdict on the cyclic shortening res.  The engine also
    reads it off a word's core, which has the syllable count and the letter
    kinds of the word's cyclic form, so that the verdict is the word's; only
    a hyperbolic representative is not canonical."""
    alpha, a = res.output, res.conjugator
    if alpha == "":
        verdict = "parabolic" if p.parabolics else "hyperbolic"
        return Classification(verdict, True, None, "", a)
    kind = p.letter_kind[alpha[0]]
    if res.cyclic_length == 1 and kind != HYPERBOLIC:
        return Classification("parabolic", False, kind, alpha, a)
    return Classification("hyperbolic", False, None, alpha, a)


def _parabolic_core(p, cu: Classification, cv: Classification):
    """Right-form conjugator from v's parabolic representative to u's.
    Elements of one factor are conjugate in a free product exactly when
    they are conjugate inside it, and elements of two factors never are, so
    the subgroup oracle's answer is complete.  The oracle's t, with t * x *
    t^-1 = y for u's and v's representatives x and y, is in geodesic form;
    it is spelled as the plain inverse of inverse_form(t)."""
    if cu.index == cv.index:
        t = p.oracles[cu.index].conjugate(cu.representative,
                                          cv.representative)
        if t is not None:
            return ("conjugate", words.inverse(p.inverse_form(t)))
    return ("not-conjugate", PARABOLIC_MISS)


def decide(p: RelativePresentation, profile: ConstantsProfile, u: str,
           v: str, engine=None) -> ConjugacyCertificate:
    """Full conjugacy decision on the cores of u and v, v's read around
    u's (ConjugacyEngine.core): reject class mismatches, then compare
    parabolic representatives with the subgroup oracle, and look for u's
    hyperbolic core as a rotation of v's with one find; the regime only
    labels the answer.  Positive answers carry a verified witness."""
    eng = engine or ConjugacyEngine(p, profile)
    ru, cu = eng.core(u)
    rv, cv = eng.core(v, ru.output)
    lbar = max(ru.linear_length, rv.linear_length)
    length = max(ru.cyclic_length, rv.cyclic_length)
    if cu.identity or cv.identity or cu.verdict != cv.verdict:
        regime = None
        state, payload = (("conjugate", "") if cu.identity and cv.identity
                          else ("not-conjugate", CLASS_MISMATCH))
    elif cu.verdict == "parabolic":
        regime = PARABOLIC
        state, payload = _parabolic_core(p, cu, cv)
    else:
        regime = LONG if length > eng.profile.threshold else SHORT
        c, s = ru.output, rv.output
        k = ((s + s).find(c) if len(s) == len(c)
             and ru.cyclic_length == rv.cyclic_length else -1)
        if k >= 0:
            state, payload = "conjugate", s[:k]
        else:
            state, payload = "not-conjugate", (
                LONG_EXHAUSTED if regime == LONG else SHORT_MISS)
    if state != "conjugate":
        return ConjugacyCertificate(u, v, state, None, payload, regime, lbar,
                                    length, eng.profile.hash, False)
    g = words.mul(cv.conjugator, payload, words.inverse(cu.conjugator))
    if not shortening.same_element(
            p, words.conjugate_form(p, g, ru.normal_form), v, rv.normal_form):
        raise RelconjError("conjugacy witness failed verification")
    return ConjugacyCertificate(u, v, state, g, None, regime, lbar, length,
                                eng.profile.hash, True)


def search(p: RelativePresentation, profile: ConstantsProfile, u: str,
           v: str, engine=None) -> str:
    """The verified witness g with v = g * u * g^-1 of decide(); raises
    NotConjugateError with decide's reason for a negative answer.  The
    parabolic regime's witness comes out of the subgroup oracle's
    conjugating-element search."""
    cert = decide(p, profile, u, v, engine=engine)
    if cert.answer != "conjugate":
        raise NotConjugateError(cert.reason)
    return cert.witness


def bounded_class(p: RelativePresentation, profile: ConstantsProfile,
                  u: str, radius: int, engine=None) -> dict:
    """Conjugates of u inside the Gamma-ball of the radius: canonical word
    -> verified witness."""
    from . import metric_oracle  # the ball oracle; no query path needs it

    eng = engine or ConjugacyEngine(p, profile)
    out = {}
    for x in metric_oracle.ball(p, radius, budget=eng.profile.budget).dist:
        cert = decide(p, profile, u, x, engine=eng)
        if cert.answer == "conjugate":
            out[x] = cert.witness
    return out
