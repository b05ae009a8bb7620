"""Hyperbolic/parabolic classification and the conjugacy decision.

Both rest on the canonical cyclic form of shortening.cyclic_shorten.  A
cyclic form of one parabolic run is parabolic, any other nonempty one is
hyperbolic.  Two hyperbolic elements are conjugate exactly when their cyclic
forms are equal strings (the conjugacy theorem for free products; the
engine refuses presentations with relators).  decide reads v against u
once (shortening.cyclic_pair): where u's cyclically reduced core has
NEAR_CYCLE syllables or more, it is looked for as a rotation of v's core.
So a long pair costs one rotation where the two are conjugate and none
where they are not: on a hit u's core is rotated to its cyclic form
alpha, and v's cyclic form is alpha, found in v's core without rotating
it; any other pair is answered on the two cores, each rotated only if a
caller asks for its cyclic form later.  Where the engine holds
u's or v's cyclic form already, it takes both cyclic forms and compares
them, so that a cyclic form is never compared with a core.  Two parabolic
elements are conjugate exactly when they lie in one factor and the
subgroup oracle conjugates one representative onto the other
(Lyndon-Schupp, Combinatorial Group Theory, IV.1.4).  Neither branch reads
a precomputed list.

Conventions.  Every internal conjugator is carried in right form: a step
from x to y stores c with y = c^-1 * x * c, so chains compose by plain
concatenation.  The public witness of a certificate is converted once at
the boundary to g = c^-1 with v = g * u * g^-1.  Every "conjugate" answer
is verified before the certificate is issued: shortening.same_element
checks g * u * g^-1, spelled by words.conjugate_form with u in its normal
form, against v (the shortening module docstring gives the account of that
check); a failed verification is an internal error, never a silent
downgrade.  The witness is built as
cv.conjugator * payload^-1 * cu.conjugator^-1, which spells one inverse
fewer than inverting the product of the other order, and its check reuses
the inverse_form of v's conjugator that shortening v spelled
(RelativePresentation.inverse_form keeps the last one).

Negative answers name where the decision fell: class-mismatch (identity,
parabolic and hyperbolic never meet), long-search-exhausted or
short-table-miss (unequal hyperbolic cyclic forms; the regime, long when
the larger cyclic relative length passes the profile's threshold, only
labels the answer, as no search runs) and parabolic-tables-miss (two
factors, or no conjugator inside one); the certificate records the profile
hash the answer depends on.  A negative answer read off the cores has the
same record: a core has its cyclic form's syllable count, the L of the
record, and its word's verdict (empty for the identity, one parabolic run,
or hyperbolic), and two cores are equal strings only when they are
conjugate, which the read finds.

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
    alphabet, for a hyperbolic one the canonical cyclic form."""

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
    checks witnesses) and classifications.  The profile hash is kept on
    the profile (ConstantsProfile.hash), which the first decide on it
    computes, so that classify loads no hash function.  The presentation
    must be relator-free: only there are the cyclic forms canonical, so
    relators are refused.

    _cyc and _cls are plain dicts keyed by input word and never evicted:
    they grow with the distinct words an engine sees, each _cyc entry
    keeping the input's normal form, canonical cyclic form and conjugator,
    and no step log.  The two cores that pair's one read returns for a pair
    found not conjugate are not canonical and never kept, so a word is in
    _cyc exactly when its cyclic form has been computed.  Callers that
    stream many distinct long words should use one engine per batch.
    """

    def __init__(self, p: RelativePresentation, profile: ConstantsProfile):
        if isinstance(profile, PrecomputedTables):
            profile = profile.profile
        p.require_free_product(NO_TABLES)
        self.p = p
        self.profile = profile
        self._cyc = {}
        self._cls = {}

    def cyclic(self, w: str):
        """The cyclic shortening of w, cached."""
        res = self._cyc.get(w)
        if res is None:
            res = self._cyc[w] = shortening.cyclic_shorten(self.p, w)
        return res

    def pair(self, u: str, v: str):
        """decide's cyclic shortenings of u and v.  With neither cached,
        shortening.cyclic_pair reads v against u once; where the two are
        conjugate or u's core is short, both results are cyclic forms and
        kept, else they are cores, returned and not kept.  With either
        cached, both are cyclic forms, so that a cached cyclic form is only
        ever compared with another."""
        ru, rv = self._cyc.get(u), self._cyc.get(v)
        if ru is None and rv is None:
            ru, rv = shortening.cyclic_pair(self.p, u, v)
            if (ru.cyclic_length < shortening.NEAR_CYCLE
                    or ru.output == rv.output):
                self._cyc[u], self._cyc[v] = ru, rv
            return ru, rv
        return ru or self.cyclic(u), rv or self.cyclic(v)

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


def classify(p: RelativePresentation, profile: ConstantsProfile, w: str,
             engine=None) -> Classification:
    """Hyperbolic or parabolic, decided on the cyclic shortening: a cyclic
    form of one parabolic run is parabolic, any other nonempty one is
    hyperbolic (a cyclically reduced free-product element of two or more
    syllables is never conjugate into a factor).  The cyclic form is a
    normal form, so it is the representative as it stands, and
    cyclic_shorten has verified its conjugator."""
    eng = engine or ConjugacyEngine(p, profile)
    return _classified(p, eng.cyclic(w))


def _classified(p, res) -> Classification:
    """classify's verdict on the cyclic shortening res.  decide also reads
    it off u's and v's cores (ConjugacyEngine.pair), each of which has the
    syllable count and the letter kinds of its word's cyclic form, so that
    the verdict is the word's; only the representative is not
    canonical."""
    alpha, a = res.output, res.conjugator
    if alpha == "":
        verdict = "parabolic" if p.parabolics else "hyperbolic"
        return Classification(verdict, True, None, "", a)
    kind = p.letter_kind[alpha[0]]
    if res.cyclic_length == 1 and kind != HYPERBOLIC:
        return Classification("parabolic", False, kind, alpha, a)
    return Classification("hyperbolic", False, None, alpha, a)


def _parabolic_core(p, cu: Classification, cv: Classification):
    """Right-form conjugator between parabolic representatives.  Elements
    of one factor are conjugate in a free product exactly when they are
    conjugate inside it, and elements of two factors never are, so the
    subgroup oracle's answer is complete.  The oracle's conjugator is in
    geodesic form, so inverse_form spells its inverse in geodesic form."""
    if cu.index == cv.index:
        t = p.oracles[cu.index].conjugate(cu.representative,
                                          cv.representative)
        if t is not None:
            return ("conjugate", p.inverse_form(t))
    return ("not-conjugate", PARABOLIC_MISS)


def decide(p: RelativePresentation, profile: ConstantsProfile, u: str,
           v: str, engine=None) -> ConjugacyCertificate:
    """Full conjugacy decision: classify both words, reject class
    mismatches, then compare the representatives, parabolic ones with the
    subgroup oracle and hyperbolic ones as strings; the regime only labels
    the answer.  Positive answers carry a verified witness.  v is read
    against u (ConjugacyEngine.pair).  Where that gives the two cores and
    not their cyclic forms, v is not conjugate to u, and both verdicts are
    read off the cores: the answer, record and witness are the ones of
    rotating both words either way."""
    eng = engine or ConjugacyEngine(p, profile)
    ru, rv = eng.pair(u, v)
    # the engine keeps every cyclic form it computes and no core, and u's
    # whenever it keeps v's
    if v in eng._cyc:
        cu, cv = eng.classification(u), eng.classification(v)
    else:
        cu, cv = _classified(p, ru), _classified(p, rv)
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
        state, payload = eng.core(cu.representative, cv.representative,
                                  regime)
    if state != "conjugate":
        return ConjugacyCertificate(u, v, state, None, payload, regime, lbar,
                                    length, eng.profile.hash, False)
    g = words.mul(cv.conjugator, words.inverse(payload),
                  words.inverse(cu.conjugator))
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
