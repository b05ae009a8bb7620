"""Curve shortening: relative local geodesics, the word problem, and cyclic
shortening with conjugator tracking.

The linear procedure has two phases.  Phase one rewrites until stable: free
reduction, replacement of every non-geodesic maximal parabolic run by its
subgroup-geodesic form, and dropping of trivial runs (merging the newly
adjacent neighbors).  Phase two repeatedly locates a minimal violating
window - a subword of relative length at most k = 8*delta+1 that is not a
relative geodesic - and splices in a geodesic word with the same endpoints.
Every step is an equality in the group and strictly decreases
(relative length, Gamma-length) lexicographically or merges components.

On a presentation without relators phase one alone produces a word that is
a relative geodesic (alternating geodesic syllables admit no shortcut in a
free product), so the window scan cannot fire; ``force_scan`` runs it
anyway, which the test suite uses to confirm the claim.  With relators the
scan is the whole point and replacements come from the ball oracle, which
needs an injected triviality test.

Cyclic shortening follows the doubled-word iteration: reduce cyclically,
shorten, then while rho o rho has a violating window crossing the seam,
split rho = eta o mid o nu, replace nu o eta by a geodesic, absorb
lab(eta) into the running conjugator and re-shorten.  The result alpha
satisfies lab(alpha) = a^-1 * u * a and alpha o alpha passes the window
check.

On a presentation without relators the result is then made canonical:
alpha is respelled as its normal form and rotated to the least rotation of
its syllable sequence (hyperbolic letters one by one, parabolic runs whole,
each compared by its shortlex letter ranks), found in linear time with
Booth's algorithm.  Cyclically reduced elements of a free product are
conjugate exactly when their syllable sequences are rotations of each other
(Lyndon-Schupp, Combinatorial Group Theory, IV.1.4), so two elements of two
or more syllables are conjugate exactly when their cyclic forms are equal
strings.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metric_oracle, words
from .errors import RelconjError
from .parabolic_oracles import oracles_for
from .presentation import HYPERBOLIC, RelativePresentation, inverse_letter

PARABOLIC_NORMALIZATION = "parabolic-normalization"
TABLE_REPLACEMENT = "table-replacement"


@dataclass(frozen=True)
class ShorteningStep:
    """One rewrite: word[start:end] (= before) was replaced by after."""

    start: int
    end: int
    before: str
    after: str
    justification: str


@dataclass
class ShorteningResult:
    input_word: str
    output: str
    steps: tuple


@dataclass
class CyclicShorteningResult:
    input_word: str
    output: str
    conjugator: str  # a with lab(output) = a^-1 * input * a in G
    iterations: int
    steps: tuple


def resolve_k(p: RelativePresentation, tables=None, k=None) -> int:
    """Window bound 8*delta+1; explicit k wins, then the tables' profile,
    then the presentation's constants block, then delta = 1."""
    if k is not None:
        return k
    if tables is not None:
        return tables.profile.k
    return 8 * dict(p.constants).get("delta", 1) + 1


def resolve_delta(p: RelativePresentation, tables=None, k=None) -> int:
    if k is not None:
        return (k - 1) // 8
    if tables is not None:
        return tables.profile.delta
    return dict(p.constants).get("delta", 1)


def _normalization_phase(p, w, steps):
    """Free reduction + geodesic run replacement to a fixed point."""
    oracles = oracles_for(p)
    changed = True
    while changed:
        changed = False
        r = words.free_reduce(w)
        if r != w:
            steps.append(ShorteningStep(0, len(w), w, r, PARABOLIC_NORMALIZATION))
            w = r
            changed = True
            continue
        for s in words.raw_syllables(p, w):
            if s.kind == HYPERBOLIC:
                continue
            g = oracles[s.kind].geodesic_form(s.word)
            if len(g) < len(s.word):
                steps.append(
                    ShorteningStep(s.start, s.end, s.word, g, PARABOLIC_NORMALIZATION)
                )
                w = w[: s.start] + g + w[s.end :]
                changed = True
                break
    return w


def find_violating_window(p, w, k, trivial=None):
    """Shortest, then leftmost, subword of relative length <= k that is not
    a relative geodesic; None if every such window passes."""
    n = len(w)
    if p.is_free_product and trivial is None:
        # A violating window in a free product always contains a hyperbolic
        # cancellation or a non-geodesic piece of one parabolic run, and
        # that piece is itself a smaller violating window, so the minimal
        # window is of one of those two shapes.
        oracles = oracles_for(p)
        best = None  # (span, start)
        for i in range(n - 1):
            if w[i + 1] == inverse_letter(w[i]) and (
                    p.letter_kind[w[i]] != HYPERBOLIC or k >= 2):
                best = (2, i)
                break
        for syl in words.raw_syllables(p, w):
            if syl.kind == HYPERBOLIC:
                continue
            orc = oracles[syl.kind]
            run = syl.word
            limit = len(run) if best is None else best[0]
            hit = None
            for span in range(2, min(len(run), limit) + 1):
                for s in range(len(run) - span + 1):
                    if orc.length(run[s : s + span]) < span:
                        hit = (span, syl.start + s)
                        break
                if hit is not None:
                    break
            if hit is not None and (best is None or hit < best):
                best = hit
        if best is None:
            return None
        return (best[1], best[1] + best[0])
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            sub = w[i : i + span]
            if words.raw_relative_length(p, sub) > k:
                continue
            if not metric_oracle.is_relative_geodesic(p, sub, trivial=trivial):
                return (i, i + span)
    return None


def is_local_geodesic(p, w, k, trivial=None) -> bool:
    """Every subword of relative length <= k is a relative geodesic."""
    return find_violating_window(p, w, k, trivial=trivial) is None


def is_cyclic_local_geodesic(p, w, k, trivial=None) -> bool:
    if w == "":
        return True
    if not words.is_cyclically_reduced(w):
        return False
    return is_local_geodesic(p, w + w, k, trivial=trivial)


def _geodesic_rep(p, sub, trivial):
    """Relative geodesic word with the same endpoints as sub: the canonical
    representative from the ball oracle."""
    return metric_oracle.normal_form(p, sub, trivial=trivial)


def shorten(p: RelativePresentation, w: str, tables=None, k=None,
            trivial=None, force_scan=False) -> ShorteningResult:
    """Rewrite w to a relative (8*delta+1)-local geodesic for the same
    group element, logging every step."""
    p.check_word(w)
    k = resolve_k(p, tables, k)
    steps = []
    out = _normalization_phase(p, w, steps)
    if p.is_free_product and trivial is None and not force_scan:
        return ShorteningResult(w, out, tuple(steps))
    guard = 4 * (len(w) + 1)
    while True:
        win = find_violating_window(p, out, k, trivial=trivial)
        if win is None:
            break
        i, j = win
        rep = _geodesic_rep(p, out[i:j], trivial)
        steps.append(ShorteningStep(i, j, out[i:j], rep, TABLE_REPLACEMENT))
        out = _normalization_phase(p, out[:i] + rep + out[j:], steps)
        guard -= 1
        if guard <= 0:
            raise RelconjError("window replacement did not stabilize")
    return ShorteningResult(w, out, tuple(steps))


def word_problem(p: RelativePresentation, w: str, tables=None, k=None,
                 trivial=None) -> bool:
    """True iff w represents the identity.

    Relator-free presentations short-circuit through the component normal
    form, which is the complete answer there (and keeps this linear in the
    input).  Otherwise: shorten; empty output is yes; output of relative
    length > 2*delta is no (a nonempty local geodesic that long cannot
    close up); the remaining short outputs go to the triviality oracle.
    """
    p.check_word(w)
    if p.is_free_product and trivial is None:
        return words.normalize(p, w) == ""
    out = shorten(p, w, tables=tables, k=k, trivial=trivial).output
    if out == "":
        return True
    if words.raw_relative_length(p, out) > 2 * resolve_delta(p, tables, k):
        return False
    return metric_oracle.triviality_test(p, trivial)(out)


def least_rotation(seq) -> int:
    """Start of the lexicographically least rotation of seq, the first one
    when several are equal (Booth 1980, with the Knuth-Morris-Pratt failure
    function over seq o seq): O(len(seq)) comparisons."""
    n = len(seq)
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        c = seq[j % n]
        i = fail[j - k - 1]
        while i != -1 and c != seq[(k + i + 1) % n]:
            if c < seq[(k + i + 1) % n]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != seq[k % n]:
            if c < seq[k % n]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _canonical_rotation(p, w):
    """The normal form of the cyclic word w rotated to the least rotation of
    its syllables, and the rotation prefix c with result = c^-1 * w * c."""
    nf = words.normalize(p, w)
    syls = words.raw_syllables(p, nf)
    rank = p.letter_rank
    start = syls[least_rotation(
        [tuple(rank[c] for c in s.word) for s in syls])].start
    return nf[start:] + nf[:start], nf[:start]


def cyclic_shorten(p: RelativePresentation, w: str, tables=None, k=None,
                   trivial=None) -> CyclicShorteningResult:
    """Conjugacy normal form: a cyclic relative (8*delta+1)-local geodesic
    alpha and a conjugator a with lab(alpha) = a^-1 * w * a.  Without
    relators alpha is the canonical cyclic form of the module docstring, so
    conjugate words of two or more syllables get the same alpha.  The
    iteration count is capped at L-bar + 1 (relative length of the first
    shortened form); exceeding it means the constants profile is
    inconsistent with the presentation (e.g. torsion with too small a
    delta) and raises."""
    p.check_word(w)
    k = resolve_k(p, tables, k)
    steps = []
    conj = ""

    def reduce_and_shorten(word):
        nonlocal conj
        while True:
            core, pre = words.cyclic_reduce(words.free_reduce(word))
            conj = words.mul(conj, pre)
            res = shorten(p, core, tables=tables, k=k, trivial=trivial)
            steps.extend(res.steps)
            if words.is_cyclically_reduced(res.output):
                return res.output
            word = res.output

    rho = reduce_and_shorten(w)
    lbar = max(1, words.raw_relative_length(p, rho))
    iterations = 0
    while rho:
        if words.raw_relative_length(p, rho) <= 1:
            # One syllable is cyclically canonical already: a lone letter or
            # a geodesic run inside one factor.  A doubled-word violation
            # here only signals torsion in the factor, not a shorter form.
            break
        syls = words.raw_syllables(p, rho)
        first, last = syls[0], syls[-1]
        if first.kind != HYPERBOLIC and first.kind == last.kind:
            # wrap-around runs in the same factor: merge the whole component
            # across the seam in one pass, so the relative length drops by
            # one per iteration instead of a couple of letters per window
            iterations += 1
            eta, mid, nu = first.word, rho[first.end:last.start], last.word
            rep = _geodesic_rep(p, nu + eta, trivial)
            steps.append(ShorteningStep(last.start, len(rho) + len(eta),
                                        nu + eta, rep, TABLE_REPLACEMENT))
            conj = words.mul(conj, eta)
            rho = reduce_and_shorten(mid + rep)
            continue
        win = find_violating_window(p, rho + rho, k, trivial=trivial)
        if win is None:
            break
        iterations += 1
        if iterations > lbar:
            raise RelconjError(
                "cyclic shortening exceeded %d iterations; constants profile "
                "is inconsistent with the presentation" % lbar
            )
        i, j = win
        # rho is itself k-local geodesic, so the window crosses the seam
        head = max(0, j - len(rho))
        if head > i:
            # window wraps past a full copy; replace the whole cyclic word
            rep = _geodesic_rep(p, rho, trivial)
            steps.append(ShorteningStep(0, len(rho), rho, rep, TABLE_REPLACEMENT))
            rho = reduce_and_shorten(rep)
            continue
        eta, mid, nu = rho[:head], rho[head:i], rho[i:]
        rep = _geodesic_rep(p, nu + eta, trivial)
        steps.append(ShorteningStep(i, j, nu + eta, rep, TABLE_REPLACEMENT))
        conj = words.mul(conj, eta)
        rho = reduce_and_shorten(mid + rep)

    if rho and p.is_free_product:
        rho, prefix = _canonical_rotation(p, rho)
        conj = words.mul(conj, prefix)
    residue = words.mul(conj, rho, words.inverse(conj), words.inverse(w))
    if not word_problem(p, residue, tables=tables, k=k, trivial=trivial):
        raise RelconjError("cyclic shortening produced an invalid conjugator")
    return CyclicShorteningResult(w, rho, conj, iterations, tuple(steps))
