"""Curve shortening: relative local geodesics, the word problem, and cyclic
shortening with conjugator tracking.

The linear procedure has two phases.  Phase one is the component normal
form (words.normalize): one left-to-right pass of free reduction in which
every maximal parabolic run is respelled in its canonical geodesic form and
trivial runs drop out, merging the newly adjacent neighbors.  Phase two
repeatedly locates a minimal violating window - a subword of relative
length at most k = 8*delta+1 that is not a relative geodesic - splices in a
geodesic word with the same endpoints and renormalizes.  Every step is an
equality in the group; phase one never lengthens the word and a splice
strictly decreases (relative length, Gamma-length) lexicographically.

On a presentation without relators phase one alone produces the
free-product normal form, which is a relative geodesic (alternating
geodesic syllables admit no shortcut in a free product), so the window scan
cannot fire and is skipped.  With relators the scan is the whole point and
replacements come from the ball oracle, which needs an injected triviality
test.  The presentation alone picks the path: every function here takes
``trivial`` and reads it only with relators, so a relator-free presentation
never calls it.

Cyclic shortening without relators is one linear pass over the normal
form of the word.  Cyclic reduction of a free-product normal form happens
at its syllable ends only (Lyndon-Schupp, Combinatorial Group Theory,
IV.1.4): mutually inverse hyperbolic end letters cancel, and end runs of
one factor merge into one run, which is either trivial (and the reduction
goes on inwards) or a syllable between two of other kinds (and it stops).
The kept core is rotated to the least rotation of its syllable sequence
(hyperbolic letters one by one, parabolic runs whole, each compared by its
shortlex letter ranks), found in linear time with Booth's algorithm, and a
lone parabolic run is cyclically reduced inside its factor.  Cyclically
reduced elements of a free product are conjugate exactly when their
syllable sequences are rotations of each other, so two elements of two or
more syllables are conjugate exactly when their cyclic forms are equal
strings.

With relators cyclic shortening follows the doubled-word iteration: reduce
cyclically, shorten, then while rho o rho has a violating window crossing
the seam, split rho = eta o mid o nu, replace nu o eta by a geodesic,
absorb lab(eta) into the running conjugator and re-shorten, at most
L-bar + 1 times.  The result alpha satisfies lab(alpha) = a^-1 * u * a and
alpha o alpha passes the window check.
"""

from __future__ import annotations

from typing import NamedTuple

from . import words
from .errors import RelconjError
from .presentation import HYPERBOLIC, INVERSE_LETTER, RelativePresentation

# metric_oracle (the ball oracle) is imported inside the functions that
# need it, none of which a query on a relator-free presentation runs, so
# such a query never loads it.

PARABOLIC_NORMALIZATION = "parabolic-normalization"
TABLE_REPLACEMENT = "table-replacement"


class ShorteningStep(NamedTuple):
    """One rewrite: word[start:end] (= before) was replaced by after."""

    start: int
    end: int
    before: str
    after: str
    justification: str


class ShorteningResult(NamedTuple):
    input_word: str
    output: str
    steps: tuple


class CyclicShorteningResult(NamedTuple):
    """What cyclic_shorten returns.  The two lengths are syllable counts
    taken while the pass splits the words anyway, and normal_form is the
    normal form the pass took, so that callers such as the conjugacy
    engine never split or normalize the input again."""

    input_word: str
    output: str
    conjugator: str  # a with lab(output) = a^-1 * input * a in G
    iterations: int
    steps: tuple
    # relative length of the input's normal form, which is its linear
    # shortening; None with relators
    linear_length: int = None
    # syllable count of output as written, raw_relative_length(p, output):
    # the relative length of the cyclic form
    cyclic_length: int = None
    # words.normalize(p, input_word), which the pass splits and against
    # which witnesses are checked; None with relators
    normal_form: str = None


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


def find_violating_window(p, w, k, trivial=None):
    """Shortest, then leftmost, subword of relative length <= k that is not
    a relative geodesic; None if every such window passes.  The paper's one
    scan, every window tested against the ball oracle; shorten runs it only
    with relators."""
    from . import metric_oracle

    n = len(w)
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
    from . import metric_oracle

    return metric_oracle.normal_form(p, sub, trivial=trivial)


def _normalized(p, w, steps):
    """Phase one: the component normal form of w, logged as one step."""
    nf = words.normalize(p, w)
    if nf != w:
        steps.append(ShorteningStep(0, len(w), w, nf, PARABOLIC_NORMALIZATION))
    return nf


def shorten(p: RelativePresentation, w: str, tables=None, k=None,
            trivial=None) -> ShorteningResult:
    """Rewrite w to a relative (8*delta+1)-local geodesic for the same
    group element, logging every step.  Without relators the output is
    the normal form words.normalize(p, w) and trivial is never read."""
    p.check_word(w)
    steps = []
    out = _normalized(p, w, steps)
    if p.is_free_product:
        return ShorteningResult(w, out, tuple(steps))
    k = resolve_k(p, tables, k)
    guard = 4 * (len(w) + 1)
    while True:
        win = find_violating_window(p, out, k, trivial=trivial)
        if win is None:
            break
        i, j = win
        rep = _geodesic_rep(p, out[i:j], trivial)
        steps.append(ShorteningStep(i, j, out[i:j], rep, TABLE_REPLACEMENT))
        out = _normalized(p, out[:i] + rep + out[j:], steps)
        guard -= 1
        if guard <= 0:
            raise RelconjError("window replacement did not stabilize")
    return ShorteningResult(w, out, tuple(steps))


def word_problem(p: RelativePresentation, w: str, tables=None, k=None,
                 trivial=None) -> bool:
    """True iff w represents the identity.

    Relator-free presentations short-circuit through the component normal
    form, which is shorten's output there, without building a step log or
    reading trivial.  Otherwise w is shortened and the output decided by
    shortened_is_trivial.
    """
    if p.is_free_product:
        return words.normalize(p, w) == ""
    out = shorten(p, w, tables=tables, k=k, trivial=trivial).output
    return shortened_is_trivial(p, out, tables=tables, k=k, trivial=trivial)


def shortened_is_trivial(p: RelativePresentation, out: str, tables=None,
                         k=None, trivial=None) -> bool:
    """The word problem for out, an output of shorten.  Empty is yes.
    Without relators any other output is no: it is a nonempty normal form,
    and trivial is not read.
    With relators an output of relative length > 2*delta is no (a nonempty
    local geodesic that long cannot close up), and the remaining short
    outputs go to the triviality oracle."""
    if out == "":
        return True
    if p.is_free_product:
        return False
    if words.raw_relative_length(p, out) > 2 * resolve_delta(p, tables, k):
        return False
    from . import metric_oracle

    return metric_oracle.triviality_test(p, trivial)(out)


def least_rotation(seq) -> int:
    """Start of the lexicographically least rotation of seq, the first one
    when several are equal (Booth 1980, with the Knuth-Morris-Pratt failure
    function over seq o seq): O(len(seq)) comparisons."""
    n = len(seq)
    s = list(seq) * 2  # every index below is < 2n, since k <= j and i < j - k
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and c != s[k]:
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def _syllable_cyclic_form(p, nf, syls):
    """Cyclic form of the normal form nf with syllables syls (strings, as
    p.syllable_pattern splits nf): (alpha, a, syllable count of alpha,
    merges, steps) with lab(alpha) = a^-1 * nf * a.  Cancels mutually
    inverse end letters and merges end runs of one factor from the outside
    in, then rotates the kept core to its least syllable rotation; a is a
    prefix of nf."""
    kind_of = p.letter_kind
    steps = []
    merged = []
    i, j = 0, len(syls) - 1
    lo, hi = 0, len(nf)  # nf[lo:hi] spells syls[i..j]
    while i < j and not merged:
        first, last = syls[i], syls[j]
        kind = kind_of[first[0]]
        if kind == HYPERBOLIC:
            if last != INVERSE_LETTER[first]:
                break
        elif kind == kind_of[last[0]]:
            # merge the wrap-around run nu o eta (logged in the coordinates
            # of the cyclic word left here); a nontrivial merge ends it
            rep = words.normalize(p, last + first)
            steps.append(ShorteningStep(hi - len(last) - lo,
                                        hi - lo + len(first), last + first,
                                        rep, TABLE_REPLACEMENT))
            if rep:
                merged.append(rep)
        else:
            break
        lo += len(first)
        hi -= len(last)
        i, j = i + 1, j - 1
    if i > j:
        return "", "", 0, len(steps), steps
    core = syls[i : j + 1] + merged
    ranks = p.rank_translation
    r = least_rotation([s.translate(ranks) for s in core])
    alpha = "".join(core[r:] + core[:r])
    conj = nf[:lo] + "".join(core[:r])
    if len(core) == 1:
        # a lone run of a free factor can still reduce cyclically inside it
        alpha, pre = words.cyclic_reduce(alpha)
        conj += pre
    return alpha, conj, len(core), len(steps), steps


def _doubled_word_form(p, w, tables, k, trivial):
    """The doubled-word iteration of the module docstring: (alpha, a,
    iterations, steps)."""
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
    return rho, conj, iterations, steps


def cyclic_shorten(p: RelativePresentation, w: str, tables=None, k=None,
                   trivial=None) -> CyclicShorteningResult:
    """Conjugacy normal form: a cyclic relative (8*delta+1)-local geodesic
    alpha and a conjugator a with lab(alpha) = a^-1 * w * a.  Without
    relators alpha is the canonical cyclic form of the module docstring,
    found in one linear pass, iterations counts the end-run merges, and
    neither k nor trivial is read.  With relators exceeding L-bar + 1
    iterations (L-bar the relative length of the first shortened form)
    means the constants profile is inconsistent with the presentation
    (e.g. torsion with too small a delta) and raises."""
    p.check_word(w)
    nf = linear_length = None
    if p.is_free_product:
        nf = words.normalize(p, w)
        syls = p.syllable_pattern.findall(nf)
        linear_length = len(syls)
        rho, conj, cyclic_length, iterations, steps = _syllable_cyclic_form(
            p, nf, syls)
    else:
        rho, conj, iterations, steps = _doubled_word_form(
            p, w, tables, k, trivial)
        cyclic_length = words.raw_relative_length(p, rho)
    if not same_element(p, words.mul(conj, rho, words.inverse(conj)), w, nf,
                        tables=tables, k=k, trivial=trivial):
        raise RelconjError("cyclic shortening produced an invalid conjugator")
    return CyclicShorteningResult(w, rho, conj, iterations, tuple(steps),
                                  linear_length, cyclic_length, nf)


def same_element(p: RelativePresentation, x: str, w: str, nf: str,
                 tables=None, k=None, trivial=None) -> bool:
    """Whether the word x equals the word w in G, the check behind
    every witness.  nf is the normal form of w, None with relators.  On a
    relator-free presentation this is normalize(x) == nf, the decision
    word_problem(x * w^-1) makes there, and trivial is not read; with
    relators it is that word problem."""
    if p.is_free_product:
        return words.normalize(p, x) == nf
    return word_problem(p, words.mul(x, words.inverse(w)), tables=tables,
                        k=k, trivial=trivial)
