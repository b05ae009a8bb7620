"""Curve shortening: relative local geodesics, the word problem, and cyclic
shortening with conjugator tracking.

The linear procedure has two phases.  Phase one is the component normal
form (words.normalize): one left-to-right pass of free reduction in which
every maximal parabolic run is respelled in its canonical geodesic form and
trivial runs drop out, merging the newly adjacent neighbors.  Phase two
rewrites bounded windows with replacements from a table computed once.
Every step is an equality in the group, and neither phase lengthens the
word.  shorten logs its steps (ShorteningStep), whose count the wp command
prints; cyclic shortening keeps no log, only a count of its end-run
merges or rotations.

On a presentation without relators phase one alone produces the
free-product normal form, which is a relative geodesic (alternating
geodesic syllables admit no shortcut in a free product), so there is no
phase two.  There the word problem compares the exponent sums first: that
of each hyperbolic, free or free abelian generator is a homomorphism to Z
(Lyndon-Schupp IV.1), so a word with one of them non-zero is non-trivial,
which a few native str.count passes show, and only a word of zero image
goes through phase one.  With relators, which must be words in the
hyperbolic letters, G is the free product of <hyperbolic letters |
relators> with the parabolics, and phase two is Dehn's algorithm on the
hyperbolic blocks (RelativePresentation.dehn_table): one stack pass over
the syllables of the normal form that looks the block's suffixes up after
each pushed letter and pushes the replacement of a hit back onto the
input.  Each hit shortens the word, so the pass is linear; under C'(1/6)
its Dehn-reduced output, not necessarily a local geodesic, is empty
exactly for the identity (Greendlinger, Lyndon-Schupp V.4).

Every word split into syllables here is a normal form, and
RelativePresentation.normal_syllables splits it: native replace cuts and
one split.  Only find_violating_window, the paper's generic local-geodesic
scan, which the tests run against the ball oracle, splits arbitrary
windows, with the ground truth's reference.syllables.

Cyclic shortening without relators is one linear pass over the normal
form of the word and one rotation.  Cyclic reduction of a free-product
normal form happens at its syllable ends only (Lyndon-Schupp,
Combinatorial Group Theory, IV.1.4): mutually inverse hyperbolic end
letters cancel, and end runs of one factor merge into one run, which is
either trivial (and the reduction goes on inwards) or a syllable between
two of other kinds (and it stops).
Each merge is one fold of the factor oracle (push, then state_word for the
nontrivial merge that ends the pass).
The kept core is rotated to the least rotation of its syllable sequence
(hyperbolic letters one by one, parabolic runs whole, each compared by the
string of its letters' shortlex ranks), and a lone parabolic run is
cyclically reduced inside its factor.  Where at most one factor has runs
(free or free abelian) and its letters rank above every other letter
(RelativePresentation.letters_order_syllables, true of every presentation
in demos/presentations), a core of two syllables or more is rotated as its
rank string, one translate and one least_rotation, and that is exact:
- the core has a letter outside the run factor, as two runs of one factor
  are never adjacent, even cyclically; so its least letter is a syllable
  of its own, and the least rotation of its letters starts at a syllable;
- two rotations from syllable starts compare letter by letter as they do
  syllable by syllable.  A syllable is a proper prefix of another only
  when both are runs of the run factor, and then the shorter one is
  followed by a letter outside that factor, which ranks below the longer
  run's next letter;
- equal rotations are equal either way, so the first least rotation is
  the same.
Otherwise (two factors with runs, or a run factor declared before a finite
one) a short core compares its syllables' rotations directly; a longer one
codes each distinct syllable as one character, in rank order, sorted by
the rank strings of one translate of their joined string, and
least_rotation cuts the code at the longest runs of its least character
and recurses on the pieces between them, each coded as one character
again, so the code at least halves per level: O(n log n) work in native
string passes.  Cyclically reduced elements of a free product are
conjugate exactly when their syllable sequences are rotations of each
other, so two elements of two or more syllables are conjugate exactly when
their cyclic forms are equal strings.  So a word v conjugate to one whose
cyclic form alpha is known has the normal form P * X * P^-1, X a syllable
rotation of alpha, whenever nothing of P cancels or merges with X: given
alpha of NEAR_CYCLE syllables or more, the pass first tries to read v's
normal form so, by one find of alpha in X + X and string compares, and
returns what the full pass would, without splitting v or rotating.
Where that read fails, cyclic_core runs v's end pass alone, which leaves
v's core s, and looks for alpha in s + s when the two have as many
syllables and letters.  The find is exact.  Neither s nor alpha has its
first and last syllables in one factor, so alpha can only start between
two syllables of s: an alpha starting inside a run of s would end inside
the same run, |s| letters on, and begin and end in one factor.  So a hit
at k makes s[k:] + s[:k] equal to alpha syllable by syllable, which the
conjugacy theorem says happens exactly when v is conjugate to the word
alpha came from, and the first hit is the first least rotation of s:
v's cyclic form and conjugator, found without least_rotation.  A miss
leaves s unrotated, with the syllable count of v's cyclic form.  (The
equal letter counts make the find exact; equal syllable counts follow
from a hit, and are compared first only because that costs nothing.)

With relators cyclic shortening is cyclic Dehn reduction: the shortened
word is cyclically reduced, rotated to put a window across its ends that
the table rewrites (or its last parabolic run, when both ends are runs of
one factor) at the front, and shortened again, until neither is left.
Each rotation takes off a letter or, merging two runs, a syllable, and
adds neither, so the loop ends.

Every conjugator, here and in the conjugacy engine, is checked before it is
returned (same_element).  The product that it claims equal to a word is
spelled by words.conjugate_form from the conjugator and the cyclic form, as
a rule both normal forms.  A suffix that the conjugator shares with the
cyclic form is rotated back onto it first: a rotation prefix a of
alpha = y * a gives a * alpha * a^-1 = a * y, the word's own normal form,
spelled by one rotation and checked by one string compare (3 to 4 us for
512 letters); v's conjugator P + X[:k] around alpha leaves P * X * P^-1.
What is left of the conjugator's plain inverse cancels where it meets the
cyclic form, found by native endswith compares, and
RelativePresentation.inverse_form spells the rest of the inverse as a
normal form, where words.inverse would write a run of Z^2 backwards (xxyy
as YYXX) or the finite letter t of Z * C2 as T, each a fault; it keeps the
last word it spelled, so P^-1, which _cyclic_form_around compares with v's
tail, is spelled once for that read, v's check and decide's witness
check.  So the product is a normal form except at its joins.  A conjugator
of fewer than words._PLAIN_INVERSE_LETTERS letters keeps the plain
spelling, cheaper there.

Without relators the product's normal form must equal the word's.  Where
nothing cancels or merges at the joins the product is spelled exactly as
that normal form, and the check is one string compare, on Z * Z^2 as on
the free group: a 768-letter check product (a 512-letter word under a
128-letter conjugator) is v's normal form letter for letter.  Otherwise
normalize keeps the stretches between the joins whole, and the check costs
about one recognition scan.  With relators the word problem on the product
times the inverse of the word must answer trivial.
"""

from __future__ import annotations

from typing import NamedTuple

from . import words
from .errors import RelconjError
from .presentation import HYPERBOLIC, INVERSE_LETTER, RelativePresentation

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
    output: str
    steps: tuple


class CyclicShorteningResult(NamedTuple):
    """What cyclic_shorten returns.  The two lengths are syllable counts
    taken while the pass splits the words anyway, and normal_form is the
    normal form the pass took, so that callers such as the conjugacy
    engine never split or normalize the input again."""

    output: str
    conjugator: str  # a with lab(output) = a^-1 * input * a in G
    iterations: int  # end-run merges, or rotations with relators
    # relative length of the input's normal form, which is its linear
    # shortening; None with relators
    linear_length: int
    # syllable count of output, a normal form, as normal_syllables splits
    # it: the relative length of the cyclic form
    cyclic_length: int
    # words.normalize(p, input), which the pass splits and against which
    # witnesses are checked; None with relators
    normal_form: str


def find_violating_window(p, w, k):
    """Shortest, then leftmost, subword of relative length <= k that is not
    a relative geodesic; None if every such window passes.  The paper's
    generic scan, every window's syllables counted by reference.syllables
    and tested against the ball oracle, which rests on that module: the
    reference check of local geodesics, which the tests run and no query
    does."""
    from . import metric_oracle, reference

    n = len(w)
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            sub = w[i : i + span]
            if len(reference.syllables(p, sub)) > k:
                continue
            if not metric_oracle.is_relative_geodesic(p, sub):
                return (i, i + span)
    return None


def _logged(steps, before, after, justification):
    """after, with one step from before to it logged when they differ."""
    if after != before:
        steps.append(ShorteningStep(0, len(before), before, after,
                                    justification))
    return after


def _dehn_reduced(p, w):
    """Phase two: one stack pass of Dehn's algorithm over the syllables of
    the normal form w, with parabolic runs folded as in words.normalize."""
    table, lengths = p.dehn_table
    window = lengths[-1] if lengths else 0
    oracles = p.oracles
    kind_of = p.letter_kind
    inv = INVERSE_LETTER
    todo = p.normal_syllables(w)[::-1]  # next token last
    # entries: a hyperbolic letter, or a parabolic run as [index, state,
    # length of the hyperbolic block below it]
    stack = []
    hyp = 0  # length of the hyperbolic block on top of the stack
    while todo:
        tok = todo.pop()
        kind = kind_of[tok[0]]
        if kind != HYPERBOLIC:
            top = stack[-1] if stack else None
            if top.__class__ is list and top[0] == kind:
                top[1] = oracles[kind].push(top[1], tok)
                if top[1] is None:
                    hyp = stack.pop()[2]
            else:  # a run of the normal form w, so not trivial
                stack.append([kind, oracles[kind].push(None, tok), hyp])
                hyp = 0
        elif hyp and stack[-1] == inv[tok]:
            stack.pop()
            hyp -= 1
        else:
            stack.append(tok)
            hyp += 1
            tail = "".join(stack[len(stack) - min(hyp, window):])
            for m in lengths:
                rep = table.get(tail[-m:]) if m <= hyp else None
                if rep is not None:
                    del stack[-m:]
                    hyp -= m
                    todo += reversed(rep)
                    break
    return words.spell_stack(p, stack)


def shorten(p: RelativePresentation, w: str) -> ShorteningResult:
    """Rewrite w to a shorter word for the same group element, logging
    every step: the normal form words.normalize(p, w) without relators, and
    its Dehn reduction, logged as one more step, with them.  normalize
    checks the letters of w."""
    steps = []
    out = _logged(steps, w, words.normalize(p, w), PARABOLIC_NORMALIZATION)
    if not p.is_free_product:
        out = _logged(steps, out, _dehn_reduced(p, out), TABLE_REPLACEMENT)
    return ShorteningResult(out, tuple(steps))


def word_problem(p: RelativePresentation, w: str, tables=None) -> bool:
    """True iff w represents the identity: its shortening is empty.
    A relator-free presentation first compares the exponent sums of w
    (RelativePresentation.exponent_sum_pairs), each a homomorphism to Z,
    by native str.count passes: a declared word for which one is not zero
    is not trivial, and is answered False without normalizing it.
    Otherwise the answer is the component normal form's, shorten's output
    there, without a step log; so a word with an undeclared letter reaches
    normalize, which raises.  With relators an exponent sum need not be a
    homomorphism (a^5 = 1 in c5), and the word is shortened.  tables is
    accepted and not read."""
    if p.is_free_product:
        if any(w.count(g) != w.count(G) for g, G in p.exponent_sum_pairs
               ) and not w.translate(p.declared_deletion):
            return False
        return words.normalize(p, w) == ""
    return shorten(p, w).output == ""


SHORT_CYCLE = 32  # below this many symbols comparing all rotations is faster

# cyclic_shorten and ConjugacyEngine.cyclic read a word against a cyclic
# form of this many syllables or more.  From here on reading saves 6 to
# 18 % of a decide (fresh engine) on Z * Z^2 and Z * F2 for a conjugate
# pair and 13 to 21 % for another, and on the free group up to 13 % and 7
# to 26 %; below it the free group gains nothing by reading and pays up to
# 9 %, at two syllables
NEAR_CYCLE = 8


def _compare_rotations(seq) -> int:
    """least_rotation of a short str or list, by comparing all its
    rotations; min keeps the first of equal ones."""
    n = len(seq)
    d = seq + seq
    return min(range(n), key=lambda i: d[i : i + n], default=0)


def _ranked_chars(ordered) -> dict:
    """One character per item of the sorted list ordered, in its order, so
    that strings of them compare as the sequences of items do."""
    return dict(zip(ordered, map(chr, range(len(ordered)))))


def least_rotation(s: str) -> int:
    """Start of the lexicographically least rotation of s, the first one
    when several are equal: O(n log n) work, all of it in native string
    passes, where the linear algorithms of Booth (1980) and Shiloach (1981)
    take a Python step per symbol.

    The least period p = (s+s).find(s, 1) makes s[:p] primitive, so its
    rotations are distinct and the first least rotation of s lies in
    [0, p); a cycle of fewer than SHORT_CYCLE symbols compares its
    rotations directly.  Otherwise let m be the least symbol and L the
    length of its longest cyclic run, shorter than p, found by membership
    tests of doubled, then bisected, runs.  The least rotation starts with
    m*L, since any other start has fewer m's before a greater symbol.  The
    rotation from the first m*L splits at every m*L into pieces, each
    ending with a symbol greater than m, and rotations from the cuts order
    as their sequences of pieces, with pieces ordered as strings: where one
    piece is a proper prefix of another, the shorter one is followed by
    m*L, while the longer one goes on with fewer than L m's and then a
    greater symbol.  So each distinct piece is coded as one character, in
    sorted order, and the least rotation of the code, at most half as long
    as s (a piece and its run have L + 1 symbols or more), names the piece
    to start at.  A code needs a character for each distinct piece, so s
    has fewer than 2 * 0x110000 symbols."""
    d = s + s
    p = d.find(s, 1)  # -1 for the empty s, and then s[:p] is empty too
    if p < SHORT_CYCLE:
        return _compare_rotations(s[:p])
    d = d[: 2 * p]
    m = min(set(s[:p]))  # d has just the characters of s[:p]
    run = 1
    while m * (2 * run) in d:
        run *= 2
    lo, hi = run, 2 * run  # m*lo occurs in d, m*hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if m * mid in d:
            lo = mid
        else:
            hi = mid
    cut = m * lo
    start = d.find(cut)
    pieces = d[start : start + p].split(cut)[1:]
    code = _ranked_chars(sorted(set(pieces)))
    k = least_rotation("".join(map(code.__getitem__, pieces)))
    return (start + lo * k + sum(map(len, pieces[:k]))) % p


def _end_pass(p, nf, syls):
    """The cyclically reduced core of the normal form nf with syllables
    syls (strings, as p.normal_syllables splits nf): (core, s, lo, end-run
    merges), where core lists the syllables of s and lab(s) = a^-1 * nf * a
    for the prefix a = nf[:lo].  Cancels mutually inverse end letters and
    merges end runs of one factor from the outside in, each merge one fold
    of its factor's oracle.  s is a normal form whose first and last
    syllables are never of one factor, so it is cyclically reduced, except
    that a lone run of a free factor can still reduce inside it."""
    kind_of = p.letter_kind
    merges = 0
    merged = []
    i, j = 0, len(syls) - 1
    lo, hi = 0, len(nf)  # nf[:lo] spells syls[:i], nf[hi:] syls[j + 1 :]
    while i < j and not merged:
        first, last = syls[i], syls[j]
        kind = kind_of[first[0]]
        if kind == HYPERBOLIC:
            if last != INVERSE_LETTER[first]:
                break
        elif kind == kind_of[last[0]]:
            # merge the wrap-around run nu o eta with the factor's fold: a
            # trivial merge goes on inwards, a nontrivial one ends it
            merges += 1
            orc = p.oracles[kind]
            state = orc.push(None, last + first)
            if state is not None:
                merged.append(orc.state_word(state))
        else:
            break
        lo += len(first)
        hi -= len(last)
        i, j = i + 1, j - 1
    # only the empty normal form cancels away, leaving lo = hi = 0
    return syls[i : j + 1] + merged, nf[lo:hi] + "".join(merged), lo, merges


def _syllable_cyclic_form(p, nf, syls):
    """Cyclic form of the normal form nf with syllables syls: (alpha, a,
    syllable count of alpha, end-run merges) with lab(alpha) = a^-1 * nf *
    a, the core of _end_pass rotated to its least syllable rotation (the
    first one, syllables compared by their shortlex letter ranks); a is a
    prefix of nf.  Where letters_order_syllables holds, that is the first
    least rotation of the core's rank string, by the module docstring."""
    core, s, lo, merges = _end_pass(p, nf, syls)
    if len(core) < 2:
        # a lone run of a free factor can still reduce cyclically inside it
        alpha, pre = words.cyclic_reduce(s)
        return alpha, nf[:lo] + pre, len(core), merges
    ranks = p.rank_translation
    if p.letters_order_syllables:
        k = least_rotation(s.translate(ranks))
        return s[k:] + s[:k], nf[:lo] + s[:k], len(core), merges
    if len(core) < SHORT_CYCLE:
        r = _compare_rotations([x.translate(ranks) for x in core])
    else:
        # the distinct syllables' rank strings, by one translate of their
        # joined string; the separator is above every rank character
        distinct = list(set(core))
        keys = "|".join(distinct).translate(ranks).split("|")
        order = sorted(range(len(keys)), key=keys.__getitem__)
        code = _ranked_chars(list(map(distinct.__getitem__, order)))
        r = least_rotation("".join(map(code.__getitem__, core)))
    return ("".join(core[r:] + core[:r]), nf[:lo] + "".join(core[:r]),
            len(core), merges)


def _cyclic_form_around(p, nf, near):
    """(syllable count of nf, then what _syllable_cyclic_form returns) for
    the normal form nf when it reads as P * X * inverse_form(P) around a
    syllable rotation X of alpha = near.output, the cyclic form of another
    word, of two syllables or more; None otherwise.  Here |P| = (|nf| -
    |alpha|) / 2, both cuts of nf and the wrap-around of X fall between
    syllables (two letters of one factor never do, in a normal form), and
    alpha starts at k in X + X.  So does a syllable of X, as the two ends
    of alpha are of two kinds.  Then the syllables of X are those of alpha
    rotated, and the end pairs of nf cancel or merge trivially down to X,
    one merge for each parabolic run of P; X stops the pass, as alpha is
    cyclically reduced.  The first alpha in X + X is the first least
    syllable rotation of X, so the conjugator is P + X[:k]."""
    alpha = near.output
    n, m = len(nf), len(alpha)
    h = (n - m) // 2
    if h < 0 or n != m + 2 * h:
        return None
    kind_of = p.letter_kind

    def between(w, i):  # w[i - 1] and w[i], cyclically, in two syllables
        a, b = kind_of[w[i - 1]], kind_of[w[i]]
        return a != b or a == HYPERBOLIC

    pre, x = nf[:h], nf[h : n - h]
    k = (x + x).find(alpha)
    if k < 0 or not between(x, 0):
        return None
    if h and not (between(nf, h) and between(nf, n - h)
                  and nf[n - h :] == p.inverse_form(pre)):
        return None
    syllables = len(p.normal_syllables(pre))  # pre is a normal form too
    runs = syllables - sum(pre.count(g) + pre.count(INVERSE_LETTER[g])
                           for g in p.hyperbolic_generators)
    return (2 * syllables + near.cyclic_length, alpha, pre + x[:k],
            near.cyclic_length, runs)


def _dehn_cyclic_form(p, w):
    """Cyclic Dehn reduction of the module docstring: (rho, a, syllable
    count of rho, rotations) with lab(rho) = a^-1 * w * a."""
    table, lengths = p.dehn_table
    kind_of = p.letter_kind
    out, conj, iterations = shorten(p, w).output, "", 0
    while True:
        rho, pre = words.cyclic_reduce(out)
        conj += pre
        n, doubled = len(rho), rho + rho
        # cuts whose rotation rho[cut:] + rho[:cut] shortens: the starts of
        # the windows across the ends that the table rewrites, and of the
        # last run when both ends are runs of one factor
        cuts = [cut for m in lengths if m <= n for cut in range(n - m + 1, n)
                if doubled[cut : cut + m] in table]
        syls = p.normal_syllables(rho)
        if len(syls) > 1 and HYPERBOLIC != kind_of[rho[0]] == kind_of[rho[-1]]:
            cuts.append(n - len(syls[-1]))
        if not cuts:
            return rho, words.free_reduce(conj), len(syls), iterations
        iterations += 1
        conj += rho[: cuts[0]]
        out = shorten(p, rho[cuts[0] :] + rho[: cuts[0]]).output


def cyclic_shorten(p: RelativePresentation, w: str,
                   near: CyclicShorteningResult = None
                   ) -> CyclicShorteningResult:
    """Conjugacy normal form: a cyclic form alpha and a conjugator a with
    lab(alpha) = a^-1 * w * a.  Without relators alpha is the canonical
    cyclic form of the module docstring, found in one linear pass and one
    O(n log n) rotation, and iterations counts the end-run merges.  near,
    the result for another word, lets that pass first read w's normal form
    around near's cyclic form (_cyclic_form_around); the result is the same
    either way, and is checked the same way.  The conjugacy engine calls
    cyclic_core instead, which where that read fails looks for near's form
    in w's core and rotates nothing.  With relators alpha is cyclically
    Dehn-reduced: cyclically reduced, and no cyclic subword is more than
    half a relator; iterations counts the rotations, and near is not read.
    Either way w goes through normalize first, which checks its letters,
    no step is logged, and a * alpha * a^-1, spelled by
    words.conjugate_form, is checked equal to w (same_element)."""
    if not p.is_free_product:
        return _checked(p, w, None, (None,) + _dehn_cyclic_form(p, w))
    nf = words.normalize(p, w)
    found = None
    if near is not None and near.cyclic_length >= NEAR_CYCLE:
        found = _cyclic_form_around(p, nf, near)
    if found is None:
        syls = p.normal_syllables(nf)
        found = (len(syls),) + _syllable_cyclic_form(p, nf, syls)
    return _checked(p, w, nf, found)


def cyclic_core(p: RelativePresentation, w: str,
                near: CyclicShorteningResult) -> CyclicShorteningResult:
    """w read against near, the cyclic shortening of a word u whose cyclic
    form alpha has two syllables or more, on a presentation without
    relators: cyclic_shorten(p, w) when w is conjugate to u, else w's
    cyclically reduced core, not rotated, which is not canonical.  w's
    normal form is read around alpha first (_cyclic_form_around); failing
    that, the end pass leaves the core s, and alpha is looked for in s + s
    when the two have as many syllables and letters, which by the module
    docstring finds exactly the first least rotation of a conjugate s.  So
    the output is alpha exactly when w is conjugate to u, and no rotation
    is computed either way.  The fields other than output and conjugator
    are cyclic_shorten's, and the conjugator is checked the same way."""
    nf = words.normalize(p, w)
    found = _cyclic_form_around(p, nf, near)
    if found is None:
        syls = p.normal_syllables(nf)
        core, s, lo, merges = _end_pass(p, nf, syls)
        alpha, k = near.output, 0  # a miss leaves s as it is
        if len(core) == near.cyclic_length and len(s) == len(alpha):
            k = max((s + s).find(alpha), 0)
        found = len(syls), s[k:] + s[:k], nf[:lo] + s[:k], len(core), merges
    return _checked(p, w, nf, found)


def _checked(p, w, nf, found):
    """The CyclicShorteningResult of found = (linear length, cyclic form,
    conjugator, cyclic length, iterations) for w with normal form nf, once
    the conjugator is checked."""
    linear_length, rho, conj, cyclic_length, iterations = found
    if not same_element(p, words.conjugate_form(p, conj, rho), w, nf):
        raise RelconjError("cyclic shortening produced an invalid conjugator")
    return CyclicShorteningResult(rho, conj, iterations, linear_length,
                                  cyclic_length, nf)


def same_element(p: RelativePresentation, x: str, w: str, nf: str) -> bool:
    """Whether the word x equals the word w in G, the check behind
    every witness.  nf is the normal form of w, None with relators.  On a
    relator-free presentation this is normalize(x) == nf, the decision
    word_problem(x * w^-1) makes there.  It compares x itself first: nf is
    a normal form, and normalize returns a word without a fault unchanged,
    so x == nf already decides normalize(x) == nf, and a product spelled as
    nf skips the recognition scan.  With relators it is that word problem,
    on a product that may be unreduced where w is, which the word problem
    reduces."""
    if p.is_free_product:
        return x == nf or words.normalize(p, x) == nf
    return word_problem(p, words.mul(x, words.inverse(w)))
