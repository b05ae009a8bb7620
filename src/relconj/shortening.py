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
merges and rotations.

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
one split.  Where only their number is needed, as for a normal form whose
ends neither cancel nor merge, RelativePresentation.count_syllables counts
them without the split: one translate to a kind mask and a few str.count
passes.  Only find_violating_window, the paper's generic local-geodesic
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
nontrivial merge that ends the pass).  The pass looks at the two end
letters first: where they neither cancel nor merge, as in every
cyclically reduced word, the normal form is its own core, and the pass
counts its syllables and splits nothing; only where they meet does it
split the word and walk its syllable ends.
The kept core is rotated to the least rotation of its syllable sequence
(hyperbolic letters one by one, parabolic runs whole, each compared by the
string of its letters' shortlex ranks), and a lone parabolic run is
cyclically reduced inside its factor.  A core of two syllables or more is
rotated by one translate and one least_rotation of its rank code: its rank
string (RelativePresentation.rank_translation) with a separator chr(0),
which ranks below every letter, before each syllable.  That is exact on
every presentation:
- the least rotation of the code starts with its least character, a
  separator, so at a syllable;
- two rotations from separators compare character by character as they
  do syllable by syllable: where one syllable is a proper prefix of
  another, the shorter one is followed by a separator, which ranks below
  the longer one's next letter;
- equal rotations are equal either way, so the first least rotation is
  the same, and the letters before it are its start less the separators.
Where at most one factor has runs (free or free abelian) and its letters
rank above every other letter (RelativePresentation.letters_order_syllables,
true of every presentation in demos/presentations), the code needs no
separators, and least_rotation takes a fifth of the time on the shorter
code (18 us against 85 us on cores of about 560 letters of Z * Z^2, 2
cores, Python 3.11):
- the core has a letter outside the run factor, as two runs of one factor
  are never adjacent, even cyclically; so its least letter is a syllable
  of its own, and the least rotation of its letters starts at a syllable;
- a syllable is a proper prefix of another only when both are runs of the
  run factor, and then the shorter one is followed by a letter outside
  that factor, which ranks below the longer run's next letter.
least_rotation cuts the code at the longest runs of its least character
and recurses on the pieces between them, each coded as one character
again, so the code at least halves per level: O(n log n) work in native
string passes.  Cyclically reduced elements of a free product are
conjugate exactly when their syllable sequences are rotations of each
other, so two elements of two or more syllables are conjugate exactly when
their cyclic forms are equal strings, and exactly when the cyclically
reduced core of one is a syllable rotation of the other's.
cyclic_pair, which decides pairs for the conjugacy engine, reads v
against u's core c from the end pass, unrotated, where c has NEAR_CYCLE
syllables or more.  c is a cyclically reduced normal form whose ends are
of two kinds.  A v conjugate to u has the normal form P * X * P^-1, X a
syllable rotation of c, whenever nothing of P cancels or merges with X,
and the read tries that first, by one find of c in X + X and string
compares, which gives what v's end pass would without splitting v.  Where
that fails, v's end pass runs alone and leaves v's core s, and c is looked
for in s + s when the two have as many syllables and letters.  The find is
exact.  Neither s nor c has its first and last syllables in one factor, so
c can only start between two syllables of s: a c starting inside a run of
s would end inside the same run, |s| letters on, and begin and end in one
factor.  So a hit makes a rotation of s equal to c syllable by syllable,
which the conjugacy theorem says happens exactly when v is conjugate to u.
(The equal letter counts make the find exact; equal syllable counts follow
from a hit, and are compared first only because that costs nothing.)  A
miss answers the pair on the two cores, with no rotation at all, each
with the syllable count of its cyclic form.  Only a hit rotates u's core
to its cyclic form alpha, and one more find of alpha in v's doubled core
gives its first least rotation: v's cyclic form and cyclic_shorten's
conjugator, found without least_rotation and without reading v again.

With relators cyclic shortening is cyclic Dehn reduction, and the
shortened word goes through the same end pass: inverse end letters
cancel and end runs of one factor merge, by the factor's fold.  What the
pass can leave is a window across the ends of the core that the table
rewrites, never after a nontrivial merge, which ends the core with a
parabolic run.  The core is rotated to put the first such window in its
middle, shortened again and passed again, until no window is left.  Each
rotation takes off a letter or more and adds none, so the loop ends.
Rotating the window to the front instead leaves the new ends beside the
rewritten text, where the next window often is: on (cdCD)^k * aa *
(abAB)^k on the genus-two surface group, whose relator abABcdCD reads k
times across the ends, that takes k - 1 rotations, each a full Dehn
pass, 4 s on 4,098 letters.  A centred window puts the new ends in the
middle of text the Dehn pass has already reduced, so as a rule one
rotation ends the loop and the whole is linear: that word takes one
rotation and 18 ms, under 4 times its word problem (2 cores, Python
3.11).  Only windows are centred.  A merged run stays at the end, where
the pass puts it: centred too, it would loop forever on yAAxxyAxx on
C5 * Z^2, whose end runs xx and y merge to xxy, which shorten leaves as
it is.

Every conjugator, here and in the conjugacy engine, is checked before it is
returned (same_element).  The product that it claims equal to a word is
spelled by words.conjugate_form from the conjugator and the cyclic form, as
a rule both normal forms.  The plain inverse of the conjugator g cancels
against g times the cyclic form as far as the two end alike, found by
native endswith compares, and RelativePresentation.inverse_form spells the
rest of g^-1 as a normal form, where words.inverse would write a run of
Z^2 backwards (xxyy as YYXX) or the finite letter t of Z * C2 as T, each a
fault.  A rotation conjugator a of alpha = y * a leaves no rest: the
product is a * y, the word's own normal form.  inverse_form keeps the last
word it spelled, so P^-1, which _cyclic_form_around compares with v's
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
    iterations: int  # end-run merges, plus rotations with relators
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
    the normal form w, with each parabolic run folded into its oracle's
    state, spelled at the end by the oracle's state_word."""
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
    return "".join([e if e.__class__ is str
                    else oracles[e[0]].state_word(e[1]) for e in stack])


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
    is not trivial, and is answered False without normalizing it, once
    one bytes deletion has found every letter declared
    (words.declared_codes, which raises on an undeclared one).  Otherwise
    the answer is the component normal form's, shorten's output there,
    without a step log, and normalize checks the letters.  With relators
    an exponent sum need not be a homomorphism (a^5 = 1 in c5), and the
    word is shortened.  tables is accepted and not read."""
    if p.is_free_product:
        if any(w.count(g) != w.count(G) for g, G in p.exponent_sum_pairs):
            words.declared_codes(p, w)  # raises on an undeclared letter
            return False
        return words.normalize(p, w) == ""
    return shorten(p, w).output == ""


SHORT_CYCLE = 32  # below this many symbols comparing all rotations is faster

# cyclic_pair reads v against u's core where it has this many syllables
# or more (the gate was measured on cyclic forms).  From here on reading
# saves 6 to 18 % of a decide (fresh engine) on Z * Z^2 and Z * F2 for a
# conjugate pair and 13 to 21 % for another, and on the free group up to
# 13 % and 7 to 26 %; below it the free group gains nothing by reading and
# pays up to 9 %, at two syllables
NEAR_CYCLE = 8


def least_rotation(s: str) -> int:
    """Start of the lexicographically least rotation of s, the first one
    when several are equal: O(n log n) work, all of it in native string
    passes, where the linear algorithms of Booth (1980) and Shiloach (1981)
    take a Python step per symbol.  It is the one rotation of cyclic
    shortening, which calls it on a core's rank code, separators included
    where letters_order_syllables is false (the module docstring).

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
    p = d.find(s, 1)  # -1 for the empty s, and then range(p) is empty
    if p < SHORT_CYCLE:  # min keeps the first of equal rotations
        return min(range(p), key=lambda i: d[i : i + p], default=0)
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
    code = {x: chr(i) for i, x in enumerate(sorted(set(pieces)))}
    k = least_rotation("".join(map(code.__getitem__, pieces)))
    return (start + lo * k + sum(map(len, pieces[:k]))) % p


def _end_pass(p, nf):
    """The cyclically reduced core of the normal form nf: (syllable count
    of nf, s, a, syllable count of s, end-run merges) with lab(s) = a^-1 *
    nf * a.  Where the ends of nf neither cancel nor merge, nf is its own
    core, and its syllables are counted (p.count_syllables), not split.
    Otherwise it splits nf (p.normal_syllables), cancels mutually inverse
    end letters and merges end runs of one factor from the outside in, each
    merge one fold of its factor's oracle, and cyclically reduces a lone run
    of a free factor inside it.  s is a normal form whose first and last
    syllables are never of one factor, so it is cyclically reduced; a
    nontrivial merge ends s, so that then no hyperbolic window spans its
    ends."""
    kind_of = p.letter_kind
    if not nf or (nf[-1] != INVERSE_LETTER[nf[0]]
                  if kind_of[nf[0]] == HYPERBOLIC
                  else kind_of[nf[-1]] != kind_of[nf[0]]):
        # the ends neither cancel nor merge: nf is its own core
        n = p.count_syllables(nf)
        return n, nf, "", n, 0
    syls = p.normal_syllables(nf)
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
    # only the empty normal form cancels away, leaving lo = hi = 0; and
    # only a lone run can reduce cyclically, inside its factor
    s, pre = words.cyclic_reduce(nf[lo:hi] + "".join(merged))
    return len(syls), s, nf[:lo] + pre, j + 1 - i + len(merged), merges


def _rotated(found, k):
    """found = (n, s, a, m, merges) with s rotated to start at k."""
    n, s, a, m, merges = found
    return n, s[k:] + s[:k], a + s[:k], m, merges


def _syllable_cyclic_form(p, found):
    """The cyclic form of the end pass's found = (n, s, a, m, merges) for a
    normal form nf: (n, alpha, a', m, merges) with lab(alpha) = a'^-1 * nf
    * a', the core s rotated to its least syllable rotation (the first
    one, syllables compared by their shortlex letter ranks): the first
    least rotation of its rank code, which puts a separator before each
    syllable unless letters_order_syllables holds, by the module
    docstring."""
    s = found[1]
    if found[3] < 2:
        return found
    code = s if p.letters_order_syllables else "\0" + "\0".join(
        p.normal_syllables(s))
    code = code.translate(p.rank_translation)
    k = least_rotation(code)
    return _rotated(found, k - code.count("\0", 0, k))


def _cyclic_form_around(p, nf, alpha, length):
    """found for the normal form nf when nf reads as P * X *
    inverse_form(P) around a syllable rotation X of alpha, a cyclically
    reduced normal form of length >= 2 syllables whose ends are of two
    kinds (another word's end-pass core or cyclic form): found = (n, X, P,
    length, merges) is what _end_pass(p, nf) returns; None otherwise.  Here
    |P| = (|nf| - |alpha|) / 2, both cuts of nf and the wrap-around of X
    fall between syllables (two letters of one factor never do, in a normal
    form), and alpha occurs in X + X.  Where it starts, so does a syllable
    of X, as the two ends of alpha are of two kinds.  Then the syllables of
    X are those of alpha rotated, and the end pairs of nf cancel or merge
    trivially down to X, one merge for each parabolic run of P; X stops the
    pass, as alpha is cyclically reduced."""
    n, m = len(nf), len(alpha)
    h = (n - m) // 2
    if h < 0 or n != m + 2 * h:
        return None
    kind_of = p.letter_kind

    def between(w, i):  # w[i - 1] and w[i], cyclically, in two syllables
        a, b = kind_of[w[i - 1]], kind_of[w[i]]
        return a != b or a == HYPERBOLIC

    pre, x = nf[:h], nf[h : n - h]
    if alpha not in x + x or not between(x, 0):
        return None
    if h and not (between(nf, h) and between(nf, n - h)
                  and nf[n - h :] == p.inverse_form(pre)):
        return None
    syllables = p.count_syllables(pre)  # pre is a normal form too
    runs = syllables - sum(pre.count(g) + pre.count(INVERSE_LETTER[g])
                           for g in p.hyperbolic_generators)
    return 2 * syllables + length, x, pre, length, runs


def _dehn_cyclic_form(p, w):
    """Cyclic Dehn reduction of the module docstring: (rho, a, syllable
    count of rho, end-run merges plus rotations) with lab(rho) = a^-1 * w
    * a."""
    table, lengths = p.dehn_table
    out, conj, iterations = shorten(p, w).output, "", 0
    while True:
        _, s, a, length, merges = _end_pass(p, out)
        conj += a
        iterations += merges
        n, doubled = len(s), s + s
        # the rotations s[cut:] + s[:cut] that centre a window across the
        # ends of s that the table rewrites
        cuts = [start - (n - m) // 2 for m in lengths if m <= n
                for start in range(n - m + 1, n)
                if doubled[start : start + m] in table]
        if not cuts:
            return s, words.free_reduce(conj), length, iterations
        iterations += 1
        conj += s[: cuts[0]]
        out = shorten(p, s[cuts[0] :] + s[: cuts[0]]).output


def cyclic_shorten(p: RelativePresentation, w: str) -> CyclicShorteningResult:
    """Conjugacy normal form: a cyclic form alpha and a conjugator a with
    lab(alpha) = a^-1 * w * a.  Without relators alpha is the canonical
    cyclic form of the module docstring, found in one linear pass and one
    O(n log n) rotation, and iterations counts the end-run merges.  For a
    conjugacy decision cyclic_pair reads one word against the other's core
    instead.  With relators alpha is cyclically Dehn-reduced:
    cyclically reduced, and no cyclic subword is more than half a relator;
    iterations counts the end-run merges and the rotations.  Either way w
    goes through normalize first, which checks its letters, no step is
    logged, and a * alpha * a^-1, spelled by words.conjugate_form, is
    checked equal to w (same_element)."""
    if not p.is_free_product:
        return _checked(p, w, None, (None,) + _dehn_cyclic_form(p, w))
    nf = words.normalize(p, w)
    return _checked(p, w, nf, _syllable_cyclic_form(p, _end_pass(p, nf)))


def cyclic_pair(p: RelativePresentation, u: str, v: str):
    """The cyclic shortenings of u and v for a conjugacy decision, on a
    presentation without relators, with no rotation unless v is conjugate
    to u: (cyclic_shorten(p, u), cyclic_shorten(p, v)) when u's cyclically
    reduced core has fewer than NEAR_CYCLE syllables or v is conjugate to
    u, else the two cores, unrotated, with the cyclic forms' syllable
    counts.  v's normal form is read around u's core c where it can
    (_cyclic_form_around), else v's end pass leaves its core s, and c is
    looked for in s + s when the two have as many syllables and letters,
    which by the module docstring hits exactly when v is conjugate to u.
    On a hit u's core is rotated to its cyclic form alpha, and alpha's
    first start k in s + s is the first least syllable rotation of s, so
    v's cyclic form is s rotated by k and cyclic_shorten's conjugator is
    v's end-pass conjugator + s[:k] (_rotated).  Each result is checked as
    cyclic_shorten checks it."""
    nu = words.normalize(p, u)
    fu = _end_pass(p, nu)
    if fu[3] < NEAR_CYCLE:
        ru = _checked(p, u, nu, _syllable_cyclic_form(p, fu))
        return ru, ru if v == u else cyclic_shorten(p, v)
    nv, c = words.normalize(p, v), fu[1]
    read = _cyclic_form_around(p, nv, c, fu[3])
    fv = read or _end_pass(p, nv)
    s = fv[1]
    # where the end pass returns nv itself, _cyclic_form_around has looked
    # for c in s + s already
    if read or (fv[3] == fu[3] and len(s) == len(c) and s is not nv
                and c in s + s):
        fu = _syllable_cyclic_form(p, fu)
        fv = _rotated(fv, (s + s).find(fu[1]))
    return _checked(p, u, nu, fu), _checked(p, v, nv, fv)


def _checked(p, w, nf, found):
    """The CyclicShorteningResult of found = (linear length, cyclic form,
    conjugator, cyclic length, iterations) for w with normal form nf, once
    the conjugator is checked.  Where found holds nf itself with the empty
    conjugator, as the unrotated core of a cyclically reduced normal form
    does (cyclic_pair's cores of a pair that is not conjugate), the check
    would compare nf with itself, and is skipped."""
    linear_length, rho, conj, cyclic_length, iterations = found
    if (conj or rho is not nf) and not same_element(
            p, words.conjugate_form(p, conj, rho), w, nf):
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
