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
split the word and walk its syllable ends; a lone parabolic run left is
cyclically reduced inside its factor.
The canonical cyclic form is that core, checked (cyclic_core), rotated to
the least rotation of its syllable sequence (hyperbolic letters one by
one, parabolic runs whole, each compared by the string of its letters'
shortlex ranks).  cyclic_form rotates a core of two syllables or more by
one translate and one least_rotation of its rank code: its rank string
(RelativePresentation.rank_translation) with a separator chr(0), which
ranks below every letter, before each syllable.  That is exact on every
presentation:
- the least rotation of the code starts with its least character, a
  separator, so at a syllable;
- two rotations from separators compare character by character as they
  do syllable by syllable: where one syllable is a proper prefix of
  another, the shorter one is followed by a separator, which ranks below
  the longer one's next letter;
- equal rotations are equal either way, so the first least rotation is
  the same, and the letters before it are its start less the separators.
least_rotation cuts the code at the longest runs of its least character
and recurses on the pieces between them, each coded as one character
again, so the code at least halves per level: O(n log n) work in native
string passes.  Cyclically reduced elements of a free product are
conjugate exactly when their syllable sequences are rotations of each
other, so two elements of two or more syllables are conjugate exactly when
their cyclic forms are equal strings, and exactly when the cyclically
reduced core of one is a syllable rotation of the other's.
The conjugacy engine caches each word's core, decides pairs on the cores
unrotated, and rotates one (cyclic_form) only to classify its word.
v's end pass, given u's core c, peels P off v's normal form P * X *
inverse_form(P) without splitting it (_end_pass), and leaves v's core s.
c is looked for in s + s when the two have as many syllables and letters,
and the find is exact: neither s nor c begins and ends in one factor, so c
can only start between two syllables of s (one starting inside a run of s
would end inside the same run, |s| letters on).  So a hit at k makes s
rotated by k equal to c syllable by syllable, which happens exactly when v
is conjugate to u, and s[:k] is the rotation's conjugator.

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
word it spelled, so P^-1, which v's end pass compares with v's tail, is
spelled once for that peel, the check of v's core and decide's witness
check.  So the product is a normal form except at its joins.  A
conjugator of fewer than words._PLAIN_INVERSE_LETTERS letters keeps the
plain spelling, cheaper there.

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
    """What cyclic_shorten and cyclic_core return.  The two lengths are
    the syllable counts the end pass takes, by its split or, where it
    splits nothing (its fast path and its peel), by count_syllables, and
    normal_form is the normal form the pass took, so that callers such as
    the conjugacy engine never split or normalize the input again."""

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

def least_rotation(s: str) -> int:
    """Start of the lexicographically least rotation of s, the first one
    when several are equal: O(n log n) work, all of it in native string
    passes, where the linear algorithms of Booth (1980) and Shiloach (1981)
    take a Python step per symbol.  It is the one rotation of cyclic
    shortening, which calls it on a core's rank code (cyclic_form).

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


def _end_pass(p, nf, h=0):
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
    ends.  First, where 0 < 2h < |nf|, both cuts h and |nf| - h fall
    between syllables and nf ends in inverse_form(P) for P = nf[:h], whose
    syllables are P's inverted in reverse order, P comes off both ends, its
    syllables counted, not split.  Those are the walk's first steps, one
    trivial merge per run of P, so h changes the work, never the result."""
    kind_of = p.letter_kind
    if 0 < h and 2 * h < len(nf):

        def between(i):  # nf[i - 1] and nf[i] lie in two syllables
            kind = kind_of[nf[i - 1]]
            return kind != kind_of[nf[i]] or kind == HYPERBOLIC

        pre = nf[:h]
        if (between(h) and between(len(nf) - h)
                and nf[-h:] == p.inverse_form(pre)):
            syllables = p.count_syllables(pre)
            runs = syllables - sum(pre.count(g) + pre.count(INVERSE_LETTER[g])
                                   for g in p.hyperbolic_generators)
            m, s, a, length, merges = _end_pass(p, nf[h:-h])
            return m + 2 * syllables, s, pre + a, length, merges + runs
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
    cyclic form of the module docstring, w's core (cyclic_core) rotated by
    cyclic_form, and iterations counts the end-run merges; a conjugacy
    decision takes the unrotated core instead.
    With relators alpha is cyclically Dehn-reduced: cyclically reduced, and
    no cyclic subword is more than half a relator; iterations counts the
    end-run merges and the rotations.  Either way w
    goes through normalize first, which checks its letters, no step is
    logged, and a * alpha * a^-1, spelled by words.conjugate_form, is
    checked equal to w (same_element)."""
    if not p.is_free_product:
        return _checked(p, w, None, (None,) + _dehn_cyclic_form(p, w))
    return cyclic_form(p, w, cyclic_core(p, w))


def cyclic_core(p: RelativePresentation, w: str, around: str = ""):
    """The cyclically reduced core of w from the end pass, unrotated, as a
    checked CyclicShorteningResult with its cyclic form's syllable count:
    what the conjugacy engine caches and decides pairs on, and cyclic_form
    rotates, on a presentation without relators.  around is another word's
    core, for which the pass first tries to peel (|nf| - |around|) / 2
    letters off both ends of w's normal form nf; that changes the work,
    never the result (_end_pass)."""
    nf = words.normalize(p, w)
    h = (len(nf) - len(around)) // 2 if around else 0
    return _checked(p, w, nf, _end_pass(p, nf, h))


def cyclic_form(p: RelativePresentation, w: str,
                core: CyclicShorteningResult) -> CyclicShorteningResult:
    """The canonical cyclic form of w from its core, cyclic_core(p, w): a
    core of two syllables or more rotated to the first least rotation of
    its rank code, with a separator before each syllable (the module
    docstring), the rotation's letters appended to its conjugator, which
    is checked.  A core already at its least rotation, and a core of fewer
    syllables, is returned as it is."""
    if core.cyclic_length < 2:
        return core
    s = core.output
    code = ("\0" + "\0".join(p.normal_syllables(s))).translate(
        p.rank_translation)
    k = least_rotation(code)
    k -= code.count("\0", 0, k)
    if not k:
        return core
    return _checked(p, w, core.normal_form,
                    (core.linear_length, s[k:] + s[:k], core.conjugator
                     + s[:k], core.cyclic_length, core.iterations))


def _checked(p, w, nf, found):
    """The CyclicShorteningResult of found = (linear length, cyclic form,
    conjugator, cyclic length, iterations) for w with normal form nf, once
    the conjugator is checked.  Where found holds nf itself with the empty
    conjugator, as the unrotated core of a cyclically reduced normal form
    does (cyclic_core), the check would compare nf with itself, and is
    skipped."""
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
