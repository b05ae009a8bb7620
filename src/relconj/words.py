"""Words over a relative presentation.

Words are plain strings; uppercase is the inverse of lowercase.  The central
routine is :func:`normalize`, a single left-to-right pass that freely reduces
hyperbolic letters and folds every maximal parabolic run into its canonical
geodesic form, merging runs that become adjacent when letters cancel.  A
word is its own normal form exactly when it has no fault: no hyperbolic
letter followed by its inverse, and no factor that its parabolic oracles
forbid in a geodesic-form run.  So one native search of the presentation's
fault_pattern finds where the stretch of the word that is already in normal
form ends: at the first fault, or at the start of the parabolic run it lies
in.  Such stretches are kept whole, and only the syllables where they meet
the rest of the word are folded, so a word without a fault is returned
unchanged, and one with a few faults costs little more than recognising it.
On a presentation without relators the result is the free-product normal
form, so two words are equal in the group iff they normalize identically.

:func:`mul` multiplies freely reduced words (normal forms are) by cancelling
only where two of them meet, with native compares (cancel_length), and
:func:`conjugate_form` spells g * x * g^-1 for the witness checks so that it
is a normal form except at its joins when g and x are normal forms.
"""

from __future__ import annotations

from .presentation import (  # noqa: F401 - inverse, cyclic_reduce re-exported
    HYPERBOLIC,
    INVERSE_LETTER,
    RelativePresentation,
    cancel_length,
    cyclic_reduce,
    inverse,
)


def free_reduce(w: str) -> str:
    inv = INVERSE_LETTER
    out = []
    for c in w:
        if out and out[-1] == inv[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def mul(*parts: str) -> str:
    """The concatenation of parts with letters cancelled only where two
    parts meet (no parabolic folding).  Precondition: every part is freely
    reduced, as a normal form is; then the product is freely reduced, and
    equal to free_reduce of the concatenation.  With an unreduced part it
    is still the same element, possibly unreduced, so it may only feed
    normalize or word_problem, which reduce it."""
    out = ""
    for w in parts:
        if out and w and out[-1] == INVERSE_LETTER[w[0]]:
            x = cancel_length(out, w, min(len(out), len(w)))
            out = out[: len(out) - x] + w[x:]
        else:
            out += w
    return out


# An attempt at recognition (one fault_pattern search and the fold of the
# stretch it ends) costs about as much as the stack pass spends on this
# many letters.  So recognition is tried again only where at least this many
# letters are left, and a stretch it finds is kept whole only when it is at
# least this long or ends the word.
_ATTEMPT_LETTERS = 16

# Below this many letters of a conjugator, spelling the rest of its inverse
# as a normal form (a cancel_length call, inverse_form's translate and, with
# a Z^2 factor, its split) costs more than the stack pass saves on the faults
# of the plain spelling.  Measured by normalizing g * x * g^-1 for 120
# random normal forms g of each length and x of 2 to 12 letters (min of 7
# passes, two seeds, Python 3.11.7): on Z * Z^2 the two spellings break even
# at 3 to 5 letters (1 letter: 6.0-6.4 us plainly against 8.5-8.9 us; 16
# letters: 17-21 us against 9.5-13.6 us), on Z * C2 the normal form wins
# from one letter, and on the free group, where the two spell the same
# word, the plain one is 0.3-1.5 us cheaper at every length.  The
# short-batch benchmark checks conjugators of 0 to 7 letters, 94 % of them
# under 4.
_PLAIN_INVERSE_LETTERS = 5


def conjugate_form(p: RelativePresentation, g: str, x: str) -> str:
    """A word for g * x * g^-1, for freely reduced g and x, that is a
    normal form except at its joins when g and x are normal forms.  Where
    nothing cancels or merges at the joins it is the normal form itself,
    and a witness check (shortening.same_element) is one string compare;
    otherwise normalize keeps nearly all of it whole.  The plain inverse of
    g cancels against mul(g, x) as far as it does, letter for letter; the
    rest of g^-1 is spelled by p.inverse_form, which writes no fault where
    words.inverse writes one (a Z^2 run backwards, a finite letter in upper
    case).  The cut between the two may fall inside a run; the product is
    g * x * g^-1 either way.  Below _PLAIN_INVERSE_LETTERS letters of g it
    is the plain mul(g, x, inverse(g)), which costs less there."""
    if len(g) < _PLAIN_INVERSE_LETTERS:
        return mul(g, x, inverse(g))
    gx = mul(g, x)
    c = cancel_length(gx, inverse(g), min(len(gx), len(g)))
    return gx[: len(gx) - c] + p.inverse_form(g[: len(g) - c])


def _expose(p, kept, stack, reach):
    """Move the last syllables of the kept stretches, at least reach letters
    of the last one or all of it, onto the empty stack as hyperbolic letters
    and [index, state] runs; with no stretch left, push the sentinel "",
    which matches nothing.  Returns the next reach, twice this one, so that
    a cancellation deep into a stretch takes it in doubling pieces."""
    if not kept:
        stack.append("")
        return reach
    piece = kept[-1]
    s, lo, hi = piece
    kind_of = p.letter_kind
    start = hi - reach if hi - reach > lo else lo
    while start > lo and kind_of[s[start]] != HYPERBOLIC and (
            kind_of[s[start - 1]] == kind_of[s[start]]):
        start -= 1  # back to the start of the run
    for block in p.block_pattern.findall(s, start, hi):
        kind = kind_of[block[0]]
        if kind == HYPERBOLIC:
            stack.extend(block)
        else:
            stack.append([kind, p.oracles[kind].push(None, block)])
    if start == lo:
        kept.pop()
    else:
        piece[2] = start
    return 2 * reach


def _chunk_end(p, w, k):
    """Where a stack pass meant to end at k stops: at the end of w when too
    few letters would be left to pay for an attempt, else at the end of the
    syllable of w[k - 1], so that no parabolic run is split."""
    if len(w) - k < _ATTEMPT_LETTERS:
        return len(w)
    if p.letter_kind[w[k - 1]] == HYPERBOLIC:
        return k
    return p.block_pattern.match(w, k - 1).end()


def _stretch_end(p, w, i, fault):
    """Where the normal-form stretch of w from the syllable boundary i
    ends, given fault, the first match of fault_pattern at or after i: at
    the end of w when there is none, at a hyperbolic or undeclared fault
    itself, and otherwise at the start of the parabolic run it lies in."""
    if fault is None:
        return len(w)
    f = fault.start()
    kind = p.letter_kind.get(w[f], HYPERBOLIC)
    if kind == HYPERBOLIC:
        return f
    return i + len(w[i:f].rstrip(p.run_letters[kind]))


def normalize(p: RelativePresentation, w: str) -> str:
    """Canonical component-normalized free reduction of w, in one left to
    right pass.  Normal-form stretches, each ended by one native
    fault_pattern search (_stretch_end), are kept whole.  The first search
    also tells whether w has a fault at all; a word without one is
    returned as it is, and a word shorter than _ATTEMPT_LETTERS costs that
    search and its stack pass.  The letters between stretches go
    through a stack pass over their blocks, and only the syllables that
    cancel or merge where a stretch meets the stack are folded.

    Recognition is tried again only where it can pay for itself.  After a
    stretch is kept the stack pass takes one syllable before the next
    attempt, and after each attempt that finds too short a stretch, four
    times as many letters as the time before.  So a raw word costs
    O(log n) attempts beside its stack pass, and a normal form with a few
    faults is recognised nearly whole.  Letters are checked on the way:
    an undeclared character is a fault, so no stretch spans it, and the
    block pattern makes it a block whose letter_kind lookup fails."""
    fault = p.fault_pattern.search(w)
    if fault is None:  # undeclared letters are faults too
        return w
    n = len(w)
    oracles = p.oracles
    kind_of = p.letter_kind
    inv = INVERSE_LETTER
    # kept: the stretches kept whole, as [word, start, end].  Above them the
    # stack: hyperbolic letters, parabolic runs as [index, state], and, when
    # no stretch is kept, the sentinel "" at the bottom.  It is never empty
    # while letters are pushed.  w[:i] is spelled by kept and the stack, and
    # the stack pass goes on over w[i:k].
    kept = []
    stack = [""]
    append = stack.append
    pop = stack.pop
    i, k = 0, n
    gap = 1  # letters the stack pass takes before the next attempt
    reach = 1  # letters the next exposure moves from kept onto the stack
    try:
        if n >= _ATTEMPT_LETTERS:  # keep the first stretch, however short
            j = _stretch_end(p, w, 0, fault)
            if j:
                kept.append([w, 0, j])
                stack.clear()
                reach = _expose(p, kept, stack, reach)
            i = j
            k = _chunk_end(p, w, i + gap)
        while True:
            for syl in p.block_pattern.findall(w, i, k):
                kind = kind_of[syl[0]]
                if kind == HYPERBOLIC:
                    # free reduction of a hyperbolic block against the stack
                    for c in syl:
                        if stack[-1] == inv[c]:
                            pop()
                            if not stack:
                                reach = _expose(p, kept, stack, reach)
                        else:
                            append(c)
                    continue
                top = stack[-1]
                if top.__class__ is list and top[0] == kind:
                    top[1] = oracles[kind].push(top[1], syl)
                    if top[1] is None:
                        pop()
                        if not stack:
                            reach = _expose(p, kept, stack, reach)
                else:
                    state = oracles[kind].push(None, syl)
                    if state is not None:
                        append([kind, state])
            if k == n:
                break
            i = k
            j = _stretch_end(p, w, i, p.fault_pattern.search(w, i))
            if j < n and j - i < _ATTEMPT_LETTERS:
                gap *= 4  # the attempt does not pay; the stack pass goes on
            else:
                # keep w[i:j] whole: fold its first syllables into the
                # stack while they cancel or merge, then keep the stack
                # and the rest
                while i < j:
                    top = stack[-1]
                    c = w[i]
                    if top == inv[c]:
                        pop()
                        i += 1
                    elif top.__class__ is list and top[0] == kind_of[c]:
                        e = p.block_pattern.match(w, i).end()
                        top[1] = oracles[top[0]].push(top[1], w[i:e])
                        i = e
                        if top[1] is not None:
                            break
                        pop()
                    else:
                        break
                    if not stack:
                        reach = _expose(p, kept, stack, reach)
                spelled = spell_stack(p, stack)
                if spelled:
                    kept.append([spelled, 0, len(spelled)])
                stack.clear()
                if i < j:
                    kept.append([w, i, j])
                if j == n:
                    break
                reach = _expose(p, kept, stack, 1)
                i = j
                gap = 1
            k = _chunk_end(p, w, i + gap)
    except KeyError:  # from letter_kind: an undeclared letter, checked last
        p.check_word(w)  # raises UnknownLetterError naming the letter
        raise
    return "".join([s[lo:hi] for s, lo, hi in kept]) + spell_stack(p, stack)


def spell_stack(p: RelativePresentation, stack) -> str:
    """The word of a fold stack of normalize or the Dehn pass, bottom first:
    a letter, or the sentinel "", as it stands, and an [index, state, ...]
    run as its factor's geodesic word."""
    oracles = p.oracles
    return "".join([e if e.__class__ is str
                    else oracles[e[0]].state_word(e[1]) for e in stack])

