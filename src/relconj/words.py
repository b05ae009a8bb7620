"""Words over a relative presentation.

Words are plain strings; uppercase is the inverse of lowercase.  The central
routine is :func:`normalize`, a single left-to-right pass that freely reduces
hyperbolic letters and folds every maximal parabolic run into its canonical
geodesic form, merging runs that become adjacent when letters cancel.  A
word is its own normal form exactly when it has no fault: no hyperbolic
letter followed by its inverse, and no factor that its parabolic oracles
forbid in a geodesic-form run.  These are words of one or two letters (the
presentation's fault_factors), so a fixed set of native passes over the
word's ASCII codes finds where the stretch of the word that is already in
normal form ends: at the first fault, or at the start of the parabolic run
it lies in (first_fault).  One deletion checks the letters, one XOR of
each code with the next finds every letter followed by its inverse, and
the other faults are a few finds on the letters' class codes: one on
Z * Z^2, none on the free group (fault_finds,
RelativePresentation.fault_classes).  A word shorter than _FIND_LETTERS,
where one search of the fault_pattern regex costs less, is searched with
that.  Such stretches are kept whole, and only the letters where they
meet the rest of the word are folded, so a word without a fault is
returned unchanged, and one with a few faults costs little more than
recognising it.  Recognising a 768-letter normal form takes about 7 us
on Z * Z^2 and on the free group, against 23 and 12 us with a native find
per fault factor (min of 15 interleaved rounds over 10 words, Python
3.11.7, 2 shared cores).  The other letters go through one stack pass
over the word's ASCII codes (_fold) on a stack of small integers: a
letter that only cancels is its code point, and a free abelian or finite
run one integer, its exponent vector or element packed beside its
factor's tag (letter_table).  A letter costs three compares and table
lookups, and no regex match or oracle call; the oracles spell only the
runs left on the stack (state_word).  On a presentation without relators
the result is the free-product normal form, so two words are equal in
the group iff they normalize identically.

:func:`mul` multiplies freely reduced words (normal forms are) by cancelling
only where two of them meet, with native compares (cancel_length), and
:func:`conjugate_form` spells g * x * g^-1 for the witness checks (see the
shortening module docstring).
"""

from __future__ import annotations

from typing import NamedTuple

from .presentation import (  # noqa: F401 - inverse, *_reduce re-exported
    HYPERBOLIC,
    INVERSE_LETTER,
    RelativePresentation,
    cancel_length,
    common_suffix,
    cyclic_reduce,
    free_reduce,
    inverse,
)


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


# An attempt at recognition (the finds of first_fault and the fold of the
# stretch they end) costs about as much as the stack pass spends on this
# many letters.  So recognition is tried again only where at least this many
# letters are left, and a stretch it finds is kept whole only when it is at
# least this long or ends the word.  Measured on 50 raw words of 1,024
# letters (min of 15, Python 3.11.7, 2 shared cores): an attempt, the finds
# with one normalize's found list and _stretch_end, takes 3.1 us on Z * Z^2,
# 1.5 us on the free group and 1.9 us on Z * C2, what the stack pass takes
# on 12, 15 and 16 letters of those words (0.25, 0.10 and 0.12 us a letter,
# spelling included), and on 35, 27 and 23 letters of trivial 16k-letter
# words.
_ATTEMPT_LETTERS = 16

# From this many letters on, normalize looks for faults with the passes of
# fault_finds and first_fault rather than one fault_pattern search.  The
# passes read under 3 ns a letter and the search about 45, but the passes
# take a few more native calls.  Measured by normalizing 100 normal forms
# of each length, as they are and with a fault in the middle (min of 11
# interleaved rounds, Python 3.11.7, 2 shared cores), the two tie at 64
# letters on Z * Z^2 (4.7 against 4.3 us; 12.4 against 12.4 with a
# fault).  With caches evicted before each call, as the benchmark's speed
# readings evict them between queries (median of 120 calls), the passes
# cost more: at 64 letters 4.2 against 3.6 us (19.3 against 15.7 with a
# fault), at 96 a tie, and at 128 the passes win or tie on Z * Z^2, the
# free group and Z * C2 (3.3 against 5.9 us on Z * Z^2; 16.7 against
# 17.5 with a fault).  A raw word pays the passes' fixed steps at each of
# its O(log n) attempts.
_FIND_LETTERS = 128

# Below this many letters of a conjugator, spelling the rest of its inverse
# as a normal form (common_suffix calls, inverse_form's translate and, with
# a Z^2 factor, its split) costs more than the stack pass saves on the faults
# of the plain spelling.  Measured by normalizing g * x * g^-1 for 120
# random normal forms g of each length and x of 2 to 12 letters (min of 7
# interleaved passes, two seeds, Python 3.11.7, 2 shared cores): on
# Z * Z^2 the two spellings break even at 4 to 5 letters (1 letter:
# 6.7-6.9 us plainly against 9.0-9.1 us; 16 letters: 32-40 us against
# 19-27 us), on Z * C2 the normal form wins from two letters, and on the
# free group, where the two spell the same word, the plain one is 1.1-2.4 us
# cheaper at every length.  One seed-1 short-batch benchmark round makes
# 13,626 checks, 97.9 % of them with a conjugator under 5 letters; spelled
# the other way, 5,000 of those and the normalize of each took 13.6-14.2 ms,
# against 12.2-13.0 ms plainly (min of 5, five readings, Python 3.11.7).
_PLAIN_INVERSE_LETTERS = 5


def conjugate_form(p: RelativePresentation, g: str, x: str) -> str:
    """A word for g * x * g^-1, for freely reduced g and x, that is a
    normal form except at its joins when g and x are normal forms, so that
    a witness check (shortening.same_element) is as a rule one string
    compare.  The plain inverse of g cancels against mul(g, x) as far as
    the two end alike (common_suffix), and p.inverse_form spells the rest
    of g^-1 without the faults of words.inverse (a Z^2 run backwards, a
    finite letter in upper case); the cut may fall inside a run.  When all
    of g cancels so, as a rotation conjugator a of alpha = y * a does
    (mul(a, alpha) ends in a), no inverse is spelled, and inverse_form
    keeps the last one it spelled.  Below _PLAIN_INVERSE_LETTERS letters
    of g it is mul(g, x, inverse(g)), which costs less there."""
    if len(g) < _PLAIN_INVERSE_LETTERS:
        return mul(g, x, inverse(g))
    gx = mul(g, x)
    c = common_suffix(gx, g, min(len(gx), len(g)))
    rest = g[: len(g) - c]
    return gx[: len(gx) - c] + (p.inverse_form(rest) if rest else "")


class _Letters(NamedTuple):
    """normalize's letter table for words of fewer than base / 2 letters
    (letter_table): for each ASCII code b, inv[b] is the entry that b
    cancels (-1: none), fac[b] the tag of the run b merges into (-1: none),
    own[b] the entry b pushes (None for an undeclared character), and
    step[b] what merging b adds to a free abelian run's entry, or a dict
    from a finite run's entry to the entry times b.  spelled maps the
    entries that are one letter, and every finite run's, to their words."""

    inv: list
    fac: list
    own: list
    step: list
    spelled: dict


def letter_table(p: RelativePresentation, base: int) -> _Letters:
    """The fold's letter table for base, built from the oracles and kept
    in p.letter_tables, which normalize reads first.  A hyperbolic letter,
    or a letter of a free factor, is its code point and cancels its
    inverse's.  A run of a free abelian or finite factor is the entry
    tag + 256 * v, the tag being the factor's 1-based index: v packs a
    free abelian run's exponent vector (e_0, e_1, ...) as e_0 + e_1 * base
    + ..., and is a finite run's element index.  A word of n letters has
    no exponent above n in absolute value, and base > 2n, so the packing
    is exact, and the entry is tag exactly when the run is trivial."""
    inv, fac, own, step = [-1] * 128, [-1] * 128, [None] * 128, [None] * 128
    spelled = {}
    for c, kind in p.letter_kind.items():
        b = ord(c)
        orc = p.oracles.get(kind)
        if orc is None or orc.descriptor.kind == "free":
            inv[b], own[b] = ord(INVERSE_LETTER[c]), b
            spelled[b] = c
            continue
        fac[b] = kind
        state = orc.push(None, c)
        if orc.descriptor.kind == "finite":
            step[b] = {kind + 256 * e: kind + 256 * (orc.push(e or None, c)
                                                    or 0)
                       for e in range(len(orc.descriptor.table))}
            own[b] = step[b][kind]
            spelled.update((e, orc.state_word(e >> 8)) for e in step[b])
        else:
            step[b] = 256 * sum(e * base ** j for j, e in enumerate(state))
            own[b] = kind + step[b]
            spelled[own[b]] = orc.state_word(state)
    return p.letter_tables.setdefault(base, _Letters(inv, fac, own, step,
                                                     spelled))


def _run_word(p, base, e):
    """The canonical word of a run's fold stack entry, from its oracle."""
    orc = p.oracles[e & 255]
    v = e >> 8
    if orc.descriptor.kind == "finite":
        return orc.state_word(v)
    half, state = base // 2, []
    for _ in orc.descriptor.generators:  # balanced digits: |e_j| < base/2
        v, r = divmod(v + half, base)
        state.append(r - half)
    return orc.state_word(state)


def _spell(p, base, t, stack) -> str:
    """The word of a fold stack, bottom first, with the bottom 0 dropped:
    an entry of t.spelled as its word, and any other as its run's word.
    An undeclared letter's None fails None & 255 with TypeError."""
    get = t.spelled.get
    return "".join([get(e) or _run_word(p, base, e) for e in stack
                    if e != 0])


def _fold(t, codes, i, k, stack, kept, reach):
    """Push the letters codes[i:k] onto the fold stack, which is never
    empty: each cancels the top, merges into the top run, or is pushed.
    An emptied stack takes the next piece of kept (_expose).  An
    undeclared character pushes None, on which the next letter's & fails
    with TypeError.  Returns the next reach."""
    inv, fac, own, step, _ = t
    append, pop = stack.append, stack.pop
    top = stack[-1]
    for b in codes[i:k]:
        if top == inv[b]:
            pop()
            if not stack:
                reach = _expose(t, kept, stack, reach)
            top = stack[-1]
        elif top & 255 == fac[b]:
            d = step[b]
            top = d[top] if d.__class__ is dict else top + d
            if top == fac[b]:  # the run is trivial
                pop()
                if not stack:
                    reach = _expose(t, kept, stack, reach)
                top = stack[-1]
            else:
                stack[-1] = top
        else:
            top = own[b]
            append(top)
    return reach


def _expose(t, kept, stack, reach):
    """Move the last letters of the kept stretches, at least reach letters
    of the last one or all of it, back to the start of a free abelian or
    finite run they end in, onto the empty stack; with no stretch left,
    push the bottom 0, which matches nothing.  Returns the next reach,
    twice this one, so that a cancellation deep into a stretch takes it in
    doubling pieces."""
    if not kept:
        stack.append(0)
        return reach
    piece = kept[-1]
    s, lo, hi = piece
    fac = t.fac
    start = hi - reach if hi - reach > lo else lo
    while start > lo and fac[s[start - 1]] == fac[s[start]] > 0:
        start -= 1  # back to the start of the run
    if start == lo:
        kept.pop()
    else:
        piece[2] = start
    stack.append(t.own[s[start]])
    # s[start:hi] is a normal form, so nothing in it cancels
    _fold(t, s, start + 1, hi, stack, kept, reach)
    return 2 * reach


def _chunk_end(n, k):
    """Where a stack pass meant to end at k stops: at the end n of the word
    when too few letters would be left to pay for an attempt."""
    return n if n - k < _ATTEMPT_LETTERS else k


def declared_codes(p: RelativePresentation, w: str) -> bytes:
    """The ASCII codes of w, once one bytes deletion of the declared
    letters (RelativePresentation.declared_letters) has left none: else
    check_word raises UnknownLetterError naming the first undeclared
    letter, also a non-ASCII one.  On a 16k-letter word it takes 8 us,
    against 25 us for str.translate with a dict (min of 7 x 2,000 calls,
    Python 3.11.7)."""
    try:
        codes = w.encode("ascii")
    except UnicodeEncodeError:
        codes = None
    if codes is None or codes.translate(None, p.declared_letters):
        p.check_word(w)  # raises UnknownLetterError naming the letter
    return codes


def fault_finds(p: RelativePresentation, codes: bytes) -> list:
    """first_fault's state for a declared word with these ASCII codes: the
    two strings its finds read, then where each find found a fault (-1 for
    not looked for), the inverse pairs' first.  The first string is the
    XOR of each code with the next, in one int pass.  Generator names are
    single lower-case letters, so two declared letters XOR to 0x20 exactly
    when they are inverses, and in every factor kind a letter followed by
    its inverse is a fault (RelativePresentation.fault_classes checks it).
    The second is the codes' classes, whose patterns find the other
    faults."""
    x = int.from_bytes(codes, "little")
    return [(x ^ (x >> 8)).to_bytes(len(codes), "little"),
            codes.translate(p.fault_classes[0])] + [-1] * (
                1 + len(p.fault_classes[1]))


def first_fault(p: RelativePresentation, w: str, i: int, found) -> int:
    """Where the first fault of w at or after i starts, len(w) when there
    is none.  With found None it is one fault_pattern search, in which an
    undeclared letter is a fault too.  Otherwise found is fault_finds of
    a declared word: one native find for the inverse pairs and one for each
    class pattern, each kept in found, and only a find that found a fault
    before i is made again, from i.  So over the calls of one normalize,
    with i increasing, each find reads disjoint stretches of w, and the
    scans are linear in all.  A single-letter fault found at j is a fault
    factor's second letter when a fault starts at j - 1 (fault_pattern
    tells: a finite factor's generator before one of its upper-case
    letters), and that is then the first fault of those that end in a
    single-letter one, since they all end at j or later."""
    if found is None:
        fault = p.fault_pattern.search(w, i)
        return len(w) if fault is None else fault.start()
    n = len(w)
    if found[2] < i:
        at = found[0].find(b" ", i)  # 0x20: a letter before its inverse
        found[2] = n if at < 0 else at
    for t, pattern in enumerate(p.fault_classes[1], 3):
        if found[t] < i:
            at = found[1].find(pattern, i)
            if at < 0:
                at = n
            elif len(pattern) == 1 and at > i and p.fault_pattern.match(
                    w, at - 1):
                at -= 1
            found[t] = at
    return min(found[2:])


def _stretch_end(p, w, i, f):
    """Where the normal-form stretch of w from i ends, given f =
    first_fault(p, w, i, ...): at the end of w when there is no fault, at
    a hyperbolic or undeclared fault itself, and otherwise at the start of
    the parabolic run it lies in, or at i if that run starts before i (a
    stack pass may end inside a run)."""
    if f == len(w):
        return f
    kind = p.letter_kind.get(w[f], HYPERBOLIC)
    if kind == HYPERBOLIC:
        return f
    return i + len(w[i:f].rstrip(p.run_letters[kind]))


def normalize(p: RelativePresentation, w: str) -> str:
    """Canonical component-normalized free reduction of w, in one left to
    right pass.  Normal-form stretches, each ended by a search for the
    first fault (first_fault, _stretch_end), are kept whole: for a word of
    _FIND_LETTERS letters or more the passes of fault_finds, after one
    bytes deletion has checked that every letter is declared
    (declared_codes), and for a shorter word its fault_pattern search,
    which finds undeclared letters too.  The first search also tells
    whether w has a fault at all; a word without one is returned as it
    is, and a word shorter than _ATTEMPT_LETTERS costs that search and
    its stack pass.  The letters
    between stretches go through a stack pass over the ASCII codes of w
    (_fold) on a stack of small integers (letter_table), three compares a
    letter and no oracle call, and where a stretch meets the stack its
    first letters are folded while they cancel or merge.

    Recognition is tried again only where it can pay for itself.  After a
    stretch is kept the stack pass takes one letter before the next
    attempt, and after each attempt that finds too short a stretch, four
    times as many letters as the time before.  So a raw word costs
    O(log n) attempts beside its stack pass, and a normal form with a few
    faults is recognised nearly whole.  A word shorter than _FIND_LETTERS
    has its letters checked on the way: an undeclared character is a
    fault, so no stretch spans it, and the stack pass meets it: a
    non-ASCII one fails the encoding, and an ASCII one pushes None, which
    fails the next letter's & or the spelling (_fold)."""
    n = len(w)
    found = None  # first_fault's finds; None: the regex
    if n >= _FIND_LETTERS:
        codes = declared_codes(p, w)
        found = fault_finds(p, codes)
    f = first_fault(p, w, 0, found)
    if f == n:
        return w
    if found is None:
        try:
            codes = w.encode("ascii")
        except UnicodeEncodeError:
            p.check_word(w)  # raises UnknownLetterError naming the letter
            raise
    base = 2 << n.bit_length()  # above 2n
    t = p.letter_tables.get(base) or letter_table(p, base)
    # kept: the stretches kept whole, as [ASCII codes, start, end].  Above
    # them the stack of letter_table's entries, and, when no stretch is
    # kept, the bottom 0.  It is never empty while letters are pushed.
    # w[:i] is spelled by kept and the stack, and the stack pass goes on
    # over w[i:k].
    kept = []
    stack = [0]
    i, k = 0, n
    gap = 1  # letters the stack pass takes before the next attempt
    reach = 1  # letters the next exposure moves from kept onto the stack
    try:
        if n >= _ATTEMPT_LETTERS:  # keep the first stretch, however short
            j = _stretch_end(p, w, 0, f)
            if j:
                kept.append([codes, 0, j])
                stack.clear()
                reach = _expose(t, kept, stack, reach)
            i = j
            k = _chunk_end(n, i + gap)
        while True:
            reach = _fold(t, codes, i, k, stack, kept, reach)
            if k == n:
                break
            i = k
            j = _stretch_end(p, w, i, first_fault(p, w, i, found))
            if j < n and j - i < _ATTEMPT_LETTERS:
                gap *= 4  # the attempt does not pay; the stack pass goes on
            else:
                # keep w[i:j] whole: fold its first letters into the stack
                # while they cancel or merge, then keep the stack and the
                # rest
                inv, fac, _, step, _ = t
                while i < j:
                    b = codes[i]
                    top = stack[-1]
                    if top == inv[b]:
                        stack.pop()
                    elif top & 255 == fac[b]:
                        d = step[b]
                        top = d[top] if d.__class__ is dict else top + d
                        if top == fac[b]:
                            stack.pop()
                        else:
                            stack[-1] = top
                    else:
                        break
                    i += 1
                    if not stack:
                        reach = _expose(t, kept, stack, reach)
                spelled = _spell(p, base, t, stack).encode()
                if spelled:
                    kept.append([spelled, 0, len(spelled)])
                stack.clear()
                if i < j:
                    kept.append([codes, i, j])
                if j == n:
                    break
                reach = _expose(t, kept, stack, 1)
                i = j
                gap = 1
            k = _chunk_end(n, i + gap)
        spelled = _spell(p, base, t, stack)
    except TypeError:  # from an undeclared letter's None, checked last
        p.check_word(w)  # raises UnknownLetterError naming the letter
        raise
    if not kept:
        return spelled
    return b"".join([s[lo:hi] for s, lo, hi in kept]).decode() + spelled
