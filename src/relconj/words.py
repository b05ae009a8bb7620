"""Words over a relative presentation.

Words are plain strings; uppercase is the inverse of lowercase.  The central
routine is :func:`normalize`, a single left-to-right pass that freely reduces
hyperbolic letters and folds every maximal parabolic run into its canonical
geodesic form, merging runs that become adjacent when letters cancel.  A
word that is already its own normal form is recognised first, by one scan
with the presentation's normal_form_pattern, and returned unchanged.  On a
presentation without relators the result is the free-product normal form, so
two words are equal in the group iff they normalize identically.
"""

from __future__ import annotations

from typing import NamedTuple

from .presentation import (  # noqa: F401 - inverse, cyclic_reduce re-exported
    HYPERBOLIC,
    INVERSE_LETTER,
    RelativePresentation,
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
    """Freely reduced concatenation (no parabolic folding)."""
    return free_reduce("".join(parts))


def is_cyclically_reduced(w: str) -> bool:
    return len(w) < 2 or w[0] != INVERSE_LETTER[w[-1]]


def normalize(p: RelativePresentation, w: str) -> str:
    """Canonical component-normalized free reduction of w.  A word that
    is its own normal form is recognised by one native scan and returned
    as it is; any other goes through one stack pass over its blocks."""
    if not p.letter_set.issuperset(w):  # check_word inlined: the hot path
        p.check_word(w)  # raises UnknownLetterError naming the letter
    if p.normal_form_pattern.fullmatch(w):
        return w
    oracles = p.oracles
    kind_of = p.letter_kind
    inv = INVERSE_LETTER
    # entries: a hyperbolic letter, or a parabolic run as [index, state]
    stack = []
    append = stack.append
    pop = stack.pop
    for syl in p.block_pattern.findall(w):
        kind = kind_of[syl[0]]
        if kind == HYPERBOLIC:
            # free reduction of a hyperbolic block against the stack
            for c in syl:
                if stack and stack[-1] == inv[c]:
                    pop()
                else:
                    append(c)
            continue
        top = stack[-1] if stack else None
        if top.__class__ is list and top[0] == kind:
            top[1] = oracles[kind].push(top[1], syl)
            if top[1] is None:
                pop()
        else:
            state = oracles[kind].push(None, syl)
            if state is not None:
                append([kind, state])
    for i, entry in enumerate(stack):
        if entry.__class__ is list:
            stack[i] = oracles[entry[0]].state_word(entry[1])
    return "".join(stack)


class Syllable(NamedTuple):
    """One unit of relative length: a single hyperbolic letter or a maximal
    parabolic run (kind is HYPERBOLIC or the 1-based parabolic index)."""

    kind: object
    word: str
    start: int

    @property
    def end(self) -> int:
        return self.start + len(self.word)


def raw_syllables(p: RelativePresentation, w: str) -> tuple:
    """Syllables of w as written: no normalization, runs kept verbatim."""
    p.check_word(w)
    kind_of = p.letter_kind
    new = tuple.__new__  # a Syllable without a Python-level __new__ call
    out = []
    start = 0
    for syl in p.syllable_pattern.findall(w):
        out.append(new(Syllable, (kind_of[syl[0]], syl, start)))
        start += len(syl)
    return tuple(out)


def raw_relative_length(p: RelativePresentation, w: str) -> int:
    p.check_word(w)
    return len(p.syllable_pattern.findall(w))

