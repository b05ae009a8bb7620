"""Words over a relative presentation.

Words are plain strings; uppercase is the inverse of lowercase.  The central
routine is :func:`normalize`, a single left-to-right pass that freely reduces
hyperbolic letters and folds every maximal parabolic run into its canonical
geodesic form, merging runs that become adjacent when letters cancel.  On a
presentation without relators the result is the free-product normal form, so
two words are equal in the group iff they normalize identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parabolic_oracles import oracles_for
from .presentation import (  # noqa: F401 - inverse, cyclic_reduce re-exported
    HYPERBOLIC,
    RelativePresentation,
    cyclic_reduce,
    inverse,
    inverse_letter,
)


def free_reduce(w: str) -> str:
    out = []
    for c in w:
        if out and out[-1] == inverse_letter(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def mul(*parts: str) -> str:
    """Freely reduced concatenation (no parabolic folding)."""
    return free_reduce("".join(parts))


def is_cyclically_reduced(w: str) -> bool:
    return len(w) < 2 or w[0] != inverse_letter(w[-1])


def normalize(p: RelativePresentation, w: str) -> str:
    """Canonical component-normalized free reduction of w (one stack pass)."""
    oracles = oracles_for(p)
    kind_of = p.letter_kind
    stack = []  # entries: (HYPERBOLIC, letter) or (index, oracle state)
    for c in w:
        try:
            kind = kind_of[c]
        except KeyError:
            p.classify_letter(c)  # raises UnknownLetterError with context
        if kind == HYPERBOLIC:
            if stack and stack[-1][0] == HYPERBOLIC and stack[-1][1] == inverse_letter(c):
                stack.pop()
            else:
                stack.append((HYPERBOLIC, c))
        else:
            orc = oracles[kind]
            if stack and stack[-1][0] == kind:
                state = orc.push(stack[-1][1], c)
                if orc.state_is_identity(state):
                    stack.pop()
                else:
                    stack[-1] = (kind, state)
            else:
                stack.append((kind, orc.push(orc.identity_state(), c)))
    parts = []
    for kind, payload in stack:
        parts.append(payload if kind == HYPERBOLIC else oracles[kind].state_word(payload))
    return "".join(parts)


@dataclass(frozen=True)
class Syllable:
    """One unit of relative length: a single hyperbolic letter or a maximal
    parabolic run (kind is HYPERBOLIC or the 1-based parabolic index)."""

    kind: object
    word: str
    start: int

    @property
    def end(self) -> int:
        return self.start + len(self.word)


@dataclass(frozen=True)
class SyllableDecomposition:
    word: str
    syllables: tuple

    @property
    def relative_length(self) -> int:
        return len(self.syllables)


def raw_syllables(p: RelativePresentation, w: str) -> tuple:
    """Syllables of w as written: no normalization, runs kept verbatim."""
    kind_of = p.letter_kind
    out = []
    i = 0
    n = len(w)
    while i < n:
        kind = kind_of.get(w[i])
        if kind is None:
            p.classify_letter(w[i])
        if kind == HYPERBOLIC:
            out.append(Syllable(HYPERBOLIC, w[i], i))
            i += 1
        else:
            j = i + 1
            while j < n and kind_of.get(w[j]) == kind:
                j += 1
            out.append(Syllable(kind, w[i:j], i))
            i = j
    return tuple(out)


def raw_relative_length(p: RelativePresentation, w: str) -> int:
    return len(raw_syllables(p, w))


def decompose(p: RelativePresentation, w: str) -> SyllableDecomposition:
    """Normalize w and decompose the result into syllables."""
    nf = normalize(p, w)
    return SyllableDecomposition(nf, raw_syllables(p, nf))
