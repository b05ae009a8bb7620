"""Independent reference answers for conjugacy, classification and the word
problem on relator-free presentations.

It rests on the conjugacy theorem for free products (Lyndon-Schupp,
Combinatorial Group Theory, IV.1.4): cyclically reduced elements are
conjugate exactly when their cyclic syllable sequences are rotations of
each other, and an element of a single syllable is conjugate only inside its
factor.  Here a syllable is either one letter of the free group on the
hyperbolic letters or one maximal run of a parabolic factor; splitting the
free factor into letters leaves the theorem intact, because merging adjacent
free letters back into syllables is a bijection on cyclic sequences.

The only piece of relconj used is ``words.normalize`` (the free-product
normal form); shortening, the tables and the conjugacy engine are never
called, so the reference cannot share their mistakes.
"""

from __future__ import annotations

from relconj import words
from relconj.presentation import HYPERBOLIC


def syllables(p, nf):
    """Syllables of a normal form: hyperbolic letters one by one, parabolic
    runs whole, each as (kind, word)."""
    out = []
    for c in nf:
        kind = p.letter_kind[c]
        if kind != HYPERBOLIC and out and out[-1][0] == kind:
            out[-1] = (kind, out[-1][1] + c)
        else:
            out.append((kind, c))
    return out


def reduces(first, last):
    """True when the two syllables cancel or merge side by side (and so, as
    first and last, when conjugating by the first shortens the cyclic
    word): inverse hyperbolic letters cancel, runs of one factor merge."""
    if first[0] == HYPERBOLIC:
        return last == (HYPERBOLIC, words.inverse(first[1]))
    return first[0] == last[0]


def _factor_class(p, kind, run):
    """Least word of the conjugacy class of a single parabolic syllable,
    closed under conjugation by the factor's letters.  Finite and free
    abelian factors have finite classes, which is what the closure needs."""
    descriptor = next(d for d in p.parabolics if d.index == kind)
    if descriptor.kind not in ("finite", "free_abelian"):
        raise ValueError("reference supports finite and free-abelian "
                         "parabolics, not %r" % descriptor.kind)
    letters = descriptor.letters
    seen = {run}
    todo = [run]
    while todo:
        q = todo.pop()
        for c in letters:
            r = words.normalize(p, c + q + words.inverse(c))
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return min(seen, key=p.shortlex_key)


def conjugacy_key(p, w):
    """Equal for two words exactly when they are conjugate in the group."""
    nf = words.normalize(p, w)
    toks = syllables(p, nf)
    while len(toks) >= 2 and reduces(toks[0], toks[-1]):
        head = toks[0][1]
        nf = words.normalize(p, words.inverse(head) + nf + head)
        toks = syllables(p, nf)
    if len(toks) == 1 and toks[0][0] != HYPERBOLIC:
        kind, run = toks[0]
        return ("parabolic", kind, _factor_class(p, kind, run))
    seq = tuple(word for _, word in toks)  # letters fix each run's factor
    return ("cyclic", min(seq[i:] + seq[:i] for i in range(max(1, len(seq)))))


def is_trivial(p, w):
    return words.normalize(p, w) == ""


def conjugates(p, g, u, v):
    """True when g * u * g^-1 equals v in the group."""
    return words.normalize(p, g + u + words.inverse(g)) == words.normalize(p, v)


def verdict(p, w):
    """(verdict, parabolic index or None) that classify must report."""
    key = conjugacy_key(p, w)
    if key[0] == "parabolic":
        return "parabolic", key[1]
    if key[1] == ():
        return ("parabolic" if p.parabolics else "hyperbolic"), None
    return "hyperbolic", None
