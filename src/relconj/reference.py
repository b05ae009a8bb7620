"""Ground truth by the definitions for relator-free presentations: the
free-product normal form, syllables and conjugacy (Lyndon-Schupp IV.1.4).
Nothing here calls a parabolic oracle or words.normalize, so metric_oracle,
built on it, shares no code with the fast path it checks.  Quadratic, which
is fine at ball radii; no query imports it."""

from .presentation import HYPERBOLIC, INVERSE_LETTER


def _free_reduce(w):
    out = ""
    for c in w:
        out = out[:-1] if out[-1:] == INVERSE_LETTER[c] else out + c
    return out


def _spell_run(par, run):
    """The geodesic of run's element, read off the descriptor par: signed
    generator powers in declaration order (free abelian), the reduced word
    (free), the generator letter of the table product (finite)."""
    if par.kind == "free":
        return _free_reduce(run)
    gens, e = par.generators, 0  # element 0 is the identity, j gens[j - 1]
    if par.kind == "free_abelian":
        return "".join(g * (n := run.count(g) - run.count(g.upper()))
                       + g.upper() * -n for g in gens)
    for c in run:
        j = gens.index(c.lower()) + 1
        e = par.table[e][j if c in gens else par.table[j].index(0)]
    return gens[e - 1] if e else ""


def syllables(p, w):
    """The syllables of w as written, as (kind, word, start): a hyperbolic
    letter alone, a parabolic run while the next letter has its kind."""
    out = []
    for i, c in enumerate(p.check_word(w)):
        kind = p.letter_kind[c]
        if kind != HYPERBOLIC and out and out[-1][0] == kind:
            out[-1] = (kind, out[-1][1] + c, out[-1][2])
        else:
            out.append((kind, c, i))
    return out


def normal_form(p, w):
    """Free reduction, then each maximal parabolic run spelled as the
    geodesic of its element, repeated while a run spells the identity, as
    only then do letters or runs meet that may cancel or merge."""
    p.check_word(w)
    while True:
        syls = [s if k == HYPERBOLIC else _spell_run(p.parabolics[k - 1], s)
                for k, s, _ in syllables(p, _free_reduce(w))]
        w = "".join(syls)
        if all(syls):
            return w


def least_rotation(seq):
    """The first start of the least rotation of seq, from all rotations."""
    return min(range(len(seq)), key=lambda i: (seq[i:] + seq[:i], i),
               default=0)


def conjugacy_key(p, w):
    """Equal exactly for conjugate words: the least rotation of the
    syllables of the normal form, its last syllable moved to the front while
    the end syllables cancel or merge.  A lone parabolic syllable is only
    conjugate in its factor: to itself (free abelian), to the rotations of
    its cyclically reduced letters (free), to its conjugates by each letter
    (finite)."""
    nf = normal_form(p, w)
    syls = syllables(p, nf)
    while len(syls) > 1 and (syls[0][0] == syls[-1][0] != HYPERBOLIC
                             or syls[-1][1] == INVERSE_LETTER.get(syls[0][1])):
        nf = normal_form(p, syls[-1][1] + nf[: syls[-1][2]])
        syls = syllables(p, nf)
    seq = [s for _, s, _ in syls]
    if len(syls) == 1 and syls[0][0] != HYPERBOLIC:
        par, run = p.parabolics[syls[0][0] - 1], nf
        if par.kind == "finite":
            seq = [min(normal_form(p, t + run + t.swapcase())
                       for t in par.letters)]
        elif par.kind == "free":
            while run[0] == INVERSE_LETTER[run[-1]]:
                run = run[1:-1]
            seq = list(run)
    i = least_rotation(seq)
    return tuple(seq[i:] + seq[:i])
