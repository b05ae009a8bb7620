"""Relative presentations and their plain-text file format.

A group is presented by a finite hyperbolic generating set together with a
list of parabolic subgroups, each given by a solver kind (``free_abelian``,
``free`` or ``finite``) and its own disjoint generating letters.  Generator
names are single lowercase ASCII letters; the inverse of a letter is written
as its uppercase form, so the word ``abA`` means a*b*a^-1.

File format (blank lines and ``#`` comments are ignored)::

    group g2
    hyperbolic a
    parabolic free_abelian 2
    letters x y
    relator <word>            # optional, repeatable
    constants delta=1 c2=2    # optional working-constant overrides

Parsing accepts relators over any declared letters, but the word problem
with relators (Dehn's algorithm, see dehn_table) needs them over the
hyperbolic letters and satisfying C'(1/6).

A ``finite`` block carries the full multiplication table of the subgroup,
one ``table`` row per element.  Element 0 is the identity and element j >= 1
is the j-th declared letter, so the generating set is all nontrivial
elements, and the declared size and the square table are both
``len(letters) + 1``::

    parabolic finite 2
    letters t
    table 0 1
    table 1 0
"""

from __future__ import annotations

import hashlib
import re
import string
from dataclasses import dataclass, field
from functools import cached_property
from os.path import commonprefix

from .errors import OracleUnavailableError, ParseError, UnknownLetterError

HYPERBOLIC = "hyp"

PARABOLIC_KINDS = ("free_abelian", "free", "finite")


# The inverse of every ASCII letter, for the per-letter loops of the word
# kernels.  It holds letters only, so a kernel that indexes it must run
# after check_word has rejected anything undeclared.
INVERSE_LETTER = {c: c.swapcase() for c in string.ascii_letters}


def inverse(w: str) -> str:
    return w.swapcase()[::-1]


def cyclic_reduce(w: str):
    """Strip mutually inverse end letters: returns (core, a) with
    w = a * core * a^-1 letter for letter."""
    inv = INVERSE_LETTER
    i, j = 0, len(w) - 1
    while i < j and w[i] == inv[w[j]]:
        i, j = i + 1, j - 1
    return w[i : j + 1], w[:i]


@dataclass(frozen=True)
class ParabolicDescriptor:
    """One parabolic subgroup: solver kind, parameters and letters."""

    index: int
    kind: str
    generators: tuple[str, ...]
    rank: int = 0
    table: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in PARABOLIC_KINDS:
            raise ParseError("unknown parabolic kind %r" % self.kind)
        if self.kind in ("free_abelian", "free"):
            if self.rank != len(self.generators):
                raise ParseError(
                    "parabolic %d: rank %d but %d letters"
                    % (self.index, self.rank, len(self.generators))
                )
            if self.rank < 1:
                raise ParseError("parabolic %d: rank must be >= 1" % self.index)
        else:
            _check_group_table(self.table, len(self.generators), self.index)

    @property
    def letters(self) -> tuple[str, ...]:
        """All signed letters of this subgroup, lowercase then uppercase."""
        out = []
        for g in self.generators:
            out.append(g)
            out.append(INVERSE_LETTER[g])
        return tuple(out)


def _check_group_table(table, n_letters, index):
    """Validate a finite-subgroup multiplication table: identity at 0,
    Latin rows/columns, inverses, associativity."""
    n = n_letters + 1
    if len(table) != n or any(len(row) != n for row in table):
        raise ParseError(
            "parabolic %d: table must be %dx%d (letters + identity)" % (index, n, n)
        )
    elems = set(range(n))
    for i, row in enumerate(table):
        if set(row) != elems or set(t[i] for t in table) != elems:
            raise ParseError("parabolic %d: table is not a Latin square" % index)
    if any(table[0][j] != j or table[j][0] != j for j in range(n)):
        raise ParseError("parabolic %d: element 0 must be the identity" % index)
    for a in range(n):
        if not any(table[a][b] == 0 for b in range(n)):
            raise ParseError("parabolic %d: element %d has no inverse" % (index, a))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ParseError("parabolic %d: table is not associative" % index)


@dataclass(frozen=True)
class RelativePresentation:
    """A relative presentation: hyperbolic letters, parabolic blocks,
    optional relators and optional constant overrides."""

    label: str
    hyperbolic_generators: tuple[str, ...]
    parabolics: tuple[ParabolicDescriptor, ...]
    relators: tuple[str, ...] = ()
    constants: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for g in self.hyperbolic_generators:
            _check_generator_name(g, seen)
        for par in self.parabolics:
            for g in par.generators:
                _check_generator_name(g, seen)
        if not seen:
            raise ParseError("presentation declares no generators")
        for r in self.relators:
            if not r:
                raise ParseError("empty relator")
            for c in r:
                if c not in self.letter_kind:
                    raise UnknownLetterError("relator %r uses unknown letter %r" % (r, c))

    @cached_property
    def letter_kind(self) -> dict:
        """Map letter -> HYPERBOLIC or 1-based parabolic index (both cases)."""
        kinds = {}
        for g in self.hyperbolic_generators:
            kinds[g] = HYPERBOLIC
            kinds[INVERSE_LETTER[g]] = HYPERBOLIC
        for par in self.parabolics:
            for g in par.generators:
                kinds[g] = par.index
                kinds[INVERSE_LETTER[g]] = par.index
        return kinds

    @cached_property
    def oracles(self) -> dict:
        """Map 1-based parabolic index -> the subgroup's oracle, built once
        per presentation."""
        from .parabolic_oracles import make_oracle  # that module imports this

        return {par.index: make_oracle(par) for par in self.parabolics}

    @cached_property
    def letter_set(self) -> frozenset:
        """Every declared signed letter."""
        return frozenset(self.letter_kind)

    @cached_property
    def syllable_pattern(self) -> re.Pattern:
        """Splits a checked word into syllables in one native pass: a
        maximal run of one parabolic block's letters, or any single
        (hyperbolic) letter."""
        runs = ["[%s]+" % "".join(par.letters) for par in self.parabolics]
        return re.compile("|".join(runs + ["."]))

    @cached_property
    def block_pattern(self) -> re.Pattern:
        """Splits a word like syllable_pattern, except that a maximal run
        of hyperbolic letters is one block.  Any other character is a
        block of its own, so an unchecked word fails the letter_kind
        lookup of its first undeclared letter instead of losing it."""
        runs = ["[%s]+" % "".join(par.letters) for par in self.parabolics]
        hyperbolic = "".join(c for g in self.hyperbolic_generators
                             for c in (g, INVERSE_LETTER[g]))
        if hyperbolic:
            runs.append("[%s]+" % hyperbolic)
        return re.compile("|".join(runs + ["."]), re.DOTALL)

    @cached_property
    def normal_form_pattern(self) -> re.Pattern:
        """Fullmatches a word exactly when it is its own normal form
        (words.normalize): a hyperbolic letter never followed by its
        inverse, and every maximal parabolic run spelled in its factor's
        geodesic form (the oracle's canonical_run).  A match from a
        syllable boundary stops at the first syllable that breaks this, so
        what it spans is a normal form.  It spans declared letters only,
        and each position matches in at most one way, so the scan is
        linear in the word length."""
        alts = ["%s(?!%s)" % (c, INVERSE_LETTER[c])
                for g in self.hyperbolic_generators
                for c in (g, INVERSE_LETTER[g])]
        for orc in self.oracles.values():
            letters = "".join(orc.descriptor.letters)
            alts.append("(?:%s)(?![%s])" % (orc.canonical_run, letters))
        return re.compile("(?:%s)*" % "|".join(alts))

    @cached_property
    def dehn_table(self):
        """Dehn's algorithm for the relators (Lyndon-Schupp V.4): the map
        u -> v^-1, the shortest winning, for every r = u*v among the
        rotations of each cyclically reduced relator and its inverse with
        |u| > |r|/2, and the key lengths in ascending order.  Under C'(1/6),
        where every piece (a common prefix of two of those rotations) is
        shorter than a sixth of its relator, a nonempty freely reduced word
        with no key in it is nontrivial (Greendlinger's lemma).  Built on
        first use; a relator over a parabolic letter or a failure of
        C'(1/6) raises OracleUnavailableError."""
        from .words import free_reduce  # that module imports this one

        symmetrized = set()
        for r in self.relators:
            for c in r:
                if self.letter_kind[c] != HYPERBOLIC:
                    raise OracleUnavailableError(
                        "relator %r uses the parabolic letter %r; Dehn tables "
                        "need relators over hyperbolic letters" % (r, c))
            r = cyclic_reduce(free_reduce(r))[0]
            for s in (r, inverse(r)):
                symmetrized.update(s[i:] + s[:i] for i in range(len(s)))
        rels = sorted(symmetrized)
        worst = ""  # the longest piece of a relator that fails C'(1/6)
        for a, b in zip(rels, rels[1:]):  # neighbours share the longest pieces
            piece, r = commonprefix([a, b]), min(a, b, key=len)
            if 6 * len(piece) >= len(r) and len(piece) > len(worst):
                worst, relator = piece, r
        if worst:
            raise OracleUnavailableError(
                "presentation %r is not C'(1/6): the piece %r has %d of the %d "
                "letters of relator %r" % (self.label, worst, len(worst),
                                           len(relator), relator))
        table = {}
        for r in rels:
            for m in range(len(r) // 2 + 1, len(r) + 1):
                rep = inverse(r[m:])
                if len(rep) < len(table.get(r[:m], r)):
                    table[r[:m]] = rep
        return table, tuple(sorted({len(u) for u in table}))

    @cached_property
    def letter_rank(self) -> dict:
        """Shortlex rank of every signed letter, in declaration order with
        each lowercase letter just before its uppercase inverse."""
        order = []
        for g in self.hyperbolic_generators:
            order += [g, INVERSE_LETTER[g]]
        for par in self.parabolics:
            order += list(par.letters)
        return {c: i for i, c in enumerate(order)}

    @cached_property
    def rank_translation(self) -> dict:
        """str.translate table spelling each letter as the character of its
        shortlex rank, so translated words compare as their rank tuples."""
        return {ord(c): r for c, r in self.letter_rank.items()}

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(sorted(self.letter_kind, key=self.letter_rank.__getitem__))

    @property
    def num_parabolics(self) -> int:
        return len(self.parabolics)

    @property
    def is_free_product(self) -> bool:
        """True when there are no relators, so the group is the free product
        of the free group on the hyperbolic letters and the parabolics."""
        return not self.relators

    def classify_letter(self, c: str):
        try:
            return self.letter_kind[c]
        except KeyError:
            raise UnknownLetterError("letter %r is not declared by %r" % (c, self.label))

    def check_word(self, w: str) -> str:
        """Validate every letter of w; returns w unchanged.  The letter loop
        runs only to name the first undeclared letter."""
        if not self.letter_set.issuperset(w):
            for c in w:
                self.classify_letter(c)
        return w

    def shortlex_key(self, w: str):
        rank = self.letter_rank
        return (len(w), tuple(rank[c] for c in w))


def _check_generator_name(g, seen):
    if len(g) != 1 or g not in string.ascii_lowercase:
        raise ParseError("generator name %r must be one lowercase ASCII letter" % g)
    if g in seen:
        raise ParseError("duplicate generator %r" % g)
    seen.add(g)


def parse_presentation(text: str) -> RelativePresentation:
    """Parse the file format described in the module docstring."""
    label = None
    hyperbolic: tuple[str, ...] = ()
    parabolics = []
    relators = []
    constants = []
    # state for the parabolic block currently being read
    pending = None  # dict with kind, param, letters, table rows

    def flush():
        nonlocal pending
        if pending is None:
            return
        kind = pending["kind"]
        letters = pending["letters"]
        if letters is None:
            raise ParseError("parabolic block missing a letters line", pending["line"])
        index = len(parabolics) + 1
        if kind == "finite":
            if pending["param"] != len(letters) + 1:
                raise ParseError("finite size must be %d, one more than its "
                                 "letters" % (len(letters) + 1), pending["line"])
            desc = ParabolicDescriptor(
                index, kind, letters, table=tuple(tuple(r) for r in pending["table"])
            )
        else:
            desc = ParabolicDescriptor(index, kind, letters, rank=pending["param"])
        parabolics.append(desc)
        pending = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        if key == "group":
            if len(args) != 1:
                raise ParseError("group expects one label", line_no)
            label = args[0]
        elif key == "hyperbolic":
            flush()
            hyperbolic = tuple(args)
        elif key == "parabolic":
            flush()
            if len(args) != 2:
                raise ParseError("parabolic expects: kind and a size", line_no)
            kind = args[0]
            if kind not in PARABOLIC_KINDS:
                raise ParseError("unknown parabolic kind %r" % kind, line_no)
            try:
                param = int(args[1])
            except ValueError:
                raise ParseError("parabolic size must be an integer", line_no)
            pending = {"kind": kind, "param": param, "letters": None,
                       "table": [], "line": line_no}
        elif key == "letters":
            if pending is None:
                raise ParseError("letters line outside a parabolic block", line_no)
            pending["letters"] = tuple(args)
        elif key == "table":
            if pending is None or pending["kind"] != "finite":
                raise ParseError("table line outside a finite block", line_no)
            try:
                row = [int(x) for x in args]
            except ValueError:
                raise ParseError("table entries must be integers", line_no)
            pending["table"].append(row)
        elif key == "relator":
            flush()
            if len(args) != 1:
                raise ParseError("relator expects one word", line_no)
            relators.append(args[0])
        elif key == "constants":
            flush()
            for item in args:
                name, eq, value = item.partition("=")
                if not eq:
                    raise ParseError("constants entries look like key=value", line_no)
                try:
                    constants.append((name, int(value)))
                except ValueError:
                    raise ParseError("constant %r must be an integer" % name, line_no)
        else:
            raise ParseError("unknown directive %r" % key, line_no)
    flush()
    if label is None:
        raise ParseError("missing group line")
    return RelativePresentation(
        label, hyperbolic, tuple(parabolics), tuple(relators), tuple(constants)
    )


def serialize_presentation(p: RelativePresentation) -> str:
    """Canonical text for p; parse(serialize(p)) == p."""
    out = ["group %s" % p.label]
    if p.hyperbolic_generators:
        out.append("hyperbolic %s" % " ".join(p.hyperbolic_generators))
    for par in p.parabolics:
        if par.kind == "finite":
            out.append("parabolic finite %d" % (len(par.generators) + 1))
            out.append("letters %s" % " ".join(par.generators))
            for row in par.table:
                out.append("table %s" % " ".join(str(x) for x in row))
        else:
            out.append("parabolic %s %d" % (par.kind, par.rank))
            out.append("letters %s" % " ".join(par.generators))
    for r in p.relators:
        out.append("relator %s" % r)
    if p.constants:
        out.append(
            "constants %s" % " ".join("%s=%d" % (k, v) for k, v in p.constants)
        )
    return "\n".join(out) + "\n"


def load_presentation(path) -> RelativePresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def presentation_hash(p: RelativePresentation) -> str:
    """Stable short hash of the canonical serialization."""
    return hashlib.sha256(serialize_presentation(p).encode()).hexdigest()[:16]
