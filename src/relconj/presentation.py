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

The ``group`` line, the ``hyperbolic`` line and each block's ``letters``
line appear at most once.  A block's letters line names at least one
letter, and the size of a ``free`` or ``free_abelian`` block is its
number of letters.

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

import re
from functools import cached_property
from os.path import commonprefix

from .errors import OracleUnavailableError, ParseError, UnknownLetterError

HYPERBOLIC = "hyp"

PARABOLIC_KINDS = ("free_abelian", "free", "finite")

DEFAULT_BUDGET = 1_000_000  # element budget of an enumeration given none


# The inverse of every ASCII letter, for the per-letter loops of the word
# kernels.  It holds letters only, so a kernel that indexes it must run
# after check_word has rejected anything undeclared.
LOWERCASE = "abcdefghijklmnopqrstuvwxyz"
INVERSE_LETTER = {c: c.swapcase() for c in LOWERCASE + LOWERCASE.upper()}
# The same as a str.translate table, which passes any other character
# through; on ASCII words translate takes its native fast path.
INVERSE_TRANSLATION = str.maketrans(INVERSE_LETTER)


def inverse(w: str) -> str:
    """The plain inverse of w: reversed, each letter's case swapped, in
    two native passes (466 letters: 1.8 us; 4096 letters: 11 us; Python
    3.11.7)."""
    return w[::-1].translate(INVERSE_TRANSLATION)


def common_suffix(u: str, v: str, top: int) -> int:
    """The length of the longest common suffix of u and v, at most top, by
    native endswith compares of doubling lengths and then halving ones:
    O(log x) Python steps and O(x) letter compares for a suffix of x
    letters.  Most words end apart, so the last letters are compared
    first, and then the whole of top: a rotation conjugator is a suffix of
    its cyclic form."""
    if not top or u[-1] != v[-1]:
        return 0
    m, n = len(u), len(v)
    if u.endswith(v[n - top :]):
        return top
    lo, step = 1, 1  # the last lo letters are known to agree
    while True:  # ends before hi reaches top: the top letters disagree
        hi = min(lo + step, top)
        if not u.endswith(v[n - hi : n - lo], 0, m - lo):
            break
        lo, step = hi, 2 * step
    while hi - lo > 1:  # lo letters agree and hi do not
        mid = (lo + hi) // 2
        if u.endswith(v[n - mid : n - lo], 0, m - lo):
            lo = mid
        else:
            hi = mid
    return lo


def cancel_length(u: str, v: str, top: int) -> int:
    """How many letters cancel where u meets v, at most top: the largest
    x <= top with u[-1 - t] the inverse of v[t] for every t < x.  Most
    joins cancel a letter or three, so the first three letters are compared
    one by one; beyond them it is the common suffix of u and the inverse of
    v's first top letters.  v must hold letters only (INVERSE_LETTER)."""
    m, inv = len(u), INVERSE_LETTER
    for lo in range(min(top, 3)):
        if u[m - 1 - lo] != inv[v[lo]]:
            return lo
    if top <= 3:
        return top
    return common_suffix(u, inverse(v[:top]), top)


def free_reduce(w: str) -> str:
    inv = INVERSE_LETTER
    out = []
    for c in w:
        if out and out[-1] == inv[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def cyclic_reduce(w: str):
    """Strip mutually inverse end letters: returns (core, a) with
    w = a * core * a^-1 letter for letter."""
    if len(w) < 2 or w[0] != INVERSE_LETTER[w[-1]]:
        return w, ""
    i = cancel_length(w, w, len(w) // 2)
    return w[i : len(w) - i], w[:i]


class Frozen:
    """Base of the immutable records.  A subclass names its fields in
    _fields and its __init__ sets them once with _freeze; after that no
    attribute can be assigned or deleted.  Records compare and hash by class
    and field values, and print as ClassName(field=value, ...).  There are
    no __slots__, because cached_property stores into the instance
    __dict__."""

    _fields = ()

    def _freeze(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _values(self):
        return tuple(self.__dict__[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash((self.__class__, self._values()))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, self.__dict__[name]) for name in self._fields))


class ParabolicDescriptor(Frozen):
    """One parabolic subgroup: solver kind, parameters and letters."""

    _fields = ("index", "kind", "generators", "table")

    def __init__(self, index: int, kind: str, generators: tuple[str, ...],
                 table: tuple[tuple[int, ...], ...] = ()):
        if kind not in PARABOLIC_KINDS:
            raise ParseError("unknown parabolic kind %r" % kind)
        if kind == "finite":
            _check_group_table(table, len(generators), index)
        self._freeze(index, kind, generators, table)

    @property
    def letters(self) -> tuple[str, ...]:
        """All signed letters of this subgroup, lowercase then uppercase."""
        out = []
        for g in self.generators:
            out.append(g)
            out.append(INVERSE_LETTER[g])
        return tuple(out)


def _block_size(kind, letters):
    """The size on a parabolic line: the number of letters (the rank) of a
    free or free abelian factor, one more (the order) for a finite one."""
    return len(letters) + (kind == "finite")


def _check_group_table(table, n_letters, index):
    """Validate a finite-subgroup multiplication table: Latin rows and
    columns, identity at 0 and associativity.  Every Latin row contains 0,
    so every element has an inverse."""
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
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ParseError("parabolic %d: table is not associative" % index)


class RelativePresentation(Frozen):
    """A relative presentation: hyperbolic letters, parabolic blocks,
    optional relators and optional constant overrides."""

    _fields = ("label", "hyperbolic_generators", "parabolics", "relators",
               "constants")

    def __init__(self, label: str, hyperbolic_generators: tuple[str, ...],
                 parabolics: tuple[ParabolicDescriptor, ...],
                 relators: tuple[str, ...] = (),
                 constants: tuple[tuple[str, int], ...] = ()):
        self._freeze(label, hyperbolic_generators, parabolics, relators,
                     constants)
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
            rest = r.translate(self.declared_deletion)
            if rest:
                raise UnknownLetterError(
                    "relator %r uses unknown letter %r" % (r, rest[0]))

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
    def exponent_sum_pairs(self) -> tuple:
        """(g, G) for every hyperbolic, free-factor and free abelian
        generator g, in declaration order.  Without relators each exponent
        sum, the count of g in a word less the count of G, is a homomorphism
        from the free product to Z (Lyndon-Schupp IV.1), so a word for which
        one of them is not zero is not trivial.  A finite factor's letters
        have no pair: their element's image is not a function of letter
        counts."""
        gens = self.hyperbolic_generators + tuple(
            g for par in self.parabolics if par.kind != "finite"
            for g in par.generators)
        return tuple((g, INVERSE_LETTER[g]) for g in gens)

    @cached_property
    def oracles(self) -> dict:
        """Map 1-based parabolic index -> the subgroup's oracle, built once
        per presentation."""
        from .parabolic_oracles import make_oracle  # that module imports this

        return {par.index: make_oracle(par) for par in self.parabolics}

    @cached_property
    def declared_deletion(self) -> dict:
        """str.translate table deleting every declared signed letter: a
        word translated by it keeps just its undeclared letters, so it is
        empty exactly for a declared word, after one native pass."""
        return dict.fromkeys(map(ord, self.letter_kind))

    @cached_property
    def declared_letters(self) -> bytes:
        """The ASCII codes of the declared signed letters, for a
        bytes.translate deletion: an ASCII word's codes keep just its
        undeclared letters' (words.declared_codes)."""
        return "".join(self.letter_kind).encode()

    @cached_property
    def run_letters(self) -> dict:
        """Map 1-based parabolic index -> its signed letters as one
        string, for character classes and str.strip."""
        return {par.index: "".join(par.letters) for par in self.parabolics}

    @cached_property
    def _run_factor_letters(self) -> list:
        """The signed letters of each factor whose syllables are runs (free
        and free abelian), one string a factor, in declaration order."""
        return [self.run_letters[par.index] for par in self.parabolics
                if par.kind != "finite"]

    @cached_property
    def _syllable_cuts(self):
        """The str.replace cuts of normal_syllables, as (old, new) pairs:
        a space on each side of every letter that is a syllable of its own
        in a normal form (hyperbolic and finite-factor letters), and a space
        between two adjacent letters of two different factors whose
        syllables are runs (free and free abelian).  None when no factor has
        runs, so that every letter is a syllable."""
        runs = self._run_factor_letters
        if not runs:
            return None
        in_runs = "".join(runs)
        cuts = [(c, " %s " % c) for c in self.letter_kind if c not in in_runs]
        cuts += [(a + b, "%s %s" % (a, b)) for left in runs
                 for right in runs if left != right
                 for a in left for b in right]
        return cuts

    @cached_property
    def count_syllables(self):
        """len(normal_syllables(nf)) for a normal form nf, without the
        split: len where no factor has runs, else a function that translates
        the ASCII codes of "." + nf to a kind mask, "." for a letter that is
        a syllable of its own and one mark for each factor whose syllables
        are runs, and counts the dots, less the first, and the run starts,
        each after a dot or another factor's mark, with native bytes.count
        passes: 2.0 us on a 512-letter normal form of Z * Z^2, against 2.3
        us for str.translate with a dict, and 3.0 us on the class codes of
        fault_classes, which give x and y two classes and so take a third
        count."""
        runs = self._run_factor_letters
        if not runs:
            return len
        marks = bytes(range(48, 48 + len(runs)))  # b"01..."
        kinds = bytes(next((mark for mark, letters in zip(marks, runs)
                            if c in letters), 46)  # 46: "."
                      for c in self.letter_kind)
        mask = bytes.maketrans(self.declared_letters, kinds)
        found = [b"."] + [bytes([a, b]) for a in b"." + marks for b in marks
                          if a != b]

        def count(nf):
            n, m = -1, (b"." + nf.encode()).translate(mask)
            for f in found:
                n += m.count(f)
            return n
        return count

    def normal_syllables(self, nf: str) -> list:
        """The syllables of the normal form nf, each hyperbolic letter
        alone and each maximal run of one factor's letters whole, as
        reference.syllables splits it, in native string passes: the cached
        replace cuts and one split, or list(nf) when no factor has runs.
        Only a normal form: a finite factor's run of two letters or more
        (tt in Z * C2), which no normal form has, is cut into letters.  So
        normalize reads the raw words it folds letter by letter, and the
        ground truth splits any word with reference.syllables."""
        cuts = self._syllable_cuts
        if cuts is None:
            return list(nf)
        for old, new in cuts:
            nf = nf.replace(old, new)
        return nf.split()

    @cached_property
    def fault_factors(self) -> tuple:
        """The factors of one or two letters that no normal form contains:
        a hyperbolic letter followed by its inverse, and each parabolic
        oracle's forbidden_factors (parabolic_oracles).  A declared word is
        its own normal form (words.normalize) exactly when it contains none
        of them, since every factor's geodesic-form runs are those without
        its forbidden factors.  From a syllable boundary, the normal-form
        stretch ends at the first of them, or at the start of the parabolic
        run it lies in.  normalize finds them with a fixed set of native
        finds (words.first_fault, fault_classes), a word shorter than
        words._FIND_LETTERS with fault_pattern."""
        factors = [c + INVERSE_LETTER[c] for g in self.hyperbolic_generators
                   for c in (g, INVERSE_LETTER[g])]
        for orc in self.oracles.values():
            factors += orc.forbidden_factors
        return tuple(factors)

    @cached_property
    def fault_classes(self) -> tuple:
        """(table, patterns): a bytes.translate table from each declared
        letter's ASCII code to its class code, and the class strings whose
        finds, beside words.first_fault's find of inverse pairs, find every
        fault factor.  In every factor kind a letter followed by its inverse
        is a fault (or its first letter is one alone), so the factors left
        are the single-letter faults (a finite factor's upper-case letters),
        which share one class, and the pairs of other letters that are not
        inverses.  Two letters share a class when they are of one factor,
        or both hyperbolic, and such a pair tells them apart neither as its
        first letter nor as its second; the patterns are the single-letter
        class and the classes of those pairs: one, "21" (y or Y before x or
        X), on Z * Z^2, none on the free group.  A pair whose second letter
        is a fault alone is found from that letter, one back (first_fault).
        Checked here: the patterns cover exactly those faults.  The first
        word of words._FIND_LETTERS letters or more on a presentation pays
        for the build: 28 us on Z * Z^2 and 12 us on the free group."""
        faults, inv = set(self.fault_factors), INVERSE_LETTER
        found = {f for f in faults  # the faults the pair patterns find
                 if len(f) == 2 and f[1] != inv[f[0]]
                 and f[0] not in faults and f[1] not in faults}
        after, before = {}, {}  # each letter's partners in those faults
        for a, b in found:
            after[a] = after.get(a, "") + b
            before[b] = before.get(b, "") + a
        keys, code = {}, {}
        for c, kind in self.letter_kind.items():
            key = "single" if c in faults else (
                kind, frozenset(after.get(c, "")),
                frozenset(before.get(c, "")))
            code[c] = keys.setdefault(key, 48 + len(keys))
        pairs = {(code[a], code[b]) for a, b in found}
        # every pair the passes flag is a fault and the other way round; a
        # pair that ends in a single-letter fault is found from that letter
        missed = [a + b for a in code if a not in faults for b in code
                  if (b not in faults or b == inv[a])
                  and (b == inv[a] or (code[a], code[b]) in pairs)
                  is not (a + b in faults)]
        if missed:
            raise AssertionError("fault classes of %r miss %r"
                                 % (self.label, missed[0]))
        table = bytearray(256)  # an undeclared letter: NUL
        for c, k in code.items():
            table[ord(c)] = k
        single = [bytes([code[c]]) for c in code if c in faults][:1]
        return bytes(table), tuple(single + [bytes(t) for t in sorted(pairs)])

    @cached_property
    def fault_pattern(self) -> re.Pattern:
        """Searches for the first fault of a word: one of fault_factors, or
        an undeclared character.  There is one alternative per letter that
        starts a fault (y[xXY]), and one class for the undeclared
        characters, so each position is tried against each alternative once
        and the scan is linear.  On a short word one search costs less than
        the passes of words.fault_finds (words._FIND_LETTERS)."""
        # the letters that may not follow each letter, or None where the
        # letter itself is a fault
        after = {}
        for f in self.fault_factors:
            if len(f) == 1:
                after[f] = None
            elif after.setdefault(f[0], "") is not None:
                after[f[0]] += f[1]
        alts = [c if rest is None else "%s[%s]" % (c, rest)
                for c, rest in after.items()]
        alts.append("[^%s]" % "".join(self.letter_kind))
        return re.compile("|".join(alts))

    @cached_property
    def _inverse_spelling(self):
        """The str.translate table of inverse_form, which spells each
        letter as its inverse's geodesic form (a factor letter's from its
        oracle, a hyperbolic letter's case swapped), and a pattern
        capturing the runs of two or more letters of each free abelian
        factor of rank two or more, which a reversed word spells in reverse
        generator order (None when there is none)."""
        table, runs = str.maketrans(INVERSE_LETTER), []
        for par in self.parabolics:
            orc = self.oracles[par.index]
            table.update((ord(c), orc.geodesic_form(INVERSE_LETTER[c]))
                         for c in par.letters)
            if par.kind == "free_abelian" and len(par.generators) > 1:
                runs.append("[%s]{2,}" % self.run_letters[par.index])
        return table, re.compile("(%s)" % "|".join(runs)) if runs else None

    @cached_property
    def letter_tables(self) -> dict:
        """Memo of words.letter_table: the packing base of a word length ->
        normalize's letter table for it."""
        return {}

    @cached_property
    def _last_inverse_form(self) -> list:
        """One-entry memo of inverse_form: [(w, its inverse form)]."""
        return [("", "")]

    def inverse_form(self, w: str) -> str:
        """A word for w^-1, a normal form when w is one: w's syllables in
        reverse order, each its plain inverse but a free abelian run, whose
        generator order is kept (xxYY as XXyy, not YYXX), and a finite
        letter, spelled as its inverse's letter (t for t in Z * C2).  w is
        reversed, translated once and split over free abelian runs, which
        are turned back round.  The last word spelled is remembered: a long
        positive decide asks for the inverse of its conjugator P three
        times (v's end pass, v's check, the witness check), and spells it
        once."""
        memo = self._last_inverse_form
        last, spelled = memo[0]
        if w == last:
            return spelled
        spelled = self._spell_inverse_form(w)
        memo[0] = (w, spelled)
        return spelled

    def _spell_inverse_form(self, w: str) -> str:
        table, runs = self._inverse_spelling
        w = w[::-1].translate(table)
        if runs is None:
            return w
        parts = runs.split(w)
        parts[1::2] = [run[::-1] for run in parts[1::2]]
        return "".join(parts)

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
    def rank_translation(self) -> dict:
        """str.translate table spelling each signed letter as the character
        of its shortlex rank plus one, its place in alphabet counted from 1,
        so translated words of one length compare as in shortlex order
        (shortlex_key).  The character chr(0) ranks below every letter and is
        left as it is, so cyclic shortening puts it before each syllable of
        a core as a separator (shortening.cyclic_form)."""
        return {ord(c): r for r, c in enumerate(self.alphabet, 1)}

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """Every signed letter in shortlex order: declaration order, each
        lowercase letter just before its uppercase inverse."""
        gens = self.hyperbolic_generators + tuple(
            g for par in self.parabolics for g in par.generators)
        return tuple(c for g in gens for c in (g, INVERSE_LETTER[g]))

    @property
    def is_free_product(self) -> bool:
        """True when there are no relators, so the group is the free product
        of the free group on the hyperbolic letters and the parabolics."""
        return not self.relators

    def require_free_product(self, why: str):
        """Refuse relators for what needs the free-product normal form: the
        tables, the conjugacy engine and the ball oracle.  why ends the
        message."""
        if self.relators:
            raise OracleUnavailableError(
                "presentation %r has relators; %s" % (self.label, why))

    def check_word(self, w: str) -> str:
        """Validate every letter of w; returns w unchanged.  The first letter
        that declared_deletion leaves is the first undeclared one."""
        rest = w.translate(self.declared_deletion)
        if rest:
            raise UnknownLetterError(
                "letter %r is not declared by %r" % (rest[0], self.label))
        return w

    def shortlex_key(self, w: str):
        """Sort key of the shortlex order on declared words: length first,
        then the letters' ranks (rank_translation)."""
        return (len(w), w.translate(self.rank_translation))


def _check_generator_name(g, seen):
    if len(g) != 1 or g not in LOWERCASE:
        raise ParseError("generator name %r must be one lowercase ASCII letter" % g)
    if g in seen:
        raise ParseError("duplicate generator %r" % g)
    seen.add(g)


def parse_presentation(text: str) -> RelativePresentation:
    """Parse the file format described in the module docstring."""
    label = None
    hyperbolic = None
    parabolics = []
    relators = []
    constants = []
    # state for the parabolic block currently being read
    pending = None  # dict with kind, param, letters, table rows

    def flush():
        nonlocal pending
        if pending is None:
            return
        kind, letters, line = pending["kind"], pending["letters"], pending["line"]
        if letters is None:
            raise ParseError("parabolic block missing a letters line", line)
        if not letters:
            raise ParseError("parabolic block names no letter", line)
        size = _block_size(kind, letters)
        if pending["param"] != size:
            raise ParseError("%s size must be %d, %s" % (
                kind, size, "one more than its letters" if kind == "finite"
                else "the number of its letters"), line)
        parabolics.append(ParabolicDescriptor(
            len(parabolics) + 1, kind, letters,
            tuple(tuple(r) for r in pending["table"])))
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
            if label is not None:
                raise ParseError("second group line", line_no)
            label = args[0]
        elif key == "hyperbolic":
            flush()
            if hyperbolic is not None:
                raise ParseError("second hyperbolic line", line_no)
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
            if pending["letters"] is not None:
                raise ParseError("second letters line in a parabolic block",
                                 line_no)
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
            read_constants(constants, args, line_no)
        else:
            raise ParseError("unknown directive %r" % key, line_no)
    flush()
    if label is None:
        raise ParseError("missing group line")
    return RelativePresentation(
        label, hyperbolic or (), tuple(parabolics), tuple(relators),
        tuple(constants)
    )


def serialize_presentation(p: RelativePresentation) -> str:
    """Canonical text for p; parse(serialize(p)) == p."""
    out = ["group %s" % p.label]
    if p.hyperbolic_generators:
        out.append("hyperbolic %s" % " ".join(p.hyperbolic_generators))
    for par in p.parabolics:
        out.append("parabolic %s %d" % (par.kind,
                                        _block_size(par.kind, par.generators)))
        out.append("letters %s" % " ".join(par.generators))
        out += ["table %s" % " ".join(map(str, row)) for row in par.table]
    for r in p.relators:
        out.append("relator %s" % r)
    if p.constants:
        out.append(
            "constants %s" % " ".join("%s=%d" % (k, v) for k, v in p.constants)
        )
    return "\n".join(out) + "\n"


def read_constants(pairs: list, items, line=None) -> list:
    """Append the (key, value) of each "key=value" item to pairs and return
    them: the one grammar of a constant, on a constants line, a --profile
    line and a cache's profile line.  Spaces around key and value are
    ignored.  A missing "=", a key already in pairs or a value that is not
    an integer is a ParseError naming the line."""
    for item in items:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ParseError("expected key=value", line)
        if key in dict(pairs):
            raise ParseError("constant %r given twice" % key, line)
        try:
            pairs.append((key, int(value)))
        except ValueError:
            raise ParseError("constant %r must be an integer" % key, line)
    return pairs


def read_text(path) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark;
    ParseError naming the file and the offset of the first bad byte
    otherwise.  (The utf-8-sig codec would count from after the mark.)"""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text (byte %d)"
                         % (path, exc.start)) from None


def load_presentation(path) -> RelativePresentation:
    return parse_presentation(read_text(path))


def short_hash(text: str) -> str:
    """The first 16 hex digits of the SHA-256 of text, from CPython's
    built-in module where it has one, _sha256, or _sha2 from Python 3.12
    on: hashlib would load OpenSSL's libcrypto for the same digest."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256

    return sha256(text.encode()).hexdigest()[:16]


def presentation_hash(p: RelativePresentation) -> str:
    """Stable short hash of the canonical serialization."""
    return short_hash(serialize_presentation(p))
