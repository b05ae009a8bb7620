"""Pluggable solvers for the parabolic subgroups.

Each parabolic factor gets an oracle exposing the handful of subgroup-local
questions the main algorithms need: triviality, canonical geodesic forms,
conjugacy with witness, and ball sizes.  Oracles also expose a small
accumulator interface, push and state_word, so that cyclic shortening's
end pass can fold two end runs into one and the Dehn pass a run into the
one below it, with one call per run.  words.normalize folds runs in its
own packed integers instead: push builds its letter table once per
presentation and word-length base, and state_word spells the runs it
leaves:

- ``push(state, run)`` returns the state of the element times the word run,
  in time linear in len(run).  None is the state of the identity, both as
  the argument (start a new element) and as the result (the product is
  trivial, so the caller drops the run);
- ``state_word(state)`` only reads a state that is not None: the canonical
  geodesic word of its element.

States may be mutable, and push may update the state it is given and return
it.  So a state belongs to the caller that started it with push(None, ...):
after push(state, run) that caller keeps only the returned state, and it
never lets two runs share one state.

Every oracle also lists its ``forbidden_factors``: the words of one or two
letters that no run spelled in its geodesic form contains.  Each kind's
canonical runs are a strictly local language (McNaughton and Papert 1971),
so a run is canonical exactly when it contains none of them, and one search
for the first such factor recognises a normal form (see
RelativePresentation.fault_pattern):

- free abelian: signed generator powers in declaration order are exactly
  the runs in which no letter meets its inverse and none is followed by a
  letter of an earlier generator;
- free: a run is freely reduced when no letter meets its inverse;
- finite: a canonical run is one generator letter, so no other letter
  and no two letters of the factor occur.

Three kinds are provided: ``free_abelian`` (exponent vectors), ``free``
(reduced words) and ``finite`` (multiplication table, generating set = all
nontrivial elements).  Each counts its ball in closed form (ball_size).
"""

from __future__ import annotations

from math import comb

from .errors import UnknownLetterError
from .presentation import (
    INVERSE_LETTER,
    ParabolicDescriptor,
    cyclic_reduce,
    inverse,
)


class ParabolicOracle:
    """Interface shared by the solver kinds; see subclasses."""

    # the one- and two-letter words that no geodesic-form run contains
    forbidden_factors: tuple[str, ...]

    def __init__(self, descriptor: ParabolicDescriptor):
        self.descriptor = descriptor
        # str.translate table deleting the subgroup's signed letters
        self._deletion = dict.fromkeys(map(ord, descriptor.letters))

    # -- accumulator interface ------------------------------------------
    def push(self, state, run):
        """The state of state's element times the word run, with None for
        the identity (see the module docstring for who owns state)."""
        raise NotImplementedError

    def state_word(self, state) -> str:
        """Canonical geodesic word for an accumulated element other than
        the identity."""
        raise NotImplementedError

    # -- word-level operations ------------------------------------------
    def _check(self, w):
        """The first letter that _deletion leaves is the first foreign one."""
        rest = w.translate(self._deletion)
        if rest:
            raise UnknownLetterError("letter %r is foreign to parabolic %d"
                                     % (rest[0], self.descriptor.index))

    def geodesic_form(self, w: str) -> str:
        self._check(w)
        state = self.push(None, w)
        return "" if state is None else self.state_word(state)

    def conjugate(self, p: str, q: str):
        """A word t with t*p*t^-1 = q in the subgroup, or None."""
        raise NotImplementedError

    def ball_size(self, r: int) -> int:
        """The number of elements of subgroup length <= r, counted without
        building a word."""
        raise NotImplementedError


class FreeAbelianOracle(ParabolicOracle):
    """Z^rank with exponent-vector states (lists updated in place);
    geodesic forms list the generators in declaration order with sign
    carried by case."""

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self._index = {}
        self._signed = []  # (generator, its inverse) in declaration order
        for j, g in enumerate(descriptor.generators):
            self._index[g] = (j, 1)
            self._index[INVERSE_LETTER[g]] = (j, -1)
            self._signed.append((g, INVERSE_LETTER[g]))
        # a letter followed by its inverse or by a letter of an earlier
        # generator: 2k^2 pairs for rank k
        letters = descriptor.letters  # each generator, then its inverse
        self.forbidden_factors = tuple(
            a + b for i, a in enumerate(letters)
            for b in (INVERSE_LETTER[a],) + letters[: i - i % 2])

    def push(self, state, run):
        if state is None:
            state = [0] * len(self.descriptor.generators)
        index = self._index
        for c in run:
            j, sign = index[c]
            state[j] += sign
        return state if any(state) else None

    def state_word(self, state):
        return "".join([g * e if e > 0 else g_inv * -e
                        for (g, g_inv), e in zip(self._signed, state)])

    def conjugate(self, p, q):
        self._check(p + q)
        return "" if self.push(None, p) == self.push(None, q) else None

    def ball_size(self, r):
        # i nonzero coordinates: their places, signs, and a composition of
        # at most r into i positive parts
        k = len(self.descriptor.generators)
        return sum(2 ** i * comb(k, i) * comb(r, i) for i in range(k + 1))


class FreeOracle(ParabolicOracle):
    """Free group on the block letters; states are lists of the letters of
    the freely reduced word, extended and cancelled in place."""

    def __init__(self, descriptor):
        super().__init__(descriptor)
        # a letter followed by its inverse
        self.forbidden_factors = tuple(c + INVERSE_LETTER[c]
                                       for c in descriptor.letters)

    def push(self, state, run):
        if state is None:
            state = []
        inv = INVERSE_LETTER
        for c in run:
            if state and state[-1] == inv[c]:
                state.pop()
            else:
                state.append(c)
        return state or None

    def state_word(self, state):
        return "".join(state)

    def conjugate(self, p, q):
        rp = self.geodesic_form(p)  # geodesic_form checks the letters
        rq = self.geodesic_form(q)
        cp, ap = cyclic_reduce(rp)
        cq, aq = cyclic_reduce(rq)
        if len(cp) != len(cq):
            return None
        # the least k with cq = cp[k:] + cp[:k]: the first occurrence of cq
        # in cp + cp (one substring search, linear in the worst case)
        k = (cp + cp).find(cq)
        if k < 0:
            return None
        # cq = s^-1 cp s for the prefix s, so t = aq s^-1 ap^-1
        s = cp[:k]
        return self.geodesic_form(aq + inverse(s) + inverse(ap))

    def ball_size(self, r):
        # 2k words of length 1, each extended by 2k - 1 letters per step
        k = len(self.descriptor.generators)
        if k == 1:
            return 2 * r + 1
        return 1 + k * ((2 * k - 1) ** r - 1) // (k - 1)


class FiniteOracle(ParabolicOracle):
    """Finite subgroup given by its multiplication table.  Every
    nontrivial element is a generator, so geodesics have length <= 1."""

    def __init__(self, descriptor):
        super().__init__(descriptor)
        table = descriptor.table
        n = len(table)
        inv = [0] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inv[a] = b
        self._table = table
        self._inv = inv
        self._elt = {}
        for j, g in enumerate(descriptor.generators):
            self._elt[g] = j + 1
            self._elt[INVERSE_LETTER[g]] = inv[j + 1]
        # every nontrivial element is spelled as one generator letter: any
        # other letter, and any generator followed by a letter
        self.forbidden_factors = tuple(
            [c for c in descriptor.letters if c not in descriptor.generators]
            + [g + c for g in descriptor.generators
               for c in descriptor.letters])

    def push(self, state, run):
        # element 0 is the identity, which the interface spells None
        table, elt = self._table, self._elt
        state = state or 0
        for c in run:
            state = table[state][elt[c]]
        return state or None

    def state_word(self, state):
        return "" if state == 0 else self.descriptor.generators[state - 1]

    def conjugate(self, p, q):
        self._check(p + q)
        ep = self.push(None, p) or 0
        eq = self.push(None, q) or 0
        for t in range(len(self._table)):
            if self._table[self._table[t][ep]][self._inv[t]] == eq:
                return self.state_word(t)
        return None

    def ball_size(self, r):
        return 1 if r <= 0 else len(self._table)


_KIND_TO_CLASS = {
    "free_abelian": FreeAbelianOracle,
    "free": FreeOracle,
    "finite": FiniteOracle,
}


def make_oracle(descriptor: ParabolicDescriptor) -> ParabolicOracle:
    return _KIND_TO_CLASS[descriptor.kind](descriptor)
