"""Pluggable solvers for the parabolic subgroups.

Each parabolic factor gets an oracle exposing the handful of subgroup-local
questions the main algorithms need: triviality, canonical geodesic forms,
conjugacy with witness, and ball enumeration.  Oracles also expose a small
accumulator interface (``identity_state`` / ``push`` / ...) so that word
normalization can fold a parabolic run into a subgroup element in one pass.

Three kinds are provided: ``free_abelian`` (exponent vectors), ``free``
(reduced words) and ``finite`` (multiplication table, generating set = all
nontrivial elements).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import UnknownLetterError
from .presentation import (
    ParabolicDescriptor,
    RelativePresentation,
    cyclic_reduce,
    inverse,
    inverse_letter,
)


class ParabolicOracle:
    """Interface shared by the solver kinds; see subclasses."""

    def __init__(self, descriptor: ParabolicDescriptor):
        self.descriptor = descriptor
        self.letters = frozenset(descriptor.letters)
        # local shortlex rank: declaration order, lowercase before uppercase
        self._rank = {c: i for i, c in enumerate(descriptor.letters)}

    # -- accumulator interface ------------------------------------------
    def identity_state(self):
        raise NotImplementedError

    def push(self, state, letter):
        raise NotImplementedError

    def state_is_identity(self, state) -> bool:
        raise NotImplementedError

    def state_word(self, state) -> str:
        """Canonical geodesic word for the accumulated element."""
        raise NotImplementedError

    # -- word-level operations ------------------------------------------
    def state_of(self, w: str):
        s = self.identity_state()
        for c in w:
            s = self.push(s, c)
        return s

    def _check(self, w):
        for c in w:
            if c not in self.letters:
                raise UnknownLetterError(
                    "letter %r is foreign to parabolic %d" % (c, self.descriptor.index)
                )

    def trivial(self, w: str) -> bool:
        self._check(w)
        return self.state_is_identity(self.state_of(w))

    def geodesic_form(self, w: str) -> str:
        self._check(w)
        return self.state_word(self.state_of(w))

    def length(self, w: str) -> int:
        return len(self.geodesic_form(w))

    def conjugate(self, p: str, q: str):
        """A word t with t*p*t^-1 = q in the subgroup, or None."""
        raise NotImplementedError

    def ball(self, r: int) -> list:
        """Canonical words of all elements of subgroup length <= r,
        shortlex sorted."""
        raise NotImplementedError

    def shortlex_key(self, w: str):
        return (len(w), tuple(self._rank[c] for c in w))

    def min_conjugator(self, p: str, q: str):
        """Shortest t (shortlex ties) with t*p*t^-1 = q, or None."""
        t = self.conjugate(p, q)
        if t is None:
            return None
        target = self.geodesic_form(q)
        for cand in self.ball(len(t)):
            if self.geodesic_form(cand + p + inverse(cand)) == target:
                return cand
        return t

    def conjugacy_bound(self, radius: int) -> int:
        """Max over conjugate pairs in ball(radius) of the shortest
        conjugator length; 0 when the ball has no nontrivial pairs."""
        members = self.ball(radius)
        best = 0
        for i, p in enumerate(members):
            for q in members[i:]:
                t = self.min_conjugator(p, q)
                if t is not None:
                    best = max(best, len(t))
        return best


class FreeAbelianOracle(ParabolicOracle):
    """Z^rank with exponent-vector states; geodesic forms list the
    generators in declaration order with sign carried by case."""

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self._index = {}
        for j, g in enumerate(descriptor.generators):
            self._index[g] = (j, 1)
            self._index[inverse_letter(g)] = (j, -1)
        self._zero = (0,) * descriptor.rank

    def identity_state(self):
        return self._zero

    def push(self, state, letter):
        j, sign = self._index[letter]
        return state[:j] + (state[j] + sign,) + state[j + 1 :]

    def state_is_identity(self, state):
        return state == self._zero

    def state_word(self, state):
        parts = []
        for j, e in enumerate(state):
            g = self.descriptor.generators[j]
            parts.append((g if e > 0 else inverse_letter(g)) * abs(e))
        return "".join(parts)

    def conjugate(self, p, q):
        return "" if self.state_of(p) == self.state_of(q) else None

    def ball(self, r):
        out = []

        def rec(j, remaining, state):
            if j == self.descriptor.rank:
                out.append(self.state_word(state))
                return
            for e in range(-remaining, remaining + 1):
                rec(j + 1, remaining - abs(e), state + (e,))

        rec(0, r, ())
        out.sort(key=self.shortlex_key)
        return out


class FreeOracle(ParabolicOracle):
    """Free group on the block letters; states are reduced letter tuples."""

    def identity_state(self):
        return ()

    def push(self, state, letter):
        if state and state[-1] == inverse_letter(letter):
            return state[:-1]
        return state + (letter,)

    def state_is_identity(self, state):
        return not state

    def state_word(self, state):
        return "".join(state)

    def conjugate(self, p, q):
        self._check(p)
        self._check(q)
        rp = self.geodesic_form(p)
        rq = self.geodesic_form(q)
        cp, ap = cyclic_reduce(rp)
        cq, aq = cyclic_reduce(rq)
        if len(cp) != len(cq):
            return None
        for k in range(max(len(cp), 1)):
            if cp[k:] + cp[:k] == cq:
                # cq = s^-1 cp s for the prefix s, so t = aq s^-1 ap^-1
                s = cp[:k]
                return self.geodesic_form(aq + inverse(s) + inverse(ap))
        return None

    def ball(self, r):
        out = [""]
        frontier = [""]
        for _ in range(r):
            nxt = []
            for w in frontier:
                for c in self.descriptor.letters:
                    if w and w[-1] == inverse_letter(c):
                        continue
                    nxt.append(w + c)
            out += nxt
            frontier = nxt
        out.sort(key=self.shortlex_key)
        return out


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
            self._elt[inverse_letter(g)] = inv[j + 1]

    def identity_state(self):
        return 0

    def push(self, state, letter):
        return self._table[state][self._elt[letter]]

    def state_is_identity(self, state):
        return state == 0

    def state_word(self, state):
        return "" if state == 0 else self.descriptor.generators[state - 1]

    def conjugate(self, p, q):
        ep = self.state_of(self._check(p) or p)
        eq = self.state_of(q)
        self._check(q)
        for t in range(len(self._table)):
            if self._table[self._table[t][ep]][self._inv[t]] == eq:
                return self.state_word(t)
        return None

    def ball(self, r):
        if r <= 0:
            return [""]
        return [""] + list(self.descriptor.generators)


_KIND_TO_CLASS = {
    "free_abelian": FreeAbelianOracle,
    "free": FreeOracle,
    "finite": FiniteOracle,
}


def make_oracle(descriptor: ParabolicDescriptor) -> ParabolicOracle:
    return _KIND_TO_CLASS[descriptor.kind](descriptor)


@lru_cache(maxsize=None)
def oracles_for(p: RelativePresentation) -> dict:
    """Map 1-based parabolic index -> oracle, cached per presentation."""
    return {par.index: make_oracle(par) for par in p.parabolics}
