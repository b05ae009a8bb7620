"""Brute-force ground truth on the Cayley graph and its coned-off variant.

Everything here is computed by exhaustive enumeration over relconj.reference,
which spells normal forms and syllables by their definitions, so it shares
no code with the curve shortening or words.normalize and can verify them.
The normal form decides equality of group elements, so the oracle serves
relator-free presentations only: with relators every entry point raises
:class:`OracleUnavailableError`.  The independent check of the relator path
is its relator-free twin presentation.

The coned-off graph is realized on a finite induced vertex set: the ordinary
ball of a chosen radius, with an edge for every generator and an edge between
any two distinct elements of a common left parabolic coset.  Distances stay
integer valued.  A hyperbolicity estimator is exhaustive over that finite
window and is therefore a lower bound for the true constant; it is labeled
with the radius it used.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, wraps

from . import reference
from .errors import BudgetExceededError
from .presentation import (DEFAULT_BUDGET, HYPERBOLIC, RelativePresentation,
                           inverse)


def _cached(maxsize):
    """lru_cache for f(p, x, budget=None) keyed on (p, x, budget) however
    budget is passed, so that no ball is held twice; f.cache_clear() frees
    the entries."""
    def decorate(f):
        cached = lru_cache(maxsize)(f)
        call = wraps(f)(lambda p, x, budget=None: cached(p, x, budget))
        call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
        return call
    return decorate


_FREE_PRODUCTS_ONLY = "the ball oracle serves free products only"


def normal_form(p: RelativePresentation, w: str) -> str:
    """Canonical representative of the element of w: the syllable normal
    form, by its definition (reference.normal_form)."""
    p.require_free_product(_FREE_PRODUCTS_ONLY)
    return reference.normal_form(p, w)


class BallIndex:
    """All elements of a ball, keyed by canonical word in shortlex order."""

    __slots__ = ("dist",)

    def __init__(self, dist: dict):
        self.dist = dist  # canonical word -> graph distance from the identity

    @property
    def elements(self) -> list:
        return list(self.dist)

    def __len__(self):
        return len(self.dist)

    def __contains__(self, rep):
        return rep in self.dist


@_cached(128)
def ball(p: RelativePresentation, r: int, budget=None) -> BallIndex:
    """Breadth-first ball of radius r, its words sorted into shortlex order
    once, here, for every caller; distances are exact word lengths.

    Cached per (p, r, budget), at most 128 entries, each holding up to
    budget canonical words (BudgetExceededError beyond that);
    ball.cache_clear() frees them."""
    p.require_free_product(_FREE_PRODUCTS_ONLY)
    budget = DEFAULT_BUDGET if budget is None else budget
    dist = {"": 0}
    frontier = [""]
    for depth in range(1, r + 1):
        nxt = []
        for w in frontier:
            for c in p.alphabet:
                nf = reference.normal_form(p, w + c)
                if nf not in dist:
                    dist[nf] = depth
                    nxt.append(nf)
                    if len(dist) > budget:
                        raise BudgetExceededError("ball(%d)" % r, budget)
        frontier = nxt
    order = sorted(dist, key=p.shortlex_key)
    return BallIndex({w: dist[w] for w in order})


def gamma_length(p: RelativePresentation, w: str) -> int:
    """Distance from the identity in the ordinary Cayley graph."""
    return len(normal_form(p, w))


# ---------------------------------------------------------------------------
# coned-off graph


def _coset_key(p, w, kind):
    """Canonical name of the left coset w * P_kind, w a normal form: w
    with its trailing run of that block stripped."""
    i = len(w)
    while i > 0 and p.letter_kind.get(w[i - 1]) == kind:
        i -= 1
    return w[:i]


class ConedGraph:
    """The coned-off graph induced on the ball of a radius: generator edges
    plus an edge between any two distinct elements of a common left coset of
    a parabolic subgroup (cosets realized as cliques).

    Vertices are grouped by _coset_key, which names each coset g0*P by its
    shortest element g0.  In a free product the part of g0*P inside the
    ball of radius R is g0 times the factor's ball of radius R - |g0|
    (Lyndon-Schupp IV.1.4), which single letters of P connect, so the
    cliques are exactly what those letter edges connect inside the ball.
    Vertices come in the ball's shortlex order, cliques by parabolic, then
    by first member, each listing its members in vertex order."""

    def __init__(self, p, radius, budget=None):
        self.p = p
        self.index = index = ball(p, radius, budget=budget)
        self.verts = index.elements
        self._id = {v: i for i, v in enumerate(self.verts)}
        self.adj = [[] for _ in self.verts]
        for i, v in enumerate(self.verts):
            for c in p.alphabet:
                j = self._id.get(reference.normal_form(p, v + c))
                if j is not None and j != i:
                    self.adj[i].append(j)
        cosets = {}
        for par in p.parabolics:
            for i, v in enumerate(self.verts):
                key = (par.index, _coset_key(p, v, par.index))
                cosets.setdefault(key, []).append(i)
        self.cliques = [members for members in cosets.values() if len(members) > 1]
        self.vert_cliques = [[] for _ in self.verts]
        for ci, members in enumerate(self.cliques):
            for i in members:
                self.vert_cliques[i].append(ci)

    def vertex(self, w):
        return self._id.get(normal_form(self.p, w))

    def bfs(self, source: int):
        """Distances and deterministic parents from one vertex."""
        dist = [-1] * len(self.verts)
        parent = [-1] * len(self.verts)
        burst = [False] * len(self.cliques)
        dist[source] = 0
        queue = deque([source])
        while queue:
            i = queue.popleft()
            for j in self.adj[i]:
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    parent[j] = i
                    queue.append(j)
            for ci in self.vert_cliques[i]:
                if burst[ci]:
                    continue
                burst[ci] = True
                for j in self.cliques[ci]:
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        parent[j] = i
                        queue.append(j)
        return dist, parent

    def path(self, parent, source, target):
        out = [target]
        while out[-1] != source:
            out.append(parent[out[-1]])
        out.reverse()
        return out


@_cached(64)
def _coned_graph(p, radius, budget=None) -> ConedGraph:
    """The coned-off graph on the ball of the radius, cached per (p,
    radius, budget): at most 64 graphs, each over up to budget vertices
    with their generator edges and coset cliques (and it keeps the cached
    ball alive); _coned_graph.cache_clear() frees them."""
    return ConedGraph(p, radius, budget=budget)


def relative_length(p: RelativePresentation, w: str) -> int:
    """Exact distance from the identity in the coned-off graph: the
    syllable count of the normal form.  Each hyperbolic letter is one
    generator edge and each parabolic syllable one coset edge, and a free
    product admits no shortcut; tests check it against ConedGraph.bfs."""
    return len(reference.syllables(p, normal_form(p, w)))


def is_relative_geodesic(p: RelativePresentation, w: str) -> bool:
    """True iff the path labeled by w is a relative geodesic as written:
    every parabolic run is geodesic in its subgroup and the syllable count
    of w equals the relative distance between its endpoints."""
    sylls = reference.syllables(p, w)
    return (all(kind == HYPERBOLIC
                or len(reference.normal_form(p, s)) == len(s)
                for kind, s, _ in sylls)
            and len(sylls) == relative_length(p, w))


# ---------------------------------------------------------------------------
# conjugacy by exhaustion


def brute_conjugate(p: RelativePresentation, u: str, v: str, max_len: int,
                    budget=None):
    """Shortest g (shortlex ties) with g*u*g^-1 = v and |g| <= max_len."""
    target = reference.normal_form(p, v)
    for g in ball(p, max_len, budget=budget).dist:
        if reference.normal_form(p, g + u + inverse(g)) == target:
            return g
    return None


@_cached(32)
def conjugacy_classes(p: RelativePresentation, radius: int,
                      budget=None) -> dict:
    """Partition of the ball of a radius into conjugacy classes, by
    reference.conjugacy_key.  The ball is walked in shortlex order, so each
    class representative, the first member met, is its shortlex least.
    Returns a map from canonical word to its class representative.

    Cached per (p, radius, budget), at most 32 maps, each of up to budget
    words; conjugacy_classes.cache_clear() frees them.
    """
    reps = {}
    return {w: reps.setdefault(reference.conjugacy_key(p, w), w)
            for w in ball(p, radius, budget=budget).dist}


# ---------------------------------------------------------------------------
# estimators


def estimate_delta(p: RelativePresentation, r: int, budget=None) -> int:
    """Smallest integer d such that every canonical geodesic triangle with
    vertices of relative length <= r (and ordinary length <= 2r) is d-thin
    in the coned-off graph.  A lower bound for the true constant;
    exhaustive within the stated window."""
    graph = _coned_graph(p, max(1, 2 * r), budget)
    bfs = lru_cache(None)(graph.bfs)  # (dist, parent) per source vertex
    base_dist = bfs(graph.vertex(""))[0]
    vset = [i for i in range(len(graph.verts)) if 0 <= base_dist[i] <= r]

    best = 0
    for ai, a in enumerate(vset):
        parent_a = bfs(a)[1]
        for bi in range(ai + 1, len(vset)):
            b = vset[bi]
            parent_b = bfs(b)[1]
            side_ab = graph.path(parent_a, a, b)
            for c in vset[bi + 1:]:
                side_bc = graph.path(parent_b, b, c)
                side_ac = graph.path(parent_a, a, c)
                for side, others in (
                    (side_ab, side_bc + side_ac),
                    (side_bc, side_ab + side_ac),
                    (side_ac, side_ab + side_bc),
                ):
                    other = set(others)
                    for x in side:
                        if x in other:
                            continue
                        dx = bfs(x)[0]
                        gap = min(dx[y] for y in other)
                        if gap > best:
                            best = gap
    return best
