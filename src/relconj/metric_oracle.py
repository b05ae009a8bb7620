"""Brute-force ground truth on the Cayley graph and its coned-off variant.

Everything here is computed by exhaustive enumeration and is independent of
the curve-shortening machinery, so it can verify it.  Equality of group
elements is decided by the free-product normal form (words.normalize), so
the oracle serves relator-free presentations only: with relators every
entry point raises :class:`OracleUnavailableError`.  The independent check
of the relator path is its relator-free twin presentation.

The coned-off graph is realized on a finite induced vertex set: the ordinary
ball of a chosen radius, with an edge for every generator and an edge between
any two distinct elements of a common left parabolic coset.  Distances stay
integer valued.  Estimators (hyperbolicity constant, component bound) are
exhaustive over that finite window and are therefore lower bounds for the
true constants; they are labeled with the radius they used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

from . import words
from .errors import BudgetExceededError, OracleUnavailableError, RelconjError
from .presentation import HYPERBOLIC, INVERSE_LETTER, RelativePresentation

DEFAULT_BUDGET = 1_000_000


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


def _check_free_product(p: RelativePresentation):
    """The one guard of the oracle: relators have no normal form here."""
    if not p.is_free_product:
        raise OracleUnavailableError(
            "presentation %r has relators; the ball oracle serves free "
            "products only" % p.label)


def normal_form(p: RelativePresentation, w: str) -> str:
    """Canonical representative of the element of w: the syllable normal
    form."""
    _check_free_product(p)
    return words.normalize(p, w)


class BallIndex:
    """All elements of the ball of a radius, keyed by canonical word."""

    __slots__ = ("radius", "dist")

    def __init__(self, radius: int, dist: dict):
        self.radius = radius
        self.dist = dist  # canonical word -> graph distance from the identity

    @property
    def elements(self) -> list:
        return list(self.dist)

    def __len__(self):
        return len(self.dist)

    def __contains__(self, rep):
        return rep in self.dist

    def find(self, p, w):
        """Canonical representative of w inside this ball, or None."""
        nf = normal_form(p, w)
        return nf if nf in self.dist else None


@_cached(128)
def ball(p: RelativePresentation, r: int, budget=None) -> BallIndex:
    """Breadth-first ball of radius r; distances are exact word lengths.

    Cached per (p, r, budget), at most 128 entries, each holding up to
    budget canonical words (BudgetExceededError beyond that);
    ball.cache_clear() frees them."""
    _check_free_product(p)
    budget = DEFAULT_BUDGET if budget is None else budget
    dist = {"": 0}
    frontier = [""]
    for depth in range(1, r + 1):
        nxt = []
        for w in frontier:
            for c in p.alphabet:
                nf = words.normalize(p, w + c)
                if nf not in dist:
                    dist[nf] = depth
                    nxt.append(nf)
                    if len(dist) > budget:
                        raise BudgetExceededError("ball(%d)" % r, budget)
        frontier = nxt
    return BallIndex(r, dist)


def gamma_length(p: RelativePresentation, w: str) -> int:
    """Distance from the identity in the ordinary Cayley graph."""
    return len(normal_form(p, w))


# ---------------------------------------------------------------------------
# coned-off graph


class ConedGraph:
    """The coned-off graph induced on the ball of a radius: generator edges
    plus an edge between any two distinct elements of a common left coset of
    a parabolic subgroup (cosets realized as cliques)."""

    def __init__(self, p, radius, budget=None):
        self.p = p
        self.index = index = ball(p, radius, budget=budget)
        self.verts = sorted(index.dist, key=p.shortlex_key)
        self._id = {v: i for i, v in enumerate(self.verts)}
        self.adj = [[] for _ in self.verts]
        for i, v in enumerate(self.verts):
            for c in p.alphabet:
                j = self._id.get(words.normalize(p, v + c))
                if j is not None and j != i:
                    self.adj[i].append(j)
        # left cosets of each parabolic: union-find over right multiplication
        # by the subgroup letters (both members stay in the same coset)
        parent = {(par.index, i): (par.index, i) for par in p.parabolics
                  for i in range(len(self.verts))}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for par in p.parabolics:
            for i, v in enumerate(self.verts):
                for c in par.letters:
                    j = self._id.get(words.normalize(p, v + c))
                    if j is not None:
                        a, b = find((par.index, i)), find((par.index, j))
                        if a != b:
                            parent[a] = b
        cliques = {}
        for par in p.parabolics:
            for i in range(len(self.verts)):
                cliques.setdefault(find((par.index, i)), []).append(i)
        self.cliques = [sorted(members) for members in cliques.values() if len(members) > 1]
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


def relative_length(p: RelativePresentation, w: str, method="auto",
                    budget=None) -> int:
    """Exact distance from the identity in the coned-off graph.

    method="auto" uses the syllable count of the normal form (each
    hyperbolic letter is one edge, each parabolic syllable one coset edge;
    a free product admits no shortcut).
    method="bfs" searches the realized coned-off graph restricted to the
    ball of the normal form's length, which covers the straight path.
    """
    nf = normal_form(p, w)
    if method == "auto":
        return words.raw_relative_length(p, nf)
    graph = _coned_graph(p, max(1, len(nf)), budget)
    src = graph.vertex("")
    tgt = graph.vertex(nf)
    dist, _ = graph.bfs(src)
    if dist[tgt] < 0:
        raise RelconjError("coned ball too small for %r" % w)
    return dist[tgt]


def is_relative_geodesic(p: RelativePresentation, w: str) -> bool:
    """True iff the path labeled by w is a relative geodesic as written:
    every parabolic run is geodesic in its subgroup and the syllable count
    of w equals the relative distance between its endpoints."""
    oracles = p.oracles
    sylls = words.raw_syllables(p, w)
    for s in sylls:
        if (s.kind != HYPERBOLIC
                and len(oracles[s.kind].geodesic_form(s.word)) != len(s.word)):
            return False
    return len(sylls) == relative_length(p, w)


# ---------------------------------------------------------------------------
# conjugacy by exhaustion


def brute_conjugate(p: RelativePresentation, u: str, v: str, max_len: int,
                    budget=None):
    """Shortest g (shortlex ties) with g*u*g^-1 = v and |g| <= max_len."""
    index = ball(p, max_len, budget=budget)
    target = words.normalize(p, v)
    for g in sorted(index.dist, key=p.shortlex_key):
        if words.normalize(p, g + u + words.inverse(g)) == target:
            return g
    return None


@_cached(32)
def conjugacy_classes(p: RelativePresentation, radius: int,
                      budget=None) -> dict:
    """Partition of the ball of a radius into conjugacy classes by closing
    under single-generator conjugation inside the ball.

    Sound because every edge is a genuine conjugation.  Complete on free
    products: any conjugate pair in the ball is linked by peeling inverse
    end letters (length never grows) and rotating by first letters (length
    never grows), so the whole chain stays inside the ball.  Returns a map
    from canonical word to its class representative (shortlex least).

    Cached per (p, radius, budget), at most 32 maps, each of up to budget
    words; conjugacy_classes.cache_clear() frees them.
    """
    index = ball(p, radius, budget=budget)
    parent = {v: v for v in index.dist}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in index.dist:
        for c in p.alphabet:
            u = normal_form(p, c + v + words.inverse(c))
            if u in parent:
                a, b = find(v), find(u)
                if a != b:
                    parent[a] = b
    groups = {}
    for v in index.dist:
        groups.setdefault(find(v), []).append(v)
    out = {}
    for members in groups.values():
        rep = min(members, key=p.shortlex_key)
        for m in members:
            out[m] = rep
    return out


# ---------------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class QuasiGeodesicParams:
    lam: Fraction
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.lam < 1 or self.eps < 0:
            raise ValueError("need lambda >= 1 and epsilon >= 0")


def estimate_delta(p: RelativePresentation, r: int, gamma_radius=None,
                   budget=None) -> int:
    """Smallest integer d such that every canonical geodesic triangle with
    vertices of relative length <= r (and ordinary length <= gamma_radius)
    is d-thin in the coned-off graph.  A lower bound for the true constant;
    exhaustive within the stated window."""
    gamma_radius = 2 * r if gamma_radius is None else gamma_radius
    graph = _coned_graph(p, max(1, gamma_radius), budget)
    src = graph.vertex("")
    base_dist, _ = graph.bfs(src)
    vset = [i for i in range(len(graph.verts)) if 0 <= base_dist[i] <= r]
    all_dist, all_parent = {}, {}
    for i in vset:
        all_dist[i], all_parent[i] = graph.bfs(i)
    # distances from arbitrary vertices are needed for thinness checks
    extra = {}

    def dist_from(x):
        if x in all_dist:
            return all_dist[x]
        if x not in extra:
            extra[x] = graph.bfs(x)[0]
        return extra[x]

    best = 0
    for ai in range(len(vset)):
        a = vset[ai]
        for bi in range(ai + 1, len(vset)):
            b = vset[bi]
            side_ab = graph.path(all_parent[a], a, b)
            for ci in range(bi + 1, len(vset)):
                c = vset[ci]
                side_bc = graph.path(all_parent[b], b, c)
                side_ac = graph.path(all_parent[a], a, c)
                for side, others in (
                    (side_ab, side_bc + side_ac),
                    (side_bc, side_ab + side_ac),
                    (side_ac, side_ab + side_bc),
                ):
                    other = set(others)
                    for x in side:
                        if x in other:
                            continue
                        dx = dist_from(x)
                        gap = min(dx[y] for y in other)
                        if gap > best:
                            best = gap
    return best


def _coset_key(p, w, kind):
    """Canonical name of the left coset w * P_kind, w a normal form: w
    with its trailing run of that block stripped."""
    i = len(w)
    while i > 0 and p.letter_kind.get(w[i - 1]) == kind:
        i -= 1
    return w[:i]


def _path_components(p, path_word):
    """Parabolic components of the path labeled by path_word from the
    identity: (kind, start, end, coset key) per maximal run."""
    out = []
    for s in words.raw_syllables(p, path_word):
        if s.kind == HYPERBOLIC:
            continue
        prefix = normal_form(p, path_word[: s.start])
        out.append((s.kind, s.start, s.end, (s.kind, _coset_key(p, prefix, s.kind))))
    return out


def path_backtracks(p, path_word) -> bool:
    """True if the path leaves some parabolic coset and later re-enters it."""
    seen = set()
    for comp in _path_components(p, path_word):
        if comp[3] in seen:
            return True
        seen.add(comp[3])
    return False


def is_quasi_geodesic(p: RelativePresentation, w: str,
                      params: QuasiGeodesicParams) -> bool:
    """Check the relative quasi-geodesic inequality on every subpath."""
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n + 1):
            seg = w[i:j]
            arc = words.raw_relative_length(p, seg)
            d = relative_length(p, seg)
            if arc > params.lam * d + params.eps:
                return False
    return True


def estimate_bcp(p: RelativePresentation, params: QuasiGeodesicParams,
                 r: int) -> int:
    """Largest ordinary length of an isolated parabolic component seen on a
    closed path formed by two distinct non-backtracking relative
    (lambda, eps)-quasi-geodesic paths of length <= r with common endpoints.
    Exhaustive within radius r; a lower bound for the true constant."""
    _check_free_product(p)
    paths = [""]
    frontier = [""]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for c in p.alphabet:
                if w and w[-1] == INVERSE_LETTER[c]:
                    continue
                nxt.append(w + c)
        paths += nxt
        frontier = nxt
    good = {}
    oracles = p.oracles
    for w in paths:
        runs_geodesic = all(
            s.kind == HYPERBOLIC
            or len(oracles[s.kind].geodesic_form(s.word)) == len(s.word)
            for s in words.raw_syllables(p, w)
        )
        if not runs_geodesic:
            continue
        if path_backtracks(p, w) or not is_quasi_geodesic(p, w, params):
            continue
        good.setdefault(words.normalize(p, w), []).append(w)
    best = 0
    for group in good.values():
        for i, w1 in enumerate(group):
            for w2 in group[i + 1 :]:
                closed = w1 + words.inverse(w2)
                comps = _path_components(p, closed)
                counts = {}
                for comp in comps:
                    counts[comp[3]] = counts.get(comp[3], 0) + 1
                for kind, start, end, key in comps:
                    if counts[key] == 1:
                        best = max(best, end - start)
    return best
