"""The exhaustive PG(2, q) embedding search that perspectra used before its
forward-checking solver, kept as a reference oracle for the tests.

At every node it tries each point of PG(2, q) for the next configuration point
and tests every new triple with a 3x3 determinant over GF(q).  It is slow
(c4 at q = 11 takes about 358k nodes) but shares no search logic with
`perspectra.realize.embed_search`, so agreement between the two is evidence
for both.
"""

from itertools import combinations

from perspectra.incidence import Configuration, IncidenceError
from perspectra.realize import EmbedResult, galois_field, pg2q_points


class _Budget(Exception):
    pass


class _PGSearch:
    def __init__(self, config: Configuration, q: int, budget: int):
        self.config = config
        self.f = galois_field(q)
        self.budget = budget
        self.nodes = 0
        self.points = pg2q_points(q)
        self.n = len(config.points)
        self.lines_of_point = [[] for _ in range(self.n)]
        for line in config.lines:
            for v in line:
                self.lines_of_point[v].append(line)
        self.concurrent = {frozenset(line) for line in config.lines}

    def _collinear(self, u, v, w):
        f = self.f
        det = 0
        for a, b, c, sgn in (
                (u[0], v[1], w[2], 1), (u[1], v[2], w[0], 1),
                (u[2], v[0], w[1], 1), (u[2], v[1], w[0], -1),
                (u[0], v[2], w[1], -1), (u[1], v[0], w[2], -1)):
            term = f.mul(f.mul(a, b), c)
            det = f.add(det, term if sgn == 1 else f.neg(term))
        return det == 0

    def _frame(self):
        """Four configuration points, no three on a common line."""
        for quad in combinations(range(self.n), 4):
            if all(frozenset(t) not in self.concurrent
                   for t in combinations(quad, 3)):
                return quad
        raise IncidenceError("no frame of four points in general position")

    def run(self) -> EmbedResult:
        if len(self.points) < self.n:
            return EmbedResult("none", None, 0)
        frame = self._frame()
        one = 1
        assign = {frame[0]: (one, 0, 0), frame[1]: (0, one, 0),
                  frame[2]: (0, 0, one), frame[3]: (one, one, one)}
        if not self._consistent(assign, frame[3]):
            return EmbedResult("none", None, 0)
        try:
            found = self._solve(assign)
        except _Budget:
            return EmbedResult("inconclusive", None, self.nodes)
        if found is None:
            return EmbedResult("none", None, self.nodes)
        labeled = {self.config.points[v]: found[v] for v in found}
        return EmbedResult("found", labeled, self.nodes)

    def _consistent(self, assign, v):
        pv = assign[v]
        done = [u for u in assign if u != v]
        for line in self.lines_of_point[v]:
            rest = [u for u in line if u != v]
            if all(u in assign for u in rest):
                if not self._collinear(pv, assign[rest[0]], assign[rest[1]]):
                    return False
        for u, w in combinations(done, 2):
            if frozenset((u, w, v)) in self.concurrent:
                continue
            if self._collinear(assign[u], assign[w], pv):
                return False
        return True

    def _next_var(self, assign):
        best, score = None, -1
        for v in range(self.n):
            if v in assign:
                continue
            s = sum(1 for line in self.lines_of_point[v]
                    if sum(1 for u in line if u in assign) == 2)
            if s > score:
                best, score = v, s
        return best

    def _solve(self, assign):
        if len(assign) == self.n:
            return dict(assign)
        v = self._next_var(assign)
        used = set(assign.values())
        for cand in self.points:
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget
            if cand in used:
                continue
            assign[v] = cand
            if self._consistent(assign, v):
                res = self._solve(assign)
                if res is not None:
                    return res
            del assign[v]
        return None


def reference_embed_search(config: Configuration, q: int,
                           budget: int = 10 ** 9) -> EmbedResult:
    return _PGSearch(config, q, int(budget)).run()
