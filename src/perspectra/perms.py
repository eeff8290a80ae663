"""Permutations of the index set and their action on 2-subsets.

Permutations are one-based: a Permutation over I = {1..n} stores the image
tuple (image of 1, ..., image of n).  A PairPermutation is a bijection of the
2-subsets of I; the two structured provenance tags are "induced" (the map
{i,j} -> {phi(i), phi(j)}) and "kappa" (complementation composed with an
induced map, defined for n = 4 only).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, permutations


@dataclass(frozen=True)
class Permutation:
    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i in range(1, self.n + 1):
            inv[self(i) - 1] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out

    def fixed_points(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self(i) == i]

    def __str__(self):
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "id"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in nontrivial)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(img) for img in permutations(range(1, n + 1))]


_CYCLE_RE = re.compile(r"\(([\d,\s]+)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(1,2)(3,4)" or "id"; fixed points optional."""
    compact = "".join(text.split())
    if compact in ("id", "()", ""):
        return identity(n)
    if not re.fullmatch(r"(\(\d+(,\d+)*\))+", compact):
        raise ValueError(f"bad cycle notation: {text!r}")
    img = list(range(1, n + 1))
    seen = set()
    for m in _CYCLE_RE.findall(compact):
        entries = [int(t) for t in m.split(",") if t]
        for e in entries:
            if not 1 <= e <= n:
                raise ValueError(f"cycle entry {e} outside 1..{n}")
            if e in seen:
                raise ValueError(f"repeated entry {e} in cycles")
            seen.add(e)
        for k, e in enumerate(entries):
            img[e - 1] = entries[(k + 1) % len(entries)]
    return Permutation(tuple(img))


def cycle_type(sigma: Permutation) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in sigma.cycles()))


# ---------------------------------------------------------------------------
# pairs and pair permutations

def pairs_of(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


@dataclass(frozen=True)
class PairPermutation:
    """A bijection of the 2-subsets of {1..n}, stored on sorted pairs."""

    n: int
    mapping: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    tag: str = "general"          # "induced" | "kappa" | "general"
    phi: Permutation | None = None

    def __post_init__(self):
        ps = pairs_of(self.n)
        src = [u for u, _ in self.mapping]
        dst = [v for _, v in self.mapping]
        if sorted(src) != ps or sorted(dst) != ps:
            raise ValueError("not a bijection of the 2-subsets")

    def as_dict(self) -> dict:
        d = getattr(self, "_d", None)
        if d is None:
            d = dict(self.mapping)
            object.__setattr__(self, "_d", d)
        return d

    def __call__(self, u) -> tuple[int, int]:
        u = tuple(sorted(u))
        return self.as_dict()[u]

    def inverse(self) -> "PairPermutation":
        inv = tuple(sorted((v, u) for u, v in self.mapping))
        return PairPermutation(self.n, inv)

    def compose(self, other: "PairPermutation") -> "PairPermutation":
        d = self.as_dict()
        return PairPermutation(
            self.n, tuple(sorted((u, d[v]) for u, v in other.mapping)))

    def same_map(self, other: "PairPermutation") -> bool:
        return self.n == other.n and sorted(self.mapping) == sorted(other.mapping)


def pair_perm_from_dict(n: int, d: dict, tag: str = "general",
                        phi: Permutation | None = None) -> PairPermutation:
    mapping = tuple(sorted((tuple(sorted(u)), tuple(sorted(v)))
                           for u, v in d.items()))
    return PairPermutation(n, mapping, tag, phi)


def induced_pair_map(phi: Permutation) -> PairPermutation:
    d = {u: tuple(sorted((phi(u[0]), phi(u[1])))) for u in pairs_of(phi.n)}
    return pair_perm_from_dict(phi.n, d, "induced", phi)


def kappa(n: int = 4) -> PairPermutation:
    """The correlation u -> I \\ u on the 2-subsets of a 4-element set."""
    if n != 4:
        raise ValueError("correlation undefined")
    full = {1, 2, 3, 4}
    d = {u: tuple(sorted(full - set(u))) for u in pairs_of(4)}
    return pair_perm_from_dict(4, d, "kappa", identity(4))


def kappa_composed(phi: Permutation) -> PairPermutation:
    """The pair map u -> I \\ {phi(i), phi(j)} (n = 4 only)."""
    if phi.n != 4:
        raise ValueError("correlation undefined")
    comp = kappa().compose(induced_pair_map(phi))
    return PairPermutation(comp.n, comp.mapping, "kappa", phi)


def star(i: int, n: int) -> frozenset[tuple[int, int]]:
    return frozenset(u for u in pairs_of(n) if i in u)


def top(Y) -> frozenset[tuple[int, int]]:
    Y = sorted(Y)
    if len(Y) != 3:
        raise ValueError("top needs a 3-subset")
    return frozenset(combinations(Y, 2))


# ---------------------------------------------------------------------------
# partitions

def partitions(n: int) -> list[tuple[int, ...]]:
    """All integer partitions of n, as sorted ascending tuples, in order."""
    parts = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            parts.append(tuple(sorted(acc)))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return sorted(parts)
