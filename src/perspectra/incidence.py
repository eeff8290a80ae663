"""Incidence-structure core: labeled points, uniform lines, verification.

A Configuration is a finite partial linear space: points carry structured
labels (center / a-side / b-side / axis pair / free) and lines are stored as
sorted index tuples into the point list.  All values are immutable; every
operation is pure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations


_KIND_ORDER = {"p": 0, "a": 1, "b": 2, "c": 3, "free": 4}


@dataclass(frozen=True)
class PointLabel:
    """Structured point label: the center p, a_i, b_i, c_{i,j} or a free name."""

    kind: str
    key: tuple = ()

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown label kind {self.kind!r}")

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.key)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        if self.kind == "p":
            return "p"
        if self.kind in ("a", "b"):
            return f"{self.kind}{self.key[0]}"
        if self.kind == "c":
            return "c{%d,%d}" % self.key
        return self.key[0]

    def __repr__(self):
        return f"PointLabel({str(self)!r})"


# The structured labels are interned: a label is frozen, and one object per
# label makes dict and set lookups identity hits.  The caches are bounded; an
# evicted label is built again, equal to the first.
@lru_cache(maxsize=1)
def center() -> PointLabel:
    return PointLabel("p")


@lru_cache(maxsize=1024)
def a_point(i: int) -> PointLabel:
    return PointLabel("a", (i,))


@lru_cache(maxsize=1024)
def b_point(i: int) -> PointLabel:
    return PointLabel("b", (i,))


@lru_cache(maxsize=1024)
def c_point(i: int, j: int) -> PointLabel:
    if i == j:
        raise ValueError("c-label needs a 2-subset")
    if i > j:
        return c_point(j, i)
    return PointLabel("c", (i, j))


def free_point(name: str) -> PointLabel:
    return PointLabel("free", (name,))


_AB_RE = re.compile(r"^([ab])(\d+)$")
_C_RE = re.compile(r"^c\{(\d+),(\d+)\}$")


def parse_label(text: str) -> PointLabel:
    if text == "p":
        return center()
    m = _AB_RE.match(text)
    if m:
        return (a_point if m.group(1) == "a" else b_point)(int(m.group(2)))
    m = _C_RE.match(text)
    if m:
        i, j = int(m.group(1)), int(m.group(2))
        if i == j:
            raise IncidenceError(f"point {text!r}: c-label needs a 2-subset")
        return c_point(i, j)
    return free_point(text)


class IncidenceError(ValueError):
    pass


@dataclass(frozen=True)
class ConfigurationSignature:
    nu: int
    r: int | None
    b: int
    kappa: int | None

    def as_tuple(self):
        return (self.nu, self.r, self.b, self.kappa)


@dataclass(frozen=True)
class ViolationReport:
    axiom: str
    witness: tuple


@dataclass(frozen=True)
class Configuration:
    points: tuple[PointLabel, ...]
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """The points must be PointLabels in strictly increasing label order,
        each line a strictly increasing tuple of at least two indices into
        points, and the lines in strictly increasing order."""
        if not {PointLabel} >= set(map(type, self.points)):
            raise IncidenceError("points must be PointLabels")
        keys = [lab.sort_key() for lab in self.points]
        if keys != sorted(set(keys)):
            raise IncidenceError("duplicate point labels" if len(set(keys)) < len(keys)
                                 else "points are not in label order")
        lines = self.lines
        if not ({tuple} >= set(map(type, lines))
                and {int} >= set(map(type, chain.from_iterable(lines)))):
            raise IncidenceError("lines must be tuples of int point indices")
        span = frozenset(range(len(self.points)))
        for line in lines:
            if len(line) < 2:
                raise IncidenceError(f"line {line} has fewer than two points")
            if not span.issuperset(line):
                raise IncidenceError(f"line {line} uses an unknown point")
            if line != tuple(sorted(set(line))):
                raise IncidenceError(
                    f"repeated point in line {list(self.line_labels(line))}"
                    if len(set(line)) < len(line) else
                    f"line {line} is not a strictly increasing index tuple")
        if list(lines) != sorted(set(lines)):
            raise IncidenceError("duplicate line" if len(set(lines)) < len(lines)
                                 else "lines are not in strictly increasing order")

    @staticmethod
    def build(points, line_label_sets) -> "Configuration":
        """Normalize arbitrary point/line collections into canonical storage."""
        pts = tuple(sorted(set(points), key=PointLabel.sort_key))
        index = {lab: i for i, lab in enumerate(pts)}
        lines = set()
        for line in line_label_sets:
            try:
                lines.add(tuple(sorted(index[lab] for lab in line)))
            except KeyError as missing:
                raise IncidenceError(f"no such point {missing.args[0]}") from None
        return Configuration(pts, tuple(sorted(lines)))

    # lazy caches, outside the dataclass fields and so outside equality
    @cached_property
    def _index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.points)}

    @cached_property
    def _joins(self) -> dict:
        """The line through each pair of points, keyed by ascending index
        pairs (lines are sorted); the first line through a pair wins."""
        joins = {}
        for line in self.lines:
            for pair in combinations(line, 2):
                joins.setdefault(pair, line)
        return joins

    @cached_property
    def _third(self) -> list:
        """_third[x][y]: the third point of the 3-point line through x and
        y, or None."""
        third = [[None] * len(self.points) for _ in self.points]
        for (x, y), line in self._joins.items():
            if len(line) == 3:
                third[x][y] = third[y][x] = sum(line) - x - y
        return third

    @cached_property
    def _verified(self):
        return _check_axioms(self)

    def index_of(self, label: PointLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise IncidenceError(f"no such point {label}")

    def has_point(self, label: PointLabel) -> bool:
        return label in self._index

    def line_labels(self, line: tuple[int, ...]) -> tuple[PointLabel, ...]:
        return tuple(self.points[i] for i in line)

    def ranks(self) -> list[int]:
        counts = [0] * len(self.points)
        for line in self.lines:
            for i in line:
                counts[i] += 1
        return counts


def verify(config: Configuration):
    """Check the partial-linear-space axioms.

    Returns a ConfigurationSignature when the structure is a regular
    k-configuration, otherwise a ViolationReport naming the first violated
    axiom with witnesses.  A Configuration is checked once: later calls on
    the same object return the first result.
    """
    return config._verified


def _check_axioms(config: Configuration):
    nu = len(config.points)
    sizes = {len(line) for line in config.lines}
    if len(sizes) > 1:
        bad = sorted(config.lines, key=len)
        return ViolationReport(
            "not a k-configuration",
            (config.line_labels(bad[0]), config.line_labels(bad[-1])))
    kappa = sizes.pop() if sizes else None
    joins = config._joins
    for line in config.lines:
        for pair in combinations(line, 2):
            if joins[pair] != line:
                return ViolationReport(
                    "not partially linear",
                    (config.line_labels(joins[pair]), config.line_labels(line)))
    ranks = set(config.ranks())
    if len(ranks) > 1:
        return ViolationReport("not regular", tuple(sorted(ranks)))
    r = ranks.pop() if ranks else None
    return ConfigurationSignature(nu, r, len(config.lines), kappa)


def require_partial_linear(config: Configuration) -> None:
    """Raise IncidenceError unless config is a partial linear space whose
    lines all have one size; unequal point ranks are allowed."""
    result = verify(config)
    if isinstance(result, ViolationReport) and result.axiom != "not regular":
        raise IncidenceError(f"input rejected: {result.axiom}")


def require_signature(config: Configuration, want: tuple, message: str) -> None:
    """Raise IncidenceError(message) unless config is a regular configuration
    whose signature (nu, r, b, kappa) is want."""
    sig = verify(config)
    if not isinstance(sig, ConfigurationSignature) or sig.as_tuple() != want:
        raise IncidenceError(message)


def join(config: Configuration, x: PointLabel, y: PointLabel):
    """The partial operation: the unique line through x and y, if any.

    For x == y returns the degenerate singleton (x,).
    """
    xi = config.index_of(x)
    yi = config.index_of(y)
    if xi == yi:
        return (x,)
    line = config._joins.get((xi, yi) if xi < yi else (yi, xi))
    if line is None:
        return None
    return config.line_labels(line)


def third_point(config: Configuration, x: PointLabel, y: PointLabel):
    """x + y: the remaining point of the line through x and y (3-point lines)."""
    z = config._third[config.index_of(x)][config.index_of(y)]
    return None if z is None else config.points[z]


def to_json_dict(config: Configuration) -> dict:
    return {
        "points": [str(lab) for lab in config.points],
        "lines": [list(line) for line in config.lines],
    }


def to_json(config: Configuration) -> str:
    return json.dumps(to_json_dict(config), indent=2) + "\n"


def from_json_dict(data: dict) -> Configuration:
    """Inverse of to_json_dict; raises IncidenceError on any other shape."""
    if not (isinstance(data, dict) and isinstance(data.get("lines"), list)
            and isinstance(data.get("points"), list)
            and all(isinstance(t, str) for t in data["points"])):
        raise IncidenceError('expected {"points": [label, ...], "lines": [[index, ...], ...]}')
    labels = [parse_label(t) for t in data["points"]]
    keys = [lab.sort_key() for lab in labels]
    order = sorted(range(len(labels)), key=keys.__getitem__)
    position = {old: new for new, old in enumerate(order)}
    lines = []
    for line in data["lines"]:
        if not isinstance(line, list) or len(line) < 2:
            raise IncidenceError(f"line {line!r} is not a list of point indices")
        for i in line:
            if type(i) is not int or not 0 <= i < len(labels):
                raise IncidenceError(f"line {line!r}: no point with index {i!r}")
        lines.append(tuple(sorted(map(position.__getitem__, line))))
    return Configuration(tuple(map(labels.__getitem__, order)), tuple(sorted(lines)))


def from_json(text: str) -> Configuration:
    try:
        data = json.loads(text)
    except RecursionError:
        raise IncidenceError("JSON nested too deeply") from None
    return from_json_dict(data)


def to_dot(config: Configuration) -> str:
    """Levi (incidence) graph in DOT: circled point nodes, boxed line nodes."""
    out = ["graph levi {"]
    for i, lab in enumerate(config.points):
        out.append(f'  p{i} [shape=circle, label="{lab}"];')
    for j, line in enumerate(config.lines):
        out.append(f'  l{j} [shape=box, label="L{j}"];')
    for j, line in enumerate(config.lines):
        for i in line:
            out.append(f"  p{i} -- l{j};")
    out.append("}")
    return "\n".join(out) + "\n"
