"""One pass of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED PASS TRACE

run.py starts one of these per pass: the library keeps process-wide caches
(canonical forms, the census index), so every pass must start cold.  The pass
times its set-up (the perspectra import, plus the first identify() call on
identify-stream), builds its inputs from SEED untimed, then times each call
it makes into the library's public API and checks every answer.  Every pass
of a run makes the same calls in the same order; PASS only names the span
file.  With TRACE = 1 the library's public functions are wrapped (see
spans.py) just before the timed phase, and the spans are written to
bench/out/.

The last stdout line is one JSON object: setup_s, wall_s (the sum of the
timed calls), latencies_s, peak_rss_mb, attempted, failed, errors and, when
traced, layers.
"""

from __future__ import annotations

import json
import random
import re
import resource
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# identify-stream: the share of requests that re-send an earlier one.
RESEND_SHARE = 0.25


class Pass:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def request(self, check, fn, *args):
        """Time one call into the library and check its answer.  An error the
        library raises is a failed operation, not a crash of the benchmark."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted in error_rate
            self.latencies.append(perf_counter() - start)
            self._fail(f"{getattr(fn, '__name__', 'request')}: {exc!r}")
            return
        self.latencies.append(perf_counter() - start)
        problems = check(result)
        if problems:
            self._fail("; ".join(problems))

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# census-n4: one full_census(), checked against the partition it gave at
# perspectra 1.0.0 (census_n4_partition.json: the members of each class).

_FINDING = re.compile(r"computed (\d+) classes, stated count is (\d+)")
CENSUS_CLASSES = {"perm": 43, "kappa": 25}
CENSUS_FINDINGS = sorted([(43, 42), (25, 20), (68, 62)])


def census_inputs(ps, seed):
    with open(BENCH / "census_n4_partition.json") as f:
        expected = json.load(f)
    return {fam: {frozenset(tuple(m) for m in cls) for cls in classes}
            for fam, classes in expected.items()}


def census_run(ps, expected, p):
    p.request(lambda report: check_census(report, expected), ps.full_census)


def check_census(report, expected):
    problems = []
    hashes = {}
    for fam, want in CENSUS_CLASSES.items():
        entries = [e for e in report.entries if e.family == fam]
        hashes[fam] = {e.canonical_hash for e in entries}
        if len(entries) != want:
            problems.append(f"{fam}: {len(entries)} classes, expected {want}")
        members = [tuple(m) for e in entries for m in e.members]
        instances = set().union(*expected[fam])
        if len(members) != len(set(members)) or set(members) != instances:
            problems.append(f"{fam}: members do not partition the "
                            f"{len(instances)} labelled instances")
        if any(e.class_size != len(e.members) for e in entries):
            problems.append(f"{fam}: class_size differs from the member count")
        if {frozenset(tuple(m) for m in e.members) for e in entries} != expected[fam]:
            problems.append(f"{fam}: class partition differs from the reference")
    if hashes["perm"] & hashes["kappa"]:
        problems.append("a class spans both families")
    found = sorted(tuple(map(int, m.groups())) for m in
                   (_FINDING.search(f) for f in report.findings) if m)
    if len(report.findings) != 3 or found != CENSUS_FINDINGS:
        problems.append(f"findings {report.findings!r}")
    return problems


# ---------------------------------------------------------------------------
# pg-embed: a fixed sweep of embed_search over prime and extension fields;
# every `found` embedding is re-checked over GF(q) here.

def pg_inputs(ps, seed):
    c4 = ps.skew_perspective(ps.perm_spec(4, "(1,2,3,4)"))
    cases = [("c4", c4, q, "found" if q == 17 else "none")
             for q in (4, 5, 7, 8, 9, 11, 17)]
    for skew in ("(3,4)", "(1,2,3)"):
        config = ps.skew_perspective(ps.perm_spec(4, skew))
        cases += [(skew, config, q, "none") for q in (4, 5, 7)]
    cases += [("fez", ps.fez(), 7, "found"), ("Desargues", ps.desargues(), 5, "found"),
              ("Kantor", ps.kantor(), 7, "found")]
    return cases


def pg_run(ps, cases, p):
    for name, config, q, status in cases:
        def check(result, name=name, config=config, q=q, status=status):
            if result.status != status:
                return [f"{name} at q = {q}: {result.status}, expected {status}"]
            if status == "found":
                return [f"{name} at q = {q}: {e}"
                        for e in embedding_problems(config, result.assignment, q)]
            return []
        p.request(check, ps.embed_search, config, q)


def _is_prime(q):
    return q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))


def embedding_problems(config, assignment, q):
    """Faithfulness over GF(q), q prime: every point placed, all points
    distinct, every line collinear and no other triple collinear."""
    if not _is_prime(q):
        return [f"cannot check an embedding over GF({q})"]
    points = {}
    for label in config.points:
        if label not in (assignment or {}):
            return [f"{label} not placed"]
        v = [x % q for x in assignment[label]]
        lead = next((x for x in v if x), 0)
        if not lead:
            return [f"{label} is the zero vector"]
        inv = pow(lead, q - 2, q)
        points[label] = tuple(x * inv % q for x in v)
    if len(set(points.values())) != len(points):
        return ["two points coincide"]
    lines = {frozenset(config.line_labels(line)) for line in config.lines}
    for tri in combinations(config.points, 3):
        (a, b, c), (d, e, f), (g, h, i) = (points[x] for x in tri)
        collinear = (a * (e * i - f * h) - b * (d * i - f * g)
                     + c * (d * h - e * g)) % q == 0
        if collinear != (frozenset(tri) in lines):
            kind = "line not collinear" if not collinear else "spurious collinearity"
            return [f"{kind}: {tuple(map(str, tri))}"]
    return []


# ---------------------------------------------------------------------------
# identify-stream: closed loop, one client.  Each request is the JSON text of
# a labelled n = 4 instance under a random relabelling to free point names.
# Every one of the 1440 instances is sent once, in seeded order, so that the
# seed changes the labels and the order but not the mix of instances; about
# one request in four re-sends an earlier one verbatim (about 1920 requests,
# so p99 has more than ten samples beyond it).

def _request(ps, rng, labelings, family, sigma, li):
    delta = ps.induced_pair_map(sigma) if family == "perm" else ps.kappa_composed(sigma)
    config = ps.skew_perspective(ps.SkewPerspectiveSpec(4, delta, labelings[li]))
    names = [f"v{i}" for i in range(len(config.points))]
    rng.shuffle(names)
    order = list(range(len(config.points)))
    rng.shuffle(order)
    position = {v: k for k, v in enumerate(order)}
    lines = [[position[v] for v in line] for line in config.lines]
    rng.shuffle(lines)
    text = json.dumps({"points": [names[v] for v in order], "lines": lines})
    return text, family, (str(sigma), li)


def identify_inputs(ps, seed):
    rng = random.Random(f"identify-stream/{seed}")
    labelings = ps.families.enumerate_veblen().labelings
    instances = [(family, sigma, li) for family in ("perm", "kappa")
                 for sigma in ps.all_permutations(4) for li in range(len(labelings))]
    rng.shuffle(instances)
    warmup = _request(ps, rng, labelings, *instances[-1])
    stream = []
    for instance in instances:
        while stream and rng.random() < RESEND_SHARE:
            stream.append(rng.choice(stream))
        stream.append(_request(ps, rng, labelings, *instance))
    return warmup, stream


def identify_setup(ps, inputs):
    """The first identify() builds the census index: part of set-up."""
    warmup, _ = inputs
    ps.identify(ps.from_json(warmup[0]))


def identify_run(ps, inputs, p):
    _, stream = inputs
    for text, family, member in stream:
        def check(entry, family=family, member=member):
            if entry is None:
                return ["no census class"]
            if entry.family != family or member not in entry.members:
                return [f"{member} of {family} identified as a {entry.family} "
                        f"class without it"]
            return []
        p.request(check, lambda text=text: ps.identify(ps.from_json(text)))


WORKLOADS = {
    "census-n4": (census_inputs, None, census_run),
    "pg-embed": (pg_inputs, None, pg_run),
    "identify-stream": (identify_inputs, identify_setup, identify_run),
}


def main(argv):
    workload, seed, index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    make_inputs, setup, run = WORKLOADS[workload]

    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import perspectra as ps
    setup_s = perf_counter() - start
    if not Path(ps.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perspectra imported from {ps.__file__}, not from {SRC}")

    inputs = make_inputs(ps, seed)
    if setup is not None:
        start = perf_counter()
        setup(ps, inputs)
        setup_s += perf_counter() - start

    tracer = None
    if trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()

    p = Pass()
    run(ps, inputs, p)

    result = {
        "setup_s": setup_s,
        "wall_s": sum(p.latencies),
        "latencies_s": p.latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
    }
    if tracer is not None:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{workload}-seed{seed}-pass{index}.json")
        result["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
