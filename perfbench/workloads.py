"""Seeded inputs and op lists of the workloads.

Each generator writes JSON input files into a work directory and returns
the fixed op list of one pass: CLI argument lists with a deadline and an
independent check of the output.  The same (workload, seed) always gives
byte-identical files and the same list.  Sizes are drawn from narrow bands
so that the work in a pass, and hence its wall time, barely depends on the
seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import reference as ref

# A check gets (exit code, stdout) and returns None or a failure message.
Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    family: str
    argv: tuple[str, ...]
    deadline_s: float
    check: Check


class Inputs:
    """Writes numbered JSON files into one directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, stem: str, doc) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)


# -- languages ---------------------------------------------------------------

# (machines, alphabet, class band, padded): class bands are sizes of the
# syntactic monoid, i.e. of the transition monoid of the minimal machine.
# A padded machine is its product with a parity counter on letter "a": the
# language is unchanged but the input has about twice as many word maps.
RANDOM_MACHINES = [
    (9, "abc", (30, 40), False),
    (6, "abc", (50, 60), False),
    (2, "ab", (50, 60), False),
    (3, "abc", (75, 85), False),
    (2, "abc", (75, 85), True),
    (2, "ab", (75, 85), False),
]
INPUT_SLACK = 1.1
# (ideals, alphabet, --max-len): true shuffle ideals, where the falsifier
# finds nothing and so enumerates every subword pair up to the bound.
SHUFFLE_IDEALS = [(2, "ab", 8), (1, "ab", 8), (1, "abc", 6)]
# (machines, band of the product of the cut syntactic monoid sizes)
RECONSTRUCT = ((90, (16, 32)), (10, (48, 64)))
RECONSTRUCT_LATTICES = ("chain2", "chain3", "chain4", "chain5", "diamond", "m3", "n5")


def _random_machine(rng: random.Random, letters: str, band: tuple[int, int]):
    """Rejection-sample a machine whose syntactic monoid size is in the band
    and whose own transition monoid is at most INPUT_SLACK times the band's
    top, since syntactic() builds the input's word maps before quotienting."""
    lo, hi = band
    while True:
        n = rng.randint(4, 7)
        kind = rng.choice(["chain2", "chain3"])
        values = len(ref.LATTICES[kind][0])
        delta = [[rng.randrange(n) for _ in letters] for _ in range(n)]
        output = [rng.randrange(values) for _ in range(n)]
        mdelta, _, minit = ref.minimal(delta, output, 0)
        classes = ref.transition_monoid_size(mdelta, minit, hi)
        if (lo <= classes <= hi
                and ref.transition_monoid_size(delta, 0, INPUT_SLACK * hi) <= INPUT_SLACK * hi):
            return kind, delta, output, classes


def _pad_with_parity(delta, output):
    """Product with a two-state counter of the letter at index 0."""
    n = len(delta)
    padded = [
        [delta[q][l] + n * ((p + (l == 0)) % 2) for l in range(len(delta[q]))]
        for p in range(2)
        for q in range(n)
    ]
    return padded, output + output


def _shuffle_ideal(rng: random.Random, letters: str):
    """Meet of subsequence detectors: each outputs the top until its pattern
    has occurred as a subword, then a lower value, so longer words never
    get a larger value."""
    patterns = [
        "".join(rng.choice(letters) for _ in range(rng.randint(2, 3)))
        for _ in range(rng.randint(2, 3))
    ]
    fired = [rng.randrange(2) for _ in patterns]  # "0" or "1" below top "2"
    start = (0,) * len(patterns)
    index = {start: 0}
    order = [start]
    delta = []
    for combo in order:
        row = []
        for a in letters:
            nxt = tuple(
                j + 1 if j < len(u) and u[j] == a else j for j, u in zip(combo, patterns)
            )
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta.append(row)
    output = [
        min([2] + [v for j, u, v in zip(combo, patterns, fired) if j == len(u)])
        for combo in order
    ]
    return delta, output


def _reconstruct_machine(rng: random.Random, kind: str, band: tuple[int, int]):
    """A small machine over the lattice whose cut syntactic monoids have a
    product size in the band (``lang reconstruct`` caps it at 1024)."""
    lo, hi = band
    while True:
        values = len(ref.LATTICES[kind][0])
        n = rng.randint(3, 5)
        delta = [[rng.randrange(n) for _ in "ab"] for _ in range(n)]
        output = [rng.randrange(values) for _ in range(n)]
        product = math.prod(ref.cut_monoid_sizes(kind, delta, output))
        if lo <= product <= hi:
            return delta, output, product


def languages(rng: random.Random, inputs: Inputs) -> list[Op]:
    ops: list[Op] = []
    for count, letters, band, padded in RANDOM_MACHINES:
        for _ in range(count):
            kind, delta, output, classes = _random_machine(rng, letters, band)
            if padded:
                delta, output = _pad_with_parity(delta, output)
            machine = (kind, letters, delta, output)
            path = inputs.write("machine", ref.machine_doc(kind, letters, delta, output))
            mdelta, moutput, minit = ref.minimal(delta, output, 0)
            minimal_path = inputs.write(
                "minimal", ref.machine_doc(kind, letters, mdelta, moutput, minit)
            )
            ops += [
                Op("syntactic", ("lang", "syntactic", path), 60.0,
                   checks.syntactic(machine, classes)),
                Op("minimize", ("lang", "minimize", path), 10.0,
                   checks.minimize(machine, len(mdelta))),
                Op("equiv", ("lang", "equiv", path, minimal_path), 10.0,
                   checks.equivalent()),
                Op("equiv", ("lang", "equiv", minimal_path, path), 10.0,
                   checks.equivalent()),
                Op("shuffle-check", ("lang", "shuffle-check", path, "--max-len", "6"), 60.0,
                   checks.shuffle_check(machine, 6, None)),
            ]
    for count, letters, bound in SHUFFLE_IDEALS:
        for _ in range(count):
            delta, output = _shuffle_ideal(rng, letters)
            machine = ("chain3", letters, delta, output)
            path = inputs.write("ideal", ref.machine_doc("chain3", letters, delta, output))
            ops.append(
                Op("shuffle-ideal",
                   ("lang", "shuffle-check", path, "--max-len", str(bound)), 60.0,
                   checks.shuffle_check(machine, bound, True))
            )
    for count, band in RECONSTRUCT:
        for i in range(count):
            # the lattices take turns, so every seed has the same mix of cut counts
            kind = RECONSTRUCT_LATTICES[i % len(RECONSTRUCT_LATTICES)]
            delta, output, size = _reconstruct_machine(rng, kind, band)
            path = inputs.write("cuts", ref.machine_doc(kind, "ab", delta, output))
            ops.append(Op("reconstruct", ("lang", "reconstruct", path), 30.0,
                          checks.reconstruct(size)))
    return ops


# -- markov ------------------------------------------------------------------

DENOMINATORS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
# Chain sizes for decompose and absorb: exact elimination over the rationals.
ELIMINATION_SIZES = (30, 35, 40, 45, 50, 55, 60)
# (chains, states, transition monoid band of the simulating machine,
#  largest syntactic monoid size in either mode)
ANALYZE_CHAINS = [
    (26, (5, 6), (40, 60), 30),
    (4, (6, 8), (80, 100), 30),
]
# States in closed classes of the decompose and absorb chains, so that the
# eliminations solve systems of the same size for every seed.
ELIMINATION_CLOSED = 6
# Letters of the analyzed chains' decompositions, which set the falsifier
# bound (see _max_len) and so most of the cost of an analysis.
ANALYZE_LETTERS = 5
ANALYZE_RUNS = (("basic", "8"), ("reachable", "64"))
# Irreducible chains with three successors per state, whose simulating
# machines outrun the transition monoid cap; only the traced run probes
# them, so the timed op lists contain no failing op.
PROBES = 2
PROBE_STATES = (10, 16)
PROBE_DEADLINE_S = 2.0


def _split(rng: random.Random, parts: int) -> list[Fraction]:
    """Random positive fractions with one random denominator, summing to one."""
    d = rng.choice(DENOMINATORS)
    parts = min(parts, d)
    cuts = sorted(rng.sample(range(1, d), parts - 1))
    return [Fraction(b - a, d) for a, b in zip([0] + cuts, cuts + [d])]


def _random_chain(rng: random.Random, n: int, closed: int) -> list[list[Fraction]]:
    """Transient states first, then 1-3 closed classes of ``closed`` states.

    Every transient state has an edge to a later state, so no transient
    class is closed and the absorption system is nonsingular.
    """
    n_classes = rng.randint(1, min(3, closed))
    cuts = sorted(rng.sample(range(1, closed), n_classes - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [closed])]
    first = n - closed
    matrix = [[Fraction(0)] * n for _ in range(n)]

    def spread(s: int, targets: list[int]) -> None:
        for t, p in zip(targets, _split(rng, len(targets))):
            matrix[s][t] += p

    start = first
    for size in sizes:
        members = list(range(start, start + size))
        start += size
        for j, s in enumerate(members):
            succ = members[(j + 1) % size]
            spread(s, [succ] + [t for t in members if t != succ and rng.random() < 0.5])
    for s in range(first):
        targets = [rng.randrange(s + 1, n)] + [rng.randrange(n) for _ in range(rng.randint(1, 2))]
        spread(s, list(dict.fromkeys(targets)))
    return matrix


def _colors(matrix, mode: str) -> list[int]:
    """Ergodic-class colors as bit sets: basic puts the full set on every
    state outside a closed class; reachable uses the classes a state reaches."""
    classes, _ = ref.ergodic_classes(matrix)
    class_of = {s: i for i, members in enumerate(classes) for s in members}
    if mode == "basic":
        full = (1 << len(classes)) - 1
        return [1 << class_of[s] if s in class_of else full for s in range(len(matrix))]
    adjacency = ref.adjacency(matrix)
    return [
        sum({1 << class_of[t] for t in ref.reachable(adjacency, s) if t in class_of})
        for s in range(len(matrix))
    ]


def _analyze_chain(rng: random.Random, states, tm_band, max_classes):
    """Rejection-sample a chain of ANALYZE_LETTERS letters whose simulating
    machine has a transition monoid in the band and small syntactic monoids
    in both modes."""
    lo, hi = tm_band
    while True:
        n = rng.randint(*states)
        matrix = _random_chain(rng, n, rng.randint(1, min(4, n - 1)))
        maps = ref.greedy_decomposition(matrix)
        if len(maps) != ANALYZE_LETTERS:
            continue
        delta = [[m[s] for m in maps] for s in range(len(matrix))]
        if not lo <= ref.transition_monoid_size(delta, 0, hi) <= hi:
            continue
        classes = {}
        for mode in ("basic", "reachable"):
            mdelta, _, minit = ref.minimal(delta, _colors(matrix, mode), 0)
            classes[mode] = ref.transition_monoid_size(mdelta, minit, max_classes)
        if max(classes.values()) <= max_classes:
            return matrix, len(maps), classes


def _max_len(letters: int) -> int:
    """Largest falsifier bound whose worst case, sum of (2k)^l subword pairs
    for k letters, stays within 20,000."""
    bound = 0
    while sum((2 * letters) ** l for l in range(bound + 2)) <= 20_000:
        bound += 1
    return bound


def markov(rng: random.Random, inputs: Inputs) -> list[Op]:
    ops: list[Op] = []
    for n in ELIMINATION_SIZES:
        matrix = _random_chain(rng, n, ELIMINATION_CLOSED)
        path = inputs.write("chain", ref.chain_doc(matrix))
        ops += [
            Op("decompose", ("markov", "decompose", path), 30.0, checks.decompose(matrix)),
            Op("absorb", ("markov", "absorb", path), 30.0, checks.absorb(matrix)),
        ]
    for count, states, band, max_classes in ANALYZE_CHAINS:
        for _ in range(count):
            matrix, letters, classes = _analyze_chain(rng, states, band, max_classes)
            path = inputs.write("chain", ref.chain_doc(matrix))
            bound = str(_max_len(letters))
            for mode, horizon in ANALYZE_RUNS:
                ops.append(
                    Op("analyze",
                       ("markov", "analyze", path, "--mode", mode,
                        "--horizon", horizon, "--max-len", bound), 30.0,
                       checks.analyze(matrix, classes[mode]))
                )
    return ops


def markov_probes(rng: random.Random, inputs: Inputs) -> list[Op]:
    ops = []
    for _ in range(PROBES):
        n = rng.randint(*PROBE_STATES)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for s in range(n):
            targets = list(dict.fromkeys([(s + 1) % n] + rng.sample(range(n), 2)))
            for t, p in zip(targets, _split(rng, len(targets))):
                matrix[s][t] += p
        path = inputs.write("probe", ref.chain_doc(matrix))
        ops.append(
            Op("analyze-capped", ("markov", "analyze", path, "--max-len", "3"),
               PROBE_DEADLINE_S, checks.analyze(matrix, None))
        )
    return ops


# -- lab ----------------------------------------------------------------------

SUITE_SEEDS = range(10)  # the same for every run seed: suite cost varies by seed
PRODUCTS = 8  # of 2-3 enumerated monoids, at most 64 elements
DIVISIONS = 12  # pairs, each searched in both directions
DIVISION_BUDGET = "12"
SUBDIRECT = 12  # enumerated monoids and small products, at most 16 elements


def _factors(rng: random.Random, pool: list[dict], count: int, max_size: int) -> list[dict]:
    """Monoid documents whose direct product has 2 to ``max_size`` elements."""
    while True:
        picked = [rng.choice(pool) for _ in range(count)]
        if 2 <= math.prod(len(m["elements"]) for m in picked) <= max_size:
            return picked


def lab(rng: random.Random, inputs: Inputs, pool: dict[int, list[dict]]) -> list[Op]:
    """``pool`` holds the enumerated ordered monoids of sizes 2, 3 and 4."""
    small = pool[2] + pool[3] + pool[4]
    ops = [
        Op("enumerate", ("variety", "enumerate", "--n", "4"), 30.0,
           checks.enumerate_count(4, len(pool[4])))
    ]
    for seed in SUITE_SEEDS:
        ops.append(Op("suite", ("variety", "suite", "--seed", str(seed)), 30.0, checks.suite()))
    for _ in range(PRODUCTS):
        factors = _factors(rng, small, rng.randint(2, 3), 64)
        paths = [inputs.write("factor", m) for m in factors]
        product = ref.product_monoid(factors)
        product_path = inputs.write("product", product)
        ops += [
            Op("product", ("monoid", "product", *paths), 10.0, checks.same_doc(product)),
            Op("check", ("monoid", "check", product_path), 10.0, checks.same_doc(product)),
        ]
    for _ in range(DIVISIONS):
        dividend = rng.choice(pool[3] + pool[4])
        divisor = ref.product_monoid(_factors(rng, pool[2] + pool[3], 2, int(DIVISION_BUDGET)))
        left = inputs.write("dividend", dividend)
        right = inputs.write("divisor", divisor)
        ops += [
            Op("divides", ("monoid", "divides", left, right, "--budget", DIVISION_BUDGET), 30.0,
               checks.divides(dividend, divisor)),
            Op("divides", ("monoid", "divides", right, left, "--budget", DIVISION_BUDGET), 30.0,
               checks.divides(divisor, dividend)),
        ]
    for i in range(SUBDIRECT):
        if i % 2:
            monoid = rng.choice(pool[3] + pool[4])
        else:
            monoid = ref.product_monoid(_factors(rng, small, 2, 16))
        path = inputs.write("subdirect", monoid)
        ops.append(Op("subdirect", ("variety", "subdirect", path), 30.0, checks.subdirect()))
    return ops

