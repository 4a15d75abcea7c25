"""Enumeration of small ordered monoids and the instance-level verification harness.

The variety correspondence is verified through its finite ingredients: the
ideal-representation identity on products of syntactic monoids, minimality
of the syntactic monoid under division, and the subdirect embedding of a
monoid into the product of the syntactic monoids of its element languages.
Each check produces a replayable report rather than raising.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

from .automaton import (
    LatticeAutomaton,
    constant_automaton,
    equivalent,
    make_automaton,
    recolor,
    word_name,
)
from .coloring import (
    OpColoring,
    ideal_coloring,
    make_op_coloring,
)
from .errors import LatlangError, MismatchedCarrier, NotARecognizer, SizeCapExceeded
from .lattice import (
    Lattice,
    bit_positions,
    build_lattice,
    cons as cons_morphism,
    converse,
    orbit,
    orbit_words,
    pointwise_order,
    standard_lattice,
)
from .monoid import (
    OrderedMonoid,
    _least_order,
    _make_unchecked,
    canonical_table,
    compatibility_violation,
    direct_product,
    divides,
)
from .syntactic import (
    RecognitionTriple,
    SyntacticResult,
    product_triple,
    recognizes,
    syntactic,
    syntactic_quotients,
    triple_to_automaton,
)

ENUMERATION_MAX_N = 4
SUBDIRECT_MAX_SIZE = 64

# Sizes of the seeded suite (``run_suite``).
SUITE_LATTICE_MAX = 5
SUITE_STATES_MAX = 3
SUITE_RECOG_INSTANCES = 3
SUITE_MINIMALITY_INSTANCES = 4
SUITE_SUBDIRECT_MAX_N = 2
SUITE_PRODUCT_CAP = 200


# -- enumeration -----------------------------------------------------------

@lru_cache(maxsize=None)
def _partial_orders(n: int) -> tuple[tuple[int, ...], ...]:
    """All partial orders on n labeled points, as up-set rows, in ascending
    order of ``_pair_mask``.

    Each extends an order on the first n - 1 points by the last point p,
    with a down-closed set D below p and an up-closed set U above it:
    disjoint, and every d in D below every u in U.  A set is down-closed
    iff its complement is up-closed.
    """
    if n == 0:
        return ((),)
    p, earlier = n - 1, (1 << n - 1) - 1
    orders = []
    for rows in _partial_orders(p):
        up_closed = [
            s for s in range(earlier + 1) if all(rows[x] & s == rows[x] for x in bit_positions(s))
        ]
        for up in up_closed:
            for down in (earlier & ~c for c in up_closed):
                if down & up == 0 and all(rows[d] & up == up for d in bit_positions(down)):
                    extended = tuple(row | (down >> x & 1) << p for x, row in enumerate(rows))
                    orders.append(extended + (1 << p | up,))
    return tuple(sorted(orders, key=_pair_mask))


def _pair_mask(rows: Sequence[int]) -> int:
    """The pairs (i, j), i != j, of a relation on n points as a mask in
    row-major order: row i without bit i, shifted to bit i * (n - 1)."""
    width = len(rows) - 1
    return sum((row & (1 << i) - 1 | row >> i + 1 << i) << i * width for i, row in enumerate(rows))


def _unital_associative_tables(n: int):
    """All associative multiplication tables with the identity at index 0,
    in lexicographic order of their free cells.

    A backtracking search fills the free cells (i, j), i, j >= 1, in
    row-major order, trying values from smallest to largest.  After each
    assignment every equation (xy)z = x(yz) whose four cells are all set
    is checked, and the branch is dropped on the first violation, so a
    full table has passed every equation.
    """
    unset = -1
    free = [(i, j) for i in range(1, n) for j in range(1, n)]
    # the identity's row and column are fixed: 0 * j = j and i * 0 = i
    mul = [[i + j if i * j == 0 else unset for j in range(n)] for i in range(n)]
    inner = range(1, n)

    def consistent() -> bool:
        for x in inner:
            row_x = mul[x]
            for y in inner:
                xy = row_x[y]
                if xy == unset:
                    continue
                row_xy, row_y = mul[xy], mul[y]
                for z in inner:
                    yz = row_y[z]
                    if yz == unset:
                        continue
                    left, right = row_xy[z], row_x[yz]
                    if left != unset and right != unset and left != right:
                        return False
        return True

    def fill(k: int):
        if k == len(free):
            yield [row[:] for row in mul]
            return
        i, j = free[k]
        for v in range(n):
            mul[i][j] = v
            if consistent():
                yield from fill(k + 1)
        mul[i][j] = unset

    yield from fill(0)


def enumerate_ordered_monoids(n: int) -> list[OrderedMonoid]:
    """All ordered monoids on n elements up to isomorphism, sorted by
    ``canonical_key``, as a new list of the monoids enumerated once per n."""
    if n < 1 or n > ENUMERATION_MAX_N:
        raise SizeCapExceeded(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}, got {n}")
    return list(_enumerated(n))


@lru_cache(maxsize=None)
def _enumerated(n: int) -> tuple[OrderedMonoid, ...]:
    """The ordered monoids of ``enumerate_ordered_monoids(n)``, which share
    them: the monoids are frozen.

    Tables are enumerated with the identity fixed at index 0 (every monoid
    is isomorphic to one of that form).  Each table is canonicalized once,
    and only the first table of each isomorphism class is paired with its
    compatible partial orders: an isomorphism carries every compatible
    order of a later table in the class to one of the first table with the
    same key, so the representative of each key is the first (table, order)
    pair that has it.  Orders are keyed through the relabelings that reach
    the canonical table, a coset of its automorphisms.
    """
    names = tuple(f"m{i}" for i in range(n))
    seen: set[tuple] = set()
    found: dict[tuple, tuple] = {}
    for mul in _unital_associative_tables(n):
        table, coset = canonical_table(mul, 0)
        if table in seen:
            continue
        seen.add(table)
        for leq in _partial_orders(n):
            if compatibility_violation(mul, leq, range(n)) is None:
                found.setdefault((n, table, _least_order(leq, coset)), (mul, leq))
    return tuple(_make_unchecked(names, 0, *found[key]) for key in sorted(found))


# -- seeded random instances -------------------------------------------------

def random_lattice(rng: random.Random, max_size: int = 8) -> Lattice:
    """A random lattice: graded poset with forced bottom/top, covers drawn
    between consecutive grades, rejection-sampled until the lub/glb test passes.
    """
    for _ in range(2000):
        n = rng.randint(2, max_size)
        names = [f"v{i}" for i in range(n)]
        if n == 2:
            return build_lattice(names, [(0, 1)])
        middles = list(range(1, n - 1))
        grade_count = rng.randint(1, len(middles))
        levels: list[list[int]] = [[0]] + [[] for _ in range(grade_count)] + [[n - 1]]
        for v in middles:
            levels[rng.randint(1, grade_count)].append(v)
        levels = [level for level in levels if level]
        covers: list[tuple[int, int]] = []
        for upper_i in range(1, len(levels)):
            prev, here = levels[upper_i - 1], levels[upper_i]
            covered = set()
            for v in here:
                lower = [u for u in prev if rng.random() < 0.5]
                if not lower:
                    lower = [prev[rng.randrange(len(prev))]]
                for u in lower:
                    covers.append((u, v))
                    covered.add(u)
            for u in prev:
                if u not in covered:
                    covers.append((u, here[rng.randrange(len(here))]))
        try:
            return build_lattice(names, covers)
        except LatlangError:
            continue
    return standard_lattice("chain", max(2, min(max_size, 3)))


def random_automaton(
    rng: random.Random,
    lattice: Lattice,
    max_states: int = 4,
    alphabet: Sequence[str] = ("a", "b"),
    min_states: int = 1,
) -> LatticeAutomaton:
    """Uniform over total transition tables and output assignments."""
    n = rng.randint(min_states, max_states)
    states = [f"q{i}" for i in range(n)]
    delta = [[rng.randrange(n) for _ in alphabet] for _ in range(n)]
    output = [rng.randrange(lattice.size) for _ in range(n)]
    return make_automaton(lattice, alphabet, states, 0, delta, output)


def random_coloring(rng: random.Random, monoid: OrderedMonoid, lattice: Lattice) -> OpColoring:
    """Uniform colors repaired upward: each element gets the join of the
    colors drawn over its down-set, the least order-preserving coloring
    above the drawn one."""
    drawn = [rng.randrange(lattice.size) for _ in range(monoid.size)]
    join = lattice.join_table
    colors = [
        reduce(lambda acc, a: join[acc][drawn[a]], bit_positions(d), lattice.bottom)
        for d in converse(monoid.leq)
    ]
    return make_op_coloring(monoid, lattice, colors)


# -- reports ------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """One check's verdict on one instance.  The instance and the witness
    hold values (names, sizes, and the monoids, machines and triples
    involved); ``serialize.report_to_doc`` writes the report."""

    check: str
    instance: dict
    verdict: str  # "pass" | "fail" | "budget_exhausted"
    witness: dict | None = None


def verify_recog_by_synt(
    automata: Sequence[LatticeAutomaton],
    triple: RecognitionTriple,
    *,
    synts: Sequence[SyntacticResult] | None = None,
) -> VerificationReport:
    """Check the product-of-syntactic-monoids recognition identities.

    Each identity compares two colorings of the product as two outputs of
    the triple's machine, whose states are the product's elements, on the
    states that one breadth-first pass of the machine reaches:
    (a) for each element m, x is bottom iff x <= m in the product, against
    x is bottom iff every projection has x_i <= m_i, as two bitsets: the
    column of m in the order, and the AND over the projections of the
    elements whose i-th component is below m_i, each projection's order
    read back along it by ``pointwise_order``;
    (b) the triple's colors, against x -> the meet of P(m) over all m >= x.
    A failure names the first differing state in discovery order and the
    word that first reached it, which is the shortest word on which the
    two outputs differ.  The product order is componentwise and
    transitive, so every coloring compared here is order-preserving by
    construction.  ``synts`` are the machines' ``syntactic`` results,
    computed when not given.
    """
    if synts is None:
        synts = [syntactic(a) for a in automata]
    factors = [s.monoid for s in synts]
    product, projections = direct_product(factors)
    if product != triple.monoid:
        raise MismatchedCarrier(
            "triple's monoid is not the product of the syntactic monoids"
        )
    lat = triple.coloring.lattice
    instance = {
        "factor_sizes": [m.size for m in factors],
        "lattice": list(lat.elements),
    }
    machine = triple_to_automaton(triple)
    order, table = orbit(machine.initial, machine.delta.__getitem__)
    reachable = sum(1 << x for x in order)

    def fail(which: str, m_index: int, j: int) -> VerificationReport:
        return VerificationReport(
            check="recog_by_synt",
            instance=instance,
            verdict="fail",
            witness={
                "identity": which,
                "element": product.elements[m_index],
                "word": word_name(orbit_words(table, machine.alphabet)[j]),
                "triple": triple,
                "automata": list(automata),
            },
        )

    below = converse(product.leq)
    projected = [
        pointwise_order(converse(p.target.leq), [(u,) for u in p.mapping]) for p in projections
    ]
    for m in range(product.size):
        joined = reachable
        for rows in projected:
            joined &= rows[m]
        differs = (below[m] ^ joined) & reachable
        if differs:
            return fail(
                "join_of_projections", m,
                next(j for j, x in enumerate(order) if differs >> x & 1),
            )

    colors = triple.coloring.colors
    for j, x in enumerate(order):
        if colors[x] != lat.meet_all([colors[y] for y in bit_positions(product.leq[x])]):
            return fail("ideal_representation", -1, j)
    return VerificationReport("recog_by_synt", instance, "pass")


def verify_syntactic_minimality(
    a: LatticeAutomaton,
    triple: RecognitionTriple,
    max_target_size: int = 10,
) -> VerificationReport:
    """The syntactic monoid must divide the monoid of any recognizer
    (searched while the recognizer has at most ``max_target_size`` elements).

    The syntactic triple depends only on the language, so once the triple
    recognizes it, it is read off the triple's table."""
    if not recognizes(triple, a):
        raise NotARecognizer("triple does not recognize the automaton's language")
    synt = syntactic_quotients(triple.alphabet, triple.generator_images, [triple.coloring])[0]
    verdict = divides(synt.monoid, triple.monoid, max_target_size)
    instance = {
        "syntactic_size": synt.monoid.size,
        "recognizer_size": triple.monoid.size,
    }
    if verdict.kind == "yes":
        return VerificationReport(
            "syntactic_minimality", instance, "pass",
            witness={"generators": list(verdict.generators or ())},
        )
    if verdict.kind == "budget_exhausted":
        return VerificationReport("syntactic_minimality", instance, "budget_exhausted")
    return VerificationReport(
        "syntactic_minimality", instance, "fail",
        witness={
            "automaton": a,
            "triple": triple,
        },
    )


def subdirect_embedding(monoid: OrderedMonoid) -> VerificationReport:
    """Embed a monoid into the product of the syntactic monoids of its
    element languages (one ideal language per element, over the monoid's
    own elements as the alphabet).

    Passes iff the induced map is multiplicative, injective, and an order
    embedding in both directions.  The syntactic triples are read off the
    monoid's table (``syntactic_quotients``), and the map phi sends x to its
    letter's images.  Both checks run row by row: phi(xy) against
    phi(x)phi(y) as one row of each factor's table, and the order through
    each factor's order read back along phi (``pointwise_order``): row x
    holds the y whose image lies above x's.  A failure names the first pair
    in row-major order, the multiplicative check before the order at the
    same pair.
    """
    if monoid.size > SUBDIRECT_MAX_SIZE:
        raise SizeCapExceeded(f"subdirect embedding capped at {SUBDIRECT_MAX_SIZE} elements")
    n = monoid.size
    lat = standard_lattice("chain", 2)
    colorings = [ideal_coloring(monoid, m, lat) for m in range(n)]
    synts = syntactic_quotients(monoid.elements, range(n), colorings)
    phi = list(zip(*(s.generator_images for s in synts)))
    instance = {
        "monoid": monoid,
        "factor_sizes": [s.monoid.size for s in synts],
    }

    def fail(reason: str, witness: dict) -> VerificationReport:
        witness = dict(witness)
        witness["reason"] = reason
        return VerificationReport("subdirect_embedding", instance, "fail", witness)

    identity_image = tuple(s.monoid.identity for s in synts)
    if phi[monoid.identity] != identity_image:
        return fail("identity", {"element": monoid.elements[monoid.identity]})
    everything = (1 << n) - 1
    # per x: the first y with phi(xy) != phi(x)phi(y), and the y with phi(x) <= phi(y)
    unmultiplied = [n] * n
    embedded_above = [everything] * n
    for s in synts:
        image, table = s.generator_images, s.monoid.mul
        products = [list(map(row.__getitem__, image)) for row in table]
        above = pointwise_order(s.monoid.leq, [(c,) for c in image])
        for x, row in enumerate(monoid.mul):
            embedded_above[x] &= above[x]
            got, expected = list(map(image.__getitem__, row)), products[image[x]]
            if got != expected:
                y = next(y for y, (u, v) in enumerate(zip(got, expected)) if u != v)
                unmultiplied[x] = min(unmultiplied[x], y)
    for x in range(n):
        misordered = (embedded_above[x] ^ monoid.leq[x]) & everything
        y = (misordered & -misordered).bit_length() - 1 if misordered else n
        if unmultiplied[x] <= y and unmultiplied[x] < n:
            return fail(
                "multiplicative",
                {"pair": [monoid.elements[x], monoid.elements[unmultiplied[x]]]},
            )
        if misordered:
            return fail("order_embedding", {"pair": [monoid.elements[x], monoid.elements[y]]})
    if len(set(phi)) != n:
        return fail("injective", {})
    return VerificationReport("subdirect_embedding", instance, "pass")


# -- the suite -----------------------------------------------------------------

def _cons_b_report(lattice: Lattice) -> VerificationReport:
    """The two constant languages at bottom and top are not closed under
    lattice self-maps once a third value exists: recoloring with a middle
    constant leaves the class."""
    alphabet = ("a",)
    members = [
        constant_automaton(lattice, alphabet, lattice.bottom),
        constant_automaton(lattice, alphabet, lattice.top),
    ]
    middle = next(
        v for v in range(lattice.size) if v not in (lattice.bottom, lattice.top)
    )
    produced = recolor(members[1], cons_morphism(lattice, middle))
    escaped = all(not equivalent(produced, m) for m in members)
    instance = {"lattice": list(lattice.elements), "middle": lattice.elements[middle]}
    if escaped:
        return VerificationReport("cons_b_not_closed", instance, "pass")
    return VerificationReport(
        "cons_b_not_closed", instance, "fail",
        witness={"middle": lattice.elements[middle]},
    )


def run_suite(seed: int = 0) -> list[VerificationReport]:
    """Deterministic verification sweep; failures are reports, not exceptions."""
    rng = random.Random(seed)
    reports: list[VerificationReport] = []

    def numbered(report: VerificationReport, i: int) -> VerificationReport:
        return replace(report, instance={**report.instance, "seed": seed, "index": i})

    reports.append(_cons_b_report(standard_lattice("chain", 3)))

    for i in range(SUITE_RECOG_INSTANCES):
        for _ in range(50):
            lattice = random_lattice(rng, SUITE_LATTICE_MAX)
            a1 = random_automaton(rng, lattice, SUITE_STATES_MAX)
            a2 = random_automaton(rng, lattice, SUITE_STATES_MAX)
            s1, s2 = syntactic(a1), syntactic(a2)
            if s1.monoid.size * s2.monoid.size <= SUITE_PRODUCT_CAP:
                break
        triple = product_triple("pjoin", [s1, s2])
        reports.append(numbered(verify_recog_by_synt([a1, a2], triple, synts=[s1, s2]), i))

    pool = enumerate_ordered_monoids(2) + enumerate_ordered_monoids(3)
    for i in range(SUITE_MINIMALITY_INSTANCES):
        monoid = pool[rng.randrange(len(pool))]
        lattice = random_lattice(rng, SUITE_LATTICE_MAX)
        coloring = random_coloring(rng, monoid, lattice)
        images = tuple(rng.randrange(monoid.size) for _ in ("a", "b"))
        triple = RecognitionTriple(("a", "b"), images, coloring)
        machine = triple_to_automaton(triple)
        reports.append(numbered(verify_syntactic_minimality(machine, triple), i))

    for n in range(1, SUITE_SUBDIRECT_MAX_N + 1):
        for monoid in enumerate_ordered_monoids(n):
            reports.append(subdirect_embedding(monoid))

    return reports
