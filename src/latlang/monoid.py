"""Finite ordered monoids: construction, products, submonoids, morphisms, division.

An ordered monoid is a finite monoid together with a partial order that is
compatible with multiplication on both sides.  Construction validates
associativity over all triples, the unit laws, antisymmetry of the closed
order, and one-sided translation monotonicity (the two-sided form follows
by composing the two one-sided ones).  A table known to be generated by
some of its elements is validated through them by ``check_generated``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    MalformedDocument,
    NoIdentity,
    NotAMorphism,
    NotAssociative,
    NotCompatible,
    NotOrderPreserving,
    SizeCapExceeded,
)
from .lattice import (
    check_antisymmetric,
    check_names,
    mapping_images,
    monotone_violation,
    order_from_pairs,
    product_name,
    resolve,
)

DEFAULT_MAX_SIZE = 512
DEFAULT_PRODUCT_CAP = 1024


@dataclass(frozen=True, repr=False)
class OrderedMonoid:
    """A finite monoid with a compatible partial order."""

    elements: tuple[str, ...]
    identity: int
    mul: tuple[tuple[int, ...], ...]
    leq: tuple[tuple[bool, ...], ...]

    def __repr__(self) -> str:
        return f"<OrderedMonoid {list(self.elements)!r}>"

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, element: int | str) -> int:
        return resolve(self._name_index, element, "monoid element")

    def name(self, index: int) -> str:
        return self.elements[index]

    def op(self, a: int | str, b: int | str) -> int:
        return self.mul[self.index(a)][self.index(b)]

    def le(self, a: int | str, b: int | str) -> bool:
        return self.leq[self.index(a)][self.index(b)]

    def order_pairs(self) -> list[tuple[str, str]]:
        """All non-reflexive order pairs, as names, in index order."""
        return [
            (self.elements[a], self.elements[b])
            for a in range(self.size)
            for b in range(self.size)
            if a != b and self.leq[a][b]
        ]


def _make_unchecked(
    elements: Sequence[str],
    identity: int,
    mul: Sequence[Sequence[int]],
    leq: Sequence[Sequence[bool]],
) -> OrderedMonoid:
    """Internal constructor for monoids that are valid by construction."""
    return OrderedMonoid(
        elements=tuple(elements),
        identity=identity,
        mul=tuple(tuple(row) for row in mul),
        leq=tuple(tuple(row) for row in leq),
    )


def build_ordered_monoid(
    element_names: Sequence[str],
    identity: int | str,
    mul_table: Sequence[Sequence[int | str]],
    leq_pairs: Iterable[Sequence[int | str]] = (),
) -> OrderedMonoid:
    """Build and validate an ordered monoid from a multiplication table.

    ``leq_pairs`` are arbitrary order pairs; the reflexive-transitive closure
    is computed here.  Antisymmetry failure is an error, never silently
    quotiented.
    """
    if isinstance(element_names, str):
        raise MalformedDocument("element names must be a list, not a string")
    names = check_names(element_names)
    n = len(names)
    if n == 0:
        raise MalformedDocument("a monoid needs at least one element")
    if n > DEFAULT_MAX_SIZE:
        raise SizeCapExceeded(f"monoid size {n} exceeds cap {DEFAULT_MAX_SIZE}")
    index = {name: i for i, name in enumerate(names)}
    if not isinstance(mul_table, (list, tuple)) or len(mul_table) != n or any(
        not isinstance(row, (list, tuple)) or len(row) != n for row in mul_table
    ):
        raise MalformedDocument("multiplication table must be n x n")
    mul = [[resolve(index, e, "monoid element") for e in row] for row in mul_table]
    ident = resolve(index, identity, "monoid element")

    for x in range(n):
        if mul[ident][x] != x or mul[x][ident] != x:
            raise NoIdentity(
                f"{names[ident]!r} is not a two-sided unit at {names[x]!r}",
                witness=names[x],
            )
    _check_associative(names, mul, range(n))

    leq = order_from_pairs(index, leq_pairs, "monoid element")
    _check_order(names, mul, leq, range(n))

    return _make_unchecked(names, ident, mul, leq)


def check_generated(monoid: OrderedMonoid, generators: Iterable[int]) -> None:
    """Validate a table that the identity and ``generators`` generate.

    Light's test: the elements g with (xg)y = x(gy) for all x, y form a
    submonoid, so checking the generators proves associativity; then
    compatibility with each generator extends to every element.  The order
    must already be reflexive and transitive.  Cost is O(c^2 * |generators|)
    for c elements.
    """
    gens = list(generators)
    _check_associative(monoid.elements, monoid.mul, gens)
    _check_order(monoid.elements, monoid.mul, monoid.leq, gens)


def _check_associative(
    names: Sequence[str], mul: Sequence[Sequence[int]], gens: Sequence[int]
) -> None:
    """Raise NotAssociative unless (xg)y = x(gy) for all x, y and each g.

    Each row (xg)- is compared whole with row x- read at the entries of row
    g-, gathered by an ``itemgetter`` per g; only a row that differs is
    scanned for its first y.  The one table on one element is associative,
    and there an ``itemgetter`` of one index would return no tuple.
    """
    if len(mul) == 1:
        return
    readers = [(g, itemgetter(*mul[g])) for g in gens]
    for x, mul_x in enumerate(mul):
        for g, read_g in readers:
            row_xg = tuple(mul[mul_x[g]])
            if row_xg != read_g(mul_x):
                y = next(y for y, z in enumerate(row_xg) if z != mul_x[mul[g][y]])
                raise NotAssociative(
                    "multiplication is not associative",
                    witness=[names[x], names[g], names[y]],
                )


def _check_order(
    names: Sequence[str],
    mul: Sequence[Sequence[int]],
    leq: Sequence[Sequence[bool]],
    gens: Sequence[int],
) -> None:
    """Raise NotAntisymmetric or NotCompatible unless ``leq`` is antisymmetric
    and compatible with translation by each element of ``gens``."""
    check_antisymmetric(names, leq)
    bad = compatibility_violation(mul, leq, gens)
    if bad is not None:
        x, y, z, side = bad
        raise NotCompatible(
            f"order is not compatible with {side} translation",
            witness={"le": [names[x], names[y]], "z": names[z], "side": side},
        )


def compatibility_violation(
    mul: Sequence[Sequence[int]],
    leq: Sequence[Sequence[bool]],
    gens: Sequence[int],
) -> tuple[int, int, int, str] | None:
    """The first (x, y, z, side) with x <= y but not zx <= zy (side "left")
    or not xz <= yz (side "right"), for z in ``gens``; None iff compatible."""
    n = len(mul)
    for x in range(n):
        leq_x = leq[x]
        for y in range(n):
            if x == y or not leq_x[y]:
                continue
            for z in gens:
                if not leq[mul[z][x]][mul[z][y]]:
                    return x, y, z, "left"
                if not leq[mul[x][z]][mul[y][z]]:
                    return x, y, z, "right"
    return None


def trivial_monoid(name: str = "1") -> OrderedMonoid:
    return _make_unchecked((name,), 0, ((0,),), ((True,),))


def direct_product(
    monoids: Sequence[OrderedMonoid], *, max_size: int = DEFAULT_PRODUCT_CAP
) -> tuple[OrderedMonoid, tuple["MonoidMorphism", ...]]:
    """Componentwise product with componentwise order; projections returned alongside.

    Element order is lexicographic in the component indices, so the index of
    a tuple is its mixed-radix value (``product_index``).  The factors are
    folded in one at a time: element (x, j) of the partial product times M
    is x*|M| + j, so its products and order come from the partial tables.
    """
    if not monoids:
        raise MalformedDocument("direct product needs at least one factor")
    sizes = [m.size for m in monoids]
    total = 1
    for s in sizes:
        total *= s
        if total > max_size:
            raise SizeCapExceeded(
                f"product size exceeds cap {max_size}", witness=sizes
            )
    parts: list[tuple[str, ...]] = [()]
    mul: list[list[int]] = [[0]]
    leq: list[list[bool]] = [[True]]
    components: list[list[int]] = []
    for m in monoids:
        s = m.size
        parts = [p + (e,) for p in parts for e in m.elements]
        mul = [[xy * s + z for xy in x for z in j] for x in mul for j in m.mul]
        leq = [[a and b for a in x for b in j] for x in leq for j in m.leq]
        components = [[c for c in proj for _ in range(s)] for proj in components]
        components.append(list(range(s)) * (len(parts) // s))
    identity = product_index(sizes, [m.identity for m in monoids])
    product = _make_unchecked(tuple(map(product_name, parts)), identity, mul, leq)
    projections = tuple(
        MonoidMorphism(source=product, target=m, mapping=tuple(proj))
        for m, proj in zip(monoids, components)
    )
    return product, projections


def product_index(sizes: Sequence[int], combo: Sequence[int]) -> int:
    """Index of a component tuple inside ``direct_product``'s element order."""
    idx = 0
    for size, c in zip(sizes, combo):
        idx = idx * size + c
    return idx


def generated_submonoid(
    monoid: OrderedMonoid, generators: Iterable[int | str]
) -> tuple[OrderedMonoid, "MonoidMorphism"]:
    """Closure of the generators (plus identity) under multiplication.

    Returns the submonoid with the restricted order and the embedding
    morphism into the ambient monoid.  Elements are listed in breadth-first
    discovery order starting from the identity.
    """
    carrier = _closure_of(monoid, [monoid.index(g) for g in generators])
    sub_index = {x: i for i, x in enumerate(carrier)}
    names = tuple(monoid.elements[x] for x in carrier)
    mul = [[sub_index[monoid.mul[a][b]] for b in carrier] for a in carrier]
    leq = [[monoid.leq[a][b] for b in carrier] for a in carrier]
    sub = _make_unchecked(names, 0, mul, leq)
    embedding = MonoidMorphism(source=sub, target=monoid, mapping=tuple(carrier))
    return sub, embedding


@dataclass(frozen=True, repr=False)
class MonoidMorphism:
    """An order-preserving monoid morphism between two ordered monoids."""

    source: OrderedMonoid
    target: OrderedMonoid
    mapping: tuple[int, ...]

    def __repr__(self) -> str:
        return f"<MonoidMorphism {self.source.size}->{self.target.size}>"

    def __call__(self, element: int | str) -> int:
        return self.mapping[self.source.index(element)]

    def then(self, other: "MonoidMorphism") -> "MonoidMorphism":
        if other.source != self.target:
            raise NotAMorphism("composition carriers do not match")
        return MonoidMorphism(
            source=self.source,
            target=other.target,
            mapping=tuple(other.mapping[v] for v in self.mapping),
        )


def identity_monoid_morphism(monoid: OrderedMonoid) -> MonoidMorphism:
    return MonoidMorphism(monoid, monoid, tuple(range(monoid.size)))


def make_monoid_morphism(
    source: OrderedMonoid,
    target: OrderedMonoid,
    mapping: Mapping[str, int | str] | Sequence[int | str],
) -> MonoidMorphism:
    """Validate a morphism: unit, multiplicativity, order preservation."""
    images = mapping_images(mapping, source.elements, target.index, "morphism mapping")
    if images[source.identity] != target.identity:
        raise NotAMorphism("identity is not preserved")
    for a in range(source.size):
        for b in range(source.size):
            if images[source.mul[a][b]] != target.mul[images[a]][images[b]]:
                raise NotAMorphism(
                    "multiplication is not preserved",
                    witness=[source.elements[a], source.elements[b]],
                )
            if source.leq[a][b] and not target.leq[images[a]][images[b]]:
                raise NotOrderPreserving(
                    "order is not preserved",
                    witness=[source.elements[a], source.elements[b]],
                )
    return MonoidMorphism(source=source, target=target, mapping=images)


def aperiodicity_witness(monoid: OrderedMonoid) -> dict | None:
    """The first element whose powers x, x^2, ... end in a cycle longer than
    one, with the cycle's length as "period"; None iff the monoid is aperiodic."""
    for x in range(monoid.size):
        seen = {}
        current = x
        exponent = 1
        while current not in seen:
            seen[current] = exponent
            current = monoid.mul[current][x]
            exponent += 1
        period = exponent - seen[current]
        if period > 1:
            return {"element": monoid.elements[x], "period": period}
    return None


def is_aperiodic(monoid: OrderedMonoid) -> bool:
    """True iff some n <= |M| satisfies x^n = x^(n+1) for every x."""
    return aperiodicity_witness(monoid) is None


def identity_is_greatest(monoid: OrderedMonoid) -> bool:
    return all(monoid.leq[x][monoid.identity] for x in range(monoid.size))


def is_isomorphic(m1: OrderedMonoid, m2: OrderedMonoid) -> bool:
    """Isomorphism of ordered monoids: equal sizes and equal canonical keys."""
    return m1.size == m2.size and canonical_key(m1) == canonical_key(m2)


def canonical_key(monoid: OrderedMonoid) -> tuple:
    """Minimal serialized form (n, mul, leq) over identity-fixing relabelings.

    The table is compared before the order, so the least form relabels the
    table to its canonical form and the order by the best relabeling that
    does so.
    """
    table, coset = canonical_table(monoid.mul, monoid.identity)
    return monoid.size, table, _least_order(monoid.leq, coset)


def canonical_table(
    mul: Sequence[Sequence[int]], identity: int
) -> tuple[tuple[tuple[int, ...], ...], list[tuple[int, ...]]]:
    """The least relabeled copy of a multiplication table over the
    relabelings that send ``identity`` to 0, and the relabelings that reach it.

    A relabeling is listed as ``old``: new element i is old element old[i].
    The relabelings that reach the least copy form a coset of the table's
    automorphism group, so there is usually only one.
    """
    n = len(mul)
    best: tuple[tuple[int, ...], ...] | None = None
    coset: list[tuple[int, ...]] = []
    rest = [x for x in range(n) if x != identity]
    for perm in itertools.permutations(rest):
        old = (identity, *perm)
        new = [0] * n
        for i, x in enumerate(old):
            new[x] = i
        table = tuple(tuple(new[mul[a][b]] for b in old) for a in old)
        if best is None or table < best:
            best, coset = table, [old]
        elif table == best:
            coset.append(old)
    return best, coset


def _least_order(
    leq: Sequence[Sequence[bool]], coset: Sequence[tuple[int, ...]]
) -> tuple[tuple[bool, ...], ...]:
    """The least copy of an order relabeled by one of ``coset``'s relabelings."""
    return min(tuple(tuple(leq[a][b] for b in old) for a in old) for old in coset)


@dataclass(frozen=True)
class DivisionVerdict:
    kind: str  # "yes" | "no" | "budget_exhausted"
    generators: tuple[str, ...] | None = None
    mapping: dict[str, str] | None = None

    def to_doc(self) -> dict:
        doc: dict = {"verdict": self.kind}
        if self.kind == "yes":
            doc["witness"] = {
                "generators": list(self.generators or ()),
                "mapping": self.mapping,
            }
        return doc


def _closure_of(monoid: OrderedMonoid, gens: Sequence[int]) -> list[int]:
    """Elements generated by ``gens``, in breadth-first order from the identity.

    This is ``orbit``'s order, but kept apart on purpose: ``divides`` runs it
    for every generator subset, and building an orbit's table there is
    about three times slower.
    """
    carrier = [monoid.identity]
    seen = {monoid.identity}
    queue = deque([monoid.identity])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = monoid.mul[x][g]
            if y not in seen:
                seen.add(y)
                carrier.append(y)
                queue.append(y)
    return carrier


def _surjection_onto(
    m1: OrderedMonoid,
    m2: OrderedMonoid,
    carrier: list[int],
    gens: tuple[int, ...],
) -> dict[int, int] | None:
    """Search for a surjective order-preserving morphism from the submonoid
    of ``m2`` with the given carrier (generated by ``gens``) onto ``m1``.

    The mapping is keyed by ambient m2 indices.  Candidates are enumerated
    by generator images in lexicographic order, so the first witness is
    deterministic.  Each candidate walks the table of right products by the
    generators over the carrier, row by row; the carrier is in breadth-first
    order, so the first edge to reach an element assigns its image, and
    every other edge must agree with the image already assigned.
    """
    position = {x: i for i, x in enumerate(carrier)}
    edges = [
        (i, position[m2.mul[x][g]], k)
        for i, x in enumerate(carrier)
        for k, g in enumerate(gens)
    ]
    leq = [[m2.leq[x][y] for y in carrier] for x in carrier]
    for images in itertools.product(range(m1.size), repeat=len(gens)):
        img = [m1.identity]
        for x, y, k in edges:
            expected = m1.mul[img[x]][images[k]]
            if y == len(img):
                img.append(expected)
            elif img[y] != expected:
                break
        else:
            if len(set(img)) == m1.size and monotone_violation(leq, m1.leq, img) is None:
                return dict(zip(carrier, img))
    return None


def divides(
    m1: OrderedMonoid, m2: OrderedMonoid, max_target_size: int = 10
) -> DivisionVerdict:
    """Decide whether ``m1`` divides ``m2``: is some submonoid of ``m2`` an
    order-preserving surjective image onto ``m1``?

    Submonoids are enumerated as closures of generator subsets by ascending
    size; carriers already searched are skipped (every morphism from a
    carrier is found with its first generating set).  The search is
    exhaustive; ``budget_exhausted`` means only that ``m2`` has more than
    ``max_target_size`` elements, and no search was made.
    """
    if m2.size > max_target_size:
        return DivisionVerdict("budget_exhausted")
    non_identity = [i for i in range(m2.size) if i != m2.identity]
    seen_carriers: set[tuple[int, ...]] = set()
    for k in range(len(non_identity) + 1):
        for gens in itertools.combinations(non_identity, k):
            carrier = _closure_of(m2, gens)
            key = tuple(sorted(carrier))
            if key in seen_carriers:
                continue
            seen_carriers.add(key)
            if len(carrier) < m1.size:
                continue
            img = _surjection_onto(m1, m2, carrier, gens)
            if img is not None:
                mapping = {
                    m2.elements[x]: m1.elements[img[x]] for x in sorted(img)
                }
                return DivisionVerdict(
                    "yes",
                    generators=tuple(m2.elements[g] for g in gens),
                    mapping=mapping,
                )
    return DivisionVerdict("no")
