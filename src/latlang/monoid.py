"""Finite ordered monoids: construction, products, submonoids, morphisms, division.

An ordered monoid is a finite monoid together with a partial order that is
compatible with multiplication on both sides.  Construction validates the
unit laws, associativity, antisymmetry of the closed order, and one-sided
translation monotonicity (the two-sided form follows by composing the two
one-sided ones).  Associativity and monotonicity are checked through a
generating set by Light's test, and through every element only to name
the first witness once that check fails.  A table known to be generated
by some of its elements is validated through them by ``check_generated``.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

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
    bit_positions,
    check_antisymmetric,
    check_names,
    mapping_images,
    monotone_violation,
    order_from_pairs,
    pointwise_order,
    product_name,
    resolve,
)

DEFAULT_MAX_SIZE = 512
DEFAULT_PRODUCT_CAP = 1024


@dataclass(frozen=True, repr=False)
class OrderedMonoid:
    """A finite monoid with a compatible partial order, as up-set rows: bit
    b of ``leq[a]`` is set iff a <= b."""

    elements: tuple[str, ...]
    identity: int
    mul: tuple[tuple[int, ...], ...]
    leq: tuple[int, ...]

    def __repr__(self) -> str:
        return f"<OrderedMonoid {list(self.elements)!r}>"

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, element: int | str) -> int:
        return resolve(self._name_index, element, "monoid element", self.size)

    def op(self, a: int | str, b: int | str) -> int:
        return self.mul[self.index(a)][self.index(b)]

    def le(self, a: int | str, b: int | str) -> bool:
        return bool(self.leq[self.index(a)] >> self.index(b) & 1)

    def order_pairs(self) -> list[tuple[str, str]]:
        """All non-reflexive order pairs, as names, in index order."""
        return [
            (self.elements[a], self.elements[b])
            for a, row in enumerate(self.leq)
            for b in bit_positions(row & ~(1 << a))
        ]


def _make_unchecked(
    elements: Sequence[str],
    identity: int,
    mul: Sequence[Sequence[int]],
    leq: Sequence[int],
) -> OrderedMonoid:
    """Internal constructor for monoids that are valid by construction."""
    return OrderedMonoid(
        elements=tuple(elements),
        identity=identity,
        mul=tuple(tuple(row) for row in mul),
        leq=tuple(leq),
    )


def build_ordered_monoid(
    element_names: Sequence[str],
    identity: int | str,
    mul_table: Sequence[Sequence[int | str]],
    leq_pairs: Iterable[Sequence[int | str]] = (),
) -> OrderedMonoid:
    """Build and validate an ordered monoid from a multiplication table.

    ``mul_table`` is any sequence of rows, such as a ``serialize.Table``.
    ``leq_pairs`` are arbitrary order pairs; the reflexive-transitive closure
    is computed here.  Antisymmetry failure is an error, never silently
    quotiented.  Associativity and compatibility are checked through the
    greedy generating set, as ``check_generated`` checks them; only when
    that check fails do they run through every element, so the error names
    the first witness in element order.
    """
    names = check_names(element_names)
    n = len(names)
    if n == 0:
        raise MalformedDocument("a monoid needs at least one element")
    if n > DEFAULT_MAX_SIZE:
        raise SizeCapExceeded(f"monoid size {n} exceeds cap {DEFAULT_MAX_SIZE}")
    index = {name: i for i, name in enumerate(names)}
    if not isinstance(mul_table, Sequence) or len(mul_table) != n or any(
        not isinstance(row, (list, tuple)) or len(row) != n for row in mul_table
    ):
        raise MalformedDocument("multiplication table must be n x n")
    mul = [_resolve_row(index, row) for row in mul_table]
    ident = resolve(index, identity, "monoid element")

    for x in range(n):
        if mul[ident][x] != x or mul[x][ident] != x:
            raise NoIdentity(
                f"{names[ident]!r} is not a two-sided unit at {names[x]!r}",
                witness=names[x],
            )
    gens = _greedy_generators(mul, ident)
    _check_through(gens, n, _check_associative, names, mul)

    leq = order_from_pairs(index, leq_pairs, "monoid element")
    _check_through(gens, n, _check_order, names, mul, leq)

    return _make_unchecked(names, ident, mul, leq)


def _resolve_row(index: Mapping[str, int], row: Sequence[int | str]) -> list[int]:
    """A table row's entries as positions, by one name lookup per entry.

    Only a row with an entry that is not a name (a position, or something
    unknown or unhashable) goes through ``resolve`` entry by entry, so a
    bad entry raises the error ``resolve`` raises for it.
    """
    try:
        resolved = list(map(index.get, row))
    except TypeError:
        resolved = [None]
    if None in resolved:
        return [resolve(index, e, "monoid element") for e in row]
    return resolved


def _check_through(gens: Sequence[int], n: int, check, *table) -> None:
    """Run ``check`` on ``table`` through ``gens``, and if it fails, again
    through all n elements, whose first witness the error then names."""
    try:
        check(*table, gens)
    except (NotAssociative, NotCompatible):
        check(*table, range(n))
        raise


def _greedy_generators(mul: Sequence[Sequence[int]], identity: int) -> list[int]:
    """Each element, in index order, that the earlier ones do not generate.

    Closure is under right multiplication from ``identity``, which needs no
    associativity, so this also serves a table not yet validated.
    """
    gens: list[int] = []
    generated = {identity}
    for x in range(len(mul)):
        if x not in generated:
            gens.append(x)
            generated = set(_closure_of(mul, identity, gens))
    return gens


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
    leq: Sequence[int],
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
    leq: Sequence[int],
    gens: Sequence[int],
) -> tuple[int, int, int, str] | None:
    """The first (x, y, z, side) with x <= y but not zx <= zy (side "left")
    or not xz <= yz (side "right"), for z in ``gens``; None iff compatible."""
    for x, row in enumerate(leq):
        for y in bit_positions(row & ~(1 << x)):
            for z in gens:
                if not leq[mul[z][x]] >> mul[z][y] & 1:
                    return x, y, z, "left"
                if not leq[mul[x][z]] >> mul[y][z] & 1:
                    return x, y, z, "right"
    return None


def trivial_monoid(name: str = "1") -> OrderedMonoid:
    return _make_unchecked((name,), 0, ((0,),), (1,))


def direct_product(
    monoids: Sequence[OrderedMonoid], *, max_size: int = DEFAULT_PRODUCT_CAP
) -> tuple[OrderedMonoid, tuple["MonoidMorphism", ...]]:
    """Componentwise product with componentwise order; projections returned alongside.

    Element order is lexicographic in the component indices, so the index of
    a tuple is its mixed-radix value (``product_index``).  The factors are
    folded in one at a time: element (x, j) of the partial product P times
    M is x*|M| + j, so the row of (x, j) is, for each y in P, the block of
    |M| entries a*|M| + jk (jk running over row j of M) at a = xy.  The
    blocks of row j are built once, as |M| strided ranges zipped, and each
    row is gathered from them by one ``itemgetter`` of row x.  A one-element
    factor leaves the tables as they are, so folding it in only extends the
    element names, and folding M into a one-element P gives M's tables.
    The order row of (x, j) is row j copied into the |M|-bit block of every
    element above x: the row of x spread to one bit per block, times j's.
    The projection onto a factor of size s with stride t (the product of
    the later sizes) is the blocks [0]*t, ..., [s-1]*t, repeated.
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
    mul: Sequence[tuple[int, ...]] = ((0,),)
    leq: Sequence[int] = (1,)
    for m in monoids:
        s, n = m.size, len(mul)
        parts = [p + (e,) for p in parts for e in m.elements]
        if s == 1:
            continue
        if n == 1:
            mul, leq = m.mul, m.leq
            continue
        shifted = [list(zip(*(range(z, z + n * s, s) for z in j))) for j in m.mul]
        gathers = [itemgetter(*x) for x in mul]
        mul = [tuple(itertools.chain.from_iterable(get(row))) for get in gathers for row in shifted]
        blocks = [sum(1 << y * s for y in bit_positions(row)) for row in leq]
        leq = [block * j for block in blocks for j in m.leq]
    identity = product_index(sizes, [m.identity for m in monoids])
    product = _make_unchecked(tuple(map(product_name, parts)), identity, mul, leq)
    projections = []
    stride = total
    for m in monoids:
        stride //= m.size
        period = tuple(itertools.chain.from_iterable([c] * stride for c in range(m.size)))
        mapping = period * (total // len(period))
        projections.append(MonoidMorphism(source=product, target=m, mapping=mapping))
    return product, tuple(projections)


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
    carrier = _closure_of(
        monoid.mul, monoid.identity, [monoid.index(g) for g in generators]
    )
    sub_index = {x: i for i, x in enumerate(carrier)}
    names = tuple(monoid.elements[x] for x in carrier)
    mul = [[sub_index[monoid.mul[a][b]] for b in carrier] for a in carrier]
    sub = _make_unchecked(names, 0, mul, pointwise_order(monoid.leq, [(x,) for x in carrier]))
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
    images = mapping_images(
        mapping, source.elements, target.size, target.index, "morphism mapping"
    )
    if images[source.identity] != target.identity:
        raise NotAMorphism("identity is not preserved")
    for a in range(source.size):
        for b in range(source.size):
            if images[source.mul[a][b]] != target.mul[images[a]][images[b]]:
                raise NotAMorphism(
                    "multiplication is not preserved",
                    witness=[source.elements[a], source.elements[b]],
                )
            if source.leq[a] >> b & 1 and not target.leq[images[a]] >> images[b] & 1:
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
    return all(row >> monoid.identity & 1 for row in monoid.leq)


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
    leq: Sequence[int], coset: Sequence[tuple[int, ...]]
) -> tuple[tuple[bool, ...], ...]:
    """The least copy of an order relabeled by one of ``coset``'s
    relabelings, as a matrix of bools, row i of the copy being row old[i]."""
    return min(tuple(tuple(leq[a] >> b & 1 == 1 for b in old) for a in old) for old in coset)


@dataclass(frozen=True)
class DivisionVerdict:
    kind: str  # "yes" | "no" | "budget_exhausted"
    generators: tuple[str, ...] | None = None
    mapping: dict[str, str] | None = None


def _closure_of(
    mul: Sequence[Sequence[int]], identity: int, gens: Sequence[int]
) -> list[int]:
    """Elements generated by ``gens``, in breadth-first order from ``identity``.

    This is ``orbit``'s order, but kept apart on purpose: ``divides`` runs it
    for every generator subset, and building an orbit's table there is
    about three times slower.
    """
    carrier = [identity]
    seen = {identity}
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        mul_x = mul[x]
        for g in gens:
            y = mul_x[g]
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
    candidates: Iterable[tuple[int, ...]],
) -> dict[int, int] | None:
    """Search for a surjective order-preserving morphism from the submonoid
    of ``m2`` with the given carrier (generated by ``gens``) onto ``m1``.

    The mapping is keyed by ambient m2 indices.  ``candidates`` are the
    tuples of generator images to try, in lexicographic order, so the first
    witness is deterministic.  Each candidate walks the table of right
    products by the generators over the carrier, row by row; the carrier is
    in breadth-first order, so the first edge to reach an element assigns
    its image, and every other edge must agree with the image already
    assigned.  The order restricted to the carrier is read once, at the
    first candidate that passes and is onto ``m1``.
    """
    position = {x: i for i, x in enumerate(carrier)}
    edges = [
        (i, position[m2.mul[x][g]], k)
        for i, x in enumerate(carrier)
        for k, g in enumerate(gens)
    ]
    leq = None
    for images in candidates:
        img = [m1.identity]
        for x, y, k in edges:
            expected = m1.mul[img[x]][images[k]]
            if y == len(img):
                img.append(expected)
            elif img[y] != expected:
                break
        else:
            if len(set(img)) == m1.size:
                leq = leq or pointwise_order(m2.leq, [(x,) for x in carrier])
                if monotone_violation(leq, m1.leq, img) is None:
                    return dict(zip(carrier, img))
    return None


def divides(
    m1: OrderedMonoid, m2: OrderedMonoid, max_target_size: int = 10
) -> DivisionVerdict:
    """Decide whether ``m1`` divides ``m2``: is some submonoid of ``m2`` an
    order-preserving surjective image onto ``m1``?

    Submonoids are enumerated as closures of generator subsets by ascending
    size; carriers already searched are skipped (every morphism from a
    carrier is found with its first generating set).  Subsets stop at the
    size r of ``m1``'s greedy generating set: a submonoid S of ``m2`` that
    maps onto ``m1`` holds one preimage of each of those r generators, and
    the submonoid they generate still maps onto ``m1``.  So the first
    witness and every verdict are those of the search over all subsets,
    which visits O(|m2|^r) carriers instead of 2^|m2|.  A surjective
    morphism sends the k generators of its carrier to k elements that
    generate ``m1``, so only such tuples of images are tried, listed once
    per k when the first carrier with enough elements needs them.  The
    search is complete; ``budget_exhausted`` means only that ``m2`` has
    more than ``max_target_size`` elements, and no search was made.
    """
    if m2.size > max_target_size:
        return DivisionVerdict("budget_exhausted")
    rank = len(_greedy_generators(m1.mul, m1.identity))
    non_identity = [i for i in range(m2.size) if i != m2.identity]
    seen_carriers: set[tuple[int, ...]] = set()
    for k in range(rank + 1):
        generating = None
        for gens in itertools.combinations(non_identity, k):
            carrier = _closure_of(m2.mul, m2.identity, gens)
            key = tuple(sorted(carrier))
            if key in seen_carriers:
                continue
            seen_carriers.add(key)
            if len(carrier) < m1.size:
                continue
            if generating is None:
                generating = [
                    images
                    for images in itertools.product(range(m1.size), repeat=k)
                    if len(_closure_of(m1.mul, m1.identity, images)) == m1.size
                ]
            img = _surjection_onto(m1, m2, carrier, gens, generating)
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
