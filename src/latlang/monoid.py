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
from typing import Iterable, Mapping, Sequence

from .errors import (
    MalformedDocument,
    NoIdentity,
    NotAMorphism,
    NotAntisymmetric,
    NotAssociative,
    NotCompatible,
    NotOrderPreserving,
    SizeCapExceeded,
    UnknownElement,
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
        if isinstance(element, bool):
            raise UnknownElement(f"not a monoid element: {element!r}")
        if isinstance(element, int):
            if 0 <= element < len(self.elements):
                return element
            raise UnknownElement(f"monoid element index {element} out of range")
        idx = self._name_index.get(element)
        if idx is None:
            raise UnknownElement(f"unknown monoid element {element!r}")
        return idx

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
    *,
    max_size: int = DEFAULT_MAX_SIZE,
) -> OrderedMonoid:
    """Build and validate an ordered monoid from a multiplication table.

    ``leq_pairs`` are arbitrary order pairs; the reflexive-transitive closure
    is computed here.  Antisymmetry failure is an error, never silently
    quotiented.
    """
    if isinstance(element_names, str):
        raise MalformedDocument("element names must be a list, not a string")
    names = tuple(element_names)
    if not all(isinstance(n, str) for n in names):
        raise MalformedDocument("element names must be strings")
    if len(set(names)) != len(names):
        raise MalformedDocument("element names must be distinct")
    n = len(names)
    if n == 0:
        raise MalformedDocument("a monoid needs at least one element")
    if n > max_size:
        raise SizeCapExceeded(f"monoid size {n} exceeds cap {max_size}")
    index = {name: i for i, name in enumerate(names)}

    def resolve(e: int | str) -> int:
        if isinstance(e, int) and not isinstance(e, bool):
            if 0 <= e < n:
                return e
            raise UnknownElement(f"monoid element index {e} out of range")
        if e in index:
            return index[e]
        raise UnknownElement(f"unknown monoid element {e!r}")

    if len(mul_table) != n or any(len(row) != n for row in mul_table):
        raise MalformedDocument("multiplication table must be n x n")
    mul = [[resolve(e) for e in row] for row in mul_table]
    ident = resolve(identity)

    for x in range(n):
        if mul[ident][x] != x or mul[x][ident] != x:
            raise NoIdentity(
                f"{names[ident]!r} is not a two-sided unit at {names[x]!r}",
                witness=names[x],
            )
    _check_associative(names, mul, range(n))

    leq = [[False] * n for _ in range(n)]
    for pair in leq_pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MalformedDocument(f"order pair {pair!r} must list two elements")
        lo, hi = pair
        leq[resolve(lo)][resolve(hi)] = True
    for i in range(n):
        leq[i][i] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_i = leq[i]
                row_k = leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
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
    """Raise NotAssociative unless (xg)y = x(gy) for all x, y and each g."""
    n = len(names)
    for x in range(n):
        mul_x = mul[x]
        for g in gens:
            row_xg = mul[mul_x[g]]
            mul_g = mul[g]
            for y in range(n):
                if row_xg[y] != mul_x[mul_g[y]]:
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
    and x <= y implies zx <= zy and xz <= yz for each z in ``gens``."""
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAntisymmetric(
                    f"{names[i]!r} and {names[j]!r} are mutually comparable",
                    witness=[names[i], names[j]],
                )
    for x in range(n):
        for y in range(n):
            if x == y or not leq[x][y]:
                continue
            for z in gens:
                if not leq[mul[z][x]][mul[z][y]]:
                    raise NotCompatible(
                        "order is not compatible with left translation",
                        witness={"le": [names[x], names[y]], "z": names[z], "side": "left"},
                    )
                if not leq[mul[x][z]][mul[y][z]]:
                    raise NotCompatible(
                        "order is not compatible with right translation",
                        witness={"le": [names[x], names[y]], "z": names[z], "side": "right"},
                    )


def trivial_monoid(name: str = "1") -> OrderedMonoid:
    return _make_unchecked((name,), 0, ((0,),), ((True,),))


def product_name(component_names: Iterable[str]) -> str:
    return "(" + ",".join(component_names) + ")"


def direct_product(
    monoids: Sequence[OrderedMonoid], *, max_size: int = DEFAULT_PRODUCT_CAP
) -> tuple[OrderedMonoid, tuple["MonoidMorphism", ...]]:
    """Componentwise product with componentwise order; projections returned alongside.

    Element order is lexicographic in the component indices, so the index of
    a tuple is its mixed-radix value.
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
    tuples = list(itertools.product(*(range(s) for s in sizes)))
    names = tuple(
        product_name(m.elements[c] for m, c in zip(monoids, combo)) for combo in tuples
    )
    radix = {}
    for i, combo in enumerate(tuples):
        radix[combo] = i
    identity = radix[tuple(m.identity for m in monoids)]
    mul = [
        [
            radix[tuple(m.mul[a[i]][b[i]] for i, m in enumerate(monoids))]
            for b in tuples
        ]
        for a in tuples
    ]
    leq = [
        [
            all(m.leq[a[i]][b[i]] for i, m in enumerate(monoids))
            for b in tuples
        ]
        for a in tuples
    ]
    product = _make_unchecked(names, identity, mul, leq)
    projections = tuple(
        MonoidMorphism(
            source=product,
            target=monoids[i],
            mapping=tuple(combo[i] for combo in tuples),
        )
        for i in range(len(monoids))
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
    if isinstance(mapping, Mapping):
        missing = [e for e in source.elements if e not in mapping]
        if missing:
            raise MalformedDocument(f"morphism mapping misses elements {missing!r}")
        images = tuple(target.index(mapping[e]) for e in source.elements)
    else:
        if len(mapping) != source.size:
            raise MalformedDocument("morphism mapping has the wrong length")
        images = tuple(target.index(v) for v in mapping)
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


def is_aperiodic(monoid: OrderedMonoid) -> bool:
    """True iff some n <= |M| satisfies x^n = x^(n+1) for every x."""
    n = monoid.size
    current = list(range(n))  # current[x] = x^e
    for _ in range(n):
        if all(monoid.mul[current[x]][x] == current[x] for x in range(n)):
            return True
        current = [monoid.mul[current[x]][x] for x in range(n)]
    return False


def identity_is_greatest(monoid: OrderedMonoid) -> bool:
    return all(monoid.leq[x][monoid.identity] for x in range(monoid.size))


def is_isomorphic(m1: OrderedMonoid, m2: OrderedMonoid) -> bool:
    """Brute-force isomorphism test over identity-preserving bijections.

    A bijective morphism need not be an isomorphism, so the order is
    checked in both directions.
    """
    n = m1.size
    if n != m2.size:
        return False
    rest1 = [i for i in range(n) if i != m1.identity]
    rest2 = [i for i in range(n) if i != m2.identity]
    for perm in itertools.permutations(rest2):
        phi = {m1.identity: m2.identity}
        phi.update(zip(rest1, perm))
        ok = True
        for a in range(n):
            for b in range(n):
                if phi[m1.mul[a][b]] != m2.mul[phi[a]][phi[b]]:
                    ok = False
                    break
                if m1.leq[a][b] != m2.leq[phi[a]][phi[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def canonical_key(monoid: OrderedMonoid) -> tuple:
    """Minimal serialized form over identity-fixing relabelings."""
    n = monoid.size
    rest = [i for i in range(n) if i != monoid.identity]
    best = None
    for perm in itertools.permutations(range(1, n)):
        relabel = {monoid.identity: 0}
        relabel.update(zip(rest, perm))
        mul = [[0] * n for _ in range(n)]
        leq = [[False] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                mul[relabel[a]][relabel[b]] = relabel[monoid.mul[a][b]]
                leq[relabel[a]][relabel[b]] = monoid.leq[a][b]
        key = (n, tuple(map(tuple, mul)), tuple(map(tuple, leq)))
        if best is None or key < best:
            best = key
    return best


@dataclass(frozen=True)
class DivisionBudget:
    """Search bounds for ``divides``; exceeding them yields ``budget_exhausted``."""

    max_target_size: int = 10
    max_generator_subsets: int | None = None
    max_morphisms_per_submonoid: int | None = None


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
    """Elements generated by ``gens``, in breadth-first order from the identity."""
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
    max_candidates: int | None,
) -> tuple[dict[int, int] | None, bool]:
    """Search for a surjective order-preserving morphism from the submonoid
    of ``m2`` with the given carrier (generated by ``gens``) onto ``m1``.

    Returns (mapping or None, truncated flag).  The mapping is keyed by
    ambient m2 indices.  Candidates are enumerated by generator images in
    lexicographic order, so the first witness is deterministic.
    """
    carrier_set = set(carrier)
    count = 0
    for images in itertools.product(range(m1.size), repeat=len(gens)):
        count += 1
        if max_candidates is not None and count > max_candidates:
            return None, True
        img = {m2.identity: m1.identity}
        queue = deque([m2.identity])
        ok = True
        while queue and ok:
            x = queue.popleft()
            for g, hg in zip(gens, images):
                y = m2.mul[x][g]
                expected = m1.mul[img[x]][hg]
                if y in img:
                    if img[y] != expected:
                        ok = False
                        break
                else:
                    # early order-violation pruning against assigned images
                    if any(
                        (m2.leq[z][y] and not m1.leq[iz][expected])
                        or (m2.leq[y][z] and not m1.leq[expected][iz])
                        for z, iz in img.items()
                    ):
                        ok = False
                        break
                    img[y] = expected
                    queue.append(y)
        if not ok or len(img) != len(carrier_set):
            continue
        if set(img.values()) != set(range(m1.size)):
            continue
        if any(
            m2.leq[x][y] and not m1.leq[img[x]][img[y]]
            for x in carrier
            for y in carrier
        ):
            continue
        return img, False
    return None, False


def divides(
    m1: OrderedMonoid, m2: OrderedMonoid, budget: DivisionBudget | None = None
) -> DivisionVerdict:
    """Decide whether ``m1`` divides ``m2``: is some submonoid of ``m2`` an
    order-preserving surjective image onto ``m1``?

    Submonoids are enumerated as closures of generator subsets by ascending
    size; carriers already searched are skipped (every morphism from a
    carrier is found with its first generating set).  The search is
    exhaustive within the budget; ``budget_exhausted`` is returned only when
    the space was actually truncated.
    """
    budget = budget or DivisionBudget()
    if m2.size > budget.max_target_size:
        return DivisionVerdict("budget_exhausted")
    truncated = False
    non_identity = [i for i in range(m2.size) if i != m2.identity]
    seen_carriers: set[tuple[int, ...]] = set()
    subsets = 0
    for k in range(len(non_identity) + 1):
        for gens in itertools.combinations(non_identity, k):
            subsets += 1
            if (
                budget.max_generator_subsets is not None
                and subsets > budget.max_generator_subsets
            ):
                return DivisionVerdict("budget_exhausted")
            carrier = _closure_of(m2, gens)
            key = tuple(sorted(carrier))
            if key in seen_carriers:
                continue
            seen_carriers.add(key)
            if len(carrier) < m1.size:
                continue
            img, cut_off = _surjection_onto(
                m1, m2, carrier, gens, budget.max_morphisms_per_submonoid
            )
            truncated = truncated or cut_off
            if img is not None:
                mapping = {
                    m2.elements[x]: m1.elements[img[x]] for x in sorted(img)
                }
                return DivisionVerdict(
                    "yes",
                    generators=tuple(m2.elements[g] for g in gens),
                    mapping=mapping,
                )
    return DivisionVerdict("budget_exhausted" if truncated else "no")
