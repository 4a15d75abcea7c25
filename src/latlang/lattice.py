"""Finite lattices: validated order structure, join/meet tables, monotone self-maps.

A lattice is built from Hasse covers (or a full relation) and validated:
the reflexive-transitive closure must be a partial order and every pair of
elements must have a unique least upper bound and greatest lower bound.
Element identity is the positional index; names are presentation only.
All values are immutable after construction.

The finite-order kernel lives here too, for lattices, monoids, colorings,
automata and chains alike: resolving an element by position or name,
closing order pairs, scanning for antisymmetry and monotonicity, and
``orbit``, the breadth-first closure that lists the word maps of a machine
with their Cayley graph and the reachable states of a machine or product.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .errors import (
    MalformedDocument,
    MismatchedLattice,
    NotALattice,
    NotAntisymmetric,
    NotOrderPreserving,
    SizeCapExceeded,
    SizeOutOfRange,
    TrivialLattice,
    UnknownElement,
)

DEFAULT_MAX_SIZE = 64


def resolve(index: Mapping[str, int], element: int | str, what: str) -> int:
    """Position of an element given by position or by name.

    ``index`` maps every name to its position, so its length is the size.
    A boolean is a name, never a position; an unhashable name is unknown.
    """
    if isinstance(element, int) and not isinstance(element, bool):
        if 0 <= element < len(index):
            return element
        raise UnknownElement(f"{what} index {element} out of range")
    try:
        position = index.get(element)
    except TypeError:
        position = None
    if position is None:
        raise UnknownElement(f"unknown {what} {element!r}")
    return position


def order_from_pairs(
    index: Mapping[str, int], pairs: Iterable[Sequence[int | str]], what: str
) -> list[list[bool]]:
    """The reflexive-transitive closure of [lo, hi] pairs, as a boolean matrix."""
    if isinstance(pairs, str) or not isinstance(pairs, Iterable):
        raise MalformedDocument(f"order pairs must be a list, not {pairs!r}")
    n = len(index)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MalformedDocument(f"order pair {pair!r} must list two elements")
        lo, hi = pair
        leq[resolve(index, lo, what)][resolve(index, hi, what)] = True
    for k in range(n):
        row_k = leq[k]
        for row_i in leq:
            if row_i[k]:
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def mutual_pair(leq: Sequence[Sequence[bool]]) -> tuple[int, int] | None:
    """The first pair i < j with i <= j and j <= i; None iff ``leq`` is antisymmetric."""
    n = len(leq)
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                return i, j
    return None


def check_antisymmetric(names: Sequence[str], leq: Sequence[Sequence[bool]]) -> None:
    """Raise NotAntisymmetric, naming the pair ``mutual_pair`` finds, if there is one."""
    pair = mutual_pair(leq)
    if pair is not None:
        i, j = pair
        raise NotAntisymmetric(
            f"{names[i]!r} and {names[j]!r} are mutually comparable",
            witness=[names[i], names[j]],
        )


def monotone_violation(
    src_leq: Sequence[Sequence[bool]],
    dst_leq: Sequence[Sequence[bool]],
    images: Sequence[int],
) -> tuple[int, int] | None:
    """The first pair a <= b whose images are not ordered; None iff the map is monotone."""
    points = range(len(images))
    for a in points:
        dst_row = dst_leq[images[a]]
        for b in compress(points, src_leq[a]):
            if not dst_row[images[b]]:
                return a, b
    return None


def mapping_images(
    mapping: Mapping[str, int | str] | Sequence[int | str],
    names: Sequence[str],
    size: int,
    lookup: Callable[[int | str], int],
    what: str,
) -> tuple[int, ...]:
    """Images of ``names`` under a map given as an object keyed by name or
    as a list in order, into a target of ``size`` elements.

    Images that are all plain ints (bools are names) are range-checked in
    one step, by their least and greatest; any others, or an int out of
    range, go through ``lookup`` entry by entry, so a bad entry raises the
    error ``lookup`` raises for it.
    """
    if isinstance(mapping, Mapping):
        missing = [e for e in names if e not in mapping]
        if missing:
            raise MalformedDocument(f"{what} misses elements {missing!r}")
        images = [mapping[e] for e in names]
    elif isinstance(mapping, str) or not isinstance(mapping, Sequence):
        raise MalformedDocument(f"{what} must be an object or a list")
    elif len(mapping) != len(names):
        raise MalformedDocument(f"{what} has the wrong length")
    else:
        images = mapping
    if set(map(type, images)) == {int} and 0 <= min(images) and max(images) < size:
        return tuple(images)
    return tuple(map(lookup, images))


def orbit(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
    cap: int | None = None,
    what: str = "",
) -> tuple[list, list[list[int]]]:
    """Breadth-first closure of ``start`` under ``successors``, as
    ``(order, table)``: ``order`` lists the elements in discovery order, and
    row i of ``table`` holds the indices of ``successors(order[i])``, one per
    letter.  Read row by row, the first time an index j appears is the edge
    that discovered j.  Finding more than ``cap`` elements raises
    SizeCapExceeded."""
    order = [start]
    index = {start: 0}
    table = []
    for x in order:  # grows while it is read: each element in turn
        row = []
        for y in successors(x):
            j = index.get(y)
            if j is None:
                j = index[y] = len(order)
                if cap is not None and j >= cap:
                    raise SizeCapExceeded(f"{what} exceeds cap {cap}")
                order.append(y)
            row.append(j)
        table.append(row)
    return order, table


def name_tuple(names: Iterable[str], what: str) -> tuple[str, ...]:
    """Names as a tuple; they must be strings.  ``what`` names them in errors."""
    if not isinstance(names, Iterable):
        raise MalformedDocument(f"{what} must be a list")
    result = tuple(names)
    if not all(isinstance(name, str) for name in result):
        raise MalformedDocument(f"{what} must be strings")
    return result


def check_names(element_names: Iterable[str]) -> tuple[str, ...]:
    """Element names as a tuple; they must be distinct strings."""
    names = name_tuple(element_names, "element names")
    if len(set(names)) != len(names):
        raise MalformedDocument("element names must be distinct")
    return names


@dataclass(frozen=True, repr=False)
class Lattice:
    """A finite lattice with its order matrix and join/meet tables."""

    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]
    top: int
    bottom: int

    def __repr__(self) -> str:
        return f"<Lattice {list(self.elements)!r}>"

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, element: int | str) -> int:
        """Resolve an element given by index or name."""
        return resolve(self._name_index, element, "lattice element")

    def name(self, index: int) -> str:
        return self.elements[index]

    def le(self, a: int | str, b: int | str) -> bool:
        return self.leq[self.index(a)][self.index(b)]

    def join(self, a: int | str, b: int | str) -> int:
        return self.join_table[self.index(a)][self.index(b)]

    def meet(self, a: int | str, b: int | str) -> int:
        return self.meet_table[self.index(a)][self.index(b)]

    def join_all(self, elements: Iterable[int | str]) -> int:
        """Join of a (possibly empty) subset; the empty join is bottom."""
        acc = self.bottom
        for e in elements:
            acc = self.join_table[acc][self.index(e)]
        return acc

    def meet_all(self, elements: Iterable[int | str]) -> int:
        """Meet of a (possibly empty) subset; the empty meet is top."""
        acc = self.top
        for e in elements:
            acc = self.meet_table[acc][self.index(e)]
        return acc


def build_lattice(
    element_names: Sequence[str],
    pairs: Iterable[Sequence[int | str]],
) -> Lattice:
    """Build and validate a lattice from order pairs.

    ``pairs`` lists [lo, hi] entries: Hasse covers or any set of order pairs.
    The reflexive-transitive closure is taken, then antisymmetry and the
    existence of unique binary lubs/glbs are checked.  The up-set and
    down-set of each element are bitsets: the lubs of a and b are the c in
    up[a] & up[b] that no other element of it lies below, listed in index
    order, and the glbs are found in the same way with up and down swapped.
    """
    names = check_names(element_names)
    n = len(names)
    if n == 0:
        raise TrivialLattice("a lattice needs at least two elements")
    if n > DEFAULT_MAX_SIZE:
        raise SizeCapExceeded(f"lattice size {n} exceeds cap {DEFAULT_MAX_SIZE}")
    index = {name: i for i, name in enumerate(names)}
    leq = order_from_pairs(index, pairs, "lattice element")
    check_antisymmetric(names, leq)

    if n == 1:
        raise TrivialLattice("bottom equals top in a one-element lattice")

    up = [_bits(row) for row in leq]
    down = [_bits(column) for column in zip(*leq)]
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            least = _extremes(up[a] & up[b], down)
            if len(least) != 1:
                raise NotALattice(
                    f"{names[a]!r} and {names[b]!r} have no unique least upper bound",
                    witness={"pair": [names[a], names[b]], "bound": "join",
                             "candidates": [names[c] for c in least]},
                )
            join_table[a][b] = join_table[b][a] = least[0]
            greatest = _extremes(down[a] & down[b], up)
            if len(greatest) != 1:
                raise NotALattice(
                    f"{names[a]!r} and {names[b]!r} have no unique greatest lower bound",
                    witness={"pair": [names[a], names[b]], "bound": "meet",
                             "candidates": [names[c] for c in greatest]},
                )
            meet_table[a][b] = meet_table[b][a] = greatest[0]

    top = 0
    bottom = 0
    for e in range(1, n):
        top = join_table[top][e]
        bottom = meet_table[bottom][e]

    return Lattice(
        elements=names,
        leq=tuple(tuple(row) for row in leq),
        join_table=tuple(tuple(row) for row in join_table),
        meet_table=tuple(tuple(row) for row in meet_table),
        top=top,
        bottom=bottom,
    )


def _bits(row: Iterable[bool]) -> int:
    """The set of positions where ``row`` is true, as an int."""
    return sum(1 << c for c, flag in enumerate(row) if flag)


def _extremes(common: int, beyond: Sequence[int]) -> list[int]:
    """The c in the bitset ``common``, in index order, whose ``beyond[c]``
    meets ``common`` only in c: its least elements when ``beyond`` holds
    down-sets, its greatest when it holds up-sets."""
    found = []
    rest = common
    while rest:
        low = rest & -rest
        c = low.bit_length() - 1
        if beyond[c] & common == low:
            found.append(c)
        rest ^= low
    return found


def subset_name(members: Iterable[int]) -> str:
    """Canonical name of a powerset-lattice element, e.g. ``{1,3}``."""
    return "{" + ",".join(str(m) for m in sorted(members)) + "}"


def product_name(component_names: Iterable[str]) -> str:
    """Canonical name of a product element or product state, e.g. ``(1,z)``."""
    return "(" + ",".join(component_names) + ")"


def standard_lattice(kind: str, n: int = 2) -> Lattice:
    """Build a canonical lattice: ``powerset``, ``chain``, or ``boolean``.

    Powerset elements are named as sorted subsets of {1..n}; chain elements
    are named "0".."n-1".  ``boolean`` ignores ``n`` and is the 2-chain.
    """
    if kind == "powerset":
        if n < 1:
            raise SizeOutOfRange(f"powerset lattice needs n >= 1, got {n}")
        if 2 ** n > DEFAULT_MAX_SIZE:
            raise SizeOutOfRange(f"powerset of {n} exceeds the size cap {DEFAULT_MAX_SIZE}")
        subsets = []
        for mask in range(2 ** n):
            members = tuple(i + 1 for i in range(n) if mask >> i & 1)
            subsets.append(members)
        subsets.sort(key=lambda s: (len(s), s))
        names = [subset_name(s) for s in subsets]
        pairs = []
        for i, small in enumerate(subsets):
            for j, big in enumerate(subsets):
                if set(small) <= set(big):
                    pairs.append((i, j))
        return build_lattice(names, pairs)
    if kind == "chain":
        if n < 2:
            raise SizeOutOfRange(f"chain lattice needs n >= 2, got {n}")
        if n > DEFAULT_MAX_SIZE:
            raise SizeOutOfRange(f"chain of {n} exceeds the size cap {DEFAULT_MAX_SIZE}")
        names = [str(i) for i in range(n)]
        covers = [(i, i + 1) for i in range(n - 1)]
        return build_lattice(names, covers)
    if kind == "boolean":
        return standard_lattice("chain", 2)
    raise MalformedDocument(f"unknown standard lattice kind {kind!r}")


def bound(lattice: Lattice, kind: str, subset: Iterable[int | str]) -> int:
    """Join or meet of an arbitrary subset (empty join = bottom, empty meet = top)."""
    if kind == "join":
        return lattice.join_all(subset)
    if kind == "meet":
        return lattice.meet_all(subset)
    raise MalformedDocument(f"unknown bound kind {kind!r}")


def dual(lattice: Lattice) -> Lattice:
    """The dual lattice: order reversed, join and meet swapped."""
    n = lattice.size
    leq = tuple(tuple(lattice.leq[j][i] for j in range(n)) for i in range(n))
    return Lattice(
        elements=lattice.elements,
        leq=leq,
        join_table=lattice.meet_table,
        meet_table=lattice.join_table,
        top=lattice.bottom,
        bottom=lattice.top,
    )


@dataclass(frozen=True, repr=False)
class LatticeMorphism:
    """An order-preserving self-map of a lattice."""

    lattice: Lattice
    mapping: tuple[int, ...]

    def __repr__(self) -> str:
        images = [self.lattice.elements[i] for i in self.mapping]
        return f"<LatticeMorphism {images!r}>"

    def __call__(self, element: int | str) -> int:
        return self.mapping[self.lattice.index(element)]

    def then(self, other: "LatticeMorphism") -> "LatticeMorphism":
        """Composition: apply this map first, then ``other``."""
        if other.lattice != self.lattice:
            raise MismatchedLattice("morphisms live on different lattices")
        return make_lattice_morphism(
            self.lattice, [other.mapping[v] for v in self.mapping]
        )


def make_lattice_morphism(
    lattice: Lattice, mapping: Mapping[str, int | str] | Sequence[int | str]
) -> LatticeMorphism:
    """Validate an order-preserving self-map given as a dict or a sequence."""
    images = mapping_images(
        mapping, lattice.elements, lattice.size, lattice.index, "morphism mapping"
    )
    bad = monotone_violation(lattice.leq, lattice.leq, images)
    if bad is not None:
        a, b = bad
        raise NotOrderPreserving(
            f"{lattice.elements[a]!r} <= {lattice.elements[b]!r} but images are not ordered",
            witness={
                "pair": [lattice.elements[a], lattice.elements[b]],
                "images": [lattice.elements[images[a]], lattice.elements[images[b]]],
            },
        )
    return LatticeMorphism(lattice=lattice, mapping=images)


def cons(lattice: Lattice, value: int | str) -> LatticeMorphism:
    """The constant morphism sending every element to ``value``."""
    v = lattice.index(value)
    return LatticeMorphism(lattice=lattice, mapping=tuple(v for _ in lattice.elements))


def identity_morphism(lattice: Lattice) -> LatticeMorphism:
    return LatticeMorphism(lattice=lattice, mapping=tuple(range(lattice.size)))


def threshold(lattice: Lattice, pivot: int | str) -> LatticeMorphism:
    """The two-valued morphism: bottom on the downward closure of ``pivot``, top above.

    Always order-preserving: anything below an element below the pivot is
    itself below the pivot.
    """
    p = lattice.index(pivot)
    mapping = tuple(
        lattice.bottom if lattice.leq[x][p] else lattice.top
        for x in range(lattice.size)
    )
    return LatticeMorphism(lattice=lattice, mapping=mapping)
