"""Finite lattices: validated order structure, join/meet tables, monotone self-maps.

A lattice is built from Hasse covers (or a full relation) and validated:
the reflexive-transitive closure must be a partial order and every pair of
elements must have a unique least upper bound and greatest lower bound.
The join of a and b is the element whose up-set is the intersection of
theirs, found by looking that intersection up among the up-set rows (and
the meet likewise among the down-set rows); only a pair with no unique
bound is searched, to name its candidates.  The standard powersets and
chains are built from their definition, with no validation to do.
Element identity is the positional index; names are presentation only.
All values are immutable after construction.

The finite-order kernel lives here too, for lattices, monoids, colorings,
automata and chains alike.  Every order, preorder and reach relation is
one int per element, its up-set row: bit b of row a is set iff a <= b (or
a reaches b).  ``closure_bits`` is the one reflexive-transitive closure of
such rows; ``bit_positions`` and ``converse`` read them; the antisymmetry
and monotonicity scans work on them.  ``order_preserving(mapping, source,
target, what, noun)`` is the one reader and checker of a map between two
carriers (each a ``Lattice`` or an ``OrderedMonoid``): it reads the map
as an object keyed by name or a list in element order, resolves its
images in the target, and checks that they preserve the order.  Lattice
morphisms, colorings and monoid morphisms all go through it.
``pointwise_order`` is the one order read through maps into a preorder:
the syntactic orders, restricted submonoid orders, the subdirect order
embedding and the recognition identities all come off it.

Here too is resolving elements by position or name: ``resolve`` takes
one, and ``resolve_all`` a batch.  Every batch of references goes
through ``resolve_all``: table rows, order pairs, a machine's delta rows
and outputs, letter images, generators, the elements of a join or meet,
and the images of colorings and morphisms.  A batch of positions is
range-checked once, by its least and greatest entry, and builds no name
index; a batch of names takes one lookup per entry; any other batch is
resolved entry by entry, so the first bad entry raises its own error.
``Lattice.indices`` and ``OrderedMonoid.indices`` hand it their carrier's
size and name index.

``orbit`` is the breadth-first closure that lists the word maps of a
machine with their Cayley graph and the reachable states of a machine or
product; ``orbit_words`` reads each element's least word off an orbit's
first edges.  ``number`` is the one way to sort things into
classes: it numbers keys in order of first appearance, and ``firsts``
gives each number's first member.  Moore refinement in ``minimize``, the
ergodic classes of a chain and the syntactic quotients of a table all
number their blocks through it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

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

DEFAULT_MAX_SIZE = 1024


def resolve(
    index: Mapping[str, int], element: int | str, what: str, size: int | None = None
) -> int:
    """Position of an element given by position or by name.

    ``index`` maps names to positions.  ``size`` is the number of
    positions; by default the length of ``index``, which is the size only
    when no two positions share a name.  A boolean is a name, never a
    position; an unhashable name is unknown.
    """
    if isinstance(element, int) and not isinstance(element, bool):
        if 0 <= element < (len(index) if size is None else size):
            return element
        raise UnknownElement(f"{what} index {element} out of range")
    try:
        position = index.get(element)
    except TypeError:
        position = None
    if position is None:
        raise UnknownElement(f"unknown {what} {element!r}")
    return position


def resolve_all(
    entries: Iterable[int | str],
    size: int,
    index: Callable[[], Mapping[str, int]],
    what: str,
) -> tuple[int, ...]:
    """Positions of a batch of elements given by position or by name.

    A batch that starts with a plain int (booleans are names) is read as
    positions: if every entry is a plain int, the batch is range-checked
    once, by its least and greatest entry, without calling ``index``,
    which returns the name index and may have to build it.  Any other
    batch is read as names, one lookup per entry.  A batch that is
    neither goes through ``resolve`` entry by entry, so its first bad
    entry raises the error ``resolve`` raises for it.
    """
    entries = tuple(entries)
    if not entries:
        return entries
    if type(entries[0]) is int:
        if set(map(type, entries)) == {int} and 0 <= min(entries) and max(entries) < size:
            return entries
    else:
        try:
            positions = tuple(map(index().get, entries))
        except TypeError:
            positions = (None,)
        if None not in positions:
            return positions
    names = index()
    return tuple(resolve(names, e, what, size) for e in entries)


def closure_bits(rows: Iterable[int]) -> tuple[int, ...]:
    """The reflexive-transitive closure of a relation given by rows: bit b
    of row a is set iff a relates to b.

    Warshall (1962) by rows: for each k in turn, row k is ORed into every
    row that holds bit k.
    """
    closed = [row | 1 << a for a, row in enumerate(rows)]
    for k in range(len(closed)):
        bit, row_k = 1 << k, closed[k]
        closed = [row | row_k if row & bit else row for row in closed]
    return tuple(closed)


def bit_positions(row: int) -> list[int]:
    """The positions of the set bits of ``row``, ascending."""
    found = []
    while row:
        b = row.bit_length() - 1
        found.append(b)
        row ^= 1 << b
    found.reverse()
    return found


def converse(rows: Sequence[int]) -> tuple[int, ...]:
    """The rows of the converse relation: bit a of row b is set iff bit b of
    row a is; the down-sets of an order given by its up-sets."""
    flipped = [0] * len(rows)
    for a, row in enumerate(rows):
        for b in bit_positions(row):
            flipped[b] |= 1 << a
    return tuple(flipped)


def pointwise_order(pre: Sequence[int], maps: Sequence[Sequence[int]]) -> list[int]:
    """Rows of the order m_i <= m_j iff m_i(q) <= m_j(q) under ``pre`` at
    every position q.

    The maps send each of their positions to a point of ``pre``, which may
    have another number of points (states, or lattice values).  Bit j of
    ``at[q][v]`` is set when m_j(q) = v, and ``above[q][p]`` is the union of
    the ``at[q][v]`` over the v in row p of ``pre`` (they are disjoint, so
    it is their sum), so row i is the intersection over q of
    ``above[q][m_i(q)]``: one AND per position instead of one comparison
    per pair of maps.
    """
    k = len(maps)
    ups = [bit_positions(pre_p) for pre_p in pre]
    at = [[0] * len(pre) for _ in maps[0]]
    for j, m in enumerate(maps):
        bit = 1 << j
        for at_q, v in zip(at, m):
            at_q[v] |= bit
    above = [[sum(map(at_q.__getitem__, up)) for up in ups] for at_q in at]
    rows = []
    for m in maps:
        row = (1 << k) - 1
        for above_q, v in zip(above, m):
            row &= above_q[v]
        rows.append(row)
    return rows


def order_from_pairs(
    index: Mapping[str, int], pairs: Iterable[Sequence[int | str]], what: str
) -> tuple[int, ...]:
    """The reflexive-transitive closure of [lo, hi] pairs, as up-set rows.

    The pairs' ends are resolved as one batch by ``resolve_all``.  A
    malformed pair is refused only once the ends before it are resolved,
    so the first bad entry or pair raises its error.
    """
    if isinstance(pairs, str) or not isinstance(pairs, Iterable):
        raise MalformedDocument(f"order pairs must be a list, not {pairs!r}")
    ends: list[int | str] = []
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            resolve_all(ends, len(index), lambda: index, what)
            raise MalformedDocument(f"order pair {pair!r} must list two elements")
        ends += pair
    positions = resolve_all(ends, len(index), lambda: index, what)
    rows = [0] * len(index)
    for lo, hi in zip(positions[::2], positions[1::2]):
        rows[lo] |= 1 << hi
    return closure_bits(rows)


def mutual_pair(leq: Sequence[int]) -> tuple[int, int] | None:
    """The first pair i < j with i <= j and j <= i in a reflexive, transitive
    relation; None iff it is antisymmetric.  There such a pair is a pair of
    equal rows: each row holds the other's element, and so all its row."""
    first: dict[int, int] = {}
    pairs = [(first.setdefault(row, j), j) for j, row in enumerate(leq)]
    return min((pair for pair in pairs if pair[0] != pair[1]), default=None)


def check_antisymmetric(names: Sequence[str], leq: Sequence[int]) -> None:
    """Raise NotAntisymmetric, naming the pair ``mutual_pair`` finds, if there is one."""
    pair = mutual_pair(leq)
    if pair is not None:
        i, j = pair
        raise NotAntisymmetric(
            f"{names[i]!r} and {names[j]!r} are mutually comparable",
            witness=[names[i], names[j]],
        )


def monotone_violation(
    src_leq: Sequence[int], dst_leq: Sequence[int], images: Sequence[int]
) -> tuple[int, int] | None:
    """The first pair a <= b whose images are not ordered; None iff the map is monotone."""
    for a, row in enumerate(src_leq):
        dst_row = dst_leq[images[a]]
        for b in bit_positions(row):
            if not dst_row >> images[b] & 1:
                return a, b
    return None


def order_preserving(
    mapping: Mapping[str, int | str] | Sequence[int | str],
    source: Lattice | OrderedMonoid,
    target: Lattice | OrderedMonoid,
    what: str,
    noun: str,
) -> tuple[int, ...]:
    """The images of ``source``'s elements under a map into ``target``,
    checked to preserve the order.

    The map is an object keyed by element name or a list in element
    order; its images, by position or name, are read by ``target.indices``.
    The first pair a <= b whose images are not ordered raises
    NotOrderPreserving, with the pair and its images, the latter named by
    ``noun`` (as in "images" or "colors").
    """
    names = source.elements
    if isinstance(mapping, Mapping):
        missing = [e for e in names if e not in mapping]
        if missing:
            raise MalformedDocument(f"{what} misses elements {missing!r}")
        images = target.indices([mapping[e] for e in names])
    elif isinstance(mapping, str) or not isinstance(mapping, Sequence):
        raise MalformedDocument(f"{what} must be an object or a list")
    elif len(mapping) != len(names):
        raise MalformedDocument(f"{what} has the wrong length")
    else:
        images = target.indices(mapping)
    bad = monotone_violation(source.leq, target.leq, images)
    if bad is not None:
        a, b = bad
        raise NotOrderPreserving(
            f"{names[a]!r} <= {names[b]!r} but {noun} are not ordered",
            witness={
                "pair": [names[a], names[b]],
                noun: [target.elements[images[a]], target.elements[images[b]]],
            },
        )
    return images


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


def orbit_words(table: Sequence[Sequence[int]], letters: Sequence) -> list[tuple]:
    """The word of each element of an ``orbit``, read along the edges that
    first reached it: its length-lex-least word when successors are listed
    in letter order."""
    words = [()]
    for p, row in enumerate(table):
        for l, y in enumerate(row):
            if y == len(words):
                words.append(words[p] + (letters[l],))
    return words


def number(keys: Iterable[Hashable]) -> list[int]:
    """Each key's number, the distinct keys numbered 0, 1, ... in order of
    first appearance: equal keys get equal numbers."""
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in keys]


def firsts(labels: Sequence[int]) -> list[int]:
    """The first position of each label, for labels numbered in order of
    first appearance (as ``number`` numbers them)."""
    found: list[int] = []
    for i, label in enumerate(labels):
        if label == len(found):
            found.append(i)
    return found


def name_tuple(names: Iterable[str], what: str) -> tuple[str, ...]:
    """Names as a tuple; they must be a list of strings, not one string and
    not an object, whose keys would pass for names.  ``what`` names them in
    errors."""
    if isinstance(names, str):
        raise MalformedDocument(f"{what} must be a list, not a string")
    if isinstance(names, Mapping):
        raise MalformedDocument(f"{what} must be a list, not an object")
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
    """A finite lattice with its order as up-set rows (bit b of ``leq[a]``
    is set iff a <= b) and its join/meet tables."""

    elements: tuple[str, ...]
    leq: tuple[int, ...]
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
        return resolve(self._name_index, element, "lattice element", self.size)

    def indices(self, elements: Iterable[int | str]) -> tuple[int, ...]:
        """Resolve a batch of elements given by index or name (``resolve_all``)."""
        return resolve_all(
            elements, len(self.elements), lambda: self._name_index, "lattice element"
        )

    def le(self, a: int | str, b: int | str) -> bool:
        return bool(self.leq[self.index(a)] >> self.index(b) & 1)

    def join(self, a: int | str, b: int | str) -> int:
        return self.join_table[self.index(a)][self.index(b)]

    def meet(self, a: int | str, b: int | str) -> int:
        return self.meet_table[self.index(a)][self.index(b)]

    def join_all(self, elements: Iterable[int | str]) -> int:
        """Join of a (possibly empty) subset; the empty join is bottom."""
        return _fold(self, self.join_table, self.bottom, elements)

    def meet_all(self, elements: Iterable[int | str]) -> int:
        """Meet of a (possibly empty) subset; the empty meet is top."""
        return _fold(self, self.meet_table, self.top, elements)


def build_lattice(
    element_names: Sequence[str],
    pairs: Iterable[Sequence[int | str]],
) -> Lattice:
    """Build and validate a lattice from order pairs.

    ``pairs`` lists [lo, hi] entries: Hasse covers or any set of order pairs.
    The reflexive-transitive closure is taken, then antisymmetry and the
    existence of unique binary lubs/glbs are checked.  The order's rows are
    the up-sets and their converse the down-sets.  The common upper bounds
    up[a] & up[b] are an up-set, and they have a least element c exactly
    when they are up[c]; so each join is one lookup in a dict from up-set
    row to element, and each meet one lookup in a dict from down-set row to
    element.  Only a lookup that misses lists the minimal common upper
    (maximal common lower) bounds, in index order, to name them in the
    ``NotALattice`` error.
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

    down = converse(leq)
    up_of = {row: c for c, row in enumerate(leq)}
    down_of = {row: c for c, row in enumerate(down)}
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for a in range(n):
        up_a, down_a = leq[a], down[a]
        for b in range(a, n):
            common = up_a & leq[b]
            least = up_of.get(common)
            if least is None:
                raise NotALattice(
                    f"{names[a]!r} and {names[b]!r} have no unique least upper bound",
                    witness={"pair": [names[a], names[b]], "bound": "join",
                             "candidates": [names[c] for c in _extremes(common, down)]},
                )
            join_table[a][b] = join_table[b][a] = least
            common = down_a & down[b]
            greatest = down_of.get(common)
            if greatest is None:
                raise NotALattice(
                    f"{names[a]!r} and {names[b]!r} have no unique greatest lower bound",
                    witness={"pair": [names[a], names[b]], "bound": "meet",
                             "candidates": [names[c] for c in _extremes(common, leq)]},
                )
            meet_table[a][b] = meet_table[b][a] = greatest

    top = 0
    bottom = 0
    for e in range(1, n):
        top = join_table[top][e]
        bottom = meet_table[bottom][e]

    return Lattice(
        elements=names,
        leq=leq,
        join_table=tuple(tuple(row) for row in join_table),
        meet_table=tuple(tuple(row) for row in meet_table),
        top=top,
        bottom=bottom,
    )


def _extremes(common: int, beyond: Sequence[int]) -> list[int]:
    """The c in the bitset ``common``, in index order, whose ``beyond[c]``
    meets ``common`` only in c: its least elements when ``beyond`` holds
    down-sets, its greatest when it holds up-sets."""
    return [c for c in bit_positions(common) if beyond[c] & common == 1 << c]


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
    Both are built from their definition, with nothing left to validate:
    the subsets, as bit masks listed by size and then by members, are
    ordered by inclusion with union as join and intersection as meet; the
    chain's element i is below i..n-1, with max as join and min as meet.
    """
    if kind == "powerset":
        if n < 1:
            raise SizeOutOfRange(f"powerset lattice needs n >= 1, got {n}")
        if 2 ** n > DEFAULT_MAX_SIZE:
            raise SizeOutOfRange(
                f"powerset of {n} exceeds the size cap {DEFAULT_MAX_SIZE}", witness=n
            )
        members = [[i + 1 for i in range(n) if mask >> i & 1] for mask in range(2 ** n)]
        masks = sorted(range(2 ** n), key=lambda mask: (len(members[mask]), members[mask]))
        position = {mask: i for i, mask in enumerate(masks)}
        return Lattice(
            elements=tuple(subset_name(members[mask]) for mask in masks),
            leq=tuple(
                sum(1 << j for j, big in enumerate(masks) if big & small == small)
                for small in masks
            ),
            join_table=tuple(tuple(position[a | b] for b in masks) for a in masks),
            meet_table=tuple(tuple(position[a & b] for b in masks) for a in masks),
            top=position[2 ** n - 1],
            bottom=position[0],
        )
    if kind == "chain":
        if n < 2:
            raise SizeOutOfRange(f"chain lattice needs n >= 2, got {n}")
        if n > DEFAULT_MAX_SIZE:
            raise SizeOutOfRange(
                f"chain of {n} exceeds the size cap {DEFAULT_MAX_SIZE}", witness=n
            )
        return Lattice(
            elements=tuple(str(i) for i in range(n)),
            leq=tuple((1 << n) - (1 << i) for i in range(n)),
            join_table=tuple(tuple(max(i, j) for j in range(n)) for i in range(n)),
            meet_table=tuple(tuple(min(i, j) for j in range(n)) for i in range(n)),
            top=n - 1,
            bottom=0,
        )
    if kind == "boolean":
        return standard_lattice("chain", 2)
    raise MalformedDocument(f"unknown standard lattice kind {kind!r}")


def bound(lattice: Lattice, kind: str, subset: Iterable[int | str]) -> int:
    """Join or meet of an arbitrary subset (empty join = bottom, empty meet = top)."""
    return _fold(lattice, *combination(lattice, kind), subset)


def _fold(
    lattice: Lattice, table: Sequence[Sequence[int]], unit: int, elements: Iterable[int | str]
) -> int:
    """The elements, resolved in the lattice as one batch, folded into
    ``unit`` through ``table``: their join or meet with the matching unit."""
    acc = unit
    for e in lattice.indices(elements):
        acc = table[acc][e]
    return acc


def combination(lattice: Lattice, kind: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The table and unit of a combination kind: ``(join_table, bottom)``
    for ``join``, ``(meet_table, top)`` for ``meet``."""
    if kind == "join":
        return lattice.join_table, lattice.bottom
    if kind == "meet":
        return lattice.meet_table, lattice.top
    raise MalformedDocument(f"unknown combination kind {kind!r}")


def dual(lattice: Lattice) -> Lattice:
    """The dual lattice: order reversed, join and meet swapped."""
    return Lattice(
        elements=lattice.elements,
        leq=converse(lattice.leq),
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
    images = order_preserving(mapping, lattice, lattice, "morphism mapping", "images")
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
        lattice.bottom if row >> p & 1 else lattice.top for row in lattice.leq
    )
    return LatticeMorphism(lattice=lattice, mapping=mapping)
