"""Order-preserving colorings of ordered monoids and their closure algebra.

An op-coloring maps a monoid into a lattice monotonically.  Joins, meets,
product joins/meets, quotients, pre- and post-composition, and ideal
colorings all stay inside the class; every constructor here re-validates
its result, so a validation failure flags a library bug.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import (
    MalformedDocument,
    MismatchedCarrier,
    MismatchedLattice,
    NotOrderPreserving,
)
from .lattice import Lattice, LatticeMorphism, combination, mapping_images, monotone_violation
from .monoid import (
    DEFAULT_PRODUCT_CAP,
    MonoidMorphism,
    OrderedMonoid,
    direct_product,
)


@dataclass(frozen=True, repr=False)
class OpColoring:
    """An order-preserving map from an ordered monoid into a lattice."""

    monoid: OrderedMonoid
    lattice: Lattice
    colors: tuple[int, ...]

    def __repr__(self) -> str:
        pairs = [
            f"{e}->{self.lattice.elements[c]}"
            for e, c in zip(self.monoid.elements, self.colors)
        ]
        return f"<OpColoring {pairs!r}>"

    def __call__(self, element: int | str) -> int:
        return self.colors[self.monoid.index(element)]


def make_op_coloring(
    monoid: OrderedMonoid,
    lattice: Lattice,
    colors: Mapping[str, int | str] | Sequence[int | str],
) -> OpColoring:
    """Validate an op-coloring given as a dict over element names or a sequence."""
    values = mapping_images(colors, monoid.elements, lattice.size, lattice.index, "coloring")
    bad = monotone_violation(monoid.leq, lattice.leq, values)
    if bad is not None:
        a, b = bad
        raise NotOrderPreserving(
            f"{monoid.elements[a]!r} <= {monoid.elements[b]!r} "
            "but colors are not ordered",
            witness={
                "pair": [monoid.elements[a], monoid.elements[b]],
                "colors": [lattice.elements[values[a]], lattice.elements[values[b]]],
            },
        )
    return OpColoring(monoid=monoid, lattice=lattice, colors=values)


def cons_coloring(monoid: OrderedMonoid, lattice: Lattice, value: int | str) -> OpColoring:
    v = lattice.index(value)
    return make_op_coloring(monoid, lattice, [v] * monoid.size)


def combine_colorings(kind: str, p1: OpColoring, p2: OpColoring) -> OpColoring:
    """Pointwise join or meet of two colorings on the same carrier."""
    if p1.monoid != p2.monoid:
        raise MismatchedCarrier("colorings live on different monoids")
    if p1.lattice != p2.lattice:
        raise MismatchedLattice("colorings live on different lattices")
    table, _ = combination(p1.lattice, kind)
    values = [table[a][b] for a, b in zip(p1.colors, p2.colors)]
    return make_op_coloring(p1.monoid, p1.lattice, values)


def product_coloring(
    kind: str,
    colorings: Sequence[OpColoring],
    *,
    max_size: int = DEFAULT_PRODUCT_CAP,
) -> OpColoring:
    """Product join/meet: fold the component colors over the product monoid.

    ``(pjoin)(m) = V_i P_i(m_i)`` and ``(pmeet)(m) = A_i P_i(m_i)``; the
    result lives on the direct product of the component monoids, and the
    colors are folded in factor by factor in its element order.
    """
    if not colorings:
        raise MalformedDocument("product coloring needs at least one factor")
    lattice = colorings[0].lattice
    if any(p.lattice != lattice for p in colorings):
        raise MismatchedLattice("product coloring factors use different lattices")
    if kind == "pjoin":
        table, values = lattice.join_table, [lattice.bottom]
    elif kind == "pmeet":
        table, values = lattice.meet_table, [lattice.top]
    else:
        raise MalformedDocument(f"unknown product coloring kind {kind!r}")
    product, _ = direct_product([p.monoid for p in colorings], max_size=max_size)
    for p in colorings:
        values = [table[v][c] for v in values for c in p.colors]
    return make_op_coloring(product, lattice, values)


def quotient_coloring(side: str, p: OpColoring, u: int | str) -> OpColoring:
    """Left quotient x -> P(u*x) or right quotient x -> P(x*u)."""
    ui = p.monoid.index(u)
    if side == "left":
        values = [p.colors[p.monoid.mul[ui][x]] for x in range(p.monoid.size)]
    elif side == "right":
        values = [p.colors[p.monoid.mul[x][ui]] for x in range(p.monoid.size)]
    else:
        raise MalformedDocument(f"unknown quotient side {side!r}")
    return make_op_coloring(p.monoid, p.lattice, values)


def precompose(p: OpColoring, h: MonoidMorphism) -> OpColoring:
    """The coloring x -> P(h(x)) on h's source (inverse homomorphism)."""
    if h.target != p.monoid:
        raise MismatchedCarrier("morphism target differs from the coloring's monoid")
    values = [p.colors[h.mapping[x]] for x in range(h.source.size)]
    return make_op_coloring(h.source, p.lattice, values)


def postcompose(alpha: LatticeMorphism, p: OpColoring) -> OpColoring:
    """The coloring x -> alpha(P(x))."""
    if alpha.lattice != p.lattice:
        raise MismatchedLattice("morphism lattice differs from the coloring's lattice")
    values = [alpha.mapping[c] for c in p.colors]
    return make_op_coloring(p.monoid, p.lattice, values)


def ideal_coloring(monoid: OrderedMonoid, m: int | str, lattice: Lattice) -> OpColoring:
    """The two-valued coloring that is bottom exactly on the downward closure of m."""
    mi = monoid.index(m)
    values = [lattice.bottom if row >> mi & 1 else lattice.top for row in monoid.leq]
    return make_op_coloring(monoid, lattice, values)


def reconstruct_from_ideals(p: OpColoring) -> tuple[OpColoring, bool]:
    """Rebuild P as the meet over m of (ideal[m] joined with the constant P(m)).

    The reconstruction is provably pointwise equal to P; the returned flag
    lets tests assert it.
    """
    monoid, lattice = p.monoid, p.lattice
    result = None
    for m in range(monoid.size):
        ideal = ideal_coloring(monoid, m, lattice)
        lifted = [
            lattice.join_table[c][p.colors[m]] for c in ideal.colors
        ]
        piece = make_op_coloring(monoid, lattice, lifted)
        result = piece if result is None else combine_colorings("meet", result, piece)
    assert result is not None
    return result, result.colors == p.colors
