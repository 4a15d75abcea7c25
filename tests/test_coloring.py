import random

import pytest
from hypothesis import given, strategies as st

from latlang import (
    combine_colorings,
    cons,
    cons_coloring,
    direct_product,
    generated_submonoid,
    ideal_coloring,
    identity_monoid_morphism,
    make_op_coloring,
    postcompose,
    precompose,
    product_coloring,
    quotient_coloring,
    reconstruct_from_ideals,
    standard_lattice,
    threshold,
)
from latlang.errors import MismatchedCarrier, MismatchedLattice, NotOrderPreserving
from latlang.variety import enumerate_ordered_monoids, random_coloring, random_lattice

from conftest import u1


def test_make_op_coloring(boolean):
    p2 = standard_lattice("powerset", 2)
    m = u1("z<1")
    valid = make_op_coloring(m, p2, {"1": "{1,2}", "z": "{}"})
    assert valid("1") == p2.top and valid("z") == p2.bottom
    with pytest.raises(NotOrderPreserving):
        make_op_coloring(m, p2, {"1": "{}", "z": "{1}"})
    cons_coloring(m, p2, "{1}")


def test_combine_colorings(boolean):
    p2 = standard_lattice("powerset", 2)
    m = u1("z<1")
    p = make_op_coloring(m, p2, {"1": "{1}", "z": "{}"})
    bottom = cons_coloring(m, p2, p2.bottom)
    assert combine_colorings("join", p, bottom).colors == p.colors
    assert combine_colorings("meet", p, p).colors == p.colors
    q = make_op_coloring(m, p2, {"1": "{1,2}", "z": "{1}"})
    joined = combine_colorings("join", p, q)
    assert joined("z") == p2.index("{1}")
    with pytest.raises(MismatchedCarrier):
        combine_colorings("join", p, cons_coloring(u1("="), p2, 0))


def test_product_coloring(boolean):
    p2 = standard_lattice("powerset", 2)
    m = u1("z<1")
    c1 = cons_coloring(m, p2, "{1}")
    c2 = cons_coloring(m, p2, "{2}")
    pjoin = product_coloring("pjoin", [c1, c2])
    assert all(v == p2.index("{1,2}") for v in pjoin.colors)

    top = cons_coloring(m, p2, p2.top)
    other = make_op_coloring(m, p2, {"1": "{1,2}", "z": "{}"})
    pmeet = product_coloring("pmeet", [other, top])
    product, projections = direct_product([m, m])
    lifted = precompose(other, projections[0])
    assert pmeet.monoid == product and pmeet.colors == lifted.colors

    p1 = make_op_coloring(m, p2, {"1": "{1}", "z": "{}"})
    p2_col = make_op_coloring(m, p2, {"1": "{1,2}", "z": "{2}"})
    combined = product_coloring("pjoin", [p1, p2_col])
    at = combined.monoid.index("(z,1)")
    assert combined.colors[at] == p2.index("{1,2}")

    with pytest.raises(MismatchedLattice):
        product_coloring("pjoin", [c1, cons_coloring(m, boolean, 0)])


def test_product_coloring_matches_projection_fold_on_seeded_sweep():
    """Folding colors factor by factor gives the join or meet of each
    element's component colors, read through the projections."""
    pool = [m for n in range(1, 4) for m in enumerate_ordered_monoids(n)]
    rng = random.Random(909)
    for _ in range(100):
        lattice = random_lattice(rng, 6)
        factors = [
            random_coloring(rng, rng.choice(pool), lattice)
            for _ in range(rng.randint(1, 4))
        ]
        product, projections = direct_product([p.monoid for p in factors])
        for kind, fold in (("pjoin", lattice.join_all), ("pmeet", lattice.meet_all)):
            expected = tuple(
                fold(p.colors[pi.mapping[x]] for p, pi in zip(factors, projections))
                for x in range(product.size)
            )
            result = product_coloring(kind, factors)
            assert result.monoid == product and result.colors == expected


def test_quotient_coloring(boolean):
    p2 = standard_lattice("powerset", 2)
    m = u1("z<1")
    p = make_op_coloring(m, p2, {"1": "{1,2}", "z": "{}"})
    assert quotient_coloring("left", p, "1").colors == p.colors
    absorbed = quotient_coloring("left", p, "z")
    assert all(v == p2.bottom for v in absorbed.colors)


def test_quotient_sides_commute(rng):
    """Both orders of a two-sided quotient equal x -> P(z*x*z) (direct oracle)."""
    for monoid in enumerate_ordered_monoids(3):
        lattice = random_lattice(rng, 6)
        p = random_coloring(rng, monoid, lattice)
        for u in range(monoid.size):
            oracle = [
                p.colors[monoid.mul[monoid.mul[u][x]][u]]
                for x in range(monoid.size)
            ]
            left_first = quotient_coloring("right", quotient_coloring("left", p, u), u)
            right_first = quotient_coloring("left", quotient_coloring("right", p, u), u)
            assert list(left_first.colors) == oracle
            assert list(right_first.colors) == oracle


def test_precompose_identity_law(rng):
    """u \\ (P o eta) == (eta(u) \\ P) o eta, checked elementwise."""
    m = u1("z<1")
    product, projections = direct_product([m, m])
    eta = projections[0]
    lattice = random_lattice(rng, 6)
    for _ in range(20):
        p = random_coloring(rng, m, lattice)
        composed = precompose(p, eta)
        for u in range(product.size):
            lhs = quotient_coloring("left", composed, u)
            rhs = precompose(quotient_coloring("left", p, eta.mapping[u]), eta)
            oracle = [
                p.colors[eta.mapping[product.mul[u][x]]]
                for x in range(product.size)
            ]
            assert list(lhs.colors) == list(rhs.colors) == oracle


def test_postcompose(boolean):
    from latlang import identity_morphism

    p2 = standard_lattice("powerset", 2)
    m = u1("z<1")
    p = make_op_coloring(m, p2, {"1": "{1,2}", "z": "{}"})
    assert all(v == p2.bottom for v in postcompose(cons(p2, p2.bottom), p).colors)
    assert postcompose(identity_morphism(p2), p).colors == p.colors
    thresholded = postcompose(threshold(p2, "{1}"), p)
    assert thresholded("z") == p2.bottom and thresholded("1") == p2.top


def test_precompose_basics(boolean):
    p2 = standard_lattice("powerset", 2)
    m = u1("z<1")
    p = make_op_coloring(m, p2, {"1": "{1,2}", "z": "{}"})
    assert precompose(p, identity_monoid_morphism(m)).colors == p.colors
    product, projections = direct_product([m, m])
    lifted = precompose(p, projections[0])
    for x in range(product.size):
        assert lifted.colors[x] == p.colors[projections[0].mapping[x]]


def test_ideal_coloring(boolean):
    m = u1("z<1")
    iota_z = ideal_coloring(m, "z", boolean)
    assert iota_z("z") == boolean.bottom and iota_z("1") == boolean.top
    iota_1 = ideal_coloring(m, "1", boolean)
    assert set(iota_1.colors) == {boolean.bottom}


def test_reconstruct_from_ideals_examples(boolean):
    p2 = standard_lattice("powerset", 2)
    m = u1("z<1")
    constant = cons_coloring(m, p2, "{2}")
    _, equal = reconstruct_from_ideals(constant)
    assert equal
    p = make_op_coloring(m, p2, {"1": "{1}", "z": "{}"})
    rebuilt, equal = reconstruct_from_ideals(p)
    assert equal and rebuilt.colors == p.colors


def test_reconstruct_from_ideals_random(rng):
    pool = enumerate_ordered_monoids(2) + enumerate_ordered_monoids(3)
    products = [direct_product([a, b])[0] for a in pool[:3] for b in pool[:3]]
    monoids = pool + [m for m in products if m.size <= 6]
    for i in range(100):
        monoid = monoids[rng.randrange(len(monoids))]
        lattice = random_lattice(rng, 8)
        p = random_coloring(rng, monoid, lattice)
        _, equal = reconstruct_from_ideals(p)
        assert equal, f"instance {i}"


_LAW_POOL = []
_law_rng = random.Random(4242)
for _monoid in enumerate_ordered_monoids(2) + enumerate_ordered_monoids(3)[:5]:
    _lattice = random_lattice(_law_rng, 6)
    _LAW_POOL.append(
        (
            random_coloring(_law_rng, _monoid, _lattice),
            random_coloring(_law_rng, _monoid, _lattice),
            random_coloring(_law_rng, _monoid, _lattice),
        )
    )


@given(st.sampled_from(_LAW_POOL))
def test_combine_laws(triple):
    p, q, r = triple
    join, meet = (lambda a, b: combine_colorings("join", a, b)), (
        lambda a, b: combine_colorings("meet", a, b)
    )
    assert join(p, q).colors == join(q, p).colors
    assert meet(p, q).colors == meet(q, p).colors
    assert join(p, join(q, r)).colors == join(join(p, q), r).colors
    assert meet(p, meet(q, r)).colors == meet(meet(p, q), r).colors
    assert join(p, p).colors == p.colors and meet(p, p).colors == p.colors
    assert join(p, meet(p, q)).colors == p.colors
    assert meet(p, join(p, q)).colors == p.colors


@given(st.sampled_from(_LAW_POOL), st.data())
def test_quotients_commute_with_combination(triple, data):
    p, q, _ = triple
    u = data.draw(st.integers(0, p.monoid.size - 1))
    for side in ("left", "right"):
        direct = quotient_coloring(side, combine_colorings("join", p, q), u)
        pieced = combine_colorings(
            "join", quotient_coloring(side, p, u), quotient_coloring(side, q, u)
        )
        assert direct.colors == pieced.colors


def test_every_construction_validates(rng):
    """Closure of the coloring algebra: results re-validate, by construction."""
    m = u1("z<1")
    for _ in range(30):
        lattice = random_lattice(rng, 6)
        p = random_coloring(rng, m, lattice)
        q = random_coloring(rng, m, lattice)
        for result in (
            combine_colorings("join", p, q),
            combine_colorings("meet", p, q),
            product_coloring("pjoin", [p, q]),
            product_coloring("pmeet", [p, q]),
            quotient_coloring("left", p, "z"),
            quotient_coloring("right", q, "z"),
            precompose(p, identity_monoid_morphism(m)),
            postcompose(threshold(lattice, rng.randrange(lattice.size)), p),
            ideal_coloring(m, "z", lattice),
        ):
            make_op_coloring(result.monoid, result.lattice, list(result.colors))
