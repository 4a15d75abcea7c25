import pytest
from hypothesis import given, strategies as st

from latlang import (
    DivisionBudget,
    build_ordered_monoid,
    direct_product,
    divides,
    generated_submonoid,
    identity_is_greatest,
    is_aperiodic,
    is_isomorphic,
    make_monoid_morphism,
    standard_lattice,
    trivial_monoid,
)
from latlang.monoid import OrderedMonoid, check_generated
from latlang.errors import (
    LatlangError,
    NoIdentity,
    NotAssociative,
    NotCompatible,
    SizeCapExceeded,
)

from conftest import u1, z2


def test_u1_builds():
    m = u1("z<1")
    assert m.op("z", "z") == m.index("z")
    assert m.le("z", "1") and not m.le("1", "z")


def test_trivial_builds():
    m = build_ordered_monoid(("1",), "1", [["1"]])
    assert m.size == 1 and m.identity == 0


def test_group_admits_only_equality_order():
    with pytest.raises(NotCompatible) as err:
        build_ordered_monoid(("1", "g"), "1", [["1", "g"], ["g", "1"]], [("1", "g")])
    assert err.value.witness["le"] == ["1", "g"]


def test_not_associative():
    with pytest.raises(NotAssociative):
        build_ordered_monoid(
            ("1", "x", "y"),
            "1",
            [["1", "x", "y"], ["x", "y", "x"], ["y", "x", "x"]],
        )


def test_bad_identity():
    with pytest.raises(NoIdentity):
        build_ordered_monoid(("1", "z"), "z", [["1", "z"], ["z", "z"]])


def test_direct_product():
    m = u1("z<1")
    product, projections = direct_product([m, m])
    assert product.size == 4
    assert identity_is_greatest(product)
    # componentwise order by exhaustive pair scan
    for a in range(product.size):
        for b in range(product.size):
            expected = all(
                m.leq[pi.mapping[a]][pi.mapping[b]] for pi in projections
            )
            assert product.leq[a][b] == expected


def test_unary_product_is_isomorphic_copy():
    m = u1("z<1")
    product, _ = direct_product([m])
    assert product.mul == m.mul and product.leq == m.leq
    assert product.elements == ("(1)", "(z)")


def test_product_with_trivial_is_isomorphic():
    m = u1("z<1")
    product, _ = direct_product([trivial_monoid(), m])
    assert is_isomorphic(product, m)


def test_product_cap():
    m, _ = direct_product([u1()] * 3)
    with pytest.raises(SizeCapExceeded):
        direct_product([m] * 5, max_size=100)


def test_generated_submonoid():
    m = u1("z<1")
    product, _ = direct_product([m, m])
    sub, embedding = generated_submonoid(product, ["(z,1)"])
    assert sub.elements == ("(1,1)", "(z,1)")
    assert embedding.mapping == (product.index("(1,1)"), product.index("(z,1)"))

    full, embed_full = generated_submonoid(m, m.elements)
    assert full.size == m.size
    assert embed_full.mapping == tuple(range(m.size))

    trivial_sub, _ = generated_submonoid(m, [])
    assert trivial_sub.size == 1


def test_generated_submonoid_idempotent():
    m, _ = direct_product([u1("z<1"), u1("1<z")])
    sub, _ = generated_submonoid(m, ["(z,1)", "(1,z)"])
    again, _ = generated_submonoid(sub, sub.elements)
    assert again.mul == sub.mul and again.leq == sub.leq


def test_monoid_morphism_validation():
    m = u1("z<1")
    make_monoid_morphism(m, m, {"1": "1", "z": "z"})
    make_monoid_morphism(m, trivial_monoid(), {"1": "1", "z": "1"})


def test_is_aperiodic():
    assert is_aperiodic(u1())
    assert not is_aperiodic(z2())
    assert is_aperiodic(trivial_monoid())


def test_identity_is_greatest():
    assert identity_is_greatest(u1("z<1"))
    assert not identity_is_greatest(u1("1<z"))
    product, _ = direct_product([u1("z<1"), u1("z<1")])
    assert identity_is_greatest(product)


def test_divides_reflexive():
    for m in (u1("z<1"), z2()):
        assert divides(m, m).kind == "yes"


def test_trivial_divides_everything():
    assert divides(trivial_monoid(), u1()).kind == "yes"
    assert divides(trivial_monoid(), z2()).kind == "yes"


def test_z2_does_not_divide_u1():
    verdict = divides(z2(), u1())
    assert verdict.kind == "no"


def test_divides_budget_exhausted():
    big, _ = direct_product([u1()] * 4)  # 16 elements > default budget
    verdict = divides(u1(), big)
    assert verdict.kind == "budget_exhausted"
    assert divides(u1(), big, DivisionBudget(max_target_size=16)).kind == "yes"


def test_divides_transitive_on_pool():
    m1 = trivial_monoid()
    m2 = u1("z<1")
    m3, _ = direct_product([u1("z<1"), u1("z<1")])
    assert divides(m1, m2).kind == "yes"
    assert divides(m2, m3).kind == "yes"
    assert divides(m1, m3).kind == "yes"


def _divides_oracle(m1, m2):
    """Exhaustive second route: every total map from every submonoid carrier."""
    import itertools

    carriers = set()
    non_identity = [i for i in range(m2.size) if i != m2.identity]
    for k in range(len(non_identity) + 1):
        for gens in itertools.combinations(non_identity, k):
            carrier = {m2.identity}
            frontier = [m2.identity]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = m2.mul[x][g]
                    if y not in carrier:
                        carrier.add(y)
                        frontier.append(y)
            carriers.add(tuple(sorted(carrier)))
    for carrier in carriers:  # carriers are closed under multiplication
        for images in itertools.product(range(m1.size), repeat=len(carrier)):
            phi = dict(zip(carrier, images))
            if phi[m2.identity] != m1.identity:
                continue
            if set(images) != set(range(m1.size)):
                continue
            if any(
                phi[m2.mul[x][y]] != m1.mul[phi[x]][phi[y]]
                for x in carrier
                for y in carrier
            ):
                continue
            if any(
                m2.leq[x][y] and not m1.leq[phi[x]][phi[y]]
                for x in carrier
                for y in carrier
            ):
                continue
            return True
    return False


def test_divides_matches_brute_force_oracle():
    from latlang.variety import enumerate_ordered_monoids

    pool = enumerate_ordered_monoids(2) + enumerate_ordered_monoids(3)[:6]
    for m1 in pool:
        for m2 in pool:
            verdict = divides(m1, m2)
            assert verdict.kind in ("yes", "no")
            assert (verdict.kind == "yes") == _divides_oracle(m1, m2), (
                m1.elements,
                m2.elements,
            )


def test_isomorphism_respects_order():
    assert is_isomorphic(u1("z<1"), u1("z<1"))
    assert not is_isomorphic(u1("z<1"), u1("1<z"))
    assert not is_isomorphic(u1("z<1"), u1("="))
    assert not is_isomorphic(u1(), z2())


def test_ideal_coloring_through_embedding():
    # an order-embedding pulls the ideal coloring back to the ideal coloring
    from latlang import ideal_coloring, precompose

    lat = standard_lattice("boolean")
    m, _ = direct_product([u1("z<1"), u1("z<1")])
    sub, embedding = generated_submonoid(m, ["(z,1)"])
    for target in range(m.size):
        pulled = precompose(ideal_coloring(m, target, lat), embedding)
        direct = [
            lat.bottom if m.leq[embedding.mapping[x]][target] else lat.top
            for x in range(sub.size)
        ]
        assert list(pulled.colors) == direct


def _unchecked(names, mul, pairs):
    """An OrderedMonoid over ``mul`` with the reflexive-transitive closure of ``pairs``."""
    n = len(names)
    leq = [[i == j or (i, j) in pairs for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    return OrderedMonoid(
        tuple(names), 0, tuple(map(tuple, mul)), tuple(map(tuple, leq))
    )


def _error_doc(check):
    try:
        check()
    except LatlangError as exc:
        return exc.to_doc()
    return None


def _assert_same_verdict(names, mul, pairs):
    """With every element as a generator, check_generated fails exactly
    when build_ordered_monoid does, with the same error document."""
    built = _error_doc(lambda: build_ordered_monoid(names, 0, mul, pairs))
    checked = _error_doc(
        lambda: check_generated(_unchecked(names, mul, pairs), range(len(names)))
    )
    assert checked == built


def test_check_generated_matches_build_on_enumerated_monoids():
    from latlang.variety import enumerate_ordered_monoids

    for m in enumerate_ordered_monoids(3):
        pairs = {(i, j) for i in range(m.size) for j in range(m.size) if m.leq[i][j]}
        _assert_same_verdict(m.elements, m.mul, pairs)
        for extra in [(i, j) for i in range(m.size) for j in range(m.size)]:
            _assert_same_verdict(m.elements, m.mul, pairs | {extra})


@given(st.data())
def test_check_generated_matches_build_on_random_tables(data):
    n = data.draw(st.integers(1, 4))
    entries = st.integers(0, n - 1)
    mul = [
        [x if r == 0 else r if x == 0 else data.draw(entries) for x in range(n)]
        for r in range(n)
    ]
    pairs = set(data.draw(st.lists(st.tuples(entries, entries), max_size=4)))
    _assert_same_verdict([f"e{i}" for i in range(n)], mul, pairs)


def test_check_generated_through_generators_only():
    # generated by x (x*x = y) but (x*x)*x != x*(x*x)
    table = [[0, 1, 2], [1, 2, 1], [2, 1, 1]]
    with pytest.raises(NotAssociative):
        check_generated(_unchecked(("1", "x", "y"), table, set()), [1])
    # Z2 ordered by 1 < g: translation by the generator g breaks the order
    with pytest.raises(NotCompatible):
        check_generated(_unchecked(("1", "g"), [[0, 1], [1, 0]], {(0, 1)}), [1])
    # left-zero band {a, b} with a < 1: only right translation by b breaks it
    left_zero = _unchecked(("1", "a", "b"), [[0, 1, 2], [1, 1, 1], [2, 2, 2]], {(1, 0)})
    with pytest.raises(NotCompatible) as err:
        check_generated(left_zero, [1, 2])
    assert err.value.witness == {"le": ["a", "1"], "z": "b", "side": "right"}
    product, _ = direct_product([u1("z<1"), u1("1<z")])
    check_generated(product, [product.index("(z,1)"), product.index("(1,z)")])
