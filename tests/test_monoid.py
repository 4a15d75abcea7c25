import functools
import random

import pytest
from hypothesis import given, strategies as st

from latlang import (
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
from latlang.lattice import closure_bits, monotone_violation, mutual_pair
from latlang.monoid import (
    OrderedMonoid,
    _check_associative,
    _greedy_generators,
    aperiodicity_witness,
    check_generated,
    compatibility_violation,
)
from latlang.serialize import monoid_to_doc, verdict_to_doc
from latlang.errors import (
    LatlangError,
    NoIdentity,
    NotAssociative,
    NotCompatible,
    SizeCapExceeded,
)

from conftest import (
    identity_moved,
    matrix_of,
    reference_build_ordered_monoid,
    reference_check_associative,
    reference_compatibility_violation,
    reference_direct_product,
    reference_fold_direct_product,
    reference_divides,
    reference_is_aperiodic,
    reference_monoid_to_doc,
    reference_monotone_violation,
    reference_mutual_pair,
    reference_surjection_onto,
    rows_of,
    small_monoids,
    u1,
    z2,
)


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
                m.le(pi.mapping[a], pi.mapping[b]) for pi in projections
            )
            assert product.le(a, b) == expected


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
        direct_product([m] * 5)


def test_direct_product_matches_reference_on_seeded_sweep(monkeypatch):
    """The mixed-radix fold gives the reference's product, projections and cap errors."""
    pool = small_monoids()
    rng = random.Random(505)
    compared = capped = 0
    for _ in range(300):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        cap = rng.choice((16, 64, 128))
        monkeypatch.setattr("latlang.monoid.DEFAULT_PRODUCT_CAP", cap)
        try:
            expected = reference_direct_product(factors, max_size=cap)
        except SizeCapExceeded as exc:
            with pytest.raises(SizeCapExceeded) as caught:
                direct_product(factors)
            assert caught.value.to_doc() == exc.to_doc()
            capped += 1
            continue
        assert direct_product(factors) == expected
        compared += 1
    assert compared >= 150 and capped >= 30


def test_direct_product_with_one_element_factors_matches_reference(monkeypatch):
    """One-element factors first, in the middle, last or as every factor
    give the reference's product, projections and cap errors."""
    pool = small_monoids()
    rng = random.Random(1606)
    seen = set()
    compared = capped = 0
    for i in range(160):
        one = trivial_monoid(rng.choice(("1", "e")))
        others = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        where = ("first", "middle", "last", "every")[i % 4]
        if where == "first":
            factors = [one, *others]
        elif where == "middle":
            k = rng.randint(1, len(others) - 1)
            factors = [*others[:k], one, *others[k:]]
        elif where == "last":
            factors = [*others, one]
        else:
            factors = [one] * rng.randint(1, 4)
        cap = rng.choice((16, 64, 128))
        monkeypatch.setattr("latlang.monoid.DEFAULT_PRODUCT_CAP", cap)
        try:
            expected = reference_direct_product(factors, max_size=cap)
        except SizeCapExceeded as exc:
            with pytest.raises(SizeCapExceeded) as caught:
                direct_product(factors)
            assert caught.value.to_doc() == exc.to_doc()
            capped += 1
            continue
        assert direct_product(factors) == expected, (i, where)
        seen.add(where)
        compared += 1
    assert seen == {"first", "middle", "last", "every"}
    assert compared >= 80 and capped >= 10


def test_gathered_direct_product_matches_the_fold_on_seeded_sweep(monkeypatch):
    """Rows gathered whole and projections read off the strides give the
    per-entry fold's names, table, order, identity and projections, with
    one-element factors first, last, in between, alone or absent."""
    pool = small_monoids()
    rng = random.Random(3232)
    monkeypatch.setattr("latlang.monoid.DEFAULT_PRODUCT_CAP", 256)
    seen = set()
    compared = 0
    for i in range(400):
        one = trivial_monoid(rng.choice(("1", "e")))
        others = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        where = ("first", "between", "last", "alone", "none")[i % 5]
        if where == "first":
            factors = [one, *others]
        elif where == "between":
            k = rng.randint(1, len(others) - 1)
            factors = [*others[:k], one, *others[k:]]
        elif where == "last":
            factors = [*others, one]
        elif where == "alone":
            factors = [one] * rng.randint(1, 3)
        else:
            factors = others
        try:
            expected = reference_fold_direct_product(factors, max_size=256)
        except SizeCapExceeded:
            continue
        product, projections = direct_product(factors)
        assert (product, projections) == expected, (i, where)
        assert all(type(row) is tuple for row in product.mul)
        seen.add(where)
        compared += 1
    assert seen == {"first", "between", "last", "alone", "none"}
    assert compared >= 200


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


def test_is_aperiodic_matches_power_iteration_reference():
    """The period search agrees with power iteration on every monoid of size
    at most 4 and on seeded pairwise products; a witness has a real cycle."""
    pool = small_monoids()
    rng = random.Random(606)
    products = [direct_product(rng.sample(pool, 2))[0] for _ in range(1600)]
    periodic = 0
    for m in pool + products:
        witness = aperiodicity_witness(m)
        assert is_aperiodic(m) == reference_is_aperiodic(m) == (witness is None)
        if witness is not None:
            x, period = m.index(witness["element"]), witness["period"]
            power = x
            for _ in range(m.size):
                power = m.mul[power][x]  # now in the cycle of x's powers
            cycle = power
            for _ in range(period):
                cycle = m.mul[cycle][x]
            assert cycle == power and period > 1
            periodic += 1
    assert periodic >= 300


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
    assert divides(u1(), big, max_target_size=16).kind == "yes"


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
                m2.le(x, y) and not m1.le(phi[x], phi[y])
                for x in carrier
                for y in carrier
            ):
                continue
            return True
    return False


def test_divides_matches_deque_reference_on_seeded_sweep(monkeypatch):
    """Walking the carrier's table gives the same division documents as the
    deque search with order pruning, in both directions, on 300 pairs: a
    monoid of size at most 4 against one with the same table (the orders
    differ), any one, or its product with another (at most 16 elements)."""
    import latlang.monoid as monoid_module

    rng = random.Random(3)
    pool = small_monoids()
    by_table = {}
    for m in pool:
        by_table.setdefault(m.mul, []).append(m)
    pairs = []
    while len(pairs) < 300:
        m1 = rng.choice(pool)
        kind = rng.randrange(3)
        if kind == 0:
            m2 = rng.choice(by_table[m1.mul])
        elif kind == 1:
            m2 = rng.choice(pool)
        else:
            other = rng.choice(pool)
            if m1.size * other.size > 16:
                continue
            m2, _ = direct_product([m1, other])
        pairs.append((m1, m2))

    def documents():
        return [
            (
                verdict_to_doc(divides(m1, m2, max_target_size=16)),
                verdict_to_doc(divides(m2, m1, max_target_size=16)),
            )
            for m1, m2 in pairs
        ]

    walked = documents()
    monkeypatch.setattr(monoid_module, "_surjection_onto", reference_surjection_onto)
    assert walked == documents()
    verdicts = [doc["verdict"] for pair in walked for doc in pair]
    assert verdicts.count("yes") >= 100 and verdicts.count("no") >= 100


def _product_of(rng, pool, lo, hi):
    """A seeded direct product of 2-3 monoids of ``pool`` with lo to hi
    elements, and its factors."""
    while True:
        factors = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        if lo <= functools.reduce(lambda k, f: k * f.size, factors, 1) <= hi:
            return factors, direct_product(factors)[0]


def _division_pairs(seed):
    """Seeded (m1, m2, budget) triples: a small monoid against a small one
    or a product of 4 to 8 elements, at budget 6 or 16; a factor of a
    product of 9 to 16 elements against that product; a product of 4 to 8
    elements against a product it is a factor of."""
    rng = random.Random(seed)
    pool = small_monoids()
    pairs = []
    for _ in range(200):
        m2 = rng.choice(pool) if rng.random() < 0.5 else _product_of(rng, pool, 4, 8)[1]
        pairs.append((rng.choice(pool), m2, rng.choice([6, 16])))
    for _ in range(30):
        factors, m2 = _product_of(rng, pool, 9, 16)
        pairs.append((rng.choice(factors), m2, 16))
    for _ in range(10):
        factors, m1 = _product_of(rng, pool, 4, 8)
        m2 = direct_product([m1, rng.choice(pool[:8])])[0]
        pairs.append((m1, m2, 16))
    return pairs


def test_divides_matches_unbounded_reference_on_seeded_sweep():
    """Stopping at the size of ``m1``'s greedy generating set gives the
    verdict documents of the search over every generator subset."""
    verdicts = {"yes": 0, "no": 0, "budget_exhausted": 0}
    for i, (m1, m2, budget) in enumerate(_division_pairs(1515)):
        expected = verdict_to_doc(reference_divides(m1, m2, budget))
        assert verdict_to_doc(divides(m1, m2, budget)) == expected, i
        verdicts[expected["verdict"]] += 1
    assert min(verdicts.values()) >= 40, verdicts


def test_division_passes_at_most_rank_generators(monkeypatch):
    """No closure in the division search gets more generators than
    ``m1``'s greedy generating set has; the "no" verdicts on carriers with
    more non-identity elements than that show the bound is reached."""
    import latlang.monoid as monoid_module

    closure = monoid_module._closure_of
    calls = []

    def recording(mul, identity, gens):
        calls.append(tuple(gens))
        return closure(mul, identity, gens)

    monkeypatch.setattr(monoid_module, "_closure_of", recording)
    bounded = 0
    for m1, m2, budget in _division_pairs(1616):
        rank = len(_greedy_generators(m1.mul, m1.identity))
        calls.clear()
        verdict = divides(m1, m2, budget).kind
        assert all(len(gens) <= rank for gens in calls)
        bounded += verdict == "no" and m2.size - 1 > rank
    assert bounded >= 40


def test_division_tries_only_generating_images(monkeypatch):
    """Each carrier of k generators is tried against exactly the k-tuples
    of ``m1`` elements that generate ``m1``, in lexicographic order."""
    import itertools

    import latlang.monoid as monoid_module

    search = monoid_module._surjection_onto
    tried = []

    def recording(m1, m2, carrier, gens, candidates):
        tried.append((len(gens), list(candidates)))
        return search(m1, m2, carrier, gens, candidates)

    monkeypatch.setattr(monoid_module, "_surjection_onto", recording)
    generating = {}
    filtered = 0
    for m1, m2, budget in _division_pairs(1717):
        tried.clear()
        divides(m1, m2, budget)
        for k, candidates in tried:
            if (m1, k) not in generating:
                every = itertools.product(range(m1.size), repeat=k)
                generating[m1, k] = [
                    t for t in every if generated_submonoid(m1, t)[0].size == m1.size
                ]
            assert candidates == generating[m1, k]
            filtered += len(candidates) < m1.size ** k
    assert filtered >= 100


def test_greedy_generators_generate():
    """Each greedy generator is the least element the earlier ones miss,
    and together they generate the monoid."""
    rng = random.Random(1717)
    pool = small_monoids()
    cases = [identity_moved(rng, m) for m in pool[::7]]
    cases += [identity_moved(rng, _product_of(rng, pool, 16, 64)[1]) for _ in range(10)]
    for m in cases:
        gens = _greedy_generators(m.mul, m.identity)
        assert generated_submonoid(m, gens)[0].size == m.size
        for k, g in enumerate(gens):
            below = set(generated_submonoid(m, gens[:k])[1].mapping)
            assert g not in below
            assert all(x in below for x in range(g))


def _build_doc(build, m, mul, pairs):
    try:
        return monoid_to_doc(build(m.elements, m.elements[m.identity], mul, pairs))
    except LatlangError as exc:
        return exc.kind, exc.to_doc()


def test_build_matches_all_element_reference():
    """Seeded relabelings of the small monoids and of products of 16 to 64
    elements, as documents: valid, with one corrupted table entry, and with
    one extra order pair.  The generator check builds the reference's
    monoid or raises its error kind, message and witness."""
    rng, cases = _seeded_relabelings(1818, 40)
    outcomes = {}
    for m in cases:
        n = m.size
        mul = [[m.elements[z] for z in row] for row in m.mul]
        pairs = [list(p) for p in m.order_pairs()]
        corrupted = [list(row) for row in mul]
        corrupted[rng.randrange(n)][rng.randrange(n)] = m.elements[rng.randrange(n)]
        extra = pairs + [[m.elements[rng.randrange(n)], m.elements[rng.randrange(n)]]]
        for table, order in ((mul, pairs), (corrupted, pairs), (mul, extra)):
            expected = _build_doc(reference_build_ordered_monoid, m, table, order)
            assert _build_doc(build_ordered_monoid, m, table, order) == expected
            kind = expected[0] if isinstance(expected, tuple) else "ok"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert all(
        outcomes.get(kind, 0) >= 50
        for kind in ("ok", "NoIdentity", "NotAssociative", "NotCompatible", "NotAntisymmetric")
    ), outcomes


def test_build_checks_associativity_through_generators(monkeypatch):
    """On a valid 64-element product, ``build_ordered_monoid`` runs Light's
    test only through a generating set smaller than the monoid."""
    import latlang.monoid as monoid_module

    check = monoid_module._check_associative
    sizes = []

    def recording(names, mul, gens):
        sizes.append(len(gens))
        return check(names, mul, gens)

    product, _ = direct_product([u1("z<1"), z2(), u1("1<z"), z2(), u1("z<1"), z2()])
    assert product.size == 64
    doc = monoid_to_doc(product)
    monkeypatch.setattr(monoid_module, "_check_associative", recording)
    built = build_ordered_monoid(doc["elements"], doc["identity"], doc["mul"], doc["leq"])
    assert monoid_to_doc(built) == doc
    assert sizes and all(size < product.size for size in sizes), sizes


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
            lat.bottom if m.le(embedding.mapping[x], target) else lat.top
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
    return OrderedMonoid(tuple(names), 0, tuple(map(tuple, mul)), rows_of(leq))


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
        pairs = {(i, j) for i in range(m.size) for j in range(m.size) if m.le(i, j)}
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


def _seeded_relabelings(seed, products):
    """Seeded relabelings, identity off index 0, of every small monoid and
    of ``products`` direct products of 16 to 64 elements."""
    rng = random.Random(seed)
    monoids = small_monoids()
    cases = [identity_moved(rng, m) for m in monoids]
    while len(cases) < len(monoids) + products:
        factors = [monoids[rng.randrange(len(monoids))] for _ in range(rng.randint(2, 4))]
        if 16 <= functools.reduce(lambda k, f: k * f.size, factors, 1) <= 64:
            cases.append(identity_moved(rng, direct_product(factors)[0]))
    return rng, cases


def _associativity_doc(check, names, mul, gens):
    try:
        check(names, mul, gens)
    except NotAssociative as exc:
        return exc.to_doc()
    return None


def test_light_test_by_rows_matches_per_y_scan():
    """One corrupted table entry in each seeded relabeling: the whole-row
    Light's test raises the per-y reference's document, or both pass, with
    list rows (as the builder has them) and tuple rows (as a monoid has
    them), through every element and through a seeded subset."""
    rng, cases = _seeded_relabelings(1313, 40)
    verdicts = {True: 0, False: 0}
    for m in cases:
        n = m.size
        assert _associativity_doc(_check_associative, m.elements, m.mul, range(n)) is None
        mul = [list(row) for row in m.mul]
        mul[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        subset = sorted(rng.sample(range(n), rng.randint(1, n)))
        for gens in (range(n), subset):
            expected = _associativity_doc(reference_check_associative, m.elements, mul, gens)
            verdicts[expected is None] += 1
            for table in (mul, tuple(map(tuple, mul))):
                assert _associativity_doc(_check_associative, m.elements, table, gens) == expected
    assert min(verdicts.values()) > 100, verdicts


def test_monoid_doc_and_monotone_witness_match_reference():
    """On the same relabelings: ``monoid_to_doc`` equals the index-by-index
    document, and ``monotone_violation`` returns the reference's first
    (a, b) in row-major order for seeded maps into another case's order."""
    rng, cases = _seeded_relabelings(1414, 40)
    verdicts = {True: 0, False: 0}
    for m in cases:
        assert monoid_to_doc(m) == reference_monoid_to_doc(m)
        target = cases[rng.randrange(len(cases))]
        for _ in range(3):
            images = [rng.randrange(target.size) for _ in range(m.size)]
            expected = reference_monotone_violation(
                matrix_of(m.leq), matrix_of(target.leq), images
            )
            assert monotone_violation(m.leq, target.leq, images) == expected
            verdicts[expected is None] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_order_scans_match_bool_references_on_seeded_products():
    """On the seeded relabelings, products of 16 to 64 elements among them,
    with their own orders and with orders widened by one seeded pair and
    closed again: ``compatibility_violation`` names the bool scan's first
    (x, y, z, side), through every element and through a seeded subset,
    and ``mutual_pair`` the bool scan's first pair, or neither finds one."""
    rng, cases = _seeded_relabelings(1515, 40)
    compatible = {True: 0, False: 0}
    mutual = {True: 0, False: 0}
    for m in cases:
        n = m.size
        a, b = rng.randrange(n), rng.randrange(n)
        widened = closure_bits(m.leq[:a] + (m.leq[a] | 1 << b,) + m.leq[a + 1:])
        subset = sorted(rng.sample(range(n), rng.randint(1, n)))
        for leq in (m.leq, widened):
            matrix = matrix_of(leq)
            expected = reference_mutual_pair(matrix)
            assert mutual_pair(leq) == expected
            mutual[expected is None] += 1
            for gens in (range(n), subset):
                expected = reference_compatibility_violation(m.mul, matrix, gens)
                assert compatibility_violation(m.mul, leq, gens) == expected
                compatible[expected is None] += 1
    assert max(m.size for m in cases) == 64
    assert min(compatible.values()) > 100 and min(mutual.values()) > 50, (compatible, mutual)
