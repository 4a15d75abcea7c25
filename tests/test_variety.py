import functools
import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest

from latlang import (
    build_ordered_monoid,
    cons_coloring,
    direct_product,
    divides,
    is_isomorphic,
    make_op_coloring,
    standard_lattice,
    syntactic,
    triple_to_automaton,
)
from latlang import cli, variety as variety_module
from latlang.coloring import OpColoring
from latlang.errors import NotARecognizer, NotOrderPreserving, SizeCapExceeded
from latlang.lattice import closure_bits
from latlang.monoid import _make_unchecked, canonical_key, direct_product
from latlang.serialize import canonical_dumps, monoid_to_doc, report_to_doc
from latlang.syntactic import RecognitionTriple, cut, product_triple
from latlang.variety import (
    SUITE_LATTICE_MAX,
    SUITE_PRODUCT_CAP,
    SUITE_STATES_MAX,
    enumerate_ordered_monoids,
    random_automaton,
    random_coloring,
    random_lattice,
    run_suite,
    subdirect_embedding,
    verify_recog_by_synt,
    verify_syntactic_minimality,
    _partial_orders,
    _unital_associative_tables,
)

import conftest
from conftest import (
    identity_moved,
    reference_canonical_key,
    reference_enumerate_ordered_monoids,
    reference_partial_orders,
    reference_random_coloring,
    reference_subdirect_embedding,
    reference_unital_associative_tables,
    reference_verify_recog_by_synt,
    rows_of,
    small_monoids,
    u1,
)


# -- independent enumeration oracle -------------------------------------------

def _oracle_partial_orders(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in itertools.chain.from_iterable(
        itertools.combinations(pairs, k) for k in range(len(pairs) + 1)
    ):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for i, j in chosen:
            leq[i][j] = True
        if any(leq[i][j] and leq[j][i] for i, j in pairs):
            continue
        if any(
            leq[i][j] and leq[j][k] and not leq[i][k]
            for i in range(n) for j in range(n) for k in range(n)
        ):
            continue
        yield leq


def _oracle_isomorphic(n, m1, m2):
    for perm in itertools.permutations(range(n)):
        if all(
            m2[0][perm[x]][perm[y]] == perm[m1[0][x][y]]
            and m1[1][x][y] == m2[1][perm[x]][perm[y]]
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def oracle_count(n):
    """Count ordered monoids on n points by sheer brute force.

    All n^(n*n) tables, identity discovered rather than fixed, every
    compatible partial order, and pairwise-isomorphism deduplication over
    all bijections.  Independent of the library's enumeration path.
    """
    candidates = []
    for values in itertools.product(range(n), repeat=n * n):
        mul = [list(values[i * n:(i + 1) * n]) for i in range(n)]
        idents = [
            e for e in range(n)
            if all(mul[e][x] == x and mul[x][e] == x for x in range(n))
        ]
        if len(idents) != 1:
            continue
        if any(
            mul[mul[x][y]][z] != mul[x][mul[y][z]]
            for x in range(n) for y in range(n) for z in range(n)
        ):
            continue
        for leq in _oracle_partial_orders(n):
            if any(
                leq[x][y] and not (leq[mul[z][x]][mul[z][y]] and leq[mul[x][z]][mul[y][z]])
                for x in range(n) for y in range(n) for z in range(n)
            ):
                continue
            candidate = (
                tuple(tuple(r) for r in mul),
                tuple(tuple(r) for r in leq),
            )
            if not any(_oracle_isomorphic(n, candidate, seen) for seen in candidates):
                candidates.append(candidate)
    return len(candidates)


def test_enumeration_counts_match_oracle():
    assert len(enumerate_ordered_monoids(1)) == oracle_count(1) == 1
    assert len(enumerate_ordered_monoids(2)) == oracle_count(2) == 4


def test_enumeration_n3_matches_oracle_recount():
    assert len(enumerate_ordered_monoids(3)) == oracle_count(3)


def test_enumeration_cap():
    with pytest.raises(SizeCapExceeded):
        enumerate_ordered_monoids(5)


def test_enumerated_monoids_validate_and_are_distinct():
    for n in (1, 2, 3, 4):
        monoids = enumerate_ordered_monoids(n)
        for m in monoids:
            rebuilt = build_ordered_monoid(
                m.elements,
                m.identity,
                [[m.mul[i][j] for j in range(n)] for i in range(n)],
                [(i, j) for i in range(n) for j in range(n) if m.le(i, j)],
            )
            assert rebuilt.mul == m.mul and rebuilt.leq == m.leq
        assert len({canonical_key(m) for m in monoids}) == len(monoids)


def test_tables_match_product_scan():
    for n in (1, 2, 3, 4):
        tables = list(_unital_associative_tables(n))
        assert tables == list(reference_unital_associative_tables(n)), n
    assert len(tables) == 156


def test_enumeration_counts_up_to_n4():
    """1, 4, 37 and 549 ordered monoids on 1 to 4 elements; those with the
    equality order are the monoids up to isomorphism, 1, 2, 7 and 35."""
    counts, unordered = [0] * 4, [0] * 4
    for m in small_monoids():
        counts[m.size - 1] += 1
        unordered[m.size - 1] += m.order_pairs() == []
    assert counts == [1, 4, 37, 549]
    assert unordered == [1, 2, 7, 35]


def test_partial_orders_match_oracle():
    for n in (1, 2, 3):
        oracle = {rows_of(leq) for leq in _oracle_partial_orders(n)}
        assert set(_partial_orders(n)) == oracle


def test_partial_orders_match_mask_scan():
    """Adding one point at a time gives the mask scan's posets, the same
    rows in the same order, with the counts of OEIS A001035."""
    assert [len(_partial_orders(n)) for n in (1, 2, 3, 4)] == [1, 3, 19, 219]
    for n in (1, 2, 3, 4):
        assert list(_partial_orders(n)) == reference_partial_orders(n), n


def test_enumeration_is_computed_once_per_n(monkeypatch):
    """A second call returns equal monoids without enumerating again, and a
    caller that mutates the returned list leaves later calls unchanged."""
    variety_module._enumerated.cache_clear()
    first = enumerate_ordered_monoids(3)
    monkeypatch.setattr(variety_module, "_unital_associative_tables", None)
    second = enumerate_ordered_monoids(3)
    assert second == first and second is not first
    second.clear()
    assert enumerate_ordered_monoids(3) == first and len(first) == 37


def test_relabelled_copies_are_isomorphic():
    n = 3
    p = [n - 1 - x for x in range(n)]  # moves the identity from 0 to n - 1
    for m in enumerate_ordered_monoids(n):
        mul = [[0] * n for _ in range(n)]
        leq = [[False] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                mul[p[a]][p[b]] = p[m.mul[a][b]]
                leq[p[a]][p[b]] = m.le(a, b)
        copy = _make_unchecked([f"r{i}" for i in range(n)], p[m.identity], mul, rows_of(leq))
        assert is_isomorphic(m, copy) and is_isomorphic(copy, m)


def test_enumeration_matches_pairwise_reference(monkeypatch):
    """Keying each table once keeps the pairwise enumeration's monoids, its
    representatives and its CLI bytes."""
    for n in (1, 2, 3, 4):
        expected = reference_enumerate_ordered_monoids(n)
        assert [monoid_to_doc(m) for m in enumerate_ordered_monoids(n)] == [
            monoid_to_doc(m) for m in expected
        ], n
        argv = ["variety", "enumerate", "--n", str(n)]
        new = cli.run(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "enumerate_ordered_monoids", lambda k: expected)
            assert cli.run(argv) == new, n


def test_canonical_key_matches_reference_on_seeded_relabelings():
    """Relabelings of every small monoid and of direct products of up to 8
    elements, identity off index 0: ``canonical_key`` is the all-relabeling
    key, and ``is_isomorphic`` answers as the reference keys do."""
    rng = random.Random(1212)
    monoids = small_monoids()
    cases = [(m, identity_moved(rng, m)) for m in monoids]
    products = 0
    while products < 12:
        factors = [monoids[rng.randrange(len(monoids))] for _ in range(rng.randint(2, 3))]
        if 4 < functools.reduce(lambda k, f: k * f.size, factors, 1) <= 8:
            product, _ = direct_product(factors)
            cases.append((product, identity_moved(rng, product)))
            products += 1
    keys = [reference_canonical_key(copy) for _, copy in cases]
    for i, (m, copy) in enumerate(cases):
        assert canonical_key(copy) == keys[i], i
        assert is_isomorphic(m, copy), i
        j = rng.randrange(len(cases))
        assert is_isomorphic(copy, cases[j][1]) == (keys[i] == keys[j]), (i, j)


def test_enumeration_canonicalizes_each_table_once(monkeypatch):
    """At n = 4: one canonical form per table (156), and compatibility is
    checked only on the first table of each of the 35 classes."""
    variety_module._enumerated.cache_clear()
    calls = dict.fromkeys(("canonical_table", "compatibility_violation"), 0)
    for name in calls:
        def counted(*args, _original=getattr(variety_module, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(variety_module, name, counted)
    assert len(enumerate_ordered_monoids(4)) == 549
    assert calls["canonical_table"] <= 156
    assert calls["compatibility_violation"] <= 35 * len(_partial_orders(4)) == 7665


def test_enumeration_n2_contents():
    monoids = enumerate_ordered_monoids(2)
    groups = [m for m in monoids if m.mul[1][1] == 0]
    idempotents = [m for m in monoids if m.mul[1][1] == 1]
    assert len(groups) == 1 and len(idempotents) == 3
    equality = sum(1 for m in monoids if m.order_pairs() == [])
    assert equality == 2  # the group and one idempotent copy


# -- verification checks --------------------------------------------------------

def test_recog_by_synt_single_language(rng):
    lattice = random_lattice(rng, 5)
    a = random_automaton(rng, lattice, 3)
    s = syntactic(a)
    product, _ = direct_product([s.monoid])
    triple = RecognitionTriple(
        s.alphabet,
        tuple(product.index(f"({s.monoid.elements[g]})") for g in s.generator_images),
        product,
        make_op_coloring(product, lattice, list(s.coloring.colors)),
    )
    report = verify_recog_by_synt([a], triple)
    assert report.verdict == "pass"


def test_recog_by_synt_cut_languages(contains_a):
    cuts = [cut(contains_a, v) for v in range(contains_a.lattice.size)]
    s1, s2 = syntactic(cuts[0]), syntactic(cuts[1])
    triple = product_triple("pjoin", [s1, s2])
    report = verify_recog_by_synt([cuts[0], cuts[1]], triple)
    assert report.verdict == "pass"


def test_recog_by_synt_corrupted_coloring(contains_a):
    """Raising one value against the order must be caught at validation."""
    s = syntactic(contains_a)
    product, _ = direct_product([s.monoid])
    lat = contains_a.lattice
    z_class = next(
        i for i in range(product.size) if i != product.identity
    )
    colors = [lat.bottom] * product.size
    colors[z_class] = lat.top  # below the identity yet colored above it
    with pytest.raises(NotOrderPreserving):
        make_op_coloring(product, lat, colors)


def test_recog_by_synt_wrong_monoid(contains_a, boolean):
    from latlang.errors import MismatchedCarrier

    s = syntactic(contains_a)
    triple = RecognitionTriple(
        s.alphabet, s.generator_images, s.monoid, s.coloring
    )
    with pytest.raises(MismatchedCarrier):
        verify_recog_by_synt([contains_a, contains_a], triple)


@functools.cache
def _suite_triples():
    """240 seeded join recognizers drawn as ``run_suite`` draws them."""
    rng = random.Random(10)
    triples = []
    while len(triples) < 240:
        lattice = random_lattice(rng, SUITE_LATTICE_MAX)
        a1 = random_automaton(rng, lattice, SUITE_STATES_MAX)
        a2 = random_automaton(rng, lattice, SUITE_STATES_MAX)
        s1, s2 = syntactic(a1), syntactic(a2)
        if s1.monoid.size * s2.monoid.size <= SUITE_PRODUCT_CAP:
            triples.append(([a1, a2], product_triple("pjoin", [s1, s2])))
    return triples


def _recog_documents(cases):
    return [
        (
            report_to_doc(verify_recog_by_synt(automata, triple)),
            report_to_doc(reference_verify_recog_by_synt(automata, triple)),
        )
        for automata, triple in cases
    ]


def test_recog_by_synt_matches_reference_on_suite_triples():
    documents = _recog_documents(_suite_triples())
    assert all(doc == ref for doc, ref in documents)
    assert all(doc["verdict"] == "pass" for doc, _ in documents)


def test_recog_by_synt_matches_reference_on_corrupted_colorings():
    """One to three colors changed past validation; the failures, their
    first element and their witness words must match the reference."""
    rng = random.Random(11)
    cases = []
    for automata, triple in _suite_triples():
        colors = list(triple.coloring.colors)
        lattice = triple.coloring.lattice
        for _ in range(rng.randint(1, 3)):
            colors[rng.randrange(len(colors))] = rng.randrange(lattice.size)
        coloring = OpColoring(triple.monoid, lattice, tuple(colors))
        cases.append((automata, replace(triple, coloring=coloring)))
    documents = _recog_documents(cases)
    assert all(doc == ref for doc, ref in documents)
    failures = [doc["witness"]["identity"] for doc, _ in documents if doc["verdict"] == "fail"]
    assert len(failures) >= 20
    assert set(failures) == {"ideal_representation"}


def _equality_ordered(monoid):
    equality = [1 << x for x in range(monoid.size)]
    return _make_unchecked(monoid.elements, monoid.identity, monoid.mul, equality)


def test_recog_by_synt_matches_reference_on_narrowed_product(monkeypatch):
    """A product whose order is narrowed to equality fails identity (a) at
    the first element with a reachable element strictly below it.  (With a
    widened order the reference's validation of the all-projections
    coloring raises instead of reporting, so the order is narrowed.)"""

    def narrowed_product(monoids):
        product, projections = direct_product(monoids)
        return _equality_ordered(product), projections

    monkeypatch.setattr(variety_module, "direct_product", narrowed_product)
    monkeypatch.setattr(conftest, "direct_product", narrowed_product)
    cases = []
    for automata, triple in _suite_triples()[:60]:
        monoid = _equality_ordered(triple.monoid)
        coloring = OpColoring(monoid, triple.coloring.lattice, triple.coloring.colors)
        cases.append((automata, replace(triple, monoid=monoid, coloring=coloring)))
    documents = _recog_documents(cases)
    assert all(doc == ref for doc, ref in documents)
    failures = [doc["witness"]["identity"] for doc, _ in documents if doc["verdict"] == "fail"]
    assert len(failures) >= 10
    assert set(failures) == {"join_of_projections"}


def test_minimality_self(two_sink_automaton):
    s = syntactic(two_sink_automaton)
    report = verify_syntactic_minimality(two_sink_automaton, s)
    assert report.verdict == "pass"


def test_minimality_join_recognizer(rng):
    from latlang import product_combine

    lattice = random_lattice(rng, 4)
    a1 = random_automaton(rng, lattice, 2)
    a2 = random_automaton(rng, lattice, 2)
    triple = product_triple("pjoin", [syntactic(a1), syntactic(a2)])
    joined = product_combine("join", a1, a2)
    report = verify_syntactic_minimality(
        joined, triple, max_target_size=triple.monoid.size
    )
    assert report.verdict == "pass"


def test_minimality_roundtrip_pool(rng):
    pool = enumerate_ordered_monoids(2) + enumerate_ordered_monoids(3)
    lattice = standard_lattice("powerset", 2)
    for i in range(10):
        monoid = pool[rng.randrange(len(pool))]
        triple = RecognitionTriple(
            ("a", "b"),
            (rng.randrange(monoid.size), rng.randrange(monoid.size)),
            monoid,
            random_coloring(rng, monoid, lattice),
        )
        machine = triple_to_automaton(triple)
        report = verify_syntactic_minimality(machine, triple)
        assert report.verdict == "pass", i


def test_minimality_requires_recognizer(contains_a):
    s = syntactic(contains_a)
    wrong = RecognitionTriple(
        s.alphabet, s.generator_images, s.monoid,
        cons_coloring(s.monoid, contains_a.lattice, contains_a.lattice.top),
    )
    with pytest.raises(NotARecognizer):
        verify_syntactic_minimality(contains_a, wrong)


def test_subdirect_trivial_and_small():
    from latlang import trivial_monoid

    assert subdirect_embedding(trivial_monoid()).verdict == "pass"
    assert subdirect_embedding(u1("z<1")).verdict == "pass"


def test_subdirect_all_n2():
    for monoid in enumerate_ordered_monoids(2):
        assert subdirect_embedding(monoid).verdict == "pass"


def test_subdirect_implies_division(rng):
    monoid = u1("z<1")
    report = subdirect_embedding(monoid)
    assert report.verdict == "pass"
    lat = standard_lattice("boolean")
    from latlang import identity_monoid_morphism, ideal_coloring

    identity = identity_monoid_morphism(monoid)
    factors = [
        syntactic(
            triple_to_automaton(
                RecognitionTriple(
                    monoid.elements, identity.mapping, monoid,
                    ideal_coloring(monoid, m, lat),
                )
            )
        ).monoid
        for m in range(monoid.size)
    ]
    product, _ = direct_product(factors)
    verdict = divides(monoid, product, max_target_size=product.size)
    assert verdict.kind == "yes"


def test_subdirect_flags_incompatible_order():
    # a deliberately broken instance: group with a non-compatible order,
    # smuggled past validation; the embedding check must fail with a witness
    broken = _make_unchecked(
        ("1", "g"),
        0,
        ((0, 1), (1, 0)),
        (0b11, 0b10),
    )
    report = subdirect_embedding(broken)
    assert report.verdict == "fail"
    assert report.witness is not None and report.witness["reason"]


def _subdirect_bytes(embed, monoids):
    return [canonical_dumps(report_to_doc(embed(m))) for m in monoids]


def test_subdirect_matches_pairwise_reference_on_enumerated_monoids():
    """Every enumerated monoid of up to 4 elements gets the report bytes of
    the machine-route reference."""
    pool = small_monoids()
    assert _subdirect_bytes(subdirect_embedding, pool) == _subdirect_bytes(
        reference_subdirect_embedding, pool
    )


def test_subdirect_matches_pairwise_reference_on_seeded_products():
    """100 seeded direct products of two or three enumerated monoids, every
    third relabeled to move its identity off index 0, get the report bytes
    of the machine-route reference.  The reference is cubic in the size,
    so one in ten products has up to 64 elements and the others up to 16."""
    rng = random.Random(2121)
    pool = small_monoids()[1:]
    products = []
    while len(products) < 100:
        factors = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        cap = 64 if len(products) % 10 == 0 else 16
        if functools.reduce(lambda k, m: k * m.size, factors, 1) <= cap:
            product = direct_product(factors)[0]
            products.append(identity_moved(rng, product) if len(products) % 3 == 0 else product)
    assert max(m.size for m in products) >= 48
    assert _subdirect_bytes(subdirect_embedding, products) == _subdirect_bytes(
        reference_subdirect_embedding, products
    )


def test_subdirect_matches_pairwise_reference_on_unchecked_orders():
    """300 enumerated tables with random closed orders, smuggled past
    validation (neither antisymmetric nor compatible, as a rule), get the
    report bytes of the machine-route reference, failures and witnesses
    included."""
    rng = random.Random(2222)
    pool = small_monoids()
    tables = []
    for _ in range(300):
        m = rng.choice(pool)
        density = rng.choice([0.1, 0.3, 0.6])
        rows = [sum(1 << y for y in range(m.size) if rng.random() < density) for _ in m.leq]
        tables.append(_make_unchecked(m.elements, m.identity, m.mul, closure_bits(rows)))
    reports = _subdirect_bytes(subdirect_embedding, tables)
    assert reports == _subdirect_bytes(reference_subdirect_embedding, tables)
    reasons = [json.loads(doc)["witness"] for doc in reports]
    reasons = [w["reason"] if w else "pass" for w in reasons]
    assert min(reasons.count(r) for r in ("pass", "order_embedding", "injective")) >= 25


def test_subdirect_names_the_first_failing_pair(monkeypatch):
    """With one factor's letter images redrawn at random, on 300 seeded
    enumerated monoids, the row-wise checks report the reference's first
    failure in row-major order: the identity, a multiplicative pair (before
    the order at the same pair) or an order pair."""
    rng = random.Random(2424)
    pool = [m for m in small_monoids() if m.size > 1]
    quotients = variety_module.syntactic_quotients
    reasons = []
    for _ in range(300):
        monoid = rng.choice(pool)
        synts = list(quotients(monoid.elements, range(monoid.size), [
            variety_module.ideal_coloring(monoid, m, standard_lattice("chain", 2))
            for m in range(monoid.size)
        ]))
        i = rng.randrange(monoid.size)
        images = tuple(rng.randrange(synts[i].monoid.size) for _ in range(monoid.size))
        synts[i] = replace(synts[i], generator_images=images)
        monkeypatch.setattr(variety_module, "syntactic_quotients", lambda *args: synts)
        report = canonical_dumps(report_to_doc(subdirect_embedding(monoid)))
        assert report == canonical_dumps(report_to_doc(reference_subdirect_embedding(monoid, synts)))
        witness = json.loads(report)["witness"]
        reasons.append(witness["reason"] if witness else "pass")
    assert min(reasons.count(r) for r in ("identity", "multiplicative", "order_embedding")) >= 20


def _failing_recognition():
    """The first seeded join recognizer of more than three elements whose
    coloring, with three colors redrawn past validation, fails a
    recognition identity."""
    rng = random.Random(10)
    while True:
        lattice = random_lattice(rng, SUITE_LATTICE_MAX)
        a1 = random_automaton(rng, lattice, SUITE_STATES_MAX)
        a2 = random_automaton(rng, lattice, SUITE_STATES_MAX)
        s1, s2 = syntactic(a1), syntactic(a2)
        if 3 < s1.monoid.size * s2.monoid.size <= SUITE_PRODUCT_CAP:
            triple = product_triple("pjoin", [s1, s2])
            colors, redraw = list(triple.coloring.colors), random.Random(11)
            for _ in range(3):
                colors[redraw.randrange(len(colors))] = redraw.randrange(lattice.size)
            coloring = OpColoring(triple.monoid, lattice, tuple(colors))
            report = verify_recog_by_synt([a1, a2], replace(triple, coloring=coloring))
            if report.verdict == "fail":
                return report


def _failing_minimality():
    """The first seeded recognizer, drawn as ``run_suite`` draws them, whose
    monoid's order, widened to every pair past validation, leaves the
    syntactic monoid no order-preserving division."""
    rng = random.Random(5)
    pool = enumerate_ordered_monoids(2) + enumerate_ordered_monoids(3)
    while True:
        monoid = pool[rng.randrange(len(pool))]
        lattice = random_lattice(rng, SUITE_LATTICE_MAX)
        coloring = random_coloring(rng, monoid, lattice)
        images = tuple(rng.randrange(monoid.size) for _ in ("a", "b"))
        everything = (1 << monoid.size) - 1
        widened = _make_unchecked(
            monoid.elements, monoid.identity, monoid.mul, (everything,) * monoid.size
        )
        triple = RecognitionTriple(
            ("a", "b"), images, widened, OpColoring(widened, lattice, coloring.colors)
        )
        report = verify_syntactic_minimality(triple_to_automaton(triple), triple)
        if report.verdict == "fail":
            return report


def _failing_subdirect():
    """The first seeded three-element monoid with a random closed order,
    smuggled past validation, that fails the subdirect embedding."""
    rng = random.Random(2222)
    pool = enumerate_ordered_monoids(3)
    while True:
        m = rng.choice(pool)
        rows = [sum(1 << y for y in range(m.size) if rng.random() < 0.3) for _ in m.leq]
        report = subdirect_embedding(
            _make_unchecked(m.elements, m.identity, m.mul, closure_bits(rows))
        )
        if report.verdict == "fail":
            return report


FAILING_REPORT_DIGESTS = {
    "recog_by_synt": "5f6f94e2813863a119e59cace5a423263569c9a96f4a77014385bf28b534b779",
    "syntactic_minimality": "0a6fd6ba9992f0a65b43c145ffaba62b72794986bfb8d62ceab00ab28f4b7bef",
}
FAILING_SUBDIRECT = (
    '{"check":"subdirect_embedding","instance":{"factor_sizes":[1,2,1],"monoid":'
    '{"elements":["m0","m1","m2"],"identity":"m0","leq":[["m0","m0"],["m0","m2"],'
    '["m1","m0"],["m1","m1"],["m1","m2"],["m2","m0"],["m2","m2"]],"mul":'
    '[["m0","m1","m2"],["m1","m1","m1"],["m2","m1","m2"]]}},"verdict":"fail",'
    '"witness":{"reason":"injective"}}'
)


def test_failing_reports_keep_their_bytes():
    """The written bytes of a failing report of each check, whose instance
    or witness holds monoids, machines and triples, are those the reports
    had when they held documents: sha256 digests of the canonical text of
    a recognition failure (3038 bytes) and a minimality failure (1100
    bytes), and the subdirect failure's text."""
    digests = {
        report.check: hashlib.sha256(canonical_dumps(report_to_doc(report)).encode()).hexdigest()
        for report in (_failing_recognition(), _failing_minimality())
    }
    assert digests == FAILING_REPORT_DIGESTS
    assert canonical_dumps(report_to_doc(_failing_subdirect())) == FAILING_SUBDIRECT


# -- the suite -------------------------------------------------------------------

def test_suite_all_pass_and_deterministic():
    reports = run_suite(seed=0)
    assert reports and all(r.verdict == "pass" for r in reports)
    again = run_suite(seed=0)
    assert list(map(report_to_doc, reports)) == list(map(report_to_doc, again))
    other = run_suite(seed=1)
    assert all(r.verdict == "pass" for r in other)


def test_suite_computes_each_syntactic_monoid_once(monkeypatch):
    """``run_suite`` hands the syntactic monoids it sized the product with
    to the recognition check: one ``syntactic`` call per drawn machine, 6
    per seed, and the same reports as a check that computes them again."""
    calls = []
    real, verify = variety_module.syntactic, variety_module.verify_recog_by_synt

    def counted(a):
        calls.append(a)
        return real(a)

    for seed in range(4):
        monkeypatch.setattr(
            variety_module, "verify_recog_by_synt", lambda automata, triple, synts: verify(
                automata, triple
            ),
        )
        expected = list(map(report_to_doc, run_suite(seed)))
        monkeypatch.setattr(variety_module, "verify_recog_by_synt", verify)
        monkeypatch.setattr(variety_module, "syntactic", counted)
        calls.clear()
        assert list(map(report_to_doc, run_suite(seed))) == expected
        assert len(calls) == 6, seed
        monkeypatch.setattr(variety_module, "syntactic", real)


def test_suite_reports_serialize():
    for report in run_suite(seed=0):
        doc = report_to_doc(report)
        assert json.loads(canonical_dumps(doc)) == doc


def test_suite_text_format_writes_the_json_reports():
    """``variety suite --format text`` writes one indented document per
    report, each followed by a newline; read back one by one, they are the
    reports that the JSON output writes one per line."""
    code, text = cli.run(["variety", "suite", "--seed", "1", "--format", "text"])
    json_code, lines = cli.run(["variety", "suite", "--seed", "1"])
    decoder, docs, at = json.JSONDecoder(), [], 0
    while at < len(text):
        doc, at = decoder.raw_decode(text, at)
        assert text[at] == "\n"
        docs.append(doc)
        at += 1
    assert code == json_code == 0
    assert docs == [json.loads(line) for line in lines.splitlines()]
    assert len(docs) > 1 and "\n  " in text


def test_reports_replay_from_serialized_inputs(rng):
    """A verdict must be reproducible from the serialized instance alone."""
    from latlang.serialize import (
        automaton_from_doc,
        automaton_to_doc,
        triple_from_doc,
        triple_to_doc,
    )

    lattice = random_lattice(rng, 4)
    machine = random_automaton(rng, lattice, 3)
    s = syntactic(machine)
    first = verify_syntactic_minimality(machine, s)
    replayed = verify_syntactic_minimality(
        automaton_from_doc(automaton_to_doc(machine)),
        triple_from_doc(triple_to_doc(s)),
    )
    assert first.verdict == replayed.verdict == "pass"


def test_suite_includes_constant_class_regression():
    reports = run_suite(seed=0)
    names = [r.check for r in reports]
    assert names[0] == "cons_b_not_closed"
    assert reports[0].verdict == "pass"


def test_random_coloring_matches_repair_loop():
    """One join per element draws the coloring the repair loop drew, from
    the same draws: on 3000 seeds over the monoids of 1 to 4 elements and
    a pool of random lattices, the colorings are equal and each generator
    is left in the same state.  Many of the drawn colorings need repair."""
    pool = small_monoids()
    lattice_rng = random.Random(808)
    lattices = [random_lattice(lattice_rng, 6) for _ in range(30)]
    repaired = 0
    for seed in range(3000):
        monoid = pool[seed % len(pool)]
        lattice = lattices[seed % len(lattices)]
        rng, reference_rng = random.Random(seed), random.Random(seed)
        coloring = random_coloring(rng, monoid, lattice)
        assert coloring == reference_random_coloring(reference_rng, monoid, lattice)
        assert rng.getstate() == reference_rng.getstate()
        drawn_rng = random.Random(seed)
        repaired += list(coloring.colors) != [
            drawn_rng.randrange(lattice.size) for _ in range(monoid.size)
        ]
    assert repaired > 1000


def test_random_generators_are_deterministic():
    a = random_lattice(random.Random(7), 8)
    b = random_lattice(random.Random(7), 8)
    assert a == b
    lat = standard_lattice("powerset", 2)
    x = random_automaton(random.Random(7), lat, 4)
    y = random_automaton(random.Random(7), lat, 4)
    assert x == y
