import importlib
import itertools
import random
import time
from math import prod

import pytest

from latlang import (
    RecognitionTriple,
    build_lattice,
    cons_coloring,
    constant_automaton,
    cut,
    direct_product,
    divides,
    equivalent,
    evaluate,
    ideal_coloring,
    ideal_language_construction,
    identity_is_greatest,
    is_aperiodic,
    is_shuffle_ideal,
    make_automaton,
    make_op_coloring,
    make_recognition_triple,
    product_combine,
    product_triple,
    recognizes,
    reconstruct_from_cuts,
    shuffle_ideal_falsify,
    standard_lattice,
    syntactic,
    syntactic_quotients,
    transition_monoid,
    triple_to_automaton,
)
from latlang.automaton import minimize, trim
from latlang.errors import (
    InternalInconsistency,
    MismatchedAlphabet,
    MismatchedCarrier,
    NotAntisymmetric,
    NotAssociative,
    NotCompatible,
    SizeCapExceeded,
    UnknownElement,
)
from latlang.lattice import closure_bits, orbit, pointwise_order
from latlang.monoid import _greedy_generators, _make_unchecked, check_generated, product_index
from latlang.serialize import automaton_from_doc, triple_from_doc, triple_to_doc
from latlang.syntactic import _state_maps, _words_and_table, shuffle_verdict
from latlang.variety import (
    enumerate_ordered_monoids,
    random_automaton,
    random_coloring,
    random_lattice,
)

from conftest import (
    all_words,
    enumerate_falsifier,
    reference_reconstruct_from_cuts,
    reference_shuffle_ideal_falsify,
    reference_state_preorder,
    reference_syntactic,
    reference_transition_monoid,
    reference_word_maps,
    rows_of,
    small_monoids,
    u1,
)


def test_transition_monoid_trivial(boolean):
    a = constant_automaton(boolean, ("a",), boolean.top)
    monoid, gens = transition_monoid(a)
    assert monoid.size == 1 and gens == (0,)


def test_transition_monoid_identical_letters(two_sink_automaton):
    monoid, gens = transition_monoid(two_sink_automaton)
    assert gens[1] == gens[2]  # b and c act identically
    assert gens[0] != gens[1]
    assert monoid.identity == 0 and monoid.elements[0] == "ε"


def test_transition_monoid_is_homomorphism(two_sink_automaton):
    a = two_sink_automaton
    monoid, gens = transition_monoid(a)
    by_letter = dict(zip(a.alphabet, gens))

    def image(word):
        m = monoid.identity
        for x in word:
            m = monoid.mul[m][by_letter[x]]
        return m

    for u in all_words(a.alphabet, 2):
        for v in all_words(a.alphabet, 2):
            assert image(u + v) == monoid.mul[image(u)][image(v)]


def test_tables_match_composition_reference_on_seeded_sweep():
    """The tables read off the Cayley graph equal the tables built by
    composing and hashing every pair of word maps: same elements, names,
    witnesses, products, order and letter images, on 300 small machines of
    1 to 3 letters and 4 machines whose syntactic monoids have 300 to 600
    elements."""
    rng = random.Random(11)
    machines = [
        random_automaton(rng, random_lattice(rng, 4), 4, alphabet=("a", "b", "c")[: 1 + i % 3])
        for i in range(300)
    ]
    large = []
    while len(large) < 4:
        a = random_automaton(rng, random_lattice(rng, 4), 6, min_states=6)
        try:
            k = len(reference_word_maps(minimize(a))[0])
            k_trim = len(reference_word_maps(a)[0])
        except SizeCapExceeded:
            continue
        if 300 <= k and k_trim <= 600:
            large.append(a)
    for a in machines + large:
        assert syntactic(a) == reference_syntactic(a)
        assert transition_monoid(a) == reference_transition_monoid(a)


def test_state_maps_of_one_state_machines(boolean):
    """A machine that trims to one state has the identity map alone, a
    loop on every letter, and the reference's monoids."""
    chain3 = standard_lattice("chain", 3)
    for letters in (("a",), ("a", "b"), ("a", "b", "c")):
        k = len(letters)
        lone = constant_automaton(boolean, letters, boolean.top)
        unreachable = make_automaton(
            chain3, letters, ["s", "t", "u"], "s", [[0] * k, [1] * k, [0] * k], [1, 0, 2]
        )
        for a in (lone, unreachable):
            assert _state_maps(trim(a)) == ([(0,)], [[0] * k])
            assert reference_word_maps(trim(a))[0] == [(0,)]
            assert syntactic(a) == reference_syntactic(a)
            assert transition_monoid(a) == reference_transition_monoid(a)


def _submonoid_graph(monoid, images):
    """The members of the submonoid the images generate, in discovery
    order, and its right Cayley graph in ``orbit`` form."""
    return orbit(monoid.identity, lambda x: [monoid.mul[x][g] for g in images])


def test_tables_and_quotients_on_one_and_two_element_monoids():
    """On every ordered monoid of one or two elements and every choice of
    one or two letter images: the Froidure & Pin table equals the monoid's
    table on the generated submonoid, and ``syntactic_quotients`` gives the
    machine route's triple for every order-preserving coloring into the
    two-element and three-element chains."""
    lattices = [standard_lattice("chain", 2), standard_lattice("chain", 3)]
    compared = 0
    for monoid in enumerate_ordered_monoids(1) + enumerate_ordered_monoids(2):
        n = monoid.size
        colorings = [
            make_op_coloring(monoid, lattice, colors)
            for lattice in lattices
            for colors in itertools.product(range(lattice.size), repeat=n)
            if all(
                lattice.leq[colors[x]] >> colors[y] & 1
                for x in range(n) for y in range(n) if monoid.leq[x] >> y & 1
            )
        ]
        for alphabet in (("a",), ("a", "b")):
            for images in itertools.product(range(n), repeat=len(alphabet)):
                members, graph = _submonoid_graph(monoid, images)
                position = {x: i for i, x in enumerate(members)}
                words, table = _words_and_table(graph, alphabet)
                assert table == [
                    tuple(position[monoid.mul[x][y]] for y in members) for x in members
                ]
                assert len(words) == len(members)
                assert syntactic_quotients(alphabet, images, colorings) == [
                    _machine_route(alphabet, images, monoid, c) for c in colorings
                ]
                compared += len(colorings)
    assert compared >= 50


def test_letter_images_refuse_every_table_the_greedy_generators_refuse(monkeypatch):
    """Corrupt one to three entries of the syntactic table of seeded
    machines: every corrupted table that ``check_generated`` refuses
    through ``_greedy_generators`` is refused by ``syntactic``, which
    validates it through the letter images."""
    module = importlib.import_module("latlang.syntactic")
    real = module._words_and_table
    rng = random.Random(2424)
    refused = images_hit = 0
    for i in range(300):
        a = random_automaton(rng, random_lattice(rng, 4), 4, ("a", "b", "c")[: 1 + i % 3])
        monkeypatch.setattr(module, "_words_and_table", real)
        synt = syntactic(a)
        monoid, images = synt.monoid, set(synt.generator_images)
        if monoid.size < 2:
            continue
        table = [list(row) for row in monoid.mul]
        for _ in range(rng.randint(1, 3)):
            x = rng.randrange(monoid.size)
            y = rng.choice(sorted(images)) if rng.random() < 0.3 else rng.randrange(monoid.size)
            table[x][y] = rng.randrange(monoid.size)
        if table == [list(row) for row in monoid.mul]:
            continue
        corrupted = _make_unchecked(monoid.elements, 0, table, monoid.leq)
        try:
            check_generated(corrupted, _greedy_generators(table, 0))
        except (NotAntisymmetric, NotAssociative, NotCompatible):
            pass
        else:
            continue
        monkeypatch.setattr(
            module, "_words_and_table", lambda graph, alphabet: (real(graph, alphabet)[0], table)
        )
        with pytest.raises(InternalInconsistency):
            syntactic(a)
        refused += 1
        images_hit += any(
            row[g] != orig[g] for row, orig in zip(table, monoid.mul) for g in images
        )
    assert refused >= 100 and 0 < images_hit < refused


def test_pointwise_order_matches_pairwise_rows():
    """The bitset order equals the pairwise ``all`` over zipped maps, row by
    row, on the word maps of one-state machines (k = 1) and of
    200 machines over random lattices, on 1 to 200 random maps around
    the 64- and 128-bit boundaries, under preorders of unminimized machines,
    and on maps of 1 to 70 positions into the values of random lattices."""
    rng = random.Random(1717)
    cases = [
        (rows_of(reference_state_preorder(a)), reference_word_maps(a)[0])
        for a in (
            minimize(constant_automaton(standard_lattice(kind, 2), ("a", "b"), 0))
            for kind in ("boolean", "powerset")
        )
    ]
    lattices = []
    for _ in range(200):
        a = random_automaton(rng, random_lattice(rng, 5), 5)
        lattices.append(a.lattice)
        cases.append((rows_of(reference_state_preorder(a)), reference_word_maps(a)[0]))
    for k in (1, 2, 63, 64, 65, 127, 128, 129, 200):
        a = random_automaton(rng, random_lattice(rng, 5), 6, min_states=6)
        lattices.append(a.lattice)
        n = len(a.states)
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)]
        cases.append((rows_of(reference_state_preorder(a)), maps))
    for length in (1, 2, 5, 64, 70):
        lattice = random_lattice(rng, 6)
        lattices.append(lattice)
        maps = [tuple(rng.randrange(lattice.size) for _ in range(length)) for _ in range(65)]
        cases.append((lattice.leq, maps))
    assert {len(maps) for _, maps in cases} >= {1, 63, 64, 65, 127, 128, 129}
    assert any(
        not (lat.le(x, y) or lat.le(y, x))
        for lat in lattices
        for x in range(lat.size)
        for y in range(lat.size)
    )
    for pre, maps in cases:
        rows = pointwise_order(pre, maps)
        assert tuple(rows) == rows_of(
            [all(pre[p] >> q & 1 for p, q in zip(mi, mj)) for mj in maps] for mi in maps
        )
        assert {type(row) for row in rows} == {int}


def test_state_preorder_matches_bool_fixpoint():
    """The state preorder read off the word maps (each state's outputs
    after every distinct column of word maps, ordered pointwise over the
    lattice, as ``syntactic`` builds it) is the bool fixpoint's relation,
    on 300 seeded machines of 1 to 9 states over random lattices, minimal
    or not, except the few whose word maps pass the cap; and it is a
    preorder: reflexive and transitive."""
    rng = random.Random(2121)
    strict = checked = 0
    for _ in range(300):
        a = random_automaton(rng, random_lattice(rng, 6), 9)
        for machine in (a, minimize(a)):
            try:
                maps, _ = _state_maps(machine)
            except SizeCapExceeded:
                continue
            out = machine.output
            profiles = list(zip(*{tuple(map(out.__getitem__, m)) for m in maps}))
            rows = pointwise_order(machine.lattice.leq, profiles)
            assert tuple(rows) == rows_of(reference_state_preorder(machine))
            assert tuple(rows) == closure_bits(rows)
            strict += any(row & ~(1 << s) for s, row in enumerate(rows))
            checked += 1
    assert checked > 550
    assert strict > 100


def _cycle(n):
    """A cycle of n states: ``a`` sends i to i + 1 mod n, ``b`` resets to
    state 0, and state n - 1 alone is marked.  It is minimal and has 2n
    word maps: the rotations and the constant maps."""
    boolean = standard_lattice("boolean")
    return make_automaton(
        boolean, ("a", "b"), [f"q{q}" for q in range(n)], 0,
        [[(q + 1) % n, 0] for q in range(n)],
        [boolean.top if q == n - 1 else boolean.bottom for q in range(n)],
    )


def test_syntactic_of_cycles():
    """Cycles with a reset letter: the syntactic triple equals the
    reference on 2 to 12 states, and the 200-state cycle, whose preorder a
    fixpoint refines over many full passes, gives its 400 word maps."""
    for n in range(2, 13):
        a = _cycle(n)
        assert syntactic(a) == reference_syntactic(a)
        assert syntactic(a).monoid.size == 2 * n
    assert syntactic(_cycle(200)).monoid.size == 400


def test_word_map_cap_matches_reference():
    """Six states with distinct outputs and letters that generate every map
    of the states (46656 of them): both constructions stop at the cap with
    the same error document."""
    n = 6
    delta = [[(q + 1) % n, (1 - q) if q < 2 else q, 1 if q == 0 else q] for q in range(n)]
    a = make_automaton(
        standard_lattice("chain", n), ("c", "t", "m"), [f"q{q}" for q in range(n)], 0,
        delta, list(range(n)),
    )
    for build, reference in (
        (syntactic, reference_syntactic),
        (transition_monoid, reference_transition_monoid),
    ):
        with pytest.raises(SizeCapExceeded) as new:
            build(a)
        with pytest.raises(SizeCapExceeded) as old:
            reference(a)
        assert new.value.to_doc() == old.value.to_doc()
        assert str(new.value) == "transition monoid exceeds cap 10000"


def test_syntactic_constant(boolean):
    a = constant_automaton(boolean, ("a", "b"), boolean.bottom)
    s = syntactic(a)
    assert s.monoid.size == 1


def test_syntactic_contains_a(contains_a):
    s = syntactic(contains_a)
    assert s.monoid.size == 2
    z = s.generator_images[0]  # class of the letter a
    one = s.monoid.identity
    assert z != one
    assert s.monoid.mul[z][z] == z
    assert s.monoid.le(z, one) and not s.monoid.le(one, z)
    assert identity_is_greatest(s.monoid)
    assert is_aperiodic(s.monoid)
    assert s.witnesses[one] == () and s.witnesses[z] == ("a",)


def test_syntactic_worked_example(two_sink_automaton):
    s = syntactic(two_sink_automaton)
    assert s.monoid.size == 4
    assert s.monoid.elements == ("ε", "a", "b", "ba")
    assert s.monoid.order_pairs() == [("ba", "b")]
    assert not identity_is_greatest(s.monoid)
    assert is_aperiodic(s.monoid)


def test_syntactic_agrees_with_language(two_sink_automaton, contains_a):
    for a in (two_sink_automaton, contains_a):
        s = syntactic(a)
        images = dict(zip(s.alphabet, s.generator_images))
        for w in all_words(a.alphabet, 6):
            m = s.monoid.identity
            for x in w:
                m = s.monoid.mul[m][images[x]]
            assert s.coloring.colors[m] == evaluate(a, w)


def test_syntactic_order_matches_bounded_contexts(rng):
    """The computed order is exactly two-sided context domination.

    Soundness: comparable classes dominate on all short real-word contexts.
    Strictness: incomparable classes are separated by a witness-word context.
    """
    for _ in range(8):
        lattice = random_lattice(rng, 5)
        a = random_automaton(rng, lattice, 3)
        s = syntactic(a)
        monoid = s.monoid
        for c1 in range(monoid.size):
            for c2 in range(monoid.size):
                w1, w2 = s.witnesses[c1], s.witnesses[c2]
                if monoid.le(c1, c2):
                    for u in all_words(a.alphabet, 2):
                        for v in all_words(a.alphabet, 2):
                            assert lattice.le(
                                evaluate(a, u + w1 + v), evaluate(a, u + w2 + v)
                            )
                else:
                    assert any(
                        not lattice.le(evaluate(a, u + w1 + v), evaluate(a, u + w2 + v))
                        for u in s.witnesses
                        for v in s.witnesses
                    )


def test_syntactic_order_matches_literal_context_quantifier(rng):
    """Recompute the syntactic monoid by quantifying over all contexts.

    Every word acts through its state map, so context pairs range exactly
    over pairs of transition-monoid elements.  This second route never
    touches the state-simulation fixpoint or the minimal machine used by
    the implementation: it quotients the transition monoid of the trimmed
    machine by mutual domination, and the classes, their length-lex-least
    names, the order and the products must match ``syntactic``.
    """
    checked = 0
    while checked < 60:
        lattice = random_lattice(rng, 4)
        machine = trim(random_automaton(rng, lattice, 4, min_states=3))
        monoid, _ = transition_monoid(machine)
        k = monoid.size
        if k > 16:
            continue
        words = [
            () if name == "ε" else tuple(name) for name in monoid.elements
        ]
        act = [
            [machine.run(w, start=q) for q in range(len(machine.states))]
            for w in words
        ]
        out, q0 = machine.output, machine.initial

        def dominated(m1, m2):
            return all(
                lattice.le(
                    out[act[v][act[m1][act[u][q0]]]], out[act[v][act[m2][act[u][q0]]]]
                )
                for u in range(k)
                for v in range(k)
            )

        below = [[dominated(m1, m2) for m2 in range(k)] for m1 in range(k)]
        classes: list[list[int]] = []
        for m in range(k):  # elements come in length-lex order of their words
            for c in classes:
                if below[m][c[0]] and below[c[0]][m]:
                    c.append(m)
                    break
            else:
                classes.append([m])

        s = syntactic(machine)
        assert s.monoid.size == len(classes)
        assert s.monoid.elements == tuple(monoid.elements[c[0]] for c in classes)
        image = [s.image_of(w) for w in words]
        for index, c in enumerate(classes):
            assert {image[m] for m in c} == {index}
        for m1 in range(k):
            for m2 in range(k):
                assert s.monoid.le(image[m1], image[m2]) == below[m1][m2]
                concatenation = s.image_of(words[m1] + words[m2])
                assert s.monoid.mul[image[m1]][image[m2]] == concatenation
        checked += 1


def test_recognizes_syntactic_triple(two_sink_automaton):
    s = syntactic(two_sink_automaton)
    assert recognizes(s, two_sink_automaton)


def test_recognizes_rejects_constant(two_sink_automaton):
    s = syntactic(two_sink_automaton)
    constant = RecognitionTriple(
        s.alphabet,
        s.generator_images,
        cons_coloring(s.monoid, two_sink_automaton.lattice, 0),
    )
    assert not recognizes(constant, two_sink_automaton)


def test_recognizes_product_construction(rng):
    """The pairing triple on the product monoid recognizes the join language."""
    from latlang import product_coloring

    lattice = random_lattice(rng, 5)
    for _ in range(5):
        a1 = random_automaton(rng, lattice, 3)
        a2 = random_automaton(rng, lattice, 3)
        s1, s2 = syntactic(a1), syntactic(a2)
        product, _ = direct_product([s1.monoid, s2.monoid])
        sizes = [s1.monoid.size, s2.monoid.size]
        images = tuple(
            product_index(sizes, (g1, g2))
            for g1, g2 in zip(s1.generator_images, s2.generator_images)
        )
        triple = RecognitionTriple(
            s1.alphabet, images,
            product_coloring("pjoin", [s1.coloring, s2.coloring]),
        )
        assert recognizes(triple, product_combine("join", a1, a2))


def _seeded_monoid(rng, pool, max_size):
    """One monoid of ``pool`` or a direct product of two or three of them,
    with at most ``max_size`` elements."""
    while True:
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        if len(factors) == 1:
            return factors[0]
        if prod(m.size for m in factors) <= max_size:
            return direct_product(factors)[0]


def _machine_route(alphabet, images, monoid, coloring):
    return syntactic(triple_to_automaton(RecognitionTriple(alphabet, images, coloring)))


def test_syntactic_quotients_match_machine_route_on_seeded_triples():
    """The table kernel gives ``syntactic(triple_to_automaton(t))`` field
    for field, on 400 seeded monoids (enumerated ones and products of up
    to 64 elements) with 1 to 3 letters of random images and 1 to 3
    random order-preserving colorings over random lattices of up to 5
    elements, read in one call per monoid."""
    rng = random.Random(1919)
    pool = small_monoids()
    sizes = set()
    for _ in range(400):
        monoid = _seeded_monoid(rng, pool, 64)
        lattice = random_lattice(rng, 5)
        alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
        images = tuple(rng.randrange(monoid.size) for _ in alphabet)
        colorings = [random_coloring(rng, monoid, lattice) for _ in range(rng.randint(1, 3))]
        results = syntactic_quotients(alphabet, images, colorings)
        assert results == [_machine_route(alphabet, images, monoid, c) for c in colorings]
        sizes.update(r.monoid.size for r in results)
    assert max(sizes) >= 16


def test_syntactic_quotients_match_machine_route_on_ideal_colorings():
    """Every ideal coloring of each enumerated monoid of up to 4 elements
    and of 8 seeded products of 5 to 64 elements, over the monoid's own
    elements as letters: the kernel gives the machine route's triples."""
    rng = random.Random(2020)
    pool = small_monoids()
    products = []
    while len(products) < 8:
        monoid = _seeded_monoid(rng, pool, 64)
        if monoid.size >= 5:
            products.append(monoid)
    lattice = standard_lattice("chain", 2)
    for monoid in pool + products:
        letters = tuple(range(monoid.size))
        colorings = [ideal_coloring(monoid, m, lattice) for m in letters]
        assert syntactic_quotients(monoid.elements, letters, colorings) == [
            _machine_route(monoid.elements, letters, monoid, c) for c in colorings
        ]
    assert max(m.size for m in products) >= 32


def test_syntactic_quotients_checks_its_inputs():
    """Letter images resolve by position or name, as in
    ``make_recognition_triple``; one image per letter and one monoid for
    all colorings are required, and no colorings give no triples."""
    monoid = u1()
    lattice = standard_lattice("chain", 2)
    coloring = ideal_coloring(monoid, "z", lattice)
    by_position = syntactic_quotients(("a", "b"), (1, 0), [coloring])
    assert syntactic_quotients(("a", "b"), ("z", "1"), [coloring]) == by_position
    assert by_position == [_machine_route(("a", "b"), (1, 0), monoid, coloring)]
    assert syntactic_quotients(("a", "b"), (1, 0), []) == []
    for images in [(1,), (1, 0, 0)]:
        with pytest.raises(MismatchedAlphabet):
            syntactic_quotients(("a", "b"), images, [coloring])
    for images in [(1, 2), (1, -1), ("x", 0), (True, 0)]:
        with pytest.raises(UnknownElement):
            syntactic_quotients(("a", "b"), images, [coloring])
    other = ideal_coloring(u1("1<z"), "z", lattice)
    with pytest.raises(MismatchedCarrier):
        syntactic_quotients(("a", "b"), (1, 0), [coloring, other])


def test_product_triple_matches_product_machine_on_seeded_pairs():
    """The product join and meet of two syntactic triples recognize the
    join and meet of their languages, on 120 seeded pairs of 3-state
    machines over random lattices (products of up to 576 elements)."""
    rng = random.Random(18)
    checked = 0
    while checked < 120:
        lattice = random_lattice(rng, 5)
        a1 = random_automaton(rng, lattice, 3, min_states=3)
        a2 = random_automaton(rng, lattice, 3, min_states=3)
        s1, s2 = syntactic(a1), syntactic(a2)
        if s1.monoid.size * s2.monoid.size > 1024:
            continue
        for kind in ("join", "meet"):
            triple = product_triple("p" + kind, [s1, s2])
            assert triple.monoid.size == s1.monoid.size * s2.monoid.size
            assert equivalent(triple_to_automaton(triple), product_combine(kind, a1, a2))
        checked += 1


def test_product_triple_rejects_mixed_alphabets(boolean):
    s1 = syntactic(constant_automaton(boolean, ("a",), 0))
    s2 = syntactic(constant_automaton(boolean, ("b",), 0))
    with pytest.raises(MismatchedAlphabet):
        product_triple("pjoin", [s1, s2])


def test_triple_to_automaton_shapes(boolean, contains_a):
    trivial = syntactic(constant_automaton(boolean, ("a", "b"), 0))
    assert len(triple_to_automaton(trivial).states) == 1

    s = syntactic(contains_a)
    rebuilt = triple_to_automaton(s)
    assert equivalent(rebuilt, contains_a)

    m, _ = direct_product([u1(), u1()])
    triple = make_recognition_triple(
        ("a", "b"), ["(z,1)", "(1,z)"], cons_coloring(m, boolean, 0)
    )
    assert len(triple_to_automaton(triple).states) == 4


def test_triple_reads_its_monoid_off_its_coloring(boolean, contains_a, two_sink_automaton):
    """A triple takes no monoid apart from its coloring's: every triple the
    library builds has ``t.monoid is t.coloring.monoid``, its machine has
    one output per state, and its document loads back to it."""
    s = syntactic(two_sink_automaton)
    m, _ = direct_product([u1(), u1()])
    triples = [
        s,
        syntactic_quotients(s.alphabet, s.generator_images, [s.coloring])[0],
        product_triple("pjoin", [syntactic(contains_a), syntactic(contains_a)]),
        reconstruct_from_cuts(two_sink_automaton)[0],
        make_recognition_triple(("a", "b"), ["(z,1)", "(1,z)"], cons_coloring(m, boolean, 0)),
    ]
    for t in triples + [triple_from_doc(triple_to_doc(t)) for t in triples]:
        assert t.monoid is t.coloring.monoid
        machine = triple_to_automaton(t)
        assert len(machine.states) == len(machine.output) == t.monoid.size
        assert triple_from_doc(triple_to_doc(t)) == RecognitionTriple(
            t.alphabet, t.generator_images, t.coloring
        )
    with pytest.raises(TypeError):
        RecognitionTriple(s.alphabet, s.generator_images, s.monoid, s.coloring)


def test_triple_to_automaton_matches_per_entry_delta():
    """The machine's delta, read column by column, is the table entry
    x * g for each state x and letter image g, on seeded triples of no
    letters to three letters over monoids of up to 64 elements."""
    rng = random.Random(2323)
    pool = small_monoids()
    for _ in range(200):
        monoid = _seeded_monoid(rng, pool, 64)
        lattice = random_lattice(rng, 4)
        alphabet = ("a", "b", "c")[: rng.randint(0, 3)]
        images = tuple(rng.randrange(monoid.size) for _ in alphabet)
        triple = RecognitionTriple(alphabet, images, random_coloring(rng, monoid, lattice))
        machine = triple_to_automaton(triple)
        assert machine.delta == tuple(
            tuple(monoid.mul[x][g] for g in images) for x in range(monoid.size)
        )
        assert (machine.states, machine.initial, machine.output) == (
            monoid.elements, monoid.identity, triple.coloring.colors
        )


def test_cut_examples(two_sink_automaton):
    a = two_sink_automaton
    lat = a.lattice
    at_top = cut(a, lat.top)
    assert all(v == lat.bottom for v in at_top.output)
    at_one = cut(a, "{1}")
    assert evaluate(at_one, "ab") == lat.bottom
    assert evaluate(at_one, "bbc") == lat.top


def test_reconstruct_from_cuts(boolean, contains_a, two_sink_automaton):
    constant = constant_automaton(boolean, ("a",), boolean.top)
    triple, equal = reconstruct_from_cuts(constant)
    assert equal

    triple, equal = reconstruct_from_cuts(contains_a)
    assert equal
    assert recognizes(triple, contains_a)

    triple, equal = reconstruct_from_cuts(two_sink_automaton)
    assert equal


def test_reconstruct_matches_per_value_reference_on_seeded_sweep():
    """One syntactic monoid per distinct cut gives the per-value loop's
    triple document, flag and cap errors."""
    rng = random.Random(1916)
    compared = capped = shared = 0
    for i in range(150):
        lattice = SWEEP_LATTICES[i % 5]
        a = random_automaton(rng, lattice, 4, ("a", "b"))
        try:
            expected, expected_equal = reference_reconstruct_from_cuts(a)
        except SizeCapExceeded as exc:
            with pytest.raises(SizeCapExceeded) as caught:
                reconstruct_from_cuts(a)
            assert caught.value.to_doc() == exc.to_doc()
            capped += 1
            continue
        triple, equal = reconstruct_from_cuts(a)
        assert (triple_to_doc(triple), equal) == (triple_to_doc(expected), expected_equal), i
        compared += 1
        shared += len({cut(a, v).output for v in range(lattice.size)}) < lattice.size
    assert compared >= 100 and capped >= 1 and shared >= 100


def test_reconstruct_builds_one_syntactic_monoid_per_distinct_cut(monkeypatch):
    module = importlib.import_module("latlang.syntactic")
    real = module.syntactic
    calls = []

    def counting(machine):
        calls.append(machine.output)
        return real(machine)

    monkeypatch.setattr(module, "syntactic", counting)
    rng = random.Random(2016)
    repeated = 0
    for i in range(40):
        lattice = SWEEP_LATTICES[i % 5]
        a = random_automaton(rng, lattice, 3, ("a", "b"))
        calls.clear()
        reconstruct_from_cuts(a)
        distinct = {cut(a, v).output for v in range(lattice.size)}
        assert len(calls) == len(set(calls)) and set(calls) == distinct, i
        repeated += lattice.size - len(distinct)
    assert repeated >= 40


def test_shuffle_ideal_verdicts(contains_a, empty_word_only, boolean):
    assert is_shuffle_ideal(contains_a)
    assert is_shuffle_ideal(constant_automaton(boolean, ("a", "b"), 0))
    assert not is_shuffle_ideal(empty_word_only)


def test_shuffle_falsify(contains_a, empty_word_only, two_sink_automaton):
    assert shuffle_ideal_falsify(contains_a, 6) is None
    assert shuffle_ideal_falsify(empty_word_only, 4) == ((), ("a",))
    assert shuffle_ideal_falsify(two_sink_automaton, 2) == (("a",), ("b", "a"))


SWEEP_LATTICES = [
    standard_lattice("chain", 2),
    standard_lattice("chain", 3),
    build_lattice(["bot", "x", "y", "top"], [(0, 1), (0, 2), (1, 3), (2, 3)]),
    build_lattice(  # M3
        ["bot", "x", "y", "z", "top"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    ),
    build_lattice(  # N5
        ["bot", "x", "y", "z", "top"],
        [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)],
    ),
]


def test_falsifier_matches_enumerator():
    rng = random.Random(20261018)
    found = 0
    for i in range(600):
        letters = ("a", "b", "c") if i % 20 == 0 else ("a", "b")
        a = random_automaton(rng, SWEEP_LATTICES[i % 5], 5, letters)
        for max_len in range(7):
            expected = enumerate_falsifier(a, max_len)
            assert shuffle_ideal_falsify(a, max_len) == expected, (i, max_len)
        found += expected is not None
    assert 200 < found < 500


def test_falsifier_matches_backward_search_reference():
    """The forward search gives the same pair as the backward search it
    replaced, bounded and unbounded."""
    rng = random.Random(20261019)
    found = 0
    for i in range(3000):
        letters = ("a", "b", "c")[: 1 + i % 3]
        a = random_automaton(rng, SWEEP_LATTICES[i % 5], 9, letters)
        if i % 2:
            a = minimize(a)
        for max_len in (None, 0, 1, 2, 3, 5):
            expected = reference_shuffle_ideal_falsify(a, max_len)
            assert shuffle_ideal_falsify(a, max_len) == expected, (i, max_len)
            found += expected is not None
    assert 5000 < found < 15000


def test_falsifier_takes_the_least_word_shared_by_several_triples():
    """The word a reaches two triples.  A search that expands them one
    after the other reaches the first one's violating child on c, the pair
    (a, ac), before the second one's on b, which gives the least pair."""
    a = automaton_from_doc({
        "lattice": {"elements": ["v0", "v1", "v2"], "cover": [["v0", "v1"], ["v1", "v2"]]},
        "alphabet": ["a", "b", "c"],
        "states": ["q0", "q1", "q2", "q3", "q4"],
        "initial": "q0",
        "delta": {
            "q0": {"a": "q2", "b": "q3", "c": "q0"},
            "q1": {"a": "q1", "b": "q4", "c": "q2"},
            "q2": {"a": "q4", "b": "q2", "c": "q0"},
            "q3": {"a": "q0", "b": "q1", "c": "q2"},
            "q4": {"a": "q4", "b": "q0", "c": "q3"},
        },
        "output": {"q0": "v2", "q1": "v0", "q2": "v1", "q3": "v0", "q4": "v1"},
    })
    assert shuffle_ideal_falsify(a) == (("b",), ("a", "b"))
    assert reference_shuffle_ideal_falsify(a) == (("b",), ("a", "b"))


def test_unbounded_falsifier_decides_shuffle_ideals():
    rng = random.Random(1018)
    for i in range(200):
        a = random_automaton(rng, SWEEP_LATTICES[i % 5], 4, ("a", "b", "c"))
        assert (shuffle_ideal_falsify(a) is None) == is_shuffle_ideal(a), i


def test_shuffle_verdict_truncates_the_unbounded_falsifier():
    """One unbounded search, its pair dropped when the superword is longer
    than the bound, gives the bounded search's falsifier."""
    rng = random.Random(1414)
    dropped = 0
    for i in range(80):
        a = random_automaton(rng, SWEEP_LATTICES[i % 5], 4, ("a", "b"))
        least = shuffle_ideal_falsify(a)
        for max_len in (-1, 0, 1, 2, 3, 6, None):
            falsifier = shuffle_verdict(a, max_len)[2]
            assert falsifier == shuffle_ideal_falsify(a, max_len), (i, max_len)
            dropped += (max_len or 0) > 0 and falsifier is None and least is not None
    assert dropped >= 10


def test_falsifier_has_no_length_bound():
    # top exactly on a^30: (a^29, a^30) is the least pair, of length 30
    n = 30
    states = [f"q{i}" for i in range(n + 2)]
    delta = [[min(i + 1, n + 1), n + 1] for i in range(n + 2)]
    output = ["1" if i == n else "0" for i in range(n + 2)]
    a = make_automaton(standard_lattice("chain", 2), ("a", "b"), states, 0, delta, output)
    started = time.perf_counter()
    assert shuffle_ideal_falsify(a) == (("a",) * (n - 1), ("a",) * n)
    assert shuffle_ideal_falsify(a, 10_000) == (("a",) * (n - 1), ("a",) * n)
    assert shuffle_ideal_falsify(a, n - 1) is None
    assert time.perf_counter() - started < 1.0
    # the reset cycle: a goes from i to i + 1, b back to 0, top on the last state
    n = 200
    delta = [[(i + 1) % n, 0] for i in range(n)]
    output = ["1" if i == n - 1 else "0" for i in range(n)]
    states = [f"q{i}" for i in range(n)]
    a = make_automaton(standard_lattice("chain", 2), ("a", "b"), states, 0, delta, output)
    assert shuffle_ideal_falsify(a) == (("a",) * (n - 2), ("a",) * (n - 1))


def test_shuffle_consistency_on_worked_example(two_sink_automaton):
    # a falsifying pair exists, so the algebraic verdict must be false
    assert shuffle_ideal_falsify(two_sink_automaton, 2) is not None
    assert not is_shuffle_ideal(two_sink_automaton)


def test_ideal_language_greatest_case(contains_a):
    s = syntactic(contains_a)
    machine, equal = ideal_language_construction(
        contains_a, s.monoid.identity, synt=s
    )
    assert equal
    assert all(v == contains_a.lattice.bottom for v in machine.output)


def test_ideal_language_contains_a(contains_a):
    s = syntactic(contains_a)
    z = s.generator_images[0]
    machine, equal = ideal_language_construction(contains_a, z, synt=s)
    assert equal
    direct = triple_to_automaton(
        RecognitionTriple(
            s.alphabet, s.generator_images,
            ideal_coloring(s.monoid, z, contains_a.lattice),
        )
    )
    assert equivalent(machine, direct)


def test_ideal_language_full_sweep(two_sink_automaton):
    s = syntactic(two_sink_automaton)
    for m in range(s.monoid.size):
        _, equal = ideal_language_construction(two_sink_automaton, m, synt=s)
        assert equal, s.monoid.elements[m]


def test_recognition_lifts_through_divisors(rng):
    """A language recognized by a submonoid or a quotient is recognized by
    the ambient monoid: lift the coloring by downward joins through the
    embedding, or precompose along a section of the surjection."""
    from latlang import generated_submonoid, make_op_coloring
    from latlang.variety import random_coloring, random_lattice

    ambient, _ = direct_product([u1("z<1"), u1("z<1")])
    sub, embedding = generated_submonoid(ambient, ["(z,1)"])
    lattice = random_lattice(rng, 5)
    for _ in range(5):
        coloring = random_coloring(rng, sub, lattice)
        images = (rng.randrange(sub.size), rng.randrange(sub.size))
        triple = RecognitionTriple(("a", "b"), images, coloring)
        machine = triple_to_automaton(triple)
        lifted_colors = [
            lattice.join_all(
                coloring.colors[x]
                for x in range(sub.size)
                if ambient.le(embedding.mapping[x], m)
            )
            for m in range(ambient.size)
        ]
        lifted = RecognitionTriple(
            ("a", "b"),
            tuple(embedding.mapping[g] for g in images),
            make_op_coloring(ambient, lattice, lifted_colors),
        )
        assert recognizes(lifted, machine)

    # quotient direction: factor the word morphism through any section
    quotient_monoid = u1("z<1")
    surjection = {  # ambient (z,1)-submonoid onto u1: identity-preserving
        sub.index("(1,1)"): quotient_monoid.index("1"),
        sub.index("(z,1)"): quotient_monoid.index("z"),
    }
    section = {v: k for k, v in surjection.items()}
    for _ in range(5):
        coloring = random_coloring(rng, quotient_monoid, lattice)
        images = (rng.randrange(2), rng.randrange(2))
        triple = RecognitionTriple(("a", "b"), images, coloring)
        machine = triple_to_automaton(triple)
        lifted = RecognitionTriple(
            ("a", "b"),
            tuple(section[g] for g in images),
            make_op_coloring(
                sub, lattice,
                [coloring.colors[surjection[x]] for x in range(sub.size)],
            ),
        )
        assert recognizes(lifted, machine)


def test_syntactic_monoid_divides_recognizers(rng):
    for _ in range(6):
        lattice = random_lattice(rng, 4)
        a = random_automaton(rng, lattice, 3)
        s = syntactic(a)
        assert divides(s.monoid, s.monoid).kind == "yes"
        triple, equal = reconstruct_from_cuts(a)
        assert equal
        if triple.monoid.size <= 10:
            assert divides(s.monoid, triple.monoid).kind == "yes"


def test_syntactic_monoid_validates(rng):
    """The quotient order is a genuine compatible order."""
    from latlang import build_ordered_monoid

    for _ in range(6):
        lattice = random_lattice(rng, 5)
        a = random_automaton(rng, lattice, 3)
        monoid = syntactic(a).monoid
        rebuilt = build_ordered_monoid(
            monoid.elements,
            monoid.identity,
            [[monoid.mul[i][j] for j in range(monoid.size)] for i in range(monoid.size)],
            [
                (i, j)
                for i in range(monoid.size)
                for j in range(monoid.size)
                if monoid.le(i, j)
            ],
        )
        assert rebuilt.leq == monoid.leq
