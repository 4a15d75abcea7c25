"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (integer/rational equality) except the word-measure
convergence bound, which is the rational inequality |mass - 1/3| < 2^-30.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from latlang import (
    RecognitionTriple,
    absorption_probabilities,
    combine_colorings,
    decompose,
    direct_product,
    divides,
    dual,
    equivalent,
    ergodic_structure,
    evaluate,
    identity_is_greatest,
    identity_monoid_morphism,
    ideal_language_construction,
    inverse_hom,
    is_aperiodic,
    is_shuffle_ideal,
    make_free_morphism,
    make_monoid_morphism,
    postcompose,
    precompose,
    product_coloring,
    product_combine,
    quotient,
    quotient_coloring,
    recolor,
    reconstruct_from_cuts,
    reconstruct_from_ideals,
    shuffle_ideal_falsify,
    simulating_automaton,
    standard_lattice,
    syntactic,
    threshold,
    triple_to_automaton,
    validate_decomposition,
    word_measure,
)
from latlang.cli import run
from latlang.monoid import product_index
from latlang.variety import (
    enumerate_ordered_monoids,
    random_automaton,
    random_coloring,
    random_lattice,
)

from conftest import all_words
from test_variety import oracle_count

DATA = Path(__file__).parent / "data"


def _passed(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _monoid_pool(max_size=6):
    pool = enumerate_ordered_monoids(2) + enumerate_ordered_monoids(3)
    products = [
        direct_product([a, b])[0]
        for a, b in itertools.product(pool[:4], repeat=2)
    ]
    return pool + [m for m in products if m.size <= max_size]


def test_criterion_01_lattice_laws():
    rng = random.Random(101)
    lattices = [standard_lattice("powerset", 3), standard_lattice("chain", 5)]
    lattices += [random_lattice(rng, 8) for _ in range(50)]
    for lat in lattices:
        n, J, M = lat.size, lat.join_table, lat.meet_table
        for a in range(n):
            assert J[a][a] == a and M[a][a] == a
            for b in range(n):
                assert J[a][b] == J[b][a] and M[a][b] == M[b][a]
                assert J[a][M[a][b]] == a and M[a][J[a][b]] == a
                assert lat.le(a, b) == (J[a][b] == b) == (M[a][b] == a)
                for c in range(n):
                    assert J[a][J[b][c]] == J[J[a][b]][c]
                    assert M[a][M[b][c]] == M[M[a][b]][c]
        assert dual(dual(lat)) == lat
    _passed(1, "lattice-laws")


def test_criterion_02_coloring_algebra_closure():
    rng = random.Random(202)
    pool = _monoid_pool()
    for i in range(200):
        lattice = random_lattice(rng, 8)
        source = pool[rng.randrange(len(pool))]
        kind = rng.randrange(4)
        if kind == 0:
            eta = identity_monoid_morphism(source)
        elif kind == 1:
            extra = pool[rng.randrange(len(pool))]
            product, _ = direct_product([source, extra])
            sizes = [source.size, extra.size]
            eta = make_monoid_morphism(
                source, product,
                [product_index(sizes, (x, extra.identity)) for x in range(source.size)],
            )
        elif kind == 2:
            product, _ = direct_product([source, source])
            sizes = [source.size, source.size]
            eta = make_monoid_morphism(
                source, product,
                [product_index(sizes, (x, x)) for x in range(source.size)],
            )
        else:
            extra = pool[rng.randrange(len(pool))]
            eta = make_monoid_morphism(
                source, extra, [extra.identity] * source.size
            )
        target = eta.target
        p = random_coloring(rng, target, lattice)
        q = random_coloring(rng, target, lattice)
        # every constructor output passes validation (constructors validate)
        combine_colorings("join", p, q)
        combine_colorings("meet", p, q)
        product_coloring("pjoin", [p, q], max_size=4096)
        product_coloring("pmeet", [p, q], max_size=4096)
        quotient_coloring("left", p, rng.randrange(target.size))
        quotient_coloring("right", p, rng.randrange(target.size))
        composed = precompose(p, eta)
        postcompose(threshold(lattice, rng.randrange(lattice.size)), p)
        # the quotient-of-composition identity, elementwise
        u = rng.randrange(source.size)
        lhs = quotient_coloring("left", composed, u)
        rhs = precompose(quotient_coloring("left", p, eta.mapping[u]), eta)
        assert lhs.colors == rhs.colors, f"instance {i}"
    _passed(2, "coloring-algebra-closure")


def test_criterion_03_ideal_representation():
    rng = random.Random(303)
    pool = _monoid_pool(6)
    for i in range(100):
        monoid = pool[rng.randrange(len(pool))]
        lattice = random_lattice(rng, 8)
        coloring = random_coloring(rng, monoid, lattice)
        rebuilt, equal = reconstruct_from_ideals(coloring)
        assert equal and rebuilt.colors == coloring.colors, f"instance {i}"
    _passed(3, "ideal-representation")


def test_criterion_04_closure_theorem():
    rng = random.Random(404)
    for i in range(50):
        lattice = random_lattice(rng, 6)
        a1 = random_automaton(rng, lattice, 5)
        a2 = random_automaton(rng, lattice, 5)
        joined = product_combine("join", a1, a2)
        met = product_combine("meet", a1, a2)
        u = tuple(
            a1.alphabet[rng.randrange(2)] for _ in range(rng.randint(0, 2))
        )
        left = quotient("left", a1, u)
        right = quotient("right", a1, u)
        h = make_free_morphism(
            ("x", "y"), a1.alphabet,
            {
                "x": tuple(a1.alphabet[rng.randrange(2)] for _ in range(rng.randint(0, 2))),
                "y": tuple(a1.alphabet[rng.randrange(2)] for _ in range(rng.randint(0, 2))),
            },
        )
        inverse = inverse_hom(a1, h)
        alpha = threshold(lattice, rng.randrange(lattice.size))
        recolored = recolor(a1, alpha)
        for w in all_words(a1.alphabet, 5):
            v1, v2 = evaluate(a1, w), evaluate(a2, w)
            assert evaluate(joined, w) == lattice.join_table[v1][v2], f"instance {i}"
            assert evaluate(met, w) == lattice.meet_table[v1][v2]
            assert evaluate(left, w) == evaluate(a1, u + w)
            assert evaluate(right, w) == evaluate(a1, w + u)
            assert evaluate(recolored, w) == alpha.mapping[v1]
        for w in all_words(("x", "y"), 5):
            assert evaluate(inverse, w) == evaluate(a1, h.apply(w))
    _passed(4, "closure-theorem")


def test_criterion_05_syntactic_minimality():
    rng = random.Random(505)
    pool = [m for m in _monoid_pool(9) if m.size <= 9]
    instances = 0
    # syntactic self-recognizers
    for _ in range(10):
        lattice = random_lattice(rng, 5)
        machine = random_automaton(rng, lattice, 3)
        s = syntactic(machine)
        if s.monoid.size > 10:
            continue
        assert divides(s.monoid, s.monoid).kind == "yes"
        instances += 1
    # join recognizers on products of syntactic monoids
    while instances < 20:
        lattice = random_lattice(rng, 4)
        a1 = random_automaton(rng, lattice, 2)
        a2 = random_automaton(rng, lattice, 2)
        s1, s2 = syntactic(a1), syntactic(a2)
        if s1.monoid.size * s2.monoid.size > 10:
            continue
        product, _ = direct_product([s1.monoid, s2.monoid])
        sizes = [s1.monoid.size, s2.monoid.size]
        images = tuple(
            product_index(sizes, (g1, g2))
            for g1, g2 in zip(s1.generator_images, s2.generator_images)
        )
        triple = RecognitionTriple(
            s1.alphabet, images, product,
            product_coloring("pjoin", [s1.coloring, s2.coloring]),
        )
        joined = product_combine("join", a1, a2)
        verdict = divides(syntactic(joined).monoid, triple.monoid)
        assert verdict.kind == "yes"
        instances += 1
    # arbitrary recognizer round-trips
    while instances < 32:
        monoid = pool[rng.randrange(len(pool))]
        if monoid.size > 10:
            continue
        lattice = random_lattice(rng, 5)
        triple = RecognitionTriple(
            ("a", "b"),
            (rng.randrange(monoid.size), rng.randrange(monoid.size)),
            monoid,
            random_coloring(rng, monoid, lattice),
        )
        machine = triple_to_automaton(triple)
        verdict = divides(syntactic(machine).monoid, triple.monoid)
        assert verdict.kind == "yes"
        instances += 1
    assert instances >= 30
    _passed(5, "syntactic-minimality")


def test_criterion_06_cut_reconstruction(two_sink_automaton):
    from latlang.errors import SizeCapExceeded

    rng = random.Random(606)
    done = 0
    while done < 30:
        lattice = random_lattice(rng, 4)
        machine = random_automaton(rng, lattice, 3)
        try:
            triple, equal = reconstruct_from_cuts(machine)
        except SizeCapExceeded:
            continue
        assert equal, f"instance {done}"
        done += 1
    triple, equal = reconstruct_from_cuts(two_sink_automaton)
    assert equal
    _passed(6, "cut-reconstruction")


def test_criterion_07_ideal_language_construction(two_sink_automaton):
    rng = random.Random(707)
    for i in range(20):
        lattice = random_lattice(rng, 4)
        machine = random_automaton(rng, lattice, 3)
        s = syntactic(machine)
        for m in range(s.monoid.size):
            _, equal = ideal_language_construction(machine, m, synt=s)
            assert equal, f"instance {i}, element {m}"
    s = syntactic(two_sink_automaton)
    for m in range(s.monoid.size):
        _, equal = ideal_language_construction(two_sink_automaton, m, synt=s)
        assert equal
    _passed(7, "ideal-language-construction")


def test_criterion_08_shuffle_consistency(
    contains_a, empty_word_only, two_sink_automaton
):
    rng = random.Random(808)
    instances = [contains_a, empty_word_only, two_sink_automaton]
    for _ in range(10):
        lattice = random_lattice(rng, 4)
        instances.append(random_automaton(rng, lattice, 3))
    for machine in instances:
        verdict = is_shuffle_ideal(machine)
        witness = shuffle_ideal_falsify(machine, 8)
        if verdict:
            assert witness is None
        if witness is not None:
            assert not verdict
    assert is_shuffle_ideal(contains_a)
    assert shuffle_ideal_falsify(empty_word_only, 8) == ((), ("a",))
    _passed(8, "shuffle-consistency")


def test_criterion_09_worked_markov_example(
    two_sink_chain, two_sink_decomposition, two_sink_automaton
):
    chain = two_sink_chain
    structure_classes = [
        tuple(chain.states[s] for s in members)
        for members in ergodic_structure(chain).classes
    ]
    assert ("s11", "s12") in structure_classes
    assert ("s21", "s22") in structure_classes

    a = two_sink_automaton
    assert a.lattice.elements[evaluate(a, "ab")] == "{1}"
    assert a.lattice.elements[evaluate(a, "bbc")] == "{1,2}"

    table = absorption_probabilities(chain)
    assert table[0]["t1"] == Fraction(1, 3)
    assert table[1]["t1"] == Fraction(2, 3)

    validate_decomposition(chain, two_sink_decomposition)
    greedy = decompose(chain)
    validate_decomposition(chain, greedy)

    s = syntactic(a)
    assert is_aperiodic(s.monoid)

    witness = shuffle_ideal_falsify(a, 6)
    assert witness == (("a",), ("b", "a"))
    assert not identity_is_greatest(s.monoid)  # checker consistency with the witness
    _passed(9, "worked-markov-example")


def test_criterion_10_enumeration_counts():
    assert len(enumerate_ordered_monoids(1)) == 1 == oracle_count(1)
    assert len(enumerate_ordered_monoids(2)) == 4 == oracle_count(2)
    assert len(enumerate_ordered_monoids(3)) == oracle_count(3)
    _passed(10, "enumeration-counts")


def test_criterion_11_word_measure_convergence(
    two_sink_chain, two_sink_decomposition, two_sink_automaton
):
    masses = word_measure(two_sink_automaton, two_sink_decomposition, 64)
    target = two_sink_automaton.lattice.index("{1}")
    assert abs(masses[target] - Fraction(1, 3)) < Fraction(1, 2**30)
    assert sum(masses.values()) == 1
    _passed(11, "word-measure-convergence")


def test_criterion_12_determinism():
    automaton = str(DATA / "two_sink_automaton.json")
    chain = str(DATA / "two_sink_chain.json")
    decomposition = str(DATA / "two_sink_decomposition.json")
    commands = [
        ["lattice", "check", str(DATA / "two_sink_lattice.json")],
        ["lang", "eval", automaton, "--word", "ab"],
        ["lang", "syntactic", automaton],
        ["lang", "minimize", automaton],
        ["lang", "reconstruct", automaton],
        ["lang", "shuffle-check", automaton, "--max-len", "4"],
        ["markov", "analyze", chain, "--decomposition", decomposition],
        ["markov", "decompose", chain],
        ["markov", "absorb", chain],
        ["variety", "enumerate", "--n", "3"],
        ["variety", "suite", "--seed", "0"],
        ["variety", "suite", "--seed", "7"],
    ]
    for argv in commands:
        assert run(argv) == run(argv), argv
    _passed(12, "determinism")
