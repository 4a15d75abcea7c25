from latlang import (
    RecognitionTriple,
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
    make_op_coloring,
    make_recognition_triple,
    product_combine,
    recognizes,
    reconstruct_from_cuts,
    shuffle_ideal_falsify,
    standard_lattice,
    syntactic,
    transition_monoid,
    triple_to_automaton,
)
from latlang.monoid import product_index
from latlang.variety import random_automaton, random_lattice

from conftest import all_words, u1


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
    assert s.monoid.leq[z][one] and not s.monoid.leq[one][z]
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
                if monoid.leq[c1][c2]:
                    for u in all_words(a.alphabet, 2):
                        for v in all_words(a.alphabet, 2):
                            assert lattice.leq[evaluate(a, u + w1 + v)][
                                evaluate(a, u + w2 + v)
                            ]
                else:
                    assert any(
                        not lattice.leq[evaluate(a, u + w1 + v)][
                            evaluate(a, u + w2 + v)
                        ]
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
    from latlang import trim

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
                lattice.leq[out[act[v][act[m1][act[u][q0]]]]][
                    out[act[v][act[m2][act[u][q0]]]]
                ]
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
        image = [s.triple.image_of(w) for w in words]
        for index, c in enumerate(classes):
            assert {image[m] for m in c} == {index}
        for m1 in range(k):
            for m2 in range(k):
                assert s.monoid.leq[image[m1]][image[m2]] == below[m1][m2]
                concatenation = s.triple.image_of(words[m1] + words[m2])
                assert s.monoid.mul[image[m1]][image[m2]] == concatenation
        checked += 1


def test_recognizes_syntactic_triple(two_sink_automaton):
    s = syntactic(two_sink_automaton)
    assert recognizes(s.triple, two_sink_automaton)


def test_recognizes_rejects_constant(two_sink_automaton):
    s = syntactic(two_sink_automaton)
    constant = RecognitionTriple(
        s.alphabet,
        s.generator_images,
        s.monoid,
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
            s1.alphabet, images, product,
            product_coloring("pjoin", [s1.coloring, s2.coloring]),
        )
        assert recognizes(triple, product_combine("join", a1, a2))


def test_triple_to_automaton_shapes(boolean, contains_a):
    trivial = syntactic(constant_automaton(boolean, ("a", "b"), 0))
    assert len(triple_to_automaton(trivial.triple).states) == 1

    s = syntactic(contains_a)
    rebuilt = triple_to_automaton(s.triple)
    assert equivalent(rebuilt, contains_a)

    m, _ = direct_product([u1(), u1()])
    triple = make_recognition_triple(
        ("a", "b"), ["(z,1)", "(1,z)"], m, cons_coloring(m, boolean, 0)
    )
    assert len(triple_to_automaton(triple).states) == 4


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


def test_shuffle_ideal_verdicts(contains_a, empty_word_only, boolean):
    assert is_shuffle_ideal(contains_a)
    assert is_shuffle_ideal(constant_automaton(boolean, ("a", "b"), 0))
    assert not is_shuffle_ideal(empty_word_only)


def test_shuffle_falsify(contains_a, empty_word_only, two_sink_automaton):
    assert shuffle_ideal_falsify(contains_a, 6) is None
    assert shuffle_ideal_falsify(empty_word_only, 4) == ((), ("a",))
    assert shuffle_ideal_falsify(two_sink_automaton, 2) == (("a",), ("b", "a"))


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
            s.alphabet, s.generator_images, s.monoid,
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
        triple = RecognitionTriple(("a", "b"), images, sub, coloring)
        machine = triple_to_automaton(triple)
        lifted_colors = [
            lattice.join_all(
                coloring.colors[x]
                for x in range(sub.size)
                if ambient.leq[embedding.mapping[x]][m]
            )
            for m in range(ambient.size)
        ]
        lifted = RecognitionTriple(
            ("a", "b"),
            tuple(embedding.mapping[g] for g in images),
            ambient,
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
        triple = RecognitionTriple(("a", "b"), images, quotient_monoid, coloring)
        machine = triple_to_automaton(triple)
        lifted = RecognitionTriple(
            ("a", "b"),
            tuple(section[g] for g in images),
            sub,
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
                if monoid.leq[i][j]
            ],
        )
        assert rebuilt.leq == monoid.leq
