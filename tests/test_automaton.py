import random

import pytest

from latlang import (
    combine_many,
    cons,
    constant_automaton,
    equivalent,
    evaluate,
    find_difference,
    inverse_hom,
    make_automaton,
    make_free_morphism,
    minimize,
    parse_word,
    product_combine,
    quotient,
    recolor,
    standard_lattice,
    threshold,
    trim,
)
from latlang.errors import (
    MalformedDocument,
    MismatchedAlphabet,
    MismatchedLattice,
    UnknownLetter,
)
from latlang.variety import random_automaton, random_lattice

from conftest import (
    all_words,
    reference_combine_many,
    reference_minimize,
    reference_product_combine,
    reference_trim,
)


def value(a, word):
    return a.lattice.elements[evaluate(a, word)]


def test_worked_example_values(two_sink_automaton):
    a = two_sink_automaton
    assert value(a, "ab") == "{1}"
    assert value(a, "bbc") == "{1,2}"
    assert value(a, "") == "{1,2}"
    with pytest.raises(UnknownLetter):
        evaluate(a, "ax")


def test_parse_word_forms(two_sink_automaton):
    assert parse_word("abc", two_sink_automaton.alphabet) == ("a", "b", "c")
    assert parse_word(["a", "b"], two_sink_automaton.alphabet) == ("a", "b")
    assert parse_word("", two_sink_automaton.alphabet) == ()


def test_string_alphabet_is_refused_not_split(boolean):
    """A string is not a list of letters: every builder refuses "ab" as
    ``make_automaton`` does, rather than reading it as ("a", "b")."""
    builders = {
        "make_automaton": lambda: make_automaton(boolean, "ab", ["q0"], 0, [[0, 0]], [0]),
        "constant_automaton": lambda: constant_automaton(boolean, "ab", 0),
        "random_automaton": lambda: random_automaton(random.Random(1), boolean, 2, "ab"),
    }
    for name, build in builders.items():
        with pytest.raises(MalformedDocument) as excinfo:
            build()
        assert str(excinfo.value) == "alphabet letters must be a list, not a string", name


def test_partial_automaton_rejected(boolean):
    with pytest.raises(MalformedDocument):
        make_automaton(
            boolean, ("a", "b"), ("q0",), "q0", {"q0": {"a": "q0"}}, {"q0": "0"}
        )


def test_product_combine_units(contains_a, boolean):
    top = constant_automaton(boolean, contains_a.alphabet, boolean.top)
    assert equivalent(product_combine("join", contains_a, contains_a), contains_a)
    assert equivalent(product_combine("meet", contains_a, top), contains_a)
    assert equivalent(product_combine("join", contains_a, top), top)


def test_product_combine_mismatches(contains_a, boolean):
    other = constant_automaton(boolean, ("x",), boolean.top)
    with pytest.raises(MismatchedAlphabet):
        product_combine("join", contains_a, other)
    chain3 = standard_lattice("chain", 3)
    with pytest.raises(MismatchedLattice):
        product_combine(
            "join", contains_a, constant_automaton(chain3, contains_a.alphabet, 0)
        )


def test_quotients(two_sink_automaton):
    a = two_sink_automaton
    left = quotient("left", a, "a")
    assert value(left, "b") == value(a, "ab") == "{1}"
    right = quotient("right", a, "c")
    assert value(right, "bb") == value(a, "bbc") == "{1,2}"
    assert equivalent(quotient("left", a, ""), a)
    assert equivalent(quotient("right", a, ""), a)


def test_inverse_hom(two_sink_automaton):
    a = two_sink_automaton
    ident = make_free_morphism(a.alphabet, a.alphabet, {x: x for x in a.alphabet})
    assert equivalent(inverse_hom(a, ident), a)

    h = make_free_morphism(("x",), a.alphabet, {"x": "ab"})
    composed = inverse_hom(a, h)
    assert value(composed, "x") == "{1}"

    collapse = make_free_morphism(("x",), a.alphabet, {"x": ""})
    collapsed = inverse_hom(a, collapse)
    for w in all_words(("x",), 3):
        assert evaluate(collapsed, w) == evaluate(a, "")


def test_recolor(two_sink_automaton):
    from latlang import identity_morphism

    a = two_sink_automaton
    lat = a.lattice
    assert recolor(a, identity_morphism(lat)) == a
    assert equivalent(recolor(a, cons(lat, lat.bottom)),
                      constant_automaton(lat, a.alphabet, lat.bottom))
    # thresholding at {1} matches the cut language
    from latlang import cut

    assert equivalent(recolor(a, threshold(lat, "{1}")), cut(a, "{1}"))


def test_minimize_worked_example(two_sink_automaton):
    m = minimize(two_sink_automaton)
    assert len(m.states) == 4
    assert set(m.states) == {"t1", "t2", "s11", "s21"}
    assert equivalent(m, two_sink_automaton)
    assert equivalent(minimize(m), m)
    assert len(minimize(m).states) == len(m.states)


def test_free_morphism_needs_a_source_letter():
    """A morphism from the empty alphabet would give a machine over no
    letters, which ``make_automaton`` refuses; it is refused here first."""
    with pytest.raises(MalformedDocument, match="source alphabet must be nonempty"):
        make_free_morphism((), ("a",), {})


def test_minimize_constant(boolean):
    a = make_automaton(
        boolean, ("a",), ("p", "q"), "p",
        {"p": {"a": "q"}, "q": {"a": "p"}}, {"p": "0", "q": "0"},
    )
    assert len(minimize(a).states) == 1


def _reset_cycle(n, period):
    """A cycle of n states: ``a`` sends i to i + 1 mod n, ``b`` resets to
    state 0, and the states i with i % period == period - 1 are marked."""
    boolean = standard_lattice("boolean")
    return make_automaton(
        boolean, ("a", "b"), [f"q{q}" for q in range(n)], 0,
        [[(q + 1) % n, 0] for q in range(n)],
        [boolean.top if q % period == period - 1 else boolean.bottom for q in range(n)],
    )


def test_minimize_matches_moore_reference():
    """``minimize`` gives the Moore reference's machine, field for field, on
    3000 seeded machines of 1 to 12 states and 1 to 3 letters over random
    lattices, with random starts and outputs among at most three values,
    every other one minimal already (it then comes back unchanged), and on
    reset cycles of each size up to 40 and every 13th size up to 300,
    marked with several periods, which take up to n rounds."""
    rng = random.Random(2525)
    lattices = [random_lattice(rng, 6) for _ in range(40)]
    merged = 0
    for i in range(3000):
        lat = rng.choice(lattices)
        letters = ("a", "b", "c")[: rng.randint(1, 3)]
        n = rng.randint(1, 12)
        values = rng.sample(range(lat.size), rng.randint(1, min(3, lat.size)))
        a = make_automaton(
            lat, letters, [f"q{q}" for q in range(n)], rng.randrange(n),
            [[rng.randrange(n) for _ in letters] for _ in range(n)],
            [rng.choice(values) for _ in range(n)],
        )
        if i % 2:
            a = reference_minimize(a)
            assert minimize(a) == a, i
        expected = reference_minimize(a)
        assert minimize(a) == expected, i
        merged += len(expected.states) < len(trim(a).states)
    assert merged > 500
    for n in [*range(1, 41), *range(41, 300, 13), 300]:
        for period in sorted({1, 2, 3, n}):
            a = _reset_cycle(n, period)
            assert minimize(a) == reference_minimize(a), (n, period)
    assert len(minimize(_reset_cycle(300, 300)).states) == 300
    assert len(minimize(_reset_cycle(300, 3)).states) == 3


def test_trim_drops_unreachable(boolean):
    a = make_automaton(
        boolean, ("a",), ("p", "q", "island"), "p",
        {"p": {"a": "q"}, "q": {"a": "q"}, "island": {"a": "p"}},
        {"p": "0", "q": "1", "island": "1"},
    )
    assert trim(a).states == ("p", "q")


def test_equivalence_and_difference(contains_a, boolean):
    assert equivalent(contains_a, minimize(contains_a))
    different = recolor(contains_a, cons(boolean, boolean.bottom))
    assert not equivalent(contains_a, different)
    assert find_difference(contains_a, different) == ()


def test_join_commutes(rng):
    lat = random_lattice(rng, 5)
    a1 = random_automaton(rng, lat, 4)
    a2 = random_automaton(rng, lat, 4)
    assert equivalent(
        product_combine("join", a1, a2), product_combine("join", a2, a1)
    )


def test_product_combine_matches_reference_on_seeded_sweep():
    """Index arithmetic gives the reference's product machine, state for state."""
    rng = random.Random(808)
    for _ in range(200):
        lat = random_lattice(rng, 5)
        a1 = random_automaton(rng, lat, 5)
        a2 = random_automaton(rng, lat, 5)
        for kind in ("join", "meet"):
            assert product_combine(kind, a1, a2) == reference_product_combine(kind, a1, a2)


def test_combine_many_and_trim_match_reference_on_seeded_sweep():
    """The orbit gives the deque search's reachable product machine and
    trimmed machine, state for state, on lists of 1 to 4 machines."""
    rng = random.Random(909)
    for i in range(300):
        lat = random_lattice(rng, 4)
        letters = ("a", "b", "c")[: 1 + i % 3]
        automata = [
            random_automaton(rng, lat, 5, alphabet=letters) for _ in range(1 + i % 4)
        ]
        kind = ("join", "meet")[i // 4 % 2]
        assert combine_many(kind, automata) == reference_combine_many(kind, automata)
        for a in automata:
            assert trim(a) == reference_trim(a)


def test_closure_operations_agree_wordwise(rng):
    """Combined machines match the pointwise definition on all short words."""
    for _ in range(10):
        lat = random_lattice(rng, 6)
        a1 = random_automaton(rng, lat, 5)
        a2 = random_automaton(rng, lat, 5)
        joined = product_combine("join", a1, a2)
        met = product_combine("meet", a1, a2)
        u = tuple(
            a1.alphabet[rng.randrange(len(a1.alphabet))]
            for _ in range(rng.randint(0, 2))
        )
        left = quotient("left", a1, u)
        right = quotient("right", a1, u)
        h = make_free_morphism(
            ("x", "y"), a1.alphabet,
            {
                "x": tuple(a1.alphabet[rng.randrange(len(a1.alphabet))]
                           for _ in range(rng.randint(0, 2))),
                "y": tuple(a1.alphabet[rng.randrange(len(a1.alphabet))]
                           for _ in range(rng.randint(0, 2))),
            },
        )
        inv = inverse_hom(a1, h)
        alpha = threshold(lat, rng.randrange(lat.size))
        recolored = recolor(a1, alpha)
        for w in all_words(a1.alphabet, 5):
            v1, v2 = evaluate(a1, w), evaluate(a2, w)
            assert evaluate(joined, w) == lat.join_table[v1][v2]
            assert evaluate(met, w) == lat.meet_table[v1][v2]
            assert evaluate(left, w) == evaluate(a1, u + w)
            assert evaluate(right, w) == evaluate(a1, w + u)
            assert evaluate(recolored, w) == alpha.mapping[v1]
        for w in all_words(("x", "y"), 4):
            assert evaluate(inv, w) == evaluate(a1, h.apply(w))
