import random

import pytest
from hypothesis import given, strategies as st

from latlang import (
    bound,
    build_lattice,
    build_ordered_monoid,
    cons,
    constant_automaton,
    dual,
    generated_submonoid,
    identity_morphism,
    make_automaton,
    make_lattice_morphism,
    make_monoid_morphism,
    make_op_coloring,
    make_recognition_triple,
    standard_lattice,
    trivial_monoid,
)
from latlang.errors import (
    LatlangError,
    MalformedDocument,
    NotALattice,
    NotAntisymmetric,
    NotOrderPreserving,
    SizeCapExceeded,
    SizeOutOfRange,
    TrivialLattice,
    UnknownElement,
)
from latlang.lattice import (
    closure_bits,
    converse,
    firsts,
    monotone_violation,
    mutual_pair,
    number,
    orbit,
    orbit_words,
    order_from_pairs,
    resolve,
)
from latlang.markov import make_chain
from latlang.variety import random_automaton, random_lattice

from conftest import (
    all_words,
    matrix_of,
    reference_build_lattice,
    reference_closure,
    reference_monotone_violation,
    reference_mutual_pair,
    reference_order_from_pairs,
    reference_standard_lattice,
    rows_of,
)

POOL = [random_lattice(random.Random(seed), 8) for seed in range(12)]
POOL += [standard_lattice("powerset", 2), standard_lattice("powerset", 3), standard_lattice("chain", 5)]


def test_powerset_from_covers():
    lat = build_lattice(
        ["{}", "{1}", "{2}", "{1,2}"],
        [("{}", "{1}"), ("{}", "{2}"), ("{1}", "{1,2}"), ("{2}", "{1,2}")],
    )
    assert lat.elements[lat.top] == "{1,2}"
    assert lat.elements[lat.bottom] == "{}"
    assert lat.join("{1}", "{2}") == lat.index("{1,2}")
    assert lat.meet("{1}", "{2}") == lat.index("{}")


def test_three_chain_from_covers():
    lat = build_lattice(["0", "1/2", "1"], [("0", "1/2"), ("1/2", "1")])
    assert lat.le("0", "1") and not lat.le("1", "1/2")
    assert lat.elements[lat.top] == "1"


def test_two_minimal_upper_bounds_rejected():
    with pytest.raises(NotALattice) as err:
        build_lattice(
            ["a", "b", "c", "d"],
            [("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")],
        )
    assert err.value.witness["pair"]


def test_cycle_rejected():
    with pytest.raises(NotAntisymmetric):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_trivial_rejected():
    with pytest.raises(TrivialLattice):
        build_lattice(["a"], [])


def test_full_relation_input():
    lat = build_lattice(["lo", "hi"], [("lo", "lo"), ("lo", "hi"), ("hi", "hi")])
    assert lat.le("lo", "hi")


def test_standard_powerset():
    lat = standard_lattice("powerset", 2)
    assert lat.elements == ("{}", "{1}", "{2}", "{1,2}")
    assert not lat.le("{1}", "{2}") and not lat.le("{2}", "{1}")
    assert lat.elements[lat.top] == "{1,2}"


def test_standard_chain_and_boolean():
    b = standard_lattice("boolean")
    c2 = standard_lattice("chain", 2)
    assert b.elements == c2.elements == ("0", "1")
    with pytest.raises(SizeOutOfRange):
        standard_lattice("chain", 1)
    with pytest.raises(SizeOutOfRange):
        standard_lattice("powerset", 0)


def test_standard_lattices_match_build_lattice_reference():
    """Powersets of 1-6 and chains of 2-64, built from their definition,
    equal field for field the lattices ``build_lattice`` validates from
    every inclusion pair and from the covers; the sizes past either end
    keep their errors."""
    cases = [("powerset", k) for k in range(1, 7)] + [("chain", n) for n in range(2, 65)]
    for kind, n in cases:
        built, expected = standard_lattice(kind, n), reference_standard_lattice(kind, n)
        for field in ("elements", "leq", "join_table", "meet_table", "top", "bottom"):
            assert getattr(built, field) == getattr(expected, field), (kind, n, field)
    errors = {
        ("powerset", 0): "powerset lattice needs n >= 1, got 0",
        ("powerset", 11): "powerset of 11 exceeds the size cap 1024",
        ("chain", 1): "chain lattice needs n >= 2, got 1",
        ("chain", 1025): "chain of 1025 exceeds the size cap 1024",
    }
    for (kind, n), message in errors.items():
        with pytest.raises(SizeOutOfRange) as caught:
            standard_lattice(kind, n)
        assert str(caught.value) == message


def test_bound():
    lat = standard_lattice("powerset", 2)
    assert bound(lat, "join", ["{1}", "{2}"]) == lat.index("{1,2}")
    assert bound(lat, "meet", list(lat.elements)) == lat.bottom
    assert bound(lat, "join", []) == lat.bottom
    assert bound(lat, "meet", []) == lat.top
    with pytest.raises(UnknownElement):
        bound(lat, "join", ["nope"])


def test_join_all_and_meet_all_fold_like_bound():
    lat = standard_lattice("powerset", 2)
    for subset in ([], ["{1}"], ["{1}", "{2}"], [0, "{1,2}", 2]):
        assert lat.join_all(subset) == bound(lat, "join", subset)
        assert lat.meet_all(subset) == bound(lat, "meet", subset)
    with pytest.raises(MalformedDocument) as err:
        bound(lat, "sup", ["{1}"])
    assert str(err.value) == "unknown combination kind 'sup'"


def test_morphisms():
    lat = standard_lattice("powerset", 2)
    ident = make_lattice_morphism(lat, list(range(lat.size)))
    assert ident.mapping == identity_morphism(lat).mapping
    constant = cons(lat, "{1}")
    assert all(v == lat.index("{1}") for v in constant.mapping)
    chain3 = standard_lattice("chain", 3)
    with pytest.raises(NotOrderPreserving) as err:
        make_lattice_morphism(chain3, ["1", "0", "2"])
    assert err.value.witness["pair"] == ["0", "1"]


def test_orbit_order_table_and_cap():
    def successors(x):
        return [(x + 1) % 6, 2 * x % 6]

    order, table = orbit(0, successors)
    assert order == [0, 1, 2, 3, 4, 5]
    assert table == [[1, 0], [2, 2], [3, 4], [4, 0], [5, 2], [0, 4]]
    for row, x in zip(table, order):
        assert [order[j] for j in row] == successors(x)
    assert orbit(0, successors, 6, "ring") == (order, table)
    with pytest.raises(SizeCapExceeded, match="^ring exceeds cap 5$"):
        orbit(0, successors, 5, "ring")


def test_orbit_words_are_the_least_words_on_seeded_orbits():
    """Each word ``orbit_words`` reads off an orbit is the length-lex-least
    word that reaches its element, found by running every word in
    length-lex order: on the reachable states of seeded machines, of
    products of two machines, and on the word maps of machines, with 1 to
    3 letters."""
    rng = random.Random(2020)
    depths = []
    for i in range(300):
        letters = ("a", "b", "c")[: 1 + i % 3]
        a, b = (random_automaton(rng, POOL[0], (8, 4, 3)[i % 3], letters) for _ in range(2))
        start, step = [
            (a.initial, lambda q, l: a.delta[q][l]),
            ((a.initial, b.initial), lambda s, l: (a.delta[s[0]][l], b.delta[s[1]][l])),
            (tuple(range(len(a.states))), lambda m, l: tuple(a.delta[q][l] for q in m)),
        ][i % 3]
        order, table = orbit(start, lambda x: [step(x, l) for l in range(len(letters))])
        words = orbit_words(table, letters)
        least = {}
        for word in all_words(range(len(letters)), max(map(len, words))):
            x = start
            for l in word:
                x = step(x, l)
            least.setdefault(x, tuple(letters[l] for l in word))
        assert words == [least[x] for x in order] and len(least) == len(order)
        depths.append(len(words[-1]))
    assert max(depths) >= 6


def test_dual_examples():
    chain3 = standard_lattice("chain", 3)
    d = dual(chain3)
    assert d.le("2", "0") and not d.le("0", "2")
    assert d.top == chain3.bottom and d.bottom == chain3.top
    p2 = standard_lattice("powerset", 2)
    dp = dual(p2)
    assert dp.join_table == p2.meet_table and dp.meet_table == p2.join_table


@given(st.sampled_from(POOL), st.data())
def test_lattice_laws(lat, data):
    n = lat.size
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    J, M = lat.join_table, lat.meet_table
    assert J[a][b] == J[b][a] and M[a][b] == M[b][a]
    assert J[a][J[b][c]] == J[J[a][b]][c]
    assert M[a][M[b][c]] == M[M[a][b]][c]
    assert J[a][a] == a and M[a][a] == a
    assert J[a][M[a][b]] == a and M[a][J[a][b]] == a
    assert lat.le(a, b) == (J[a][b] == b) == (M[a][b] == a)


@given(st.sampled_from(POOL))
def test_dual_involution(lat):
    assert dual(dual(lat)) == lat


@given(st.sampled_from(POOL), st.data())
def test_bound_splits_over_union(lat, data):
    subset = st.lists(st.integers(0, lat.size - 1), max_size=4)
    s = data.draw(subset)
    t = data.draw(subset)
    joined = bound(lat, "join", s + t)
    assert joined == lat.join_table[bound(lat, "join", s)][bound(lat, "join", t)]


@given(st.sampled_from(POOL), st.data())
def test_morphism_composition_closed(lat, data):
    elements = st.integers(0, lat.size - 1)
    f = cons(lat, data.draw(elements))
    x = data.draw(elements)
    g = make_lattice_morphism(lat, [lat.join_table[v][x] for v in range(lat.size)])
    f.then(g)
    g.then(f)


CHAIN2 = standard_lattice("chain", 2)
RESOLVER_ENTRY_POINTS = {
    "Lattice.index": ("lattice element", lambda e: CHAIN2.index(e)),
    "build_lattice": ("lattice element", lambda e: build_lattice(["0", "1"], [("0", e)])),
    "OrderedMonoid.index": ("monoid element", lambda e: trivial_monoid().index(e)),
    "build_ordered_monoid": ("monoid element", lambda e: build_ordered_monoid(["1"], e, [["1"]])),
    "LatticeAutomaton.state": ("state", lambda e: constant_automaton(CHAIN2, ("a",), 0).state(e)),
    "make_automaton": ("state", lambda e: make_automaton(CHAIN2, ["a"], ["q0"], e, [[0]], [0])),
    "MarkovChain.state": ("state", lambda e: make_chain(["s"], {"s": {"s": 1}}).state(e)),
    "monoid table row": ("monoid element", lambda e: build_ordered_monoid(["1"], "1", [[e]])),
    "order pair": (
        "monoid element", lambda e: build_ordered_monoid(["1"], "1", [["1"]], [[e, "1"]])
    ),
    "make_automaton delta list": (
        "state", lambda e: make_automaton(CHAIN2, ["a"], ["q0"], "q0", [[e]], [0])
    ),
    "make_automaton output list": (
        "lattice element", lambda e: make_automaton(CHAIN2, ["a"], ["q0"], "q0", [[0]], [e])
    ),
    "make_automaton output object": (
        "lattice element",
        lambda e: make_automaton(CHAIN2, ["a"], ["q0"], "q0", [[0]], {"q0": e}),
    ),
    "make_recognition_triple": (
        "monoid element",
        lambda e: make_recognition_triple(
            ["a"], [e], make_op_coloring(trivial_monoid(), CHAIN2, [0])
        ),
    ),
    "generated_submonoid": ("monoid element", lambda e: generated_submonoid(trivial_monoid(), [e])),
    "join_all": ("lattice element", lambda e: CHAIN2.join_all([e])),
}


@pytest.mark.parametrize("entry", sorted(RESOLVER_ENTRY_POINTS))
def test_resolver_errors_through_every_entry_point(entry):
    what, call = RESOLVER_ENTRY_POINTS[entry]
    for element, message in (
        (7, f"{what} index 7 out of range"),
        ("nope", f"unknown {what} 'nope'"),
        (["x"], f"unknown {what} ['x']"),
        (True, f"unknown {what} True"),
    ):
        with pytest.raises(UnknownElement) as err:
            call(element)
        assert err.value.to_doc() == {
            "kind": "UnknownElement", "message": message, "witness": None,
        }


def test_positions_resolve_up_to_the_size_when_names_clash():
    """A position is checked against the number of elements or states, not
    against the name index, which is short when derived names clash: the
    witness words "ε" of the identity and of the letter "ε", and the state
    names of the pairs ("p", "p,p") and ("p,p", "p")."""
    from latlang.automaton import product_combine
    from latlang.syntactic import syntactic

    boolean = standard_lattice("chain", 2)
    eps = make_automaton(boolean, ["ε"], ["q0", "q1"], "q0", [[1], [1]], [0, 1])
    monoid = syntactic(eps).monoid
    assert monoid.elements == ("ε", "ε")
    assert (monoid.le(1, 0), monoid.le(0, 1), monoid.op(1, 0)) == (False, True, 1)
    x = make_automaton(boolean, ["x"], ["p", "p,p"], "p", [[1], [0]], [0, 1])
    joined = product_combine("join", x, x)
    assert len(set(joined.states)) == 3
    assert [joined.state(q) for q in range(4)] == [0, 1, 2, 3]
    with pytest.raises(UnknownElement):
        joined.state(4)


def _first_error(index, entries, what, size=None):
    """The error that resolving ``entries`` one at a time raises, or None."""
    try:
        for e in entries:
            resolve(index, e, what, size)
    except UnknownElement as exc:
        return exc.to_doc()
    return None


def _mapping_entry_points():
    """(name, target labels, element kind, valid positions, source names or
    None, call) per batch of references resolved into a target: the call
    returns the positions it resolved, and the source names key the batch
    as an object where the entry point takes one."""
    from latlang.syntactic import syntactic

    lattice = standard_lattice("chain", 3)
    monoid = build_ordered_monoid(["1", "z"], "1", [["1", "z"], ["z", "z"]])
    source = build_ordered_monoid(
        ["1", "a", "b"], "1", [["1", "a", "b"], ["a", "a", "b"], ["b", "b", "b"]]
    )
    states = ["p", "q", "r"]
    coloring = make_op_coloring(monoid, lattice, [0, 0])
    # the identity and the letter "ε" share the label "ε": positions resolve up to the size
    eps = syntactic(make_automaton(CHAIN2, ["ε"], ["q0", "q1"], "q0", [[1], [1]], [0, 1]))
    return [
        ("make_op_coloring", lattice.elements, "lattice element", (0, 0), monoid.elements,
         lambda colors: make_op_coloring(monoid, lattice, colors).colors),
        ("make_lattice_morphism", lattice.elements, "lattice element", (0, 0, 0),
         lattice.elements, lambda images: make_lattice_morphism(lattice, images).mapping),
        ("make_monoid_morphism", monoid.elements, "monoid element", (0, 0, 0), source.elements,
         lambda images: make_monoid_morphism(source, monoid, images).mapping),
        ("monoid table row", monoid.elements, "monoid element", (1, 1), None,
         lambda row: build_ordered_monoid(["1", "z"], "1", [["1", "z"], row]).mul[1]),
        ("make_automaton delta list", states, "state", (2, 0, 1), None,
         lambda row: make_automaton(
             lattice, ["a", "b", "c"], states, "p", [row, [0] * 3, [0] * 3], [0] * 3
         ).delta[0]),
        ("make_automaton output", lattice.elements, "lattice element", (2, 0, 1), states,
         lambda output: make_automaton(
             lattice, ["a"], states, "p", [[0], [0], [0]], output
         ).output),
        ("make_recognition_triple", monoid.elements, "monoid element", (1, 0, 1), None,
         lambda images: make_recognition_triple(["a", "b", "c"], images, coloring)
         .generator_images),
        ("make_recognition_triple, clashing labels", eps.monoid.elements, "monoid element",
         (1, 0), None,
         lambda images: make_recognition_triple(["a", "b"], images, eps.coloring)
         .generator_images),
    ]


def test_mapping_range_check_keeps_per_entry_errors():
    """Batches of positions, names and bad entries, as lists and as objects
    keyed by name where an entry point takes them, give the positions or
    the first error that resolving each entry in turn gives; a batch of
    positions builds no name index."""
    rng = random.Random(116)
    for name, labels, what, base, keys, call in _mapping_entry_points():
        n, size = len(base), len(labels)
        index = {label: i for i, label in enumerate(labels)}
        failed = 0
        for _ in range(200):
            images = list(base)
            for k in rng.sample(range(n), rng.randint(1, n)):
                images[k] = rng.choice(
                    [base[k], labels[base[k]], size, size + 5, -1, True, False, 0.0, "nope",
                     ["x"], None]
                )
            expected = _first_error(index, images, what, size)
            forms = [images] if keys is None else [images, dict(zip(keys, images))]
            for form in forms:
                if expected is None:
                    assert call(form) == tuple(resolve(index, e, what, size) for e in images)
                else:
                    with pytest.raises(UnknownElement) as err:
                        call(form)
                    assert err.value.to_doc() == expected, (name, images)
            failed += expected is not None
        assert 100 <= failed < 200, name
    fresh = standard_lattice("chain", 3)
    make_op_coloring(trivial_monoid(), fresh, [2])
    assert "_name_index" not in vars(fresh)


def test_build_lattice_matches_frozenset_reference_on_seeded_covers():
    """Joins and meets read off the up-set and down-set rows give the
    reference's lattice (tables, order, top and bottom), or its error
    document, on random covers and relations over 1 to 9 elements, by
    position or by name: lattices, and relations that fail each check in
    turn."""
    rng = random.Random(259)
    kinds = {}
    for _ in range(3000):
        n = rng.randint(1, 9)
        names = [f"v{i}" for i in range(n)]
        density = rng.choice((0.1, 0.25, 0.5))
        upward = rng.random() < 0.7  # only a < b: never a cycle
        pairs = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and (a < b or not upward) and rng.random() < density
        ]
        if rng.random() < 0.5:  # a bottom and a top: more of them are lattices
            pairs += [(0, b) for b in range(1, n)] + [(a, n - 1) for a in range(n - 1)]
        if rng.random() < 0.5:  # by name, as documents give them
            pairs = [[names[a], names[b]] for a, b in pairs]
        rng.shuffle(pairs)
        try:
            expected = reference_build_lattice(names, pairs)
        except LatlangError as exc:
            with pytest.raises(LatlangError) as caught:
                build_lattice(names, pairs)
            assert caught.value.to_doc() == exc.to_doc()
            kind = exc.kind
            if kind == "NotALattice":
                kind += ":" + exc.witness["bound"]
        else:
            assert build_lattice(names, pairs) == expected
            kind = "lattice"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.keys() == {"lattice", "NotALattice:join", "NotALattice:meet",
                            "NotAntisymmetric", "TrivialLattice"}, kinds
    assert min(kinds.values()) >= 100, kinds


def test_closure_bits_matches_triple_loop_on_seeded_relations():
    """``closure_bits`` gives the boolean triple loop's closure, as rows, on
    seeded relations over 1 to 70 points (across the 64-bit boundary), from
    empty to dense; a closed relation is its own closure, and ``converse``
    gives the rows of the transposed matrix."""
    rng = random.Random(1818)
    sizes = set()
    for _ in range(300):
        n = rng.randint(1, 70)
        sizes.add(n)
        density = rng.choice((0.0, 0.01, 0.03, 0.1, 0.4))
        matrix = [[rng.random() < density for _ in range(n)] for _ in range(n)]
        expected = rows_of(reference_closure(matrix))
        assert closure_bits(rows_of(matrix)) == expected
        assert closure_bits(expected) == expected
        assert converse(expected) == rows_of(zip(*matrix_of(expected)))
    assert max(sizes) > 64 and min(sizes) == 1


def test_order_scans_match_bool_references_on_seeded_lattices():
    """On random lattices and the closures of seeded relations (preorders,
    many with cycles), ``mutual_pair`` names the bool scan's first pair or
    neither finds one; on seeded maps between random lattices,
    ``monotone_violation`` names the bool scan's first (a, b), or neither
    finds one, as for the indicator of an up-set."""
    rng = random.Random(1919)
    lattices = [random_lattice(rng, rng.randint(2, 10)) for _ in range(120)]
    mutual = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 24)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        rows = closure_bits(sum(1 << b for a2, b in pairs if a2 == a) for a in range(n))
        expected = reference_mutual_pair(matrix_of(rows))
        assert mutual_pair(rows) == expected
        mutual[expected is None] += 1
    for lat in lattices:
        assert mutual_pair(lat.leq) is reference_mutual_pair(matrix_of(lat.leq)) is None
    assert min(mutual.values()) > 50, mutual
    monotone = {True: 0, False: 0}
    for src in lattices:
        dst = lattices[rng.randrange(len(lattices))]
        pivot = rng.randrange(src.size)
        for images in (
            [rng.randrange(dst.size) for _ in range(src.size)],
            [rng.choice((dst.bottom, dst.top)) for _ in range(src.size)],
            [dst.top if src.le(pivot, x) else dst.bottom for x in range(src.size)],
        ):
            expected = reference_monotone_violation(
                matrix_of(src.leq), matrix_of(dst.leq), images
            )
            assert monotone_violation(src.leq, dst.leq, images) == expected
            monotone[expected is None] += 1
    assert min(monotone.values()) > 30, monotone


def test_order_from_pairs_matches_reference_on_mixed_pair_lists():
    """Seeded pair lists of names, with at most one pair spoiled at a random
    place (positions, an unknown, unhashable or boolean name, one or three
    entries, a string or a dict of names for a pair), as lists, tuples and
    generators: the rows of the reference's closure, or its error
    document."""
    rng = random.Random(2323)
    spoilers = [
        lambda n: [0, n - 1], lambda n: ("v0", 1), lambda n: ["v0", "zz"],
        lambda n: [["v0"], "v1"], lambda n: ["v1", True], lambda n: ["v0"],
        lambda n: ["v0", "v1", "v1"], lambda n: "v0", lambda n: {"v0": "v1"},
        lambda n: {f"v{n - 1}": 0, "v0": 1}, lambda n: [n, "v0"],
    ]
    outcomes = {}
    for _ in range(400):
        n = rng.randint(1, 9)
        index = {f"v{i}": i for i in range(n)}
        pairs = [
            [f"v{rng.randrange(n)}", f"v{rng.randrange(n)}"]
            for _ in range(rng.randint(0, 12))
        ]
        if rng.random() < 0.6:
            pairs.insert(rng.randint(0, len(pairs)), rng.choice(spoilers)(n))
        shape = rng.choice([list, tuple, iter])
        try:
            expected = rows_of(reference_order_from_pairs(index, shape(pairs), "point"))
        except LatlangError as exc:
            with pytest.raises(LatlangError) as caught:
                order_from_pairs(index, shape(pairs), "point")
            assert caught.value.to_doc() == exc.to_doc()
            outcomes[exc.kind] = outcomes.get(exc.kind, 0) + 1
            continue
        assert order_from_pairs(index, shape(pairs), "point") == expected
        outcomes["ok"] = outcomes.get("ok", 0) + 1
    assert min(outcomes.get(k, 0) for k in ("ok", "MalformedDocument", "UnknownElement")) >= 40


def test_number_and_firsts():
    assert number([]) == [] and firsts([]) == []
    assert number("abacb") == [0, 1, 0, 2, 1]
    assert firsts([0, 1, 0, 2, 1]) == [0, 1, 3]
    assert number([(1, 2), (2, 1), (1, 2)]) == [0, 1, 0]
    assert number(iter([5, 5, 5])) == [0, 0, 0]


@given(st.lists(st.integers(-3, 3), max_size=30))
def test_number_is_first_appearance_order(keys):
    """Equal keys get equal numbers, numbered 0, 1, ... by first appearance,
    and each number's first position is its key's first position."""
    labels = number(keys)
    distinct = list(dict.fromkeys(keys))
    assert labels == [distinct.index(key) for key in keys]
    assert firsts(labels) == [keys.index(key) for key in distinct]
