import importlib
import json
import random
from dataclasses import fields, replace
from fractions import Fraction
from math import lcm

import pytest

from latlang import (
    LatticeAutomaton,
    absorption_probabilities,
    analyze,
    decompose,
    equivalent,
    ergodic_structure,
    evaluate,
    load_chain,
    make_automaton,
    make_lattice_morphism,
    recolor,
    simulating_automaton,
    validate_decomposition,
    word_measure,
)
from latlang.errors import (
    BadFraction,
    LatlangError,
    MalformedDocument,
    NegativeEntry,
    NoInitial,
    RowSumNotOne,
    SingularSystem,
)
from latlang.lattice import subset_name
from latlang.markov import (
    Analysis,
    Decomposition,
    MarkovChain,
    _solve_exact,
    ergodic_lattice,
    make_chain,
    parse_fraction,
)
from latlang.monoid import OrderedMonoid
from latlang.serialize import Table, analysis_to_doc, chain_from_doc, chain_to_doc
from latlang.syntactic import SyntacticResult

from conftest import (
    reference_absorption_probabilities,
    reference_decompose,
    reference_ergodic_structure,
    reference_fraction_word_measure,
    reference_make_chain,
    reference_reach,
    reference_solve_exact,
    reference_simulating_automaton,
    reference_validate_decomposition,
    reference_word_measure,
)


def chain_of(states, rows):
    return load_chain(json.dumps({"states": states, "rows": rows}))


def test_load_worked_chain(two_sink_chain):
    assert two_sink_chain.states == ("t1", "t2", "s11", "s12", "s21", "s22")
    t1 = two_sink_chain.state("t1")
    s11 = two_sink_chain.state("s11")
    assert two_sink_chain.matrix[t1][s11] == Fraction(1, 3)


def test_row_sum_error():
    with pytest.raises(RowSumNotOne) as err:
        chain_of(["a", "b"], {"a": {"a": "1/2", "b": "1/3"}, "b": {"b": "1"}})
    assert err.value.witness == ["a", "5/6"]


def test_negative_entry():
    with pytest.raises(NegativeEntry):
        chain_of(["a", "b"], {"a": {"a": "-1/3", "b": "4/3"}, "b": {"b": "1"}})


def test_bad_fraction():
    with pytest.raises(BadFraction):
        chain_of(["a"], {"a": {"a": "one"}})
    with pytest.raises(BadFraction):
        parse_fraction("1/0")
    assert parse_fraction("1") == 1 and parse_fraction("2/4") == Fraction(1, 2)


def test_ergodic_structure_worked(two_sink_chain):
    st = ergodic_structure(two_sink_chain)
    named = [
        tuple(two_sink_chain.states[s] for s in members) for members in st.classes
    ]
    assert named == [("t1",), ("t2",), ("s11", "s12"), ("s21", "s22")]
    assert st.ergodic == (False, False, True, True)
    assert tuple(two_sink_chain.states[s] for s in st.transient_states) == ("t1", "t2")
    assert st.class_dag == ((0, 1), (0, 2), (1, 3))


def test_ergodic_identity_chain():
    chain = chain_of(["a", "b"], {"a": {"a": "1"}, "b": {"b": "1"}})
    st = ergodic_structure(chain)
    assert st.ergodic == (True, True) and st.transient_states == ()


def test_ergodic_irreducible():
    chain = chain_of(
        ["a", "b"], {"a": {"b": "1"}, "b": {"a": "1/2", "b": "1/2"}}
    )
    st = ergodic_structure(chain)
    assert len(st.classes) == 1 and st.ergodic == (True,)


def test_decompose_deterministic_chain():
    chain = chain_of(["a", "b"], {"a": {"b": "1"}, "b": {"a": "1"}})
    d = decompose(chain)
    assert len(d.letters) == 1 and d.weights == (Fraction(1),)


def test_decompose_worked_chain(two_sink_chain, two_sink_decomposition):
    greedy = decompose(two_sink_chain)
    assert sorted(greedy.weights) == [Fraction(1, 3), Fraction(2, 3)]
    validate_decomposition(two_sink_chain, greedy)
    validate_decomposition(two_sink_chain, two_sink_decomposition)


def test_decompose_half_half():
    chain = chain_of(
        ["a", "b"],
        {"a": {"a": "1/2", "b": "1/2"}, "b": {"a": "1/2", "b": "1/2"}},
    )
    d = decompose(chain)
    assert d.weights == (Fraction(1, 2), Fraction(1, 2))


def test_decomposition_reconstruction_invariant(two_sink_chain):
    d = decompose(two_sink_chain)
    n = two_sink_chain.size
    for s in range(n):
        for t in range(n):
            total = sum(
                (w for mapping, w in zip(d.maps, d.weights) if mapping[s] == t),
                Fraction(0),
            )
            assert total == two_sink_chain.matrix[s][t]


def test_bad_decomposition_rejected(two_sink_chain, two_sink_decomposition):
    wrong = Decomposition(
        letters=two_sink_decomposition.letters,
        maps=(two_sink_decomposition.maps[1],) + two_sink_decomposition.maps[1:],
        weights=two_sink_decomposition.weights,
    )
    with pytest.raises(MalformedDocument):
        validate_decomposition(two_sink_chain, wrong)


@pytest.mark.parametrize(
    "rows, maps, weights, witness",
    [
        # a letter moves mass to a state the row does not list: entry "0"
        (
            {"a": {"a": "1/2", "c": "1/2"}, "b": {"b": "1"}, "c": {"c": "1"}},
            ((0, 1, 2), (1, 1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
            ["a", "b", "0", "1/2"],
        ),
        # a row entry written "2/4" is named in lowest terms
        (
            {"a": {"a": "2/4", "b": "2/4"}, "b": {"b": "1"}, "c": {"c": "1"}},
            ((0, 1, 2), (1, 1, 2)),
            (Fraction(1, 4), Fraction(3, 4)),
            ["a", "a", "1/2", "1/4"],
        ),
    ],
    ids=["outside-the-row", "lowest-terms"],
)
def test_reconstruction_witness(rows, maps, weights, witness):
    """The witness of a failed reconstruction names the chain's entry and
    the letters' total at the first differing (s, t), as the dense
    reference does."""
    chain = chain_of(["a", "b", "c"], rows)
    wrong = Decomposition(letters=("x", "y"), maps=maps, weights=weights)
    for check in (validate_decomposition, reference_validate_decomposition):
        with pytest.raises(MalformedDocument) as err:
            check(chain, wrong)
        assert err.value.witness == witness


def test_decomposition_needs_one_map_and_weight_per_letter():
    """Letters, maps and weights of different counts are refused when the
    decomposition is built, not cut short by a ``zip`` later on."""
    with pytest.raises(MalformedDocument, match="one map and one weight per letter"):
        Decomposition(("a", "b"), ((1, 1), (0, 0)), (Fraction(1),))
    with pytest.raises(MalformedDocument, match="one map and one weight per letter"):
        Decomposition(("a",), ((1, 1), (0, 0)), (Fraction(1, 2), Fraction(1, 2)))


@pytest.mark.parametrize(
    "mapping",
    [(1,), (1, 1, 0), (1, 2), (1, -1), (1, True), (1, 1.0)],
    ids=["short", "long", "past-the-end", "negative", "bool", "float"],
)
def test_malformed_map_is_refused(mapping):
    """A map that does not give each state of the chain a state index in
    range is refused with ``MalformedDocument``, before any reconstruction
    check, by every caller that validates a decomposition."""
    chain = chain_of(["a", "b"], {"a": {"b": "1"}, "b": {"b": "1"}})
    d = Decomposition(("x",), (mapping,), (Fraction(1),))
    for check in (
        validate_decomposition,
        lambda c, d: simulating_automaton(c, "basic", d),
        lambda c, d: analyze(c, decomposition=d),
    ):
        with pytest.raises(MalformedDocument, match="map of letter 'x'") as err:
            check(chain, d)
        assert err.value.witness == "x"


def test_simulating_automaton_basic(two_sink_chain, two_sink_decomposition):
    a = simulating_automaton(two_sink_chain, "basic", two_sink_decomposition)
    lat = a.lattice
    assert a.alphabet == ("a", "b", "c")
    assert a.states[a.initial] == "t1"
    assert lat.elements[a.output[a.state("t1")]] == "{1,2}"
    assert lat.elements[a.output[a.state("s11")]] == "{1}"
    assert lat.elements[a.output[a.state("s22")]] == "{2}"
    assert lat.elements[evaluate(a, "ab")] == "{1}"


def test_simulating_automaton_reachable(two_sink_chain, two_sink_decomposition):
    a = simulating_automaton(two_sink_chain, "reachable", two_sink_decomposition)
    lat = a.lattice
    f_t1 = a.output[a.state("t1")]
    f_t2 = a.output[a.state("t2")]
    assert lat.elements[f_t2] == "{2}" and lat.elements[f_t1] == "{1,2}"
    assert lat.le(f_t2, f_t1) and f_t2 != f_t1


def test_simulating_automaton_generated_letters(two_sink_chain):
    a = simulating_automaton(two_sink_chain)
    assert a.alphabet == ("ℓ1", "ℓ2")


def test_simulating_initial_override(two_sink_chain, two_sink_decomposition):
    a = simulating_automaton(two_sink_chain, "basic", two_sink_decomposition, "t2")
    assert a.states[a.initial] == "t2"
    with pytest.raises(NoInitial):
        simulating_automaton(two_sink_chain, "basic", two_sink_decomposition, "zz")


def test_basic_is_recolor_of_reachable_when_monotone():
    """With one ergodic class, collapsing non-singletons to top is monotone
    and turns the reachable coloring into the basic one."""
    chain = chain_of(
        ["t", "s"], {"t": {"t": "1/2", "s": "1/2"}, "s": {"s": "1"}}
    )
    basic = simulating_automaton(chain, "basic")
    reachable = simulating_automaton(chain, "reachable")
    lat = basic.lattice
    collapse = make_lattice_morphism(
        lat,
        [
            e if e.count(",") == 0 and e != "{}" else lat.elements[lat.top]
            for e in lat.elements
        ],
    )
    assert equivalent(recolor(reachable, collapse), basic)


def test_absorption_worked(two_sink_chain):
    table = absorption_probabilities(two_sink_chain)
    assert table[0]["t1"] == Fraction(1, 3)
    assert table[1]["t1"] == Fraction(2, 3)
    assert table[0]["s11"] == 1 and table[0]["s21"] == 0
    assert table[1]["t2"] == 1  # t2 cannot reach the first class


def test_absorption_rows_sum_to_one(two_sink_chain):
    table = absorption_probabilities(two_sink_chain)
    for s in two_sink_chain.states:
        assert sum(table[c][s] for c in table) == 1


def test_absorption_single_class():
    chain = chain_of(
        ["a", "b"], {"a": {"b": "1"}, "b": {"a": "1/2", "b": "1/2"}}
    )
    table = absorption_probabilities(chain)
    assert all(v == 1 for v in table[0].values())


def _random_chain(rng, max_states=5):
    """Seeded random chain: small random weights, rows normalized exactly."""
    n = rng.randint(2, max_states)
    states = [f"p{i}" for i in range(n)]
    matrix = []
    for _ in range(n):
        weights = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = Fraction(1)
        total = sum(weights)
        matrix.append([w / total for w in weights])
    rows = {
        states[i]: {states[j]: str(matrix[i][j]) for j in range(n) if matrix[i][j]}
        for i in range(n)
    }
    return chain_of(states, rows)


def test_absorption_matches_propagation(rng):
    """Independent route: absorption is the limit of n-step class masses.

    Transient mass decays geometrically, so 256 exact steps pin the limit
    well below 2^-20 for these small chains.
    """
    from latlang import ergodic_structure

    for _ in range(8):
        chain = _random_chain(rng)
        table = absorption_probabilities(chain)
        structure = ergodic_structure(chain)
        ergodic = structure.ergodic_classes()
        n = chain.size
        for start in range(n):
            dist = [Fraction(0)] * n
            dist[start] = Fraction(1)
            for _ in range(256):
                nxt = [Fraction(0)] * n
                for s, mass in enumerate(dist):
                    if mass:
                        for t in range(n):
                            if chain.matrix[s][t]:
                                nxt[t] += mass * chain.matrix[s][t]
                dist = nxt
            for c, members in enumerate(ergodic):
                propagated = sum((dist[s] for s in members), Fraction(0))
                exact = table[c][chain.states[start]]
                assert abs(propagated - exact) < Fraction(1, 2**20)


def _sparse_chain(rng, n):
    """Seeded chain on n states with 1-3 successors each, so transient
    states, several closed classes and self-loops all occur."""
    states = [f"p{i}" for i in range(n)]
    rows = {}
    for s in states:
        targets = rng.sample(states, rng.randint(1, min(3, n)))
        weights = [rng.randint(1, 3) for _ in targets]
        rows[s] = {t: str(Fraction(w, sum(weights))) for t, w in zip(targets, weights)}
    return chain_of(states, rows)


def test_structure_and_machines_match_tarjan_reference():
    """Classes from mutual reachability equal Tarjan's components, and both
    simulating machines equal the ones colored through them."""
    rng = random.Random(7007)
    reducible = 0
    for i in range(500):
        chain = _sparse_chain(rng, rng.randint(1, 12))
        structure = ergodic_structure(chain)
        assert structure == reference_ergodic_structure(chain), i
        assert chain.structure == structure and chain.structure is chain.structure, i
        reducible += bool(structure.transient_states)
        for mode in ("basic", "reachable"):
            assert simulating_automaton(chain, mode) == reference_simulating_automaton(
                chain, mode
            ), (i, mode)
    assert reducible >= 250


def _layered_chain(rng, n):
    """Seeded chain on n states under shuffled names: the last few states
    form closed cycles of 1 to 4 states, and every other state moves only
    to 1 to 3 later states, now and then also in a pair with the next
    state, so most classes are transient singletons, a few are transient
    pairs, and classes are not runs of consecutive states."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [dict() for _ in range(n)]
    tail = n - rng.randint(5, 20)
    start = tail
    while start < n:
        size = min(rng.randint(1, 4), n - start)
        for i in range(start, start + size):
            rows[i][start + (i - start + 1) % size] = 1
        start += size
    for i in range(tail):
        for j in rng.sample(range(i + 1, n), rng.randint(1, min(3, n - i - 1))):
            rows[i][j] = rng.randint(1, 3)
        if i + 1 < tail and rng.random() < 0.05:
            rows[i][i + 1] = rows[i + 1][i] = 1
    states = [f"p{order[i]}" for i in range(n)]
    return chain_of(states, {
        states[i]: {states[j]: str(Fraction(w, sum(row.values()))) for j, w in row.items()}
        for i, row in enumerate(rows)
    })


def test_structure_of_layered_chains_matches_tarjan_reference():
    """On layered chains of 200 to 400 states, most of whose classes are
    transient singletons, the classes numbered by reach rows equal
    Tarjan's components, listed by least state."""
    rng = random.Random(9119)
    pairs = 0
    for i in range(12):
        chain = _layered_chain(rng, rng.randint(200, 400))
        structure = ergodic_structure(chain)
        assert structure == reference_ergodic_structure(chain), i
        assert chain.structure == structure and chain.structure is chain.structure, i
        transient = [c for c, flag in zip(structure.classes, structure.ergodic) if not flag]
        assert sum(len(c) == 1 for c in transient) >= chain.size // 2, i
        pairs += sum(len(c) == 2 for c in transient)
    assert pairs >= 50


def _outcome(check, chain, decomposition):
    try:
        check(chain, decomposition)
    except (MalformedDocument, NegativeEntry, RowSumNotOne) as exc:
        return type(exc).__name__, str(exc), exc.witness
    return None


def test_validate_decomposition_matches_reference():
    """The one-pass reconstruction check gives the reference's verdict,
    message and witness on valid and on corrupted decompositions."""
    rng = random.Random(8008)
    mismatches = 0
    for i in range(300):
        chain = _sparse_chain(rng, rng.randint(1, 8))
        d = decompose(chain)
        l = rng.randrange(len(d.letters))
        s = rng.randrange(chain.size)
        maps = list(d.maps)
        maps[l] = maps[l][:s] + (rng.randrange(chain.size),) + maps[l][s + 1:]
        weights = list(d.weights)
        weights[l] += Fraction(rng.randint(-3, 3), rng.randint(1, 6))
        swapped = list(d.weights)
        k = rng.randrange(len(d.letters))
        swapped[l], swapped[k] = swapped[k], swapped[l]
        for candidate in (
            d,
            Decomposition(d.letters, tuple(maps), d.weights),
            Decomposition(d.letters, d.maps, tuple(weights)),
            Decomposition(d.letters, d.maps, tuple(swapped)),
        ):
            expected = _outcome(reference_validate_decomposition, chain, candidate)
            assert _outcome(validate_decomposition, chain, candidate) == expected, i
            mismatches += expected is not None and expected[0] == "MalformedDocument"
    assert mismatches >= 100


def _listed_rows(rng, states):
    """Seeded rows over ``states``: 1-4 listed entries each, over mixed
    denominators, written as "p/q", as integers or with an explicit "0"."""
    rows = {}
    for s in states:
        targets = rng.sample(states, rng.randint(1, min(4, len(states))))
        weights = [rng.randint(0 if k else 1, 6) for k in range(len(targets))]
        total = sum(weights)
        rows[s] = {
            t: w // total if w % total == 0 and rng.random() < 0.5 else str(Fraction(w, total))
            for t, w in zip(targets, weights)
        }
    return rows


def _load_outcome(load, states, rows):
    try:
        return load(states, rows)
    except LatlangError as exc:
        return exc.to_doc()


def _dense_chain(states, rows):
    """``make_chain``'s states and dense matrix, after checking its rows:
    positive numerators only, targets ascending, each row summing to its
    scale, the lcm of the row's denominators."""
    chain = make_chain(states, rows)
    for row, scale, entries in zip(chain.rows, chain.scales, chain.matrix):
        targets = [t for t, _ in row]
        assert targets == sorted(set(targets))
        assert all(v > 0 for _, v in row) and sum(v for _, v in row) == scale
        assert scale == lcm(*(p.denominator for p in entries))
    return chain.states, chain.matrix


def test_make_chain_matches_dense_reference():
    """Sparse rows over the listed entries give the dense reference's
    matrix, or its error document, on seeded chains of 1 to 60 states:
    valid, with a row that sums to something else, with a negative entry,
    with an unknown state as a target or as a row, and with a missing
    row."""
    rng = random.Random(9009)
    kinds = {}
    for i in range(200):
        states = [f"p{k}" for k in range(rng.randint(1, 60))]
        rows = _listed_rows(rng, states)
        s = rng.choice(states)
        t = rng.choice(list(rows[s]))
        off_sum = dict(rows, **{s: dict(rows[s], **{t: str(Fraction(rng.randint(1, 5), 7))})})
        negative = dict(rows, **{s: dict(rows[s], **{t: f"-{rng.randint(1, 3)}/4"})})
        unknown_target = dict(rows, **{s: dict(rows[s], zz="0")})
        unknown_row = dict(rows, zz={s: "1"})
        missing = {u: row for u, row in rows.items() if u != s}
        for case in (rows, off_sum, negative, unknown_target, unknown_row, missing):
            expected = _load_outcome(reference_make_chain, states, case)
            assert _load_outcome(_dense_chain, states, case) == expected, i
            kind = expected["kind"] if isinstance(expected, dict) else "ok"
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["ok"] >= 200 and kinds["RowSumNotOne"] >= 300, kinds
    assert kinds["NegativeEntry"] >= 150 and kinds["UnknownElement"] >= 350, kinds


def test_chain_document_round_trip():
    """``chain_to_doc`` writes each row's positive entries in lowest terms
    and omits its zeros, and reading that document back gives an equal
    chain, on seeded rows with explicit "0" and integer entries."""
    rng = random.Random(4242)
    zeros = 0
    for i in range(150):
        states = [f"p{k}" for k in range(rng.randint(1, 30))]
        rows = _listed_rows(rng, states)
        chain = make_chain(states, rows)
        doc = chain_to_doc(chain)
        names, matrix = reference_make_chain(states, rows)
        assert doc["rows"] == {
            s: {t: str(p) for t, p in zip(names, row) if p}
            for s, row in zip(names, matrix)
        }, i
        assert chain_from_doc(doc) == chain, i
        zeros += sum(p in (0, "0") for row in rows.values() for p in row.values())
    assert zeros >= 50


def test_string_states_are_not_split():
    with pytest.raises(MalformedDocument) as err:
        make_chain("ab", {"a": {"a": "1"}, "b": {"b": "1"}})
    assert str(err.value) == "states must be a nonempty list of distinct names"


def _absorbing_chain(rng, n):
    """Seeded chain on n states whose last 1-6 states are absorbing; the
    others have 1-3 successors anywhere, so most of them are transient."""
    states = [f"p{i}" for i in range(n)]
    absorbing = rng.randint(1, min(n, 6))
    rows = {}
    for i, s in enumerate(states):
        if i >= n - absorbing:
            rows[s] = {s: "1"}
            continue
        targets = rng.sample(states, rng.randint(1, min(3, n)))
        weights = [rng.randint(1, 5) for _ in targets]
        rows[s] = {t: str(Fraction(w, sum(weights))) for t, w in zip(targets, weights)}
    return chain_of(states, rows)


def _absorption_system(chain):
    """I - Q over the transient states, against the one-step class masses."""
    structure = ergodic_structure(chain)
    transient = structure.transient_states
    matrix = [
        [Fraction(int(s == t)) - chain.matrix[s][t] for t in transient]
        for s in transient
    ]
    rhs = [
        [sum((chain.matrix[s][t] for t in members), Fraction(0))
         for members in structure.ergodic_classes()]
        for s in transient
    ]
    return matrix, rhs


def _solve_scaled(matrix, rhs):
    """``_solve_exact`` on the rows of [A | B], each scaled to integers by
    the lcm of its denominators, with A's row as its nonzero columns."""
    rows = []
    for a_row, b_row in zip(matrix, rhs):
        scale = lcm(*(v.denominator for v in a_row + b_row))
        ints = [v.numerator * (scale // v.denominator) for v in a_row + b_row]
        n = len(a_row)
        rows.append(({j: v for j, v in enumerate(ints[:n]) if v}, ints[n:]))
    return _solve_exact(rows)


def _solve_outcome(solve, matrix, rhs):
    try:
        return solve(matrix, rhs)
    except SingularSystem as exc:
        return "SingularSystem", str(exc)


def test_solve_exact_matches_fraction_reference():
    """The integer elimination gives the reference's exact solutions on
    absorption systems of random chains and on random rational systems
    whose first pivot needs a row swap."""
    rng = random.Random(9009)
    systems = 0
    for i in range(240):
        n = rng.randint(1, 60 if i % 8 == 0 else 16)
        matrix, rhs = _absorption_system(_absorbing_chain(rng, n))
        assert _solve_scaled(matrix, rhs) == reference_solve_exact(matrix, rhs), i
        systems += bool(matrix)
    assert systems >= 200
    swapped = singular = 0
    while swapped < 100:
        n = rng.randint(2, 8)
        matrix = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7
             else Fraction(0) for _ in range(n)]
            for _ in range(n)
        ]
        matrix[0][0] = Fraction(0)
        rhs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
               for _ in range(n)]
        expected = _solve_outcome(reference_solve_exact, matrix, rhs)
        assert _solve_outcome(_solve_scaled, matrix, rhs) == expected, swapped
        if expected[0] == "SingularSystem":
            singular += 1
        else:
            swapped += 1
    assert singular >= 1


def test_solve_exact_singular_system():
    matrix = [[Fraction(1), Fraction(-1, 2)], [Fraction(-2), Fraction(1)]]
    rhs = [[Fraction(1, 2)], [Fraction(0)]]
    with pytest.raises(SingularSystem) as err:
        _solve_scaled(matrix, rhs)
    assert str(err.value) == "absorption system is singular"


def test_decompose_matches_full_row_reference():
    """Scanning only each row's support picks the same letters, maps and
    weights as scanning every column of every row."""
    rng = random.Random(1010)
    for i in range(320):
        n = rng.randint(1, 60 if i % 8 == 0 else 16)
        chain = _absorbing_chain(rng, n) if i % 2 else _sparse_chain(rng, n)
        assert decompose(chain) == reference_decompose(chain), i


def _coprime_chain(rng, n):
    """Seeded chain on n >= 2 states whose last 0-3 states are absorbing and
    whose other rows are over 2, 3, 5 or 7, with 2-3 successors each, so
    that rows over different primes occur in one chain."""
    states = [f"p{i}" for i in range(n)]
    absorbing = rng.randint(0, min(n, 3))
    rows = {}
    for i, s in enumerate(states):
        if i >= n - absorbing:
            rows[s] = {s: "1"}
            continue
        d = rng.choice((2, 3, 5, 7))
        targets = rng.sample(states, rng.randint(2, min(d, 3, n)))
        cuts = sorted(rng.sample(range(1, d), len(targets) - 1))
        parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [d])]
        rows[s] = {t: f"{c}/{d}" for t, c in zip(targets, parts)}
    return chain_of(states, rows)


def _split_letters(rng, decomposition):
    """The same convex combination with some letters split in two letters of
    the same map, at a ratio over 11 or 13, so the weights have denominators
    that the chain does not."""
    maps, weights = [], []
    for mapping, w in zip(decomposition.maps, decomposition.weights):
        if rng.random() < 0.5:
            q = rng.choice((11, 13))
            r = Fraction(rng.randint(1, q - 1), q)
            maps += [mapping, mapping]
            weights += [w * r, w * (1 - r)]
        else:
            maps.append(mapping)
            weights.append(w)
    letters = tuple(f"x{i + 1}" for i in range(len(maps)))
    return Decomposition(letters, tuple(maps), tuple(weights))


def test_kernels_match_fraction_references_on_coprime_rows():
    """One scale for the whole decomposition and one per absorption row
    give the references' results, though no two rows need share a
    denominator.  The word measure on these chains is compared below."""
    rng = random.Random(1111)
    mixed = 0
    for i in range(160):
        chain = _coprime_chain(rng, rng.randint(2, 10))
        mixed += len({p.denominator for row in chain.matrix for p in row} - {1}) >= 3
        assert decompose(chain) == reference_decompose(chain), i
        assert absorption_probabilities(chain) == reference_absorption_probabilities(chain), i
    assert mixed >= 40


def test_word_measure_matches_fraction_reference():
    """Integer propagation over W^n gives the reference's masses, in its
    order, at every horizon, for generated decompositions and for supplied
    ones whose weight denominators differ from the chain's."""
    rng = random.Random(1212)
    split = 0
    for i in range(60):
        n = rng.randint(2, 8)
        chain = _coprime_chain(rng, n) if i % 2 else _sparse_chain(rng, n)
        generated = decompose(chain)
        supplied = _split_letters(rng, generated)
        split += supplied.letters != generated.letters
        for d in (generated, supplied):
            a = simulating_automaton(chain, ("basic", "reachable")[i % 3 == 0], d)
            for horizon in (-1, 0, 1, 8, 64):
                expected = list(reference_fraction_word_measure(a, d, horizon).items())
                assert list(word_measure(a, d, horizon).items()) == expected, (i, horizon)
    assert split >= 40


def test_word_measure_matches_letter_by_letter_reference():
    """Stepping through each state's moves merged by target gives the
    letter-by-letter integer loop's masses, in its order, at every horizon,
    for generated decompositions and for supplied ones whose split letters
    share targets."""
    rng = random.Random(1717)
    merged = 0
    for i in range(60):
        n = rng.randint(2, 8)
        chain = _coprime_chain(rng, n) if i % 2 else _sparse_chain(rng, n)
        generated = decompose(chain)
        for d in (generated, _split_letters(rng, generated)):
            a = simulating_automaton(chain, ("basic", "reachable")[i % 3 == 0], d)
            merged += any(len(set(row)) < len(row) for row in a.delta)
            for horizon in (-3, 0, 1, 2, 8, 64):
                expected = list(reference_word_measure(a, d, horizon).items())
                assert list(word_measure(a, d, horizon).items()) == expected, (i, horizon)
    assert merged >= 60


def test_absorption_matches_fraction_reference():
    """Rows built as integers over their own lcm give the reference's
    absorption probabilities on absorbing chains of 1-60 states."""
    rng = random.Random(1313)
    transient = 0
    for i in range(120):
        chain = _absorbing_chain(rng, rng.randint(1, 60 if i % 4 == 0 else 16))
        assert absorption_probabilities(chain) == reference_absorption_probabilities(chain), i
        transient += bool(ergodic_structure(chain).transient_states)
    assert transient >= 80


def test_sparse_absorption_matches_fraction_reference_by_class_count():
    """The sparse rows and the fill-reducing elimination give the dense
    ``Fraction`` reference's probabilities on absorbing, sparse and coprime
    chains with one, two or three ergodic classes."""
    rng = random.Random(1414)
    families = (_absorbing_chain, _sparse_chain, _coprime_chain)
    with_transient = {1: 0, 2: 0, 3: 0}
    for i in range(300):
        chain = families[i % 3](rng, rng.randint(2, 30))
        structure = ergodic_structure(chain)
        k = len(structure.ergodic_classes())
        if k not in with_transient:
            continue
        with_transient[k] += bool(structure.transient_states)
        assert absorption_probabilities(chain) == reference_absorption_probabilities(chain), i
    assert min(with_transient.values()) >= 30, with_transient


def _large_chain(rng, n):
    """Seeded chain on n states in the style of ``_random_chain``: each row
    gets small random weights normalized exactly, here over 1-3 random
    successors and a step to a later state, and the last 2-6 states are
    absorbing, so most states are transient."""
    states = [f"p{i}" for i in range(n)]
    absorbing = rng.randint(2, 6)
    rows = {}
    for i, s in enumerate(states):
        if i >= n - absorbing:
            rows[s] = {s: "1"}
            continue
        targets = {states[rng.randrange(i + 1, n)], *rng.sample(states, rng.randint(1, 3))}
        weights = {t: rng.randint(1, 3) for t in sorted(targets)}
        total = sum(weights.values())
        rows[s] = {t: str(Fraction(w, total)) for t, w in weights.items()}
    return chain_of(states, rows)


def test_absorption_is_exact_at_scale():
    """On chains of 120-200 states, where the ``Fraction`` reference is too
    slow to run, every transient state's answer satisfies x = Qx + b
    exactly and its probabilities sum to 1 over the classes."""
    rng = random.Random(1515)
    transient_total = 0
    for _ in range(4):
        chain = _large_chain(rng, rng.randint(120, 200))
        structure = ergodic_structure(chain)
        ergodic = structure.ergodic_classes()
        table = absorption_probabilities(chain)
        x = [[table[c][name] for name in chain.states] for c in range(len(ergodic))]
        for s in structure.transient_states:
            for c in range(len(ergodic)):
                step = sum(
                    (Fraction(v, chain.scales[s]) * x[c][t] for t, v in chain.rows[s]),
                    Fraction(0),
                )
                assert x[c][s] == step, (chain.states[s], c)
            assert sum(x[c][s] for c in range(len(ergodic))) == 1
        assert len(ergodic) >= 2
        transient_total += len(structure.transient_states)
    assert transient_total >= 400


def test_absorption_positive_iff_reachable(two_sink_chain):
    st = ergodic_structure(two_sink_chain)
    table = absorption_probabilities(two_sink_chain)
    ergodic = st.ergodic_classes()
    reach = {}
    for s in range(two_sink_chain.size):
        seen, queue = {s}, [s]
        while queue:
            q = queue.pop()
            for t in range(two_sink_chain.size):
                if two_sink_chain.matrix[q][t] > 0 and t not in seen:
                    seen.add(t)
                    queue.append(t)
        reach[s] = seen
    for c, members in enumerate(ergodic):
        for s in range(two_sink_chain.size):
            state = two_sink_chain.states[s]
            reachable = any(t in reach[s] for t in members)
            assert (table[c][state] > 0) == reachable


def test_word_measure(two_sink_chain, two_sink_decomposition, two_sink_automaton):
    a = two_sink_automaton
    lat = a.lattice
    d = two_sink_decomposition
    at0 = word_measure(a, d, 0)
    assert at0 == {lat.index("{1,2}"): Fraction(1)}
    at1 = word_measure(a, d, 1)
    assert at1[lat.index("{1}")] == Fraction(1, 3)
    assert at1[lat.index("{1,2}")] == Fraction(2, 3)
    for n in (0, 1, 5, 17):
        assert sum(word_measure(a, d, n).values()) == 1
    at64 = word_measure(a, d, 64)
    assert abs(at64[lat.index("{1}")] - Fraction(1, 3)) < Fraction(1, 2**30)


def test_analyze_worked(two_sink_chain, two_sink_decomposition):
    report = analysis_to_doc(analyze(two_sink_chain, decomposition=two_sink_decomposition))
    assert report["classes"] == [
        {"states": ["t1"], "ergodic": False},
        {"states": ["t2"], "ergodic": False},
        {"states": ["s11", "s12"], "ergodic": True},
        {"states": ["s21", "s22"], "ergodic": True},
    ]
    assert report["syntactic"]["aperiodic"] is True
    assert report["syntactic"]["size"] == 4
    assert report["shuffle"]["algebraic"] is False
    assert report["shuffle"]["falsifier"] == {
        "subword": "a",
        "superword": "ba",
        "value_subword": "{1}",
        "value_superword": "{2}",
    }
    assert report["absorption"]["C1"]["t1"] == "1/3"
    assert report["absorption"]["C2"]["t1"] == "2/3"


def test_analyze_reachable_mode(two_sink_chain, two_sink_decomposition):
    report = analysis_to_doc(analyze(
        two_sink_chain, decomposition=two_sink_decomposition, mode="reachable"
    ))
    assert report["mode"] == "reachable"
    # refinement gives L(b)={2}, so (b, ab) falsifies earlier than (a, ba)
    assert report["shuffle"]["falsifier"] == {
        "subword": "b",
        "superword": "ab",
        "value_subword": "{2}",
        "value_superword": "{1}",
    }
    assert report["shuffle"]["algebraic"] is False


def test_analyze_irreducible():
    chain = chain_of(
        ["a", "b"], {"a": {"b": "1"}, "b": {"a": "1/2", "b": "1/2"}}
    )
    report = analysis_to_doc(analyze(chain))
    assert [c["ergodic"] for c in report["classes"]] == [True]
    assert report["syntactic"]["size"] == 1
    assert report["shuffle"]["algebraic"] is True


def test_analyze_returns_values(two_sink_chain, two_sink_decomposition):
    """``analyze`` returns values, not a document: a ``SyntacticResult``
    whose monoid is an ``OrderedMonoid``, two ``LatticeAutomaton``
    machines, ``Fraction`` absorption probabilities and masses, and no
    ``serialize.Table`` anywhere in it; ``analysis_to_doc`` writes it."""
    analysis = analyze(two_sink_chain, decomposition=two_sink_decomposition)
    assert isinstance(analysis, Analysis)
    assert isinstance(analysis.syntactic, SyntacticResult)
    assert isinstance(analysis.syntactic.monoid, OrderedMonoid)
    assert isinstance(analysis.basic, LatticeAutomaton)
    assert isinstance(analysis.reachable, LatticeAutomaton)
    assert analysis.analyzed is analysis.basic
    assert analysis.chain is two_sink_chain
    assert analysis.decomposition == two_sink_decomposition
    masses = list(analysis.masses.values())
    probabilities = [p for per_state in analysis.absorption.values() for p in per_state.values()]
    assert masses and probabilities
    assert all(type(p) is Fraction for p in masses + probabilities)
    assert analysis.absorption == absorption_probabilities(two_sink_chain)
    seen, stack = {}, [analysis]
    while stack:
        value = stack.pop()
        assert not isinstance(value, Table)
        if id(value) in seen or isinstance(value, (str, int, Fraction)):
            continue
        seen[id(value)] = type(value)
        if isinstance(value, dict):
            stack += [*value.keys(), *value.values()]
        elif isinstance(value, (list, tuple)):
            stack += value
        elif hasattr(value, "__dataclass_fields__"):
            stack += [getattr(value, f.name) for f in fields(value)]
    assert {OrderedMonoid, LatticeAutomaton, MarkovChain} <= set(seen.values())
    reachable = analyze(two_sink_chain, decomposition=two_sink_decomposition, mode="reachable")
    assert reachable.analyzed is reachable.reachable
    assert analysis_to_doc(reachable)["mode"] == "reachable"


def test_analyze_checks_mode_before_decomposing(two_sink_chain, monkeypatch):
    """An unknown mode is rejected before any decomposition is computed or
    a given one is validated, by ``analyze`` and ``simulating_automaton``."""
    import latlang.markov as markov_module

    def decompose_called(chain):
        raise AssertionError("analyze decomposed before checking its mode")

    monkeypatch.setattr(markov_module, "decompose", decompose_called)
    with pytest.raises(MalformedDocument, match="unknown coloring mode"):
        analyze(two_sink_chain, mode="bogus")
    bad = Decomposition(("x",), ((0,),), (Fraction(1, 2),))
    with pytest.raises(MalformedDocument, match="unknown coloring mode"):
        simulating_automaton(two_sink_chain, "weird", bad)
    with pytest.raises(MalformedDocument, match="unknown coloring mode"):
        analyze(two_sink_chain, decomposition=bad, mode="weird")


def test_analyze_asserts_shuffle_verdict_both_ways(
    monkeypatch, two_sink_chain, two_sink_decomposition
):
    from latlang.errors import InternalInconsistency

    # the package attribute latlang.syntactic is the function, not the module
    syntactic_module = importlib.import_module("latlang.syntactic")
    real = syntactic_module.shuffle_ideal_falsify
    calls = []

    def recording(a, max_len=None):
        calls.append(max_len)
        return real(a, max_len)

    monkeypatch.setattr(syntactic_module, "shuffle_ideal_falsify", recording)
    report = analyze(two_sink_chain, decomposition=two_sink_decomposition, falsify_bound=4)
    assert report.falsifier is not None and calls == [None]
    calls.clear()
    report = analyze(two_sink_chain, decomposition=two_sink_decomposition, falsify_bound=1)
    assert report.falsifier is None and calls == [None]

    monkeypatch.setattr(syntactic_module, "shuffle_ideal_falsify", lambda a, max_len=None: None)
    with pytest.raises(InternalInconsistency) as caught:
        analyze(two_sink_chain, decomposition=two_sink_decomposition)
    assert str(caught.value) == "algebraic shuffle verdict is false but no falsifying pair exists"

    irreducible = chain_of(["a", "b"], {"a": {"b": "1"}, "b": {"a": "1/2", "b": "1/2"}})
    monkeypatch.setattr(
        syntactic_module, "shuffle_ideal_falsify", lambda a, max_len=None: ((), ("a",))
    )
    with pytest.raises(InternalInconsistency) as caught:
        analyze(irreducible)
    assert str(caught.value) == "algebraic shuffle verdict is true but a falsifying pair exists"


def _closed_class_chain(rng, n, closed):
    """A chain in the style of the benchmark's: transient states first, then
    1-3 closed classes of ``closed`` states in all, each a cycle with random
    extra edges inside it; every transient state steps to a later state and
    to 1-2 random ones."""
    states = [f"p{i}" for i in range(n)]
    n_classes = rng.randint(1, min(3, closed))
    cuts = sorted(rng.sample(range(1, closed), n_classes - 1))
    first = n - closed
    targets = {}
    for a, b in zip([0] + cuts, cuts + [closed]):
        members = list(range(first + a, first + b))
        for j, s in enumerate(members):
            succ = members[(j + 1) % len(members)]
            targets[s] = [succ] + [t for t in members if t != succ and rng.random() < 0.5]
    for s in range(first):
        chosen = [rng.randrange(s + 1, n)] + [rng.randrange(n) for _ in range(rng.randint(1, 2))]
        targets[s] = list(dict.fromkeys(chosen))
    rows = {
        states[s]: {states[t]: str(Fraction(1, len(ts))) for t in ts}
        for s, ts in targets.items()
    }
    return chain_of(states, rows)


def test_reach_matches_depth_first_reference():
    """The reach rows from ``closure_bits`` hold exactly the states of one
    depth-first search per state, on benchmark-style chains of 30 to 200
    states and on small sparse chains with several closed classes."""
    rng = random.Random(2020)
    chains = [_closed_class_chain(rng, rng.randint(30, 200), 6) for _ in range(12)]
    chains += [_sparse_chain(rng, rng.randint(1, 12)) for _ in range(200)]
    for i, chain in enumerate(chains):
        expected = tuple(sum(1 << t for t in seen) for seen in reference_reach(chain))
        assert chain.reach == expected, i
    assert max(chain.size for chain in chains) > 150


def _basic_colors(chain):
    """Basic-mode colors from the Tarjan reference: an ergodic class's
    states get its singleton and every transient state the full set."""
    structure = reference_ergodic_structure(chain)
    lattice = ergodic_lattice(structure)
    singleton = {
        s: subset_name([i + 1])
        for i, members in enumerate(structure.ergodic_classes())
        for s in members
    }
    top = lattice.elements[lattice.top]
    return lattice, [singleton.get(s, top) for s in range(chain.size)]


def test_basic_machine_is_the_reachable_machine_raised():
    """The basic machine, derived from the validated reachable one, equals
    field for field a ``make_automaton`` build from the basic colors, for
    generated and supplied decompositions and any initial state."""
    rng = random.Random(2121)
    raised = 0
    for i in range(300):
        chain = _sparse_chain(rng, rng.randint(1, 12)) if i % 3 else _closed_class_chain(
            rng, rng.randint(8, 30), 6
        )
        d = decompose(chain)
        if i % 2:
            d = _split_letters(rng, d)
        initial = rng.randrange(chain.size)
        derived = simulating_automaton(chain, "basic", d, initial)
        lattice, colors = _basic_colors(chain)
        delta = [[d.maps[l][s] for l in range(len(d.letters))] for s in range(chain.size)]
        built = make_automaton(lattice, d.letters, chain.states, initial, delta, colors)
        for field in fields(LatticeAutomaton):
            assert getattr(derived, field.name) == getattr(built, field.name), (i, field.name)
        reachable = simulating_automaton(chain, "reachable", d, initial)
        raised += derived.output != reachable.output
    assert raised >= 60


def test_analyze_computes_structure_and_machine_once(monkeypatch):
    """One ``analyze`` call on a fresh chain computes the ergodic structure
    once and validates one simulating machine, in either mode, and reports
    the same as the unwrapped call; a second call on the same chain reads
    the structure the chain holds."""
    import latlang.markov as markov_module

    calls = {"ergodic_structure": 0, "make_automaton": 0}

    def counted(name):
        real = getattr(markov_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    rng = random.Random(2323)
    chains = [_sparse_chain(rng, rng.randint(3, 6)) for _ in range(8)]
    assert sum(bool(ergodic_structure(chain).transient_states) for chain in chains) >= 4
    expected = [analyze(chain, mode=mode) for chain in chains for mode in ("basic", "reachable")]
    for name in calls:
        monkeypatch.setattr(markov_module, name, counted(name))
    for chain in chains:
        for mode in ("basic", "reachable"):
            fresh = replace(chain)
            for name in calls:
                calls[name] = 0
            assert analyze(fresh, mode=mode) == expected[0]
            assert calls == {"ergodic_structure": 1, "make_automaton": 1}, mode
            calls["ergodic_structure"] = 0
            assert analyze(fresh, mode=mode) == expected.pop(0)
            assert calls["ergodic_structure"] == 0, mode
