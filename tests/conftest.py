import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from latlang import (
    LatticeAutomaton,
    MonoidMorphism,
    build_ordered_monoid,
    load_chain,
    make_automaton,
    simulating_automaton,
    standard_lattice,
)
from latlang.errors import MalformedDocument, SizeCapExceeded
from latlang.monoid import _make_unchecked
from latlang.serialize import decomposition_from_doc

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("ci")

DATA = Path(__file__).parent / "data"


def all_words(alphabet, max_len):
    """Every word up to max_len in length-lexicographic order."""
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield combo


def enumerate_falsifier(a, max_len):
    """Reference shuffle-ideal falsifier: exhaustive subword enumeration.

    Superwords v in length-lexicographic order up to ``max_len``, their proper
    subwords w by descending length, then lexicographic positions; the first
    pair with L(v) not below L(w), or None.  Exponential in ``max_len``.
    """
    n_letters = len(a.alphabet)
    values = {(): a.output[a.initial]}
    level = [((), a.initial)]
    for length in range(max_len + 1):
        if length > 0:
            next_level = []
            for word, q in level:
                for l in range(n_letters):
                    w = word + (a.alphabet[l],)
                    t = a.delta[q][l]
                    values[w] = a.output[t]
                    next_level.append((w, t))
            level = next_level
        for v, _ in level:
            seen = set()
            value_v = values[v]
            for k in range(length, -1, -1):
                for positions in itertools.combinations(range(length), k):
                    w = tuple(v[i] for i in positions)
                    if w == v or w in seen:
                        continue
                    seen.add(w)
                    if not a.lattice.leq[value_v][values[w]]:
                        return w, v
    return None


def reference_direct_product(monoids, *, max_size=1024):
    """Reference direct product: the component tuples in ``itertools.product``
    order, indexed through a dict of tuples, every entry computed per tuple."""
    if not monoids:
        raise MalformedDocument("direct product needs at least one factor")
    sizes = [m.size for m in monoids]
    total = 1
    for s in sizes:
        total *= s
        if total > max_size:
            raise SizeCapExceeded(f"product size exceeds cap {max_size}", witness=sizes)
    tuples = list(itertools.product(*(range(s) for s in sizes)))
    names = tuple(
        "(" + ",".join(m.elements[c] for m, c in zip(monoids, combo)) + ")"
        for combo in tuples
    )
    radix = {combo: i for i, combo in enumerate(tuples)}
    mul = [
        [radix[tuple(m.mul[a[i]][b[i]] for i, m in enumerate(monoids))] for b in tuples]
        for a in tuples
    ]
    leq = [
        [all(m.leq[a[i]][b[i]] for i, m in enumerate(monoids)) for b in tuples]
        for a in tuples
    ]
    identity = radix[tuple(m.identity for m in monoids)]
    product = _make_unchecked(names, identity, mul, leq)
    projections = tuple(
        MonoidMorphism(product, m, tuple(combo[i] for combo in tuples))
        for i, m in enumerate(monoids)
    )
    return product, projections


def reference_product_combine(kind, a1, a2):
    """Reference product machine: a list of state pairs and a dict from pair to index."""
    table = a1.lattice.join_table if kind == "join" else a1.lattice.meet_table
    pairs = list(itertools.product(range(len(a1.states)), range(len(a2.states))))
    index = {pair: i for i, pair in enumerate(pairs)}
    return LatticeAutomaton(
        lattice=a1.lattice,
        alphabet=a1.alphabet,
        states=tuple(f"({a1.states[p]},{a2.states[q]})" for p, q in pairs),
        initial=index[(a1.initial, a2.initial)],
        delta=tuple(
            tuple(
                index[(a1.delta[p][l], a2.delta[q][l])] for l in range(len(a1.alphabet))
            )
            for p, q in pairs
        ),
        output=tuple(table[a1.output[p]][a2.output[q]] for p, q in pairs),
    )


def u1(order="z<1"):
    """The two-element monoid with an absorbing element z, in a chosen order."""
    pairs = {"z<1": [("z", "1")], "1<z": [("1", "z")], "=": []}[order]
    return build_ordered_monoid(("1", "z"), "1", [["1", "z"], ["z", "z"]], pairs)


def z2():
    return build_ordered_monoid(("1", "g"), "1", [["1", "g"], ["g", "1"]])


@pytest.fixture(scope="session")
def boolean():
    return standard_lattice("boolean")


@pytest.fixture(scope="session")
def two_sink_chain():
    return load_chain((DATA / "two_sink_chain.json").read_text())


@pytest.fixture(scope="session")
def two_sink_decomposition(two_sink_chain):
    doc = json.loads((DATA / "two_sink_decomposition.json").read_text())
    return decomposition_from_doc(doc, two_sink_chain)


@pytest.fixture(scope="session")
def two_sink_automaton(two_sink_chain, two_sink_decomposition):
    return simulating_automaton(two_sink_chain, "basic", two_sink_decomposition)


@pytest.fixture(scope="session")
def contains_a(boolean):
    """Bottom-valued exactly on words containing the letter a."""
    return make_automaton(
        boolean,
        ("a", "b"),
        ("q0", "q1"),
        "q0",
        {"q0": {"a": "q1", "b": "q0"}, "q1": {"a": "q1", "b": "q1"}},
        {"q0": "1", "q1": "0"},
    )


@pytest.fixture(scope="session")
def empty_word_only(boolean):
    """Bottom-valued exactly on the empty word (complete machine with a sink)."""
    return make_automaton(
        boolean,
        ("a", "b"),
        ("q0", "sink"),
        "q0",
        {"q0": {"a": "sink", "b": "sink"}, "sink": {"a": "sink", "b": "sink"}},
        {"q0": "0", "sink": "1"},
    )


@pytest.fixture
def rng():
    return random.Random(20240811)
