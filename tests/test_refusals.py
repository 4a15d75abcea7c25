"""Each refusal the library makes of an argument it cannot use, by kind and
message: unknown sides and kinds, empty lists of factors, carriers,
lattices and alphabets that do not match, sizes past a cap, and the maps
that break an order, a unit or a multiplication.  No CLI command reaches
these, so each is called here directly."""

import pytest

from latlang import (
    Decomposition,
    RecognitionTriple,
    combine_colorings,
    combine_many,
    cons_coloring,
    direct_product,
    ideal_coloring,
    identity_monoid_morphism,
    identity_morphism,
    inverse_hom,
    make_free_morphism,
    make_lattice_morphism,
    make_monoid_morphism,
    make_op_coloring,
    make_recognition_triple,
    postcompose,
    precompose,
    product_coloring,
    quotient,
    quotient_coloring,
    recognizes,
    recolor,
    standard_lattice,
    subdirect_embedding,
    syntactic,
    validate_decomposition,
    verify_syntactic_minimality,
    word_measure,
)
from latlang.errors import (
    LatlangError,
    MalformedDocument,
    MismatchedAlphabet,
    MismatchedCarrier,
    MismatchedLattice,
    NotAMorphism,
    NotOrderPreserving,
    SizeCapExceeded,
)
from latlang.variety import SUBDIRECT_MAX_SIZE

from conftest import u1, z2


def _refusal(call):
    """The kind, message and witness of the error ``call`` raises."""
    with pytest.raises(LatlangError) as caught:
        call()
    return type(caught.value), str(caught.value), caught.value.witness


def test_unknown_sides_kinds_and_empty_factors(boolean, contains_a):
    p = ideal_coloring(u1(), "z", boolean)
    cases = [
        (lambda: quotient("middle", contains_a, "a"),
         MalformedDocument, "unknown quotient side 'middle'"),
        (lambda: quotient_coloring("middle", p, "z"),
         MalformedDocument, "unknown quotient side 'middle'"),
        (lambda: product_coloring("pjoin", []),
         MalformedDocument, "product coloring needs at least one factor"),
        (lambda: product_coloring("join", [p]),
         MalformedDocument, "unknown product coloring kind 'join'"),
        (lambda: combine_many("join", []),
         MalformedDocument, "combine_many needs at least one automaton"),
        (lambda: direct_product([]),
         MalformedDocument, "direct product needs at least one factor"),
        (lambda: standard_lattice("diamond"),
         MalformedDocument, "unknown standard lattice kind 'diamond'"),
    ]
    for call, kind, message in cases:
        assert _refusal(call) == (kind, message, None), message


def test_mismatched_carriers_lattices_and_alphabets(
    boolean, contains_a, two_sink_automaton, two_sink_decomposition
):
    chain3 = standard_lattice("chain", 3)
    m, other = u1("z<1"), u1("1<z")
    p = ideal_coloring(m, "z", boolean)
    s = syntactic(contains_a)
    on_chain3 = RecognitionTriple(
        s.alphabet, s.generator_images, cons_coloring(s.monoid, chain3, 0)
    )
    cases = [
        (lambda: combine_colorings("join", p, ideal_coloring(other, "z", boolean)),
         MismatchedCarrier, "colorings live on different monoids"),
        (lambda: combine_colorings("join", p, cons_coloring(m, chain3, 0)),
         MismatchedLattice, "colorings live on different lattices"),
        (lambda: postcompose(identity_morphism(chain3), p),
         MismatchedLattice, "morphism lattice differs from the coloring's lattice"),
        (lambda: precompose(p, identity_monoid_morphism(other)),
         MismatchedCarrier, "morphism target differs from the coloring's monoid"),
        (lambda: recolor(contains_a, identity_morphism(chain3)),
         MismatchedLattice, "morphism lattice differs from the automaton's"),
        (lambda: inverse_hom(contains_a, make_free_morphism(("x",), ("c",), {"x": "c"})),
         MismatchedAlphabet, "morphism target alphabet differs from the automaton's"),
        (lambda: recognizes(s, two_sink_automaton),
         MismatchedAlphabet, "triple and automaton use different alphabets"),
        (lambda: recognizes(on_chain3, contains_a),
         MismatchedLattice, "triple and automaton use different lattices"),
        (lambda: word_measure(contains_a, two_sink_decomposition, 3),
         MismatchedAlphabet, "automaton letters differ from the decomposition letters"),
        (lambda: make_recognition_triple(("a", "b"), ["z"], p),
         MismatchedAlphabet, "one generator image per letter is required"),
        (lambda: make_recognition_triple(("a",), ["z", "1"], p),
         MismatchedAlphabet, "one generator image per letter is required"),
    ]
    for call, kind, message in cases:
        assert _refusal(call) == (kind, message, None), message


def test_empty_decomposition_and_caps(two_sink_chain):
    empty = Decomposition(letters=(), maps=(), weights=())
    assert _refusal(lambda: validate_decomposition(two_sink_chain, empty)) == (
        MalformedDocument, "decomposition needs at least one letter", None
    )
    big, _ = direct_product([u1()] * 7)
    assert big.size == 2 * SUBDIRECT_MAX_SIZE
    assert _refusal(lambda: subdirect_embedding(big)) == (
        SizeCapExceeded, f"subdirect embedding capped at {SUBDIRECT_MAX_SIZE} elements", None
    )


def test_minimality_past_its_budget_is_a_report(contains_a):
    """A recognizer larger than the division budget gets a
    ``budget_exhausted`` report, with no division search made."""
    s = syntactic(contains_a)
    assert s.monoid.size == 2
    report = verify_syntactic_minimality(contains_a, s, max_target_size=1)
    assert (report.check, report.verdict, report.witness) == (
        "syntactic_minimality", "budget_exhausted", None
    )
    assert report.instance == {"syntactic_size": 2, "recognizer_size": 2}
    assert verify_syntactic_minimality(contains_a, s, max_target_size=2).verdict == "pass"


def test_order_preserving_maps_share_one_refusal():
    """Lattice morphisms, colorings and monoid morphisms that break the
    order give one message, "<a> <= <b> but <noun> are not ordered", with
    the pair and its images as the witness."""
    chain3 = standard_lattice("chain", 3)
    boolean = standard_lattice("boolean")
    cases = [
        (lambda: make_lattice_morphism(chain3, ["1", "0", "2"]),
         "'0' <= '1' but images are not ordered",
         {"pair": ["0", "1"], "images": ["1", "0"]}),
        (lambda: make_op_coloring(u1("z<1"), boolean, {"1": "0", "z": "1"}),
         "'z' <= '1' but colors are not ordered",
         {"pair": ["z", "1"], "colors": ["1", "0"]}),
        (lambda: make_monoid_morphism(u1("z<1"), u1("1<z"), {"1": "1", "z": "z"}),
         "'z' <= '1' but images are not ordered",
         {"pair": ["z", "1"], "images": ["z", "1"]}),
    ]
    for call, message, witness in cases:
        assert _refusal(call) == (NotOrderPreserving, message, witness), message


def test_monoid_morphism_refusals():
    """A monoid morphism must keep the order, then the unit, then the
    multiplication; the order is checked first."""
    m = u1("z<1")
    assert _refusal(lambda: make_monoid_morphism(m, m, {"1": "z", "z": "z"})) == (
        NotAMorphism, "identity is not preserved", None
    )
    assert _refusal(lambda: make_monoid_morphism(u1("="), z2(), {"1": "1", "z": "g"})) == (
        NotAMorphism, "multiplication is not preserved", ["z", "z"]
    )
    # 1 -> g breaks the unit too, but the order is refused first
    assert _refusal(lambda: make_monoid_morphism(m, z2(), {"1": "g", "z": "1"})) == (
        NotOrderPreserving, "'z' <= '1' but images are not ordered",
        {"pair": ["z", "1"], "images": ["1", "g"]},
    )


def test_free_morphism_misses_a_source_letter():
    """The CLI reads a word morphism's source letters off its images, so
    only a library caller can name a letter with no image."""
    assert _refusal(lambda: make_free_morphism(("x", "y"), ("a",), {"x": "a"})) == (
        MalformedDocument, "morphism misses letters ['y']", None
    )
