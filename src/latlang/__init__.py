"""Lattice-valued regular languages, finite ordered monoids, and Markov chains.

The package provides validated finite lattices and ordered monoids, the
algebra of order-preserving colorings, lattice-valued languages as Moore
machines with syntactic ordered monoids, an enumeration and verification
harness for small ordered monoids, and an exact-rational Markov-chain
pipeline built on ergodic-class languages.
"""

from .automaton import (
    FreeMorphism,
    LatticeAutomaton,
    combine_many,
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
    trim,
    word_name,
)
from .coloring import (
    OpColoring,
    combine_colorings,
    cons_coloring,
    ideal_coloring,
    make_op_coloring,
    postcompose,
    precompose,
    product_coloring,
    quotient_coloring,
    reconstruct_from_ideals,
)
from .errors import LatlangError
from .lattice import (
    Lattice,
    LatticeMorphism,
    bound,
    build_lattice,
    cons,
    dual,
    identity_morphism,
    make_lattice_morphism,
    standard_lattice,
    threshold,
)
from .markov import (
    Analysis,
    Decomposition,
    ErgodicStructure,
    MarkovChain,
    absorption_probabilities,
    analyze,
    decompose,
    ergodic_structure,
    parse_fraction,
    simulating_automaton,
    validate_decomposition,
    word_measure,
)
from .monoid import (
    DivisionVerdict,
    MonoidMorphism,
    OrderedMonoid,
    build_ordered_monoid,
    canonical_key,
    direct_product,
    divides,
    generated_submonoid,
    identity_is_greatest,
    identity_monoid_morphism,
    is_aperiodic,
    is_isomorphic,
    make_monoid_morphism,
    trivial_monoid,
)
from .serialize import load_chain
from .syntactic import (
    RecognitionTriple,
    SyntacticResult,
    cut,
    ideal_language_construction,
    is_shuffle_ideal,
    make_recognition_triple,
    product_triple,
    recognizes,
    reconstruct_from_cuts,
    shuffle_ideal_falsify,
    syntactic,
    syntactic_quotients,
    transition_monoid,
    triple_to_automaton,
)
from .variety import (
    VerificationReport,
    enumerate_ordered_monoids,
    random_automaton,
    random_coloring,
    random_lattice,
    run_suite,
    subdirect_embedding,
    verify_recog_by_synt,
    verify_syntactic_minimality,
)

__version__ = "0.1.0"
