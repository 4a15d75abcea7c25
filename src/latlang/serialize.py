"""JSON documents for every value type, with canonical serialization.

Canonical output sorts object keys, uses compact separators, and writes
fractions in lowest terms, so identical inputs always serialize to
identical bytes.  Every document written here re-parses through the
loaders in this module.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from fractions import Fraction
from typing import Any

from .automaton import (
    FreeMorphism,
    LatticeAutomaton,
    Word,
    make_automaton,
    make_free_morphism,
)
from .coloring import OpColoring, make_op_coloring
from .errors import MalformedDocument
from .lattice import (
    Lattice,
    LatticeMorphism,
    bit_positions,
    build_lattice,
    make_lattice_morphism,
    name_tuple,
)
from .markov import (
    Decomposition,
    MarkovChain,
    fraction_text,
    make_chain,
    parse_fraction,
)
from .monoid import OrderedMonoid, build_ordered_monoid
from .syntactic import RecognitionTriple, make_recognition_triple

_SET_NAME_RE = re.compile(r"^\{.*\}$")

# One encoder for every canonical document: ``json.dumps`` with these
# arguments builds a new one per call.  A document may hold one dict twice
# (``lang syntactic`` does) but never holds itself, so the circular-reference
# check is off.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False
)


def canonical_dumps(doc: Any) -> str:
    return _CANONICAL.encode(doc)


def _require(doc: Any, keys: list[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{what} document must be a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise MalformedDocument(f"{what} document misses keys {missing!r}")


def value_doc(name: str) -> Any:
    """Render a lattice element for output: set-like names become sorted arrays."""
    if _SET_NAME_RE.match(name):
        inner = name[1:-1]
        return sorted(inner.split(",")) if inner else []
    return name


def word_doc(word: Word) -> Any:
    """Words over single-character letters print as strings, else as lists."""
    if all(len(a) == 1 for a in word):
        return "".join(word)
    return list(word)


# -- lattices -------------------------------------------------------------

def _order_doc(names: Sequence[str], leq: Sequence[int]) -> list[list[str]]:
    """Every pair of an order given by up-set rows, as sorted name pairs."""
    return sorted([a, names[b]] for a, row in zip(names, leq) for b in bit_positions(row))


def lattice_to_doc(lattice: Lattice) -> dict:
    return {
        "elements": list(lattice.elements),
        "leq": _order_doc(lattice.elements, lattice.leq),
        "relation": "full",
    }


def lattice_from_doc(doc: Any) -> Lattice:
    _require(doc, ["elements"], "lattice")
    if doc.get("relation") == "full":
        _require(doc, ["leq"], "lattice")
        return build_lattice(doc["elements"], doc["leq"])
    _require(doc, ["cover"], "lattice")
    return build_lattice(doc["elements"], doc["cover"])


def lattice_morphism_from_doc(doc: Any, lattice: Lattice) -> LatticeMorphism:
    _require(doc, ["mapping"], "lattice morphism")
    return make_lattice_morphism(lattice, doc["mapping"])


# -- monoids ----------------------------------------------------------------

def _distinct(names: Sequence[str], what: str) -> None:
    """Raise MalformedDocument naming the first name given twice, if any: a
    document must not use one name for two of its ``what``."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise MalformedDocument(f"two {what} are named {name!r}", witness=name)
        seen.add(name)


def monoid_to_doc(monoid: OrderedMonoid) -> dict:
    elements = monoid.elements
    _distinct(elements, "monoid elements")
    return {
        "elements": list(elements),
        "identity": elements[monoid.identity],
        "mul": [[elements[b] for b in row] for row in monoid.mul],
        "leq": _order_doc(elements, monoid.leq),
    }


def monoid_from_doc(doc: Any) -> OrderedMonoid:
    _require(doc, ["elements", "identity", "mul"], "monoid")
    return build_ordered_monoid(
        doc["elements"], doc["identity"], doc["mul"], doc.get("leq", [])
    )


def coloring_to_doc(coloring: OpColoring) -> dict:
    return {
        "monoid": monoid_to_doc(coloring.monoid),
        "lattice": lattice_to_doc(coloring.lattice),
        "colors": {
            e: coloring.lattice.elements[c]
            for e, c in zip(coloring.monoid.elements, coloring.colors)
        },
    }


def coloring_from_doc(doc: Any) -> OpColoring:
    _require(doc, ["monoid", "lattice", "colors"], "coloring")
    monoid = monoid_from_doc(doc["monoid"])
    lattice = lattice_from_doc(doc["lattice"])
    return make_op_coloring(monoid, lattice, doc["colors"])


# -- automata ----------------------------------------------------------------

def automaton_to_doc(a: LatticeAutomaton) -> dict:
    _distinct(a.states, "states")
    return {
        "lattice": lattice_to_doc(a.lattice),
        "alphabet": list(a.alphabet),
        "states": list(a.states),
        "initial": a.states[a.initial],
        "delta": {
            s: {
                letter: a.states[a.delta[q][l]]
                for l, letter in enumerate(a.alphabet)
            }
            for q, s in enumerate(a.states)
        },
        "output": {
            s: a.lattice.elements[a.output[q]] for q, s in enumerate(a.states)
        },
    }


def automaton_from_doc(doc: Any) -> LatticeAutomaton:
    _require(doc, ["lattice", "alphabet", "states", "initial", "delta", "output"], "automaton")
    lattice = lattice_from_doc(doc["lattice"])
    return make_automaton(
        lattice, doc["alphabet"], doc["states"], doc["initial"], doc["delta"], doc["output"]
    )


def free_morphism_from_doc(doc: Any, target_alphabet: tuple[str, ...]) -> FreeMorphism:
    _require(doc, ["images"], "word morphism")
    images = doc["images"]
    if not isinstance(images, dict):
        raise MalformedDocument("word morphism images must be an object")
    return make_free_morphism(list(images.keys()), target_alphabet, images)


def triple_to_doc(t: RecognitionTriple) -> dict:
    return {
        "alphabet": list(t.alphabet),
        "images": {
            a: t.monoid.elements[g] for a, g in zip(t.alphabet, t.generator_images)
        },
        "monoid": monoid_to_doc(t.monoid),
        "coloring": {
            "colors": {
                e: t.coloring.lattice.elements[c]
                for e, c in zip(t.monoid.elements, t.coloring.colors)
            },
            "lattice": lattice_to_doc(t.coloring.lattice),
        },
    }


def triple_from_doc(doc: Any) -> RecognitionTriple:
    _require(doc, ["alphabet", "images", "monoid", "coloring"], "recognition triple")
    monoid = monoid_from_doc(doc["monoid"])
    _require(doc["coloring"], ["lattice", "colors"], "coloring")
    lattice = lattice_from_doc(doc["coloring"]["lattice"])
    coloring = make_op_coloring(monoid, lattice, doc["coloring"]["colors"])
    alphabet = name_tuple(doc["alphabet"], "alphabet letters")
    images = doc["images"]
    if not isinstance(images, dict):
        raise MalformedDocument("triple images must be an object")
    missing = [a for a in alphabet if a not in images]
    if missing:
        raise MalformedDocument(f"triple misses images for letters {missing!r}")
    return make_recognition_triple(
        alphabet, [images[a] for a in alphabet], monoid, coloring
    )


# -- Markov chains -------------------------------------------------------------

def chain_to_doc(chain: MarkovChain) -> dict:
    rows = {
        s: {chain.states[t]: fraction_text(Fraction(v, scale)) for t, v in row}
        for s, row, scale in zip(chain.states, chain.rows, chain.scales)
    }
    return {"states": list(chain.states), "rows": rows}


def chain_from_doc(doc: Any) -> MarkovChain:
    _require(doc, ["states", "rows"], "chain")
    return make_chain(doc["states"], doc["rows"])


def decomposition_to_doc(decomposition: Decomposition, chain: MarkovChain) -> dict:
    return {
        "letters": [
            {
                "name": name,
                "weight": fraction_text(weight),
                "map": {
                    chain.states[s]: chain.states[mapping[s]]
                    for s in range(chain.size)
                },
            }
            for name, mapping, weight in zip(
                decomposition.letters, decomposition.maps, decomposition.weights
            )
        ]
    }


def decomposition_from_doc(doc: Any, chain: MarkovChain) -> Decomposition:
    """A decomposition over ``chain``'s states, checked for shape only.

    Whether it reconstructs the chain is checked where it is used, by
    ``validate_decomposition`` (``analyze`` and ``simulating_automaton``
    run it).
    """
    _require(doc, ["letters"], "decomposition")
    if not isinstance(doc["letters"], list):
        raise MalformedDocument("decomposition letters must be a list")
    names: list[str] = []
    maps: list[tuple[int, ...]] = []
    weights = []
    for entry in doc["letters"]:
        _require(entry, ["name", "weight", "map"], "decomposition letter")
        names.append(entry["name"])
        weights.append(parse_fraction(entry["weight"]))
        mapping = entry["map"]
        if not isinstance(mapping, dict):
            raise MalformedDocument(f"map of letter {entry['name']!r} must be an object")
        missing = [s for s in chain.states if s not in mapping]
        if missing:
            raise MalformedDocument(
                f"letter {entry['name']!r} misses states {missing!r}"
            )
        maps.append(tuple(chain.state(mapping[s]) for s in chain.states))
    return Decomposition(
        letters=name_tuple(names, "decomposition letter names"),
        maps=tuple(maps),
        weights=tuple(weights),
    )
