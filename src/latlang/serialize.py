"""JSON documents for every value type, with canonical serialization.

This module alone builds documents and reads JSON text: the rest of the
library returns values (a ``markov.Analysis``, a
``variety.VerificationReport``), which the writers here turn into
documents.  Only ``cli`` and the package's ``__init__`` import it.

It alone turns labels into document names: every writer names a monoid's
elements and a machine's states by ``document_names``, which keeps the
labels when they are distinct and otherwise writes each as
``<label>#<position>``.

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
from functools import singledispatch
from json.encoder import encode_basestring_ascii
from typing import Any

from .automaton import (
    FreeMorphism,
    LatticeAutomaton,
    Word,
    evaluate,
    make_automaton,
    make_free_morphism,
    word_name,
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
    Analysis,
    Decomposition,
    MarkovChain,
    fraction_text,
    make_chain,
    parse_fraction,
)
from .monoid import DivisionVerdict, OrderedMonoid, build_ordered_monoid, is_aperiodic
from .syntactic import RecognitionTriple, SyntacticResult, make_recognition_triple
from .variety import VerificationReport

_SET_NAME_RE = re.compile(r"^\{.*\}$")

# A table stands in the C encoder's pass as this one-character string, and
# its text goes where the string's encoding lands.
_MARK = "\0"
_MARK_TEXT = json.dumps(_MARK)
# Canonical output.  A document may hold one dict twice (``lang syntactic``
# does) but never holds itself, so the circular-reference check is off.
_CANONICAL = {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": True,
              "check_circular": False}


class Table(Sequence):
    """A document value for a table of element positions named by ``names``.

    It reads as the nested list of names it stands for: ``len``, indexing
    and iteration give rows of names, ``==`` holds against another table or
    a nested list, and ``plain()`` returns the lists.  ``canonical_dumps``
    writes it from the positions, each name quoted once.
    """

    __slots__ = ("names", "rows")

    def __init__(self, names: Sequence[str], rows: Sequence[Sequence[int]]):
        self.names = names
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.plain()[i]
        return list(map(self.names.__getitem__, self.rows[i]))

    def __eq__(self, other: Any) -> bool:
        return self.plain() == (other.plain() if isinstance(other, Table) else other)

    def __repr__(self) -> str:
        return f"Table({self.plain()!r})"

    def plain(self) -> list[list[str]]:
        name = self.names.__getitem__
        return [list(map(name, row)) for row in self.rows]

    def text(self) -> str:
        """The table's canonical JSON text: each name quoted once, each row
        joined whole, and the rows joined in one more join."""
        quoted = list(map(encode_basestring_ascii, self.names)).__getitem__
        rows = "],[".join([",".join(map(quoted, row)) for row in self.rows])
        return f"[[{rows}]]" if self.rows else "[]"


def plain(value: Any) -> list[list[str]]:
    """The ``default`` hook that writes a ``Table`` as its nested lists, so
    ``json.dumps(doc, default=plain)`` writes any document."""
    if isinstance(value, Table):
        return value.plain()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_dumps(doc: Any) -> str:
    """``json.dumps(doc, default=plain)`` with sorted keys, compact separators
    and ASCII output, in one C-encoder pass.

    Each table is written as a mark, and the text is split once on the
    mark's encoding; each table's text, written once per table object, goes
    into the gaps.  A string of the document that encodes as the mark does
    gives more gaps than tables, and the document is then written plain.
    """
    tables: list[Table] = []

    def mark(value: Any) -> str:
        if isinstance(value, Table):
            tables.append(value)
            return _MARK
        return plain(value)

    text = json.dumps(doc, default=mark, **_CANONICAL)
    if not tables:
        return text
    parts = text.split(_MARK_TEXT)
    if len(parts) != len(tables) + 1:
        return json.dumps(doc, default=plain, **_CANONICAL)
    texts = {id(table): table for table in tables}
    texts = {key: table.text() for key, table in texts.items()}
    pieces = [parts[0]]
    for table, part in zip(tables, parts[1:]):
        pieces += (texts[id(table)], part)
    return "".join(pieces)


def text_dumps(doc: Any) -> str:
    """The ``--format text`` writing of a document: indented, keys sorted,
    non-ASCII characters as they are."""
    return json.dumps(doc, default=plain, sort_keys=True, indent=2, ensure_ascii=False)


def parse_json(text: str, what: str = "JSON") -> Any:
    """The value of a JSON text; text that does not parse, or nests deeper
    than the parser recurses, is a ``MalformedDocument`` naming ``what``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid {what}: {exc}") from exc


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

def document_names(labels: Sequence[str]) -> Sequence[str]:
    """The names a document gives a monoid's elements or a machine's
    states, by position: the labels as they are when they are distinct,
    else every label followed by ``#`` and its position.  The text after
    the last ``#`` is the position, so the names are distinct either way."""
    if len(set(labels)) == len(labels):
        return labels
    return [f"{label}#{i}" for i, label in enumerate(labels)]


def monoid_to_doc(monoid: OrderedMonoid) -> dict:
    names = document_names(monoid.elements)
    return {
        "elements": list(names),
        "identity": names[monoid.identity],
        "mul": Table(names, monoid.mul),
        "leq": _order_doc(names, monoid.leq),
    }


def monoid_from_doc(doc: Any) -> OrderedMonoid:
    _require(doc, ["elements", "identity", "mul"], "monoid")
    return build_ordered_monoid(
        doc["elements"], doc["identity"], doc["mul"], doc.get("leq", [])
    )


def _colors_doc(names: Sequence[str], coloring: OpColoring) -> dict:
    """The coloring's lattice value of each element, by the element's name."""
    values = coloring.lattice.elements
    return {name: values[c] for name, c in zip(names, coloring.colors)}


def coloring_to_doc(coloring: OpColoring) -> dict:
    monoid = monoid_to_doc(coloring.monoid)
    return {
        "monoid": monoid,
        "lattice": lattice_to_doc(coloring.lattice),
        "colors": _colors_doc(monoid["elements"], coloring),
    }


def coloring_from_doc(doc: Any) -> OpColoring:
    _require(doc, ["monoid", "lattice", "colors"], "coloring")
    monoid = monoid_from_doc(doc["monoid"])
    lattice = lattice_from_doc(doc["lattice"])
    return make_op_coloring(monoid, lattice, doc["colors"])


# -- automata ----------------------------------------------------------------

def automaton_to_doc(a: LatticeAutomaton) -> dict:
    names = document_names(a.states)
    values = a.lattice.elements
    return {
        "lattice": lattice_to_doc(a.lattice),
        "alphabet": list(a.alphabet),
        "states": list(names),
        "initial": names[a.initial],
        "delta": {
            s: {letter: names[t] for letter, t in zip(a.alphabet, row)}
            for s, row in zip(names, a.delta)
        },
        "output": {s: values[c] for s, c in zip(names, a.output)},
    }


def output_doc(a: LatticeAutomaton, word: Word) -> Any:
    """The value document of a machine's output on a word."""
    return value_doc(a.lattice.elements[evaluate(a, word)])


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


def _images_doc(names: Sequence[str], t: RecognitionTriple) -> dict:
    """Each letter's image, by the image's name."""
    return {a: names[g] for a, g in zip(t.alphabet, t.generator_images)}


def triple_to_doc(t: RecognitionTriple) -> dict:
    monoid = monoid_to_doc(t.monoid)
    names = monoid["elements"]
    return {
        "alphabet": list(t.alphabet),
        "images": _images_doc(names, t),
        "monoid": monoid,
        "coloring": {
            "colors": _colors_doc(names, t.coloring),
            "lattice": lattice_to_doc(t.coloring.lattice),
        },
    }


def syntactic_to_doc(synt: SyntacticResult) -> dict:
    """The ``lang syntactic`` document: the syntactic monoid, the letters'
    images, the coloring and each element's least word, all by the
    monoid's names."""
    coloring = coloring_to_doc(synt.coloring)
    names = coloring["monoid"]["elements"]
    return {
        "monoid": coloring["monoid"],
        "images": _images_doc(names, synt),
        "coloring": coloring,
        "witnesses": {name: word_doc(w) for name, w in zip(names, synt.witnesses)},
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


def load_chain(text: str) -> MarkovChain:
    """A chain from the text of its document, {"states": [...], "rows": {s:
    {t: "p/q"}}}: one JSON parse, then ``chain_from_doc``.

    Omitted entries are zero; every row must sum exactly to one.
    """
    return chain_from_doc(parse_json(text))


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


def absorption_to_doc(absorption: dict[int, dict[str, Fraction]]) -> dict[str, dict[str, str]]:
    """Absorption probabilities (``absorption_probabilities``) as a
    document: "C1", "C2", ... to state name to fraction text, states
    sorted by name."""
    return {
        f"C{c + 1}": {state: fraction_text(p) for state, p in sorted(per_state.items())}
        for c, per_state in absorption.items()
    }


def analysis_to_doc(analysis: Analysis) -> dict:
    """The ``markov analyze`` document of an analysis: the chain's classes,
    both machines, the analyzed language's syntactic monoid, shuffle
    verdict, falsifier and word measure, and the absorption
    probabilities."""
    chain, analyzed = analysis.chain, analysis.analyzed
    structure, synt, falsifier = chain.structure, analysis.syntactic, analysis.falsifier
    values = analyzed.lattice.elements
    basic, monoid = automaton_to_doc(analysis.basic), monoid_to_doc(synt.monoid)
    names = monoid["elements"]
    return {
        "states": list(chain.states),
        "initial": basic["initial"],
        "mode": analysis.mode,
        "classes": [
            {
                "states": [chain.states[s] for s in members],
                "ergodic": bool(flag),
            }
            for members, flag in zip(structure.classes, structure.ergodic)
        ],
        "transient_states": [chain.states[s] for s in structure.transient_states],
        "class_dag": [list(edge) for edge in structure.class_dag],
        "decomposition": decomposition_to_doc(analysis.decomposition, chain),
        "automaton_basic": basic,
        "automaton_reachable": automaton_to_doc(analysis.reachable),
        "syntactic": {
            "size": synt.monoid.size,
            "order": [
                [names[a], names[b]]
                for a, row in enumerate(synt.monoid.leq)
                for b in bit_positions(row & ~(1 << a))
            ],
            "monoid": monoid,
            "aperiodic": is_aperiodic(synt.monoid),
            "identity_is_greatest": analysis.algebraic,
        },
        "shuffle": {
            "algebraic": analysis.algebraic,
            "bound": analysis.bound,
            "falsifier": None
            if falsifier is None
            else {
                "subword": word_name(falsifier[0]),
                "superword": word_name(falsifier[1]),
                "value_subword": values[evaluate(analyzed, falsifier[0])],
                "value_superword": values[evaluate(analyzed, falsifier[1])],
            },
        },
        "absorption": absorption_to_doc(analysis.absorption),
        "word_measure": {
            "horizon": analysis.horizon,
            "masses": {
                values[e]: fraction_text(m) for e, m in sorted(analysis.masses.items())
            },
        },
    }


# -- verdicts and reports ------------------------------------------------------

def verdict_to_doc(verdict: DivisionVerdict) -> dict:
    doc: dict = {"verdict": verdict.kind}
    if verdict.kind == "yes":
        doc["witness"] = {
            "generators": list(verdict.generators or ()),
            "mapping": verdict.mapping,
        }
    return doc


@singledispatch
def _report_value(value: Any) -> Any:
    """A report's instance or witness as a document: each monoid, machine
    and triple as its document, dicts and lists value by value, and every
    other value as it is."""
    return value


_report_value.register(OrderedMonoid, monoid_to_doc)
_report_value.register(LatticeAutomaton, automaton_to_doc)
_report_value.register(RecognitionTriple, triple_to_doc)
_report_value.register(list, lambda values: list(map(_report_value, values)))
_report_value.register(dict, lambda part: {key: _report_value(v) for key, v in part.items()})


def report_to_doc(report: VerificationReport) -> dict:
    """A verification report's document, with each monoid, machine and
    triple its instance and witness hold written as its document."""
    return {
        "check": report.check,
        "instance": _report_value(report.instance),
        "verdict": report.verdict,
        "witness": _report_value(report.witness),
    }
