"""The table writer against the JSON encoder it replaces.

``canonical_dumps`` writes each ``Table`` from its positions and splices
the text into one C-encoder pass; ``text_dumps`` writes the indented text
of ``--format text``.  Both must give, byte for byte, what ``json.dumps``
gives on the document with each table written out as a comprehension of
names, as ``monoid_to_doc`` used to build it.
"""

import dataclasses
import json
import random

import pytest

from latlang import direct_product, syntactic
from latlang import serialize as ser
from latlang.errors import SizeCapExceeded
from latlang.serialize import (
    Table,
    canonical_dumps,
    coloring_to_doc,
    monoid_to_doc,
    plain,
    text_dumps,
    triple_to_doc,
)
from latlang.variety import enumerate_ordered_monoids, random_automaton, random_lattice

from conftest import reference_monoid_to_doc, small_monoids

CANONICAL = {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": True}
# quotes, backslashes, non-ASCII (one outside the BMP), control characters,
# the mark's character and strings whose encoding holds the mark's encoding
ODD_NAMES = ['"', "\\", "ä", "ℓ", "\U0001d49c", "\x01", "\n", "\x7f", "\x00",
             "\\u0000", "a\"b", "\x00\x00", '"\x00', "1", "ε"]


def _lists(doc):
    """The document with each table as the comprehension of names that
    ``monoid_to_doc`` built before tables were written from positions."""
    if isinstance(doc, Table):
        return [[doc.names[b] for b in row] for row in doc.rows]
    if isinstance(doc, dict):
        return {key: _lists(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_lists(value) for value in doc]
    return doc


def _check(doc):
    expected = json.dumps(_lists(doc), **CANONICAL)
    assert canonical_dumps(doc) == expected
    assert json.dumps(doc, default=plain, **CANONICAL) == expected
    assert text_dumps(doc) == json.dumps(_lists(doc), sort_keys=True, indent=2, ensure_ascii=False)


def _renamed(monoid, names):
    return dataclasses.replace(monoid, elements=tuple(names))


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``Table.text`` (the spliced path) and ``Table.plain`` (the
    plain encoding) calls."""
    counts = {"text": 0, "plain": 0}
    for name in counts:
        real = getattr(Table, name)

        def counted(table, real=real, name=name):
            counts[name] += 1
            return real(table)

        monkeypatch.setattr(Table, name, counted)
    return counts


def test_table_reads_as_its_nested_list():
    m = _renamed(enumerate_ordered_monoids(2)[0], ["e", "z"])
    table = monoid_to_doc(m)["mul"]
    lists = [["e", "z"], ["z", "z"]] if m.mul[1][1] == 1 else [["e", "z"], ["z", "e"]]
    assert len(table) == 2 and table[1] == lists[1] and table[-1] == lists[-1]
    assert table[:1] == lists[:1] and list(table) == lists and table.plain() == lists
    assert table == lists and lists == table and table == Table(m.elements, m.mul)
    assert table != [["e", "z"]] and table != lists[0]
    assert repr(table) == f"Table({lists!r})"
    assert ser.monoid_from_doc(monoid_to_doc(m)) == m
    _check({"empty": Table([], []), "one": Table(["e"], [[0]])})


def test_writer_matches_json_dumps_on_small_monoids():
    rng = random.Random(3301)
    for m in small_monoids():
        _check(monoid_to_doc(m))
        _check(monoid_to_doc(_renamed(m, rng.sample(ODD_NAMES, m.size))))


def test_writer_matches_json_dumps_on_products():
    pool = small_monoids()
    rng = random.Random(3302)
    sizes = []
    for _ in range(40):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        try:
            product, _ = direct_product(factors, max_size=64)
        except SizeCapExceeded:
            continue
        sizes.append(product.size)
        _check(monoid_to_doc(product))
    assert max(sizes) > 16


def test_writer_matches_json_dumps_on_syntactic_monoids():
    rng = random.Random(3303)
    for i in range(60):
        alphabet = (("a", "b"), ("ä", '"'), ("\x00", "b"), ("\\", "\n", "c"))[i % 4]
        lattice = random_lattice(rng, 4)
        synt = syntactic(random_automaton(rng, lattice, 4, alphabet))
        coloring = coloring_to_doc(synt.coloring)
        # ``lang syntactic`` holds its monoid document twice
        _check({"coloring": coloring, "monoid": coloring["monoid"]})
        _check(triple_to_doc(synt))


def test_syntactic_labels_are_names_or_renamed_by_position():
    """Over letters of several characters, the syntactic labels (least
    words) can clash.  Distinct labels are the document's names, byte for
    byte as the plain-name document; clashing ones are each written as
    ``<label>#<position>``, and the documents load back."""
    rng = random.Random(3304)
    seen = {"distinct": 0, "renamed": 0}
    for i in range(90):
        alphabet = (("a", "b", "ab"), ("x", "xx"), ("ε", "a"))[i % 3]
        lattice = random_lattice(rng, 3)
        synt = syntactic(random_automaton(rng, lattice, 4, alphabet))
        m = synt.monoid
        doc = monoid_to_doc(m)
        if len(set(m.elements)) == m.size:
            seen["distinct"] += 1
            assert canonical_dumps(doc) == json.dumps(reference_monoid_to_doc(m), **CANONICAL)
        else:
            seen["renamed"] += 1
            assert doc["elements"] == [f"{label}#{p}" for p, label in enumerate(m.elements)]
        loaded = ser.monoid_from_doc(doc)
        assert (loaded.mul, loaded.leq) == (m.mul, m.leq)
        assert ser.triple_from_doc(triple_to_doc(synt)).generator_images == synt.generator_images
        assert ser.coloring_from_doc(coloring_to_doc(synt.coloring)).colors == synt.coloring.colors
    assert min(seen.values()) > 10, seen


def test_one_table_object_is_written_once(calls):
    m = _renamed(small_monoids()[-1], ["w", "x", "y", "z"])
    doc = monoid_to_doc(m)
    _check({"a": doc, "b": doc, "c": [doc["mul"], monoid_to_doc(m)["mul"]]})
    calls.update(text=0, plain=0)
    canonical_dumps({"a": doc, "b": doc, "c": [doc["mul"], monoid_to_doc(m)["mul"]]})
    assert calls == {"text": 2, "plain": 0}


def test_a_string_like_the_mark_takes_the_plain_encoding(calls):
    m = small_monoids()[-1]
    for names, fallback in ((["a", "b", "c", "d"], False), (["a", "\x00", "c", "d"], True),
                            (["a", '"\x00', "c", "d"], True), (["a", "\\u0000", "c", "d"], False)):
        doc = monoid_to_doc(_renamed(m, names))
        calls.update(text=0, plain=0)
        text = canonical_dumps(doc)
        assert calls == ({"text": 0, "plain": 1} if fallback else {"text": 1, "plain": 0}), names
        assert text == json.dumps(_lists(doc), **CANONICAL)
    calls.update(text=0, plain=0)
    assert canonical_dumps({"mul": monoid_to_doc(m)["mul"], "note": "\x00"}) == json.dumps(
        {"mul": _lists(monoid_to_doc(m)["mul"]), "note": "\x00"}, **CANONICAL
    )
    assert calls == {"text": 0, "plain": 1}


def test_enumerated_monoids_in_one_document():
    monoids = enumerate_ordered_monoids(4)
    doc = {"count": len(monoids), "monoids": [monoid_to_doc(m) for m in monoids]}
    assert len(monoids) == 549
    _check(doc)


def test_other_values_are_refused():
    for dumps in (canonical_dumps, text_dumps):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            dumps({"mul": Table(["1"], [[0]]), "x": {1}})
