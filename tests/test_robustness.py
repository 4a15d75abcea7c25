"""Mutated documents and arguments give a result or an error document.

Every ``serialize.*_from_doc`` loader gets documents with a few nodes
replaced or deleted, and may only raise ``LatlangError``.  ``cli.run`` gets
the same documents through the commands that read them, and free text in
its word and flag arguments; it must never raise, and exit code 1 always
comes with an ``{"error": ...}`` document.  Files that are not UTF-8 and
inputs past the interpreter's limits (integer literals longer than Python
converts from text, brackets nested deeper than the JSON parser recurses)
give an error document too, and exact answers longer than Python converts
to text are written in full.
"""

import copy
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import pytest

from latlang import load_chain, make_recognition_triple, syntactic
from latlang import serialize as ser
from latlang.cli import run
from latlang.errors import BadFraction, LatlangError, MalformedDocument
from latlang.markov import fraction_text, parse_fraction

from conftest import u1

DATA = Path(__file__).parent / "data"
AUTOMATON = str(DATA / "two_sink_automaton.json")
CHAIN = str(DATA / "two_sink_chain.json")
DECOMPOSITION = str(DATA / "two_sink_decomposition.json")

_automaton = ser.automaton_from_doc(json.loads(Path(AUTOMATON).read_text()))
_synt = syntactic(_automaton)
_chain = ser.chain_from_doc(json.loads(Path(CHAIN).read_text()))


def _plain(doc):
    """A written document as it reads back: nested lists where it holds a
    ``serialize.Table``, so a mutation can reach every table entry."""
    return json.loads(ser.canonical_dumps(doc))


DOCS = {
    "lattice": json.loads((DATA / "two_sink_lattice.json").read_text()),
    "lattice_morphism": {"mapping": {"{}": "{}", "{1}": "{1}", "{2}": "{1,2}", "{1,2}": "{1,2}"}},
    "monoid": _plain(ser.monoid_to_doc(u1())),
    "coloring": _plain(ser.coloring_to_doc(_synt.coloring)),
    "automaton": json.loads(Path(AUTOMATON).read_text()),
    "free_morphism": {"images": {"x": "ab", "y": ["c"], "z": ""}},
    "triple": _plain(ser.triple_to_doc(
        make_recognition_triple(
            _synt.alphabet, _synt.generator_images, _synt.coloring
        )
    )),
    "chain": json.loads(Path(CHAIN).read_text()),
    "decomposition": json.loads(Path(DECOMPOSITION).read_text()),
}

LOADERS = {
    "lattice_from_doc": ("lattice", ()),
    "lattice_morphism_from_doc": ("lattice_morphism", (_automaton.lattice,)),
    "monoid_from_doc": ("monoid", ()),
    "coloring_from_doc": ("coloring", ()),
    "automaton_from_doc": ("automaton", ()),
    "free_morphism_from_doc": ("free_morphism", (_automaton.alphabet,)),
    "triple_from_doc": ("triple", ()),
    "chain_from_doc": ("chain", ()),
    "decomposition_from_doc": ("decomposition", (_chain,)),
}

# "{doc}" stands for the mutated document's path.
DOC_COMMANDS = {
    "lattice": [["lattice", "check", "{doc}"], ["lattice", "dual", "{doc}"]],
    "lattice_morphism": [["lang", "op", "recolor", AUTOMATON, "--morphism", "{doc}"]],
    "monoid": [
        ["monoid", "check", "{doc}"],
        ["monoid", "product", "{doc}", "{doc}"],
        ["monoid", "divides", "{doc}", "{doc}"],
        ["monoid", "aperiodic", "{doc}"],
        ["variety", "subdirect", "{doc}"],
    ],
    "automaton": [
        ["lang", "minimize", "{doc}"],
        ["lang", "syntactic", "{doc}"],
        ["lang", "reconstruct", "{doc}"],
        ["lang", "shuffle-check", "{doc}"],
        ["lang", "eval", "{doc}", "--word", "abc"],
        ["lang", "cut", "{doc}", "--element", "{1}"],
        ["lang", "equiv", "{doc}", AUTOMATON],
        ["lang", "op", "join", "{doc}", AUTOMATON],
        ["lang", "op", "quotr", "{doc}", "--word", "ba"],
    ],
    "free_morphism": [["lang", "op", "invhom", AUTOMATON, "--hom", "{doc}"]],
    "chain": [
        ["markov", "decompose", "{doc}"],
        ["markov", "absorb", "{doc}"],
        ["markov", "analyze", "{doc}"],
    ],
    "decomposition": [["markov", "analyze", CHAIN, "--decomposition", "{doc}"]],
}

# "{arg}" stands for a drawn string.
ARG_COMMANDS = [
    ["lang", "eval", AUTOMATON, "--word", "{arg}"],
    ["lang", "op", "quotl", AUTOMATON, "--word", "{arg}"],
    ["lang", "cut", AUTOMATON, "--element", "{arg}"],
    ["lang", "shuffle-check", AUTOMATON, "--max-len", "{arg}"],
    ["markov", "analyze", CHAIN, "--initial", "{arg}"],
    ["markov", "analyze", CHAIN, "--horizon", "{arg}"],
    ["markov", "analyze", CHAIN, "--mode", "{arg}"],
    ["monoid", "divides", "{u1}", "{u1}", "--budget", "{arg}"],
    ["lattice", "check", "{arg}"],
    ["lang", "minimize", AUTOMATON, "--format", "{arg}"],
]


def _strings(node):
    """Every string in a document, keys included."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from([0.5, -1.0, 1e300]),
    st.text(alphabet="abcq01{},/-", max_size=4),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="abq01{}", max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutate(draw, node, names):
    """Replace or delete one node, reached by a random walk from the root."""
    if isinstance(node, (dict, list)) and node and draw(st.integers(0, 2)) > 0:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if draw(st.integers(0, 5)) == 0:
            del node[key]
        else:
            node[key] = _mutate(draw, node[key], names)
        return node
    return draw(_JSON | st.sampled_from(names))


@st.composite
def mutated(draw, kind):
    doc = copy.deepcopy(DOCS[kind])
    names = sorted(set(_strings(doc)))
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(draw, doc, names)
    return doc


def _assert_result_or_error_document(code, out):
    if code == 1:
        error = json.loads(out)["error"]
        assert set(error) == {"kind", "message", "witness"}
    else:
        assert code in (0, 2, 3)


def test_every_loader_is_fuzzed():
    assert set(LOADERS) == {name for name in dir(ser) if name.endswith("_from_doc")}


@settings(max_examples=600)
@given(st.data())
def test_loaders_raise_only_latlang_errors(data):
    name = data.draw(st.sampled_from(sorted(LOADERS)))
    kind, extra = LOADERS[name]
    doc = data.draw(mutated(kind))
    try:
        getattr(ser, name)(doc, *extra)
    except LatlangError:
        pass


@settings(max_examples=250)
@given(st.data())
def test_cli_answers_mutated_documents(tmp_path, data):
    kind = data.draw(st.sampled_from(sorted(DOC_COMMANDS)))
    command = data.draw(st.sampled_from(DOC_COMMANDS[kind]))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data.draw(mutated(kind))))
    code, out = run([str(path) if part == "{doc}" else part for part in command])
    _assert_result_or_error_document(code, out)


@settings(max_examples=250)
@given(st.data())
def test_cli_answers_any_word_or_flag(tmp_path, data):
    u1_path = tmp_path / "u1.json"
    u1_path.write_text(json.dumps(DOCS["monoid"]))
    command = data.draw(st.sampled_from(ARG_COMMANDS))
    arg = data.draw(
        st.one_of(
            st.text(alphabet="abcxq[]{},\"' -1", max_size=8),
            st.integers(-3, 12).map(str),
            _JSON.map(json.dumps),
        )
    )
    substitutes = {"{arg}": arg, "{u1}": str(u1_path)}
    code, out = run([substitutes.get(part, part) for part in command])
    _assert_result_or_error_document(code, out)


LONG_DIGITS = "1" * 5000
DEEP = "[" * 100_000 + "]" * 100_000
# the bundled chain with one probability 1 written as a 5000-digit fraction
LONG_FRACTION_CHAIN = json.dumps(DOCS["chain"]).replace(
    '"s12": "1"', f'"s12": "{LONG_DIGITS}/{LONG_DIGITS}"'
)


def _error_kind(code, out):
    _assert_result_or_error_document(code, out)
    assert code == 1
    return json.loads(out)["error"]["kind"]


def test_long_integer_literal_gives_an_error_document(tmp_path):
    path = tmp_path / "monoid.json"
    text = json.dumps(DOCS["monoid"])
    path.write_text(text.replace('"identity": "1"', f'"identity": {LONG_DIGITS}'))
    assert LONG_DIGITS in path.read_text()
    assert _error_kind(*run(["monoid", "check", str(path)])) == "MalformedDocument"
    word = f"[{LONG_DIGITS}]"
    assert _error_kind(*run(["lang", "eval", AUTOMATON, "--word", word])) == "MalformedDocument"


@pytest.mark.parametrize("command", [
    ["lattice", "check", "{doc}"],
    ["markov", "absorb", "{doc}"],
    ["lang", "eval", AUTOMATON, "--word", DEEP],
])
def test_deep_nesting_gives_an_error_document(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, out = run([str(path) if part == "{doc}" else part for part in command])
    assert _error_kind(code, out) == "MalformedDocument"


@pytest.mark.parametrize("command", [
    ["lattice", "check", "{doc}"],
    ["monoid", "check", "{doc}"],
    ["lang", "minimize", "{doc}"],
    ["variety", "subdirect", "{doc}"],
    ["markov", "absorb", "{doc}"],
])
@pytest.mark.parametrize("raw", [
    b'{"elements": ["\xe9"], "cover": []}',  # Latin-1
    '{"elements": ["a"], "cover": []}'.encode("utf-16"),  # with its byte-order mark
], ids=["latin-1", "utf-16"])
def test_file_not_in_utf8_gives_an_error_document(tmp_path, command, raw):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    code, out = run([str(path) if part == "{doc}" else part for part in command])
    assert _error_kind(code, out) == "MalformedDocument"
    assert str(path) in json.loads(out)["error"]["message"]


def test_long_fraction_gives_an_error_document(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(LONG_FRACTION_CHAIN)
    for command in ("absorb", "decompose", "analyze"):
        assert _error_kind(*run(["markov", command, str(path)])) == "BadFraction"


def _value_of(digits):
    """The integer a decimal text of any length writes, read in pieces
    short enough for ``int``."""
    value = 0
    for start in range(0, len(digits), 1000):
        piece = digits[start:start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def _fraction_of(text):
    num, _, den = text.partition("/")
    sign = -1 if num.startswith("-") else 1
    return Fraction(sign * _value_of(num.lstrip("-")), _value_of(den or "1"))


def test_long_exact_answer_is_written_out():
    """An exact word measure past the interpreter's int-to-text limit is
    printed in full: at horizon 9013 the masses' texts pass 4300 digits,
    and they still sum to one."""
    code, out = run(["markov", "analyze", CHAIN, "--horizon", "9013"])
    _assert_result_or_error_document(code, out)
    assert code == 0
    masses = json.loads(out)["word_measure"]["masses"]
    assert max(map(len, masses.values())) > 8600
    assert sum(map(_fraction_of, masses.values())) == 1


def test_long_row_total_gives_an_error_document(tmp_path):
    """A row whose entries each parse, but whose total has a denominator of
    more than 4300 digits, is named with that total written in full."""
    d1, d3 = 10**2200 + 1, 10**2200 + 3
    rows = {"s": {"s": f"1/{d1}", "t": f"1/{d3}"}, "t": {"t": "1"}}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"states": ["s", "t"], "rows": rows}))
    expected = Fraction(1, d1) + Fraction(1, d3)
    for command in ("absorb", "decompose"):
        code, out = run(["markov", command, str(path)])
        assert _error_kind(code, out) == "RowSumNotOne"
        state, total = json.loads(out)["error"]["witness"]
        assert state == "s" and len(total) > 4400
        assert _fraction_of(total) == expected


@pytest.mark.parametrize("value", [
    Fraction(0), Fraction(-7, 3), Fraction(10**5000 + 7), Fraction(-(10**4400), 3**9000),
    Fraction(1, 10**9999), Fraction(123 * 10**6000 + 45, 7**5000),
])
def test_fraction_text_is_str_at_any_length(value):
    """``fraction_text`` is ``str`` where ``str`` works, and past the digit
    limit writes the same value with no leading zeros."""
    text = fraction_text(value)
    if len(text) < 4000:
        assert text == str(value)
    assert _fraction_of(text) == value
    assert not text.lstrip("-").startswith("0") or value == 0


def test_chain_loader_refuses_inputs_past_the_limits():
    with pytest.raises(BadFraction):
        parse_fraction(f"{LONG_DIGITS}/3")
    with pytest.raises(BadFraction):
        load_chain(LONG_FRACTION_CHAIN)
    for text in (DEEP, f'{{"states": [{LONG_DIGITS}], "rows": {{}}}}'):
        with pytest.raises(MalformedDocument):
            load_chain(text)


@pytest.mark.parametrize("text", [
    "{not json",
    "[]",
    '"x"',
    '{"states": ["a"]}',
    '{"states": ["a"], "rows": []}',
    '{"states": ["a"], "rows": {"a": []}}',
    '{"states": ["a"], "rows": {"a": {"a": 1.0}}}',
], ids=["not-json", "list", "string", "no-rows", "list-rows", "list-row", "float-entry"])
def test_one_chain_reader(tmp_path, text):
    """``latlang.load_chain`` and ``markov absorb`` read a chain through one
    reader: on a malformed chain text both give the same error kind,
    message and witness, but for the file name the CLI adds to a JSON
    parse error."""
    path = tmp_path / "chain.json"
    path.write_text(text)
    code, out = run(["markov", "absorb", str(path)])
    assert _error_kind(code, out)
    with pytest.raises(LatlangError) as caught:
        load_chain(text)
    expected = caught.value.to_doc()
    expected["message"] = expected["message"].replace("invalid JSON", f"invalid JSON in {path}")
    assert json.loads(out)["error"] == expected
