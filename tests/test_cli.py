import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from latlang.cli import run
from latlang.errors import MalformedDocument
from latlang.markov import validate_decomposition
from latlang.serialize import (
    automaton_from_doc,
    automaton_to_doc,
    chain_from_doc,
    chain_to_doc,
    coloring_from_doc,
    decomposition_from_doc,
    lattice_from_doc,
    lattice_to_doc,
    monoid_from_doc,
    monoid_to_doc,
    plain,
    triple_from_doc,
    value_doc,
    word_doc,
)

DATA = Path(__file__).parent / "data"
AUTOMATON = str(DATA / "two_sink_automaton.json")
CHAIN = str(DATA / "two_sink_chain.json")
DECOMPOSITION = str(DATA / "two_sink_decomposition.json")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, default=plain))
    return str(path)


def test_value_doc():
    assert value_doc("{1}") == ["1"]
    assert value_doc("{}") == []
    assert value_doc("{1,2}") == ["1", "2"]
    assert value_doc("plain") == "plain"


def test_word_doc():
    assert word_doc(("a", "b")) == "ab"
    assert word_doc(()) == ""
    assert word_doc(("ℓ1", "ℓ2")) == ["ℓ1", "ℓ2"]


def test_eval_values():
    code, out = run(["lang", "eval", AUTOMATON, "--word", "ab"])
    assert code == 0
    assert out == '{"value":["1"]}\n'
    code, out = run(["lang", "eval", AUTOMATON, "--word", "bbc"])
    assert json.loads(out) == {"value": ["1", "2"]}


def test_equiv_reflexive_and_difference(tmp_path):
    code, _ = run(["lang", "equiv", AUTOMATON, AUTOMATON])
    assert code == 0
    doc = json.loads(Path(AUTOMATON).read_text())
    doc["output"]["t1"] = "{1}"
    other = write(tmp_path, "other.json", doc)
    code, out = run(["lang", "equiv", AUTOMATON, other])
    assert code == 2
    payload = json.loads(out)
    assert payload["equivalent"] is False
    assert "word" in payload["witness"]


def test_minimize_roundtrip():
    code, out = run(["lang", "minimize", AUTOMATON])
    assert code == 0
    rebuilt = automaton_from_doc(json.loads(out))
    assert len(rebuilt.states) == 4


def test_lang_ops(tmp_path):
    code, out = run(["lang", "op", "join", AUTOMATON, AUTOMATON])
    assert code == 0
    automaton_from_doc(json.loads(out))

    code, out = run(["lang", "op", "quotl", AUTOMATON, "--word", "a"])
    assert code == 0
    shifted = automaton_from_doc(json.loads(out))
    assert shifted.states[shifted.initial] == "s11"

    hom = write(tmp_path, "hom.json", {"images": {"x": "ab"}})
    code, out = run(["lang", "op", "invhom", AUTOMATON, "--hom", hom])
    assert code == 0
    composed = automaton_from_doc(json.loads(out))
    assert composed.alphabet == ("x",)

    morphism = write(
        tmp_path,
        "alpha.json",
        {"mapping": {"{}": "{}", "{1}": "{}", "{2}": "{}", "{1,2}": "{1,2}"}},
    )
    code, out = run(["lang", "op", "recolor", AUTOMATON, "--morphism", morphism])
    assert code == 0
    automaton_from_doc(json.loads(out))


def test_syntactic_command():
    code, out = run(["lang", "syntactic", AUTOMATON])
    assert code == 0
    doc = json.loads(out)
    monoid = monoid_from_doc(doc["monoid"])
    assert monoid.size == 4
    coloring_from_doc(doc["coloring"])
    assert doc["witnesses"][doc["monoid"]["identity"]] == ""


def test_cut_command():
    code, out = run(["lang", "cut", AUTOMATON, "--element", "{1}"])
    assert code == 0
    machine = automaton_from_doc(json.loads(out))
    assert set(machine.output) <= {machine.lattice.top, machine.lattice.bottom}


def test_reconstruct_command():
    code, out = run(["lang", "reconstruct", AUTOMATON])
    assert code == 0
    doc = json.loads(out)
    assert doc["equal"] is True
    triple_from_doc(doc["triple"])


def test_shuffle_check_exit_codes(tmp_path):
    code, out = run(["lang", "shuffle-check", AUTOMATON, "--max-len", "4"])
    assert code == 2
    doc = json.loads(out)
    assert doc["shuffle_ideal"] is False
    assert doc["falsifier"]["subword"] == "a"
    assert doc["falsifier"]["superword"] == "ba"
    assert doc["witness_element"]

    contains_a_doc = {
        "lattice": {"elements": ["0", "1"], "cover": [["0", "1"]]},
        "alphabet": ["a", "b"],
        "states": ["q0", "q1"],
        "initial": "q0",
        "delta": {"q0": {"a": "q1", "b": "q0"}, "q1": {"a": "q1", "b": "q1"}},
        "output": {"q0": "1", "q1": "0"},
    }
    path = write(tmp_path, "contains_a.json", contains_a_doc)
    code, out = run(["lang", "shuffle-check", path, "--max-len", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["shuffle_ideal"] is True and doc["falsifier"] is None

    # one letter, so that a search enumerating subwords would stay small in memory
    one_letter = dict(
        contains_a_doc,
        alphabet=["a"],
        delta={"q0": {"a": "q1"}, "q1": {"a": "q1"}},
    )
    path = write(tmp_path, "one_letter.json", one_letter)
    started = time.perf_counter()
    code, out = run(["lang", "shuffle-check", path, "--max-len", "10000"])
    assert time.perf_counter() - started < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["shuffle_ideal"] is True and doc["falsifier"] is None


def test_shuffle_check_asserts_both_ways(monkeypatch):
    # the package attribute latlang.syntactic is the function, not the module
    syntactic_module = importlib.import_module("latlang.syntactic")
    real = syntactic_module.shuffle_ideal_falsify
    calls = []

    def recording(a, max_len=None):
        calls.append(max_len)
        return real(a, max_len)

    monkeypatch.setattr(syntactic_module, "shuffle_ideal_falsify", recording)
    code, _ = run(["lang", "shuffle-check", AUTOMATON, "--max-len", "4"])
    assert code == 2 and calls == [None]
    calls.clear()
    code, out = run(["lang", "shuffle-check", AUTOMATON, "--max-len", "1"])
    assert code == 2 and json.loads(out)["falsifier"] is None
    assert calls == [None]  # one unbounded search, its pair longer than the bound

    monkeypatch.setattr(syntactic_module, "shuffle_ideal_falsify", lambda a, max_len=None: None)
    code, out = run(["lang", "shuffle-check", AUTOMATON, "--max-len", "4"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "InternalInconsistency"
    assert error["message"] == "algebraic shuffle verdict is false but no falsifying pair exists"


def test_lattice_commands(tmp_path):
    lattice_doc = {"elements": ["0", "1", "2"], "cover": [["0", "1"], ["1", "2"]]}
    path = write(tmp_path, "chain3.json", lattice_doc)
    code, out = run(["lattice", "check", path])
    assert code == 0
    emitted = json.loads(out)
    assert emitted["relation"] == "full"
    assert lattice_from_doc(emitted) == lattice_from_doc(lattice_doc)
    code, out = run(["lattice", "dual", path])
    assert code == 0
    dual_lat = lattice_from_doc(json.loads(out))
    assert dual_lat.le("2", "0")

    bad = write(tmp_path, "bad.json", {"elements": ["a"], "cover": []})
    code, out = run(["lattice", "check", bad])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "TrivialLattice"


def test_monoid_commands(tmp_path):
    u1_doc = {
        "elements": ["1", "z"],
        "identity": "1",
        "mul": [["1", "z"], ["z", "z"]],
        "leq": [["z", "1"]],
    }
    z2_doc = {
        "elements": ["1", "g"],
        "identity": "1",
        "mul": [["1", "g"], ["g", "1"]],
        "leq": [],
    }
    u1_path = write(tmp_path, "u1.json", u1_doc)
    z2_path = write(tmp_path, "z2.json", z2_doc)

    code, out = run(["monoid", "check", u1_path])
    assert code == 0
    monoid_from_doc(json.loads(out))

    code, out = run(["monoid", "product", u1_path, u1_path])
    assert code == 0
    assert monoid_from_doc(json.loads(out)).size == 4

    code, out = run(["monoid", "divides", u1_path, u1_path])
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"

    code, out = run(["monoid", "divides", z2_path, u1_path])
    assert code == 2
    assert json.loads(out)["verdict"] == "no"

    code, out = run(["monoid", "aperiodic", u1_path])
    assert code == 0
    code, out = run(["monoid", "aperiodic", z2_path])
    assert code == 2
    assert json.loads(out)["witness"]["period"] == 2


def test_malformed_monoid_documents_are_errors(tmp_path):
    u1_doc = {"elements": ["1", "z"], "identity": "1", "mul": [["1", "z"], ["z", "z"]]}
    for bad in (
        dict(u1_doc, leq=[["z", "1", "z"]]),
        dict(u1_doc, leq=[["z"]]),
        dict(u1_doc, elements="1z"),
        dict(u1_doc, elements=5),
        dict(u1_doc, leq=5),
        dict(u1_doc, mul=["1z", "zz"]),
        dict(u1_doc, mul=5),
    ):
        code, out = run(["monoid", "check", write(tmp_path, "bad.json", bad)])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "MalformedDocument"
    for bad, kind in (
        (dict(u1_doc, leq=[["z", ["1"]]]), "UnknownElement"),
        (dict(u1_doc, identity=["1"]), "UnknownElement"),
    ):
        code, out = run(["monoid", "check", write(tmp_path, "bad.json", bad)])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == kind


def test_malformed_lattice_documents_are_errors(tmp_path):
    chain = {"elements": ["a", "b"], "cover": [["a", "b"]]}
    for bad, kind in (
        (dict(chain, cover=[["a", "b", "a"]]), "MalformedDocument"),
        (dict(chain, cover=["ab"]), "MalformedDocument"),
        (dict(chain, cover=5), "MalformedDocument"),
        (dict(chain, elements=5), "MalformedDocument"),
        (dict(chain, elements="ab"), "MalformedDocument"),
        (dict(chain, relation="full", leq=5), "MalformedDocument"),
        (dict(chain, cover=[["a", ["b"]]]), "UnknownElement"),
    ):
        code, out = run(["lattice", "check", write(tmp_path, "bad.json", bad)])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == kind


_U1 = {"elements": ["1", "z"], "identity": "1", "mul": [["1", "z"], ["z", "z"]]}
_CHAIN2 = {"elements": ["a", "b"], "cover": [["a", "b"]]}


@pytest.mark.parametrize(
    "command, path, key, what",
    [
        (["lang", "minimize"], AUTOMATON, "alphabet", "alphabet letters"),
        (["lang", "minimize"], AUTOMATON, "states", "state names"),
        (["lattice", "check"], _CHAIN2, "elements", "element names"),
        (["monoid", "check"], _U1, "elements", "element names"),
        (["markov", "absorb"], CHAIN, "states", "state names"),
    ],
    ids=["machine-alphabet", "machine-states", "lattice-elements", "monoid-elements",
         "chain-states"],
)
def test_object_where_names_belong_is_refused(tmp_path, command, path, key, what):
    """An object whose keys are the right names is refused where a list of
    names belongs, as a string is; it is not read as its list of keys."""
    doc = json.loads(Path(path).read_text()) if isinstance(path, str) else path
    bad = dict(doc, **{key: {name: 5 for name in doc[key]}})
    code, out = run(command + [write(tmp_path, "bad.json", bad)])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "MalformedDocument",
        "message": f"{what} must be a list, not an object",
        "witness": None,
    }


def test_string_order_pairs_are_not_split(tmp_path):
    """A string where a list of order pairs belongs is rejected as a whole,
    not read as one pair per character."""
    monoid = monoid_to_doc(monoid_from_doc({"elements": ["1"], "identity": "1", "mul": [["1"]]}))
    lattice = {"elements": ["a", "b"], "cover": [["a", "b"]]}
    for command, bad, text in (
        (["monoid", "check"], dict(monoid, leq="1"), "'1'"),
        (["monoid", "check"], dict(monoid, leq=""), "''"),
        (["lattice", "check"], dict(lattice, cover="ab"), "'ab'"),
        (["lattice", "check"], dict(lattice, relation="full", leq="ab"), "'ab'"),
    ):
        code, out = run(command + [write(tmp_path, "bad.json", bad)])
        assert code == 1
        error = json.loads(out)["error"]
        assert (error["kind"], error["message"]) == (
            "MalformedDocument",
            f"order pairs must be a list, not {text}",
        )


def test_analyze_validates_a_decomposition_once(monkeypatch):
    """``markov analyze`` checks the reconstruction once, whether the
    decomposition is read from a file or computed."""
    import latlang.markov as markov_module

    check = markov_module.validate_decomposition
    calls = []

    def counting(chain, decomposition):
        calls.append(decomposition)
        return check(chain, decomposition)

    monkeypatch.setattr(markov_module, "validate_decomposition", counting)
    for extra in (["--decomposition", DECOMPOSITION], []):
        calls.clear()
        code, _ = run(["markov", "analyze", CHAIN, *extra])
        assert code == 0
        assert len(calls) == 1, extra


def test_malformed_automaton_chain_and_decomposition_documents_are_errors(tmp_path):
    automaton = json.loads(Path(AUTOMATON).read_text())
    chain = json.loads(Path(CHAIN).read_text())
    decomposition = json.loads(Path(DECOMPOSITION).read_text())
    letter, *others = decomposition["letters"]
    minimize, absorb = ["lang", "minimize"], ["markov", "absorb"]
    analyze = ["markov", "analyze", CHAIN, "--decomposition"]
    cases = [
        (minimize, dict(automaton, states=["q0", ["x"]]), "state names must be strings"),
        (minimize, dict(automaton, states=5), "state names must be a list"),
        (minimize, dict(automaton, states="t1"), "state names must be a list, not a string"),
        (minimize, dict(automaton, alphabet="abc"), "alphabet letters must be a list, not a string"),
        (
            minimize,
            dict(automaton, lattice={"elements": "01", "cover": [["0", "1"]]}),
            "element names must be a list, not a string",
        ),
        (minimize, dict(automaton, alphabet=[["a"]]), "alphabet letters must be strings"),
        (minimize, dict(automaton, delta=5), "delta table must be states x alphabet"),
        (
            minimize,
            dict(automaton, delta=dict(automaton["delta"], t1=5)),
            "partial automaton: no transitions for state 't1'",
        ),
        (minimize, dict(automaton, output=5), "output must be an object or a list"),
        (absorb, dict(chain, rows=dict(chain["rows"], t1=5)), "row 't1' must be an object"),
        (absorb, dict(chain, rows=[1]), "rows must be an object"),
        (absorb, dict(chain, states=[["s"]]), "state names must be strings"),
        (absorb, dict(chain, states="t1"), "states must be a nonempty list of distinct names"),
        (analyze, {"letters": 5}, "decomposition letters must be a list"),
        (
            analyze,
            {"letters": [dict(letter, map=5)] + others},
            "map of letter 'a' must be an object",
        ),
        (
            analyze,
            {"letters": [dict(letter, name=["a"])] + others},
            "decomposition letter names must be strings",
        ),
    ]
    for command, bad, message in cases:
        code, out = run(command + [write(tmp_path, "bad.json", bad)])
        assert code == 1, message
        error = json.loads(out)["error"]
        assert (error["kind"], error["message"]) == ("MalformedDocument", message)


def test_malformed_words_morphisms_colorings_and_triples_are_errors(tmp_path):
    lang_eval = ["lang", "eval", AUTOMATON, "--word"]
    quotl = ["lang", "op", "quotl", AUTOMATON, "--word"]
    quotr = ["lang", "op", "quotr", AUTOMATON, "--word"]
    invhom = ["lang", "op", "invhom", AUTOMATON, "--hom"]
    recolor = ["lang", "op", "recolor", AUTOMATON, "--morphism"]
    cases = [
        (lang_eval + ['[["x"]]'], "UnknownLetter", "unknown letter ['x']"),
        (quotl + ['[["x"]]'], "UnknownLetter", "unknown letter ['x']"),
        (quotr + ['[["x"]]'], "UnknownLetter", "unknown letter ['x']"),
        (lang_eval + ["[1]"], "UnknownLetter", "unknown letter 1"),
        (
            invhom + [write(tmp_path, "hom_int.json", {"images": {"a": 5}})],
            "MalformedDocument",
            "a word must be a string or a list, not 5",
        ),
        (
            invhom + [write(tmp_path, "hom_list.json", {"images": {"a": [["x"]]}})],
            "UnknownLetter",
            "unknown letter ['x']",
        ),
        (
            recolor + [write(tmp_path, "morphism.json", {"mapping": 5})],
            "MalformedDocument",
            "morphism mapping must be an object or a list",
        ),
        (
            invhom + [write(tmp_path, "hom_empty.json", {"images": {}})],
            "MalformedDocument",
            "morphism source alphabet must be nonempty",
        ),
    ]
    for argv, kind, message in cases:
        code, out = run(argv)
        assert code == 1, argv
        error = json.loads(out)["error"]
        assert (error["kind"], error["message"]) == (kind, message)

    coloring = json.loads(run(["lang", "syntactic", AUTOMATON])[1])["coloring"]
    triple = json.loads(run(["lang", "reconstruct", AUTOMATON])[1])["triple"]
    for loader, bad, message in (
        (coloring_from_doc, dict(coloring, colors=5), "coloring must be an object or a list"),
        (triple_from_doc, dict(triple, alphabet=5), "alphabet letters must be a list"),
        (
            triple_from_doc,
            dict(triple, alphabet="abc"),
            "alphabet letters must be a list, not a string",
        ),
        (triple_from_doc, dict(triple, alphabet=[["x"]]), "alphabet letters must be strings"),
        (triple_from_doc, dict(triple, images=5), "triple images must be an object"),
        (triple_from_doc, dict(triple, images="ab"), "triple images must be an object"),
    ):
        with pytest.raises(MalformedDocument) as caught:
            loader(bad)
        assert str(caught.value) == message


def _renamed_names(names):
    """Whether ``names`` are distinct and each is a label followed by
    ``#`` and its position."""
    return len(set(names)) == len(names) and all(
        name.rpartition("#")[2] == str(i) for i, name in enumerate(names)
    )


def test_derived_name_clashes_are_renamed_in_documents(tmp_path):
    """A label derived for two elements or two states is written as
    ``<label>#<position>`` for every element of that monoid or state of that
    machine, and the document loads back: the witness words "ε" of the
    identity and of the letter "ε", and "ab" of a·b and of the letter ab,
    the product names of ("1", "1,1") and ("1,1", "1"), and of the state
    pairs ("p", "p,p") and ("p,p", "p").  Names that clash only inside a
    computation, as in the subdirect factors of ["1", "ε"], never reach a
    document."""
    boolean = {"elements": ["0", "1"], "cover": [["0", "1"]]}
    eps = write(tmp_path, "eps.json", {
        "lattice": boolean, "alphabet": ["ε"], "states": ["q0", "q1"], "initial": "q0",
        "delta": {"q0": {"ε": "q1"}, "q1": {"ε": "q1"}}, "output": {"q0": "0", "q1": "1"},
    })
    ab = write(tmp_path, "ab.json", {
        "lattice": boolean, "alphabet": ["a", "b", "ab"], "states": ["q0", "q1", "q2"],
        "initial": "q0",
        "delta": {"q0": {"a": "q0", "b": "q1", "ab": "q2"},
                  "q1": {"a": "q0", "b": "q0", "ab": "q2"},
                  "q2": {"a": "q0", "b": "q2", "ab": "q2"}},
        "output": {"q0": "0", "q1": "1", "q2": "0"},
    })
    m = write(tmp_path, "m.json", {
        "elements": ["1", "1,1"], "identity": "1", "mul": [["1", "1,1"], ["1,1", "1,1"]],
    })
    a = write(tmp_path, "a.json", {
        "lattice": boolean, "alphabet": ["x"], "states": ["p", "p,p"], "initial": "p",
        "delta": {"p": {"x": "p,p"}, "p,p": {"x": "p"}}, "output": {"p": "0", "p,p": "1"},
    })
    chain = write(tmp_path, "chain.json", {
        "states": ["s0", "s1", "s2", "s3", "s4", "s5"],
        "rows": {"s0": {"s1": "1/4", "s3": "1/4", "s5": "1/2"}, "s1": {"s0": "1/4", "s3": "3/4"},
                 "s2": {"s2": "1/2", "s3": "1/4", "s4": "1/4"}, "s3": {"s0": "1/2", "s5": "1/2"},
                 "s4": {"s4": "1"}, "s5": {"s5": "1"}},
    })
    maps = {"a": [1, 0, 3, 0, 4, 5], "b": [3, 3, 4, 0, 4, 5], "ab": [5, 3, 2, 5, 4, 5]}
    weights = {"a": "1/4", "b": "1/4", "ab": "1/2"}
    decomposition = write(tmp_path, "d.json", {"letters": [
        {"name": name, "weight": weights[name],
         "map": {f"s{s}": f"s{t}" for s, t in enumerate(targets)}}
        for name, targets in maps.items()
    ]})

    def ok(argv):
        code, out = run(argv)
        assert code == 0, (argv, out)
        return json.loads(out)

    def renamed_monoid(doc):
        assert _renamed_names(doc["elements"]), doc["elements"]
        monoid_from_doc(doc)
        return doc["elements"]

    for machine, size in ((eps, 2), (ab, 5)):
        doc = ok(["lang", "syntactic", machine])
        names = renamed_monoid(doc["monoid"])
        assert len(names) == size
        coloring_from_doc(doc["coloring"])
        assert doc["coloring"]["monoid"] == doc["monoid"]
        assert set(doc["witnesses"]) == set(doc["coloring"]["colors"]) == set(names)
        assert set(doc["images"].values()) <= set(names)

        code, out = run(["lang", "shuffle-check", machine])
        doc = json.loads(out)
        assert code == 2 and doc["witness_element"] in renamed_monoid(doc["syntactic_monoid"])

        doc = ok(["lang", "reconstruct", machine])["triple"]
        assert set(doc["images"].values()) <= set(renamed_monoid(doc["monoid"]))
        triple_from_doc(doc)

    assert len(renamed_monoid(ok(["monoid", "product", m, m]))) == 4
    for operation in ("join", "meet"):
        doc = ok(["lang", "op", operation, a, a])
        assert _renamed_names(doc["states"]) and len(doc["states"]) == 4
        automaton_from_doc(doc)

    doc = ok(["markov", "analyze", chain, "--decomposition", decomposition,
              "--initial", "s0", "--mode", "basic"])
    names = renamed_monoid(doc["syntactic"]["monoid"])
    assert len(names) == 26 and {"ab#3", "ab#5"} <= set(names)
    assert {name for pair in doc["syntactic"]["order"] for name in pair} <= set(names)
    for part in ("automaton_basic", "automaton_reachable"):
        automaton_from_doc(doc[part])

    s = write(tmp_path, "s.json", {
        "elements": ["1", "ε"], "identity": "1", "mul": [["1", "ε"], ["ε", "ε"]],
    })
    assert run(["variety", "subdirect", s]) == (0, (
        '{"check":"subdirect_embedding","instance":{"factor_sizes":[2,2],'
        '"monoid":{"elements":["1","\\u03b5"],"identity":"1",'
        '"leq":[["1","1"],["\\u03b5","\\u03b5"]],"mul":[["1","\\u03b5"],["\\u03b5","\\u03b5"]]}},'
        '"verdict":"pass","witness":null}\n'
    ))


def test_divides_budget_exit(tmp_path):
    from latlang import direct_product
    from conftest import u1

    big, _ = direct_product([u1()] * 4)
    big_path = write(tmp_path, "big.json", monoid_to_doc(big))
    small_path = write(
        tmp_path, "small.json",
        monoid_to_doc(u1()),
    )
    code, out = run(["monoid", "divides", small_path, big_path, "--budget", "8"])
    assert code == 3
    assert json.loads(out)["verdict"] == "budget_exhausted"


def test_variety_commands(tmp_path):
    code, out = run(["variety", "enumerate", "--n", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    for entry in doc["monoids"]:
        monoid_from_doc(entry)

    code, out = run(["variety", "suite", "--seed", "0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert all(json.loads(line)["verdict"] == "pass" for line in lines)

    u1_path = write(
        tmp_path, "u1.json",
        {
            "elements": ["1", "z"],
            "identity": "1",
            "mul": [["1", "z"], ["z", "z"]],
            "leq": [["z", "1"]],
        },
    )
    code, out = run(["variety", "subdirect", u1_path])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_markov_commands():
    code, out = run(["markov", "analyze", CHAIN, "--decomposition", DECOMPOSITION])
    assert code == 0
    report = json.loads(out)
    assert report["absorption"]["C1"]["t1"] == "1/3"
    assert report["shuffle"]["falsifier"]["superword"] == "ba"
    automaton_from_doc(report["automaton_basic"])
    automaton_from_doc(report["automaton_reachable"])
    monoid_from_doc(report["syntactic"]["monoid"])
    chain = chain_from_doc(json.loads(Path(CHAIN).read_text()))
    validate_decomposition(chain, decomposition_from_doc(report["decomposition"], chain))

    code, out = run(["markov", "decompose", CHAIN])
    assert code == 0
    validate_decomposition(chain, decomposition_from_doc(json.loads(out), chain))

    code, out = run(["markov", "absorb", CHAIN])
    assert code == 0
    assert json.loads(out)["absorption"]["C2"]["t2"] == "1"


def test_chain_roundtrip():
    chain = chain_from_doc(json.loads(Path(CHAIN).read_text()))
    assert chain_from_doc(chain_to_doc(chain)) == chain


def test_unknown_flag_is_error():
    code, out = run(["lang", "eval", AUTOMATON, "--word", "ab", "--nope"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "Usage"


def test_negative_bounds_are_usage_errors(tmp_path):
    from conftest import u1

    u1_path = write(tmp_path, "u1.json", monoid_to_doc(u1()))
    for argv in (
        ["lang", "shuffle-check", AUTOMATON, "--max-len", "-3"],
        ["markov", "analyze", CHAIN, "--max-len", "-1"],
        ["markov", "analyze", CHAIN, "--horizon", "-2"],
        ["monoid", "divides", u1_path, u1_path, "--budget", "-1"],
        ["variety", "enumerate", "--n", "0"],
        ["variety", "enumerate", "--n=-1"],
    ):
        code, out = run(argv)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "Usage"
    assert run(["variety", "enumerate", "--n", "0"])[1] == (
        '{"error":{"kind":"Usage","message":"argument --n: must be positive","witness":null}}\n'
    )
    code, out = run(["variety", "enumerate", "--n", "5"])
    assert code == 1 and json.loads(out)["error"]["kind"] == "SizeCapExceeded"
    code, out = run(["lang", "shuffle-check", AUTOMATON, "--max-len", "0"])
    assert code == 2 and json.loads(out)["bound"] == 0


def test_missing_file_is_error():
    code, out = run(["lattice", "check", "/nonexistent.json"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "MalformedDocument"


def _text_mode_outcome(path):
    """What a text-mode read gives: the text, or the error document that
    ``lattice check`` writes for the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        message = f"{path} is not UTF-8: {exc}"
    except OSError as exc:
        message = f"cannot read {path}: {exc}"
    error = {"kind": "MalformedDocument", "message": message, "witness": None}
    return 1, json.dumps({"error": error}, sort_keys=True, separators=(",", ":")) + "\n"


def test_read_matches_text_mode(tmp_path):
    """``_read`` decodes the bytes in one step and turns CRLF and lone CR
    into LF; on every file below it gives the text a text-mode read gives,
    or, through ``run``, the same error document."""
    from latlang.cli import _read

    lattice = json.dumps({"elements": ["0", "1"], "cover": [["0", "1"]]})
    files = {
        "crlf.json": lattice.replace(",", ",\r\n").encode(),
        "cr.json": lattice.replace(",", ",\r").encode(),
        "crlf-at-8k.json": b"[" + b" " * 8190 + b"\r\n" + b"]",
        "bom.json": "\ufeff".encode() + lattice.encode(),
        "bad-first-byte.json": b"\xff" + lattice.encode(),
        "bad-byte-at-9000.json": b" " * 9000 + b"\xfe" + lattice.encode(),
        "truncated.json": lattice.encode() + "é".encode()[:1],
        "empty.json": b"",
        "ünïcödé ∧ ∨.json": lattice.encode(),
        "mixed.json": b"[\r\n\r\r\n1\n]",
    }
    assert files["crlf-at-8k.json"].index(b"\r") == 8191
    texts = 0
    for name, data in files.items():
        path = tmp_path / name
        path.write_bytes(data)
        expected = _text_mode_outcome(str(path))
        if isinstance(expected, str):
            assert _read(str(path)) == expected, name
            texts += 1
        else:
            assert run(["lattice", "check", str(path)]) == expected, name
    assert texts == 7
    missing = str(tmp_path / "ünïcödé-missing.json")
    assert run(["lattice", "check", missing]) == _text_mode_outcome(missing)
    # A path is opened as given: pathlib would drop the trailing slash.
    slashed = str(tmp_path / "crlf.json") + "/"
    code, out = run(["lattice", "check", slashed])
    assert code == 1 and "Not a directory" in json.loads(out)["error"]["message"]


def test_cli_determinism():
    commands = [
        ["lang", "eval", AUTOMATON, "--word", "ab"],
        ["lang", "syntactic", AUTOMATON],
        ["lang", "minimize", AUTOMATON],
        ["lang", "reconstruct", AUTOMATON],
        ["markov", "analyze", CHAIN, "--decomposition", DECOMPOSITION],
        ["markov", "decompose", CHAIN],
        ["variety", "enumerate", "--n", "3"],
        ["variety", "suite", "--seed", "0"],
    ]
    for argv in commands:
        first = run(argv)
        second = run(argv)
        assert first == second, argv


def test_parser_is_built_once_per_process(monkeypatch):
    """Canonical argv never builds the argparse parser; the first argv that
    needs it builds it, once per process."""
    import latlang.cli

    canonical = [
        ["lang", "eval", AUTOMATON, "--word", "ab"],
        ["lang", "minimize", AUTOMATON, "--format", "text"],
        ["lang", "op", "quotl", AUTOMATON, "--word", "b"],
        ["markov", "analyze", CHAIN, "--mode", "reachable", "--horizon", "3"],
        ["markov", "decompose", CHAIN],
        ["variety", "enumerate", "--n", "2"],
    ]
    commands = [
        ["lang", "eval", AUTOMATON, "--word", "ab"],
        ["lang", "eval", AUTOMATON, "--word", "ab", "--nope"],
        ["lang", "minimize", AUTOMATON],
        ["lattice"],
        ["markov", "decompose", CHAIN],
        ["lang", "shuffle-check", AUTOMATON, "--max-len", "-3"],
        ["lang", "eval", AUTOMATON, "--word", "ba", "--format", "text"],
    ] * 3
    fresh = []
    for argv in commands:
        latlang.cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _ in fresh[:4]] == [0, 1, 0, 1]

    real = latlang.cli.build_parser
    built = []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(latlang.cli, "build_parser", counting)
    latlang.cli._parser.cache_clear()
    assert all(run(argv)[0] == 0 for argv in canonical)
    assert built == []
    assert [run(argv) for argv in commands] == fresh
    assert len(built) == 1
    latlang.cli._parser.cache_clear()


# Values that argparse reads the same way whatever the flag's type.
_FILES = ["a.json", "b c.json", "", "x=1", "lang"]
_TEXTS = ["ab", "", '["a"]', "{1}", "a=b", "x y", "json"]
_INTS = ["0", "7", "07", "+3", "1_0", " 4", "x", "4.5", ""]
_DASHED = ["-1", "-x", "--", "-", "--format", "-h", "--word=a"]


def _argv_variants(rng, path, leaf):
    """(kind, argv) around one command: the canonical layout, then ways out
    of it that argparse may accept, read differently, or refuse."""
    from latlang.cli import _FORMAT

    def value(option):
        if option.choices:
            return rng.choice([*option.choices, "xml"])
        return rng.choice(_INTS if option.type is int else _TEXTS)

    options = [_FORMAT, *leaf.options]
    positionals = [rng.choice(_FILES) for _ in leaf.positionals]
    if leaf.nargs == "+":
        positionals += [rng.choice(_FILES) for _ in range(rng.randint(0, 2))]
    chosen = [o for o in options if o.required or rng.random() < 0.6]
    rng.shuffle(chosen)
    pairs = [[o.flag, value(o)] for o in chosen]
    flat = [token for pair in pairs for token in pair]
    path = list(path)

    yield "canonical", [*path, *positionals, *flat]
    yield "flags first", [*path, *flat, *positionals]
    if pairs:
        cut = rng.randint(0, len(positionals))
        yield "interleaved", [*path, *positionals[:cut], *pairs[0], *positionals[cut:], *flat[2:]]
        yield "repeated", [*path, *positionals, *flat, *pairs[-1]]
        flag, raw = pairs[0]
        if len(flag) > 3:
            short = flag[:rng.randint(3, len(flag) - 1)]
            yield "abbreviated", [*path, *positionals, short, raw, *flat[2:]]
        yield "joined", [*path, *positionals, f"{flag}={raw}", *flat[2:]]
        yield "dashed value", [*path, *positionals, flag, rng.choice(_DASHED), *flat[2:]]
        yield "lone flag", [*path, *positionals, *flat, flag]
    required = [o for o in options if o.required]
    if required:
        yield "missing flag", [*path, *positionals, *(
            t for pair in pairs if pair[0] != required[0].flag for t in pair)]
    for o in options:
        yield "other value", [*path, *positionals, o.flag, value(o)]
    if positionals:
        dashed = list(positionals)
        dashed[rng.randrange(len(dashed))] = rng.choice(_DASHED)
        yield "dashed positional", [*path, *dashed, *flat]
        yield "missing positional", [*path, *positionals[1:], *flat]
    yield "extra positional", [*path, *positionals, "extra.json", *flat]
    yield "extra at end", [*path, *positionals, *flat, "extra.json"]
    tokens = [*positionals, *flat]
    at = rng.randint(0, len(tokens))
    yield "double dash", [*path, *tokens[:at], "--", *tokens[at:]]
    yield "help", [*path, *tokens[:at], rng.choice(["-h", "--help"]), *tokens[at:]]
    yield "short path", [*path[:-1], *tokens]
    yield "unknown command", [*path[:-1], path[-1] + "x", *tokens]
    yield "no arguments", path


def test_canonical_reader_agrees_with_argparse():
    """On seeded argv around every command, the canonical reader gives
    argparse's namespace or None, and None whenever argparse refuses the
    argv or prints help."""
    import random

    from latlang.cli import _COMMANDS, _canonical, _CliUsage, _Help, build_parser

    parser = build_parser()
    rng = random.Random(23)
    read = {}
    for _ in range(25):
        for path, leaf in _COMMANDS.items():
            for kind, argv in _argv_variants(rng, path, leaf):
                try:
                    expected = vars(parser.parse_args(argv))
                except (_CliUsage, _Help):
                    expected = None
                got = _canonical(argv)
                if got is not None:
                    assert vars(got) == expected, argv
                    read[kind] = read.get(kind, 0) + 1
                elif kind == "canonical":
                    assert expected is None, argv
    # Every command's canonical argv with valid values is read directly.
    for path, leaf in _COMMANDS.items():
        argv = [*path, *(["f"] * len(leaf.positionals))]
        for option in leaf.options:
            if option.required:
                argv += [option.flag, "1"]
        assert vars(_canonical(argv)) == vars(parser.parse_args(argv))
    assert read["canonical"] > 300
    outside = {"repeated", "abbreviated", "joined", "dashed value", "lone flag", "missing flag",
               "dashed positional", "double dash", "help", "short path", "unknown command"}
    assert not outside & set(read)


def test_monoid_product_reads_flags_only_after_its_files():
    from latlang.cli import _canonical

    assert vars(_canonical(["monoid", "product", "a", "b", "--format", "text"])) == {
        "group": "monoid", "command": "product", "files": ["a", "b"], "format": "text",
    }
    assert _canonical(["monoid", "product", "a", "--format", "json", "b"]) is None
    code, out = run(["monoid", "product", "a", "--format", "json", "b"])
    assert code == 1
    assert json.loads(out)["error"]["message"] == "unrecognized arguments: b"


def test_help_is_returned_not_raised():
    from latlang.cli import build_parser

    code, out = run(["--help"])
    assert (code, out) == (0, build_parser().format_help())
    code, out = run(["lang", "op", "join", "-h", "--word"])
    assert code == 0 and out.startswith("usage: latlang lang op join [-h]")


HELP = {
    ("--help",): """\
usage: latlang [-h] {lattice,monoid,lang,variety,markov} ...

Batch command-line front end with stable file formats and exit codes. Exit
codes: 0 success or verdict-true; 2 computed-false or witness found; 3 budget
exhausted; 1 validation or parse error. JSON output is canonical (sorted keys,
compact separators, lowest-terms fractions), so identical invocations produce
byte-identical output. Errors print a machine-readable {"error": {"kind": ...,
"witness": ...}} document.

positional arguments:
  {lattice,monoid,lang,variety,markov}

options:
  -h, --help            show this help message and exit
""",
    ("markov", "analyze", "-h"): """\
usage: latlang markov analyze [-h] [--format {json,text}]
                              [--decomposition DECOMPOSITION]
                              [--initial INITIAL] [--horizon HORIZON]
                              [--max-len MAX_LEN] [--mode {basic,reachable}]
                              file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --decomposition DECOMPOSITION
  --initial INITIAL
  --horizon HORIZON
  --max-len MAX_LEN
  --mode {basic,reachable}
""",
    ("monoid", "product", "--help"): """\
usage: latlang monoid product [-h] [--format {json,text}] files [files ...]

positional arguments:
  files

options:
  -h, --help            show this help message and exit
  --format {json,text}
""",
}


@pytest.mark.parametrize("argv", sorted(HELP))
def test_help_through_main_prints_and_exits_zero(argv):
    import latlang

    package_root = str(Path(latlang.__file__).parents[1])
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "latlang", *argv], capture_output=True, env=env,
    )
    assert result.returncode == 0
    assert result.stdout == HELP[argv].encode()
    assert result.stderr == b""


def test_console_entry_point():
    import latlang

    # the child imports the same latlang as this process, however pytest found it
    package_root = str(Path(latlang.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "latlang", "lang", "eval", AUTOMATON, "--word", "ab"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == '{"value":["1"]}\n'


def test_lattice_roundtrip_canonical(tmp_path):
    from latlang import standard_lattice

    lat = standard_lattice("powerset", 2)
    doc = lattice_to_doc(lat)
    assert lattice_from_doc(doc) == lat
    doc2 = lattice_to_doc(lattice_from_doc(doc))
    assert doc == doc2


def test_text_format_runs():
    code, out = run(["lang", "eval", AUTOMATON, "--word", "ab", "--format", "text"])
    assert code == 0 and "value" in out


def _pinned_commands(tmp_path):
    """(label, argv) for the byte pins: the bundled automaton, seeded random
    machines over five lattices, products with one-element factors, the
    subdirect embedding of enumerated monoids and of a 48-element product,
    the seed-0 suite, the analysis of two chains, and one argv for each
    other command, both verdicts for shuffle-check."""
    import random

    from latlang import build_lattice, direct_product, standard_lattice, trivial_monoid
    from latlang.variety import enumerate_ordered_monoids, random_automaton

    commands = [
        ("bundled reconstruct", ["lang", "reconstruct", AUTOMATON]),
        ("bundled syntactic", ["lang", "syntactic", AUTOMATON]),
        ("bundled cut {1}", ["lang", "cut", AUTOMATON, "--element", "{1}"]),
        ("bundled cut {1,2}", ["lang", "cut", AUTOMATON, "--element", "{1,2}"]),
    ]
    lattices = [
        standard_lattice("chain", 2),
        standard_lattice("chain", 4),
        standard_lattice("powerset", 2),
        build_lattice(["b", "x", "y", "z", "t"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
        build_lattice(["b", "x", "y", "z", "t"], [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)]),
    ]
    rng = random.Random(1619)
    for i in range(10):
        lat = lattices[i % 5]
        machine = random_automaton(rng, lat, 3, ("a", "b"), min_states=2)
        path = write(tmp_path, f"machine{i}.json", automaton_to_doc(machine))
        commands += [
            (f"machine {i} reconstruct", ["lang", "reconstruct", path]),
            (f"machine {i} syntactic", ["lang", "syntactic", path]),
            (f"machine {i} cut", ["lang", "cut", path, "--element", lat.elements[i % lat.size]]),
        ]
    one = write(tmp_path, "one.json", monoid_to_doc(trivial_monoid()))
    pool = [
        write(tmp_path, f"m{n}_{k}.json", monoid_to_doc(m))
        for n in (2, 3)
        for k, m in enumerate(enumerate_ordered_monoids(n)[:2])
    ]
    for factors in ([one], [one, one], [one, pool[0]], [pool[1], one],
                    [pool[0], one, pool[2]], [pool[3], pool[1], one, pool[0], one]):
        label = "product " + " ".join(Path(f).stem for f in factors)
        commands.append((label, ["monoid", "product", *factors]))
    fours = enumerate_ordered_monoids(4)
    for k in (0, 7, 40, 150, len(fours) - 1):
        path = write(tmp_path, f"m4_{k}.json", monoid_to_doc(fours[k]))
        commands.append((f"subdirect m4_{k}", ["variety", "subdirect", path]))
    big, _ = direct_product([fours[40], fours[150], enumerate_ordered_monoids(3)[5]])
    path = write(tmp_path, "big.json", monoid_to_doc(big))
    commands.append((f"subdirect product of {big.size}", ["variety", "subdirect", path]))
    commands.append(("suite seed 0", ["variety", "suite", "--seed", "0"]))
    commands.append(("analyze two sink", ["markov", "analyze", CHAIN]))
    rows = {
        "t1": {"t1": "1/2", "a1": "1/4", "t2": "1/4"},
        "t2": {"b1": "1/3", "c": "2/3"},
        "a1": {"a2": "1"},
        "a2": {"a1": "1"},
        "b1": {"b1": "1/2", "b2": "1/2"},
        "b2": {"b1": "1"},
        "c": {"c": "1"},
    }
    path = write(tmp_path, "chain7.json", {"states": list(rows), "rows": rows})
    commands.append(("analyze chain7", ["markov", "analyze", path]))
    machine0, machine5 = (str(tmp_path / f"machine{i}.json") for i in (0, 5))
    lattice = str(DATA / "two_sink_lattice.json")
    hom = write(tmp_path, "hom.json", {"images": {"x": "ab", "y": ["c", "a"]}})
    morphism = write(tmp_path, "alpha.json", {
        "mapping": {"{}": "{}", "{1}": "{}", "{2}": "{2}", "{1,2}": "{1,2}"},
    })
    contains_a = write(tmp_path, "contains_a.json", {
        "lattice": {"elements": ["0", "1"], "cover": [["0", "1"]]},
        "alphabet": ["a", "b"], "states": ["q0", "q1"], "initial": "q0",
        "delta": {"q0": {"a": "q1", "b": "q0"}, "q1": {"a": "q1", "b": "q1"}},
        "output": {"q0": "1", "q1": "0"},
    })
    commands += [
        ("lattice check", ["lattice", "check", lattice]),
        ("lattice dual", ["lattice", "dual", lattice, "--format", "text"]),
        ("monoid check m3_1", ["monoid", "check", pool[3]]),
        ("monoid divides m2_0 m2_1", ["monoid", "divides", pool[0], pool[1], "--budget", "4"]),
        ("monoid aperiodic m3_0", ["monoid", "aperiodic", pool[2]]),
        ("bundled eval bbc", ["lang", "eval", AUTOMATON, "--word", "bbc"]),
        ("bundled minimize", ["lang", "minimize", AUTOMATON]),
        ("equiv machine 0 machine 5", ["lang", "equiv", machine0, machine5]),
        ("join machine 0 machine 5", ["lang", "op", "join", machine0, machine5]),
        ("meet machine 0 machine 5", ["lang", "op", "meet", machine0, machine5]),
        ("bundled quotl a", ["lang", "op", "quotl", AUTOMATON, "--word", "a"]),
        ("bundled quotr [b,c]", ["lang", "op", "quotr", AUTOMATON, "--word", '["b","c"]']),
        ("bundled invhom", ["lang", "op", "invhom", AUTOMATON, "--hom", hom]),
        ("bundled recolor", ["lang", "op", "recolor", AUTOMATON, "--morphism", morphism]),
        ("bundled shuffle-check", ["lang", "shuffle-check", AUTOMATON, "--max-len", "4"]),
        ("contains a shuffle-check", ["lang", "shuffle-check", contains_a]),
        ("enumerate 2", ["variety", "enumerate", "--n", "2"]),
        ("decompose chain7", ["markov", "decompose", path]),
        ("absorb chain7", ["markov", "absorb", path]),
    ]
    text = ["--format", "text"]
    commands += [
        ("bundled syntactic text", ["lang", "syntactic", AUTOMATON, *text]),
        ("bundled reconstruct text", ["lang", "reconstruct", AUTOMATON, *text]),
        ("bundled shuffle-check text",
         ["lang", "shuffle-check", AUTOMATON, "--max-len", "4", *text]),
        ("product m2_0 one m3_0 text", ["monoid", "product", pool[0], one, pool[2], *text]),
        ("analyze two sink text", ["markov", "analyze", CHAIN, *text]),
    ]
    # an element named "\u0000" writes the text the table writer marks its
    # tables with, so these take the plain encoding
    nul = write(tmp_path, "nul.json", {
        "elements": ["1", "\u0000"], "identity": "1",
        "mul": [["1", "\u0000"], ["\u0000", "\u0000"]], "leq": [["\u0000", "1"]],
    })
    commands += [
        ("monoid check nul", ["monoid", "check", nul]),
        ("product nul nul", ["monoid", "product", nul, nul]),
    ]
    return commands


PINNED_DIGESTS = {
    "bundled reconstruct": (
        "2fe096111e174864cf45484b44e446d80fed9cd7b2d5899663fdb0b2dbb118f9"
    ),
    "bundled syntactic": (
        "1449cc02dbe475f72a276add888cd0185614d5db6f7b6d269824817e2a7d33a8"
    ),
    "bundled cut {1}": (
        "0bbe14f6bb81c445c71300634f8e03bd6a299a69ad2942f59b41b7b352dfe5ba"
    ),
    "bundled cut {1,2}": (
        "023ad485b4dcdd2581486130009ded771d50b673c00c31e4c1b006b484338ee9"
    ),
    "machine 0 reconstruct": (
        "adcb67bce1bfcc0f13a4d9e6f1db6f7b4d7c5a6060469c70d1170dfd2486e877"
    ),
    "machine 0 syntactic": (
        "11b91a407706af043d9e191873f986b55d7295a7959d2a018ab6d126106890fe"
    ),
    "machine 0 cut": (
        "02d598fb5c5d75ebd1f4e6c08d4f81ce051a44d5fb2deedbbd1baa52da79b27c"
    ),
    "machine 1 reconstruct": (
        "a2a66d658dd9d918c816ef38911fb3234115f592576b280e8e9e2b07f3d4c924"
    ),
    "machine 1 syntactic": (
        "d97d00ba1d3e985db813e5a3487790381308990ae6e634dffb7fe653e8396f15"
    ),
    "machine 1 cut": (
        "dd6b826727a7e0e8c7caf19688d10b4b81ba6110afd2a65355abfacc82aea050"
    ),
    "machine 2 reconstruct": (
        "44b7523a5336bca7d0279d9dd1dac771f29c3849cadd9f4a3b3d661a2398a6f1"
    ),
    "machine 2 syntactic": (
        "666e6ee8a61c96d684c3cc429f20084981aa9e48d22b39d853d11f69c4d9f04d"
    ),
    "machine 2 cut": (
        "c8bbb063202560902d8d3ca68cded14df81746fd0664a1d8e8d50042e8ba636c"
    ),
    "machine 3 reconstruct": (
        "faf4108f1c45407871282bed56c66d5fb1f7097d9118776e09aca895e73a3017"
    ),
    "machine 3 syntactic": (
        "7b33d145ca0eb56bbb658c05f6e8ae26a1b312c9c551cd0e5a531c24f51fab28"
    ),
    "machine 3 cut": (
        "b3c8f2e0b1b95754b5213d92860773c7eaab0b680263a9828360fa6c4d8e276a"
    ),
    "machine 4 reconstruct": (
        "748a63f0f1812be480132ea7c95ccaf0d167924b0e94e97fc898d62d02427301"
    ),
    "machine 4 syntactic": (
        "1c67c0708dffd0689fda3fa3b44703dddaf987518c1bf1b8ae908e703e0a51b8"
    ),
    "machine 4 cut": (
        "f37f1c2a602cef7947a6ad98e55dd70644b7595f0b342edfc403a759b02b9b22"
    ),
    "machine 5 reconstruct": (
        "ae04a6e97952db0bbfe754aeabe8204821f6171440355c06fad9e09899e89c69"
    ),
    "machine 5 syntactic": (
        "5e5720e9902516586f2159e29664aa6b00a45daef6348fac40a34c385776e887"
    ),
    "machine 5 cut": (
        "f22bd2ca448d830879cb29b5adabaf2de7a71814589e91ce5dd1af38245b5e33"
    ),
    "machine 6 reconstruct": (
        "86f263ab313c5f63e421f93cf8bbe99dc565f03916ce9ea7c02263ba3b83920c"
    ),
    "machine 6 syntactic": (
        "ac3b6d8774e7753193c0e0731f0d73e4ac3afe311028a4abd5d1bcf145a89b8e"
    ),
    "machine 6 cut": (
        "cb1b3d8845bb22ee3feca0a4a309de2941f5ed39a9230f2d5813c8fef4af5f96"
    ),
    "machine 7 reconstruct": (
        "812fc5d11689a064d062fec557484cb3a2a9e22131b9929886a1d55fa522c2bd"
    ),
    "machine 7 syntactic": (
        "306bcc7565289bf7625093451f3840e21d737667f7980908c6ecb7c8084641ed"
    ),
    "machine 7 cut": (
        "ad1e0b10af1699a564d42e3ad6cec69f67532769dec9d7ce5d9ed7aaa5ba03d7"
    ),
    "machine 8 reconstruct": (
        "90e74e33aac46f8718fde05d863b34dee8628b8de8e59146ce021f6c970f3148"
    ),
    "machine 8 syntactic": (
        "f802cdd25db56bb26281f66ab32bd051a15c5c798677d3022068a2806d904a0b"
    ),
    "machine 8 cut": (
        "2cea1fdcb1a50e4631169b132fd5ffca8c3617ababbccd283390f43dc2ed6e1d"
    ),
    "machine 9 reconstruct": (
        "e8bfff97273545e0f8408f1015a4673c5c52923a238c9409132d5ef48565d986"
    ),
    "machine 9 syntactic": (
        "e272dfb09000eef09898bfcab273ffc0f74707af7b73fc0fe6910442c992f413"
    ),
    "machine 9 cut": (
        "f0a38d75d52059eb95c3ac918e5956028e0b4d54766ff98fb02fb6cda9b94e41"
    ),
    "product one": (
        "a7872798781c3748cc0cf1d7717b925beb1b715818467d6808ff216509aa46ec"
    ),
    "product one one": (
        "97af992494132d7d4e941d0e47b174020a9fb4940147590cbd8c12f00d747379"
    ),
    "product one m2_0": (
        "b154261a1152ad16d22c2129b1bd3d5bcaac4b6fc80caeb346032445964eb73b"
    ),
    "product m2_1 one": (
        "6a8665de3816ca85a4b94ac1edb048ca185e7dd505ddbfcc7d59075410ac2539"
    ),
    "product m2_0 one m3_0": (
        "8546cff86c33b7258842bf218de2652bf7a661d5d459fdae1d2aad4fc9a08ec2"
    ),
    "product m3_1 m2_1 one m2_0 one": (
        "dcaa58621e5f3906743c15beaf08297b8a2e0dd784aeb2d0b8aa6daf6e6f951a"
    ),
    "subdirect m4_0": (
        "f8e71e43691a77cfa07a8be2e397f17458069ab8e7130a448fda15f2ea6d43c7"
    ),
    "subdirect m4_7": (
        "7297936727865c117c1e6de9fbf5774839c8c2bebddba328b8e54cc8cdc28d6f"
    ),
    "subdirect m4_40": (
        "f96aac77ed466c575eee6107c3fa4d96f66cc350ff813ee990a7d250345d96bd"
    ),
    "subdirect m4_150": (
        "e9e1149860a71da5bd39860b5b974b974b3ea9f1e50cfc639d1714950b99510a"
    ),
    "subdirect m4_548": (
        "2706964b4997becfafb27d90171939d9b74e467b39fce0d82594dbb60e7c2be0"
    ),
    "subdirect product of 48": (
        "e8b847dda2a12aa5686eb6d3c1d314e918325f4f9df017a3a3557c59d5224c2d"
    ),
    "suite seed 0": (
        "fb1d40f029ec9f66bc063029e03a12395aac643cde798f486242ff47f9a46c52"
    ),
    "analyze two sink": (
        "3ddf2d99c30c502ba8602f6a8af7e3984a83afa2b2b148d33d495a39b2f0ebcf"
    ),
    "analyze chain7": (
        "77edd2f240d2b89da88a019537d1d2816698f45a3762ec33f0d9fb57abc849c3"
    ),
    "lattice check": (
        "ff58833d9d1b816d88ada2c3c8b9b4e5995c8ba8f6ce17400592761939e6e821"
    ),
    "lattice dual": (
        "417f6c07a6d15a958204b94ebf5f63b1653505f6fe914caf1d7b7b10ca811096"
    ),
    "monoid check m3_1": (
        "ce23d2f38b58f15f8d6e1b67a62d728f3cf069ab8051556974b2db195224a372"
    ),
    "monoid divides m2_0 m2_1": (
        "1243f611e801970007abb81203bcea6a79dc5ddad5ef4eab76f6c7513cf32e0a"
    ),
    "monoid aperiodic m3_0": (
        "a19cc37697e071ff8c2765157630835b4a782fcb931cc235e6831bc0a6a2d308"
    ),
    "bundled eval bbc": (
        "37192208b7f77f8ed0354bbeee8082ae30d973ce85e5ff84f63a2a29582860a9"
    ),
    "bundled minimize": (
        "e675318e749b50e3155d31f219fb2e116e826d47046e815d6108c72ba6549f94"
    ),
    "equiv machine 0 machine 5": (
        "1fdc732f9ed0567b56a528d0b4a403fa08561bb96247017ae2643ffc33e99d10"
    ),
    "join machine 0 machine 5": (
        "9ff10a0e74a6d2d6d73d5cde9e5f3ece7f5b018e15dc33f08f6241ba9fa5b643"
    ),
    "meet machine 0 machine 5": (
        "199bc6790c65ff6f3b86e569f8c9233c3fd053ad2302481cf57367fb0e3b0e69"
    ),
    "bundled quotl a": (
        "5fdbf797d3229a561989340560bb2ddc1d81bfa6bfbb8bfe839634090726b669"
    ),
    "bundled quotr [b,c]": (
        "29d952cd159bf867cfcd94a9738ca722543492484811a83ce01614ba9d509578"
    ),
    "bundled invhom": (
        "0bbafbdcc976c073f90104b947bf33a94c7c270ac54cde7384d6fb06912a72fd"
    ),
    "bundled recolor": (
        "dbe95744949a270c7c3c5eff59e8b6f769e58bc11b54c043cc25942190f4eedb"
    ),
    "bundled shuffle-check": (
        "9833c5ebe6d7562dcbb5b290f47e6464d20e5a1b8ec79ab2305a36072bd82cb9"
    ),
    "contains a shuffle-check": (
        "d86fc139d1c914e04c25ade77ea460ed836ca5bfc0993ea8ef3e1dfd3ab5e236"
    ),
    "enumerate 2": (
        "c23953655a34f3f9da6ec0100eef86d73c10d997e6795b18116ba8ab3b4e3dd7"
    ),
    "decompose chain7": (
        "681b8fafd04f0b9ca354cad5e8c0fe652fd4cdc3f4f777d73fc4f09210f5d65a"
    ),
    "absorb chain7": (
        "7a203839de4224446a103a3bb103658aaacf1e48ac188a954c2516f559d898cf"
    ),
    "bundled syntactic text": (
        "39c41c4ac8a211dd3f7a5ee25fda53db3720a4967fe0461ae20e8b6ff7344279"
    ),
    "bundled reconstruct text": (
        "8153d9707e9e52b9d12c950906c89adb5286f88b2074a8518c4d3854fcca6fd1"
    ),
    "bundled shuffle-check text": (
        "27378c0b4fcd857450bf3d5ef330103f795d01ff906536f2845581f42d5e38c7"
    ),
    "product m2_0 one m3_0 text": (
        "a01b54370031b28afd7a7819587ae699f6c1e139b2ac46d1c1f87005d3ba7c8d"
    ),
    "analyze two sink text": (
        "bf07351c173a1baa38b9abd9fe262f0463c1d2d7470416ce5702ae135c67c913"
    ),
    "monoid check nul": (
        "f7ad1890f0a12f72db0edc392bc9d728f79cc3142e8fdfff3b50cd9d8ece5dcf"
    ),
    "product nul nul": (
        "e4559a821439850d80ed0ab169297f904913b65885f544dc14b20e01da8ccc54"
    ),
}


def test_pinned_output_bytes(tmp_path):
    """Exit code and stdout bytes of every command, as sha256 digests of
    ``"<code>\\n<stdout>"``."""
    import hashlib

    digests = {}
    for label, argv in _pinned_commands(tmp_path):
        code, out = run(argv)
        digests[label] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digests == PINNED_DIGESTS


def test_canonical_dumps_is_json_dumps(tmp_path, monkeypatch):
    """The one shared encoder writes what ``json.dumps`` with the canonical
    arguments writes, on every document of the pinned commands (``lang
    syntactic`` holds its ``"monoid"`` dict twice), of a machine with
    non-ASCII names and of an error."""
    ser = importlib.import_module("latlang.serialize")
    real = ser.canonical_dumps
    docs = []
    monkeypatch.setattr(ser, "canonical_dumps", lambda doc: docs.append(doc) or real(doc))
    non_ascii = write(tmp_path, "non-ascii.json", {
        "lattice": {"elements": ["⊥", "⊤"], "cover": [["⊥", "⊤"]]},
        "alphabet": ["ä", "ℓ"],
        "states": ["α", "β"],
        "initial": "α",
        "delta": {"α": {"ä": "β", "ℓ": "α"}, "β": {"ä": "β", "ℓ": "β"}},
        "output": {"α": "⊥", "β": "⊤"},
    })
    argvs = [argv for _, argv in _pinned_commands(tmp_path)]
    argvs += [["lang", "syntactic", non_ascii], ["lang", "minimize", non_ascii],
              ["lattice", "check", str(tmp_path / "ünïcödé-missing.json")]]
    for argv in argvs:
        run(argv)
    assert len(docs) >= len(argvs)
    assert any(isinstance(doc.get("coloring"), dict)
               and doc["coloring"].get("monoid") is doc.get("monoid") for doc in docs)
    assert any("error" in doc for doc in docs)
    for doc in docs:
        expected = json.dumps(
            doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True, default=plain
        )
        assert real(doc) == expected


def _help_paths(prefix=()):
    """The command paths argparse's help lists under ``prefix``: the choices
    of its subcommand positional, or ``prefix`` itself at a command."""
    code, out = run([*prefix, "--help"])
    assert code == 0, prefix
    choices = re.search(r"^  \{(.*)\}$", out, re.M)
    if choices is None:
        return [prefix]
    return [path for name in choices[1].split(",") for path in _help_paths((*prefix, name))]


def test_command_table_is_the_help_and_every_command_runs(tmp_path):
    """The paths of ``_COMMANDS`` are exactly the commands argparse's help
    lists, in its order, and each one's pinned argv runs to a document."""
    from latlang.cli import _COMMANDS

    assert _help_paths() == list(_COMMANDS)
    ran = set()
    for label, argv in _pinned_commands(tmp_path):
        path = next(p for p in (tuple(argv[:3]), tuple(argv[:2])) if p in _COMMANDS)
        ran.add(path)
        code, out = run(argv)
        assert code in (0, 2, 3), label
        # the suite writes one document a line
        docs = out.splitlines() if path == ("variety", "suite") else [out]
        assert all("error" not in json.loads(doc) for doc in docs), label
    assert ran == set(_COMMANDS)
