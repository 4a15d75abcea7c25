import json
import os
import subprocess
import sys
from pathlib import Path

from latlang.cli import run
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
    path.write_text(json.dumps(doc))
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
    ):
        code, out = run(["monoid", "check", write(tmp_path, "bad.json", bad)])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "MalformedDocument"


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
    decomposition_from_doc(report["decomposition"], chain)

    code, out = run(["markov", "decompose", CHAIN])
    assert code == 0
    decomposition_from_doc(json.loads(out), chain)

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


def test_negative_bounds_are_usage_errors():
    for argv in (
        ["lang", "shuffle-check", AUTOMATON, "--max-len", "-3"],
        ["markov", "analyze", CHAIN, "--max-len", "-1"],
        ["markov", "analyze", CHAIN, "--horizon", "-2"],
    ):
        code, out = run(argv)
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "Usage"
    code, out = run(["lang", "shuffle-check", AUTOMATON, "--max-len", "0"])
    assert code == 2 and json.loads(out)["bound"] == 0


def test_missing_file_is_error():
    code, out = run(["lattice", "check", "/nonexistent.json"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "MalformedDocument"


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
