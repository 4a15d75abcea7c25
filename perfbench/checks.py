"""Independent checks of CLI outputs.

Each factory takes what the generator knows about an input and returns a
check ``(exit code, stdout) -> None or a failure message``.  The checks
recompute answers with the reference code or verify the printed result
against its defining equations; they never call latlang.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref


def _expect_exit(code: int, allowed) -> str | None:
    return None if code in allowed else f"exit code {code}, expected one of {sorted(allowed)}"


def _words(letters: str):
    """All words up to a length that keeps each check to about 100 words."""
    return ref.words_upto(letters, 5 if len(letters) == 2 else 4)


def _value(machine, word) -> str:
    kind, letters, delta, output = machine
    return ref.LATTICES[kind][0][output[ref.run_word(delta, 0, letters, word)]]


def syntactic(machine, classes: int):
    """The monoid has one element per word map of the minimal machine, and
    evaluating words through the images and coloring matches the machine."""
    letters = machine[1]

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        doc = json.loads(out)
        monoid = doc["monoid"]
        if len(monoid["elements"]) != classes:
            return f"{len(monoid['elements'])} classes, expected {classes}"
        index = {name: i for i, name in enumerate(monoid["elements"])}
        colors = doc["coloring"]["colors"]
        for word in _words(letters):
            element = monoid["identity"]
            for a in word:
                element = monoid["mul"][index[element]][index[doc["images"][a]]]
            if colors[element] != _value(machine, word):
                return f"word {''.join(word)!r} evaluates to {colors[element]!r}"
        for element, witness in doc["witnesses"].items():
            image = monoid["identity"]
            for a in witness:
                image = monoid["mul"][index[image]][index[doc["images"][a]]]
            if image != element:
                return f"witness {witness!r} does not map to {element!r}"
        return None

    return check


def minimize(machine, states: int):
    letters = machine[1]

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        doc = json.loads(out)
        if len(doc["states"]) != states:
            return f"{len(doc['states'])} states, expected {states}"
        for word in _words(letters):
            q = doc["initial"]
            for a in word:
                q = doc["delta"][q][a]
            if doc["output"][q] != _value(machine, word):
                return f"minimal machine differs on {''.join(word)!r}"
        return None

    return check


def equivalent():
    """Machines are compared with their own minimal form."""

    def check(code: int, out: str) -> str | None:
        if code != 0 or json.loads(out) != {"equivalent": True}:
            return f"not reported equivalent (exit {code})"
        return None

    return check


def shuffle_check(machine, bound: int, is_ideal: bool | None):
    """A reported falsifier must be a subword pair that violates the
    inequality; a true shuffle ideal must pass with no falsifier."""
    kind = machine[0]
    leq = ref.lattice_leq(kind)
    names = ref.LATTICES[kind][0]

    def check(code: int, out: str) -> str | None:
        error = _expect_exit(code, {0, 2})
        if error:
            return error
        doc = json.loads(out)
        if doc["bound"] != bound or doc["shuffle_ideal"] != (code == 0):
            return "verdict and exit code disagree"
        if is_ideal is not None and doc["shuffle_ideal"] != is_ideal:
            return f"shuffle_ideal is {doc['shuffle_ideal']}, expected {is_ideal}"
        falsifier = doc["falsifier"]
        if falsifier is None:
            return None
        w, v = falsifier["subword"], falsifier["superword"]
        if not ref.is_subword(w, v) or len(v) > bound:
            return f"{w!r} is not a subword of {v!r} within the bound"
        value_w, value_v = _value(machine, w), _value(machine, v)
        if (falsifier["value_subword"], falsifier["value_superword"]) != (value_w, value_v):
            return "falsifier values differ from the machine"
        if leq[names.index(value_v)][names.index(value_w)]:
            return "falsifier pair does not violate the inequality"
        return None

    return check


# -- Markov chains -----------------------------------------------------------

def _check_decomposition(matrix, doc) -> str | None:
    n = len(matrix)
    total = [[Fraction(0)] * n for _ in range(n)]
    weights = []
    for letter in doc["letters"]:
        weight = Fraction(letter["weight"])
        if weight <= 0:
            return f"non-positive weight {letter['weight']}"
        weights.append(weight)
        for s, t in letter["map"].items():
            total[int(s[1:])][int(t[1:])] += weight
    if sum(weights) != 1 or total != matrix:
        return "decomposition does not reconstruct the chain"
    return None


def _check_absorption(matrix, doc) -> str | None:
    """x = Qx + R exactly: each transient value is the weighted mean of its
    successors' values; closed classes hold 1 on themselves, 0 elsewhere."""
    classes, transient = ref.ergodic_classes(matrix)
    if sorted(doc) != sorted(f"C{c + 1}" for c in range(len(classes))):
        return f"absorption classes {sorted(doc)}"
    for c, members in enumerate(classes):
        x = [Fraction(doc[f"C{c + 1}"][f"s{s}"]) for s in range(len(matrix))]
        for s in range(len(matrix)):
            if s in transient:
                expected = sum((p * x[t] for t, p in enumerate(matrix[s])), Fraction(0))
            else:
                expected = Fraction(s in members)
            if x[s] != expected:
                return f"absorption into C{c + 1} fails at s{s}"
    return None


def decompose(matrix):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        return _check_decomposition(matrix, json.loads(out))

    return check


def absorb(matrix):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        return _check_absorption(matrix, json.loads(out)["absorption"])

    return check


def analyze(matrix, classes: int | None):
    """Decomposition and absorption sections as above, a word measure that
    sums to one, and (when known) the syntactic monoid size."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        doc = json.loads(out)
        error = _check_decomposition(matrix, doc["decomposition"]) or _check_absorption(
            matrix, doc["absorption"]
        )
        if error:
            return error
        if sum(Fraction(m) for m in doc["word_measure"]["masses"].values()) != 1:
            return "word measure does not sum to one"
        if classes is not None and doc["syntactic"]["size"] != classes:
            return f"syntactic size {doc['syntactic']['size']}, expected {classes}"
        return None

    return check


# -- the lab -------------------------------------------------------------------

def enumerate_count(n: int, count: int):
    """The count printed matches the monoids listed and the set-up enumeration."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        doc = json.loads(out)
        if doc["count"] != count or len(doc["monoids"]) != count:
            return f"count {doc['count']}, expected {count}"
        if any(len(m["elements"]) != n for m in doc["monoids"]):
            return f"a listed monoid does not have {n} elements"
        return None

    return check


def suite():
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        verdicts = {json.loads(line)["verdict"] for line in out.splitlines()}
        return None if verdicts == {"pass"} else f"suite verdicts {sorted(verdicts)}"

    return check


def same_doc(expected: dict):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        return None if json.loads(out) == expected else "document differs from the reference"

    return check


def divides(dividend: dict, divisor: dict):
    """A "yes" must come with a surjective, order-preserving morphism from a
    submonoid of the divisor onto the dividend."""

    def check(code: int, out: str) -> str | None:
        error = _expect_exit(code, {0, 2, 3})
        if error:
            return error
        doc = json.loads(out)
        verdict = {0: "yes", 2: "no", 3: "budget_exhausted"}[code]
        if doc["verdict"] != verdict:
            return f"verdict {doc['verdict']} with exit code {code}"
        if verdict != "yes":
            return None
        phi = doc["witness"]["mapping"]
        if set(phi.values()) != set(dividend["elements"]):
            return "division witness is not surjective"
        mul1, mul2 = _table(dividend), _table(divisor)
        leq1 = {tuple(p) for p in dividend["leq"]}
        leq2 = {tuple(p) for p in divisor["leq"]}
        for x in phi:
            for y in phi:
                if mul2[x, y] not in phi or phi[mul2[x, y]] != mul1[phi[x], phi[y]]:
                    return f"division witness is not multiplicative at ({x}, {y})"
                if (x, y) in leq2 and (phi[x], phi[y]) not in leq1:
                    return f"division witness is not monotone at ({x}, {y})"
        return None

    return check


def _table(monoid: dict) -> dict:
    names = monoid["elements"]
    return {(a, b): monoid["mul"][i][j] for i, a in enumerate(names) for j, b in enumerate(names)}


def subdirect():
    """Every ordered monoid embeds into the product of the syntactic monoids
    of its ideal languages, so the check must pass."""

    def check(code: int, out: str) -> str | None:
        if code != 0 or json.loads(out)["verdict"] != "pass":
            return f"subdirect embedding did not pass (exit {code})"
        return None

    return check


def reconstruct(size: int):
    """A language is recognized by the product of its cut syntactic monoids."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return _expect_exit(code, {0})
        doc = json.loads(out)
        if doc["equal"] is not True:
            return "reconstruction is not equal"
        if len(doc["triple"]["monoid"]["elements"]) != size:
            return f"product of {len(doc['triple']['monoid']['elements'])} elements, expected {size}"
        return None

    return check
