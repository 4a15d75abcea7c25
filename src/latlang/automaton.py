"""Lattice-valued regular languages as complete deterministic Moore machines.

A language maps words to lattice elements; it is represented by a complete
DFA whose states carry lattice outputs.  Partial automata are rejected at
construction rather than completed silently.  All machines are immutable
and all operations are pure.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, reduce

from .errors import (
    MalformedDocument,
    MismatchedAlphabet,
    MismatchedLattice,
    UnknownLetter,
)
from .lattice import (
    Lattice,
    LatticeMorphism,
    combination,
    firsts,
    name_tuple,
    number,
    orbit,
    product_name,
    resolve,
    resolve_all,
)

COMBINE_STATE_CAP = 200_000

Word = tuple[str, ...]


def parse_word(word: str | Sequence[str], alphabet: Sequence[str]) -> Word:
    """Normalize a word to a tuple of letters.

    Strings are split per character, which requires every alphabet letter to
    be a single character; multi-character alphabets must use list form.
    """
    letters = set(alphabet)
    if isinstance(word, str):
        if word and not all(len(a) == 1 for a in alphabet):
            raise UnknownLetter(
                "string words need a single-character alphabet; use list form"
            )
    elif not isinstance(word, Sequence):
        raise MalformedDocument(f"a word must be a string or a list, not {word!r}")
    parts = tuple(word)
    for a in parts:
        if not isinstance(a, str) or a not in letters:
            raise UnknownLetter(f"unknown letter {a!r}", witness=a)
    return parts


def word_name(word: Word) -> str:
    """Presentation of a word: letters joined, or the empty-word symbol."""
    if not word:
        return "ε"
    if all(len(a) == 1 for a in word):
        return "".join(word)
    return "·".join(word)


@dataclass(frozen=True, repr=False)
class FreeMorphism:
    """A word homomorphism determined by letter images."""

    source_alphabet: tuple[str, ...]
    target_alphabet: tuple[str, ...]
    images: tuple[Word, ...]

    def __repr__(self) -> str:
        pairs = [f"{a}->{word_name(w)}" for a, w in zip(self.source_alphabet, self.images)]
        return f"<FreeMorphism {pairs!r}>"

    def apply(self, word: str | Sequence[str]) -> Word:
        parts = parse_word(word, self.source_alphabet)
        out: list[str] = []
        lookup = {a: img for a, img in zip(self.source_alphabet, self.images)}
        for a in parts:
            out.extend(lookup[a])
        return tuple(out)


def make_free_morphism(
    source_alphabet: Sequence[str],
    target_alphabet: Sequence[str],
    images: Mapping[str, str | Sequence[str]],
) -> FreeMorphism:
    source = tuple(source_alphabet)
    target = tuple(target_alphabet)
    if not source:
        raise MalformedDocument("morphism source alphabet must be nonempty")
    missing = [a for a in source if a not in images]
    if missing:
        raise MalformedDocument(f"morphism misses letters {missing!r}")
    img = tuple(parse_word(images[a], target) for a in source)
    return FreeMorphism(source_alphabet=source, target_alphabet=target, images=img)


@dataclass(frozen=True, repr=False)
class LatticeAutomaton:
    """A complete deterministic Moore machine with lattice-valued outputs."""

    lattice: Lattice
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: int
    delta: tuple[tuple[int, ...], ...]  # delta[state][letter] -> state
    output: tuple[int, ...]  # state -> lattice element

    def __repr__(self) -> str:
        return (
            f"<LatticeAutomaton {len(self.states)} states over "
            f"{list(self.alphabet)!r}>"
        )

    @cached_property
    def _letter_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alphabet)}

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    def state(self, s: int | str) -> int:
        return resolve(self._state_index, s, "state", len(self.states))

    def run(self, word: str | Sequence[str], start: int | None = None) -> int:
        """The state reached from ``start`` (default: initial) on ``word``."""
        q = self.initial if start is None else start
        for a in parse_word(word, self.alphabet):
            q = self.delta[q][self._letter_index[a]]
        return q


def make_automaton(
    lattice: Lattice,
    alphabet: Sequence[str],
    states: Sequence[str],
    initial: int | str,
    delta: Mapping[str, Mapping[str, str]] | Sequence[Sequence[int | str]],
    output: Mapping[str, int | str] | Sequence[int | str],
) -> LatticeAutomaton:
    """Validate a complete deterministic lattice automaton."""
    letters = name_tuple(alphabet, "alphabet letters")
    known = set(letters)
    if len(known) != len(letters) or not letters:
        raise MalformedDocument("alphabet must be a nonempty list of distinct letters")
    names = name_tuple(states, "state names")
    if len(set(names)) != len(names) or not names:
        raise MalformedDocument("states must be a nonempty list of distinct names")
    state_index = {s: i for i, s in enumerate(names)}

    table: list[Sequence[int]] = []
    if isinstance(delta, Mapping):
        for s in names:
            row_map = delta.get(s)
            if not isinstance(row_map, Mapping):
                raise MalformedDocument(
                    f"partial automaton: no transitions for state {s!r}", witness=s
                )
            row = []
            for a in letters:
                if a not in row_map:
                    raise MalformedDocument(
                        f"partial automaton: no transition for ({s!r}, {a!r})",
                        witness=[s, a],
                    )
                row.append(resolve(state_index, row_map[a], "state"))
            for a in row_map:
                if a not in known:
                    raise UnknownLetter(f"unknown letter {a!r} in delta", witness=a)
            table.append(row)
    else:
        if (
            not isinstance(delta, Sequence)
            or len(delta) != len(names)
            or any(not isinstance(r, Sequence) or len(r) != len(letters) for r in delta)
        ):
            raise MalformedDocument("delta table must be states x alphabet")
        table = [resolve_all(row, len(names), lambda: state_index, "state") for row in delta]

    if isinstance(output, Mapping):
        missing = [s for s in names if s not in output]
        if missing:
            raise MalformedDocument(f"output misses states {missing!r}")
        values = lattice.indices([output[s] for s in names])
    elif not isinstance(output, Sequence):
        raise MalformedDocument("output must be an object or a list")
    else:
        if len(output) != len(names):
            raise MalformedDocument("output has the wrong length")
        values = lattice.indices(output)

    return LatticeAutomaton(
        lattice=lattice,
        alphabet=letters,
        states=names,
        initial=resolve(state_index, initial, "state"),
        delta=tuple(tuple(row) for row in table),
        output=tuple(values),
    )


def constant_automaton(lattice: Lattice, alphabet: Sequence[str], value: int | str) -> LatticeAutomaton:
    """The one-state machine of the constant language."""
    return make_automaton(
        lattice, alphabet, ("q0",), "q0",
        [[0] * len(alphabet)], [lattice.index(value)],
    )


def evaluate(a: LatticeAutomaton, word: str | Sequence[str]) -> int:
    """The language value of a word: output of the state reached from the start."""
    return a.output[a.run(word)]


def _check_agree(automata: Sequence[LatticeAutomaton]) -> None:
    """Raise MismatchedAlphabet, then MismatchedLattice, unless all the
    machines share the first one's alphabet and lattice."""
    first = automata[0]
    if any(a.alphabet != first.alphabet for a in automata):
        raise MismatchedAlphabet("automata use different alphabets")
    if any(a.lattice != first.lattice for a in automata):
        raise MismatchedLattice("automata use different lattices")


def product_combine(kind: str, a1: LatticeAutomaton, a2: LatticeAutomaton) -> LatticeAutomaton:
    """Join or meet of two languages via the product machine.

    State (p, q) has index p*|Q2| + q, as in ``monoid.direct_product``.
    """
    _check_agree([a1, a2])
    table, _ = combination(a1.lattice, kind)
    n2 = len(a2.states)
    return LatticeAutomaton(
        lattice=a1.lattice,
        alphabet=a1.alphabet,
        states=tuple(product_name((p, q)) for p in a1.states for q in a2.states),
        initial=a1.initial * n2 + a2.initial,
        delta=tuple(
            tuple(p * n2 + q for p, q in zip(row1, row2))
            for row1 in a1.delta
            for row2 in a2.delta
        ),
        output=tuple(table[p][q] for p in a1.output for q in a2.output),
    )


def combine_many(kind: str, automata: Sequence[LatticeAutomaton]) -> LatticeAutomaton:
    """Join or meet of several languages over the reachable synchronized product.

    Only states reachable from the joint start are materialized, which keeps
    wide combinations (e.g. one piece per monoid element) tractable: the
    states are the orbit of the joint start, in discovery order, and the
    transitions are the orbit's table.
    """
    if not automata:
        raise MalformedDocument("combine_many needs at least one automaton")
    _check_agree(automata)
    first = automata[0]
    table, unit = combination(first.lattice, kind)
    order, delta = orbit(
        tuple(a.initial for a in automata),
        lambda combo: zip(*(a.delta[q] for a, q in zip(automata, combo))),
        COMBINE_STATE_CAP,
        "combined automaton",
    )
    names = tuple(
        product_name(a.states[q] for a, q in zip(automata, combo)) for combo in order
    )
    output = tuple(
        reduce(lambda acc, v: table[acc][v], (a.output[q] for a, q in zip(automata, combo)), unit)
        for combo in order
    )
    return LatticeAutomaton(
        lattice=first.lattice,
        alphabet=first.alphabet,
        states=names,
        initial=0,
        delta=tuple(map(tuple, delta)),
        output=output,
    )


def quotient(side: str, a: LatticeAutomaton, u: str | Sequence[str]) -> LatticeAutomaton:
    """Word quotient: left moves the start by u, right recolors by the u-successor."""
    word = parse_word(u, a.alphabet)
    if side == "left":
        return replace(a, initial=a.run(word))
    if side == "right":
        return replace(
            a, output=tuple(a.output[a.run(word, start=q)] for q in range(len(a.states)))
        )
    raise MalformedDocument(f"unknown quotient side {side!r}")


def inverse_hom(a: LatticeAutomaton, h: FreeMorphism) -> LatticeAutomaton:
    """The language L∘h: transitions follow the letter images of h."""
    if h.target_alphabet != a.alphabet:
        raise MismatchedAlphabet("morphism target alphabet differs from the automaton's")
    delta = tuple(
        tuple(a.run(img, start=q) for img in h.images) for q in range(len(a.states))
    )
    return replace(a, alphabet=h.source_alphabet, delta=delta)


def recolor(a: LatticeAutomaton, alpha: LatticeMorphism) -> LatticeAutomaton:
    """Post-compose the output with a monotone self-map of the lattice."""
    if alpha.lattice != a.lattice:
        raise MismatchedLattice("morphism lattice differs from the automaton's")
    return replace(a, output=tuple(alpha.mapping[v] for v in a.output))


def trim(a: LatticeAutomaton) -> LatticeAutomaton:
    """Restrict to the states reachable from the start, keeping their order."""
    keep = sorted(orbit(a.initial, a.delta.__getitem__)[0])
    if len(keep) == len(a.states):
        return a
    remap = {old: new for new, old in enumerate(keep)}
    return replace(
        a,
        states=tuple(a.states[q] for q in keep),
        initial=remap[a.initial],
        delta=tuple(tuple(remap[t] for t in a.delta[q]) for q in keep),
        output=tuple(a.output[q] for q in keep),
    )


def minimize(a: LatticeAutomaton) -> LatticeAutomaton:
    """Reachable-trim, then coarsest partition refinement on output values
    (Moore 1956).

    Blocks start as the states numbered by output; each round numbers the
    states by their block and the blocks of their letter successors, until
    a round changes nothing.  ``number`` numbers blocks by their least
    member, so a block's number is its state in the result and its least
    member, whose name it takes, is its representative.
    """
    a = trim(a)
    columns = list(zip(*a.delta))
    block = number(a.output)
    while True:
        refined = number(zip(block, *(map(block.__getitem__, column) for column in columns)))
        if refined == block:
            break
        block = refined
    reps = firsts(block)
    return LatticeAutomaton(
        lattice=a.lattice,
        alphabet=a.alphabet,
        states=tuple(a.states[q] for q in reps),
        initial=block[a.initial],
        delta=tuple(tuple(block[t] for t in a.delta[q]) for q in reps),
        output=tuple(a.output[q] for q in reps),
    )


def find_difference(a1: LatticeAutomaton, a2: LatticeAutomaton) -> Word | None:
    """The shortest word on which the two languages differ, or None.

    Decided exactly by breadth-first search over the reachable synchronous
    product, letters in alphabet order.  This search is kept apart from
    ``orbit`` on purpose: it stops at the first pair that differs, while an
    orbit would build the whole product.
    """
    _check_agree([a1, a2])
    start = (a1.initial, a2.initial)
    parents: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    queue = deque([start])
    n_letters = len(a1.alphabet)

    def word_of(pair: tuple[int, int]) -> Word:
        letters: list[str] = []
        cursor = parents[pair]
        while cursor is not None:
            prev, l = cursor
            letters.append(a1.alphabet[l])
            cursor = parents[prev]
        return tuple(reversed(letters))

    while queue:
        p, q = queue.popleft()
        if a1.output[p] != a2.output[q]:
            return word_of((p, q))
        for l in range(n_letters):
            nxt = (a1.delta[p][l], a2.delta[q][l])
            if nxt not in parents:
                parents[nxt] = ((p, q), l)
                queue.append(nxt)
    return None


def equivalent(a1: LatticeAutomaton, a2: LatticeAutomaton) -> bool:
    """True iff the two machines define the same language."""
    return find_difference(a1, a2) is None
