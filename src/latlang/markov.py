"""Finite Markov chains with exact rational arithmetic.

Everything about a chain's classes comes from one relation, the states
each state reaches: two states communicate when each reaches the other,
the closed communicating classes are the ergodic classes, and a state's
reachable color is the set of ergodic classes it reaches.  A convex
decomposition of the transition matrix into deterministic maps yields a
simulating automaton whose letters carry the decomposition weights, so
random words reproduce the chain.  Absorption probabilities come from an
exact linear solve; floating point never enters any computation, only
report rendering.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

from .automaton import LatticeAutomaton, evaluate, make_automaton, word_name
from .errors import (
    BadFraction,
    MalformedDocument,
    MismatchedAlphabet,
    NegativeEntry,
    NoErgodicClass,
    NoInitial,
    RowSumNotOne,
    SingularSystem,
    UnknownElement,
)
from .lattice import Lattice, closure_bits, name_tuple, number, resolve
from .lattice import standard_lattice, subset_name
from .monoid import is_aperiodic
from .syntactic import shuffle_verdict

_FRACTION_RE = re.compile(r"^(-?\d+)(?:\s*/\s*(\d+))?$")

LETTER_PREFIX = "ℓ"  # generated decomposition letters


def parse_fraction(text: str | int) -> Fraction:
    """Parse an exact fraction from "p/q" or integer form."""
    if isinstance(text, bool):
        raise BadFraction(f"not a fraction: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    match = _FRACTION_RE.match(text.strip()) if isinstance(text, str) else None
    if not match:
        raise BadFraction(f"not a fraction: {text!r}")
    try:
        num = int(match.group(1))
        den = int(match.group(2)) if match.group(2) else 1
    except ValueError as exc:
        raise BadFraction(f"cannot read {text!r}: {exc}") from exc
    if den == 0:
        raise BadFraction(f"zero denominator in {text!r}")
    return Fraction(num, den)


def fraction_text(value: Fraction) -> str:
    """A fraction as ``str`` writes it, at any length.

    ``str`` refuses integers past the interpreter's int-to-text digit
    limit; there each part goes through ``Decimal``, which holds an int
    exactly and writes the same digits with no such limit.
    """
    try:
        return str(value)
    except ValueError:
        num, den = Decimal(value.numerator), Decimal(value.denominator)
        return f"{num}" if den == 1 else f"{num}/{den}"


@dataclass(frozen=True, repr=False)
class MarkovChain:
    """A stochastic matrix over named states, each row held as integers
    over its own denominator.

    ``rows[s]`` lists the positive entries of row s as ``(target,
    numerator)`` pairs, targets ascending, and ``scales[s]`` is the lcm of
    that row's listed denominators, so entry (s, t) is its numerator over
    ``scales[s]`` and the numerators of a row sum to its scale.
    """

    states: tuple[str, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    scales: tuple[int, ...]

    def __repr__(self) -> str:
        return f"<MarkovChain {list(self.states)!r}>"

    @property
    def size(self) -> int:
        return len(self.states)

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    def state(self, s: int | str) -> int:
        return resolve(self._state_index, s, "state", self.size)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense ``Fraction`` matrix, built from the rows on first read."""
        dense = []
        for row, scale in zip(self.rows, self.scales):
            entries = [Fraction(0)] * self.size
            for t, v in row:
                entries[t] = Fraction(v, scale)
            dense.append(tuple(entries))
        return tuple(dense)

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """Per state, the states it reaches in zero or more steps, as a row:
        bit t of ``reach[s]`` is set iff s reaches t."""
        return closure_bits(sum(1 << t for t, _ in row) for row in self.rows)

    @cached_property
    def structure(self) -> ErgodicStructure:
        """The chain's ``ergodic_structure``, computed on first read."""
        return ergodic_structure(self)


def make_chain(states: Sequence[str], rows: Mapping[str, Mapping[str, str | int]]) -> MarkovChain:
    """A chain from its state names and, per state, its listed entries.

    Omitted entries are zero, and each distinct entry text is parsed once.
    Only the listed entries are read: each row's scale is the lcm of its
    listed denominators, its entries are integers over that scale, and
    those integers, zeros dropped, are the chain's row.  A row that does
    not sum to one is named with its total as a fraction.
    """
    names = () if isinstance(states, str) else name_tuple(states, "state names")
    if not names or len(set(names)) != len(names):
        raise MalformedDocument("states must be a nonempty list of distinct names")
    index = {s: i for i, s in enumerate(names)}
    listed: list[list[tuple[int, Fraction]]] = [[] for _ in names]
    parsed: dict[str, Fraction] = {}
    if not isinstance(rows, Mapping):
        raise MalformedDocument("rows must be an object")
    for s, row in rows.items():
        if s not in index:
            raise UnknownElement(f"unknown state {s!r} in rows")
        if not isinstance(row, Mapping):
            raise MalformedDocument(f"row {s!r} must be an object", witness=s)
        listed_s = listed[index[s]]
        for t, p in row.items():
            if t not in index:
                raise UnknownElement(f"unknown state {t!r} in row {s!r}")
            value = parsed.get(p) if isinstance(p, str) else parse_fraction(p)
            if value is None:
                value = parsed[p] = parse_fraction(p)
            if value.numerator < 0:
                raise NegativeEntry(
                    f"negative probability {p!r} at ({s!r}, {t!r})",
                    witness=[s, t, str(p)],
                )
            listed_s.append((index[t], value))
    sparse, scales = [], []
    for s, entries in zip(names, listed):
        scale = lcm(*(p.denominator for _, p in entries))
        row = sorted((t, p.numerator * (scale // p.denominator)) for t, p in entries if p)
        total = sum(v for _, v in row)
        if total != scale:
            total_text = fraction_text(Fraction(total, scale))
            raise RowSumNotOne(f"row {s!r} sums to {total_text}", witness=[s, total_text])
        sparse.append(tuple(row))
        scales.append(scale)
    return MarkovChain(states=names, rows=tuple(sparse), scales=tuple(scales))


def load_chain(text: str) -> MarkovChain:
    """Parse a chain from JSON: {"states": [...], "rows": {s: {t: "p/q"}}}.

    Omitted entries are zero; every row must sum exactly to one.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "states" not in doc or "rows" not in doc:
        raise MalformedDocument('chain document needs "states" and "rows"')
    return make_chain(doc["states"], doc["rows"])


@dataclass(frozen=True)
class ErgodicStructure:
    """Communicating classes, their closedness, and the condensation order."""

    classes: tuple[tuple[int, ...], ...]
    ergodic: tuple[bool, ...]
    transient_states: tuple[int, ...]
    class_dag: tuple[tuple[int, int], ...]

    def ergodic_classes(self) -> list[tuple[int, ...]]:
        return [c for c, flag in zip(self.classes, self.ergodic) if flag]


def ergodic_structure(chain: MarkovChain) -> ErgodicStructure:
    """Classes of the positive-probability digraph; ergodic = closed class.

    States s and t share a class iff each reaches the other, that is iff
    they reach the same states, so the classes are the states numbered by
    their reach rows.  Classes are listed by least state, members sorted.
    """
    n = chain.size
    class_of = number(chain.reach)
    classes: list[list[int]] = [[] for _ in range(max(class_of) + 1)]
    for s, c in enumerate(class_of):
        classes[c].append(s)
    dag = sorted(
        {
            (class_of[s], class_of[t])
            for s in range(n)
            for t, _ in chain.rows[s]
            if class_of[s] != class_of[t]
        }
    )
    outgoing = {c for c, _ in dag}
    ergodic = tuple(c not in outgoing for c in range(len(classes)))
    transient = tuple(
        s for s in range(n) if not ergodic[class_of[s]]
    )
    return ErgodicStructure(
        classes=tuple(map(tuple, classes)),
        ergodic=ergodic,
        transient_states=transient,
        class_dag=tuple(dag),
    )


@dataclass(frozen=True, repr=False)
class Decomposition:
    """Deterministic maps with positive weights summing to one.

    Summing weight * [map(s) = t] over the letters reproduces the transition
    matrix exactly.  Letters, maps and weights come in equal numbers, one
    map and one weight per letter.
    """

    letters: tuple[str, ...]
    maps: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not len(self.letters) == len(self.maps) == len(self.weights):
            raise MalformedDocument("decomposition needs one map and one weight per letter")

    def __repr__(self) -> str:
        return f"<Decomposition {list(self.letters)!r}>"


def validate_decomposition(chain: MarkovChain, decomposition: Decomposition) -> None:
    """Check the convex-reconstruction invariant exactly.

    Totals are integers over the lcm of the chain's row scales and the
    weights' denominators, summed and compared row by row over the row's
    entries and the letters' targets; the witness is the first differing
    (s, t) in row-major order.  Each map must first list one state index
    per state of the chain.
    """
    n = chain.size
    for letter, mapping in zip(decomposition.letters, decomposition.maps):
        if len(mapping) != n or {type(t) for t in mapping} != {int} or not (
            0 <= min(mapping) <= max(mapping) < n
        ):
            raise MalformedDocument(
                f"map of letter {letter!r} must send each of the {n} states to a state index",
                witness=letter,
            )
    if len(set(decomposition.letters)) != len(decomposition.letters):
        raise MalformedDocument("decomposition letters must be distinct")
    if not decomposition.letters:
        raise MalformedDocument("decomposition needs at least one letter")
    if any(w <= 0 for w in decomposition.weights):
        raise NegativeEntry("decomposition weights must be positive")
    scale = lcm(*(w.denominator for w in decomposition.weights), *chain.scales)
    weights = [w.numerator * (scale // w.denominator) for w in decomposition.weights]
    if sum(weights) != scale:
        raise RowSumNotOne("decomposition weights must sum to one")
    letters = list(zip(decomposition.maps, weights))
    for s, (row, row_scale) in enumerate(zip(chain.rows, chain.scales)):
        expected = {t: v * (scale // row_scale) for t, v in row}
        totals: dict[int, int] = {}
        for mapping, w in letters:
            totals[mapping[s]] = totals.get(mapping[s], 0) + w
        if totals != expected:
            t = min(t for t in expected.keys() | totals.keys()
                    if totals.get(t, 0) != expected.get(t, 0))
            raise MalformedDocument(
                "decomposition does not reconstruct the chain",
                witness=[
                    chain.states[s],
                    chain.states[t],
                    fraction_text(Fraction(expected.get(t, 0), scale)),
                    fraction_text(Fraction(totals.get(t, 0), scale)),
                ],
            )


def decompose(chain: MarkovChain) -> Decomposition:
    """Greedy convex decomposition into deterministic maps.

    Residuals are integers over the lcm of the chain's row scales.  Each
    round picks, per state, the column with the largest residual (ties to
    the lowest index), uses the minimum of those residuals as the letter
    weight, and subtracts.  Only each row's support is scanned: a row keeps
    the columns whose residual is still positive, starting from its
    entries, and drops a column once its residual reaches zero.  Rows
    keep equal residual mass, so the loop ends when the first row's support
    is empty, with an exact reconstruction in at most one step per nonzero
    entry.
    """
    scale = lcm(*chain.scales)
    residual = [
        {t: v * (scale // row_scale) for t, v in row}
        for row, row_scale in zip(chain.rows, chain.scales)
    ]
    letters: list[str] = []
    maps: list[tuple[int, ...]] = []
    weights: list[Fraction] = []
    while residual[0]:
        picks = tuple(max(row, key=lambda t: (row[t], -t)) for row in residual)
        weight = min(row[t] for row, t in zip(residual, picks))
        for row, t in zip(residual, picks):
            row[t] -= weight
            if row[t] == 0:
                del row[t]
        letters.append(f"{LETTER_PREFIX}{len(letters) + 1}")
        maps.append(picks)
        weights.append(Fraction(weight, scale))
    decomposition = Decomposition(
        letters=tuple(letters), maps=tuple(maps), weights=tuple(weights)
    )
    validate_decomposition(chain, decomposition)
    return decomposition


def ergodic_lattice(structure: ErgodicStructure) -> Lattice:
    """The powerset lattice of ergodic class indices {1..k}."""
    k = len(structure.ergodic_classes())
    if k == 0:
        raise NoErgodicClass("chain has no ergodic class")
    return standard_lattice("powerset", k)


def simulating_automaton(
    chain: MarkovChain,
    mode: str = "basic",
    decomposition: Decomposition | None = None,
    initial: int | str | None = None,
) -> LatticeAutomaton:
    """The deterministic machine of a decomposition, colored by ergodic classes.

    Reachable mode colors every state with the set of ergodic classes it
    can reach, so an ergodic class gets its singleton; basic mode is the
    same coloring with every transient state raised to the full set.
    """
    _, reachable, basic = _machines(chain, mode, decomposition, initial)
    return reachable if mode == "reachable" else basic


def _machines(
    chain: MarkovChain,
    mode: str,
    decomposition: Decomposition | None,
    initial: int | str | None,
) -> tuple[Decomposition, LatticeAutomaton, LatticeAutomaton]:
    """The checked decomposition and its reachable and basic machines.

    The mode is checked first, then the greedy decomposition is built or
    the given one validated.  One ``make_automaton`` call validates the
    reachable machine; the basic one is a copy with every transient
    state's output raised to the lattice's top.
    """
    if mode not in ("basic", "reachable"):
        raise MalformedDocument(f"unknown coloring mode {mode!r}")
    if decomposition is None:
        decomposition = decompose(chain)
    else:
        validate_decomposition(chain, decomposition)
    if initial is None:
        start = 0
    else:
        try:
            start = chain.state(initial)
        except UnknownElement as exc:
            raise NoInitial(f"unknown initial state {initial!r}") from exc
    structure = chain.structure
    # a state that reaches one member of an ergodic class reaches them all
    firsts = [members[0] for members in structure.ergodic_classes()]
    colors = [
        subset_name(i + 1 for i, t in enumerate(firsts) if reach >> t & 1)
        for reach in chain.reach
    ]
    reachable = make_automaton(
        ergodic_lattice(structure),
        decomposition.letters,
        chain.states,
        start,
        list(zip(*decomposition.maps)),
        colors,
    )
    output = list(reachable.output)
    for s in structure.transient_states:
        output[s] = reachable.lattice.top
    return decomposition, reachable, replace(reachable, output=tuple(output))


def _solve_exact(
    rows: list[tuple[dict[int, int], list[int]]]
) -> list[list[Fraction]]:
    """Sparse fraction-free elimination of the integer system A x = B, n
    rows, with multiple right-hand sides.  Row i is ``(entries, rhs)``:
    ``entries`` maps each column where row i of A is nonzero to its entry,
    and ``rhs`` is row i of B.  Row j of the answer is x_j, one fraction
    per right-hand side.

    Each pivot is the entry that keeps the rows sparsest (Markowitz 1957):
    the least (row entries - 1) * (column entries - 1) over the rows not
    yet pivoted, ties to the lowest row and then column, so the pivot of a
    column comes from whichever row it needs.  Every other row holding the
    pivot column c becomes p * row - f * pivot_row, for p the pivot and f
    the row's entry in c, both over their gcd, and is then divided by the
    gcd of its entries; an active row left with no entry means the system
    is singular.  A row's cost is recomputed only when the last pivot
    touched its entries or the counts of its columns.  Back-substitution
    runs in reverse pivot order, each unknown held as integer numerators
    over one positive denominator.
    """
    n = len(rows)
    a = [entries for entries, _ in rows]
    b = [rhs for _, rhs in rows]
    cols: list[set[int]] = [set() for _ in range(n)]
    for r, entries in enumerate(a):
        for c in entries:
            cols[c].add(r)
    cost = [0] * n
    active, dirty = list(range(n)), range(n)
    pivots = []
    while active:
        for r in dirty:
            entries = a[r]
            if not entries:
                raise SingularSystem("absorption system is singular")
            cost[r] = (len(entries) - 1) * (min(map(len, map(cols.__getitem__, entries))) - 1)
        r = min(active, key=cost.__getitem__)
        active.remove(r)
        top, top_rhs = a[r], b[r]
        least = min(map(len, map(cols.__getitem__, top)))
        c = min(col for col in top if len(cols[col]) == least)
        pivots.append((r, c))
        for col in top:
            cols[col].discard(r)
        for i in cols[c]:
            g = gcd(top[c], a[i][c])
            p, f = top[c] // g, a[i][c] // g
            row = {col: p * v for col, v in a[i].items() if col != c}
            for col, w in top.items():
                if col != c:
                    v = row.get(col, 0) - f * w
                    if v:
                        row[col] = v
                        cols[col].add(i)
                    else:
                        del row[col]
                        cols[col].discard(i)
            rhs = [p * v - f * w for v, w in zip(b[i], top_rhs)]
            g = gcd(*row.values(), *rhs)
            if g > 1:
                row = {col: v // g for col, v in row.items()}
                rhs = [v // g for v in rhs]
            a[i], b[i] = row, rhs
        dirty = set().union(*map(cols.__getitem__, top))
        cols[c] = set()
    nums: list[list[int]] = [[]] * n
    dens = [1] * n
    for r, c in reversed(pivots):
        entries = a[r]
        den = lcm(*(dens[j] for j in entries if j != c))
        x = [v * den for v in b[r]]
        for j, w in entries.items():
            if j != c:
                scale = den // dens[j] * w
                x = [v - scale * y for v, y in zip(x, nums[j])]
        den *= entries[c]
        if den < 0:
            den, x = -den, [-v for v in x]
        g = gcd(den, *x)
        nums[c], dens[c] = [v // g for v in x], den // g
    return [[Fraction(v, d) for v in x] for x, d in zip(nums, dens)]


def absorption_probabilities(chain: MarkovChain) -> dict[int, dict[str, Fraction]]:
    """Per ergodic class, the exact absorption probability from every state.

    States inside the class get 1, states of other ergodic classes 0, and
    transient states solve x = Pi x with boundary values, by sparse
    fraction-free elimination over the integers.  Each row of
    [I - Q | class sums] is built from the state's row alone, its
    integers taken as they are, over the row's scale.  The classes are
    read off ``chain.structure``.
    """
    structure = chain.structure
    ergodic = structure.ergodic_classes()
    transient = structure.transient_states
    t_index = {s: i for i, s in enumerate(transient)}
    class_of = {t: c for c, members in enumerate(ergodic) for t in members}
    rows = []
    for s in transient:
        entries = {t_index[s]: chain.scales[s]}
        masses = [0] * len(ergodic)
        for t, v in chain.rows[s]:
            if t in t_index:
                i = t_index[t]
                entries[i] = entries.get(i, 0) - v
            else:
                masses[class_of[t]] += v
        rows.append((entries, masses))
    solved = _solve_exact(rows) if transient else []
    return {
        c: {
            name: solved[t_index[s]][c] if s in t_index else Fraction(int(class_of[s] == c))
            for s, name in enumerate(chain.states)
        }
        for c in range(len(ergodic))
    }


def absorption_doc(chain: MarkovChain) -> dict[str, dict[str, str]]:
    """Absorption probabilities as a document: "C1", "C2", ... to state name
    to fraction text, states sorted by name."""
    return {
        f"C{c + 1}": {state: fraction_text(p) for state, p in sorted(per_state.items())}
        for c, per_state in absorption_probabilities(chain).items()
    }


def word_measure(
    a: LatticeAutomaton, decomposition: Decomposition, n: int
) -> dict[int, Fraction]:
    """Exact distribution of the language value over random words of length n.

    Letters are drawn independently with the decomposition weights; the
    state distribution is propagated n steps, never enumerating words, as
    integers over W^t for the weights' lcm W.  Before the first step each
    state's letters are merged by target into moves, one (target, summed
    weight) per distinct target, so a step costs one product per move, not
    one per letter.  A negative n is taken as 0.
    """
    if a.alphabet != decomposition.letters:
        raise MismatchedAlphabet(
            "automaton letters differ from the decomposition letters"
        )
    scale = lcm(*(w.denominator for w in decomposition.weights))
    weights = [w.numerator * (scale // w.denominator) for w in decomposition.weights]
    moves = []
    for row in a.delta:
        merged: dict[int, int] = {}
        for t, weight in zip(row, weights):
            merged[t] = merged.get(t, 0) + weight
        moves.append(tuple(merged.items()))
    steps = max(n, 0)
    dist = [0] * len(a.states)
    dist[a.initial] = 1
    for _ in range(steps):
        nxt = [0] * len(a.states)
        for mass, row in zip(dist, moves):
            if mass:
                for t, weight in row:
                    nxt[t] += mass * weight
        dist = nxt
    masses: dict[int, int] = {}
    for s, mass in enumerate(dist):
        if mass:
            masses[a.output[s]] = masses.get(a.output[s], 0) + mass
    return {e: Fraction(m, scale**steps) for e, m in masses.items()}


def analyze(
    chain: MarkovChain,
    *,
    decomposition: Decomposition | None = None,
    initial: int | str | None = None,
    horizon: int = 8,
    falsify_bound: int = 6,
    mode: str = "basic",
) -> dict:
    """Full ergodic-class report: structure, decomposition, simulating machines,
    syntactic analysis with shuffle verdict and witness, absorption, measures.

    Both coloring modes appear in the report; ``mode`` picks the language
    that drives the syntactic, shuffle, and word-measure sections.  The
    report is a document with deterministic content: a dict of names whose
    monoid table is a ``serialize.Table``, written by ``canonical_dumps``
    or ``text_dumps``.  Each step is done once: the ergodic structure is
    read off ``chain.structure``, which the absorption step reads too, and
    both machines come from one ``make_automaton`` call, the basic one being
    the reachable one with its transient states raised to the top.
    """
    from .serialize import automaton_to_doc, decomposition_to_doc, monoid_to_doc

    decomposition, reachable, basic = _machines(chain, mode, decomposition, initial)
    structure = chain.structure
    analyzed = basic if mode == "basic" else reachable
    synt, algebraic, falsifier = shuffle_verdict(analyzed, falsify_bound)
    absorption = absorption_doc(chain)
    masses = word_measure(analyzed, decomposition, horizon)
    return {
        "states": list(chain.states),
        "initial": basic.states[basic.initial],
        "mode": mode,
        "classes": [
            {
                "states": [chain.states[s] for s in members],
                "ergodic": bool(flag),
            }
            for members, flag in zip(structure.classes, structure.ergodic)
        ],
        "transient_states": [chain.states[s] for s in structure.transient_states],
        "class_dag": [list(edge) for edge in structure.class_dag],
        "decomposition": decomposition_to_doc(decomposition, chain),
        "automaton_basic": automaton_to_doc(basic),
        "automaton_reachable": automaton_to_doc(reachable),
        "syntactic": {
            "size": synt.monoid.size,
            "order": [list(p) for p in synt.monoid.order_pairs()],
            "monoid": monoid_to_doc(synt.monoid),
            "aperiodic": is_aperiodic(synt.monoid),
            "identity_is_greatest": algebraic,
        },
        "shuffle": {
            "algebraic": algebraic,
            "bound": falsify_bound,
            "falsifier": None
            if falsifier is None
            else {
                "subword": word_name(falsifier[0]),
                "superword": word_name(falsifier[1]),
                "value_subword": analyzed.lattice.elements[evaluate(analyzed, falsifier[0])],
                "value_superword": analyzed.lattice.elements[evaluate(analyzed, falsifier[1])],
            },
        },
        "absorption": absorption,
        "word_measure": {
            "horizon": horizon,
            "masses": {
                analyzed.lattice.elements[e]: fraction_text(m)
                for e, m in sorted(masses.items())
            },
        },
    }
