"""Recognition by finite ordered monoids and the syntactic ordered monoid.

The syntactic ordered monoid of a language is the transition monoid of its
minimal machine, with state maps ordered pointwise by the state preorder:
s <= t iff out(s.w) <= out(t.w) for every word w.  This preorder is read
off the word maps themselves, as the pointwise order over the lattice on
each state's output profile (its outputs after every word map).  Because
contexts act through state maps and reachable states, the order on maps
coincides with the two-sided word-context preorder, and on the minimal
machine it is antisymmetric, so no quotient is needed.  The
multiplication table is read off the right Cayley graph that the
breadth-first search for the word maps already builds.  A recognizer
given by a table gets the same triple from the table
(``syntactic_quotients``), with no machine: the minimal machine's states
are the right-context profiles of the elements the letters reach.  Both
routes end in one tail (``_syntactic_triple``): the witness words come
from ``orbit_words`` and the table from the Cayley graph, the states are
preordered on their profiles and the elements pointwise over that
preorder, both by ``lattice.pointwise_order``, and the table is validated
through the letter images.

State maps multiply left-to-right (m1*m2 applies m1 first), so the map of
a concatenation is the product of the maps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import itemgetter

from .automaton import (
    LatticeAutomaton,
    Word,
    combine_many,
    equivalent,
    minimize,
    parse_word,
    quotient,
    recolor,
    trim,
    word_name,
)
from .coloring import (
    OpColoring,
    ideal_coloring,
    make_op_coloring,
    postcompose,
    product_coloring,
)
from .errors import (
    InternalInconsistency,
    MismatchedAlphabet,
    MismatchedCarrier,
    MismatchedLattice,
    NotAntisymmetric,
    NotAssociative,
    NotCompatible,
    WitnessNotFound,
)
from .lattice import cons as cons_morphism
from .lattice import Lattice, LatticeMorphism, firsts, number, orbit, orbit_words
from .lattice import pointwise_order, threshold
from .monoid import (
    OrderedMonoid,
    _make_unchecked,
    check_generated,
    identity_is_greatest,
    product_index,
)

TRANSITION_MONOID_CAP = 10_000


@dataclass(frozen=True, repr=False)
class RecognitionTriple:
    """A morphism from words (by letter images), a monoid, and a coloring.

    The recognized language sends a word to the color of its image.
    """

    alphabet: tuple[str, ...]
    generator_images: tuple[int, ...]
    monoid: OrderedMonoid
    coloring: OpColoring

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {list(self.alphabet)!r} on {self.monoid!r}>"

    def image_of(self, word: str | Sequence[str]) -> int:
        m = self.monoid.identity
        lookup = dict(zip(self.alphabet, self.generator_images))
        for a in parse_word(word, self.alphabet):
            m = self.monoid.mul[m][lookup[a]]
        return m


def make_recognition_triple(
    alphabet: Sequence[str],
    generator_images: Sequence[int | str],
    monoid: OrderedMonoid,
    coloring: OpColoring,
) -> RecognitionTriple:
    if coloring.monoid != monoid:
        raise MismatchedCarrier("coloring does not live on the triple's monoid")
    images = tuple(monoid.index(g) for g in generator_images)
    if len(images) != len(tuple(alphabet)):
        raise MismatchedAlphabet("one generator image per letter is required")
    return RecognitionTriple(
        alphabet=tuple(alphabet),
        generator_images=images,
        monoid=monoid,
        coloring=coloring,
    )


@dataclass(frozen=True, repr=False)
class SyntacticResult(RecognitionTriple):
    """The syntactic recognition triple, with the length-lex-least word
    of each monoid element."""

    witnesses: tuple[Word, ...]


def _state_maps(a: LatticeAutomaton) -> tuple[list, list[list[int]]]:
    """The state maps of words on a trimmed machine, as the orbit of the
    identity map under right composition by the letter maps, with the
    orbit's table, which is their right Cayley graph.

    A map m's successors gather every letter map at m's entries through one
    ``itemgetter(*m)``.  On one state that would return a bare int, so the
    one-state machine returns its fixed point, the identity map, up front.
    """
    gens = list(zip(*a.delta))
    if len(a.states) == 1:
        return [(0,)], [[0] * len(gens)]
    return orbit(
        tuple(range(len(a.states))),
        lambda m: map(itemgetter(*m), gens),
        TRANSITION_MONOID_CAP,
        "transition monoid",
    )


def _words_and_table(
    graph: Sequence[Sequence[int]], alphabet: Sequence[str]
) -> tuple[list[Word], list[tuple]]:
    """The least words and the multiplication table of a monoid given by its
    right Cayley graph in ``orbit`` form.

    If y was first reached from p by letter l, then column y of the table
    is column p read through the graph: x*y = (x*p)*l (Froidure & Pin 1997).
    Each new column is gathered from the graph's column for l by one
    ``itemgetter(*column p)``; a one-element monoid has no new column.
    """
    by_letter = list(zip(*graph))
    columns: list[Sequence[int]] = [range(len(graph))]
    for p, row in enumerate(graph):
        for l, y in enumerate(row):
            if y == len(columns):
                columns.append(itemgetter(*columns[p])(by_letter[l]))
    return orbit_words(graph, alphabet), list(zip(*columns))


def transition_monoid(a: LatticeAutomaton) -> tuple[OrderedMonoid, tuple[int, ...]]:
    """The monoid of state maps with the equality order, and the letter images.

    Elements are named by their length-lex-least generating words.
    """
    maps, graph = _state_maps(trim(a))
    witnesses, mul = _words_and_table(graph, a.alphabet)
    names = tuple(word_name(w) for w in witnesses)
    return _make_unchecked(names, 0, mul, [1 << i for i in range(len(maps))]), tuple(graph[0])


def _syntactic_triple(
    alphabet: tuple[str, ...], graph: Sequence[Sequence[int]], maps: Sequence[Sequence[int]],
    profiles: Sequence[Sequence[int]], lattice: Lattice, values: Sequence[int],
) -> SyntacticResult:
    """The syntactic triple of the monoid with right Cayley graph ``graph``
    (in ``orbit`` form), whose elements act on the minimal machine's states
    by ``maps`` and have colors ``values``.  ``profiles`` gives each state's
    outputs after a common list of contexts: the states are preordered
    pointwise over ``lattice`` on their profiles, and the elements pointwise
    over that preorder on their maps.

    The table is validated through the letter images ``graph[0]`` other
    than the identity, with ``check_generated``.  First the table's column
    at each letter's image must equal the graph's column for that letter,
    so that every element, reached in the graph by letters from the
    identity, is a product of images, and Light's test through the images
    is complete.  A failure raises InternalInconsistency, since it can only
    be a bug.
    """
    witnesses, mul = _words_and_table(graph, alphabet)
    names = tuple(word_name(w) for w in witnesses)
    pre = pointwise_order(lattice.leq, profiles)
    monoid = _make_unchecked(names, 0, mul, pointwise_order(pre, maps))
    images = graph[0]
    if [tuple(map(itemgetter(g), mul)) for g in images] != list(zip(*graph)):
        raise InternalInconsistency("syntactic table disagrees with its Cayley graph")
    try:
        check_generated(monoid, set(images) - {0})
    except (NotAntisymmetric, NotAssociative, NotCompatible) as exc:
        raise InternalInconsistency(f"syntactic monoid failed validation: {exc}") from exc
    return SyntacticResult(
        alphabet=alphabet,
        monoid=monoid,
        generator_images=tuple(images),
        coloring=make_op_coloring(monoid, lattice, values),
        witnesses=tuple(witnesses),
    )


def syntactic(a: LatticeAutomaton) -> SyntacticResult:
    """Compute the syntactic ordered monoid, morphism, coloring, and witnesses.

    Steps: minimize; word maps of the minimal machine, with their Cayley
    graph; then ``_syntactic_triple``.  A state's profile is its output
    after each word map, taken once per distinct column of outputs; the
    triple's tail preorders the states on these profiles and orders the
    maps pointwise, one bitset row each.  TRANSITION_MONOID_CAP caps the
    number of word maps of the minimal machine.
    """
    a = minimize(a)
    maps, graph = _state_maps(a)
    out = a.output
    values = [out[m[a.initial]] for m in maps]
    profiles = list(zip(*{tuple(map(out.__getitem__, m)) for m in maps}))
    return _syntactic_triple(a.alphabet, graph, maps, profiles, a.lattice, values)


def syntactic_quotients(
    alphabet: Sequence[str],
    generator_images: Sequence[int | str],
    colorings: Sequence[OpColoring],
) -> list[SyntacticResult]:
    """The syntactic triple of each coloring's language, read off the table
    of the one monoid the colorings live on: for the triple t of the letter
    images and a coloring, ``syntactic(triple_to_automaton(t))`` field for
    field.  The monoid's table must be associative.  Letter images are
    positions or names, one per letter (else MismatchedAlphabet), and
    every coloring must live on the one monoid (else MismatchedCarrier).

    One ``orbit`` walks the submonoid N that the letter images generate,
    as the reachable states of the triple's machine, in length-lex order of
    their least words.  For a coloring c, x in N has the right-context
    profile (c(xv) for v in N); the distinct profiles are the minimal
    machine's states, preordered pointwise over the lattice.  Each y in N
    acts on them by [x] -> [xy]; the distinct actions are the syntactic
    elements, each listed at its first member in N.  A first member's
    parent in the orbit is a first member, so the rows of the first members
    form the syntactic monoid's Cayley graph in ``orbit`` form, and
    ``_syntactic_triple`` finds the names, witnesses and table the machine
    route finds.
    """
    if not colorings:
        return []
    monoid = colorings[0].monoid
    if any(c.monoid != monoid for c in colorings):
        raise MismatchedCarrier("colorings live on different monoids")
    alphabet = tuple(alphabet)
    gens = tuple(map(monoid.index, generator_images))
    if len(gens) != len(alphabet):
        raise MismatchedAlphabet("one generator image per letter is required")
    mul = monoid.mul
    members, right = orbit(monoid.identity, lambda x: [mul[x][g] for g in gens])
    position = {x: i for i, x in enumerate(members)}
    # products[i][j] is the position in N of members[i] * members[j]; the
    # rows are gathered at the members by one itemgetter, which would
    # return a bare int on the one-element N = {1}
    products = [(0,)]
    if len(members) > 1:
        gather = itemgetter(*members)
        products = [tuple(map(position.__getitem__, gather(mul[x]))) for x in members]
    results = []
    for coloring in colorings:
        colors = [coloring.colors[x] for x in members]
        profiles = [tuple(map(colors.__getitem__, row)) for row in products]
        state = number(profiles)
        states = firsts(state)
        # actions[j] sends each state, read at its first member x, to the state of x * members[j]
        actions = list(zip(*(map(state.__getitem__, products[i]) for i in states)))
        element = number(actions)
        reps = firsts(element)
        graph = [[element[y] for y in right[i]] for i in reps]
        results.append(_syntactic_triple(
            alphabet, graph, [actions[i] for i in reps], [profiles[i] for i in states],
            coloring.lattice, [colors[i] for i in reps],
        ))
    return results


def triple_to_automaton(t: RecognitionTriple) -> LatticeAutomaton:
    """The right-regular machine of a triple: states are the monoid elements.
    Its delta is read off the table one letter column at a time; with no
    letters there are no columns, and each state's row is empty."""
    m = t.monoid
    columns = [tuple(map(itemgetter(g), m.mul)) for g in t.generator_images]
    delta = tuple(zip(*columns)) or ((),) * m.size
    return LatticeAutomaton(
        lattice=t.coloring.lattice,
        alphabet=t.alphabet,
        states=m.elements,
        initial=m.identity,
        delta=delta,
        output=t.coloring.colors,
    )


def product_triple(kind: str, triples: Sequence[RecognitionTriple]) -> RecognitionTriple:
    """The recognizer of the product join or meet of the triples' languages.

    ``kind`` is ``"pjoin"`` or ``"pmeet"``, as in ``product_coloring``: the
    product coloring lives on the direct product of the monoids, and each
    letter goes to the tuple of its images (``product_index``).  This is
    the closure step of the variety theorem for joins and meets.
    """
    coloring = product_coloring(kind, [t.coloring for t in triples])
    alphabet = triples[0].alphabet
    if any(t.alphabet != alphabet for t in triples):
        raise MismatchedAlphabet("product triple factors use different alphabets")
    sizes = [t.monoid.size for t in triples]
    images = tuple(
        product_index(sizes, letter) for letter in zip(*(t.generator_images for t in triples))
    )
    return RecognitionTriple(alphabet, images, coloring.monoid, coloring)


def recognizes(t: RecognitionTriple, a: LatticeAutomaton) -> bool:
    """True iff the triple's language equals the automaton's."""
    if t.alphabet != a.alphabet:
        raise MismatchedAlphabet("triple and automaton use different alphabets")
    if t.coloring.lattice != a.lattice:
        raise MismatchedLattice("triple and automaton use different lattices")
    return equivalent(triple_to_automaton(t), a)


def cut(a: LatticeAutomaton, value: int | str) -> LatticeAutomaton:
    """The two-valued language of words whose value lies below ``value``.

    Bottom encodes membership; transitions are unchanged.
    """
    return replace(a, output=_cut_output(a, value))


def _cut_output(a: LatticeAutomaton, value: int | str) -> tuple[int, ...]:
    """The output of ``cut(a, value)``: each state's output thresholded at
    ``value``."""
    mapping = threshold(a.lattice, value).mapping
    return tuple(map(mapping.__getitem__, a.output))


def reconstruct_from_cuts(a: LatticeAutomaton) -> tuple[RecognitionTriple, bool]:
    """Recognize the language on the product of its cut syntactic monoids.

    For each lattice value v, take the syntactic triple of the cut language
    with its colors joined with v; the recognizer is their product meet
    (``product_triple``).  A cut keeps the machine and changes only its
    output, so each value's cut output is computed first, and a machine is
    built and its syntactic monoid computed only for an output not seen
    before; the product still has one factor per value.  Joining with v
    is monotone by the lattice laws, so that morphism is built with no
    check, and ``postcompose`` validates each joined coloring.  The
    returned flag asserts that the triple recognizes the original language
    (exact equivalence check).
    """
    lat = a.lattice
    by_output: dict[tuple[int, ...], SyntacticResult] = {}
    factors = []
    for v in range(lat.size):
        output = _cut_output(a, v)
        if output not in by_output:
            by_output[output] = syntactic(replace(a, output=output))
        s = by_output[output]
        joined = postcompose(LatticeMorphism(lat, lat.join_table[v]), s.coloring)
        factors.append(RecognitionTriple(s.alphabet, s.generator_images, s.monoid, joined))
    triple = product_triple("pmeet", factors)
    return triple, recognizes(triple, a)


def is_shuffle_ideal(a: LatticeAutomaton) -> bool:
    """Algebraic shuffle-ideal test: is the syntactic identity the greatest element?

    Sound and complete: recognizers with a greatest identity are preserved
    by division, and the syntactic monoid recognizes the language.
    """
    return identity_is_greatest(syntactic(a).monoid)


def shuffle_verdict(
    a: LatticeAutomaton, max_len: int | None
) -> tuple[SyntacticResult, bool, tuple[Word, Word] | None]:
    """The syntactic monoid, the algebraic shuffle-ideal verdict and the
    falsifier bounded by ``max_len``, checked against each other.

    The falsifier runs once, unbounded, so the verdict is checked against
    every word: a pair refutes a true verdict, and a false one must have a
    pair.  Either disagreement raises InternalInconsistency.  The least
    pair is then dropped when its superword is longer than ``max_len``,
    as ``shuffle_ideal_falsify(a, max_len)`` drops it.
    """
    synt = syntactic(a)
    algebraic = identity_is_greatest(synt.monoid)
    falsifier = shuffle_ideal_falsify(a)
    if algebraic and falsifier is not None:
        raise InternalInconsistency(
            "algebraic shuffle verdict is true but a falsifying pair exists"
        )
    if not algebraic and falsifier is None:
        raise InternalInconsistency(
            "algebraic shuffle verdict is false but no falsifying pair exists"
        )
    if falsifier is not None and max_len is not None and len(falsifier[1]) > max_len:
        falsifier = None
    return synt, algebraic, falsifier


def _least_superword(a: LatticeAutomaton) -> list[int] | None:
    """The length-lex-least word v that leads some triple (state after w,
    state after v, whether a letter was skipped) from the start to a
    violation, as letter indices; None if no such v exists.

    One forward breadth-first search: each triple is reached once, from
    the first parent and letter, so the search takes O(n^2 * |A|) steps
    for n states.  Triples that share their least word form a group, and
    a group is expanded letter by letter, the keep move before the skip
    move, so groups arise in length-lex order of their words and the
    first violating triple reached has the least v.  Expanding triple by
    triple instead would interleave the children of one word.
    """
    letters = range(len(a.alphabet))
    delta, out, leq = a.delta, a.output, a.lattice.leq
    start = (a.initial, a.initial, 0)
    parents: dict[tuple[int, int, int], tuple[tuple[int, int, int], int] | None] = {start: None}
    level = [[start]]
    while level:
        following = []
        for group in level:
            for l in letters:
                reached = []
                for t in group:
                    p, q, s = t
                    q2 = delta[q][l]
                    for u in ((delta[p][l], q2, s), (p, q2, 1)):
                        if u in parents:
                            continue
                        parents[u] = (t, l)
                        if u[2] and not leq[out[q2]] >> out[u[0]] & 1:
                            v = []
                            while parents[u] is not None:
                                u, letter = parents[u]
                                v.append(letter)
                            return v[::-1]
                        reached.append(u)
                if reached:
                    following.append(reached)
        level = following
    return None


def shuffle_ideal_falsify(
    a: LatticeAutomaton, max_len: int | None = None
) -> tuple[Word, Word] | None:
    """The least pair (w, v) with w a proper subword of v and L(v) not below L(w).

    v is the length-lex-least word that has such a subword, and w the first
    of its violating subwords by descending length, then lexicographically
    least positions.  Returns None when no v of length at most ``max_len``
    exists; with ``max_len=None`` None proves that the language is a
    shuffle ideal.

    v comes from one forward search over triples (``_least_superword``),
    which has no bound: v is the least superword, so when it is longer
    than ``max_len`` no shorter one exists.  w comes position by position
    from the states that reach a violation with exactly j letters of v
    skipped, for the least j.  No step enumerates words.
    """
    v = _least_superword(a)
    if v is None or max_len is not None and len(v) > max_len:
        return None
    n = len(a.states)
    delta, out, leq = a.delta, a.output, a.lattice.leq
    q = a.initial
    for l in v:
        q = delta[q][l]
    violating = [not leq[out[q]] >> out[p] & 1 for p in range(n)]
    # reach[j][i][p]: from state p, reading v[i:] with exactly j letters
    # skipped can end in a violating state.
    reach: list[list[list[bool]]] = []
    skipped, at_end = [[False] * n] * (len(v) + 1), violating
    while not reach or not reach[-1][0][a.initial]:
        column = [at_end]
        for i in range(len(v) - 1, -1, -1):
            after = column[-1]
            column.append([after[delta[p][v[i]]] or skipped[i + 1][p] for p in range(n)])
        reach.append(column[::-1])
        skipped, at_end = reach[-1], [False] * n
    w: list[int] = []
    p, j = a.initial, len(reach) - 1
    for i, l in enumerate(v):
        if reach[j][i + 1][delta[p][l]]:
            w.append(l)
            p = delta[p][l]
        else:
            j -= 1
    return tuple(a.alphabet[l] for l in w), tuple(a.alphabet[l] for l in v)


def ideal_language_construction(
    a: LatticeAutomaton,
    m: int | str,
    *,
    synt: SyntacticResult | None = None,
) -> tuple[LatticeAutomaton, bool]:
    """Build the ideal language of a syntactic element from quotients of L.

    If ``m`` is the greatest element the result is the constant bottom
    language.  Otherwise, for every y not below m there is a context pair
    (found by scanning element pairs; its absence would contradict the
    syntactic order, hence WitnessNotFound is an internal inconsistency)
    whose two-sided quotient separates y from m; thresholding each quotient
    and joining the pieces yields the ideal language.  The returned flag
    asserts equivalence with the directly constructed ideal language.
    """
    s = synt if synt is not None else syntactic(a)
    monoid = s.monoid
    lat = a.lattice
    colors = s.coloring.colors
    mi = monoid.index(m)
    direct = triple_to_automaton(
        RecognitionTriple(s.alphabet, s.generator_images, monoid, ideal_coloring(monoid, mi, lat))
    )
    strictly_above = [y for y, row in enumerate(monoid.leq) if not row >> mi & 1]
    if not strictly_above:
        result = recolor(a, cons_morphism(lat, lat.bottom))
        return result, equivalent(result, direct)
    pieces = []
    for y in strictly_above:
        found = None
        for u in range(monoid.size):
            for u2 in range(monoid.size):
                vy = colors[monoid.mul[monoid.mul[u][y]][u2]]
                vm = colors[monoid.mul[monoid.mul[u][mi]][u2]]
                if not lat.leq[vy] >> vm & 1:
                    found = (u, u2, vm)
                    break
            if found:
                break
        if found is None:
            raise WitnessNotFound(
                f"no separating context for {monoid.elements[y]!r} over "
                f"{monoid.elements[mi]!r}; contradicts the syntactic order"
            )
        u, u2, pivot = found
        alpha = threshold(lat, pivot)
        piece = recolor(
            quotient("right", quotient("left", a, s.witnesses[u]), s.witnesses[u2]),
            alpha,
        )
        pieces.append(piece)
    result = combine_many("join", pieces)
    return result, equivalent(result, direct)
