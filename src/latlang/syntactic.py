"""Recognition by finite ordered monoids and the syntactic ordered monoid.

The syntactic ordered monoid of a language is the transition monoid of its
minimal machine, with state maps ordered pointwise by the simulation
preorder on states (the greatest relation refining output comparison that
is closed under successors).  Because contexts act through state maps and
reachable states, this order coincides with the two-sided word-context
preorder, and on the minimal machine it is antisymmetric, so no quotient
is needed.  The resulting table is validated through its generators.

State maps multiply left-to-right (m1*m2 applies m1 first), so the map of
a concatenation is the product of the maps.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Sequence

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
from .coloring import OpColoring, ideal_coloring, make_op_coloring
from .errors import (
    InternalInconsistency,
    MismatchedAlphabet,
    MismatchedCarrier,
    MismatchedLattice,
    NotAntisymmetric,
    NotAssociative,
    NotCompatible,
    SizeCapExceeded,
    WitnessNotFound,
)
from .lattice import cons as cons_morphism
from .lattice import threshold
from .monoid import (
    OrderedMonoid,
    _make_unchecked,
    check_generated,
    direct_product,
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
        return f"<RecognitionTriple over {list(self.alphabet)!r} on {self.monoid!r}>"

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
class SyntacticResult:
    """The syntactic ordered monoid with its morphism, coloring, and witnesses."""

    alphabet: tuple[str, ...]
    monoid: OrderedMonoid
    generator_images: tuple[int, ...]
    coloring: OpColoring
    witnesses: tuple[Word, ...]

    def __repr__(self) -> str:
        return f"<SyntacticResult {self.monoid.size} classes>"

    @property
    def triple(self) -> RecognitionTriple:
        return RecognitionTriple(
            alphabet=self.alphabet,
            generator_images=self.generator_images,
            monoid=self.monoid,
            coloring=self.coloring,
        )


def _word_maps(
    a: LatticeAutomaton, max_size: int
) -> tuple[list[tuple[int, ...]], list[Word], list[int]]:
    """All state maps of words on a trimmed machine, with length-lex witnesses.

    Breadth-first closure from the identity map under right composition by
    letter maps; the first witness found for a map is its length-lex-least
    generating word.
    """
    n = len(a.states)
    identity = tuple(range(n))
    gens = [tuple(a.delta[q][l] for q in range(n)) for l in range(len(a.alphabet))]
    maps = [identity]
    witnesses: list[Word] = [()]
    index = {identity: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        base = maps[i]
        for l, g in enumerate(gens):
            composed = tuple(g[base[q]] for q in range(n))
            if composed not in index:
                if len(maps) >= max_size:
                    raise SizeCapExceeded(
                        f"transition monoid exceeds cap {max_size}"
                    )
                index[composed] = len(maps)
                maps.append(composed)
                witnesses.append(witnesses[i] + (a.alphabet[l],))
                queue.append(len(maps) - 1)
    gen_ids = [index[g] for g in gens]
    return maps, witnesses, gen_ids


def transition_monoid(
    a: LatticeAutomaton, *, max_size: int = TRANSITION_MONOID_CAP
) -> tuple[OrderedMonoid, tuple[int, ...]]:
    """The monoid of state maps with the equality order, and the letter images.

    Elements are named by their length-lex-least generating words.
    """
    a = trim(a)
    maps, witnesses, gen_ids = _word_maps(a, max_size)
    k = len(maps)
    leq = [[i == j for j in range(k)] for i in range(k)]
    names = tuple(word_name(w) for w in witnesses)
    monoid = _make_unchecked(names, 0, _composition_table(maps), leq)
    return monoid, tuple(gen_ids)


def _composition_table(maps: list[tuple[int, ...]]) -> list[list[int]]:
    """Row i, column j: the index of the map that applies maps[i], then maps[j].

    ``maps`` must be distinct and closed under composition.
    """
    index = {m: i for i, m in enumerate(maps)}
    return [[index[tuple(mj[q] for q in mi)] for mj in maps] for mi in maps]


def _state_preorder(a: LatticeAutomaton) -> list[list[bool]]:
    """Greatest relation R with sRt implying F(s)<=F(t) and successor closure.

    Computed by iterated refinement from the output comparison; on a
    complete deterministic machine this is exactly per-word output
    domination.
    """
    n = len(a.states)
    rel = [
        [a.lattice.leq[a.output[s]][a.output[t]] for t in range(n)]
        for s in range(n)
    ]
    n_letters = len(a.alphabet)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            for t in range(n):
                if rel[s][t] and any(
                    not rel[a.delta[s][l]][a.delta[t][l]] for l in range(n_letters)
                ):
                    rel[s][t] = False
                    changed = True
    return rel


def syntactic(a: LatticeAutomaton, *, max_size: int = TRANSITION_MONOID_CAP) -> SyntacticResult:
    """Compute the syntactic ordered monoid, morphism, coloring, and witnesses.

    Steps: minimize; state preorder; word maps of the minimal machine, named
    by their length-lex-least words; pointwise order of the maps.  The
    table is validated through the letter images with ``check_generated``;
    a failure raises InternalInconsistency since it can only be a bug.
    ``max_size`` caps the number of word maps of the minimal machine.
    """
    a = minimize(a)
    pre = _state_preorder(a)
    maps, witnesses, gen_ids = _word_maps(a, max_size)
    leq = [
        [all(pre[p][q] for p, q in zip(mi, mj)) for mj in maps] for mi in maps
    ]
    names = tuple(word_name(w) for w in witnesses)
    monoid = _make_unchecked(names, 0, _composition_table(maps), leq)
    try:
        check_generated(monoid, gen_ids)
    except (NotAntisymmetric, NotAssociative, NotCompatible) as exc:
        raise InternalInconsistency(f"syntactic monoid failed validation: {exc}") from exc
    values = [a.output[m[a.initial]] for m in maps]
    return SyntacticResult(
        alphabet=a.alphabet,
        monoid=monoid,
        generator_images=tuple(gen_ids),
        coloring=make_op_coloring(monoid, a.lattice, values),
        witnesses=tuple(witnesses),
    )


def triple_to_automaton(
    t: RecognitionTriple, alphabet: Sequence[str] | None = None
) -> LatticeAutomaton:
    """The right-regular machine of a triple: states are the monoid elements."""
    letters = t.alphabet if alphabet is None else tuple(alphabet)
    if letters != t.alphabet:
        raise MismatchedAlphabet("alphabet differs from the triple's alphabet")
    m = t.monoid
    delta = tuple(
        tuple(m.mul[x][g] for g in t.generator_images) for x in range(m.size)
    )
    return LatticeAutomaton(
        lattice=t.coloring.lattice,
        alphabet=letters,
        states=m.elements,
        initial=m.identity,
        delta=delta,
        output=t.coloring.colors,
    )


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
    v = a.lattice.index(value)
    output = tuple(
        a.lattice.bottom if a.lattice.leq[o][v] else a.lattice.top for o in a.output
    )
    return LatticeAutomaton(
        lattice=a.lattice,
        alphabet=a.alphabet,
        states=a.states,
        initial=a.initial,
        delta=a.delta,
        output=output,
    )


def reconstruct_from_cuts(
    a: LatticeAutomaton, *, max_product: int = 1024
) -> tuple[RecognitionTriple, bool]:
    """Recognize the language on the product of its cut syntactic monoids.

    For each lattice value, take the syntactic monoid of the cut language;
    the coloring of a product element is the meet over values of the cut
    color joined with that value.  The returned flag asserts that the triple
    recognizes the original language (exact equivalence check).
    """
    lat = a.lattice
    synts = [syntactic(cut(a, v)) for v in range(lat.size)]
    factors = [s.monoid for s in synts]
    product, _ = direct_product(factors, max_size=max_product)
    sizes = [m.size for m in factors]
    images = tuple(
        product_index(sizes, [s.generator_images[l] for s in synts])
        for l in range(len(a.alphabet))
    )
    colors = []
    for combo in itertools.product(*(range(s) for s in sizes)):
        colors.append(
            lat.meet_all(
                lat.join_table[synts[v].coloring.colors[combo[v]]][v]
                for v in range(lat.size)
            )
        )
    coloring = make_op_coloring(product, lat, colors)
    triple = RecognitionTriple(
        alphabet=a.alphabet,
        generator_images=images,
        monoid=product,
        coloring=coloring,
    )
    return triple, recognizes(triple, a)


def is_shuffle_ideal(a: LatticeAutomaton) -> bool:
    """Algebraic shuffle-ideal test: is the syntactic identity the greatest element?

    Sound and complete: recognizers with a greatest identity are preserved
    by division, and the syntactic monoid recognizes the language.
    """
    return identity_is_greatest(syntactic(a).monoid)


def shuffle_ideal_falsify(
    a: LatticeAutomaton, max_len: int
) -> tuple[Word, Word] | None:
    """Search for a subword pair violating the shuffle-ideal inequality.

    Enumerates superwords v in length-lexicographic order up to ``max_len``
    and their subwords w by descending length, returning the first pair with
    L(v) not below L(w).  Returning None is not a proof; the algebraic test
    is the decision procedure.
    """
    n_letters = len(a.alphabet)
    values: dict[Word, int] = {}
    level: list[tuple[Word, int]] = [((), a.initial)]
    values[()] = a.output[a.initial]
    for length in range(max_len + 1):
        if length > 0:
            next_level = []
            for word, q in level:
                for l in range(n_letters):
                    w = word + (a.alphabet[l],)
                    t = a.delta[q][l]
                    values[w] = a.output[t]
                    next_level.append((w, t))
            level = next_level
        for v, _ in level:
            seen: set[Word] = set()
            value_v = values[v]
            for k in range(length, -1, -1):
                for positions in itertools.combinations(range(length), k):
                    w = tuple(v[i] for i in positions)
                    if w == v or w in seen:
                        continue
                    seen.add(w)
                    if not a.lattice.leq[value_v][values[w]]:
                        return w, v
    return None


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
        RecognitionTriple(
            alphabet=s.alphabet,
            generator_images=s.generator_images,
            monoid=monoid,
            coloring=ideal_coloring(monoid, mi, lat),
        )
    )
    strictly_above = [y for y in range(monoid.size) if not monoid.leq[y][mi]]
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
                if not lat.leq[vy][vm]:
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
