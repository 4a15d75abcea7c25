import functools
import itertools
import json
import math
import random
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from latlang import (
    LatticeAutomaton,
    MonoidMorphism,
    build_lattice,
    build_ordered_monoid,
    load_chain,
    make_automaton,
    simulating_automaton,
    standard_lattice,
)
from latlang.automaton import Word, find_difference, trim, word_name
from latlang.coloring import ideal_coloring, make_op_coloring, postcompose, product_coloring
from latlang.errors import (
    MalformedDocument,
    MismatchedCarrier,
    NegativeEntry,
    NoIdentity,
    NotALattice,
    NotAssociative,
    RowSumNotOne,
    SizeCapExceeded,
    TrivialLattice,
    UnknownElement,
)
from latlang.lattice import DEFAULT_MAX_SIZE as LATTICE_MAX_SIZE
from latlang.lattice import (
    Lattice,
    bit_positions,
    check_antisymmetric,
    check_names,
    make_lattice_morphism,
    name_tuple,
    product_name,
    resolve,
    subset_name,
)
from latlang.errors import SingularSystem
from latlang.markov import (
    LETTER_PREFIX,
    Decomposition,
    ErgodicStructure,
    decompose,
    ergodic_lattice,
    ergodic_structure,
    parse_fraction,
    validate_decomposition,
)
from latlang.monoid import (
    DEFAULT_MAX_SIZE,
    DivisionVerdict,
    _check_associative,
    _check_order,
    _make_unchecked,
    _surjection_onto,
    direct_product,
    product_index,
)
from latlang.serialize import decomposition_from_doc
from latlang.syntactic import (
    TRANSITION_MONOID_CAP,
    RecognitionTriple,
    SyntacticResult,
    cut,
    recognizes,
    syntactic,
    triple_to_automaton,
)
from latlang.variety import (
    SUBDIRECT_MAX_SIZE,
    VerificationReport,
    _unital_associative_tables,
    enumerate_ordered_monoids,
)

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("ci")

DATA = Path(__file__).parent / "data"


def rows_of(matrix):
    """The up-set rows of a boolean matrix: bit b of row a is matrix[a][b]."""
    return tuple(sum(1 << b for b, le in enumerate(row) if le) for row in matrix)


def matrix_of(rows):
    """The boolean matrix of up-set rows over len(rows) points."""
    return [[bool(row >> b & 1) for b in range(len(rows))] for row in rows]


def reference_closure(matrix):
    """Reference reflexive-transitive closure of a boolean matrix: the
    triple loop over k, then every row holding k, then every column."""
    n = len(matrix)
    leq = [[i == j or bool(matrix[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        row_k = leq[k]
        for row_i in leq:
            if row_i[k]:
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return leq


def reference_order_from_pairs(index, pairs, what):
    """Reference order: [lo, hi] pairs resolved into a boolean matrix and
    closed by ``reference_closure``."""
    if isinstance(pairs, str) or not isinstance(pairs, Iterable):
        raise MalformedDocument(f"order pairs must be a list, not {pairs!r}")
    n = len(index)
    leq = [[False] * n for _ in range(n)]
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MalformedDocument(f"order pair {pair!r} must list two elements")
        lo, hi = pair
        leq[resolve(index, lo, what)][resolve(index, hi, what)] = True
    return reference_closure(leq)


def reference_mutual_pair(leq):
    """Reference antisymmetry scan of a boolean matrix: the first pair i < j
    with both i <= j and j <= i, in row-major order."""
    n = len(leq)
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                return i, j
    return None


def reference_compatibility_violation(mul, leq, gens):
    """Reference compatibility scan of a boolean matrix: every pair x != y
    in row-major order, then each z, left before right."""
    n = len(mul)
    for x in range(n):
        for y in range(n):
            if x == y or not leq[x][y]:
                continue
            for z in gens:
                if not leq[mul[z][x]][mul[z][y]]:
                    return x, y, z, "left"
                if not leq[mul[x][z]][mul[y][z]]:
                    return x, y, z, "right"
    return None


def reference_partial_orders(n):
    """Reference poset list: every set of pairs (i, j), i != j, as a mask
    in ascending order, kept when it is already closed and antisymmetric."""
    points = {str(i): i for i in range(n)}
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    orders = []
    for mask in range(2 ** len(pairs)):
        chosen = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        leq = reference_order_from_pairs(points, chosen, "point")
        if sum(map(sum, leq)) == n + len(chosen) and reference_mutual_pair(leq) is None:
            orders.append(rows_of(leq))
    return orders


def reference_state_preorder(a):
    """Reference state preorder: the boolean fixpoint that clears sRt while
    some letter sends s and t to a pair outside the relation."""
    n = len(a.states)
    rel = [[a.lattice.le(a.output[s], a.output[t]) for t in range(n)] for s in range(n)]
    changed = True
    while changed:
        changed = False
        for s in range(n):
            for t in range(n):
                if rel[s][t] and any(
                    not rel[a.delta[s][l]][a.delta[t][l]] for l in range(len(a.alphabet))
                ):
                    rel[s][t] = False
                    changed = True
    return rel


def reference_reach(chain):
    """Reference reach relation: one depth-first search per state, as frozensets."""
    result = []
    for s in range(chain.size):
        seen = {s}
        stack = [s]
        while stack:
            for t, p in enumerate(chain.matrix[stack.pop()]):
                if p and t not in seen:
                    seen.add(t)
                    stack.append(t)
        result.append(frozenset(seen))
    return tuple(result)


def all_words(alphabet, max_len):
    """Every word up to max_len in length-lexicographic order."""
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield combo


def enumerate_falsifier(a, max_len):
    """Reference shuffle-ideal falsifier: exhaustive subword enumeration.

    Superwords v in length-lexicographic order up to ``max_len``, their proper
    subwords w by descending length, then lexicographic positions; the first
    pair with L(v) not below L(w), or None.  Exponential in ``max_len``.
    """
    n_letters = len(a.alphabet)
    values = {(): a.output[a.initial]}
    level = [((), a.initial)]
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
            seen = set()
            value_v = values[v]
            for k in range(length, -1, -1):
                for positions in itertools.combinations(range(length), k):
                    w = tuple(v[i] for i in positions)
                    if w == v or w in seen:
                        continue
                    seen.add(w)
                    if not a.lattice.leq[value_v] >> values[w] & 1:
                        return w, v
    return None


def reference_shuffle_ideal_falsify(
    a: LatticeAutomaton, max_len: int | None = None
) -> tuple[Word, Word] | None:
    """Reference shuffle-ideal falsifier: the backward search from every
    violating triple and the walk through its distance layers that
    ``shuffle_ideal_falsify`` replaced by one forward search.

    The least pair (w, v) with w a proper subword of v and L(v) not below L(w).
    v is the length-lex-least word that has such a subword, and w the first
    of its violating subwords by descending length, then lexicographically
    least positions.  Returns None when no v of length at most ``max_len``
    exists; with ``max_len=None`` the search is unbounded and None proves
    that the language is a shuffle ideal.

    The length of v comes from a backward breadth-first search over triples
    (state after w, state after v, whether a letter was skipped) from the
    violating triples, in O(n^2 * |A|) for n states.  v is then built letter
    by letter through triples at the remaining distance, and w position by
    position from the states that reach a violation with exactly j letters
    of v skipped, for the least j.  No step enumerates words.
    """
    n = len(a.states)
    letters = range(len(a.alphabet))
    delta, out, leq = a.delta, a.output, a.lattice.leq
    preimages = [[[] for _ in range(n)] for _ in letters]
    for q in range(n):
        for l in letters:
            preimages[l][delta[q][l]].append(q)
    dist = {
        (p, q, 1): 0 for p in range(n) for q in range(n) if not leq[out[q]] >> out[p] & 1
    }
    start = (a.initial, a.initial, 0)
    frontier = list(dist)
    d = 0
    while frontier and start not in dist and (max_len is None or d < max_len):
        d += 1
        reached = []
        for p2, q2, s2 in frontier:
            for l in letters:
                before = [(p, q, s2) for p in preimages[l][p2] for q in preimages[l][q2]]
                if s2:
                    before += [(p2, q, s) for q in preimages[l][q2] for s in (0, 1)]
                for t in before:
                    if t not in dist:
                        dist[t] = d
                        reached.append(t)
        frontier = reached
    if start not in dist:
        return None

    v: list[int] = []
    current = {start}
    for remaining in range(dist[start] - 1, -1, -1):
        for l in letters:
            following = {
                t
                for p, q, s in current
                for t in ((delta[p][l], delta[q][l], s), (p, delta[q][l], 1))
                if dist.get(t) == remaining
            }
            if following:
                v.append(l)
                current = following
                break

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


def reference_direct_product(monoids, *, max_size=1024):
    """Reference direct product: the component tuples in ``itertools.product``
    order, indexed through a dict of tuples, every entry computed per tuple."""
    if not monoids:
        raise MalformedDocument("direct product needs at least one factor")
    sizes = [m.size for m in monoids]
    total = 1
    for s in sizes:
        total *= s
        if total > max_size:
            raise SizeCapExceeded(f"product size exceeds cap {max_size}", witness=sizes)
    tuples = list(itertools.product(*(range(s) for s in sizes)))
    names = tuple(
        "(" + ",".join(m.elements[c] for m, c in zip(monoids, combo)) + ")"
        for combo in tuples
    )
    radix = {combo: i for i, combo in enumerate(tuples)}
    mul = [
        [radix[tuple(m.mul[a[i]][b[i]] for i, m in enumerate(monoids))] for b in tuples]
        for a in tuples
    ]
    leq = rows_of(
        [all(m.leq[a[i]] >> b[i] & 1 for i, m in enumerate(monoids)) for b in tuples]
        for a in tuples
    )
    identity = radix[tuple(m.identity for m in monoids)]
    product = _make_unchecked(names, identity, mul, leq)
    projections = tuple(
        MonoidMorphism(product, m, tuple(combo[i] for combo in tuples))
        for i, m in enumerate(monoids)
    )
    return product, projections


def reference_fold_direct_product(monoids, *, max_size=1024):
    """Reference fold: the mixed-radix fold ``direct_product`` ran before its
    rows were gathered whole, every entry and projection built by a
    comprehension, with the same one-element shortcut."""
    if not monoids:
        raise MalformedDocument("direct product needs at least one factor")
    sizes = [m.size for m in monoids]
    total = 1
    for s in sizes:
        total *= s
        if total > max_size:
            raise SizeCapExceeded(f"product size exceeds cap {max_size}", witness=sizes)
    parts = [()]
    mul = [[0]]
    leq = [1]
    components = []
    for m in monoids:
        s = m.size
        parts = [p + (e,) for p in parts for e in m.elements]
        if s == 1:
            components.append([0] * len(parts))
            continue
        mul = [[xy * s + z for xy in x for z in j] for x in mul for j in m.mul]
        blocks = [sum(1 << y * s for y in bit_positions(row)) for row in leq]
        leq = [block * j for block in blocks for j in m.leq]
        components = [[c for c in proj for _ in range(s)] for proj in components]
        components.append(list(range(s)) * (len(parts) // s))
    identity = product_index(sizes, [m.identity for m in monoids])
    product = _make_unchecked(tuple(map(product_name, parts)), identity, mul, leq)
    projections = tuple(
        MonoidMorphism(source=product, target=m, mapping=tuple(proj))
        for m, proj in zip(monoids, components)
    )
    return product, projections


def reference_product_combine(kind, a1, a2):
    """Reference product machine: a list of state pairs and a dict from pair to index."""
    table = a1.lattice.join_table if kind == "join" else a1.lattice.meet_table
    pairs = list(itertools.product(range(len(a1.states)), range(len(a2.states))))
    index = {pair: i for i, pair in enumerate(pairs)}
    return LatticeAutomaton(
        lattice=a1.lattice,
        alphabet=a1.alphabet,
        states=tuple(f"({a1.states[p]},{a2.states[q]})" for p, q in pairs),
        initial=index[(a1.initial, a2.initial)],
        delta=tuple(
            tuple(
                index[(a1.delta[p][l], a2.delta[q][l])] for l in range(len(a1.alphabet))
            )
            for p, q in pairs
        ),
        output=tuple(table[a1.output[p]][a2.output[q]] for p, q in pairs),
    )


def reference_minimize(a: LatticeAutomaton) -> LatticeAutomaton:
    """Reference minimization: the library's Moore refinement before it
    numbered blocks through ``lattice.number``, kept verbatim.  Reachable-
    trim, then coarsest partition refinement on output values; each block
    is named after its least member state."""
    a = trim(a)
    n = len(a.states)
    block: list[int] = []
    seen: dict[int, int] = {}
    for q in range(n):
        v = a.output[q]
        if v not in seen:
            seen[v] = len(seen)
        block.append(seen[v])
    n_letters = len(a.alphabet)
    while True:
        sigs: dict[tuple, int] = {}
        new_block = []
        for q in range(n):
            sig = (block[q],) + tuple(block[a.delta[q][l]] for l in range(n_letters))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block.append(sigs[sig])
        if len(sigs) == len(set(block)):
            block = new_block
            break
        block = new_block
    members: dict[int, list[int]] = {}
    for q in range(n):
        members.setdefault(block[q], []).append(q)
    reps = sorted(min(qs) for qs in members.values())
    block_id = {block[rep]: i for i, rep in enumerate(reps)}
    names = tuple(a.states[rep] for rep in reps)
    delta = tuple(
        tuple(block_id[block[a.delta[rep][l]]] for l in range(n_letters))
        for rep in reps
    )
    output = tuple(a.output[rep] for rep in reps)
    return LatticeAutomaton(
        lattice=a.lattice,
        alphabet=a.alphabet,
        states=names,
        initial=block_id[block[a.initial]],
        delta=delta,
        output=output,
    )


def reference_word_maps(a):
    """Reference word maps: a deque search over state maps with an index dict;
    each new map's witness extends its parent's by the letter that reached it."""
    n = len(a.states)
    identity = tuple(range(n))
    gens = [tuple(a.delta[q][l] for q in range(n)) for l in range(len(a.alphabet))]
    maps = [identity]
    witnesses = [()]
    index = {identity: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        base = maps[i]
        for l, g in enumerate(gens):
            composed = tuple(g[base[q]] for q in range(n))
            if composed not in index:
                if len(maps) >= TRANSITION_MONOID_CAP:
                    raise SizeCapExceeded(
                        f"transition monoid exceeds cap {TRANSITION_MONOID_CAP}"
                    )
                index[composed] = len(maps)
                maps.append(composed)
                witnesses.append(witnesses[i] + (a.alphabet[l],))
                queue.append(len(maps) - 1)
    return maps, witnesses, [index[g] for g in gens]


def reference_composition_table(maps):
    """Reference table: row i, column j is the index of maps[i] then maps[j],
    found by composing the two maps and hashing the result."""
    index = {m: i for i, m in enumerate(maps)}
    return [[index[tuple(mj[q] for q in mi)] for mj in maps] for mi in maps]


def reference_transition_monoid(a):
    """Reference transition monoid: equality order on the reference word maps."""
    maps, witnesses, gen_ids = reference_word_maps(reference_trim(a))
    k = len(maps)
    leq = rows_of([i == j for j in range(k)] for i in range(k))
    names = tuple(word_name(w) for w in witnesses)
    return _make_unchecked(names, 0, reference_composition_table(maps), leq), tuple(gen_ids)


def reference_syntactic(a):
    """Reference syntactic monoid: the reference word maps of the minimal
    machine, their composition table, and the pointwise state preorder."""
    a = reference_minimize(a)
    pre = reference_state_preorder(a)
    maps, witnesses, gen_ids = reference_word_maps(a)
    leq = rows_of([all(pre[p][q] for p, q in zip(mi, mj)) for mj in maps] for mi in maps)
    names = tuple(word_name(w) for w in witnesses)
    monoid = _make_unchecked(names, 0, reference_composition_table(maps), leq)
    return SyntacticResult(
        alphabet=a.alphabet,
        monoid=monoid,
        generator_images=tuple(gen_ids),
        coloring=make_op_coloring(monoid, a.lattice, [a.output[m[a.initial]] for m in maps]),
        witnesses=tuple(witnesses),
    )


def reference_reconstruct_from_cuts(a):
    """Reference cut reconstruction: one ``syntactic(cut(a, v))`` per lattice
    value v, repeated cut languages included."""
    lat = a.lattice
    synts = [syntactic(cut(a, v)) for v in range(lat.size)]
    coloring = product_coloring(
        "pmeet",
        [
            postcompose(make_lattice_morphism(lat, lat.join_table[v]), s.coloring)
            for v, s in enumerate(synts)
        ],
    )
    sizes = [s.monoid.size for s in synts]
    images = tuple(
        product_index(sizes, [s.generator_images[l] for s in synts])
        for l in range(len(a.alphabet))
    )
    triple = RecognitionTriple(
        alphabet=a.alphabet,
        generator_images=images,
        monoid=coloring.monoid,
        coloring=coloring,
    )
    return triple, recognizes(triple, a)


def reference_subdirect_embedding(monoid, synts=None):
    """Reference subdirect embedding: one ``syntactic`` call on the
    |M|-letter machine of each ideal language, then the embedding checked
    pair by pair.  Given ``synts``, it checks those triples instead."""
    if monoid.size > SUBDIRECT_MAX_SIZE:
        raise SizeCapExceeded(f"subdirect embedding capped at {SUBDIRECT_MAX_SIZE} elements")
    if synts is None:
        lat = standard_lattice("chain", 2)
        colorings = [ideal_coloring(monoid, m, lat) for m in range(monoid.size)]
        regular = RecognitionTriple(
            monoid.elements, tuple(range(monoid.size)), monoid, colorings[0]
        )
        synts = [syntactic(triple_to_automaton(replace(regular, coloring=c))) for c in colorings]
    phi = [tuple(s.generator_images[x] for s in synts) for x in range(monoid.size)]
    instance = {
        "monoid": monoid,
        "factor_sizes": [s.monoid.size for s in synts],
    }

    def fail(reason, witness):
        witness = dict(witness)
        witness["reason"] = reason
        return VerificationReport("subdirect_embedding", instance, "fail", witness)

    identity_image = tuple(s.monoid.identity for s in synts)
    if phi[monoid.identity] != identity_image:
        return fail("identity", {"element": monoid.elements[monoid.identity]})
    for x in range(monoid.size):
        for y in range(monoid.size):
            expected = tuple(
                s.monoid.mul[phi[x][i]][phi[y][i]] for i, s in enumerate(synts)
            )
            if phi[monoid.mul[x][y]] != expected:
                return fail(
                    "multiplicative",
                    {"pair": [monoid.elements[x], monoid.elements[y]]},
                )
            embedded_le = all(
                s.monoid.leq[phi[x][i]] >> phi[y][i] & 1 for i, s in enumerate(synts)
            )
            if embedded_le != bool(monoid.leq[x] >> y & 1):
                return fail(
                    "order_embedding",
                    {"pair": [monoid.elements[x], monoid.elements[y]]},
                )
    if len(set(phi)) != monoid.size:
        return fail("injective", {})
    return VerificationReport("subdirect_embedding", instance, "pass")


def reference_surjection_onto(m1, m2, carrier, gens, candidates=None):
    """Reference division step: a deque search per tuple of generator images
    that prunes on order against every image assigned so far, then checks
    the full map, its surjectivity and its order pair by pair.  It tries
    every tuple, whatever ``candidates`` the search passes."""
    carrier_set = set(carrier)
    for images in itertools.product(range(m1.size), repeat=len(gens)):
        img = {m2.identity: m1.identity}
        queue = deque([m2.identity])
        ok = True
        while queue and ok:
            x = queue.popleft()
            for g, hg in zip(gens, images):
                y = m2.mul[x][g]
                expected = m1.mul[img[x]][hg]
                if y in img:
                    if img[y] != expected:
                        ok = False
                        break
                else:
                    if any(
                        (m2.leq[z] >> y & 1 and not m1.leq[iz] >> expected & 1)
                        or (m2.leq[y] >> z & 1 and not m1.leq[expected] >> iz & 1)
                        for z, iz in img.items()
                    ):
                        ok = False
                        break
                    img[y] = expected
                    queue.append(y)
        if not ok or len(img) != len(carrier_set):
            continue
        if set(img.values()) != set(range(m1.size)):
            continue
        if any(
            m2.leq[x] >> y & 1 and not m1.leq[img[x]] >> img[y] & 1
            for x in carrier
            for y in carrier
        ):
            continue
        return img
    return None


def reference_divides(m1, m2, max_target_size=10):
    """Reference division search: the closures of every generator subset of
    ``m2`` by ascending size, with no bound from ``m1``."""
    if m2.size > max_target_size:
        return DivisionVerdict("budget_exhausted")
    non_identity = [i for i in range(m2.size) if i != m2.identity]
    seen_carriers = set()
    for k in range(len(non_identity) + 1):
        for gens in itertools.combinations(non_identity, k):
            carrier = [m2.identity]
            seen = {m2.identity}
            queue = deque([m2.identity])
            while queue:
                x = queue.popleft()
                for g in gens:
                    y = m2.mul[x][g]
                    if y not in seen:
                        seen.add(y)
                        carrier.append(y)
                        queue.append(y)
            key = tuple(sorted(carrier))
            if key in seen_carriers:
                continue
            seen_carriers.add(key)
            if len(carrier) < m1.size:
                continue
            every = itertools.product(range(m1.size), repeat=len(gens))
            img = _surjection_onto(m1, m2, carrier, gens, every)
            if img is not None:
                mapping = {
                    m2.elements[x]: m1.elements[img[x]] for x in sorted(img)
                }
                return DivisionVerdict(
                    "yes",
                    generators=tuple(m2.elements[g] for g in gens),
                    mapping=mapping,
                )
    return DivisionVerdict("no")


def reference_build_ordered_monoid(element_names, identity, mul_table, leq_pairs=()):
    """Reference monoid construction: associativity and compatibility
    checked through every element."""
    if isinstance(element_names, str):
        raise MalformedDocument("element names must be a list, not a string")
    names = check_names(element_names)
    n = len(names)
    if n == 0:
        raise MalformedDocument("a monoid needs at least one element")
    if n > DEFAULT_MAX_SIZE:
        raise SizeCapExceeded(f"monoid size {n} exceeds cap {DEFAULT_MAX_SIZE}")
    index = {name: i for i, name in enumerate(names)}
    if not isinstance(mul_table, (list, tuple)) or len(mul_table) != n or any(
        not isinstance(row, (list, tuple)) or len(row) != n for row in mul_table
    ):
        raise MalformedDocument("multiplication table must be n x n")
    mul = [[resolve(index, e, "monoid element") for e in row] for row in mul_table]
    ident = resolve(index, identity, "monoid element")
    for x in range(n):
        if mul[ident][x] != x or mul[x][ident] != x:
            raise NoIdentity(
                f"{names[ident]!r} is not a two-sided unit at {names[x]!r}",
                witness=names[x],
            )
    _check_associative(names, mul, range(n))
    leq = rows_of(reference_order_from_pairs(index, leq_pairs, "monoid element"))
    _check_order(names, mul, leq, range(n))
    return _make_unchecked(names, ident, mul, leq)


def reference_verify_recog_by_synt(automata, triple):
    """Reference recognition check: two validated colorings and two machines
    per product element for identity (a), the join over the projections of
    bottom-or-top values; one rebuilt machine for identity (b), the meet over
    all elements of each ideal joined with its color."""
    synts = [syntactic(a) for a in automata]
    factors = [s.monoid for s in synts]
    product, projections = direct_product(factors)
    if product != triple.monoid:
        raise MismatchedCarrier(
            "triple's monoid is not the product of the syntactic monoids"
        )
    lat = triple.coloring.lattice
    instance = {
        "factor_sizes": [m.size for m in factors],
        "lattice": list(lat.elements),
    }

    def fail(which, m_index, word):
        return VerificationReport(
            check="recog_by_synt",
            instance=instance,
            verdict="fail",
            witness={
                "identity": which,
                "element": product.elements[m_index],
                "word": word_name(word),
                "triple": triple,
                "automata": list(automata),
            },
        )

    for m in range(product.size):
        lhs = triple_to_automaton(
            RecognitionTriple(
                triple.alphabet, triple.generator_images, product,
                ideal_coloring(product, m, lat),
            )
        )
        rhs_colors = [
            lat.join_all(
                lat.bottom
                if p.target.le(p.mapping[x], p.mapping[m])
                else lat.top
                for p in projections
            )
            for x in range(product.size)
        ]
        rhs = triple_to_automaton(
            RecognitionTriple(
                triple.alphabet, triple.generator_images, product,
                make_op_coloring(product, lat, rhs_colors),
            )
        )
        diff = find_difference(lhs, rhs)
        if diff is not None:
            return fail("join_of_projections", m, diff)

    combo_colors = [
        lat.meet_all(
            lat.join_table[
                lat.bottom if product.le(x, m) else lat.top
            ][triple.coloring.colors[m]]
            for m in range(product.size)
        )
        for x in range(product.size)
    ]
    rebuilt = triple_to_automaton(
        RecognitionTriple(
            triple.alphabet, triple.generator_images, product,
            make_op_coloring(product, lat, combo_colors),
        )
    )
    diff = find_difference(triple_to_automaton(triple), rebuilt)
    if diff is not None:
        return fail("ideal_representation", -1, diff)
    return VerificationReport("recog_by_synt", instance, "pass")


def reference_combine_many(kind, automata):
    """Reference reachable product machine: a deque search over state tuples
    that builds each transition row as it goes."""
    first = automata[0]
    fold = first.lattice.join_all if kind == "join" else first.lattice.meet_all
    start = tuple(a.initial for a in automata)
    order = [start]
    index = {start: 0}
    queue = deque([start])
    delta_rows = []
    while queue:
        combo = queue.popleft()
        row = []
        for l in range(len(first.alphabet)):
            nxt = tuple(a.delta[q][l] for a, q in zip(automata, combo))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        delta_rows.append(tuple(row))
    return LatticeAutomaton(
        lattice=first.lattice,
        alphabet=first.alphabet,
        states=tuple(
            product_name(a.states[q] for a, q in zip(automata, combo)) for combo in order
        ),
        initial=0,
        delta=tuple(delta_rows),
        output=tuple(
            fold(a.output[q] for a, q in zip(automata, combo)) for combo in order
        ),
    )


def reference_trim(a):
    """Reference trim: a deque search for the reachable states, kept in order."""
    reachable = {a.initial}
    queue = deque([a.initial])
    while queue:
        for t in a.delta[queue.popleft()]:
            if t not in reachable:
                reachable.add(t)
                queue.append(t)
    keep = sorted(reachable)
    if len(keep) == len(a.states):
        return a
    remap = {old: new for new, old in enumerate(keep)}
    return LatticeAutomaton(
        lattice=a.lattice,
        alphabet=a.alphabet,
        states=tuple(a.states[q] for q in keep),
        initial=remap[a.initial],
        delta=tuple(tuple(remap[t] for t in a.delta[q]) for q in keep),
        output=tuple(a.output[q] for q in keep),
    )


def reference_unital_associative_tables(n):
    """Reference table scan: every filling of the free cells in
    ``itertools.product`` order, kept when all equations (xy)z = x(yz) hold."""
    free = [(i, j) for i in range(1, n) for j in range(1, n)]
    for values in itertools.product(range(n), repeat=len(free)):
        mul = [[0] * n for _ in range(n)]
        for j in range(n):
            mul[0][j] = j
        for i in range(n):
            mul[i][0] = i
        for (i, j), v in zip(free, values):
            mul[i][j] = v
        if all(
            mul[mul[x][y]][z] == mul[x][mul[y][z]]
            for x in range(1, n)
            for y in range(1, n)
            for z in range(1, n)
        ):
            yield mul


def reference_canonical_key(monoid):
    """Reference key: the least (n, mul, leq) over every identity-fixing
    relabeling, each relabeling applied to table and order together."""
    n = monoid.size
    rest = [i for i in range(n) if i != monoid.identity]
    best = None
    for perm in itertools.permutations(range(1, n)):
        relabel = {monoid.identity: 0}
        relabel.update(zip(rest, perm))
        mul = [[0] * n for _ in range(n)]
        leq = [[False] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                mul[relabel[a]][relabel[b]] = relabel[monoid.mul[a][b]]
                leq[relabel[a]][relabel[b]] = monoid.leq[a] >> b & 1 == 1
        key = (n, tuple(map(tuple, mul)), tuple(map(tuple, leq)))
        if best is None or key < best:
            best = key
    return best


def reference_enumerate_ordered_monoids(n):
    """Reference enumeration: every table paired with every compatible
    order of the mask scan, each pair keyed by ``reference_canonical_key``,
    the first pair of each key kept."""
    names = tuple(f"m{i}" for i in range(n))
    found = {}
    orders = reference_partial_orders(n)
    for mul in _unital_associative_tables(n):
        for leq in orders:
            if reference_compatibility_violation(mul, matrix_of(leq), range(n)) is not None:
                continue
            monoid = _make_unchecked(names, 0, mul, leq)
            found.setdefault(reference_canonical_key(monoid), monoid)
    return [found[key] for key in sorted(found)]


def relabeled(m, perm):
    """``m`` with element x moved to index perm[x]."""
    n = m.size
    mul = [[0] * n for _ in range(n)]
    leq = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mul[perm[a]][perm[b]] = perm[m.mul[a][b]]
            leq[perm[a]][perm[b]] = m.leq[a] >> b & 1 == 1
    return _make_unchecked([f"r{i}" for i in range(n)], perm[m.identity], mul, rows_of(leq))


def identity_moved(rng, m):
    """A seeded relabeling of ``m`` that moves its identity off index 0."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    if m.size > 1 and perm[m.identity] == 0:
        k = rng.randrange(m.size)
        k = k if k != m.identity else (k + 1) % m.size
        perm[m.identity], perm[k] = perm[k], perm[m.identity]
    copy = relabeled(m, perm)
    assert m.size == 1 or copy.identity != 0
    return copy


def reference_check_associative(names, mul, gens):
    """Reference Light's test: (xg)y against x(gy) one y at a time."""
    n = len(names)
    for x in range(n):
        mul_x = mul[x]
        for g in gens:
            row_xg = mul[mul_x[g]]
            mul_g = mul[g]
            for y in range(n):
                if row_xg[y] != mul_x[mul_g[y]]:
                    raise NotAssociative(
                        "multiplication is not associative",
                        witness=[names[x], names[g], names[y]],
                    )


def reference_monoid_to_doc(monoid):
    """Reference monoid document: every table entry and order pair by index."""
    return {
        "elements": list(monoid.elements),
        "identity": monoid.elements[monoid.identity],
        "mul": [
            [monoid.elements[monoid.mul[a][b]] for b in range(monoid.size)]
            for a in range(monoid.size)
        ],
        "leq": sorted(
            [monoid.elements[a], monoid.elements[b]]
            for a in range(monoid.size)
            for b in range(monoid.size)
            if monoid.le(a, b)
        ),
    }


def reference_build_lattice(element_names, pairs):
    """Reference lattice build: the bounds of each pair from frozensets of
    upper and lower bounds, sorted and scanned for their least elements."""
    names = check_names(element_names)
    n = len(names)
    if n == 0:
        raise TrivialLattice("a lattice needs at least two elements")
    if n > LATTICE_MAX_SIZE:
        raise SizeCapExceeded(f"lattice size {n} exceeds cap {LATTICE_MAX_SIZE}")
    index = {name: i for i, name in enumerate(names)}
    leq = reference_order_from_pairs(index, pairs, "lattice element")
    check_antisymmetric(names, rows_of(leq))
    if n == 1:
        raise TrivialLattice("bottom equals top in a one-element lattice")
    uppers = [frozenset(c for c in range(n) if leq[a][c]) for a in range(n)]
    lowers = [frozenset(c for c in range(n) if leq[c][a]) for a in range(n)]
    join_table = [[0] * n for _ in range(n)]
    meet_table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            common_up = sorted(uppers[a] & uppers[b])
            minimal = [c for c in common_up
                       if not any(d != c and leq[d][c] for d in common_up)]
            if len(minimal) != 1:
                raise NotALattice(
                    f"{names[a]!r} and {names[b]!r} have no unique least upper bound",
                    witness={"pair": [names[a], names[b]], "bound": "join",
                             "candidates": [names[c] for c in minimal]},
                )
            join_table[a][b] = join_table[b][a] = minimal[0]
            common_down = sorted(lowers[a] & lowers[b])
            maximal = [c for c in common_down
                       if not any(d != c and leq[c][d] for d in common_down)]
            if len(maximal) != 1:
                raise NotALattice(
                    f"{names[a]!r} and {names[b]!r} have no unique greatest lower bound",
                    witness={"pair": [names[a], names[b]], "bound": "meet",
                             "candidates": [names[c] for c in maximal]},
                )
            meet_table[a][b] = meet_table[b][a] = maximal[0]
    top = bottom = 0
    for e in range(1, n):
        top = join_table[top][e]
        bottom = meet_table[bottom][e]
    return Lattice(
        elements=names,
        leq=rows_of(leq),
        join_table=tuple(tuple(row) for row in join_table),
        meet_table=tuple(tuple(row) for row in meet_table),
        top=top,
        bottom=bottom,
    )


def reference_standard_lattice(kind, n):
    """Reference standard lattice: the powerset from every inclusion pair of
    its subsets, listed by size and then members, and the chain from its
    covers, each validated by ``build_lattice``."""
    if kind == "powerset":
        subsets = sorted(
            (tuple(i + 1 for i in range(n) if mask >> i & 1) for mask in range(2 ** n)),
            key=lambda s: (len(s), s),
        )
        pairs = [
            (i, j)
            for i, small in enumerate(subsets)
            for j, big in enumerate(subsets)
            if set(small) <= set(big)
        ]
        return build_lattice([subset_name(s) for s in subsets], pairs)
    return build_lattice([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def reference_monotone_violation(src_leq, dst_leq, images):
    """Reference monotonicity scan over every pair (a, b) in row-major order."""
    n = len(images)
    for a in range(n):
        for b in range(n):
            if src_leq[a][b] and not dst_leq[images[a]][images[b]]:
                return a, b
    return None


def reference_random_coloring(rng, monoid, lattice):
    """The repair loop ``random_coloring`` replaced: uniform colors, then
    passes that join each element's color into the colors of the elements
    above it, until a pass changes nothing."""
    colors = [rng.randrange(lattice.size) for _ in range(monoid.size)]
    changed = True
    while changed:
        changed = False
        for a, row in enumerate(monoid.leq):
            for b in range(monoid.size):
                if b != a and row >> b & 1:
                    joined = lattice.join_table[colors[b]][colors[a]]
                    if joined != colors[b]:
                        colors[b] = joined
                        changed = True
    return make_op_coloring(monoid, lattice, colors)


@functools.cache
def small_monoids():
    """Every ordered monoid of size 1 to 4, up to isomorphism (591 of them)."""
    return [m for n in range(1, 5) for m in enumerate_ordered_monoids(n)]


def reference_is_aperiodic(monoid):
    """Reference aperiodicity test by power iteration: true iff some
    n <= |M| satisfies x^n = x^(n+1) for every x."""
    n = monoid.size
    current = list(range(n))  # current[x] = x^e
    for _ in range(n):
        if all(monoid.mul[current[x]][x] == current[x] for x in range(n)):
            return True
        current = [monoid.mul[current[x]][x] for x in range(n)]
    return False


def reference_validate_decomposition(chain, decomposition):
    """Reference reconstruction check: one sum over the letters per (s, t)."""
    if len(set(decomposition.letters)) != len(decomposition.letters):
        raise MalformedDocument("decomposition letters must be distinct")
    if not decomposition.letters:
        raise MalformedDocument("decomposition needs at least one letter")
    if any(w <= 0 for w in decomposition.weights):
        raise NegativeEntry("decomposition weights must be positive")
    if sum(decomposition.weights, Fraction(0)) != 1:
        raise RowSumNotOne("decomposition weights must sum to one")
    n = chain.size
    for s in range(n):
        for t in range(n):
            total = sum(
                (
                    w
                    for mapping, w in zip(decomposition.maps, decomposition.weights)
                    if mapping[s] == t
                ),
                Fraction(0),
            )
            if total != chain.matrix[s][t]:
                raise MalformedDocument(
                    "decomposition does not reconstruct the chain",
                    witness=[
                        chain.states[s],
                        chain.states[t],
                        str(chain.matrix[s][t]),
                        str(total),
                    ],
                )


def reference_make_chain(states, rows):
    """Reference chain loader: the state names and a dense ``Fraction``
    matrix, each row summed over all of its entries."""
    names = name_tuple(states, "state names")
    if not names or len(set(names)) != len(names):
        raise MalformedDocument("states must be a nonempty list of distinct names")
    index = {s: i for i, s in enumerate(names)}
    matrix = [[Fraction(0)] * len(names) for _ in names]
    if not isinstance(rows, Mapping):
        raise MalformedDocument("rows must be an object")
    for s, row in rows.items():
        if s not in index:
            raise UnknownElement(f"unknown state {s!r} in rows")
        if not isinstance(row, Mapping):
            raise MalformedDocument(f"row {s!r} must be an object", witness=s)
        for t, p in row.items():
            if t not in index:
                raise UnknownElement(f"unknown state {t!r} in row {s!r}")
            value = parse_fraction(p)
            if value < 0:
                raise NegativeEntry(
                    f"negative probability {p!r} at ({s!r}, {t!r})",
                    witness=[s, t, str(p)],
                )
            matrix[index[s]][index[t]] = value
    for i, s in enumerate(names):
        total = sum(matrix[i], Fraction(0))
        if total != 1:
            raise RowSumNotOne(
                f"row {s!r} sums to {total}", witness=[s, str(total)]
            )
    return names, tuple(map(tuple, matrix))


def reference_solve_exact(matrix, rhs):
    """Reference solver: Gauss-Jordan over ``Fraction``, first nonzero pivot."""
    n = len(matrix)
    a = [row[:] for row in matrix]
    b = [row[:] for row in rhs]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem("absorption system is singular")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] = [v * inv for v in b[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
                b[r] = [v - factor * w for v, w in zip(b[r], b[col])]
    return b


def reference_absorption_probabilities(chain):
    """Reference absorption: the system I - Q and its class sums built in
    ``Fraction``s and solved by the ``Fraction`` reference solver."""
    structure = ergodic_structure(chain)
    ergodic = structure.ergodic_classes()
    transient = list(structure.transient_states)
    t_index = {s: i for i, s in enumerate(transient)}
    k = len(transient)
    matrix = [
        [
            (Fraction(1) if i == j else Fraction(0)) - chain.matrix[s][transient[j]]
            for j in range(k)
        ]
        for i, s in enumerate(transient)
    ]
    rhs = [
        [
            sum((chain.matrix[s][t] for t in members), Fraction(0))
            for members in ergodic
        ]
        for s in transient
    ]
    solved = reference_solve_exact(matrix, rhs) if transient else []
    result = {}
    for c, members in enumerate(ergodic):
        member_set = set(members)
        per_state = {}
        for s in range(chain.size):
            if s in member_set:
                per_state[chain.states[s]] = Fraction(1)
            elif s in t_index:
                per_state[chain.states[s]] = solved[t_index[s]][c]
            else:
                per_state[chain.states[s]] = Fraction(0)
        result[c] = per_state
    return result


def reference_fraction_word_measure(a, decomposition, n):
    """Reference word measure: the state distribution propagated in
    ``Fraction``s, one product per state and letter."""
    dist = [Fraction(0)] * len(a.states)
    dist[a.initial] = Fraction(1)
    for _ in range(n):
        nxt = [Fraction(0)] * len(a.states)
        for s, mass in enumerate(dist):
            if mass == 0:
                continue
            for l, weight in enumerate(decomposition.weights):
                nxt[a.delta[s][l]] += mass * weight
        dist = nxt
    masses = {}
    for s, mass in enumerate(dist):
        if mass != 0:
            masses[a.output[s]] = masses.get(a.output[s], Fraction(0)) + mass
    return masses


def reference_word_measure(a, decomposition, n):
    """Reference word measure: the state distribution propagated as integers
    over W^t, for the weights' lcm W, one product per state and letter (the
    letter-by-letter loop that merged moves replaced)."""
    scale = math.lcm(*(w.denominator for w in decomposition.weights))
    weights = [w.numerator * (scale // w.denominator) for w in decomposition.weights]
    steps = max(n, 0)
    dist = [0] * len(a.states)
    dist[a.initial] = 1
    for _ in range(steps):
        nxt = [0] * len(a.states)
        for s, mass in enumerate(dist):
            if mass:
                for t, weight in zip(a.delta[s], weights):
                    nxt[t] += mass * weight
        dist = nxt
    masses = {}
    for s, mass in enumerate(dist):
        if mass:
            masses[a.output[s]] = masses.get(a.output[s], 0) + mass
    return {e: Fraction(m, scale**steps) for e, m in masses.items()}


def reference_decompose(chain):
    """Reference greedy decomposition: every round scans all n columns of
    every row and tests the whole residual matrix for zero."""
    n = chain.size
    residual = [list(row) for row in chain.matrix]
    letters, maps, weights = [], [], []
    while not all(v == 0 for row in residual for v in row):
        picks = [max(range(n), key=lambda t: (residual[s][t], -t)) for s in range(n)]
        weight = min(residual[s][picks[s]] for s in range(n))
        for s in range(n):
            residual[s][picks[s]] -= weight
        letters.append(f"{LETTER_PREFIX}{len(letters) + 1}")
        maps.append(tuple(picks))
        weights.append(weight)
    decomposition = Decomposition(
        letters=tuple(letters), maps=tuple(maps), weights=tuple(weights)
    )
    validate_decomposition(chain, decomposition)
    return decomposition


def _tarjan(n, edges):
    """Iterative Tarjan; deterministic for a fixed adjacency order."""
    index_counter = 0
    stack = []
    lowlink = [-1] * n
    order = [-1] * n
    on_stack = [False] * n
    components = []
    for root in range(n):
        if order[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                order[v] = lowlink[v] = index_counter
                index_counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(edges[v])):
                w = edges[v][i]
                if order[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], order[w])
            if advanced:
                continue
            if lowlink[v] == order[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(sorted(component))
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def _positive_edges(chain):
    n = chain.size
    return [[t for t in range(n) if chain.matrix[s][t] > 0] for s in range(n)]


def reference_ergodic_structure(chain):
    """Reference structure: classes are Tarjan's strongly connected components."""
    n = chain.size
    edges = _positive_edges(chain)
    components = _tarjan(n, edges)
    components.sort(key=min)
    class_of = [0] * n
    for c, members in enumerate(components):
        for s in members:
            class_of[s] = c
    dag = sorted(
        {
            (class_of[s], class_of[t])
            for s in range(n)
            for t in edges[s]
            if class_of[s] != class_of[t]
        }
    )
    outgoing = {c for c, _ in dag}
    ergodic = tuple(c not in outgoing for c in range(len(components)))
    transient = tuple(s for s in range(n) if not ergodic[class_of[s]])
    return ErgodicStructure(
        classes=tuple(tuple(c) for c in components),
        ergodic=ergodic,
        transient_states=transient,
        class_dag=tuple(dag),
    )


def reference_reachable_sets(chain, structure):
    """Reference reachable colors: a depth-first search from every state."""
    n = chain.size
    edges = _positive_edges(chain)
    ergodic_members = {}
    for i, members in enumerate(structure.ergodic_classes()):
        for s in members:
            ergodic_members[s] = i + 1
    result = []
    for s in range(n):
        seen = {s}
        queue = [s]
        while queue:
            q = queue.pop()
            for t in edges[q]:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        result.append(frozenset(ergodic_members[q] for q in seen if q in ergodic_members))
    return result


def reference_simulating_automaton(chain, mode):
    """Reference simulating machine of the greedy decomposition from the first
    state: basic colors an ergodic class by its singleton and the rest by top,
    reachable by the reference reachable sets."""
    structure = reference_ergodic_structure(chain)
    lattice = ergodic_lattice(structure)
    decomposition = decompose(chain)
    if mode == "basic":
        class_index = {}
        for i, members in enumerate(structure.ergodic_classes()):
            for s in members:
                class_index[s] = i + 1
        colors = [
            subset_name([class_index[s]]) if s in class_index
            else lattice.elements[lattice.top]
            for s in range(chain.size)
        ]
    else:
        colors = [subset_name(r) for r in reference_reachable_sets(chain, structure)]
    delta = [
        [decomposition.maps[l][s] for l in range(len(decomposition.letters))]
        for s in range(chain.size)
    ]
    return make_automaton(lattice, decomposition.letters, chain.states, 0, delta, colors)


def u1(order="z<1"):
    """The two-element monoid with an absorbing element z, in a chosen order."""
    pairs = {"z<1": [("z", "1")], "1<z": [("1", "z")], "=": []}[order]
    return build_ordered_monoid(("1", "z"), "1", [["1", "z"], ["z", "z"]], pairs)


def z2():
    return build_ordered_monoid(("1", "g"), "1", [["1", "g"], ["g", "1"]])


@pytest.fixture(scope="session")
def boolean():
    return standard_lattice("boolean")


@pytest.fixture(scope="session")
def two_sink_chain():
    return load_chain((DATA / "two_sink_chain.json").read_text())


@pytest.fixture(scope="session")
def two_sink_decomposition(two_sink_chain):
    doc = json.loads((DATA / "two_sink_decomposition.json").read_text())
    return decomposition_from_doc(doc, two_sink_chain)


@pytest.fixture(scope="session")
def two_sink_automaton(two_sink_chain, two_sink_decomposition):
    return simulating_automaton(two_sink_chain, "basic", two_sink_decomposition)


@pytest.fixture(scope="session")
def contains_a(boolean):
    """Bottom-valued exactly on words containing the letter a."""
    return make_automaton(
        boolean,
        ("a", "b"),
        ("q0", "q1"),
        "q0",
        {"q0": {"a": "q1", "b": "q0"}, "q1": {"a": "q1", "b": "q1"}},
        {"q0": "1", "q1": "0"},
    )


@pytest.fixture(scope="session")
def empty_word_only(boolean):
    """Bottom-valued exactly on the empty word (complete machine with a sink)."""
    return make_automaton(
        boolean,
        ("a", "b"),
        ("q0", "sink"),
        "q0",
        {"q0": {"a": "sink", "b": "sink"}, "sink": {"a": "sink", "b": "sink"}},
        {"q0": "0", "sink": "1"},
    )


@pytest.fixture
def rng():
    return random.Random(20240811)
