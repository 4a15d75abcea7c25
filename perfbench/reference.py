"""Independent reference code for generating inputs and checking outputs.

Nothing here imports latlang: machines, chains and monoids are plain
lists, so the benchmark can size its inputs and check the program's
outputs without trusting the code under test.

Machines are ``(delta, output, initial)`` with ``delta[state][letter]`` a
state index and ``output[state]`` a lattice element index.  Chains are
square lists of ``Fraction`` rows.
"""

from __future__ import annotations

import itertools
from collections import deque

# Lattices as (element names, Hasse covers by index); every one is a lattice.
LATTICES = {
    "chain2": (["0", "1"], [(0, 1)]),
    "chain3": (["0", "1", "2"], [(0, 1), (1, 2)]),
    "chain4": (["0", "1", "2", "3"], [(0, 1), (1, 2), (2, 3)]),
    "chain5": (["0", "1", "2", "3", "4"], [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "diamond": (["bot", "x", "y", "top"], [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "m3": (["bot", "x", "y", "z", "top"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "n5": (["bot", "x", "y", "z", "top"], [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)]),
}


def lattice_doc(kind: str) -> dict:
    names, covers = LATTICES[kind]
    return {"elements": names, "cover": [[names[lo], names[hi]] for lo, hi in covers]}


def lattice_leq(kind: str) -> list[list[bool]]:
    """Reflexive-transitive closure of the covers."""
    names, covers = LATTICES[kind]
    n = len(names)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in covers:
        leq[lo][hi] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    return leq


def machine_doc(kind: str, letters: str, delta, output, initial: int = 0) -> dict:
    names = LATTICES[kind][0]
    states = [f"q{i}" for i in range(len(delta))]
    return {
        "lattice": lattice_doc(kind),
        "alphabet": list(letters),
        "states": states,
        "initial": states[initial],
        "delta": {
            states[q]: {a: states[row[l]] for l, a in enumerate(letters)}
            for q, row in enumerate(delta)
        },
        "output": {states[q]: names[v] for q, v in enumerate(output)},
    }


# -- machines -------------------------------------------------------------

def reachable(delta, initial: int) -> list[int]:
    seen = {initial}
    queue = deque([initial])
    while queue:
        for t in delta[queue.popleft()]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return sorted(seen)


def minimal(delta, output, initial: int):
    """Moore partition refinement on the reachable part; returns a machine."""
    keep = reachable(delta, initial)
    pos = {q: i for i, q in enumerate(keep)}
    d = [[pos[t] for t in delta[q]] for q in keep]
    out = [output[q] for q in keep]
    block = out[:]
    while True:
        sigs: dict[tuple, int] = {}
        new = [sigs.setdefault((block[q],) + tuple(block[t] for t in d[q]), len(sigs)) for q in range(len(d))]
        if len(sigs) == len(set(block)):
            break
        block = new
    block = new
    reps: dict[int, int] = {}
    for q, b in enumerate(block):
        reps.setdefault(b, q)
    order = sorted(reps.values())
    index = {block[q]: i for i, q in enumerate(order)}
    return (
        [[index[block[t]] for t in d[q]] for q in order],
        [out[q] for q in order],
        index[block[pos[initial]]],
    )


def transition_monoid_size(delta, initial: int, cap: int) -> int:
    """Number of distinct state maps of words on the reachable part, or cap + 1."""
    keep = reachable(delta, initial)
    pos = {q: i for i, q in enumerate(keep)}
    gens = [tuple(pos[delta[q][l]] for q in keep) for l in range(len(delta[initial]))]
    seen = {tuple(range(len(keep)))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                c = tuple(g[x] for x in m)
                if c not in seen:
                    seen.add(c)
                    if len(seen) > cap:
                        return cap + 1
                    nxt.append(c)
        frontier = nxt
    return len(seen)


def run_word(delta, initial: int, letters: str, word) -> int:
    q = initial
    for a in word:
        q = delta[q][letters.index(a)]
    return q


def words_upto(letters, length: int):
    for k in range(length + 1):
        yield from itertools.product(letters, repeat=k)


def is_subword(w, v) -> bool:
    it = iter(v)
    return all(a in it for a in w)


def cut_monoid_sizes(kind: str, delta, output) -> list[int]:
    """Syntactic monoid size of each cut language: the words whose value
    lies below v, for every lattice value v."""
    leq = lattice_leq(kind)
    sizes = []
    for v in range(len(leq)):
        cut = [0 if leq[o][v] else 1 for o in output]
        mdelta, _, minit = minimal(delta, cut, 0)
        sizes.append(transition_monoid_size(mdelta, minit, 1 << 20))
    return sizes


# -- ordered monoids ----------------------------------------------------------

def product_monoid(factors: list[dict]) -> dict:
    """Direct product of monoid documents, as ``monoid product`` prints it:
    lexicographic element order, componentwise multiplication and order."""
    combos = list(itertools.product(*(range(len(m["elements"])) for m in factors)))
    index = [{name: i for i, name in enumerate(m["elements"])} for m in factors]
    mul = [[[ix[x] for x in row] for row in m["mul"]] for m, ix in zip(factors, index)]
    leq = []
    for m, ix in zip(factors, index):
        rel = [[False] * len(ix) for _ in ix]
        for lo, hi in m["leq"]:
            rel[ix[lo]][ix[hi]] = True
        leq.append(rel)
    names = ["(" + ",".join(m["elements"][c] for m, c in zip(factors, combo)) + ")" for combo in combos]
    position = {combo: i for i, combo in enumerate(combos)}
    return {
        "elements": names,
        "identity": names[position[tuple(ix[m["identity"]] for m, ix in zip(factors, index))]],
        "mul": [
            [names[position[tuple(t[x][y] for t, x, y in zip(mul, a, b))]] for b in combos]
            for a in combos
        ],
        "leq": sorted(
            [names[i], names[j]]
            for i, a in enumerate(combos)
            for j, b in enumerate(combos)
            if all(r[x][y] for r, x, y in zip(leq, a, b))
        ),
    }


# -- Markov chains ----------------------------------------------------------

def chain_doc(matrix) -> dict:
    states = [f"s{i}" for i in range(len(matrix))]
    return {
        "states": states,
        "rows": {
            states[s]: {states[t]: str(p) for t, p in enumerate(row) if p}
            for s, row in enumerate(matrix)
        },
    }


def adjacency(matrix) -> list[list[int]]:
    return [[t for t, p in enumerate(row) if p] for row in matrix]


def ergodic_classes(matrix) -> tuple[list[list[int]], list[int]]:
    """Closed communicating classes sorted by least member, and transient states."""
    n = len(matrix)
    edges = adjacency(matrix)
    reach = [set(reachable(edges, s)) for s in range(n)]
    classes = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        members = sorted(t for t in reach[s] if s in reach[t])
        seen.update(members)
        if all(reach[t] <= set(members) for t in members):
            classes.append(members)
    closed = {t for c in classes for t in c}
    return classes, [s for s in range(n) if s not in closed]


def greedy_decomposition(matrix) -> list[tuple[int, ...]]:
    """Letter maps of the greedy convex decomposition the CLI documents.

    Each round takes, per state, the column with the largest residual (ties
    to the lowest index) and subtracts the least of those residuals.
    """
    n = len(matrix)
    residual = [list(row) for row in matrix]
    maps = []
    while any(v for row in residual for v in row):
        picks = tuple(max(range(n), key=lambda t: (residual[s][t], -t)) for s in range(n))
        weight = min(residual[s][picks[s]] for s in range(n))
        for s in range(n):
            residual[s][picks[s]] -= weight
        maps.append(picks)
    return maps
