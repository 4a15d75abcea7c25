"""Guards against duplicates coming back into the library.

Element resolution, the reflexive-transitive closure of order rows
(``closure_bits``), closing order pairs, the antisymmetry, monotonicity
and compatibility scans, the product constructions and the shuffle-ideal
falsifier each have one definition; the helpers they replaced stay
deleted, the falsifier does not go back to enumerating subwords, and the
product machine does not go back to enumerating state pairs.  The
falsifier finds its superword by one forward search from the start over
triples, read off the parents it records, with no preimage lists and no
backward distance map.  Every order and reach relation is read as int
rows: no module but ``lattice.py`` has a closure loop or a
``bytes.maketrans`` bit table, and no order is read as a matrix of bools
(``leq[a][b]``).  The shuffle verdict, the aperiodicity witness and the
ergodic classes each have one implementation.  Breadth-first closures go
through ``orbit``, except the two searches kept apart on purpose and the
falsifier's search, which expands the triples that share a word
together, one level at a time, so that it reaches words in length-lex
order; an orbit does not.  Monoid tables come from a search, not a full
product, the absorption solver and the word measure build fractions only
for their answers, each absorption row is built from its state's
successors alone, the recognition check runs on one machine, and the
enumeration keys each table, not each (table, order) pair.  The
syntactic order is built from bitsets, not by comparing every pair of
word maps.  Product recognizers of joins and meets are built by
``product_triple`` alone.  No module but ``__init__.py`` imports a name
it does not read.  The syntactic triple of a recognizer given by a table
is read off the table (``syntactic_quotients``), never by running
``syntactic`` on the triple's machine.  Both routes to a syntactic
triple end in one tail (``_syntactic_triple``), which alone builds a
``SyntacticResult`` and raises on a failed validation, and words are
read off an orbit's first edges by ``orbit_words`` alone.  Every order
read through a map (the state preorder off the states' output profiles,
the syntactic order, restricted submonoid orders, the subdirect order
embedding and the recognition identities) comes off ``pointwise_order``
in ``lattice.py``, the one pointwise-order kernel; no fixpoint
refinement (``_state_preorder``) and no private copy
(``_pointwise_order``) comes back.  Keys are sorted into classes by
``number`` in ``lattice.py``, which numbers them in order of first
appearance, and each number's first member is read by ``firsts``:
Moore refinement in ``minimize``, the ergodic classes and
``syntactic_quotients`` all go through them, no private copy
(``syntactic._firsts``) comes back, and no module but ``lattice.py``
numbers keys by hand with ``d.setdefault(key, len(d))``.  The CLI's
command table ``_COMMANDS`` holds each command's path, arguments and
handler, and ``run`` calls the handler it reads off the table by the
namespace's path: no dispatcher (``_handle``, ``_handle_lang``) comes back
to match a command path by string.  ``Mapping``, ``Sequence``, ``Iterable``
and ``Callable`` are imported from ``collections.abc``, never from
``typing``.  A Markov chain is held once, as sparse integer rows over
their scales: no code reads its dense ``matrix`` but the property that
builds it, nothing writes an instance ``__dict__``, and ``make_chain``
alone takes an lcm of chain-entry denominators.  A chain's ergodic
structure is read off the chain: only the ``MarkovChain.structure``
property calls ``ergodic_structure``, and no function in ``markov.py``
takes a structure next to a chain.  Both simulating machines come from
one private builder (``_machines``); the helpers it replaced
(``_checked_decomposition``, ``_simulating_automaton``, ``_raised``) stay
deleted.  Imports sit at the top of each module, with none inside a
function, and the modules import each other without a cycle:
``serialize`` and ``cli`` sit on top.  Only ``cli.py`` and
``__init__.py`` import ``serialize``, and no module but
``serialize.py`` (and ``errors.py``, for error documents) defines a
``to_doc`` method or a ``*_doc`` function, so ``markov.analyze`` and the
variety reports return values, and ``serialize`` alone builds their
documents and reads chain text (``load_chain``).
The syntactic path's tables (the Froidure & Pin columns, the state-map
orbit, the direct product's rows and projections) are gathered whole,
never entry by entry, and the cut reconstruction builds its cut outputs
and join morphisms directly.  JSON text is written only in
``serialize.py``, and ``monoid_to_doc`` hands its multiplication table
over as positions (a ``Table``), never as a comprehension of names.
``serialize`` alone turns labels into document names: its one naming
function, ``document_names``, names every monoid element and machine
state a document holds, no refusal of clashing names (``_distinct``)
comes back, and ``cli.py`` reads no ``.elements`` or ``.states``.
A recognition triple holds each fact once: ``RecognitionTriple`` declares
only ``alphabet``, ``generator_images`` and ``coloring``, and reads its
monoid off the coloring.  ``syntactic_quotients`` resolves its letter
images through ``make_recognition_triple``.  Every map that must preserve
an order (lattice morphisms, colorings, monoid morphisms) is checked by
``lattice.order_preserving``, the one place that raises
``NotOrderPreserving``; it reads the map itself, as an object keyed by
name or a list, from the two carriers it is given, and no helper
(``mapping_images``) reads it apart.  Neither ``LatticeMorphism`` nor
``MonoidMorphism`` defines ``__call__``, and ``MonoidMorphism`` defines no
``then``.  Every batch of element references (table rows, order pairs,
a machine's list delta and its outputs, letter images, generators, the
elements of a join or meet, and the images of colorings and morphisms)
becomes positions through one kernel, ``resolve_all`` in ``lattice.py``:
no row resolver (``_resolve_row``) comes back, and outside the kernel no
code maps an ``.index`` method over entries and no comprehension calls
``.index(`` or ``resolve(`` per entry.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latlang"

DELETED = {
    "_transitive_reflexive_closure",
    "_compatible",
    "_components_of",
    "fraction_str",
    "_strongly_connected_components",
    "_aperiodicity_witness",
    "_composition_table",
    "_bits",
    "_BITS",
    "_DIGITS",
    "_join_recognizer",
    "word_to",
    "_state_preorder",
    "_pointwise_order",
    "_firsts",
    "_handle",
    "_handle_lang",
    "_checked_decomposition",
    "_simulating_automaton",
    "_raised",
    "absorption_doc",
    "_distinct",
    "_resolve_row",
    "mapping_images",
}
KERNEL = {
    "resolve": "lattice.py",
    "resolve_all": "lattice.py",
    "closure_bits": "lattice.py",
    "order_from_pairs": "lattice.py",
    "mutual_pair": "lattice.py",
    "monotone_violation": "lattice.py",
    "compatibility_violation": "monoid.py",
    "direct_product": "monoid.py",
    "product_index": "monoid.py",
    "product_name": "lattice.py",
    "shuffle_ideal_falsify": "syntactic.py",
    "shuffle_verdict": "syntactic.py",
    "product_triple": "syntactic.py",
    "syntactic_quotients": "syntactic.py",
    "aperiodicity_witness": "monoid.py",
    "orbit": "lattice.py",
    "orbit_words": "lattice.py",
    "_syntactic_triple": "syntactic.py",
    "pointwise_order": "lattice.py",
    "number": "lattice.py",
    "firsts": "lattice.py",
    "load_chain": "serialize.py",
    "document_names": "serialize.py",
    "order_preserving": "lattice.py",
}


def _function_defs():
    """(file name, function name, defined at module level) for every def."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node.name, id(node) in top


def _module_names():
    """(file name, name) for every name a module assigns at its top level."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield path.name, target.id


def test_deleted_duplicates_stay_deleted():
    found = [
        (file, name) for file, name, at_top in _function_defs()
        if name in DELETED or (name in ("resolve", "resolve_state") and not at_top)
    ]
    found += [(file, name) for file, name in _module_names() if name in DELETED]
    assert found == []


def test_falsifier_enumerates_no_subwords():
    tree = ast.parse((SRC / "syntactic.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert "combinations" not in names


def test_order_kernel_has_one_definition_each():
    for name, home in KERNEL.items():
        defs = [(file, at_top) for file, fn, at_top in _function_defs() if fn == name]
        assert defs == [(home, True)], name


def _imported_modules(file):
    tree = ast.parse((SRC / file).read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    return imported


def test_product_machine_enumerates_no_pairs():
    assert "itertools" not in _imported_modules("automaton.py")


def test_monoid_tables_are_not_a_product_scan():
    assert "itertools" not in _imported_modules("variety.py")


def test_solver_builds_fractions_only_in_its_answer():
    """The absorption solver and the word measure run on integers: each
    builds ``Fraction``s only in its one return, and the solver reads no
    denominator, since its rows arrive as integers."""
    tree = ast.parse((SRC / "markov.py").read_text())
    bodies = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("_solve_exact", "word_measure")
    }

    def fraction_calls(node):
        return sum(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "Fraction"
            for inner in ast.walk(node)
        )

    assert sorted(bodies) == ["_solve_exact", "word_measure"]
    for name, body in bodies.items():
        returns = [node for node in ast.walk(body) if isinstance(node, ast.Return)]
        assert len(returns) == 1, name
        assert fraction_calls(body) == fraction_calls(returns[0]) > 0, name
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "denominator"
        for node in ast.walk(bodies["_solve_exact"])
    )


def test_absorption_rows_are_built_sparse():
    """``absorption_probabilities`` builds each transient state's row from
    the state's successors: its per-state loop iterates over no collection
    of all transient states and takes no length of one."""
    tree = ast.parse((SRC / "markov.py").read_text())
    body = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "absorption_probabilities"
    )
    loops = [
        node for node in ast.walk(body)
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Name)
        and node.iter.id == "transient"
    ]
    assert len(loops) == 1
    inner = [node for stmt in loops[0].body for node in ast.walk(stmt)]
    iterated = [node.iter for node in inner if isinstance(node, (ast.For, ast.comprehension))]
    sized = [
        arg for node in inner
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"
        for arg in node.args
    ]
    assert not any(
        isinstance(node, ast.Name) and node.id in ("transient", "t_index")
        for node in iterated + sized
    )


def test_direct_product_is_a_fold():
    tree = ast.parse((SRC / "monoid.py").read_text())
    body = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "direct_product"
    )
    nodes = list(ast.walk(body))
    assert not any(isinstance(node, (ast.Dict, ast.DictComp)) for node in nodes)
    assert not any(isinstance(node, ast.Attribute) and node.attr == "product" for node in nodes)


def test_shuffle_verdict_is_checked_in_one_place():
    homes = [
        path.name for path in sorted(SRC.glob("*.py"))
        if "algebraic shuffle verdict is" in path.read_text()
    ]
    assert homes == ["syntactic.py"]


def test_deque_only_in_the_searches_kept_apart():
    """``find_difference`` stops at the first difference and ``_closure_of``
    runs once per generator subset; every other search is an ``orbit``."""
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if any(
                isinstance(inner, ast.Name) and inner.id == "deque"
                or isinstance(inner, ast.Attribute) and inner.attr == "deque"
                for inner in ast.walk(node)
            ):
                users.append((path.name, getattr(node, "name", None)))
    assert users == [("automaton.py", "find_difference"), ("monoid.py", "_closure_of")]


def test_recognition_check_builds_one_machine():
    """``verify_recog_by_synt`` compares colorings as outputs of the triple's
    one machine; it builds no coloring or machine per product element."""
    tree = ast.parse((SRC / "variety.py").read_text())
    body = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_recog_by_synt"
    )
    called = [
        node.func.id for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert called.count("triple_to_automaton") == 1
    assert "ideal_coloring" not in called
    assert "make_op_coloring" not in called


def test_enumeration_keys_tables_not_pairs():
    """The enumeration (``_enumerated``, which ``enumerate_ordered_monoids``
    copies) canonicalizes each table once and keys orders through its
    coset; it never takes a (table, order) pair's ``canonical_key``."""
    tree = ast.parse((SRC / "variety.py").read_text())
    body = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_enumerated"
    )
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert "canonical_table" in names
    assert "canonical_key" not in names


def test_syntactic_order_compares_no_pairs_of_maps():
    """``syntactic.py`` builds its order one bitset row per map; no
    ``all(...)`` runs over zipped maps."""
    tree = ast.parse((SRC / "syntactic.py").read_text())
    pairwise = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "all"
        and any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "zip"
            for arg in node.args
            for inner in ast.walk(arg)
        )
    ]
    assert pairwise == []


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _closure_loops(tree):
    """Line numbers of the closure loops in a module: a ``while`` loop that
    pops a stack or a queue (a search growing a reached set), a row ORed
    into a subscript or an entry set to True three loops deep (Warshall by
    entries), and a row ORed into the rows that hold a bit (Warshall by
    rows)."""
    found = []

    def visit(node, depth):
        if isinstance(node, ast.While) and any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr in ("pop", "popleft")
            for inner in ast.walk(node)
        ):
            found.append(node.lineno)
        if depth >= 3 and (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.BitOr)
            and isinstance(node.target, ast.Subscript)
            or isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.value, ast.Constant)
            and node.value.value is True
        ):
            found.append(node.lineno)
        if (
            depth >= 2
            and isinstance(node, ast.IfExp)
            and isinstance(node.test, ast.BinOp)
            and isinstance(node.test.op, ast.BitAnd)
            and isinstance(node.body, ast.BinOp)
            and isinstance(node.body.op, ast.BitOr)
        ):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, depth + isinstance(node, LOOPS))

    visit(tree, 0)
    return found


def test_one_closure_kernel_and_no_bool_matrices():
    """``closure_bits`` is the one reflexive-transitive closure: outside
    ``lattice.py`` only the two searches kept apart pop a queue, and no
    module has a Warshall loop or builds a ``bytes.maketrans`` bit table.
    No order is read as a matrix of bools: nothing named ``leq`` is
    subscripted twice."""
    kept_apart = {("automaton.py", "find_difference"), ("monoid.py", "_closure_of")}
    loops, tables, matrices = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "lattice.py":
            for node in tree.body:
                if (path.name, getattr(node, "name", None)) not in kept_apart:
                    loops += [(path.name, line) for line in _closure_loops(node)]
            tables += [
                (path.name, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "maketrans"
            ]
        matrices += [
            (path.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Subscript)
            and (
                isinstance(node.value.value, ast.Attribute) and node.value.value.attr == "leq"
                or isinstance(node.value.value, ast.Name) and node.value.value.id == "leq"
            )
        ]
    assert (loops, tables, matrices) == ([], [], [])
    assert _closure_loops(ast.parse((SRC / "lattice.py").read_text()))


def test_no_unused_imports():
    """Every name a module other than ``__init__.py`` imports is read in it;
    ``from __future__`` imports are not names."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [(path.name, name) for name in imported if name not in read]
    assert unused == []


def test_no_syntactic_monoid_of_a_triple_machine():
    """No ``syntactic(triple_to_automaton(...))`` in the library: a triple's
    syntactic monoid comes from ``syntactic_quotients``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            (path.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "syntactic"
            and any(
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "triple_to_automaton"
                for arg in node.args
            )
        ]
    assert found == []


def test_one_syntactic_triple_construction():
    """The library has one ``SyntacticResult(...)`` call and one raise of
    the syntactic validation failure, both in ``_syntactic_triple``."""
    calls, raises = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "SyntacticResult"
                ):
                    calls.append(where)
                if isinstance(node, ast.Raise) and any(
                    isinstance(inner, ast.Constant)
                    and isinstance(inner.value, str)
                    and "syntactic monoid failed validation" in inner.value
                    for inner in ast.walk(node)
                ):
                    raises.append(where)
    assert calls == raises == [("syntactic.py", "_syntactic_triple")]


def test_orders_through_maps_come_off_the_kernel():
    """Each reader of an order through a map calls ``pointwise_order``."""
    readers = {
        "syntactic.py": ["_syntactic_triple"],
        "variety.py": ["verify_recog_by_synt", "subdirect_embedding"],
        "monoid.py": ["generated_submonoid", "_surjection_onto"],
    }
    missing = []
    for file, names in readers.items():
        tree = ast.parse((SRC / file).read_text())
        bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        missing += [
            (file, name) for name in names
            if not any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "pointwise_order"
                for node in ast.walk(bodies[name])
            )
        ]
    assert missing == []


def _numbering_calls(tree):
    """Line numbers of the ``d.setdefault(key, len(d))`` calls in a module."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setdefault"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Call)
        and isinstance(node.args[1].func, ast.Name)
        and node.args[1].func.id == "len"
        and [ast.dump(arg) for arg in node.args[1].args] == [ast.dump(node.func.value)]
    ]


def test_keys_are_numbered_only_by_the_kernel():
    """Outside ``lattice.py`` no ``d.setdefault(key, len(d))`` numbers keys
    by first appearance: that is ``number``'s job, and ``number`` is one."""
    found = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py")) if path.name != "lattice.py"
        for line in _numbering_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    assert _numbering_calls(ast.parse((SRC / "lattice.py").read_text()))


PATH_NAMES = {"group", "command", "operation"}


def _path_comparisons(tree):
    """Line numbers of the comparisons of a command-path token (a name or
    an attribute ``group``, ``command`` or ``operation``) with a string or
    a collection of strings."""
    def is_path(node):
        return (isinstance(node, ast.Name) and node.id in PATH_NAMES
                or isinstance(node, ast.Attribute) and node.attr in PATH_NAMES)

    def is_text(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_text(element) for element in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(map(is_path, [node.left, *node.comparators]))
        and any(map(is_text, [node.left, *node.comparators]))
    ]


def test_cli_dispatches_off_the_command_table():
    """``cli.py`` compares no command-path token with a string: each
    command's handler is read off ``_COMMANDS`` by the namespace's path."""
    assert _path_comparisons(ast.parse((SRC / "cli.py").read_text())) == []
    assert _path_comparisons(ast.parse('if args.command == "op" or operation in ("a", "b"): pass'))


TYPING_ABCS = {"Mapping", "Sequence", "Iterable", "Callable"}


def _typing_abc_imports(tree):
    """The names of ``TYPING_ABCS`` that a module imports from ``typing``."""
    return [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "typing"
        for alias in node.names if alias.name in TYPING_ABCS
    ]


def test_abstract_collections_come_from_collections_abc():
    """No module imports ``Mapping``, ``Sequence``, ``Iterable`` or
    ``Callable`` from ``typing``: they come from ``collections.abc``, where
    an ``isinstance`` check against them skips the alias's indirection."""
    found = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _typing_abc_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    assert _typing_abc_imports(ast.parse("from typing import Any, Mapping"))


def _chain_method_nodes(tree, name):
    """The ids of the nodes inside the method ``MarkovChain.<name>``."""
    return {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "MarkovChain"
        for method in node.body
        if isinstance(method, ast.FunctionDef) and method.name == name
        for inner in ast.walk(method)
    }


def _matrix_reads(tree):
    """Line numbers of the ``.matrix`` reads outside ``MarkovChain.matrix``."""
    inside = _chain_method_nodes(tree, "matrix")
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "matrix" and id(node) not in inside
    ]


def _dict_writes(tree):
    """Line numbers of the writes to an instance ``__dict__``: an item
    stored or deleted, or a method called on it."""
    def is_dict(node):
        return isinstance(node, ast.Attribute) and node.attr == "__dict__"

    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
        and is_dict(node.value)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and is_dict(node.func.value)
    ]


def _denominator_lcms(tree):
    """Names of the top-level definitions that take an lcm of denominators
    other than a decomposition's weights'."""
    found = []
    for top in tree.body:
        for call in ast.walk(top):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "lcm"):
                continue
            weights = {
                comp.target.id for comp in ast.walk(call)
                if isinstance(comp, ast.comprehension) and isinstance(comp.target, ast.Name)
                and isinstance(comp.iter, ast.Attribute) and comp.iter.attr == "weights"
            }
            if any(
                isinstance(node, ast.Attribute) and node.attr == "denominator"
                and not (isinstance(node.value, ast.Name) and node.value.id in weights)
                for node in ast.walk(call)
            ):
                found.append(top.name)
    return found


def test_chain_is_held_once_as_sparse_rows():
    """Chains are read through ``rows`` and ``scales``: the dense matrix is
    built only by the ``MarkovChain.matrix`` property, for callers outside
    the library; nothing fills a cached property by hand through
    ``__dict__``; and the entries' denominators meet in one lcm per row,
    in ``make_chain``, every other lcm of denominators being over a
    decomposition's weights."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    assert [(file, line) for file, tree in trees.items() for line in _matrix_reads(tree)] == []
    assert [(file, line) for file, tree in trees.items() for line in _dict_writes(tree)] == []
    found = [(file, name) for file, tree in trees.items() for name in _denominator_lcms(tree)]
    assert found == [("markov.py", "make_chain")]
    assert _matrix_reads(ast.parse("def f(chain):\n    return chain.matrix[0]"))
    assert len(_dict_writes(ast.parse('x.__dict__["a"] = 1\nx.__dict__.update(b=2)'))) == 2
    assert _denominator_lcms(ast.parse(
        "def f(c, d):\n    return lcm(*(w.denominator for w in d.weights), *(p.denominator for p in c))"
    )) == ["f"]


def _structure_calls(tree):
    """Line numbers of the ``ergodic_structure`` calls outside
    ``MarkovChain.structure``."""
    inside = _chain_method_nodes(tree, "structure")
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "ergodic_structure" and id(node) not in inside
    ]


def _structure_beside_chain(tree):
    """Names of the functions that take both a ``chain`` and a
    ``structure`` parameter."""
    return [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and {"chain", "structure"} <= {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]


def test_ergodic_structure_is_read_off_the_chain():
    """Readers of a chain's ergodic structure read ``chain.structure``: no
    call of ``ergodic_structure`` in the library outside the property that
    caches it, and no function that takes a chain also takes a structure
    to save recomputing it."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    assert [(file, line) for file, tree in trees.items() for line in _structure_calls(tree)] == []
    assert _structure_calls(ast.parse("def f(chain):\n    return ergodic_structure(chain)"))
    assert _structure_beside_chain(trees["markov.py"]) == []
    assert _structure_beside_chain(ast.parse(
        "def f(chain, *, structure=None):\n    pass"
    )) == ["f"]


def _nested_imports(tree):
    """(function, line) of each import inside a function body."""
    return [
        (node.name, inner.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]


def test_imports_sit_at_module_top():
    """No module imports inside a function."""
    found = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name, _ in _nested_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    assert _nested_imports(ast.parse("def f():\n    from .x import y\n    import z")) == [
        ("f", 2), ("f", 3)
    ]


def _entry_gathers(body):
    """The line of each per-entry gather in ``body``: a ``map`` of a
    ``__getitem__``, or a comprehension whose element is a subscript or
    itself a comprehension."""
    comprehensions = (ast.ListComp, ast.GeneratorExp, ast.SetComp)
    found = []
    for node in ast.walk(body):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "map"
            and node.args
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "__getitem__"
        ) or (
            isinstance(node, comprehensions)
            and isinstance(node.elt, (ast.Subscript, *comprehensions))
        ):
            found.append(node.lineno)
    return sorted(found)


def test_tables_are_gathered_whole():
    """``_words_and_table``, ``_state_maps`` and ``direct_product`` gather
    table entries through ``itemgetter`` and whole-row ``map``s, never entry
    by entry; ``reconstruct_from_cuts`` builds its morphisms and cut
    outputs directly, with no ``make_lattice_morphism`` or ``recolor``."""
    bodies = {
        ("syntactic.py", "_words_and_table"),
        ("syntactic.py", "_state_maps"),
        ("syntactic.py", "reconstruct_from_cuts"),
        ("monoid.py", "direct_product"),
    }
    found = {}
    for file in ("syntactic.py", "monoid.py"):
        for node in ast.parse((SRC / file).read_text()).body:
            if isinstance(node, ast.FunctionDef) and (file, node.name) in bodies:
                found[node.name] = node
    assert sorted(found) == sorted(name for _, name in bodies)
    for name in ("_words_and_table", "_state_maps", "direct_product"):
        assert _entry_gathers(found[name]) == [], name
    called = {
        node.func.id for node in ast.walk(found["reconstruct_from_cuts"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"make_lattice_morphism", "recolor"}
    old = ast.parse(
        "def f():\n"
        "    a = list(map(col.__getitem__, rows))\n"
        "    b = [tuple([g[q] for q in m]) for g in gens]\n"
        "    c = [[x * s + z for x in r for z in j] for r in mul for j in t]\n"
    )
    assert _entry_gathers(old) == [2, 3, 4]


JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _json_writers(tree):
    """The line of each use of a ``json`` writer (``dump``, ``dumps``,
    ``JSONEncoder``): by attribute, by name or by import."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in JSON_WRITERS)
        or (isinstance(node, ast.Name) and node.id in JSON_WRITERS)
        or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json")
            and any(alias.name in JSON_WRITERS for alias in node.names))
    )


def _mul_comprehensions(tree):
    """The line of each comprehension that iterates over a ``.mul``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, COMPREHENSIONS)
        and any(
            isinstance(inner, ast.Attribute) and inner.attr == "mul"
            for generator in node.generators
            for inner in ast.walk(generator.iter)
        )
    )


def test_json_is_written_only_in_serialize():
    """No module but ``serialize.py`` writes JSON text, so the CLI's
    ``--format text`` goes through ``serialize.text_dumps``; and
    ``monoid_to_doc`` puts its table in as a ``Table`` of positions, with
    no comprehension over ``monoid.mul``."""
    found = {
        path.name: _json_writers(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "serialize.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    to_doc = next(
        node for node in ast.parse((SRC / "serialize.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "monoid_to_doc"
    )
    assert _mul_comprehensions(to_doc) == []
    old = ast.parse(
        "import json\n"
        "from json import JSONEncoder\n"
        "def f(doc, monoid, names):\n"
        "    text = json.dumps(doc)\n"
        "    mul = [[names[b] for b in row] for row in monoid.mul]\n"
    )
    assert _json_writers(old) == [2, 4]
    assert _mul_comprehensions(old) == [5]


def _imports_serialize(tree):
    """Whether a module imports ``serialize`` or a name from it."""
    return any(
        isinstance(node, ast.ImportFrom) and (
            (node.module or "").endswith("serialize")
            or any(alias.name == "serialize" for alias in node.names)
        )
        or isinstance(node, ast.Import) and any(
            alias.name.endswith(".serialize") for alias in node.names
        )
        for node in ast.walk(tree)
    )


def _document_builders(file):
    """The names of the ``to_doc`` methods and ``*_doc`` functions that a
    module defines."""
    return [
        name for f, name, _ in _function_defs()
        if f == file and (name == "to_doc" or name.endswith("_doc"))
    ]


def test_documents_are_built_only_in_serialize():
    """``serialize`` sits on top: only ``cli.py`` and ``__init__.py`` import
    it, and no module but ``serialize.py`` and ``errors.py`` defines a
    ``to_doc`` method or a ``*_doc`` function.  ``markov.py`` reads no
    JSON."""
    paths = sorted(SRC.glob("*.py"))
    importers = [
        path.name for path in paths
        if _imports_serialize(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert importers == ["__init__.py", "cli.py"]
    builders = {
        path.name: _document_builders(path.name) for path in paths
        if path.name not in ("serialize.py", "errors.py")
    }
    assert {file: names for file, names in builders.items() if names} == {}
    assert "json" not in _imported_modules("markov.py")
    assert [
        _imports_serialize(ast.parse(text)) for text in (
            "from .serialize import monoid_to_doc", "from . import serialize as ser",
            "import latlang.serialize", "from .monoid import divides",
        )
    ] == [True, True, True, False]
    assert _document_builders("serialize.py") and _document_builders("errors.py") == ["to_doc"]


def _label_reads(tree):
    """The line of each ``.elements`` or ``.states`` attribute read."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("elements", "states")
    )


def test_only_serialize_names_elements_and_states():
    """``cli.py`` reads no labels: the documents it writes take every
    element and state name from ``serialize``."""
    assert _label_reads(ast.parse((SRC / "cli.py").read_text())) == []
    assert _label_reads(ast.parse(
        "names = synt.monoid.elements\nfirst = doc['elements'][0]\nq = a.states[0]\n"
    )) == [1, 3]


def _class_body(tree, name):
    """The statements of the class ``name`` in a module."""
    return next(
        node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == name
    )


def _declared_fields(tree, name):
    """The names the class ``name`` declares with an annotation."""
    return [
        node.target.id for node in _class_body(tree, name)
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def test_triple_reads_its_monoid_off_its_coloring():
    """``RecognitionTriple`` declares no ``monoid`` beside its coloring."""
    tree = ast.parse((SRC / "syntactic.py").read_text())
    assert _declared_fields(tree, "RecognitionTriple") == [
        "alphabet", "generator_images", "coloring"
    ]
    old = ast.parse(
        "class RecognitionTriple:\n"
        "    alphabet: tuple\n"
        "    generator_images: tuple\n"
        "    monoid: OrderedMonoid\n"
        "    coloring: OpColoring\n"
    )
    assert "monoid" in _declared_fields(old, "RecognitionTriple")


def _raisers(tree, error):
    """The top-level function around each ``raise error(...)`` in a module."""
    return [
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == error
    ]


def test_one_place_raises_not_order_preserving():
    found = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in _raisers(ast.parse(path.read_text(), filename=str(path)), "NotOrderPreserving")
    ]
    assert found == [("lattice.py", "order_preserving")]
    old = ast.parse(
        "def make_op_coloring(monoid, lattice, colors):\n"
        "    if bad is not None:\n"
        "        raise NotOrderPreserving('colors are not ordered', witness=bad)\n"
    )
    assert _raisers(old, "NotOrderPreserving") == ["make_op_coloring"]


def _methods(tree, name):
    """The names of the methods the class ``name`` defines."""
    return {node.name for node in _class_body(tree, name) if isinstance(node, ast.FunctionDef)}


def test_morphisms_are_not_called_or_composed_as_methods():
    """Maps are read through their ``mapping``: no ``__call__`` on either
    morphism class, and no ``MonoidMorphism.then``."""
    lattice = _methods(ast.parse((SRC / "lattice.py").read_text()), "LatticeMorphism")
    monoid = _methods(ast.parse((SRC / "monoid.py").read_text()), "MonoidMorphism")
    assert "__call__" not in lattice
    assert not {"__call__", "then"} & monoid
    old = ast.parse(
        "class MonoidMorphism:\n"
        "    def __call__(self, element):\n"
        "        return self.mapping[self.source.index(element)]\n"
        "    def then(self, other):\n"
        "        return other\n"
    )
    assert {"__call__", "then"} <= _methods(old, "MonoidMorphism")


def _calls_in(tree, function):
    """The names called by plain name inside the top-level ``function``."""
    body = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
    )
    return {
        node.func.id for node in ast.walk(body)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_quotients_resolve_letter_images_as_a_triple_does():
    tree = ast.parse((SRC / "syntactic.py").read_text())
    assert "make_recognition_triple" in _calls_in(tree, "syntactic_quotients")
    old = ast.parse(
        "def syntactic_quotients(alphabet, generator_images, colorings):\n"
        "    gens = tuple(map(monoid.index, generator_images))\n"
        "    if len(gens) != len(alphabet):\n"
        "        raise MismatchedAlphabet('one generator image per letter is required')\n"
    )
    assert "make_recognition_triple" not in _calls_in(old, "syntactic_quotients")


def _per_entry_resolutions(tree):
    """The line of each per-entry resolution outside ``resolve_all``: a
    ``map`` of an ``.index`` method, or a comprehension that calls
    ``.index(`` or ``resolve(``."""
    comprehensions = (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == "resolve_all":
            continue
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "map"
                and node.args
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "index"
            ) or isinstance(node, comprehensions) and any(
                isinstance(call, ast.Call)
                and (
                    isinstance(call.func, ast.Attribute) and call.func.attr == "index"
                    or isinstance(call.func, ast.Name) and call.func.id == "resolve"
                )
                for call in ast.walk(node)
            ):
                found.append(node.lineno)
    return found


def test_batches_of_references_resolve_through_the_kernel():
    found = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in _per_entry_resolutions(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    old = ast.parse(
        "def generated_submonoid(monoid, generators):\n"
        "    gens = [monoid.index(g) for g in generators]\n"
        "def make_recognition_triple(alphabet, generator_images, coloring):\n"
        "    images = tuple(map(coloring.monoid.index, generator_images))\n"
        "def make_automaton(delta, state_index):\n"
        "    table = [[resolve(state_index, t, 'state') for t in row] for row in delta]\n"
    )
    assert _per_entry_resolutions(old) == [2, 4, 6, 6]
