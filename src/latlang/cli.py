"""Batch command-line front end with stable file formats and exit codes.

Exit codes: 0 success or verdict-true; 2 computed-false or witness found;
3 budget exhausted; 1 validation or parse error.  JSON output is canonical
(sorted keys, compact separators, lowest-terms fractions), so identical
invocations produce byte-identical output.  Errors print a machine-readable
{"error": {"kind": ..., "witness": ...}} document.

Each command is one entry of one command table, ``_COMMANDS``: its path
(``group command`` or ``lang op operation``), its arguments and its handler,
which turns the parsed namespace into an exit code and a document.  ``run``
reads the namespace, then calls the handler the table holds for the
namespace's path; no other code matches a command path.

Argv in the canonical layout is read directly: the command path, then exactly the command's positionals (one or more
files for ``monoid product``), then ``--flag value`` pairs, each flag one of
the command's long flags written out in full and given at most once, no
value starting with ``-``, every value converted and checked as argparse
would, and every required flag present.  Any other argv goes to the argparse
parser built from the same table, so help, abbreviated flags,
``--flag=value``, other orders and every usage error come from argparse with
the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable, Sequence
from typing import Any, NamedTuple

from . import markov as markov_mod
from . import serialize as ser
from .automaton import (
    find_difference,
    inverse_hom,
    minimize,
    parse_word,
    product_combine,
    quotient,
    recolor,
)
from .errors import LatlangError, MalformedDocument
from .lattice import dual
from .monoid import aperiodicity_witness, direct_product, divides
from .syntactic import (
    cut,
    reconstruct_from_cuts,
    shuffle_verdict,
    syntactic,
    triple_to_automaton,
)
from .variety import enumerate_ordered_monoids, run_suite, subdirect_embedding

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FALSE = 2
EXIT_BUDGET = 3


class _Option(NamedTuple):
    """One ``--flag value`` option, with argparse's meaning of each field."""

    flag: str
    type: Callable[[str], Any] = str
    choices: tuple[str, ...] | None = None
    default: Any = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(self.flag, type=self.type, choices=self.choices,
                            default=self.default, required=self.required, help=self.help)


class _Leaf(NamedTuple):
    """One command: the handler that turns its parsed namespace into (exit
    code, document), its positionals' dests, the last one taking ``nargs``
    values, and its options besides ``--format``."""

    handler: Callable[[argparse.Namespace], tuple[int, Any]]
    positionals: tuple[str, ...]
    options: tuple[_Option, ...] = ()
    nargs: str | None = None


class _CliUsage(Exception):
    pass


class _Help(Exception):
    """The help text argparse would print before exiting 0."""


class _Parser(argparse.ArgumentParser):
    """Usage errors (including unknown flags) and help come back to ``run``
    as exceptions: exit code 1 with an error document, and exit code 0 with
    the help text."""

    def error(self, message: str):
        raise _CliUsage(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _read(path: str) -> str:
    """The text of a file, decoded as UTF-8 in one step, with CRLF and lone
    CR turned into LF as text mode turns them."""
    try:
        with open(path, "rb") as file:
            data = file.read()
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path} is not UTF-8: {exc}") from exc


def _load_json(path: str) -> Any:
    return ser.parse_json(_read(path), f"JSON in {path}")


def _word_argument(raw: str, alphabet) -> tuple[str, ...]:
    if raw.startswith("["):
        return parse_word(ser.parse_json(raw, "word list"), alphabet)
    return parse_word(raw, alphabet)


def _dumps(doc: Any, fmt: str) -> str:
    if fmt == "text":
        return ser.text_dumps(doc) + "\n"
    return ser.canonical_dumps(doc) + "\n"


def _monoid(path: str):
    return ser.monoid_from_doc(_load_json(path))


def _machine(path: str):
    return ser.automaton_from_doc(_load_json(path))


def _chain(path: str):
    return ser.chain_from_doc(_load_json(path))


def _lattice_op(transform):
    """The handler that loads one lattice and writes ``transform(lattice)``."""
    return lambda args: (
        EXIT_OK, ser.lattice_to_doc(transform(ser.lattice_from_doc(_load_json(args.file)))))


def _machine_op(transform):
    """The handler that loads one machine and writes ``transform(machine,
    args)``."""
    return lambda args: (EXIT_OK, ser.automaton_to_doc(transform(_machine(args.file), args)))


def _quotient(side: str):
    """The handler of the quotient by ``--word`` on one side."""
    return _machine_op(lambda a, args: quotient(side, a, _word_argument(args.word, a.alphabet)))


def _combine(args: argparse.Namespace) -> tuple[int, Any]:
    a1, a2 = _machine(args.left), _machine(args.right)
    return EXIT_OK, ser.automaton_to_doc(product_combine(args.operation, a1, a2))


def _product(args: argparse.Namespace) -> tuple[int, Any]:
    product, _ = direct_product([_monoid(f) for f in args.files])
    return EXIT_OK, ser.monoid_to_doc(product)


def _divides(args: argparse.Namespace) -> tuple[int, Any]:
    m1, m2 = _monoid(args.dividend), _monoid(args.divisor)
    verdict = divides(m1, m2, max_target_size=args.budget)
    doc = ser.verdict_to_doc(verdict)
    if verdict.kind == "yes":
        return EXIT_OK, doc
    if verdict.kind == "budget_exhausted":
        return EXIT_BUDGET, doc
    doc["witness"] = {"dividend": ser.monoid_to_doc(m1), "divisor": ser.monoid_to_doc(m2)}
    return EXIT_FALSE, doc


def _aperiodic(args: argparse.Namespace) -> tuple[int, Any]:
    witness = aperiodicity_witness(_monoid(args.file))
    if witness is None:
        return EXIT_OK, {"aperiodic": True}
    return EXIT_FALSE, {"aperiodic": False, "witness": witness}


def _eval(args: argparse.Namespace) -> tuple[int, Any]:
    a = _machine(args.file)
    return EXIT_OK, {"value": ser.output_doc(a, _word_argument(args.word, a.alphabet))}


def _equiv(args: argparse.Namespace) -> tuple[int, Any]:
    a1, a2 = _machine(args.left), _machine(args.right)
    diff = find_difference(a1, a2)
    if diff is None:
        return EXIT_OK, {"equivalent": True}
    return EXIT_FALSE, {
        "equivalent": False,
        "witness": {
            "word": ser.word_doc(diff),
            "left": ser.output_doc(a1, diff),
            "right": ser.output_doc(a2, diff),
        },
    }


def _reconstruct(args: argparse.Namespace) -> tuple[int, Any]:
    a = _machine(args.file)
    triple, equal = reconstruct_from_cuts(a)
    doc = {"triple": ser.triple_to_doc(triple), "equal": equal}
    if equal:
        return EXIT_OK, doc
    diff = find_difference(triple_to_automaton(triple), a)
    doc["witness"] = {"word": ser.word_doc(diff or ())}
    return EXIT_FALSE, doc


def _shuffle_check(args: argparse.Namespace) -> tuple[int, Any]:
    a = _machine(args.file)
    synt, algebraic, falsifier = shuffle_verdict(a, args.max_len)
    doc: dict[str, Any] = {"shuffle_ideal": algebraic, "bound": args.max_len, "falsifier": None}
    if falsifier is not None:
        w, v = falsifier
        doc["falsifier"] = {
            "subword": ser.word_doc(w),
            "superword": ser.word_doc(v),
            "value_subword": ser.output_doc(a, w),
            "value_superword": ser.output_doc(a, v),
        }
    if algebraic:
        return EXIT_OK, doc
    identity = synt.monoid.identity
    below_identity = next(x for x, row in enumerate(synt.monoid.leq) if not row >> identity & 1)
    doc["syntactic_monoid"] = monoid = ser.monoid_to_doc(synt.monoid)
    doc["witness_element"] = monoid["elements"][below_identity]
    return EXIT_FALSE, doc


def _enumerate(args: argparse.Namespace) -> tuple[int, Any]:
    if args.n < 1:
        raise _CliUsage("argument --n: must be positive")
    monoids = enumerate_ordered_monoids(args.n)
    return EXIT_OK, {"count": len(monoids), "monoids": [ser.monoid_to_doc(m) for m in monoids]}


def _suite(args: argparse.Namespace) -> tuple[int, Any]:
    reports = run_suite(seed=args.seed)
    text = "".join(_dumps(ser.report_to_doc(r), args.format) for r in reports)
    verdicts = [r.verdict for r in reports]
    if "fail" in verdicts:
        return EXIT_FALSE, text
    if "budget_exhausted" in verdicts:
        return EXIT_BUDGET, text
    return EXIT_OK, text


def _subdirect(args: argparse.Namespace) -> tuple[int, Any]:
    report = subdirect_embedding(_monoid(args.file))
    return (EXIT_OK if report.verdict == "pass" else EXIT_FALSE), ser.report_to_doc(report)


def _analyze(args: argparse.Namespace) -> tuple[int, Any]:
    chain = _chain(args.file)
    decomposition = None
    if args.decomposition:
        decomposition = ser.decomposition_from_doc(_load_json(args.decomposition), chain)
    return EXIT_OK, ser.analysis_to_doc(markov_mod.analyze(
        chain,
        decomposition=decomposition,
        initial=args.initial,
        horizon=args.horizon,
        falsify_bound=args.max_len,
        mode=args.mode,
    ))


def _decompose(args: argparse.Namespace) -> tuple[int, Any]:
    chain = _chain(args.file)
    return EXIT_OK, ser.decomposition_to_doc(markov_mod.decompose(chain), chain)


_FORMAT = _Option("--format", choices=("json", "text"), default="json")
_WORD = _Option("--word", required=True)
_FILE = ("file",)
_LEFT_RIGHT = ("left", "right")

# Command path -> leaf, in the order the help lists the commands.  Handlers
# call library functions by their module-level names, so a rebinding of those
# names (a tracer's wrapper) is seen when the command runs.
_COMMANDS: dict[tuple[str, ...], _Leaf] = {
    ("lattice", "check"): _Leaf(_lattice_op(lambda lat: lat), _FILE),
    ("lattice", "dual"): _Leaf(_lattice_op(lambda lat: dual(lat)), _FILE),
    ("monoid", "check"): _Leaf(
        lambda args: (EXIT_OK, ser.monoid_to_doc(_monoid(args.file))), _FILE),
    ("monoid", "product"): _Leaf(_product, ("files",), nargs="+"),
    ("monoid", "divides"): _Leaf(_divides, ("dividend", "divisor"), (
        _Option("--budget", int, default=10,
                help="largest divisor size searched exhaustively"),
    )),
    ("monoid", "aperiodic"): _Leaf(_aperiodic, _FILE),
    ("lang", "eval"): _Leaf(_eval, _FILE, (_WORD,)),
    ("lang", "minimize"): _Leaf(_machine_op(lambda a, args: minimize(a)), _FILE),
    ("lang", "equiv"): _Leaf(_equiv, _LEFT_RIGHT),
    ("lang", "syntactic"): _Leaf(
        lambda args: (EXIT_OK, ser.syntactic_to_doc(syntactic(_machine(args.file)))), _FILE),
    ("lang", "op", "join"): _Leaf(_combine, _LEFT_RIGHT),
    ("lang", "op", "meet"): _Leaf(_combine, _LEFT_RIGHT),
    ("lang", "op", "quotl"): _Leaf(_quotient("left"), _FILE, (_WORD,)),
    ("lang", "op", "quotr"): _Leaf(_quotient("right"), _FILE, (_WORD,)),
    ("lang", "op", "invhom"): _Leaf(_machine_op(lambda a, args: inverse_hom(
        a, ser.free_morphism_from_doc(_load_json(args.hom), a.alphabet))),
        _FILE, (_Option("--hom", required=True),)),
    ("lang", "op", "recolor"): _Leaf(_machine_op(lambda a, args: recolor(
        a, ser.lattice_morphism_from_doc(_load_json(args.morphism), a.lattice))),
        _FILE, (_Option("--morphism", required=True),)),
    ("lang", "cut"): _Leaf(_machine_op(lambda a, args: cut(a, args.element)),
                           _FILE, (_Option("--element", required=True),)),
    ("lang", "reconstruct"): _Leaf(_reconstruct, _FILE),
    ("lang", "shuffle-check"): _Leaf(
        _shuffle_check, _FILE, (_Option("--max-len", int, default=8),)),
    ("variety", "enumerate"): _Leaf(_enumerate, (), (_Option("--n", int, required=True),)),
    ("variety", "suite"): _Leaf(_suite, (), (_Option("--seed", int, default=0),)),
    ("variety", "subdirect"): _Leaf(_subdirect, _FILE),
    ("markov", "analyze"): _Leaf(_analyze, _FILE, (
        _Option("--decomposition"),
        _Option("--initial"),
        _Option("--horizon", int, default=8),
        _Option("--max-len", int, default=6),
        _Option("--mode", choices=("basic", "reachable"), default="basic"),
    )),
    ("markov", "decompose"): _Leaf(_decompose, _FILE),
    ("markov", "absorb"): _Leaf(
        lambda args: (EXIT_OK, {"absorption": ser.absorption_to_doc(
            markov_mod.absorption_probabilities(_chain(args.file)))}),
        _FILE),
}

# The namespace attribute naming each token of a command path.
_PATH_DESTS = ("group", "command", "operation")


def build_parser() -> _Parser:
    """The argparse parser of ``_COMMANDS``; its help text shows the first
    two paragraphs of the module docstring."""
    description = "\n\n".join(__doc__.split("\n\n")[:2]) if __doc__ else None
    parser = _Parser(prog="latlang", description=description)
    subparsers = {(): parser.add_subparsers(dest=_PATH_DESTS[0], required=True)}
    for path, leaf in _COMMANDS.items():
        for depth in range(1, len(path)):
            if path[:depth] not in subparsers:
                group = subparsers[path[:depth - 1]].add_parser(path[depth - 1])
                subparsers[path[:depth]] = group.add_subparsers(
                    dest=_PATH_DESTS[depth], required=True)
        p = subparsers[path[:-1]].add_parser(path[-1])
        _FORMAT.add_to(p)
        for dest in leaf.positionals[:-1]:
            p.add_argument(dest)
        if leaf.positionals:
            p.add_argument(leaf.positionals[-1], nargs=leaf.nargs)
        for option in leaf.options:
            option.add_to(p)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process; parsing leaves no state in it."""
    return build_parser()


def _canonical(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace argparse gives for argv in the canonical layout (see
    the module docstring), read off ``_COMMANDS``; None for any other argv."""
    depth = 2
    leaf = _COMMANDS.get(tuple(argv[:2]))
    if leaf is None:
        depth = 3
        leaf = _COMMANDS.get(tuple(argv[:3]))
        if leaf is None:
            return None
    rest = argv[depth:]
    count = len(leaf.positionals)
    if leaf.nargs == "+":
        count = next((i for i, arg in enumerate(rest) if arg.startswith("-")), len(rest))
    values = rest[:count]
    if len(values) < len(leaf.positionals) or any(v.startswith("-") for v in values):
        return None
    args = dict(zip(_PATH_DESTS, argv[:depth]))
    args.update(zip(leaf.positionals, values))
    if leaf.nargs == "+":
        args[leaf.positionals[-1]] = list(values[len(leaf.positionals) - 1:])
    unread = {o.flag: o for o in (_FORMAT, *leaf.options)}
    pairs = rest[count:]
    if len(pairs) % 2:
        return None
    for flag, raw in zip(pairs[::2], pairs[1::2]):
        option = unread.pop(flag, None)
        if option is None or raw.startswith("-"):
            return None
        try:
            value = option.type(raw)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        args[option.dest] = value
    for option in unread.values():
        if option.required:
            return None
        args[option.dest] = option.default
    return argparse.Namespace(**args)


def run(argv: Sequence[str] | None = None) -> tuple[int, str]:
    """Parse and execute; returns (exit code, stdout text).  ``argv=None``
    reads ``sys.argv[1:]``; help returns exit code 0 and the help text."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _canonical(argv)
        if args is None:
            args = _parser().parse_args(argv)
        for bound in ("max_len", "horizon", "budget"):
            if getattr(args, bound, 0) < 0:
                raise _CliUsage(f"argument --{bound.replace('_', '-')}: must be non-negative")
        path = tuple(getattr(args, dest) for dest in _PATH_DESTS if hasattr(args, dest))
        code, doc = _COMMANDS[path].handler(args)
    except _Help as exc:
        return EXIT_OK, str(exc)
    except _CliUsage as exc:
        return EXIT_ERROR, _dumps({"error": {"kind": "Usage", "message": str(exc), "witness": None}}, "json")
    except LatlangError as exc:
        return EXIT_ERROR, _dumps({"error": exc.to_doc()}, "json")
    if isinstance(doc, str):
        return code, doc
    return code, _dumps(doc, getattr(args, "format", "json"))


def main(argv: list[str] | None = None) -> int:
    """Run and write the output's UTF-8 bytes to stdout, whatever the
    locale, as ``_read`` reads input files."""
    code, output = run(argv)
    sys.stdout.buffer.write(output.encode("utf-8"))
    return code


if __name__ == "__main__":
    sys.exit(main())
