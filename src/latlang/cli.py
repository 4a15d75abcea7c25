"""Batch command-line front end with stable file formats and exit codes.

Exit codes: 0 success or verdict-true; 2 computed-false or witness found;
3 budget exhausted; 1 validation or parse error.  JSON output is canonical
(sorted keys, compact separators, lowest-terms fractions), so identical
invocations produce byte-identical output.  Errors print a machine-readable
{"error": {"kind": ..., "witness": ...}} document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any

from . import markov as markov_mod
from . import serialize as ser
from .automaton import (
    evaluate,
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


class _CliUsage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors (including unknown flags) map to exit code 1."""

    def error(self, message: str):
        raise _CliUsage(message)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> Any:
    text = _read(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON in {path}: {exc}") from exc


def _word_argument(raw: str, alphabet) -> tuple[str, ...]:
    if raw.startswith("["):
        try:
            letters = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise MalformedDocument(f"invalid word list: {exc}") from exc
        return parse_word(letters, alphabet)
    return parse_word(raw, alphabet)


def _dumps(doc: Any, fmt: str) -> str:
    if fmt == "text":
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return ser.canonical_dumps(doc) + "\n"


def build_parser() -> _Parser:
    parser = _Parser(prog="latlang", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    def leaf(sub, name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    lattice = top.add_parser("lattice").add_subparsers(dest="command", required=True)
    leaf(lattice, "check").add_argument("file")
    leaf(lattice, "dual").add_argument("file")

    monoid = top.add_parser("monoid").add_subparsers(dest="command", required=True)
    leaf(monoid, "check").add_argument("file")
    leaf(monoid, "product").add_argument("files", nargs="+")
    p = leaf(monoid, "divides")
    p.add_argument("dividend")
    p.add_argument("divisor")
    p.add_argument("--budget", type=int, default=10,
                   help="largest divisor size searched exhaustively")
    leaf(monoid, "aperiodic").add_argument("file")

    lang = top.add_parser("lang").add_subparsers(dest="command", required=True)
    p = leaf(lang, "eval")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    leaf(lang, "minimize").add_argument("file")
    p = leaf(lang, "equiv")
    p.add_argument("left")
    p.add_argument("right")
    leaf(lang, "syntactic").add_argument("file")
    op = lang.add_parser("op").add_subparsers(dest="operation", required=True)
    for kind in ("join", "meet"):
        p = leaf(op, kind)
        p.add_argument("left")
        p.add_argument("right")
    for kind in ("quotl", "quotr"):
        p = leaf(op, kind)
        p.add_argument("file")
        p.add_argument("--word", required=True)
    p = leaf(op, "invhom")
    p.add_argument("file")
    p.add_argument("--hom", required=True)
    p = leaf(op, "recolor")
    p.add_argument("file")
    p.add_argument("--morphism", required=True)
    p = leaf(lang, "cut")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    leaf(lang, "reconstruct").add_argument("file")
    p = leaf(lang, "shuffle-check")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=8)

    variety = top.add_parser("variety").add_subparsers(dest="command", required=True)
    leaf(variety, "enumerate").add_argument("--n", type=int, required=True)
    leaf(variety, "suite").add_argument("--seed", type=int, default=0)
    leaf(variety, "subdirect").add_argument("file")

    markov = top.add_parser("markov").add_subparsers(dest="command", required=True)
    p = leaf(markov, "analyze")
    p.add_argument("file")
    p.add_argument("--decomposition")
    p.add_argument("--initial")
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--mode", choices=("basic", "reachable"), default="basic")
    leaf(markov, "decompose").add_argument("file")
    leaf(markov, "absorb").add_argument("file")

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process; parsing leaves no state in it."""
    return build_parser()


def _handle(args: argparse.Namespace) -> tuple[int, Any]:
    group = args.group
    command = getattr(args, "command", None)

    if group == "lattice":
        lat = ser.lattice_from_doc(_load_json(args.file))
        if command == "check":
            return EXIT_OK, ser.lattice_to_doc(lat)
        return EXIT_OK, ser.lattice_to_doc(dual(lat))

    if group == "monoid":
        if command == "check":
            m = ser.monoid_from_doc(_load_json(args.file))
            return EXIT_OK, ser.monoid_to_doc(m)
        if command == "product":
            monoids = [ser.monoid_from_doc(_load_json(f)) for f in args.files]
            product, _ = direct_product(monoids)
            return EXIT_OK, ser.monoid_to_doc(product)
        if command == "divides":
            m1 = ser.monoid_from_doc(_load_json(args.dividend))
            m2 = ser.monoid_from_doc(_load_json(args.divisor))
            verdict = divides(m1, m2, max_target_size=args.budget)
            doc = verdict.to_doc()
            if verdict.kind == "yes":
                return EXIT_OK, doc
            if verdict.kind == "budget_exhausted":
                return EXIT_BUDGET, doc
            doc["witness"] = {
                "dividend": ser.monoid_to_doc(m1),
                "divisor": ser.monoid_to_doc(m2),
            }
            return EXIT_FALSE, doc
        m = ser.monoid_from_doc(_load_json(args.file))
        witness = aperiodicity_witness(m)
        if witness is None:
            return EXIT_OK, {"aperiodic": True}
        return EXIT_FALSE, {"aperiodic": False, "witness": witness}

    if group == "lang":
        return _handle_lang(args)

    if group == "variety":
        if command == "enumerate":
            if args.n < 1:
                raise _CliUsage("argument --n: must be positive")
            monoids = enumerate_ordered_monoids(args.n)
            return EXIT_OK, {
                "count": len(monoids),
                "monoids": [ser.monoid_to_doc(m) for m in monoids],
            }
        if command == "suite":
            reports = run_suite(seed=args.seed)
            lines = "".join(
                ser.canonical_dumps(r.to_doc()) + "\n" for r in reports
            )
            verdicts = [r.verdict for r in reports]
            if "fail" in verdicts:
                return EXIT_FALSE, lines
            if "budget_exhausted" in verdicts:
                return EXIT_BUDGET, lines
            return EXIT_OK, lines
        m = ser.monoid_from_doc(_load_json(args.file))
        report = subdirect_embedding(m)
        return (EXIT_OK if report.verdict == "pass" else EXIT_FALSE), report.to_doc()

    if group == "markov":
        chain = ser.chain_from_doc(_load_json(args.file))
        if command == "analyze":
            decomposition = None
            if args.decomposition:
                decomposition = ser.decomposition_from_doc(
                    _load_json(args.decomposition), chain
                )
            report = markov_mod.analyze(
                chain,
                decomposition=decomposition,
                initial=args.initial,
                horizon=args.horizon,
                falsify_bound=args.max_len,
                mode=args.mode,
            )
            return EXIT_OK, report
        if command == "decompose":
            decomposition = markov_mod.decompose(chain)
            return EXIT_OK, ser.decomposition_to_doc(decomposition, chain)
        return EXIT_OK, {"absorption": markov_mod.absorption_doc(chain)}

    raise _CliUsage(f"unknown command group {group!r}")


def _handle_lang(args: argparse.Namespace) -> tuple[int, Any]:
    command = args.command

    if command == "op":
        operation = args.operation
        if operation in ("join", "meet"):
            a1 = ser.automaton_from_doc(_load_json(args.left))
            a2 = ser.automaton_from_doc(_load_json(args.right))
            return EXIT_OK, ser.automaton_to_doc(product_combine(operation, a1, a2))
        a = ser.automaton_from_doc(_load_json(args.file))
        if operation in ("quotl", "quotr"):
            word = _word_argument(args.word, a.alphabet)
            side = "left" if operation == "quotl" else "right"
            return EXIT_OK, ser.automaton_to_doc(quotient(side, a, word))
        if operation == "invhom":
            h = ser.free_morphism_from_doc(_load_json(args.hom), a.alphabet)
            return EXIT_OK, ser.automaton_to_doc(inverse_hom(a, h))
        morphism = ser.lattice_morphism_from_doc(_load_json(args.morphism), a.lattice)
        return EXIT_OK, ser.automaton_to_doc(recolor(a, morphism))

    if command == "equiv":
        a1 = ser.automaton_from_doc(_load_json(args.left))
        a2 = ser.automaton_from_doc(_load_json(args.right))
        diff = find_difference(a1, a2)
        if diff is None:
            return EXIT_OK, {"equivalent": True}
        return EXIT_FALSE, {
            "equivalent": False,
            "witness": {
                "word": ser.word_doc(diff),
                "left": ser.value_doc(a1.lattice.elements[evaluate(a1, diff)]),
                "right": ser.value_doc(a2.lattice.elements[evaluate(a2, diff)]),
            },
        }

    a = ser.automaton_from_doc(_load_json(args.file))
    if command == "eval":
        word = _word_argument(args.word, a.alphabet)
        return EXIT_OK, {"value": ser.value_doc(a.lattice.elements[evaluate(a, word)])}
    if command == "minimize":
        return EXIT_OK, ser.automaton_to_doc(minimize(a))
    if command == "syntactic":
        synt = syntactic(a)
        coloring = ser.coloring_to_doc(synt.coloring)
        return EXIT_OK, {
            "monoid": coloring["monoid"],
            "images": {
                letter: synt.monoid.elements[g]
                for letter, g in zip(synt.alphabet, synt.generator_images)
            },
            "coloring": coloring,
            "witnesses": {
                synt.monoid.elements[i]: ser.word_doc(w)
                for i, w in enumerate(synt.witnesses)
            },
        }
    if command == "cut":
        return EXIT_OK, ser.automaton_to_doc(cut(a, args.element))
    if command == "reconstruct":
        triple, equal = reconstruct_from_cuts(a)
        doc = {"triple": ser.triple_to_doc(triple), "equal": equal}
        if equal:
            return EXIT_OK, doc
        diff = find_difference(triple_to_automaton(triple), a)
        doc["witness"] = {"word": ser.word_doc(diff or ())}
        return EXIT_FALSE, doc
    if command == "shuffle-check":
        synt, algebraic, falsifier = shuffle_verdict(a, args.max_len)
        doc: dict[str, Any] = {
            "shuffle_ideal": algebraic,
            "bound": args.max_len,
            "falsifier": None,
        }
        if falsifier is not None:
            w, v = falsifier
            doc["falsifier"] = {
                "subword": ser.word_doc(w),
                "superword": ser.word_doc(v),
                "value_subword": ser.value_doc(a.lattice.elements[evaluate(a, w)]),
                "value_superword": ser.value_doc(a.lattice.elements[evaluate(a, v)]),
            }
        if not algebraic:
            below_identity = next(
                x for x in range(synt.monoid.size)
                if not synt.monoid.le(x, synt.monoid.identity)
            )
            doc["witness_element"] = synt.monoid.elements[below_identity]
            doc["syntactic_monoid"] = ser.monoid_to_doc(synt.monoid)
            return EXIT_FALSE, doc
        return EXIT_OK, doc

    raise _CliUsage(f"unknown lang command {command!r}")


def run(argv: list[str] | None = None) -> tuple[int, str]:
    """Parse and execute; returns (exit code, stdout text)."""
    try:
        args = _parser().parse_args(argv)
        for bound in ("max_len", "horizon", "budget"):
            if getattr(args, bound, 0) < 0:
                raise _CliUsage(f"argument --{bound.replace('_', '-')}: must be non-negative")
        code, doc = _handle(args)
    except _CliUsage as exc:
        return EXIT_ERROR, _dumps({"error": {"kind": "Usage", "message": str(exc), "witness": None}}, "json")
    except LatlangError as exc:
        return EXIT_ERROR, _dumps({"error": exc.to_doc()}, "json")
    if isinstance(doc, str):
        return code, doc
    return code, _dumps(doc, getattr(args, "format", "json"))


def main(argv: list[str] | None = None) -> int:
    code, output = run(argv)
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
