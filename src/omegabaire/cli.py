"""Command-line front end.

Decision commands print ``true``/``false``; value commands print exact
rationals as ``p/q``.  Exit status: 0 on success (including negative
decisions), 2 for usage, parse or input errors, 3 when an internal
invariant or resource bound is violated.  Output is deterministic for
identical inputs and flags; with several input files, results are
emitted in input order, one line per file prefixed with the file name.

The argument parser is built on the first ``main`` call and kept for the
rest of the process, so in-process callers pay for it once; importing the
module builds nothing.  Commands name their handlers, which ``main`` looks
up in this module on every call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .automata import (
    DMA,
    FamilyTooLargeError,
    OpenSet,
    accepting_witness,
    boolean_combine,
    closure,
    complement,
    contains,
    interior,
    up_membership,
)
from .baire import ABPWitness, finite_up_abp, synthesize_abp_witness, verify_abp_witness
# the decision commands call is_meager, is_dense, is_nowhere_dense and
# contains_disjunctive by name (see _build_parser)
from .category import (
    avoided_infix,
    contains_disjunctive,
    is_dense,
    is_meager,
    is_nowhere_dense,
)
from .measure import format_decimal, format_rational, mu, parse_measure_spec
from .oaf import OafDocument, OafError, from_dma, from_open, parse_oaf, serialize_oaf
from .onecounter import (
    F1_ALPHABET,
    IN_V,
    PROPER_PREFIX,
    counter_run,
    default_counter_spec,
    f1_member_up,
    f1_refute_open,
    f2_member_up,
    f2_nowhere_dense_witness,
    irrationality_certificate,
    min_positive_root,
    survival_probability,
)
from .words import Alphabet, parse_up, split_up


def _bool_text(b: bool) -> str:
    return "true" if b else "false"


def _read_doc(path: str) -> OafDocument:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    warnings: list[str] = []
    try:
        doc = parse_oaf(text, warnings)
    except OafError as exc:
        raise OafError(f"{path}: {exc}") from None
    for w in warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    return doc


def _read_dma(path: str) -> tuple[DMA, OafDocument]:
    doc = _read_doc(path)
    return doc.to_dma(), doc


def _read_open(path: str) -> OpenSet:
    return _read_doc(path).to_open()


def _write_outputs(docs: dict[str, OafDocument]) -> None:
    """Write each document to its path, opening none before all are
    serialized.  The caller builds the documents first, which materializes
    their families, so an output refused there or here leaves no file."""
    texts = {path: serialize_oaf(doc) for path, doc in docs.items()}
    for path, text in texts.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _weights_for(doc: OafDocument, args) -> dict[str, Fraction] | None:
    if getattr(args, "measure", None) is not None:
        return parse_measure_spec(args.measure, doc.alphabet)
    return doc.weight_map()


def _run_per_file(args, fn) -> int:
    files = args.files
    results = [fn(p) for p in files]
    for path, result in zip(files, results):
        if len(files) > 1:
            print(f"{path}: {result}")
        else:
            print(result)
    return 0


# ---------------------------------------------------------------------------
# command implementations


def _cmd_measure(args) -> int:
    def one(path: str) -> str:
        a, doc = _read_dma(path)
        return format_rational(mu(a, _weights_for(doc, args)))

    return _run_per_file(args, one)


def _cmd_decision(args) -> int:
    """A decision command: ``args.decide`` names the function in this module."""
    decide = globals()[args.decide]
    return _run_per_file(args, lambda p: _bool_text(decide(_read_dma(p)[0])))


def _cmd_empty(args) -> int:
    def one(path: str) -> str:
        witness = accepting_witness(_read_dma(path)[0])
        return "empty" if witness is None else f"nonempty {witness}"

    return _run_per_file(args, one)


def _cmd_avoided_infix(args) -> int:
    def one(path: str) -> str:
        w = avoided_infix(_read_dma(path)[0])
        return "none" if w is None else w

    return _run_per_file(args, one)


def _cmd_closure(args) -> int:
    a, _ = _read_dma(args.file)
    sys.stdout.write(serialize_oaf(from_dma(closure(a))))
    return 0


def _cmd_interior(args) -> int:
    a, _ = _read_dma(args.file)
    sys.stdout.write(serialize_oaf(from_open(interior(a))))
    return 0


def _cmd_boolean(args) -> int:
    unary = args.mode == "complement"
    if unary != (args.b is None):
        raise ValueError(f"{args.mode} takes {'one automaton' if unary else 'two automata'}")
    a, _ = _read_dma(args.a)
    result = complement(a) if unary else boolean_combine(a, _read_dma(args.b)[0], args.mode)
    sys.stdout.write(serialize_oaf(from_dma(result)))
    return 0


def _cmd_member_up(args) -> int:
    a, _ = _read_dma(args.file)
    x = parse_up(a.alphabet, args.upword)
    print(_bool_text(up_membership(a, x)))
    return 0


def _cmd_contains(args) -> int:
    a, _ = _read_dma(args.a)
    b, _ = _read_dma(args.b)
    print(_bool_text(contains(a, b)))
    return 0


def _cmd_abp_synth(args) -> int:
    f, _ = _read_dma(args.file)
    w = synthesize_abp_witness(f)
    _write_outputs({args.out_e: from_open(w.e), args.out_fprime: from_dma(w.fprime)})
    print("ok")
    return 0


def _cmd_abp_verify(args) -> int:
    f, _ = _read_dma(args.file)
    e = _read_open(args.e)
    fprime, _ = _read_dma(args.fprime)
    check = verify_abp_witness(f, ABPWitness(e, fprime))
    if not check:
        detail = check.failed
        if check.counterexample is not None:
            detail += f", counterexample {check.counterexample}"
        print(f"witness rejected: {detail}", file=sys.stderr)
    print(_bool_text(bool(check)))
    return 0


def _cmd_abp_finite_up(args) -> int:
    if args.alphabet is not None:
        alphabet = Alphabet(args.alphabet)
    else:
        parts = [split_up(text) for text in args.upwords]
        alphabet = Alphabet(sorted({s for u, v in parts for s in u + v}))
    xs = [parse_up(alphabet, text) for text in args.upwords]
    w = finite_up_abp(xs)
    outputs = {args.out_fprime: from_dma(w.fprime)}
    if args.out_e is not None:
        outputs[args.out_e] = from_open(w.e)
    _write_outputs(outputs)
    print("ok")
    return 0


def _counter_word(word: str) -> str:
    """The word, checked against the counter alphabet: ``counter_run`` reads
    any other symbol as a dead end, not as an input error."""
    return default_counter_spec().alphabet.check_word(word)


def _cmd_v3_member(args) -> int:
    status = counter_run(default_counter_spec(), _counter_word(args.word)).status
    print(_bool_text(status == IN_V))
    return 0


def _cmd_v3_prefix(args) -> int:
    status = counter_run(default_counter_spec(), _counter_word(args.word)).status
    print(_bool_text(status == PROPER_PREFIX))
    return 0


def _cmd_v3_root(args) -> int:
    iv = min_positive_root(args.k, args.precision)
    print(f"{iv}\n~ {format_decimal(iv.midpoint(), args.digits)}")
    return 0


def _cmd_v3_irrational(args) -> int:
    print(irrationality_certificate(args.k).render())
    return 0


def _cmd_v3_survival(args) -> int:
    spec = default_counter_spec()
    weights = None
    if args.measure is not None:
        weights = parse_measure_spec(args.measure, spec.alphabet)
    print(format_rational(survival_probability(spec, args.n, weights)))
    return 0


def _cmd_v3_f2_witness(args) -> int:
    print(f2_nowhere_dense_witness(default_counter_spec(), _counter_word(args.word)))
    return 0


def _cmd_v3_f1_refute(args) -> int:
    e = _read_open(args.file)
    report = f1_refute_open(e, args.precision)
    print(report.render(args.digits))
    return 0


def _cmd_v3_f1_member(args) -> int:
    x = parse_up(F1_ALPHABET, args.upword)
    print(_bool_text(f1_member_up(x)))
    return 0


def _cmd_v3_f2_member(args) -> int:
    x = parse_up(default_counter_spec().alphabet, args.upword)
    print(_bool_text(f2_member_up(x)))
    return 0


# ---------------------------------------------------------------------------
# parser


def _digit_count(text: str) -> int:
    """``--digits``, refused while parsing when negative, before any work."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError("digit count must be >= 0")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the process.

    Each command's defaults name its handler (and, for a decision command,
    its decision function) rather than hold it, and ``main`` looks the name
    up in this module at call time, so a function replaced after the parser
    was built is the one called.
    """
    meas = argparse.ArgumentParser(add_help=False)
    meas.add_argument("--measure", metavar="SPEC", default=None,
                      help="'uniform' or symbol weights like 'a=1/2 b=1/2'")
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--digits", type=_digit_count, default=10, metavar="N",
                        help="decimal places for approximate renderings")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", type=int, default=64, metavar="BITS",
                           help="width bound 2^-BITS for root intervals")

    p = argparse.ArgumentParser(
        prog="omegabaire",
        description="Topological and measure-theoretic analysis of regular "
                    "omega-languages.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def files_cmd(name, handler, parents, help_text, **defaults):
        sp = sub.add_parser(name, parents=parents, help=help_text)
        sp.add_argument("files", nargs="+", metavar="FILE")
        sp.set_defaults(handler=handler, **defaults)
        return sp

    files_cmd("measure", "_cmd_measure", [meas],
              "exact Bernoulli measure of each automaton language")
    files_cmd("meager", "_cmd_decision", [],
              "is the language of first Baire category?", decide="is_meager")
    files_cmd("dense", "_cmd_decision", [],
              "is the language dense?", decide="is_dense")
    files_cmd("nowhere-dense", "_cmd_decision", [],
              "does the closure contain no ball?", decide="is_nowhere_dense")
    files_cmd("disjunctive", "_cmd_decision", [],
              "does the language contain a disjunctive word?",
              decide="contains_disjunctive")
    files_cmd("avoided-infix", "_cmd_avoided_infix", [],
              "an infix avoided by the whole language, of at most m^2 letters "
              "for m live states, or none if it is not nowhere dense")
    files_cmd("empty", "_cmd_empty", [],
              "emptiness, with an ultimately periodic witness if non-empty")

    sp = sub.add_parser("closure", help="topological closure, as an automaton")
    sp.add_argument("file", metavar="FILE")
    sp.set_defaults(handler="_cmd_closure")

    sp = sub.add_parser("interior", help="topological interior, as an open set")
    sp.add_argument("file", metavar="FILE")
    sp.set_defaults(handler="_cmd_interior")

    sp = sub.add_parser("boolean", help="boolean algebra on languages")
    sp.add_argument("mode", choices=["union", "intersection", "complement", "symdiff"])
    sp.add_argument("a", metavar="A")
    sp.add_argument("b", metavar="B", nargs="?", default=None)
    sp.set_defaults(handler="_cmd_boolean")

    sp = sub.add_parser("member-up", help="membership of an ultimately periodic word")
    sp.add_argument("file", metavar="FILE")
    sp.add_argument("upword", metavar="UPWORD", help="syntax u(v)^w")
    sp.set_defaults(handler="_cmd_member_up")

    sp = sub.add_parser("contains", help="does the first language contain the second?")
    sp.add_argument("a", metavar="A")
    sp.add_argument("b", metavar="B")
    sp.set_defaults(handler="_cmd_contains")

    abp = sub.add_parser("abp", help="open-modulo-meager witness machinery")
    absub = abp.add_subparsers(dest="abp_command", required=True)
    sp = absub.add_parser("synth", help="synthesize and verify a witness")
    sp.add_argument("file", metavar="F")
    sp.add_argument("--out-e", required=True, metavar="PATH")
    sp.add_argument("--out-fprime", required=True, metavar="PATH")
    sp.set_defaults(handler="_cmd_abp_synth")
    sp = absub.add_parser("verify", help="verify a witness pair against F")
    sp.add_argument("file", metavar="F")
    sp.add_argument("e", metavar="E")
    sp.add_argument("fprime", metavar="FPRIME")
    sp.set_defaults(handler="_cmd_abp_verify")
    sp = absub.add_parser("finite-up",
                          help="meager cover of finitely many UP words")
    sp.add_argument("upwords", nargs="+", metavar="UPWORD")
    sp.add_argument("--out-fprime", required=True, metavar="PATH")
    sp.add_argument("--out-e", default=None, metavar="PATH")
    sp.add_argument("--alphabet", default=None, metavar="SYMS",
                    help="alphabet symbols, e.g. 'ab' (default: inferred)")
    sp.set_defaults(handler="_cmd_abp_finite_up")

    v3 = sub.add_parser("v3", help="the one-counter language family")
    vsub = v3.add_subparsers(dest="v3_command", required=True)
    sp = vsub.add_parser("member", help="finite-word membership")
    sp.add_argument("word", metavar="WORD")
    sp.set_defaults(handler="_cmd_v3_member")
    sp = vsub.add_parser("prefix", help="is the word a proper prefix of members?")
    sp.add_argument("word", metavar="WORD")
    sp.set_defaults(handler="_cmd_v3_prefix")
    sp = vsub.add_parser("root", parents=[precision, digits],
                         help="bracket the ball-measure fixed point")
    sp.add_argument("-k", type=int, required=True, metavar="K",
                    help="alphabet size (>= 2)")
    sp.set_defaults(handler="_cmd_v3_root")
    sp = vsub.add_parser("irrational", help="irrationality certificate for the root")
    sp.add_argument("-k", type=int, required=True, metavar="K")
    sp.set_defaults(handler="_cmd_v3_irrational")
    sp = vsub.add_parser("survival", parents=[meas],
                         help="exact probability the counter survives n steps")
    sp.add_argument("-n", type=int, required=True, metavar="N")
    sp.set_defaults(handler="_cmd_v3_survival")
    sp = vsub.add_parser("f2-witness",
                         help="extension killing a surviving prefix")
    sp.add_argument("word", metavar="WORD")
    sp.set_defaults(handler="_cmd_v3_f2_witness")
    sp = vsub.add_parser("f1-refute", parents=[precision, digits],
                         help="refute an open approximation of F1")
    sp.add_argument("file", metavar="E_FILE")
    sp.set_defaults(handler="_cmd_v3_f1_refute")
    sp = vsub.add_parser("f1-member", help="UP-word membership in F1")
    sp.add_argument("upword", metavar="UPWORD")
    sp.set_defaults(handler="_cmd_v3_f1_member")
    sp = vsub.add_parser("f2-member", help="UP-word membership in F2")
    sp.add_argument("upword", metavar="UPWORD")
    sp.set_defaults(handler="_cmd_v3_f2_member")

    return p


def _command_name(args) -> str:
    """The command and subcommand as typed, e.g. ``abp synth``."""
    return " ".join(filter(None, (args.command, getattr(args, "abp_command", None),
                                  getattr(args, "v3_command", None))))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return globals()[args.handler](args)
    except FamilyTooLargeError as exc:  # a stated size limit, not a fault
        print(f"limit exceeded in {_command_name(args)}: {exc}", file=sys.stderr)
        return 3
    except (OafError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other fault still exits 3, without a traceback
        print(f"internal error in {_command_name(args)}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
