"""Command line interface.

``analyze`` and ``export`` render here and in ``export``; the other commands
are in ``views``, which only they import.

Exit codes: 0 success, 2 validation failure, illegal Dynkin datum, or an
``--out`` path or stdout that cannot be opened or written (one line on
stderr: ``error: cannot write <path or stdout>: <reason>``), 3 parse/schema
error, 4 verification mismatch between Lie-derived and expected components,
141 stdout closed by its reader before the output was written (as a shell
reports for a program that SIGPIPE ended, e.g. ``cstarflips analyze ... |
head -1``); the rest of the output is dropped without a message.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import chambers as ch
from . import modifications as md
from .actions import (
    DEFAULT_MAX_COSETS, ActionError, InvalidActionError, index_set_i, is_bordism, shown,
)
from .report import ReportBundle, run_pipeline
from .specfiles import SchemaError, SpecSyntaxError, parse_spec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_VERIFICATION = 4
EXIT_CLOSED_STDOUT = 141


def _integer(text: str) -> int:
    """``int(text)``, echoing at most 40 characters of a text it refuses."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {shown(repr(text))}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {shown(repr(text))}")


def _failure(exc: Exception, prefix: str = "", dest: str = "stdout") -> int:
    """Print the message of an error that ends a run or a file on stderr,
    after ``prefix``, and return its exit code.  An ``OSError`` is a failure
    to open or write the output, ``dest``: a write error names no file."""
    code = EXIT_VALIDATION
    if isinstance(exc, (SpecSyntaxError, SchemaError)):
        lines, code = [f"parse error: {exc}"], EXIT_PARSE
    elif isinstance(exc, InvalidActionError):
        lines = ["invalid:"] + [f"  {v.code}: {v.message}" for v in exc.violations]
    elif isinstance(exc, OSError):
        lines = [f"error: cannot write {dest}: {exc.strerror}"]
    else:
        lines = [f"error: {exc}"]
    print(prefix + "\n".join(lines), file=sys.stderr)
    return code


def _run_per_spec(args, render) -> int:
    """Run the pipeline on each spec file in turn and render its report.

    ``render(path, bundle)`` returns bytes or yields lines of text, which go
    to ``--out`` (opened once, on the first spec rendered) or else to stdout.
    A file that fails to parse, validate or derive is reported on stderr and
    the loop goes on with the next file; the exit code is the worst over the
    files.  An output that cannot be opened or written ends the run, in
    :func:`main`.
    """
    out = getattr(args, "out", None)
    fh = None
    worst = EXIT_OK
    try:
        for path in args.specs:
            try:
                bundle = run_pipeline(parse_spec(path), max_cosets=args.max_cosets,
                                      strict_equalized=args.strict_equalized)
            except ActionError as exc:
                worst = max(worst, _failure(exc, f"{path}: "))
                continue
            if out and fh is None:  # text as stdout writes it
                fh = open(out, "w", encoding="utf-8", errors="backslashreplace")
            dest, payload = fh or sys.stdout, render(path, bundle)
            if isinstance(payload, bytes):
                dest.buffer.write(payload)
            else:
                for line in payload:
                    print(line, file=dest)
            if bundle.failures:
                worst = max(worst, EXIT_VERIFICATION)
    finally:
        if fh is not None:
            fh.close()
    return worst


def _cmd_analyze(args) -> int:
    if args.format == "json":
        return _run_per_spec(args, lambda path, bundle: bundle.to_json())
    return _run_per_spec(args, _analyze_text)


def _analyze_text(path: str, bundle: ReportBundle):
    flat = bundle.flat
    isolated = flat.isolated_extremes()  # read once, handed to every rule
    pairs = ch.chamber_pairs(flat, isolated)
    blocked = [bool(record[3]) for _, _, record in md.flip_moves(flat, isolated=isolated)]
    yield f"== {bundle.name} =="
    yield (f"case: {ch.extremal_case(flat, isolated)}  bandwidth: {flat.bandwidth!s}  "
           f"criticality: {flat.criticality}")
    yield (f"bordism: {is_bordism(flat, isolated)}  "
           f"index set: {sorted(index_set_i(flat, isolated))}")
    gens = ", ".join(f"L({a!s},{b!s})" for a, b in ch.movable_polygon(flat, isolated))
    yield f"movable cone generators: {gens}"
    yield f"chambers ({len(pairs)}): " + ", ".join(f"({i},{j})" for i, j in pairs)
    yield f"flip edges: {blocked.count(False)}  obstructions: {blocked.count(True)}"
    cs = md.flip_chain_summary(flat, isolated)
    yield (f"quotient chain: {cs.chain_arrows} arrows, endpoints {cs.left}/{cs.right}, "
           f"{cs.blowups} blowup(s) + {cs.flips} flip(s) + {cs.blowdowns} blowdown(s)")
    for note in bundle.notes:
        yield f"note: {note}"
    if bundle.checked:
        yield "verification: " + ("; ".join(bundle.failures) or "ok")


def export(bundle: ReportBundle, fmt: str) -> bytes:
    """``cstarflips.export.export``, whose module is imported on the first call."""
    from .export import export as write

    return write(bundle, fmt)


def _cmd_export(args) -> int:
    return _run_per_spec(args, lambda path, bundle: export(bundle, args.format))


def _cmd_view(args) -> int:
    """A command of ``views``: a text view of each spec, or dynkin or catalog."""
    from . import views

    command = getattr(views, args.command)
    return _run_per_spec(args, command) if hasattr(args, "specs") else command(args)


def _spec_args(p: argparse.ArgumentParser, func=_cmd_view):
    p.add_argument("specs", nargs="+", help="action spec file(s)")
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    p.add_argument("--strict-equalized", action="store_true")
    p.set_defaults(func=func)


def _analyze_args(p: argparse.ArgumentParser):
    _spec_args(p, _cmd_analyze)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")


def _export_args(p: argparse.ArgumentParser):
    _spec_args(p, _cmd_export)
    p.add_argument("--format", choices=["json", "dot", "svg"], required=True)
    p.add_argument("--out")


def _dynkin_args(p: argparse.ArgumentParser):
    p.add_argument("type")
    p.add_argument("rank", type=_integer)
    p.add_argument("--node", type=_integer, help="marked node of the variety")
    p.add_argument("--cochar", help="comma separated cocharacter coefficients")
    p.add_argument("--cochar-node", type=_integer, help="fundamental cocharacter at this node")
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    p.set_defaults(func=_cmd_view)


def _catalog_args(p: argparse.ArgumentParser):
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-rank", type=_positive_int, default=6)
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    p.set_defaults(func=_cmd_view)


# name -> (help, the function that adds the command's arguments and its func)
_COMMANDS = {
    "validate": ("validate spec files", _spec_args),
    "analyze": ("run the full pipeline", _analyze_args),
    "chambers": ("print the chamber decomposition", _spec_args),
    "flips": ("print the flip graph", _spec_args),
    "quotients": ("print the quotient diagram", _spec_args),
    "export": ("export json/dot/svg", _export_args),
    "dynkin": ("root systems, gradings, induced actions", _dynkin_args),
    "catalog": ("list (and optionally verify) the catalog", _catalog_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.  A command's
    prog, usage and help come from the main parser's prog, not from the
    other commands, so both parse a call of ``command`` alike, up to an
    error that prints the main usage, which lists every command."""
    parser = argparse.ArgumentParser(
        prog="cstarflips",
        description="Chamber decompositions, flip graphs and quotient diagrams "
        "of equalized C*-actions from fixed-point data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the parser of the command that argv names, if it names one; an argument
    # left over is refused by the full parser, whose usage lists every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, rest = build_parser(command).parse_known_args(argv)
    if rest:
        args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    # A name may hold characters that stdout cannot encode, such as a lone
    # surrogate (valid in a JSON string): print those as backslash escapes.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        try:
            code = args.func(args)
        except ActionError as exc:
            code = _failure(exc)
        sys.stdout.flush()
    except OSError as exc:  # the output could not be opened or written
        if out is None:
            # Point stdout at devnull, so the flush at interpreter shutdown
            # cannot raise again on what is still buffered.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return EXIT_CLOSED_STDOUT
        code = _failure(exc, dest=out or "stdout")
    return code


if __name__ == "__main__":
    sys.exit(main())
