"""Command line interface.

Exit codes: 0 success, 2 validation failure, illegal Dynkin datum or an
``--out`` path that cannot be opened, 3 parse/schema error, 4 verification
mismatch between Lie-derived and expected components, 141 stdout closed by
its reader before the output was written (as a shell reports for a program
that SIGPIPE ended, e.g. ``cstarflips analyze ... | head -1``); the rest of
the output is dropped without a message.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import chambers as ch
from . import modifications as md
from .actions import DEFAULT_MAX_COSETS, ActionError, InvalidActionError, index_set_i, is_bordism
from .export import export
from .report import ReportBundle, run_pipeline
from .specfiles import TOO_BIG, SchemaError, SpecSyntaxError, expect_int, parse_spec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_VERIFICATION = 4
EXIT_CLOSED_STDOUT = 141


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_spec_args(p: argparse.ArgumentParser):
    p.add_argument("specs", nargs="+", help="action spec file(s)")
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    p.add_argument("--strict-equalized", action="store_true")


def _pipeline(path: str, args) -> ReportBundle:
    spec = parse_spec(path)
    return run_pipeline(
        spec, max_cosets=args.max_cosets, strict_equalized=args.strict_equalized
    )


def _failure(exc: Exception) -> tuple[list[str], int]:
    """The message lines and exit code of an error that ends a run or a file."""
    if isinstance(exc, (SpecSyntaxError, SchemaError)):
        return [f"parse error: {exc}"], EXIT_PARSE
    if isinstance(exc, InvalidActionError):
        return ["invalid:"] + [f"  {v.code}: {v.message}" for v in exc.violations], EXIT_VALIDATION
    if isinstance(exc, OSError):
        return [f"error: cannot write {exc.filename}: {exc.strerror}"], EXIT_VALIDATION
    return [f"error: {exc}"], EXIT_VALIDATION


def _run_per_spec(args, render, errors=None) -> int:
    """Run the pipeline on each spec file in turn and render its report.

    ``render(path, bundle)`` prints text itself or returns bytes, which go to
    ``--out`` (opened once, on the first payload) or else to stdout.  A file
    that fails to parse, validate or derive is reported on ``errors``
    (stderr by default) and the loop goes on with the next file; the exit
    code is the worst over the files.  An ``--out`` path that cannot be
    opened ends the run.
    """
    errors = errors or sys.stderr
    out = getattr(args, "out", None)
    fh = None
    worst = EXIT_OK
    try:
        for path in args.specs:
            try:
                bundle = _pipeline(path, args)
            except ActionError as exc:
                lines, code = _failure(exc)
                print(f"{path}: " + "\n".join(lines), file=errors)
                worst = max(worst, code)
                continue
            payload = render(path, bundle)
            if payload is not None:
                if not out:
                    sys.stdout.buffer.write(payload)
                else:
                    try:
                        fh = fh or open(out, "wb")
                    except OSError as exc:
                        lines, code = _failure(exc)
                        print("\n".join(lines), file=sys.stderr)
                        return code
                    fh.write(payload)
            if bundle.failures:
                worst = max(worst, EXIT_VERIFICATION)
    finally:
        if fh is not None:
            fh.close()
    return worst


def _cmd_validate(args) -> int:
    def render(path: str, bundle: ReportBundle):
        if bundle.failures:
            print(f"{path}: valid model, verification mismatches:")
            for f in bundle.failures:
                print(f"  {f}")
        else:
            print(f"{path}: ok ({bundle.name}, criticality {bundle.flat.criticality})")

    return _run_per_spec(args, render, errors=sys.stdout)


def _cmd_analyze(args) -> int:
    def render(path: str, bundle: ReportBundle):
        if args.format == "json":
            return bundle.to_json()
        flat = bundle.flat
        pairs = ch.chamber_pairs(flat)
        records, moves = md.flip_moves(flat, ch.chamber_rows(flat))
        blocked = [bool(records[n][3]) for n, _, _ in moves]
        print(f"== {bundle.name} ==")
        print(f"case: {ch.extremal_case(flat)}  bandwidth: {flat.bandwidth!s}  "
              f"criticality: {flat.criticality}")
        print(f"bordism: {is_bordism(flat)}  index set: {sorted(index_set_i(flat))}")
        gens = ", ".join(f"L({a!s},{b!s})" for a, b in ch.movable_polygon(flat))
        print(f"movable cone generators: {gens}")
        print(f"chambers ({len(pairs)}): " + ", ".join(f"({i},{j})" for i, j in pairs))
        print(f"flip edges: {blocked.count(False)}  obstructions: {blocked.count(True)}")
        cs = md.flip_chain_summary(flat)
        print(f"quotient chain: {cs.chain_arrows} arrows, endpoints {cs.left}/{cs.right}, "
              f"{cs.blowups} blowup(s) + {cs.flips} flip(s) + {cs.blowdowns} blowdown(s)")
        for note in bundle.notes:
            print(f"note: {note}")
        if bundle.checked:
            print("verification: " + ("; ".join(bundle.failures) or "ok"))

    return _run_per_spec(args, render)


def _cmd_chambers(args) -> int:
    def render(path: str, bundle: ReportBundle):
        print(f"== {bundle.name} ==")
        a = [str(v) for v in bundle.flat.critical_values]
        points = [[None] * k + [f"({ak},{al})" for al in a[k:]] for k, ak in enumerate(a)]
        for i, columns in enumerate(ch.chamber_rows(bundle.flat)):
            for j, corners in zip(columns, ch.row_corners(points, i, columns)):
                print(f"N_{{{i},{j}}}: {' '.join(corners)}")

    return _run_per_spec(args, render)


def _flip_line(direction: str, level: int, centers, blocked) -> str:
    """A flip record as an edge or obstruction line, with ``%d`` for the
    indices of the two nodes; a ``%`` in a name is doubled."""
    if blocked:
        return "blocked [%d, %d] -> [%d, %d]" + (
            f": level {level} components {', '.join(blocked)} fail the flip inequality"
        ).replace("%", "%%")
    tag = "psi+" if direction == md.PLUS else "psi-"
    rows = "; ".join(
        f"{c.component}: center dim {c.center_dim}, flipped dim {c.flipped_dim}" for c in centers
    )
    return "X(%d,%d) -> X(%d,%d)" + f" [{tag}, level {level}] {rows}".replace("%", "%%")


def _cmd_flips(args) -> int:
    def render(path: str, bundle: ReportBundle):
        print(f"== {bundle.name} ==")
        flat = bundle.flat
        pairs = ch.chamber_pairs(flat)
        print("nodes: " + ", ".join(f"X({i},{j})" for i, j in pairs))
        records, moves = md.flip_moves(flat, ch.chamber_rows(flat))
        lines = [record and _flip_line(*record) for record in records]
        obstructions = []
        for n, p, q in moves:
            line = lines[n] % (*pairs[p], *pairs[q])
            if records[n][3]:  # obstructions are printed after every edge
                obstructions.append(line)
            else:
                print(line)
        for line in obstructions:
            print(line)

    return _run_per_spec(args, render)


def _cmd_quotients(args) -> int:
    def render(path: str, bundle: ReportBundle):
        print(f"== {bundle.name} ==")
        q = md.quotient_diagram(bundle.flat)
        print("geometric: " + ", ".join(f"{n.label} (dim {n.dim})" for n in q.geometric))
        semi = [f"{n.label} (dim {n.dim}" + (f" = {n.identity})" if n.identity else ")")
                for n in q.semigeometric]
        print("semigeometric: " + ", ".join(semi))
        for a, b in q.dashed_arrows:
            print(f"{a} --> {b} (flip)")
        for a, b in q.diagonal_arrows:
            print(f"{a} -> {b} (contraction, fibers {q.fiber_note})")

    return _run_per_spec(args, render)


def _cmd_export(args) -> int:
    def render(path: str, bundle: ReportBundle):
        return export(bundle, args.format)

    return _run_per_spec(args, render)


def _cmd_dynkin(args) -> int:
    from .lie.homogeneous import HomogeneousSpace, build_action
    from .lie.roots import build_root_system, fundamental_cocharacter, grading

    texts = args.cochar.split(",") if args.cochar else []
    for k, text in enumerate(texts):  # int() refuses these; they are past the bound too
        if sum(map(str.isdecimal, text)) > sys.int_info.default_max_str_digits:
            raise SchemaError(f"--cochar[{k}]", TOO_BIG)
    try:
        cochar = tuple([int(x) for x in texts]) or None
    except ValueError:
        shown = args.cochar[:40] + ("..." if len(args.cochar) > 40 else "")  # no unbounded echo
        print(f"error: --cochar takes comma separated integers, got {shown!r}", file=sys.stderr)
        return EXIT_PARSE
    for k, n in enumerate(cochar or ()):
        expect_int(n, f"--cochar[{k}]")
    datum = build_root_system(args.type, args.rank)
    print(f"{datum.name}: {datum.n_positive} positive roots, "
          f"Lie algebra dimension {datum.dim_lie_algebra}")
    if cochar is None and args.cochar_node is not None:
        cochar = fundamental_cocharacter(args.rank, args.cochar_node)
    if cochar is not None:
        g = grading(datum, cochar)
        dims = ", ".join(f"g_{m}: {d}" for m, d in g.graded_dims)
        print(f"grading by {list(cochar)}: {dims}  short: {g.is_short}")
    if args.node is not None:
        if cochar is None:
            raise ActionError("--node needs --cochar or --cochar-node")
        result = build_action(
            HomogeneousSpace(datum, args.node), cochar, max_cosets=args.max_cosets
        )
        print(f"{result.space_label}: dim {result.model.dim_x}, "
              f"{result.fixed_point_count} fixed points, equalized: {result.equalized}")
        for c in result.model.components:
            print(f"  {c.name}: weight {c.weight}, dim {c.dim}, "
                  f"nu- {c.nu_minus}, nu+ {c.nu_plus}")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    from .lie.catalog import catalog, label_text, verify_row
    from .lie.roots import MAX_RANK

    if args.max_rank > MAX_RANK:
        raise ActionError(f"--max-rank {args.max_rank}: rank above {MAX_RANK}")
    cat = catalog()
    print("table 1 (criticality one, horospherical pairs):")
    for row in cat.table1:
        cond = f" [{row.conditions}]" if row.conditions else ""
        print(f"  {row.sink_label}, {row.source_label}{cond} -> {row.variety}")
    for table, rows in ((2, cat.table2), (3, cat.table3)):
        print(f"table {table}:")
        for row in rows:
            inst = row.instantiate(None if row.parameter is None else row.min_rank)
            note = f"  ({row.note})" if row.note else ""
            print(
                f"  {row.family}: grading nodes {list(inst.grading_nodes)}, "
                f"extremes {label_text(inst.extremal_factors)}, "
                f"inner {label_text(inst.inner_factors)}{note}"
            )
    if not args.verify:
        return EXIT_OK
    ok = True
    from .lie.catalog import table2_rows, table3_rows

    for row in table2_rows() + table3_rows():
        ranks = [row.min_rank] if row.parameter is None else range(row.min_rank, args.max_rank + 1)
        for m in ranks:
            inst = row.instantiate(m)
            v = verify_row(inst, max_cosets=args.max_cosets)
            status = "ok" if v.ok else "FAIL: " + "; ".join(v.failures)
            extra = "" if v.signatures_equal is None else f" (gradings agree: {v.signatures_equal})"
            print(f"  verify {inst.family} rank {inst.rank}: {status}{extra}")
            ok = ok and v.ok
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarflips",
        description="Chamber decompositions, flip graphs and quotient diagrams "
        "of equalized C*-actions from fixed-point data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate spec files")
    _add_spec_args(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="run the full pipeline")
    _add_spec_args(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    for name, fn, help_text in (
        ("chambers", _cmd_chambers, "print the chamber decomposition"),
        ("flips", _cmd_flips, "print the flip graph"),
        ("quotients", _cmd_quotients, "print the quotient diagram"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_spec_args(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("export", help="export json/dot/svg")
    _add_spec_args(p)
    p.add_argument("--format", choices=["json", "dot", "svg"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("dynkin", help="root systems, gradings, induced actions")
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.add_argument("--node", type=int, help="marked node of the variety")
    p.add_argument("--cochar", help="comma separated cocharacter coefficients")
    p.add_argument("--cochar-node", type=int, help="fundamental cocharacter at this node")
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    p.set_defaults(func=_cmd_dynkin)

    p = sub.add_parser("catalog", help="list (and optionally verify) the catalog")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-rank", type=_positive_int, default=6)
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A name may hold characters that stdout cannot encode, such as a lone
    # surrogate (valid in a JSON string): print those as backslash escapes.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        try:
            code = args.func(args)
        except ActionError as exc:
            lines, code = _failure(exc)
            print("\n".join(lines), file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at interpreter shutdown
        # cannot raise again on what is still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
