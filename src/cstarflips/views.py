"""The text views of ``validate``, ``chambers``, ``flips`` and ``quotients``,
and the commands ``dynkin`` and ``catalog``.

``cli`` imports this module only for these commands, so that ``analyze`` and
``export`` do not compile it.  A view yields the lines of one spec's output.
"""

from __future__ import annotations

import sys

from . import chambers as ch
from . import modifications as md
from .actions import ActionError, shown
from .cli import EXIT_OK, EXIT_VERIFICATION
from .specfiles import TOO_BIG, SchemaError, expect_int


def validate(path, bundle):
    if bundle.failures:
        yield f"{path}: valid model, verification mismatches:"
        for f in bundle.failures:
            yield f"  {f}"
    else:
        yield f"{path}: ok ({bundle.name}, criticality {bundle.flat.criticality})"


def chambers(path, bundle):
    yield f"== {bundle.name} =="
    a = [str(v) for v in bundle.flat.critical_values]
    x, y = [f"({v}," for v in a], [f"{v})" for v in a]
    for i, columns in enumerate(ch.chamber_rows(bundle.flat)):
        for j, outline in zip(columns, ch.row_outlines(x, y, " ", i, columns)):
            yield f"N_{{{i},{j}}}: {outline}"


def _center_text(c, center_dim: int, flipped_dim: int) -> str:
    return f"{c.name}: center dim {center_dim}, flipped dim {flipped_dim}"


def flips(path, bundle):
    yield f"== {bundle.name} =="
    yield "nodes: " + ", ".join([f"X({i},{j})" for i, j in ch.chamber_pairs(bundle.flat)])
    obstructions = []
    for (i, j), (k, l), (direction, level, centers, blocked) in md.flip_moves(bundle.flat,
                                                                              _center_text):
        if blocked:  # obstructions are printed after every edge, with index pairs
            obstructions.append(f"blocked [{i}, {j}] -> [{k}, {l}]: level {level} components "
                                f"{', '.join(blocked)} fail the flip inequality")
        else:
            tag = "psi+" if direction == md.PLUS else "psi-"
            yield f"X({i},{j}) -> X({k},{l}) [{tag}, level {level}] {'; '.join(centers)}"
    yield from obstructions


def quotients(path, bundle):
    yield f"== {bundle.name} =="
    q = md.quotient_diagram(bundle.flat)
    yield "geometric: " + ", ".join(f"{n.label} (dim {n.dim})" for n in q.geometric)
    semi = [f"{n.label} (dim {n.dim}" + (f" = {n.identity})" if n.identity else ")")
            for n in q.semigeometric]
    yield "semigeometric: " + ", ".join(semi)
    for a, b in q.dashed_arrows:
        yield f"{a} --> {b} (flip)"
    for a, b in q.diagonal_arrows:
        yield f"{a} -> {b} (contraction, fibers {q.fiber_note})"


def dynkin(args) -> int:
    from .lie.homogeneous import HomogeneousSpace, build_action
    from .lie.roots import build_root_system, fundamental_cocharacter, grading

    texts = args.cochar.split(",") if args.cochar else []
    for k, text in enumerate(texts):  # int() refuses these; they are past the bound too
        if sum(map(str.isdecimal, text)) > sys.int_info.default_max_str_digits:
            raise SchemaError(f"--cochar[{k}]", TOO_BIG)
    try:
        cochar = tuple([int(x) for x in texts]) or None
    except ValueError:
        raise SchemaError("--cochar", "expected comma separated integers, got "
                          + shown(repr(args.cochar))) from None
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


def catalog(args) -> int:
    from .lie import catalog as lc
    from .lie.roots import MAX_RANK

    if args.max_rank > MAX_RANK:
        raise ActionError(f"--max-rank {args.max_rank}: rank above {MAX_RANK}")
    cat = lc.catalog()
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
                f"extremes {lc.label_text(inst.extremal_factors)}, "
                f"inner {lc.label_text(inst.inner_factors)}{note}"
            )
    if not args.verify:
        return EXIT_OK
    ok = True
    for row in lc.table2_rows() + lc.table3_rows():
        ranks = [row.min_rank] if row.parameter is None else range(row.min_rank, args.max_rank + 1)
        for m in ranks:
            inst = row.instantiate(m)
            v = lc.verify_row(inst, max_cosets=args.max_cosets)
            status = "ok" if v.ok else "FAIL: " + "; ".join(v.failures)
            extra = "" if v.signatures_equal is None else f" (gradings agree: {v.signatures_equal})"
            print(f"  verify {inst.family} rank {inst.rank}: {status}{extra}")
            ok = ok and v.ok
    return EXIT_OK if ok else EXIT_VERIFICATION
