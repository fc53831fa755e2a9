"""Memory held between reports.

A report's chambers, flip graph and P1-bundles are written as text, so a
run allocates few container objects and CPython's cyclic collector seldom
runs a full collection.  Nothing then empties the interpreter's free lists,
and a free list that a pass keeps filling grows the heap pass after pass:
``tuple(<generator>)`` takes a size-10 tuple from the free list and returns
a tuple of the final size to it.  The per-item path builds its tuples from
lists, which does not drift.
"""

import random
import sys
from pathlib import Path

from conftest import synthetic_case_model
from test_report_export import random_spec
from test_report_golden import CASES, _model_spec

from cstarflips.report import run_pipeline
from cstarflips.specfiles import parse_spec, parse_spec_dict

SPECS = Path(__file__).resolve().parent.parent / "specs"

# One variety per type at a fundamental cocharacter with a short grading:
# (type, rank, marked node, cocharacter node).
LIE_ITEMS = (("A", 5, 3, 3), ("B", 4, 1, 1), ("C", 4, 4, 4), ("D", 5, 5, 5), ("E", 6, 1, 6))

PASSES = 100
# Over 100 passes the chains below drift by a few blocks when the per-item
# path builds tuples from lists, and by 9,000 to 15,000 when it builds them
# from generators.  With the Lie specs the drift is about 1,000 blocks, and
# 10,199 when the Lie path builds its tuples from generators.
MAX_DRIFT_BLOCKS = 2000


def _chains() -> list:
    specs = [
        _model_spec(f"{case}-r{r}", synthetic_case_model(case, r=r))
        for r in range(3, 9) for case in CASES
    ]
    rng = random.Random(3)
    specs += [random_spec(rng) for _ in range(10)]
    for t, n, node, k in LIE_ITEMS:
        cochar = [int(i == k - 1) for i in range(n)]
        specs.append({"name": f"{t}{n}({node})", "lie": {
            "type": t, "rank": n, "node": node, "cocharacter": cochar}})
    parsed = [parse_spec_dict(spec) for spec in specs]
    return parsed + [spec for spec in map(parse_spec, sorted(SPECS.glob("*.json"))) if spec.lie]


def test_reports_do_not_grow_the_heap():
    """No gc.collect() between passes: a full collection empties the free
    lists and would hide the drift this guards against."""
    chains = _chains()

    def one_pass():
        for spec in chains:
            run_pipeline(spec).to_json()

    for _ in range(3):
        one_pass()
    before = sys.getallocatedblocks()
    for _ in range(PASSES):
        one_pass()
    assert sys.getallocatedblocks() - before < MAX_DRIFT_BLOCKS
