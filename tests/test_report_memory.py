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


# Chains up to r = 20 in the four cases and ten random chains, as one pass,
# on CPython 3.11: the heap grows by about 36 blocks a pass, as the tuple
# free lists fill, to about 1,810 blocks after 50 passes and 1,910 after 75,
# and then by 0 to 2 blocks over the next 30 passes (by 4 over the next
# 200).  A leak of one block per report would add 2,460 over those 30.
LONG_WARM_PASSES = 70
LONG_PASSES = 30
MAX_LONG_DRIFT_BLOCKS = 200


def test_long_chains_do_not_grow_the_heap():
    """Once the free lists are full, no pass over chains up to r = 20 grows
    the heap."""
    specs = [
        _model_spec(f"{case}-r{r}", synthetic_case_model(case, r=r))
        for r in range(3, 21) for case in CASES
    ]
    rng = random.Random(3)
    specs += [random_spec(rng) for _ in range(10)]
    chains = [parse_spec_dict(spec) for spec in specs]

    def one_pass():
        for spec in chains:
            run_pipeline(spec).to_json()

    for _ in range(LONG_WARM_PASSES):
        one_pass()
    before = sys.getallocatedblocks()
    for _ in range(LONG_PASSES):
        one_pass()
    assert sys.getallocatedblocks() - before < MAX_LONG_DRIFT_BLOCKS
