"""Seeded inputs for the three workloads.

A seed fixes every input; different seeds give corpora of the same make-up
(the same items, sizes and invocation mix) with different numbers, names,
orders and diagram-automorphism images, so runs on different seeds do the
same amount of work.
"""

from __future__ import annotations

import random
from fractions import Fraction

from checks import grassmannian_levels

CASES = ("bordism", "isolated-sink", "isolated-source", "isolated-both")

# lie_orbits: (type, rank, marked node, node of the fundamental cocharacter).
# All are short gradings, which the pipeline derives as equalized; F4, G2
# and E8 have no fundamental cocharacter the pipeline accepts as equalized.
# The first ten run at the cocharacter and at its negation; the last three,
# which take half a second or more each, at one sign drawn from the seed, to
# keep a pass near four seconds.
LIE_ITEMS = (
    ("A", 3, 2, 2),  # Gr(2,4), 6 fixed points
    ("A", 4, 2, 2),
    ("A", 5, 3, 3),
    ("A", 6, 2, 3),
    ("B", 4, 1, 1),  # quadric
    ("B", 5, 2, 1),
    ("C", 4, 4, 4),  # Lagrangian Grassmannian
    ("C", 5, 3, 5),
    ("D", 5, 5, 5),  # spinor variety
    ("E", 6, 1, 6),
    ("E", 6, 2, 1),  # 72 fixed points
    ("D", 6, 3, 1),  # 160 fixed points
    ("E", 7, 1, 7),  # 126 fixed points
)
PAIRED = 10

# One cominuscule node per root system: a small item that builds the root
# system during set-up.
_WARM_NODE = {"A": lambda n: 2, "B": lambda n: 1, "C": lambda n: n, "D": lambda n: 1,
              "E": lambda n: {6: 1, 7: 7}[n]}

# flip_chains: criticalities from 3 to 20, the extremal cases in turn, and in
# the middle five bordisms of criticality 8 with one shape: the median item
# is then the middle of five repeats of one kind of item.
CHAIN_ITEMS = tuple(
    (r, CASES[k % len(CASES)])
    for k, r in enumerate((3, 3, 4, 4, 5, 5, 6, 6, 7, 9, 10, 11, 12, 13, 14, 16, 18, 20))
) + ((8, "bordism"),) * 5


def _automorphism(t: str, n: int, node: int) -> int:
    """Image of a node under the nontrivial diagram automorphism, if any."""
    if t == "A":
        return n + 1 - node
    if t == "D" and node >= n - 1:
        return 2 * n - 1 - node
    if t == "E" and n == 6:
        return {1: 6, 3: 5, 5: 3, 6: 1}.get(node, node)
    return node


def _lie_spec(name: str, t: str, n: int, node: int, k: int, sign: int) -> dict:
    cochar = [0] * n
    cochar[k - 1] = sign
    return {"name": name, "lie": {"type": t, "rank": n, "node": node, "cocharacter": cochar}}


def _with_closed_form(spec: dict) -> dict:
    """Attach the Grassmannian closed form as expected components."""
    lie = spec["lie"]
    k = next(idx for idx, v in enumerate(lie["cocharacter"], start=1) if v)
    rows = grassmannian_levels(lie["rank"], lie["node"], k, lie["cocharacter"][k - 1])
    dim_x = rows[0][1] + rows[0][2] + rows[0][3]
    spec = dict(spec, dim_X=dim_x)
    spec["components"] = [
        {"name": f"L{idx}", "weight": w, "dim": d, "nu_minus": dn, "nu_plus": up}
        for idx, (w, d, dn, up) in enumerate(rows)
    ]
    return spec


def lie_corpus(seed: int):
    """Items (id, spec, pair id) in pass order, and the set-up warm-up specs."""
    rng = random.Random(seed)
    items = []
    with_expected = set(rng.sample([k for k, it in enumerate(LIE_ITEMS) if it[0] == "A"], 2))
    for idx, (t, n, node, k) in enumerate(LIE_ITEMS):
        if rng.random() < 0.5:
            node, k = _automorphism(t, n, node), _automorphism(t, n, k)
        tag = rng.randrange(10**6)
        signs = (1, -1) if idx < PAIRED else (rng.choice((1, -1)),)
        for sign in signs:
            name = f"{t}{n}({node})-w{k}{'+' if sign > 0 else '-'}-{tag}"
            spec = _lie_spec(name, t, n, node, k, sign)
            if idx in with_expected:
                spec = _with_closed_form(spec)
            items.append((name, spec, idx))
    rng.shuffle(items)
    systems = sorted({(t, n) for t, n, _, _ in LIE_ITEMS})
    warm = []
    for t, n in systems:
        node = _WARM_NODE[t](n)
        warm.append((f"warm-{t}{n}", _lie_spec(f"warm-{t}{n}", t, n, node, node, 1), None))
    return items, warm


def chain_spec(rng: random.Random, name: str, r: int, case: str) -> dict:
    """Component-only spec of criticality r in the given extremal case.

    Rational weight steps; half of the inner levels carry two components;
    about a quarter of them hold a component with a normal rank of one, so
    that some flips are obstructed.  The weight steps, which levels and
    which rank is one depend only on (r, case), so that every seed does the
    same work (exact arithmetic costs more or less with the denominators);
    the seed draws the weight offset, dimensions, ranks and order.
    """
    shape = random.Random(f"{r}-{case}")
    dim_x = rng.randint(8, 12)
    sink_dim = 0 if case in ("isolated-sink", "isolated-both") else rng.randint(1, dim_x - 2)
    source_dim = 0 if case in ("isolated-source", "isolated-both") else rng.randint(1, dim_x - 2)
    weight = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    comps = [{"name": "S", "weight": str(weight), "dim": sink_dim, "nu_minus": 0,
              "nu_plus": dim_x - sink_dim}]
    inner = list(range(1, r))
    doubled = set(shape.sample(inner, (r - 1) // 2))
    thin = set(shape.sample(inner, max(1, (r - 1) // 4)))
    for level in inner:
        weight += Fraction(shape.randint(1, 5), shape.randint(1, 4))
        for c in range(2 if level in doubled else 1):
            if c == 0 and level in thin:
                one, other = 1, rng.randint(2, dim_x - 2)
                nu_minus, nu_plus = (one, other) if shape.random() < 0.5 else (other, one)
            else:
                nu_minus = rng.randint(2, dim_x - 3)
                nu_plus = rng.randint(2, dim_x - 1 - nu_minus)
            comps.append({"name": f"Y{level}{'ab'[c]}", "weight": str(weight),
                          "dim": dim_x - nu_minus - nu_plus, "nu_minus": nu_minus,
                          "nu_plus": nu_plus})
    weight += Fraction(shape.randint(1, 5), shape.randint(1, 4))
    comps.append({"name": "T", "weight": str(weight), "dim": source_dim,
                  "nu_minus": dim_x - source_dim, "nu_plus": 0})
    rng.shuffle(comps)
    return {"name": name, "dim_X": dim_x, "declared_equalized": True, "components": comps}


def chain_corpus(seed: int):
    rng = random.Random(seed)
    items = []
    for k, (r, case) in enumerate(CHAIN_ITEMS):
        name = f"chain{k}-r{r}-{case}"
        items.append((name, chain_spec(rng, name, r, case), None))
    rng.shuffle(items)
    warm = [("warm-chain", chain_spec(rng, "warm-chain", 3, "bordism"), None)]
    return items, warm


# cli_batch: small generated specs next to the three shipped ones.
CLI_GENERATED = ((3, "bordism"), (3, "isolated-both"), (4, "isolated-sink"),
                 (4, "isolated-source"), (5, "bordism"), (5, "isolated-sink"),
                 (6, "isolated-source"), (6, "isolated-both"))


def cli_specs(seed: int) -> dict:
    """Generated spec files for cli_batch, by file stem."""
    rng = random.Random(seed)
    return {f"g{k}": chain_spec(rng, f"gen-{k}-r{r}-{case}", r, case)
            for k, (r, case) in enumerate(CLI_GENERATED)}


# One pass of cli_batch.  ``@stem`` is a spec file, generated (g0..g7) or
# shipped (gr24_k2, a4_2 and bordism_r3); ``OUT.ext`` an output file.
CLI_PASS = (
    ("analyze", "@gr24_k2"),
    ("analyze", "--format", "json", "@a4_2"),
    ("analyze", "--format", "json", "@bordism_r3", "@g0", "@g1"),
    ("analyze", "@g2", "@g3"),
    ("export", "--format", "svg", "--out", "OUT.svg", "@bordism_r3"),
    ("export", "--format", "dot", "--out", "OUT.dot", "@a4_2"),
    ("export", "--format", "svg", "--out", "OUT.svg", "@g4"),
    ("export", "--format", "dot", "--out", "OUT.dot", "@g5"),
    ("analyze", "--format", "json", "@g6"),
    ("export", "--format", "svg", "--out", "OUT.svg", "@gr24_k2"),
    ("analyze", "--format", "json", "@g7", "@gr24_k2"),
    ("export", "--format", "dot", "--out", "OUT.dot", "@g0"),
    ("export", "--format", "svg", "--out", "OUT.svg", "@g7"),
)
