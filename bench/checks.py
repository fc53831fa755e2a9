"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``cstarflips``.  Every expected value is derived from
the benchmark's own input (component data or a Dynkin datum) with formulas
written out below, and compared with what the program produced.  A failed
check raises :class:`CheckError` naming the item and the rule it broke.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction


class CheckError(AssertionError):
    pass


def require(cond: bool, item: str, message: str) -> None:
    if not cond:
        raise CheckError(f"{item}: {message}")


# --------------------------------------------------------------------------
# Flip chains: chambers, flips and quotients from component data
# --------------------------------------------------------------------------


class ChainInput:
    """Levels of an action given by its fixed components, weights normalized
    so that the sink sits at zero."""

    def __init__(self, components, dim_x: int):
        comps = [
            (
                str(c["name"]),
                Fraction(c["weight"]),
                int(c["dim"]),
                int(c["nu_minus"]),
                int(c["nu_plus"]),
            )
            for c in components
        ]
        low = min(c[1] for c in comps)
        self.dim_x = dim_x
        self.values = sorted({c[1] - low for c in comps})
        self.r = len(self.values) - 1
        index = {v: k for k, v in enumerate(self.values)}
        self.levels = [[] for _ in self.values]
        for name, w, dim, nu_minus, nu_plus in comps:
            self.levels[index[w - low]].append((name, dim, nu_minus, nu_plus))
        self.sink_dim = self.levels[0][0][1]
        self.source_dim = self.levels[-1][0][1]
        self.isolated_sink = self.sink_dim == 0
        self.isolated_source = self.source_dim == 0

    def rows(self) -> list:
        """(weight, name, dim, nu_minus, nu_plus) of every component."""
        return sorted(
            (self.values[k], name, dim, nu_minus, nu_plus)
            for k, level in enumerate(self.levels)
            for name, dim, nu_minus, nu_plus in level
        )

    @property
    def case(self) -> str:
        return {
            (False, False): "bordism",
            (True, False): "isolated-sink",
            (False, True): "isolated-source",
            (True, True): "isolated-both",
        }[(self.isolated_sink, self.isolated_source)]

    def chamber_pairs(self) -> set:
        r = self.r
        pairs = {(i, j) for i in range(r) for j in range(i + 1, r + 1)}
        if self.isolated_sink:
            pairs.discard((0, 1))
        if self.isolated_source:
            pairs.discard((r - 1, r))
        return pairs

    def chamber_count(self) -> int:
        r = self.r
        return r * (r + 1) // 2 - int(self.isolated_sink) - int(self.isolated_source)

    def movable_area(self) -> Fraction:
        a = self.values
        delta = a[-1]
        area = delta * delta / 2
        if self.isolated_sink:
            area -= a[1] * a[1] / 2
        if self.isolated_source:
            area -= (delta - a[-2]) ** 2 / 2
        return area

    def flips(self):
        """Edges and obstructions by the flip inequality: leaving level L
        upward (plus) needs nu_plus > 1 on every component there, downward
        (minus) needs nu_minus > 1."""
        pairs = self.chamber_pairs()
        edges, blocked = {}, {}
        for i, j in pairs:
            for direction, target, level, rank_at in (
                ("plus", (i + 1, j), i + 1, 3),
                ("minus", (i, j - 1), j - 1, 2),
            ):
                if target not in pairs:
                    continue
                comps = self.levels[level]
                key = ((i, j), target, direction, level)
                stuck = tuple(sorted(c[0] for c in comps if c[rank_at] <= 1))
                if stuck:
                    blocked[key] = stuck
                else:
                    edges[key] = comps
        return edges, blocked


def _area(points) -> Fraction:
    """Exact shoelace area; positive for either orientation."""
    n = len(points)
    twice = sum(
        points[k][0] * points[(k + 1) % n][1] - points[(k + 1) % n][0] * points[k][1]
        for k in range(n)
    )
    return abs(Fraction(twice)) / 2


def _points(raw) -> list:
    return [(Fraction(x), Fraction(y)) for x, y in raw]


def check_chain(report: dict, chain: ChainInput, item: str) -> None:
    """Chambers, tiling, flips, quotient diagram and chain summary of one
    report against the input's levels."""
    a, r = chain.values, chain.r
    require(r >= 2, item, f"criticality {r} is below two")
    require(report["criticality"] == r, item, f"criticality {report['criticality']} != {r}")
    require(Fraction(report["bandwidth"]) == a[-1], item, "bandwidth differs from the input")
    flat_values = sorted({Fraction(c["weight"]) for c in report["flat_model"]["components"]})
    require(flat_values == a, item, "flat model critical values differ from the input")
    require(report["case"] == chain.case, item, f"case {report['case']!r} != {chain.case!r}")
    got_rows = sorted(
        (Fraction(c["weight"]), c["name"], c["dim"], c["nu_minus"], c["nu_plus"])
        for c in report["model"]["components"]
    )
    require(got_rows == chain.rows(), item, "model components differ from the input")

    # chambers: one per admissible pair, each inside its grid cell
    chambers = report["chambers"]
    pairs = [tuple(c["pair"]) for c in chambers]
    require(
        len(pairs) == chain.chamber_count(),
        item,
        f"{len(pairs)} chambers, expected r(r+1)/2 - isolated = {chain.chamber_count()}",
    )
    require(set(pairs) == chain.chamber_pairs(), item, "chamber pairs differ from the input")
    total = Fraction(0)
    for c in chambers:
        i, j = c["pair"]
        poly = _points(c["polygon"])
        lo_x, hi_x, lo_y, hi_y = a[i], a[i + 1], a[j - 1], a[j]
        for x, y in poly:
            require(
                lo_x <= x <= hi_x and lo_y <= y <= hi_y and x <= y,
                item,
                f"chamber {(i, j)} has vertex ({x}, {y}) outside its cell",
            )
        cell = (hi_x - lo_x) * (hi_y - lo_y)
        want = cell / 2 if j == i + 1 else cell
        got = _area(poly)
        require(got == want, item, f"chamber {(i, j)} area {got} != {want}")
        total += got
    movable = _points(report["movable_cone"])
    require(
        _area(movable) == chain.movable_area(),
        item,
        f"movable polygon area {_area(movable)} != {chain.movable_area()}",
    )
    require(total == chain.movable_area(), item, f"chambers cover {total} of {chain.movable_area()}")

    # flip graph
    fg = report["flip_graph"]
    require(
        sorted(tuple(n) for n in fg["nodes"]) == sorted(chain.chamber_pairs()),
        item,
        "flip graph nodes differ from the chambers",
    )
    want_edges, want_blocked = chain.flips()
    got_edges = {}
    for e in fg["edges"]:
        key = (tuple(e["from"]), tuple(e["to"]), e["direction"], e["level"])
        require(key not in got_edges, item, f"edge {key} listed twice")
        got_edges[key] = e["centers"]
    require(
        set(got_edges) == set(want_edges),
        item,
        f"{len(got_edges)} flip edges, flip inequality gives {len(want_edges)}",
    )
    got_blocked = {
        (tuple(o["from"]), tuple(o["to"]), o["direction"], o["level"]): tuple(sorted(o["components"]))
        for o in fg["obstructions"]
    }
    require(
        len(got_blocked) == len(fg["obstructions"]) and got_blocked == want_blocked,
        item,
        f"{len(fg['obstructions'])} obstructions, flip inequality gives {len(want_blocked)}",
    )
    for key, centers in got_edges.items():
        direction = key[2]
        comps = {c[0]: c for c in want_edges[key]}
        require(
            sorted(c["component"] for c in centers) == sorted(comps),
            item,
            f"edge {key} centers name the wrong components",
        )
        for c in centers:
            _, dim, nu_minus, nu_plus = comps[c["component"]]
            toward = nu_minus if direction == "plus" else nu_plus
            # center and flipped locus both contain Y: their dims add up to
            # dim X - 1 over a point, dim X - 1 + dim Y in general
            require(
                c["center_dim"] == dim + toward
                and c["center_dim"] + c["flipped_dim"] - dim == chain.dim_x - 1,
                item,
                f"edge {key}: center {c['center_dim']} + flipped {c['flipped_dim']} "
                f"- dim Y {dim} is not dim X - 1 = {chain.dim_x - 1}",
            )

    # quotient diagram and chain summary
    q = report["quotients"]
    shape = (len(q["geometric"]), len(q["semigeometric"]), len(q["dashed_arrows"]), len(q["diagonal_arrows"]))
    require(shape == (r, r + 1, r - 1, 2 * r), item, f"quotient diagram shape {shape}, r = {r}")
    require(
        all(n["dim"] == chain.dim_x - 1 for n in q["geometric"]),
        item,
        "geometric quotients are not of dimension dim X - 1",
    )
    ends = (q["semigeometric"][0]["dim"], q["semigeometric"][-1]["dim"])
    require(ends == (chain.sink_dim, chain.source_dim), item, f"extremal quotients have dims {ends}")
    isolated = chain.isolated_sink or chain.isolated_source
    flips = r - 2 if isolated else r - 1
    got = report["chain_summary"]["flips"]
    require(got == flips, item, f"chain summary has {got} flips, expected {flips}")


def chain_from_report_model(report: dict) -> ChainInput:
    """The levels the program derived, for reports whose input is Lie data."""
    return ChainInput(report["model"]["components"], report["model"]["dim_X"])


# --------------------------------------------------------------------------
# Lie data: Weyl group orders, Levi subdiagrams, closed forms
# --------------------------------------------------------------------------

# Highest-root coefficients on the simple roots, Bourbaki numbering.
def highest_root(dynkin_type: str, n: int) -> list:
    if dynkin_type == "A":
        return [1] * n
    if dynkin_type == "B":
        return [1] + [2] * (n - 1)
    if dynkin_type == "C":
        return [2] * (n - 1) + [1]
    if dynkin_type == "D":
        return [1] + [2] * (n - 3) + [1, 1]
    return {
        ("E", 6): [1, 2, 2, 3, 2, 1],
        ("E", 7): [2, 2, 3, 4, 3, 2, 1],
        ("E", 8): [2, 3, 4, 6, 5, 4, 3, 2],
        ("F", 4): [2, 3, 4, 2],
        ("G", 2): [3, 2],
    }[(dynkin_type, n)]


def dynkin_edges(dynkin_type: str, n: int) -> dict:
    """Edges of the Dynkin diagram with their bond multiplicity."""
    if dynkin_type in "ABC":
        edges = {(k, k + 1): 1 for k in range(1, n)}
        if dynkin_type != "A":
            edges[(n - 1, n)] = 2
        return edges
    if dynkin_type == "D":
        edges = {(k, k + 1): 1 for k in range(1, n - 1)}
        edges[(n - 2, n)] = 1
        return edges
    if dynkin_type == "E":
        edges = {(1, 3): 1, (2, 4): 1}
        edges.update({(k, k + 1): 1 for k in range(3, n)})
        return edges
    if dynkin_type == "F":
        return {(1, 2): 1, (2, 3): 2, (3, 4): 1}
    if dynkin_type == "G":
        return {(1, 2): 3}
    raise ValueError(dynkin_type)


def _components(nodes: set, edges: dict) -> list:
    out, left = [], set(nodes)
    while left:
        stack, comp = [left.pop()], set()
        while stack:
            v = stack.pop()
            comp.add(v)
            for (p, q) in edges:
                for u, w in ((p, q), (q, p)):
                    if u == v and w in left:
                        left.discard(w)
                        stack.append(w)
        out.append(comp)
    return out


def _classify(comp: set, edges: dict) -> tuple:
    """(Weyl group order, number of positive roots) of a connected diagram."""
    m = len(comp)
    inner = {e: k for e, k in edges.items() if e[0] in comp and e[1] in comp}
    bonds = set(inner.values())
    if 3 in bonds:
        return 12, 6
    if 2 in bonds:
        (p, q), = [e for e, k in inner.items() if k == 2]
        degree = {v: sum(v in e for e in inner) for v in comp}
        if m == 4 and degree[p] == 2 and degree[q] == 2:
            return 1152, 24
        return 2 ** m * math.factorial(m), m * m
    degree = {v: sum(v in e for e in inner) for v in comp}
    branch = [v for v in comp if degree[v] == 3]
    if not branch:
        return math.factorial(m + 1), m * (m + 1) // 2
    # arm lengths: sizes of the components left when the branch node is removed
    arms = sorted(len(c) for c in _components(comp - {branch[0]}, inner))
    if arms[:2] == [1, 1]:
        return 2 ** (m - 1) * math.factorial(m), m * (m - 1)
    return {
        (1, 2, 2): (51840, 36),
        (1, 2, 3): (2903040, 63),
        (1, 2, 4): (696729600, 120),
    }[tuple(arms)]


def flag_data(dynkin_type: str, n: int, node: int) -> tuple:
    """(|W / W_P|, dim G/P) for the maximal parabolic of the marked node."""
    edges = dynkin_edges(dynkin_type, n)
    order, positive = _classify(set(range(1, n + 1)), edges)
    levi_order, levi_positive = 1, 0
    for comp in _components(set(range(1, n + 1)) - {node}, edges):
        w, p = _classify(comp, edges)
        levi_order *= w
        levi_positive += p
    return order // levi_order, positive - levi_positive


def grassmannian_levels(n: int, i: int, k: int, sign: int) -> list:
    """Fixed components of Gr(i, n+1) under the cocharacter sign * w_k.

    C^{n+1} splits as C^k + C^{n+1-k}; the component with j of the i planes
    in the second summand is Gr(i-j, k) x Gr(j, n+1-k).  Its tangent space
    Hom(S, Q) splits into weight 0 (the component), the directions
    Hom(S2, Q1) toward lower j and Hom(S1, Q2) toward higher j.  Returns
    sorted (weight, dim, nu_minus, nu_plus) rows with the sink at weight 0.
    """
    lo, hi = max(0, i - k), min(i, n + 1 - k)
    rows = []
    for j in range(lo, hi + 1):
        dim = (i - j) * (k - i + j) + j * (n + 1 - k - j)
        down = j * (k - i + j)
        up = (i - j) * (n + 1 - k - j)
        if sign > 0:
            rows.append((j - lo, dim, down, up))
        else:
            rows.append((hi - j, dim, up, down))
    return sorted(rows)


def model_rows(model: dict) -> list:
    return sorted(
        (Fraction(c["weight"]), c["dim"], c["nu_minus"], c["nu_plus"]) for c in model["components"]
    )


def check_lie(report: dict, lie: dict, item: str) -> None:
    """One Lie-derived report against the root datum it came from."""
    t, n, node = lie["type"], lie["rank"], lie["node"]
    cochar = lie["cocharacter"]
    nonzero = [k for k, v in enumerate(cochar, start=1) if v]
    require(len(nonzero) == 1 and abs(cochar[nonzero[0] - 1]) == 1, item, "not a fundamental cocharacter")
    k, sign = nonzero[0], cochar[nonzero[0] - 1]
    points, dim_x = flag_data(t, n, node)
    model = report["model"]
    require(
        report["lie"]["fixed_points"] == points,
        item,
        f"{report['lie']['fixed_points']} fixed points, |W/W_P| = {points}",
    )
    require(model["dim_X"] == dim_x, item, f"dim X {model['dim_X']} != |Phi+| - |Phi+_L| = {dim_x}")
    for c in model["components"]:
        require(
            c["dim"] + c["nu_minus"] + c["nu_plus"] == dim_x,
            item,
            f"component {c['name']}: dim + nu- + nu+ != {dim_x}",
        )
    short = highest_root(t, n)[k - 1] == 1
    require(report["lie"]["is_short"] == short, item, f"grading shortness should be {short}")
    if short:
        require(
            model["equalized"] and model["equalization_source"] == "tangent-weights",
            item,
            "short grading not derived as equalized",
        )
    if t == "A":
        want = grassmannian_levels(n, node, k, sign)
        require(model_rows(model) == want, item, "levels differ from the Grassmannian closed form")
    require(not report["verification"]["failures"], item, "verification failures reported")


def check_negation(plus: dict, minus: dict, item: str) -> None:
    """Negating the cocharacter reverses the levels and swaps nu- with nu+."""
    rows = model_rows(plus["model"])
    delta = rows[-1][0]
    mirrored = sorted((delta - w, d, up, down) for w, d, down, up in rows)
    require(model_rows(minus["model"]) == mirrored, item, "negated cocharacter is not the mirror image")


# --------------------------------------------------------------------------
# CLI outputs: text summaries, SVG and DOT
# --------------------------------------------------------------------------

def check_analyze_text(text: str, chains: list, item: str) -> None:
    """``analyze`` text: one section per spec, in argument order."""
    sections = [s for s in re.split(r"^== .* ==$", text, flags=re.M)[1:]]
    require(len(sections) == len(chains), item, f"{len(sections)} sections for {len(chains)} specs")
    for body, chain in zip(sections, chains):
        m = re.search(r"^chambers \((\d+)\):", body, flags=re.M)
        require(m is not None and int(m.group(1)) == chain.chamber_count(), item, "chamber count line")
        edges, blocked = chain.flips()
        m = re.search(r"^flip edges: (\d+)\s+obstructions: (\d+)$", body, flags=re.M)
        require(
            m is not None and (int(m.group(1)), int(m.group(2))) == (len(edges), len(blocked)),
            item,
            "flip edge / obstruction line",
        )
        flips = chain.r - 2 if (chain.isolated_sink or chain.isolated_source) else chain.r - 1
        m = re.search(r"\+ (\d+) flip\(s\)", body)
        require(m is not None and int(m.group(1)) == flips, item, "chain summary flips")
        require("verification: " not in body or "verification: ok" in body, item, "verification line")


def check_svg(payload: bytes, chain: ChainInput, item: str) -> None:
    root = ET.fromstring(payload)
    polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
    require(
        len(polygons) == chain.chamber_count() + 1,
        item,
        f"{len(polygons)} polygons, expected {chain.chamber_count()} chambers + outline",
    )


def check_dot(payload: bytes, chain: ChainInput, item: str) -> None:
    text = payload.decode("utf-8")
    m = re.search(r"digraph flip_graph \{\n(.*?)\n\}", text, flags=re.S)
    require(m is not None, item, "no flip_graph digraph")
    body = m.group(1).splitlines()
    nodes = {ln.strip() for ln in body if re.fullmatch(r'\s*"X\(\d+,\d+\)";', ln)}
    want = {f'"X({i},{j})";' for i, j in chain.chamber_pairs()}
    require(nodes == want, item, f"{len(nodes)} flip graph nodes, expected {len(want)} chambers")
    edges, _ = chain.flips()
    got = sum(1 for ln in body if "->" in ln)
    require(got == len(edges), item, f"{got} DOT edges, flip inequality gives {len(edges)}")
