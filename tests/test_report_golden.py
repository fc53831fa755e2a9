"""Report bytes pinned by digest.

Every report below is serialized with ``ReportBundle.to_json`` and compared
against a sha256 recorded from the program before the isolated-extremes,
flat-model and level-signature rules were each given a single home.  Any
change to the canonical JSON on these inputs, however small, fails here:
the shipped specs, the criterion-11 random corpus, the four extremal cases
at two criticalities, rational chains at three more, an input whose
extremes are already divisors, and Lie specs whose listed components
disagree with the derived ones (which pins the wording of the verification
failures).  The stdout of every spec command over those inputs, and of the
Lie commands ``catalog`` and ``dynkin`` on a few data, is pinned the same way.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CASE_ISOLATED, synthetic_case_model
from test_report_export import BORDISM_SPEC, GR24_SPEC, random_spec, with_odd_names

from cstarflips.cli import main
from cstarflips.report import run_pipeline
from cstarflips.specfiles import parse_spec_dict

SPECS = Path(__file__).resolve().parent.parent / "specs"
CASES = ("bordism", "isolated-sink", "isolated-source", "isolated-both")

# Sink and source of dim_X - 1: the input is its own blowup.
BTYPE_SPEC = {
    "name": "btype-r3",
    "dim_X": 6,
    "declared_equalized": True,
    "components": [
        {"name": "S", "weight": 0, "dim": 5, "nu_minus": 0, "nu_plus": 1},
        {"name": "M1", "weight": 1, "dim": 2, "nu_minus": 2, "nu_plus": 2},
        {"name": "M2", "weight": "5/2", "dim": 3, "nu_minus": 1, "nu_plus": 2},
        {"name": "T", "weight": 4, "dim": 5, "nu_minus": 1, "nu_plus": 0},
    ],
}


def _lie_mismatch(kind: str) -> dict:
    spec = json.loads(json.dumps(GR24_SPEC))
    spec["name"] = f"gr24-mismatch-{kind}"
    if kind == "level":
        spec["components"][1].update(dim=1, nu_plus=2)
    elif kind == "weights":
        for k, c in enumerate(spec["components"]):
            c["weight"] = 2 * k
    else:  # dim_X declared without components
        del spec["components"]
        spec["dim_X"] = 5
    return spec


def _model_spec(name: str, model) -> dict:
    return {
        "name": name,
        "dim_X": model.dim_x,
        "components": [
            {"name": c.name, "weight": str(c.weight), "dim": c.dim,
             "nu_minus": c.nu_minus, "nu_plus": c.nu_plus}
            for c in model.components
        ],
    }


# Denominators of the steps between the critical values of a rational chain.
STEP_DENOMINATORS = (1, 2, 3, 4, 6, 7, 12)
RATIONAL_CHAIN_RS = (8, 16, 20)


def _spell(w: Fraction, rng: random.Random):
    """``w`` as a spec writes it: an integer, a reduced ``"p/q"`` or an
    unreduced ``"2p/2q"``."""
    if w.denominator == 1 and rng.random() < 0.5:
        return w.numerator
    if rng.random() < 0.3:
        return f"{2 * w.numerator}/{2 * w.denominator}"
    return str(w)


def rational_chain_spec(case: str, r: int) -> dict:
    """A chain of criticality ``r`` in the extremal ``case``: the critical
    values start below zero and step by rationals of mixed denominators, a
    third of the inner levels hold two components, the normal ranks are
    drawn from 1 up (a rank of one blocks the flip out of its level in one
    direction, and two middle levels hold one of each), and the components
    are listed in shuffled order."""
    rng = random.Random(1000 * r + CASES.index(case))
    sink_isolated, source_isolated = CASE_ISOLATED[case]
    dim_x = 9
    a = Fraction(-rng.randint(1, 20), rng.choice(STEP_DENOMINATORS))
    sink_dim = 0 if sink_isolated else rng.randint(1, dim_x - 2)
    rows = [("S", a, sink_dim, 0, dim_x - sink_dim)]
    for level in range(1, r):
        a += Fraction(rng.randint(1, 9), rng.choice(STEP_DENOMINATORS))
        for k, name in enumerate(rng.sample(("P", "Q"), rng.choice((1, 1, 2)))):
            nu_minus = rng.randint(1, dim_x - 2)
            nu_plus = rng.randint(1, dim_x - 1 - nu_minus)
            if k == 0 and level in (r // 2, r // 2 + 1):  # one blocked flip each way
                nu_minus, nu_plus = (1, nu_minus) if level > r // 2 else (nu_plus, 1)
            rows.append((f"{name}{level}", a, dim_x - nu_minus - nu_plus, nu_minus, nu_plus))
    a += Fraction(rng.randint(1, 9), rng.choice(STEP_DENOMINATORS))
    source_dim = 0 if source_isolated else rng.randint(1, dim_x - 2)
    rows.append(("T", a, source_dim, dim_x - source_dim, 0))
    rng.shuffle(rows)
    return {
        "name": f"rational-{case}-r{r}",
        "dim_X": dim_x,
        "components": [
            {"name": n, "weight": _spell(w, rng), "dim": d, "nu_minus": nm, "nu_plus": np_}
            for n, w, d, nm, np_ in rows
        ],
    }


def _golden_specs():
    """(case id, spec dicts) for every pinned input."""
    for path in sorted(SPECS.glob("*.json")):
        yield f"spec:{path.name}", [json.loads(path.read_text(encoding="utf-8"))]
    rng = random.Random(424242)
    yield "criterion-11-corpus", [random_spec(rng) for _ in range(50)]
    for case in CASES:
        for r in (3, 6):
            spec = _model_spec(f"{case}-r{r}", synthetic_case_model(case, r=r))
            yield f"synthetic:{case}:r{r}", [spec]
    for case in CASES:
        for r in RATIONAL_CHAIN_RS:
            yield f"rational:{case}:r{r}", [rational_chain_spec(case, r)]
    yield "btype", [BTYPE_SPEC]
    for kind in ("level", "weights", "dim"):
        yield f"lie-mismatch:{kind}", [_lie_mismatch(kind)]


def _golden_inputs():
    """(case id, report bytes) for every pinned input."""
    for case_id, specs in _golden_specs():
        yield case_id, b"".join(run_pipeline(parse_spec_dict(spec)).to_json() for spec in specs)


GOLDEN = {
    "spec:a4_2.json": "72651dd29bfdda31221cae4a56e752bbcf9df3d6038b285b0e89d773e6c36722",
    "spec:bordism_r3.json": "4c0c2c4d465f676ddfb96ecd0a3f243763d10c7c6c55d3bfab17d1c723e906be",
    "spec:gr24_k2.json": "805d371631a5b2360ce6e7fad58990e954d8060e6fa4af4bfa88d73c598d829a",
    "criterion-11-corpus": "ad20579ae8c4a640686245df5285c0f681dbfa035478570d58f5753bdfc0d7a1",
    "synthetic:bordism:r3": "864ca732cad1df38bd026c0ab9a8b9731fdd758cd722619081d63681a34e568d",
    "synthetic:bordism:r6": "507c8858b81262b3df4bf6b83782a5b6bf33042fe8cbbe20293f70c386e52429",
    "synthetic:isolated-sink:r3": "b54e9e004b9c294b4463847d19361b7cae46795bd8cedd1024252f781b419e61",
    "synthetic:isolated-sink:r6": "138d3549e72362e194e231f514c8a676ffff06d70c01ee6b44a840ca3c1a9d7c",
    "synthetic:isolated-source:r3": "1be8ef10235cead938de4e33e17596dddf4038f128dc310828c8d6d299432862",
    "synthetic:isolated-source:r6": "43d344e756d2ceb8d75e8fc78cf8698b5eeaf5356e1dbabfafb629c4a645cf63",
    "synthetic:isolated-both:r3": "bb778101162b3c2e9d500bb0fc21e8f61f6e3a5c9d48d1bb8de9b1d137fa4348",
    "synthetic:isolated-both:r6": "cf3da002db8bc0b14cc206a5836e8f6a1d04c0414e2385f33e55fe48e4ab9c53",
    "rational:bordism:r8": "35dc6ba9073e77db2b686754312b4e689529e7ca077165034b6dc64f34a28067",
    "rational:bordism:r16": "1adc13715483da7c1822222ed4a1f6c92e2acd5b1bdc70a455a10c8a171bbe84",
    "rational:bordism:r20": "ad9d22825d2a7f97e29be9ca72b618a9364788085cbc2dd76625f607aaa6c0b2",
    "rational:isolated-sink:r8": "2bac7f2d428fb0f276dcd14d45127e90f55a3202753c935cb928a13fbeee903c",
    "rational:isolated-sink:r16": "40f29621368b7cde74037d8596e56eb2dfe2b264eae52cb694db31be30b8bae8",
    "rational:isolated-sink:r20": "fb3f11bf2611f3dc59ae28971d446ae09ce73feddfac5587edbd2f142b4f3369",
    "rational:isolated-source:r8": "7db0a3ddb4b5064c9588d98798df8f9ef2a04e5f1a206aa79f3df5fb1af12c23",
    "rational:isolated-source:r16": "456d1a70a522164de8ddb629733c7ac0eb664954d9b0dcf96b1144dcefa06761",
    "rational:isolated-source:r20": "b84eb24938a04e3572cf6a4d8b009eacfe9ec26c6ad0633f01540560790ee5df",
    "rational:isolated-both:r8": "d2628d816fc845b28e37fee9826f0268720af62702176d7f55d3000f610d452d",
    "rational:isolated-both:r16": "31fc5b68ac33525335e35ff0374be906ae260a0b53c1fba381c1de19171d7b75",
    "rational:isolated-both:r20": "4919e6685f47122a8e1958b4d84c652028f8f11028ae4a861de12c0ffd1b2dc3",
    "btype": "93e61310aecad3d511896e7df22bda8f30a7276a5ecd098c28dfa64482ab355c",
    "lie-mismatch:level": "38435693ab37f15734307864afb9831f261aa27ae8394de3a4296af0c6b948b0",
    "lie-mismatch:weights": "1e0a7f4ff48218ecb77e2446d0a50e3e689df2e8a7df8cd89eebeee2b4eab829",
    "lie-mismatch:dim": "065fdd9af0fdbdf9db740548634edc5ae8c988ea90b40231d1b5601da51eec2b",
}


@pytest.fixture(scope="module")
def reports():
    return dict(_golden_inputs())


def test_every_pinned_input_is_checked(reports):
    assert sorted(reports) == sorted(GOLDEN)


@pytest.mark.parametrize("r", RATIONAL_CHAIN_RS)
@pytest.mark.parametrize("case", CASES)
def test_rational_chains_cover_what_they_pin(case, r):
    """Each rational chain is in its case and has a level of two components,
    steps of more than one denominator, a shuffled input order, and blocked
    flips in both directions."""
    spec = rational_chain_spec(case, r)
    report = json.loads(run_pipeline(parse_spec_dict(spec)).to_json())
    weights = [Fraction(c["weight"]) for c in spec["components"]]
    levels = sorted(set(weights))
    assert report["case"] == case and report["criticality"] == r
    assert len(weights) > len(levels)
    assert len({(b - a).denominator for a, b in zip(levels, levels[1:])}) > 1
    assert weights != sorted(weights)
    blocked = {o["direction"] for o in report["flip_graph"]["obstructions"]}
    assert blocked == {"plus", "minus"}


@pytest.mark.parametrize("case_id", sorted(GOLDEN))
def test_report_bytes_are_pinned(reports, case_id):
    assert hashlib.sha256(reports[case_id]).hexdigest() == GOLDEN[case_id]


# The stdout bytes of each spec command over every pinned input above plus
# ``with_odd_names(BORDISM_SPEC)``, all in one call, with files named
# ``<n>.json`` relative to the working directory.
COMMANDS = {
    "validate": ["validate"],
    "analyze": ["analyze"],
    "chambers": ["chambers"],
    "flips": ["flips"],
    "quotients": ["quotients"],
    "export-dot": ["export", "--format", "dot"],
    "export-svg": ["export", "--format", "svg"],
}
COMMAND_GOLDEN = {
    "validate": "a52d003657b816fd77fdaa0d3b9d3c61328cad3b6c9a741bb38e535e76623294",
    "analyze": "00649860a83919896510b15bf1f3f81ed8a6fa56a3a5a6cd6638d66aa7eb01e2",
    "chambers": "f4ca46941d8dac70a82cb3a85473e2744f2c32ddb8e9edd742e386c3d0aa6e9c",
    "flips": "db53177aad94e256b7c5327a27b212d83e7fce3af4ecaafee0e061ff955b99c3",
    "quotients": "ee1f7feb4731b8e06e2cc1474e3d74d12da366921e95de3598d79bc9d65497e0",
    "export-dot": "671c7d7901e6a9fb20312e24e577405f6908d9c52946d612a441481260c427ef",
    "export-svg": "a8a49d06f2efe470616d8a70283e9d7cdf489ac1135b6b25da3e1a38129d5e67",
}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """The specs as files ``<n>.json``, and their count."""
    specs = [spec for _, group in _golden_specs() for spec in group]
    specs.append(with_odd_names(BORDISM_SPEC))
    root = tmp_path_factory.mktemp("golden-specs")
    for n, spec in enumerate(specs):
        (root / f"{n:03d}.json").write_text(json.dumps(spec), encoding="utf-8")
    return root, len(specs)


def test_every_command_is_pinned():
    assert sorted(COMMAND_GOLDEN) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_output_is_pinned(spec_dir, monkeypatch, capsysbinary, command):
    """Exit 4 (the Lie mismatches), nothing on stderr, pinned stdout."""
    root, count = spec_dir
    monkeypatch.chdir(root)
    assert main([*COMMANDS[command], *[f"{n:03d}.json" for n in range(count)]]) == 4
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert hashlib.sha256(captured.out).hexdigest() == COMMAND_GOLDEN[command]


# The stdout bytes of the Lie commands, which read no spec file.
LIE_COMMAND_GOLDEN = {
    "catalog": "15956c7ddb9287010fbe89656eec9dcb81ccd3832473e6bcc40c610da8061001",
    "catalog --verify --max-rank 32":
        "dba906926ec2292d9640189e0fb723ff3cd08a33b8556c955b5eb823beb71488",
    "dynkin A 3": "7c858c5669f3454e74f4b823b17c23688ee592e6121b77f03c6d81a6e25774ad",
    "dynkin C 32": "38c1635ed58ec1538edd32626cf9d5e173048beeba35f0673714026e23ddbb8d",
    "dynkin E 7 --node 1 --cochar-node 7":
        "cd4d53e4e7c42fc72114809bae587878aaa206388ff2702d19597c127d0687b2",
    "dynkin C 5 --node 2 --cochar 1,-1,0,2,0":
        "fe0b842de7ab7ddbea048eeb57ca5f6cf9fa555fe99af81a1b53305200331c62",
    "dynkin G 2 --node 1 --cochar-node 2":
        "0a71e5f0df4d94ff55d325511640dd042ac865252b09a75f0c799a102e45ae9d",
    # the 1,437 components of E_8(4) at omega_4, and the 525 of C_32(16) at
    # omega_8 + omega_32, recorded before the walk pruned its steps
    "dynkin E 8 --node 4 --cochar-node 4 --max-cosets 500000":
        "4659f41bf9ac55ce06c67982c8ffa1ef7aa958b0b04ea866e8fba5fedbe747d0",
    "dynkin C 32 --node 16 --cochar " + ",".join(["0"] * 7 + ["1"] + ["0"] * 23 + ["1"])
    + " --max-cosets 100000000000000":
        "6a51d55f0714fec8fd615c2915fb8dfcbb06cc70f890b03ecebcc8aa887f8430",
}


@pytest.mark.parametrize("command", sorted(LIE_COMMAND_GOLDEN))
def test_lie_command_output_is_pinned(capsysbinary, command):
    """Exit 0, nothing on stderr, pinned stdout."""
    assert main(command.split()) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert hashlib.sha256(captured.out).hexdigest() == LIE_COMMAND_GOLDEN[command]
