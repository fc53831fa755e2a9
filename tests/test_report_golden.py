"""Report bytes pinned by digest.

Every report below is serialized with ``ReportBundle.to_json`` and compared
against a sha256 recorded from the program before the isolated-extremes,
flat-model and level-signature rules were each given a single home.  Any
change to the canonical JSON on these inputs, however small, fails here:
the shipped specs, the criterion-11 random corpus, the four extremal cases
at two criticalities, an input whose extremes are already divisors, and Lie
specs whose listed components disagree with the derived ones (which pins
the wording of the verification failures).
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import synthetic_case_model
from test_report_export import GR24_SPEC, random_spec

from cstarflips.report import run_pipeline
from cstarflips.specfiles import parse_spec, parse_spec_dict

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


def _report(spec) -> bytes:
    return run_pipeline(spec).to_json()


def _golden_inputs():
    """(case id, report bytes) for every pinned input."""
    for path in sorted(SPECS.glob("*.json")):
        yield f"spec:{path.name}", _report(parse_spec(path))
    rng = random.Random(424242)
    corpus = b"".join(_report(parse_spec_dict(random_spec(rng))) for _ in range(50))
    yield "criterion-11-corpus", corpus
    for case in CASES:
        for r in (3, 6):
            spec = _model_spec(f"{case}-r{r}", synthetic_case_model(case, r=r))
            yield f"synthetic:{case}:r{r}", _report(parse_spec_dict(spec))
    yield "btype", _report(parse_spec_dict(BTYPE_SPEC))
    for kind in ("level", "weights", "dim"):
        yield f"lie-mismatch:{kind}", _report(parse_spec_dict(_lie_mismatch(kind)))


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


@pytest.mark.parametrize("case_id", sorted(GOLDEN))
def test_report_bytes_are_pinned(reports, case_id):
    assert hashlib.sha256(reports[case_id]).hexdigest() == GOLDEN[case_id]
