"""Command line: per-file independence, ``--out`` with several specs,
arguments that fail with a message instead of a traceback, and a stdout
that its reader closes early."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cstarflips
from cstarflips import specfiles
from cstarflips.cli import EXIT_CLOSED_STDOUT, main
from cstarflips.lie import roots
from cstarflips.specfiles import SchemaError

SPECS = Path(__file__).resolve().parent.parent / "specs"
GR24, A42, BORDISM = (str(SPECS / f) for f in ("gr24_k2.json", "a4_2.json", "bordism_r3.json"))

E8_SPEC = {"name": "e8", "lie": {"type": "E", "rank": 8, "node": 1,
                                 "cocharacter": [0, 0, 0, 0, 0, 0, 0, 1]}}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestPerFileIndependence:
    def test_analyze_goes_on_after_a_bad_file(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", '{"name": "x", ')
        assert main(["analyze", GR24, bad, A42]) == 3
        captured = capsys.readouterr()
        assert [line for line in captured.out.splitlines() if line.startswith("==")] == [
            "== gr24-k2 ==",
            "== a4-2-k2 ==",
        ]
        assert f"{bad}: parse error: " in captured.err

    def test_validate_goes_on_after_the_coset_cap(self, tmp_path, capsys):
        e8 = write(tmp_path, "e8.json", json.dumps(E8_SPEC))
        assert main(["validate", GR24, e8, A42, "--max-cosets", "50"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{GR24}: ok (gr24-k2, criticality 2)",
            f"{e8}: error: E_8(1): more than 50 fixed points; raise max_cosets to enumerate",
            f"{A42}: ok (a4-2-k2, criticality 2)",
        ]

    def test_worst_exit_code_wins(self, tmp_path, capsys):
        e8 = write(tmp_path, "e8.json", json.dumps(E8_SPEC))
        bad = write(tmp_path, "bad.json", "{")
        assert main(["export", "--format", "dot", e8, bad, GR24, "--max-cosets", "50"]) == 3
        captured = capsys.readouterr()
        assert captured.out.count("digraph") == 2  # one spec, two graphs
        assert f"{e8}: error: " in captured.err and f"{bad}: parse error: " in captured.err

    def test_invalid_model_lists_violations(self, tmp_path, capsys):
        spec = json.loads(Path(BORDISM).read_text())
        spec["components"][1]["dim"] = 7
        bad = write(tmp_path, "bad.json", json.dumps(spec))
        assert main(["analyze", bad, GR24]) == 2
        captured = capsys.readouterr()
        assert "== gr24-k2 ==" in captured.out
        assert captured.err.startswith(f"{bad}: invalid:\n  DimensionMismatch: ")


class TestOut:
    def test_every_report_is_kept(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        specs = [GR24, A42, BORDISM]
        assert main(["analyze", *specs, "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        singles = []
        for spec in specs:
            assert main(["analyze", spec, "--format", "json"]) == 0
            singles.append(capsys.readouterr().out)
        assert out.read_text() == "".join(singles)
        assert [json.loads(line)["name"] for line in out.read_text().splitlines()] == [
            "gr24-k2", "a4-2-k2", "synthetic-bordism-r3",
        ]

    def test_path_that_cannot_be_opened(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["analyze", A42, "--format", "json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"

    def test_single_spec_bytes_unchanged(self, tmp_path, capsys):
        out = tmp_path / "one.svg"
        assert main(["export", BORDISM, "--format", "svg", "--out", str(out)]) == 0
        assert main(["export", BORDISM, "--format", "svg"]) == 0
        assert out.read_text() == capsys.readouterr().out


class TestArguments:
    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    @pytest.mark.parametrize("command", [["validate", GR24], ["dynkin", "A", "3"], ["catalog"]])
    def test_max_cosets_must_be_positive(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--max-cosets", value])
        assert exc.value.code == 2
        assert f"expected a positive integer, got '{value}'" in capsys.readouterr().err

    def test_dynkin_cochar_not_integers(self, capsys):
        assert main(["dynkin", "A", "3", "--node", "1", "--cochar", "1,x"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cochar takes comma separated integers, got '1,x'\n"

    def test_dynkin_node_needs_a_cocharacter(self, capsys):
        assert main(["dynkin", "A", "3", "--node", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "A_3: 6 positive roots, Lie algebra dimension 15\n"
        assert captured.err == "error: --node needs --cochar or --cochar-node\n"

    @pytest.mark.parametrize("argv", [["--node", "0", "--cochar-node", "1"], ["--cochar-node", "0"]],
                             ids=["node", "cochar-node"])
    def test_dynkin_node_zero(self, argv, capsys):
        """Node 0 is outside 1..rank like any other, not taken as no node."""
        assert main(["dynkin", "A", "3", *argv]) == 2
        assert capsys.readouterr().err == "error: node 0 outside 1..3\n"

    def test_catalog_max_rank_above_the_cap(self, capsys):
        """Refused before any row is verified, not at the first rank past
        the cap."""
        assert main(["catalog", "--verify", "--max-rank", str(roots.MAX_RANK + 8)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-rank {roots.MAX_RANK + 8}: rank above {roots.MAX_RANK}\n"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_catalog_max_rank_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "--verify", "--max-rank", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected a positive integer, got '{value}'" in captured.err


# Runs cli.main on argv in a fresh interpreter, then prints the exit code and
# the cstarflips.lie modules the call left loaded.
_LOADED_PROBE = """
import contextlib, io, sys
from cstarflips.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("cstarflips.lie")))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(cstarflips.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _loaded_by(*argv) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *argv], env=_child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout.split()


class TestLazyLie:
    """A CLI call loads the Lie engine only for Lie input.  Each call runs in
    a fresh interpreter, since this one has imported the engine already."""

    def test_plain_spec_loads_no_lie_module(self):
        assert _loaded_by("analyze", BORDISM) == ["0"]

    def test_lie_spec_loads_the_engine_but_not_the_catalog(self):
        assert _loaded_by("analyze", A42) == [
            "0", "cstarflips.lie", "cstarflips.lie.homogeneous", "cstarflips.lie.roots",
        ]

    def test_catalog_still_runs(self):
        code, *loaded = _loaded_by("catalog")
        assert code == "0" and "cstarflips.lie.catalog" in loaded


def test_lie_import_loads_no_pipeline_module():
    """The package resolves its exports on first use, so importing a Lie
    module loads neither the chamber and flip code nor the report."""
    probe = "import sys, cstarflips.lie.catalog; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    loaded = proc.stdout.split()
    assert "cstarflips.lie.catalog" in loaded
    for name in ("chambers", "modifications", "report", "specfiles"):
        assert f"cstarflips.{name}" not in loaded


class TestClosedStdout:
    def test_reader_closes_the_pipe_after_the_first_line(self):
        """1,000 reports (about 400 kB) are more than a pipe holds, so the
        run is still writing when the reader closes it; it stops with the
        documented code and nothing on stderr."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "cstarflips", "analyze", *[BORDISM] * 1000],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_CLOSED_STDOUT
        assert first == b"== synthetic-bordism-r3 ==\n"
        assert err == b""


class TestRankCap:
    def test_refused_before_any_root_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the root table was built")

        monkeypatch.setattr(roots, "_root_table", refuse)
        with pytest.raises(roots.IllegalTypeError) as exc:
            roots.build_root_system("A", 10**9)
        assert str(exc.value) == f"illegal Dynkin datum A_{10**9}: rank above {roots.MAX_RANK}"

    def test_dynkin_exit_code(self, capsys):
        assert main(["dynkin", "A", str(10**9)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: illegal Dynkin datum A_{10**9}: rank above {roots.MAX_RANK}\n"

    def test_lie_spec_goes_on_to_the_next_file(self, tmp_path, capsys):
        rank = roots.MAX_RANK + 1
        spec = {"name": "a33", "lie": {"type": "A", "rank": rank, "node": 1,
                                       "cocharacter": [1] + [0] * (rank - 1)}}
        path = write(tmp_path, "a33.json", json.dumps(spec))
        assert main(["validate", path, GR24]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: error: illegal Dynkin datum A_{rank}: rank above {roots.MAX_RANK}",
            f"{GR24}: ok (gr24-k2, criticality 2)",
        ]


class TestRationalBound:
    def test_huge_exponent_rejected_before_it_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the value was built")

        monkeypatch.setattr(specfiles, "Fraction", refuse)
        with pytest.raises(SchemaError) as exc:
            specfiles._parse_rational("1e2000000", ".components[1].weight")
        assert str(exc.value) == ".components[1].weight: more than 1000 digits"

    @pytest.mark.parametrize("value", ["1E-2000000", "1e996", "1/" + "7" * 999, 10**1000],
                             ids=["tiny", "exponent", "long", "integer"])
    def test_over_the_bound(self, value):
        with pytest.raises(SchemaError):
            specfiles._parse_rational(value, ".w")

    @pytest.mark.parametrize("value", ["1e995", "1/" + "7" * 998, 10**1000 - 1, "2.5e-3"],
                             ids=["exponent", "long", "integer", "decimal"])
    def test_within_the_bound(self, value):
        specfiles._parse_rational(value, ".w")

    def test_cli_exit_code(self, tmp_path, capsys):
        spec = json.loads(Path(BORDISM).read_text())
        spec["components"][1]["weight"] = "1e2000000"
        path = write(tmp_path, "huge.json", json.dumps(spec))
        assert main(["validate", path, GR24]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{path}: parse error: .components[1].weight: more than 1000 digits"
        assert lines[1].endswith("ok (gr24-k2, criticality 2)")

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        spec = json.loads(Path(BORDISM).read_text())
        text = json.dumps(spec).replace('"weight": 1,', '"weight": ' + "1" * 5000 + ",", 1)
        path = write(tmp_path, "long.json", text)
        assert main(["analyze", path]) == 3
        assert "parse error" in capsys.readouterr().err
