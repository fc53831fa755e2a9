"""Command line: per-file independence, ``--out`` with several specs,
arguments that fail with a message instead of a traceback, a stdout that
its reader closes early, names that UTF-8 cannot encode, the modules a cold
call imports, and generated hostile spec files."""

import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import cstarflips
from cstarflips import specfiles
from cstarflips.cli import EXIT_CLOSED_STDOUT, build_parser, main
from cstarflips.lie import roots
from cstarflips.specfiles import SchemaError
from test_report_export import BORDISM_SPEC, FORMAT_NAME, with_odd_names
from test_report_golden import rational_chain_spec

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
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            f"{GR24}: ok (gr24-k2, criticality 2)",
            f"{A42}: ok (a4-2-k2, criticality 2)",
        ]
        assert captured.err.splitlines() == [
            f"{e8}: error: E_8(1): more than 50 fixed points; raise max_cosets to enumerate",
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

    @pytest.mark.parametrize("command", [["validate"], ["analyze"], ["export", "--format", "svg"]])
    def test_no_movable_region_is_named_and_skipped(self, tmp_path, capsys, command):
        """P^1 has a point for sink and source and criticality one: no movable
        region.  That file is refused with its path, and GR24 is still written."""
        p1 = write(tmp_path, "p1.json", json.dumps({"name": "P1", "dim_X": 1, "components": [
            {"name": "P", "weight": 0, "dim": 0, "nu_minus": 0, "nu_plus": 1},
            {"name": "Q", "weight": 1, "dim": 0, "nu_minus": 1, "nu_plus": 0},
        ]}))
        assert main(command + [p1, GR24]) == 2
        captured = capsys.readouterr()
        message = (f"{p1}: error: criticality-one action with isolated sink and source "
                   "has no movable region")
        assert captured.err.splitlines() == [message]
        if command == ["validate"]:
            assert captured.out.splitlines() == [f"{GR24}: ok (gr24-k2, criticality 2)"]
        else:
            assert captured.out.startswith("== gr24-k2 ==\n" if command == ["analyze"] else "<svg ")
            assert "P1" not in captured.out

    @pytest.mark.parametrize("dim_x", [0, -3])
    def test_non_positive_dim_x_is_named_once(self, tmp_path, capsys, dim_x):
        spec = json.loads(Path(BORDISM).read_text())
        spec["dim_X"] = dim_x
        bad = write(tmp_path, "bad.json", json.dumps(spec))
        assert main(["validate", bad, GR24]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{bad}: invalid:",
            f"  NonPositiveDim: dim_X = {dim_x} is not positive",
        ]
        assert captured.out.splitlines() == [f"{GR24}: ok (gr24-k2, criticality 2)"]

    @pytest.mark.parametrize("case", ["truncated", "missing", "directory", "bad-utf-8"])
    def test_parse_error_names_the_file_once(self, tmp_path, capsys, case):
        path = tmp_path / f"{case}.json"
        if case == "truncated":
            path.write_text('{"name": "x", ', encoding="utf-8")
        elif case == "directory":
            path.mkdir()
        elif case == "bad-utf-8":
            path.write_bytes(b'{"name": "\xff"}')
        assert main(["analyze", str(path), GR24]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: parse error: ") and err.count("\n") == 1
        assert err.count(str(path)) == 1

    def test_analyze_goes_on_after_deep_nesting(self, tmp_path):
        """100,000 nested arrays pass the decoder's recursion limit: in a cold
        process, one parse-error line and exit 3, and the next file's report
        is still written."""
        deep = write(tmp_path, "deep.json", "[" * 100_000)
        proc = subprocess.run(
            [sys.executable, "-m", "cstarflips", "analyze", "--format", "json", deep, BORDISM],
            env=_child_env(), capture_output=True, timeout=120,
        )
        assert proc.returncode == 3
        err = proc.stderr.decode()
        assert err.startswith(f"{deep}: parse error: ") and err.count("\n") == 1
        assert err.count(deep) == 1
        assert "Traceback" not in err
        assert json.loads(proc.stdout)["name"] == "synthetic-bordism-r3"


NOT_EQUALIZED = "  NotEqualized: action is not equalized; the construction needs it"


class TestNotEqualized:
    """A Lie action that is not equalized is refused with exit 2 and one
    violation line that names the first component with a tangent weight
    outside {-1, 0, 1}, and that weight; a type with no short grading says
    so.  A declared refusal has no witness to name."""

    @pytest.mark.parametrize("lie,witness", [
        ({"type": "E", "rank": 8, "node": 8, "cocharacter": [0] * 7 + [1]},
         ": component Y0 has tangent weight 2; E_8 has no short grading"),
        ({"type": "A", "rank": 3, "node": 1, "cocharacter": [2, 0, 0]},
         ": component Y0 has tangent weight 2"),
        ({"type": "G", "rank": 2, "node": 1, "cocharacter": [0, 1]},
         ": component Y0 has tangent weight 2; G_2 has no short grading"),
        (None, ""),
    ])
    def test_witness(self, tmp_path, capsys, lie, witness):
        spec = dict(json.loads(Path(BORDISM).read_text()), declared_equalized=False)
        if lie is not None:
            spec = {"name": "x", "lie": lie}
        path = write(tmp_path, "spec.json", json.dumps(spec))
        assert main(["analyze", path, GR24]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"{path}: invalid:", NOT_EQUALIZED + witness]
        assert "== gr24-k2 ==" in captured.out


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

    def test_text_has_the_bytes_of_stdout(self, tmp_path, capsysbinary):
        """Text ``analyze`` writes every report of the run to ``--out``, a
        name that UTF-8 cannot encode escaped as on stdout."""
        odd = write(tmp_path, "odd.json", json.dumps(with_odd_names(BORDISM_SPEC)))
        specs = [GR24, A42, BORDISM, odd]
        out = tmp_path / "reports.txt"
        assert main(["analyze", *specs, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert main(["analyze", *specs]) == 0
        stdout = capsysbinary.readouterr().out
        assert out.read_bytes() == stdout
        assert stdout.count(b"== ") == len(specs) and b"\\ud800" in stdout

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
        assert captured.err == (
            "parse error: --cochar: expected comma separated integers, got '1,x'\n"
        )

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


# Help, usage and error calls, and two spellings of --format.
PARSER_CASES = [
    [], ["bogus"], ["--help"], ["-h", "analyze"],
    *[[command, "--help"] for command in (
        "validate", "analyze", "chambers", "flips", "quotients", "export", "dynkin", "catalog")],
    ["analyze"], ["analyze", "--format", "xml", A42], ["analyze", "--max-cosets", "0", A42],
    ["dynkin", "A", "x"], ["export", A42], ["analyze", "--form", "json", A42],
    ["analyze", "--format=json", A42], ["analyze", A42, "--bogus"],
]


def _outcome(call, argv, capsysbinary) -> tuple:
    """The exit code, stdout and stderr of ``call(argv)``."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=lambda argv: " ".join(Path(a).name for a in argv) or "none")
def test_single_command_parser_parses_as_the_full_one(argv, monkeypatch, capsysbinary):
    """``main`` builds only the parser of the command that ``argv`` names:
    it prints, writes and exits as the parser of every command does.  The
    terminal width is fixed, as argparse wraps help text to it."""
    monkeypatch.setenv("COLUMNS", "80")

    def full(argv):
        args = build_parser().parse_args(argv)
        return args.func(args)

    assert _outcome(main, argv, capsysbinary) == _outcome(full, argv, capsysbinary)


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


def _imported(*argv) -> set[str]:
    """The modules that a cold ``python -m cstarflips`` call imports, with no
    bytecode written or read: every one of them is compiled."""
    env = {**_child_env(), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cstarflips", *argv],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["analyze", BORDISM],
    ["analyze", A42],
    ["export", "--format", "svg", BORDISM],
    ["dynkin", "E", "6", "--node", "2", "--cochar-node", "2"],
    ["catalog"],
])
def test_cold_start_loads_no_dataclasses_or_inspect(argv):
    """The records are named tuples, so a CLI call does not import
    ``dataclasses`` and, through it, ``inspect``."""
    loaded = _imported(*argv)
    assert "cstarflips.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, unused", [
    (["analyze", "--format", "json", BORDISM], ("export", "lie", "views", "locate")),
    (["analyze", BORDISM], ("export", "views", "locate")),
    (["analyze", A42], ("export", "views", "locate")),
    (["export", "--format", "svg", BORDISM], ("views", "locate")),
    (["export", "--format", "dot", A42], ("views", "locate")),
], ids=["analyze-json", "analyze-text", "analyze-text-lie", "export-svg", "export-dot-lie"])
def test_cold_call_compiles_only_what_its_command_runs(argv, unused):
    """``analyze`` and ``export``, the commands of the CLI benchmark, import
    neither the other commands' views nor the slice geometry, JSON
    ``analyze`` not the exporters, and a spec without a ``lie`` block not the
    Lie engine."""
    loaded = _imported(*argv)
    assert "cstarflips.cli" in loaded
    assert ("cstarflips.export" in loaded) == (argv[0] == "export")
    assert not {m for m in loaded if m.startswith("cstarflips.") and m.split(".")[1] in unused}


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


FULL = "/dev/full"
NO_SPACE = os.strerror(errno.ENOSPC)  # what every write to the full device fails with


@pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL}")
class TestWriteFailure:
    """An output that fails to take the bytes ends the run with exit code 2
    and one line on stderr that names it, not a traceback."""

    @pytest.mark.parametrize("command", [
        ["analyze"], ["analyze", "--format", "json"],
        ["export", "--format", "svg"], ["export", "--format", "dot"],
    ], ids=" ".join)
    def test_out_path(self, command, capsys):
        assert main([*command, BORDISM, "--out", FULL]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {FULL}: {NO_SPACE}\n"

    @pytest.mark.parametrize("command", [["dynkin", "A", "3"], ["chambers", BORDISM]],
                             ids=["dynkin", "chambers"])
    def test_stdout(self, command):
        """Run in a child whose stdout is the full device, so that the flush
        at interpreter shutdown is checked too."""
        with open(FULL, "w") as full:
            proc = subprocess.run([sys.executable, "-m", "cstarflips", *command],
                                  env=_child_env(), stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {NO_SPACE}\n")


SPEC_COMMANDS = (
    ["validate"], ["analyze"], ["analyze", "--format", "json"], ["chambers"], ["flips"],
    ["quotients"], ["export", "--format", "json"], ["export", "--format", "dot"],
    ["export", "--format", "svg"],
)


@pytest.mark.parametrize("command", SPEC_COMMANDS, ids=" ".join)
def test_odd_names_in_every_spec_command(tmp_path, capsys, command):
    """Spec and component names ending in ``ODD_NAME``, a lone surrogate
    among its characters: the text and SVG output write what UTF-8 cannot
    encode as a backslash escape, the JSON output as a JSON escape, and the
    DOT output holds no name."""
    spec = with_odd_names(BORDISM_SPEC)
    path = write(tmp_path, "odd.json", json.dumps(spec))
    assert main([*command, path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ("\\ud800" in captured.out) == (command[-1] != "dot")


# The stdout of a command on a spec whose names all end in FORMAT_NAME,
# recorded when the report and the flips view still filled % templates: the
# bordism of BORDISM_SPEC, and an r = 8 chain with blocked flips.
FORMAT_NAME_GOLDEN = {
    ("bordism", "analyze --format json"):
        "a9083aa44649827e6aeaeeb34cb8d6ae00e7408d85518c922811448184416e44",
    ("bordism", "flips"): "a69213caa3c14827687aa7e9bbbde33336118736130847ce3369be63455aed75",
    ("chain", "analyze --format json"):
        "886eed75c28143f310c4f5c4a86a7baaff3be3b20e2d3896609df7d8220343f1",
    ("chain", "flips"): "f8731971de4fb38fe73bb96061a8c296ec1032ea821b9c322102ea55eed29bb8",
}


@pytest.mark.parametrize("spec,command", sorted(FORMAT_NAME_GOLDEN), ids=" ".join)
def test_format_characters_in_names(tmp_path, capsysbinary, spec, command):
    """``%s``, ``%%``, ``%d`` and braces in names come out as they went in."""
    base = BORDISM_SPEC if spec == "bordism" else rational_chain_spec("bordism", 8)
    path = write(tmp_path, "format.json", json.dumps(with_odd_names(base, FORMAT_NAME)))
    assert main([*command.split(), path]) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert FORMAT_NAME.encode() in captured.out
    assert hashlib.sha256(captured.out).hexdigest() == FORMAT_NAME_GOLDEN[(spec, command)]


class TestUnknownFields:
    @pytest.mark.parametrize("where,path", [
        (("components", 0, "colour"), ".components[0].colour"),
        (("lie", "extra"), ".lie.extra"),
    ], ids=["component", "lie"])
    def test_nested_unknown_field(self, tmp_path, capsys, where, path):
        spec = json.loads(Path(GR24).read_text())
        block = spec
        for step in where[:-1]:
            block = block[step]
        block[where[-1]] = "red"
        bad = write(tmp_path, "colour.json", json.dumps(spec))
        assert main(["validate", bad, A42]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"{bad}: parse error: {path}: unknown field"]
        assert captured.out.splitlines() == [f"{A42}: ok (a4-2-k2, criticality 2)"]


class TestBoundedEchoes:
    """A Dynkin type, a rank or an argument is echoed cut to 40 characters."""

    def test_dynkin_type(self, capsys):
        assert main(["dynkin", "Q" * 100_000, "3"]) == 2
        assert capsys.readouterr().err == f"error: illegal Dynkin datum {'Q' * 40}..._3\n"

    @pytest.mark.parametrize("argv,message", [
        (["9" * 4_000], f"illegal Dynkin datum A_{'9' * 40}...: rank above {roots.MAX_RANK}"),
        (["3", "--node", "9" * 4_000, "--cochar-node", "1"], f"node {'9' * 40}... outside 1..3"),
        (["3", "--cochar-node", "9" * 4_000], f"node {'9' * 40}... outside 1..3"),
    ], ids=["rank", "node", "cochar-node"])
    def test_dynkin_numbers(self, capsys, argv, message):
        assert main(["dynkin", "A", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_lie_type(self, tmp_path, capsys):
        spec = {"name": "q", "lie": {"type": "Q\n" * 50_000, "rank": 3, "node": 1,
                                     "cocharacter": [1, 0, 0]}}
        path = write(tmp_path, "q.json", json.dumps(spec))
        assert main(["analyze", path]) == 2
        cut = "'" + "Q\\n" * 13 + "..."  # a Python literal, since it breaks lines
        assert capsys.readouterr().err == f"{path}: error: illegal Dynkin datum {cut}_3\n"

    def test_max_cosets(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", GR24, "--max-cosets", "x" * 100_000])
        assert f"expected a positive integer, got '{'x' * 39}...\n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,name,echo", [
        (["9" * 5_000], "rank", "9" * 39),
        (["3", "--node", "x" + "y" * 3_000, "--cochar-node", "1"], "--node", "x" + "y" * 38),
        (["3", "--cochar-node", "9" * 5_000], "--cochar-node", "9" * 39),
    ], ids=["rank", "node", "cochar-node"])
    def test_dynkin_integer_arguments(self, capsys, argv, name, echo):
        """An argument that ``int`` refuses, past its digit limit or not a
        number, is echoed cut like every other; the usage lines stay short."""
        with pytest.raises(SystemExit) as exc:
            main(["dynkin", "A", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {name}: expected an integer, got '{echo}...\n")
        assert max(map(len, err.splitlines())) < 200

    @pytest.mark.parametrize("argv,rank", [(["+3"], 3), (["1_0"], 10), ([" 4 "], 4)],
                             ids=["sign", "underscore", "spaces"])
    def test_dynkin_rank_as_int_reads_it(self, capsys, argv, rank):
        assert main(["dynkin", "A", *argv]) == 0
        assert capsys.readouterr().out.startswith(f"A_{rank}: ")

    def test_repeated_component_name(self, tmp_path, capsys):
        spec = json.loads(Path(BORDISM).read_text())
        for c in spec["components"][:2]:
            c["name"] = "n" * 100_000
        path = write(tmp_path, "repeated.json", json.dumps(spec))
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"{path}: invalid:", f"  DuplicateName: component name '{'n' * 39}... repeated"]


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
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{path}: error: illegal Dynkin datum A_{rank}: rank above {roots.MAX_RANK}",
        ]
        assert captured.out.splitlines() == [f"{GR24}: ok (gr24-k2, criticality 2)"]


# 4,300 digits, the most that Python converts to a string by default; a sum
# of such numbers has more
HUGE = int("9" * 4300)


class TestIntegerBound:
    """Every integer field has at most 1,000 digits, like a weight, so that
    sums and pairings of the fields can still be written out."""

    @pytest.mark.parametrize("field", ["dim_X", "dim", "nu_minus", "nu_plus"])
    def test_component_fields(self, field):
        spec = json.loads(Path(BORDISM).read_text())
        where = spec if field == "dim_X" else spec["components"][0]
        path = ".dim_X" if field == "dim_X" else f".components[0].{field}"
        where[field] = 10**1000
        with pytest.raises(SchemaError) as exc:
            specfiles.parse_spec_dict(spec)
        assert str(exc.value) == f"{path}: more than 1000 digits"
        where[field] = -(10**1000)
        with pytest.raises(SchemaError):
            specfiles.parse_spec_dict(spec)

    @pytest.mark.parametrize("field", ["rank", "node", "cocharacter"])
    def test_lie_fields(self, field):
        lie = {"type": "A", "rank": 3, "node": 2, "cocharacter": [0, 1, 0]}
        if field == "cocharacter":
            lie["cocharacter"][2] = 10**1000
        else:
            lie[field] = 10**1000
        path = ".lie.cocharacter[2]" if field == "cocharacter" else f".lie.{field}"
        with pytest.raises(SchemaError) as exc:
            specfiles.parse_spec_dict({"name": "a3", "lie": lie})
        assert str(exc.value) == f"{path}: more than 1000 digits"

    def test_within_the_bound(self):
        lie = {"type": "A", "rank": 3, "node": 2, "cocharacter": [10**1000 - 1, 0, 0]}
        spec = specfiles.parse_spec_dict({"name": "a3", "lie": lie})
        assert spec.lie.cocharacter[0] == 10**1000 - 1

    def test_validate_huge_dimensions(self, tmp_path, capsys):
        spec = json.loads(Path(BORDISM).read_text())
        spec["components"][0].update(dim=HUGE, nu_minus=HUGE, nu_plus=HUGE)
        path = write(tmp_path, "huge.json", json.dumps(spec))
        assert main(["validate", path, GR24]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{path}: parse error: .components[0].dim: more than 1000 digits",
        ]
        assert captured.out.splitlines() == [f"{GR24}: ok (gr24-k2, criticality 2)"]

    def test_analyze_huge_cocharacter(self, tmp_path, capsys):
        spec = json.loads(Path(GR24).read_text())
        spec["lie"]["cocharacter"] = [HUGE, HUGE, 0]
        path = write(tmp_path, "huge.json", json.dumps(spec))
        assert main(["analyze", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: parse error: .lie.cocharacter[0]: more than 1000 digits\n"

    def test_dynkin_huge_cocharacter(self, capsys):
        assert main(["dynkin", "A", "3", "--node", "2", "--cochar", f"{HUGE},{HUGE},0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: --cochar[0]: more than 1000 digits\n"

    @pytest.mark.parametrize("digits", [4301, 5000, 100_000])
    def test_dynkin_cochar_past_the_int_limit(self, digits, capsys):
        """Past Python's 4,300-digit limit for int(), an entry still gets the
        digit bound's message, not the one for text that is no integer."""
        cochar = f"0,{'9' * digits},0"
        assert main(["dynkin", "A", "3", "--node", "2", "--cochar", cochar]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: --cochar[1]: more than 1000 digits\n"

    def test_dynkin_cochar_leading_zeros(self, capsys):
        """Leading zeros count toward neither bound, as long as int() reads the entry."""
        assert main(["dynkin", "A", "3", "--cochar", f"0,{'0' * 4000}1,0"]) == 0
        assert "grading by [0, 1, 0]: " in capsys.readouterr().out

    def test_dynkin_cochar_is_not_echoed_whole(self, capsys):
        assert main(["dynkin", "A", "3", "--node", "2", "--cochar", "1," + "x" * 100_000]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "parse error: --cochar: expected comma separated integers, got "
        )
        assert captured.err.count("\n") == 1 and len(captured.err) < 120


class TestSizeCap:
    """A spec file is read up to ``MAX_SPEC_BYTES``; a longer one, or an
    endless one, is one parse error, and the run goes on with the next file."""

    def _padded(self, tmp_path, size):
        text = json.dumps(json.loads(Path(BORDISM).read_text()))
        return write(tmp_path, f"{size}.json", text + " " * (size - len(text)))

    def test_a_file_at_the_cap_is_read(self, tmp_path, capsys):
        path = self._padded(tmp_path, specfiles.MAX_SPEC_BYTES)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == f"{path}: ok (synthetic-bordism-r3, criticality 3)\n"

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_one_byte_more_is_refused(self, tmp_path, capsys, command):
        path = self._padded(tmp_path, specfiles.MAX_SPEC_BYTES + 1)
        assert main([command, path, GR24]) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[0] == f"{path}: parse error: more than {specfiles.MAX_SPEC_BYTES} bytes"
        assert (captured.out + captured.err).count(f"{path}:") == 1
        assert "gr24-k2" in captured.out

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file(self, capsys):
        assert main(["analyze", "/dev/zero", GR24]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"/dev/zero: parse error: more than {specfiles.MAX_SPEC_BYTES} bytes\n"
        )
        assert captured.out.startswith("== gr24-k2 ==")

    def test_a_chain_of_criticality_1280_fits(self, tmp_path):
        r = 1280
        comps = [{"name": "S", "weight": 0, "dim": 1, "nu_minus": 0, "nu_plus": 3}]
        comps += [{"name": f"P{k}", "weight": k, "dim": 0, "nu_minus": 2, "nu_plus": 2}
                  for k in range(1, r)]
        comps.append({"name": "T", "weight": r, "dim": 1, "nu_minus": 3, "nu_plus": 0})
        spec = {"name": f"bordism-r{r}", "dim_X": 4, "components": comps}
        path = write(tmp_path, "r1280.json", json.dumps(spec, indent=1))
        assert os.path.getsize(path) <= specfiles.MAX_SPEC_BYTES
        assert len(specfiles.parse_spec(path).components) == r + 1


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
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{path}: parse error: .components[1].weight: more than 1000 digits",
        ]
        assert captured.out.splitlines() == [f"{GR24}: ok (gr24-k2, criticality 2)"]

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        spec = json.loads(Path(BORDISM).read_text())
        text = json.dumps(spec).replace('"weight": 1,', '"weight": ' + "1" * 5000 + ",", 1)
        path = write(tmp_path, "long.json", text)
        assert main(["analyze", path]) == 3
        assert "parse error" in capsys.readouterr().err


# A field of a spec, as keys from the top: every field of the schema.
SPEC_FIELDS = (
    ("name",), ("dim_X",), ("components",), ("declared_equalized",), ("lie",),
    *[("components", 1, key) for key in ("name", "weight", "dim", "nu_minus", "nu_plus")],
    ("components", 1), *[("lie", key) for key in ("type", "rank", "node", "cocharacter")],
    ("lie", "cocharacter", 0),
)
# text that may break a line, as str.splitlines() reads it
TEXT = st.text(st.characters() | st.sampled_from("\n\r\x85\u2028"), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6,
)
_PLACEHOLDER = "@@value@@"


def _with_field(spec: dict, field: tuple, value) -> dict:
    """``spec`` with ``field`` set to ``value``, or unchanged where the
    field's parent is missing."""
    spec = json.loads(json.dumps(spec))
    where = spec
    for key in field[:-1]:
        try:  # a key of an object or an index into a list
            where = where[key]
        except (KeyError, IndexError, TypeError):
            return spec
    if isinstance(where, list) and field[-1] >= len(where):
        return spec
    where[field[-1]] = value
    return spec


def _raw_value(spec: dict, field: tuple, text: str) -> bytes:
    """The spec's JSON text with ``field`` written as the raw ``text``."""
    return json.dumps(_with_field(spec, field, _PLACEHOLDER)).replace(
        json.dumps(_PLACEHOLDER), text).encode("utf-8", "surrogatepass")


def _repeated_name(spec: dict, name: str) -> bytes:
    """``spec`` with its first two components named ``name``."""
    for k in (0, 1):
        spec = _with_field(spec, ("components", k, "name"), name)
    return json.dumps(spec).encode()


@st.composite
def hostile_specs(draw) -> bytes:
    """The bytes of a spec file that is wrong in one way, or of none at all."""
    base = json.loads(Path(draw(st.sampled_from([BORDISM, GR24, A42]))).read_text())
    field = draw(st.sampled_from(SPEC_FIELDS))
    kind = draw(st.sampled_from(
        ["wrong type", "line break", "deep nesting", "huge integer", "huge string",
         "repeated name", "unknown field", "invalid utf-8", "empty"]))
    if kind == "wrong type":
        return json.dumps(_with_field(base, field, draw(JSON_VALUES))).encode()
    if kind == "line break":
        field = draw(st.sampled_from([("name",), ("components", 1, "name"), ("lie", "type")]))
        text = draw(TEXT) + draw(st.sampled_from("\n\r\x85\u2028")) + draw(TEXT)
        return json.dumps(_with_field(base, field, text)).encode()
    if kind == "deep nesting":
        depth = draw(st.integers(1, 2_000) | st.just(100_000))
        brackets = draw(st.sampled_from(["[]", "{}"]))
        inner = '"a": ' if brackets == "{}" else ""
        return _raw_value(base, field, (brackets[0] + inner) * depth + "1" + brackets[1] * depth)
    if kind == "huge integer":
        digits = draw(st.integers(990, 1_010) | st.sampled_from([4_301, 20_000]))
        return _raw_value(base, field, draw(st.sampled_from(["", "-"])) + "7" * digits)
    if kind == "huge string":
        text = "x" * draw(st.integers(1 << 16, 1 << 19))
        return json.dumps(_with_field(base, field, text)).encode()
    if kind == "repeated name":
        return _repeated_name(base, "x" * draw(st.integers(1 << 16, 1 << 17)))
    if kind == "unknown field":
        where = draw(st.sampled_from([(), ("components", 0), ("lie",)]))
        key = draw(TEXT.filter(bool))
        return json.dumps(_with_field(base, where + (key,), draw(JSON_VALUES))).encode()
    if kind == "invalid utf-8":
        text = _raw_value(base, field, '"@"')
        cut = draw(st.integers(0, len(text)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]))
        return text[:cut] + bad + text[cut:]
    return draw(st.sampled_from([b"", b" ", b"\n\t"]))


class TestHostileSpecs:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(data=hostile_specs(), command=st.sampled_from([["validate"], ["analyze"]]))
    @example(data=b'{"name": "x", "dim_X": 1, "components": [{"name": "P", "weight": 0, "dim": 0, '
                  b'"nu_minus": 0, "nu_plus": 1}], "\\r": 0}', command=["validate"])
    @example(data=b'{"name": "x", "lie": {"type": "A\\nB", "rank": 1, "node": 1, '
                  b'"cocharacter": [1]}}', command=["analyze"])
    @example(data=b'{"name": "x", "dim_X": 1, "components": [{"name": "P", "weight": 0, "dim": 0, '
                  b'"nu_minus": 0, "nu_plus": 1, "colour": 0}]}', command=["validate"])
    @example(data=b'{"name": "x", "lie": {"type": "A", "rank": 1, "node": 1, '
                  b'"cocharacter": [1], "": 0}}', command=["analyze"])
    @example(data=b'{"name": "x", "lie": {"type": "A", "rank": ' + b"7" * 999
                  + b', "node": 1, "cocharacter": [1]}}', command=["validate"])
    @example(data=_repeated_name(json.loads(Path(BORDISM).read_text()), "n" * 100_000),
             command=["validate"])
    def test_each_ends_with_a_documented_code(self, data, command, tmp_path_factory):
        """A hostile file ends with exit 0, 2, 3 or 4 and raises nothing; a
        failed one gets one message on stderr that names it once, in at most
        a few hundred bytes, and the run goes on with the next file.  Each
        violation line below it is bounded too: numbers have at most
        ``MAX_RATIONAL_DIGITS`` digits and every other echo 40 characters.  A
        file that parses has no unknown field at any level."""
        path = tmp_path_factory.mktemp("hostile") / "spec.json"
        path.write_bytes(data)
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, str(path), GR24, "--max-cosets", "200"])
        out.seek(0)
        assert code in (0, 2, 3, 4)
        messages = [line for line in err.getvalue().splitlines() if not line.startswith("  ")]
        if code in (2, 3):
            assert len(messages) == 1 and messages[0].startswith(f"{path}: ")
            assert err.getvalue().count(str(path)) == 1
            assert len(messages[0]) < len(f"{path}: ") + 200
            bound = 2 * (specfiles.MAX_RATIONAL_DIGITS + 1) + 200  # two numbers in a line
            assert all(len(line) < bound for line in err.getvalue().splitlines())
        else:
            assert err.getvalue() == ""
        if code != 3:
            spec = json.loads(data)
            assert set(spec) <= set(specfiles._SPEC_FIELDS)
            assert all(set(c) <= set(specfiles._COMPONENT_FIELDS)
                       for c in spec.get("components", []))
            assert set(spec.get("lie", {})) <= set(specfiles._LIE_FIELDS)
        ok = f"{GR24}: ok (gr24-k2, criticality 2)" if command == ["validate"] else "== gr24-k2 =="
        assert ok in out.read().splitlines()
