#!/usr/bin/env python3
"""Benchmark of cstarflips: Lie derivation, flip chains and CLI batches.

    python3 bench/run.py --workload lie_orbits --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (the CLI children get it through ``PYTHONPATH``).  With
``--trace 0`` the run times whole passes over the seeded corpus and prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes, prints the per-layer metrics and writes its spans to
``bench/out/trace-<workload>-<seed>.jsonl``.  Every output is checked by
``checks.py``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("lie_orbits", "flip_chains", "cli_batch")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120

import checks  # noqa: E402  (the benchmark's own modules, next to this file)
import corpus  # noqa: E402
import reference  # noqa: E402

clock = time.perf_counter


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def keep_going(started: float, passes: int, seconds: float) -> bool:
    """Whole passes, as many as fit in ``seconds`` with rounding: stop once
    half a further pass would overshoot."""
    elapsed = clock() - started
    return passes == 0 or elapsed + 0.5 * elapsed / passes < seconds


# --------------------------------------------------------------------------
# In-process workloads: lie_orbits and flip_chains
# --------------------------------------------------------------------------


class InProcess:
    """Items are spec dicts; one item is parse_spec_dict, run_pipeline and
    ReportBundle.to_json, called through the modules a library user imports."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed

    def setup(self) -> None:
        from cstarflips import report, specfiles

        self.report, self.specfiles = report, specfiles
        make = corpus.lie_corpus if self.name == "lie_orbits" else corpus.chain_corpus
        self.items, self.warm = make(self.seed)
        self.warm_outputs = [self.run_item(spec) for _, spec, _ in self.warm]

    def run_item(self, spec: dict) -> bytes:
        parsed = self.specfiles.parse_spec_dict(spec)
        return self.report.run_pipeline(parsed).to_json()

    def run_pass(self, tracer=None):
        """Per item: seconds, output and seconds at the reference speed, all
        None for a failed item."""

        def run_one(k):
            name, spec, _ = self.items[k]
            if tracer is not None:
                tracer.item = name
            start = clock()
            try:
                payload = self.run_item(spec)
            except Exception as exc:  # a failed operation is counted, not fatal
                log(f"{name}: {type(exc).__name__}: {exc}")
                return None, None
            return clock() - start, payload

        return reference.timed_pass(run_one, len(self.items), reference.kernel_s,
                                    reference.KERNEL_S)

    def check(self, outputs) -> None:
        reports = {}
        rows = list(zip(self.items, outputs)) + list(zip(self.warm, self.warm_outputs))
        for (name, spec, pair), payload in rows:
            if payload is None:
                continue
            report = json.loads(payload)
            if "lie" in spec:
                checks.check_lie(report, spec["lie"], name)
                checks.check_chain(report, checks.chain_from_report_model(report), name)
                if pair is not None:
                    sign = sum(spec["lie"]["cocharacter"])
                    reports.setdefault(pair, {})[sign] = (name, report)
            else:
                chain = checks.ChainInput(spec["components"], spec["dim_X"])
                checks.check_chain(report, chain, name)
        for pair in reports.values():
            if len(pair) == 2:
                checks.check_negation(pair[1][1], pair[-1][1], pair[-1][0])

    def cleanup(self) -> None:
        pass


# --------------------------------------------------------------------------
# cli_batch: sequential child processes of ``python -m cstarflips``
# --------------------------------------------------------------------------


def _swap_stdout():
    buffer = io.BytesIO()
    return buffer, io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)


class CliBatch:
    name = "cli_batch"

    def __init__(self, seed: int):
        self.seed = seed
        self.work = OUT / f"cli_batch-{seed}-{os.getpid()}"

    def setup(self) -> None:
        spec_dir, self.out_dir = self.work / "specs", self.work / "out"
        shutil.rmtree(self.work, ignore_errors=True)
        spec_dir.mkdir(parents=True)
        self.out_dir.mkdir()
        self.specs = {}
        for stem, spec in corpus.cli_specs(self.seed).items():
            path = spec_dir / f"{stem}.json"
            path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
            self.specs[stem] = (str(path), spec)
        for stem in ("gr24_k2", "a4_2", "bordism_r3"):
            path = ROOT / "specs" / f"{stem}.json"
            self.specs[stem] = (str(path), json.loads(path.read_text(encoding="utf-8")))
        self.items = []  # (label, argv with OUT placeholder, spec stems)
        for k, template in enumerate(corpus.CLI_PASS):
            stems = [a[1:] for a in template if a.startswith("@")]
            argv = [self.specs[a[1:]][0] if a.startswith("@") else a for a in template]
            self.items.append((f"cli{k}:{' '.join(template)}", argv, stems))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        _, argv, _ = self.items[0]
        self.warm_output = self.invoke(argv, "warm")[1]

    def _argv(self, argv, tag: str) -> list:
        return [str(self.out_dir / f"{tag}{a[3:]}") if a.startswith("OUT.") else a for a in argv]

    def invoke(self, argv, tag: str):
        """(seconds, output bytes or None on a non-zero exit)."""
        argv = self._argv(argv, tag)
        start = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "cstarflips", *argv],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = clock() - start
        if proc.returncode != 0:
            log(f"exit {proc.returncode}: {' '.join(argv)}\n{proc.stderr.decode(errors='replace')}")
            return elapsed, None
        return elapsed, self._collect(argv, proc.stdout)

    @staticmethod
    def _collect(argv, stdout: bytes) -> bytes:
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                return fh.read()
        return stdout

    def invoke_in_process(self, argv, tag: str, main):
        """cli.main on the same argv in this process; (seconds, output)."""
        argv = self._argv(argv, tag)
        buffer, text = _swap_stdout()
        saved = sys.stdout
        sys.stdout = text
        start = clock()
        try:
            code = main(argv)
        finally:
            elapsed = clock() - start
            text.flush()
            sys.stdout = saved
            text.detach()
        if code != 0:
            log(f"in-process exit {code}: {' '.join(argv)}")
            return elapsed, None
        return elapsed, self._collect(argv, buffer.getvalue())

    def run_pass(self):
        def run_one(k):
            elapsed, payload = self.invoke(self.items[k][1], f"p{k}")
            return (None if payload is None else elapsed), payload

        return reference.timed_pass(run_one, len(self.items), reference.process_s,
                                    reference.PROCESS_S)

    def check(self, outputs) -> None:
        if outputs[0] is not None:
            checks.require(outputs[0] == self.warm_output, self.items[0][0],
                            "two invocations on the same spec gave different bytes")
        for (label, argv, stems), payload in zip(self.items, outputs):
            if payload is None:
                continue
            chains = [
                checks.ChainInput(self.specs[s][1]["components"], self.specs[s][1]["dim_X"])
                for s in stems
            ]
            if argv[0] == "export":
                fmt = argv[argv.index("--format") + 1]
                (checks.check_svg if fmt == "svg" else checks.check_dot)(payload, chains[0], label)
            elif "json" in argv:
                lines = payload.decode("utf-8").splitlines()
                checks.require(len(lines) == len(stems), label, "one JSON report per spec")
                for line, stem, chain in zip(lines, stems, chains):
                    report = json.loads(line)
                    checks.check_chain(report, chain, f"{label} [{stem}]")
                    lie = self.specs[stem][1].get("lie")
                    if lie is not None:
                        checks.check_lie(report, lie, f"{label} [{stem}]")
            else:
                checks.check_analyze_text(payload.decode("utf-8"), chains, label)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def make_workload(name: str, seed: int):
    return CliBatch(seed) if name == "cli_batch" else InProcess(name, seed)


# --------------------------------------------------------------------------
# Timed run (--trace 0)
# --------------------------------------------------------------------------


def setup_seconds(args) -> float:
    """Median over fresh processes of: start to the end of set-up, at the
    reference speed.  The probes run after the timed passes, beyond
    ``--seconds``."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = clock()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode(errors='replace')}")
        ready, before, after = map(float, proc.stdout.split()[-3:])
        samples.append(reference.scaled(ready - start, reference.KERNEL_S, before, after))
    log(f"{args.workload}: set-up probes " + " ".join(f"{s:.4f}" for s in samples) + " s")
    return statistics.median(samples)


def timed_run(workload, args) -> dict:
    """Whole passes for ``args.seconds``; an item's time is the median of its
    repeats, each at the reference speed."""
    samples = [[] for _ in workload.items]
    raw = []
    first, failed, attempted, passes, same = None, 0, 0, 0, True
    started = clock()
    while keep_going(started, passes, args.seconds):
        times, outputs, at_reference = workload.run_pass()
        for k, elapsed in enumerate(times):
            if elapsed is None:
                failed += 1
            else:
                raw.append(elapsed)
                samples[k].append(at_reference[k])
        attempted += len(outputs)
        passes += 1
        if first is None:
            first = outputs
        else:
            same = same and outputs == first
    wall = clock() - started
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_batch" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    done = attempted - failed
    log(f"{args.workload}: {passes} passes, {done} items in {wall:.2f} s wall"
        + (f": {done / wall:.3f} items/s, median {statistics.median(raw) * 1e3:.2f} ms as timed"
           if raw else ""))
    checks.require(same, args.workload, "a later pass gave different bytes than the first")
    workload.check(first)
    metrics = {"setup_s": (setup_seconds(args), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    if all(samples):  # item figures only over the whole corpus
        per_item = [statistics.median(s) for s in samples]
        metrics["items_per_s"] = (len(per_item) / sum(per_item), "1/s")
        metrics["item_ms.p50"] = (statistics.median(per_item) * 1e3, "ms")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# --------------------------------------------------------------------------
# Traced run (--trace 1)
# --------------------------------------------------------------------------

# Per-layer metric: (unit, span names, "total" | "self" | "count")
LAYER_METRICS = {
    "lie.roots.build_ms": ("ms", ["lie.roots.build_root_system"], "total"),
    "lie.roots.grading_ms": ("ms", ["lie.roots.grading"], "total"),
    "lie.homogeneous.enumerate_ms": ("ms", ["lie.homogeneous.enumerate_fixed_points"], "total"),
    "lie.homogeneous.derive_ms": ("ms", ["lie.homogeneous.build_action"], "self"),
    "lie.homogeneous.fixed_points": ("count", ["lie.homogeneous.build_action"], "count"),
    "actions.validate_ms": ("ms", ["actions.validate_action"], "total"),
    "actions.blowup_ms": ("ms", ["actions.blowup_extremal"], "total"),
    "chambers.decompose_ms": ("ms", ["chambers.chamber_decomposition"], "total"),
    "chambers.chambers": ("count", ["chambers.chamber_decomposition"], "count"),
    "modifications.flip_graph_ms": ("ms", ["modifications.build_flip_graph"], "total"),
    "modifications.edges": ("count", ["modifications.build_flip_graph"], "count"),
    "modifications.quotients_ms": ("ms", ["modifications.quotient_diagram",
                                          "modifications.p1_bundle_models",
                                          "modifications.flip_chain_summary"], "total"),
    "report.pipeline_ms": ("ms", ["report.run_pipeline"], "total"),
    "report.assemble_ms": ("ms", ["report.run_pipeline"], "self"),
    "report.serialize_ms": ("ms", ["report.to_json"], "total"),
    "report.bytes": ("bytes", ["report.to_json"], "count"),
    "export.render_ms": ("ms", ["export.export"], "total"),
    "export.bytes": ("bytes", ["export.export"], "count"),
    "specfiles.parse_ms": ("ms", ["specfiles.parse_spec", "specfiles.parse_spec_dict"], "self"),
}
CLI_METRICS = ("cli.process_ms", "cli.main_ms", "cli.startup_ms")


def layer_values(totals: dict) -> dict:
    column = {"total": 0, "self": 1, "count": 2}
    out = {}
    for metric, (_, names, kind) in LAYER_METRICS.items():
        out[metric] = sum(totals.get(n, (0.0, 0.0, 0))[column[kind]] for n in names)
    build_s = totals.get("lie.homogeneous.build_action", (0.0,))[0] / 1e3
    out["lie.homogeneous.points_per_s"] = (
        out["lie.homogeneous.fixed_points"] / build_s if build_s else 0.0
    )
    return out


def module_self_ms(totals: dict) -> dict:
    out: dict[str, float] = {}
    for name, (_, self_ms, _) in totals.items():
        module = name.rsplit(".", 1)[0]
        out[module] = out.get(module, 0.0) + self_ms
    return out


def traced_run(workload, args, tracer) -> dict:
    from cstarflips import cli
    from cstarflips.lie import roots

    cold = roots.build_root_system.cache_clear  # a fresh CLI process starts cold
    is_cli = workload.name == "cli_batch"
    tracer.install()
    workload.setup()  # set-up spans are labelled "setup"
    tracer.uninstall()
    setup_totals = tracer.totals("setup")
    per_pass, untraced_ms, traced_ms, cli_rows = [], [], [], []
    attempted = failed = passes = 0
    first, same = None, True
    started = clock()
    while keep_going(started, passes, args.seconds):
        label = f"pass{passes}"
        if is_cli:
            row = [0.0, 0.0]
            outputs, pass_untraced, pass_traced = [], 0.0, 0.0
            for k, (item, argv, _) in enumerate(workload.items):
                elapsed, child = workload.invoke(argv, f"p{k}")
                cold()
                main_s, plain = workload.invoke_in_process(argv, f"u{k}", cli.main)
                tracer.pass_label, tracer.item = label, item
                tracer.install()
                cold()
                start = clock()
                try:
                    _, traced = workload.invoke_in_process(
                        argv, f"t{k}", lambda a: tracer.span("cli.main", cli.main, a)
                    )
                finally:
                    pass_traced += (clock() - start) * 1e3
                    tracer.uninstall()
                pass_untraced += main_s * 1e3
                attempted += 1
                if child is None or plain is None or traced is None:
                    failed += 1
                else:
                    same = same and child == plain == traced
                    row[0] += elapsed * 1e3
                    row[1] += main_s * 1e3
                outputs.append(child)
            cli_rows.append(row)
            untraced_ms.append(pass_untraced)
            traced_ms.append(pass_traced)
        else:
            times, outputs, _ = workload.run_pass()
            untraced_ms.append(sum(t for t in times if t is not None) * 1e3)
            tracer.pass_label = label
            tracer.install()
            try:
                traced_times, traced, _ = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_ms.append(sum(t for t in traced_times if t is not None) * 1e3)
            attempted += len(times) + len(traced_times)
            failed += sum(t is None for t in times + traced_times)
            same = same and traced == outputs
        if first is None:
            first = outputs
        else:
            same = same and outputs == first
        per_pass.append(tracer.totals(label))
        passes += 1
    checks.require(same, args.workload, "outputs differ with tracing on and off, or between passes")
    workload.check(first)

    values = [layer_values(t) for t in per_pass]
    metrics = {m: statistics.median(v[m] for v in values) for m in values[0]}
    # cold root-system builds are paid in set-up by in-process workloads
    metrics["lie.roots.build_ms"] += layer_values(setup_totals)["lie.roots.build_ms"]
    process = [r[0] for r in cli_rows] or [0.0]
    main = [r[1] for r in cli_rows] or [0.0]
    metrics["cli.process_ms"] = statistics.median(process)
    metrics["cli.main_ms"] = statistics.median(main)
    metrics["cli.startup_ms"] = statistics.median(p - m for p, m in zip(process, main))
    units = {m: LAYER_METRICS[m][0] for m in LAYER_METRICS}
    units.update({"lie.homogeneous.points_per_s": "1/s", **{m: "ms" for m in CLI_METRICS}})

    baseline = statistics.median(untraced_ms)
    overhead = statistics.median(traced_ms) / baseline - 1 if baseline else 0.0
    modules = [module_self_ms(t) for t in per_pass]
    header = {
        "workload": args.workload, "seed": args.seed, "traced_passes": passes,
        "untraced_ms": untraced_ms, "traced_ms": traced_ms, "trace_overhead": overhead,
        "module_self_ms": {m: statistics.median(d.get(m, 0.0) for d in modules)
                           for m in sorted({m for d in modules for m in d})},
        "setup_module_self_ms": module_self_ms(setup_totals),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(path, header)
    log(f"{args.workload}: {passes} traced passes, overhead {overhead:+.1%}, spans in {path}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: (metrics[m], units[m]) for m in sorted(metrics)},
    }


# --------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the run and every process it starts, so that the reference
    # kernel runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "cstarflips" / "__init__.py").is_file():
        log(f"no program to measure: {SRC / 'cstarflips'} is missing; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    workload = make_workload(args.workload, args.seed)
    try:
        if args.setup_probe:
            before = reference.kernel_s()
            workload.setup()
            ready = clock()
            print(ready, before, reference.kernel_s(), flush=True)
            return 0
        if args.trace:
            from spans import Tracer

            result = traced_run(workload, args, Tracer())
        else:
            workload.setup()
            result = timed_run(workload, args)
        # every item of the corpus is expected to succeed; a failed item is
        # logged above and leaves its output unchecked, so the run is wrong
        correct = result["failed"] == 0
    except checks.CheckError as exc:
        log(f"check failed: {exc}")
        result, correct = {"attempted": 1, "failed": 0, "metrics": {}}, False
    finally:
        workload.cleanup()
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
