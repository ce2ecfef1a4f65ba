#!/usr/bin/env python3
"""CLI-level benchmark of isostitch.

Run from the repository root:

    python3 benchmarks/run.py --workload analyze-large --seed 0 --seconds 24 --trace 0

``--trace 0`` is the end-to-end pass. Every command of the workload runs as
``python -m isostitch ...`` in a fresh child process with ``src/`` on
PYTHONPATH, in a closed loop with one client: the next command starts only
after the previous one exits. Whole workload iterations repeat until
``--seconds`` have passed (at least two), with runs of a fixed reference
program between them, and the medians are reported:

- ``wall_s``: spawn of the first command to exit of the last, less the
  reference runs between commands, scaled to a host of reference speed
  (see REFERENCE below);
- ``peak_rss_mb``: largest ``ru_maxrss`` of any child, read by ``os.wait4``;
- ``setup_s``: median time of several ``python -m isostitch --version``
  spawns, i.e. interpreter start plus package import, scaled alike;
- ``success_rate``: commands that exited as expected with correct output,
  over commands attempted.

``--trace 1`` is the per-layer pass. The same commands run in-process
through ``isostitch.cli.main``, alternating untraced and traced passes (see
layers.py) until ``--seconds`` have passed, then one memory pass that takes
tracemalloc peaks. Self times are medians over the traced passes;
``trace.overhead_s`` is the median traced pass time minus the median
untraced one.

Every output is checked: exit code, stdout and output file against the
SHA-256 digests in expected.json where the command was recorded, against
the command's first run otherwise, plus the format checks in checks.py.
``--record`` rewrites expected.json from one run of every workload at the
default seed.

The last stdout line is the JSON result; a run record (Python version,
nproc, git SHA, seed, load average) goes to the line before it and, with
the spans of a traced run, to ``benchmarks/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"

sys.path.insert(0, str(BENCH_DIR))
from checks import CHECKS  # noqa: E402
from layers import PEAK_SPANS, Tracer  # noqa: E402

DEFAULT_SEED = 0
MIN_ITERATIONS = 2
SETUP_SPAWNS = 9
SETUP_GROUP = 3

# Designs drawn once from per-family words of length 1 to 3 and phases 0 to
# 3, picked so their front groups cover cmm, pm, p6mm, p1 and p3m1 and both
# self-dual outcomes. Analysis cost differs tenfold between random draws, so
# a seed does not redraw them: it complements and/or reverses each design's
# words, which keeps its group and nearly its cost, and shuffles the order.
EXPLORE_POOL = (
    (("111", "000", "110"), (3, 0, 2)),
    (("011", "01", "010"), (1, 2, 1)),
    (("11", "000", "11"), (1, 3, 3)),
    (("111", "010", "10"), (0, 0, 0)),
    (("001", "110", "001"), (3, 3, 1)),
    (("10", "00", "01"), (1, 0, 2)),
)
COMPLEMENT = str.maketrans("01", "10")

WORKLOADS = ("analyze-large", "koch-4", "render-large", "explore")

# Wrapped functions that must see work on each workload; a zero count means a
# binding was missed.
EXPECTED_WORK = {
    "analyze-large": ("symmetry.is_symmetry", "symmetry.classify_wallpaper",
                      "symmetry.is_self_dual", "design_graph.motif_signature",
                      "design_graph.motif_census", "design_graph.build_components",
                      "stitcher.generate_design", "cli.invariant_results", "cli.main"),
    "koch-4": ("koch_oracle.verify_koch", "stitcher.generate_design",
               "design_graph.build_components", "design_graph.motif_signature",
               "cli.main"),
    "render-large": ("render.to_svg", "stitcher.generate_design", "cli.main"),
    "explore": ("symmetry.is_symmetry", "symmetry.classify_wallpaper",
                "symmetry.is_self_dual", "design_graph.motif_signature",
                "design_graph.motif_census", "design_graph.build_components",
                "stitcher.generate_design", "render.to_svg", "cli.invariant_results",
                "cli.main"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Command:
    kind: str                 # analyze | render | verify-koch | calibrate
    argv: tuple[str, ...]     # arguments after ``python -m isostitch``
    output: str | None        # file the command writes, relative to its cwd


def _command(index: int, kind: str, args: list[str]) -> Command:
    if kind == "calibrate":
        return Command(kind, (kind, *args), None)
    output = f"{index:02d}.svg" if kind == "render" else f"{index:02d}.json"
    flag = "--out" if kind == "render" else "--report"
    return Command(kind, (kind, *args, flag, output), output)


def explore_specs(seed: int) -> list[tuple[str, list[str]]]:
    rng = random.Random(seed)
    draws = []
    for words, phases in EXPLORE_POOL:
        if rng.getrandbits(1):
            words = tuple(w.translate(COMPLEMENT) for w in words)
        if rng.getrandbits(1):
            words = tuple(w[::-1] for w in words)
        draws.append((words, phases))
    rng.shuffle(draws)
    specs = []
    for words, phases in draws:
        pattern = [arg for f, w, p in zip("abc", words, phases)
                   for arg in (f"--word-{f}", w, f"--phase-{f}", str(p))]
        specs.append(("analyze", pattern))
        specs.append(("render", pattern + ["--side", "both", "--dots"]))
    specs.append(("calibrate", []))
    return specs


def workload_commands(name: str, seed: int) -> list[Command]:
    if name == "analyze-large":
        specs = [("analyze", ["--word", "01", "--window=-60:60:-60:60"])]
    elif name == "koch-4":
        specs = [("verify-koch", ["--order", "4"])]
    elif name == "render-large":
        specs = [("render", ["--word", "0001", "--window", "0:400:0:400",
                             "--side", "both", "--dots", "--empty-dots"])]
    else:
        specs = explore_specs(seed)
    return [_command(i, kind, args) for i, (kind, args) in enumerate(specs)]


# ------------------------------------------------------------ checking

@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: bytes
    stderr: bytes
    output: bytes | None

    def digest(self) -> dict:
        return {"exit": self.exit_code, "stdout": _sha256(self.stdout),
                "output": None if self.output is None else _sha256(self.output)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts attempted and failed commands of one benchmark run."""

    def __init__(self, workload: str, commands: list[Command], expected: dict):
        recorded = expected.get(workload, [])
        self.commands = commands
        self.expected = {i: r for i, r in enumerate(recorded)
                         if i < len(commands) and r["argv"] == list(commands[i].argv)}
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, index: int, outcome: Outcome) -> None:
        cmd = self.commands[index]
        digest = outcome.digest()
        record = self.expected.get(index)
        problems = []
        if outcome.exit_code != (record["exit"] if record else 0):
            problems.append(f"exit code {outcome.exit_code}: {outcome.stderr[-400:]!r}")
        if record is not None and {k: record[k] for k in digest} != digest:
            problems.append("output differs from the recorded digest")
        if index not in self.first:
            self.first[index] = digest
            if outcome.exit_code == 0:
                problems += CHECKS[cmd.kind](list(cmd.argv), outcome.stdout, outcome.output)
        elif digest != self.first[index]:
            problems.append("output differs from this command's first run")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(cmd.argv)}: {'; '.join(problems)}", file=sys.stderr)


def _read_output(workdir: Path, cmd: Command) -> bytes | None:
    if cmd.output is None:
        return None
    path = workdir / cmd.output
    return path.read_bytes() if path.exists() else None


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ------------------------------------------------------------ end to end

def child_env() -> dict:
    """Children import src/ and, like an installed package, keep bytecode
    caches, which the untimed warm-up writes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(argv, cwd: Path, tag: str) -> tuple[int, float, float]:
    """Run ``python -m isostitch *argv`` to exit; stdout and stderr go to
    files named by tag. Returns exit code, seconds and ru_maxrss in MB."""
    with open(cwd / f"{tag}.stdout", "wb") as out, open(cwd / f"{tag}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "isostitch", *argv], cwd=cwd,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def _prepare_children() -> None:
    """Check that children import isostitch from this checkout's src/, and
    run one untimed --version so bytecode compilation is not timed."""
    if not (SRC / "isostitch" / "__init__.py").is_file():
        raise BenchError(f"no isostitch package under {SRC}")
    proc = subprocess.run([sys.executable, "-c", "import isostitch; print(isostitch.__file__)"],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"children do not import isostitch from {SRC}: "
                         f"{proc.stdout.strip()} {proc.stderr.strip()}")
    workdir = _fresh_dir(OUT / "setup")
    if _spawn(["--version"], workdir, "warmup")[0] != 0:
        raise BenchError("python -m isostitch --version failed")


# Host speed. On the shared 2-core VM this benchmark was written on, the time
# of a fresh isostitch process drifts by up to 1.4x within two minutes, user
# time alike, so raw seconds of runs minutes apart differ by more than any
# bound worth gating on. A fixed reference program, a fresh interpreter doing
# dict, set and tuple work much like design_graph, follows that drift (its
# times correlated 0.73 with adjacent koch-4 times there); a tight arithmetic
# loop does not. The reference runs between the set-up spawns, in groups of
# SETUP_GROUP, and between workload commands once REFERENCE_EVERY_S have
# passed since the last run of it, and after each pass. A timed interval is
# multiplied by REFERENCE_S and divided by the mean reference time around it,
# so wall_s and setup_s read as seconds on a host where the reference takes
# REFERENCE_S; a change to isostitch moves them as it moves raw seconds. One
# reference run is noisier than a pass, so a pass's mean also takes in the
# reference runs next to its own on either side. Raw seconds and reference
# times go to the run record.
REFERENCE = """\
table = {}
for i in range(150_000):
    table[(i, i * 7 % 1013)] = [i]
keys = set(table)
for key in list(keys)[::3]:
    keys.discard(key)
"""
REFERENCE_S = 0.45            # near its median time on that VM
REFERENCE_EVERY_S = 3.0


def reference_seconds(cwd: Path) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", REFERENCE], cwd=cwd, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"reference program failed: {proc.stderr[-400:]!r}")
    return seconds


def setup_seconds(record: dict) -> tuple[float, list[float]]:
    """Median time of SETUP_SPAWNS ``--version`` spawns, scaled by the mean
    of the reference runs between them, and those reference times."""
    workdir = _fresh_dir(OUT / "setup")
    raw, references = [], [reference_seconds(workdir)]
    for n in range(SETUP_SPAWNS):
        code, seconds, _ = _spawn(["--version"], workdir, f"version{n}")
        if code != 0 or not (workdir / f"version{n}.stdout").read_bytes().startswith(b"isostitch "):
            raise BenchError("python -m isostitch --version failed")
        raw.append(seconds)
        if (n + 1) % SETUP_GROUP == 0:
            references.append(reference_seconds(workdir))
    record["setup_raw_s"] = raw
    record["setup_reference_s"] = list(references)
    return statistics.median(raw) * REFERENCE_S / statistics.mean(references), references


@dataclass(frozen=True)
class Pass:
    wall: float               # seconds in commands, reference runs left out
    references: list[float]   # reference times taken during the pass and after it
    peak_mb: float            # largest ru_maxrss of any command
    outcomes: list[Outcome]


def end_to_end_iteration(workload: str, commands: list[Command], checker: Checker | None,
                         reference: bool = False) -> Pass:
    """One closed-loop pass over the workload; outputs are read and checked
    after the last command exits, outside the timed interval. With
    ``reference``, the reference program runs between commands once
    REFERENCE_EVERY_S have passed since its last run, and after the pass."""
    workdir = _fresh_dir(OUT / workload)
    runs, references = [], []
    wall = 0.0
    stretch = time.perf_counter()
    for i, cmd in enumerate(commands):
        runs.append(_spawn(cmd.argv, workdir, f"{i:02d}"))
        end = time.perf_counter()
        if i == len(commands) - 1 or (reference and end - stretch >= REFERENCE_EVERY_S):
            wall += end - stretch
            if reference:
                references.append(reference_seconds(workdir))
            stretch = time.perf_counter()
    outcomes = [Outcome(code, (workdir / f"{i:02d}.stdout").read_bytes(),
                        (workdir / f"{i:02d}.stderr").read_bytes(), _read_output(workdir, cmd))
                for i, (cmd, (code, _, _)) in enumerate(zip(commands, runs))]
    if checker is not None:
        for i, outcome in enumerate(outcomes):
            checker.check(i, outcome)
    return Pass(wall, references, max(rss for _, _, rss in runs), outcomes)


def run_end_to_end(workload: str, commands: list[Command], seconds: float,
                   checker: Checker, record: dict) -> dict:
    _prepare_children()
    start = time.perf_counter()
    setup, references = setup_seconds(record)
    passes, spans = [], []
    while len(passes) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        passes.append(end_to_end_iteration(workload, commands, checker, reference=True))
        first = len(references) - 1          # the reference run just before this pass
        references += passes[-1].references
        spans.append((first, len(references) - 1))
    scaled = [p.wall * REFERENCE_S / statistics.mean(references[max(0, lo - 1):hi + 2])
              for p, (lo, hi) in zip(passes, spans)]
    record["iterations"] = len(passes)
    record["wall_raw_s"] = [p.wall for p in passes]
    record["reference_s"] = references
    record["passes"] = spans
    record["peak_rss_mb"] = [p.peak_mb for p in passes]
    return {
        "wall_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (statistics.median(p.peak_mb for p in passes), "MB"),
        "setup_s": (setup, "s"),
        "success_rate": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }


# ------------------------------------------------------------ traced

def _import_cli():
    if not (SRC / "isostitch" / "__init__.py").is_file():
        raise BenchError(f"no isostitch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import isostitch.cli
    if not Path(isostitch.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported isostitch from {isostitch.cli.__file__}, not {SRC}")
    return isostitch.cli


def in_process_pass(cli, workload: str, commands: list[Command], checker: Checker,
                    tracer: Tracer | None) -> tuple[float, int]:
    """Run the workload through cli.main in this process. Returns the pass
    time and the bytes of the JSON reports written."""
    workdir = _fresh_dir(OUT / workload)
    results = []
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.command_id = i
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            results.append((code, out.getvalue().encode(), err.getvalue().encode()))
        wall = time.perf_counter() - start
    finally:
        os.chdir(ROOT)
    report_bytes = 0
    for i, (cmd, (code, stdout, stderr)) in enumerate(zip(commands, results)):
        output = _read_output(workdir, cmd)
        if cmd.kind != "render" and output is not None:
            report_bytes += len(output)
        checker.check(i, Outcome(code, stdout, stderr, output))
    return wall, report_bytes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_traced(workload: str, commands: list[Command], seconds: float,
               checker: Checker, record: dict) -> tuple[dict, list[dict], list[str]]:
    cli = _import_cli()
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(in_process_pass(cli, workload, commands, checker, None)[0])
        tracer = Tracer("time")
        tracer.install()
        try:
            wall, report_bytes = in_process_pass(cli, workload, commands, checker, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        tracers.append(tracer)
    memory = Tracer("memory")
    memory.install()
    try:
        in_process_pass(cli, workload, commands, checker, memory)
    finally:
        memory.uninstall()
    record["iterations"] = len(traced)
    record["untraced_s"] = untraced
    record["traced_s"] = traced

    self_times = [t.self_seconds() for t in tracers]
    last = tracers[-1]
    counts = last.counts

    def self_s(name: str) -> float:
        return statistics.median(times.get(name, 0.0) for times in self_times)

    def mb(name: str) -> float:
        return memory.peaks[name] / 2 ** 20
    metrics = {
        "symmetry.is_symmetry.self_s": (self_s("symmetry.is_symmetry"), "s"),
        "symmetry.is_symmetry.calls": (last.calls("symmetry.is_symmetry"), "count"),
        "symmetry.is_symmetry.accept_ratio": (
            _ratio(counts["symmetry.is_symmetry.accepted"], last.calls("symmetry.is_symmetry")),
            "ratio"),
        "symmetry.classify_wallpaper.self_s": (self_s("symmetry.classify_wallpaper"), "s"),
        "symmetry.is_self_dual.self_s": (self_s("symmetry.is_self_dual"), "s"),
        "symmetry.overlap_too_small": (counts["symmetry.overlap_too_small"], "count"),
        "design_graph.motif_signature.self_s": (self_s("design_graph.motif_signature"), "s"),
        "design_graph.motif_signature.calls": (last.calls("design_graph.motif_signature"),
                                               "count"),
        "design_graph.motif_signature.distinct_ratio": (
            _ratio(last.distinct_signatures(), last.calls("design_graph.motif_signature")),
            "ratio"),
        "design_graph.motif_census.self_s": (self_s("design_graph.motif_census"), "s"),
        "design_graph.build_components.self_s": (self_s("design_graph.build_components"), "s"),
        "design_graph.build_components.peak_mb": (mb("design_graph.build_components"), "MB"),
        "design_graph.cycles": (counts["design_graph.cycles"], "count"),
        "design_graph.open_paths": (counts["design_graph.open_paths"], "count"),
        "stitcher.generate_design.self_s": (self_s("stitcher.generate_design"), "s"),
        "stitcher.generate_design.calls": (last.calls("stitcher.generate_design"), "count"),
        "stitcher.generate_design.peak_mb": (mb("stitcher.generate_design"), "MB"),
        "stitcher.segments": (counts["stitcher.segments"], "count"),
        "koch_oracle.verify_koch.self_s": (self_s("koch_oracle.verify_koch"), "s"),
        "koch_oracle.phase_candidates": (counts["koch_oracle.phase_candidates"], "count"),
        "render.to_svg.self_s": (self_s("render.to_svg"), "s"),
        "render.to_svg.peak_mb": (mb("render.to_svg"), "MB"),
        "render.svg_bytes": (counts["render.svg_bytes"], "bytes"),
        "cli.invariant_results.self_s": (self_s("cli.invariant_results"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }
    missing = [name for name in EXPECTED_WORK[workload] if last.calls(name) == 0]
    missing += [f"{name}.peak_mb" for name in PEAK_SPANS
                if name in EXPECTED_WORK[workload] and memory.peaks[name] == 0]
    return metrics, last.span_records(), missing


# ------------------------------------------------------------ main

def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record_expected() -> None:
    """Rewrite expected.json from one checked end-to-end iteration of every
    workload at the default seed."""
    _prepare_children()
    workloads = {}
    for name in WORKLOADS:
        commands = workload_commands(name, DEFAULT_SEED)
        checker = Checker(name, commands, {})
        outcomes = end_to_end_iteration(name, commands, checker).outcomes
        if checker.failed:
            raise BenchError(f"{name}: {checker.failed} commands failed; nothing recorded")
        workloads[name] = [{"argv": list(cmd.argv), **outcome.digest()}
                           for cmd, outcome in zip(commands, outcomes)]
    # One command per line keeps re-recorded digests readable in a diff.
    blocks = [f'  "{name}": [\n' + ",\n".join("   " + json.dumps(r) for r in records) + "\n  ]"
              for name, records in workloads.items()]
    EXPECTED.write_text(f'{{\n "seed": {DEFAULT_SEED},\n "workloads": {{\n'
                        + ",\n".join(blocks) + "\n }\n}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json at the default seed and exit")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record_expected()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        commands = workload_commands(args.workload, args.seed)
        checker = Checker(args.workload, commands,
                          json.loads(EXPECTED.read_text())["workloads"])
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "python": platform.python_version(),
                  "nproc": os.cpu_count(), "git_sha": git_sha(),
                  "loadavg_start": loadavg()}
        spans, missing = [], []
        if args.trace:
            metrics, spans, missing = run_traced(args.workload, commands, args.seconds,
                                                 checker, record)
        else:
            metrics = run_end_to_end(args.workload, commands, args.seconds, checker, record)
        record["loadavg_end"] = loadavg()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name in missing:
        print(f"FAILED trace: {name} saw no work on {args.workload}", file=sys.stderr)
    result = {"correct": checker.failed == 0 and not missing,
              "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result, "spans": spans}) + "\n")
    print("run record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
