"""Closed-loop benchmark of the svoc command line.

One client calls `svoc.cli.run_command` in-process and times each round of
a seeded workload (see workloads.py and README.md).  Every round's outputs
are checked outside the timed interval.

    python3 perfbench/run.py --workload verify-q --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` makes a separate
traced run and prints the per-layer metrics.  `--workload all` runs every
workload, each in its own process.  The last line of standard output is the
result as one JSON object.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported, so runs are comparable
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SVOC_OUT_DIR", None)  # it would override --out

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats
import workloads
from tracer import EXP, FUNCTIONS, LAYERS, PEAK, REPEAT, Tracer, round_profile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_LAUNCHES = 7
MIN_ROUNDS = stats.TAIL_BEYOND + 1
MIN_TRACED_ROUNDS = 5
HALF_ROUNDS = 3
DEADLINE_S = 150.0  # stop starting rounds after this, to end within the time limit


def import_svoc():
    """The svoc CLI module from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        from svoc import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import svoc from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: svoc imported from {cli.__file__}, not {SRC}")
    return cli


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:  # mode="dicts" needs numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
    }


def measure_setup(workdir: Path) -> float:
    """Median wall time of a fresh `python -m svoc list-problems`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    times = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch warms the file cache
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "svoc", "list-problems"], cwd=workdir,
                              env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or "sing_quad(" not in proc.stdout:
            raise SystemExit(f"perfbench: list-problems failed: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    return stats.median(times)


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(path.iterdir()):
        h.update(file.name.encode() + b"\0" + file.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    """Runs rounds of one workload and checks their outputs.

    Files must be byte-identical to those of the first round (the CLI's
    determinism contract), so a traced round is also checked against the
    untraced ones.
    """

    def __init__(self, workload: workloads.Workload, cli, workdir: Path):
        self.workload = workload
        self.cli = cli  # run_command is looked up per call, so the tracer sees it
        self.workdir = workdir
        self.reference: list[str] | None = None
        self.count = 0
        self.failures: list[str] = []

    def round(self) -> float:
        """One round; returns its wall time and records any failure."""
        self.count += 1
        dirs = [self.workdir / f"round{self.count}-{i}"
                for i in range(len(self.workload.commands))]
        for d in dirs:
            d.mkdir()
        codes: list[int | None] = []
        captured = io.StringIO()
        problems = []
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for command, out in zip(self.workload.commands, dirs):
                try:
                    codes.append(self.cli.run_command([*command.argv, "--out", str(out)]))
                except Exception as exc:  # an uncaught error in the program fails the round
                    codes.append(None)
                    problems.append(f"{command.label}: raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start

        for command, out, code in zip(self.workload.commands, dirs, codes):
            if code not in (0, None):
                problems.append(f"{command.label}: exit code {code}")
            elif code == 0:
                try:
                    problems.extend(f"{command.label}: {p}" for p in command.check(out))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problems.append(f"{command.label}: malformed output: {exc!r}")
        digests = [_dir_digest(d) for d in dirs]
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problems.append("output files differ from the first round's")
        for d in dirs:
            shutil.rmtree(d)
        if problems:
            self.failures.append(f"round {self.count}: " + "; ".join(problems)
                                 + f" | output: {captured.getvalue()[-500:]!r}")
        return wall


def timed_rounds(runner: Runner, seconds: float, min_rounds: int, deadline: float,
                 tracer=None) -> tuple[list[float], list[dict]]:
    """Rounds for `seconds` and at least `min_rounds`; with a tracer, also
    each round's profile."""
    walls, profiles = [], []
    start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - start < seconds:
        if time.perf_counter() > deadline:
            break
        wall = runner.round()
        walls.append(wall)
        if tracer is not None:
            spans = tracer.take()
            profiles.append({**round_profile(spans, wall), "spans": spans})
    return walls, profiles


def end_to_end(runner: Runner, seconds: float, deadline: float, workdir: Path) -> tuple[dict, list[str]]:
    setup = measure_setup(workdir)
    runner.round()  # warm-up: fills caches and sets the reference outputs
    walls, _ = timed_rounds(runner, seconds, MIN_ROUNDS, deadline)
    tail, pct, n = stats.tail(walls)
    attempted = runner.count
    metrics = {
        "setup_s": (setup, "s"),
        "round_s_p50": (stats.median(walls), "s"),
        "round_s_tail": (tail, "s"),
        "rounds_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"setup_s: median of {SETUP_LAUNCHES} launches of `python -m svoc list-problems`",
        f"round_s_tail: p{pct:.0f} of {n} timed rounds ({stats.TAIL_BEYOND} rounds beyond it)",
        f"failed_frac {len(runner.failures) / attempted:.4g} fraction "
        f"({len(runner.failures)} of {attempted} rounds, warm-up included)",
    ]
    return metrics, notes


def per_layer(runner: Runner, seed: int, seconds: float, deadline: float,
              workdir: Path) -> tuple[dict, list[str], list]:
    runner.round()
    plain, _ = timed_rounds(runner, seconds / 2, MIN_TRACED_ROUNDS, deadline)
    tracer = Tracer()
    with tracer.installed():
        traced_walls, profiles = timed_rounds(runner, seconds / 2, MIN_TRACED_ROUNDS,
                                              deadline, tracer)

    # half-size pass for the scaling exponents
    half_dir = workdir / "half"
    half_dir.mkdir()
    half = Runner(workloads.build(runner.workload.name, seed, half_dir,
                                  scale=2 * runner.workload.scale),
                  runner.cli, half_dir)
    half_profiles = []
    with tracer.installed():
        half.round()
        tracer.take()
        for _ in range(HALF_ROUNDS):
            wall = half.round()
            half_profiles.append(round_profile(tracer.take(), wall))

    # memory pass: tracemalloc peaks, one round
    mem_tracer = Tracer(memory=True)
    with mem_tracer.installed():
        wall = runner.round()
        memory = round_profile(mem_tracer.take(), wall)
    runner.count += half.count
    runner.failures.extend(half.failures)

    def med(key_fn, rows=profiles):
        return stats.median([key_fn(p) for p in rows])

    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (med(lambda p: p["functions"][name]["calls"]), "count")
        self_s = med(lambda p: p["functions"][name]["self_s"])
        metrics[f"{name}.self_s"] = (self_s, "s")
        if name in REPEAT:
            metrics[f"{name}.repeat_calls"] = (
                med(lambda p: p["functions"][name]["repeat_calls"]), "count")
        if name in PEAK:
            metrics[f"{name}.peak_bytes"] = (memory["functions"][name]["peak_bytes"], "B")
        if name in EXP:
            half_s = med(lambda p: p["functions"][name]["self_s"], half_profiles)
            exp = math.log2(self_s / half_s) if self_s > 0 and half_s > 0 else 0.0
            metrics[f"{name}.exp"] = (exp, "log2")
    for mod in LAYERS:
        metrics[f"layer.{mod}.self_s"] = (med(lambda p: p["layers"][mod]), "s")
    metrics["reports.bytes_written"] = (med(lambda p: p["bytes_written"]), "B")
    traced_p50 = stats.median(traced_walls)
    metrics["trace.round_s_p50"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - stats.median(plain), "s")
    metrics["trace.bookkeeping_s"] = (med(lambda p: p["bookkeeping_s"]), "s")
    metrics["trace.unattributed_s"] = (med(lambda p: p["unattributed_s"]), "s")

    notes = []
    for mod in sorted(LAYERS, key=lambda m: -metrics[f"layer.{m}.self_s"][0]):
        share = med(lambda p: p["layers"][mod] / p["wall_s"])
        notes.append(f"layer {mod:<11} self {metrics[f'layer.{mod}.self_s'][0]:.4f} s "
                     f"= {100 * share:5.1f} % of the traced round")
    closure = max(abs(sum(p["layers"].values()) + p["bookkeeping_s"] + p["unattributed_s"]
                      - p["wall_s"]) for p in profiles)
    notes.append(f"self times + bookkeeping + unattributed = traced wall, "
                 f"max residual {closure:.2e} s over {len(profiles)} traced rounds "
                 f"({len(plain)} untraced)")
    return metrics, notes, profiles


def write_spans(path: Path, profiles: list[dict]) -> None:
    rounds = [[vars(span) for span in p["spans"]] for p in profiles]
    path.write_text(json.dumps({"rounds": rounds}) + "\n", encoding="utf-8")


def emit(workload: str, metrics: dict, notes: list[str], attempted: int, failed: int) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    for note in notes:
        print(f"{workload} {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_one(args) -> dict:
    started = time.perf_counter()
    cli = import_svoc()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs_dir = workdir / "inputs"
        inputs_dir.mkdir()
        workload = workloads.build(args.workload, args.seed, inputs_dir)
        print(f"{args.workload} env {json.dumps(environment(args.seed))}")
        print(f"{args.workload} inputs {json.dumps(workload.inputs)}")
        runner = Runner(workload, cli, workdir)
        deadline = started + DEADLINE_S
        if args.trace:
            metrics, notes, profiles = per_layer(runner, args.seed, args.seconds, deadline,
                                                 workdir)
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            write_spans(trace_path, profiles)
            notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, notes = end_to_end(runner, args.seconds, deadline, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in runner.failures:
        print(f"{args.workload} FAILED {failure}", file=sys.stderr)
    return emit(args.workload, metrics, notes, runner.count, len(runner.failures))


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        results[name] = json.loads(last)
    return results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run; at least %d rounds are timed" % MIN_ROUNDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
