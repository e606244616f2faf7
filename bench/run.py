"""matspec benchmark: CLI workloads timed end to end, plus an outside-in layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is used from its ``src``
directory as checked out, so there is nothing to build.  See bench/README.md
for why each workload was chosen and which layer metric should move which
end-to-end metric.

One client runs the workload's commands in a closed loop, one at a time, each
in a fresh ``python -m matspec.cli`` process with ``--threads 1`` and the
BLAS/OpenMP pools pinned to one thread.  The benchmark and every command run
on one CPU.  A probe thread of the benchmark times a fixed reference task on
that CPU every PROBE_PERIOD_S; each set-up and command is also timed in
reference seconds, its wall time rescaled to the speed at which the task
takes REF_TASK_S, which cancels the host's speed drift (see bench/README.md,
Noise).  A pass is one run of every command of the workload; another pass
starts while at least half of it fits in ``--seconds``, with at least two
passes.  Every pass uses the same seed, so
each pass after the first is also a determinism check of the CSV outputs.
With ``--trace 1`` two traced passes follow (bench/tracer.py), in which each
command runs in-process under span recording; their outputs must equal the
untraced ones byte for byte.

An operation is one command invocation.  It fails when the exit code is not
0, when ``manifest.json`` does not say ``ok``, when an output check fails or
when a CSV output differs from the first pass.

The last line of standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s       median over SETUP_REPEATS, in reference seconds, of writing
                  the workload's ensemble and config files plus one cold
                  ``import matspec.cli`` in a fresh interpreter
    wall_ref_s    sum over the workload's commands of each command's median
                  time over the passes, in reference seconds: what one pass
                  costs a user on the uncontended CPU
    peak_rss_mb   largest peak RSS of any command process (``os.wait4``)

With ``--trace 1`` they are the per-layer metrics of ``tracer.LAYER_METRICS``
(times are the median of the two traced passes; a layer the workload never
enters reads 0).  ``correct`` also requires the exact references of
bench/refcheck.py (in workloads that set ``exact_refs``) and, when tracing,
equal exact counts in both traced passes.

A full record of the run (environment, every command's wall time, time in
reference seconds and peak RSS per pass, the per-command medians, every
failed check) is written to
``.bench_run/results/`` and its path printed before the result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import EXACT_COUNTS, LAYER_METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"

# alpha of ip_2d (and of the linear part of ip_affine_2d) on the 512-node grid
IP_2D_ALPHA = 1.2065118169158839
ALPHA_TOL = 1e-9
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_REPEATS = 5
# the cold import of set-up; it also reports the versions the run used
SETUP_PROBE = ("import json, platform, numpy, scipy, matspec.cli; "
               "print(json.dumps({'python': platform.python_version(), "
               "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
MIN_PASSES = 2
PROBE_PERIOD_S = 0.02  # the reference task takes about 0.3 ms of it
# The reference task's duration on the uncontended CPU of the host this
# benchmark was defined on (2 vCPUs of an Intel Xeon, Python 3.11.7, numpy
# 2.4.6): the fastest hundredth of its samples read 216 to 232 us in calm
# runs there.  A reference second is a second at that speed.
REF_TASK_S = 225e-6
TRACED_PASSES = 2
BUDGET_S = 165.0  # every run must exit within 180 s


@dataclass(frozen=True)
class Command:
    label: str                   # unique within its workload
    cli: str                     # CLI subcommand
    ensemble: str                # frozen file under bench/ensembles
    config: dict                 # run configuration besides ensemble and seed
    alpha: float | None = None   # reference alpha its outputs must report


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[Command, ...]
    exact_refs: bool = False     # also run bench/refcheck.py


IP_GRID = {"grid_resolution": 512}
D3_GRID = {"grid_resolution": 128}
IP_MC = {**IP_GRID, "mc": {"paths": 5000, "steps": 600}}

# One workload per mechanism, of 3 to 10 s a pass.  Timed in reference
# seconds, a 20 s run is steady, and the time allowed for all runs affords
# four workloads of that length.
WORKLOADS = {
    "spectral-d2": Workload(
        "d=2 eigen-solves: cold power iterations and tilted steps in 64-row "
        "batches; no bank, no large batches",
        (Command("validate-d2", "validate", "ip_2d.json", IP_GRID),
         Command("spectrum-d2", "spectrum", "ip_2d.json",
                 {**IP_GRID, "s_grid": {"min": 0.0, "max": 2.0, "count": 3}},
                 alpha=IP_2D_ALPHA)),
        exact_refs=True,
    ),
    "tails-d2": Workload(
        "d=2 stationary bank and its CSV; bypasses the tilted chain",
        (Command("tails", "tails", "ip_affine_2d.json",
                 {**IP_GRID, "mc": {"steps": 1000, "samples": 40_000},
                  "options": {"directions": 8}},
                 alpha=IP_2D_ALPHA),),
    ),
    "rare-event-d2": Workload(
        "d=2 Cramer, dual walk and renewal: tilted steps in 5000-row batches",
        (Command("cramer", "cramer", "ip_affine_2d.json",
                 {**IP_MC, "options": {"directions": 4}}),
         Command("dualwalk", "dualwalk", "ip_affine_2d.json", IP_MC),
         Command("renewal", "renewal", "ip_affine_2d.json", IP_MC)),
    ),
    "grid-d3": Workload(
        "d=3 validate, spectrum and dual walk: the only workload on the dense "
        "d>=3 interpolation stencil",
        (Command("validate-d3", "validate", "affine_3d.json", D3_GRID),
         Command("spectrum-d3", "spectrum", "affine_3d.json",
                 {**D3_GRID, "s_grid": {"min": 0.0, "max": 2.0, "count": 2}}),
         Command("dualwalk-d3", "dualwalk", "affine_3d.json",
                 {**D3_GRID, "mc": {"paths": 500, "steps": 150}})),
    ),
}


class SpeedProbe:
    """Times a fixed reference task every PROBE_PERIOD_S on the benchmark's
    CPU, which the set-ups and commands share, while they run.

    On a shared host the CPU alternates between a fast and a slow (contended)
    speed for stretches of seconds, and a command's wall time moves with the
    share of slow stretches it met.  The reference task slows with the same
    stretches, so a command's wall time divided by the task's mean duration
    over the command's lifetime is steady.  The task is a mix of small numpy
    calls and interpreter work, like the commands."""

    def __init__(self):
        import numpy  # imported once the thread pins are in the environment

        self._a = numpy.linspace(0.0, 1.0, 128).reshape(64, 2)
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _task(self) -> float:
        x = 0.0
        for _ in range(40):
            x += float((self._a * 1.0001).sum())
        for j in range(3000):
            x += j
        return x

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = time.perf_counter()
            self._task()
            self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in reference seconds: its length times
        REF_TASK_S over the mean duration of the tasks started in it."""
        return (t1 - t0) * REF_TASK_S / statistics.fmean(
            d for t, d in self.samples if t0 <= t <= t1)


@dataclass
class Proc:
    exit_code: int
    start: float      # time.perf_counter() just before the spawn
    wall_s: float
    rss_mb: float
    timed_out: bool


@dataclass
class Pass:
    traced: bool
    walls: dict[str, float] = field(default_factory=dict)
    ref_s: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return env


def run_process(argv: list[str], cwd: Path, log: Path, timeout: float) -> Proc:
    """Run one child to completion; wall time from spawn to reaping, peak
    RSS from the child's own resource usage.  Killed at the timeout."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        reaped = []
        waiter = threading.Thread(
            target=lambda: reaped.append((os.wait4(proc.pid, 0), time.perf_counter())))
        waiter.start()
        waiter.join(max(timeout, 1.0))
        timed_out = waiter.is_alive()
        if timed_out:
            proc.kill()
            waiter.join()
        (_, status, usage), end = reaped[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, start, end - start, usage.ru_maxrss / 1024.0, timed_out)


def prepare_inputs(inputs: Path, commands: tuple[Command, ...], seed: int) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for cmd in commands:
        shutil.copyfile(BENCH / "ensembles" / cmd.ensemble, inputs / cmd.ensemble)
        doc = {"ensemble": cmd.ensemble, "seed": seed, **cmd.config}
        (inputs / f"{cmd.label}.json").write_text(json.dumps(doc, indent=2) + "\n",
                                                 encoding="utf-8")


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def _near(value: float, ref: float) -> bool:
    return abs(value - ref) <= ALPHA_TOL


def check_outputs(cmd: Command, out: Path) -> list[str]:
    """Output checks of one invocation; an empty list means it passed.

    No Monte Carlo estimate and no Lyapunov exponent is frozen here: only
    exact grid quantities, flags and structural invariants are checked."""
    try:
        status = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["status"]
        if status != "ok":
            return [f"manifest status {status!r}"]
        if cmd.cli == "validate":
            report = json.loads((out / "validation_report.json").read_text(encoding="utf-8"))
            missing = {"irreducibility", "proximality", "cone_case"} - set(report)
            return [f"validation report lacks {sorted(missing)}"] if missing else []
        if cmd.cli == "spectrum":
            alpha = float(dict(_csv_rows(out / "spectral_scalars.csv"))["alpha"])
            if cmd.alpha is not None and not _near(alpha, cmd.alpha):
                return [f"alpha {alpha!r} differs from {cmd.alpha!r}"]
            return [] if math.isfinite(alpha) and alpha > 0 else [f"alpha {alpha!r}"]
        if cmd.cli == "tails":
            meta = json.loads((out / "bank_meta.json").read_text(encoding="utf-8"))
            report = json.loads((out / "tail_report.json").read_text(encoding="utf-8"))
            problems = ["bank under-converged"] if meta["under_converged"] else []
            if not _near(float(report["alpha_spectral"]), cmd.alpha):
                problems.append(f"alpha_spectral {report['alpha_spectral']!r}")
            return problems
        if cmd.cli == "cramer":
            # the direction key holds commas; method and flag sit at fixed
            # offsets from the end of the row
            bad = [r for r in _csv_rows(out / "cramer_table.csv")
                   if r[-5] == "tilted" and r[-1] == "incomplete-crossings"]
            return [f"{len(bad)} tilted rows incomplete-crossings"] if bad else []
        if cmd.cli == "dualwalk":
            rows = dict(_csv_rows(out / "dualwalk_report.csv"))
            return [] if rows["sign_preserved"] == "true" else ["ladder sign not preserved"]
        if cmd.cli == "renewal":
            rows = _csv_rows(out / "renewal_report.csv")
            ok = rows and all(math.isfinite(float(r[1])) for r in rows)
            return [] if ok else ["renewal report has no finite measurement"]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [f"no check for command {cmd.cli!r}"]


def csv_bodies(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.cfg_seed = seed % (2**31)
        self.seconds = seconds
        self.trace = trace
        self.t_begin = time.perf_counter()
        stamp = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.work = RUNS / "work" / stamp
        self.record_path = RUNS / "results" / f"{stamp}.json"
        self.inputs = self.work / "inputs"
        self.attempted = 0
        self.failed = 0
        self.timed_out = False
        self.failures: list[str] = []
        self.reference: dict[str, dict[str, bytes]] = {}

    def time_left(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.t_begin)

    def setup(self, probe: SpeedProbe) -> tuple[list[float], list[float], dict]:
        """Times of SETUP_REPEATS set-ups, in seconds and in reference
        seconds, and the versions."""
        times, ref_s = [], []
        log = self.work / "setup.log"
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            prepare_inputs(self.inputs, self.workload.commands, self.cfg_seed)
            proc = run_process([sys.executable, "-c", SETUP_PROBE],
                               self.inputs, log, self.time_left())
            t1 = time.perf_counter()
            times.append(t1 - t0)
            ref_s.append(probe.ref_seconds(t0, t1))
            if proc.exit_code != 0:
                text = log.read_text(errors="replace")
                raise RuntimeError(f"import matspec.cli failed:\n{text}")
        return times, ref_s, json.loads(log.read_text(encoding="utf-8").splitlines()[-1])

    def run_pass(self, index: int, traced: bool, probe: SpeedProbe) -> Pass:
        result = Pass(traced)
        pass_dir = self.work / f"pass{index}"
        for cmd in self.workload.commands:
            out = pass_dir / cmd.label
            out.mkdir(parents=True)
            cli_args = [cmd.cli, "--config", str(self.inputs / f"{cmd.label}.json"),
                        "--threads", "1", "--out", str(out)]
            spans_file = pass_dir / f"{cmd.label}.spans.json"
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_file),
                        "--run-id", f"{self.name}:{self.seed}:{index}:{cmd.label}", "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "matspec.cli", *cli_args]
            proc = run_process(argv, self.inputs, pass_dir / f"{cmd.label}.log",
                               self.time_left())
            self.attempted += 1
            self.timed_out |= proc.timed_out
            problems = [] if proc.exit_code == 0 else [f"exit code {proc.exit_code}"]
            problems = problems or check_outputs(cmd, out)
            if traced and not problems:
                doc = json.loads(spans_file.read_text(encoding="utf-8"))
                result.spans.append(doc["spans"])
                # traced time ends when main returns, before the spans are written
                result.walls[cmd.label] = doc["main_end"] - proc.start
            else:
                result.walls[cmd.label] = proc.wall_s
            result.ref_s[cmd.label] = probe.ref_seconds(
                proc.start, proc.start + result.walls[cmd.label])
            result.rss_mb[cmd.label] = proc.rss_mb
            if not problems:
                bodies = csv_bodies(out)
                ref = self.reference.setdefault(cmd.label, bodies)
                if bodies != ref:
                    changed = sorted(k for k in ref.keys() | bodies.keys()
                                     if ref.get(k) != bodies.get(k))
                    problems.append(f"CSV outputs differ from the first pass: {changed}")
            self.failed += bool(problems)
            for p in problems:
                self.failures.append(f"pass {index} {cmd.label}: {p}")
            print(f"pass {index}{' traced' if traced else ''} {cmd.label}: "
                  f"{result.walls[cmd.label]:.3f} s, {proc.rss_mb:.0f} MB"
                  f"{'' if not problems else ' FAILED'}", file=sys.stderr, flush=True)
        shutil.rmtree(pass_dir)
        return result

    def reference_checks(self) -> dict:
        log = self.work / "refcheck.log"
        proc = run_process([sys.executable, str(BENCH / "refcheck.py")],
                           self.inputs, log, self.time_left())
        text = log.read_text(encoding="utf-8", errors="replace")
        try:
            if proc.exit_code != 0:
                raise ValueError(f"exit code {proc.exit_code}")
            doc = json.loads(text.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            self.failures.append(f"refcheck failed ({exc}): {text[-500:]}")
            return {}
        for key in ("alpha_similarity_2d_512", "alpha_kesten_1d"):
            if not _near(doc[key], 1.0):
                self.failures.append(f"{key} = {doc[key]!r}, exact value 1")
        return doc

    def execute(self) -> dict:
        passes: list[Pass] = []
        with SpeedProbe() as probe:
            setup_times, setup_ref_s, versions = self.setup(probe)
            t_loop = time.perf_counter()
            while True:
                passes.append(self.run_pass(len(passes), False, probe))
                if self.timed_out:
                    break
                # start another pass only if at least half of it fits the window
                pass_s = passes[-1].wall_s
                done = time.perf_counter() - t_loop + pass_s / 2 >= self.seconds
                need = pass_s * (2 + (1.5 * TRACED_PASSES if self.trace else 0))
                if len(passes) >= MIN_PASSES and (done or self.time_left() < need):
                    break
            traced = [self.run_pass(len(passes) + i, True, probe)
                      for i in range(TRACED_PASSES if self.trace else 0)]
        refs = self.reference_checks() if self.workload.exact_refs else {}
        # per-command medians: one disturbed command does not move the rest
        untraced_ref_s = sum(statistics.median(p.ref_s[c.label] for p in passes)
                             for c in self.workload.commands)
        if self.trace:
            metrics = self.layer_metrics(traced, untraced_ref_s)
        else:
            metrics = {
                "setup_s": (statistics.median(setup_ref_s), "s"),
                "wall_ref_s": (untraced_ref_s, "s"),
                "peak_rss_mb": (max(max(p.rss_mb.values()) for p in passes), "MB"),
            }
        durations = sorted(d for _, d in probe.samples)
        self.write_record(
            {"s": setup_times, "ref_s": setup_ref_s}, versions, passes + traced, refs,
            metrics, {"samples": len(durations), "ref_task_s": REF_TASK_S,
                      "fastest_hundredth_s": durations[len(durations) // 100],
                      "median_s": statistics.median(durations)})
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def layer_metrics(self, traced: list[Pass], untraced_ref_s: float) -> dict:
        per_pass = [layer_metrics(p.spans) for p in traced
                    if len(p.spans) == len(self.workload.commands)]
        if len(per_pass) != len(traced):
            self.failures.append("a traced pass did not complete")
            per_pass = per_pass or [layer_metrics([])]
        for name in EXACT_COUNTS:
            values = {m[name] for m in per_pass}
            if len(values) > 1:
                self.failures.append(f"trace self-test: {name} differs: {sorted(values)}")
        # counts are whole numbers: take a value one pass measured
        metrics = {
            name: ((statistics.median_low if unit in ("count", "B") else statistics.median)(
                m[name] for m in per_pass), unit)
            for name, (unit, _) in LAYER_METRICS.items() if name in per_pass[0]}
        traced_ref_s = statistics.median(sum(p.ref_s.values()) for p in traced)
        metrics["trace.overhead_frac"] = (traced_ref_s / untraced_ref_s - 1.0, "ratio")
        return metrics

    def write_record(self, setups, versions, passes, refs, metrics, probe) -> None:
        commands = [c.label for c in self.workload.commands]
        record = {
            "workload": self.name,
            "why": self.workload.why,
            "seed": self.seed,
            "config_seed": self.cfg_seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(versions),
            "setup": setups,
            "passes": [{"traced": p.traced, "wall_s": p.walls,
                        "wall_ref_s": p.ref_s, "rss_mb": p.rss_mb}
                       for p in passes],
            "command_median_s": {
                c: statistics.median(p.walls[c] for p in passes if not p.traced)
                for c in commands},
            "command_median_ref_s": {
                c: statistics.median(p.ref_s[c] for p in passes if not p.traced)
                for c in commands},
            "reference_task": probe,
            "reference_checks": refs,
            "metrics": metrics,
            "failures": self.failures,
        }
        self.record_path.parent.mkdir(parents=True, exist_ok=True)
        self.record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
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
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(versions: dict) -> dict:
    return {
        "git_commit": git_commit(),
        **versions,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_pins": {**THREAD_PINS, "matspec --threads": "1"},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="matspec CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "matspec" / "cli.py").is_file():
        print(f"error: no matspec package under {SRC}", file=sys.stderr)
        return 2
    # the probe thread and every child inherit this CPU and these pins
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(THREAD_PINS)
    run = Run(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    try:
        result = run.execute()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"record: {run.record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
