#!/usr/bin/env python3
"""lingalloc benchmark: one workload, measured in a closed loop for a fixed time.

    python3 perfbench/run.py --workload cls_grid --seed 0 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout. The workload's inputs are made from ``--seed``. Set-up runs
five times, and so does an import of numpy and lingalloc in a fresh
interpreter; ``setup_s`` is the sum of the two medians. Measured runs
follow back to back until the next one would end after ``--seconds``.
Meanwhile the machine-speed probe (``perfbench/speed.py``) samples the CPUs
they use, and set-up and run times are reported at its nominal speed; the
raw times are on the ``details`` line. Each run's outputs are checked
against ``perfbench/reference.json`` (when it holds the seed), against the
first run of the process, and against invariants that need no reference.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json;
* ``--trace 1``: untraced runs for two fifths of the time, then the
  benchmark-side tracer (``perfbench/tracer.py``) is installed and one
  set-up plus traced runs fill the rest; the per-layer metrics describe one
  set-up plus one run (the mean of the traced runs), and
  ``trace.overhead_s`` is the traced median run time minus the untraced one,
  both at the probe's nominal speed.

Maintenance: ``--write-reference`` stores the outputs of one run for the
seed (``cls_grid`` then runs serially, so that the reference also checks
that ``--jobs 2`` reproduces serial results byte for byte); ``--tamper``
corrupts every run's outputs before the check, to show that it fails.
"""

import os

BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARIABLES:  # before numpy loads; pool workers inherit it
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
IMPORT_SCRIPT = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                 "import numpy, lingalloc, workloads; print(time.perf_counter() - t)")
UNTRACED_SHARE = 0.4


def parse_args(argv):
    parser = argparse.ArgumentParser(description="lingalloc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    return parser.parse_args(argv)


def import_program() -> float:
    """Import numpy and lingalloc from this checkout's ``src/``; return the seconds taken."""
    src = ROOT / "src"
    if not (src / "lingalloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no lingalloc sources under {src}; "
                         "run from the root of a lingalloc checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import lingalloc
    import workloads  # noqa: F401  (imports every lingalloc layer)
    elapsed = time.perf_counter() - start
    if Path(lingalloc.__file__).resolve().parent != (src / "lingalloc").resolve():
        raise SystemExit(f"error: lingalloc was imported from {lingalloc.__file__}, not {src}")
    return elapsed


def import_times(repeats: int) -> list[float]:
    """Seconds to import numpy and lingalloc, each time in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        child = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT, str(ROOT / "src"), str(HERE)],
                               capture_output=True, text=True, check=True, timeout=60)
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def machine_context(args, load_at_start) -> dict:
    import numpy
    from workloads import digest

    sources = sorted((ROOT / "src" / "lingalloc").glob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_digest": digest(b"".join(p.name.encode() + p.read_bytes() for p in sources)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "blas_threads": BLAS_THREADS,
        "blas_variables": list(BLAS_VARIABLES),
    }


def cpu_seconds() -> float:
    """User+system CPU of this process and of its finished, waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def mismatches(summary: dict, expected: dict) -> set:
    """Operations whose outputs differ from `expected`; all of them if a global figure does."""
    ops, want = summary["ops"], expected["ops"]
    keys = set(ops) | set(want)
    if (not _close(summary["quality"], expected["quality"])
            or not _close(summary["score_sum"], expected["score_sum"])
            or summary.get("results_digest") != expected.get("results_digest")):
        return keys
    return {k for k in keys if ops.get(k) != want.get(k)}


class Checker:
    """Counts attempted and failed operations over the runs of one process."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.quality = None

    def run_failed(self, exc: BaseException) -> None:
        traceback.print_exception(exc, file=sys.stderr)
        self.attempted += self.workload.ops_per_run
        self.failed += self.workload.ops_per_run

    def check(self, outputs, tamper: bool) -> None:
        if tamper:
            self.workload.tamper(outputs)
        summary, problems = self.workload.summarize(outputs)
        bad = set(summary["ops"]) if problems else set()
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        for name, expected in (("reference", self.reference), ("first run", self.first)):
            if expected is not None:
                differ = mismatches(summary, expected)
                if differ:
                    print(f"check failed: {len(differ)} operation(s) differ from the {name}: "
                          f"{', '.join(sorted(differ)[:5])}", file=sys.stderr)
                bad |= differ
        if self.first is None:
            self.first = summary
            self.quality = summary["quality"]
        self.attempted += self.workload.ops_per_run
        self.failed += min(len(bad), self.workload.ops_per_run)


class Runs:
    """Wall and CPU seconds of measured runs, and the probe's slowdown during each."""

    def __init__(self):
        self.walls, self.cpus, self.spans, self.slowdowns = [], [], [], []

    def add(self, wall: float, cpu: float, start: float, end: float) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.spans.append((start, end))

    def scale_by(self, probe) -> None:
        self.slowdowns = [probe.slowdown(start, end) for start, end in self.spans]

    def wall_s(self) -> float:
        return statistics.median(w / k for w, k in zip(self.walls, self.slowdowns))

    def cpu_s(self) -> float:
        return statistics.median(c / k for c, k in zip(self.cpus, self.slowdowns))

    def details(self, prefix: str) -> dict:
        return {f"{prefix}runs": len(self.walls), f"{prefix}walls_s": self.walls,
                f"{prefix}cpus_s": self.cpus, f"{prefix}slowdowns": self.slowdowns}


def measured_runs(workload, checker, seconds: float, tamper: bool, after_run=None) -> Runs:
    """Back-to-back runs until the next would end after `seconds`; at least one."""
    runs = Runs()
    start = time.monotonic()
    while True:
        cpu0 = cpu_seconds()
        t0 = time.monotonic()
        try:
            outputs = workload.run()
        except Exception as exc:  # noqa: BLE001 - a failing run is counted, not fatal
            outputs = None
            checker.run_failed(exc)
        t1 = time.monotonic()
        runs.add(t1 - t0, cpu_seconds() - cpu0, t0, t1)
        if after_run is not None:
            after_run()
        if outputs is not None:
            try:
                checker.check(outputs, tamper)
            except Exception as exc:  # noqa: BLE001 - unreadable outputs are a failure
                checker.run_failed(exc)
        if time.monotonic() - start + statistics.median(runs.walls) > seconds:
            return runs


@contextlib.contextmanager
def probed(workload, work: Path):
    """The speed probe on the CPUs `workload` runs on, for the duration of the block.

    A workload without a pool runs pinned to one CPU for the block, the one
    the probe samples; a pool's workers are forked from this process and use every CPU
    it may, so the probe samples those in turn.
    """
    from speed import SpeedProbe

    cpus = sorted(os.sched_getaffinity(0))
    used = cpus if getattr(workload, "jobs", 1) > 1 else cpus[:1]
    with SpeedProbe(work / "speed.txt", used) as probe:
        os.sched_setaffinity(0, used)
        try:
            yield probe
        finally:
            os.sched_setaffinity(0, cpus)


def timed_setups(workload, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def load_reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def write_reference(workload, name: str, seed: int) -> int:
    workload.setup()
    summary, problems = workload.summarize(workload.run())
    if problems:
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table.setdefault(name, {})[str(seed)] = summary
    REFERENCE.write_text(format_reference(table))
    print(f"reference stored for {name} seed {seed}: quality {summary['quality']!r}")
    return 0


def format_reference(table: dict) -> str:
    """JSON with one line per (workload, seed), seeds in numeric order."""
    blocks = []
    for name in sorted(table):
        seeds = sorted(table[name], key=int)
        rows = [f"  {json.dumps(s)}: {json.dumps(table[name][s], sort_keys=True)}" for s in seeds]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def emit(context: dict, checker, metrics: dict, units: dict, details: dict) -> None:
    correct = checker.failed == 0 and checker.attempted > 0
    print("context " + json.dumps(context, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    verdict = "outputs match" if correct else "OUTPUTS WRONG"
    print(f"{context['workload']} seed {context['seed']}: {verdict} "
          f"({checker.failed} of {checker.attempted} operations failed)")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    import_s = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(WORKLOADS[args.workload](args.seed, work, jobs=1),
                                   args.workload, args.seed)
        workload = WORKLOADS[args.workload](args.seed, work)
        checker = Checker(workload, load_reference(args.workload, args.seed))
        context = machine_context(args, load_at_start)
        context["reference"] = "stored" if checker.reference is not None else "none for this seed"
        if args.trace:
            return trace_run(args, workload, checker, context, work)
        with probed(workload, work) as probe:
            setup_start = time.monotonic()
            imports = import_times(SETUP_REPEATS)
            setups = timed_setups(workload, SETUP_REPEATS)
            setup_end = time.monotonic()
            runs = measured_runs(workload, checker, args.seconds, args.tamper)
        runs.scale_by(probe)
        setup_slowdown = probe.slowdown(setup_start, setup_end)
        raw_setup_s = statistics.median(imports) + statistics.median(setups)
        metrics = {
            "run_s": runs.wall_s(),
            "cpu_s": runs.cpu_s(),
            "setup_s": raw_setup_s / setup_slowdown,
            "peak_rss_mb": peak_rss_mb(),
            "quality": checker.quality if checker.quality is not None else 0.0,
            "ok_frac": 1.0 - checker.failed / max(1, checker.attempted),
        }
        units = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                 "quality": "ratio", "ok_frac": "ratio"}
        details = {**runs.details(""), "raw_run_s": statistics.median(runs.walls),
                   "probe_samples": len(probe.samples), "import_s": import_s,
                   "imports_s": imports, "setups_s": setups, "raw_setup_s": raw_setup_s,
                   "setup_slowdown": setup_slowdown}
        emit(context, checker, metrics, units, details)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()


def trace_run(args, workload, checker, context, work) -> int:
    from tracer import PER_LAYER, Aggregate, Tracer, per_layer_metrics

    workload.setup()
    start = time.monotonic()
    with probed(workload, work) as probe:
        plain = measured_runs(workload, checker, UNTRACED_SHARE * args.seconds, args.tamper)
    plain.scale_by(probe)
    tracer = Tracer(work)
    tracer.install()
    remaining = args.seconds - (time.monotonic() - start)
    workload.setup()
    setup_part, _ = tracer.end_run()
    runs = Aggregate()
    cells = []

    def gather():
        part, gathered = tracer.end_run()
        runs.merge(part)
        cells.append(gathered)

    with probed(workload, work) as probe:
        traced = measured_runs(workload, checker, remaining, args.tamper, after_run=gather)
    traced.scale_by(probe)
    overhead = traced.wall_s() - plain.wall_s()
    metrics = per_layer_metrics(setup_part, runs, len(traced.walls), getattr(workload, "jobs", 1),
                                overhead)
    units = {name: unit for name, unit, _ in PER_LAYER}
    details = {**plain.details("untraced_"), **traced.details("traced_"),
               "worker_cells_gathered": cells, "spans": len(setup_part.spans) + len(runs.spans)}
    emit(context, checker, metrics, units, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
