"""permpat benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...

NAME is verify-serial, verify-parallel, count-adhoc or enumerate-stream.
Every job runs in a fresh Python process, because the package keeps
module-level caches for the life of a process: a second job in one process
would read cached counts back, while a command-line user pays the uncached
cost on every call.  Jobs run through perfbench/child.py, which calls the
package's command line as `python -m permpat` does and reports its peak RSS.
The package is run from ./src of the checkout; nothing is installed.

--trace 0 repeats the workload's round (its set of jobs) until the next
round would end after --seconds, and prints the end-to-end metrics as
medians over rounds.  --trace 1 runs one untraced and one traced round and
prints the per-layer metrics.  The last line of stdout is the JSON result.

End-to-end times are in reference seconds.  The speed of a shared host
drifts by a third within minutes, and wall and CPU time drift with it, so
while each job runs the benchmark times a fixed pure-Python probe every
PROBE_EVERY_S in its own process, by CPU time, and scales the job's times by
REF_PROBE_S over the probe's mean time.  A job's time in reference seconds is
its time on a host where the probe takes REF_PROBE_S.  A single-process job
and the probe share one CPU, so that the probe sees the speed the job gets;
the verify pool's jobs keep every CPU.  The measured seconds are printed
beside the reference ones and kept in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
TMP = ROOT / ".perfbench_tmp"
PYTHON = sys.executable
RUN_DEADLINE_S = 170.0
SETUP_RUNS = 10
PROBE_EVERY_S = 0.1
# About the probe's time on the 2-core host the baselines in README.md come
# from, when that host is not slowed by its neighbours.
REF_PROBE_S = 0.0035

WORKLOADS = ("verify-serial", "verify-parallel", "count-adhoc", "enumerate-stream")
CLAIMS = ("theorem1", "corollary_interval", "corollary_base_constant",
          "corollary2", "corollary2_onset", "theorem3", "theorem3_complement",
          "theorem4", "catalan", "noonan", "bona", "robertson_single",
          "robertson_both")
VERIFY_ARGS = ["verify", "--claims", "all", "--n-max", "9", "--format", "json"]


def speed_probe() -> float:
    """CPU seconds of a fixed piece of interpreter work: calls, tuples, a
    dict and a sort, like the package's own inner loops."""
    table: dict[int, int] = {}
    start = time.thread_time()
    for i in range(6000):
        k = (i * 7) % 97
        table[k] = table.get(k, 0) + len((i, k, i ^ k))
        sorted((k, i % 13, 5))
    return time.thread_time() - start


@dataclass
class Proc:
    """One finished job.  Times are measured seconds; `scale` turns them
    into reference seconds."""
    wall: float
    cpu: float
    rss_mb: float
    first_s: float
    out: bytes
    code: int
    scale: float = 1.0


@dataclass
class Round:
    """Sums over one round's jobs, in reference seconds, and the measured
    wall seconds."""
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    first_s: float = 0.0
    measured_wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    span_files: list[Path] = field(default_factory=list)
    records: list[dict] | None = None

    def add(self, proc: Proc) -> None:
        self.wall += proc.wall * proc.scale
        self.cpu += proc.cpu * proc.scale
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        self.first_s += proc.first_s * proc.scale
        self.measured_wall += proc.wall


class Runner:
    """Launches child processes with a shared deadline and unique file names."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.serial = 0
        self.cpus = os.sched_getaffinity(0)
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")

    def path(self, stem: str, suffix: str) -> Path:
        self.serial += 1
        return TMP / f"{stem}-{os.getpid()}-{self.serial}{suffix}"

    def launch(self, argv: list[str], pin: bool = True,
               rss_file: Path | None = None) -> Proc:
        """Run argv to completion.  Time to the first stdout line and wall
        time come from the launch clock; CPU time of the whole process tree
        from wait4(); peak RSS from rss_file, where child.py writes it.
        Between reads of the child's stdout the host's speed is probed every
        PROBE_EVERY_S.  With `pin`, this process and the child share the
        last CPU of the affinity."""
        err_path = self.path("stderr", ".txt")
        if pin:
            os.sched_setaffinity(0, {max(self.cpus)})
        try:
            return self._launch(argv, err_path, rss_file)
        finally:
            os.sched_setaffinity(0, self.cpus)

    def _launch(self, argv: list[str], err_path: Path, rss_file: Path | None) -> Proc:
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            reaped = False
            try:
                out, first_s, probes = self._watch(proc, start)
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
                wall = time.perf_counter() - start
            finally:
                proc.stdout.close()
                if not reaped:
                    proc.kill()
                    proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace")[-2000:]
            print(f"child {argv[1:4]} exited {proc.returncode}: {tail}",
                  file=sys.stderr)
        err_path.unlink()
        rss_mb = 0.0
        if rss_file is not None and rss_file.exists():
            rss_mb = int(rss_file.read_text()) / 1024.0
            rss_file.unlink()
        return Proc(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                    rss_mb=rss_mb, first_s=first_s,
                    out=out, code=proc.returncode,
                    scale=REF_PROBE_S * len(probes) / sum(probes))

    def _watch(self, proc: subprocess.Popen, start: float
               ) -> tuple[bytes, float, list[float]]:
        """Read the child's stdout to its end and probe the host's speed
        until the child exits; kill the child at the run's deadline."""
        fd = proc.stdout.fileno()
        chunks: list[bytes] = []
        first_s = None
        probes = [speed_probe()]
        due = time.perf_counter() + PROBE_EVERY_S
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            reading = True
            while reading or os.waitid(os.P_PID, proc.pid,
                                       os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                if time.monotonic() > self.deadline:
                    proc.kill()
                wait = max(0.0, due - time.perf_counter())
                if reading:
                    for _ in selector.select(timeout=wait):
                        data = os.read(fd, 1 << 16)
                        if not data:
                            reading = False
                            break
                        chunks.append(data)
                        if first_s is None and b"\n" in data:
                            first_s = time.perf_counter() - start
                else:
                    time.sleep(wait)
                if time.perf_counter() >= due:
                    probes.append(speed_probe())
                    due = time.perf_counter() + PROBE_EVERY_S
        if first_s is None:
            first_s = time.perf_counter() - start
        return b"".join(chunks), first_s, probes

    def job(self, mode_args: list[str], rnd: Round, traced: bool,
            pin: bool = True) -> Proc:
        """Run `child.py MODE ARGS`, traced or not."""
        rss = self.path("rss", ".txt")
        argv = [PYTHON, str(CHILD), "--rss", str(rss)]
        if traced:
            spans = self.path("spans", ".json")
            rnd.span_files.append(spans)
            argv += ["--spans", str(spans)]
        return self.launch(argv + mode_args, pin, rss)


# ---------------------------------------------------------------------------
# One round per workload
# ---------------------------------------------------------------------------

def verify_round(runner: Runner, seed: int, traced: bool, parallel: bool) -> Round:
    """The paper's fixed grid; the seed does not change it."""
    rnd = Round(attempted=checks.VERIFY_RECORDS)
    report = runner.path("report", ".json")
    args = VERIFY_ARGS + ["--out", str(report)] + (["--parallel"] if parallel else [])
    proc = runner.job(["cli", *args], rnd, traced, pin=not parallel)
    rnd.add(proc)
    records = json.loads(report.read_text()) if report.exists() else None
    report.unlink(missing_ok=True)
    rnd.records = records
    rnd.failed, rnd.problems = checks.check_verify_report(records)
    if proc.code != 0:
        rnd.problems.append(f"verify exited {proc.code}")
        rnd.failed = max(rnd.failed, 1)
    return rnd


def count_round(runner: Runner, seed: int, traced: bool) -> Round:
    queries = checks.draw_adhoc_queries(seed)
    rnd = Round(attempted=len(queries))
    texts = [f"{n}:{','.join(patterns)}" for patterns, n in queries]
    proc = runner.job(["count", *texts], rnd, traced)
    rnd.add(proc)
    printed = {}
    for line in proc.out.decode(errors="replace").splitlines():
        text, _, value = line.partition(" ")
        if value.isdigit():
            printed[text] = int(value)
    for text, (patterns, n) in zip(texts, queries):
        problems = checks.check_count(patterns, n, printed.get(text))
        rnd.failed += bool(problems)
        rnd.problems += problems
    if proc.code != 0 and not rnd.failed:
        rnd.problems.append(f"count job exited {proc.code}")
        rnd.failed = 1
    return rnd


def enumerate_round(runner: Runner, seed: int, traced: bool) -> Round:
    queries = checks.draw_enumerate_queries(seed)
    rnd = Round(attempted=len(queries))
    for expr, n in queries:
        proc = runner.job(["cli", "enumerate", "--set", expr, "-n", str(n)], rnd, traced)
        rnd.add(proc)
        problems = checks.check_stream(proc.out, n,
                                       checks.expected_stream_length(expr, n),
                                       checks.STREAM_DIGESTS[(expr, n)])
        if proc.code != 0:
            problems.append(f"exit code {proc.code}")
        rnd.failed += bool(problems)
        rnd.problems += [f"{expr} n={n}: {p}" for p in problems]
    return rnd


ROUNDS = {
    "verify-serial": lambda r, s, t: verify_round(r, s, t, parallel=False),
    "verify-parallel": lambda r, s, t: verify_round(r, s, t, parallel=True),
    "count-adhoc": count_round,
    "enumerate-stream": enumerate_round,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def setup_runs(runner: Runner, count: int) -> list[Proc]:
    """Runs of `python -c "import permpat"`: interpreter start plus the
    package import, with nothing else."""
    return [runner.launch([PYTHON, "-c", "import permpat"]) for _ in range(count)]


def end_to_end_metrics(rounds: list[Round], setup_s: float) -> dict:
    def med(attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in rounds)

    return {
        "wall_s": (med("wall"), "s"),
        "cpu_s": (med("cpu"), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r.rss_mb for r in rounds), "MB"),
        "first_item_s": (med("first_s"), "s"),
    }


def _merge_spans(files: list[Path]) -> tuple[dict, dict]:
    totals: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for path in files:
        data = json.loads(path.read_text())
        path.unlink()
        for name, (calls, total, self_ns) in data["totals"].items():
            acc = totals.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_ns
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return totals, counts


def per_layer_metrics(workload: str, base: Round, traced: Round) -> dict:
    """Per-layer metrics from the traced round.  `.s` is self time, except
    verify.claim.*.s, which is the claim's whole time.  On verify-parallel
    the layers below verify run in pool workers, whose spans are not
    collected: claim times come from the report's ms fields there."""
    totals, counts = _merge_spans(traced.span_files)

    def self_s(name: str) -> float:
        return totals.get(name, [0, 0, 0])[2] / 1e9

    def calls(name: str) -> int:
        return counts.get(name + ".calls", 0)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    parallel = workload == "verify-parallel"
    for claim in CLAIMS:
        if parallel:
            value = sum(r["ms"] for r in traced.records or [] if r["claim"] == claim) / 1000
        else:
            value = totals.get("verify.claim." + claim, [0, 0, 0])[1] / 1e9
        m[f"verify.claim.{claim}.s"] = (value, "s")
    m["verify.records"] = (len(traced.records or []), "count")
    m["verify.write_report.s"] = (self_s("verify.write_report"), "s")
    m["formulas.s"] = (self_s("formulas"), "s")
    workers = os.cpu_count() or 1
    m["verify.pool.utilization"] = (
        ratio(base.cpu, base.wall * workers) if parallel else 0.0, "ratio")
    for layer in ("walk_family", "walk_exactly_once", "walk_generic", "scan"):
        m[f"enumeration.{layer}.s"] = (self_s("enumeration." + layer), "s")
        m[f"enumeration.{layer}.calls"] = (calls("enumeration." + layer), "count")
    m["enumeration.repeat_ratio"] = (
        ratio(counts.get("entry.repeats", 0), counts.get("entry.calls", 0)), "ratio")
    m["enumeration.enumerate.s"] = (self_s("enumeration.enumerate"), "s")
    m["enumeration.enumerate.items"] = (counts.get("enumeration.enumerate.items", 0), "count")
    for layer in ("avoids_all", "contains_exactly_once"):
        m[f"families.{layer}.s"] = (self_s("families." + layer), "s")
        m[f"families.{layer}.calls"] = (calls("families." + layer), "count")
    m["core.pinned.calls"] = (calls("core.pinned"), "count")
    m["core.pinned.reject_ratio"] = (
        ratio(counts.get("core.pinned.found", 0), calls("core.pinned")), "ratio")
    m["core.pinned.s"] = (self_s("core.pinned"), "s")
    for layer in ("count_occurrences", "Permutation"):
        m[f"core.{layer}.s"] = (self_s("core." + layer), "s")
        m[f"core.{layer}.calls"] = (calls("core." + layer), "count")
    m["cli.self_s"] = (self_s("cli"), "s")
    m["trace.overhead_ratio"] = (ratio(traced.wall, base.wall), "ratio")
    return m


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def environment() -> dict:
    """CPU facts recorded with every result.  The verify pool starts
    os.cpu_count() workers, so a count above the cores this process may run
    on (its affinity) oversubscribes them."""
    affinity = sorted(os.sched_getaffinity(0))
    nproc = None
    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   check=True).stdout)
    return {"nproc": nproc, "os_cpu_count": os.cpu_count(), "affinity": affinity,
            "oversubscribed": (os.cpu_count() or 1) > len(affinity),
            "python": sys.version.split()[0]}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner()
    run_round = ROUNDS[workload]
    if trace:
        base = run_round(runner, seed, False)
        traced = run_round(runner, seed, True)
        rounds = [base, traced]
        metrics = per_layer_metrics(workload, base, traced)
    else:
        # One warm-up start may compile bytecode.  Half the setup runs come
        # before the rounds and half after, so that they sample the
        # machine's speed at both ends of the run.
        setup_runs(runner, 1)
        setup = setup_runs(runner, SETUP_RUNS // 2)
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(runner, seed, False))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
        setup += setup_runs(runner, SETUP_RUNS - len(setup))
        metrics = end_to_end_metrics(rounds, statistics.median(p.wall * p.scale for p in setup))
        print(f"{workload:17} measured seconds: wall_s "
              f"{statistics.median(r.measured_wall for r in rounds):.6f}, setup_s "
              f"{statistics.median(p.wall for p in setup):.6f}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"{workload}: CHECK FAILED: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:17} {name:42} {value:14.6f} {unit}")
    print(f"{workload:17} {'fail_ratio':42} {failed / attempted:14.6f} ratio "
          f"({failed}/{attempted}, {len(rounds)} rounds)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "round_wall_s": [r.wall for r in rounds],
            "round_measured_wall_s": [r.measured_wall for r in rounds],
            "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the count-adhoc and enumerate-stream queries; "
                             "the verify workloads run the paper's fixed grid")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permpat" / "__init__.py").is_file():
        print(f"permpat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env))
    if env["oversubscribed"]:
        print("WARNING: os.cpu_count() exceeds the usable cores; the verify "
              "pool starts more workers than there are cores", file=sys.stderr)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    log = TMP / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({"environment": env, "results": results}, indent=1))
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
