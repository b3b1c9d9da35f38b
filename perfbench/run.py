"""arithdt benchmark: seeded streams of real `arithdt` CLI jobs.

Run from the root of an arithdt checkout:

    python3 perfbench/run.py --workload dt-series --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One client runs the jobs one at a time (closed loop).  Every job is a fresh
process, because a CLI user pays interpreter start, import, compute and JSON
output on each call.  The run repeats whole passes of its workload's job list
(jobs.py) for about --seconds and at least 40 jobs, then checks every output
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.

With --trace 1 the first pass is replayed in this process through
arithdt.cli.dispatch four times: plain, twice with every module's entry
points wrapped (tracer.py), and plain again.  The per-layer metrics are
reported instead, and the spans of the first traced replay are written to
.perfbench-spans/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as jobmod  # noqa: E402

DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = ".perfbench-spans"  # traced runs write their spans here
MIN_JOBS = 40
SETUP_SPAWNS = 5  # before the first job, then one after every SETUP_EVERY jobs
SETUP_EVERY = 4
JOB_CAP_S = 60.0
END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p75": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# The speed of one CPU of a shared machine can change twofold from one
# quarter hour to the next, far more than any regression bound.  So a run also
# times a fixed pure-Python loop in this process before every job and set-up
# spawn, and reports its times scaled to a machine on which the loop takes
# CALIBRATION_S seconds on average.  The unscaled values are printed too.
CALIBRATION_S = 0.01


def calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop that touches no arithdt code."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(40000):
        d[i % 1009] = d.get(i % 1009, 0) + i * i
    return time.perf_counter() - start


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def find_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "arithdt", "cli.py")):
        raise BenchmarkError(f"no arithdt sources under {src}; run from the root of a checkout")
    return src


def launcher(root: str, src: str) -> tuple[list[str], dict[str, str], str]:
    """Command prefix and environment that start `arithdt` from this checkout.

    The installed console script is used only when it imports this
    checkout's package; otherwise the CLI is started through the
    interpreter with PYTHONPATH=src, since arithdt has no __main__ module.
    """
    env = dict(os.environ)
    script = shutil.which("arithdt")
    interpreter = _shebang(script) if script else None
    if interpreter:
        where = subprocess.run(
            [interpreter, "-c", "import arithdt; print(arithdt.__file__)"],
            capture_output=True, text=True, timeout=60, env=env, cwd=root,
        )
        path = os.path.realpath(where.stdout.strip())
        if where.returncode == 0 and path.startswith(os.path.realpath(src) + os.sep):
            return [script], env, f"console script {script}"
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-c", "from arithdt.cli import main; main()"]
    return cmd, env, "python -c 'from arithdt.cli import main; main()' with PYTHONPATH=src"


def _shebang(script: str) -> str | None:
    try:
        with open(script, "rb") as fh:
            line = fh.readline().decode("utf-8", "replace").strip()
    except OSError:
        return None
    return line[2:].split()[0] if line.startswith("#!") else None


def git_revision(root: str) -> str:
    """HEAD read from .git without running git (the checkout may not be a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_record(root: str, how: str) -> dict:
    return {
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "launcher": how,
        "loop": "closed, 1 client, one process per job",
    }


# -- timed run ------------------------------------------------------------------


class Spawner:
    """Runs job processes through spawner.py, which says why it exists."""

    def __init__(self, env: dict, workdir: str):
        self.workdir = workdir
        self.calibrations: list[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=workdir, text=True)

    def run(self, argv: list[str], cap: float = JOB_CAP_S) -> tuple[float, float, int, int, bool, str]:
        """Wall time from spawn to exit, CPU, max-RSS (KiB), exit code, killed at cap, stdout."""
        self.calibrations.append(calibration_loop())
        out_path = os.path.join(self.workdir, "stdout")
        request = {"argv": argv, "cwd": self.workdir, "stdout": out_path, "cap": cap}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchmarkError("the job spawner exited")
        r = json.loads(reply)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return r["wall"], r["cpu"], r["maxrss_kb"], r["exit_code"], r["timed_out"], stdout

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_CAP_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_spawn(cmd: list[str], spawner: Spawner) -> float:
    """Wall time of `arithdt --version`: interpreter start plus every import."""
    wall, _, _, code, _, _ = spawner.run(cmd + ["--version"])
    if code != 0:
        raise BenchmarkError("`arithdt --version` failed")
    return wall


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def judge(job, exit_code: int, timed_out: bool, stdout: str, digests: dict) -> str | None:
    """Why a job failed, or None when it exited 0 with the right answer."""
    if timed_out:
        return f"killed at the {JOB_CAP_S:.0f} s cap"
    if exit_code != 0:
        return f"exit code {exit_code}"
    problem = job.check(stdout)
    if problem:
        return problem
    want = digests.get(job.key)
    if want is not None:
        try:
            got = jobmod.output_digest(job.argv, stdout)
        except ValueError as exc:
            return f"unreadable output: {exc}"
        if got != want:
            return "output differs from the recorded digest"
    return None


def timed_run(workload: str, seed: int, seconds: float, cmd, spawner: Spawner, workdir: str):
    digests = load_digests()
    # set-up spawns are spread over the run, so that their median sees the
    # same machine as the jobs do; they are not counted in any pass
    setups = [setup_spawn(cmd, spawner) for _ in range(SETUP_SPAWNS)]
    walls, failures, pass_cpus, pass_rates = [], [], [], []
    peak_kb = 0
    began = time.perf_counter()
    for jobs in jobmod.passes(workload, seed):
        for job in jobs:
            job.write_files(workdir)
        busy = cpu = 0.0
        for index, job in enumerate(jobs):
            wall, used, rss, code, timed_out, stdout = spawner.run(cmd + job.resolved_argv(workdir))
            why = judge(job, code, timed_out, stdout, digests)
            if why:
                failures.append((job, why))
            walls.append(wall)
            busy += wall
            cpu += used
            peak_kb = max(peak_kb, rss)
            if index % SETUP_EVERY == SETUP_EVERY - 1:
                setups.append(setup_spawn(cmd, spawner))
        pass_cpus.append(cpu)
        pass_rates.append(len(jobs) / busy)
        # whole passes only: stop once another pass would end past the
        # deadline by more than half a pass
        elapsed = time.perf_counter() - began
        if len(walls) >= MIN_JOBS and elapsed + busy / 2 >= seconds:
            break

    quartiles = statistics.quantiles(walls, n=4)
    raw = {
        "jobs_per_s": statistics.median(pass_rates),
        "job_s.p50": quartiles[1],
        "job_s.p75": quartiles[2],
        "cpu_s": statistics.median(pass_cpus),
        "setup_s": statistics.median(setups),
    }
    calibration_s = statistics.mean(spawner.calibrations)
    scale = CALIBRATION_S / calibration_s
    metrics = {name: value / scale if name == "jobs_per_s" else value * scale
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = peak_kb / 1024
    metrics["ok_ratio"] = (len(walls) - len(failures)) / len(walls)
    notes = {"passes": len(pass_rates), "jobs": len(walls), "setup_spawns": len(setups),
             "wall_s": round(time.perf_counter() - began, 3), "calibration_s": calibration_s,
             "unscaled": raw}
    return metrics, len(walls), failures, [], notes


# -- traced run ---------------------------------------------------------------------


def replay(dispatch, jobs, workdir: str, calibrations: list[float]) -> tuple[float, list[tuple], int]:
    """Run each job in this process, timing the calibration loop before each.

    Returns the wall time of the jobs alone, (job, code, stdout) per job, and
    the bytes written to stdout.
    """
    outcomes = []
    out_bytes = 0
    busy = 0.0
    for job in jobs:
        calibrations.append(calibration_loop())
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = dispatch(job.resolved_argv(workdir))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        busy += time.perf_counter() - start
        text = buffer.getvalue()
        out_bytes += len(text.encode())
        outcomes.append((job, code, text))
    return busy, outcomes, out_bytes


def traced_run(workload: str, seed: int, src: str, workdir: str, spans_dir: str):
    sys.path.insert(0, src)
    import arithdt.cli as cli  # noqa: E402
    import tracer as tracemod  # noqa: E402

    jobs = jobmod.first_passes(workload, seed, 1)[0]
    for job in jobs:
        job.write_files(workdir)
    calibrations: list[float] = []
    # plain, traced, traced, plain: the overhead ratio is not skewed by a
    # machine that speeds up or slows down steadily during the run
    plain = [replay(cli.dispatch, jobs, workdir, calibrations)]

    tr = tracemod.Tracer()
    tr.install()
    try:
        runs = []
        for _ in range(2):
            tr.reset()
            wall, traced_outcomes, out_bytes = replay(cli.dispatch, jobs, workdir, calibrations)
            tr.counters["cli.out_bytes"] = out_bytes
            runs.append((wall, tr.metrics(), tr.deterministic(), traced_outcomes))
            if len(runs) == 1:
                os.makedirs(spans_dir, exist_ok=True)
                tr.write_spans(os.path.join(spans_dir, f"{workload}-seed{seed}.tsv"))
    finally:
        tr.uninstall()
    plain.append(replay(cli.dispatch, jobs, workdir, calibrations))

    digests = load_digests()
    failures = []
    for outcomes in [p[1] for p in plain] + [r[3] for r in runs]:
        for job, code, text in outcomes:
            why = judge(job, code, False, text, digests)
            if why:
                failures.append((job, why))
    problems = []
    if runs[0][2] != runs[1][2]:
        diff = sorted(k for k in runs[0][2] if runs[0][2][k] != runs[1][2][k])
        problems.append(f"deterministic counts differ between traced runs: {diff}")
    scale = CALIBRATION_S / statistics.mean(calibrations)
    metrics = {name: value * scale if name.endswith((".s", ".self_s")) else value
               for name, value in runs[0][1].items()}
    plain_s = [p[0] for p in plain]
    metrics["trace.overhead_ratio"] = sum(w for w, *_ in runs) / sum(plain_s)
    notes = {"jobs": len(jobs), "plain_s": [round(w, 3) for w in plain_s],
             "traced_s": [round(w, 3) for w, *_ in runs], "calibration_s": statistics.mean(calibrations)}
    return metrics, 4 * len(jobs), failures, problems, notes


# -- entry point --------------------------------------------------------------------


def per_layer_units() -> dict[str, str]:
    import tracer as tracemod

    units = {}
    for name in tracemod.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in tracemod.COUNTER_NAMES:
        units[name] = "bytes" if name == "cli.out_bytes" else ("bits" if "bits" in name else "count")
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_one(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    src = find_source(root)
    cmd, env, how = launcher(root, src)
    print(json.dumps({"environment": environment_record(root, how)}, sort_keys=True))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        if trace:
            metrics, attempted, failures, problems, notes = traced_run(
                workload, seed, src, workdir, os.path.join(root, SPANS_DIR))
            units = per_layer_units()
        else:
            with Spawner(env, workdir) as spawner:
                metrics, attempted, failures, problems, notes = timed_run(
                    workload, seed, seconds, cmd, spawner, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for job, why in failures:
        print(f"FAILED {job.label} {' '.join(job.argv)}: {why}")
    for why in problems:
        print(f"FAILED {why}")
    print(json.dumps({"workload": workload, "seed": seed, **notes}, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload:10s} {name:38s} {value:14.6f} {units[name]}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobmod.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    workloads = jobmod.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_one(w, args.seed, args.seconds, bool(args.trace), root) for w in workloads]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
