"""ycalc benchmark: times CLI calls in fresh interpreters and checks every output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call runs `ycalc.cli.main` in a new child interpreter (perfbench/child.py),
so module caches start empty, as they do for a user's CLI call.  Bytecode is
compiled before any timing, so caches are cold and bytecode is warm.  The load
is a closed loop with one caller: the next call starts when the last ends.

With --trace 0 the run repeats the workload's call while another one fits in
S seconds (at least once; twice for the sampler, so both of its outputs are
checked) and reports the end-to-end metrics of BENCHMARK.json as medians over
the calls.  The host's cores change speed every few seconds, so a call's time
is reported in units of a reference loop (perfbench/reference.py) that runs
beside it on the same core for the whole run: `wall_ref` and `cpu_ref` are the
call's wall and CPU time divided by the loop's CPU time over the call's
interval, and `items_per_ref` is work per such unit.  The raw seconds are
printed too.  Everything runs pinned to one core.  `setup_s` is the median
time from interpreter start until `ycalc.cli` is imported, over import-only
probe interpreters run in batches before the first call and after each call;
each batch is scaled by the same loop to the host speed at which one loop
takes `reference.LOOP_CPU_S` of CPU, so it stays in seconds (the raw median
is printed as `setup_raw_s`).  With --trace 1 the run makes one untraced call
and one call under the span tracer (perfbench/spans.py), requires
byte-identical output, and reports the per-layer metrics plus the tracing
overhead.

Workloads (why each was chosen is in BENCHMARK.json):
  verify-all    verify --all --format json at the catalog defaults; the seed
                does not change it.
  sample-1step  growth sample, alpha 1, 1 step, 1e5 paths from shape 4,2,1.
  sample-walk   growth sample, alpha 1/2, 20 steps, 2e4 paths from the empty
                shape.
The sampler's --seed is derived from the benchmark seed and the call index.

The last line of stdout is the JSON result; the lines before it start with
"#" and give the run's metadata, each call, every metric with its unit, and
the error rate (failed checks over attempted checks).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
CHILD = BENCH_DIR / "child.py"
SETUP_PROBES = 5  # import-only interpreters before the first call and after each call
RUN_DEADLINE_S = 170.0


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the child's import
    # timestamp can be compared with the parent's spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    items: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, holds: bool, problem: str) -> None:
        self.attempted += 1
        if not holds:
            self.failed += 1
            self.problems.append(problem)


@dataclass
class VerifyAll:
    """`verify --all --format json`; one check per catalog job."""

    jobs: dict  # identity -> {"status": ..., "cases": ...}
    extra_args: tuple = ()
    min_calls = 1

    def argv(self, seed: int, index: int) -> list[str]:
        return ["verify", "--all", "--format", "json", *self.extra_args]

    def check(self, code: int, out: bytes, argv: list[str]) -> Check:
        result = Check()
        try:
            reports = {r["identity"]: r for r in json.loads(out)}
        except (ValueError, TypeError, KeyError):
            reports = {}
        for identity, want in self.jobs.items():
            got = reports.get(identity, {})
            result.expect(
                code == 0 and got.get("status") == want["status"] and got.get("cases") == want["cases"],
                f"{identity}: exit {code}, status {got.get('status')}, cases {got.get('cases')}; want {want}",
            )
        result.expect(list(reports) == list(self.jobs), f"job list {list(reports)}")
        result.items = sum(r.get("cases", 0) for r in reports.values())
        return result


@dataclass
class Sample:
    """`growth sample`; checks each moment, or the occupancy counts."""

    alpha: str
    steps: int
    paths: int
    start: str
    exact: dict  # r -> exact moment as a rational string
    min_calls = 2

    def argv(self, seed: int, index: int) -> list[str]:
        emit = ("moments", "occupancy")[index % 2]
        return [
            "growth", "sample", "--alpha", self.alpha, "--steps", str(self.steps),
            "--paths", str(self.paths), "--start", self.start, "--r-max", str(len(self.exact) - 1),
            "--seed", str(seed * 1000 + index), "--emit", emit,
        ]

    def check(self, code: int, out: bytes, argv: list[str]) -> Check:
        result = Check(items=self.paths * self.steps)
        try:
            doc = json.loads(out)
        except ValueError:
            doc = {}
        echo = {
            "alpha": self.alpha, "steps": self.steps, "paths": self.paths,
            "start": self.start, "seed": int(argv[argv.index("--seed") + 1]),
        }
        ok = code == 0 and all(doc.get(k) == v for k, v in echo.items())
        if argv[-1] == "occupancy":
            counts = doc.get("occupancy") or []
            weight = sum(int(p) for p in self.start.split(",")) + self.steps
            shapes_ok = all(
                sum(int(p) for p in row["shape"].split(",")) == weight and row["count"] > 0 for row in counts
            )
            total = sum(row["count"] for row in counts)
            result.expect(ok and shapes_ok and total == self.paths, f"occupancy: exit {code}, sum {total}")
            return result
        moments = {m["r"]: m for m in doc.get("moments") or []}
        for r, want in self.exact.items():
            m = moments.get(int(r), {})
            exact = Fraction(want)
            estimate, se = m.get("estimate"), m.get("std_error")
            if se == 0:
                close = estimate == float(exact)
            else:
                close = se is not None and abs(estimate - float(exact)) <= 4 * se
            result.expect(
                ok and m.get("exact") == want and close,
                f"moment {r}: exit {code}, exact {m.get('exact')} (want {want}), estimate {estimate} se {se}",
            )
        return result


def load_workloads() -> dict:
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    return {
        "verify-all": VerifyAll(expected["verify-all"]),
        "sample-1step": Sample("1", 1, 100_000, "4,2,1", expected["sample-1step"]),
        "sample-walk": Sample("1/2", 20, 20_000, "0", expected["sample-walk"]),
    }


@dataclass
class Call:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    out: bytes
    err: bytes
    trace: dict | None
    load: tuple
    start: float  # monotonic clock at spawn and at exit
    end: float


def spawn(cli_args: list[str], work: Path, flags: tuple, deadline: float) -> Call:
    """Run child.py once; time it, and take its CPU time and peak RSS from wait4."""
    fd, report = tempfile.mkstemp(dir=work, suffix=".json")
    os.close(fd)
    out_path, err_path = Path(report).with_suffix(".out"), Path(report).with_suffix(".err")
    cmd = [sys.executable, str(CHILD), report, *flags, "--", *cli_args]
    load_before = os.getloadavg()[0]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = _clock()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = _clock()
    wall = end - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        child = json.loads(Path(report).read_text())
    except ValueError:
        child = {}
    return Call(
        argv=cli_args,
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        setup_s=child["imported"] - start if "imported" in child else None,
        out=out_path.read_bytes(),
        err=err_path.read_bytes(),
        trace=child.get("trace"),
        load=(load_before, os.getloadavg()[0]),
        start=start,
        end=end,
    )


def layer_values(trace: dict) -> dict[str, float]:
    """Per-module and per-kernel metrics from one traced call's spans."""
    functions = trace["functions"]
    values: dict[str, float] = {"growth.draws": trace["draws"]}
    for key, stats in functions.items():
        module = key.partition(":")[0].rpartition(".")[2]
        values[f"{module}.calls"] = values.get(f"{module}.calls", 0) + stats["calls"]
        values[f"{module}.self_s"] = values.get(f"{module}.self_s", 0.0) + stats["self_s"]
    for prefix, (_, _, distinct) in spans.KERNELS.items():
        keys = spans.kernel_keys(prefix, functions)
        values[f"{prefix}.calls"] = sum(functions[k]["calls"] for k in keys)
        values[f"{prefix}.self_s"] = sum(functions[k]["self_s"] for k in keys)
        if distinct:
            values[f"{prefix}.distinct"] = sum(functions[k]["distinct"] for k in keys)
    for identity, job in trace["jobs"].items():
        values[f"verify.{identity}.s"] = job["s"]
        values[f"verify.{identity}.cases"] = job["cases"]
    return values


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _emit(stream, line: str) -> None:
    stream.write(f"# {line}\n")


def _call_line(stream, label: str, call: Call, check: Check) -> None:
    _emit(
        stream,
        f"{label}: wall_s={call.wall_s:.4f} cpu_s={call.cpu_s:.4f} peak_rss_mb={call.peak_rss_mb:.2f} "
        f"setup_s={call.setup_s} exit={call.code} checks={check.attempted - check.failed}/{check.attempted} "
        f"load1={call.load[0]:.2f}->{call.load[1]:.2f} args={' '.join(call.argv)}",
    )
    for problem in check.problems:
        _emit(stream, f"  check failed: {problem}")
    if call.code != 0:
        for line in call.err.decode(errors="replace").splitlines()[-5:]:
            _emit(stream, f"  stderr: {line}")


@contextlib.contextmanager
def speedometer():
    """Run reference.py's speedometer beside the block; yields its samples,
    which are filled in when the block ends."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "reference.py"), "--meter"], stdout=subprocess.PIPE, cwd=ROOT
    )
    samples: list = []
    try:
        if proc.stdout.readline().strip() != b"ready":
            raise RuntimeError("the speedometer did not start")
        yield samples
    finally:
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    try:
        samples.extend(json.loads(out))
    except ValueError:
        pass  # no samples: every call then fails its speedometer check


def run(workload, name: str, seed: int, seconds: float, trace: bool, spec: dict, stream=sys.stdout) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    deadline = _clock() + RUN_DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        return _run(workload, name, seed, seconds, trace, spec, stream, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, name, seed, seconds, trace, spec, stream, work, deadline) -> dict:
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "caches": "cold (each call is a fresh interpreter)",
        "bytecode": "warm (compiled before timing)",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "commit": _commit(),
        "loadavg_before": os.getloadavg(),
    }
    # One core for everything: the speedometer must share the call's core.
    os.sched_setaffinity(0, {meta["pinned_cpu"]})
    total = Check()
    calls: list[Call] = []

    def record(label: str, call: Call) -> Check:
        check = workload.check(call.code, call.out, call.argv)
        total.attempted += check.attempted
        total.failed += check.failed
        _call_line(stream, label, call, check)
        calls.append(call)
        return check

    if trace:
        argv = workload.argv(seed, 0)
        plain = spawn(argv, work, (), deadline)
        record("untraced", plain)
        traced = spawn(argv, work, ("--trace",), deadline)
        record("traced", traced)
        total.expect(traced.out == plain.out, "traced output differs from untraced output")
        total.expect(traced.trace is not None, "traced call wrote no spans")
        values = layer_values(traced.trace) if traced.trace else {}
        values["trace.overhead_s"] = traced.wall_s - plain.wall_s
        for problem in (traced.trace or {}).get("hook_errors", []):
            _emit(stream, f"tracer hook failed: {problem}")
        declared = spec["per_layer"]
    else:
        batches = []  # (import times of one batch of probes, batch start, batch end)

        def probe(count: int) -> None:
            times, start = [], _clock()
            for _ in range(count):
                p = spawn([], work, ("--setup-only",), deadline)
                total.expect(p.code == 0 and p.setup_s is not None, "setup probe failed")
                if p.setup_s is not None:
                    times.append(p.setup_s)
            batches.append((times, start, _clock()))

        items = []
        with speedometer() as samples:
            probe(SETUP_PROBES)
            started = _clock()
            while True:
                call = spawn(workload.argv(seed, len(calls)), work, (), deadline)
                items.append(record(f"call {len(calls) + 1}", call).items)
                probe(SETUP_PROBES)
                walls = [c.wall_s for c in calls]
                now = _clock()
                if len(calls) >= workload.min_calls and now - started + statistics.median(walls) > seconds:
                    break
                if now + max(walls) > deadline:
                    break
        metered = []  # (call, items, CPU seconds per reference loop over the call)
        for i, (call, count) in enumerate(zip(calls, items)):
            per_loop = reference.cpu_per_loop(samples, call.start, call.end)
            total.expect(per_loop is not None, f"call {i + 1}: the speedometer finished no loop around it")
            if per_loop is not None:
                metered.append((call, count, per_loop))
                _emit(stream, f"call {i + 1}: reference loop {per_loop * 1000:.3f} ms CPU, wall_ref={call.wall_s / per_loop:.2f}")
        # Without a reading the run has already failed; report raw seconds then.
        metered = metered or [(calls[0], items[0], 1.0)]
        setups, raw_setups = [], []
        for times, start, end in batches:
            per_loop = reference.cpu_per_loop(samples, start, end)
            total.expect(per_loop is not None, "the speedometer finished no loop around a setup probe")
            raw_setups += times
            setups += [t * reference.LOOP_CPU_S / (per_loop or reference.LOOP_CPU_S) for t in times]
        values = {
            "wall_ref": statistics.median(c.wall_s / x for c, _, x in metered),
            "cpu_ref": statistics.median(c.cpu_s / x for c, _, x in metered),
            "items_per_ref": statistics.median(n * x / c.wall_s for c, n, x in metered),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "setup_raw_s": statistics.median(raw_setups) if raw_setups else 0.0,
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
            "wall_s": statistics.median(c.wall_s for c in calls),
            "cpu_s": statistics.median(c.cpu_s for c in calls),
            "items_per_s": statistics.median(n / c.wall_s for n, c in zip(items, calls)),
        }
        declared = spec["end_to_end"]

    meta["loadavg_after"] = os.getloadavg()
    meta["calls"] = len(calls)
    _emit(stream, "meta " + json.dumps(meta, sort_keys=True))
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"], 0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        _emit(stream, f"metric {metric['name']} = {value} {metric['unit']}")
    extra = sorted(set(values) - set(metrics))
    if extra:
        _emit(stream, "not in BENCHMARK.json: " + ", ".join(f"{k}={values[k]}" for k in extra))
    _emit(stream, f"error_rate = {total.failed / max(total.attempted, 1)} ({total.failed} of {total.attempted} checks failed)")
    result = {
        "correct": total.failed == 0,
        "attempted": max(total.attempted, 1),
        "failed": total.failed,
        "metrics": metrics,
    }
    stream.write(json.dumps(result) + "\n")
    return result | {"layers": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ycalc" / "cli.py").is_file():
        print(f"error: no ycalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    # Warm bytecode: compile before any timing so setup_s does not depend
    # on whether __pycache__ existed.
    if not all(compileall.compile_dir(str(d), quiet=1) for d in (ROOT / "src", BENCH_DIR)):
        print("error: byte-compilation failed", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run(workloads[args.workload], args.workload, args.seed, args.seconds, bool(args.trace), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
