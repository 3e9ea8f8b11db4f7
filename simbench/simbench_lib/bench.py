"""Builds ctesim, runs one workload and turns what it measured into the
benchmark's result record. See README.md for the workloads and metrics."""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from . import metrics as M
from . import stats
from . import table4
from .spans import per_call_ns

HERE = Path(__file__).resolve().parent.parent  # the benchmark's directory
ROOT = HERE.parent                              # the ctesim source tree
GOLDEN = HERE / "expected" / "golden.json"

WORKLOADS = ("campaign", "campaign_faults", "repro", "whatif")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build():
    """Configures (once) and builds ctesim, the repro binaries and the
    driver; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no ctesim source tree at {ROOT}")
    out = build_root() / "simbench"
    logs = build_root() / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / "build.log", "ab") as log:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                raise BenchError(f"cmake configure failed, see {log.name}")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                          stdout=log, stderr=log).returncode != 0:
            raise BenchError(f"build failed, see {log.name}")
    return out


def host_facts(out):
    compiler = "unknown"
    for f in (out / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        fields = {}
        for line in f.read_text().splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_ID ") or \
                    line.startswith("set(CMAKE_CXX_COMPILER_VERSION "):
                key, value = line[4:-1].split(" ", 1)
                fields[key] = value.strip('"')
        compiler = "{} {}".format(fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                                  fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    build_type = "?"
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "build_type": build_type, "machine": platform.machine()}


# --------------------------------------------------------------- children

class Child:
    """A finished child process: exit code, stdout, peak RSS, wall time."""

    def __init__(self, cmd, stderr_path, capture=True, timeout=CHILD_TIMEOUT_S):
        with open(stderr_path, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                stderr=err, cwd=str(ROOT))
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                self.stdout = proc.stdout.read().decode() if capture else ""
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if proc.stdout:
                    proc.stdout.close()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0

    def record(self):
        """The last stdout line, which the driver writes as one JSON object."""
        lines = self.stdout.strip().splitlines()
        if self.returncode != 0 or not lines:
            raise BenchError(f"driver exited with {self.returncode}")
        return json.loads(lines[-1])


def stderr_log(workload, seed):
    logs = build_root() / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    return logs / f"{workload}-seed{seed}.stderr"


def driver(out, mode, args, spans_out=None):
    cmd = [str(out / "simbench_driver"), mode, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    child = Child(cmd, stderr_log(args.workload, args.seed))
    return child.record(), child


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def record_golden(golden, workload, section):
    """Replaces one workload's recorded outputs, in memory and on disk."""
    golden[workload] = section
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def repro_binaries(out):
    return sorted(p.name for p in (out / "repro").iterdir()
                  if p.name.startswith(("fig", "table")) and os.access(p, os.X_OK))


def table4_csv(out, log):
    """The table4_speedup_summary CSV of this build: run once per build of
    the binary, then reused, since it is deterministic."""
    binary = out / "repro" / "table4_speedup_summary"
    cached = build_root() / "table4" / f"{sha256(binary)}.csv"
    if not cached.is_file():
        cached.parent.mkdir(parents=True, exist_ok=True)
        tmp = cached.with_suffix(".tmp")
        child = Child([str(binary), f"--csv={tmp}"], log, capture=False)
        if child.returncode != 0:
            raise BenchError("table4_speedup_summary failed")
        tmp.replace(cached)
    return cached


# -------------------------------------------------------------- workloads

class Outcome:
    """What one run measured and how many of its operations failed."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail_unless(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def run_campaign(out, args, golden):
    o = Outcome()
    rec, child = driver(out, args.workload, args)
    ms, jobs = rec["unit_ms"], rec["unit_jobs"]
    o.metrics.update(
        setup_s=statistics.median(rec["setup_s"]),
        throughput_per_s=sum(jobs) / (sum(ms) / 1e3),
        latency_p50_ms=stats.nearest_rank(ms, 50),
        latency_p95_ms=stats.nearest_rank(ms, 95),
        peak_rss_mb=child.rss_mb)
    o.notes.append(f"{len(ms)} campaigns of 600 jobs, "
                   f"{sum(jobs) / (sum(ms) / 1e3):.1f} jobs/s")
    o.attempted += len(ms)
    o.failed += min(len(ms), int(rec["violations"] + rec["repeat_mismatch"]))
    if rec["violations"] or rec["repeat_mismatch"]:
        o.notes.append(f"FAILED: {rec['violations']} check violations, "
                       f"{rec['repeat_mismatch']} replays differed")
    section = {"golden": rec["golden"], "seed1_digests": rec["digests"]}
    if args.record:
        record_golden(golden, args.workload, section)
    expected = golden.get(args.workload, {})
    o.fail_unless(rec["golden"] == expected.get("golden"),
                  "default-seed campaign digest differs from the record")
    if args.seed == DEFAULT_SEED:
        for got, want in zip(rec["digests"], expected.get("seed1_digests", [])):
            o.fail_unless(got == want, "campaign digest differs from the record")
    return o


def run_whatif(out, args, golden):
    o = Outcome()
    rec, child = driver(out, "whatif", args)
    lat = rec["open_latency_ms"]
    pct, p95 = stats.tail_percentile(lat, 95)
    o.metrics.update(
        setup_s=statistics.median(rec["setup_s"]),
        throughput_per_s=rec["closed_completed"] / rec["closed_seconds"],
        latency_p50_ms=stats.nearest_rank(lat, 50),
        latency_p95_ms=p95,
        peak_rss_mb=child.rss_mb)
    o.notes.append(
        f"open loop: {len(lat)} samples, p{pct} has "
        f"{stats.beyond(len(lat), pct)} beyond it; lateness p95 "
        f"{stats.nearest_rank(rec['open_lateness_ms'], 95):.3f} ms; closed loop "
        f"{rec['closed_completed']:.0f} requests in {rec['closed_seconds']:.2f} s; "
        f"service coalesced {rec['server_coalesced']:.0f}, shed "
        f"{rec['server_shed']:.0f}, timed out {rec['server_timeouts']:.0f}")
    o.attempted += int(rec["checked"])
    o.failed += int(rec["violations"])
    if rec["violations"]:
        o.notes.append(f"FAILED: {rec['violations']} replies wrong or missing")
    section = {"golden": rec["golden"], "replies": rec["replies"]}
    if args.record:
        record_golden(golden, "whatif", section)
    expected = golden.get("whatif", {})
    o.fail_unless(rec["golden"] == expected.get("golden"),
                  "golden what-if reply bytes differ from the record")
    # The distinct requests are the same design for every seed, so their
    # recorded replies apply to any seed; hot sets differ by seed.
    want = expected.get("replies", {})
    for req, rep in rec["replies"].items():
        if req in want:
            o.fail_unless(rep == want[req], "simulate reply differs from the record")
    return o


def repro_output(exit_code, csv):
    """What the repro check compares: exit status and CSV bytes."""
    return {"exit": exit_code,
            "csv_sha256": sha256(csv) if Path(csv).is_file() else None}


def repro_problems(outputs, expected):
    """Differences between the binaries' outputs and the recorded ones."""
    problems = []
    if sorted(outputs) != sorted(expected):
        problems.append("the set of figure/table binaries differs from the record")
    for name, got in sorted(outputs.items()):
        if got["exit"] != 0:
            problems.append(f"{name} exited with {got['exit']}")
        elif got != expected.get(name):
            problems.append(f"{name} CSV bytes differ from the record")
    return problems


def run_repro(out, args, golden):
    o = Outcome()
    log = stderr_log(args.workload, args.seed)
    names = repro_binaries(out)
    work = build_root() / "work" / f"repro-{os.getpid()}"

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # The unit of work is one full pass over the binaries, in an order
    # shuffled by the seed; passes repeat until time is up. A set-up
    # sample follows each binary, outside the pass time, so that set-up is
    # timed through the whole run.
    order = list(names)
    random.Random(args.seed).shuffle(order)
    passes, rss, digests, setup_s = [], [], {}, []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        wall = 0.0
        for name in order:
            csv = work / f"{name}.csv"
            csv.unlink(missing_ok=True)
            child = Child([str(out / "repro" / name), f"--csv={csv}"], log,
                          capture=False)
            wall += child.wall_s
            rss.append(child.rss_mb)
            result = repro_output(child.returncode, csv)
            if name in digests and digests[name] != result:
                o.fail_unless(False, f"{name} output changed between passes")
            digests[name] = result
            setup_s += driver(out, "repro_setup", args)[0]["setup_s"]
        passes.append(wall * 1e3)
    mape = table4.mape_pct(table4.read_csv(work / "table4_speedup_summary.csv"),
                           table4.load_paper())
    o.metrics.update(
        setup_s=statistics.median(setup_s),
        throughput_per_s=len(passes) / (sum(passes) / 1e3),
        latency_p50_ms=stats.nearest_rank(passes, 50),
        latency_p95_ms=stats.nearest_rank(passes, 95),
        peak_rss_mb=max(rss),
        table4_mape_pct=mape)
    o.notes.append(f"{len(passes)} pass(es) over {len(names)} binaries, "
                   f"repro_s {statistics.median(passes) / 1e3:.2f}")
    if args.record:
        record_golden(golden, "repro", digests)
    problems = repro_problems(digests, golden.get("repro", {}))
    o.attempted += len(names) + 1  # each binary, and the set of them
    o.failed += len(problems)
    o.notes += [f"FAILED: {p}" for p in problems]
    shutil.rmtree(work, ignore_errors=True)
    return o


def layer_metrics(rec, spans):
    per_call = per_call_ns(spans)
    layer = {}
    for name, (span, scale, _) in M.SPAN_METRICS.items():
        if span not in per_call:
            raise BenchError(f"traced run recorded no {span} span")
        layer[name] = per_call[span][0] / scale
    contiguous = per_call["batch.run_cluster_contiguous"][0]
    layer["batch.sched_share"] = (
        contiguous - per_call["batch.run_cluster_linear"][0]) / contiguous
    layer["batch.power_overhead_ratio"] = (
        contiguous / per_call["batch.run_cluster_power_off"][0])
    layer["loadgen.late_p95_ms"] = stats.nearest_rank(rec["probe_lateness_ms"], 95)
    for name in M.OTHER_LAYER_UNITS:
        if name not in layer:
            layer[name] = rec[name]
    return layer


def run_traced(out, args):
    """The traced run: the driver's layer probes, the same on every
    workload, with spans around each layer call."""
    o = Outcome()
    spans_path = build_root() / "work" / f"spans-{args.workload}-{os.getpid()}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    rec, _ = driver(out, "probes", args, spans_path)
    spans = json.loads(spans_path.read_text())
    spans_path.unlink()
    o.metrics = layer_metrics(rec, spans)
    checks = int(rec["campaign_violations"] + rec["probe_violations"])
    o.attempted += 1 + int(rec["sched.alloc_calls"])
    o.failed += checks + int(rec["sched.replay_skipped"])
    if checks or rec["sched.replay_skipped"]:
        o.notes.append(f"FAILED: {checks} probe checks, "
                       f"{rec['sched.replay_skipped']} replayed allocations failed")
    own = per_call_ns(spans)
    top = sorted(own.items(), key=lambda kv: -kv[1][0] * kv[1][1])[:8]
    o.notes.append("self time: " + ", ".join(
        f"{name} {t * calls / 1e6:.1f} ms" for name, (t, calls, _) in top))
    return o


def run(args):
    if args.record and args.seed != DEFAULT_SEED:
        raise BenchError(f"--record needs the default seed {DEFAULT_SEED}")
    out = build()
    facts = host_facts(out)
    golden = load_golden()
    if args.trace:
        o = run_traced(out, args)
        wanted = [name for name, _, _ in M.per_layer()]
    else:
        runner = {"campaign": run_campaign, "campaign_faults": run_campaign,
                  "repro": run_repro, "whatif": run_whatif}[args.workload]
        o = runner(out, args, golden)
        if "table4_mape_pct" not in o.metrics:
            log = stderr_log(args.workload, args.seed)
            o.metrics["table4_mape_pct"] = table4.mape_pct(
                table4.read_csv(table4_csv(out, log)), table4.load_paper())
        o.metrics["ok_ratio"] = (o.attempted - o.failed) / max(o.attempted, 1)
        wanted = [name for name, _, _, _ in M.END_TO_END]
    units = M.units()
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for note in o.notes:
        print(f"{args.workload}: {note}")
    for name in wanted:
        print(f"  {name:34s} {o.metrics[name]:>14.6g} {units[name]}")
    return {"correct": o.failed == 0, "attempted": max(o.attempted, 1),
            "failed": o.failed,
            "metrics": {name: {"value": o.metrics[name], "unit": units[name]}
                        for name in wanted}}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="run.py", description="ctesim benchmark (see README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's recorded outputs "
                             "(expected/golden.json) from this run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload != "all":
            print(json.dumps(run(args)))
            return 0
        results = {}
        for workload in WORKLOADS:
            args.workload = workload
            results[workload] = run(args)
        print(json.dumps(results))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"simbench: {e}", file=sys.stderr)
        return 1
    return 0
