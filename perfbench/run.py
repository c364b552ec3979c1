#!/usr/bin/env python3
"""The repository benchmark for the MineSweeper runtime.

    python3 perfbench/run.py --workload server|cc1plus|large_churn \
        --seed N --seconds S --trace 0|1

Builds the runtime from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), sets the workload up, then
repeats it for S seconds, one process per repetition, and prints as its
last stdout line one JSON object: correct, attempted, failed, metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
perfbench/README.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("server", "cc1plus", "large_churn")
SETUP_REPS = 5        # set-up runs per benchmark run; setup_s is their median
MIN_REPS = 3          # measured repetitions even when one outlasts --seconds
REP_TIMEOUT_S = 60    # a repetition running longer than this has failed
MIB = 1 << 20

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

LAYER_UNITS = {
    "core.alloc_ns.p50": "ns",
    "core.alloc_ns.p99": "ns",
    "core.free_ns.p50": "ns",
    "core.free_ns.p99": "ns",
    "sweep.release_ms": "ms",
    "sweep.release_ns_per_entry": "ns",
    "sweep.release_ratio": "ratio",
    "sweep.mark_ms": "ms",
    "sweep.scanned_mib": "MiB",
    "sweep.mark_gbps": "GB/s",
    "sweep.mark_gbps.d0": "GB/s",
    "sweep.mark_gbps.d5": "GB/s",
    "sweep.mark_gbps.d20": "GB/s",
    "sweep.mark_gbps.d50": "GB/s",
    "sweep.count": "count",
    "sweep.cpu_ms": "ms",
    "sweep.cpu_share": "ratio",
    "sweep.drain_ms": "ms",
    "sweep.alloc_pause_ms": "ms",
    "quarantine.unmapped_entries": "count",
    "trace_overhead": "ratio",
}


class BenchError(Exception):
    """A condition under which the run cannot report meaningful numbers."""


# ---------------------------------------------------------------- derived


def derive_layers(counters, alloc_ns, free_ns, process_cpu_s):
    """Per-layer metrics of one traced repetition.

    counters: the runtime counters, named as MSW_STATS_DUMP names them,
    plus unmapped_entries. alloc_ns / free_ns: latency digests with
    p50_ns and p99_ns. process_cpu_s: CPU time of the whole process.
    """
    tested = counters["entries_released"] + counters["failed_frees"]
    if tested == 0 or counters["phase_mark_ns"] == 0 or process_cpu_s <= 0:
        raise BenchError("no quarantine entry was tested: counters %r"
                         % counters)
    return {
        "core.alloc_ns.p50": alloc_ns["p50_ns"],
        "core.alloc_ns.p99": alloc_ns["p99_ns"],
        "core.free_ns.p50": free_ns["p50_ns"],
        "core.free_ns.p99": free_ns["p99_ns"],
        "sweep.release_ms": counters["phase_release_ns"] / 1e6,
        "sweep.release_ns_per_entry": counters["phase_release_ns"] / tested,
        "sweep.release_ratio": counters["entries_released"] / tested,
        "sweep.mark_ms": counters["phase_mark_ns"] / 1e6,
        "sweep.scanned_mib": counters["bytes_scanned"] / MIB,
        # bytes per nanosecond of mark-phase wall time is GB/s.
        "sweep.mark_gbps": counters["bytes_scanned"] / counters["phase_mark_ns"],
        "sweep.count": counters["sweeps"],
        "sweep.cpu_ms": counters["sweep_cpu_ns"] / 1e6,
        "sweep.cpu_share": counters["sweep_cpu_ns"] / (process_cpu_s * 1e9),
        "sweep.drain_ms": counters["phase_drain_ns"] / 1e6,
        "sweep.alloc_pause_ms": counters["pause_ns"] / 1e6,
        "quarantine.unmapped_entries": counters["unmapped_entries"],
    }


def shim_counters(stats_dump, tap):
    """Counters, fast-path digests and frees issued of one traced shim run.

    stats_dump: the MSW_STATS_DUMP JSON, written at shim teardown. tap:
    stats_tap.cc's JSON, written just before it, which adds
    unmapped_entries and interpolated alloc/free percentiles.
    """
    counters = dict(stats_dump["counters"],
                    unmapped_entries=tap["unmapped_entries"])
    return (counters, tap["alloc_ns"], tap["free_ns"],
            stats_dump["free_ns"]["count"])


def check_counters(workload, counters, frees_issued, bytes_freed):
    """Counter sanity of one traced repetition; raises on a violation.

    bytes_freed is None where the workload's freed bytes are not
    observable from outside (cc1plus under the shim).
    """
    problems = []
    if counters["sweeps"] <= 0:
        problems.append("no sweep ran")
    if counters["stw_ns"] != 0:
        problems.append("stop-the-world time %d ns in fully concurrent mode"
                        % counters["stw_ns"])
    if counters["entries_released"] > frees_issued:
        problems.append("released %d entries but only %d frees were issued"
                        % (counters["entries_released"], frees_issued))
    if bytes_freed is not None and counters["bytes_released"] > bytes_freed:
        problems.append("released %d bytes but only %d were freed"
                        % (counters["bytes_released"], bytes_freed))
    if problems:
        raise BenchError("%s: counter sanity failed: %s"
                         % (workload, "; ".join(problems)))


# ------------------------------------------------------------------ build


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(REPO_ROOT, d)


def build(bdir):
    """Configure and build perfbench/CMakeLists.txt; returns tool paths."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        raise BenchError("runtime sources not found in %s/src: run from a "
                         "full checkout" % REPO_ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed (%s); see %s"
                                 % (" ".join(cmd), log_path))
    tools = {
        "driver": os.path.join(bdir, "perfbench_driver"),
        "shim": os.path.join(bdir, "msw", "shim", "libminesweeper_preload.so"),
        "tap": os.path.join(bdir, "libperfbench_stats_tap.so"),
    }
    for name, path in tools.items():
        if not os.path.isfile(path):
            raise BenchError("the build did not produce the %s: %s missing"
                             % (name, path))
    return tools


def first_line(cmd, stream="stdout"):
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           stdin=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = getattr(p, stream).strip()
    return text.splitlines()[0] if p.returncode == 0 and text else None


def pinned_env(tools, work):
    """What every result records about the toolchain and host."""
    cc1plus = first_line(["g++", "-print-prog-name=cc1plus"])
    cc1plus_version = None
    if cc1plus and os.path.isfile(cc1plus):
        probe = os.path.join(work, "version.ii")
        with open(probe, "w") as f:
            f.write("int perfbench_version_probe;\n")
        cc1plus_version = first_line(
            [cc1plus, "-quiet", "-version", probe, "-o",
             os.path.join(work, "version.s")], stream="stderr")
    git = first_line(["git", "-C", REPO_ROOT, "describe", "--always",
                      "--dirty", "--tags"])
    return {
        "cc1plus": cc1plus if cc1plus and os.path.isfile(cc1plus) else None,
        "cc1plus_version": cc1plus_version,
        "gxx_E_version": first_line(["g++", "--version"]),
        "shim": tools["shim"],
        "nproc": os.cpu_count(),
        "git_describe": git or "unknown (not a git checkout)",
    }


# ------------------------------------------------------------ repetitions


class Rep:
    """One child process: outside measurements, its stdout, and what the
    workload made of it (oracle verdict, latencies, per-layer metrics)."""

    def __init__(self, wall_s, cpu_s, peak_rss_mib, status, stdout):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mib = peak_rss_mib
        self.status = status
        self.ok = status == 0
        self.stdout = stdout
        self.out = None          # perfbench_driver's JSON line (in-process)
        self.attempted = 1
        self.failed = 1
        self.ops_per_s = None
        self.op_us = None        # [p50, p99]
        self.layers = None       # per-layer metrics of a traced repetition


def run_child(cmd, work, env=None):
    """Run cmd to completion, timing it and reading its rusage."""
    out_path = os.path.join(work, "child.out")
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL, env=env, cwd=work)
        killer = threading.Timer(REP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    return Rep(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / MIB,
               proc.returncode, stdout)


def driver_json(rep):
    lines = rep.stdout.strip().splitlines()
    return json.loads(lines[-1]) if rep.ok and lines else None


class InProcess:
    """server and large_churn: one perfbench_driver process per repetition."""

    def __init__(self, name, tools, seed, work):
        self.name = name
        self.tools = tools
        self.seed = seed
        self.work = work
        self.oracle = None
        self.server_ops = 0

    def _cmd(self, system, trace=False):
        cmd = [self.tools["driver"], self.name, "--seed", str(self.seed),
               "--system", system]
        return cmd + ["--trace"] if trace else cmd

    def _oracle_of(self, out):
        ledger = (out["allocs"], out["frees"], out["bytes_allocated"])
        return ledger if self.name == "server" else ledger + (out["checksum"],)

    def setup(self):
        """JadeHeap run of the same seed: the ledger (and checksum) oracle."""
        out = driver_json(run_child(self._cmd("jade"), self.work))
        if out is None or out["failed_allocs"]:
            raise BenchError("%s: the JadeHeap reference run failed" % self.name)
        oracle = self._oracle_of(out)
        if self.oracle is not None and oracle != self.oracle:
            raise BenchError("%s: JadeHeap reference runs of one seed differ"
                             % self.name)
        self.oracle = oracle
        self.server_ops = out["op_latency"]["count"]

    def measure(self, trace):
        rep = run_child(self._cmd("minesweeper", trace), self.work)
        out = rep.out = driver_json(rep)
        if self.name == "server":
            # A crashed server repetition counts every operation it owed.
            rep.attempted = rep.failed = self.server_ops
        if out is None:
            return rep
        ok = (out["allocs"] == out["frees"] and not out["failed_allocs"]
              and self._oracle_of(out) == self.oracle)
        if self.name == "server":
            rep.attempted = out["op_latency"]["count"]
            rep.failed = out["failed_allocs"] if ok else rep.attempted
            rep.ops_per_s = rep.attempted / out["run_s"]
            rep.op_us = [out["op_latency"]["p50_ns"] / 1e3,
                         out["op_latency"]["p99_ns"] / 1e3]
        else:
            rep.failed = 0 if ok else 1
        if trace:
            check_counters(self.name, out["counters"], out["frees_issued"],
                           out["bytes_freed"])
            rep.layers = derive_layers(out["counters"], out["alloc_ns"],
                                       out["free_ns"], rep.cpu_s)
        return rep


class Cc1plus:
    """The local cc1plus -O2 on one preprocessed TU, under LD_PRELOAD."""

    TU = os.path.join(BENCH_DIR, "cc1plus_tu.cc")

    def __init__(self, tools, seed, work, cc1plus):
        if cc1plus is None:
            raise BenchError("cc1plus not found (g++ -print-prog-name=cc1plus); "
                             "the cc1plus workload needs GCC's C++ front end")
        self.tools = tools
        self.seed = seed
        self.work = work
        self.cc1plus = cc1plus
        self.ii = os.path.join(work, "tu.ii")
        self.oracle = None

    def _compile_cmd(self, asm):
        return [self.cc1plus, "-quiet", "-O2", "-std=c++17",
                "-frandom-seed=%d" % self.seed, self.ii, "-o", asm]

    def setup(self):
        """Preprocess the TU and capture the unshimmed assembly."""
        if subprocess.run(["g++", "-std=c++17", "-E", "-P", self.TU,
                           "-o", self.ii]).returncode:
            raise BenchError("cc1plus: g++ -E failed on %s" % self.TU)
        asm = os.path.join(self.work, "oracle.s")
        if run_child(self._compile_cmd(asm), self.work).status != 0:
            raise BenchError("cc1plus: the unshimmed compile failed")
        with open(asm, "rb") as f:
            oracle = f.read()
        if self.oracle is not None and oracle != self.oracle:
            raise BenchError("cc1plus: unshimmed compiles of one TU differ")
        self.oracle = oracle

    def measure(self, trace):
        asm = os.path.join(self.work, "shim.s")
        dump = os.path.join(self.work, "stats.json")
        tap = os.path.join(self.work, "tap.json")
        for path in (asm, dump, tap):
            if os.path.exists(path):
                os.remove(path)
        env = dict(os.environ)
        env["LD_PRELOAD"] = self.tools["shim"]
        for key in ("MSW_TELEMETRY", "MSW_STATS_DUMP", "PERFBENCH_TAP_OUT"):
            env.pop(key, None)
        if trace:
            env["LD_PRELOAD"] += ":" + self.tools["tap"]
            env["MSW_TELEMETRY"] = "ops"
            env["MSW_STATS_DUMP"] = dump
            env["PERFBENCH_TAP_OUT"] = tap
        rep = run_child(self._compile_cmd(asm), self.work, env)
        same = False
        if rep.ok and os.path.exists(asm):
            with open(asm, "rb") as f:
                same = f.read() == self.oracle
        rep.failed = 0 if same else 1
        if trace and rep.ok:
            try:
                with open(dump) as f:
                    stats = json.load(f)
                with open(tap) as f:
                    tapped = json.load(f)
            except (OSError, ValueError) as e:
                raise BenchError("cc1plus: runtime counters unreadable: %s" % e)
            counters, alloc_ns, free_ns, frees = shim_counters(stats, tapped)
            check_counters("cc1plus", counters, frees, None)
            rep.layers = derive_layers(counters, alloc_ns, free_ns, rep.cpu_s)
        return rep


# --------------------------------------------------------------- the run


def median_of(reps, key):
    return statistics.median(key(r) for r in reps)


def end_to_end(workload, reps, setup_times):
    if workload == "server":
        ops_per_s = median_of(reps, lambda r: r.ops_per_s)
        op_us = [r.op_us for r in reps]
    else:
        # A batch workload's repetition is one operation: the whole run.
        ops_per_s = median_of(reps, lambda r: 1 / r.wall_s)
        op_us = [[r.wall_s * 1e6] * 2 for r in reps]
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": ops_per_s,
        # Each repetition's latency percentiles over its own operations,
        # averaged over the repetitions: a server repetition's are
        # histogram bucket bounds about 3 % apart, which the mean resolves.
        "op_p50_us": statistics.fmean(p50 for p50, _ in op_us),
        "op_p99_us": statistics.fmean(p99 for _, p99 in op_us),
        "wall_s": median_of(reps, lambda r: r.wall_s),
        "cpu_s": median_of(reps, lambda r: r.cpu_s),
        "peak_rss_mib": median_of(reps, lambda r: r.peak_rss_mib),
    }


def per_layer(traced, untraced, probe):
    values = {name: statistics.median(r.layers[name] for r in traced)
              for name in traced[0].layers}
    # Backpressure pauses are rare events that a median would hide.
    values["sweep.alloc_pause_ms"] = statistics.fmean(
        r.layers["sweep.alloc_pause_ms"] for r in traced)
    for d in (0, 5, 20, 50):
        values["sweep.mark_gbps.d%d" % d] = probe["d%d" % d]["gbps"]
    values["trace_overhead"] = (median_of(traced, lambda r: r.cpu_s)
                                / median_of(untraced, lambda r: r.cpu_s))
    return values


def with_units(values, units):
    missing = set(units) - set(values)
    if missing:
        raise BenchError("metrics not measured: %s" % sorted(missing))
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run(args):
    bdir = build_dir()
    tools = build(bdir)
    work = os.path.join(bdir, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return run_in(args, tools, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_in(args, tools, work):
    env = pinned_env(tools, work)
    print("# env " + json.dumps(env, sort_keys=True))
    if args.workload == "cc1plus":
        wl = Cc1plus(tools, args.seed, work, env["cc1plus"])
    else:
        wl = InProcess(args.workload, tools, args.seed, work)

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    reps = []
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or len(reps) < MIN_REPS * (1 + args.trace):
        # The traced run alternates untraced and traced repetitions so
        # trace_overhead compares like with like.
        reps.append(wl.measure(trace=bool(args.trace) and len(reps) % 2 == 1))
    untraced = [r for r in reps if r.ok and r.layers is None]
    traced = [r for r in reps if r.ok and r.layers is not None]
    if not untraced or (args.trace and not traced):
        raise BenchError("%s: every repetition failed (exit status %s)"
                         % (args.workload, sorted({r.status for r in reps})))

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if args.trace:
        probe = driver_json(run_child([tools["driver"], "probe"], work))
        if probe is None:
            raise BenchError("the mark-density probe failed")
        metrics = with_units(per_layer(traced, untraced, probe), LAYER_UNITS)
    else:
        metrics = with_units(end_to_end(args.workload, untraced, setup_times),
                             E2E_UNITS)
        if args.workload == "server":
            print("# server op latency: samples/rep=%d p999_us=%.3f"
                  % (untraced[0].out["op_latency"]["count"],
                     median_of(untraced,
                               lambda r: r.out["op_latency"]["p999_ns"] / 1e3)))
    print("# %s: %d repetitions, setup runs %s s"
          % (args.workload, len(reps), ", ".join("%.3f" % t for t in setup_times)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except BenchError as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
