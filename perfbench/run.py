#!/usr/bin/env python3
"""End-to-end benchmark of Cayman (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the repository's libraries plus the C++ harness) into
.bench_build/, runs the harness, checks its outputs and prints every metric
by name with its unit. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed.

Other entry points:
    --self-test          a run with an injected fault must count the failed
                         rows, not crash
    --emit-expected      rewrite perfbench/expected/ from the current program
    --confirm-expected   re-derive perfbench/expected/ with each Reference
                         engine and compare byte-for-byte
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected")
WORKLOADS = ("sweep-serial", "sweep-parallel", "dse")
DEFAULT_SEED = 1
# Untraced runs are split over this many fresh processes: set-up is measured
# once per process (setup_s is their median), and the pass samples of all of
# them are pooled.
PROCESSES = 8
MIN_PASSES = 100
# Whole-run wall limit for the harness processes (the contract allows 180 s).
RUN_LIMIT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(step))
            return None
    return os.path.join(out, "cayman_perfbench")


def clients(workload):
    """Concurrent clients: one per CPU (up to 4) for the single-threaded
    workloads, one for sweep-parallel, which uses those CPUs itself.

    On a host whose cores are shared with other tenants, a lone
    single-threaded client alternates, in episodes of seconds to minutes,
    between two speeds about 1.6x apart. With every CPU running a client,
    more of the contention is the benchmark's own and its figures are
    steadier (see README.md, Steadiness)."""
    if workload == "sweep-parallel":
        return 1
    return max(1, min(4, len(os.sched_getaffinity(0))))


def run_clients(binary, workload, count, args, timeout, env=None):
    """Runs `count` harness processes at once, client i pinned to allowed CPU
    i when the workload is single-threaded. Returns their parsed result
    lines, or None after stopping every one of them. Only client 0's stderr
    is shown, unless a client fails."""
    procs = []
    for i in range(count):
        pin = [] if workload == "sweep-parallel" else ["--cpu", str(i)]
        procs.append(subprocess.Popen(
            [binary, "--workload", workload] + pin + args(i),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True))
    deadline = time.monotonic() + timeout
    results = []
    try:
        for i, proc in enumerate(procs):
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
            if i == 0 or proc.returncode != 0:
                sys.stderr.write(err)
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log("perfbench: harness failed with code", proc.returncode)
                return None
            results.append(json.loads(lines[-1]))
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        return None
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def measure(binary, workload, seed, seconds, env=None):
    """Untraced run: PROCESSES fresh processes, in rounds of concurrent
    clients; returns (metrics, tally)."""
    count = clients(workload)
    rounds = max(1, PROCESSES // count)
    per = seconds / rounds
    min_passes = math.ceil(MIN_PASSES / (rounds * count))
    results = []
    deadline = time.monotonic() + RUN_LIMIT_S
    for _ in range(rounds):
        batch = run_clients(binary, workload, count, lambda i: [
            "--seed", str(seed), "--seconds", repr(per), "--trace", "0",
            "--min-passes", str(min_passes), "--expected", EXPECTED,
        ], timeout=deadline - time.monotonic(), env=env)
        if batch is None:
            return None, None
        results += batch

    pass_ms = [v for r in results for v in r["pass_ms"]]
    cpu_ms = [v for r in results for v in r["cpu_ms"]]
    evals = sum(len(r["pass_ms"]) * r["evals_per_pass"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    # Quality figures are a pure function of the seed: every process must
    # agree on them exactly.
    for key in ("speedup_geomean", "area_saving_pct"):
        if len({r[key] for r in results}) != 1:
            failed += 1
            failures.append(f"{key} differs between processes")
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "pass_ms_p50": (statistics.median(pass_ms), "ms"),
        "pass_ms_p90": (percentile(pass_ms, 0.9), "ms"),
        "evals_per_s": (evals / (sum(pass_ms) / 1e3), "1/s"),
        "cpu_ms_per_pass": (sum(cpu_ms) / len(cpu_ms), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results),
                        "MB"),
        "ok_rate": ((attempted - failed) / attempted if attempted else 0.0,
                    "ratio"),
        "speedup_geomean": (results[0]["speedup_geomean"], "x"),
        "area_saving_pct": (results[0]["area_saving_pct"], "%"),
    }
    log(f"{workload}: {len(pass_ms)} passes of {results[0]['evals_per_pass']}"
        f" evaluations in {len(results)} processes ({count} at a time), "
        f"jobs={results[0]['jobs']}")
    return metrics, (attempted, failed, failures)


def trace(binary, workload, seed, seconds):
    """Traced run: the same concurrent clients as an untraced run, all
    traced and checked; client 0's per-layer metrics and spans are reported.
    Returns (per-layer metrics, tally)."""
    spans = os.path.join(build_dir(), "spans", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    results = run_clients(binary, workload, clients(workload), lambda i: [
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", "1",
        "--min-passes", "20", "--expected", EXPECTED,
    ] + (["--spans-out", spans] if i == 0 else []), timeout=RUN_LIMIT_S)
    if results is None:
        return None, None
    log(f"{workload}: {results[0]['traced_passes']} traced passes per client, "
        f"{len(results)} clients; spans in {os.path.relpath(spans, ROOT)}")
    metrics = {k: (v["value"], v["unit"])
               for k, v in results[0]["per_layer"].items()}
    return metrics, (sum(r["attempted"] for r in results),
                     sum(r["failed"] for r in results),
                     [f for r in results for f in r["failures"]])


def report(metrics, tally):
    attempted, failed, failures = tally
    for failure in failures:
        log("check failed:", failure)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:14.6f} {unit}")
    print(f"{'error_rate':<{width}}  {failed / max(1, attempted):14.6f} "
          f"({failed} of {attempted} evaluations failed a check)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def self_test(binary):
    """An injected stage fault must show up as failed rows in a result."""
    ok = True
    for workload, spec in (("sweep-serial", "cjpeg:merge"),
                           ("dse", "cjpeg:select")):
        env = dict(os.environ, CAYMAN_INJECT_FAULT=spec)
        metrics, tally = measure(binary, workload, DEFAULT_SEED, 1.0, env=env)
        passed = (metrics is not None and tally[1] > 0
                  and metrics["ok_rate"][0] < 1.0)
        log(f"self-test {workload} with CAYMAN_INJECT_FAULT={spec}: " +
            (f"{tally[1]} of {tally[0]} evaluations counted as failed, "
             f"ok_rate {metrics['ok_rate'][0]:.6f}" if metrics else
             "no result") + (" -> ok" if passed else " -> FAILED"))
        ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--emit-expected", action="store_true")
    parser.add_argument("--confirm-expected", action="store_true")
    args = parser.parse_args()
    special = args.self_test or args.emit_expected or args.confirm_expected
    if args.workload is None and not special:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    if args.emit_expected or args.confirm_expected:
        flag = "--emit-expected" if args.emit_expected else "--confirm-expected"
        return subprocess.run([binary, flag, EXPECTED]).returncode
    if args.trace:
        metrics, tally = trace(binary, args.workload, args.seed, args.seconds)
    else:
        metrics, tally = measure(binary, args.workload, args.seed,
                                 args.seconds)
    if metrics is None:
        return 1
    return report(metrics, tally)


if __name__ == "__main__":
    sys.exit(main())
