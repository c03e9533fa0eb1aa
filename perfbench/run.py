#!/usr/bin/env python3
"""Coyote benchmark: host-side simulation throughput, end to end and per layer.

Builds the simulator's src/ libraries and the driver in perfbench/driver from
this checkout (Release flags, into .bench_build/perfbench), runs one workload
for a fixed time, checks every output, and prints each metric by name with its
unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, medians
over the run's repetitions. With --trace 1 the run alternates untraced and
traced repetitions and reports the per-layer metrics, including each layer's
self time from the recorded spans and the tracing overhead.

    python3 perfbench/run.py --workload matmul-l1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check     # every workload at a tiny size

Workloads: matmul-l1, spmv-mesh, ffwd-roi, campaign (see perfbench/NOTES.md).
At the default seed the simulated statistics are also compared with
perfbench/pins.json. Provenance (source revision, build type from the
compiler's own flags, host load) goes to a results file under
.bench_build/perfbench/results and to the line before the JSON.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "coyote_perfbench"
WORKLOADS = ["matmul-l1", "spmv-mesh", "ffwd-roi", "campaign"]
# The one check whose misses are not wrong outputs: the memo-warm worker
# session defect is reported (campaign.worker_failures, the result line), not
# treated as corruption or as a failed operation.
SESSION_CHECK = "worker session ends in campaign-complete"
TIME_LIMIT_S = 175.0
# The driver reads a fixed host reference (bench.ref_mops, M events/s)
# around every measured section and records when. The shared hosts this runs
# on switch between speeds a third apart every second or two, moving the
# workload and the reference together, so each of these metrics is reported
# as the host would give it running the reference at NOMINAL_REF_MOPS: a
# section's host speed is the median of the readings taken within
# WINDOW_S of it. The medians as measured are printed and recorded too.
SCALED = ("host_mips", "ffwd_mips", "setup_s", "points_per_s",
          "replay_points_per_s")
NOMINAL_REF_MOPS = 12.0
WINDOW_S = 1.0


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def fail(message, code=1):
    log(f"error: {message}")
    sys.exit(code)


def metric_specs():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def build():
    """Configures once and (re)builds; a no-op build takes about a second."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def source_revision():
    """Git SHA and dirty flag when the checkout is a repository (never
    searching above it); otherwise 'unknown'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               env=env, capture_output=True, text=True,
                               check=True)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def run_driver(workload, seed, seconds, trace, tiny, deadline):
    """Runs the driver in its own process group; whatever it leaves behind
    (its worker processes included) is killed and reaped."""
    work = BUILD / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = BUILD / "results" / f"{workload}-seed{seed}-spans.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--work-dir={work}"]
    if trace:
        cmd += ["--trace", f"--spans-out={spans}"]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if stdout is None:
        fail(f"{workload}: driver did not finish in time")
    if proc.returncode != 0:
        fail(f"{workload}: driver exited with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def scaled_samples(raw, name):
    """The samples of `name` at the nominal host speed: rates times
    NOMINAL_REF_MOPS / speed, durations times speed / NOMINAL_REF_MOPS."""
    out = []
    for section in raw["sections"]:
        if section["name"] != name:
            continue
        speed = median([mops for t, mops in raw["reference"]
                        if section["start"] - WINDOW_S <= t
                        <= section["end"] + WINDOW_S])
        factor = speed / NOMINAL_REF_MOPS
        out.append(section["value"] / factor if section["rate"]
                   else section["value"] * factor)
    return out


def compute_metrics(raw, names, trace):
    """Turns the driver's samples into the named metrics. Per-layer times
    come from the traced repetitions; counts repeat exactly per run."""
    samples = raw["samples"]
    every = lambda key: samples.get(key, []) + samples.get("traced/" + key, [])
    out = {}
    for spec in names:
        name = spec["name"]
        if name in SCALED:
            value = median(scaled_samples(raw, name))
        elif name in ("bench.ref_mops", "peak_rss_mb"):
            value = median(every(name))
        elif name == "trace.overhead_s":
            value = (median(samples.get("traced/e2e_s", []))
                     - median(samples.get("e2e_s", [])))
        elif name == "campaign.worker_failures":
            value = sum(every(name))
        elif name == "campaign.worker_tail_s":
            value = max(every(name), default=0.0)
        elif name in raw["counts"]:
            value = raw["counts"][name]
        else:
            key = ("traced/" + name) if trace else name
            value = median(samples.get(key, []))
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def check_pins(raw, tiny):
    """At the default seed the simulated statistics must equal the pins.
    Returns None at other seeds, else the list of misses."""
    with open(HERE / "pins.json") as fh:
        pins = json.load(fh)
    if raw["seed"] != pins["default_seed"]:
        return None
    expected = pins["tiny" if tiny else "full"][raw["workload"]]
    return [f"pin {key}: expected {value}, got {raw['pins'].get(key)}"
            for key, value in expected.items()
            if raw["pins"].get(key) != value]


def run_workload(workload, seed, seconds, trace, tiny, deadline):
    load_start = os.getloadavg()
    raw = run_driver(workload, seed, seconds, trace, tiny, deadline)
    load_end = os.getloadavg()
    if raw["build"]["build_type"] != "Release":
        fail(f"driver was compiled as {raw['build']['build_type']}; the "
             "benchmark only measures Release builds")

    end_to_end, per_layer = metric_specs()
    metrics = compute_metrics(raw, per_layer if trace else end_to_end, trace)
    unscaled = {name: median(raw["samples"].get(name, [])) for name in SCALED}
    pin_misses = check_pins(raw, tiny)
    wrong = [c for c in raw["checks"]
             if not c["ok"] and c["name"] != SESSION_CHECK]
    correct = not wrong and not pin_misses
    # The pin comparison is one more operation at the default seed.
    attempted = raw["attempted"] + (pin_misses is not None)
    failed = raw["failed"] + bool(pin_misses)

    sessions = raw["counts"].get("campaign.worker_sessions")
    sha, dirty = source_revision()
    provenance = {
        "git_sha": sha, "dirty": dirty, "nproc": os.cpu_count(),
        "loadavg_start": load_start[0], "loadavg_end": load_end[0],
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": tiny, "unscaled": unscaled,
        "ref_mops": median(raw["samples"].get("bench.ref_mops", [])),
        "repetitions": len(raw["samples"].get("rep_s", []))
        + len(raw["samples"].get("traced/rep_s", [])),
    }
    if sessions is not None:
        provenance["worker_sessions"] = int(sessions)
        provenance["worker_sessions_failed"] = int(
            raw["counts"].get("campaign.worker_sessions_failed", 0))
    for check in wrong + [c for c in raw["checks"] if not c["ok"]
                          and c["name"] == SESSION_CHECK]:
        log(f"{workload}: check missed: {check['name']} {check['detail']}")
    for miss in pin_misses or []:
        log(f"{workload}: {miss}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = BUILD / "results" / (f"{workload}-seed{seed}-trace{int(trace)}"
                                  f"{'-tiny' if tiny else ''}.json")
    record.write_text(json.dumps({"provenance": provenance, "result": result,
                                  "checks": raw["checks"],
                                  "pins": raw["pins"]}, indent=1) + "\n")
    return provenance, result


def print_result(provenance, result):
    print(f"workload {provenance['workload']}  seed {provenance['seed']}  "
          f"repetitions {provenance['repetitions']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    if "worker_sessions" in provenance:
        print(f"  worker sessions {provenance['worker_sessions']}, not ending "
              f"in campaign-complete {provenance['worker_sessions_failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
        if name in SCALED:
            print(f"  {'  unscaled':34s} {provenance['unscaled'][name]:14.6g} "
                  f"{metric['unit']} (reference at "
                  f"{provenance['ref_mops']:.4g} Mevents/s median)")
    print("provenance " + json.dumps(provenance, sort_keys=True))


def self_check(deadline):
    """Every workload at a tiny size, untraced and traced, through the same
    driver, checks and metric code."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            provenance, result = run_workload(workload, 1, 0.3, trace, True,
                                              deadline)
            print_result(provenance, result)
            ok = ok and result["correct"]
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at a tiny size and exit")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full "
             "checkout of the repository", code=2)
    build()
    # The first run in a checkout spends its time building; every run gets
    # the same time limit from here on.
    deadline = time.monotonic() + TIME_LIMIT_S - min(
        time.monotonic() - start, 5.0)
    if args.self_check:
        return self_check(deadline)

    provenance, result = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), False, deadline)
    print_result(provenance, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
