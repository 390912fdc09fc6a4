#!/usr/bin/env python3
"""The repository benchmark: builds the simulator from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload fig07-grid|filtered-serial|ecdpd-sweep \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build), under perfbench/. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import http.client
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODES = {"fig07-grid": "grid", "filtered-serial": "serial",
         "ecdpd-sweep": "sweep"}
# ecdpd-sweep starts the daemon and computes the warm set this many times
# per run; setup_s is the median.
SETUP_REPEATS = 5
DAEMON_WORKERS = 1
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds perfbench and ecdpd; returns the dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no simulator sources under {ROOT}; run from a full checkout", 2)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                       or ".bench_build", "perfbench")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", "4",
                    "--target", "perfbench", "ecdpd"],
                   stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return out


def run_perfbench(build_dir, args):
    """Runs one perfbench mode; returns its stdout lines."""
    proc = subprocess.run([os.path.join(build_dir, "perfbench")] + args,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"perfbench {args[0]} exited with {proc.returncode}")
    return proc.stdout.splitlines()


class Daemon:
    """One ecdpd process with a fresh store directory."""

    def __init__(self, build_dir, store):
        self.proc = subprocess.Popen(
            [os.path.join(build_dir, "ecdpd"), "--port", "0",
             "--workers", str(DAEMON_WORKERS), "--store", store],
            stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on 127.0.0.1:" not in line:
            self.stop()
            die(f"ecdpd did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        die("no VmHWM for ecdpd")

    def stop(self):
        if self.proc.poll() is None:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=10)
                conn.request("POST", "/v1/shutdown", body="")
                conn.getresponse().read()
                conn.close()
            except (OSError, AttributeError, http.client.HTTPException):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_sweep(build_dir, opts):
    """ecdpd-sweep: daemon set-ups, then the closed loop on the last."""
    tmp = os.path.join(build_dir, "sweep-stores")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    setups = []
    daemon = None
    try:
        for repeat in range(SETUP_REPEATS):
            if daemon:
                daemon.stop()
            start = time.perf_counter()
            daemon = Daemon(build_dir, os.path.join(tmp, f"store{repeat}"))
            run_perfbench(build_dir, ["warm", "--port", str(daemon.port),
                                      "--seed", str(opts.seed)])
            setups.append(time.perf_counter() - start)
        lines = run_perfbench(build_dir, [
            "sweep", "--port", str(daemon.port), "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
        rss = daemon.peak_rss_mb()
    finally:
        if daemon:
            daemon.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(lines[-1])
    if not opts.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    print("perfbench setup_s samples: "
          + " ".join(f"{s:.4f}" for s in setups))
    return lines[:-1], result


def check_metrics(result, trace):
    """Every metric BENCHMARK.json lists for this mode, and no other."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        die(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"unlisted {extra}, units {sorted(set(got.items()) ^ set(wanted.items()))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    build_dir = build()
    mode = MODES[opts.workload]
    if mode == "sweep":
        info, result = run_sweep(build_dir, opts)
    else:
        lines = run_perfbench(build_dir, [
            mode, "--seed", str(opts.seed), "--seconds", str(opts.seconds),
            "--trace", str(opts.trace),
            "--reference", os.path.join(HERE, "reference.txt")])
        info, result = lines[:-1], json.loads(lines[-1])
    check_metrics(result, opts.trace)
    for line in info:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
