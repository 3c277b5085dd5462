#!/usr/bin/env python3
"""Build the system under test and run one benchmark workload.

    python3 perfbench/run.py --workload local-replay --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
tea libraries, `teadbt` and the `teabench` load generator (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and
records the workload inputs there; later runs reuse both. The last line
of standard output is the result object: {"correct", "attempted",
"failed", "metrics"}. See perfbench/README.md for the workloads and
the metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("local-replay", "remote-replay", "record-mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def source_stamp():
    """Sizes and mtimes of every file the build reads."""
    root = os.path.dirname(HERE)
    entries = []
    for top in (os.path.join(root, "src"), os.path.join(root, "tools"),
                HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                st = os.stat(os.path.join(dirpath, name))
                entries.append("%s %d %d" % (os.path.join(dirpath, name),
                                             st.st_size, st.st_mtime_ns))
    return "\n".join(entries)


def build(bdir):
    """Configure and build, unless nothing changed since the last build.

    Skipping matters beyond the seconds it saves: a no-op make still
    creates and deletes files, and deleting files on a disk mounted with
    online discard slows the file creation the next set-ups time."""
    stamp_path = os.path.join(bdir, "source.stamp")
    stamp = source_stamp()
    if os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs,
              "--target", "teabench", "teadbt"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    with open(stamp_path, "w") as f:
        f.write(stamp)


def run_group(cmd, timeout):
    """Run `cmd` in its own process group and capture its stdout; then
    kill whatever the group left behind (servers of a crashed bench) and
    wait until it is gone. Returns None on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)  # raises once the group is empty
            time.sleep(0.05)
    except ProcessLookupError:
        pass
    proc.wait()
    if out is None:
        return None
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def check_result(line):
    """The last line must be the result object the contract names."""
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict) and set(res) == RESULT_KEYS
            and isinstance(res["metrics"], dict) and res["attempted"] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    bdir = build_dir()
    build(bdir)
    teabench = os.path.join(bdir, "teabench")
    cache = os.path.join(bdir, "inputs")
    gen = subprocess.run([teabench, "generate", "--cache", cache],
                         stdout=sys.stderr)
    if gen.returncode != 0:
        sys.exit("perfbench: input generation failed")

    # A fresh work directory per run, and none is deleted while runs go
    # on: on a disk mounted with online discard, deleting one run's
    # stores slowed the file creation of the next runs' set-ups (the
    # store fill in setup_s) by up to 4x. Remove .bench_build when done.
    work = os.path.join(bdir, "work", "%d-%s-%d" % (
        time.time_ns(), args.workload, args.seed))
    os.makedirs(work)

    cmd = [teabench, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--cache", cache, "--work", work,
           "--teadbt", os.path.join(bdir, "teadbt")]
    proc = run_group(cmd, args.seconds + 150)
    if proc is None:
        sys.exit("perfbench: teabench timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not check_result(lines[-1]):
        # Show what it printed, minus anything shaped like a result.
        for line in lines:
            if not line.startswith("{"):
                print(line)
        sys.exit("perfbench: teabench failed (exit %d)" % proc.returncode)
    print(proc.stdout, end="")


if __name__ == "__main__":
    main()
