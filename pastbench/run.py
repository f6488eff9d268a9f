#!/usr/bin/env python3
"""Build and run the PAST simulator benchmark.

    python3 pastbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--steps N]

Run it from the root of a checkout. It builds pastbench/main.exe from
source with dune (into pastbench/_work/build, with dune's shared cache
off), clears every PAST_* variable the libraries read, pins the
log-store scratch directory and the Runtime_events ring inside
pastbench/_work, runs the workload and passes its report through. The
last line of standard output is the result object. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(BENCH_DIR, "_work")
BUILD_DIR = os.path.join(WORK, "build")
EXE = os.path.join(BUILD_DIR, "default", "pastbench", "main.exe")

# Every environment variable the libraries read.
LIBRARY_ENV = [
    "PAST_SCHED",
    "PAST_NET_JOBS",
    "PAST_JOBS",
    "PAST_STORE",
    "PAST_STORE_DIR",
    "PAST_MONITORS",
    "PAST_SCALE",
    "PAST_CHURN_DEBUG",
]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("pastbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_rev(root):
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        p = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
        if p.returncode == 0 and p.stdout.strip():
            return p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "pastbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:16]


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(WORK, "cache"))
    cmd = [
        "dune", "build", "--root", root, "--build-dir", BUILD_DIR,
        "--profile", "release", "./pastbench/main.exe",
    ]
    try:
        p = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--steps", type=int, default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project")) and os.path.isdir(os.path.join(root, "lib"))):
        fail("run from the root of a PAST checkout (no dune-project and lib/ here)")
    started = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    build(root)

    # Fresh scratch space: a killed run can leave log-store segments behind.
    store_dir = os.path.join(WORK, "store")
    shutil.rmtree(store_dir, ignore_errors=True)
    os.makedirs(store_dir)
    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(spans_dir, exist_ok=True)

    env = {
        k: v for k, v in os.environ.items()
        if k not in LIBRARY_ENV and not k.startswith("OCAML_RUNTIME_EVENTS")
    }
    env["PAST_STORE_DIR"] = store_dir
    env["OCAML_RUNTIME_EVENTS_DIR"] = WORK
    env["PASTBENCH_REV"] = source_rev(root)
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--steps", str(args.steps),
        "--out", spans_dir,
    ]
    budget = max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload %s did not finish within %.0f s" % (args.workload, budget))
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("workload %s exited with code %d" % (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(out)
        fail("the last line is not a result object")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
