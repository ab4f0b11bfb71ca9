#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt (the simulator library, mflushsim and the
mflushbench harness) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only re-check the build. mflushbench's stdout is passed
through, so the last line is the result object. Build output goes to
stderr. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      *generator])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def tmpfs_prefix(root, mount_dir):
    """Command prefix that runs mflushbench in a private mount namespace with
    a fresh tmpfs mounted on `mount_dir` (a directory of the checkout), or
    None where this host does not permit that. Data directories, sockets and
    scratch files then live in memory, so no disk latency sets a number;
    the mount disappears with the last process of the run."""
    if shutil.which("unshare") is None:
        return None
    prefix = ["unshare", "--user", "--map-root-user", "--mount", "sh", "-c",
              'mount -t tmpfs -o size=2g perfbench "$0" && mkdir "$0/tmp" '
              '&& exec "$@"', mount_dir]
    probe = subprocess.run(prefix + ["true"], cwd=root,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else None


def expected_metrics(root, trace):
    """(name, unit) of every metric BENCHMARK.json lists for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {(m["name"], m["unit"])
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--force-mismatch", action="store_true",
                    help="corrupt one result before it is checked")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(root, build_dir):
        return 1

    # Relative to the checkout root: Unix socket paths under it stay short.
    mount_dir = os.path.relpath(os.path.join(build_dir, f"run-{os.getpid()}"),
                                root)
    os.makedirs(os.path.join(root, mount_dir), exist_ok=True)
    prefix = tmpfs_prefix(root, mount_dir)
    if prefix is None:
        shutil.rmtree(os.path.join(root, mount_dir), ignore_errors=True)
        log("cannot mount a tmpfs in a private user and mount namespace "
            "(unshare --user --map-root-user --mount); the benchmark keeps "
            "its data in memory and does not run on disk")
        return 1
    # The daemon's workers put their scratch files under TMPDIR: on the
    # tmpfs, inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(root, mount_dir, "tmp"))
    cmd = prefix + [
        os.path.join(build_dir, "mflushbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", os.path.join(mount_dir, "w")]
    if args.force_mismatch:
        cmd.append("--force-mismatch")
    try:
        # Its own session, so a timeout can stop the workers and the
        # daemon it started along with it.
        proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
            return 1
    except OSError as e:
        log(f"cannot run mflushbench: {e}")
        return 1
    finally:
        shutil.rmtree(os.path.join(root, mount_dir), ignore_errors=True)
    if proc.returncode != 0:
        log(f"mflushbench exited with {proc.returncode}")
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("mflushbench printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    want = expected_metrics(root, args.trace)
    if got != want:
        log("metrics differ from BENCHMARK.json: missing "
            f"{sorted(want - got)}, unexpected {sorted(got - want)}")
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
