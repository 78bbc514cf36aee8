#!/usr/bin/env python3
"""Builds the layered benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload stream-unified --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (which compiles the
repository's src/ and serving binaries) into the build directory: the
CARGO_TARGET_DIR environment variable if set, else .bench_build, relative
to the checkout root. Later calls rebuild only what changed. Build output
goes to stderr; stdout carries the benchmark's own lines, the last of
which is its JSON result. See perfbench/BENCHMARK.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream-unified", "wire-router")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def child_env():
    """The environment for the build and the run: temporary files (the
    compiler's included) stay inside the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures on first use, then builds perfbench; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("examples", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s not found; run from a full checkout"
                     % needed)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          env=child_env()).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr,
                      env=child_env()).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            return "git-" + sha.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run(binary, args, extra):
    work = os.path.join(build_dir(), "run")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--source-id", source_id()] + extra
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env=child_env())


def smoke(binary, args):
    """Every workload, untraced and traced, at tiny sizes."""
    ok = True
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace, args.seconds = workload, trace, 1
            done = run(binary, args, ["--smoke"])
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 1,
                          "metrics": {}}
            print("# smoke %s trace %d: rc %d correct %s failed %d metrics %d"
                  % (workload, trace, done.returncode, result["correct"],
                     result["failed"], len(result["metrics"])))
            ok &= done.returncode == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny sizes, checks included")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    binary = build()
    if args.smoke:
        return smoke(binary, args)
    done = run(binary, args, [])
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
