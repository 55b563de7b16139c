#!/usr/bin/env python3
"""Build the catsim benchmark program and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cmrpo_cold --seed 1 --seconds 30 --trace 0

The program is configured and built with CMake into .bench_build/perfbench
on first use (a no-op rebuild afterwards).  Every argument is passed
through to it (see perfbench/README.md).  Its last line of standard output
is the JSON result; build output goes to standard error.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "catsim_perfbench")
RUN_TIMEOUT_S = 170


def jobs():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def build(env):
    """Configure once, then (re)build; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs()]
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode == 0


def revision():
    """The checkout's git revision, or a digest of the sources it builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return "git-" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main(argv):
    tmp_dir = os.path.join(ROOT, ".bench_build", "tmp", "run-%d" % os.getpid())
    os.makedirs(tmp_dir, exist_ok=True)
    # Compiler and benchmark scratch files stay inside the repository.
    # The program clears catsim's own environment knobs itself; drop them
    # here as well so no inherited setting reaches the simulator.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CATSIM_")}
    env["TMPDIR"] = tmp_dir
    try:
        return run(argv, tmp_dir, env)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def run(argv, tmp_dir, env):
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BINARY] + argv
    defaults = {
        "--revision": revision(),
        "--tmp-dir": tmp_dir,
        "--trace-dir": os.path.join(ROOT, ".bench_build", "traces"),
        "--reference-dir": os.path.join(HERE, "reference"),
    }
    for flag, value in defaults.items():
        if flag not in argv:
            args += [flag, value]
    try:
        return subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
