#!/usr/bin/env python3
"""Build and run the allocator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload larson --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into .bench_build/perfbench
with its build cache kept there too, so a run reads and writes only
inside the checkout. Every argument is passed through to the program;
its exit code is this script's exit code. The last line of standard
output is the result object (see README.md in this directory).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def git_commit():
    """Resolve HEAD from .git without running git (the checkout may not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOMODCACHE", "gomod"), ("GOPATH", "gopath"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOPROXY="off",
               GOFLAGS="-buildvcs=false", CGO_ENABLED="0")
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [binary, *sys.argv[1:], "--out", BUILD, "--commit", git_commit()]
    try:
        run = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
