#!/usr/bin/env python3
"""Builds and runs the end-to-end transpile benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload synth-tail --seed 1 --seconds 10 --trace 0

Builds the `e2ebench` package (its own cargo workspace, depending on the
library crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The
benchmark's last line of stdout is its JSON result; its exit code is
passed through. Any build failure exits non-zero without a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# Sources that determine the measured program, digested for provenance
# (the checkout a benchmark runs in may carry no git metadata).
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", os.path.relpath(HERE, ROOT)]


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        elif os.path.isdir(path):
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository rooted at ROOT, or "unknown" (a checkout
    without git metadata, or one nested in some other repository)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["E2EBENCH_SOURCE_DIGEST"] = source_digest()
    env["E2EBENCH_GIT_COMMIT"] = git_commit()
    env.setdefault("E2EBENCH_WORK_DIR", os.path.join(target, "e2ebench"))
    sys.stdout.flush()
    return subprocess.run(
        [os.path.join(target, "release", "e2ebench")] + sys.argv[1:], env=env
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
