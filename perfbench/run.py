#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first run in a fresh checkout
compiles the project), then runs it. The program prints its report, and
as its last line one JSON object with the keys correct, attempted, failed
and metrics. Everything it writes stays under the checkout: dune's
_build/, and .perfbench/ for the daemon's socket and a traced run's spans.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
OUT_DIR = ".perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision when the checkout is a repository, otherwise a
    digest of the sources the benchmark builds from."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bench", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    a = p.parse_args()

    for needed in ("dune-project", "lib", "bench"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a full checkout")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [
        os.path.join("_build", "default", "perfbench", "main.exe"),
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", a.trace, "--rev", revision(),
    ]
    if a.trace == "1":
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{a.workload}-{a.seed}.jsonl")]
    # The daemon's socket goes under TMPDIR; a relative path keeps it inside
    # the checkout and short enough for a Unix socket address.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
