#!/usr/bin/env python3
"""Builds the tilefuse benchmark and the `tilefused` daemon, then runs it.

    python3 perfbench/run.py --workload camera|harris|compile|exec-large \
        --seed N --seconds S --trace 0|1

Run from the repository root. Both programs are built from source in
release mode into $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to stderr; the benchmark's last line of stdout is its JSON result.
See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "tilefuse-server", "--bin", "tilefused"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    # A relative scratch path keeps the daemon's socket path short.
    scratch = os.path.relpath(os.path.join(target, "perfbench"))
    cmd = [os.path.join(release, "tilefuse-perfbench"), *sys.argv[1:],
           "--daemon", os.path.join(release, "tilefused"), "--scratch", scratch]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
