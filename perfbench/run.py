#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). The benchmark program prints the human-readable
report and, as its last line, the JSON result; this script passes its
output through and exits with its exit code. A failed build exits non-zero
without a result.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# Sweep worker threads: never more than the benchmark's two, nor the cores.
THREADS = min(2, os.cpu_count() or 1)


def command_output(args):
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip() or None


def source_revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    rev = (ROOT / ".git").exists() and command_output(["git", "rev-parse", "HEAD"])
    if rev:
        return rev
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "src", "crates", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            if "target" in path.relative_to(ROOT).parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env = {
        key: value
        for key, value in os.environ.items()
        # Engine overrides would change what is measured.
        if key not in ("NOC_DENSE_STEP", "NOC_NO_SKIP")
    }
    env["NOC_SWEEP_THREADS"] = str(THREADS)
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["PERFBENCH_REV"] = source_revision()
    sys.stdout.flush()
    run = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
