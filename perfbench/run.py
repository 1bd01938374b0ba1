#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (release, offline, into
$CARGO_TARGET_DIR or `.bench_build`), computes or loads the fleet oracle's
digest, runs one measurement under a hard deadline, and forwards the
binary's output: a `{"meta": ...}` line, then the result line last. A
build failure, a set-up failure or a stall exits non-zero without a
result line. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

WORKLOADS = ("fleet_paper", "fleet_identical", "serve_tick")
FLEET_WORKLOADS = ("fleet_paper", "fleet_identical")
# A first build in a fresh checkout may take long; later runs find it done.
BUILD_TIMEOUT_S = 700
# Everything after the build (oracle + measurement) must end within this.
RUN_BUDGET_S = 170
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BINARY_NAME = "greenhetero-perfbench"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def build(target_dir):
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"build did not finish: {err}")
        return None
    if done.returncode != 0:
        log(f"build failed with code {done.returncode}")
        return None
    binary = target_dir / "release" / BINARY_NAME
    return binary if binary.is_file() else None


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def source_id(root):
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "src", BENCH_DIR.name):
        files.extend(sorted((root / top).rglob("*.rs")))
        files.extend(sorted((root / top).rglob("Cargo.toml")))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    commit = "none"
    if (root / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"git:{commit} tree:{digest.hexdigest()[:16]}"


def rustc_version():
    try:
        done = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def stall_line(workload, operation, elapsed):
    return json.dumps({
        "stall": {
            "workload": workload,
            "operation": operation,
            "last_flushed_epoch": None,
            "elapsed_s": elapsed,
        },
        "attempted": 1,
        "failed": 1,
    })


def oracle_digest(binary, target_dir, args, deadline):
    """The sequential oracle's digest for (workload, seed), cached per
    binary so a rebuilt program is checked against its own oracle."""
    cache = target_dir / "perfbench-oracle"
    key = f"{args.workload}-{args.seed}-{file_sha256(binary)[:16]}.digest"
    cached = cache / key
    if cached.is_file():
        return cached.read_text().strip()
    cmd = [str(binary), "oracle", "--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired:
        print(stall_line(args.workload, "oracle", time.monotonic() - started), flush=True)
        sys.exit(3)
    if done.returncode != 0:
        log(f"oracle failed with code {done.returncode}")
        sys.exit(1)
    digest = json.loads(done.stdout.strip().splitlines()[-1])["oracle_digest"]
    cache.mkdir(parents=True, exist_ok=True)
    cached.write_text(digest + "\n")
    return digest


def main(argv):
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    binary = build(target_dir)
    if binary is None:
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S

    cmd = [
        str(binary), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustc", rustc_version(),
        "--source", source_id(root),
    ]
    if args.workload in FLEET_WORKLOADS:
        cmd += ["--expect-digest", oracle_digest(binary, target_dir, args, deadline)]
    started = time.monotonic()
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired:
        print(stall_line(args.workload, "measurement", time.monotonic() - started), flush=True)
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
