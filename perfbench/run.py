#!/usr/bin/env python3
"""Builds and runs the toolkit benchmark for one workload.

    python3 perfbench/run.py --workload paper_battery --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. The benchmark is built from source with
cargo (offline) into $CARGO_TARGET_DIR, default `.bench_build`. The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`).

On top of the checks the Rust binary makes within a run, this script
checks output digests across runs: they must equal `reference.json` for
the default seed, and equal the digests of any earlier run of the same
sources, workload and seed in this build directory.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest():
    """A digest of the sources the benchmark builds from."""
    h = hashlib.sha256()
    for base in (REPO / "crates", HERE / "src"):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".rs", ".toml"):
                h.update(str(p.relative_to(REPO)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def git_rev():
    """The checkout's git commit, if it is a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def check_digests(args, digests, target, src):
    """Returns `(checks made, failure messages)`.

    Digests are named per input of the unit of work (`.0` to `.3`); a
    short run may not reach every input, and what it did not produce is
    not compared. Input 0 and the served trace are in every run.
    """
    checks, errors = 1, []
    if "served_trace" not in digests or not any(n.endswith(".0") for n in digests):
        errors.append("digests of the served trace or of input 0 missing")
    ref = json.loads((HERE / "reference.json").read_text())
    if args.seed == ref["default_seed"]:
        for name, want in ref["digests"][args.workload].items():
            if name in digests:
                checks += 1
                if digests[name] != want:
                    errors.append(f"digest {name} {digests[name]} != reference {want}")
    seen = target / "perfbench-digests" / f"{src}-{args.workload}-{args.seed}.json"
    before = json.loads(seen.read_text()) if seen.exists() else {}
    for name, want in before.items():
        if name in digests:
            checks += 1
            if digests[name] != want:
                errors.append(f"digest {name} {digests[name]} != earlier run {want}")
    if not errors:
        seen.parent.mkdir(parents=True, exist_ok=True)
        seen.write_text(json.dumps({**before, **digests}, sort_keys=True))
    return checks, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["paper_battery", "cellday_2048"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    src = source_digest()
    rev = git_rev() or src
    work = target / "perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work), "--rev", rev],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        print("\n".join(lines), file=sys.stderr)
        print(f"perfbench: run failed with exit code {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    checks, errors = check_digests(args, result["digests"], target, src)

    print("\n".join(lines[:-1]))
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print("digests: " + json.dumps(result["digests"], sort_keys=True))
    print("context: " + json.dumps(result["context"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"] and not errors,
        "attempted": result["attempted"] + checks,
        "failed": result["failed"] + len(errors),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
