"""Smoke test of the benchmark itself, at tiny input sizes (about 15 s).

    python3 perfbench/smoke.py

Checks that every workload, traced and untraced, prints as its last line
exactly the metrics BENCHMARK.json declares, with their units; that the
digest gate fails every operation of a child whose stdout is corrupted by
one byte; and that the benchmark exits non-zero without a result when the
program is missing.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metrics(failures) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in run.WORKLOADS:
            proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--size", "tiny"])
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: keys {sorted(last)}")
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            if got != declared:
                failures.append(f"{where}: metrics {got} != declared {declared}")
            if not (last["correct"] is True and last["failed"] == 0
                    and last["attempted"] >= 1):
                failures.append(f"{where}: not correct: {last}")


def check_digest_gate(failures) -> None:
    workdir = run.OUT / "smoke-gate"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for workload in ("battery", "quiver"):
            child = run.spawn(workdir, workload,
                              run.child_args(workload, 3, "tiny"))
            clean = run.judge(workload, "tiny", child)
            if clean["failed"] or clean["problems"]:
                failures.append(f"{workload}: clean output rejected: {clean}")
            flipped = bytearray(child.stdout)
            flipped[len(flipped) // 2] ^= 1
            child.stdout = bytes(flipped)
            bad = run.judge(workload, "tiny", child)
            if bad["failed"] != bad["attempted"] or not any(
                    "digest" in p for p in bad["problems"]):
                failures.append(f"{workload}: corrupted output passed: {bad}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_missing_program(failures) -> None:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "quiver", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append(f"without src/mckay: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    failures: list[str] = []
    check_metrics(failures)
    check_digest_gate(failures)
    check_missing_program(failures)
    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
