"""The mckay benchmark: cold-process workloads, a correctness gate, and an
outside-in layer trace.

    python3 perfbench/run.py --workload battery|series|quiver|all \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root.  Every measured run is a fresh interpreter
(perfbench/child.py), because users pay cold caches on every CLI call:
`build_group` is lru-cached and the verify context, group products and Hom
dimension memo all warm up within one process.  One child runs at a time,
single-threaded, so the load is a closed loop with one client.

With --trace 0 the run measures the end-to-end metrics: cold children run
back to back while the next one is expected to finish within --seconds (at
least one), set-up is repeated several times, and every figure is a median.
With --trace 1 the run makes one untraced and one traced child and reports
the per-layer metrics from the traced one.  Either way every output is
checked: the stdout digest of each workload is pinned (it does not depend on
the seed), and each operation's exact identity must hold.  The last line of
stdout is one JSON object; a results file with provenance goes to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

OUT = ROOT / ".perfbench_out"
WORKLOADS = ("battery", "series", "quiver")

# sha256 of each workload's stdout.  Character tables are canonical and the
# random parts of `quiver` only enter the output through pass counts, so
# the digests hold for every seed.  `battery` is byte-exact `mckay all`.
DIGESTS = {
    "full": {
        "battery": "d98d33331b0b4e3ff74432c8a0a96dbf73d689f5d1640840c1103b0245a5ec5f",
        "series": "dd79b331e33a9e265c49832e87eeafc3000e53fa7812417d84fcdff87b900a2e",
        "quiver": "e5795cb3bba0328bfd1f22be93cdaf5f51e642aacdb80e4d0ab748acf60828d3",
    },
    "tiny": {
        "battery": "2966970733aee667ce816bb3719c656b085778139b447b4a23fa0cd4b25e6ee3",
        "series": "33547f4358ec50b7d13648de53d2d6e681df3ac65e9fcd215ccfbadcb544e208",
        "quiver": "1d28db92b36544bd655252e0218c72a9a80778932841eb43742adaa382236097",
    },
}

# Set-ups per measured run; a `series` set-up includes a 4 s cache fill.
SETUPS = {"battery": 6, "series": 3, "quiver": 6}
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics on the last line of a traced run: the self times that
# every workload exercises, and the counts and ratios of the layers.  A self
# time that a workload never reaches would read exactly 0 on every run, so
# those stay in the printed table and the results file, which carry the
# self time, total time and calls of every wrapped function.
PER_LAYER = {
    "groups.build_group.self_s": "s",
    "groups.conjugacy_classes.self_s": "s",
    "groups.elements": "count",
    "chartab.class_constants.self_s": "s",
    "chartab.dixon_character_table.self_s": "s",
    "chartab.dixon_character_table.calls": "count",
    "chartab.verify_table.self_s": "s",
    "chartab.cache_hit_ratio": "ratio",
    "chartab.dixon_per_table": "ratio",
    "molien.hom_dim.self_s": "s",
    "molien.hom_dim.calls": "count",
    "linalg.rref.calls": "count",
    "preproj.paths_enumerated": "count",
    "bgp.admissible_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, child timeout)."""


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "loadavg_start": list(os.getloadavg()),
            "time_start": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

class Child:
    """A finished child process: its stdout bytes, exit code, JSON report
    (or None) and resource usage."""

    def __init__(self, t_spawn, stdout, stderr, code, report, rusage):
        self.t_spawn = t_spawn
        self.stdout = stdout
        self.stderr = stderr
        self.code = code
        self.report = report
        self.rss_mb = rusage.ru_maxrss / 1024.0

    @property
    def setup_s(self) -> float:
        return self.report["t_ready"] - self.t_spawn

    @property
    def wall_s(self) -> float:
        return self.report["t_done"] - self.report["t_ready"]


def spawn(workdir: Path, tag: str, args: list[str]) -> Child:
    """Run perfbench/child.py with `args` and wait for it.  Its stdout and
    stderr go to files, so wait4 can return the child's own max RSS."""
    report = workdir / f"{tag}.report.json"
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    env = dict(os.environ)
    env.pop("MCKAY_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--report", str(report)]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > t_spawn + CHILD_TIMEOUT_S:
                    raise BenchError(f"child {tag} ran past {CHILD_TIMEOUT_S} s")
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        data = json.loads(report.read_text())
    except (OSError, ValueError):
        data = None
    return Child(t_spawn, out_path.read_bytes(), err_path.read_bytes(), code,
                 data, rusage)


def fill_cache(workdir: Path, tag: str, seed: int, size: str,
               trace_out: Path | None = None) -> tuple[Path, float]:
    """The set-up process of `series`: Dixon tables into a fresh cache."""
    cache = workdir / f"{tag}.cache"
    args = ["fill-cache", "--seed", str(seed), "--size", size,
            "--cache-dir", str(cache)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    child = spawn(workdir, tag, args)
    if child.code != 0 or child.report is None:
        raise BenchError(f"cache fill failed: {child.stderr.decode()[-2000:]}")
    return cache, child.report["t_done"] - child.t_spawn


def child_args(workload, seed, size, cache=None, trace_out=None, setup_only=False):
    args = [workload, "--seed", str(seed), "--size", size]
    if cache is not None:
        args += ["--cache-dir", str(cache)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    if setup_only:
        args.append("--setup-only")
    return args


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def judge(workload: str, size: str, child: Child) -> dict:
    """Operations attempted and failed in one timed child.  An operation is
    a criterion of `battery`, a group of `series`, an item of `quiver`.  It
    fails on a false identity; an exception, a wrong exit code, a missing
    report or a digest mismatch fails every operation of the child."""
    digest = hashlib.sha256(child.stdout).hexdigest()
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    if child.report is None:
        problems.append("no report (exception?)")
    if digest != DIGESTS[size][workload]:
        problems.append(f"stdout digest {digest[:12]} != pinned "
                        f"{DIGESTS[size][workload][:12]}")
    ops = None
    if workload == "battery":
        try:
            ops = [{"name": c["name"], "ok": c["pass"] is True}
                   for c in json.loads(child.stdout)["checks"]]
        except (ValueError, KeyError, TypeError):
            problems.append("stdout is not a check document")
    elif child.report is not None:
        ops = child.report.get("ops")
    ops = ops or [{"name": f"{workload}-run", "ok": False}]
    failed = [op["name"] for op in ops if not op["ok"]]
    if problems:
        failed = [op["name"] for op in ops]
    return {"attempted": len(ops), "failed": len(failed),
            "failed_names": failed[:20], "problems": problems, "digest": digest}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def median_entry(values, unit):
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "min": min(values), "max": max(values)}


def set_up(workload, seed, size, workdir, i) -> tuple[float, Path | None]:
    """One set-up: on `series` a cache fill, then a cold start that stops
    once mckay is imported and the inputs are made.  Returns its seconds and
    the cache directory."""
    cache, fill_s = None, 0.0
    if workload == "series":
        cache, fill_s = fill_cache(workdir, f"fill{i}", seed, size)
    start = spawn(workdir, f"start{i}",
                  child_args(workload, seed, size, cache, setup_only=True))
    if start.report is None:
        raise BenchError(f"set-up failed: {start.stderr.decode()[-2000:]}")
    return fill_s + start.setup_s, cache


def measure(workload, seed, seconds, size, workdir) -> dict:
    setups = []
    for i in range(SETUPS[workload]):
        setup_s, cache = set_up(workload, seed, size, workdir, i)
        setups.append(setup_s)
    walls, cpus, rss, durations, verdicts = [], [], [], [], []
    t0 = time.monotonic()
    while True:
        child = spawn(workdir, f"run{len(walls)}",
                      child_args(workload, seed, size, cache))
        verdicts.append(judge(workload, size, child))
        if child.report is None:
            break
        walls.append(child.wall_s)
        cpus.append(child.report["cpu_s"])
        rss.append(child.rss_mb)
        durations.append(time.monotonic() - child.t_spawn)
        if time.monotonic() - t0 + statistics.median(durations) > seconds:
            break
    metrics = {}
    if walls:
        metrics = {"wall_s": median_entry(walls, "s"),
                   "cpu_s": median_entry(cpus, "s"),
                   "setup_s": median_entry(setups, "s"),
                   "peak_rss_mb": median_entry(rss, "MB")}
    return {"metrics": metrics, "verdicts": verdicts}


def traced(workload, seed, size, workdir) -> dict:
    cache, fill_spans = None, None
    if workload == "series":
        fill_spans = workdir / "fill.spans.jsonl"
        cache, _ = fill_cache(workdir, "fill", seed, size, trace_out=fill_spans)
    plain = spawn(workdir, "plain", child_args(workload, seed, size, cache))
    spans = workdir / "run.spans.jsonl"
    traced_child = spawn(workdir, "traced",
                         child_args(workload, seed, size, cache, trace_out=spans))
    verdicts = [judge(workload, size, plain), judge(workload, size, traced_child)]
    if traced_child.stdout != plain.stdout:
        verdicts[1]["problems"].append("traced stdout differs from untraced stdout")
        verdicts[1]["failed"] = verdicts[1]["attempted"]
    if plain.report is None or traced_child.report is None or not spans.exists():
        return {"metrics": {}, "verdicts": verdicts, "functions": {}}

    run = tracer.summarize(str(spans))
    parts = [run] + ([tracer.summarize(str(fill_spans))] if fill_spans else [])
    functions: dict[str, dict] = {}
    for part in parts:
        for name, entry in part["per_name"].items():
            acc = functions.setdefault(name, dict.fromkeys(entry, 0))
            for key in acc:
                acc[key] += entry[key]
    elements = sum(p["header"]["groups_elements"] for p in parts)
    admissible = sum(p["header"]["admissible"] for p in parts)
    paths = sum(p["header"]["paths_enumerated"] for p in parts)
    # The cache is read by the timed child; the set-up process only writes.
    lookups, hits = run["cache_lookups"], run["cache_hits"]

    def fn(name, key):
        return functions.get(name, {}).get(key, 0.0 if key.endswith("_s") else 0)

    dixon_calls = fn("chartab.dixon_character_table", "calls")
    dixon_ok = dixon_calls - fn("chartab.dixon_character_table", "failed")
    samples = fn("bgp.random_representation", "calls")
    values = {
        "groups.elements": elements,
        "chartab.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "chartab.dixon_per_table": dixon_calls / dixon_ok if dixon_ok else 0.0,
        "preproj.paths_enumerated": paths,
        "bgp.admissible_ratio": admissible / samples if samples else 0.0,
        "trace.unattributed_s": run["unattributed_s"],
        "trace.overhead_s": traced_child.wall_s - plain.wall_s,
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name not in values:
            base, key = name.rsplit(".", 1)
            values[name] = fn(base, key)
        metrics[name] = {"value": values[name], "unit": unit}
    detail = {"traced_wall_s": traced_child.wall_s, "untraced_wall_s": plain.wall_s,
              "root_s": run["root_s"], "cache_lookups": lookups,
              "random_representation_calls": samples,
              "dixon_tables": dixon_ok}
    return {"metrics": metrics, "verdicts": verdicts, "functions": functions,
            "detail": detail}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, size) -> dict:
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            result = traced(workload, seed, size, workdir)
        else:
            result = measure(workload, seed, seconds, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdicts = result["verdicts"]
    result["attempted"] = sum(v["attempted"] for v in verdicts)
    result["failed"] = sum(v["failed"] for v in verdicts)
    result["error_rate"] = result["failed"] / result["attempted"]
    declared = PER_LAYER if trace else END_TO_END
    result["correct"] = (result["failed"] == 0
                         and set(result["metrics"]) == set(declared))
    return result


def print_workload(workload, result, trace) -> None:
    for name, entry in result["metrics"].items():
        extra = (f"  median of n={entry['n']}  [{entry['min']:.4f} .. "
                 f"{entry['max']:.4f}]" if "n" in entry else "")
        print(f"{workload:8s} {name:40s} {entry['value']:14.6f} "
              f"{entry['unit']:5s}{extra}")
    print(f"{workload:8s} {'error_rate':40s} {result['error_rate']:14.6f} "
          f"ratio  ({result['failed']} of {result['attempted']} operations failed)")
    problems = sorted({p for v in result["verdicts"] for p in v["problems"]})
    failed = sorted({n for v in result["verdicts"] for n in v["failed_names"]})
    for problem in problems:
        print(f"{workload:8s} PROBLEM {problem}")
    if failed:
        print(f"{workload:8s} FAILED {', '.join(failed[:20])}")
    if trace and result.get("functions"):
        detail = result["detail"]
        root = detail["root_s"]
        covered = 1 - result["metrics"]["trace.unattributed_s"]["value"] / root
        print(f"{workload:8s} traced wall {detail['traced_wall_s']:.4f} s, untraced "
              f"{detail['untraced_wall_s']:.4f} s, spans cover {covered:.2%} "
              f"of the traced workload")
        ranked = sorted(result["functions"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, entry in ranked:
            print(f"{workload:8s}   {name + '.self_s':48s} {entry['self_s']:12.6f} s"
                  f"   total {entry['total_s']:12.6f} s   calls {entry['calls']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold-process benchmark of the mckay package.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(DIGESTS), default="full")
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mckay" / "__init__.py").is_file():
        print(json.dumps({"error": f"no mckay package under {ROOT / 'src'}"}),
              file=sys.stderr)
        return 2
    # The build: byte-compile the package once, untimed, so the first cold
    # start in a fresh checkout does not pay for compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    OUT.mkdir(exist_ok=True)
    prov = provenance()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             args.trace, args.size)
            print_workload(workload, results[workload], args.trace)
    except BenchError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1

    record = {"provenance": prov, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "workloads": results}
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = OUT / (f"results-{args.workload}-seed{args.seed}-trace{args.trace}"
                  f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    def strip(metrics):
        return {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}

    if len(workloads) == 1:
        metrics = strip(results[workloads[0]]["metrics"])
    else:
        metrics = {f"{w}.{k}": v for w in workloads
                   for k, v in strip(results[w]["metrics"]).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
