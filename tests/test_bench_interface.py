"""The benchmark's calls into the program, run in-process at its `tiny`
size: a name that `perfbench/child.py` or `perfbench/tracer.py` calls and
the program no longer has fails here, not only in a benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tiny_workloads_pass_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child, tracer = importlib.import_module("child"), importlib.import_module("tracer")
    sizes = child.SIZES["tiny"]
    active = tracer.Tracer(run_id="tiny")
    active.install()
    try:
        root = active.open_root("workload")
        _, series_ops = child.run_series(sizes["series"], 1, str(tmp_path / "cache"))
        _, quiver_ops = child.run_quiver(sizes["quiver"], 1)
        active.close_root(root)
    finally:
        active.uninstall()
    ops = series_ops + quiver_ops
    assert ops and [op["name"] for op in ops if not op["ok"]] == []

    trace = tmp_path / "trace.jsonl"
    active.write(str(trace), root=root)
    names = tracer.summarize(str(trace))["per_name"]
    # Names that child.py imports with `from ... import` are wrapped only
    # when it runs as __main__; these are reached through module attributes.
    for name in ("molien.hom_dim", "preproj.truncated_hilbert",
                 "bgp.round_trip_isomorphism", "bgp.find_isomorphism",
                 "ktheory.simple_family"):
        assert names[name]["calls"] > 0, name
