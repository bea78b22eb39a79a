"""The benchmark's own tests: every workload end to end at smoke size.

Run from the repository root with ``python -m pytest perfbench``.  Each
test runs ``run.py --smoke`` as the driver would (a subprocess, result
on the last line) with the same checks as a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: refine-linked is kept runnable (and checked) outside BENCHMARK.json.
RUNNABLE = WORKLOADS + ["refine-linked"]


def _run(workload, trace=0, seed=3, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", RUNNABLE)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    done = _run(workload)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for meta in SPEC["end_to_end"]:
        entry = result["metrics"][meta["name"]]
        assert entry["unit"] == meta["unit"]
        assert entry["value"] > 0
    notes = json.loads(lines[-2])
    if workload == "ingest-recipes":
        # The one known fault: the first publish of every round.
        assert result["failed"] == notes["rounds"]
        assert result["attempted"] % notes["rounds"] == 0
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", RUNNABLE)
def test_traced_run_reports_every_per_layer_metric(workload):
    done = _run(workload, trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for meta in SPEC["per_layer"]:
        assert result["metrics"][meta["name"]]["unit"] == meta["unit"]


def test_runs_attempt_whole_sessions():
    # 8 clicks and 6 x 5 previews per refine-linked session.
    result = json.loads(_run("refine-linked").stdout.splitlines()[-1])
    assert result["attempted"] % 38 == 0


def test_a_wrong_count_or_view_fails_its_operation():
    from chain import ChipChain, Click, check_click
    from common import Ops

    extents = {"type": frozenset("abcd"), "even": frozenset("bd")}

    class Open:
        predicate = "type"

    ops = Ops()
    chain = ChipChain(extents.__getitem__)
    check_click(chain, Click("open", Open()), [], frozenset("abcd"), ops,
                ops.new(), "s")
    refine = Click("refine", None, ["even"], "even")
    preview = ops.new()
    check_click(chain, refine, [(preview, 3)], frozenset("bd"), ops,
                ops.new(), "s")
    assert ops.failed == 2  # the preview, and the click it was applied by
    assert ops.attempted == 3


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(
        "browse-recipes", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py"
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
