"""Tiny settings of all three workloads, so the benchmark cannot rot.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
from spawner import Spawner
from workloads import Algebra, CliBatch, ProofCorpus

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SRC = run.ROOT / "src"


def tiny(name: str, seed: int = 3):
    if name == "algebra":
        w = Algebra(seed, lattices=(("mo", 2), ("boolean", 2)),
                    quantale_args=("--random-maps", "4", "--pairs", "4", "--join-maps", "4"))
        w.min_batches = 7  # 21 operations, enough for a tail
    elif name == "proof-corpus":
        w = ProofCorpus(seed, lattices=(("mo", 2),), mutants=10, composed=False)
    else:
        w = CliBatch(seed, length=13)
    return w


@pytest.fixture
def spawner():
    with Spawner(run.child_env(SRC), run.ROOT) as s:
        yield s


@pytest.mark.parametrize("name", ["algebra", "proof-corpus", "cli-batch"])
def test_end_to_end(name, tmp_path, spawner):
    result = run.end_to_end(tiny(name), SRC, tmp_path, 0.1, spawner)
    assert result["errors"] == []
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]] > 0, metric["name"]


@pytest.mark.parametrize("name", ["algebra", "proof-corpus", "cli-batch"])
def test_traced_counts_repeat(name, tmp_path, spawner):
    first = run.traced(tiny(name), SRC, tmp_path, tmp_path, 3, spawner)
    assert first["errors"] == []
    assert {m["name"] for m in SPEC["per_layer"]} <= set(first["metrics"])
    # the second run compares its counts with the first one's and raises on a difference
    second = run.traced(tiny(name), SRC, tmp_path, tmp_path, 3, spawner)
    assert second["details"]["counts"] == first["details"]["counts"]


def test_guard_rejects_changed_counts(tmp_path, spawner):
    run.traced(tiny("proof-corpus"), SRC, tmp_path, tmp_path, 3, spawner)
    for path in (tmp_path / "counts").iterdir():
        counts = json.loads(path.read_text())
        counts["calls.kernel.check_derivation"] += 1
        path.write_text(json.dumps(counts))
    with pytest.raises(run.Nondeterministic):
        run.traced(tiny("proof-corpus"), SRC, tmp_path, tmp_path, 3, spawner)


def test_wrong_verdict_counts_as_failure(tmp_path):
    w = tiny("proof-corpus")
    om = run.load_program(SRC)
    inputs = w.setup(om, tmp_path)
    key = next(iter(inputs["expected"]))
    inputs["expected"][key] = frozenset({"1"})  # no measurement branch set is {1}
    _, _, _, wrong = run.run_batch(w.operations(om, inputs), run.checker(w, inputs))
    assert len(wrong) == 1


def test_slowdown_is_a_finite_ratio():
    assert 0.01 < speed.slowdown() < 100


def test_tail_has_ten_samples_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1042 * 2) == 99
    with pytest.raises(ValueError):
        run.tail_percentile(19)
    assert run.percentile(list(range(20)), 50) == 9
    assert run.percentile(list(range(100)), 90) == 89


def test_refuses_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not Path(tmp_path / "perfbench" / "out").exists()
