"""omlogic benchmark: time to a correct verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark imports the package
from ``src/`` and sets ``PYTHONPATH`` for the ``python -m omlogic`` children
itself.  Workloads, metric names and units are read from ``BENCHMARK.json``.

``--trace 0`` repeats the workload's fixed batch, with tracing off, until
``--seconds`` is used up (at least ``min_batches`` times) and reports the
end-to-end metrics as medians.  Times are in seconds at the reference speed
of ``speed.py``: each operation and set-up is divided by the machine's
slowdown, measured around it by kernels that never touch omlogic.  Before
each batch the program is imported afresh and set up ``SETUP_REPEATS`` times;
the median set-up time is reported, so that work moved into set-up shows.
``verdict_ms_tail`` is the highest of p50/p90/p99/p99.9 that leaves ten of the
workload's minimum sample count (operations per batch times ``min_batches``)
beyond it, taken over all the run's samples.

``--trace 1`` runs the batch once untraced, once with spans around the public
functions, and once counting calls, including the hot lattice queries, and
reports the per-layer metrics and the tracing overhead.  These are fixed
passes, so ``--seconds`` is not used, and their times are raw seconds.  The counts must repeat
exactly: between the two traced passes, and across runs with the same seed and
the same source (remembered under ``perfbench/out/counts``).  A count that
differs stops the run with exit code 3.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it summarise the
run next to the ROADMAP baseline, and a full report (machine facts, operation
definition, sample counts, the tail percentile used, per-batch times) is
written to ``perfbench/out``.  Exit code 2 means the program or
``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from spawner import Spawner  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter

SETUP_REPEATS = 4  # per batch
PROBES = 5
TAIL_LADDER = (50, 90, 99, 99.9)


# -- helpers -----------------------------------------------------------------------------


def load_program(src: Path):
    """A fresh import of omlogic from ``src`` with every module loaded."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    tr.purge()
    om = importlib.import_module("omlogic")
    for name in tr.MODULES:
        importlib.import_module(f"omlogic.{name}")
    where = Path(om.__file__).resolve().parent
    if where != (src / "omlogic").resolve():
        raise RuntimeError(f"imported omlogic from {where}, expected {src / 'omlogic'}")
    return om


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # see main()
    return env


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples beyond
    it, by the nearest-rank method."""
    fits = [p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10]
    if not fits:
        raise ValueError(f"{n} samples are too few for a tail")
    return fits[-1]


def percentile(samples: list[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile."""
    xs = sorted(samples)
    return xs[math.ceil(p / 100 * len(xs)) - 1]


def run_batch(ops, check, around=None, speed=None):
    """Run the operations in order, one at a time, and check each outcome
    with ``check(kind, outcome)`` right after it is timed, so that grading is
    never timed.  Returns the batch wall time, per-operation seconds,
    (kind, outcome) pairs and the wrong verdicts.  With ``speed``, each
    operation's seconds are divided by the mean of what it returns just before
    and just after the operation."""
    times, outcomes, errors = [], [], []
    start = clock()
    for kind, fn in ops:
        factor = speed() if speed else 1.0
        t0 = clock()
        try:
            if around is None:
                out = fn()
            else:
                with around(kind):
                    out = fn()
            err = None
        except Exception:  # an operation that raises is a failed verdict
            out, err = None, traceback.format_exc(limit=3)
        seconds = clock() - t0
        if speed:
            factor = (factor + speed()) / 2
        times.append(seconds / factor)
        problem = err or check(kind, out)
        if problem:
            errors.append(f"{kind}: {problem}")
        outcomes.append((kind, out))
    return clock() - start, times, outcomes, errors


def checker(workload, inputs):
    return lambda kind, out: workload.check(inputs, kind, out)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def probes(spawner: Spawner) -> dict:
    """Medians of a bare interpreter start and of ``import omlogic.cli`` in a
    child, alternated, plus the peak RSS of the spawner's children."""
    runs = {"pass": [], "import omlogic.cli": []}
    for _ in range(PROBES):
        for code in runs:
            t0 = clock()
            reply = spawner.run([sys.executable, "-c", code])
            runs[code].append(clock() - t0)
            if reply["rc"] != 0:
                raise RuntimeError(f"probe {code!r} failed: {reply['stderr'][-500:]}")
    return {
        "interpreter_ms_p50": statistics.median(runs["pass"]) * 1000,
        "import_ms_p50": statistics.median(runs["import omlogic.cli"]) * 1000,
        "child_peak_rss_mb": spawner.children_peak_rss_mb(),
    }


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# -- the two kinds of run -------------------------------------------------------------------


def end_to_end(workload, src: Path, work: Path, seconds: float, spawner: Spawner) -> dict:
    kw = {"spawner": spawner} if workload.spawns else {}
    speed = Speedometer()
    setups, raw_setups, walls, raw_walls, times = [], [], [], [], []
    errors, per_kind, baselines = [], {}, {}
    rss_mb = None
    start = clock()
    while True:
        # Every batch gets a fresh import and fresh inputs, so no state is
        # reused across batches, and set-up is sampled all through the run.
        for _ in range(SETUP_REPEATS):
            om = inputs = None
            gc.collect()
            factor = speed()
            t0 = clock()
            om = load_program(src)
            inputs = workload.setup(om, work)
            raw_setups.append(clock() - t0)
            setups.append(raw_setups[-1] / factor)
        ops = workload.operations(om, inputs, **kw)
        gc.collect()
        raw_wall, op_times, outcomes, wrong = run_batch(ops, checker(workload, inputs), speed=speed)
        per_batch = len(ops)
        raw_walls.append(raw_wall)
        walls.append(sum(op_times))
        if rss_mb is None:
            # after one round of set-up and one batch, so the figure does not
            # grow with the number of batches that fit in the run
            rss_mb = spawner.children_peak_rss_mb() if workload.spawns else peak_rss_mb()
        times += op_times
        for (kind, _), t in zip(outcomes, op_times):
            per_kind.setdefault(kind.split("#")[0], []).append(t * 1000)
        errors += wrong
        for key, value in workload.baseline(outcomes).items():
            baselines.setdefault(key, []).append(value)
        del ops, outcomes
        elapsed = clock() - start
        if len(walls) >= workload.min_batches and elapsed + elapsed / len(walls) > seconds:
            break

    # The percentile follows from the fixed minimum sample count, not from how
    # many batches fit in the run, so a faster program is judged on the same one.
    pct = tail_percentile(per_batch * workload.min_batches)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "verdict_ms_p50": statistics.median(times) * 1000,
        "verdict_ms_tail": percentile(times, pct) * 1000,
        "peak_rss_mb": rss_mb,
    }
    details = {
        "times": "seconds at the reference speed of perfbench/speed.py",
        "batches": len(walls),
        "batch_s": walls,
        "batch_wall_s_raw": raw_walls,
        "setup_s_raw_median": statistics.median(raw_setups),
        "slowdown_readings": len(speed.readings),
        "slowdown_median": statistics.median(speed.readings),
        "slowdown_range": [min(speed.readings), max(speed.readings)],
        "verdict_ms_tail_percentile": pct,
        "verdict_samples": len(times),
        "verdict_ms_p50_by_kind": {k: statistics.median(v) for k, v in sorted(per_kind.items())},
        "error_rate": len(errors) / len(times),
        "baseline_raw": {k: statistics.median(v) for k, v in baselines.items()},
    }
    if workload.spawns:
        details["baseline_raw"] = {"cli_ms_p50": metrics["verdict_ms_p50"] * details["slowdown_median"],
                                   **probes(spawner)}
    return {"metrics": metrics, "attempted": len(times), "errors": errors, "details": details}


class Nondeterministic(Exception):
    """A count differs between passes or runs that must repeat it exactly."""


def traced(workload, src: Path, work: Path, out_dir: Path, seed: int, spawner: Spawner) -> dict:
    errors, attempted = [], 0

    def one_pass(tracer):
        nonlocal attempted
        om = load_program(src)
        if tracer is None:
            inputs = workload.setup(om, work)
            wall, times, _, wrong = run_batch(workload.operations(om, inputs), checker(workload, inputs))
        else:
            tracer.install(om)
            try:
                with tracer.span("setup"):
                    inputs = workload.setup(om, work)
                ops = workload.operations(om, inputs)
                wall, times, _, wrong = run_batch(ops, checker(workload, inputs),
                                                  lambda kind: tracer.span(f"op.{kind}"))
            finally:
                tracer.uninstall()
        errors.extend(wrong)
        attempted += len(times)
        return wall

    untraced_wall = one_pass(None)
    timed = tr.Tracer(timed=True)
    traced_wall = one_pass(timed)
    counted = tr.Tracer(timed=False)
    one_pass(counted)

    counts, differ = tr.deterministic_counts(timed, counted)
    if differ:
        raise Nondeterministic(f"counts differ between the timed and counting passes: {differ[:10]}")
    guard = out_dir / "counts" / f"{workload.name}-seed{seed}-{source_hash()}.json"
    if guard.exists():
        before = json.loads(guard.read_text())
        differ = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        if differ:
            raise Nondeterministic(f"counts differ from an earlier run with this seed ({guard.name}): "
                                   f"{[(k, before.get(k), counts.get(k)) for k in differ[:10]]}")
    else:
        guard.parent.mkdir(parents=True, exist_ok=True)
        guard.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")

    metrics = tr.layer_metrics(timed, counted)
    metrics.update({f"cli.{k}": v for k, v in probes(spawner).items()})
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    spans_file = out_dir / f"{workload.name}-seed{seed}-spans.json.gz"
    timed.write_spans(spans_file)
    details = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(timed.s_name),
        "spans_file": spans_file.name,
        "counts": counts,
        "counts_file": guard.name,
        "error_rate": len(errors) / attempted,
    }
    return {"metrics": metrics, "attempted": attempted, "errors": errors, "details": details}


# -- output -----------------------------------------------------------------------------------


def summary(workload, result: dict, trace: int) -> list[str]:
    d, m = result["details"], result["metrics"]
    lines = [f"perfbench {workload.name}: {result['attempted']} operations, "
             f"{len(result['errors'])} wrong, error_rate {d['error_rate']:.4f}"]
    if trace:
        lines.append(f"  tracing overhead {m['trace.overhead_s']:+.3f} s "
                     f"({d['traced_wall_s']:.3f} s traced vs {d['untraced_wall_s']:.3f} s untraced)")
        return lines
    lines.append(f"  {d['batches']} batches; wall_s {m['wall_s']:.3f}, verdict p50 "
                 f"{m['verdict_ms_p50']:.2f} ms, p{d['verdict_ms_tail_percentile']:g} "
                 f"{m['verdict_ms_tail']:.2f} ms over {d['verdict_samples']} samples, at the "
                 f"reference speed (the machine ran {d['slowdown_median']:.2f}x slower than it)")
    lines.append(f"  baseline (raw times): {workload.roadmap(d['baseline_raw'])}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_file = ROOT / "BENCHMARK.json"
    if not (src / "omlogic" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"perfbench: no omlogic sources under {src} or no {spec_file.name}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # An installed package has its bytecode compiled, so every run imports
    # omlogic the way users do, whatever PYTHONDONTWRITEBYTECODE says: the
    # first import in a checkout writes src/omlogic/__pycache__, later ones read it.
    sys.dont_write_bytecode = False

    workload = WORKLOADS[args.workload](args.seed)
    out_dir = HERE / "out"
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with Spawner(child_env(src), ROOT) as spawner:
            if args.trace:
                result = traced(workload, src, work, out_dir, args.seed, spawner)
            else:
                result = end_to_end(workload, src, work, args.seconds, spawner)
    except Nondeterministic as err:
        print(f"perfbench: DETERMINISM GUARD FAILED for {args.workload} seed {args.seed}: {err}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(result["errors"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operation": workload.operation,
        "why": workload.why,
        "loop": "closed, one client",
        "machine": machine(),
        "metrics": metrics,
        "details": result["details"],
        "errors": result["errors"][:50],
    }
    out_dir.mkdir(exist_ok=True)
    report_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")

    for line in summary(workload, result, args.trace):
        print(line)
    for err in result["errors"][:5]:
        print(f"  WRONG {err}")
    print(f"  report: {report_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
