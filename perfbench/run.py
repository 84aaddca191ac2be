"""mompoly benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload census-tri --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from
./src and the oracle from ./tests/oracle.py.  Outputs (census streams,
spans, a result file per run) go to ./.bench_out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 they are the per-layer ones from a traced run, plus the
tracing overhead.  Times are scaled to a fixed machine speed by the
reference loop of speed.py; the unscaled figures are printed as well.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 7
SPEED_SAMPLES = 5  # reference-loop samples before and after each set-up (median of them)
# Times the engine's import in a fresh interpreter, then samples the
# reference loop there; argv[1] is ./src, argv[2] is perfbench/.
IMPORT_PROBE = ("import json, sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
                "import mompoly.cli, mompoly.report; t = time.perf_counter() - t; import speed; "
                f"print(json.dumps([t, speed.samples({2 * SPEED_SAMPLES})]))")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_engine():
    """Import the engine from ./src and the oracle from ./tests.  Exits
    nonzero when either is missing."""
    src, oracle_path = ROOT / "src", ROOT / "tests" / "oracle.py"
    if not (src / "mompoly" / "__init__.py").is_file() or not oracle_path.is_file():
        sys.exit(f"error: {ROOT} holds no mompoly source checkout (src/mompoly, tests/oracle.py)")
    sys.path.insert(0, str(src))
    import mompoly.cli
    import mompoly.report
    if not Path(mompoly.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported mompoly from {mompoly.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("oracle", oracle_path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return mompoly.cli, mompoly.report, oracle.oracle_is_valid


def _speed() -> float:
    return statistics.median(speed.samples(SPEED_SAMPLES))


def import_times(n: int) -> list[tuple[float, float]]:
    """(seconds, seconds at reference speed) of importing the engine, in
    each of n fresh interpreters; the reference loop runs after the import."""
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(ROOT / "src"),
                               str(HERE)], capture_output=True, text=True, timeout=60, check=True)
        seconds, samples = json.loads(proc.stdout)
        after = statistics.median(samples)
        times.append((seconds, speed.at_reference(seconds, after, after)))
    return times


def setup_times(workload, n: int) -> tuple[list[tuple[float, float]], list[str]]:
    """(seconds, seconds at reference speed) of n set-ups of the workload,
    and any problems."""
    times, problems = [], []
    for _ in range(n):
        before = _speed()
        start = perf_counter()
        problems += workload.setup()
        seconds = perf_counter() - start
        times.append((seconds, speed.at_reference(seconds, before, _speed())))
    return times, problems


def scaled_median(runs: list[tuple[float, float]]) -> float:
    return statistics.median(scaled for _, scaled in runs)


def scaled_wall(result) -> float:
    return sum(result.scaled)


def more_passes(start: float, seconds: float, last_pass: float) -> bool:
    """Whether another pass, as long as the last one, ends within `seconds`."""
    return perf_counter() - start + last_pass <= seconds


def run_passes(workload, seconds: float, min_passes: int) -> list:
    results = []
    start = last = perf_counter()
    while len(results) < min_passes or more_passes(start, seconds, perf_counter() - last):
        last = perf_counter()
        results.append(workload.run_pass())
    return results


def percentile(values: list, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    rank = int(min(rank, len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed; the detail holds them
    unscaled as well."""
    latencies, items_per_s = workload.requests(passes)
    tail, beyond = percentile(latencies, workload.tail_percentile)
    raw_latencies, raw_items_per_s = workload.requests(passes, scale=False)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    detail = {"tail_percentile": workload.tail_percentile, "latency_samples": len(latencies),
              "samples_beyond_tail": beyond,
              "unscaled": {"items_per_s": raw_items_per_s,
                           "latency_p50_ms": statistics.median(raw_latencies) * 1e3,
                           "latency_tail_ms": percentile(raw_latencies,
                                                         workload.tail_percentile)[0] * 1e3}}
    return metrics, detail


def layer_metrics(agg: dict, result, candidates: int) -> dict:
    """Per-layer metrics of one traced pass.  `_s` is inclusive time of the
    outermost spans of that function, `_self_s` excludes child spans."""
    def row(name):
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    checks = row("classify.check")["calls"]
    enumerate_s = row("census.enumerate")["s"]
    return {
        "census.enumerate_s": (enumerate_s, "s"),
        "census.enumerate_share": (enumerate_s / result.wall, "ratio"),
        "census.candidates": (candidates, "count"),
        "census.self_s": (row("census.run_census")["self_s"]
                          + row("census.classify_item")["self_s"], "s"),
        "polygon.convex_hull_calls": (row("polygon.convex_hull")["calls"], "count"),
        "polygon.convex_hull_s": (row("polygon.convex_hull")["s"], "s"),
        "classify.check_calls": (checks, "count"),
        "classify.check_s": (row("classify.check")["s"], "s"),
        "classify.checks_per_item": (checks / result.items, "checks/item"),
        "classify.valid_ratio": (result.valid / result.items, "ratio"),
        "classify.classify_triangle_s": (row("classify.classify_triangle")["s"], "s"),
        "classify.manifold_model_s": (row("classify.manifold_model")["s"], "s"),
        "difftype.diffeo_type_s": (row("difftype.diffeo_type")["s"], "s"),
        "difftype.chern_mod3_s": (row("difftype.chern_mod3")["s"], "s"),
        "kaehler.is_kaehlerizable_s": (row("kaehler.is_kaehlerizable")["s"], "s"),
        "kaehler.fixpoint_images_s": (row("kaehler.fixpoint_images")["s"], "s"),
        "kaehler.fixpoint_boundary_check_s": (row("kaehler.fixpoint_boundary_check")["s"], "s"),
        "kaehler.build_xray_s": (row("kaehler.build_xray")["s"], "s"),
        "lattice.primitive_ray_calls": (row("lattice.primitive_ray")["calls"], "count"),
        "lattice.primitive_ray_s": (row("lattice.primitive_ray")["s"], "s"),
        "report.full_report_self_s": (row("report.full_report")["self_s"], "s"),
        "report.render_s": (row("report.render")["s"], "s"),
        "cli.self_s": (row("cli.main")["self_s"] + row("cli.on_item")["self_s"], "s"),
    }


def at_reference_speed(metrics: dict, result) -> dict:
    """Times of one pass's metrics scaled as the pass's wall time was."""
    factor = scaled_wall(result) / result.wall
    return {name: (value * factor if unit == "s" else value, unit)
            for name, (value, unit) in metrics.items()}


def traced_passes(workload, seconds: float, tracer: Tracer) -> list:
    """Traced passes: (result, per-span aggregate, candidates) for each."""
    out = []
    with tracer:
        start = last = perf_counter()
        while not out or more_passes(start, seconds, perf_counter() - last):
            last = perf_counter()
            before = tracer.candidates
            with tracer.span("bench.pass") as root:
                result = workload.run_pass(traced=True)
            out.append((result, tracer.aggregate(root), tracer.candidates - before))
    return out


def median_metrics(rows: list) -> dict:
    return {name: (statistics.median(r[name][0] for r in rows), unit)
            for name, (_, unit) in rows[0].items()}


def breakdown(agg: dict, wall: float) -> list[str]:
    lines = [f"  {'span':34} {'calls':>9} {'incl_s':>9} {'self_s':>9} {'self%':>6}"]
    for name, row in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:34} {row['calls']:9d} {row['s']:9.4f} {row['self_s']:9.4f}"
                     f" {100 * row['self_s'] / wall:6.1f}")
    return lines


def _pairs(runs: list) -> str:
    return "[" + ", ".join(f"{seconds:.4f} -> {scaled:.4f}" for seconds, scaled in runs) + "]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, report, oracle_is_valid = load_engine()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    ctx = SimpleNamespace(seed=args.seed, out_dir=out_dir, expected=expected, cli=cli,
                          report=report, oracle_is_valid=oracle_is_valid)
    workload = workloads.make(args.workload, ctx)

    setup_runs, problems = setup_times(workload, SETUP_REPEATS)
    imports = import_times(SETUP_REPEATS)
    setup_s = scaled_median(imports) + scaled_median(setup_runs)

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "import_runs_s_factor": imports, "setup_runs_s_factor": setup_runs}
    lines = []
    if args.trace:
        passes = run_passes(workload, args.seconds / 2, 1)
        tracer = Tracer()
        traced = traced_passes(workload, args.seconds / 2, tracer)
        metrics = median_metrics([at_reference_speed(layer_metrics(agg, res, cand), res)
                                  for res, agg, cand in traced])
        untraced_wall = statistics.median(map(scaled_wall, passes))
        traced_wall = statistics.median(scaled_wall(res) for res, _, _ in traced)
        metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
        result["traced_pass_wall_s"] = [res.wall for res, _, _ in traced]
        result["absent"] = tracer.absent
        spans_path = out_dir / f"{args.workload}.spans.jsonl"
        tracer.write(spans_path)
        lines.append(f"spans: {len(tracer.names)} written to {spans_path.relative_to(ROOT)}")
        if tracer.absent:
            lines.append(f"absent (reported as 0): {', '.join(tracer.absent)}")
        res, agg, _ = traced[-1]
        lines.append(f"traced breakdown of the last pass ({res.wall:.3f} s):")
        lines += breakdown(agg, res.wall)
        checked = passes + [res for res, _, _ in traced]
    else:
        passes = run_passes(workload, args.seconds, workload.min_passes)
        metrics, detail = end_to_end(workload, passes, setup_s)
        result.update(detail)
        checked = passes

    attempted = sum(r.items for r in checked)
    failed = sum(r.failed for r in checked)
    problems += [p for r in checked for p in r.problems]
    result.update({
        "pass_wall_s": [r.wall for r in passes],
        "properties": workload.properties(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems[:50],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"mompoly benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {json.dumps(result['environment'])}")
    print(f"input properties: {json.dumps(result['properties'])}")
    print(f"untraced pass wall times (s): {json.dumps([round(w, 4) for w in result['pass_wall_s']])}")
    print(f"setup (s, unscaled -> at reference speed): median of imports {_pairs(imports)} "
          f"+ median of set-ups {_pairs(setup_runs)}")
    if not args.trace:
        print(f"latency: {result['latency_samples']} samples, tail = p{result['tail_percentile']} "
              f"with {result['samples_beyond_tail']} samples beyond it")
        print("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in result["unscaled"].items()))
    for line in lines:
        print(line)
    print(f"error_rate: {result['error_rate']:.6g} ({failed} failed of {attempted} attempted)")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
