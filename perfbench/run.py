"""Benchmark for twoomega: one workload per run, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload n7_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures half the time untraced and half traced, and
reports the per-layer metrics plus the tracing overhead.  End-to-end
timings are calibrated to full machine speed by a probe between items
(speed.py); the raw wall-clock figures are printed on report lines.
Report lines go to stdout; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.  ``--smoke`` runs every workload on a
handful of items in both modes and checks the output against
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import CHILD_PROBE_NOMINAL_S, SpeedClock, child_probe
from tracing import Tracer, percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("palette_over_budget", "ratio"),
)
DERIVED = {
    "colorer.color_bounded.self_us",
    "cli.scan_stream.overhead_us",
    "cli.import_ms",
    "cli.compute_ms",
    "trace.throughput_per_s.delta",
    "trace.latency_p50_ms.delta",
    "trace.latency_tail_ms.delta",
}


def per_layer_metrics(branches, kinds) -> list[tuple[str, str]]:
    out = [
        ("patterns.is_class_member.reject_us", "us"),
        ("patterns.is_class_member.member_us", "us"),
        ("patterns.member_ratio", "ratio"),
        ("oracles.clique_number.us", "us"),
        ("oracles.chromatic_number.us", "us"),
        ("colorer.find_branch.us", "us"),
        ("colorer.find_branch.share", "ratio"),
        ("colorer.color_bounded.us", "us"),
        ("colorer.color_bounded.self_us", "us"),
    ]
    out += [(f"colorer.color_bounded.{b}.us", "us") for b in branches]
    out += [(f"colorer.execute_part.{k}.us", "us") for k in kinds]
    out += [(f"colorer.execute_part.{k}.count", "count") for k in kinds]
    out += [("colorer.check_certificate.us", "us")]
    out += [(f"colorer.branch.{b}.count", "count") for b in branches]
    out += [
        ("graphs.graph6_encode.us", "us"),
        ("graphs.graph6_decode.us", "us"),
        ("cli.random_graph.us", "us"),
        ("cli.sample_class.draws", "count"),
        ("cli.sample_class.accept_ratio", "ratio"),
        ("cli.scan_stream.overhead_us", "us"),
        ("cli.emit_records.us", "us"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.compute_ms", "ms"),
        ("trace.throughput_per_s.delta", "1/s"),
        ("trace.latency_p50_ms.delta", "ms"),
        ("trace.latency_tail_ms.delta", "ms"),
    ]
    return out


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Import twoomega from this checkout's src/."""
    os.environ.pop("TWOOMEGA_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import twoomega.cli  # noqa: F401  (imports every layer)
    import twoomega

    where = Path(twoomega.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        fail(f"twoomega resolved to {where}, outside {SRC}")


def environment() -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    import twoomega

    return (
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"platform={platform.platform()} commit={commit} "
        f"twoomega={Path(twoomega.__file__).resolve()}"
    )


def end_to_end(res, setup_s: float) -> dict:
    """The end-to-end metrics of one pass; timings are calibrated."""
    lat_ms = [t * 1e3 for t in res.latencies]
    q = tail_percentile(len(lat_ms))
    return {
        "setup_s": setup_s,
        "throughput_per_s": res.items / res.elapsed,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_tail_ms": percentile(lat_ms, q),
        "ok_ratio": 1.0 - res.failed / res.items,
        "peak_rss_mb": res.peak_rss_mb,
        "palette_over_budget": statistics.fmean(res.palette) if res.palette else 0.0,
        "_tail_q": q,
        "_count": len(lat_ms),
        "_wall_throughput": res.items / res.wall,
    }


def report(workload, res, e2e: dict, label: str) -> None:
    print(f"[{label}] {workload.item}s attempted={res.items} failed={res.failed} "
          f"failed_ratio={res.failed / res.items:.6g} elapsed={res.elapsed:.3f}s")
    for name, unit in END_TO_END:
        print(f"[{label}] {name} = {e2e[name]:.6g} {unit}")
    print(f"[{label}] latency_tail_ms is p{e2e['_tail_q']:.2f} over "
          f"{e2e['_count']} {workload.item}s")
    print(f"[{label}] raw wall clock: {res.wall:.3f} s of work, "
          f"{e2e['_wall_throughput']:.6g} {workload.item}s/s")
    for note in res.notes:
        print(f"[{label}] {note}")
    print(f"[{label}] sha256 {res.digest}")
    for name, ok, detail in res.checks:
        print(f"[{label}] check {name}: {'ok' if ok else 'FAILED'} ({detail})")


def run_workload(args) -> int:
    if args.workload == "witness_cli":
        # its items are child processes, and so is its probe
        speed = SpeedClock(child_probe(ROOT), CHILD_PROBE_NOMINAL_S)
    else:
        speed = SpeedClock()
    _, import_s = speed.call(load_program)
    import workloads

    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    workload = workloads.make(args.workload, ROOT)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} items={args.items or 'unlimited'}")
    print(f"env {environment()}")

    # Inputs are built and warmed up several times.  A build is calibrated
    # step by step, a warm-up by a probe on either side.
    builds, warms = [], []
    for _ in range(SETUP_REPEATS):
        inputs, build_s = speed.measure(workload.setup(args.seed, args.items))
        builds.append(build_s)
        warms.append(speed.call(workload.warm, inputs)[1])
    setup_s = import_s + statistics.median(builds) + statistics.median(warms)
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    print(f"setup (calibrated) import={import_s:.4f}s, medians of {SETUP_REPEATS}: "
          f"build={statistics.median(builds):.4f}s ({', '.join(f'{b:.4f}' for b in builds)}) "
          f"warmup={statistics.median(warms):.4f}s ({', '.join(f'{w:.4f}' for w in warms)})")

    seconds = args.seconds if not args.trace else args.seconds / 2
    plain = workload.run(inputs, seconds, args.items, speed)
    e2e = end_to_end(plain, setup_s)
    report(workload, plain, e2e, "untraced")
    results = [plain]

    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        tracer = Tracer()
        traced = workload.run(inputs, seconds, args.items, speed, tracer)
        e2e_traced = end_to_end(traced, setup_s)
        report(workload, traced, e2e_traced, "traced")
        results.append(traced)
        values = workload.layers(tracer, traced)
        for kind in workloads.PART_KINDS:
            values[f"colorer.execute_part.{kind}.count"] = traced.parts[kind]
        for b in workloads.BRANCHES:
            values[f"colorer.branch.{b}.count"] = traced.branches[b]
        for name in ("throughput_per_s", "latency_p50_ms", "latency_tail_ms"):
            values[f"trace.{name}.delta"] = e2e_traced[name] - e2e[name]
        spans = OUT / f"{args.workload}.spans.tsv"
        tracer.write(spans)
        print(f"[traced] {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
        metrics = {}
        for name, unit in per_layer_metrics(workloads.BRANCHES, workloads.PART_KINDS):
            metrics[name] = {"value": values.get(name, 0), "unit": unit}
            mark = " (derived)" if name in DERIVED else ""
            print(f"[layer] {name} = {metrics[name]['value']:.6g} {unit}{mark}")

    print(speed.summary())
    attempted = sum(r.items for r in results)
    failed = sum(r.failed for r in results)
    correct = failed == 0 and all(ok for r in results for _, ok, _ in r.checks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def smoke() -> int:
    """Run each workload on a handful of items in both modes and check the
    result line against BENCHMARK.json."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(workloads.NAMES):
        problems.append(f"BENCHMARK.json lists {names}, the benchmark has {workloads.NAMES}")
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "1", "--seconds", "2", "--trace", str(trace), "--items", "24"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            where = f"{name} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(wanted[trace]))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {lines[-1][:200]}")
            print(f"smoke {where}: {len(got)} metrics, attempted={result['attempted']}")
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="stop after this many items and shrink the inputs (smoke runs)")
    ap.add_argument("--smoke", action="store_true", help="quick self-check of every workload")
    args = ap.parse_args()
    if not (SRC / "twoomega" / "__init__.py").is_file():
        fail(f"no twoomega package under {SRC}")
    if args.smoke:
        sys.path.insert(0, str(SRC))
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
