"""qubitsim benchmark: seeded workloads, oracle checks, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-trajectory --seed 1 --seconds 30 --trace 0

Workloads: cli-trajectory, library-evolve, cli-sweeps (see perfbench/README.md).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
with per-layer spans and reports the per-layer metrics instead. Exit code 0
means a result was printed; any other code means no result (for instance
when src/qubitsim is missing).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

# The worker may overrun --seconds by a round or two, its set-up probes and
# the span summary of a traced run.
WORKER_TIMEOUT_FACTOR, WORKER_TIMEOUT_MARGIN_S = 1.5, 60.0
# The README interference command: exits 2 until 8-digit amplitudes are accepted.
EXPECTED_FAILURE = ("path amplitudes are not normalized", 2)


def run_worker(plan, work, seconds, trace):
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as handle:
        json.dump(plan, handle)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, work,
                    str(seconds), "1" if trace else "0", SRC],
                   timeout=WORKER_TIMEOUT_FACTOR * seconds + WORKER_TIMEOUT_MARGIN_S, check=True)
    with open(os.path.join(work, "results.json")) as handle:
        return json.load(handle)


def _read_output(op, work):
    path = os.path.join(work, f"op-{op['id']}.{op['fmt'] if op['kind'] == 'cli' else 'npz'}")
    if op["kind"] == "lib":
        with np.load(path) as data:
            return {name: data[name] for name in data.files}
    with open(path, newline="") as handle:
        return handle.read()


def verify(plan, results, work):
    """Check outputs against the oracles and the repeat properties; return the problems."""
    problems = []
    by_op = {op["id"]: [] for op in plan}
    for _, op_id, _, rc, digest in results["records"]:
        by_op[op_id].append((rc, digest))
    digests = {}
    for op in plan:
        runs = by_op[op["id"]]
        codes = {rc for rc, _ in runs}
        if codes != {0}:
            message = results["messages"].get(str(op["id"]), "")
            expected = op["expect_fail"] and codes == {EXPECTED_FAILURE[1]} \
                and EXPECTED_FAILURE[0] in message
            if not expected:
                problems.append(f"op {op['id']} ({op.get('argv', op.get('variant'))}) "
                                f"exit codes {sorted(codes, key=str)}: {message}")
            continue
        seen = {digest for _, digest in runs}
        if len(seen) != 1:
            problems.append(f"op {op['id']}: identical flags gave {len(seen)} different outputs")
            continue
        digests[op["id"]] = seen.pop()
        try:
            if op["kind"] == "cli":
                checks.check_cli(op, _read_output(op, work))
            else:
                checks.check_lib(op, _read_output(op, work))
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    for op in plan:
        if "pair" in op and op["id"] in digests and digests.get(op["pair"]) != digests[op["id"]]:
            problems.append(f"op {op['id']}: --jobs 2 output differs from --jobs 1 "
                            f"(op {op['pair']})")
    return problems


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, int(np.ceil(q * len(sorted_values))) - 1)]


def end_to_end(plan, results):
    """End-to-end metrics over the successful operations.

    samples_per_s is all output samples the run delivered over the summed
    latency of the operations that delivered them: a mean over the whole
    run, which averages over the machine's slow and fast spells.
    """
    samples = {op["id"]: op["samples"] for op in plan}
    ok = [record for record in results["records"] if record[3] == 0]
    latencies = sorted(seconds for _, _, seconds, _, _ in ok)
    delivered = sum(samples[op_id] for _, op_id, _, _, _ in ok)
    return {
        "setup_s": (statistics.median(results["setup_s"]), "s"),
        "samples_per_s": (delivered / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * nearest_rank(latencies, 0.5), "ms"),
        "op_p90_ms": (1e3 * nearest_rank(latencies, 0.9), "ms"),
        "peak_rss_mib": (results["peak_rss_kib"] / 1024.0, "MiB"),
    }


def per_layer(results):
    """Per-layer metrics, each averaged over the traced rounds."""
    summary = results["trace"]
    walls = results["round_walls"]
    n = len(walls["traced"])
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}_s"] = (summary["self_s"][layer] / n, "s")
        metrics[f"{layer}_calls"] = (summary["calls"][layer] / n, "count")
    for name, value in summary["counts"].items():
        metrics[name] = (value / n, "bytes" if name.endswith("_bytes") else "count")
    steps = summary["counts"]["dynamics.steps"]
    integrate = summary["self_s"]["dynamics.integrate_static"] + \
        summary["self_s"]["dynamics.integrate_driven"]
    metrics["dynamics.steps_per_s"] = (steps / integrate if integrate > 0 else 0.0, "1/s")
    metrics["trace.wall_s"] = (summary["wall_s"] / n, "s")
    metrics["trace.unattributed_s"] = (summary["self_s"][tracing.OP] / n, "s")
    metrics["trace.thread_overlap_s"] = (summary["thread_overlap_s"] / n, "s")
    metrics["trace.overhead_s"] = (statistics.mean(walls["traced"])
                                   - statistics.mean(walls["untraced"]), "s")
    for name in summary["absent"]:
        print(f"layer absent: {name}", file=sys.stderr)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qubitsim", "cli.py")):
        print(f"error: no qubitsim sources under {SRC}", file=sys.stderr)
        return 2

    plan = make_plan(args.workload, args.seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        started = time.perf_counter()
        results = run_worker(plan, work, args.seconds, args.trace)
        worker_s = time.perf_counter() - started
        problems = verify(plan, results, work)
        if args.trace:
            shutil.copyfile(os.path.join(work, "spans.npz"),
                            os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.npz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(results) if args.trace else end_to_end(plan, results)
    attempted = len(results["records"])
    failed = sum(1 for record in results["records"] if record[3] != 0)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {results['rounds']} rounds, {attempted} ops "
          f"({failed} failed) in {worker_s:.1f} s, {len(problems)} check failures")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
