"""Fast self-check of the benchmark: small plans pass, tampered outputs fail.

Usage (from the repository root): python3 perfbench/selfcheck.py

1. Runs every workload's plan, shrunk to at most a few thousand samples per
   operation, through the worker and the oracle checks, and requires that
   every check passes and that only the README interference command fails.
2. Shows that the checks have teeth: for every kind of output it requires
   rejection of a trajectory run with a 5% wrong decay rate, of one value
   moved by 1e-6, and of two swapped columns; and it requires that differing
   repeats, a --jobs 2 output that differs from --jobs 1, an unexpected
   failure and a traced function that no longer exists are reported.

Prints one line per case and exits 1 if any case goes the wrong way.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import sys
import tempfile
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

MAX_STEPS = 3000
MAX_POINTS = 600
SEED = 7


def shrink(op):
    """The same operation with at most MAX_STEPS steps or MAX_POINTS points."""
    op = copy.deepcopy(op)
    if op["kind"] == "lib":
        n = min(op["samples"] - 1, MAX_STEPS)
        op["t_max"], op["samples"] = n * op["dt"], n + 1
        return op
    argv, params = op["argv"], op["params"]
    if "dt" in params:
        n = min(int(round(float(params["t_max"]) / float(params["dt"]))), MAX_STEPS)
        params["t_max"] = repr(n * float(params["dt"]))
        argv[argv.index("--t-max") + 1] = params["t_max"]
        op["samples"] = n + 1
    elif params.get("points") is not None and int(params["points"]) > MAX_POINTS:
        points = MAX_POINTS + int(params["points"]) % 2
        if "tau_max" in params:  # keep the Ramsey grid below the Nyquist limit
            params["tau_max"] = repr(float(params["tau_max"]) * (points - 1)
                                     / (int(params["points"]) - 1))
            argv[argv.index("--tau-max") + 1] = params["tau_max"]
        if "x_max" in params:  # keep the samples per fringe
            scale = (points - 1) / (int(params["points"]) - 1)
            for name in ("x_min", "x_max"):
                params[name] = repr(float(params[name]) * scale)
                argv[argv.index("--" + name.replace("_", "-")) + 1] = params[name]
        params["points"] = str(points)
        argv[argv.index("--points") + 1] = params["points"]
        op["samples"] = points
    return op


def expect(outcome_ok, label, failures):
    print(f"{'ok  ' if outcome_ok else 'FAIL'} {label}")
    if not outcome_ok:
        failures.append(label)


def rejected(check, *args):
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def _run_cli(argv):
    sys.path.insert(0, run.SRC)
    from qubitsim import cli

    fd, path = tempfile.mkstemp(dir=run.WORK_ROOT, suffix=".out")
    os.close(fd)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv + ["--output", path])
        with open(path, newline="") as handle:
            return rc, handle.read()
    finally:
        os.unlink(path)


def _nudge_csv(text, column, row, amount):
    lines = text.split("\n")
    cells = lines[1 + row].split(",")
    cells[column] = f"{float(cells[column]) + amount:#.9g}"
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines)


def _swap_csv(text, a, b):
    out = []
    for i, line in enumerate(text.split("\n")):
        cells = line.split(",")
        if i and len(cells) > max(a, b):
            cells[a], cells[b] = cells[b], cells[a]
        out.append(",".join(cells))
    return "\n".join(out)


def _nudge_json(text, key, row, amount):
    doc = json.loads(text)
    doc["data"][key][row] += amount
    return json.dumps(doc, indent=2) + "\n"


def _swap_json(text, a, b):
    doc = json.loads(text)
    data = doc["data"]
    data[a], data[b] = data[b], data[a]
    return json.dumps(doc, indent=2) + "\n"


def _scaled_rate(op, factor):
    """The op with its dephasing rate (CLI) or every channel (library) scaled."""
    op = copy.deepcopy(op)
    if op["kind"] == "lib":
        op["channels"] = [[(np.sqrt(factor) * np.array(part)).tolist() for part in ch]
                          for ch in op["channels"]]
        return op
    name = "dephasing_rate" if "dephasing_rate" in op["params"] else "delta"
    value = repr(float(op["params"][name]) * factor)
    op["params"][name] = value
    op["argv"][op["argv"].index("--" + name.replace("_", "-")) + 1] = value
    return op


def teeth(plans, failures):
    ops = [op for plan in plans.values() for op in plan if not op["expect_fail"]]
    seen = set()
    for op in ops:
        kind = ("lib-" + op["h"]["drive_mode"] if op["kind"] == "lib"
                else f"{op['argv'][0]}-{op['fmt']}"
                + ("-single" if op["argv"][0] == "superdense" and "points" not in op["params"]
                   else ""))
        if kind in seen:
            continue
        seen.add(kind)
        if op["kind"] == "lib":
            _lib_teeth(kind, op, failures)
        else:
            _cli_teeth(kind, op, failures)


def _lib_teeth(kind, op, failures):
    sys.path.insert(0, run.SRC)
    import qubitsim as qs

    def evolve(o):
        h = o["h"]
        ham = qs.QubitHamiltonian(h["epsilon"], h["omega_rabi"], h["omega0"],
                                  qs.DriveMode(h["drive_mode"]))
        chans = [qs.LindbladChannel(checks._complex(c)) for c in o["channels"]]
        s = qs.evolve_lindblad(checks._complex(o["rho0"]), ham, chans, o["t_max"], o["dt"])
        return {"times": s.times, "p_g": s.p_g.copy(), "p_e": s.p_e.copy(),
                "rho01": s.rho01.copy()}

    good = evolve(op)
    expect(not rejected(checks.check_lib, op, good), f"{kind}: correct output accepted", failures)
    expect(rejected(checks.check_lib, op, evolve(_scaled_rate(op, 1.05))),
           f"{kind}: 5% wrong decay rate rejected", failures)
    row = len(good["times"]) // 3
    nudged = dict(good, rho01=good["rho01"].copy())
    nudged["rho01"][row] += 1e-6
    expect(rejected(checks.check_lib, op, nudged), f"{kind}: rho01 off by 1e-6 rejected", failures)
    swapped = dict(good, p_g=good["p_e"], p_e=good["p_g"])
    expect(rejected(checks.check_lib, op, swapped), f"{kind}: swapped p_g/p_e rejected", failures)


# Output shape -> (CSV column and JSON key to nudge, CSV columns and JSON keys to swap).
_TAMPER = {
    "trajectory": (2, "p_e", (3, 4), ("re_rho01", "im_rho01")),
    "superdense": (1, "success_00", (0, 1), ("t", "success_00")),
    "single": (1, "probabilities", (0, 1), ("probabilities", "decoded")),
    "interference": (1, "intensity", (0, 1), ("x", "intensity")),
}


def _cli_teeth(kind, op, failures):
    rc, text = _run_cli(op["argv"])
    expect(rc == 0 and not rejected(checks.check_cli, op, text),
           f"{kind}: correct output accepted", failures)
    sub, single = op["argv"][0], "points" not in op["params"]
    if sub in ("dephasing", "rabi", "ramsey") or (sub == "superdense" and not single):
        wrong = _scaled_rate(op, 1.05)
        if float(wrong["params"].get("delta", wrong["params"].get("dephasing_rate", 0))) > 0:
            rc, wrong_text = _run_cli(wrong["argv"])
            expect(rejected(checks.check_cli, op, wrong_text),
                   f"{kind}: 5% wrong decay rate rejected", failures)
    shape = "trajectory" if sub in ("dephasing", "rabi", "ramsey") else \
        ("single" if sub == "superdense" and single else sub)
    column, key, (a, b), (key_a, key_b) = _TAMPER[shape]
    if op["fmt"] == "csv":
        nudged = _nudge_csv(text, column, (text.count("\n") - 1) // 2, 1e-6)
        swapped = _swap_csv(text, a, b)
    else:
        nudged = _nudge_json(text, key, len(json.loads(text)["data"][key]) // 2, 1e-6)
        swapped = _swap_json(text, key_a, key_b)
    expect(rejected(checks.check_cli, op, nudged), f"{kind}: one value off by 1e-6 rejected",
           failures)
    expect(rejected(checks.check_cli, op, swapped), f"{kind}: swapped columns rejected", failures)


def repeat_properties(failures):
    plan = [{"id": 0, "kind": "cli", "argv": ["superdense"], "expect_fail": False},
            {"id": 1, "kind": "cli", "argv": ["superdense"], "expect_fail": False, "pair": 0}]
    same = {"records": [[0, 0, 0.1, 0, "a"], [0, 1, 0.1, 0, "b"]], "messages": {}}
    repeat = {"records": [[0, 0, 0.1, 0, "a"], [1, 0, 0.1, 0, "c"]], "messages": {}}
    saved, checks.check_cli = checks.check_cli, lambda op, text: None
    saved_read, run._read_output = run._read_output, lambda op, work: ""
    try:
        pair_problems = run.verify(plan, same, None)
        repeat_problems = run.verify(plan[:1], repeat, None)
        unexpected = run.verify(plan[:1], {"records": [[0, 0, 0.1, 2, None]],
                                           "messages": {"0": "error: boom"}}, None)
    finally:
        checks.check_cli, run._read_output = saved, saved_read
    expect(any("--jobs 2" in p for p in pair_problems),
           "--jobs 2 output differing from --jobs 1 reported", failures)
    expect(any("identical flags" in p for p in repeat_problems),
           "identical flags with differing outputs reported", failures)
    expect(bool(unexpected), "unexpected failing operation reported", failures)


def absent_layer(failures):
    """A deleted private function is reported absent and the traced run goes on."""
    sys.path.insert(0, run.SRC)
    import qubitsim

    modules = {name: module for name, module in sys.modules.items()
               if name == "qubitsim" or name.startswith("qubitsim.")}
    stub = types.ModuleType("qubitsim.cli")
    stub.__dict__.update((k, v) for k, v in vars(modules["qubitsim.cli"]).items()
                         if k != "_map_chunks")
    modules["qubitsim.cli"] = stub
    tracer = tracing.Tracer(modules)
    h = qubitsim.QubitHamiltonian(epsilon=1.0)
    tracer.install()
    try:
        tracer.op(lambda: qubitsim.evolve_lindblad(np.eye(2) / 2, h, (), 1.0, 0.01))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    expect(summary["absent"] == ["qubitsim.cli._map_chunks"]
           and summary["calls"]["dynamics.integrate_static"] == 1,
           "deleted _map_chunks reported absent, other layers still traced", failures)


def main():
    if not os.path.isfile(os.path.join(run.SRC, "qubitsim", "cli.py")):
        print(f"error: no qubitsim sources under {run.SRC}", file=sys.stderr)
        return 2
    failures = []
    plans = {w: [shrink(op) for op in make_plan(w, SEED)] for w in WORKLOADS}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    for workload, plan in plans.items():
        work = tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK_ROOT)
        try:
            results = run.run_worker(plan, work, 0, False)
            problems = run.verify(plan, results, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed = [r[1] for r in results["records"] if r[3] != 0]
        expected = [op["id"] for op in plan if op["expect_fail"]] * results["rounds"]
        for problem in problems:
            print(f"     {problem}")
        expect(not problems and sorted(failed) == sorted(expected),
               f"{workload}: {len(plan)} small operations x {results['rounds']} rounds checked",
               failures)
    teeth(plans, failures)
    repeat_properties(failures)
    absent_layer(failures)
    print(f"{len(failures)} unexpected outcomes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
