"""Run one workload's plan in a fresh interpreter and time every operation.

Usage: python3 worker.py PLAN.json OUT_DIR SECONDS TRACE SRC_DIR

Besides the standard library, the worker imports only qubitsim (and numpy
through it), so its peak resident memory is the program's. It runs whole
rounds of the plan, one operation at a time (a closed loop with one
caller), until SECONDS of operation time have passed, and at least two
rounds so that every operation is repeated with identical flags. It does not check outputs: it records each operation's
latency, exit code and a SHA-256 of its output, and leaves one copy of each
output in OUT_DIR for the oracle checks in the parent process.

With TRACE=0 the worker also times set-up: about once per second of
operation time, between two operations, a fresh interpreter imports
qubitsim.cli and builds the parser. Spreading these probes over the whole
run, rather than taking them back to back, averages over the machine's slow
and fast spells. Probe time does not count towards SECONDS.

With TRACE=1 the rounds alternate untraced and traced, ending on a traced
round; the spans are written to OUT_DIR/spans.npz.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

SETUP_PROBE_EVERY_S = 1.0
_SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qubitsim.cli\n"
    "qubitsim.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)


def _file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _series_digest(np, series):
    digest = hashlib.sha256()
    for values in (series.times, series.p_g, series.p_e, series.rho01):
        digest.update(np.ascontiguousarray(values).data)
    return digest.hexdigest()


def _setup_probe(src):
    """Seconds a fresh interpreter takes to import qubitsim.cli and build the parser."""
    out = subprocess.run([sys.executable, "-c", _SETUP_PROBE, src], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout)


def _direct(call):
    return call()


def _cli_runner(cli, op, out_dir):
    path = os.path.join(out_dir, f"op-{op['id']}.{op['fmt']}")
    argv = op["argv"] + ["--output", path]

    def call():
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            return exc.code

    def run(first_round, invoke):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            rc = invoke(call)
            elapsed = time.perf_counter() - start
        digest = _file_digest(path) if rc == 0 else None
        return elapsed, rc, digest, stderr.getvalue().strip()

    return run


def _lib_runner(np, qs, op, out_dir):
    def matrix(encoded):
        return np.array(encoded[0], dtype=float) + 1j * np.array(encoded[1], dtype=float)

    spec = op["h"]
    h = qs.QubitHamiltonian(epsilon=spec["epsilon"], omega_rabi=spec["omega_rabi"],
                            omega0=spec["omega0"], drive_mode=qs.DriveMode(spec["drive_mode"]))
    channels = [qs.LindbladChannel(matrix(c)) for c in op["channels"]]
    rho0 = matrix(op["rho0"])
    path = os.path.join(out_dir, f"op-{op['id']}.npz")

    def call():
        return qs.evolve_lindblad(rho0, h, channels, op["t_max"], op["dt"])

    def run(first_round, invoke):
        start = time.perf_counter()
        try:
            series = invoke(call)
        except (qs.QubitSimError, ValueError) as exc:
            return time.perf_counter() - start, 1, None, str(exc)
        elapsed = time.perf_counter() - start
        if first_round:
            np.savez(path, times=series.times, p_g=series.p_g, p_e=series.p_e, rho01=series.rho01)
        return elapsed, 0, _series_digest(np, series), ""

    return run


def main(argv):
    plan_path, out_dir, seconds, trace, src = argv
    seconds, trace = float(seconds), trace == "1"
    sys.path.insert(0, src)
    import numpy as np

    import qubitsim as qs
    from qubitsim import cli

    if not os.path.abspath(qs.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"qubitsim imported from {qs.__file__}, not from {src}")
    with open(plan_path) as handle:
        plan = json.load(handle)
    runners = [_cli_runner(cli, op, out_dir) if op["kind"] == "cli"
               else _lib_runner(np, qs, op, out_dir) for op in plan]

    tracer = None
    if trace:
        from tracing import Tracer

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qubitsim" or name.startswith("qubitsim.")}
        tracer = Tracer(modules)

    records = []  # [round, op id, seconds, exit code, digest]
    messages = {}
    round_walls = {"untraced": [], "traced": []}
    setup_s = []
    probe_s = 0.0  # time spent in set-up probes, left out of the run's budget
    started = last_probe = time.perf_counter()
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        for op, run in zip(plan, runners):
            now = time.perf_counter()
            if not trace and (not setup_s or now - last_probe >= SETUP_PROBE_EVERY_S):
                setup_s.append(_setup_probe(src))
                last_probe = time.perf_counter()
                probe_s += last_probe - now
            invoke = tracer.op if traced else _direct
            elapsed, rc, digest, message = run(rounds == 0, invoke)
            wall += elapsed
            records.append([rounds, op["id"], elapsed, rc, digest])
            if message and rounds == 0:
                messages[op["id"]] = message
        if traced:
            tracer.uninstall()
        round_walls["traced" if traced else "untraced"].append(wall)
        rounds += 1
        busy = time.perf_counter() - started - probe_s
        if rounds >= 2 and busy >= seconds and not (trace and rounds % 2):
            break

    result = {
        "records": records,
        "messages": messages,
        "rounds": rounds,
        "round_walls": round_walls,
        "setup_s": setup_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        np.savez(os.path.join(out_dir, "spans.npz"), names=np.array(tracer.names),
                 **tracer.arrays())
    with open(os.path.join(out_dir, "results.json"), "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
