"""Re-measure the baseline table of ROADMAP.md, one row per path.

Usage (from the repository root): python3 perfbench/baseline.py

Each row is the median of REPEATS repeats in this one process, after
one warm-up call; the import rows run fresh interpreters. The repeats run
round-robin over the rows, so a slow spell of the machine falls on every
row alike. Output is a Markdown table. These are single-path timings for
orientation; the benchmark proper is perfbench/run.py.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from qubitsim import cli, dynamics, protocols  # noqa: E402

REPEATS = 5

_IMPORT = ("import sys, time\nstart = time.perf_counter()\nsys.path.insert(0, sys.argv[1])\n"
           "import qubitsim.cli\nprint(repr(time.perf_counter() - start))\n")
_NUMPY = ("import time\nstart = time.perf_counter()\nimport numpy\n"
          "print(repr(time.perf_counter() - start))\n")


def timed(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def fresh(code):
    """Time measured inside a fresh interpreter running code."""
    return lambda: float(subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                                        text=True, check=True).stdout)


def main():
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    static = dynamics.QubitHamiltonian(epsilon=1.0)
    driven = dynamics.QubitHamiltonian(epsilon=1.0, omega_rabi=0.2, omega0=1.0,
                                       drive_mode=dynamics.DriveMode.FULL_COSINE)
    channels = (dynamics.LindbladChannel.pure_dephasing(0.05),)

    def evolve(h, n_steps):
        return lambda: dynamics.evolve_lindblad(rho0, h, channels, n_steps * 0.01, 0.01)

    traj = dynamics._integrate_static(rho0, static, channels, 0.01, 10000)
    series = {n: dynamics.evolve_lindblad(rho0, static, channels, n * 0.01, 0.01)
              for n in (10000, 100000)}
    columns = {n: cli._series_columns(series[n]) for n in series}
    document = {"meta": {}, "data": cli._columns_json(columns[100000])}
    work_root = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    out = os.path.join(tempfile.mkdtemp(dir=work_root), "out")

    def run_cli(*argv):
        def call():
            with contextlib.redirect_stderr(io.StringIO()) as err:
                if cli.main(list(argv) + ["--output", out]) != 0:
                    raise RuntimeError(f"qubitsim {' '.join(argv)}: {err.getvalue()}")
        return call

    sweep = ["superdense", "--message", "01", "--delta", "0.25", "--t-max", "6", "--points", "1000"]
    rows = [
        ("`import qubitsim.cli` (fresh interpreter)", fresh(_IMPORT)),
        ("`import numpy` (fresh interpreter)", fresh(_NUMPY)),
        ("`evolve_lindblad`, static generator, 1e4 steps", evolve(static, 10000)),
        ("`evolve_lindblad`, static generator, 1e5 steps", evolve(static, 100000)),
        ("`evolve_lindblad`, `FULL_COSINE` drive, 1e4 steps", evolve(driven, 10000)),
        ("`_series_from_trajectory`, 1e4 samples",
         lambda: dynamics._series_from_trajectory(traj, 0.01)),
        ("`_render_csv`, 1e4 rows", lambda: cli._render_csv(columns[10000])),
        ("`_render_csv`, 1e5 rows", lambda: cli._render_csv(columns[100000])),
        ("`_render_json` (indent=2), 1e5 rows", lambda: cli._render_json(document)),
        ("`superdense_channel_sweep`, 1,000 points",
         lambda: protocols.superdense_channel_sweep(0.25, 6.0, 1000)),
        ("CLI `superdense` sweep, 1,000 points, `--jobs 1`", run_cli(*sweep, "--jobs", "1")),
        ("CLI `superdense` sweep, 1,000 points, `--jobs 4`", run_cli(*sweep, "--jobs", "4")),
        ("CLI `interference`, 1e5 points",
         run_cli("interference", "--k", "6.2832", "--slit-spacing", "0.01",
                 "--screen-distance", "1", "--a", "1", "--b", "0", "--phi", "0",
                 "--x-min", "-250", "--x-max", "250", "--points", "100000")),
    ]
    imports = {0, 1}
    times = [[] for _ in rows]
    for repeat in range(REPEATS + 1):  # the first pass warms up the in-process rows
        for i, (_, call) in enumerate(rows):
            if i in imports:
                times[i].append(call())
            elif repeat:
                times[i].append(timed(call))
            else:
                call()
    os.unlink(out)
    os.rmdir(os.path.dirname(out))
    print("| Path | Median time |\n| --- | --- |")
    for (label, _), values in zip(rows, times):
        print(f"| {label} | {statistics.median(values) * 1e3:,.1f} ms |")


if __name__ == "__main__":
    main()
