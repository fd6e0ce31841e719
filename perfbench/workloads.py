"""Seeded operation plans for the three benchmark workloads.

A plan is a list of operations that one round runs in order; every run
repeats whole rounds of the same plan. The seed draws the physical
parameters (rates, splittings, initial states, phases, grids). Operation
sizes come from a fixed ladder, so every seed asks for the same amount of
work and the figures of two seeds are comparable.

Every drawn parameter stays inside the program's step guard
(dt * fastest frequency or rate < 0.1, dt <= t_max / 10) and the Ramsey
Nyquist limit. Trajectory steps are drawn with the fastest frequency times
dt in [0.004, 0.012], well inside the guard, so the RK4 truncation error
stays below 1e-6 even after 1e5 steps and the oracle checks keep their
teeth.

Operations are plain dicts so that the plan can be written as JSON and read
by the worker process:

    {"id", "kind": "cli" | "lib", "samples", "expect_fail", ...}

CLI operations carry "argv" (without --output), its flag values as
"params", and "fmt"; library operations carry the Hamiltonian, channel
operators, initial state, t_max and dt. "samples" is the number of output
samples the operation delivers, "expect_fail" marks the one operation that
fails today, and "pair" links a --jobs 2 sweep to its --jobs 1 twin.
"""

import numpy as np

WORKLOADS = ("cli-trajectory", "library-evolve", "cli-sweeps")

# README commands, verbatim (without the optional-argument brackets).
README_DEPHASING = "dephasing --epsilon 1 --delta 0.25 --t-max 10 --dt 0.001"
README_RAMSEY = "ramsey --delta-split 1 --tau-max 50.265 --points 512"
README_RAMSEY_DAMPED = README_RAMSEY + " --dephasing-rate 0.1"
README_RABI = "rabi --omega 1 --delta 0.001 --epsilon 1 --t-max 30 --dt 0.01 --format json"
README_SUPERDENSE_SINGLE = "superdense --message 10 --delta 0 --format json"
README_SUPERDENSE_SWEEP = "superdense --message 00 --delta 0.25 --t-max 6 --points 61"
README_INTERFERENCE = (
    "interference --k 6.2832 --slit-spacing 0.01 --screen-distance 1 "
    "--a 0.70710678 --b 0.70710678 --phi 0 --x-min -250 --x-max 250 --points 1001"
)

MESSAGES = ("00", "01", "10", "11")

SIGMA_MINUS = [[0.0, 1.0], [0.0, 0.0]]  # |g><e|: decay e -> g
SIGMA_PLUS = [[0.0, 0.0], [1.0, 0.0]]
SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]


def _num(x) -> str:
    return repr(float(x))


def _argv_params(argv):
    """Flag values of an argv list as {"dest_name": text}."""
    params = {}
    for i, token in enumerate(argv):
        if token.startswith("--"):
            value = argv[i + 1] if i + 1 < len(argv) and not argv[i + 1].startswith("--") else None
            params[token[2:].replace("-", "_")] = value
    return params


def _cli_op(argv, **extra):
    fmt = "json" if "--format" in argv and argv[argv.index("--format") + 1] == "json" else "csv"
    op = {"kind": "cli", "argv": list(argv), "fmt": fmt, "expect_fail": False}
    op.update(extra)
    return op


def _readme_op(command, **extra):
    return _cli_op(command.split(), readme=True, **extra)


def _random_state(rng):
    """Random valid 2x2 density matrix, away from the boundary of the Bloch ball."""
    p_e = rng.uniform(0.1, 0.9)
    radius = rng.uniform(0.2, 0.95) * np.sqrt(p_e * (1.0 - p_e))
    coherence = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return p_e, coherence


def _step(rng, frequency):
    """Step size giving frequency * dt in [0.004, 0.012]."""
    return rng.uniform(0.004, 0.012) / frequency


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# Total decay of a trajectory, rate * t_max, is drawn from this range rather
# than the rate alone. Every sample then stays a normal float well away from
# its limit: no seed renders long runs of exact zeros or of exactly 0.5,
# which format faster, or integrates through subnormal numbers, which is
# slower. Without this the cost of an operation would depend on the seed.
_DECAY = (0.5, 20.0)


def _dephasing_op(rng, n_steps, fmt):
    epsilon = rng.uniform(0.5, 3.0)
    dt = _step(rng, epsilon)
    t_max = n_steps * dt
    delta = _log_uniform(rng, *_DECAY) / (2.0 * t_max)  # coherence decays as e^{-2 delta t}
    p_e, c = _random_state(rng)
    argv = ["dephasing", "--epsilon", _num(epsilon), "--delta", _num(delta),
            "--t-max", _num(t_max), "--dt", _num(dt),
            "--rho01-init-re", _num(c.real), "--rho01-init-im", _num(c.imag),
            "--p-e-init", _num(p_e), "--format", fmt]
    return _cli_op(argv, samples=n_steps + 1)


def _rabi_op(rng, n_steps, fmt):
    omega = rng.uniform(0.5, 2.0)
    epsilon = rng.uniform(1.0, 5.0)
    dt = _step(rng, max(epsilon, omega))
    t_max = n_steps * dt
    # Dephasing at most 0.1 omega keeps the generator far from its exceptional point.
    delta = min(_log_uniform(rng, *_DECAY) / t_max, 0.1 * omega)
    argv = ["rabi", "--omega", _num(omega), "--delta", _num(delta), "--epsilon", _num(epsilon),
            "--t-max", _num(t_max), "--dt", _num(dt), "--format", fmt]
    return _cli_op(argv, samples=n_steps + 1)


# Step counts from 1e3 to 1e5, denser at the small end: 1e3 * 100^((j/22)^2).
# Neighbouring sizes differ by less than 1.6x, so the latency percentiles sit
# in a continuum of sizes instead of jumping between clusters from run to run.
# Formats and subcommands alternate, so every size range runs as CSV and JSON.
#
# Every plan has an odd number of operations that succeed (the latencies
# leave out the failing README interference command), with 0.9 times that
# number near a half (25 -> 12.5 and 22.5, 15 -> 7.5 and 13.5): the
# nearest-rank median and 90th percentile then fall in the middle of one
# operation's repeats, not on the edge between two operations.
_TRAJECTORY_STEPS = tuple(round(1000 * 100 ** ((j / 22) ** 2)) for j in range(23))


def cli_trajectory(rng):
    ops = [_readme_op(README_DEPHASING, samples=10001),
           _readme_op(README_RABI, samples=3001)]
    for i, n_steps in enumerate(_TRAJECTORY_STEPS):
        make = (_dephasing_op, _rabi_op)[(i // 2) % 2]
        ops.append(make(rng, n_steps, ("csv", "json")[i % 2]))
    return ops


def _channel(name, rate):
    base = {"sigma_minus": SIGMA_MINUS, "sigma_plus": SIGMA_PLUS, "sigma_z": SIGMA_Z}[name]
    return (np.sqrt(rate) * np.array(base, dtype=complex)).tolist()


def _random_channel(rng, rate):
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    op *= np.sqrt(rate) / np.linalg.norm(op, 2)
    return op.tolist()


def _encode_complex(value):
    arr = np.asarray(value, dtype=complex)
    return [arr.real.tolist(), arr.imag.tolist()]


def _lib_op(rng, n_steps, variant):
    epsilon = rng.uniform(0.5, 3.0)
    h = {"epsilon": epsilon, "omega_rabi": 0.0, "omega0": 0.0, "drive_mode": "none"}
    if variant in ("rwa-detuned", "rwa-thermal"):
        omega = rng.uniform(0.3, 1.5)
        detuning = rng.uniform(-0.3, 0.3) * omega if variant == "rwa-detuned" else 0.0
        h.update(omega_rabi=omega, omega0=epsilon + detuning, drive_mode="rotating_wave")
    elif variant == "driven":
        h.update(omega_rabi=epsilon * rng.uniform(0.05, 0.3),
                 omega0=epsilon * rng.uniform(0.9, 1.1), drive_mode="full_cosine")
    dt = _step(rng, max(epsilon, h["omega_rabi"], h["omega0"]))
    t_max = n_steps * dt

    def rate(lo=_DECAY[0], hi=_DECAY[1]):
        """Channel rate with total decay rate * t_max in [lo, hi], below 0.05 omega_rabi."""
        value = _log_uniform(rng, lo, hi) / t_max
        return min(value, 0.05 * h["omega_rabi"]) if h["omega_rabi"] else value

    if variant == "damping":
        channels = [_channel("sigma_minus", rate())]
    elif variant == "damping+dephasing":
        channels = [_channel("sigma_minus", rate()), _channel("sigma_z", rate())]
    elif variant == "rwa-detuned":
        channels = [_channel("sigma_z", rate())]
    elif variant == "rwa-thermal":
        channels = [_channel("sigma_minus", rate()), _channel("sigma_plus", rate(0.1, 2.0))]
    elif variant == "generic":
        channels = [_random_channel(rng, rate())]
    elif variant == "driven":
        channels = [_channel("sigma_z", rate(0.2, 5.0)), _channel("sigma_minus", rate(0.2, 5.0))]
    else:
        raise ValueError(variant)
    p_e, c = _random_state(rng)
    rho0 = [[1.0 - p_e, c], [np.conj(c), p_e]]
    return {
        "kind": "lib", "variant": variant, "h": h,
        "channels": [_encode_complex(ch) for ch in channels],
        "rho0": _encode_complex(rho0), "t_max": t_max, "dt": dt,
        "samples": n_steps + 1, "expect_fail": False,
    }


_STATIC_STEPS = tuple(round(10 ** (4 + j / 9)) for j in range(10))
_STATIC_VARIANTS = ("damping", "rwa-detuned", "generic", "damping+dephasing", "rwa-thermal")
_DRIVEN_STEPS = (400, 650, 1000, 1500, 2200)


def library_evolve(rng):
    ops = [_lib_op(rng, n, _STATIC_VARIANTS[i % len(_STATIC_VARIANTS)])
           for i, n in enumerate(_STATIC_STEPS)]
    ops += [_lib_op(rng, n, "driven") for n in _DRIVEN_STEPS]
    return ops


def _ramsey_op(rng, points, fmt):
    tau_max = rng.uniform(10.0, 100.0)
    tau_step = tau_max / (points - 1)
    split = rng.uniform(0.2, 1.5) / tau_step  # Delta * tau_step below pi (Nyquist)
    if points > 2000:
        split = rng.uniform(0.5, 3.0)  # long scans: many samples per fringe
    rate = _log_uniform(rng, 1e-3, 0.1)
    argv = ["ramsey", "--delta-split", _num(split), "--tau-max", _num(tau_max),
            "--points", str(points), "--dephasing-rate", _num(rate), "--format", fmt]
    return _cli_op(argv, samples=points)


def _interference_op(rng, points, fmt):
    k = rng.uniform(1.0, 20.0)
    spacing = rng.uniform(0.001, 0.05)
    distance = rng.uniform(1.0, 5.0)
    period = 2.0 * np.pi * distance / (k * spacing)
    # Half-width giving 4 to 40 samples per fringe period.
    width = period * (points - 1) / 8.0 * rng.uniform(0.1, 1.0)
    center = rng.uniform(-1.0, 1.0) * width
    theta = rng.uniform(0.05, np.pi / 2 - 0.05)
    argv = ["interference", "--k", _num(k), "--slit-spacing", _num(spacing),
            "--screen-distance", _num(distance), "--a", _num(np.cos(theta)),
            "--b", _num(np.sin(theta)), "--phi", _num(rng.uniform(-np.pi, np.pi)),
            "--x-min", _num(center - width), "--x-max", _num(center + width),
            "--points", str(points), "--format", fmt]
    return _cli_op(argv, samples=points)


def _superdense_sweep_ops(rng, points, fmt):
    message = MESSAGES[int(rng.integers(4))]
    delta = _log_uniform(rng, 0.01, 1.0)
    argv = ["superdense", "--message", message, "--delta", _num(delta),
            "--t-max", _num(rng.uniform(1.0, 10.0)), "--points", str(points), "--format", fmt]
    serial = _cli_op(argv + ["--jobs", "1"], samples=points)
    pooled = _cli_op(argv + ["--jobs", "2"], samples=points)
    return serial, pooled


def _superdense_single_op(rng, message, fmt):
    delta = _log_uniform(rng, 0.01, 2.0)
    argv = ["superdense", "--message", message, "--delta", _num(delta), "--format", fmt]
    return _cli_op(argv, samples=4)


_SWEEP_POINTS = (30, 50, 120, 300)
_RAMSEY_POINTS = (64, 256, 512, 1024, 4096, 16384)
_INTERFERENCE_POINTS = (1001, 4001, 20001)


def cli_sweeps(rng):
    ops = []
    for i, points in enumerate(_SWEEP_POINTS):
        serial, pooled = _superdense_sweep_ops(rng, points, ("csv", "json")[i % 2])
        ops += [serial, pooled]
    ops += [_ramsey_op(rng, p, ("csv", "json")[i % 2]) for i, p in enumerate(_RAMSEY_POINTS)]
    ops += [_interference_op(rng, p, ("json", "csv")[i % 2])
            for i, p in enumerate(_INTERFERENCE_POINTS)]
    ops += [_superdense_single_op(rng, m, ("csv", "json")[i % 2]) for i, m in enumerate(MESSAGES)]
    ops += [
        _readme_op(README_RAMSEY, samples=512),
        _readme_op(README_RAMSEY_DAMPED, samples=512),
        _readme_op(README_SUPERDENSE_SINGLE, samples=4),
        _readme_op(README_SUPERDENSE_SWEEP, samples=61),
        # Exits 2 today: PhotonState demands |a^2 + b^2 - 1| <= 1e-12, which
        # 8-digit input cannot meet. Counted as failed in every round.
        _readme_op(README_INTERFERENCE, samples=1001, expect_fail=True),
    ]
    return ops


_PLAN_MAKERS = {
    "cli-trajectory": cli_trajectory,
    "library-evolve": library_evolve,
    "cli-sweeps": cli_sweeps,
}


def make_plan(workload: str, seed: int):
    """Operation list of one round of the workload, drawn from the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _PLAN_MAKERS[workload](rng)
    for i, op in enumerate(ops):
        op["id"] = i
        if op["kind"] == "cli":
            op["params"] = _argv_params(op["argv"])
    for i, op in enumerate(ops):
        if op["kind"] == "cli" and "--jobs" in op["argv"] and op["params"]["jobs"] == "2":
            op["pair"] = i - 1
    return ops
