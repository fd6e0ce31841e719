"""Independent oracles for every benchmark operation.

Nothing here imports qubitsim. Each check rebuilds the expected output from
the operation's own parameters:

- dephasing: rho01(0) e^{-2 delta t} e^{-i epsilon t}, populations fixed;
- static generators (rotating-frame rabi, library NONE/ROTATING_WAVE runs):
  the exact exponential of a 4x4 Liouvillian built here, in column-stacking
  convention (the program uses row-major vec);
- FULL_COSINE drive: scipy's DOP853 at tight tolerances;
- ramsey: explicit pi/2 pulse, free precession, pi/2 pulse matrix products;
- superdense: (1 + e^{-2 delta t})/2 for the sent message;
- interference: 1 + 2ab cos(k L x / R0 - phi).

Tolerances. The program integrates with fixed-step classical RK4, which maps
each generator eigenvalue lambda to R(lambda dt) = 1 + z + z^2/2 + z^3/6 +
z^4/24 per step instead of e^z. The deviation after k steps is therefore
|R(z)^k - e^{kz}| per eigenmode; the allowed error is twice that, summed over
the modes, plus 1e-15 per step of rounding. For the time-dependent drive,
where no eigenmodes exist, the bound is k (Lambda dt)^5 / 120 with Lambda the
norm of the generator plus the drive frequency. CSV cells carry 9
significant digits, which adds 5e-9 relative. JSON floats round-trip
exactly, so they get no rounding allowance.
"""

import json

import numpy as np

CSV_REL = 5.01e-9   # half a unit in the 9th significant digit, relative
ROUND_PER_STEP = 1e-15
ROUND_FLOOR = 1e-13
CLOSED_FORM_ABS = 1e-14

TRAJECTORY_COLUMNS = ("t", "p_g", "p_e", "re_rho01", "im_rho01", "abs_rho01")
MESSAGES = ("00", "01", "10", "11")
# Partner of each message under first-qubit dephasing (Phi+ <-> Phi-, Psi+ <-> Psi-).
_PARTNER = {"00": "01", "01": "00", "10": "11", "11": "10"}

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def _compare(label, name, got, want, tol):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"{label}: {name} has shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    bad = ~(err <= tol)  # NaN fails too
    if np.any(bad):
        i = int(np.argmax(bad))
        tol_i = np.broadcast_to(tol, err.shape)[i]
        raise CheckFailed(
            f"{label}: {name}[{i}] = {got[i]!r}, expected {want[i]!r} within {tol_i:.3e}"
        )


# ----------------------------------------------------------------- generators

def rk4_factor(z):
    """One classical RK4 step of y' = lambda y, with z = lambda dt."""
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def liouvillian(h, channels):
    """Generator on column-stacked vec(rho) = [rho00, rho10, rho01, rho11]."""
    eye = np.eye(2, dtype=complex)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op in channels:
        op_sq = op.conj().T @ op
        gen += np.kron(op.conj(), op) - 0.5 * (np.kron(eye, op_sq) + np.kron(op_sq.T, eye))
    return gen


def _vec(rho):
    return np.asarray(rho, dtype=complex).reshape(2, 2).flatten(order="F")


def exact_static(gen, rho0, dt, n_steps):
    """Exact trajectory of a static generator and its RK4 error allowance.

    Returns (states, tol) with states[k] the column-stacked exact state at
    k dt and tol[k] the per-element bound on |RK4 - exact| after k steps.
    """
    lam, vecs = np.linalg.eig(gen)
    if np.linalg.cond(vecs) > 1e6:
        raise CheckFailed("generator too close to an exceptional point for the eigen oracle")
    coeff = np.linalg.solve(vecs, _vec(rho0))
    k = np.arange(n_steps + 1)
    z = lam * dt
    modes = np.exp(np.outer(k, z)) * coeff
    states = modes @ vecs.T
    # |R(z)^k - e^{kz}|, with R^k formed as exp(k log R) so large k stays accurate.
    rk4_log = np.log(rk4_factor(z).astype(complex))
    dev = np.abs(np.exp(np.outer(k, rk4_log)) - np.exp(np.outer(k, z)))
    tol = (2.0 * dev * np.abs(coeff)) @ np.abs(vecs).T
    tol += ROUND_PER_STEP * (k[:, None] + 1) + ROUND_FLOOR
    return states, tol


def exact_driven(h0, h1, omega0, channels, rho0, dt, n_steps):
    """Reference for L(t) = L0 + cos(omega0 t) L1 by DOP853 at every sample time.

    Returns (states, tol) as exact_static does.
    """
    from scipy.integrate import solve_ivp

    gen0 = liouvillian(h0, channels)
    gen1 = liouvillian(h1, ())
    idx = np.arange(n_steps + 1)
    times = idx * dt
    sol = solve_ivp(lambda t, y: (gen0 + np.cos(omega0 * t) * gen1) @ y,
                    (0.0, times[-1]), _vec(rho0).astype(complex), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise CheckFailed(f"reference integration failed: {sol.message}")
    scale = np.linalg.norm(gen0, 2) + np.linalg.norm(gen1, 2) + omega0
    per_step = (scale * dt) ** 5 / 120.0
    tol = idx * per_step + ROUND_PER_STEP * (idx + 1) + 1e-10
    return sol.y.T, np.repeat(tol[:, None], 4, axis=1)


def rotating_hamiltonian(epsilon, omega_rabi, omega0):
    """Rotating-frame RWA Hamiltonian: detuning Delta = omega0 - epsilon."""
    half_detuning = 0.5 * (omega0 - epsilon)
    half_rabi = 0.5 * omega_rabi
    return np.array([[-half_detuning, half_rabi], [half_rabi, half_detuning]], dtype=complex)


# ------------------------------------------------------------- output parsing

def parse_csv(text, columns, label):
    """CSV text -> dict of column name -> array of floats (strings for 'outcome')."""
    if not text.endswith("\n"):
        raise CheckFailed(f"{label}: CSV output is not newline-terminated")
    lines = text[:-1].split("\n")
    header = tuple(lines[0].split(","))
    if header != tuple(columns):
        raise CheckFailed(f"{label}: CSV header {header}, expected {tuple(columns)}")
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(columns) for row in cells):
        raise CheckFailed(f"{label}: CSV row with the wrong number of cells")
    out = {}
    for j, name in enumerate(columns):
        col = [row[j] for row in cells]
        out[name] = col if name == "outcome" else np.array(col, dtype=float)
    return out


def parse_json(text, subcommand, label):
    doc = json.loads(text)
    if not text.endswith("\n"):
        raise CheckFailed(f"{label}: JSON output is not newline-terminated")
    if set(doc) != {"meta", "data"}:
        raise CheckFailed(f"{label}: JSON top-level keys {sorted(doc)}")
    meta = doc["meta"]
    if meta.get("subcommand") != subcommand:
        raise CheckFailed(f"{label}: meta.subcommand = {meta.get('subcommand')!r}")
    if not (isinstance(meta.get("version"), str) and meta["version"]):
        raise CheckFailed(f"{label}: meta.version missing")
    return meta, doc["data"]


def _check_parameters(label, meta, params):
    given = meta.get("parameters", {})
    for name, text in params.items():
        if name in ("format", "jobs", "output"):
            continue
        want = text if name == "message" else (int(text) if name == "points" else float(text))
        if given.get(name) != want:
            raise CheckFailed(f"{label}: meta.parameters.{name} = {given.get(name)!r}, "
                              f"expected {want!r}")


def _columns(label, text, fmt, subcommand, names, params):
    """Parse an output into columns; return (columns, data, tolerance scale for rounding)."""
    if fmt == "csv":
        return parse_csv(text, names, label), None, CSV_REL
    meta, data = parse_json(text, subcommand, label)
    _check_parameters(label, meta, params)
    cols = {}
    for name in names:
        if name not in data:
            raise CheckFailed(f"{label}: data.{name} missing")
        cols[name] = data[name] if name == "outcome" else np.array(data[name], dtype=float)
    return cols, data, 0.0


def _check_trajectory(label, cols, times, p_g, p_e, rho01, pop_tol, coh_tol, rel):
    n = len(times)
    if len(cols["t"]) != n:
        raise CheckFailed(f"{label}: {len(cols['t'])} samples, expected {n}")
    _compare(label, "t", cols["t"], times, rel * np.abs(times) + 1e-12 * np.maximum(1.0, times))
    _compare(label, "p_g", cols["p_g"], p_g, pop_tol + rel * np.abs(p_g))
    _compare(label, "p_e", cols["p_e"], p_e, pop_tol + rel * np.abs(p_e))
    _compare(label, "re_rho01", cols["re_rho01"], rho01.real, coh_tol + rel * np.abs(rho01.real))
    _compare(label, "im_rho01", cols["im_rho01"], rho01.imag, coh_tol + rel * np.abs(rho01.imag))
    _compare(label, "abs_rho01", cols["abs_rho01"], np.abs(rho01), coh_tol + rel * np.abs(rho01))


def _steps(params):
    t_max, dt = float(params["t_max"]), float(params["dt"])
    return dt, int(round(t_max / dt))


# ------------------------------------------------------------------ CLI ops

def _check_dephasing(label, text, fmt, params):
    cols, _, rel = _columns(label, text, fmt, "dephasing", TRAJECTORY_COLUMNS, params)
    epsilon, delta = float(params["epsilon"]), float(params["delta"])
    c0 = float(params.get("rho01_init_re", 0.5)) + 1j * float(params.get("rho01_init_im", 0.0))
    p_e0 = float(params.get("p_e_init", 0.5))
    dt, n = _steps(params)
    k = np.arange(n + 1)
    t = dt * k
    rho01 = c0 * np.exp(-2.0 * delta * t) * np.exp(-1j * epsilon * t)
    z = complex(-2.0 * delta, -epsilon) * dt
    dev = np.abs(np.exp(k * np.log(rk4_factor(z))) - np.exp(k * z)) * abs(c0)
    rounding = ROUND_PER_STEP * (k + 1) + ROUND_FLOOR
    _check_trajectory(label, cols, t, np.full(n + 1, 1.0 - p_e0), np.full(n + 1, p_e0),
                      rho01, rounding, 2.0 * dev + rounding, rel)


def _check_rabi(label, text, fmt, params):
    cols, data, rel = _columns(label, text, fmt, "rabi", TRAJECTORY_COLUMNS, params)
    omega, delta, epsilon = (float(params[n]) for n in ("omega", "delta", "epsilon"))
    if data is not None:
        _compare(label, "figure_of_merit", np.array([data.get("figure_of_merit", np.nan)]),
                 np.array([delta / omega]), 1e-15 * delta / omega)
    dt, n = _steps(params)
    gen = liouvillian(rotating_hamiltonian(epsilon, omega, epsilon), [np.sqrt(delta) * SIGMA_Z])
    states, tol = exact_static(gen, [[1.0, 0.0], [0.0, 0.0]], dt, n)
    _check_trajectory(label, cols, dt * np.arange(n + 1), states[:, 0].real, states[:, 3].real,
                      states[:, 2], tol[:, [0, 3]].max(axis=1), tol[:, 2], rel)


def ramsey_expected(split, tau, rate):
    """Final state of pi/2 -- free precession -- pi/2, by explicit matrix products."""
    c = 1.0 / np.sqrt(2.0)
    pulse = np.array([[c, -c], [c, c]], dtype=complex)  # exp(-i (pi/4) sigma_y)
    rho = pulse @ np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex) @ pulse.conj().T
    rho = np.broadcast_to(rho, (tau.size, 2, 2)).copy()
    rho[:, 0, 1] *= np.exp(-1j * split * tau) * np.exp(-2.0 * rate * tau)
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    return np.einsum("ij,njk,lk->nil", pulse, rho, pulse.conj())


def _check_ramsey(label, text, fmt, params):
    cols, _, rel = _columns(label, text, fmt, "ramsey", TRAJECTORY_COLUMNS, params)
    split, tau_max = float(params["delta_split"]), float(params["tau_max"])
    rate = float(params.get("dephasing_rate", 0.0))
    tau = np.linspace(0.0, tau_max, int(params["points"]))
    final = ramsey_expected(split, tau, rate)
    _check_trajectory(label, cols, tau, final[:, 0, 0].real, final[:, 1, 1].real,
                      final[:, 0, 1], CLOSED_FORM_ABS, CLOSED_FORM_ABS, rel)


def _check_superdense(label, text, fmt, params):
    message, delta = params["message"], float(params["delta"])
    if params.get("points") is None:
        damp = np.exp(-2.0 * delta)
        want = np.zeros(4)
        want[MESSAGES.index(message)] = 0.5 * (1.0 + damp)
        want[MESSAGES.index(_PARTNER[message])] = 0.5 * (1.0 - damp)
        if fmt == "csv":
            cols = parse_csv(text, ("outcome", "probability"), label)
            if cols["outcome"] != list(MESSAGES):
                raise CheckFailed(f"{label}: outcomes {cols['outcome']}")
            _compare(label, "probability", cols["probability"], want,
                     CLOSED_FORM_ABS + CSV_REL * want)
            return
        meta, data = parse_json(text, "superdense", label)
        _check_parameters(label, meta, params)
        if meta["parameters"].get("transmission_time") != 1.0:
            raise CheckFailed(f"{label}: transmission_time "
                              f"{meta['parameters'].get('transmission_time')!r}")
        if data.get("decoded") != message:
            raise CheckFailed(f"{label}: decoded {data.get('decoded')!r}, sent {message!r}")
        _compare(label, "probabilities", np.array(data.get("probabilities"), dtype=float),
                 want, CLOSED_FORM_ABS)
        return
    names = ("t",) + tuple(f"success_{m}" for m in MESSAGES)
    cols, _, rel = _columns(label, text, fmt, "superdense", names, params)
    t = np.linspace(0.0, float(params["t_max"]), int(params["points"]))
    _compare(label, "t", cols["t"], t, rel * t + 1e-15)
    want = 0.5 * (1.0 + np.exp(-2.0 * delta * t))
    for m in MESSAGES:
        _compare(label, f"success_{m}", cols[f"success_{m}"], want, CLOSED_FORM_ABS + rel * want)


def _check_interference(label, text, fmt, params):
    cols, _, rel = _columns(label, text, fmt, "interference", ("x", "intensity"), params)
    k, spacing, distance = (float(params[n]) for n in ("k", "slit_spacing", "screen_distance"))
    a, b, phi = (float(params[n]) for n in ("a", "b", "phi"))
    x = np.linspace(float(params["x_min"]), float(params["x_max"]), int(params["points"]))
    _compare(label, "x", cols["x"], x, rel * np.abs(x) + 1e-12)
    u = k * spacing / distance * x
    want = 1.0 + 2.0 * a * b * np.cos(u - phi)
    # Phase rounding grows with |u|; 1e-15 relative per radian of phase.
    tol = CLOSED_FORM_ABS + 4e-16 * np.abs(u) + rel * want
    norm = np.hypot(a, b)
    try:
        _compare(label, "intensity", cols["intensity"], want, tol)
    except CheckFailed:
        # A program that normalizes near-normalized amplitudes is also right.
        want = 1.0 + 2.0 * (a / norm) * (b / norm) * np.cos(u - phi)
        _compare(label, "intensity", cols["intensity"], want, tol)


_CLI_CHECKS = {
    "dephasing": _check_dephasing,
    "rabi": _check_rabi,
    "ramsey": _check_ramsey,
    "superdense": _check_superdense,
    "interference": _check_interference,
}


def check_cli(op, text):
    """Raise CheckFailed unless the CLI output text matches the oracle for op."""
    label = f"op {op['id']} ({' '.join(op['argv'])})"
    _CLI_CHECKS[op["argv"][0]](label, text, op["fmt"], op["params"])


# -------------------------------------------------------------- library ops

def _complex(encoded):
    re, im = encoded
    return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)


def check_lib(op, arrays):
    """Raise CheckFailed unless a library trajectory matches the oracle for op."""
    label = f"op {op['id']} ({op['variant']}, {op['samples']} samples)"
    h, dt = op["h"], op["dt"]
    n = int(round(op["t_max"] / dt))
    rho0 = _complex(op["rho0"])
    channels = [_complex(c) for c in op["channels"]]
    times = dt * np.arange(n + 1)
    if len(arrays["times"]) != n + 1:
        raise CheckFailed(f"{label}: {len(arrays['times'])} samples, expected {n + 1}")
    _compare(label, "times", arrays["times"], times, 1e-12 * np.maximum(1.0, times))
    if h["drive_mode"] == "full_cosine":
        states, tol = exact_driven(0.5 * h["epsilon"] * SIGMA_Z, h["omega_rabi"] * SIGMA_X,
                                   h["omega0"], channels, rho0, dt, n)
    else:
        if h["drive_mode"] == "rotating_wave":
            ham = rotating_hamiltonian(h["epsilon"], h["omega_rabi"], h["omega0"])
        else:
            ham = 0.5 * h["epsilon"] * SIGMA_Z
        states, tol = exact_static(liouvillian(ham, channels), rho0, dt, n)
    _compare(label, "p_g", arrays["p_g"], states[:, 0].real, tol[:, 0])
    _compare(label, "p_e", arrays["p_e"], states[:, 3].real, tol[:, 3])
    _compare(label, "rho01", arrays["rho01"], states[:, 2], tol[:, 2])
