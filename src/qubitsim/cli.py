"""Command-line front end: one subcommand per experiment, CSV or JSON output.

All quantities are dimensionless natural units (hbar = 1): energies and
drive amplitudes are angular frequencies, rates are inverse time, in one
common reciprocal time unit chosen by the user. Output is deterministic:
identical flags produce byte-identical artifacts.

CSV writes floats with 9 significant digits and JSON in full; both write
-0.0 as 0.0. JSON meta.parameters echoes every subcommand flag as parsed:
defaults included, unset optional flags left out, and a single superdense
decode adds transmission_time.
"""

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dynamics import (
    LindbladChannel,
    QubitHamiltonian,
    TimeSeries,
    evolve_lindblad,
)
from .errors import DomainError, NumericalInstabilityError, QubitSimError, _check_domain
from .interference import PhotonState, SlitGeometry, quantum_intensity
from .protocols import (
    MESSAGES,
    RamseyConfig,
    _superdense_probabilities,
    figure_of_merit,
    rabi_with_dephasing,
    ramsey_scan,
    superdense_channel_sweep,
)
from .qstate import EIGENVALUE_ATOL, NORM_ATOL, TYPED_ATOL, DensityMatrix, min_eigenvalue

# One channel use in single-shot superdense mode lasts one time unit.
_SINGLE_SHOT_TIME = 1.0

# Entries that choose what runs and how it is delivered; JSON meta.parameters echoes the rest.
_NOT_PARAMETERS = ("command", "format", "output", "jobs", "handler")


def _plus_zero(values) -> np.ndarray:
    # -0.0 + 0.0 is 0.0: both formats write a negative zero as 0.0.
    return np.asarray(values, dtype=float) + 0.0


def _render_csv(columns) -> str:
    """Header, then one line per row from a single %-format string for the table."""
    cells, formats = [], []
    for _, values in columns:
        text = np.asarray(values).dtype.kind == "U"
        cells.append(values if text else _plus_zero(values))
        formats.append("%s" if text else "%#.9g")  # 9 significant digits, zeros kept
    row = ",".join(formats)
    lines = [",".join(name for name, _ in columns)]
    lines.extend(row % cell for cell in zip(*cells))
    return "\n".join(lines) + "\n"


def _encode(value, indent: str) -> str:
    """Text of json.dumps(value, indent=2) nested at indent; flat arrays use the C encoder."""
    inner = indent + "  "
    if isinstance(value, dict) and value and all(type(key) is str for key in value):
        items = (json.dumps(key) + ": " + _encode(item, inner) for key, item in value.items())
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, list) and value and not any(
        issubclass(kind, (list, tuple, dict)) for kind in set(map(type, value))
    ):
        # indent=2 only puts "\n" + inner between elements, and the C encoder
        # (which indent turns off) writes whatever item separator it is given.
        body = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode(value)
        return "[\n" + inner + body[1:-1] + "\n" + indent + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _render_json(document) -> str:
    return _encode(document, "") + "\n"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".qubitsim-{os.urandom(8).hex()}.tmp")
    # Mode 0o666 gets the umask applied, as open() gives a new file.
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp_path, os.stat(path).st_mode & 0o777)  # a replaced file keeps its mode
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def _deliver(text: str, destination):
    if destination is None or destination == "-":
        sys.stdout.write(text)
        return
    try:
        _atomic_write(destination, text)
    except OSError as exc:  # its text would name the random temp file, not the flag
        raise OSError(f"cannot write --output {destination}: {exc.strerror or exc}") from exc


def _series_columns(series: TimeSeries):
    return [
        ("t", series.times),
        ("p_g", series.p_g),
        ("p_e", series.p_e),
        ("re_rho01", series.rho01.real),
        ("im_rho01", series.rho01.imag),
        ("abs_rho01", np.abs(series.rho01)),
    ]


def _columns_json(columns):
    return {name: _plus_zero(values).tolist() for name, values in columns}


def _handle_interference(args):
    geom = SlitGeometry(args.k, args.slit_spacing, args.screen_distance)
    a, b = args.a, args.b
    # An amplitude past 1 + TYPED_ATOL is outside the band, and its square may overflow.
    if max(abs(a), abs(b)) <= 1.0 + TYPED_ATOL and NORM_ATOL < abs(a**2 + b**2 - 1.0) <= TYPED_ATOL:
        norm = math.hypot(a, b)
        a, b = a / norm, b / norm
    state = PhotonState(a, b, args.phi)
    if args.points < 2:
        raise DomainError(f"--points must be at least 2, got {args.points}")
    if args.x_max <= args.x_min:
        raise DomainError("--x-max must exceed --x-min")
    if not math.isfinite(args.x_max - args.x_min):
        raise DomainError(f"--x-max - --x-min must be finite, got {args.x_max} - {args.x_min}")
    far_x = max(abs(args.x_min), abs(args.x_max))  # the phase is linear in x
    if not math.isfinite(geom.phase_difference(far_x)):
        raise DomainError(f"phase --k * --slit-spacing / --screen-distance * x overflows at "
                          f"x = {far_x} in [--x-min, --x-max]")
    x = np.linspace(args.x_min, args.x_max, args.points)
    intensity = quantum_intensity(state, geom.phase_difference(x))
    columns = [("x", x), ("intensity", intensity)]
    return columns, lambda: _columns_json(columns)


def _handle_ramsey(args):
    cfg = RamseyConfig(
        delta_split=args.delta_split,
        tau_max=args.tau_max,
        n_points=args.points,
        dephasing_rate=args.dephasing_rate,
    )
    columns = _series_columns(ramsey_scan(cfg))
    return columns, lambda: _columns_json(columns)


def _dephasing_start(args) -> DensityMatrix:
    p_e = args.p_e_init
    for flag, value in (("--p-e-init", p_e), ("--rho01-init-re", args.rho01_init_re),
                        ("--rho01-init-im", args.rho01_init_im)):
        _check_domain(value, flag)
    coherence = complex(args.rho01_init_re, args.rho01_init_im)

    def state(c):
        return np.array([[1.0 - p_e, c], [np.conj(c), p_e]])

    with np.errstate(all="ignore"):  # typed values may overflow; the checks below catch them
        lam = min_eigenvalue(state(coherence))
    if lam < -EIGENVALUE_ATOL:
        if not 0.0 <= p_e <= 1.0:
            raise DomainError(f"--p-e-init must lie in [0, 1], got {p_e}")
        if lam < -TYPED_ATOL:
            raise DomainError(
                f"--rho01-init-re and --rho01-init-im exceed sqrt(p_e (1 - p_e)) for "
                f"--p-e-init {p_e}: min eigenvalue {lam:.3e} is below -{TYPED_ATOL:g}"
            )
        # |rho01|^2 <= p_e (1 - p_e) bounds a state; the typed digits overshoot it.
        coherence *= math.sqrt(p_e * (1.0 - p_e)) / abs(coherence)
    return DensityMatrix(state(coherence))


def _handle_dephasing(args):
    rho0 = _dephasing_start(args)
    h = QubitHamiltonian(epsilon=args.epsilon)
    channel = LindbladChannel.pure_dephasing(args.delta)
    columns = _series_columns(evolve_lindblad(rho0, h, (channel,), args.t_max, args.dt))
    return columns, lambda: _columns_json(columns)


def _handle_rabi(args):
    merit = figure_of_merit(args.delta, args.omega)
    series = rabi_with_dephasing(args.omega, args.delta, args.epsilon, args.t_max, args.dt)
    columns = _series_columns(series)
    return columns, lambda: {**_columns_json(columns), "figure_of_merit": float(merit)}


def _handle_superdense(args):
    if (args.t_max is None) != (args.points is None):
        raise DomainError("--t-max and --points must be given together")
    if args.t_max is None:
        sent = MESSAGES.index(args.message)
        probs = _superdense_probabilities(args.delta, [_SINGLE_SHOT_TIME])[0, sent]
        decoded = MESSAGES[int(np.argmax(probs))]
        args.transmission_time = _SINGLE_SHOT_TIME  # echoed in meta.parameters
        columns = [("outcome", list(MESSAGES)), ("probability", probs)]
        return columns, lambda: {"probabilities": _plus_zero(probs).tolist(), "decoded": decoded}
    sweep = superdense_channel_sweep(args.delta, args.t_max, args.points)
    columns = [("t", sweep.times)] + [(f"success_{m}", sweep.success[m]) for m in MESSAGES]
    return columns, lambda: _columns_json(columns)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="output file (default: stdout); written atomically")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted for compatibility; has no effect")

    parser = argparse.ArgumentParser(
        prog="qubitsim",
        description="Two-level and two-qubit coherence experiments in natural units (hbar = 1).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interference", parents=[common],
                       help="single-photon double-slit intensity sweep")
    p.set_defaults(handler=_handle_interference)
    p.add_argument("--k", type=float, required=True, help="wavenumber (rad/length)")
    p.add_argument("--slit-spacing", type=float, required=True)
    p.add_argument("--screen-distance", type=float, required=True)
    p.add_argument("--a", type=float, required=True, help="path-1 amplitude")
    p.add_argument("--b", type=float, required=True, help="path-2 amplitude")
    p.add_argument("--phi", type=float, required=True, help="relative path phase (rad)")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)

    p = sub.add_parser("ramsey", parents=[common],
                       help="two-pulse fringe scan against free-evolution delay")
    p.set_defaults(handler=_handle_ramsey)
    p.add_argument("--delta-split", type=float, required=True,
                   help="level splitting (angular frequency)")
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--dephasing-rate", type=float, default=0.0)

    p = sub.add_parser("dephasing", parents=[common],
                       help="free decay of the coherence under pure dephasing")
    p.set_defaults(handler=_handle_dephasing)
    p.add_argument("--epsilon", type=float, required=True,
                   help="level splitting (angular frequency)")
    p.add_argument("--delta", type=float, required=True, help="dephasing rate")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--rho01-init-re", type=float, default=0.5)
    p.add_argument("--rho01-init-im", type=float, default=0.0)
    p.add_argument("--p-e-init", type=float, default=0.5)

    p = sub.add_parser("rabi", parents=[common],
                       help="resonantly driven oscillations damped by dephasing")
    p.set_defaults(handler=_handle_rabi)
    p.add_argument("--omega", type=float, required=True, help="drive amplitude")
    p.add_argument("--delta", type=float, required=True, help="dephasing rate")
    p.add_argument("--epsilon", type=float, required=True,
                   help="level splitting (drive runs on resonance)")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)

    p = sub.add_parser("superdense", parents=[common],
                       help="two bits over one qubit of a shared entangled pair")
    p.set_defaults(handler=_handle_superdense)
    p.add_argument("--message", choices=MESSAGES, required=True)
    p.add_argument("--delta", type=float, required=True,
                   help="dephasing rate on the sender's qubit in transit")
    p.add_argument("--t-max", type=float, default=None,
                   help="with --points: sweep channel duration up to this value")
    p.add_argument("--points", type=int, default=None)

    return parser


def run(args) -> int:
    """Execute one parsed subcommand and deliver its artifact."""
    # Handlers return a function that builds the JSON data, so CSV runs skip it.
    columns, json_data = args.handler(args)
    if args.format == "csv":
        _deliver(_render_csv(columns), args.output)
        return 0
    parameters = {
        name: value for name, value in vars(args).items()
        if name not in _NOT_PARAMETERS and value is not None
    }
    document = {
        "meta": {"subcommand": args.command, "parameters": parameters, "version": __version__},
        "data": json_data(),
    }
    _deliver(_render_json(document), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except NumericalInstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QubitSimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's text names the allocation; Python's own is empty
        print(f"error: {str(exc) or 'not enough memory for this run'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
