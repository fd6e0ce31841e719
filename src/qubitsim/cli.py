"""Command-line front end: one subcommand per experiment, CSV or JSON output.

All quantities are dimensionless natural units (hbar = 1): energies and
drive amplitudes are angular frequencies, rates are inverse time, in one
common reciprocal time unit chosen by the user. Output is deterministic:
identical flags produce byte-identical artifacts.

Each CSV cell is exactly '%#.9g' % value, with -0.0 written as 0.00000000;
numpy formats every table, and % a cell that numpy cannot round exactly,
spliced in with the text cells.
JSON is one document, {"meta": {subcommand, parameters, version}, "data":
{name: value}}: each array or list is a column of floats, -0.0 as 0.0, each
float as repr writes it: the shortest digits that read back as the same
float. _csvcells.format_column writes each block of a column and picks
numpy or the C encoder for it. meta.parameters echoes each subcommand flag
as parsed (defaults in, unset optional flags out); a single superdense
decode adds transmission_time.

Output is written in blocks of BLOCK_ROWS rows: CSV a block of rows at a
time, JSON each column's floats a block at a time. Nothing is written until
every check of the run has passed, and --output is replaced atomically after
the last block, so a failed run leaves the target untouched. A symlinked
target stays a link, and the file it names is replaced. A target that
exists and is not a regular file, such as a FIFO, is written in place.

The parser is built once per process and only read: parsing fills a fresh
Namespace, and help text reads the terminal width when it is formatted.
So main() carries no state from one call to the next.
"""

import argparse
import contextlib
import copy
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__, _csvcells
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
    _check_points,
    _superdense_probabilities,
    figure_of_merit,
    rabi_with_dephasing,
    ramsey_scan,
    superdense_channel_sweep,
)
from .qstate import EIGENVALUE_ATOL, NORM_ATOL, TYPED_ATOL, DensityMatrix, min_eigenvalue

# One channel use in single-shot superdense mode lasts one time unit.
_SINGLE_SHOT_TIME = 1.0

# Rows rendered and written at a time, so a long run never holds its whole text.
BLOCK_ROWS = 4096

# Entries that choose what runs and how it is delivered; JSON meta.parameters echoes the rest.
_NOT_PARAMETERS = ("command", "format", "output", "jobs", "handler")


# Rows that the numpy cell writer takes at a time; a larger piece raises a
# block's peak memory and runs no faster.
_PIECE_ROWS = 512


def _render_csv(columns, header=True) -> str:
    """Header (if asked for), then one line per row: '%#.9g' % (value + 0.0) per number, text as is.

    _csvcells.format_rows writes the rows, _PIECE_ROWS at a time.
    """
    head = ",".join(name for name, _ in columns) + "\n" if header else ""
    return head + "".join(
        _csvcells.format_rows([values[start:start + _PIECE_ROWS] for _, values in columns])
        for start in range(0, len(columns[0][1]), _PIECE_ROWS))


def _csv_blocks(columns):
    """The CSV text of columns, BLOCK_ROWS rows per piece; the header leads the first."""
    n_rows = len(columns[0][1])
    for start in range(0, max(n_rows, 1), BLOCK_ROWS):
        block = [(name, values[start:start + BLOCK_ROWS]) for name, values in columns]
        yield _render_csv(block, header=start == 0)


def _document_pieces(document):
    """Yield json.dumps(document, indent=2) + "\n" for run()'s {meta, data} shape in pieces.

    A non-empty list or numpy array in data is a column of floats, -0.0 as
    0.0, BLOCK_ROWS floats a piece: each block goes through _columns_json,
    and _csvcells.format_column writes it. Any other value (a float, a str,
    an empty column) is json.dumps(value).
    """
    meta = json.dumps(document["meta"], indent=2).replace("\n", "\n  ")
    lead = '{\n  "meta": ' + meta + ',\n  "data": {'
    for i, (name, value) in enumerate(document["data"].items()):
        lead += (",\n    " if i else "\n    ") + json.dumps(name) + ": "
        if not isinstance(value, (list, np.ndarray)) or not len(value):
            lead += "[]" if isinstance(value, np.ndarray) else json.dumps(value)
            continue
        lead += "[\n      "
        for start in range(0, len(value), BLOCK_ROWS):
            block = _columns_json([(name, value[start:start + BLOCK_ROWS])])[name]
            yield lead + _csvcells.format_column(block)
            lead = _csvcells.ITEM_SEPARATOR
        lead = "\n    ]"
    yield lead + ("\n  }" if document["data"] else "}") + "\n}\n"


def _render_json(document, pieces=None) -> str:
    """Text of json.dumps(document, indent=2) + "\n" for run()'s {meta, data} document shape.

    Given pieces = _document_pieces(document), only the next piece, and "" after
    the last: run() writes a document this way, one block of floats per call.
    """
    return "".join(_document_pieces(document)) if pieces is None else next(pieces, "")


@contextlib.contextmanager
def _opened(path):
    """Yield the stream a run writes to: stdout, or a temp file that replaces path at the end.

    One stat of the file path names decides. A symlink stays a link and the
    file it names is replaced, keeping its mode (only a link is resolved:
    realpath drops the "/" of "name/"). A file that is not regular, such as
    a FIFO or /dev/null, is written in place: replacing it would swap it.
    stdout is flushed here, so a failed write to it fails the run, not exit.
    """
    if path is None or path == "-":
        stream = sys.stdout
        try:
            yield stream
            stream.flush()
        except OSError as exc:
            _drop_unwritten(stream)
            raise OSError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    target = os.path.realpath(path) if os.path.islink(path) else path
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(target, "w", newline="") as handle:
                yield handle
            return
        tmp_path = os.path.join(os.path.dirname(os.path.abspath(target)),
                                f".qubitsim-{os.urandom(8).hex()}.tmp")
        try:
            with open(tmp_path, "x", newline="") as handle:
                yield handle
            if mode is not None:
                os.chmod(tmp_path, mode & 0o777)
            os.replace(tmp_path, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
    except OSError as exc:  # its text would name the random temp file, not the flag
        raise OSError(f"cannot write --output {path}: {exc.strerror or exc}") from exc


def _drop_unwritten(stream):
    """Point stream's descriptor at os.devnull, so its buffer cannot fail again at exit."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):  # io.UnsupportedOperation is both
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _deliver(text: str, stream):
    stream.write(text)


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
    # -0.0 + 0.0 is 0.0: JSON writes a negative zero as 0.0.
    return {name: np.asarray(values, dtype=float) + 0.0 for name, values in columns}


def _handle_interference(args):
    geom = SlitGeometry(args.k, args.slit_spacing, args.screen_distance)
    a, b = args.a, args.b
    # An amplitude past 1 + TYPED_ATOL is outside the band, and its square may overflow.
    if max(abs(a), abs(b)) <= 1.0 + TYPED_ATOL and NORM_ATOL < abs(a**2 + b**2 - 1.0) <= TYPED_ATOL:
        norm = math.hypot(a, b)
        a, b = a / norm, b / norm
    state = PhotonState(a, b, args.phi)
    _check_points(args.points, DomainError, "--points")
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
    return columns, dict(columns)


def _handle_ramsey(args):
    cfg = RamseyConfig(
        delta_split=args.delta_split,
        tau_max=args.tau_max,
        n_points=args.points,
        dephasing_rate=args.dephasing_rate,
    )
    columns = _series_columns(ramsey_scan(cfg))
    return columns, dict(columns)


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
    return columns, dict(columns)


def _handle_rabi(args):
    merit = figure_of_merit(args.delta, args.omega)
    series = rabi_with_dephasing(args.omega, args.delta, args.epsilon, args.t_max, args.dt)
    columns = _series_columns(series)
    return columns, {**dict(columns), "figure_of_merit": float(merit)}


def _handle_superdense(args):
    if (args.t_max is None) != (args.points is None):
        raise DomainError("--t-max and --points must be given together")
    if args.t_max is None:
        sent = MESSAGES.index(args.message)
        probs = _superdense_probabilities(args.delta, [_SINGLE_SHOT_TIME])[0, sent]
        decoded = MESSAGES[int(np.argmax(probs))]
        args.transmission_time = _SINGLE_SHOT_TIME  # echoed in meta.parameters
        columns = [("outcome", list(MESSAGES)), ("probability", probs)]
        return columns, {"probabilities": probs, "decoded": decoded}
    sweep = superdense_channel_sweep(args.delta, args.t_max, args.points)
    columns = [("t", sweep.times)] + [(f"success_{m}", sweep.success[m]) for m in MESSAGES]
    return columns, dict(columns)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Build the argparse tree; cached, so once per process."""
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


def build_parser() -> argparse.ArgumentParser:
    """A shallow copy of the one parser, so an attribute set on it (parse_args) stays on it."""
    return copy.copy(_parser())


def run(args) -> int:
    """Execute one parsed subcommand and write its artifact a block at a time."""
    # Handlers return the CSV columns and the JSON data, whose numpy arrays are columns too.
    columns, data = args.handler(args)
    if args.format == "csv":
        blocks = _csv_blocks(columns)
    else:
        parameters = {
            name: value for name, value in vars(args).items()
            if name not in _NOT_PARAMETERS and value is not None
        }
        document = {
            "meta": {"subcommand": args.command, "parameters": parameters, "version": __version__},
            "data": data,
        }
        pieces = _document_pieces(document)
        blocks = iter(lambda: _render_json(document, pieces), "")
    with _opened(args.output) as stream:
        for text in blocks:
            _deliver(text, stream)
    return 0


def main(argv=None) -> int:
    """Run the command in argv (default sys.argv[1:]) and return its exit code; safe to repeat."""
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
