"""Mutant runner: each row breaks one line on purpose, and tier-1 must fail on it.

For each row (file, old, new, reason) the runner copies the repository to a
temporary directory, replaces the one occurrence of old with new in file, and
runs tier-1 there with -x. It prints "killed" when tier-1 fails and "survived"
when it passes, and exits 1 if any row survives or cannot be run. Every old
text must occur exactly once in its file, so a refactor that moves a line
fails here loudly instead of dropping its mutant.

Run from anywhere, with the test extra installed:

    python tests/mutants.py            # every row
    python tests/mutants.py screen     # rows whose reason contains "screen"

It uses only the standard library and pytest, and is not part of tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench", ".benchmarks", "build", "*.egg-info")
TIMEOUT_S = 600

DYNAMICS = "src/qubitsim/dynamics.py"

# (file, old, new, reason)
MUTANTS = [
    (DYNAMICS, "_SCREEN_TRACE_LOW = 1.0 - 0.5 * TRACE_TOL",
     "_SCREEN_TRACE_LOW = 1.0 - 1.5 * TRACE_TOL",
     "screen: trace range widened below 1 to 1.5 TRACE_TOL passes rows the checks refuse"),
    (DYNAMICS, "_SCREEN_TRACE_HIGH = 1.0 + 0.5 * TRACE_TOL",
     "_SCREEN_TRACE_HIGH = 1.0 + 1.5 * TRACE_TOL",
     "screen: trace range widened above 1 to 1.5 TRACE_TOL passes rows the checks refuse"),
    (DYNAMICS, "_SCREEN_MINUS_DET = -0.5 * POSITIVITY_FLOOR",
     "_SCREEN_MINUS_DET = -2.0 * POSITIVITY_FLOOR",
     "screen: determinant bound widened to -2 POSITIVITY_FLOOR passes negative eigenvalues"),
    (DYNAMICS, "minus_det -= a * b", "minus_det += a * b",
     "screen: + a*b refuses every healthy block, so the eigenvalues run on all of them"),
    (DYNAMICS, "_SCREEN_TRACE_LOW <= s.min()", "_SCREEN_TRACE_LOW <= s.max()",
     "screen: the lower trace bound on the block maximum passes a row below the range"),
    (DYNAMICS, "if _passes_screen(rows) or all(ok.all() for ok, _, _ in _checks(rows)):",
     "if _passes_screen(rows):",
     "screen: without the per-block fallback every refused block searches the whole run"),
    (DYNAMICS, "0.5 * c_m * (c_m - 1.0)", "0.5 * c_m * (c_m + 1.0)",
     "node weights: a flipped sign in the middle-cosine weight"),
]


def copy_of_repository(into: Path) -> Path:
    tree = into / "repo"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def tier1(tree: Path) -> int:
    """Exit code of tier-1 run in tree, against tree's own src/; -1 on timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return run.returncode


def imported_from(tree: Path) -> Path:
    """Directory that `import qubitsim` loads from when tier-1 runs in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    code = "import qubitsim; print(qubitsim.__file__)"
    out = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, check=True,
                         capture_output=True, text=True).stdout
    return Path(out.strip()).parent


def main(argv) -> int:
    rows = [row for row in MUTANTS if not argv or any(word in row[3] for word in argv)]
    for path, old, _, reason in rows:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"error: {path} holds {count} copies of the text of row '{reason}'")
            return 1
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = copy_of_repository(Path(scratch))
        package = imported_from(tree)
        if package != tree / "src" / "qubitsim":
            print(f"error: tier-1 in the copy imports qubitsim from {package}")
            return 1
        if tier1(tree) != 0:
            print("error: tier-1 fails on the unmutated copy")
            return 1
        for path, old, new, reason in rows:
            target = tree / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            start = time.perf_counter()
            code = tier1(tree)
            target.write_text(original)
            verdict = {0: "survived", 1: "killed", -1: "killed (timeout)"}.get(
                code, f"error (pytest exit {code})")
            failures += not verdict.startswith("killed")
            print(f"{verdict:<16} {time.perf_counter() - start:6.1f} s  {path}: {reason}",
                  flush=True)
    print(f"{len(rows) - failures} of {len(rows)} rows killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
