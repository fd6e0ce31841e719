"""The `qubitsim ...` command lines of README.md, parsed in one place.

Standard library only: the tests import it, and so does the CI job that runs
the commands through the package installed without its test extra.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Every `qubitsim ...` command in README.md, with and without its [...] flags."""
    text = README.read_text().replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line.startswith("qubitsim "):
            continue
        commands.append(re.sub(r"\s*\[[^\]]*\]", "", line))
        if "[" in line:
            commands.append(line.replace("[", "").replace("]", ""))
    return commands
