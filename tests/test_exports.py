"""The package root exports only names that something uses."""

import re
from pathlib import Path

import spinscatter

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_has_a_use():
    """Each name in spinscatter.__all__ occurs outside its own def/class line.

    Where it counts: a module of the package other than __init__.py, the
    acceptance criteria, or the benchmark's scripts.  A name that only its
    own unit tests call is dead weight in the public surface.
    """
    sources = [path for path in (ROOT / "src" / "spinscatter").glob("*.py") if path.name != "__init__.py"]
    sources += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    unused = [
        name
        for name in spinscatter.__all__
        if not any(
            re.search(rf"\b{name}\b", line) and not re.match(rf"(def|class) {name}\b", line) for line in lines
        )
    ]
    assert unused == []
