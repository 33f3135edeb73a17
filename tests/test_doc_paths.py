"""Every repository path that ``README.md`` and ``docs/*.md`` quote in backticks exists.

A quoted token counts as a path when it contains a ``/`` and ends either in
``/`` or in a file name with an extension; a ``::`` test id after it is cut
off.  It must resolve from the repository root, from ``src`` or, the way the
architecture notes name modules, from ``src/repro``; a ``*`` pattern must
match at least one file.  Placeholders in capitals (``DIR/incomplete.json``)
are skipped.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
ROOTS = (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro")

_QUOTED = re.compile(r"`([\w.*-]+(?:/[\w.*-]*)+)(?:::[^`]*)?`")
_FILE_NAME = re.compile(r"\.\w+$")


def quoted_paths(text: str) -> List[str]:
    """The repository paths ``text`` quotes in backticks, in order."""
    return [
        path
        for path in _QUOTED.findall(text)
        if (path.endswith("/") or _FILE_NAME.search(path)) and not path.split("/")[0].isupper()
    ]


def _exists(path: str) -> bool:
    if "*" in path:
        return any(any(root.glob(path)) for root in ROOTS)
    return any((root / path).exists() for root in ROOTS)


def test_every_quoted_path_exists():
    missing = [
        f"{document.name}: {path}"
        for document in DOCUMENTS
        for path in quoted_paths(document.read_text(encoding="utf-8"))
        if not _exists(path)
    ]
    assert missing == []


def test_the_check_sees_paths_and_skips_the_rest():
    text = (
        "`benchmarks/conftest.py` `asn1/` `tests/test_cli.py::TestParser` "
        "`DIR/incomplete.json` `repro-skel/2` `cli.py` `tests/test_figures_*.py`"
    )
    assert quoted_paths(text) == [
        "benchmarks/conftest.py", "asn1/", "tests/test_cli.py", "tests/test_figures_*.py",
    ]
    assert not _exists("benchmarks/conftest.py")
    assert _exists("asn1/") and _exists("tests/test_figures_*.py")
