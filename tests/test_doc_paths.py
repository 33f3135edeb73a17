"""Every repository path and ``repro`` name that ``README.md`` and ``docs/*.md``
quote in backticks exists.

A quoted token counts as a path when it contains a ``/`` and ends either in
``/`` or in a file name with an extension; a ``::`` test id after it is cut
off.  It must resolve from the repository root, from ``src`` or, the way the
architecture notes name modules, from ``src/repro``; a ``*`` pattern must
match at least one file.  Placeholders in capitals (``DIR/incomplete.json``)
are skipped.

A quoted dotted name (call parentheses after it are cut off) counts as a
module-qualified name when it starts with ``repro`` or with a subpackage or
module of ``repro`` (``webpki.population.generate_shard``).  It must resolve
by importing its longest module prefix and reading the rest as attributes.
Benchmark layer and metric names (``webpki.tranco.calls``, read from
``BENCHMARK.json``) and file names (``cli.py``) are skipped.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import re
from pathlib import Path
from typing import List

import repro

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


_DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")
_REPRO_CHILDREN = frozenset(module.name for module in pkgutil.iter_modules(repro.__path__))


def _bench_names() -> frozenset:
    """The benchmark's per-layer metric names and the layer names in them."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = [metric["name"] for metric in json.load(handle)["per_layer"]]
    layers = [
        name.rsplit(".", 1)[0] for name in metrics if name.endswith((".calls", ".self_frac"))
    ]
    return frozenset(metrics + layers)


BENCH_NAMES = _bench_names()


def quoted_names(text: str) -> List[str]:
    """The module-qualified ``repro`` names ``text`` quotes in backticks, in order."""
    return [
        name
        for name in _DOTTED.findall(text)
        if name.split(".")[0] in _REPRO_CHILDREN | {"repro"}
        and name not in BENCH_NAMES
        and not _exists(name)
    ]


def _resolves(name: str) -> bool:
    parts = name.split(".")
    if parts[0] != "repro":
        parts.insert(0, "repro")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attribute in parts[split:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def test_every_quoted_name_resolves():
    unresolved = [
        f"{document.name}: {name}"
        for document in DOCUMENTS
        for name in quoted_names(document.read_text(encoding="utf-8"))
        if not _resolves(name)
    ]
    assert unresolved == []


def test_the_name_check_sees_repro_names_and_skips_the_rest():
    text = (
        "`webpki.population.iter_population_shards` `repro.cli.main()` "
        "`webpki.tranco.calls` `skeleton_store.range` `cli.py` "
        "`MeasurementCampaign.run` `x509.issuance.issue_leaf_fast`"
    )
    assert quoted_names(text) == [
        "webpki.population.iter_population_shards",
        "repro.cli.main",
        "x509.issuance.issue_leaf_fast",
    ]
    assert not _resolves("webpki.population.iter_population_shards")
    assert not _resolves("webpki.populace.generate_shard")
    assert _resolves("repro.cli.main") and _resolves("x509.issuance.issue_leaf_fast")
    assert _resolves("webpki.population.SkeletonShard.materialize")


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
