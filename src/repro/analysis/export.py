"""Export of the reproduced evaluation as files.

The paper's artifact writes every figure to ``code/plots/``; this module is the
equivalent for the reproduction: it renders each computed experiment both as a
text report and as CSV data series, so results can be versioned, diffed and
plotted with any external tool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

from ..core.ioutil import atomic_write_text
from .dataset import Column, Table
from ..scanners.streaming import ReducedCampaignResults
from .report import EvaluationReport, build_report


@dataclass(frozen=True)
class ExportedFiles:
    """Paths written by :func:`export_evaluation`."""

    directory: str
    report_path: str
    csv_paths: Dict[str, str]

    @property
    def file_count(self) -> int:
        return 1 + len(self.csv_paths)


def _cdf_table(cdf, value_label: str) -> Table:
    table = Table([Column(value_label), Column("cumulative_probability", ".4f")])
    for value, probability in cdf.points(max_points=500):
        table.add_row(value, probability)
    return table


def _section_tables(name: str, section) -> Dict[str, Table]:
    """Turn one computed section into named CSV tables."""
    tables: Dict[str, Table] = {}
    if hasattr(section, "as_table"):
        tables[name] = section.as_table()
        return tables
    if name == "figure02b":
        for field, cdf in section.cdfs.items():
            tables[f"{name}_{field.lower()}"] = _cdf_table(cdf, "field_size_bytes")
    elif name == "figure04":
        tables[name] = _cdf_table(section.cdf, "amplification_factor")
    elif name == "figure06":
        tables[f"{name}_quic"] = _cdf_table(section.quic_cdf, "chain_size_bytes")
        tables[f"{name}_https_only"] = _cdf_table(section.https_only_cdf, "chain_size_bytes")
    elif name == "figure05":
        table = Table([Column("rank"), Column("tls_bytes"), Column("total_bytes"), Column("limit_bytes")])
        for rank, (tls, total, limit) in enumerate(section.entries, start=1):
            table.add_row(rank, tls, total, limit)
        tables[name] = table
    elif name in ("figure07a", "figure07b"):
        table = Table(
            [Column("share", ".4f"), Column("parent_chain_bytes"), Column("median_leaf_bytes"),
             Column("max_leaf_bytes"), Column("parent_chain")]
        )
        for row in section.rows:
            table.add_row(row.share, row.parent_chain_size, row.median_leaf_size,
                          row.max_leaf_size, row.label)
        tables[name] = table
    elif name == "figure09":
        for provider in section.providers():
            tables[f"{name}_{provider}"] = _cdf_table(section.cdfs[provider], "amplification_factor")
    elif name == "figure11":
        table = Table([Column("host_octet"), Column("before_factor", ".2f"), Column("after_factor", ".2f")])
        for octet in section.before.octets():
            table.add_row(octet, section.before.per_octet.get(octet, 0.0),
                          section.after.per_octet.get(octet, 0.0))
        tables[name] = table
    elif name == "figure14":
        table = Table([Column("leaf_size_bytes"), Column("san_byte_share", ".4f")])
        for size, share in section.points:
            table.add_row(size, share)
        tables[name] = table
    elif name == "figure08":
        table = Table(
            [Column("group"), Column("subject"), Column("issuer"), Column("public_key_info"),
             Column("extensions"), Column("signature"), Column("other"), Column("total")]
        )
        for label, sizes in section.means.items():
            table.add_row(label, sizes.subject, sizes.issuer, sizes.public_key_info,
                          sizes.extensions, sizes.signature, sizes.other, sizes.total)
        tables[name] = table
    elif name == "meta_prefix":
        table = Table([Column("group"), Column("hosts"), Column("mean_amplification", ".2f")])
        for group in (1, 2, 3):
            table.add_row(group, section.count(group), section.mean_amplification(group))
        tables[name] = table
    elif name == "compression":
        table = Table([Column("metric"), Column("value", ".4f")])
        table.add_row("median_synthetic_rate", section.median_synthetic_rate)
        table.add_row("share_below_limit_uncompressed", section.synthetic.share_below_limit_uncompressed)
        table.add_row("share_below_limit_compressed", section.share_below_limit_compressed)
        table.add_row("wild_mean_rate", section.wild_mean_rate or 0.0)
        table.add_row("wild_support_share", section.wild_support_share)
        tables[name] = table
    return tables


def export_evaluation(
    results: ReducedCampaignResults,
    directory: str,
    report: EvaluationReport | None = None,
) -> ExportedFiles:
    """Write the full evaluation (text report + per-figure CSVs) to ``directory``.

    ``results`` is what any campaign path returns; serial and streamed runs
    export identical bytes.
    """
    os.makedirs(directory, exist_ok=True)
    report = report or build_report(results)

    # Atomic writes throughout: an interrupted (or fault-injected) export can
    # never leave a truncated report or CSV behind — readers see the previous
    # complete artifact or the new one, nothing in between.
    report_path = os.path.join(directory, "evaluation.txt")
    atomic_write_text(report_path, report.text + "\n")

    csv_paths: Dict[str, str] = {}
    for name, section in report.sections.items():
        for table_name, table in _section_tables(name, section).items():
            path = os.path.join(directory, f"{table_name}.csv")
            atomic_write_text(path, table.to_csv() + "\n")
            csv_paths[table_name] = path
    return ExportedFiles(directory=directory, report_path=report_path, csv_paths=csv_paths)
