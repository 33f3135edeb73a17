#!/usr/bin/env python3
"""Quickstart: generate a synthetic Web population, scan it, classify handshakes.

Runs the full measurement pipeline of the paper at a small scale (a few
thousand domains) and prints the headline numbers: the scan funnel, the
handshake class shares at a browser-like Initial size, and the certificate
chain size medians.

Usage::

    python examples/quickstart.py [population-size]
"""

from __future__ import annotations

import sys

from repro.analysis.report import build_report, class_shares
from repro.scanners import MeasurementCampaign
from repro.webpki import PopulationConfig, generate_population


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    print(f"Generating a synthetic population of {size} domains ...")
    population = generate_population(PopulationConfig(size=size, seed=2022))

    print("Running the measurement campaign (HTTPS scan, QUIC scans, telescope) ...")
    campaign = MeasurementCampaign(population=population, run_sweep=False)
    results = campaign.run()
    report = build_report(results)

    print()
    print(report["funnel"].render_text())

    print()
    print("Handshake classes at a 1362-byte client Initial (paper §4.1):")
    for handshake_class, share in sorted(
        class_shares(results).items(), key=lambda item: item[1], reverse=True
    ):
        print(f"  {handshake_class.value:<14s} {share:6.2%}")

    print()
    print(report["figure06"].render_text())

    print()
    print("Done.  See examples/full_evaluation.py for every figure and table.")


if __name__ == "__main__":
    main()
