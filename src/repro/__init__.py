"""Reproduction of "On the Interplay between TLS Certificates and QUIC Performance".

The package is organised bottom-up:

* substrates: :mod:`repro.asn1`, :mod:`repro.x509`, :mod:`repro.tls`,
  :mod:`repro.quic`, :mod:`repro.netsim`, :mod:`repro.webpki`,
* measurement: :mod:`repro.scanners`,
* analysis: :mod:`repro.analysis` (one module per paper figure/table),
* the paper's contribution as an API: :mod:`repro.core` (handshake
  prediction from a chain, the §4.2 compression study, the §5 client-side
  Initial-size cache).

Quickstart::

    from repro.webpki import generate_population, PopulationConfig
    from repro.scanners import MeasurementCampaign
    from repro.analysis.report import build_report

    population = generate_population(PopulationConfig(size=5000))
    results = MeasurementCampaign(population=population, run_sweep=True).run()
    print(build_report(results).text)
"""

from .core import (
    ANTI_AMPLIFICATION_FACTOR,
    HandshakeClass,
    InitialSizeCache,
    amplification_limit,
    predict_handshake,
    required_initial_size,
    run_compression_study,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ANTI_AMPLIFICATION_FACTOR",
    "HandshakeClass",
    "InitialSizeCache",
    "amplification_limit",
    "predict_handshake",
    "required_initial_size",
    "run_compression_study",
]
