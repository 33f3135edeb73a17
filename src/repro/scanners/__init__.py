"""Measurement toolchain.

One module per tool in the paper's Figure 10 pipeline:

* :mod:`repro.scanners.https_scanner` — steps 1–2: DNS, port checks, redirect
  following, HTTPS certificate collection (libcurl/zcrypto equivalent),
* :mod:`repro.scanners.quicreach` — step 3.1: QUIC handshake classification
  with an Initial-size sweep (microsoft/quicreach equivalent),
* :mod:`repro.scanners.qscanner` — step 3.2: certificates over QUIC
  (tumi8/QScanner equivalent),
* :mod:`repro.scanners.compression_scanner` — step 3.3: RFC 8879 support and
  rates (quiche-with-compression equivalent),
* :mod:`repro.scanners.zmap` — step 4.2: single unacknowledged Initial to every
  host of a prefix (zmap equivalent),
* :mod:`repro.scanners.backscatter` — step 4.1: telescope backscatter analysis,
* :mod:`repro.scanners.orchestrator` — step 5: runs the full campaign and
  merges the per-tool outputs into one results bundle for the analysis layer,
* :mod:`repro.scanners.sharding` — shard planning, the per-shard object scan
  and the retrying multi-process dispatcher,
* :mod:`repro.scanners.streaming` — streaming reduction of sharded campaigns:
  workers ship compact per-shard summaries, the parent merges them
  order-insensitively, reports stay byte-identical at bounded memory.
"""

from .https_scanner import HttpsScanner, HttpsScanResult, CertificateRecord, ScanFunnel
from .quicreach import QuicReach, HandshakeObservation, InitialSizeSweep, SweepResult
from .qscanner import QScanner, QuicCertificateRecord, CertificateComparison
from .compression_scanner import CompressionScanner, CompressionObservation
from .zmap import ZmapScanner, ZmapProbeResult
from .backscatter import BackscatterAnalyzer, ProviderBackscatter, simulate_spoofed_campaign
from .orchestrator import MeasurementCampaign, CampaignResults, run_grid_campaign
from .streaming import (
    CampaignReducer,
    ReducedCampaignResults,
    ReducedScanResults,
    ReductionSpec,
    ShardSummary,
    run_streaming_grid_scan,
    run_streaming_scan,
    summarize_shard,
)
from .sharding import (
    DEFAULT_SHARD_SIZE,
    ShardScanResult,
    ShardSpec,
    ShardTask,
    plan_shards,
    scan_shard,
)

__all__ = [
    "CampaignReducer",
    "ReducedCampaignResults",
    "ReducedScanResults",
    "ReductionSpec",
    "ShardSummary",
    "run_grid_campaign",
    "run_streaming_grid_scan",
    "run_streaming_scan",
    "summarize_shard",
    "DEFAULT_SHARD_SIZE",
    "ShardScanResult",
    "ShardSpec",
    "ShardTask",
    "plan_shards",
    "scan_shard",
    "HttpsScanner",
    "HttpsScanResult",
    "CertificateRecord",
    "ScanFunnel",
    "QuicReach",
    "HandshakeObservation",
    "InitialSizeSweep",
    "SweepResult",
    "QScanner",
    "QuicCertificateRecord",
    "CertificateComparison",
    "CompressionScanner",
    "CompressionObservation",
    "ZmapScanner",
    "ZmapProbeResult",
    "BackscatterAnalyzer",
    "ProviderBackscatter",
    "simulate_spoofed_campaign",
    "MeasurementCampaign",
    "CampaignResults",
]
