"""The paper's primary contribution as a reusable library API.

``repro.core`` exposes the concepts a downstream user needs without touching
the substrates directly:

* the anti-amplification limit, browser Initial sizes, and the history of the
  limit across QUIC drafts (:mod:`repro.core.limits`),
* prediction of the handshake outcome from a certificate chain and a client
  Initial size *without* running a handshake — the interplay model the paper
  derives (:mod:`repro.core.interplay`),
* the synthetic certificate-compression study of §4.2
  (:mod:`repro.core.compression_study`),
* the §5 client-side Initial-size adaptation cache
  (:mod:`repro.core.guidance`).

Handshake classes are :class:`repro.quic.handshake.HandshakeClass`, whose
``classify`` holds the §3.2 precedence.
"""

from ..quic.handshake import HandshakeClass
from .limits import (
    ANTI_AMPLIFICATION_FACTOR,
    MIN_INITIAL_SIZE,
    BrowserProfile,
    BROWSER_PROFILES,
    AMPLIFICATION_LIMIT_HISTORY,
    DraftLimit,
    amplification_limit,
)
from .interplay import (
    HandshakePrediction,
    predict_handshake,
    required_initial_size,
    server_flight_size,
)
from .compression_study import CompressionStudyResult, run_compression_study
from .guidance import InitialSizeCache, CacheEntry

__all__ = [
    "ANTI_AMPLIFICATION_FACTOR",
    "MIN_INITIAL_SIZE",
    "BrowserProfile",
    "BROWSER_PROFILES",
    "AMPLIFICATION_LIMIT_HISTORY",
    "DraftLimit",
    "amplification_limit",
    "HandshakeClass",
    "HandshakePrediction",
    "predict_handshake",
    "required_initial_size",
    "server_flight_size",
    "CompressionStudyResult",
    "run_compression_study",
    "InitialSizeCache",
    "CacheEntry",
]
