"""Columnar scan backend: whole-shard arithmetic instead of per-domain objects.

``scan_shard`` builds a resolver, an origin map, a UDP fabric and thousands of
frozen QUIC/TLS wire objects per shard, only to reduce them to the counters and
compact rows of a :class:`~repro.scanners.streaming.ShardSummary` moments
later.  This module fuses the two steps: it reads a shard as one
:class:`~repro.scanners.shard_columns.ShardColumns` record — deployment
columns plus a chain table of leaf DER bytes, field-size rows, DEFLATE
lengths and shared chain shapes — and computes the wire-size arithmetic,
handshake classification and amplification-ratio math as batch passes over
those columns, emitting the ``ShardSummary`` directly.

The backend contract (see docs/ARCHITECTURE.md, "Columnar scan core"):

* **One input type.**  A warm store-backed shard reaches the kernel as the
  columns of its verified ``.skel`` payload
  (:func:`~repro.scanners.skeleton_store.columns_for_range`); every other
  shard is lowered from deployments by
  :func:`~repro.scanners.shard_columns.lower_deployments`.
* **Byte-identical output.**  ``summarize_shard_columnar(task,
  lower_deployments(deployments), spec)`` returns exactly the summary
  ``summarize_shard(task, deployments, scan_shard(task), spec)`` returns —
  same counters, same float-summation order, same flight-plan cache counters
  (replayed against a real :class:`~repro.quic.server.FlightPlanCache` with
  sentinel entries).  The object path stays the differential reference
  (``tests/test_columnar_scan.py``).
* **Constants come from the real objects.**  TLS message sizes are read off
  freshly built :mod:`~repro.tls.handshake_messages` instances at import time,
  so the kernel cannot drift from the wire model silently; only the *per
  domain* arithmetic is mirrored by hand (and pinned per formula by
  ``tests/test_properties.py``).
* **One DEFLATE per chain at most.**  The object path compresses a chain once
  per negotiated flight plus once per supported algorithm in the compression
  scan plus once in the synthetic reduction; the kernel reads the length the
  skeleton store recorded, or runs zlib once per chain, and scales the
  calibrated per-algorithm factors off that measurement (the same split
  :func:`~repro.tls.cert_compression.compressed_size_for_deflate` exposes).

Backend selection is threaded through ``ShardTask.scan_backend``; use
``--scan-backend {object,columnar}`` on the CLI or the ``REPRO_SCAN_BACKEND``
environment knob (streaming runs only — the serial path is the object
reference and always keeps its full-observation internals).
"""

from __future__ import annotations

import os
from array import array
from typing import Dict, List, Optional, Tuple

from ..analysis.figures import figure02b, figure07, figure08, figure12, figure13, table02
from ..netsim.dns import DnsRcode
from ..netsim.http import target_domain
from ..quic.anti_amplification import ANTI_AMPLIFICATION_FACTOR
from ..quic.frames import AckFrame
from ..quic.handshake import HandshakeClass
from ..quic.packet import AEAD_TAG_SIZE, MIN_CLIENT_INITIAL_SIZE
from ..quic.profiles import CoalescenceMode, RetryPolicy, ServerBehaviorProfile
from ..quic.server import FlightPlanCache
from ..quic.varint import varint_size
from ..tls.cert_compression import (
    CertificateCompressionAlgorithm,
    compressed_size_for_deflate,
)
from ..tls.handshake_messages import (
    CertificateVerify,
    EncryptedExtensions,
    Finished,
    ServerHello,
)
from ..webpki.deployment import ServiceCategory
from ..x509.keys import KeyAlgorithm
from .compression_scanner import ALL_ALGORITHMS
from .https_scanner import ScanFunnel
from .quicreach import HandshakeObservation
from .shard_columns import ChainShape, ShardColumns
from .sharding import ScanTarget, ShardTask
from .streaming import ReductionSpec, ShardSummary, select_per_provider

# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

#: The two shard-scan implementations.  ``object`` is the reference pipeline
#: (stages 1–4 over real resolver/origin/fabric objects); ``columnar`` is the
#: fused arithmetic kernel of this module.
SCAN_BACKENDS: Tuple[str, ...] = ("object", "columnar")

#: Environment knob consulted by streaming runs when no explicit backend is
#: passed.  An empty value counts as unset.
SCAN_BACKEND_ENV = "REPRO_SCAN_BACKEND"


def resolve_scan_backend(explicit: Optional[str] = None) -> str:
    """Resolve the scan backend: explicit argument > environment > ``object``."""
    backend = explicit
    source = "scan backend"
    if backend is None:
        backend = os.environ.get(SCAN_BACKEND_ENV) or None
        source = SCAN_BACKEND_ENV
    if backend is None:
        return "object"
    if backend not in SCAN_BACKENDS:
        choices = ", ".join(SCAN_BACKENDS)
        raise ValueError(f"unknown {source} {backend!r} (choose from: {choices})")
    return backend


# ---------------------------------------------------------------------------
# Wire-model constants, read off the real objects at import time
# ---------------------------------------------------------------------------

_SERVER_HELLO_SIZE = ServerHello().size
_ENCRYPTED_EXTENSIONS_SIZE = EncryptedExtensions().size
_FINISHED_SIZE = Finished().size
#: CertificateVerify size per server key algorithm (the signature length
#: follows the leaf's algorithm).
_CERT_VERIFY_SIZE: Dict[KeyAlgorithm, int] = {
    algorithm: CertificateVerify(algorithm).size for algorithm in KeyAlgorithm
}
_ACK_FRAME_SIZE = AckFrame(0).size
#: CRYPTO frame wrapping the ServerHello at stream offset 0.
_SH_FRAME_SIZE = (
    1 + varint_size(0) + varint_size(_SERVER_HELLO_SIZE) + _SERVER_HELLO_SIZE
)

#: Packet size = base + packet-number field + payload + length-field varint;
#: the base folds the long header (23 bytes with 8-byte connection IDs) plus
#: the AEAD tag, and for Initials the empty retry-token length varint.
_INITIAL_BASE = 23 + 1 + AEAD_TAG_SIZE
_HANDSHAKE_BASE = 23 + AEAD_TAG_SIZE
#: Retry packets carry no length/packet-number fields: header + token + tag.
_RETRY_BASE = 23 + AEAD_TAG_SIZE
_RETRY_TOKEN_PREFIX_LEN = len(b"retry-token:")


def _pn_len(packet_number: int) -> int:
    if packet_number < 1 << 8:
        return 1
    if packet_number < 1 << 16:
        return 2
    if packet_number < 1 << 24:
        return 3
    return 4


def _packet_size(base: int, payload: int, pn_len: int) -> int:
    return base + pn_len + payload + varint_size(payload + pn_len + AEAD_TAG_SIZE)


def _padded_packet_size(
    base: int, payload: int, pn_len: int, target: int
) -> Tuple[int, int]:
    """Mirror ``QuicPacket.with_padding_to``: (padded size, padding bytes added).

    Growing the payload can grow the length-field varint, overshooting the
    target; the packet model then trims the padding run by the overshoot when
    possible.
    """
    size = _packet_size(base, payload, pn_len)
    deficit = target - size
    if deficit <= 0:
        return size, 0
    candidate = _packet_size(base, payload + deficit, pn_len)
    overshoot = candidate - target
    pad = deficit
    if overshoot > 0 and deficit - overshoot > 0:
        pad = deficit - overshoot
    return _packet_size(base, payload + pad, pn_len), pad


# ---------------------------------------------------------------------------
# First-flight arithmetic (mirrors QuicServer._build_packets/_build_datagrams/
# _pad_datagram/_apply_amplification_limit)
# ---------------------------------------------------------------------------

#: (profile id, certificate message size, CertificateVerify size) ->
#: (datagram rows ``(size, ack_eliciting, padding_bytes)``, total bytes).
#: Process-wide: flights depend only on these three inputs, and the handful of
#: (profile, chain-size-class) combinations repeats across every shard.
#: Profiles are keyed by ``id`` — they are the immortal module singletons of
#: :mod:`repro.quic.profiles`, so identity is stable for the process lifetime
#: and the key skips the dataclass hash (which re-hashes every enum field).
_FLIGHT_ROWS: Dict[tuple, Tuple[Tuple[Tuple[int, bool, int], ...], int]] = {}

#: (profile id, certificate size, verify size, Initial size) ->
#: (first-RTT bytes, deferred bytes) for an unvalidated client.
_FLIGHT_SPLITS: Dict[tuple, Tuple[int, int]] = {}


def _flight_rows(
    profile: ServerBehaviorProfile, certificate_size: int, verify_size: int
) -> Tuple[Tuple[Tuple[int, bool, int], ...], int]:
    key = (id(profile), certificate_size, verify_size)
    cached = _FLIGHT_ROWS.get(key)
    if cached is not None:
        return cached

    # Initial-level packets: (payload, packet number, ack-eliciting).
    if profile.coalescence is CoalescenceMode.SPLIT_INITIAL_ACK:
        initials = [(_ACK_FRAME_SIZE, 0, False), (_SH_FRAME_SIZE, 1, True)]
    else:
        initials = [(_ACK_FRAME_SIZE + _SH_FRAME_SIZE, 0, True)]

    # Handshake-level CRYPTO stream, chunked like _build_packets.
    stream_len = (
        _ENCRYPTED_EXTENSIONS_SIZE + certificate_size + verify_size + _FINISHED_SIZE
    )
    per_packet_overhead = 40 + AEAD_TAG_SIZE
    full_chunk = profile.mtu - per_packet_overhead
    chunks: List[int] = []
    if profile.coalescence is CoalescenceMode.FULL:
        last_payload, last_pn, _ = initials[-1]
        last_initial_size = _packet_size(_INITIAL_BASE, last_payload, _pn_len(last_pn))
        space_next_to_initial = profile.mtu - last_initial_size - per_packet_overhead
        if space_next_to_initial > 64:
            first = min(space_next_to_initial, stream_len)
            if first:
                chunks.append(first)
            stream_len -= first
    while stream_len > 0:
        take = min(full_chunk, stream_len)
        chunks.append(take)
        stream_len -= take
    if not chunks:
        chunks.append(0)

    # Packets: (is_initial, size, ack-eliciting, payload, pn_len).
    packets: List[Tuple[bool, int, bool, int, int]] = []
    for payload, packet_number, eliciting in initials:
        pn_len = _pn_len(packet_number)
        packets.append(
            (True, _packet_size(_INITIAL_BASE, payload, pn_len), eliciting, payload, pn_len)
        )
    offset = 0
    for index, chunk in enumerate(chunks):
        frame = 1 + varint_size(offset) + varint_size(chunk) + chunk
        pn_len = _pn_len(index)
        packets.append(
            (False, _packet_size(_HANDSHAKE_BASE, frame, pn_len), True, frame, pn_len)
        )
        offset += chunk

    # Datagrams: greedy MTU coalescing (FULL) or one packet per datagram.
    if profile.coalescence is CoalescenceMode.FULL:
        datagrams: List[List[Tuple[bool, int, bool, int, int]]] = []
        current: List[Tuple[bool, int, bool, int, int]] = []
        current_size = 0
        for packet in packets:
            if current and current_size + packet[1] > profile.mtu:
                datagrams.append(current)
                current, current_size = [], 0
            current.append(packet)
            current_size += packet[1]
        if current:
            datagrams.append(current)
    else:
        datagrams = [[packet] for packet in packets]

    # Datagram-level Initial padding (RFC 9000 §14.1 / pad_all profiles).
    rows: List[Tuple[int, bool, int]] = []
    total = 0
    for datagram in datagrams:
        size = sum(packet[1] for packet in datagram)
        eliciting = any(packet[2] for packet in datagram)
        contains_initial = any(packet[0] for packet in datagram)
        padding = 0
        if (
            contains_initial
            and size < MIN_CLIENT_INITIAL_SIZE
            and (eliciting or profile.pad_all_initial_datagrams)
        ):
            deficit = MIN_CLIENT_INITIAL_SIZE - size
            is_initial, last_size, _, payload, pn_len = datagram[-1]
            base = _INITIAL_BASE if is_initial else _HANDSHAKE_BASE
            new_size, padding = _padded_packet_size(
                base, payload, pn_len, last_size + deficit
            )
            size += new_size - last_size
        rows.append((size, eliciting, padding))
        total += size

    result = (tuple(rows), total)
    _FLIGHT_ROWS[key] = result
    return result


def _first_rtt_split(
    profile: ServerBehaviorProfile,
    certificate_size: int,
    verify_size: int,
    initial_size: int,
) -> Tuple[int, int]:
    """First-RTT/deferred byte split under the profile's own accounting."""
    key = (id(profile), certificate_size, verify_size, initial_size)
    cached = _FLIGHT_SPLITS.get(key)
    if cached is not None:
        return cached
    rows, _ = _flight_rows(profile, certificate_size, verify_size)
    limit = ANTI_AMPLIFICATION_FACTOR * initial_size
    ignore = not profile.enforce_amplification_limit
    exclude = not profile.count_padding_against_limit
    sent = unaccounted = first = deferred = 0
    blocked = False
    for size, eliciting, padding in rows:
        if blocked:
            deferred += size
            continue
        padding_only = padding > 0 and not eliciting
        allowed = ignore or sent - unaccounted + size <= limit
        if allowed or (exclude and padding_only):
            sent += size
            if exclude and padding_only:
                unaccounted += size
            first += size
        else:
            blocked = True
            deferred += size
    result = (first, deferred)
    _FLIGHT_SPLITS[key] = result
    return result


# ---------------------------------------------------------------------------
# Per-handshake arithmetic over the chain table
# ---------------------------------------------------------------------------

def _certificate_message_size(
    columns: ShardColumns,
    chain: int,
    profile: ServerBehaviorProfile,
    offer: Tuple[CertificateCompressionAlgorithm, ...],
) -> int:
    """Wire size of the (possibly compressed) Certificate message.

    Uncompressed: 4-byte handshake header + 1-byte request context + payload.
    Compressed (RFC 8879): header + 2-byte algorithm + 3-byte uncompressed
    length + compressed payload.  The DEFLATE length is read (or measured)
    only when an algorithm is negotiated.
    """
    negotiated = None
    if offer:
        for algorithm in offer:
            if algorithm in profile.compression_algorithms:
                negotiated = algorithm
                break
    if negotiated is None:
        return 5 + columns.payload_len(chain)
    return 9 + compressed_size_for_deflate(negotiated, columns.deflate_len(chain))


def _flight_cache_entry():
    """Sentinel stored in the replayed flight-plan cache (any non-None value)."""
    return True


def _measure(
    domain: str,
    profile: ServerBehaviorProfile,
    columns: ShardColumns,
    chain: int,
    offer: Tuple[CertificateCompressionAlgorithm, ...],
    initial_size: int,
    cache: FlightPlanCache,
) -> Tuple[HandshakeClass, int, int, int, int, int]:
    """One handshake's observables: (class, first-RTT, total, TLS, overhead, RTTs).

    ``chain`` indexes ``columns``' chain table.  Replays the object path's
    flight-plan cache key sequence against ``cache`` so the per-shard cache
    counters stay byte-identical.
    """
    verify_size = _CERT_VERIFY_SIZE[columns.shapes[chain].leaf_algorithm]
    certificate_size = _certificate_message_size(columns, chain, profile, offer)
    tls_total = (
        _SERVER_HELLO_SIZE
        + _ENCRYPTED_EXTENSIONS_SIZE
        + certificate_size
        + verify_size
        + _FINISHED_SIZE
    )
    # Keyed by chain index, not content: a domain's handshakes all resolve
    # to one host row and so to one chain index, and behaviour profiles are
    # the module singletons of repro.quic.profiles (pairwise unequal), so the
    # hit/miss sequence — the part the differential suite pins — matches the
    # object path's fingerprint-keyed cache without hashing chains or
    # profiles.
    key = (domain, id(profile), chain, offer)
    cache.get_or_build(key, _flight_cache_entry)
    if profile.retry_policy is RetryPolicy.ALWAYS:
        # The client echoes the token and the server responds again (second
        # cache visit); a validated address releases the whole flight at once.
        cache.get_or_build(key, _flight_cache_entry)
        token_len = _RETRY_TOKEN_PREFIX_LEN + len(domain.encode("ascii")[:32])
        retry_size = _RETRY_BASE + token_len
        _, flight_total = _flight_rows(profile, certificate_size, verify_size)
        first = total = retry_size + flight_total
        return (
            HandshakeClass.RETRY,
            first,
            total,
            tls_total,
            max(total - tls_total, 0),
            2,
        )
    first, deferred = _first_rtt_split(
        profile, certificate_size, verify_size, initial_size
    )
    total = first + deferred
    if deferred:
        handshake_class, round_trips = HandshakeClass.MULTI_RTT, 2
    elif first > ANTI_AMPLIFICATION_FACTOR * initial_size:
        handshake_class, round_trips = HandshakeClass.AMPLIFICATION, 1
    else:
        handshake_class, round_trips = HandshakeClass.ONE_RTT, 1
    return (
        handshake_class,
        first,
        total,
        tls_total,
        max(total - tls_total, 0),
        round_trips,
    )


def _accepts_initial(encapsulation_overhead: int, initial_size: int) -> bool:
    """Mirror QuicServiceHost.accepts_initial (path MTU 1500, UDP/IP 28)."""
    return initial_size <= 1500 - 28 - encapsulation_overhead


# ---------------------------------------------------------------------------
# The fused shard scan
# ---------------------------------------------------------------------------

def summarize_shard_columnar(
    task: ShardTask,
    columns: ShardColumns,
    spec: ReductionSpec,
) -> ShardSummary:
    """Scan and reduce one shard in a single pass over its columns.

    ``columns`` is the shard as a :class:`ShardColumns` record — read from the
    skeleton store (:func:`~repro.scanners.skeleton_store.columns_for_range`)
    or lowered from deployments
    (:func:`~repro.scanners.shard_columns.lower_deployments`).  Byte-identical
    to ``summarize_shard(task, deployments, scan_shard(task,
    deployments=deployments), spec)``; the differential suite pins the
    equality per figure artefact.
    """
    cache = FlightPlanCache()
    domains = columns.domains
    ranks = columns.ranks
    providers = columns.providers
    categories = columns.categories
    behaviors = columns.behaviors
    encapsulations = columns.encapsulations
    https_slots = columns.https
    quic_slots = columns.quic
    leaf_ders = columns.leaf_ders
    field_rows = columns.field_rows
    san_shares = columns.san_shares
    shapes = columns.shapes
    deflate_lens = columns.deflate_lens
    quic_category = ServiceCategory.QUIC
    https_category = ServiceCategory.HTTPS_ONLY
    quic_rows: List[int] = []
    https_rows: List[int] = []
    # Rows outside the two analysed categories that still deliver a chain.
    other_rows: List[int] = []

    # Stage 1 — the DNS/origin fabric as two dicts (build_resolver_for /
    # build_origins_for + HttpsScanner's lowercasing, last-wins like the real
    # dict construction order).  One pass fills both dicts plus the QUIC host
    # table (lower-cased domain -> row): each dict sees its entries in the
    # same deployment order the staged builders produce, so last-wins
    # resolution is unchanged.
    noerror = DnsRcode.NOERROR
    # The zone's values, shared instead of built per row.
    resolved = (noerror, True)
    unresolved = {rcode: (rcode, False) for rcode in DnsRcode}
    dns_zone: Dict[str, Tuple[DnsRcode, bool]] = {}
    # lower-cased name -> (origin domain, https chain, explicit redirect hop).
    origins: Dict[str, Tuple[str, Optional[int], Optional[str]]] = {}
    hosts: Dict[str, int] = {}
    lowered_domains: List[str] = []
    for row, (domain, category, rcode, addressed, redirect, chain) in enumerate(
        zip(domains, categories, columns.rcodes, columns.addressed, columns.redirects, https_slots)
    ):
        lowered = domain.lower()
        lowered_domains.append(lowered)
        if category is quic_category:
            quic_rows.append(row)
            if addressed and quic_slots[row] is not None:
                hosts[lowered] = row
        elif category is https_category:
            https_rows.append(row)
        elif chain is not None or quic_slots[row] is not None:
            other_rows.append(row)
        if rcode is not noerror or not addressed:
            dns_zone[lowered] = unresolved[rcode]
            continue
        dns_zone[lowered] = resolved
        if redirect:
            dns_zone[redirect.lower()] = resolved
        if redirect and chain is not None:
            origins[redirect.lower()] = (redirect, chain, None)
            origins[lowered] = (domain, chain, target_domain(f"https://{redirect}/"))
        else:
            origins[lowered] = (domain, chain, None)

    # Chain fingerprints (CertificateChain.fingerprint's bytes), at most
    # once per chain.
    digests: Dict[int, bytes] = {}

    def digest_of(chain: int) -> bytes:
        digest = digests.get(chain)
        if digest is None:
            digest = digests[chain] = columns.digest(chain)
        return digest

    # The funnel walk of HttpsScanner.scan/_scan_one.
    funnel = ScanFunnel(names_total=len(domains))
    https_digests: set = set()
    chains_by_requested: Dict[str, int] = {}
    for requested in lowered_domains:
        rcode, has_address = dns_zone.get(requested, (DnsRcode.NXDOMAIN, False))
        if rcode is noerror:
            funnel.dns_noerror += 1
        elif rcode is DnsRcode.SERVFAIL:
            funnel.dns_servfail += 1
        elif rcode is DnsRcode.NXDOMAIN:
            funnel.dns_nxdomain += 1
        elif rcode is DnsRcode.TIMEOUT:
            funnel.dns_timeout += 1
        elif rcode is DnsRcode.REFUSED:
            funnel.dns_refused += 1
        if not has_address:
            continue
        funnel.with_a_record += 1
        origin = origins.get(requested)
        if origin is None:
            # No origin at the requested name: the walk below would break on
            # its first hop with nothing collected and no open ports.
            continue
        origin_domain, chain, redirect_next = origin
        if (
            chain is not None
            and redirect_next is None
            and origin_domain.lower() == requested
        ):
            # The dominant shape — a plain HTTPS site serving the requested
            # name directly.  The general walk would take exactly one hop and
            # land here; folding it inline skips the per-name walk state.
            https_digests.add(digest_of(chain))
            chains_by_requested[requested] = chain
            funnel.names_with_certificates += 1
            funnel.port_80_open += 1
            funnel.port_443_open += 1
            continue
        collected = False
        visited: set = set()
        current = requested
        via_redirect = False
        for _ in range(6):  # max_redirects (5) + 1
            if current in visited:
                break
            visited.add(current)
            origin = origins.get(current)
            if origin is None:
                break
            origin_domain, chain, redirect_next = origin
            if chain is not None:
                collected = True
                https_digests.add(digest_of(chain))
                if requested not in chains_by_requested or not via_redirect:
                    chains_by_requested[requested] = chain
            next_target = None
            if chain is not None and redirect_next:
                # HTTPS 301 with an explicit Location (no same-host check in
                # the scanner's HTTPS branch; the shared exit below catches it).
                next_target = redirect_next
            elif chain is not None:
                # Port-80 default of HTTPS sites: 301 to https://<origin>/.
                candidate = origin_domain.lower()
                if candidate != current:
                    next_target = candidate
            if not next_target or next_target == current:
                break
            current = next_target
            via_redirect = True
        if collected:
            funnel.names_with_certificates += 1
        origin = origins.get(requested)
        if origin is not None:
            funnel.port_80_open += 1
            if origin[1] is not None:
                funnel.port_443_open += 1
    funnel_counts = funnel.as_dict()
    funnel_counts.pop("unique_certificate_chains")
    chain_digests = frozenset(https_digests)

    # Stage 2 fabric — hosts by lower-cased domain (build_network_for),
    # filled by the stage-1 pass above.
    targets = [(domains[row], ranks[row], providers[row]) for row in quic_rows]
    target_names = [lowered_domains[row] for row in quic_rows]

    # Stages 2, 3 and 4 — handshake classification, QUIC-vs-HTTPS certificate
    # comparison, and compression support / wild rates — fused into one pass
    # over the QUIC targets: each target resolves its host exactly once, and
    # only stage 2's ``_measure`` touches the flight-plan cache, so the
    # per-target fold order keeps the cache counter sequence byte-identical
    # to the staged object path.
    analysis_offer = tuple(task.analysis_compression)
    analysis_size = task.analysis_initial_size
    analysis_limit = ANTI_AMPLIFICATION_FACTOR * analysis_size
    reachable = 0
    class_counts: Dict[HandshakeClass, int] = {}
    amp_factor_counts: Dict[float, int] = {}
    fig13_ranks = array("q")
    fig13_classes = bytearray()
    fig5_tls = array("q")
    fig5_total = array("q")
    fig5_limit = array("q")
    fig5_exceeds = 0
    fig5_overhead_max = 0
    quic_certificate_count = comparison_total = comparison_identical = 0
    supported_by_profile: Dict[int, Tuple] = {}
    wild_count = wild_all_three = 0
    wild_rates: Dict[CertificateCompressionAlgorithm, array] = {
        algorithm: array("d") for algorithm in ALL_ALGORITHMS
    }
    for (domain, rank, _provider), lowered in zip(targets, target_names):
        host = hosts.get(lowered)
        if host is None:
            continue
        quic_chain = quic_slots[host]
        profile = behaviors[host]

        # Stage 2 fold — handshake classification at the analysis Initial size.
        if _accepts_initial(encapsulations[host], analysis_size):
            handshake_class, first, total, tls_total, overhead, _round_trips = _measure(
                domain,
                profile,
                columns,
                quic_chain,
                analysis_offer,
                analysis_size,
                cache,
            )
            reachable += 1
            class_counts[handshake_class] = class_counts.get(handshake_class, 0) + 1
            fig13_ranks.append(rank)
            fig13_classes.append(figure13.CLASS_CODES[handshake_class])
            if first > analysis_limit:
                factor = first / analysis_size
                amp_factor_counts[factor] = amp_factor_counts.get(factor, 0) + 1
            if handshake_class is HandshakeClass.MULTI_RTT:
                fig5_tls.append(tls_total)
                fig5_total.append(total)
                fig5_limit.append(analysis_limit)
                if tls_total > analysis_limit:
                    fig5_exceeds += 1
                if overhead > fig5_overhead_max:
                    fig5_overhead_max = overhead

        # Stage 3 fold — certificates over QUIC vs HTTPS.
        quic_certificate_count += 1
        https_chain = chains_by_requested.get(lowered)
        if https_chain is not None:
            comparison_total += 1
            if https_chain == quic_chain or digest_of(https_chain) == digest_of(quic_chain):
                comparison_identical += 1

        # Stage 4 fold — compression support and wild rates.  Each profile's
        # supported algorithms are resolved to their rate arrays once (keyed
        # by identity: profiles are the repro.quic.profiles singletons); the
        # per-algorithm support counts fall out as the array lengths.
        supported_rows = supported_by_profile.get(id(profile))
        if supported_rows is None:
            supported_rows = tuple(
                (algorithm, wild_rates[algorithm])
                for algorithm in ALL_ALGORITHMS
                if algorithm in profile.compression_algorithms
            )
            supported_by_profile[id(profile)] = supported_rows
        wild_count += 1
        if len(supported_rows) == 3:
            wild_all_three += 1
        if supported_rows:
            uncompressed = columns.payload_len(quic_chain)
            deflate_len = deflate_lens[quic_chain] or columns.deflate_len(quic_chain)
            for algorithm, rates in supported_rows:
                compressed = compressed_size_for_deflate(algorithm, deflate_len)
                rates.append(1.0 - compressed / uncompressed)

    # Stage 2b — the sampled Initial-size sweep (kept as real observations;
    # the sample is small and the reducer re-interleaves them size-major).
    sweep_targets: Tuple[ScanTarget, ...] = ()
    if task.run_sweep and task.sweep_local_selection is not None:
        offset, stride = task.sweep_local_selection
        sweep_targets = tuple(
            target
            for position, target in enumerate(targets)
            if (offset + position) % stride == 0
        )
    sweep_observations: Tuple[HandshakeObservation, ...] = ()
    if sweep_targets:
        collected_sweep: List[HandshakeObservation] = []
        for initial_size in task.sweep_initial_sizes:
            for domain, rank, provider in sweep_targets:
                host = hosts.get(domain.lower())
                if host is None or not _accepts_initial(encapsulations[host], initial_size):
                    collected_sweep.append(
                        HandshakeObservation(
                            domain=domain, rank=rank, provider=provider,
                            initial_size=initial_size, reachable=False,
                        )
                    )
                    continue
                quic_chain = quic_slots[host]
                handshake_class, first, total, tls_total, overhead, round_trips = _measure(
                    domain,
                    behaviors[host],
                    columns,
                    quic_chain,
                    (),  # the sweep scans without an RFC 8879 offer
                    initial_size,
                    cache,
                )
                collected_sweep.append(
                    HandshakeObservation(
                        domain=domain,
                        rank=rank,
                        provider=provider,
                        initial_size=initial_size,
                        reachable=True,
                        handshake_class=handshake_class,
                        first_rtt_bytes=first,
                        total_bytes=total,
                        tls_payload_bytes=tls_total,
                        quic_overhead_bytes=overhead,
                        round_trips=round_trips,
                        chain_size=columns.total_size(quic_chain),
                    )
                )
        sweep_observations = tuple(collected_sweep)

    # Ground-truth (population) reductions, deduplicated per chain shape.
    # Full chains never repeat (every leaf names its domain), so the dedup
    # lever is the shared shape: a ChainShape carries every leaf-independent
    # fact, the category passes below fold only the per-leaf contributions
    # (the leaf's field-size row) in deployment order (order-critical series
    # stay in order) and count each shape's multiplicities, and the flush
    # after the passes scales each shape by them.  Equality with the object
    # path's per-certificate folds is pinned per artefact by the differential
    # and property suites (tests/test_columnar_scan.py, tests/test_properties.py).
    delivered: Dict[ChainShape, int] = {}    # delivered chains (Fig. 2b)
    quic_small: Dict[ChainShape, int] = {}   # QUIC chains of size <= threshold (Fig. 8)
    quic_large: Dict[ChainShape, int] = {}   # QUIC chains above the threshold
    https_counts: Dict[ChainShape, int] = {}  # HTTPS-only delivered chains (Table 2)

    field_size_counts: Dict[str, Dict[int, int]] = {
        name: {} for name in figure02b.FIELD_NAMES
    }
    subject_counts = field_size_counts["Subject"]
    issuer_counts = field_size_counts["Issuer"]
    spki_counts = field_size_counts["PublicKeyInfo"]
    ext_counts = field_size_counts["Extensions"]
    sig_counts = field_size_counts["Signature"]
    certificate_count = 0

    quic_chain_size_counts: Dict[int, int] = {}
    https_chain_size_counts: Dict[int, int] = {}
    parent_chain_groups: Dict[str, Dict[Tuple[str, ...], figure07.ParentChainStats]] = {
        "QUIC": {},
        "HTTPS-only": {},
    }
    quic_groups = parent_chain_groups["QUIC"]
    https_groups = parent_chain_groups["HTTPS-only"]
    quic_group_total = https_group_total = 0
    field_sums, field_counts = figure08.empty_field_sums()
    chain_size_threshold = figure08.CHAIN_SIZE_THRESHOLD
    small_leaf_acc = [0] * 7
    large_leaf_acc = [0] * 7
    small_leaf_n = large_leaf_n = 0
    key_alg_counters: Dict[Tuple[str, str, object], int] = {}
    key_alg_totals: Dict[Tuple[str, str], int] = {}
    quic_leaf_algs: Dict[KeyAlgorithm, int] = {}
    https_leaf_algs: Dict[KeyAlgorithm, int] = {}
    synth_rates = array("d")
    synth_below_uncompressed = synth_below_compressed = synth_count = 0
    fig14_leaf_sizes = array("q")
    fig14_san_shares = array("d")
    synth_algorithm = spec.compression_algorithm
    synth_limit = spec.limit_bytes
    base_offset = task.start

    for position, row in enumerate(quic_rows):
        chain = quic_slots[row]
        if chain is None:
            chain = https_slots[row]
            if chain is None:
                continue
        shape = shapes[chain]
        base = 7 * chain
        subject, issuer, spki, extensions, signature, other, leaf_size = field_rows[
            base : base + 7
        ]
        # Figure 2(b): the unique leaf now, the shared parents in the flush.
        subject_counts[subject] = subject_counts.get(subject, 0) + 1
        issuer_counts[issuer] = issuer_counts.get(issuer, 0) + 1
        spki_counts[spki] = spki_counts.get(spki, 0) + 1
        ext_counts[extensions] = ext_counts.get(extensions, 0) + 1
        sig_counts[signature] = sig_counts.get(signature, 0) + 1
        certificate_count += 1
        delivered[shape] = delivered.get(shape, 0) + 1
        total_size = shape.parent_total + leaf_size
        quic_chain_size_counts[total_size] = (
            quic_chain_size_counts.get(total_size, 0) + 1
        )
        # Figure 8 / Table 2, leaf halves (parents are scaled in the flush).
        if total_size > chain_size_threshold:
            quic_large[shape] = quic_large.get(shape, 0) + 1
            acc = large_leaf_acc
            large_leaf_n += 1
        else:
            quic_small[shape] = quic_small.get(shape, 0) + 1
            acc = small_leaf_acc
            small_leaf_n += 1
        acc[0] += subject
        acc[1] += issuer
        acc[2] += spki
        acc[3] += extensions
        acc[4] += signature
        acc[5] += other
        acc[6] += leaf_size
        # Figure 7: the shape's group (None: not correctly ordered).
        group_key = shape.group_key
        if group_key is not None:
            quic_group_total += 1
            figure07.fold_group_member(
                quic_groups, group_key, leaf_size, base_offset + position,
                shape.parent_sizes,
            )
        # Synthetic compression: ratio and both limit checks only need the
        # payload and DEFLATE lengths (one zlib pass per chain at most).
        uncompressed = shape.payload_base + leaf_size
        compressed = compressed_size_for_deflate(
            synth_algorithm, deflate_lens[chain] or columns.deflate_len(chain)
        )
        synth_rates.append(
            0.0 if uncompressed == 0 else 1.0 - compressed / uncompressed
        )
        synth_count += 1
        if uncompressed <= synth_limit:
            synth_below_uncompressed += 1
        if compressed <= synth_limit:
            synth_below_compressed += 1
        fig14_leaf_sizes.append(leaf_size)
        fig14_san_shares.append(san_shares[chain])

    for position, row in enumerate(https_rows):
        https_chain = https_slots[row]
        chain = quic_slots[row]
        if chain is None:
            chain = https_chain
        total_size = None
        if chain is not None:
            shape = shapes[chain]
            base = 7 * chain
            subject, issuer, spki, extensions, signature, _, leaf_size = field_rows[
                base : base + 7
            ]
            subject_counts[subject] = subject_counts.get(subject, 0) + 1
            issuer_counts[issuer] = issuer_counts.get(issuer, 0) + 1
            spki_counts[spki] = spki_counts.get(spki, 0) + 1
            ext_counts[extensions] = ext_counts.get(extensions, 0) + 1
            sig_counts[signature] = sig_counts.get(signature, 0) + 1
            certificate_count += 1
            delivered[shape] = delivered.get(shape, 0) + 1
            https_counts[shape] = https_counts.get(shape, 0) + 1
            total_size = shape.parent_total + leaf_size
            group_key = shape.group_key
            if group_key is not None:
                https_group_total += 1
                figure07.fold_group_member(
                    https_groups, group_key, leaf_size, base_offset + position,
                    shape.parent_sizes,
                )
        if https_chain is not None:
            size = total_size if https_chain == chain else columns.total_size(https_chain)
            https_chain_size_counts[size] = https_chain_size_counts.get(size, 0) + 1

    # Deployments outside the two analysed categories normally deliver no
    # chain; when a hand-built population does, Figure 2(b) still counts it.
    for row in other_rows:
        chain = quic_slots[row]
        if chain is None:
            chain = https_slots[row]
        base = 7 * chain
        subject_counts[field_rows[base]] = subject_counts.get(field_rows[base], 0) + 1
        issuer_counts[field_rows[base + 1]] = issuer_counts.get(field_rows[base + 1], 0) + 1
        spki_counts[field_rows[base + 2]] = spki_counts.get(field_rows[base + 2], 0) + 1
        ext_counts[field_rows[base + 3]] = ext_counts.get(field_rows[base + 3], 0) + 1
        sig_counts[field_rows[base + 4]] = sig_counts.get(field_rows[base + 4], 0) + 1
        certificate_count += 1
        shape = shapes[chain]
        delivered[shape] = delivered.get(shape, 0) + 1

    # The flush: every leaf-independent contribution, scaled by multiplicity
    # (leaf key algorithms are shape constants too, counted in first-seen
    # order per category).
    for shape, count_delivered in delivered.items():
        row_counts = shape.row_counts
        certificate_count += figure02b.accumulate_row_counts(
            ((row, count * count_delivered) for row, count in row_counts.items()),
            field_size_counts,
        )
        small = quic_small.get(shape, 0)
        if small:
            for row, count in row_counts.items():
                figure08.accumulate_row_sums(
                    "<=4000, Non-leaf", row, count * small, field_sums, field_counts,
                )
        large = quic_large.get(shape, 0)
        if large:
            for row, count in row_counts.items():
                figure08.accumulate_row_sums(
                    ">4000, Non-leaf", row, count * large, field_sums, field_counts,
                )
        if small + large:
            algorithm = shape.leaf_algorithm
            quic_leaf_algs[algorithm] = quic_leaf_algs.get(algorithm, 0) + small + large
            table02.accumulate_algorithm_counts(
                "QUIC", "Non-leaf", shape.alg_counts, small + large,
                key_alg_counters, key_alg_totals,
            )
        https_count = https_counts.get(shape, 0)
        if https_count:
            table02.accumulate_algorithm_counts(
                "HTTPS-only", "Non-leaf", shape.alg_counts, https_count,
                key_alg_counters, key_alg_totals,
            )
    for shape, https_count in https_counts.items():
        algorithm = shape.leaf_algorithm
        https_leaf_algs[algorithm] = https_leaf_algs.get(algorithm, 0) + https_count
    for label, acc, leaves in (
        ("<=4000, Leaf", small_leaf_acc, small_leaf_n),
        (">4000, Leaf", large_leaf_acc, large_leaf_n),
    ):
        if leaves:
            group_sums = field_sums[label]
            for key, value in zip(figure08.FIELD_SUM_KEYS, acc):
                group_sums[key] += value
            field_counts[label] += leaves
    table02.accumulate_algorithm_counts(
        "QUIC", "Leaf", quic_leaf_algs, 1, key_alg_counters, key_alg_totals
    )
    table02.accumulate_algorithm_counts(
        "HTTPS-only", "Leaf", https_leaf_algs, 1, key_alg_counters, key_alg_totals
    )

    parent_chain_totals = {
        "QUIC": quic_group_total,
        "HTTPS-only": https_group_total,
    }

    # Stage 5 inputs: only the capped spoof-target candidates become objects.
    chosen = select_per_provider(
        [providers[row] for row in quic_rows],
        spec.spoof_limit_per_provider,
        spec.spoof_providers,
    )
    spoof_candidates = tuple(columns.deployment(quic_rows[index]) for index in chosen)
    start_rank, category_codes = figure12.encode_category_columns(
        ranks, categories, task.start + 1
    )

    return ShardSummary(
        index=task.index,
        scenario_fingerprint=task.scenario_fingerprint(),
        deployment_count=len(domains),
        quic_count=len(quic_rows),
        https_only_count=len(https_rows),
        funnel_counts=funnel_counts,
        chain_digests=chain_digests,
        handshake_total=len(targets),
        reachable_count=reachable,
        class_counts=class_counts,
        amp_factor_counts=amp_factor_counts,
        fig13_ranks=fig13_ranks,
        fig13_classes=bytes(fig13_classes),
        fig5_tls=fig5_tls,
        fig5_total=fig5_total,
        fig5_limit=fig5_limit,
        fig5_exceeds=fig5_exceeds,
        fig5_overhead_max=fig5_overhead_max,
        sweep_observations=sweep_observations,
        quic_certificate_count=quic_certificate_count,
        comparison_total=comparison_total,
        comparison_identical=comparison_identical,
        wild_count=wild_count,
        wild_all_three=wild_all_three,
        wild_support_counts={
            algorithm: len(rates) for algorithm, rates in wild_rates.items()
        },
        wild_rates=wild_rates,
        start_rank=start_rank,
        category_codes=category_codes,
        field_size_counts=field_size_counts,
        certificate_count=certificate_count,
        quic_chain_size_counts=quic_chain_size_counts,
        https_chain_size_counts=https_chain_size_counts,
        parent_chain_groups=parent_chain_groups,
        parent_chain_totals=parent_chain_totals,
        field_sums=field_sums,
        field_counts=field_counts,
        key_alg_counters=key_alg_counters,
        key_alg_totals=key_alg_totals,
        synth_rates=synth_rates,
        synth_below_uncompressed=synth_below_uncompressed,
        synth_below_compressed=synth_below_compressed,
        synth_count=synth_count,
        fig14_leaf_sizes=fig14_leaf_sizes,
        fig14_san_shares=fig14_san_shares,
        spoof_candidates=spoof_candidates,
        flight_cache=cache.cache_info(),
    )
