"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.analysis.cdf import EmpiricalCdf
from repro.asn1 import decode_integer, decode_length, decode_oid, decode_tlv, encode_integer, encode_length, encode_oid
from repro.core.amplification import summarize_amplification
from repro.core.classification import classify_flight
from repro.core.guidance import InitialSizeCache
from repro.core.limits import MIN_INITIAL_SIZE, amplification_limit
from repro.quic.anti_amplification import AmplificationTracker
from repro.quic.connection_id import ConnectionId
from repro.quic.frames import CryptoFrame, PaddingFrame, split_crypto_stream
from repro.quic.packet import InitialPacket
from repro.quic.varint import decode_varint, encode_varint, varint_size
from repro.quic.coalescing import split_into_datagrams
from repro.quic.handshake import HandshakeClass


# ---------------------------------------------------------------------------
# Encoding round-trips
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**62 - 1))
def test_varint_roundtrip(value):
    encoded = encode_varint(value)
    decoded, consumed = decode_varint(encoded)
    assert decoded == value
    assert consumed == len(encoded) == varint_size(value)


@given(st.integers(min_value=0, max_value=2**62 - 1))
def test_varint_encoding_is_minimal_and_ordered_by_size(value):
    # A longer encoding never encodes a smaller range.
    size = varint_size(value)
    assert size in (1, 2, 4, 8)
    if size > 1:
        assert value >= {2: 1 << 6, 4: 1 << 14, 8: 1 << 30}[size]


@given(st.integers(min_value=-(2**256), max_value=2**256))
def test_der_integer_roundtrip(value):
    tag, content, consumed = decode_tlv(encode_integer(value))
    assert decode_integer(content) == value
    assert consumed == len(encode_integer(value))


@given(st.integers(min_value=0, max_value=2**31))
def test_der_length_roundtrip(length):
    encoded = encode_length(length)
    decoded, offset = decode_length(encoded, 0)
    assert decoded == length and offset == len(encoded)


@given(
    st.lists(st.integers(min_value=0, max_value=2**28), min_size=0, max_size=8).map(
        lambda arcs: "1.3." + ".".join(str(a) for a in arcs) if arcs else "1.3"
    )
)
def test_oid_roundtrip(dotted):
    _, content, _ = decode_tlv(encode_oid(dotted))
    assert decode_oid(content) == dotted


# ---------------------------------------------------------------------------
# QUIC invariants
# ---------------------------------------------------------------------------

@given(st.binary(min_size=0, max_size=6000), st.integers(min_value=1, max_value=1500))
def test_split_crypto_stream_is_lossless_and_contiguous(data, chunk_size):
    frames = split_crypto_stream(data, chunk_size)
    assert b"".join(f.data for f in frames) == data
    offset = 0
    for frame in frames:
        assert frame.offset == offset
        offset = frame.end_offset


@given(st.integers(min_value=1200, max_value=1472), st.binary(min_size=1, max_size=900))
def test_initial_padding_reaches_exact_target(target, payload):
    packet = InitialPacket(
        ConnectionId.generate("d", 8), ConnectionId.generate("s", 8), 0,
        (CryptoFrame(0, payload),),
    )
    padded = packet.with_padding_to(target)
    assert padded.size == max(target, packet.size)
    assert len(padded.encode()) == padded.size


@given(st.lists(st.integers(min_value=1, max_value=1300), min_size=1, max_size=25), st.booleans())
def test_datagram_splitting_preserves_bytes_and_respects_mtu(sizes, coalesce_enabled):
    packets = [
        InitialPacket(
            ConnectionId.generate("d", 8), ConnectionId.generate("s", 8), i,
            (CryptoFrame(0, bytes(size)),),
        )
        for i, size in enumerate(sizes)
    ]
    datagrams = split_into_datagrams(packets, mtu=1472, coalescing_enabled=coalesce_enabled)
    assert sum(d.size for d in datagrams) == sum(p.size for p in packets)
    assert all(d.size <= 1472 for d in datagrams)
    if not coalesce_enabled:
        assert len(datagrams) == len(packets)


@given(
    st.lists(
        st.tuples(st.sampled_from(["recv", "send"]), st.integers(min_value=0, max_value=5000)),
        max_size=60,
    )
)
def test_amplification_tracker_never_exceeds_limit_when_respected(events):
    """A sender that only sends what ``can_send`` allows never violates the limit."""
    tracker = AmplificationTracker()
    for kind, size in events:
        if kind == "recv":
            tracker.on_datagram_received(size)
        else:
            if tracker.can_send(size):
                tracker.on_datagram_sent(size)
    assert not tracker.violates_rfc_limit
    assert tracker.bytes_sent <= tracker.limit


@given(st.integers(min_value=1200, max_value=1472), st.integers(min_value=0, max_value=60000),
       st.integers(min_value=1, max_value=4), st.booleans())
def test_classification_is_total_and_consistent(initial, server_bytes, rtts, retry):
    handshake_class = classify_flight(initial, server_bytes, rtts, retry)
    assert isinstance(handshake_class, HandshakeClass)
    if retry:
        assert handshake_class is HandshakeClass.RETRY
    elif rtts == 1 and server_bytes <= amplification_limit(initial):
        assert handshake_class is HandshakeClass.ONE_RTT


# ---------------------------------------------------------------------------
# Analysis invariants
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=300))
def test_cdf_is_monotone_and_bounded(values):
    cdf = EmpiricalCdf.from_values(values)
    assert cdf.probability_at(min(values) - 1) == 0.0
    assert cdf.probability_at(max(values)) == 1.0
    points = cdf.points(max_points=50)
    ys = [y for _, y in points]
    assert all(0 < y <= 1 for y in ys)
    assert ys == sorted(ys)
    assert min(values) <= cdf.median <= max(values)


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=200))
def test_amplification_summary_ordering(factors):
    report = summarize_amplification(factors)
    assert report.minimum <= report.median <= report.p90 <= report.p99 <= report.maximum
    assert 0.0 <= report.share_exceeding_limit <= 1.0
    assert report.count == len(factors)


@given(st.integers(min_value=0, max_value=40000), st.booleans())
def test_initial_size_cache_suggestions_are_valid(flight_bytes, achieved):
    cache = InitialSizeCache()
    entry = cache.record_handshake("server.example", flight_bytes, achieved)
    assert MIN_INITIAL_SIZE <= entry.suggested_initial_size <= 1472
    # The suggestion, if it fits below the MTU, gives the server enough budget.
    if entry.suggested_initial_size < 1472:
        assert 3 * entry.suggested_initial_size >= min(flight_bytes, 3 * 1472)


# ---------------------------------------------------------------------------
# Streaming reduction invariants
# ---------------------------------------------------------------------------

from functools import lru_cache

from repro.scanners.sharding import ShardTask, plan_shards, scan_shard
from repro.scanners.streaming import CampaignReducer, ReductionSpec, summarize_shard
from repro.webpki.population import PopulationConfig

_REDUCTION_SPEC = ReductionSpec(spoof_limit_per_provider=5)
_REDUCTION_SWEEP_SIZES = (1200, 1350, 1472)


@lru_cache(maxsize=1)
def _shard_summaries():
    """Six real shard summaries of a small campaign, computed once."""
    config = PopulationConfig(size=384, seed=13)
    summaries = []
    offset = 0
    for spec in plan_shards(config.size, 64):
        task = ShardTask(
            index=spec.index,
            population_config=config,
            start=spec.start,
            stop=spec.stop,
            run_sweep=True,
            sweep_local_selection=(offset, 7),
            sweep_initial_sizes=_REDUCTION_SWEEP_SIZES,
        )
        deployments = tuple(task.resolve_deployments())
        offset += sum(1 for d in deployments if d.category.value == "quic")
        scan = scan_shard(task, deployments=deployments)
        summaries.append(summarize_shard(task, deployments, scan, _REDUCTION_SPEC))
    return tuple(summaries)


def _fresh_reducer():
    return CampaignReducer(
        spec=_REDUCTION_SPEC, run_sweep=True, sweep_initial_sizes=_REDUCTION_SWEEP_SIZES
    )


@lru_cache(maxsize=1)
def _reference_reduction():
    reducer = _fresh_reducer()
    for summary in _shard_summaries():
        reducer.add(summary)
    return reducer.reduced_scan()


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(6)))
def test_campaign_reduction_is_shard_order_insensitive(order):
    """Adding shard summaries in any order yields the identical reduction."""
    summaries = _shard_summaries()
    reducer = _fresh_reducer()
    for index in order:
        reducer.add(summaries[index])
    reduced = reducer.reduced_scan()
    reference = _reference_reduction()
    assert reduced == reference
    assert reduced.flight_cache == reference.flight_cache


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), max_size=5, unique=True),
    st.permutations(range(6)),
)
def test_campaign_reduction_merge_is_associative(cuts, order):
    """Partitioning shards into sub-reducers and merging them in any order
    equals reducing everything in one go (merge is associative and
    commutative), flight-cache counters included."""
    summaries = _shard_summaries()
    boundaries = [0] + sorted(cuts) + [6]
    groups = [
        [order[i] for i in range(start, stop)]
        for start, stop in zip(boundaries, boundaries[1:])
        if stop > start
    ]
    partial_reducers = []
    for group in groups:
        partial = _fresh_reducer()
        for index in group:
            partial.add(summaries[index])
        partial_reducers.append(partial)
    combined = partial_reducers[0]
    for partial in partial_reducers[1:]:
        combined.merge(partial)
    assert combined.reduced_scan() == _reference_reduction()


def test_campaign_reduction_rejects_duplicate_shards():
    import pytest

    summaries = _shard_summaries()
    reducer = _fresh_reducer()
    reducer.add(summaries[0])
    with pytest.raises(ValueError):
        reducer.add(summaries[0])


# ---------------------------------------------------------------------------
# Columnar scan kernel vs the object wire model
# ---------------------------------------------------------------------------
#
# The columnar backend (repro.scanners.columnar) re-derives every handshake
# observable as batch arithmetic instead of building packet/frame objects.
# These properties pin that arithmetic to the object model it mirrors, for
# randomized single-deployment inputs and for degenerate whole shards.

from dataclasses import replace

import pytest

from repro.quic.client import QuicClientConfig
from repro.quic.connection_id import ConnectionId
from repro.quic.frames import PaddingFrame
from repro.quic.handshake import simulate_handshake
from repro.quic.packet import HandshakePacket, InitialPacket
from repro.quic.profiles import BUILTIN_PROFILES
from repro.quic.server import FlightPlanCache
from repro.scanners import columnar
from repro.scanners.columnar import summarize_shard_columnar
from repro.scanners.shard_columns import lower_deployments
from repro.tls.cert_compression import (
    CertificateCompressionAlgorithm,
    chain_payload,
    compressed_size_for_deflate,
    deflate_size,
)
from repro.netsim.dns import DnsRcode
from repro.webpki.deployment import DomainDeployment, ServiceCategory
from repro.webpki.population import generate_population
from repro.x509.ca import default_hierarchy

_CA_LABELS = tuple(sorted(default_hierarchy().profiles))
_SERVER_PROFILES = tuple(sorted(BUILTIN_PROFILES))
_COMPRESSION_ALGORITHMS = tuple(CertificateCompressionAlgorithm)


@lru_cache(maxsize=None)
def _issued_chain(ca_label, domain):
    return default_hierarchy().profiles[ca_label].issue(domain)


@settings(max_examples=200, deadline=None)
@given(
    payload=st.integers(min_value=1, max_value=4000),
    packet_number=st.integers(min_value=0, max_value=(1 << 30)),
)
def test_columnar_packet_arithmetic_matches_packet_objects(payload, packet_number):
    """_pn_len/_packet_size reproduce QuicPacket.size exactly — packet-number
    width and the varint width of the length field included."""
    client_cid = ConnectionId.generate("client")
    server_cid = ConnectionId.generate("server")
    frames = (PaddingFrame(payload),)
    pn_len = columnar._pn_len(packet_number)
    handshake = HandshakePacket(client_cid, server_cid, packet_number, frames)
    assert pn_len == handshake.packet_number_length
    assert (
        columnar._packet_size(columnar._HANDSHAKE_BASE, payload, pn_len)
        == handshake.size
    )
    initial = InitialPacket(client_cid, server_cid, packet_number, frames)
    assert (
        columnar._packet_size(columnar._INITIAL_BASE, payload, pn_len)
        == initial.size
    )


def _chain_columns(chain, domain):
    """A one-deployment column record whose only chain (index 0) is ``chain``."""
    return lower_deployments(
        [
            DomainDeployment(
                domain=domain,
                rank=1,
                category=ServiceCategory.QUIC,
                dns_rcode=DnsRcode.NOERROR,
                https_chain=chain,
                quic_chain=chain,
            )
        ]
    )


@settings(max_examples=25, deadline=None)
@given(
    ca=st.sampled_from(_CA_LABELS),
    algorithm=st.sampled_from(_COMPRESSION_ALGORITHMS),
)
def test_chain_columns_match_object_payload_sizes(ca, algorithm):
    """The column record's payload/deflate lengths equal the real encoded
    payload — measured through the chain's memo (a lowered chain) and from
    the record's own payload bytes (a chain read from the store) — and the
    split compression helpers equal CertificateCompressionAlgorithm's own
    compressed_size."""
    chain = _issued_chain(ca, "columns.example")
    columns = _chain_columns(chain, "columns.example")
    payload = chain_payload(cert.der for cert in chain.certificates)
    assert columns.payload(0) == payload
    assert columns.payload_len(0) == len(payload)
    assert columns.total_size(0) == chain.total_size
    assert columns.deflate_len(0) == deflate_size(payload)
    stored = _chain_columns(chain, "columns.example")
    stored.chains = None
    stored.deflate_lens[0] = 0
    assert stored.deflate_len(0) == deflate_size(payload)
    assert compressed_size_for_deflate(
        algorithm, columns.deflate_len(0)
    ) == algorithm.compressed_size(payload)


@settings(max_examples=80, deadline=None)
@given(
    ca=st.sampled_from(_CA_LABELS),
    server=st.sampled_from(_SERVER_PROFILES),
    initial_size=st.integers(min_value=1200, max_value=1472),
    offer=st.lists(
        st.sampled_from(_COMPRESSION_ALGORITHMS), unique=True, max_size=3
    ).map(tuple),
    domain=st.sampled_from(
        ("example.org", "cdn.a.test", "w" * 40 + ".retry-token-truncation.example")
    ),
)
def test_columnar_measure_matches_simulated_handshake(
    ca, server, initial_size, offer, domain
):
    """The fused _measure kernel equals a full object-model handshake for any
    (CA profile, server profile, Initial size, compression offer): class,
    first-RTT bytes, total bytes, TLS payload, QUIC overhead, round trips and
    the amplification ratio."""
    chain = _issued_chain(ca, domain)
    profile = BUILTIN_PROFILES[server]
    outcome = simulate_handshake(
        domain,
        chain,
        profile,
        QuicClientConfig(
            initial_datagram_size=initial_size, compression_algorithms=offer
        ),
    )
    trace = outcome.trace
    measured = columnar._measure(
        domain,
        profile,
        _chain_columns(chain, domain),
        0,
        offer,
        initial_size,
        FlightPlanCache(),
    )
    assert measured == (
        outcome.handshake_class,
        trace.server_bytes_first_rtt,
        trace.server_bytes_total,
        trace.tls_payload_bytes,
        trace.quic_overhead_bytes,
        trace.round_trips,
    )
    assert measured[1] / initial_size == trace.first_rtt_amplification


@lru_cache(maxsize=1)
def _edge_shard_deployments():
    deployments = tuple(
        generate_population(PopulationConfig(size=420, seed=23)).deployments
    )
    # One fingerprint per protocol across the whole shard: every chain slot
    # points at a single shared chain object, so the columnar dedup index
    # collapses the shard to (at most) two distinct shapes with maximal
    # multiplicity — the degenerate opposite of the natural population.
    quic_donor = next(d.quic_chain for d in deployments if d.quic_chain is not None)
    https_donor = next(d.https_chain for d in deployments if d.https_chain is not None)
    one_fingerprint = tuple(
        replace(
            d,
            quic_chain=quic_donor if d.quic_chain is not None else None,
            https_chain=https_donor if d.https_chain is not None else None,
        )
        for d in deployments[:64]
    )
    # Every provider unique: the per-provider spoof-candidate cap and the
    # multiplicity index both degenerate to count 1 everywhere.
    providers_distinct = tuple(
        replace(d, provider=f"provider-{index}" if d.provider else None)
        for index, d in enumerate(deployments[:64])
    )
    return {
        "empty": (),
        "single-domain": deployments[:1],
        "all-non-quic": tuple(
            d for d in deployments if d.category is not ServiceCategory.QUIC
        )[:64],
        "all-spoof-target": tuple(
            d for d in deployments if d.supports_quic and d.provider
        )[:64],
        "one-fingerprint": one_fingerprint,
        "providers-distinct": providers_distinct,
    }


@pytest.mark.parametrize(
    "case",
    [
        "empty",
        "single-domain",
        "all-non-quic",
        "all-spoof-target",
        "one-fingerprint",
        "providers-distinct",
    ],
)
def test_edge_shards_identical_under_both_backends(case):
    """Degenerate shards summarise identically under both backends."""
    deployments = _edge_shard_deployments()[case]
    task = ShardTask(
        index=0,
        start=0,
        stop=len(deployments),
        run_sweep=True,
        sweep_local_selection=(0, 5),
    )
    scan = scan_shard(task, deployments=deployments)
    expected = summarize_shard(task, deployments, scan, _REDUCTION_SPEC)
    columns = lower_deployments(deployments)
    assert summarize_shard_columnar(task, columns, _REDUCTION_SPEC) == expected


# ---------------------------------------------------------------------------
# The kernel's input: stored columns == lowered deployments == object oracle
# ---------------------------------------------------------------------------

from unittest import mock

from repro.scanners import skeleton_store
from repro.scanners.shard_columns import ShardColumns
from repro.webpki.population import SkeletonShard, deployments_for_range
from repro.webpki.skeleton import bloat_pool, materialize_skeletons


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=20, max_value=160),
    bloat=st.lists(
        st.integers(min_value=0, max_value=len(bloat_pool()) - 1), min_size=1, max_size=6
    ).map(tuple),
    trim=st.integers(min_value=1, max_value=4),
    every=st.integers(min_value=2, max_value=5),
    stamp_matches=st.booleans(),
)
def test_stored_columns_equal_lowered_deployments_and_object_oracle(
    seed, size, bloat, trim, every, stamp_matches
):
    """For a small population whose chain specs are bloated and trimmed, the
    kernel over a ``.skel`` payload's columns — stored DEFLATE lengths, or a
    zlib pass each when the stamp names another zlib — equals the kernel over
    the lowered deployments, and both equal the object oracle."""
    skeletons = deployments_for_range(
        PopulationConfig(size=size, seed=seed), 0, size, skeleton=True
    )
    edited = []
    for position, skeleton in enumerate(skeletons):
        changes = {}
        for field in ("https_spec", "quic_spec"):
            chain_spec = getattr(skeleton, field)
            if chain_spec is not None and position % every == 0:
                changes[field] = replace(chain_spec, bloat_extras=bloat)
            elif chain_spec is not None and position % every == 1:
                changes[field] = replace(chain_spec, trim_to=trim)
        edited.append(replace(skeleton, **changes))
    shard = SkeletonShard(index=0, start_rank=1, skeletons=tuple(edited))
    data = skeleton_store.encode_skeleton_file(shard)
    stamp = skeleton_store.DEFLATE_STAMP if stamp_matches else b"0.0.0-other"
    with mock.patch.object(skeleton_store, "DEFLATE_STAMP", stamp):
        record = skeleton_store.decode_skeleton_file(data)
    assert (record.deflate is not None) is stamp_matches
    stored = ShardColumns(record.deployment)
    record.extend_columns(stored, 0, record.length)

    deployments = tuple(materialize_skeletons(edited, default_hierarchy(), {}))
    task = ShardTask(
        index=0,
        start=0,
        stop=size,
        run_sweep=True,
        sweep_local_selection=(0, 3),
        sweep_initial_sizes=_REDUCTION_SWEEP_SIZES,
    )
    expected = summarize_shard(
        task, deployments, scan_shard(task, deployments=deployments), _REDUCTION_SPEC
    )
    lowered = lower_deployments(deployments)
    assert summarize_shard_columnar(task, lowered, _REDUCTION_SPEC) == expected
    assert summarize_shard_columnar(task, stored, _REDUCTION_SPEC) == expected
