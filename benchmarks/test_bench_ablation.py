"""Ablation benchmarks for the design choices the paper calls out.

Each ablation answers one "what would change if ..." question with the same
simulation machinery used for the main figures:

* packet coalescence on/off for an otherwise compliant server,
* counting padding against the limit (RFC) vs excluding it (CDN behaviour),
* bounding retransmissions to unvalidated clients vs not (the amplifier bug),
* certificate compression on/off for the dominant large-chain deployment.
"""

from dataclasses import replace

import pytest

from repro.quic import QuicClientConfig, simulate_handshake, simulate_unvalidated_probe
from repro.quic.profiles import CLOUDFLARE_LIKE, MVFST_LIKE, MVFST_PATCHED, RFC_COMPLIANT, CoalescenceMode
from repro.tls.cert_compression import CertificateCompressionAlgorithm
from repro.x509.ca import default_hierarchy

CLIENT = QuicClientConfig(initial_datagram_size=1362)
COMPRESSING_CLIENT = QuicClientConfig(
    initial_datagram_size=1362,
    compression_algorithms=(CertificateCompressionAlgorithm.BROTLI,),
)


@pytest.fixture(scope="module")
def borderline_chain():
    """A chain that fits in one RTT only when the server does not waste budget."""
    return default_hierarchy().profiles["DigiCert SHA2"].issue("ablation-coalesce.example")


@pytest.fixture(scope="module")
def large_chain():
    return default_hierarchy().profiles["Let's Encrypt R3 + cross-signed X1"].issue("ablation-large.example")


def test_bench_ablation_coalescence(benchmark, borderline_chain):
    """Coalescence on vs off: padding waste turns a 1-RTT setup into Multi-RTT."""
    no_coalescence = replace(RFC_COMPLIANT, name="no-coalescence", coalescence=CoalescenceMode.NONE)

    def run():
        with_coalescence = simulate_handshake("a.example", borderline_chain, RFC_COMPLIANT, CLIENT)
        without = simulate_handshake("a.example", borderline_chain, no_coalescence, CLIENT)
        return with_coalescence, without

    with_coalescence, without = benchmark(run)
    print()
    print(f"  coalescence on : {with_coalescence.handshake_class.value}, "
          f"{with_coalescence.trace.server_bytes_total} B")
    print(f"  coalescence off: {without.handshake_class.value}, "
          f"{without.trace.server_bytes_total} B "
          f"({without.trace.plan.padding_bytes_first_rtt} B padding)")
    assert with_coalescence.handshake_class.value == "1-RTT"
    assert without.trace.server_bytes_total >= with_coalescence.trace.server_bytes_total


def test_bench_ablation_padding_accounting(benchmark):
    """Excluding padding from the limit check produces >3x first flights."""
    honest = replace(CLOUDFLARE_LIKE, name="cdn-honest", count_padding_against_limit=True)
    cdn_chain = default_hierarchy().profiles["Cloudflare ECC CA-3"].issue("ablation-cdn.example")

    def run():
        cheating = simulate_handshake("a.example", cdn_chain, CLOUDFLARE_LIKE, CLIENT)
        compliant = simulate_handshake("a.example", cdn_chain, honest, CLIENT)
        return cheating, compliant

    cheating, compliant = benchmark(run)
    print()
    print(f"  padding excluded from check: {cheating.handshake_class.value} "
          f"({cheating.trace.first_rtt_amplification:.2f}x)")
    print(f"  padding counted (RFC):       {compliant.handshake_class.value} "
          f"({compliant.trace.first_rtt_amplification:.2f}x)")
    assert cheating.trace.first_rtt_amplification > 3.0
    assert compliant.trace.first_rtt_amplification <= 3.0


def test_bench_ablation_retransmission_bound(benchmark, large_chain):
    """Bounding retransmissions to unvalidated clients caps the amplifier."""

    def run():
        unbounded = simulate_unvalidated_probe("a.example", large_chain, MVFST_LIKE)
        bounded = simulate_unvalidated_probe("a.example", large_chain, MVFST_PATCHED)
        compliant = simulate_unvalidated_probe("a.example", large_chain, RFC_COMPLIANT)
        return unbounded, bounded, compliant

    unbounded, bounded, compliant = benchmark(run)
    print()
    print(f"  unbounded resends (mvfst-like): {unbounded.amplification_factor:5.1f}x")
    print(f"  single flight (patched):        {bounded.amplification_factor:5.1f}x")
    print(f"  limit enforced (RFC):           {compliant.amplification_factor:5.1f}x")
    assert unbounded.amplification_factor > 2 * bounded.amplification_factor
    assert compliant.amplification_factor <= 3.5


def test_bench_ablation_certificate_compression(benchmark, large_chain):
    """RFC 8879 turns the dominant large-chain deployment back into 1-RTT."""
    server = RFC_COMPLIANT  # supports brotli

    def run():
        plain = simulate_handshake("a.example", large_chain, server, CLIENT)
        compressed = simulate_handshake("a.example", large_chain, server, COMPRESSING_CLIENT)
        return plain, compressed

    plain, compressed = benchmark(run)
    print()
    print(f"  without compression: {plain.handshake_class.value}, {plain.trace.server_bytes_total} B")
    print(f"  with brotli:         {compressed.handshake_class.value}, {compressed.trace.server_bytes_total} B")
    assert plain.handshake_class.value == "Multi-RTT"
    assert compressed.handshake_class.value == "1-RTT"
    assert compressed.trace.server_bytes_total < plain.trace.server_bytes_total
