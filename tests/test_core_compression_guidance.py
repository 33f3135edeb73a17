"""Unit tests for the compression study and the §5 Initial-size cache."""

import pytest

from repro.core import InitialSizeCache, run_compression_study
from repro.core.limits import LARGER_COMMON_LIMIT, MIN_INITIAL_SIZE


class TestCompressionStudy:
    def test_empty_input(self):
        result = run_compression_study([])
        assert result.chain_count == 0
        assert result.median_compression_rate == 0.0

    def test_study_over_population_matches_paper(self, small_population):
        chains = [
            d.delivered_chain for d in small_population.quic_services() if d.delivered_chain
        ][:250]
        result = run_compression_study(chains)
        # Paper: ≈65 % median rate, ≈99 % of chains below the limit once compressed.
        assert 0.55 <= result.median_compression_rate <= 0.8
        assert result.share_below_limit_compressed >= 0.97
        assert result.share_below_limit_compressed >= result.share_below_limit_uncompressed
        assert result.limit_bytes == LARGER_COMMON_LIMIT


class TestInitialSizeCache:
    def test_default_for_unknown_server(self):
        cache = InitialSizeCache(default_initial_size=1250)
        assert cache.initial_size_for("unknown.example") == 1250

    def test_record_handshake_suggests_fitting_initial(self):
        cache = InitialSizeCache(default_initial_size=1250)
        entry = cache.record_handshake("big.example", server_first_flight_bytes=4300, achieved_one_rtt=False)
        assert entry.suggested_initial_size >= 4300 / 3
        assert cache.initial_size_for("big.example") == entry.suggested_initial_size

    def test_suggestion_respects_minimum_and_mtu(self):
        cache = InitialSizeCache(default_initial_size=1250)
        small = cache.record_handshake("tiny.example", 900, achieved_one_rtt=True)
        assert small.suggested_initial_size >= MIN_INITIAL_SIZE
        huge = cache.record_handshake("huge.example", 30_000, achieved_one_rtt=False)
        assert huge.suggested_initial_size <= 1472

    def test_invalid_defaults_rejected(self):
        with pytest.raises(ValueError):
            InitialSizeCache(default_initial_size=1000)
        cache = InitialSizeCache()
        with pytest.raises(ValueError):
            cache.record_handshake("x.example", -1, True)
