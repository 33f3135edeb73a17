"""Unit tests for the anti-amplification tracker."""

import pytest

from repro.quic import ANTI_AMPLIFICATION_FACTOR, AmplificationTracker


class TestCompliantAccounting:
    def test_limit_is_three_times_received(self):
        tracker = AmplificationTracker()
        tracker.on_datagram_received(1200)
        assert tracker.limit == 3600
        assert tracker.can_send(3600)
        assert not tracker.can_send(3601)

    def test_budget_decreases_with_sends(self):
        tracker = AmplificationTracker()
        tracker.on_datagram_received(1200)
        tracker.on_datagram_sent(1000)
        assert tracker.can_send(2600)
        assert not tracker.can_send(2601)

    def test_blocked_when_budget_exhausted(self):
        tracker = AmplificationTracker()
        tracker.on_datagram_received(1200)
        tracker.on_datagram_sent(3600)
        assert not tracker.can_send(1)

    def test_validation_lifts_the_limit(self):
        tracker = AmplificationTracker()
        tracker.on_datagram_received(1200)
        tracker.on_datagram_sent(3600)
        tracker.on_address_validated()
        assert tracker.can_send(10**6)

    def test_additional_receives_grow_budget(self):
        tracker = AmplificationTracker()
        tracker.on_datagram_received(1200)
        tracker.on_datagram_sent(3000)
        tracker.on_datagram_received(1200)
        assert tracker.can_send(2 * 3600 - 3000)
        assert not tracker.can_send(2 * 3600 - 3000 + 1)

    def test_negative_sizes_rejected(self):
        tracker = AmplificationTracker()
        with pytest.raises(ValueError):
            tracker.on_datagram_received(-1)
        with pytest.raises(ValueError):
            tracker.on_datagram_sent(-1)


class TestNonCompliantAccounting:
    def test_padding_exclusion_mimics_cloudflare(self):
        tracker = AmplificationTracker(exclude_padding=True)
        tracker.on_datagram_received(1200)
        tracker.on_datagram_sent(1200, padding_only=True)
        # The server's own accounting ignores the padded datagram...
        assert tracker.accounted_bytes_sent == 0
        assert tracker.can_send(3600)
        # ...but ground truth still sees the bytes.
        assert tracker.bytes_sent == 1200

    def test_ignore_limit_mimics_mvfst(self):
        tracker = AmplificationTracker(ignore_limit=True)
        tracker.on_datagram_received(1200)
        for _ in range(10):
            tracker.on_datagram_sent(3000)
        assert tracker.can_send(10**6)
        assert tracker.bytes_sent > ANTI_AMPLIFICATION_FACTOR * tracker.bytes_received

    def test_padding_exclusion_still_charges_ack_eliciting_datagrams(self):
        tracker = AmplificationTracker(exclude_padding=True)
        tracker.on_datagram_received(1200)
        tracker.on_datagram_sent(1200, padding_only=False)
        assert tracker.accounted_bytes_sent == 1200
        assert tracker.can_send(2400)
        assert not tracker.can_send(2401)

    def test_compliant_accounting_charges_padding_only_datagrams(self):
        tracker = AmplificationTracker()
        tracker.on_datagram_received(1200)
        tracker.on_datagram_sent(1200, padding_only=True)
        assert tracker.accounted_bytes_sent == 1200
        assert not tracker.can_send(2401)
