"""Unit tests for the lossy radio medium with ARQ."""

import numpy as np
import pytest

from repro.core.config import RadioConfig
from repro.sensors.radio import BASE_STATION_UID, Frame, RadioMedium


def medium(sim, loss=0.0, retries=3, seed=0):
    return RadioMedium(
        sim,
        RadioConfig(loss_probability=loss, max_retries=retries),
        np.random.default_rng(seed),
    )


def frame(seq=1, src=5):
    return Frame(src_uid=src, dst_uid=BASE_STATION_UID, kind="usage", sequence=seq)


class TestDelivery:
    def test_lossless_delivers_after_latency(self, sim):
        radio = medium(sim)
        received = []
        radio.attach(BASE_STATION_UID, received.append)
        radio.transmit(frame())
        assert received == []  # not before latency elapses
        sim.run()
        assert len(received) == 1
        assert sim.now == pytest.approx(RadioConfig().latency)

    def test_order_preserved_lossless(self, sim):
        radio = medium(sim)
        received = []
        radio.attach(BASE_STATION_UID, lambda f: received.append(f.sequence))
        for seq in range(5):
            radio.transmit(frame(seq))
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_unattached_destination_counts_delivered(self, sim):
        radio = medium(sim)
        radio.transmit(frame())
        sim.run()
        assert radio.stats.delivered == 1

    def test_duplicate_attach_rejected(self, sim):
        radio = medium(sim)
        radio.attach(1, lambda f: None)
        with pytest.raises(ValueError):
            radio.attach(1, lambda f: None)


class TestLoss:
    def test_total_loss_drops_after_retries(self, sim):
        radio = RadioMedium(
            sim,
            RadioConfig(loss_probability=0.99, max_retries=2),
            np.random.default_rng(0),
        )
        received = []
        radio.attach(BASE_STATION_UID, received.append)
        radio.transmit(frame())
        sim.run()
        assert received == []
        assert radio.stats.dropped == 1
        assert radio.stats.attempts == 3  # initial + 2 retries

    def test_retries_recover_moderate_loss(self, sim):
        radio = medium(sim, loss=0.3, retries=8, seed=1)
        received = []
        radio.attach(BASE_STATION_UID, received.append)
        for seq in range(200):
            radio.transmit(frame(seq))
        sim.run()
        # Per-attempt success is (1-0.3)^2 = 0.49; nine attempts leave
        # ~0.2% residual loss.
        assert radio.stats.delivery_ratio > 0.97

    def test_delivery_ratio_empty_is_one(self, sim):
        assert medium(sim).stats.delivery_ratio == 1.0

    def test_loss_statistics_accumulate(self, sim):
        radio = medium(sim, loss=0.5, retries=10, seed=2)
        radio.attach(BASE_STATION_UID, lambda f: None)
        for seq in range(50):
            radio.transmit(frame(seq))
        sim.run()
        assert radio.stats.losses > 0
        assert radio.stats.retransmissions > 0
        assert radio.stats.attempts >= 50


class TestDuplicates:
    def test_lost_ack_causes_duplicate_delivery(self, sim):
        # Force the pattern: data survives, ack lost, retry delivers
        # again.  With loss=0.45 over many frames, duplicates appear.
        radio = medium(sim, loss=0.45, retries=6, seed=7)
        received = []
        radio.attach(BASE_STATION_UID, received.append)
        for seq in range(300):
            radio.transmit(frame(seq))
        sim.run()
        assert radio.stats.duplicates > 0
        assert len(received) == radio.stats.delivered
        assert radio.stats.delivered > 300  # some frames arrived twice

    def test_delivery_ratio_counts_unique_frames(self, sim):
        radio = medium(sim, loss=0.45, retries=8, seed=7)
        radio.attach(BASE_STATION_UID, lambda f: None)
        for seq in range(300):
            radio.transmit(frame(seq))
        sim.run()
        assert 0.0 < radio.stats.delivery_ratio <= 1.0
        unique = radio.stats.delivered - radio.stats.duplicates
        assert unique + radio.stats.dropped == 300

    def test_lossless_never_duplicates(self, sim):
        radio = medium(sim, loss=0.0)
        radio.attach(BASE_STATION_UID, lambda f: None)
        for seq in range(50):
            radio.transmit(frame(seq))
        sim.run()
        assert radio.stats.duplicates == 0


class TestDuplicateFilter:
    def test_fresh_then_duplicate(self):
        from repro.sensors.radio import DuplicateFilter

        dedupe = DuplicateFilter()
        assert dedupe.is_fresh(frame(1))
        assert not dedupe.is_fresh(frame(1))
        assert dedupe.duplicates_filtered == 1

    def test_sequences_tracked_per_sender_and_kind(self):
        from repro.sensors.radio import DuplicateFilter, Frame

        dedupe = DuplicateFilter()
        assert dedupe.is_fresh(frame(1, src=5))
        assert dedupe.is_fresh(frame(1, src=6))
        led = Frame(src_uid=5, dst_uid=1, kind="led", sequence=1)
        assert dedupe.is_fresh(led)

    def test_out_of_date_sequence_rejected(self):
        from repro.sensors.radio import DuplicateFilter

        dedupe = DuplicateFilter()
        assert dedupe.is_fresh(frame(3))
        assert not dedupe.is_fresh(frame(2))
