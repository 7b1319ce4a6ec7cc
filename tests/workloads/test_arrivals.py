"""Arrival processes: shapes, validation, and the determinism contract."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.workloads.arrivals import (DRAW_BATCH, Bursty, ClosedLoop,
                                      OpenLoop, client_rng, gap_stream)


def take(stream, n):
    return list(itertools.islice(stream, n))


def scalar_exponential_gaps(seed, client, mean, n):
    """The reference stream: one scalar draw per gap from ``client_rng``."""
    rng = client_rng(seed, client)
    return [max(1, round(rng.exponential(mean))) for _ in range(n)]


class TestSpecs:
    def test_open_loop_mean_gap(self):
        assert OpenLoop(rate_rps=1e6).mean_gap_ns == 1000.0

    def test_open_loop_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            OpenLoop(rate_rps=0)

    def test_closed_loop_rejects_negative_think(self):
        with pytest.raises(ValueError):
            ClosedLoop(think_ns=-1)

    def test_bursty_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            Bursty(rate_rps=1000.0, on_ns=0, off_ns=10)
        with pytest.raises(ValueError):
            Bursty(rate_rps=1000.0, on_ns=10, off_ns=-1)

    def test_gap_stream_rejects_non_spec(self):
        with pytest.raises(TypeError):
            gap_stream(object(), seed=1, client="c")


class TestDeterminism:
    def test_same_spec_seed_client_is_bit_identical(self):
        spec = OpenLoop(rate_rps=50_000.0)
        a = take(gap_stream(spec, seed=3, client="client1"), 200)
        b = take(gap_stream(spec, seed=3, client="client1"), 200)
        assert a == b

    def test_different_clients_draw_independent_streams(self):
        spec = OpenLoop(rate_rps=50_000.0)
        a = take(gap_stream(spec, seed=3, client="client1"), 50)
        b = take(gap_stream(spec, seed=3, client="client2"), 50)
        assert a != b

    def test_different_seeds_differ(self):
        spec = Bursty(rate_rps=50_000.0, on_ns=100_000, off_ns=50_000)
        a = take(gap_stream(spec, seed=1, client="c"), 50)
        b = take(gap_stream(spec, seed=2, client="c"), 50)
        assert a != b

    def test_client_rng_matches_faults_convention(self):
        # Same derivation as repro.faults: default_rng((seed, crc32(name))).
        import zlib
        ours = client_rng(9, "cl").integers(0, 1 << 30, 8)
        ref = np.random.default_rng(
            (9, zlib.crc32(b"cl"))).integers(0, 1 << 30, 8)
        assert list(ours) == list(ref)


class TestShapes:
    def test_fixed_interval_open_loop(self):
        gaps = take(gap_stream(OpenLoop(rate_rps=1e6, poisson=False),
                               seed=1, client="c"), 20)
        assert gaps == [1000] * 20

    def test_poisson_gaps_average_to_the_rate(self):
        spec = OpenLoop(rate_rps=100_000.0)  # mean gap 10_000 ns
        gaps = take(gap_stream(spec, seed=5, client="c"), 4000)
        assert all(g >= 1 for g in gaps)
        assert np.mean(gaps) == pytest.approx(10_000, rel=0.05)

    def test_fixed_think_time(self):
        gaps = take(gap_stream(ClosedLoop(think_ns=777), seed=1, client="c"), 10)
        assert gaps == [777] * 10

    def test_bursty_arrivals_land_inside_on_windows(self):
        spec = Bursty(rate_rps=200_000.0, on_ns=50_000, off_ns=150_000)
        period = spec.on_ns + spec.off_ns
        t = 0
        for gap in take(gap_stream(spec, seed=4, client="c"), 500):
            t += gap
            assert t % period < spec.on_ns, f"arrival at {t} is in an off-window"


class TestAggregateOpenLoop:
    """``OpenLoop(population=K)``: K open-loop clients as one stream."""

    def test_population_one_matches_plain_open_loop(self):
        # A 1-client aggregate is the same Poisson process: draw-for-draw
        # identical to OpenLoop at the same rate, seed and client name.
        plain = take(gap_stream(OpenLoop(rate_rps=50_000.0),
                                seed=3, client="c"), 300)
        aggregate = take(gap_stream(
            OpenLoop(rate_rps=50_000.0, population=1),
            seed=3, client="c"), 300)
        assert aggregate == plain

    def test_batch_size_never_changes_the_sequence(self):
        # Three NumPy batches and a part equal one scalar draw per gap.
        spec = OpenLoop(rate_rps=100.0, population=500)
        n = 3 * DRAW_BATCH + 7
        assert take(gap_stream(spec, seed=9, client="c"), n) == \
            scalar_exponential_gaps(9, "c", 1e9 / 50_000.0, n)

    def test_aggregate_rate_is_superposed(self):
        spec = OpenLoop(rate_rps=10.0, population=10_000)
        assert spec.mean_gap_ns == 1e9 / 100_000.0
        gaps = take(gap_stream(spec, seed=2, client="c"), 4000)
        assert all(g >= 1 for g in gaps)
        assert np.mean(gaps) == pytest.approx(spec.mean_gap_ns, rel=0.05)

    def test_fixed_rate_aggregate(self):
        spec = OpenLoop(rate_rps=1000.0, population=1000, poisson=False)
        assert take(gap_stream(spec, seed=1, client="c"), 20) == [1000] * 20

    def test_determinism(self):
        spec = OpenLoop(rate_rps=25.0, population=4000)
        a = take(gap_stream(spec, seed=6, client="client3"), 500)
        b = take(gap_stream(spec, seed=6, client="client3"), 500)
        assert a == b
        c = take(gap_stream(spec, seed=6, client="client4"), 500)
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenLoop(rate_rps=0.0, population=10)
        with pytest.raises(ValueError):
            OpenLoop(rate_rps=10.0, population=0)


class TestBatchedDraws:
    """Every exponential gap is drawn DRAW_BATCH per NumPy call; streams
    that cross three batch boundaries equal scalar draws from the same
    client RNG (the open-loop case is in TestAggregateOpenLoop)."""

    N = 3 * DRAW_BATCH + 7

    def test_bursty_gaps_defer_scalar_draws_past_the_off_window(self):
        spec = Bursty(rate_rps=200_000.0, on_ns=50_000, off_ns=150_000)
        rng = client_rng(4, "c")
        reference, at = [], 0
        while len(reference) < self.N:
            gap = max(1, round(rng.exponential(1e9 / spec.rate_rps)))
            if at + gap < spec.on_ns:
                at += gap
                reference.append(gap)
            else:
                reference.append(spec.on_ns - at + spec.off_ns)
                at = 0
        assert take(gap_stream(spec, seed=4, client="c"),
                    len(reference)) == reference
