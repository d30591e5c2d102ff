"""The frame configurations, and the reference timelines built on them."""
from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest

from nrbeamsim.errors import ConfigurationError
from nrbeamsim.frame import (
    MAX_SS_BLOCKS_PER_BURST,
    NUMEROLOGIES,
    SS_BLOCK_SYMBOLS,
    SS_PERIODS_MS,
    CsiRsConfig,
    Numerology,
    SsBurstConfig,
    carrier_resource_blocks,
)
from reference import (
    EventKind,
    Timeline,
    build_csi_timeline,
    build_rach_timeline,
    build_ss_timeline,
    overhead,
    symbols_in_ms,
)


class TestNumerology:
    @pytest.mark.parametrize(
        "n,scs,slot",
        [(2, 60, 0.25), (3, 120, 0.125), (4, 240, 0.0625)],
    )
    def test_scs_and_slot(self, n, scs, slot):
        num = Numerology(n)
        assert num.scs_khz == scs
        assert num.slot_ms == slot
        assert num.symbol_us == pytest.approx(slot * 1000 / 14, rel=1e-12)

    def test_symbol_duration_at_120khz(self):
        # 0.125 ms / 14 symbols, frozen via exact rational arithmetic
        expect = float(Fraction(125, 14))
        assert Numerology(3).symbol_us == pytest.approx(expect, rel=1e-15)

    # 0 and 1, 15 and 30 kHz, serve carriers below 6 GHz, which the 28 GHz
    # channel fit does not describe
    @pytest.mark.parametrize("bad", [-1, 0, 1, 5, 7, 2.0, "3", None, True])
    def test_rejects_bad_index(self, bad):
        rule = "one of [2, 3, 4]" if type(bad) is int else "an integer"
        message = f"^{re.escape(f'numerology.n={bad!r}: must be {rule}')}$"
        with pytest.raises(ConfigurationError, match=message):
            Numerology(bad)

    def test_carrier_rb_400mhz(self):
        # floor(400e6 / (12 * scs)) per numerology
        assert carrier_resource_blocks(Numerology(3), 400e6) == 277
        assert carrier_resource_blocks(Numerology(2), 400e6) == 555

    @pytest.mark.parametrize("bandwidth_hz", [0.0, -1.0])
    def test_carrier_rb_rejects_nonpositive_bandwidth(self, bandwidth_hz):
        with pytest.raises(ConfigurationError, match="^bandwidth_hz=.*: must be positive$"):
            carrier_resource_blocks(Numerology(3), bandwidth_hz)

    def test_symbols_in_ms_exact(self):
        num = Numerology(3)
        assert symbols_in_ms(num, 20.0) == 2240
        assert symbols_in_ms(num, 0.625) == 70
        with pytest.raises(ConfigurationError):
            symbols_in_ms(num, 0.0001)


@pytest.mark.parametrize("value", [True, 8.0, 1.5, "8"])
@pytest.mark.parametrize(
    "cls, key",
    [
        (SsBurstConfig, "ss.n_ss"),
        (CsiRsConfig, "csi.t_csi_slots"),
        (CsiRsConfig, "csi.n_symbols"),
        (CsiRsConfig, "csi.bandwidth_rb"),
        (CsiRsConfig, "csi.delta_t_symbols"),
        (CsiRsConfig, "csi.delta_f_rb"),
    ],
)
def test_counts_must_be_integers(cls, key, value):
    # unchecked, True and 8.0 reached the report, which its own reader then
    # refused, and 1.5 failed inside numpy
    message = rf"^{re.escape(f'{key}={value!r}')}: must be an integer$"
    with pytest.raises(ConfigurationError, match=message):
        cls(**{key.partition(".")[2]: value})


class TestSsBurst:
    def test_valid_periods_only(self):
        SsBurstConfig(n_ss=8, t_ss_ms=20)
        with pytest.raises(ConfigurationError, match="t_ss_ms"):
            SsBurstConfig(n_ss=8, t_ss_ms=15)
        with pytest.raises(ConfigurationError, match="n_ss"):
            SsBurstConfig(n_ss=0, t_ss_ms=20)
        with pytest.raises(ConfigurationError, match="n_ss"):
            SsBurstConfig(n_ss=65, t_ss_ms=20)
        # each refusal shows the value as given: the string crashed the
        # message's {:g} format, and the near miss read as "=20"
        periods = list(SS_PERIODS_MS)
        for value, rule in [
            ("20", "a real number"),
            (True, "a real number"),
            (20.0000001, f"one of {periods}"),
            (math.nan, f"one of {periods}"),
        ]:
            message = re.escape(f"ss.t_ss_ms={value!r}: must be {rule}")
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                SsBurstConfig(t_ss_ms=value)

    @pytest.mark.parametrize("n", NUMEROLOGIES)
    def test_every_burst_fits_the_first_5_ms(self, n):
        # the longest burst, 64 blocks of 4 symbols, at the narrowest FR2
        # spacing spans 64 * 4 * 250/14 us, about 4.57 ms; nothing checks
        # the 5 ms window, because no valid scenario can leave it
        span_us = MAX_SS_BLOCKS_PER_BURST * SS_BLOCK_SYMBOLS * Numerology(n).symbol_us
        assert span_us <= 64 * 4 * float(Fraction(250, 14)) < 5000.0

    def test_full_burst_block_placement(self):
        num = Numerology(3)
        tl = build_ss_timeline(SsBurstConfig(n_ss=64, t_ss_ms=20), num, 20.0)
        blocks = tl.of_kind(EventKind.SS_BLOCK)
        assert len(blocks) == 64
        assert blocks[0].start_symbol == 0
        assert blocks[-1].end_symbol == 256
        assert all(b.duration_symbols == 4 for b in blocks)
        assert all(b.rb_count == 20 for b in blocks)

    def test_bursts_repeat_every_period(self):
        num = Numerology(3)
        tl = build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=20), num, 100.0)
        starts = sorted({b.start_symbol // 2240 for b in tl.events})
        assert starts == [0, 1, 2, 3, 4]
        assert tl.burst_period_symbols == 2240

    def test_horizon_prefix_stability(self):
        num = Numerology(3)
        cfg = SsBurstConfig(n_ss=8, t_ss_ms=20)
        short = build_ss_timeline(cfg, num, 100.0)
        long = build_ss_timeline(cfg, num, 200.0)
        assert long.events[: len(short.events)] == short.events

    def test_sweep_stamping_wraps_across_bursts(self):
        num = Numerology(3)
        sweep = [(g, 0) for g in range(12)]
        tl = build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=20), num, 60.0, sweep=sweep)
        blocks = tl.of_kind(EventKind.SS_BLOCK)
        # 8 blocks per burst; labels cycle through the 12 sweep slots
        assert [b.gnb_beam for b in blocks[:8]] == list(range(8))
        assert [b.gnb_beam for b in blocks[8:16]] == [8, 9, 10, 11, 0, 1, 2, 3]

    def test_sweep_shorter_than_burst_truncates(self):
        num = Numerology(3)
        sweep = [(0, 0)]
        tl = build_ss_timeline(SsBurstConfig(n_ss=64, t_ss_ms=40), num, 40.0, sweep=sweep)
        assert len(tl.events) == 1
        assert tl.events[0].start_symbol == 0

    def test_horizon_must_cover_one_period(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=40), Numerology(3), 20.0)


class TestCsiTimeline:
    def setup_method(self):
        self.num = Numerology(3)
        self.ss = build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=20), self.num, 100.0)

    def test_periodic_spacing(self):
        cfg = CsiRsConfig(t_csi_slots=5, delta_f_rb=30)
        tl = build_csi_timeline(cfg, self.ss, self.num, 10.0)
        occ = tl.of_kind(EventKind.CSI_RS)
        # every 5 slots = 70 symbols = 0.625 ms; 16 occasions in 10 ms
        assert len(occ) == 16
        assert [e.start_symbol for e in occ[:3]] == [0, 70, 140]

    def test_collision_with_ss_blocks_dropped(self):
        # delta_f 0 overlaps the SS band; occasion at symbol 0 collides
        cfg = CsiRsConfig(t_csi_slots=5, delta_f_rb=0)
        tl = build_csi_timeline(cfg, self.ss, self.num, 10.0)
        starts = [e.start_symbol for e in tl.events]
        assert 0 not in starts
        assert 70 in starts

    def test_frequency_separation_avoids_collision(self):
        cfg = CsiRsConfig(t_csi_slots=5, delta_f_rb=20)
        tl = build_csi_timeline(cfg, self.ss, self.num, 10.0)
        assert len(tl.events) == 16

    def test_occasion_must_fit_carrier(self):
        cfg = CsiRsConfig(bandwidth_rb=270, delta_f_rb=20)
        with pytest.raises(ConfigurationError, match="carrier"):
            build_csi_timeline(cfg, self.ss, self.num, 10.0)

    def test_offset_must_fit_period(self):
        with pytest.raises(ConfigurationError, match="delta_t_symbols"):
            CsiRsConfig(t_csi_slots=5, delta_t_symbols=70)

    def test_sweep_labels_follow_nominal_index(self):
        # the colliding first occasion consumes direction 0's turn
        cfg = CsiRsConfig(t_csi_slots=5, delta_f_rb=0)
        sweep = [(d, 0) for d in range(4)]
        tl = build_csi_timeline(cfg, self.ss, self.num, 10.0, sweep=sweep)
        assert tl.events[0].gnb_beam == 1


class TestRachTimeline:
    def setup_method(self):
        self.num = Numerology(3)

    def test_digital_gets_one_wildcard_per_burst(self):
        ss = build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=20), self.num, 60.0)
        tl = build_rach_timeline(ss, gnb_is_directional=False, num=self.num)
        opps = tl.of_kind(EventKind.RACH)
        assert len(opps) == 3
        assert all(o.gnb_beam is None for o in opps)
        # right after the burst's last block: 8 blocks end at symbol 32
        assert opps[0].start_symbol == 32
        assert opps[0].duration_symbols == 2

    def test_directional_gets_one_per_swept_direction(self):
        sweep = [(g, 0) for g in range(12)]
        ss = build_ss_timeline(
            SsBurstConfig(n_ss=8, t_ss_ms=20), self.num, 40.0, sweep=sweep
        )
        tl = build_rach_timeline(
            ss, gnb_is_directional=True, num=self.num, n_directions=12
        )
        first = [o for o in tl.events if o.start_symbol < 2240]
        # burst 0 swept directions 0..7 in order
        assert [o.gnb_beam for o in first] == list(range(8))
        assert [o.start_symbol for o in first] == [32 + 2 * m for m in range(8)]
        second = [o for o in tl.events if o.start_symbol >= 2240]
        assert [o.gnb_beam for o in second] == [8, 9, 10, 11, 0, 1, 2, 3]

    def test_wildcard_blocks_fall_back_to_full_fan(self):
        ss = build_ss_timeline(SsBurstConfig(n_ss=4, t_ss_ms=20), self.num, 20.0)
        tl = build_rach_timeline(
            ss, gnb_is_directional=True, num=self.num, n_directions=4
        )
        assert [o.gnb_beam for o in tl.events] == [0, 1, 2, 3]

    def test_needs_burst_period(self):
        bare = Timeline(horizon_symbols=100, symbol_us=8.9)
        with pytest.raises(ConfigurationError, match="burst period"):
            build_rach_timeline(bare, gnb_is_directional=False, num=self.num)


class TestOverhead:
    def test_ss_share_exact_fraction(self):
        num = Numerology(3)
        cfg = SsBurstConfig(n_ss=64, t_ss_ms=20)
        tl = build_ss_timeline(cfg, num, 20.0)
        got = overhead(tl, (EventKind.SS_BLOCK,), 20.0, 277)
        expect = Fraction(64 * 4 * 20, 2240 * 277)
        assert got == pytest.approx(float(expect), rel=1e-15)

    def test_scales_inversely_with_period(self):
        num = Numerology(3)
        a = build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=20), num, 20.0)
        b = build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=80), num, 80.0)
        ratio = overhead(a, (EventKind.SS_BLOCK,), 20.0, 277) / overhead(
            b, (EventKind.SS_BLOCK,), 80.0, 277
        )
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_window_and_carrier_validation(self):
        num = Numerology(3)
        tl = build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=20), num, 20.0)
        with pytest.raises(ConfigurationError):
            overhead(tl, (EventKind.SS_BLOCK,), 0.0, 277)
        with pytest.raises(ConfigurationError, match="narrower"):
            overhead(tl, (EventKind.SS_BLOCK,), 20.0, 10)

    def test_counts_only_selected_kinds(self):
        num = Numerology(3)
        ss = build_ss_timeline(SsBurstConfig(n_ss=8, t_ss_ms=20), num, 20.0)
        assert overhead(ss, (EventKind.CSI_RS,), 20.0, 277) == 0.0


class TestTimelineInvariants:
    @pytest.mark.parametrize("n_ss,t_ss", [(8, 20.0), (32, 40.0), (64, 80.0)])
    def test_same_kind_events_never_overlap(self, n_ss, t_ss):
        num = Numerology(3)
        ss = build_ss_timeline(SsBurstConfig(n_ss=n_ss, t_ss_ms=t_ss), num, 2 * t_ss)
        csi = build_csi_timeline(CsiRsConfig(), ss, num, 2 * t_ss)
        for tl in (ss, csi):
            events = sorted(tl.events, key=lambda e: e.start_symbol)
            for a, b in zip(events, events[1:]):
                overlap_t = a.end_symbol > b.start_symbol
                overlap_f = (
                    a.rb_start < b.rb_start + b.rb_count
                    and b.rb_start < a.rb_start + a.rb_count
                )
                assert not (overlap_t and overlap_f)

    def test_events_time_sorted(self):
        num = Numerology(3)
        ss = build_ss_timeline(SsBurstConfig(n_ss=16, t_ss_ms=20), num, 100.0)
        starts = [e.start_symbol for e in ss.events]
        assert starts == sorted(starts)
