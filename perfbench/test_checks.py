"""Fast tests of the benchmark's correctness checks.

Each check must pass on a correct input and fail on a deliberately wrong
one. Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import io
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from rttbench.bench import RttSample, SampleClass  # noqa: E402
from rttbench.metrics import (HISTOGRAM_EDGES_US, compute_stats,  # noqa: E402
                              export_timeseries, import_timeseries)
from rttbench.runner import format_stats_row  # noqa: E402

PERIOD = 1_000_000
DEADLINE_US = 1000
LOSS = 500_000_000


def live_samples(rtts_us=(400, 1500, None, 700)):
    """Samples on a 1 ms grid, as a correct client would record them."""
    samples = []
    wake = 10_000_000
    for seq, rtt in enumerate(rtts_us):
        t1 = wake + 3_000
        if rtt is None:
            samples.append(RttSample(seq, t1, None, None, SampleClass.LOST))
            end = t1 + LOSS
        else:
            t2 = t1 + rtt * 1000 + 123
            cls = SampleClass.MISSED_DEADLINE if rtt > DEADLINE_US else SampleClass.OK
            samples.append(RttSample(seq, t1, t2, rtt, cls))
            end = t2
        wake = max(wake + PERIOD, -(-end // PERIOD) * PERIOD)
    return samples


def sample_checks(samples):
    return checks.check_samples(samples, PERIOD, DEADLINE_US, LOSS)


def test_correct_samples_pass():
    samples = live_samples()
    assert sample_checks(samples) == []
    assert checks.check_one_in_flight(samples, LOSS) == []


def test_seq_gap_fails():
    samples = live_samples()
    samples[2].seq = 3
    samples[3].seq = 4
    assert any("seq 3, expected 2" in e for e in sample_checks(samples))


def test_wrong_class_fails():
    samples = live_samples()
    samples[1].cls = SampleClass.OK
    assert any("class OK" in e for e in sample_checks(samples))


def test_rtt_not_matching_timestamps_fails():
    samples = live_samples()
    samples[0].rtt_us += 1
    assert any("rtt 401" in e for e in sample_checks(samples))


def test_ping_before_previous_reply_fails():
    samples = live_samples((400, 700))
    samples[1].t1_ns = samples[0].t2_ns - 1
    samples[1].t2_ns = samples[1].t1_ns + 700_000
    assert any("before the previous round trip" in e for e in sample_checks(samples))


def test_ping_closer_than_a_period_to_the_grid_fails():
    samples = live_samples((400, 400, 400))
    shift = samples[2].t1_ns - samples[0].t2_ns - PERIOD + 1
    samples[2].t1_ns -= shift
    samples[2].t2_ns -= shift
    assert any("less than the period" in e for e in sample_checks(samples))


def test_overlapping_round_trips_fail():
    samples = live_samples((400, 400))
    samples[0].t2_ns = samples[1].t2_ns + 2_000_000
    assert checks.check_one_in_flight(samples, LOSS) != []


def test_p99_off_by_one_rank_fails():
    rtts = list(range(100, 300))  # 200 distinct values
    counts = Counter(rtts)
    p99 = compute_stats([RttSample(i, 0, r * 1000, r, SampleClass.OK)
                         for i, r in enumerate(rtts)]).p99_us
    assert checks.check_nearest_rank(p99, counts, 99, 100, "p99") == []
    assert checks.check_nearest_rank(p99 + 1, counts, 99, 100, "p99") != []
    assert checks.check_nearest_rank(p99 - 1, counts, 99, 100, "p99") != []


def test_mean_off_by_one_fails():
    counts = Counter([100, 101])  # exact mean 100.5 rounds half up to 101
    assert checks.check_mean(101, counts) == []
    assert checks.check_mean(100, counts) != []


def test_histogram_recount_matches_program_and_catches_a_moved_bin():
    assert checks.SPEC_EDGES_US == HISTOGRAM_EDGES_US
    values = [0, 1, 2, 3, 5, 6, 17, 18, 99, 100, 101, 5623, 9_999_999,
              10_000_000, 50_000_000]
    samples = [RttSample(i, 0, v * 1000, v, SampleClass.OK)
               for i, v in enumerate(values)]
    hist = list(compute_stats(samples).histogram)
    counts = Counter(values)
    assert checks.check_histogram(hist, counts) == []
    moved = hist[:]
    i = next(k for k, c in enumerate(moved) if c)
    moved[i] -= 1
    moved[i + 1] += 1
    assert checks.check_histogram(moved, counts) != []


def test_stats_counts_must_match():
    samples = live_samples()
    stats = compute_stats(samples)
    counts = Counter(s.rtt_us for s in samples if s.rtt_us is not None)
    assert checks.check_stats(stats, counts, missed=1, lost=1, total=4) == []
    assert checks.check_stats(stats, counts, missed=0, lost=1, total=4) != []


def compact(samples):
    codes = {"OK": 0, "MISSED_DEADLINE": 1, "LOST": 2}
    return ([s.t1_ns for s in samples],
            [-1 if s.rtt_us is None else s.rtt_us for s in samples],
            [codes[s.cls.value] for s in samples])


def test_reordered_csv_row_fails_round_trip():
    samples = live_samples()
    buf = io.StringIO()
    export_timeseries(samples, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert checks.check_round_trip(*compact(samples),
                                   import_timeseries(io.StringIO("".join(lines)))) == []
    lines[1], lines[2] = lines[2], lines[1]
    imported = import_timeseries(io.StringIO("".join(lines)))
    assert checks.check_round_trip(*compact(samples), imported) != []


def test_dropped_csv_row_fails_round_trip():
    samples = live_samples()
    buf = io.StringIO()
    export_timeseries(samples[:-1], buf)
    imported = import_timeseries(io.StringIO(buf.getvalue()))
    assert checks.check_round_trip(*compact(samples), imported) != []


def test_datagram_count():
    assert checks.frames_per_message(64, 1400) == 1
    assert checks.frames_per_message(65536, 1400) == 48
    assert checks.check_datagrams(480, 10, 65536, 1400, "client") == []
    assert checks.check_datagrams(479, 10, 65536, 1400, "client") != []


def test_echo_and_cbr_bounds():
    assert checks.check_echoed(10, 10) == []
    assert checks.check_echoed(9, 10) != []
    assert checks.check_cbr(100, 100) == []
    assert checks.check_cbr(100, 101) != []
    assert checks.check_cbr(0, 0) != []


def test_report_row():
    stats = compute_stats(live_samples())
    report = "# t\n\n" + format_stats_row(stats) + "\n"
    assert checks.check_report_row(report, stats) == []
    assert checks.check_report_row(report.replace("1/4", "0/4"), stats) != []
