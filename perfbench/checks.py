"""Independent correctness checks for the benchmark's workloads.

Each check re-derives a value from the raw inputs or tests a property that
must hold, and returns a list of error strings (empty when the check
passes). None of them calls the function whose output it checks, and none
compares against a stored copy of earlier output.
"""

from collections import Counter
from fractions import Fraction

HEADER_SIZE = 32  # fixed wire header, from the documented wire format

# Histogram edges from the documented rule: 4 per decade, 1 us .. 10 s.
SPEC_EDGES_US = tuple(round(10 ** (k / 4)) for k in range(29))

OK, MISSED, LOST = "OK", "MISSED_DEADLINE", "LOST"


def expected_class(rtt_us, deadline_us) -> str:
    """The deadline rule as the benchmark applies it."""
    if rtt_us is None:
        return LOST
    return MISSED if rtt_us > deadline_us else OK


def check_samples(samples, period_ns: int, deadline_us: int,
                  loss_timeout_ns: int) -> list[str]:
    """Per-sample properties of a live run's measured samples.

    seqs run gap-free from 0; the rtt is t2 - t1 in whole microseconds;
    each class follows the deadline rule; and the schedule holds. t1 is
    read after a wake-up that may be late, so two t1s can lie less than a
    period apart. What must hold: a ping leaves only after the previous
    round trip ended (its reply, or its loss timeout), and its wake-up is
    a period after the previous wake-up, which itself came after the end
    of the round trip before that: t1[i] >= end[i-2] + period.
    """
    errors = []
    ends = []
    for i, s in enumerate(samples):
        if s.seq != i:
            errors.append(f"sample {i}: seq {s.seq}, expected {i}")
        if i >= 1 and s.t1_ns < ends[i - 1]:
            errors.append(f"sample {i}: sent at {s.t1_ns}, before the previous "
                          f"round trip ended at {ends[i - 1]}")
        if i >= 2 and s.t1_ns < ends[i - 2] + period_ns:
            errors.append(f"sample {i}: sent {s.t1_ns - ends[i - 2]} ns after "
                          f"round trip {i - 2} ended, less than the period "
                          f"{period_ns} ns")
        ends.append(s.t2_ns if s.t2_ns is not None else s.t1_ns + loss_timeout_ns)
        if (s.t2_ns is None) != (s.rtt_us is None):
            errors.append(f"sample {i}: t2 {s.t2_ns} with rtt {s.rtt_us}")
        elif s.t2_ns is not None and s.rtt_us != (s.t2_ns - s.t1_ns) // 1000:
            errors.append(f"sample {i}: rtt {s.rtt_us} us != "
                          f"({s.t2_ns} - {s.t1_ns}) // 1000")
        want = expected_class(s.rtt_us, deadline_us)
        if s.cls.value != want:
            errors.append(f"sample {i}: class {s.cls.value}, rule gives {want}")
        if len(errors) > 20:
            errors.append("... more sample errors omitted")
            break
    return errors


def check_one_in_flight(samples, loss_timeout_ns: int) -> list[str]:
    """With one ping in flight, the round trips cannot overlap.

    The sum of the RTTs must not exceed the window from the first ping to
    the last reply (or the last loss timeout).
    """
    if not samples:
        return ["no samples"]
    busy = sum(s.t2_ns - s.t1_ns for s in samples if s.t2_ns is not None)
    last = samples[-1]
    end = last.t2_ns if last.t2_ns is not None else last.t1_ns + loss_timeout_ns
    window = end - samples[0].t1_ns
    if busy > window:
        return [f"sum of RTTs {busy} ns exceeds the window {window} ns"]
    return []


def frames_per_message(payload: int, max_datagram: int) -> int:
    return max(1, -(-payload // (max_datagram - HEADER_SIZE)))


def check_datagrams(sent: int, messages: int, payload: int,
                    max_datagram: int, who: str) -> list[str]:
    want = messages * frames_per_message(payload, max_datagram)
    if sent != want:
        return [f"{who} sent {sent} datagrams, expected {messages} messages x "
                f"{frames_per_message(payload, max_datagram)} = {want}"]
    return []


def check_echoed(echoed: int, replied: int) -> list[str]:
    if echoed < replied:
        return [f"server echoed {echoed} pings but the client took {replied} replies"]
    return []


def check_cbr(sent: int, received: int) -> list[str]:
    errors = []
    if sent <= 0 or received <= 0:
        errors.append(f"CBR traffic did not flow: sent {sent}, received {received}")
    if received > sent:
        errors.append(f"CBR sink received {received} packets, only {sent} sent")
    return errors


def check_stats(stats, counts: Counter, *, missed: int, lost: int,
                total: int) -> list[str]:
    """Check a LatencyStats against the rtt multiset `counts` (value -> count).

    missed, lost and total come from the benchmark's own classification.
    """
    errors = []
    n = sum(counts.values())
    if (stats.missed, stats.lost, stats.total) != (missed, lost, total):
        errors.append(f"missed/lost/total {stats.missed}/{stats.lost}/"
                      f"{stats.total}, expected {missed}/{lost}/{total}")
    if n == 0:
        if stats.min_us is not None or stats.avg_us is not None:
            errors.append("statistics present with no replied samples")
        return errors
    if (stats.min_us, stats.max_us) != (min(counts), max(counts)):
        errors.append(f"min/max {stats.min_us}/{stats.max_us}, expected "
                      f"{min(counts)}/{max(counts)}")
    errors += check_mean(stats.avg_us, counts)
    errors += check_nearest_rank(stats.p99_us, counts, 99, 100, "p99")
    errors += check_nearest_rank(stats.p999_us, counts, 999, 1000, "p99.9")
    errors += check_histogram(stats.histogram, counts)
    return errors


def check_mean(avg_us, counts: Counter) -> list[str]:
    """The program rounds the exact mean half up to whole microseconds."""
    n = sum(counts.values())
    mean = Fraction(sum(v * c for v, c in counts.items()), n)
    want = (mean + Fraction(1, 2)).__floor__()
    if avg_us != want:
        return [f"avg {avg_us} us, exact mean {float(mean):.3f} rounds to {want}"]
    return []


def check_nearest_rank(value, counts: Counter, num: int, den: int,
                       label: str) -> list[str]:
    """value is a nearest-rank q-quantile: count(<= v) >= q*n > count(< v)."""
    if value is None:
        return [f"{label} missing"]
    n = sum(counts.values())
    below = sum(c for v, c in counts.items() if v < value)
    at_or_below = below + counts.get(value, 0)
    if not (den * at_or_below >= num * n > den * below):
        return [f"{label} {value}: {below} samples below and {at_or_below} at "
                f"or below it, of {n}; not a nearest-rank {num}/{den} value"]
    return []


def recount_histogram(counts: Counter) -> list[int]:
    """Bin i holds edge[i] <= rtt < edge[i+1]; out-of-range values clamp."""
    nbins = len(SPEC_EDGES_US) - 1
    hist = [0] * nbins
    for v, c in counts.items():
        index = 0
        for i in range(nbins):
            if v >= SPEC_EDGES_US[i]:
                index = i
        hist[index] += c
    return hist


def check_histogram(histogram, counts: Counter) -> list[str]:
    want = recount_histogram(counts)
    if list(histogram) != want:
        diff = [i for i, (a, b) in enumerate(zip(histogram, want)) if a != b]
        return [f"histogram differs from the recount in bins {diff} "
                f"(got {list(histogram)}, recount {want})"]
    return []


#: Class codes of the compact sample copy kept by the results workload.
CLASS_CODES = (OK, MISSED, LOST)


def check_round_trip(t1s, rtts, codes, imported) -> list[str]:
    """import(export(S)) keeps S's seq, t1, rtt and class, in order.

    S is given compactly: sample i has seq i, t1 t1s[i], rtt rtts[i]
    (negative for a lost sample) and class CLASS_CODES[codes[i]].
    `imported` is the list of samples read back.
    """
    if len(imported) != len(t1s):
        return [f"imported {len(imported)} samples, exported {len(t1s)}"]
    errors = []
    for i, s in enumerate(imported):
        rtt = rtts[i] if rtts[i] >= 0 else None
        cls = CLASS_CODES[codes[i]]
        if s.seq != i or s.t1_ns != t1s[i] or s.rtt_us != rtt or s.cls.value != cls:
            errors.append(f"row {i}: read back ({s.seq}, {s.t1_ns}, {s.rtt_us}, "
                          f"{s.cls.value}), exported ({i}, {t1s[i]}, {rtt}, {cls})")
            if len(errors) > 5:
                break
    return errors


def check_report_row(report: str, stats) -> list[str]:
    fmt = lambda v: "-" if v is None else str(v)
    row = (f"{fmt(stats.min_us)} | {fmt(stats.avg_us)} | {fmt(stats.max_us)} | "
           f"{stats.missed}/{stats.total} | {stats.lost}/{stats.total}")
    if row not in report.splitlines():
        return [f"report lacks the row {row!r}"]
    return []
