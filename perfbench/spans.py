"""In-memory span tracer for the benchmark's traced runs.

The program is not edited: the tracer replaces public functions and
methods of the rttbench modules with wrappers from outside. Each call
becomes one span (name, start, end, parent span, request id, thread) and
is kept in per-thread arrays; the spans are written out once, at the end.
The request id is the message seq where the call has one, so the spans of
one round trip share it. A span's self time is its duration minus the
time of the spans nested in it on the same thread.
"""

import csv
import itertools
import os
import threading
import time
from array import array

CLK_TCK = os.sysconf("SC_CLK_TCK")


class _ThreadBuffer:
    """Spans of one thread; only that thread appends, so no lock is needed."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.stack: list = []
        self.span = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.req = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, owner, attr: str, name: str, req=None, after=None) -> None:
        """Replace owner.attr with a traced wrapper.

        req(args, result) gives the span's request id; after(args, result,
        t0, t1) runs once the call has returned normally.
        """
        orig = getattr(owner, attr)
        nid = self._name_id(name)
        buffer = self._buffer
        ids = self._ids
        clock = time.monotonic_ns

        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            result = None
            ok = False
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                buf.span.append(sid)
                buf.parent.append(parent)
                buf.name.append(nid)
                buf.req.append(req(args, result) if ok and req else -1)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.self_ns.append(dur - frame[1])
                if ok and after:
                    after(args, result, t0, t1)

        setattr(owner, attr, traced)

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total duration ns, total self ns) of its spans."""
        acc = [[0, 0, 0] for _ in self.names]
        for buf in self._buffers:
            for nid, start, end, own in zip(buf.name, buf.start, buf.end,
                                            buf.self_ns):
                entry = acc[nid]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += own
        return {name: tuple(acc[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as one CSV row, ordered by start time."""
        rows = []
        for buf in self._buffers:
            for i in range(len(buf.span)):
                rows.append((buf.start[i], buf.span[i], buf.parent[i],
                             self.names[buf.name[i]], buf.req[i],
                             buf.thread_name, buf.end[i], buf.self_ns[i]))
        rows.sort()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("span", "parent", "name", "req", "thread",
                             "start_ns", "end_ns", "self_ns"))
            for start, sid, parent, name, req, thread, end, own in rows:
                writer.writerow((sid, parent, name, req, thread, start, end, own))


class CpuWindow:
    """CPU seconds per wall second of the process and of named threads.

    Thread CPU is read from /proc/self/task/<native_id>/stat, so each
    thread must still be alive at both ends of the window.
    """

    def __init__(self, thread_names):
        self.thread_names = tuple(thread_names)
        self.share: dict[str, float] = {}
        self.process = 0.0
        self._start = None

    def _snapshot(self):
        threads = {}
        for t in threading.enumerate():
            if t.name in self.thread_names and t.native_id is not None:
                try:
                    with open(f"/proc/self/task/{t.native_id}/stat") as fh:
                        fields = fh.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                threads[t.name] = (int(fields[11]) + int(fields[12])) / CLK_TCK
        return time.monotonic_ns(), time.process_time(), threads

    def begin(self) -> None:
        self._start = self._snapshot()

    def finish(self) -> None:
        wall0, proc0, threads0 = self._start
        wall1, proc1, threads1 = self._snapshot()
        wall = (wall1 - wall0) / 1e9
        self.process = (proc1 - proc0) / wall
        for name, cpu in threads1.items():
            self.share[name] = (cpu - threads0.get(name, 0.0)) / wall
