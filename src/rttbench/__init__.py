"""Round-trip latency benchmark suite for best-effort pub/sub over UDP."""

from .bench import (
    CycleClient,
    CycleConfig,
    ClientResult,
    EchoServer,
    RttSample,
    SampleClass,
    classify,
    run_client,
)
from .loadgen import CbrSink, CbrSpec, StressSpec, start_cbr, start_stress
from .metrics import (
    LatencyStats,
    compute_stats,
    export_timeseries,
    import_timeseries,
)
from .pubsub import Endpoint, Publisher, QosProfile, Subscriber
from .rtconfig import Capabilities, Outcome, RtProfile, SchedPolicy, apply, probe
from .runner import (
    ExperimentConfig,
    RunResult,
    load_matrix,
    render_report,
    run,
)
from .wire import Frame, FrameKind, Message, Reassembler, decode, encode, pattern_payload

__version__ = "0.1.0"
