"""Per-invocation distributed tracing: spans, recorders, sampling.

One *trace* is one logical function invocation travelling through the
platform; its ``trace_id`` is the logical job id, so every attempt of a
retried or hedged job lands in the same trace.  A trace is a tree of
:class:`Span` objects:

- the **root** span covers submission to final delivery;
- ``queue_wait`` spans (one per claimed attempt) hang off the root;
- one ``attempt`` span per physical execution (claim → post-job
  housekeeping) hangs off the root, carrying ``boot`` (with optional
  per-stage children), ``input_transfer``, ``execute``,
  ``result_transfer``, and ``reboot`` children;
- zero-duration *annotations* (``submit``, ``assign``, ``power_on``,
  ``retry``, ``hedge``, ``resubmit``, ``discarded``, ``shutdown``,
  ``chaos_event``) mark instants on the root.

Two recorders share one duck-typed API:

- :data:`NULL_RECORDER` — the default.  ``enabled`` is False and every
  method is a no-op; hot paths guard on ``job.trace_id is None`` (set
  only by an enabled recorder), so the disabled subsystem costs one
  attribute check per call site.
- :class:`TraceRecorder` — the real thing.  Head-based sampling decides
  at submission whether a job is traced; the decision draws from a
  dedicated named RNG stream (:mod:`repro.sim.rng`), so enabling
  tracing never perturbs any simulation draw.  In-flight traces live in
  a dict keyed by trace id; finished traces move to a bounded ring
  buffer (:class:`collections.deque` with ``maxlen``), so a fully
  sampled megatrace-scale run stays O(in-flight + ring) in memory.

The recorder stores each span as a plain tuple row, ``(span_id,
parent_id, name, start_s, end_s, worker_id, attrs)``, and a sealed
:class:`FinishedTrace` keeps that row list.  :class:`Span` objects are
built from the rows on the first read of :attr:`FinishedTrace.spans`
and only then, so traces the ring evicts unread never build any; once
built, the spans replace the rows.

A trace is *finished* when its first result has been delivered (or the
job abandoned) **and** no attempt span is still open — a hedge that
loses the race still gets its spans recorded before the trace is
sealed, which is what keeps retried energy attribution double-count
free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.rng import RandomStreams

#: Span / annotation taxonomy (see the module docstring for the tree).
ROOT = "invocation"
QUEUE_WAIT = "queue_wait"
ATTEMPT = "attempt"
BOOT = "boot"
BOOT_STAGE_PREFIX = "boot:"
INPUT_TRANSFER = "input_transfer"
EXECUTE = "execute"
RESULT_TRANSFER = "result_transfer"
REBOOT = "reboot"
SUBMIT = "submit"
ASSIGN = "assign"
POWER_ON = "power_on"
SHUTDOWN = "shutdown"
RETRY = "retry"
HEDGE = "hedge"
RESUBMIT = "resubmit"
DISCARDED = "discarded"
CHAOS_EVENT = "chaos_event"
#: Federation-level annotations (see :mod:`repro.federation`): a fed
#: job re-routed to another region after an outage/brownout, and the
#: gateway's outage declaration itself.
REROUTE = "reroute"
REGION_OUTAGE = "region_outage"
#: Client-SDK annotations (see :mod:`repro.client`): the executor
#: accepted a call, a wait() started covering the job, and a
#: client-side retry launched a fresh backend job.
CLIENT_SUBMIT = "client_submit"
CLIENT_WAIT = "client_wait"
CLIENT_RETRY = "client_retry"

#: The phases that tile an attempt's *active* window (claim → result
#: delivered); everything inside the attempt not covered by one of
#: these is idle time (post-job grace, shutdown wait).
ACTIVE_PHASES = (BOOT, INPUT_TRANSFER, EXECUTE, RESULT_TRANSFER)


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of an enabled recorder.

    sample_rate:
        Head-based sampling probability in [0, 1].  The decision is
        made once per logical job at submission, from the recorder's
        own named RNG stream; retries and hedges inherit it.
    max_traces:
        Ring-buffer capacity for finished traces.  Older traces are
        dropped (and counted) once the buffer is full — this is what
        bounds memory when every invocation of a huge run is sampled.
    boot_stages:
        Emit one child span per worker-OS boot stage (bootloader,
        kernel_init, ...) under each ``boot`` span.
    """

    sample_rate: float = 1.0
    max_traces: int = 4096
    boot_stages: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.max_traces < 1:
            raise ValueError("max_traces must be >= 1")


class Span:
    """One node of a trace tree (annotations are zero-duration spans)."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name",
        "start_s", "end_s", "worker_id", "attrs",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_s: float,
        end_s: float,
        worker_id: Optional[int] = None,
        attrs: Optional[dict] = None,
    ):
        if end_s < start_s:
            raise ValueError(
                f"span {name!r}: end {end_s} before start {start_s}"
            )
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.worker_id = worker_id
        self.attrs = attrs

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> dict:
        """Plain-dict form (the JSONL exporter's row)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "worker_id": self.worker_id,
            "attrs": self.attrs or {},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} #{self.span_id} trace={self.trace_id} "
            f"[{self.start_s:.6f}, {self.end_s:.6f}]>"
        )


#: One recorded span: ``(span_id, parent_id, name, start_s, end_s,
#: worker_id, attrs)``, the :class:`Span` fields without the trace id.
SpanRow = Tuple[int, Optional[int], str, float, float, Optional[int], Optional[dict]]


class FinishedTrace:
    """One sealed trace: the root span plus every descendant.

    Holds the recorder's span rows (root first) until :attr:`spans`
    builds the :class:`Span` objects on first read; from then on it
    keeps the spans only.
    """

    __slots__ = (
        "trace_id", "function", "label", "status", "delivered_attempt",
        "_rows", "_spans",
    )

    def __init__(
        self,
        trace_id: int,
        function: str,
        label: str,
        status: str,  # "completed" | "failed" | "lost" | "shed" | "open"
        delivered_attempt: Optional[int],
        rows: List[SpanRow],
    ):
        self.trace_id = trace_id
        self.function = function
        self.label = label
        self.status = status
        self.delivered_attempt = delivered_attempt
        self._rows: Optional[List[SpanRow]] = rows
        self._spans: Optional[Tuple[Span, ...]] = None

    def __reduce__(self):
        # Shard workers pipe sealed traces to the coordinator: ship rows,
        # not built spans.
        rows = self._rows
        if rows is None:
            rows = [
                (s.span_id, s.parent_id, s.name, s.start_s, s.end_s,
                 s.worker_id, s.attrs)
                for s in self._spans
            ]
        return (
            FinishedTrace,
            (self.trace_id, self.function, self.label, self.status,
             self.delivered_attempt, rows),
        )

    @property
    def spans(self) -> Tuple[Span, ...]:
        spans = self._spans
        if spans is None:
            trace_id = self.trace_id
            spans = self._spans = tuple(
                Span(trace_id, *row) for row in self._rows
            )
            self._rows = None
        return spans

    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def start_s(self) -> float:
        rows = self._rows
        return self._spans[0].start_s if rows is None else rows[0][3]

    @property
    def end_s(self) -> float:
        rows = self._rows
        return self._spans[0].end_s if rows is None else rows[0][4]

    def attempts(self) -> List[Span]:
        """The attempt spans, in start order."""
        return self.find(ATTEMPT)

    def children_of(self, span_id: int) -> List[Span]:
        """Direct children of a span, in start order."""
        return sorted(
            (s for s in self.spans if s.parent_id == span_id),
            key=lambda s: s.start_s,
        )

    def find(self, name: str) -> List[Span]:
        """Every span/annotation with the given name, in start order."""
        return sorted(
            (s for s in self.spans if s.name == name),
            key=lambda s: s.start_s,
        )


class NullTraceRecorder:
    """The disabled recorder: every operation is a no-op.

    ``sample`` always answers False, so no job ever gets a trace id and
    every downstream call site short-circuits on
    ``job.trace_id is None`` without reaching this object again.
    """

    enabled = False
    label = ""

    def sample(self, job_id: int) -> bool:
        return False

    def begin_trace(self, trace_id, t, function, attrs=None):
        return None

    def span(self, trace_id, name, start_s, end_s, parent_id=None,
             worker_id=None, attrs=None):
        return None

    def annotate(self, trace_id, name, t, worker_id=None, attrs=None):
        return None

    def begin_attempt(self, trace_id, t, worker_id, attrs=None):
        return None

    def end_attempt(self, trace_id, attempt_id, t, attrs=None):
        return None

    def mark_delivered(self, trace_id, t, status="completed",
                       attempt_id=None):
        return None

    def drain(self):
        return []


#: Module-level singleton: the default tracer of every orchestrator.
NULL_RECORDER = NullTraceRecorder()


class _LiveTrace:
    """Builder for one in-flight trace: its span rows, root first."""

    __slots__ = ("trace_id", "function", "root_id", "rows",
                 "attempt_rows", "open_attempts", "delivered", "status",
                 "delivered_attempt", "end_s")

    def __init__(self, trace_id: int, function: str, root: SpanRow):
        self.trace_id = trace_id
        self.function = function
        self.root_id = root[0]
        self.rows: List[SpanRow] = [root]
        #: Attempt span id -> index of its row, for :meth:`end_attempt`.
        self.attempt_rows: Dict[int, int] = {}
        self.open_attempts = 0
        self.delivered = False
        self.status = "open"
        self.delivered_attempt: Optional[int] = None
        self.end_s = root[3]


class TraceRecorder:
    """The enabled recorder: collects spans, seals traces into a ring.

    Parameters
    ----------
    config:
        Sampling rate, ring capacity, boot-stage detail.
    streams:
        Named-RNG factory for the sampling decision.  Pass a spawn of
        the simulation's master streams (``streams.spawn("obs")``) so
        the sampling stream is deterministic per seed yet independent
        of every simulation draw.
    label:
        Folded into finished traces (and the exporters' process names)
        so traces from several clusters can share one output file.
    """

    enabled = True

    def __init__(
        self,
        config: Optional[TraceConfig] = None,
        streams: Optional[RandomStreams] = None,
        label: str = "",
    ):
        self.config = config if config is not None else TraceConfig()
        self.label = label
        self._sampler = (
            streams if streams is not None else RandomStreams(0)
        ).stream("head-sampling")
        self._live: Dict[int, _LiveTrace] = {}
        self.finished: deque = deque(maxlen=self.config.max_traces)
        self._next_span_id = 1
        self.traces_started = 0
        self.traces_finished = 0
        self.traces_dropped = 0
        self.spans_recorded = 0
        self.spans_dropped = 0  # spans arriving for unknown/sealed traces

    # -- sampling ------------------------------------------------------------

    def sample(self, job_id: int) -> bool:
        """Head-based sampling decision for one logical job."""
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return self._sampler.random() < rate

    # -- span recording ------------------------------------------------------

    def begin_trace(
        self,
        trace_id: int,
        t: float,
        function: str,
        attrs: Optional[dict] = None,
    ) -> int:
        """Open a trace; returns the root span id."""
        if trace_id in self._live:
            raise ValueError(f"trace {trace_id} already open")
        root_id = self._next_span_id
        self._next_span_id = root_id + 1
        self._live[trace_id] = _LiveTrace(
            trace_id, function, (root_id, None, ROOT, t, t, None, attrs)
        )
        self.traces_started += 1
        self.spans_recorded += 1
        return root_id

    def span(
        self,
        trace_id: int,
        name: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[int] = None,
        worker_id: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> Optional[int]:
        """Record one completed span; parent defaults to the root."""
        live = self._live.get(trace_id)
        if live is None:
            self.spans_dropped += 1
            return None
        if end_s < start_s:
            raise ValueError(
                f"span {name!r}: end {end_s} before start {start_s}"
            )
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        live.rows.append((
            span_id,
            live.root_id if parent_id is None else parent_id,
            name,
            start_s,
            end_s,
            worker_id,
            attrs,
        ))
        if end_s > live.end_s:
            live.end_s = end_s
        self.spans_recorded += 1
        return span_id

    def annotate(
        self,
        trace_id: int,
        name: str,
        t: float,
        worker_id: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> Optional[int]:
        """Record a zero-duration marker on the root."""
        return self.span(trace_id, name, t, t, worker_id=worker_id,
                         attrs=attrs)

    # -- attempt lifecycle ---------------------------------------------------

    def begin_attempt(
        self,
        trace_id: int,
        t: float,
        worker_id: int,
        attrs: Optional[dict] = None,
    ) -> Optional[int]:
        """Open an attempt span (worker claimed the job).

        The span's end time is patched by :meth:`end_attempt`; until
        then the trace cannot seal, so a losing hedge's spans are
        always captured.
        """
        live = self._live.get(trace_id)
        if live is None:
            self.spans_dropped += 1
            return None
        span_id = self.span(
            trace_id, ATTEMPT, t, t, worker_id=worker_id, attrs=attrs
        )
        live.attempt_rows[span_id] = len(live.rows) - 1
        live.open_attempts += 1
        return span_id

    def end_attempt(
        self,
        trace_id: int,
        attempt_id: Optional[int],
        t: float,
        attrs: Optional[dict] = None,
    ) -> None:
        """Close an attempt span and seal the trace if it was the last."""
        live = self._live.get(trace_id)
        if live is None:
            return
        index = live.attempt_rows.get(attempt_id)
        if index is not None:
            rows = live.rows
            span_id, parent_id, name, start_s, end_s, worker_id, old = rows[index]
            end_s = max(end_s, t)
            if attrs:
                old = {**(old or {}), **attrs}
            rows[index] = (span_id, parent_id, name, start_s, end_s,
                           worker_id, old)
            if end_s > live.end_s:
                live.end_s = end_s
        live.open_attempts -= 1
        self._maybe_seal(live)

    def mark_delivered(
        self,
        trace_id: int,
        t: float,
        status: str = "completed",
        attempt_id: Optional[int] = None,
    ) -> None:
        """The logical job's first result arrived (or it was abandoned)."""
        live = self._live.get(trace_id)
        if live is None:
            return
        live.delivered = True
        live.status = status
        live.delivered_attempt = attempt_id
        if t > live.end_s:
            live.end_s = t
        self._maybe_seal(live)

    # -- sealing -------------------------------------------------------------

    def _maybe_seal(self, live: _LiveTrace) -> None:
        if not live.delivered or live.open_attempts > 0:
            return
        self._seal(live)

    def _seal(self, live: _LiveTrace) -> None:
        rows = live.rows
        root_id, parent_id, name, start_s, _end, worker_id, attrs = rows[0]
        rows[0] = (root_id, parent_id, name, start_s, live.end_s,
                   worker_id, attrs)
        if len(self.finished) == self.finished.maxlen:
            self.traces_dropped += 1
        self.finished.append(
            FinishedTrace(
                trace_id=live.trace_id,
                function=live.function,
                label=self.label,
                status=live.status,
                delivered_attempt=live.delivered_attempt,
                rows=rows,
            )
        )
        self.traces_finished += 1
        del self._live[live.trace_id]

    def drain(self) -> List[FinishedTrace]:
        """Seal every still-open trace (end of run) and return the ring.

        Traces sealed here that never saw a delivery keep status
        ``open`` — the run ended while they were in flight.
        """
        for live in list(self._live.values()):
            self._seal(live)
        return list(self.finished)

    def traces(self) -> List[FinishedTrace]:
        """The finished traces currently in the ring (oldest first)."""
        return list(self.finished)


def merge_traces(
    recorders: Iterable[TraceRecorder],
) -> List[FinishedTrace]:
    """Finished traces of several recorders, ordered by start time.

    Recorders must carry distinct labels if their trace ids can
    collide (e.g. the two headline clusters both number jobs from 0).
    Each element may also be a plain iterable of
    :class:`FinishedTrace` (shard workers ship sealed traces across
    process boundaries, not live recorders).
    """
    merged: List[FinishedTrace] = []
    for recorder in recorders:
        traces = getattr(recorder, "traces", None)
        merged.extend(traces() if traces is not None else recorder)
    merged.sort(key=lambda trace: (trace.start_s, trace.label, trace.trace_id))
    return merged


__all__ = [
    "ACTIVE_PHASES",
    "ASSIGN",
    "ATTEMPT",
    "BOOT",
    "BOOT_STAGE_PREFIX",
    "CHAOS_EVENT",
    "CLIENT_RETRY",
    "CLIENT_SUBMIT",
    "CLIENT_WAIT",
    "DISCARDED",
    "EXECUTE",
    "FinishedTrace",
    "HEDGE",
    "INPUT_TRANSFER",
    "NULL_RECORDER",
    "NullTraceRecorder",
    "POWER_ON",
    "QUEUE_WAIT",
    "REBOOT",
    "REGION_OUTAGE",
    "REROUTE",
    "RESUBMIT",
    "RESULT_TRANSFER",
    "RETRY",
    "ROOT",
    "SHUTDOWN",
    "SUBMIT",
    "Span",
    "TraceConfig",
    "TraceRecorder",
    "merge_traces",
]
