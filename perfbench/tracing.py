"""Layer-attributed span tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`installed`
replaces public entry points of the program's classes with wrappers for
the duration of a ``with`` block and restores the originals on exit:

* ``Simulator.call_at`` wraps every scheduled callback, so the callback
  runs inside a span named after the function it calls and attributed
  to the layer of the module that defines it.  ``call_after`` and the
  ``Process.at``/``after`` helpers all schedule through ``call_at``, so
  each callback is wrapped exactly once.  The scheduling call itself is
  a ``sim.call_at`` span and the pop that dispatches it a ``sim.step``
  span.
* ``Process.every`` wraps the periodic function, which splits the
  ``Process.every.<locals>.tick`` closure into its re-arm cost (layer
  ``sim``) and the named function it runs (heartbeats, the forward
  pump, deadman sweeps, controller ticks).
* The remaining entry points are listed in :data:`ENTRY_POINTS`.

Spans are aggregated in memory, per phase (``setup``, ``drive``), by
``(layer, name)``: call count, total time and self time.  A span's self
time is its duration minus the time its child spans cover, so the self
times of every span sum to the time covered by top-level spans, and the
per-layer table is a partition of that time.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.core.content as content_module
from repro.core.client import ViewerClient
from repro.core.controller import Controller
from repro.core.cub import Cub
from repro.core.netschedule import NetworkSchedule
from repro.disk.drive import SimDisk
from repro.mbr.admission import MbrAdmission
from repro.net.switch import SwitchedNetwork
from repro.obs.registry import CounterSeries, GaugeSeries, HistogramSeries
from repro.sim.core import Simulator
from repro.sim.events import PRIORITY_NORMAL, Event
from repro.sim.process import Process
from repro.sim.trace import Tracer

#: Module prefix -> layer, first match wins.  Modules not listed map to
#: their own dotted path below ``repro`` (``core.deadman``, ``workloads``);
#: code outside the ``repro`` package is the benchmark's own (``bench``).
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.trace", "obs"),
    ("repro.obs", "obs"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.disk", "disk"),
    ("repro.core.cub", "core.cub"),
    ("repro.core.controller", "core.controller"),
    # The backup controller subclasses Controller.
    ("repro.core.failover", "core.controller"),
    ("repro.core.client", "core.client"),
    ("repro.core.netschedule", "core.netschedule"),
    ("repro.mbr", "mbr"),
    ("repro.storage", "storage"),
)

#: (owner, attribute, span name, layer) for every plainly wrapped entry
#: point.  ``owner`` is a class or a module.
ENTRY_POINTS: Tuple[Tuple[Any, str, str, str], ...] = (
    (Simulator, "step", "sim.step", "sim"),
    (SwitchedNetwork, "send", "net.send", "net"),
    (SwitchedNetwork, "send_paced", "net.send_paced", "net"),
    (SimDisk, "read", "disk.read", "disk"),
    (Cub, "handle_message", "core.cub.handle_message", "core.cub"),
    (Controller, "handle_message", "core.controller.handle_message",
     "core.controller"),
    (ViewerClient, "handle_message", "core.client.handle_message",
     "core.client"),
    (NetworkSchedule, "find_offsets", "core.netschedule.find_offsets",
     "core.netschedule"),
    (NetworkSchedule, "can_insert", "core.netschedule.can_insert",
     "core.netschedule"),
    (NetworkSchedule, "peak_load_in", "core.netschedule.peak_load_in",
     "core.netschedule"),
    (NetworkSchedule, "load_at", "core.netschedule.load_at",
     "core.netschedule"),
    (NetworkSchedule, "insert", "core.netschedule.insert", "core.netschedule"),
    (NetworkSchedule, "remove", "core.netschedule.remove", "core.netschedule"),
    (MbrAdmission, "try_admit", "mbr.try_admit", "mbr"),
    (MbrAdmission, "release", "mbr.release", "mbr"),
    (MbrAdmission, "disk_time_committed", "mbr.disk_time_committed", "mbr"),
    (content_module, "index_file", "storage.index", "storage"),
    (CounterSeries, "increment", "obs.counter.increment", "obs"),
    (GaugeSeries, "set", "obs.gauge.set", "obs"),
    (GaugeSeries, "add", "obs.gauge.add", "obs"),
    (HistogramSeries, "observe", "obs.histogram.observe", "obs"),
    (Tracer, "emit", "obs.tracer.emit", "obs"),
)


def layer_of(module: str) -> str:
    """The layer a module's code is charged to."""
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    if module.startswith("repro."):
        return module[len("repro."):]
    return "bench"


def callback_key(fn: Callable[..., Any]) -> Tuple[str, str]:
    """``(layer, span name)`` for a scheduled callback."""
    target = getattr(fn, "__func__", fn)
    module = getattr(target, "__module__", None) or type(target).__module__
    name = getattr(target, "__qualname__", None) or type(target).__qualname__
    return layer_of(module), f"{module}:{name}"


class SpanRecorder:
    """In-memory span aggregation with a per-phase table.

    ``stats[phase][(layer, name)]`` is ``[calls, total_s, self_s]``.
    Counters that are not spans (events scheduled, cancelled, the peak of
    pending events) live in ``counts[phase]``.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, Dict[Tuple[str, str], List[float]]] = {}
        self.counts: Dict[str, Dict[str, float]] = {}
        self._current: Dict[Tuple[str, str], List[float]] = {}
        self._count: Dict[str, float] = {}
        # One child-time accumulator per open span, over a root entry
        # that collects the duration of every top-level span.
        self._stack: List[float] = [0.0]
        self._callback_keys: Dict[Any, Tuple[str, str]] = {}
        self._pending = 0
        self.enter("setup")

    def enter(self, phase: str) -> None:
        """Charge spans from now on to ``phase``."""
        self._current = self.stats.setdefault(phase, {})
        self._count = self.counts.setdefault(
            phase, {"scheduled": 0, "cancelled": 0, "pending_peak": 0}
        )
        self._count["pending_peak"] = max(
            self._count["pending_peak"], self._pending
        )

    def run_span(self, key: Tuple[str, str], fn, *args, **kwargs):
        """Call ``fn`` inside a span charged to ``key``."""
        stack = self._stack
        stack.append(0.0)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            inner = stack.pop()
            stack[-1] += elapsed
            stat = self._current.get(key)
            if stat is None:
                stat = self._current[key] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - inner

    def wrap(self, fn: Callable[..., Any], name: str, layer: str):
        key = (layer, name)
        run_span = self.run_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return run_span(key, fn, *args, **kwargs)

        return traced

    def dispatch(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run a scheduled callback inside its module's layer span."""
        # Closures made by one ``def`` share their code object, so the
        # name lookup runs once per call site, not once per event.
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        key = self._callback_keys.get(code)
        if key is None:
            key = callback_key(fn)
            if code is not None:
                self._callback_keys[code] = key
        self._pending -= 1
        return self.run_span(key, fn, *args)

    def wrap_callback(self, fn: Callable[..., Any]):
        """A periodic function as its own span (``Process.every``)."""
        run_span = self.run_span
        key = callback_key(fn)

        def periodic():
            return run_span(key, fn)

        return periodic

    def note_scheduled(self) -> None:
        self._pending += 1
        count = self._count
        count["scheduled"] += 1
        if self._pending > count["pending_peak"]:
            count["pending_peak"] = self._pending

    def note_cancelled(self) -> None:
        self._pending -= 1
        self._count["cancelled"] += 1

    @property
    def covered_s(self) -> float:
        """Time covered by top-level spans (= the sum of self times)."""
        return self._stack[0]

    def reset_covered(self) -> None:
        self._stack[0] = 0.0

    # ------------------------------------------------------------------
    def layer_table(self, phase: str) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s"}}`` for one phase."""
        table: Dict[str, Dict[str, float]] = {}
        for (layer, _name), (calls, _total, self_s) in self.stats.get(
            phase, {}
        ).items():
            row = table.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += self_s
        return table

    def span(self, phase: str, name: str) -> Tuple[int, float]:
        """``(calls, self_s)`` of one named span (any layer)."""
        calls, self_s = 0, 0.0
        for (_layer, span_name), stat in self.stats.get(phase, {}).items():
            if span_name == name:
                calls += stat[0]
                self_s += stat[2]
        return int(calls), self_s

    def span_rows(self, phase: str) -> List[Dict[str, Any]]:
        """Every span of one phase, by self time, for the written table."""
        rows = [
            {"layer": layer, "span": name, "calls": int(calls),
             "total_s": total, "self_s": self_s}
            for (layer, name), (calls, total, self_s)
            in self.stats.get(phase, {}).items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every entry point for the duration of the block.

    Install before the system is built: components that cache bound
    methods at construction then cache the wrapped ones.
    """
    saved = []

    def patch(owner: Any, attribute: str, value: Any) -> None:
        # An inherited method (CounterSeries.increment) is shadowed on
        # the subclass and the shadow deleted again on exit.
        saved.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, value)

    original_call_at = Simulator.call_at
    scheduling = recorder.wrap(original_call_at, "sim.call_at", "sim")
    dispatch = recorder.dispatch
    note_scheduled = recorder.note_scheduled

    def call_at(sim, time, fn, *args, priority=PRIORITY_NORMAL):
        event = scheduling(sim, time, dispatch, fn, *args, priority=priority)
        note_scheduled()
        return event

    original_every = Process.every

    def every(process, period, fn, jitter_fn=None):
        return original_every(
            process, period, recorder.wrap_callback(fn), jitter_fn
        )

    original_cancel = Event.cancel

    def cancel(event):
        if not event.cancelled and event.owner is not None:
            recorder.note_cancelled()
        original_cancel(event)

    try:
        patch(Simulator, "call_at", call_at)
        patch(Process, "every", every)
        patch(Event, "cancel", cancel)
        for owner, attribute, name, layer in ENTRY_POINTS:
            patch(owner, attribute,
                  recorder.wrap(getattr(owner, attribute), name, layer))
        yield recorder
    finally:
        for owner, attribute, value in reversed(saved):
            if value is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, value)
