"""Layer calls, failure attribution and span recording for the benchmark.

Every call the benchmark makes into a public function of `frankl_lab`
goes through `Recorder.call`, named after the layer it exercises
(for example "search.bb_f" or "families.union_closure").  With tracing
off the recorder only turns an exception into a failed task; with
tracing on it also records one span per call: name, parent span, task
id, start and end.  Spans stay in memory until the run ends.

All spans come from the benchmark's own code; nothing inside the
package is instrumented.
"""

from __future__ import annotations

import time

TASK_SPAN = "bench.task"


class TaskFailed(Exception):
    """A task gave a wrong result or one of its layer calls raised."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


def expect(layer: str, ok: bool, message: str) -> None:
    """Fail the running task, blaming `layer`, unless `ok` holds."""
    if not ok:
        raise TaskFailed(layer, message)


class Recorder:
    """Runs tasks and their layer calls; keeps spans while `traced` is set.

    A span is the tuple (name, parent index, task id, start ns, end ns);
    the parent index is -1 for a task span.  Work counters reported by
    the layers (nodes, pivots, rows, ...) are summed in `counts`.
    """

    def __init__(self) -> None:
        self.traced = False
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.task_id = -1
        self._parent = -1

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def call(self, layer: str, fn, *args):
        """Return fn(*args); an exception from it fails the task, blamed on `layer`."""
        opened = self._open() if self.traced else None
        try:
            return fn(*args)
        except Exception as exc:
            raise TaskFailed(layer, f"raised {type(exc).__name__}: {exc}") from exc
        finally:
            if opened:
                self._close(layer, opened)

    def task(self, task_id: int, run) -> None:
        """Run one task; when traced, it is the root span of its layer calls."""
        self.task_id = task_id
        opened = self._open() if self.traced else None
        try:
            run(self)
        finally:
            if opened:
                self._close(TASK_SPAN, opened)

    def _open(self) -> tuple[int, int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, index
        return index, parent, time.perf_counter_ns()

    def _close(self, name: str, opened: tuple[int, int, int]) -> None:
        end = time.perf_counter_ns()
        index, parent, start = opened
        self.spans[index] = (name, parent, self.task_id, start, end)
        self._parent = parent


def self_seconds(spans: list, first: int, last: int, factor) -> dict[str, float]:
    """Self time per span name over spans[first:last], in corrected seconds.

    A span's self time is its duration minus the time its child spans
    cover.  Calls run one at a time on one thread, so children never
    overlap and the covered time is the sum of their durations.  Each
    span's self time is multiplied by factor(task id), the speed
    correction of its task (see refclock.py).
    """
    child_ns = [0] * (last - first)
    for name, parent, _, start, end in spans[first:last]:
        if parent >= first:
            child_ns[parent - first] += end - start
    totals: dict[str, float] = {}
    for offset, (name, _, task, start, end) in enumerate(spans[first:last]):
        own = (end - start - child_ns[offset]) / 1e9 * factor(task)
        totals[name] = totals.get(name, 0.0) + own
    return totals
