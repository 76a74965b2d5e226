"""Batch-assembly policies for the serving engine.

Two classic policies, both FCFS at admission:

* :class:`StaticBatchScheduler` — request-level (static) batching: a batch
  forms only when the device drains, reserves worst-case
  (``prompt + max_new``) KV for every member up front, and runs locked
  until *every* member exhausts its budget; finished members keep
  occupying their KV slot until the drain, and arrivals wait for it.
  This is the pre-continuous-batching serving baseline.

Both policies attribute decode work identically: a step computes exactly
the *live* rows (the shared :meth:`Scheduler.decode_members`).  Static
batching used to replay finished members' final rows as padding, which —
under the roofline's small-grid utilization penalty — made its padded
steps price *cheaper per live row* than continuous batching's exact
steps, silently breaking the continuous ≥ static throughput guarantee.
Static batching's real costs (drain-locked admission, worst-case
reservation) are modelled in ``admit``/``releasable``, not by phantom
compute.
* :class:`ContinuousBatchScheduler` — iteration-level scheduling (Orca /
  vLLM style): requests join the running batch the step they arrive and
  leave the step they finish; KV pages are reserved for the *current*
  context only, with a ``max_batch_tokens`` admission knob bounding the
  packed step size.

Schedulers only decide membership; pricing, preemption and token
accounting live in :mod:`repro.serving.engine`, which queues waiters in
a :class:`WaitQueue` ordered by :meth:`Scheduler.queue_key`.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator

from repro.core.errors import ConfigError
from repro.serving.kvcache import PagedKVCache
from repro.serving.request import RequestTracker


class WaitQueue:
    """Waiting trackers in ascending ``key`` order, held as a binary heap.

    ``push`` and ``pop`` are O(log n) and ``head`` is O(1), so a step
    never re-sorts the queue.  Keys end in the unique ``req_id``, so two
    trackers are never compared.
    """

    def __init__(self, key: Callable[[RequestTracker], tuple], trackers=()):
        self._key = key
        self._heap = [(key(tr), tr) for tr in trackers]
        heapq.heapify(self._heap)

    def push(self, tr: RequestTracker) -> None:
        heapq.heappush(self._heap, (self._key(tr), tr))

    def head(self) -> RequestTracker:
        return self._heap[0][1]

    def pop(self) -> RequestTracker:
        return heapq.heappop(self._heap)[1]

    def discard(self, tr: RequestTracker) -> None:
        """Drop ``tr`` if it is queued.  O(n), but only a request preempted
        in the same step it finished takes this path."""
        for i, (_, queued) in enumerate(self._heap):
            if queued is tr:
                del self._heap[i]
                heapq.heapify(self._heap)
                return

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[RequestTracker]:
        """The queued trackers in key order."""
        return (tr for _, tr in sorted(self._heap))


class Scheduler(ABC):
    """One admission/composition policy."""

    name: str = "scheduler"

    def __init__(self, max_batch_size: int = 16, max_batch_tokens: int = 65536):
        if max_batch_size < 1:
            raise ConfigError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_batch_tokens < 1:
            raise ConfigError(
                f"max_batch_tokens must be >= 1, got {max_batch_tokens}"
            )
        self.max_batch_size = max_batch_size
        self.max_batch_tokens = max_batch_tokens

    def queue_key(self, tr: RequestTracker) -> tuple:
        """Admission order of the waiting queue: FCFS by arrival."""
        return (tr.request.arrival_s, tr.req_id)

    @abstractmethod
    def admit(
        self,
        waiting: WaitQueue,
        running: list[RequestTracker],
        cache: PagedKVCache,
    ) -> list[RequestTracker]:
        """Pop admitted trackers off the head of ``waiting`` (reserving their
        KV) and return them; the engine prefills them this step."""

    def begin_step(self, now_s: float) -> None:
        """Hook: observe the simulated clock before this step's admission.

        The base policies are clock-free; SLO-aware scheduling
        (:class:`repro.serving.slo.SLOScheduler`) uses it to test how much
        of a waiter's TTFT budget is gone.
        """

    def deadline_victims(
        self,
        waiting: WaitQueue,
        running: list[RequestTracker],
        cache: PagedKVCache,
    ) -> list[RequestTracker]:
        """Running trackers to preempt *now* so a deadline-critical waiter
        can be admitted this step.  Default: never preempt for deadlines
        (memory-pressure preemption in the engine is separate)."""
        return []

    def decode_members(
        self, running: list[RequestTracker]
    ) -> list[tuple[RequestTracker, int]]:
        """(tracker, mask-row position) pairs computed in this decode step.

        Shared by every policy so per-step decode cost is attributed
        identically: exactly one row per *live* member.  Members whose
        chunked prefill is still streaming in hold pages but cannot
        decode yet — they are excluded until their last chunk lands.
        """
        return [
            (tr, tr.context_len)
            for tr in running
            if not tr.done and not tr.prefill_pending
        ]

    @abstractmethod
    def releasable(self, running: list[RequestTracker]) -> list[RequestTracker]:
        """Finished trackers whose KV pages may be freed now."""

    @property
    def allows_preemption(self) -> bool:
        return False


class StaticBatchScheduler(Scheduler):
    """FCFS request-level batching with worst-case KV reservation."""

    name = "static"

    def admit(self, waiting, running, cache):
        if running:           # locked batch still draining
            return []
        admitted: list[RequestTracker] = []
        budget = 0
        while waiting and len(admitted) < self.max_batch_size:
            tr = waiting.head()
            worst = tr.request.max_context
            if admitted and budget + worst > self.max_batch_tokens:
                break         # FCFS: no skipping past the head
            if not cache.reserve(tr.req_id, worst):
                # The head does not fit right now: wait for the drain.
                # Requests that can never fit at all are rejected by the
                # engine before the simulation starts, so this is always a
                # transient condition, never a dead end.
                break
            budget += worst
            admitted.append(waiting.pop())
        return admitted

    def releasable(self, running):
        # KV slots stay resident until the locked batch fully drains.
        if running and all(tr.done for tr in running):
            return list(running)
        return []


class ContinuousBatchScheduler(Scheduler):
    """Iteration-level join/evict batching with paged admission."""

    name = "continuous"

    @property
    def allows_preemption(self) -> bool:
        return True

    def admit(self, waiting, running, cache):
        admitted: list[RequestTracker] = []
        tokens = sum(tr.context_len for tr in running)
        while waiting and len(running) + len(admitted) < self.max_batch_size:
            tr = waiting.head()
            ctx = tr.context_len   # prompt, plus kept tokens after preemption
            if tokens + ctx > self.max_batch_tokens:
                break              # FCFS: no skipping past the head
            if not cache.reserve(tr.req_id, ctx):
                break
            # Keep one free page per resident request as decode headroom so
            # admission does not immediately force a preemption.  An empty
            # device always admits (solo fit is validated by the engine).
            others = len(running) + len(admitted)
            if others > 0 and cache.free_pages < others + 1:
                cache.release(tr.req_id)
                break
            tokens += ctx
            admitted.append(waiting.pop())
        return admitted

    def releasable(self, running):
        return [tr for tr in running if tr.done]


#: Registry keyed by the CLI/benchmark policy names.
SCHEDULERS: dict[str, type[Scheduler]] = {
    StaticBatchScheduler.name: StaticBatchScheduler,
    ContinuousBatchScheduler.name: ContinuousBatchScheduler,
}


def make_scheduler(
    name: str, max_batch_size: int = 16, max_batch_tokens: int = 65536
) -> Scheduler:
    """Instantiate a policy by registry name.

    >>> make_scheduler("continuous").name
    'continuous'
    """
    if name not in SCHEDULERS:
        raise ConfigError(
            f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[name](max_batch_size, max_batch_tokens)
