"""The shared driver of the two batch workloads.

A batch workload module provides ``NAME``, ``setup()`` (imports and spec
construction: what ``setup_s`` times in a fresh interpreter),
``make_round(context, seed)`` (the seeded round function, built outside
any timing), ``digest_numbers(output)`` (the simulated numbers of one
round's output), ``default_extra(context, seed)`` (further numbers
pinned for the default seed only) and ``layer_extra(output)``
(simulated counts the per-layer metrics need).

Every round replays the same seeded work, so every round is also a
replay for the correctness check: all replays must hash alike, and on
the default seed the hash must match the pinned digest.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any

import harness
from harness import metric

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    info: dict[str, Any] = field(default_factory=dict)


def _traced_rounds(wl: ModuleType, round_fn, seconds: float, digest):
    """Rounds under the layer wrappers; one :class:`LayerContext` each."""
    from layers import TARGETS, LayerContext, jobs_started
    from tracing import Recorder, fold, patched
    rec = Recorder()
    contexts: list[LayerContext] = []

    def after(out: Any) -> str:
        rec.paused += 1
        extra = dict(wl.layer_extra(out))
        extra["scheduler.jobs_started"] = jobs_started(rec)
        round_digest = digest(out)
        rec.paused -= 1
        contexts.append(LayerContext(fold=fold(rec), counts=dict(rec.counts),
                                     extra=extra))
        rec.clear()
        return round_digest

    with patched(TARGETS, rec):
        times, digests = harness.timed_rounds(round_fn, seconds, after=after,
                                              min_rounds=2)
    return contexts, times, digests


def run_batch(wl: ModuleType, seed: int, seconds: float,
              trace: bool) -> Outcome:
    setup_s = 0.0 if trace else harness.time_fresh_setup(wl.NAME,
                                                         SETUP_REPEATS)
    context = wl.setup()
    round_fn = wl.make_round(context, seed)

    def digest(out: Any) -> str:
        return harness.number_digest(wl.digest_numbers(out))

    warm = round_fn()                            # warm-up replay, untimed
    digests = [digest(warm)]
    info: dict[str, Any] = {}
    if trace:
        plain_times, plain_digests = harness.timed_rounds(
            round_fn, seconds / 2, after=digest, min_rounds=2)
        contexts, traced_times, traced_digests = _traced_rounds(
            wl, round_fn, seconds / 2, digest)
        digests += plain_digests + traced_digests
        overhead = (statistics.median(traced_times)
                    / statistics.median(plain_times) - 1.0)
        for c in contexts:
            c.extra["trace.overhead_frac"] = overhead
        from layers import OVERHEAD, layer_metrics
        metrics, unstable = layer_metrics(contexts, [OVERHEAD])
        info.update(untraced_rounds=len(plain_times),
                    traced_rounds=len(traced_times))
    else:
        times, timed_digests = harness.timed_rounds(round_fn, seconds,
                                                    after=digest)
        digests += timed_digests
        unstable = []
        metrics = {"setup_s": metric(setup_s, "s"),
                   "run_s": metric(statistics.median(times), "s"),
                   "peak_rss_mb": metric(harness.rss_peak_mb(), "MB")}
        info.update(rounds=len(times), round_s=[round(t, 4) for t in times])

    failed = sum(1 for d in digests if d != digests[0])
    correct = failed == 0 and not unstable
    info.update(replays=len(digests), replay_digest=digests[0])
    if unstable:
        info["unstable_counts"] = unstable
    if seed == harness.DEFAULT_SEED:
        pinned = harness.number_digest(
            [*wl.digest_numbers(warm), *wl.default_extra(context, seed)])
        info["default_digest"] = pinned
        if pinned != harness.recorded_digest(wl.NAME):
            correct = False
            failed = len(digests)
    return Outcome(correct=correct, attempted=len(digests), failed=failed,
                   metrics=metrics, info=info)
