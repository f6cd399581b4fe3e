"""``chaos_frontier``: full Frontier under accelerated faults, healing armed.

9,472 nodes at 50x the FIT inventory with a 12.5% warm spare pool,
``pack`` replacement and adaptive checkpointing.  A round replays the
run's seeded 12 h timeline through ``run_chaos``, which runs both the
requeue arm and the heal arm on it.  One timeline (about 1.5 s) per
round gives each run a couple of dozen rounds for the median.
Scheduler, chaos and resilience code do nearly all the work; fabric
measurement is off at this size and serve and the ledger are never
touched.  Not gated in ``BENCHMARK.json``: see README.md.
"""

from __future__ import annotations

from typing import Any, Callable

NAME = "chaos_frontier"

FAILURE_SCALE = 50.0
HORIZON_H = 12.0
TIMELINES_PER_ROUND = 1
#: Timelines are drawn until one holds an event count in this band.  The
#: count is Poisson (mean ~110, sd ~10.5) and replay cost follows it, so
#: without the band the work per round would differ by ~10% between
#: seeds, on top of the machine's own noise.
EVENT_BAND = (107, 113)


def setup() -> Any:
    """Imports and spec construction."""
    from dataclasses import replace

    import repro.chaos  # noqa: F401
    from repro.core.scenario import ResiliencePolicySpec, frontier_spec
    base = frontier_spec()
    return replace(
        base,
        degradation=replace(base.degradation, failure_scale=FAILURE_SCALE),
        resilience=ResiliencePolicySpec(spare_fraction=0.125,
                                        adaptive_checkpointing=True,
                                        replace_policy="pack"))


def timeline_seeds(spec: Any, seed: int) -> list[int]:
    """The round's timeline seeds: seeded draws, kept when in band."""
    import numpy as np

    from repro.chaos import sample_timeline
    from repro.resilience.fit import frontier_fit_inventory
    inventory = frontier_fit_inventory(nodes=spec.node_count).scaled(
        spec.degradation.failure_scale)
    rng = np.random.default_rng([seed, 0xC4A05])
    low, high = EVENT_BAND
    chosen: list[int] = []
    while len(chosen) < TIMELINES_PER_ROUND:
        candidate = int(rng.integers(2 ** 31 - 1))
        timeline = sample_timeline(inventory, total_nodes=spec.node_count,
                                   horizon_h=HORIZON_H, rng=candidate)
        if low <= len(timeline) <= high:
            chosen.append(candidate)
    return chosen


def _configs(seed: int, spec: Any) -> list[Any]:
    from repro.chaos import ChaosConfig
    return [ChaosConfig(horizon_h=HORIZON_H, seed=s, measure_fabric=False)
            for s in timeline_seeds(spec, seed)]


def make_round(spec: Any, seed: int) -> Callable[[], list[Any]]:
    import repro.chaos as chaos
    configs = _configs(seed, spec)

    def round_() -> list[Any]:
        return [chaos.run_chaos(spec, cfg) for cfg in configs]

    return round_


def _job_numbers(jobs: list[Any]) -> list[float]:
    out: list[float] = []
    for j in jobs:
        out += [j.n_nodes, j.interval_s, j.interrupts, j.running_h,
                j.queued_h, j.committed_h]
    return out


def digest_numbers(results: list[Any]) -> list[float]:
    """Heal-arm job reports and the heal report of every timeline."""
    out: list[float] = []
    for r in results:
        h = r.heal
        out += [len(r.timeline), r.machine_availability, r.node_down_hours,
                *_job_numbers(r.jobs),
                h.spare_target, h.replacements, h.requeues, h.replenished,
                h.spares_lost, h.baseline_job_availability,
                h.baseline_goodput, h.baseline_committed_h,
                h.healed_job_availability, h.healed_goodput,
                h.healed_committed_h]
    return out


def default_extra(spec: Any, seed: int) -> list[float]:
    """The requeue arm's own job reports, replayed once outside timing."""
    from dataclasses import replace

    import repro.chaos as chaos
    from repro.core.scenario import ResiliencePolicySpec
    requeue = replace(spec, resilience=ResiliencePolicySpec())
    out: list[float] = []
    for cfg in _configs(seed, spec):
        out += _job_numbers(chaos.run_chaos(requeue, cfg).jobs)
    return out


def layer_extra(results: list[Any]) -> dict[str, float]:
    return {
        "chaos.events": float(sum(len(r.timeline) for r in results)),
        "chaos.interrupts": float(sum(j.interrupts for r in results
                                      for j in r.jobs)),
        "chaos.replacements": float(sum(r.heal.replacements for r in results)),
        "chaos.requeues": float(sum(r.heal.requeues for r in results)),
    }
