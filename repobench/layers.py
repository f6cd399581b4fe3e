"""The per-layer map: which public functions each layer's spans wrap, and
the per-layer metrics folded from them.

Every span wraps a public function of one ``repro`` layer at the place
its callers look it up.  Span names carry the layer as their first
dotted component, so a layer's self time is the sum over its prefix.
Each :class:`LayerMetric` names the end-to-end metric and workload it
should move (``moves``); README.md renders the same table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from tracing import Fold, Recorder, Target

__all__ = ["TARGETS", "METRICS", "LayerContext", "layer_metrics",
           "jobs_started"]


def _keep_job(rec: Recorder, args, kwargs, result, pre) -> float:
    rec.kept.setdefault("jobs", []).append((perf_counter(), args[0], result))
    return 0.0


def _live_before_fail(args, kwargs) -> bool:
    sched, node = args[0], args[1]
    return sched.node_state(node).value != "drain"


def _n_pairs(rec, args, kwargs, result, pre) -> float:
    return float(len(args[1]))


def _batched(rec, args, kwargs, result, pre) -> float:
    return float(sum(len(batch) for batch in result))


def _unique(rec, args, kwargs, result, pre) -> float:
    return float(len(args[0]))


def _bytes_written(rec, args, kwargs, result, pre) -> float:
    return float(os.path.getsize(result))


def _found(rec, args, kwargs, result, pre) -> float:
    return 1.0 if result is not None else 0.0


def _counted(layer: str) -> list[Target]:
    return [Target(f"repro.obs:{fn}", layer, count_only=True)
            for fn in ("counter", "gauge", "histogram", "span")]


#: Specific targets come before a ``Class.*`` target of the same class,
#: which then skips them.
TARGETS: list[Target] = [
    # repro.scheduler
    Target("repro.scheduler.slurm:SlurmScheduler.submit", "scheduler.submit",
           measure=_keep_job),
    Target("repro.scheduler.slurm:SlurmScheduler.fail_node",
           "scheduler.fail_node", before=_live_before_fail,
           measure=lambda rec, a, k, r, live: float(live)),
    Target("repro.scheduler.slurm:SlurmScheduler.replace_node",
           "scheduler.replace_node"),
    Target("repro.scheduler.slurm:SlurmScheduler.*", "scheduler"),
    Target("repro.scheduler.slurm:place_job", "scheduler.place"),
    # repro.chaos
    Target("repro.chaos:run_chaos", "chaos"),
    Target("repro.chaos.engine:sample_timeline", "chaos.timeline"),
    Target("repro.chaos.heal:SparePool.*", "chaos.heal"),
    Target("repro.chaos.heal:build_heal_report", "chaos.heal"),
    # repro.resilience
    Target("repro.chaos.engine:frontier_fit_inventory", "resilience"),
    Target("repro.chaos.engine:checkpoint_efficiency", "resilience"),
    Target("repro.resilience.fit:FitInventory.*", "resilience"),
    Target("repro.resilience.mtti:MttiModel.*", "resilience"),
    Target("repro.resilience.blast_radius:FailureDomainModel.*", "resilience"),
    Target("repro.resilience.checkpoint:CheckpointPlan.*", "resilience"),
    Target("repro.resilience.adaptive:AdaptiveCheckpointController.*",
           "resilience"),
    Target("repro.resilience.adaptive:InterruptRateEstimator.*", "resilience"),
    # repro.obs (registry lookups: counted, not timed)
    *_counted("obs.lookups"),
    # repro.fabric
    Target("repro.fabric.network:build_dragonfly", "fabric.build"),
    Target("repro.fabric.routing:Router.__init__", "fabric.build"),
    Target("repro.fabric.topology:TopologyArrays.__init__", "fabric.build"),
    Target("repro.fabric.routing:Router.paths", "fabric.route",
           measure=_n_pairs),
    Target("repro.fabric.network:maxmin_allocate", "fabric.maxmin"),
    Target("repro.fabric.timeflow:incast_pattern", "fabric.pattern"),
    Target("repro.fabric.network:FabricNetwork.shift_pattern",
           "fabric.pattern"),
    Target("repro.fabric.network:FabricNetwork.flow_bandwidths",
           "fabric.flow"),
    Target("repro.fabric.timeflow:TimeflowEngine.__init__", "fabric.timeflow"),
    Target("repro.fabric.timeflow:TimeflowEngine.run", "fabric.timeflow"),
    Target("repro.fabric.timeflow:TimeflowEngine.run_ensemble",
           "fabric.timeflow"),
    # repro.serve
    Target("repro.serve.service:decode_line", "serve.protocol"),
    Target("repro.serve.service:encode_line", "serve.protocol"),
    Target("repro.serve.protocol:ScenarioRequest.from_wire", "serve.protocol"),
    Target("repro.serve.protocol:ScenarioRequest.task", "serve.protocol"),
    Target("repro.serve.protocol:ScenarioResponse.to_wire", "serve.protocol"),
    Target("repro.serve.protocol:ScenarioResponse.from_artifact",
           "serve.protocol"),
    Target("repro.serve.service:ScenarioService.submit", "serve.submit"),
    Target("repro.serve.service:form_batches", "serve.batch.form",
           measure=_batched),
    Target("repro.serve.service:execute_batch", "serve.batch.exec",
           measure=_unique),
    Target("repro.serve.cache:ResponseCache.get", "serve.cache"),
    Target("repro.serve.cache:ResponseCache.put", "serve.cache"),
    # repro.sweep (plan, runner and artifacts: the ledger)
    Target("repro.sweep.plan:task_hash", "sweep.task_hash"),
    Target("repro.serve.protocol:derive_seed", "sweep.task_hash"),
    Target("repro.sweep.probes:SWEEP_PROBES[*]", "sweep.probe"),
    Target("repro.serve.cache:write_artifact", "sweep.ledger.write",
           measure=_bytes_written),
    Target("repro.serve.cache:load_artifact", "sweep.ledger.read",
           measure=_found),
    # repro.core
    Target("repro.core.scenario:MachineSpec.to_dict", "core.spec"),
    Target("repro.core.scenario:MachineSpec.from_dict", "core.spec"),
    Target("repro.core.scenario:MachineSpec.scaled", "core.spec"),
]


def jobs_started(rec: Recorder, start: float = float("-inf"),
                 end: float = float("inf")) -> int:
    """Jobs submitted in ``[start, end]`` that their scheduler started,
    read through the public ``job()`` accessor after the fact (call with
    recording paused)."""
    return sum(1 for when, sched, job_id in rec.kept.get("jobs", ())
               if start <= when <= end
               and sched.job(job_id).start_time is not None)


@dataclass
class LayerContext:
    """Everything a per-layer metric is computed from, for one round."""

    fold: Fold
    counts: dict[str, int]
    #: workload-supplied values (simulated counts, client-side latency)
    extra: dict[str, float]

    def self_s(self, prefix: str) -> float:
        return self.fold.total(prefix)

    def calls(self, prefix: str) -> float:
        return self.fold.total(prefix, "calls")

    def work(self, prefix: str) -> float:
        return self.fold.total(prefix, "work")

    def get(self, key: str) -> float:
        return float(self.extra.get(key, 0.0))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _scheduler_calls(c: LayerContext) -> float:
    return c.calls("scheduler") - c.calls("scheduler.place")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: the end-to-end metric and workload this layer metric should move
    moves: str
    value: Callable[[LayerContext], float]
    #: a count that must repeat exactly across runs of one seed
    exact: bool = False


#: The scheduler, chaos, resilience and obs layers do most of their work
#: on ``chaos_frontier``, which is not gated (README.md).  Of the gated
#: workloads only ``serve_ledger`` moves them, through its chaos, heal and
#: placement probes at 24 nodes; those run no heal arm (default
#: resilience policy) and supply no per-event counts, so the metrics
#: marked ``_CHAOS_ONLY`` read 0 there.  Exact counts are checked only on
#: ``chaos_frontier``.
_CHAOS = "run_s on serve_ledger (gated); run_s on chaos_frontier (ungated)"
_CHAOS_ONLY = "run_s on chaos_frontier (ungated; reads 0 on serve_ledger)"
_FABRIC = "run_s on fabric_frontier"
_SERVE = "run_s on serve_ledger (and its latency, serve.p50_ms)"
_LEDGER = "run_s on serve_ledger (and its latency, serve.p50_ms)"

#: Times are seconds per round; counts are per round.
METRICS: list[LayerMetric] = [
    LayerMetric("scheduler.self_s", "s", "lower",
                _CHAOS,
                lambda c: c.self_s("scheduler")),
    LayerMetric("scheduler.place_s", "s", "lower", _CHAOS,
                lambda c: c.self_s("scheduler.place")),
    LayerMetric("scheduler.calls", "count", "lower", _CHAOS, _scheduler_calls),
    LayerMetric("scheduler.us_per_call", "us", "lower", _CHAOS,
                lambda c: _ratio(c.self_s("scheduler"), _scheduler_calls(c),
                                 1e6)),
    LayerMetric("scheduler.jobs_started", "count", "higher", _CHAOS,
                lambda c: c.get("scheduler.jobs_started"), exact=True),
    LayerMetric("scheduler.nodes_failed", "count", "lower", _CHAOS,
                lambda c: c.work("scheduler.fail_node")
                + c.calls("scheduler.replace_node"), exact=True),
    LayerMetric("scheduler.nodes_replaced", "count", "higher", _CHAOS_ONLY,
                lambda c: c.calls("scheduler.replace_node"), exact=True),
    LayerMetric("chaos.self_s", "s", "lower", _CHAOS,
                lambda c: c.self_s("chaos")),
    LayerMetric("chaos.timeline_s", "s", "lower", _CHAOS,
                lambda c: c.self_s("chaos.timeline")),
    LayerMetric("chaos.heal_s", "s", "lower", _CHAOS_ONLY,
                lambda c: c.self_s("chaos.heal")),
    LayerMetric("chaos.ms_per_event", "ms", "lower", _CHAOS_ONLY,
                lambda c: _ratio(c.self_s("chaos"), c.get("chaos.events"),
                                 1e3)),
    LayerMetric("chaos.events", "count", "higher", _CHAOS_ONLY,
                lambda c: c.get("chaos.events"), exact=True),
    LayerMetric("chaos.interrupts", "count", "lower", _CHAOS_ONLY,
                lambda c: c.get("chaos.interrupts"), exact=True),
    LayerMetric("chaos.replacements", "count", "higher", _CHAOS_ONLY,
                lambda c: c.get("chaos.replacements"), exact=True),
    LayerMetric("chaos.requeues", "count", "lower", _CHAOS_ONLY,
                lambda c: c.get("chaos.requeues"), exact=True),
    LayerMetric("resilience.self_s", "s", "lower", _CHAOS,
                lambda c: c.self_s("resilience")),
    LayerMetric("resilience.calls", "count", "lower", _CHAOS,
                lambda c: c.calls("resilience")),
    LayerMetric("obs.lookups", "count", "lower", _CHAOS,
                lambda c: c.counts.get("obs.lookups", 0)),
    LayerMetric("obs.lookups_per_event", "count/event", "lower", _CHAOS_ONLY,
                lambda c: _ratio(c.counts.get("obs.lookups", 0),
                                 c.get("chaos.events"))),
    LayerMetric("fabric.build_s", "s", "lower", _FABRIC,
                lambda c: c.self_s("fabric.build")),
    LayerMetric("fabric.route_s", "s", "lower", _FABRIC,
                lambda c: c.self_s("fabric.route")),
    LayerMetric("fabric.maxmin_s", "s", "lower", _FABRIC,
                lambda c: c.self_s("fabric.maxmin")),
    LayerMetric("fabric.pattern_s", "s", "lower", _FABRIC,
                lambda c: c.self_s("fabric.pattern")),
    LayerMetric("fabric.flow_s", "s", "lower", _FABRIC,
                lambda c: c.self_s("fabric.flow")),
    LayerMetric("fabric.timeflow_s", "s", "lower", _FABRIC,
                lambda c: c.self_s("fabric.timeflow")),
    LayerMetric("fabric.route.us_per_flow", "us", "lower", _FABRIC,
                lambda c: _ratio(c.self_s("fabric.route"),
                                 c.work("fabric.route"), 1e6)),
    LayerMetric("fabric.timeflow.us_per_scenario_step", "us", "lower", _FABRIC,
                lambda c: _ratio(c.self_s("fabric.timeflow"),
                                 c.get("fabric.timeflow.scenario_steps"), 1e6)),
    LayerMetric("fabric.flows_routed", "count", "lower", _FABRIC,
                lambda c: c.work("fabric.route"), exact=True),
    LayerMetric("fabric.maxmin.solves", "count", "lower", _FABRIC,
                lambda c: c.calls("fabric.maxmin"), exact=True),
    LayerMetric("fabric.timeflow.scenario_steps", "count", "higher", _FABRIC,
                lambda c: c.get("fabric.timeflow.scenario_steps"), exact=True),
    LayerMetric("serve.protocol_s", "s", "lower", _SERVE,
                lambda c: c.self_s("serve.protocol")),
    LayerMetric("serve.submit_s", "s", "lower", _SERVE,
                lambda c: c.self_s("serve.submit")),
    LayerMetric("serve.batch_s", "s", "lower", _SERVE,
                lambda c: c.self_s("serve.batch")),
    LayerMetric("serve.cache_s", "s", "lower", _SERVE,
                lambda c: c.self_s("serve.cache")),
    LayerMetric("serve.busy_frac", "ratio", "lower", _SERVE,
                lambda c: c.get("serve.busy_frac")),
    LayerMetric("serve.mean_batch", "requests", "higher", _SERVE,
                lambda c: _ratio(c.work("serve.batch.form"),
                                 c.calls("serve.batch.exec"))),
    LayerMetric("serve.coalesced", "count", "higher", _SERVE,
                lambda c: c.work("serve.batch.form")
                - c.work("serve.batch.exec")),
    LayerMetric("serve.hit_ratio", "ratio", "higher", _SERVE,
                lambda c: c.get("serve.hit_ratio")),
    LayerMetric("serve.disk_hits", "count", "higher", _SERVE,
                lambda c: c.work("sweep.ledger.read")),
    LayerMetric("serve.shed", "count", "lower", _SERVE,
                lambda c: c.get("serve.shed")),
    LayerMetric("serve.timeouts", "count", "lower", _SERVE,
                lambda c: c.get("serve.timeouts")),
    LayerMetric("sweep.task_hash_s", "s", "lower", _LEDGER,
                lambda c: c.self_s("sweep.task_hash")),
    LayerMetric("sweep.task_hash.per_request", "count", "lower", _LEDGER,
                lambda c: _ratio(c.calls("sweep.task_hash"),
                                 c.get("requests"))),
    LayerMetric("sweep.probe_s", "s", "lower", _LEDGER,
                lambda c: c.self_s("sweep.probe")),
    LayerMetric("sweep.ledger.write_s", "s", "lower", _LEDGER,
                lambda c: c.self_s("sweep.ledger.write")),
    LayerMetric("sweep.ledger.read_s", "s", "lower", _LEDGER,
                lambda c: c.self_s("sweep.ledger.read")),
    LayerMetric("sweep.ledger.writes", "count", "lower", _LEDGER,
                lambda c: c.calls("sweep.ledger.write")),
    LayerMetric("sweep.ledger.reads", "count", "lower", _LEDGER,
                lambda c: c.calls("sweep.ledger.read")),
    LayerMetric("sweep.ledger.bytes_written", "B", "lower", _LEDGER,
                lambda c: c.work("sweep.ledger.write")),
    LayerMetric("core.spec_s", "s", "lower",
                "run_s on serve_ledger, and setup_s",
                lambda c: c.self_s("core.spec")),
    # Client-side request latency: only the served workload has requests,
    # so these read 0 on the batch workloads.  serve.p50_ms and
    # serve.p99_ms come from the traced run's untraced rounds.
    LayerMetric("serve.p50_ms", "ms", "lower", "run_s on serve_ledger",
                lambda c: c.get("serve.p50_ms")),
    LayerMetric("serve.p99_ms", "ms", "lower", "run_s on serve_ledger",
                lambda c: c.get("serve.p99_ms")),
    LayerMetric("serve.hit_p50_ms", "ms", "lower", _SERVE,
                lambda c: c.get("serve.hit_p50_ms")),
    LayerMetric("serve.miss_p50_ms", "ms", "lower", _SERVE,
                lambda c: c.get("serve.miss_p50_ms")),
]

OVERHEAD = LayerMetric(
    "trace.overhead_frac", "ratio", "lower",
    "none: traced over untraced run_s, minus one",
    lambda c: c.get("trace.overhead_frac"))


def layer_metrics(contexts: list[LayerContext],
                  extra_metrics: list[LayerMetric] = ()
                  ) -> tuple[dict[str, dict[str, Any]], list[str]]:
    """Median per-round value of every metric, plus the names of exact
    counts that differed between rounds (each should be empty)."""
    import statistics
    out: dict[str, dict[str, Any]] = {}
    unstable: list[str] = []
    for m in [*METRICS, *extra_metrics]:
        values = [float(m.value(c)) for c in contexts]
        if m.exact and len(set(values)) > 1:
            unstable.append(m.name)
        out[m.name] = {"value": float(statistics.median(values)),
                       "unit": m.unit}
    return out, unstable
