"""``fabric_frontier``: cold full-scale fabric studies.

Each round starts from ``clear_fabric_caches()`` and runs three steps:

1. build the full 37,888-endpoint Frontier fabric;
2. integrate the incast plus the k x backoff control grid (FIFO, then
   k in {10, 30, 60} x backoff in {0.25, 0.5, 0.75}) as one
   ``EnsembleEngine`` run on it;
3. flow-level mpiGraph on a 32x16x8 dragonfly (4,096 endpoints, 27
   shift offsets, 110,592 flows).

The steps are composed from ``build_network``, ``incast_pattern`` and
``EnsembleEngine`` directly rather than through ``run_congest``, whose
scale-down rules may change without changing this workload's input.
The integration horizon is chosen so that topology build, routing plus
max-min, and timeflow each take roughly a third of a round (README.md
gives a measured split).
"""

from __future__ import annotations

from typing import Any, Callable

NAME = "fabric_frontier"

KS = (10.0, 30.0, 60.0)
BACKOFFS = (0.25, 0.5, 0.75)
FANIN = 8
ELEPHANTS = 2
HORIZON_S = 2e-3
MPIGRAPH_GEOMETRY = (32, 16, 8)
QUANTILES = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


def setup() -> Any:
    """Imports and spec construction."""
    import repro.fabric.network  # noqa: F401
    import repro.fabric.timeflow  # noqa: F401
    import repro.microbench.mpigraph  # noqa: F401
    from repro.core.scenario import frontier_spec
    full = frontier_spec()
    return full, full.scaled(*MPIGRAPH_GEOMETRY)


def _grid() -> list[Any]:
    from repro.fabric.timeflow import TimeflowConfig
    warmup = HORIZON_S / 3
    cells = [TimeflowConfig(horizon_s=HORIZON_S, ecn=False, ecn_k=0.0,
                            warmup_s=warmup)]
    cells += [TimeflowConfig(horizon_s=HORIZON_S, ecn=True, ecn_k=k,
                             backoff=b, warmup_s=warmup)
              for k in KS for b in BACKOFFS]
    return cells


def make_round(specs: Any, seed: int) -> Callable[[], dict[str, Any]]:
    import repro.fabric.network as network
    import repro.fabric.timeflow as timeflow
    import repro.microbench.mpigraph as mpigraph
    full, small = specs
    cells = _grid()

    def round_() -> dict[str, Any]:
        network.clear_fabric_caches()
        net = full.build_network(rng=seed)
        flows = timeflow.incast_pattern(net, fanin=FANIN, elephants=ELEPHANTS,
                                        rng=seed)
        arms = timeflow.EnsembleEngine(net, flows, cells).run()
        del net
        hist = mpigraph.simulate_mpigraph(small.build_network(rng=seed))
        return {"arms": arms, "hist": hist}

    return round_


def digest_numbers(out: dict[str, Any]) -> list[float]:
    """mpiGraph bandwidth quantiles and every arm's class statistics."""
    hist = out["hist"]
    numbers: list[float] = [len(hist.bandwidths)]
    numbers += [hist.quantile(q) for q in QUANTILES]
    numbers += [hist.min_gbs, hist.max_gbs]
    for arm in out["arms"]:
        for name in sorted(arm.classes):
            c = arm.classes[name]
            numbers += [c.completed, c.bytes_injected, c.goodput]
            for stats in (c.fct, c.latency):
                numbers += [stats[k] for k in sorted(stats)]
    return numbers


def default_extra(specs: Any, seed: int) -> list[float]:
    return []


def layer_extra(out: dict[str, Any]) -> dict[str, float]:
    arms = out["arms"]
    return {"fabric.timeflow.scenario_steps":
            float(sum(arm.steps for arm in arms))}
