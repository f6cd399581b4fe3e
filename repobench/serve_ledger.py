"""``serve_ledger``: a closed loop of cheap what-if requests against
``python -m repro serve`` (default policy: ``--workers 0``, 20 ms batch
window).

One load-generating process drives the service over two TCP
connections, each with a fixed window of outstanding requests.  The
machine is Frontier scaled to 6x4x4 (24 nodes) and only the
sub-millisecond probes are asked for.  Every round issues the same
seeded request template, so every round carries the same work:

* fresh tasks: a probe evaluation plus a ledger write each;
* repeats of tasks issued earlier in the round: "near" repeats follow
  their task closely and are usually coalesced into its batch, "far"
  repeats come at least ``FAR_GAP`` requests later and are memory hits;
* reads of a ledger pre-filled before timing with more tasks than the
  service's 1,024-slot memory LRU, read in a cycle longer than the LRU,
  so every read is a disk read.

Heavy requests (``congest``, ``mpigraph``) are kept out on purpose: one
quarter-second evaluation stalls the inline loop and lands in some
rounds but not others, which is noise, not signal.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

import numpy as np

import harness
from batch import Outcome
from harness import BenchError, metric

NAME = "serve_ledger"

SCALED = [6, 4, 4]
PROBES = ("storage", "comm", "placement", "compare", "chaos", "heal")
#: The class mix (60% fresh, 7.5% near and 7.5% far repeats, 25% reads)
#: and the 2 x 4 window are synthetic: no recorded serve traffic exists
#: to take them from.  Each run prints the share of summed request
#: latency each class took (``info.class_time_share``); README.md gives
#: measured shares.
FRESH_PER_PROBE = 120
NEAR_REPEATS = 90
FAR_REPEATS = 90
READS = 300
ROUND = len(PROBES) * FRESH_PER_PROBE + NEAR_REPEATS + FAR_REPEATS + READS
FAR_GAP = 64
#: Pre-filled tasks; more than the 1,024 LRU slots so a read cycle
#: always evicts a task before it comes round again.
PREFILL = 1500
CONNECTIONS = 2
WINDOW = 4
SETUP_REPEATS = 3
#: Untimed rounds per service before timing: the memory LRU fills and
#: starts evicting during the first, and the heap settles in the second.
WARMUP_ROUNDS = 2
ROUND_TIMEOUT_S = 120.0


# -- the request stream -------------------------------------------------------


def make_template(seed: int) -> list[tuple[str, int]]:
    """The per-round class sequence: ``(kind, arg)`` per position.

    ``fresh`` carries a probe index, ``near``/``far`` the position of the
    fresh request they repeat, ``read`` its index among the round's reads.
    """
    rng = np.random.default_rng([seed, 0x5E7E])
    probes = list(rng.permutation(np.repeat(np.arange(len(PROBES)),
                                            FRESH_PER_PROBE)))
    left = {"fresh": len(probes), "near": NEAR_REPEATS, "far": FAR_REPEATS,
            "read": READS}
    fresh_at: list[int] = []
    template: list[tuple[str, int]] = []
    reads = 0
    for pos in range(ROUND):
        far_target = next((p for p in reversed(fresh_at)
                           if p <= pos - FAR_GAP), None)
        kinds = [k for k, n in left.items() if n > 0
                 and (k != "near" or fresh_at)
                 and (k != "far" or far_target is not None)]
        if not kinds:
            raise BenchError("request template cannot place its repeats")
        weights = np.array([left[k] for k in kinds], dtype=float)
        kind = kinds[int(rng.choice(len(kinds), p=weights / weights.sum()))]
        left[kind] -= 1
        if kind == "fresh":
            template.append(("fresh", int(probes.pop())))
            fresh_at.append(pos)
        elif kind == "near":
            template.append(("near", fresh_at[-1]))
        elif kind == "far":
            template.append(("far", far_target))
        else:
            template.append(("read", reads))
            reads += 1
    return template


def _request(probe: str, task_seed: int) -> dict[str, Any]:
    return {"probe": probe, "scaled": SCALED, "seed": task_seed}


def prefill_requests(seed: int) -> list[dict[str, Any]]:
    rng = np.random.default_rng([seed, 0x1ED6])
    order = rng.permutation(np.arange(PREFILL) % len(PROBES))
    return [_request(PROBES[p], 10 ** 12 + seed * 10 ** 5 + j)
            for j, p in enumerate(order)]


def round_requests(template: list[tuple[str, int]], prefill: list[dict],
                   seed: int, round_index: int) -> list[dict[str, Any]]:
    """Round ``round_index``'s requests: new fresh tasks every round, the
    next ``READS`` pre-filled tasks of the read cycle."""
    out: list[dict[str, Any]] = []
    fresh = 0
    for kind, arg in template:
        if kind == "fresh":
            task_seed = seed * 10 ** 7 + round_index * 10 ** 4 + fresh
            out.append(_request(PROBES[arg], task_seed))
            fresh += 1
        elif kind in ("near", "far"):
            out.append(dict(out[arg]))
        else:
            out.append(dict(prefill[(round_index * READS + arg) % PREFILL]))
    for pos, req in enumerate(out):
        req["id"] = str(pos)
    return out


# -- the service child --------------------------------------------------------


class Service:
    """One ``repro serve`` child; with ``trace_out`` it boots through
    ``serve_boot.py`` under the layer wrappers."""

    def __init__(self, work: str, ledger: str, tag: str,
                 trace_out: str | None = None):
        self.ready = os.path.join(work, f"ready-{tag}.json")
        log_path = os.path.join(work, f"serve-{tag}.log")
        serve_args = ["serve", "--port", "0", "--ready-file", self.ready,
                      "--out", ledger]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable,
                   os.path.join(harness.BENCH_DIR, "serve_boot.py"),
                   trace_out, *serve_args]
        self.log_path = log_path
        self._log = open(log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=harness.child_env(),
                                     cwd=harness.ROOT, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        try:
            while not os.path.exists(self.ready):
                if self.proc.poll() is not None:
                    raise BenchError(f"service exited: {self.log_tail()}")
                if time.perf_counter() - start > 120:
                    raise BenchError("service not ready after 120 s")
                time.sleep(0.002)
            self.launch_s = time.perf_counter() - start
            with open(self.ready) as fh:
                addr = json.load(fh)
        except BaseException:
            self.stop()
            raise
        self.host, self.port = addr["host"], int(addr["port"])

    def log_tail(self) -> str:
        with open(self.log_path, errors="replace") as fh:
            return fh.read()[-2000:]

    def send_signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> int:
        harness.stop_process(self.proc)
        self._log.close()
        return self.proc.returncode


# -- the closed-loop client ---------------------------------------------------


class RoundResult:
    def __init__(self, n: int):
        self.latency_s = [0.0] * n
        self.replies: list[dict[str, Any] | None] = [None] * n
        self.wall_s = 0.0


async def _drive(reader, writer, lines: list[bytes], positions: range,
                 sent_at: list[float], result: RoundResult) -> None:
    window = asyncio.Semaphore(WINDOW)

    async def send() -> None:
        for i in positions:
            await window.acquire()
            sent_at[i] = time.perf_counter()
            writer.write(lines[i])
            await writer.drain()

    async def receive() -> None:
        for _ in positions:
            line = await reader.readline()
            now = time.perf_counter()
            if not line:
                raise BenchError("service closed the connection")
            doc = json.loads(line)
            i = int(doc["id"])
            result.latency_s[i] = now - sent_at[i]
            result.replies[i] = doc
            window.release()

    await asyncio.gather(send(), receive())


class Client:
    """Two persistent connections; rounds run back to back."""

    def __init__(self, service: Service):
        self.service = service
        self.conns: list[tuple[Any, Any]] = []

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            self.conns.append(await asyncio.open_connection(
                self.service.host, self.service.port))

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.conns = []

    async def round(self, requests: list[dict[str, Any]]) -> RoundResult:
        lines = [json.dumps(r, separators=(",", ":")).encode() + b"\n"
                 for r in requests]
        n = len(lines)
        result = RoundResult(n)
        sent_at = [0.0] * n
        start = time.perf_counter()
        await asyncio.wait_for(asyncio.gather(*(
            _drive(reader, writer, lines, range(c, n, CONNECTIONS), sent_at,
                   result)
            for c, (reader, writer) in enumerate(self.conns))),
            timeout=ROUND_TIMEOUT_S)
        result.wall_s = time.perf_counter() - start
        return result


# -- correctness --------------------------------------------------------------


def _canonical(values: Any) -> str:
    return json.dumps(values, sort_keys=True)


class Checker:
    """Every served answer against a direct ``execute_task`` of its task."""

    def __init__(self) -> None:
        #: request key -> (task id, canonical values)
        self.expected: dict[str, tuple[str, str]] = {}
        self.pending: list[tuple[dict[str, Any], dict[str, Any] | None]] = []

    @staticmethod
    def _key(request: dict[str, Any]) -> str:
        return f"{request['probe']}:{request['seed']}"

    def evaluate(self, request: dict[str, Any]) -> dict[str, Any]:
        """Evaluate ``request``'s task directly; remember it when ok."""
        from repro.serve.protocol import ScenarioRequest
        from repro.sweep.runner import execute_task
        task = ScenarioRequest.from_wire(request).task()
        doc = execute_task(task, isolate_obs=False)
        if doc["status"] == "ok":
            self.expected[self._key(request)] = (task.task_id,
                                                 _canonical(doc["values"]))
        return doc

    def add(self, requests: list[dict[str, Any]], result: RoundResult) -> None:
        self.pending.extend(zip(requests, result.replies))

    def failures(self) -> dict[str, int]:
        """Counts of wrong, errored, shed and timed-out answers."""
        counts = {"wrong": 0, "error": 0, "shed": 0, "timeout": 0}
        for request, reply in self.pending:
            status = reply.get("status") if reply else "error"
            if status != "ok":
                counts[status if status in counts else "error"] += 1
                continue
            key = self._key(request)
            if key not in self.expected:
                self.evaluate(request)
            if (reply.get("task_id"), _canonical(reply.get("values"))
                    ) != self.expected.get(key):
                counts["wrong"] += 1
        return counts


# -- the workload -------------------------------------------------------------


def _ms(latency_s: list[float], q: float) -> float:
    return harness.percentile(latency_s, q) * 1e3


def class_time_share(template: list[tuple[str, int]],
                     results: list[RoundResult]) -> dict[str, float]:
    """Each request class's share of the summed request latency."""
    totals = dict.fromkeys(("fresh", "near", "far", "read"), 0.0)
    for r in results:
        for (kind, _), latency in zip(template, r.latency_s):
            totals[kind] += latency
    whole = sum(totals.values())
    return {kind: round(t / whole, 4) for kind, t in totals.items()}


class _Run:
    """State of one benchmark run: request stream, ledger and checker."""

    def __init__(self, seed: int, work: str):
        from repro.sweep.artifacts import write_artifact
        self.seed = seed
        self.work = work
        self.ledger = os.path.join(work, "ledger")
        self.template = make_template(seed)
        self.prefill = prefill_requests(seed)
        self.checker = Checker()
        self.next_round = 0
        for request in self.prefill:
            doc = self.checker.evaluate(request)
            if doc["status"] != "ok":
                raise BenchError(f"pre-fill task failed: {doc.get('error')}")
            write_artifact(self.ledger, doc)

    def requests(self) -> list[dict[str, Any]]:
        requests = round_requests(self.template, self.prefill, self.seed,
                                  self.next_round)
        self.next_round += 1
        return requests

    async def rounds(self, client: Client, seconds: float,
                     on_window=None) -> list[RoundResult]:
        """Untimed warm-up rounds, then rounds for ``seconds``."""
        for _ in range(WARMUP_ROUNDS):
            warm = self.requests()
            self.checker.add(warm, await client.round(warm))
        if on_window is not None:
            on_window(signal.SIGUSR1)
        results: list[RoundResult] = []
        deadline = time.perf_counter() + seconds
        while len(results) < 3 or time.perf_counter() < deadline:
            requests = self.requests()
            result = await client.round(requests)
            self.checker.add(requests, result)
            results.append(result)
        if on_window is not None:
            on_window(signal.SIGUSR2)
        return results


async def _session(run: _Run, service: Service, seconds: float,
                   on_window=None) -> list[RoundResult]:
    client = Client(service)
    await client.open()
    try:
        return await run.rounds(client, seconds, on_window)
    finally:
        await client.close()


def _untraced(run: _Run, seconds: float) -> tuple[dict, dict]:
    launches = []
    for i in range(SETUP_REPEATS - 1):
        service = Service(run.work, run.ledger, f"setup{i}")
        launches.append(service.launch_s)
        service.stop()
    service = Service(run.work, run.ledger, "main")
    launches.append(service.launch_s)
    try:
        results = asyncio.run(_session(run, service, seconds))
        rss = harness.rss_peak_mb(service.proc.pid)
    finally:
        service.stop()
    metrics = {"setup_s": metric(statistics.median(launches), "s"),
               "run_s": metric(statistics.median(r.wall_s for r in results),
                               "s"),
               "peak_rss_mb": metric(rss, "MB")}
    # Request latency is recorded here but is not an end-to-end metric:
    # every end-to-end metric must exist on every workload, and the batch
    # workloads have no requests.  The traced run reports it per layer.
    p50, p99 = _round_percentiles(results)
    info = {"rounds": len(results), "samples_per_round": ROUND,
            "class_time_share": class_time_share(run.template, results),
            "round_s": [round(r.wall_s, 4) for r in results],
            "p50_ms": statistics.median(p50), "p99_ms": statistics.median(p99),
            "round_p50_ms": [round(v, 3) for v in p50],
            "round_p99_ms": [round(v, 3) for v in p99]}
    return metrics, info


def _round_percentiles(results: list[RoundResult]
                       ) -> tuple[list[float], list[float]]:
    """Each round's p50 and p99 request latency (ms); a round's 1,200
    samples leave 12 beyond p99."""
    return ([_ms(r.latency_s, 50) for r in results],
            [_ms(r.latency_s, 99) for r in results])


def _traced(run: _Run, seconds: float) -> tuple[dict, dict]:
    from layers import OVERHEAD, LayerContext, layer_metrics
    from tracing import Fold, scaled
    service = Service(run.work, run.ledger, "plain")
    try:
        plain = asyncio.run(_session(run, service, seconds / 2))
    finally:
        service.stop()
    trace_out = os.path.join(run.work, "trace.json")
    service = Service(run.work, run.ledger, "traced", trace_out=trace_out)
    try:
        traced = asyncio.run(_session(run, service, seconds / 2,
                                      on_window=service.send_signal))
    finally:
        code = service.stop()
    if code != 0:
        raise BenchError(f"traced service exited {code}: {service.log_tail()}")
    with open(trace_out) as fh:
        doc = json.load(fh)
    n = len(traced)
    hit_p50, miss_p50 = [], []
    cached = shed = timeouts = 0
    for r in traced:
        hits = [t for t, rep in zip(r.latency_s, r.replies) if rep.get("cached")]
        misses = [t for t, rep in zip(r.latency_s, r.replies)
                  if not rep.get("cached")]
        hit_p50.append(_ms(hits, 50))
        miss_p50.append(_ms(misses, 50))
        cached += len(hits)
        shed += sum(rep.get("status") == "shed" for rep in r.replies)
        timeouts += sum(rep.get("status") == "timeout" for rep in r.replies)
    plain_p50, plain_p99 = _round_percentiles(plain)
    overhead = (statistics.median(r.wall_s for r in traced)
                / statistics.median(r.wall_s for r in plain) - 1.0)
    f = Fold(self_s=doc["self_s"], calls=doc["calls"], work=doc["work"],
             root_s=doc["root_s"])
    context = LayerContext(
        fold=scaled(f, 1.0 / n),
        counts={k: v / n for k, v in doc["counts"].items()},
        extra={"requests": ROUND,
               "scheduler.jobs_started": doc["jobs_started"] / n,
               "serve.busy_frac": doc["root_s"] / doc["window_s"],
               "serve.hit_ratio": cached / (n * ROUND),
               "serve.shed": shed / n, "serve.timeouts": timeouts / n,
               "serve.p50_ms": statistics.median(plain_p50),
               "serve.p99_ms": statistics.median(plain_p99),
               "serve.hit_p50_ms": statistics.median(hit_p50),
               "serve.miss_p50_ms": statistics.median(miss_p50),
               "trace.overhead_frac": overhead})
    # One context holds the whole window's per-round means: its fresh
    # tasks differ every round, so no count here can be checked for
    # exact repeats (the batch workloads check theirs).
    metrics, _ = layer_metrics([context], [OVERHEAD])
    info = {"untraced_rounds": len(plain), "traced_rounds": n,
            "samples_per_round": ROUND,
            "class_time_share": class_time_share(run.template, traced)}
    return metrics, info


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    work = harness.fresh_work_dir(NAME)
    try:
        run_state = _Run(seed, work)
        metrics, info = (_traced if trace else _untraced)(run_state, seconds)
        failures = run_state.checker.failures()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(run_state.checker.pending)
    failed = sum(failures.values())
    info.update(failures=failures)
    return Outcome(correct=failed == 0, attempted=attempted, failed=failed,
                   metrics=metrics, info=info)
