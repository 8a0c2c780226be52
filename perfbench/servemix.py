"""Workload ``serve-mixed``: a restarted ``repro serve`` under a closed loop.

Requests use the Table-1 points (program, depth) whose spire-stage T-count
lies in ``POOL_T``, so that every request of one type costs about the
same.  A new program is a point's source plus a unique comment line:
distinct content, hence a distinct cache and journal key, with a known
cost.

Preparation (untimed) fills an artifact cache and the service journal in
process, through ``CompileService``: the spire-stage compile of every pool
point by name, and of ``PREP_PER_SECOND`` x seconds (at least
``PREP_MIN``) inline variants.  Then ``repro serve`` is launched over that
cache with its defaults (``--jobs 1``, 20 ms batch window): five times,
each launch timed until ``/healthz`` answers (it loads the journal), and
the last one stays up.
Two persistent connections from this process then drive it in a closed
loop -- callers wait for their replies -- with a seeded mix of four
request types:

* ``cold``   -- ``/compile`` of a new variant under ``spire``: admission
  lint, a compile, writes to the cache and the journal;
* ``prefix`` -- ``/compile`` of a prepared variant under ``spire+<pass>``:
  reads the spire-stage circuit from the cache and runs one gate pass;
* ``repeat`` -- ``/measure`` of a pool point by name, answered from the
  journal;
* ``reject`` -- ``/compile`` of a program that does not typecheck,
  bounced by admission with 422.

The shares of the four types are those of one ``repro loadgen`` replay
(``BLOCK``).  A block holds that count of each type in seeded order and a
run measures whole blocks, at least ``MIN_REQUESTS`` requests, so every
run has the same mix; its latency percentiles are those of each type,
weighted by the type's share (``mix_percentile``).  Afterwards every 200
row is compared, minus volatile keys, with a serial no-server
``BenchmarkRunner`` run of the same point, through ``loadgen``'s own
baseline check.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.benchsuite.cache import ArtifactCache
from repro.benchsuite.parallel import MEASURE, GridTask, stable_rows
from repro.benchsuite.programs import ENTRIES, SOURCES
from repro.passes import canonical_pipeline
from repro.serve import loadgen
from repro.serve.http import Client
from repro.serve.service import CompileService

from common import (
    ROOT,
    SETUP_REPEATS,
    HostSpeed,
    Layers,
    Outcome,
    Timings,
    cpu_busy_seconds,
    percentile,
    src_env,
)
from fuzzmix import trace_op
from layers import gate_layers
from table1 import CONFIG, EXPECTED, PASSES

CLIENTS = 2
#: requests of each type in one block: half the sends of one default
#: ``repro loadgen`` replay (``build_traffic([1, 2])``, each request sent
#: twice cold and once warm), which has 34 first sends of a compile or
#: measure (cold), 4 first sends of an optimizer request (a gate pass over
#: a compiled circuit: prefix), 76 resends of those (repeat) and 6 sends of
#: a broken program (reject); its 3 ``/lint`` sends have no type here
BLOCK = {"cold": 17, "prefix": 2, "repeat": 38, "reject": 3}
#: spire-stage T-count band of the Table-1 points requests are made of
POOL_T = (3000, 5000)
#: a run sends at least this many requests, for stable percentiles
MIN_REQUESTS = 400
#: prepared variants per measured second (and at least PREP_MIN); each
#: serves one prefix request per gate pass, and a run stops early (at a
#: block edge) if they run out
PREP_PER_SECOND = 3
PREP_MIN = 30
WORK = ROOT / ".perfbench-work"
LAUNCH_TIMEOUT = 60.0

Point = Tuple[str, int]
Request = Dict[str, Any]


def pool() -> List[Point]:
    """The (program, depth) points whose spire-stage T-count is in POOL_T."""
    points = json.loads(EXPECTED.read_text())["points"]
    found = []
    for key, row in sorted(points.items()):
        name, depth, gate_pass = key.split("|")
        if gate_pass == PASSES[0] and depth != "None" and (
            POOL_T[0] <= row["t"] <= POOL_T[1]
        ):
            found.append((name, int(depth)))
    return found


def variant(point: Point, tag: str) -> Dict[str, Any]:
    """A new program: the point's source with a unique comment line."""
    name, depth = point
    return {
        "source": f"{SOURCES[name]}// request {tag}\n",
        "entry": ENTRIES[name],
        "depth": depth,
    }


def reject_source(index: int) -> str:
    """A program that parses but does not typecheck (``uint + bool``)."""
    return (
        "fun main(x: uint) -> uint {\n"
        f"  let b{index} <- x == x;\n"
        f"  let y <- x + b{index};\n"
        "  return y;\n"
        "}\n"
    )


def prepared_variants(seed: int, count: int) -> List[Dict[str, Any]]:
    points = pool()
    return [variant(points[i % len(points)], f"{seed}-prep-{i}") for i in range(count)]


def blocks(seed: int, prepared: List[Dict[str, Any]]) -> Iterator[List[Request]]:
    """Seeded blocks of requests; ends when the prepared variants run out."""
    rng = random.Random(f"serve-mixed:{seed}")
    points = pool()
    prefix_jobs = {p: [dict(v) for v in prepared] for p in PASSES}
    for jobs in prefix_jobs.values():
        rng.shuffle(jobs)
    cold_index = 0
    reject_index = 0
    per_pass = BLOCK["prefix"] // len(PASSES)
    while all(len(jobs) >= per_pass for jobs in prefix_jobs.values()):
        block: List[Request] = []
        for _ in range(BLOCK["cold"]):
            payload = variant(rng.choice(points), f"{seed}-cold-{cold_index}")
            payload["optimization"] = "spire"
            block.append(
                {"kind": "cold", "path": "/compile", "payload": payload, "expect": "ok"}
            )
            cold_index += 1
        for gate_pass, jobs in prefix_jobs.items():
            for _ in range(per_pass):
                payload = jobs.pop()
                payload["optimization"] = f"spire+{gate_pass}"
                block.append(
                    {
                        "kind": "prefix",
                        "path": "/compile",
                        "payload": payload,
                        "expect": "ok",
                    }
                )
        for _ in range(BLOCK["repeat"]):
            name, depth = rng.choice(points)
            block.append(
                {
                    "kind": "repeat",
                    "path": "/measure",
                    "payload": {"name": name, "depth": depth, "optimization": "spire"},
                    "expect": "ok",
                }
            )
        for _ in range(BLOCK["reject"]):
            block.append(
                {
                    "kind": "reject",
                    "path": "/compile",
                    "payload": {"source": reject_source(reject_index)},
                    "expect": "reject",
                }
            )
            reject_index += 1
        rng.shuffle(block)
        yield block


# ------------------------------------------------------------- preparation
async def _prepare(cache: ArtifactCache, prepared: List[Dict[str, Any]]) -> List[Dict]:
    """Spire-stage compiles of every pool point and prepared variant,
    written to the cache and the service journal."""
    service = CompileService(config=CONFIG, cache=cache)
    tasks = [GridTask(MEASURE, name, depth, "spire") for name, depth in pool()]
    for payload in prepared:
        name = service.register_inline(payload["source"], payload["entry"])
        tasks.append(GridTask(MEASURE, name, payload["depth"], "spire"))
    await service.start()
    try:
        return await asyncio.gather(*(service.submit(task) for task in tasks))
    finally:
        await service.close()


class Server:
    """One ``repro serve`` child process over the prepared cache."""

    def __init__(self, cache_dir: str, log_path: str) -> None:
        self.log_path = log_path
        self.log = open(log_path, "w")
        self.port: Optional[int] = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", cache_dir,
                "--word-width", str(CONFIG.word_width),
                "--addr-width", str(CONFIG.addr_width),
                "--heap-cells", str(CONFIG.heap_cells),
            ],
            cwd=str(ROOT),
            env=src_env(),
            stdout=self.log,
            stderr=self.log,
        )
        try:
            self.port = self._wait_port(start)
            asyncio.run(self._wait_healthy(start))
        except BaseException:
            self.stop()
            raise
        self.launch_seconds = time.perf_counter() - start

    def _wait_port(self, start: float) -> int:
        marker = "listening on http://"
        while time.perf_counter() - start < LAUNCH_TIMEOUT:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self._log_text()}")
            text = self._log_text()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.005)
        raise RuntimeError("repro serve did not start listening")

    async def _wait_healthy(self, start: float) -> None:
        async with Client("127.0.0.1", self.port) as client:
            while time.perf_counter() - start < LAUNCH_TIMEOUT:
                status, body = await client.get("/healthz")
                if status == 200 and body.get("ok"):
                    return
                await asyncio.sleep(0.005)
        raise RuntimeError("repro serve never became healthy")

    def _log_text(self) -> str:
        with open(self.log_path) as fh:
            return fh.read()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """Ask for a clean shutdown; kill the process if it does not go."""
        if self.proc.poll() is None:
            try:
                if self.port is None:
                    raise OSError("server never listened")
                asyncio.run(self._shutdown())
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.log.close()

    async def _shutdown(self) -> None:
        async with Client("127.0.0.1", self.port) as client:
            await client.request("POST", "/shutdown")


# --------------------------------------------------------------- the loop
async def _closed_loop(
    server: "Server", requests: Iterator[List[Request]], seconds: float,
    host: HostSpeed,
) -> Tuple[List[Tuple[Request, float, int, Any]], Timings, float]:
    """Two clients, each sending its next request when the last returns.

    Blocks go one at a time: when one is done, a host-speed probe runs
    with no request in flight, and the probes around a block rescale the
    part of its time the CPU (client and server share one) was busy.
    No new block is started once ``seconds`` of rescaled time have been
    measured and at least ``MIN_REQUESTS`` requests were sent.  Returns
    the replies (with raw latencies), the timings, and the server's peak
    RSS over the first ``MIN_REQUESTS`` requests, rounded up to a whole
    block: a fixed amount of work, as the server grows with every new
    program it sees."""
    results: List[Tuple[Request, float, int, Any]] = []
    timings = Timings(host)
    peak_mb = 0.0
    pending: List[Request] = []

    async def client_loop(client: Client) -> None:
        while pending:
            request = pending.pop()
            start = time.perf_counter()
            status, body = await client.post(request["path"], request["payload"])
            results.append((request, time.perf_counter() - start, status, body))

    async with contextlib.AsyncExitStack() as stack:
        clients = [
            await stack.enter_async_context(Client("127.0.0.1", server.port))
            for _ in range(CLIENTS)
        ]
        host.probe()
        for block in requests:
            if timings.total() >= seconds and len(results) >= MIN_REQUESTS:
                break
            done = len(results)
            pending.extend(reversed(block))
            busy = cpu_busy_seconds()
            start = time.perf_counter()
            await asyncio.gather(*(client_loop(client) for client in clients))
            wall = time.perf_counter() - start
            busy = cpu_busy_seconds() - busy if busy >= 0 else None
            timings.add([secs for _r, secs, _s, _b in results[done:]], wall, busy)
            if not peak_mb and len(results) >= MIN_REQUESTS:
                peak_mb = server.peak_rss_mb()
    return results, timings, peak_mb


async def _get(port: int, path: str) -> Any:
    async with Client("127.0.0.1", port) as client:
        status, body = await client.get(path)
    if status != 200:
        raise RuntimeError(f"GET {path} returned {status}")
    return body


# ----------------------------------------------------------------- checks
def _reply_problem(request: Request, status: int, body: Any) -> str:
    """Why a reply is wrong for its request type ('' if it is right)."""
    kind = request["kind"]
    if status != (422 if kind == "reject" else 200):
        return f"status {status}, body {str(body)[:200]}"
    if kind == "reject":
        return ""
    row = body.get("row", {})
    marked = {
        "cold": not row.get("cached"),
        "prefix": bool(row.get("prefix_cached")),
        "repeat": bool(row.get("journal_resumed")),
    }[kind]
    return "" if marked and not row.get("failed") else f"row {str(row)[:200]}"


def check_requests(outcome: Outcome, results) -> None:
    """One verdict per request: the reply fits its type (422 for rejects,
    else 200 with a good row), and the row equals, minus volatile keys, a
    serial no-server run of the same point.  The serial run is made once
    per distinct point and every served row of that point is held to it."""
    problems = [_reply_problem(r, status, body) for r, _s, status, body in results]
    points: Dict[GridTask, List[int]] = {}
    for index, (request, _secs, _status, _body) in enumerate(results):
        if request["expect"] == "ok" and not problems[index]:
            points.setdefault(loadgen._baseline_task(request), []).append(index)
    for indices in points.values():
        first_request, _secs, _status, first = results[indices[0]]
        baseline: List[str] = []
        loadgen._serial_baseline([first_request], {0: first["row"]}, CONFIG, baseline)
        want = stable_rows([first["row"]])
        for index in indices:
            if baseline:
                problems[index] = baseline[0]
            elif stable_rows([results[index][3]["row"]]) != want:
                problems[index] = "row differs from the serial run of its point"
    for (request, _secs, _status, _body), problem in zip(results, problems):
        payload = request["payload"]
        label = payload.get("name") or payload.get("entry", "")
        outcome.record(not problem, f"{request['kind']} {label}: {problem}")


# -------------------------------------------------------------- workload
class Session:
    """Preparation, the five launches, the loop, and clean-up."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / f"serve-{os.getpid()}"
        self.cache = ArtifactCache(str(self.dir / "cache"))
        self.prepared = prepared_variants(
            seed, max(PREP_MIN, int(PREP_PER_SECOND * seconds))
        )
        self.server: Optional[Server] = None

    def prepare(self) -> None:
        rows = asyncio.run(_prepare(self.cache, self.prepared))
        bad = [row for row in rows if row.get("failed")]
        if bad:
            raise RuntimeError(f"preparation failed: {bad[0]}")

    def launch(self, host: HostSpeed) -> List[Tuple[float, int]]:
        """Launch the server SETUP_REPEATS times; the last stays up.
        Returns each launch's seconds and the probe taken right after it."""
        times = []
        host.probe()
        for attempt in range(SETUP_REPEATS):
            log = str(self.dir / f"serve-{attempt}.log")
            self.server = Server(str(self.cache.root), log)
            seconds = self.server.launch_seconds
            times.append((seconds, host.probe()))
            if attempt < SETUP_REPEATS - 1:
                self.server.stop()
        return times

    def drive(self, host: HostSpeed):
        return asyncio.run(
            _closed_loop(
                self.server, blocks(self.seed, self.prepared), self.seconds, host
            )
        )

    def __enter__(self) -> "Session":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there


def mix_percentile(kinds: List[str], latencies: List[float], q: float) -> float:
    """The q-quantile of each request type's latencies, weighted by the
    type's share of ``BLOCK``; ``kinds[i]`` is the type of ``latencies[i]``.

    A percentile over all requests would land in the tail of the repeat
    type, whose latency depends on whether a compile holds the server's
    interpreter lock at the time; across seeds its median moved between
    1 and 3 ms.  Each type's own percentile stays put.
    """
    total = sum(BLOCK.values())
    return sum(
        count / total
        * percentile([x for k, x in zip(kinds, latencies) if k == kind], q)
        for kind, count in BLOCK.items()
    )


def run(seed: int, seconds: float, outcome: Outcome, host: HostSpeed):
    """Returns the timings, a quantile function for them, the server's
    peak RSS and the launch times."""
    with Session(seed, seconds) as session:
        session.prepare()
        launches = session.launch(host)
        results, timings, peak = session.drive(host)
        session.server.stop()
        check_requests(outcome, results)
    kinds = [request["kind"] for request, _s, _st, _b in results]
    return timings, functools.partial(mix_percentile, kinds), peak, launches


def trace(seed: int, seconds: float, outcome: Outcome, layers: Layers) -> None:
    """The same loop, then the server's own metrics, then the cold and
    prefix requests replayed layer by layer in this process."""
    with Session(seed, seconds) as session:
        session.prepare()
        host = HostSpeed()
        session.launch(host)
        results, _timings, _peak = session.drive(host)
        metrics = asyncio.run(_get(session.server.port, "/metrics"))
        session.server.stop()
        check_requests(outcome, results)
        for kind in BLOCK:
            samples = [s for r, s, _st, _b in results if r["kind"] == kind]
            if samples:
                layers.add(f"serve.{kind}_p50_s", percentile(samples, 0.5))
        for endpoint in ("measure", "compile"):
            p50 = metrics["endpoints"].get(endpoint, {}).get("p50_seconds")
            layers.add(f"serve.{endpoint}_server_p50_s", p50 or 0.0)
        counters = metrics["counters"]
        for name in ("batches", "compile_executions", "journal_replays",
                     "dedupe_hits", "admission_rejects"):
            layers.add(f"serve.{name}", counters.get(name, 0))
        executed = sum(counters.get(n, 0) for n in
                       ("compile_executions", "cache_replays", "failed_rows"))
        if counters.get("batches"):
            layers.add("serve.batch_size_mean", executed / counters["batches"])
        layers.add("benchsuite.cache.bytes", session.cache.usage()["bytes"])
        replay_layers(outcome, layers, session, results, seconds)


def replay_layers(outcome: Outcome, layers: Layers, session: Session, results,
                  seconds: float) -> None:
    """Time the layers behind the served requests, from outside the server:
    the cold class through the fuzz trace, the prefix class through the
    cache reads, a cache write and the gate pass."""
    scratch = ArtifactCache(str(session.dir / "scratch-cache"))
    spire = canonical_pipeline("spire")
    started = time.perf_counter()
    for request, _secs, status, body in results:
        if time.perf_counter() - started >= seconds:
            break
        payload = request["payload"]
        if request["kind"] == "cold":
            program = ("cold", payload["source"], payload["entry"], CONFIG)
            trace_op(outcome, layers, program, payload["depth"])
        elif request["kind"] == "prefix" and status == 200:
            gate_pass = payload["optimization"].split("+", 1)[1]
            key = session.cache.key(
                source=payload["source"],
                entry=payload["entry"],
                config=CONFIG,
                depth=payload["depth"],
                pipeline=spire,
            )
            row = layers.time(
                "benchsuite.cache.load_point_s", session.cache.load_point, key
            )
            circuit = layers.time(
                "benchsuite.cache.load_circuit_s", session.cache.load_circuit, key
            )
            if row is None or circuit is None:
                outcome.record(False, f"{payload['entry']}: prepared artifact missing")
                continue
            layers.time(
                "benchsuite.cache.store_circuit_s", scratch.store_circuit, key, circuit
            )
            result = gate_layers(layers, circuit, gate_pass)
            served_t = body["row"]["t"]
            outcome.record(
                result.t_count() == served_t,
                f"{payload['entry']} {gate_pass}: replay T {result.t_count()}, "
                f"served {served_t}",
            )
