"""browse-recipes: scripted sessions over HTTP on the 6,444-recipe corpus.

The program runs as ``repro serve recipes --size 6444 --procs 2``: a
router and two forked worker replicas.  One client drives closed-loop
sessions (see :mod:`recipe_scripts`): each click is ``POST apply`` plus
``POST suggest``, and each batch of ``POST preview`` requests counts the
chips on offer.  Set-up is timed from process start until the router
reports both workers alive; it is repeated and the median reported.
Before the timed window, one untimed session opens the type view on
each worker, so every timed open finds the worker's one-time lazy
structures built.

Checks run after the window, against a workspace built in this process:
every served state must equal, byte for byte, the state an in-process
replay of the same commands serves; every view extension must equal the
naive :class:`~repro.check.reference.ReferenceModel`'s; every preview
count must equal the reference count, and the count of an applied chip
the size of the view it produced.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
import zlib

from common import (
    RECIPE_SETUPS,
    RECIPES_FULL,
    RECIPES_SEED,
    RECIPES_SMOKE,
    ROOT,
    Ops,
    Result,
    Timings,
    child_env,
    children_of,
    median,
    process_peak_rss_mb,
)

PROCS = 2
START_TIMEOUT_S = 120.0


class Server:
    """One ``repro serve`` process tree (router plus workers)."""

    def __init__(self, size: int):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve", "recipes",
                "--size", str(size), "--seed", str(RECIPES_SEED),
                "--procs", str(PROCS), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )
        self.workers: list[int] = []
        try:
            self.host, self.port = self._await_address()
            self._await_healthy()
            self.workers = children_of(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def _await_address(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                address = line.split()[2][len("http://"):]
                host, port = address.rsplit(":", 1)
                return host, int(port)
        raise RuntimeError("the server did not start")

    def _await_healthy(self) -> None:
        from repro.net.client import NavigationClient, ServerError

        client = NavigationClient(self.host, self.port, timeout=10.0)
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                health = client.healthz()
            except (OSError, ServerError):
                health = None
            if health and all(s["alive"] for s in health.get("shards", ())):
                if len(health["shards"]) == PROCS:
                    return
            time.sleep(0.05)
        raise RuntimeError("the server never reported every worker alive")

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the router and its workers."""
        return sum(
            process_peak_rss_mb(pid) for pid in [self.proc.pid, *self.workers]
        )

    def stop(self) -> None:
        """Drain the router, then wait until every worker has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        for pid in self.workers:
            _await_exit(pid)


def _await_exit(pid: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            return
        if stat[stat.rindex(")") + 2:].split()[0] in ("Z", "X"):
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return


def _name_on_shard(prefix: str, shard: int) -> str:
    """A session name the router sends to ``shard``."""
    index = 0
    while zlib.crc32(f"{prefix}{index}".encode("utf-8")) % PROCS != shard:
        index += 1
    return f"{prefix}{index}"


class SessionRecord:
    """What one served session did, kept for the checks."""

    def __init__(self, name, script):
        self.name = name
        self.script = script
        #: per click: (apply body, [(preview op, count)], click op)
        self.clicks: list = []


def _warm_up(host, port, pools, shard, errors: list) -> None:
    """Open the type view on one worker, untimed."""
    from repro.check.codec import command_to_dict
    from repro.net.client import NavigationClient

    try:
        client = NavigationClient(host, port)
        name = _name_on_shard("warm-", shard)
        client.create_session(name)
        opening = next(pools.sessions(random.Random(0)))[0].command
        client.apply(name, command_to_dict(opening))
        client.suggest(name)
        client.delete_session(name)
    except Exception as error:  # noqa: BLE001 - reported by the caller
        errors.append(error)


def _serve_session(client, record, timings, ops, net) -> None:
    """Drive one scripted session over HTTP; every request is timed."""
    from repro.check.codec import command_to_dict
    from repro.service.serialize import predicate_to_dict

    name = record.name
    base = f"/sessions/{name}"
    started = time.perf_counter()
    client.create_session(name)
    timings.other(time.perf_counter() - started)
    for click in record.script:
        bodies = [
            {"predicate": predicate_to_dict(p), "mode": "filter"}
            for p in click.previews
        ]
        command = {"command": command_to_dict(click.command)}
        counts = []
        if bodies:
            started = time.perf_counter()
            for body in bodies:
                status, raw = client.request_raw("POST", base + "/preview", body)
                counts.append((status, raw))
            elapsed = time.perf_counter() - started
            timings.previews_counted(elapsed, len(bodies))
            net["requests"] += len(bodies)
            net["request_s"] += elapsed
        started = time.perf_counter()
        status, applied = client.request_raw("POST", base + "/apply", command)
        s_status, suggested = client.request_raw("POST", base + "/suggest", {})
        ended = time.perf_counter()
        if click.kind == "open":
            timings.open(ended - started)
        else:
            timings.click(ended - started)
        net["requests"] += 2
        net["request_s"] += ended - started
        net["apply_bytes"].append(len(applied))
        net["suggest_bytes"].append(len(suggested))
        previews = []
        for p_status, raw in counts:
            op = ops.new()
            if p_status != 200:
                ops.fail(op, f"{name}: preview answered {p_status}")
                previews.append((op, None))
            else:
                previews.append((op, json.loads(raw)["result"]["count"]))
        op = ops.new()
        if status != 200 or s_status != 200:
            ops.fail(op, f"{name}: {click.kind} answered {status}/{s_status}")
        record.clicks.append((applied, previews, op))
    client.delete_session(name)


def _check_sessions(corpus, pools, workspace, records, ops) -> None:
    """Each served session against an in-process replay and the oracle."""
    from repro.net.protocol import canonical_json, ok_envelope, transition_payload
    from repro.service.manager import SessionManager

    from chain import ChipChain, check_click
    from recipe_scripts import RecipeOracle

    oracle = RecipeOracle(corpus, pools)
    manager = SessionManager(workspace)
    for record in records:
        session = manager.create(record.name)
        chain = ChipChain(oracle.extent)
        for click, (applied, previews, op) in zip(record.script, record.clicks):
            transition = session.apply(click.command)
            local = canonical_json(ok_envelope(transition_payload(transition)))
            ops.check(
                op,
                local == applied,
                f"{record.name}: the served {click.kind} state differs from "
                "the in-process replay",
            )
            check_click(
                chain, click, previews, frozenset(session.state.view.items),
                ops, op, record.name,
            )
        manager.remove(record.name)


def _net_metrics(before: dict, after: dict, net: dict) -> dict:
    histogram = "net.request_ms"
    start = before["histograms"][histogram]
    end = after["histograms"][histogram]
    served = end["count"] - start["count"]
    server_ms = (end["sum"] - start["sum"]) / served if served else 0.0
    client_ms = 1000.0 * net["request_s"] / net["requests"]
    return {
        "net.server_ms": server_ms,
        "net.hop_ms": client_ms - server_ms,
        "net.apply_bytes": sum(net["apply_bytes"]) / len(net["apply_bytes"]),
        "net.suggest_bytes": sum(net["suggest_bytes"]) / len(net["suggest_bytes"]),
    }


def _traced_replay(workspace, records):
    """Replay the window's sessions in process with every layer wrapped.

    The server runs in other processes, so the layers below the net
    layer are timed on this replay of the same sessions.
    """
    from repro.service.manager import SessionManager

    from layers import CacheWatch, LayerClock

    clock = LayerClock()
    watch = CacheWatch()
    watch.watch(workspace)
    clock.patch_program()
    started = time.perf_counter()
    try:
        manager = SessionManager(workspace, engine=clock.engine())
        for record in records:
            session = manager.create(f"replay-{record.name}")
            for click in record.script:
                for chip in click.previews:
                    session.preview_count(chip)
                session.apply(click.command)
                session.suggestions()
            manager.remove(f"replay-{record.name}")
    finally:
        clock.restore()
    return clock, watch, time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    from repro.core.workspace import Workspace
    from repro.datasets import recipes
    from repro.net.client import NavigationClient
    from recipe_scripts import RecipePools

    size = RECIPES_SMOKE if smoke else RECIPES_FULL
    setups = []
    server = None
    try:
        for _ in range(1 if smoke else RECIPE_SETUPS):
            if server is not None:
                server.stop()
                server = None
            started = time.perf_counter()
            server = Server(size)
            setups.append(time.perf_counter() - started)

        client = NavigationClient(server.host, server.port, keep_alive=True)
        # The scripts need the corpus; the workspace for the checks is
        # built after the server stops, so at most two processes work
        # at once.
        started = time.perf_counter()
        corpus = recipes.build_corpus(n_recipes=size, seed=RECIPES_SEED)
        built = time.perf_counter()
        pools = RecipePools(corpus)
        warm_errors: list = []
        warmers = [
            threading.Thread(
                target=_warm_up,
                args=(server.host, server.port, pools, shard, warm_errors),
            )
            for shard in range(PROCS)
        ]
        for warmer in warmers:
            warmer.start()
        for warmer in warmers:
            warmer.join()
        if warm_errors:
            raise warm_errors[0]

        scripts = pools.sessions(random.Random(seed))
        timings = Timings()
        ops = Ops()
        net = {"requests": 0, "request_s": 0.0, "apply_bytes": [],
               "suggest_bytes": []}
        records = []
        before = client.metrics() if trace else None
        window = time.perf_counter()
        while time.perf_counter() - window < seconds or not records:
            # Sessions alternate between the workers, in every run.
            index = len(records)
            name = _name_on_shard(f"s{index}-", index % PROCS)
            record = SessionRecord(name, next(scripts))
            records.append(record)
            _serve_session(client, record, timings, ops, net)
        after = client.metrics() if trace else None
        peak_rss = server.peak_rss_mb()
        client.close()
    finally:
        if server is not None:
            server.stop()

    workspace_began = time.perf_counter()
    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    workspace_built = time.perf_counter()
    _check_sessions(corpus, pools, workspace, records, ops)
    metrics = timings.end_to_end(median(setups), peak_rss)
    notes = {"sessions": len(records), **timings.counts()}
    if trace:
        from layers import per_layer_metrics

        clock, watch, replay_s = _traced_replay(workspace, records)
        extra = _net_metrics(before, after, net)
        extra["datasets.build_s"] = built - started
        extra["core.workspace_build_s"] = workspace_built - workspace_began
        extra["trace.overhead_pct"] = clock.overhead_pct(replay_s)
        notes["end_to_end"] = {k: v for k, (v, _u) in metrics.items()}
        metrics = per_layer_metrics(clock, watch, extra)
    return Result(ops, metrics, notes)
