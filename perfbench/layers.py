"""The traced run: per-layer timings from wrappers around public calls.

Nothing inside the program is instrumented.  :class:`LayerClock` wraps
the public functions each layer exposes — on their classes or on the
objects the benchmark builds — and keeps, per layer name, the calls,
the total time and the self time (total minus the time of wrapped calls
made inside it).  Analysts are wrapped on the roster handed to
``NavigationEngine(analysts=...)``, so each analyst's self time and
posted-suggestion count is its own.  All wrapped calls run on one
thread.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

#: The standard analyst roster, by name (``core.analyst.<name>_*``).
ANALYST_NAMES = (
    "refine-by-property-value",
    "refine-by-path",
    "refine-by-text",
    "keyword-search-within",
    "refine-by-range",
    "similar-by-content-item",
    "similar-by-content-collection",
    "sharing-a-property",
    "contrary-constraints",
    "related-collections",
    "history-previous",
    "history-refinement",
    "similar-by-visit",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "net.server_ms": "ms",
    "net.hop_ms": "ms",
    "net.apply_bytes": "bytes",
    "net.suggest_bytes": "bytes",
    "service.apply_ms": "ms",
    "service.sync_ms": "ms",
    "core.suggest_ms": "ms",
    "core.advisors_ms": "ms",
    **{f"core.analyst.{name}_ms": "ms" for name in ANALYST_NAMES},
    **{f"core.analyst.{name}.posted": "count" for name in ANALYST_NAMES},
    "query.evaluate_ms": "ms",
    "query.count_ms": "ms",
    "query.path_extent_ms": "ms",
    "query.extent_hit_rate": "ratio",
    "perf.facet_profile_ms": "ms",
    "perf.facet_memo_hit_rate": "ratio",
    "perf.postings_rebuilt_records": "count",
    "perf.postings_reused_records": "count",
    "index.vector_ms": "ms",
    "index.store_rebuilds": "count",
    "core.epochs.ingest_ms": "ms",
    "core.epochs.publish_ms": "ms",
    "core.epochs.visible_p50_ms": "ms",
    "datasets.build_s": "s",
    "core.workspace_build_s": "s",
    "trace.wrapped_calls": "count",
    "trace.overhead_pct": "%",
}


class _Frame:
    __slots__ = ("child_time", "child_posted")

    def __init__(self):
        self.child_time = 0.0
        self.child_posted = 0


class LayerClock:
    """Calls, total and self time per wrapped layer name."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.posted: Counter = Counter()
        self._stack: list[_Frame] = []
        self._active: Counter = Counter()
        self._undo: list = []

    # -- wrapping -------------------------------------------------------

    def timed(self, name: str, fn, board_arg: int | None = None):
        """``fn`` wrapped to time itself under ``name``.

        A call re-entering ``name`` runs unwrapped, so recursion is not
        counted twice.  With ``board_arg`` the wrapper also counts the
        suggestions the call posted to the blackboard at that position,
        net of posts made by wrapped calls inside it.
        """
        clock = self

        def wrapper(*args, **kwargs):
            if clock._active[name]:
                return fn(*args, **kwargs)
            board = args[board_arg] if board_arg is not None else None
            before = len(board) if board is not None else 0
            frame = _Frame()
            clock._stack.append(frame)
            clock._active[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                clock._active[name] -= 1
                clock._stack.pop()
                clock.calls[name] += 1
                clock.total[name] += elapsed
                clock.self_time[name] += elapsed - frame.child_time
                posted = len(board) - before if board is not None else 0
                clock.posted[name] += posted - frame.child_posted
                if clock._stack:
                    parent = clock._stack[-1]
                    parent.child_time += elapsed
                    parent.child_posted += posted

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, board_arg=None) -> None:
        """Replace ``owner.attr`` by its timed wrapper until restore()."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, board_arg))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def engine(self):
        """A NavigationEngine over the standard roster, every part wrapped."""
        from repro.core.advisors import standard_advisors
        from repro.core.analysts import standard_analysts
        from repro.core.engine import NavigationEngine

        analysts = standard_analysts()
        names = tuple(analyst.name for analyst in analysts)
        if names != ANALYST_NAMES:
            raise RuntimeError(f"the standard roster changed: {names}")
        for analyst in analysts:
            label = f"core.analyst.{analyst.name}"
            analyst.analyze = self.timed(label, analyst.analyze, board_arg=1)
            if analyst.is_reactive():
                analyst.on_posted = self.timed(
                    label, analyst.on_posted, board_arg=1
                )
        advisors = standard_advisors()
        for advisor in advisors.values():
            advisor.select = self.timed("core.advisors", advisor.select)
            advisor.overflow_groups = self.timed(
                "core.advisors", advisor.overflow_groups
            )
        engine = NavigationEngine(analysts=analysts, advisors=advisors)
        engine.suggest = self.timed("core.suggest", engine.suggest)
        return engine

    def patch_program(self) -> None:
        """Wrap the service, query, perf and index calls on their classes."""
        from repro.core.workspace import Workspace
        from repro.index.store import VectorStore
        from repro.query.ast import QueryContext
        from repro.query.engine import QueryEngine
        from repro.service.manager import SessionManager
        from repro.service.navigation import NavigationService

        self.patch(NavigationService, "apply", "service.apply")
        self.patch(SessionManager, "sync_session", "service.sync")
        self.patch(QueryEngine, "evaluate", "query.evaluate")
        self.patch(QueryEngine, "count", "query.count")
        self.patch(QueryContext, "path_extent", "query.path_extent")
        self.patch(Workspace, "facet_profile", "perf.facet_profile")
        for method in (
            "search",
            "similar_to_item",
            "similar_to_collection",
            "search_text",
        ):
            self.patch(VectorStore, method, "index.vector")

    # -- reading --------------------------------------------------------

    def mean_ms(self, name: str) -> float:
        """Mean time per call in ms (0 when the layer was never called)."""
        calls = self.calls[name]
        return 1000.0 * self.total[name] / calls if calls else 0.0

    def per_cycle(self, name: str, cycles: int, self_time=False) -> float:
        """Time per suggestion cycle in ms (0 without cycles)."""
        if not cycles:
            return 0.0
        source = self.self_time if self_time else self.total
        return 1000.0 * source[name] / cycles

    def wrapped_calls(self) -> int:
        return sum(self.calls.values())

    def overhead_pct(self, busy_s: float) -> float:
        """Estimated wrapper cost as a share of the timed run, in %.

        The cost of one wrapped call is calibrated here, against a bare
        call of the same no-op, and multiplied by the wrapped calls.
        """
        if busy_s <= 0:
            return 0.0
        probe = LayerClock()
        wrapped = probe.timed("probe", _noop)
        rounds = 20_000
        start = time.perf_counter()
        for _ in range(rounds):
            _noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(rounds):
            wrapped()
        cost = max(0.0, (time.perf_counter() - start - bare) / rounds)
        return 100.0 * cost * self.wrapped_calls() / busy_s


def _noop():
    return None


class CacheWatch:
    """Hit rates of the extent cache and the facet memo over a window.

    Workspaces are registered as the run meets them; each contributes
    the change of its counters since registration.
    """

    def __init__(self):
        self._seen: dict[int, tuple] = {}

    @staticmethod
    def _read(workspace) -> tuple:
        extent = workspace.query_context.cache_stats
        memo = workspace.facet_profile_stats
        return (extent.hits, extent.misses, memo.hits, memo.misses)

    def watch(self, workspace) -> None:
        key = id(workspace)
        if key not in self._seen:
            self._seen[key] = (workspace, self._read(workspace))

    def rates(self) -> tuple[float, float]:
        totals = [0, 0, 0, 0]
        for workspace, start in self._seen.values():
            now = self._read(workspace)
            for index in range(4):
                totals[index] += now[index] - start[index]
        extent_hits, extent_misses, memo_hits, memo_misses = totals

        def rate(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        return rate(extent_hits, extent_misses), rate(memo_hits, memo_misses)


def per_layer_metrics(clock: LayerClock, watch: CacheWatch, extra: dict):
    """The full per-layer table; ``extra`` supplies workload-only values.

    A layer the workload never calls reads 0.
    """
    cycles = clock.calls["core.suggest"]
    extent_rate, memo_rate = watch.rates()
    values = {
        "net.server_ms": 0.0,
        "net.hop_ms": 0.0,
        "net.apply_bytes": 0.0,
        "net.suggest_bytes": 0.0,
        "service.apply_ms": clock.mean_ms("service.apply"),
        "service.sync_ms": clock.mean_ms("service.sync"),
        "core.suggest_ms": clock.per_cycle("core.suggest", cycles),
        "core.advisors_ms": clock.per_cycle("core.advisors", cycles),
        "query.evaluate_ms": clock.mean_ms("query.evaluate"),
        "query.count_ms": clock.mean_ms("query.count"),
        "query.path_extent_ms": clock.mean_ms("query.path_extent"),
        "query.extent_hit_rate": extent_rate,
        "perf.facet_profile_ms": clock.mean_ms("perf.facet_profile"),
        "perf.facet_memo_hit_rate": memo_rate,
        "perf.postings_rebuilt_records": 0.0,
        "perf.postings_reused_records": 0.0,
        "index.vector_ms": clock.per_cycle("index.vector", cycles),
        "index.store_rebuilds": 0.0,
        "core.epochs.ingest_ms": 0.0,
        "core.epochs.publish_ms": 0.0,
        "core.epochs.visible_p50_ms": 0.0,
        "trace.wrapped_calls": float(clock.wrapped_calls()),
    }
    for name in ANALYST_NAMES:
        label = f"core.analyst.{name}"
        values[f"{label}_ms"] = clock.per_cycle(label, cycles, self_time=True)
        values[f"{label}.posted"] = (
            clock.posted[label] / cycles if cycles else 0.0
        )
    values.update(extra)
    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: (values[name], PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}
