"""refine-linked: in-process path refinement on the 64k linked corpus.

Sessions run through ``SessionManager`` with no suggestion cycles, so
the query engine and path evaluation do nearly all the work.  A session
opens the Paper type view, then takes six refining steps and one
negation; before each refining step it counts five candidate chips with
``preview_count`` (timed as one batch) and then applies one of them:

1. ``year`` range (15 years);
2. ``author/affiliation`` = institution (sequence path);
3. ``cites/author/affiliation`` = institution (three hops);
4. ``^cites/author`` = author (inverse step) — then negated;
5. ``author/affiliation/locatedIn*`` = country (closure step);
6. ``cites+`` = paper (closure over the cyclic citation graph).

Institutions are drawn uniformly among the eight largest, and the
country chip applied is the country of the session's institution, so
views stay non-empty and of similar size whatever the seed; authors
(4,096) and closure targets keep most path extents cold.  Closure targets are late papers whose set of transitive citers
the benchmark's own walk finds small, so no single click dominates a
run.

Checks run after the window: every view must equal the set algebra of
its chips over extents the benchmark computes itself — a breadth-first
walk over adjacency maps built from the triples, and range membership
read directly from the ``year`` literals.  Every preview count must
equal the size of the current view intersected with the chip's extent.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

from chain import ChipChain, Click, check_click
from common import (
    LINKED_FULL,
    LINKED_SMOKE,
    Ops,
    Result,
    Timings,
    collector_paused,
    self_peak_rss_mb,
    settle,
)

CANDIDATES = 5
INSTITUTIONS = 8
YEAR_SPAN = 14
#: Closure targets: drawn from the newest papers, kept when their
#: transitive citers number at most this many.
CLOSURE_TARGETS = 48
CLOSURE_CAP = 400


class Oracle:
    """Path extents by the benchmark's own walk over the triples."""

    def __init__(self, corpus):
        x = corpus.extras
        graph = corpus.graph
        self.papers = frozenset(corpus.items)
        self.forward: dict = {}
        self.backward: dict = {}
        for prop in (
            x["p_cites"], x["p_author"], x["p_affiliation"], x["p_located_in"]
        ):
            forward = defaultdict(set)
            backward = defaultdict(set)
            for s, _p, o in graph.triples(None, prop, None):
                forward[s].add(o)
                backward[o].add(s)
            self.forward[prop] = forward
            self.backward[prop] = backward
        self.year = {
            s: int(o.value) for s, _p, o in graph.triples(None, x["p_year"], None)
        }
        self._extents: dict = {}

    def _hop(self, nodes, prop, inverse: bool):
        """One backward hop: nodes whose ``prop`` edge reaches ``nodes``."""
        index = self.forward[prop] if inverse else self.backward[prop]
        out = set()
        for node in nodes:
            out |= index.get(node, set())
        return out

    def reach_back(self, nodes, prop, inverse, closure, cap=None):
        """Pre-image of ``nodes`` under one step, closures by BFS."""
        if closure == "":
            return self._hop(nodes, prop, inverse)
        reached = set(nodes) if closure == "*" else self._hop(nodes, prop, inverse)
        frontier = list(reached)
        while frontier:
            if cap is not None and len(reached) > cap:
                break
            step = self._hop(frontier, prop, inverse) - reached
            reached |= step
            frontier = list(step)
        return reached

    def extent(self, chip) -> frozenset:
        from repro.query.ast import Path, Range, TypeIs

        cached = self._extents.get(chip)
        if cached is not None:
            return cached
        if isinstance(chip, TypeIs):
            found = self.papers
        elif isinstance(chip, Range):
            found = frozenset(
                p for p, y in self.year.items() if chip.low <= y <= chip.high
            )
        elif isinstance(chip, Path):
            targets = {chip.value}
            for step in reversed(chip.steps):
                targets = self.reach_back(
                    targets, step.prop, step.inverse, step.closure
                )
            found = frozenset(targets & self.papers)
        else:
            raise TypeError(f"no oracle for {chip!r}")
        self._extents[chip] = found
        return found


class Pools:
    """Chip pools of the linked corpus."""

    def __init__(self, corpus, oracle: Oracle, rng):
        x = corpus.extras
        self.x = x
        self.paper_type = x["paper_type"]
        authors_at = oracle.backward[x["p_affiliation"]]
        by_size = sorted(
            x["institutions"], key=lambda i: (-len(authors_at.get(i, ())), i.n3())
        )
        #: The largest institutions, drawn uniformly: views stay non-empty
        #: and of similar size whatever the seed.
        self.institutions = by_size[:INSTITUTIONS]
        self.country_of = {
            i: next(iter(oracle.forward[x["p_located_in"]][i]))
            for i in self.institutions
        }
        self.countries = list(x["countries"])
        self.authors = list(x["authors"])
        papers = sorted(corpus.items, key=lambda n: n.n3())
        newest = papers[-max(CLOSURE_TARGETS * 8, len(papers) // 16):]
        self.targets = []
        for paper in rng.sample(newest, len(newest)):
            citers = oracle.reach_back(
                {paper}, x["p_cites"], False, "+", cap=CLOSURE_CAP
            )
            if len(citers) <= CLOSURE_CAP:
                self.targets.append(paper)
            if len(self.targets) == CLOSURE_TARGETS:
                break

    def session(self, rng):
        """One scripted session (8 clicks), drawn from ``rng``."""
        from repro.query.ast import Path, PathStep, Range, TypeIs
        from repro.service import commands as cmd

        x = self.x
        author, aff = PathStep(x["p_author"]), PathStep(x["p_affiliation"])
        cites = PathStep(x["p_cites"])
        cited_by = PathStep(x["p_cites"], inverse=True)
        located = PathStep(x["p_located_in"], closure="*")
        citing = PathStep(x["p_cites"], closure="+")

        def institution():
            return rng.choice(self.institutions)

        def step(make, draw, chosen=None):
            chips = [make(draw()) for _ in range(CANDIDATES)]
            at = rng.randrange(CANDIDATES)
            if chosen is not None:
                chips[at] = make(chosen)
            return chips, chips[at]

        def year_chip(low):
            return Range(x["p_year"], low=float(low), high=float(low + YEAR_SPAN))

        script = [Click("open", cmd.RunQuery(TypeIs(self.paper_type)))]
        shapes = [
            (year_chip, lambda: rng.randrange(1970, 2026 - YEAR_SPAN)),
            (lambda i: Path((author, aff), i), institution),
            (lambda i: Path((cites, author, aff), i), institution),
            (lambda a: Path((cited_by, author), a), lambda: rng.choice(self.authors)),
        ]
        chosen_at = []
        for make, draw in shapes:
            chips, chosen = step(make, draw)
            chosen_at.append(chosen)
            if isinstance(chosen, Range):
                command = cmd.ApplyRange(chosen.prop, chosen.low, chosen.high)
            else:
                command = cmd.Refine(chosen)
            script.append(Click("refine", command, chips, chosen))
        # Chips: 0 type, 1 year, 2 affiliation, 3 cited affiliation,
        # 4 inverse author — negate the last.
        script.append(Click("negate", cmd.NegateConstraint(4)))
        # The country chip applied is that of the affiliation chip's
        # institution, so it keeps the view.
        home = self.country_of[chosen_at[1].value]
        for make, draw, chosen in (
            (lambda c: Path((author, aff, located), c),
             lambda: rng.choice(self.countries), home),
            (lambda p: Path((citing,), p), lambda: rng.choice(self.targets),
             None),
        ):
            chips, chosen = step(make, draw, chosen)
            script.append(Click("refine", cmd.Refine(chosen), chips, chosen))
        return script


def _session(manager, name, script, timings, ops) -> list:
    """Run one scripted session; returns what the checks need per click."""
    session = manager.create(name)
    record = []
    for click in script:
        counts = []
        if click.previews:
            begin = time.perf_counter()
            for chip in click.previews:
                counts.append(session.preview_count(chip))
            timings.previews_counted(
                time.perf_counter() - begin, len(click.previews)
            )
        begin = time.perf_counter()
        session.apply(click.command)
        elapsed = time.perf_counter() - begin
        if click.kind == "open":
            timings.open(elapsed)
        else:
            timings.click(elapsed)
        previews = [(ops.new(), count) for count in counts]
        record.append((previews, frozenset(session.state.view.items), ops.new()))
    manager.remove(name)
    return record


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    from repro.core.workspace import Workspace
    from repro.datasets import linked
    from repro.service.manager import SessionManager

    size = LINKED_SMOKE if smoke else LINKED_FULL
    started = time.perf_counter()
    corpus = linked.build_corpus(size)
    built = time.perf_counter()
    workspace = Workspace(
        corpus.graph, schema=corpus.schema, items=corpus.items
    ).freeze()
    ready = time.perf_counter()
    oracle = Oracle(corpus)
    rng = random.Random(seed)
    pools = Pools(corpus, oracle, rng)
    settle()

    clock = watch = None
    if trace:
        from layers import CacheWatch, LayerClock

        clock, watch = LayerClock(), CacheWatch()
        watch.watch(workspace)
        clock.patch_program()
    timings = Timings()
    ops = Ops()
    sessions = []
    try:
        manager = SessionManager(workspace)
        window = time.perf_counter()
        while time.perf_counter() - window < seconds or not sessions:
            name = f"s{len(sessions)}"
            script = pools.session(rng)
            with collector_paused():
                record = _session(manager, name, script, timings, ops)
            sessions.append((name, script, record))
    finally:
        if clock is not None:
            clock.restore()
    peak_rss = self_peak_rss_mb()

    for name, script, record in sessions:
        chain = ChipChain(oracle.extent)
        for click, (counts, items, op) in zip(script, record):
            check_click(chain, click, counts, items, ops, op, name)
    metrics = timings.end_to_end(ready - started, peak_rss)
    notes = {"sessions": len(sessions), **timings.counts()}
    if trace:
        from layers import per_layer_metrics

        notes["end_to_end"] = {k: v for k, (v, _u) in metrics.items()}
        metrics = per_layer_metrics(
            clock,
            watch,
            {
                "datasets.build_s": built - started,
                "core.workspace_build_s": ready - built,
                "trace.overhead_pct": clock.overhead_pct(timings.busy),
            },
        )
    return Result(ops, metrics, notes)
