"""ingest-recipes: writes beside reads on the 6,444-recipe corpus.

The corpus runs under ``EpochManager`` with inline ``publish()`` — no
reindexer thread, no timer.  A round starts a fresh manager over the
epoch-0 workspace and five live sessions, then takes eight steps.  Each
step ingests a seeded N-Triples batch of 20 new recipes with
``ingest_ntriples``, publishes, and lets each session take its next
click: it migrates lazily (``sync_session``, as the server does on a
session's first request after a publish), counts six chips on offer,
applies its next scripted command and runs the suggestion cycle.  The
session scripts are those of browse-recipes.  Every round performs the
same operations, so a run is a whole number of identical rounds.

Checks, after each step (the next step reads a new epoch, so they warm
nothing the timed clicks use):

* each publish grows the item universe by exactly the batch's new
  recipes.  ``EpochManager._fold`` re-derives the universe from every
  ``rdf:type`` subject, so the first publish of a round also admits the
  244 Ingredient resources: that publish is counted failed, as the one
  known fault, until the fold is mended;
* the Recipe type count and the cuisine and course counts equal those
  derived from the corpus plus the generated stream;
* each new recipe's unique title token finds exactly that recipe;
* every click's view and every preview count agree with the
  benchmark's own set algebra over the corpus and stream triples
  (:class:`recipe_scripts.RecipeOracle`).
"""

from __future__ import annotations

import gc
import itertools
import random
import time

from common import (
    RECIPE_SETUPS,
    RECIPES_FULL,
    RECIPES_SEED,
    RECIPES_SMOKE,
    Ops,
    Result,
    Timings,
    collector_paused,
    median,
    self_peak_rss_mb,
    settle,
)

#: Five sessions make a round (~30 s) longer than a run's measured
#: seconds, so every run is exactly one round.
SESSIONS = 5
#: Steps per round: one publish each, and one click per session, so a
#: session walks its whole eight-click script once per round.
STEPS = 8


def _check_publish(workspace, pools, oracle, batch, op, ops, step) -> None:
    from repro.query.ast import HasValue, TextMatch, TypeIs

    engine = workspace.query_engine
    recipes = engine.evaluate(TypeIs(pools.recipe_type))
    ops.check(
        op,
        set(recipes) == oracle.recipes,
        f"publish {step}: the Recipe view holds {len(recipes)}, the stream "
        f"{len(oracle.recipes)}",
    )
    for prop, values in (
        (pools.p_cuisine, pools.cuisines),
        (pools.p_course, pools.courses),
    ):
        for value in values:
            got = engine.count(HasValue(prop, value))
            want = len(oracle.extent(HasValue(prop, value)))
            ops.check(
                op,
                got == want,
                f"publish {step}: {value.n3()} counts {got}, the stream {want}",
            )
    for recipe, token in batch.tokens.items():
        found = engine.evaluate(TextMatch(token))
        ops.check(
            op,
            set(found) == {recipe},
            f"publish {step}: title token {token} finds {len(found)} items",
        )


def _round(base, corpus, pools, batches, scripts, timings, ops, layer):
    from repro.core.epochs import EpochManager
    from repro.service.manager import SessionManager

    from chain import ChipChain, check_click
    from recipe_scripts import RecipeOracle

    oracle = RecipeOracle(corpus, pools)
    epochs = EpochManager(base)
    engine = layer.clock.engine() if layer else None
    manager = SessionManager(base, engine=engine)
    manager.attach_epochs(epochs)
    names = [f"live-{index}" for index in range(len(scripts))]
    chains = {name: ChipChain(oracle.extent) for name in names}
    for name in names:
        manager.create(name)
    items = len(base.items)
    for step, batch in enumerate(batches):
        prior_store = epochs.current.workspace.vector_store
        prior = prior_store.maintenance.full_rebuilds
        begin = time.perf_counter()
        epochs.ingest_ntriples(batch.text)
        middle = time.perf_counter()
        epoch = epochs.publish()
        end = time.perf_counter()
        timings.other(end - begin)
        workspace = epoch.workspace
        publish_op = ops.new()
        oracle.add_batch(batch)
        grew = len(workspace.items) - items
        items = len(workspace.items)
        ops.check(
            publish_op,
            grew == len(batch.recipes),
            f"publish {step}: the universe grew by {grew}, the batch holds "
            f"{len(batch.recipes)} new items",
            known=step == 0,
        )
        if layer:
            # The fold refreshes the prior store and advances a new one.
            rebuilds = prior_store.maintenance.full_rebuilds - prior
            rebuilds += workspace.vector_store.maintenance.full_rebuilds
            layer.publish(begin, middle, end, workspace, rebuilds)
            layer.watch.watch(workspace)
        done = []
        for name, script in zip(names, scripts):
            click = script[step]
            begin = time.perf_counter()
            session = manager.sync_session(name)
            synced = time.perf_counter() - begin
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
            session.suggestions()
            elapsed = synced + time.perf_counter() - begin
            if click.kind == "open":
                timings.open(elapsed)
            else:
                timings.click(elapsed)
            counts = [(ops.new(), count) for count in counts]
            seen = frozenset(session.state.view.items)
            done.append((name, click, counts, seen, ops.new()))
        _check_publish(workspace, pools, oracle, batch, publish_op, ops, step)
        for name, click, counts, seen, op in done:
            check_click(chains[name], click, counts, seen, ops, op, name)
    for name in names:
        manager.remove(name)


class _Layers:
    """Per-layer bookkeeping of a traced ingest run."""

    def __init__(self):
        from layers import CacheWatch, LayerClock

        self.clock = LayerClock()
        self.watch = CacheWatch()
        self.ingest = []
        self.publish_s = []
        self.visible = []
        self.rebuilds = []
        self.postings = []

    def publish(self, begin, middle, end, workspace, rebuilds):
        self.ingest.append(middle - begin)
        self.publish_s.append(end - middle)
        self.visible.append(end - begin)
        self.rebuilds.append(rebuilds)
        postings = workspace.query_context.facet_postings_if_built()
        if postings is not None:
            self.postings.append(
                (postings.rebuilt_records, postings.reused_records)
            )

    def metrics(self, builds, busy):
        from layers import per_layer_metrics

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        return per_layer_metrics(
            self.clock,
            self.watch,
            {
                "core.epochs.ingest_ms": 1000.0 * mean(self.ingest),
                "core.epochs.publish_ms": 1000.0 * mean(self.publish_s),
                "core.epochs.visible_p50_ms": 1000.0 * median(self.visible),
                "index.store_rebuilds": mean(self.rebuilds),
                "perf.postings_rebuilt_records": mean(
                    [rebuilt for rebuilt, _reused in self.postings]
                ),
                "perf.postings_reused_records": mean(
                    [reused for _rebuilt, reused in self.postings]
                ),
                "datasets.build_s": median([b[0] for b in builds]),
                "core.workspace_build_s": median([b[1] for b in builds]),
                "trace.overhead_pct": self.clock.overhead_pct(busy),
            },
        )


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    from repro.core.workspace import Workspace
    from repro.datasets import recipes
    from recipe_scripts import RecipePools

    size = RECIPES_SMOKE if smoke else RECIPES_FULL
    setups, builds = [], []
    base = corpus = None
    for _ in range(1 if smoke else RECIPE_SETUPS):
        base = corpus = None
        gc.collect()
        begin = time.perf_counter()
        corpus = recipes.build_corpus(n_recipes=size, seed=RECIPES_SEED)
        built = time.perf_counter()
        base = Workspace(
            corpus.graph, schema=corpus.schema, items=corpus.items
        ).freeze()
        ready = time.perf_counter()
        setups.append(ready - begin)
        builds.append((built - begin, ready - built))

    pools = RecipePools(corpus)
    rng = random.Random(seed)
    batches = [pools.batch(rng, recipes.NS, step) for step in range(STEPS)]
    scripts = list(itertools.islice(pools.sessions(rng), SESSIONS))
    settle()

    layer = _Layers() if trace else None
    if layer:
        layer.clock.patch_program()
    timings = Timings()
    ops = Ops()
    rounds = 0
    try:
        window = time.perf_counter()
        while time.perf_counter() - window < seconds or not rounds:
            with collector_paused():
                _round(base, corpus, pools, batches, scripts, timings, ops, layer)
            rounds += 1
    finally:
        if layer:
            layer.clock.restore()
    metrics = timings.end_to_end(median(setups), self_peak_rss_mb())
    notes = {"rounds": rounds, **timings.counts()}
    if layer:
        notes["end_to_end"] = {k: v for k, (v, _u) in metrics.items()}
        metrics = layer.metrics(builds, timings.busy)
    return Result(ops, metrics, notes)
