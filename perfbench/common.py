"""Shared plumbing for the click-level benchmark: timing, checks, output.

Every workload measures the same kinds of user-facing operations:

* an *open* — the first click of a session, onto a type view;
* a *click* — every later click (apply, plus the suggestion cycle where
  the workload runs one);
* a *preview* — counting the chips on offer before a click.

:class:`Timings` turns those samples into the end-to-end metrics —
clicks as the mean over every timed click of the run (see README.md) —
and :class:`Ops` counts attempted and failed operations.  Checks may
run after the timed window; they mark operations failed by index.
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager
import resource
import statistics
import sys
from pathlib import Path

#: The hash seed of every process the benchmark runs, itself included.
HASH_SEED = "0"

#: The repository root: the parent of this benchmark's directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups measured per run on the recipe workloads (their median is
#: reported).  The 64k linked corpus takes ~20 s to build, so
#: refine-linked sets up once.
RECIPE_SETUPS = 2

#: Corpus sizes: the paper's full recipe set and the 64k linked corpus,
#: and the small sizes of the smoke mode.
RECIPES_FULL = 6444
RECIPES_SMOKE = 300
LINKED_FULL = 65_536
LINKED_SMOKE = 2048
#: The recipe corpus seed (the bundled default).
RECIPES_SEED = 7


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}; run from a checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def settle() -> None:
    """Collect, then move every object alive so far out of the collector.

    Called once after set-up by the in-process workloads: the corpus and
    its indexes live for the whole run, so later collections need not
    walk their millions of objects.
    """
    gc.collect()
    gc.freeze()


@contextmanager
def collector_paused():
    """Run one unit of work (a session, a round) with the collector off.

    As ``timeit`` does, the cyclic collector is kept out of the timed
    clicks: where a collection lands depends on every allocation before
    it, so it would move medians from seed to seed.  Garbage is
    collected, untimed, before each unit; the peak memory of a unit
    with its garbage uncollected shows in ``peak_rss_mb``.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def median(values) -> float:
    return float(statistics.median(values))


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of another process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_of(pid: int) -> list[int]:
    """Direct child pids of ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name is parenthesised and may hold spaces.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            found.append(int(entry))
    return sorted(found)


class Ops:
    """Attempted and failed operations; a failure is marked once."""

    def __init__(self):
        self.attempted = 0
        self._failed: dict[int, str] = {}
        self._known: set[int] = set()

    def new(self) -> int:
        """Count one attempted operation; returns its index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, index: int, reason: str, known: bool = False) -> None:
        if index not in self._failed:
            self._failed[index] = reason
            if known:
                self._known.add(index)

    def check(self, index: int, ok: bool, reason: str, known: bool = False):
        if not ok:
            self.fail(index, reason, known)

    @property
    def failed(self) -> int:
        return len(self._failed)

    def unexpected(self) -> list[str]:
        """Reasons of failures that are not the workload's known fault."""
        return [
            reason
            for index, reason in sorted(self._failed.items())
            if index not in self._known
        ]


class Timings:
    """Samples of user-facing operations, in seconds.

    ``busy`` is the time spent inside timed operations; the benchmark's
    own checks run outside it, so they never count as run time.
    """

    def __init__(self):
        self.opens: list[float] = []
        self.clicks: list[float] = []
        self.previews = 0
        self.busy = 0.0

    def open(self, seconds: float) -> None:
        self.opens.append(seconds)
        self.busy += seconds

    def click(self, seconds: float) -> None:
        """A non-opening click."""
        self.clicks.append(seconds)
        self.busy += seconds

    def previews_counted(self, seconds: float, count: int) -> None:
        """A batch of ``count`` previews; it counts as timed work."""
        self.previews += count
        self.busy += seconds

    def other(self, seconds: float) -> None:
        """Timed work that is neither a click nor a preview."""
        self.busy += seconds

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict:
        if not self.opens or not self.clicks:
            raise RuntimeError("the run timed no opens or no clicks")
        return {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "open_ms": (1000.0 * median(self.opens), "ms"),
            "click_ms": (1000.0 * statistics.fmean(self.clicks), "ms"),
            "clicks_per_s": (
                (len(self.opens) + len(self.clicks)) / self.busy,
                "1/s",
            ),
        }

    def counts(self) -> dict:
        return {
            "opens": len(self.opens),
            "clicks": len(self.clicks),
            "previews": self.previews,
            "busy_s": round(self.busy, 3),
        }


class Result:
    """What one run reports."""

    def __init__(self, ops: Ops, metrics: dict, notes: dict | None = None):
        self.ops = ops
        self.metrics = metrics
        self.notes = notes or {}

    def as_dict(self) -> dict:
        return {
            "correct": not self.ops.unexpected(),
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
