"""The view a scripted session should see, by set algebra over its chips.

A :class:`ChipChain` follows one session's clicks with the benchmark's
own extents (an ``extent(chip)`` function over the current corpus) and
the service's documented semantics: an open runs the type query; a
refine intersects the current view with the chip's extent; negating or
removing a chip re-runs the remaining chips over the corpus; Back
restores the view (and chips) before the last click.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Click:
    """One scripted click and the chips counted just before it."""

    kind: str  # open | refine | negate | back | remove
    command: object
    previews: list = field(default_factory=list)
    #: The predicate a refining click adds (also among ``previews``).
    chip: object = None


class ChipChain:
    def __init__(self, extent):
        self.extent = extent
        self.view: frozenset = frozenset()
        #: [(chip, negated)], in chip order; chip 0 is the type chip.
        self.chips: list = []
        self._back: list = []

    def _rerun(self) -> frozenset:
        view = None
        for chip, negated in self.chips:
            extent = self.extent(chip)
            if view is None:
                view = extent
            elif negated:
                view = view - extent
            else:
                view = view & extent
        return frozenset(view)

    def count(self, chip) -> int:
        """What a preview of ``chip`` on the current view must count."""
        return len(self.view & self.extent(chip))

    def apply(self, kind: str, command, chip=None) -> frozenset:
        """Follow one click; returns the view it must produce."""
        if kind == "back":
            self.view, self.chips = self._back.pop()
            return self.view
        self._back.append((self.view, list(self.chips)))
        if kind == "open":
            self.chips = [(command.predicate, False)]
            self.view = self._rerun()
        elif kind == "refine":
            self.chips.append((chip, False))
            self.view = self.view & self.extent(chip)
        elif kind == "negate":
            part, negated = self.chips[command.index]
            self.chips[command.index] = (part, not negated)
            self.view = self._rerun()
        elif kind == "remove":
            del self.chips[command.index]
            self.view = self._rerun()
        else:
            raise ValueError(f"unknown click kind {kind!r}")
        return self.view


def check_click(chain, click, counts, items, ops, op, label) -> None:
    """One click's preview counts and resulting view against ``chain``.

    ``counts`` pairs each previewed chip's operation with the count it
    returned (None when the request itself failed); ``items`` is the
    set of items the click's view holds.
    """
    for chip, (p_op, count) in zip(click.previews, counts):
        if count is None:
            continue
        want = chain.count(chip)
        ops.check(
            p_op,
            count == want,
            f"{label}: preview of {chip!r} counted {count}, expected {want}",
        )
    want = chain.apply(click.kind, click.command, click.chip)
    ops.check(
        op,
        items == want,
        f"{label}: {click.kind} view holds {len(items)} items, expected "
        f"{len(want)}",
    )
    if click.chip is not None:
        count = counts[click.previews.index(click.chip)][1]
        ops.check(
            op,
            count == len(items),
            f"{label}: the applied chip was previewed at {count}, its view "
            f"holds {len(items)}",
        )
