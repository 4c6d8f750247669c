"""Incremental ring expansion — paper Section 8.

"Quartz … can be incrementally deployed as needed to cut latency in
portions of DCNs, or to allow incremental deployment of a core switch.
… switches and WDMs can be added as needed."

Growing a live ring from ``M`` to ``M′`` switches inserts the new
switches into the physical ring (we model insertion at the seam, between
switch ``M − 1`` and switch 0).  Existing transceivers are tuned to
fixed wavelengths, so a good expansion *preserves* as many existing
channel assignments as possible and reports exactly which pairs must be
re-tuned:

* every surviving pair keeps its ring direction; its fibre arc is
  recomputed for the larger ring (arcs across the seam lengthen);
* pairs whose kept wavelength now clashes on the new segments are
  re-assigned (counted as re-tunes);
* pairs involving the new switches are assigned greedily afterwards.

:func:`expand_plan` returns the new plan plus the re-tune report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.channels import (
    ChannelAssignmentError,
    ChannelPlan,
    PathAssignment,
    arc_links,
    first_fit,
    ring_distance,
)


class ExpansionError(ValueError):
    """Raised for invalid expansion requests."""


@dataclass(frozen=True)
class ExpansionResult:
    """Outcome of growing a ring."""

    plan: ChannelPlan
    #: Pairs that kept their original wavelength (no re-tuning needed).
    preserved: tuple[tuple[int, int], ...]
    #: Existing pairs whose wavelength had to change.
    retuned: tuple[tuple[int, int], ...]
    #: Pairs that are new (involve an added switch).
    added: tuple[tuple[int, int], ...]

    @property
    def retune_fraction(self) -> float:
        """Share of pre-existing channels that had to be re-tuned."""
        existing = len(self.preserved) + len(self.retuned)
        return len(self.retuned) / existing if existing else 0.0


def expand_plan(
    old: ChannelPlan,
    new_ring_size: int,
    max_channels: int | None = None,
) -> ExpansionResult:
    """Grow ``old`` to ``new_ring_size`` switches, minimizing re-tunes."""
    m_old = old.ring_size
    m_new = new_ring_size
    if m_new < m_old:
        raise ExpansionError(f"cannot shrink a ring ({m_old} → {m_new})")
    if m_new == m_old:
        return ExpansionResult(
            plan=old,
            preserved=tuple(a.pair for a in old.assignments),
            retuned=(),
            added=(),
        )

    # channel_used[link] = bitmask of wavelength indices occupied on that segment
    channel_used = [0] * m_new
    assignments: list[PathAssignment] = []
    preserved: list[tuple[int, int]] = []
    retuned: list[tuple[int, int]] = []

    def commit(a: PathAssignment) -> None:
        bit = 1 << a.channel
        for e in a.links:
            channel_used[e] |= bit
        assignments.append(a)

    def free(links: tuple[int, ...]) -> int:
        return first_fit(links, channel_used)

    # Phase 1: re-route existing pairs on the larger ring, keeping their
    # direction; longest new arcs first (most constrained).
    rerouted = []
    for a in old.assignments:
        links = arc_links(a.src, a.dst, m_new, a.clockwise)
        rerouted.append((a, links))
    rerouted.sort(key=lambda pair: -len(pair[1]))

    deferred: list[tuple[PathAssignment, tuple[int, ...]]] = []
    for a, links in rerouted:
        if any(channel_used[e] >> a.channel & 1 for e in links):
            deferred.append((a, links))
            continue
        commit(
            PathAssignment(
                src=a.src, dst=a.dst, channel=a.channel,
                clockwise=a.clockwise, links=links,
            )
        )
        preserved.append(a.pair)

    # Phase 2: clashing pairs get a fresh first-fit wavelength; the
    # shorter arc direction may now be the other way, so pick the less
    # constrained of the two.
    for a, links in deferred:
        other = arc_links(a.src, a.dst, m_new, not a.clockwise)
        best_links, clockwise = links, a.clockwise
        if free(other) < free(links):
            best_links, clockwise = other, not a.clockwise
        channel = free(best_links)
        commit(
            PathAssignment(
                src=a.src, dst=a.dst, channel=channel,
                clockwise=clockwise, links=best_links,
            )
        )
        retuned.append(a.pair)

    # Phase 3: pairs involving the new switches, longest arcs first.
    new_pairs = [
        (s, t)
        for s in range(m_new)
        for t in range(s + 1, m_new)
        if s >= m_old or t >= m_old
    ]
    new_pairs.sort(key=lambda p: -ring_distance(p[0], p[1], m_new))
    for s, t in new_pairs:
        cw = arc_links(s, t, m_new, clockwise=True)
        ccw = arc_links(s, t, m_new, clockwise=False)
        short, long_ = (cw, ccw) if len(cw) <= len(ccw) else (ccw, cw)
        candidates = [short] if len(short) < len(long_) else [short, long_]
        best = min(candidates, key=free)
        channel = free(best)
        commit(
            PathAssignment(
                src=s, dst=t, channel=channel,
                clockwise=best == cw, links=best,
            )
        )

    plan = ChannelPlan(ring_size=m_new, assignments=tuple(assignments))
    plan.validate()
    if max_channels is not None and plan.num_channels > max_channels:
        raise ChannelAssignmentError(
            f"expanded ring of {m_new} needs {plan.num_channels} channels, "
            f"budget is {max_channels}"
        )
    added = tuple(
        p for p in (a.pair for a in assignments)
        if p[0] >= m_old or p[1] >= m_old
    )
    return ExpansionResult(
        plan=plan,
        preserved=tuple(preserved),
        retuned=tuple(retuned),
        added=added,
    )
