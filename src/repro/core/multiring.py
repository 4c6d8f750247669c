"""Multi-ring wavelength planning — paper Section 3.5.

A Quartz element whose wavelength demand exceeds one WDM's channel count
(e.g. 33 switches → 136 channels > 80) must spread its channels over
parallel physical fibre rings, one WDM mux per switch per ring.  Beyond
sheer capacity, the *placement* of channels onto rings determines fault
tolerance: losing one fibre segment kills every channel routed across it
on that ring, so a good plan balances each segment's load across rings
and splits each switch's channels so no single ring failure isolates a
switch.

:func:`plan_rings` produces a :class:`MultiRingPlan`:

* rings are filled respecting the per-WDM channel limit;
* for every fibre segment, channels crossing it are balanced across
  rings (greedy: each path goes to the ring where its heaviest-loaded
  segment is lightest);
* the wavelength index of a channel *within its ring* is recomputed
  first-fit, so each ring independently satisfies the no-clash
  constraint with a compact wavelength range.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import cached
from repro.core.channels import (
    ChannelPlan,
    PathAssignment,
    WDM_CHANNEL_LIMIT,
    first_fit,
    greedy_assignment,
)


class MultiRingPlanError(ValueError):
    """Raised when channels cannot be packed onto the requested rings."""


@dataclass(frozen=True)
class RingAssignment:
    """One pair's channel in a multi-ring deployment."""

    pair: tuple[int, int]
    ring: int
    wavelength: int
    links: tuple[int, ...]


@dataclass(frozen=True)
class MultiRingPlan:
    """A wavelength plan spread over parallel physical fibre rings."""

    ring_size: int
    num_rings: int
    wdm_channels: int
    assignments: tuple[RingAssignment, ...]

    def ring_of(self, s: int, t: int) -> int:
        """Which physical ring carries the channel of pair ``{s, t}``."""
        want = (min(s, t), max(s, t))
        for a in self.assignments:
            if a.pair == want:
                return a.ring
        raise MultiRingPlanError(f"no assignment for pair {want}")

    def wavelengths_on_ring(self, ring: int) -> int:
        """Distinct wavelengths used on one physical ring."""
        return len({a.wavelength for a in self.assignments if a.ring == ring})

    def channels_crossing(self, ring: int, segment: int) -> tuple[tuple[int, int], ...]:
        """Switch pairs whose channel a fibre-segment cut would sever.

        A cut of physical segment ``segment`` on ring ``ring`` kills
        exactly these pairs' direct mesh channels — the runtime mapping
        the packet simulator's fault injector applies
        (:class:`repro.sim.faults.FaultInjector`).
        """
        return tuple(
            sorted(
                a.pair
                for a in self.assignments
                if a.ring == ring and segment in a.links
            )
        )

    def pair_routes(self) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
        """Every pair's physical route: ``pair -> (ring, fibre segments)``.

        The inverse view of :meth:`channels_crossing`, used to decide
        when a severed channel is whole again (every segment its path
        crosses must be intact before a repair can resurrect it).
        """
        return {a.pair: (a.ring, a.links) for a in self.assignments}

    def _segment_wavelengths(self) -> dict[tuple[int, int], list[int]]:
        """``(ring, segment) -> wavelengths of the channels crossing it``.

        Built in one pass over the assignments, each list in assignment
        order; a segment no channel crosses has no entry.  Segment loads,
        the imbalance and the clash check all read this one table.
        """
        table: dict[tuple[int, int], list[int]] = {}
        for a in self.assignments:
            for segment in a.links:
                table.setdefault((a.ring, segment), []).append(a.wavelength)
        return table

    def segment_load(self, ring: int, segment: int) -> int:
        """Channels crossing one fibre segment of one ring."""
        return len(self._segment_wavelengths().get((ring, segment), ()))

    def max_segment_imbalance(self) -> int:
        """Worst over segments of (max − min) per-ring channel load.

        Zero means every segment's channels are perfectly spread across
        rings; small values mean one fibre cut never takes a
        disproportionate share of any segment's channels.
        """
        table = self._segment_wavelengths()
        worst = 0
        for segment in range(self.ring_size):
            loads = [len(table.get((r, segment), ())) for r in range(self.num_rings)]
            worst = max(worst, max(loads) - min(loads))
        return worst

    def validate(self) -> None:
        """Check capacity, coverage, and per-ring wavelength feasibility."""
        m = self.ring_size
        expected = {(s, t) for s in range(m) for t in range(s + 1, m)}
        got = [a.pair for a in self.assignments]
        if len(got) != len(set(got)) or set(got) != expected:
            raise MultiRingPlanError("pair coverage is wrong")
        on_ring: dict[int, set[int]] = {}
        for a in self.assignments:
            on_ring.setdefault(a.ring, set()).add(a.wavelength)
        for ring in range(self.num_rings):
            used = len(on_ring.get(ring, ()))
            if used > self.wdm_channels:
                raise MultiRingPlanError(
                    f"ring {ring} uses {used} wavelengths, "
                    f"WDM supports {self.wdm_channels}"
                )
        # No wavelength clash on any (ring, segment).
        table = self._segment_wavelengths()
        for ring in range(self.num_rings):
            for segment in range(m):
                seen: set[int] = set()
                for wavelength in table.get((ring, segment), ()):
                    if wavelength in seen:
                        raise MultiRingPlanError(
                            f"wavelength {wavelength} clashes on ring "
                            f"{ring} segment {segment}"
                        )
                    seen.add(wavelength)


@cached("multi-ring-plan")
def plan_rings(
    ring_size: int,
    num_rings: int | None = None,
    wdm_channels: int = WDM_CHANNEL_LIMIT,
    base_plan: ChannelPlan | None = None,
) -> MultiRingPlan:
    """Spread a ring's wavelength plan over parallel physical rings.

    ``num_rings`` defaults to the minimum needed for the WDM channel
    budget.  Raises :class:`MultiRingPlanError` if the channels cannot
    be packed (the packing is greedy, balancing per-segment load, so a
    feasible instance can in principle be rejected — in practice the
    paper-scale instances pack with ≥ 30 % headroom).
    """
    if ring_size < 2:
        raise MultiRingPlanError("need at least two switches")
    plan = base_plan if base_plan is not None else greedy_assignment(ring_size)
    if plan.ring_size != ring_size:
        raise MultiRingPlanError(
            f"base plan is for ring size {plan.ring_size}, not {ring_size}"
        )

    if num_rings is None:
        num_rings = max(1, -(-plan.num_channels // wdm_channels))
    if num_rings < 1:
        raise MultiRingPlanError("need at least one physical ring")

    # Longest paths first: they cross the most segments and are the
    # hardest to place without wavelength clashes.
    ordered = sorted(plan.assignments, key=lambda a: -a.length)

    # wavelengths_used[ring][segment] -> bitmask of wavelengths occupied
    wavelengths_used = [[0] * ring_size for _ in range(num_rings)]
    segment_channels: list[list[int]] = [
        [0] * ring_size for _ in range(num_rings)
    ]

    assignments: list[RingAssignment] = []
    for path in ordered:
        placed = _place(
            path,
            num_rings,
            wdm_channels,
            wavelengths_used,
            segment_channels,
        )
        if placed is None:
            raise MultiRingPlanError(
                f"cannot place channel for pair {path.pair} on {num_rings} "
                f"rings of {wdm_channels} wavelengths"
            )
        assignments.append(placed)

    result = MultiRingPlan(
        ring_size=ring_size,
        num_rings=num_rings,
        wdm_channels=wdm_channels,
        assignments=tuple(assignments),
    )
    result.validate()
    return result


def _place(
    path: PathAssignment,
    num_rings: int,
    wdm_channels: int,
    wavelengths_used: list[list[int]],
    segment_channels: list[list[int]],
) -> RingAssignment | None:
    """Place one path: pick the ring whose touched segments are least
    loaded, then the first-fit wavelength there (below ``wdm_channels``,
    so a ring never uses more wavelengths than its WDM supports)."""
    candidates = sorted(
        range(num_rings),
        key=lambda r: (
            max(segment_channels[r][e] for e in path.links),
            sum(segment_channels[r][e] for e in path.links),
            r,
        ),
    )
    for ring in candidates:
        wavelength = first_fit(path.links, wavelengths_used[ring])
        if wavelength >= wdm_channels:
            continue
        bit = 1 << wavelength
        for e in path.links:
            wavelengths_used[ring][e] |= bit
            segment_channels[ring][e] += 1
        return RingAssignment(
            pair=path.pair, ring=ring, wavelength=wavelength, links=path.links
        )
    return None
