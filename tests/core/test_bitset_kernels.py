"""The bitset kernels of ``repro.core`` against set-based references.

Wavelength occupancy (first-fit) and pair survival (the Fig. 6
Monte-Carlo) are kept as Python-int bitmasks.  These tests pin them to
independent set-based formulations:

* :func:`_set_greedy` — the greedy channel assignment with occupancy
  held as one ``set`` of lit segments per wavelength;
* the per-scenario :class:`RingFaultModel` API (``bandwidth_loss``,
  ``is_partitioned``), driven trial by trial;
* frozen digests of ``plan_rings`` and ``expand_plan`` outputs.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import channels as ch
from repro.core.expansion import expand_plan
from repro.core.fault import FaultModelError, FaultStats, RingFaultModel
from repro.core.multiring import plan_rings

ORDERS = ("longest-first", "shortest-first", "random")
SEEDS = (None, 0, 1, 2, 3)


def _set_greedy(ring_size, seed, order):
    """Greedy assignment with set bookkeeping: ``lit[c]`` is the set of
    segments wavelength ``c`` occupies; first-fit is the first ``c``
    whose set is disjoint from the path."""
    rng = random.Random(seed)
    m = ring_size
    lit: list[set[int]] = []
    link_paths = [0] * m
    assignments = []
    if order == "random":
        shuffled = ch.all_pairs(m)
        rng.shuffle(shuffled)
        batches = [shuffled]
    else:
        by_length: dict[int, list[tuple[int, int]]] = {}
        for s, t in ch.all_pairs(m):
            by_length.setdefault(ch.ring_distance(s, t, m), []).append((s, t))
        reverse = order == "longest-first"
        batches = [by_length[k] for k in sorted(by_length, reverse=reverse)]

    def first_fit(links):
        free = map(frozenset(links).isdisjoint, lit)
        return next(itertools.compress(itertools.count(), free), len(lit))

    for pairs in batches:
        start = rng.randrange(len(pairs)) if seed is not None and order != "random" else 0
        for s, t in pairs[start:] + pairs[:start]:
            # s < t: the clockwise arc crosses segments s … t-1, the
            # counter-clockwise one t … m-1 and then 0 … s-1.
            cw_links = tuple(range(s, t))
            ccw_links = tuple(range(t, m)) + tuple(range(s))
            length = min(len(cw_links), len(ccw_links))
            candidates = [links for links in (cw_links, ccw_links) if len(links) == length]
            if len(candidates) == 2:
                loads = [sum(link_paths[e] for e in links) for links in candidates]
                if loads[1] < loads[0]:
                    candidates.reverse()
            best = None
            for links in candidates:
                channel = first_fit(links)
                if best is None or channel < best[0]:
                    best = (channel, links)
            channel, links = best
            if channel == len(lit):
                lit.append(set())
            lit[channel].update(links)
            for e in links:
                link_paths[e] += 1
            assignments.append(
                ch.PathAssignment(
                    src=s, dst=t, channel=channel,
                    clockwise=links == cw_links, links=links,
                )
            )
    return ch.ChannelPlan(ring_size=m, assignments=tuple(assignments))


class _PinnedRandom:
    """``random`` stand-in whose unseeded generators share one fixed seed,
    so the ``seed=None`` shuffle is reproducible on both sides."""

    @staticmethod
    def Random(seed):
        return random.Random(12345 if seed is None else seed)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_matches_set_reference(monkeypatch, order, seed):
    monkeypatch.setattr(ch, "random", _PinnedRandom)
    greedy = ch.greedy_assignment.__wrapped__  # skip the artifact cache
    for m in range(2, 71):
        ref_seed = 12345 if seed is None and order == "random" else seed
        assert greedy(m, seed=seed, order=order) == _set_greedy(m, ref_seed, order), m


def test_first_fit_lowest_free_wavelength():
    used = [0b1011, 0b0110, 0]
    assert ch.first_fit((0,), used) == 2
    assert ch.first_fit((0, 1), used) == 4  # 0b1111 taken
    assert ch.first_fit((2,), used) == 0
    assert ch.first_fit((), used) == 0


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# Outputs of the set-based implementation, frozen before the bitset change.
PLAN_RINGS_DIGESTS = {
    (7, 2): "709cc97b78199d0ae920e3257ba59aeaa5429671040b86ec811026c13f400aba",
    (7, 3): "960cf9b1407e78ccbe603f1cda06fcf90bdba91aaa12cb179ad62dffee8a1f04",
    (7, 4): "3503e2184978a664f88ebc06f3a9eac7a866eaca73ec32d2e7f404bafb1111c1",
    (33, 2): "6c92e4d0d095017c8ebd28c20b65f8840c2845bd6817795a53e350e2f841c827",
    (33, 3): "6bc15ec70777a25f1241683ae7bfa520dda2e61df8cba810f6dc3d64b4222d66",
    (33, 4): "2d11b5b516bb31232f3d5d2d3e44e3f510e946ea5127938c6dc3e65a428730be",
}

EXPAND_DIGESTS = {
    (4, 5): "0d40ff5e6b169434282f09dde64c094fe3ff9065fdb3289522c7521fc2aa72ac",
    (6, 9): "2d17ce5781ed68c56934d826e6da2dde205fb37d097f3d5b000493e9ce9e86c8",
    (10, 14): "42f219253cc42eee1a7025157e13f0128a74dc7b989d97c3502b92722614bb96",
    (16, 17): "14d66daf75140179fb58e962d14e3783f5e8f1704e4c8eed127aa329afead705",
    (33, 40): "21c7c41b6e36b9b4efd62b945894dc8d03a1119dfc37a724bdbe1dd62f3a775a",
}


@pytest.mark.parametrize("ring_size, num_rings", sorted(PLAN_RINGS_DIGESTS))
def test_plan_rings_unchanged(ring_size, num_rings):
    plan = plan_rings(ring_size, num_rings=num_rings)
    assert _digest(plan) == PLAN_RINGS_DIGESTS[ring_size, num_rings]


def test_plan_rings_under_tight_wdm_cap_unchanged():
    plan = plan_rings(12, num_rings=2, wdm_channels=12)
    assert _digest(plan) == (
        "c22e742bc96f75f1cef8e9aa9df8b1636200c9437e1aa4f672f9378c1ceaa460"
    )


@pytest.mark.parametrize("old_size, new_size", sorted(EXPAND_DIGESTS))
def test_expand_plan_unchanged(old_size, new_size):
    result = expand_plan(ch.greedy_assignment(old_size), new_size)
    assert _digest(result) == EXPAND_DIGESTS[old_size, new_size]


def test_expand_seeded_plan_unchanged():
    result = expand_plan(ch.greedy_assignment(12, seed=3), 15)
    assert _digest(result) == (
        "e6514b635cf2f034fe7e87e84399c86373cc4e1be66951b2c5593ba8e07cb322"
    )


def _reference_simulate(model, num_failures, trials, seed):
    """Trial-by-trial Monte-Carlo over the per-scenario API."""
    links = model.physical_links()
    rng = random.Random(seed)
    loss_total = 0.0
    partitions = 0
    for _ in range(trials):
        failed = set(rng.sample(links, num_failures))
        loss_total += model.bandwidth_loss(failed)
        if model.is_partitioned(failed):
            partitions += 1
    return FaultStats(
        num_rings=model.num_rings,
        num_failures=num_failures,
        trials=trials,
        bandwidth_loss=loss_total / trials,
        partition_probability=partitions / trials,
    )


@given(
    ring_size=st.integers(2, 12),
    num_rings=st.integers(1, 4),
    num_failures=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    balanced=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_simulate_matches_per_scenario_api(ring_size, num_rings, num_failures, seed, balanced):
    if balanced:
        model = RingFaultModel(ring_size, multi_plan=plan_rings(ring_size, num_rings=num_rings))
    else:
        model = RingFaultModel(ring_size, num_rings)
    if num_failures > len(model.physical_links()):
        with pytest.raises(FaultModelError):
            model.simulate(num_failures, trials=5, seed=seed)
        return
    got = model.simulate(num_failures, trials=40, seed=seed)
    assert got == _reference_simulate(model, num_failures, 40, seed)


@pytest.mark.parametrize("ring_size, num_rings", [(5, 1), (6, 2), (8, 2), (7, 3)])
def test_exact_partition_probability_matches_per_scenario_api(ring_size, num_rings):
    model = RingFaultModel(ring_size, multi_plan=plan_rings(ring_size, num_rings=num_rings))
    for k in (1, 2, 3):
        combos = list(itertools.combinations(model.physical_links(), k))
        hits = sum(1 for combo in combos if model.is_partitioned(set(combo)))
        assert model.exact_partition_probability(k) == hits / len(combos)
