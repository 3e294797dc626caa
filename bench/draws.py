"""Seeded, balanced draws from a workload's parameter pools."""

from __future__ import annotations


def cycled(pool, rng):
    """Endless stream of pool entries: each entry once per pass, in seeded order.

    Balanced draws keep the cost mix of a run the same from seed to seed.
    """
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order
