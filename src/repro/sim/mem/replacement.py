"""Cache replacement policies over flat per-set state.

A :class:`~repro.sim.mem.cache.Cache` keeps each set as one
insertion-ordered ``dict`` mapping line -> dirty bit, and keeps that
dict in *victim order*: the first key is the line the policy evicts
next.  A policy is therefore just two rules over the dict, one object
per cache (not per set):

* ``promotes`` — whether a hit re-inserts the line at the back (LRU);
  FIFO and random keep fill order;
* :meth:`ReplacementPolicy.victim` — the line to evict from a full set.
  LRU and FIFO take the first key; random draws from ``list(resident)``
  with a per-set seeded rng.

The design-space-exploration benches swap policies via
:func:`make_policy`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional


class ReplacementPolicy:
    """Victim order rules for every set of one cache."""

    #: A hit moves the line to the back of its set's victim order.
    promotes = False

    #: Victims are drawn by :meth:`victim`; otherwise a full set always
    #: evicts its first key, and the access paths inline that.
    draws = False

    def victim(self, index: int, resident: Dict[int, bool]) -> int:
        """The line to evict from full set ``index``."""
        return next(iter(resident))

    def reset(self) -> None:
        """Drop any per-set state (flush and checkpoint restore)."""


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: a hit re-inserts the line."""

    promotes = True


class FifoPolicy(ReplacementPolicy):
    """First-in first-out: fill order, hits do not promote."""


class RandomPolicy(ReplacementPolicy):
    """Uniform random victims with a deterministic rng per set.

    Set ``index`` draws from ``random.Random(seed)`` when a seed is
    given, else from ``random.Random(index)``.  Rngs are built on a
    set's first eviction, which leaves every draw sequence unchanged.
    """

    draws = True

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self._rngs: Dict[int, random.Random] = {}

    def rng(self, index: int) -> random.Random:
        """Set ``index``'s victim rng."""
        rng = self._rngs.get(index)
        if rng is None:
            rng = self._rngs[index] = random.Random(
                index if self.seed is None else self.seed)
        return rng

    def victim(self, index: int, resident: Dict[int, bool]) -> int:
        keys = list(resident)
        return keys[self.rng(index).randrange(len(keys))]

    def reset(self) -> None:
        self._rngs.clear()


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, seed: Optional[int] = None,
                **kwargs) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (lru / fifo / random).

    ``seed`` pins every set's rng of a ``random`` policy (``None``: set
    ``index`` uses seed ``index``); the other policies ignore it.  Extra
    keyword arguments are forwarded to the policy constructor.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError("unknown replacement policy %r; have %s" % (name, sorted(_POLICIES)))
    if cls is RandomPolicy:
        kwargs["seed"] = seed
    return cls(**kwargs)


def policy_names() -> List[str]:
    """Names of the available replacement policies."""
    return sorted(_POLICIES)
