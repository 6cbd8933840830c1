"""BGP-like route-update streams (the input side of ``repro.churn``).

Real churn is bursty and spatially clustered: update trains arrive in
batches (a session reset, a policy change) and successive updates tend to
fall under the same few subtrees of the address space — the hot regions
where multihomed sites flap.  The generator models exactly the properties
the clue scheme's §3.4 maintenance cost is sensitive to:

* **bursts** — batch sizes drawn around a configurable mean, so a single
  epoch can carry anything from one update to a session-reset train;
* **prefix locality** — a configurable fraction of events lands under a
  small set of *hot subtrees* sampled from the routed table, so dirty
  sets overlap and batching has something to amortise;
* **histogram calibration** — announced prefixes draw their lengths from
  the same 1999 prefix-length histogram the table generator uses
  (:mod:`repro.tablegen.histogram`), so churned prefixes are structurally
  indistinguishable from seeded ones;
* **flaps** — a fraction of announcements revive recently withdrawn
  routes, the classic announce/withdraw oscillation.

The stream owns the authoritative *live set* (prefix → origin router) and
never emits an invalid event: withdrawals name a currently routed prefix,
announcements a currently unrouted one.  Everything is driven by one
``random.Random`` passed in (or seeded) at construction, so a stream is
fully deterministic and replayable.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.addressing import Prefix
from repro.tablegen.histogram import DEFAULT_IPV4_HISTOGRAM, normalise

#: Event kinds.
ANNOUNCE = "announce"
WITHDRAW = "withdraw"


class RouteUpdate:
    """One BGP-like event: a prefix (dis)appears, originated somewhere."""

    __slots__ = ("serial", "kind", "prefix", "origin")

    def __init__(self, serial: int, kind: str, prefix: Prefix, origin: str):
        self.serial = serial
        self.kind = kind
        self.prefix = prefix
        self.origin = origin

    def __repr__(self) -> str:
        return "RouteUpdate(#%d %s %s via %s)" % (
            self.serial,
            self.kind,
            self.prefix,
            self.origin,
        )


class ChurnProfile:
    """Shape parameters of an update stream."""

    __slots__ = (
        "burst_mean",
        "locality",
        "hot_subtrees",
        "hot_length",
        "withdraw_fraction",
        "flap_fraction",
        "min_live",
        "histogram",
        "width",
    )

    def __init__(
        self,
        burst_mean: float = 6.0,
        locality: float = 0.6,
        hot_subtrees: int = 8,
        hot_length: int = 10,
        withdraw_fraction: float = 0.4,
        flap_fraction: float = 0.25,
        min_live: int = 16,
        histogram: Optional[Dict[int, float]] = None,
        width: int = 32,
    ):
        if burst_mean < 1:
            raise ValueError("burst_mean must be at least 1")
        for name, value in (
            ("locality", locality),
            ("withdraw_fraction", withdraw_fraction),
            ("flap_fraction", flap_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be within [0, 1]" % name)
        if hot_subtrees < 1:
            raise ValueError("at least one hot subtree is required")
        if not 0 < hot_length < width:
            raise ValueError("hot_length must fall inside the address width")
        self.burst_mean = burst_mean
        self.locality = locality
        self.hot_subtrees = hot_subtrees
        self.hot_length = hot_length
        self.withdraw_fraction = withdraw_fraction
        self.flap_fraction = flap_fraction
        self.min_live = min_live
        self.histogram = normalise(
            histogram if histogram is not None else DEFAULT_IPV4_HISTOGRAM
        )
        self.width = width

    def __repr__(self) -> str:
        return "ChurnProfile(burst=%.1f, locality=%.2f, withdraw=%.2f)" % (
            self.burst_mean,
            self.locality,
            self.withdraw_fraction,
        )


class UpdateStream:
    """A seeded, replayable stream of announce/withdraw batches."""

    def __init__(
        self,
        origins: Dict[Prefix, str],
        routers: Optional[Sequence[str]] = None,
        profile: Optional[ChurnProfile] = None,
        rng: Optional[random.Random] = None,
        seed: int = 0,
    ):
        if not origins:
            raise ValueError("an update stream needs at least one live route")
        self.profile = profile if profile is not None else ChurnProfile()
        self.rng = rng if rng is not None else random.Random(seed)
        #: prefix -> origin router, the authoritative routed set.
        self.live: Dict[Prefix, str] = dict(origins)
        #: ``live``'s prefixes in (length, bits) order, patched by
        #: bisection as batches pop and add them, so no draw sorts.
        self.sorted_live: List[Prefix] = sorted(self.live)
        self.routers: List[str] = (
            sorted(routers)
            if routers is not None
            else sorted(set(origins.values()))
        )
        self.serial = 0
        self.announced = 0
        self.withdrawn = 0
        self.flapped = 0
        #: Recently withdrawn routes, candidates for a flap re-announce.
        self._recent_withdrawn: Deque[Tuple[Prefix, str]] = deque(maxlen=256)
        self._hot = self._sample_hot_subtrees()
        #: The hot roots' bits: they share one length and one width.
        self._hot_bits = frozenset(root.bits for root in self._hot)
        lengths = sorted(self.profile.histogram)
        self._lengths = [
            length for length in lengths if length >= self.profile.hot_length
        ] or lengths
        self._weights = [self.profile.histogram[l] for l in self._lengths]

    # ------------------------------------------------------------------
    def _sample_hot_subtrees(self) -> List[Prefix]:
        """Hot subtree roots, sampled from the routed table itself."""
        profile = self.profile
        candidates = sorted(
            {
                prefix.truncate(profile.hot_length)
                for prefix in self.live
                if prefix.length >= profile.hot_length
            }
        )
        if len(candidates) > profile.hot_subtrees:
            candidates = self.rng.sample(candidates, profile.hot_subtrees)
        while len(candidates) < profile.hot_subtrees:
            bits = self.rng.getrandbits(profile.hot_length)
            root = Prefix(bits, profile.hot_length, profile.width)
            if root not in candidates:
                candidates.append(root)
        return sorted(candidates)

    @property
    def hot_roots(self) -> List[Prefix]:
        """The hot subtree roots churn clusters under (for reports)."""
        return list(self._hot)

    def live_count(self) -> int:
        """Currently routed prefixes."""
        return len(self.live)

    # ------------------------------------------------------------------
    def _burst_size(self) -> int:
        """Geometric-ish burst length with the configured mean."""
        mean = self.profile.burst_mean
        if mean <= 1.0:
            return 1
        return 1 + int(self.rng.expovariate(1.0 / (mean - 1.0)))

    def _draw_length(self, floor: int) -> int:
        lengths = [l for l in self._lengths if l >= floor]
        if not lengths:
            return floor
        weights = [self.profile.histogram[l] for l in lengths]
        return self.rng.choices(lengths, weights=weights, k=1)[0]

    def _new_prefix(self) -> Prefix:
        """An unrouted prefix, hot-subtree-local with prob. ``locality``."""
        profile = self.profile
        for _attempt in range(64):
            if self.rng.random() < profile.locality:
                block = self._hot[self.rng.randrange(len(self._hot))]
                length = self._draw_length(block.length)
                extra = length - block.length
                bits = (block.bits << extra) | (
                    self.rng.getrandbits(extra) if extra else 0
                )
            else:
                length = self._draw_length(1)
                bits = self.rng.getrandbits(length)
            prefix = Prefix(bits, length, profile.width)
            if prefix not in self.live:
                return prefix
        raise RuntimeError("could not draw a fresh prefix (space exhausted?)")

    def _pick_withdrawal(self, excluded: set) -> Optional[Prefix]:
        """A routed prefix to withdraw, preferring the hot subtrees."""
        candidates = self.sorted_live
        blocked = [prefix for prefix in excluded if prefix in self.live]
        if blocked:
            candidates = list(candidates)
            for prefix in blocked:
                del candidates[bisect_left(candidates, prefix)]
        if not candidates:
            return None
        if self.rng.random() < self.profile.locality:
            hot_length, hot_bits = self.profile.hot_length, self._hot_bits
            local = [
                prefix
                for prefix in candidates
                if prefix.length >= hot_length
                and prefix.bits >> (prefix.length - hot_length) in hot_bits
            ]
            if local:
                return local[self.rng.randrange(len(local))]
        return candidates[self.rng.randrange(len(candidates))]

    # ------------------------------------------------------------------
    def next_batch(self) -> List[RouteUpdate]:
        """The next burst of events; the live set is updated as emitted.

        Within one batch a prefix appears at most once, so a batch can be
        applied as two unordered sets (announcements, withdrawals) — the
        grouping the engine's per-pair ``apply_batch`` calls rely on.
        """
        profile = self.profile
        batch: List[RouteUpdate] = []
        touched: set = set()
        withdrawn_now: List[Tuple[Prefix, str]] = []
        for _ in range(self._burst_size()):
            withdrawing = (
                self.rng.random() < profile.withdraw_fraction
                and len(self.live) > profile.min_live
            )
            if withdrawing:
                prefix = self._pick_withdrawal(touched)
                if prefix is None:
                    continue
                origin = self.live.pop(prefix)
                del self.sorted_live[bisect_left(self.sorted_live, prefix)]
                withdrawn_now.append((prefix, origin))
                self.withdrawn += 1
                update = RouteUpdate(self.serial, WITHDRAW, prefix, origin)
            else:
                prefix = None
                if profile.flap_fraction and self._recent_withdrawn:
                    if self.rng.random() < profile.flap_fraction:
                        candidate, origin = self._recent_withdrawn.popleft()
                        if candidate not in self.live and candidate not in touched:
                            prefix, flap_origin = candidate, origin
                            self.flapped += 1
                if prefix is None:
                    prefix = self._new_prefix()
                    flap_origin = self.routers[
                        self.rng.randrange(len(self.routers))
                    ]
                self.live[prefix] = flap_origin
                insort(self.sorted_live, prefix)
                self.announced += 1
                update = RouteUpdate(self.serial, ANNOUNCE, prefix, flap_origin)
            touched.add(prefix)
            self.serial += 1
            batch.append(update)
        # Flap candidates become eligible only from the *next* batch on,
        # keeping each batch free of announce-after-withdraw ordering.
        self._recent_withdrawn.extend(withdrawn_now)
        return batch

    def batches(self, count: int) -> Iterator[List[RouteUpdate]]:
        """``count`` consecutive batches."""
        for _ in range(count):
            yield self.next_batch()

    def __repr__(self) -> str:
        return "UpdateStream(%d live, serial=%d, %r)" % (
            len(self.live),
            self.serial,
            self.profile,
        )
