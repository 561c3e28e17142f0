"""Core DGA abstractions: parameters, pool/barrel interfaces, and the
:class:`Dga` façade that ties a pool model, a barrel model, and a label
generator into one domain-generation algorithm.

Terminology follows §III of the paper:

* the **query pool** is the set of ``θ∃ + θ∅`` pseudo-random domains the
  DGA can produce for a given day, of which the botmaster registers ``θ∃``
  as C2 servers and the remaining ``θ∅`` resolve to NXDOMAIN;
* the **query barrel** is the ordered list of up to ``θq`` domains a bot
  actually attempts to resolve during one activation.
"""

from __future__ import annotations

import datetime as _dt
import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from .wordgen import Lcg, LabelSpec, date_seed

__all__ = [
    "PoolClass",
    "BarrelClass",
    "DgaParameters",
    "PoolModel",
    "BarrelModel",
    "Dga",
    "WINDOW_MEMO_DAYS",
]

#: Days of NXD windows one :class:`Dga` keeps (see :meth:`Dga.window`):
#: enough for a matcher's day and previous day plus the epoch being
#: estimated, while memory stays flat on an endless stream.
WINDOW_MEMO_DAYS = 4


class PoolClass(enum.Enum):
    """Query-pool models (horizontal axis of the Figure-3 taxonomy)."""

    DRAIN_REPLENISH = "drain-and-replenish"
    SLIDING_WINDOW = "sliding-window"
    MULTIPLE_MIXTURE = "multiple-mixture"


class BarrelClass(enum.Enum):
    """Query-barrel models (vertical axis of the Figure-3 taxonomy).

    Ordered from determinism to randomness, as in the paper: uniform,
    randomcut, permutation, sampling.
    """

    UNIFORM = "uniform"
    RANDOMCUT = "randomcut"
    PERMUTATION = "permutation"
    SAMPLING = "sampling"


@dataclass(frozen=True)
class DgaParameters:
    """The ``θ``/``δ`` parameters of §III–IV.

    Attributes:
        n_registered: ``θ∃`` — domains registered as C2 per day.
        n_nxd: ``θ∅`` — unregistered (NXDOMAIN) domains per day.
        barrel_size: ``θq`` — maximum lookups per activation.
        query_interval: ``δi`` — seconds between consecutive lookups of
            one activation.
        fixed_interval: whether ``δi`` is a hard constant (newGoZ-style
            1 s trains) or merely the mean of a jittered gap (families the
            paper lists with δi = "none", e.g. Ramnit, Qakbot).
    """

    n_registered: int
    n_nxd: int
    barrel_size: int
    query_interval: float
    fixed_interval: bool = True

    def __post_init__(self) -> None:
        if self.n_registered < 0:
            raise ValueError(f"θ∃ must be >= 0, got {self.n_registered}")
        if self.n_nxd < 1:
            raise ValueError(f"θ∅ must be >= 1, got {self.n_nxd}")
        if not 1 <= self.barrel_size <= self.pool_size:
            raise ValueError(
                f"θq must be in [1, θ∃+θ∅={self.pool_size}], got {self.barrel_size}"
            )
        if self.query_interval <= 0:
            raise ValueError(f"δi must be positive, got {self.query_interval}")

    @property
    def pool_size(self) -> int:
        """``θ∃ + θ∅`` — total domains in the daily query pool."""
        return self.n_registered + self.n_nxd


class PoolModel(ABC):
    """Produces the ordered query pool for a calendar day."""

    pool_class: PoolClass

    @abstractmethod
    def pool_for(self, day: _dt.date) -> list[str]:
        """Return the ordered query pool for ``day``.

        The order is the DGA's canonical generation order; barrel models
        that rely on a global sequential order (uniform, randomcut) use it
        directly.
        """

    @abstractmethod
    def useful_pool_for(self, day: _dt.date) -> list[str]:
        """Return the subset of :meth:`pool_for` eligible for C2 registration.

        Identical to the full pool except for the multiple-mixture model,
        where only one of the interleaved DGA instances generates domains
        the botmaster will ever register.
        """


class BarrelModel(ABC):
    """Selects the ordered query barrel from a daily pool."""

    barrel_class: BarrelClass

    @abstractmethod
    def barrel(self, pool: Sequence[str], barrel_size: int, rng: Lcg) -> list[str]:
        """Return the ordered domains one activation will attempt.

        ``rng`` is the per-activation generator: two activations of the
        same bot on the same day may legitimately draw different barrels
        (sampling, randomcut, permutation).
        """


class Dga:
    """A complete domain-generation algorithm.

    Composes a :class:`PoolModel`, a :class:`BarrelModel`, and the
    :class:`DgaParameters` into the interface both the botnet simulator
    and BotMeter's matcher consume.

    Everything is deterministic given ``(name, seed, day)``: the daily
    pool, the registered C2 subset, and — given an activation RNG — the
    barrel.  This mirrors the paper's observation that "because the
    botmaster and bots share the same DGA, this query pool is known to
    both of them".
    """

    def __init__(
        self,
        name: str,
        params: DgaParameters,
        pool_model: PoolModel,
        barrel_model: BarrelModel,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.params = params
        self.pool_model = pool_model
        self.barrel_model = barrel_model
        self.seed = seed
        self._windows: dict[_dt.date, frozenset[str]] = {}

    # -- pool side ---------------------------------------------------------

    def pool(self, day: _dt.date) -> list[str]:
        """Ordered query pool for ``day`` (``θ∃ + θ∅`` domains)."""
        return self.pool_model.pool_for(day)

    def registered(self, day: _dt.date) -> set[str]:
        """The ``θ∃`` domains the botmaster registers for ``day``.

        Chosen pseudo-randomly (but deterministically per day) from the
        useful pool, so valid domains fall at arbitrary positions of the
        generation order — this is what partitions the AR circle into
        arcs (Figure 5).
        """
        if self.params.n_registered == 0:
            return set()
        useful = self.pool_model.useful_pool_for(day)
        rng = Lcg(date_seed(day, self.seed ^ 0xC2C2C2C2))
        chosen: set[str] = set()
        # Rejection-sample distinct indices; θ∃ ≪ pool size so this
        # terminates almost immediately.
        while len(chosen) < min(self.params.n_registered, len(useful)):
            chosen.add(useful[rng.next_below(len(useful))])
        return chosen

    def nxdomains(self, day: _dt.date) -> list[str]:
        """The pool minus the registered domains, in generation order."""
        valid = self.registered(day)
        return [d for d in self.pool(day) if d not in valid]

    def window(self, day: _dt.date) -> frozenset[str]:
        """The NXDs of ``day`` as a set: BotMeter's matcher window.

        Built from :meth:`nxdomains` once per day and memoised for the
        :data:`WINDOW_MEMO_DAYS` most recently built days, so every
        consumer that shares this instance (routers, shards, estimators)
        shares one window per day.
        """
        memo = self._windows
        window = memo.get(day)
        if window is None:
            window = frozenset(self.nxdomains(day))
            if len(memo) >= WINDOW_MEMO_DAYS:
                del memo[next(iter(memo))]
            memo[day] = window
        return window

    # -- bot side ----------------------------------------------------------

    def barrel(self, day: _dt.date, rng: Lcg) -> list[str]:
        """The ordered query barrel for one activation on ``day``."""
        pool = self.pool(day)
        return self.barrel_model.barrel(pool, self.params.barrel_size, rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dga({self.name!r}, pool={self.pool_model.pool_class.value}, "
            f"barrel={self.barrel_model.barrel_class.value}, "
            f"θ∃={self.params.n_registered}, θ∅={self.params.n_nxd}, "
            f"θq={self.params.barrel_size})"
        )
