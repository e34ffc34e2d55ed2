"""Retry policy, backoff schedule and discovery counters.

The paper's amortization argument (section 4.2) assumes discovery is a
rare, reliable step whose cost is paid once per format.  On a real
network it is neither: fetches hit dead servers, dropped connections
and transient 5xxs.  This module supplies the resilience layer the
discovery path (:func:`repro.http.urls.fetch`,
:class:`repro.core.registry.FormatRegistry`) is built on:

* :class:`RetryPolicy` — configurable attempt count, per-attempt
  timeout, exponential backoff with a cap, and *deterministic* jitter
  (seeded, so a policy's delay schedule is exactly reproducible in
  tests);
* :func:`call_with_retry` — drives a callable through the policy,
  distinguishing retryable faults (connection failures, 5xx) from
  permanent ones (4xx, malformed documents);
* :class:`DiscoveryStats` — the discovery path's counters, exact
  under concurrent fetchers (a :class:`~repro.obs.registry.Tally`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    DiscoveryError, HTTPError, MetadataNotFoundError,
    ResponseTooLargeError,
)
from repro.obs.registry import Tally


def default_retryable(exc: BaseException) -> bool:
    """Is *exc* worth retrying?

    Connection-level failures and server errors (5xx) are transient;
    client errors (4xx), missing documents, responses over the client's
    size caps and anything raised *after* the bytes arrived (malformed
    XML, schema errors) are permanent.
    """
    if isinstance(exc, ResponseTooLargeError):
        return False
    if isinstance(exc, HTTPError):
        if exc.status is None:
            return True  # connection-level: refused, dropped, truncated
        return exc.status >= 500
    if isinstance(exc, MetadataNotFoundError):
        return False
    if isinstance(exc, (DiscoveryError, OSError)):
        return True
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delays()`` yields the sleep before each retry: attempt *i* waits
    ``base_delay * multiplier**i`` plus a jitter fraction drawn from
    ``random.Random(seed)``, clamped to ``max_delay`` and to be
    monotone non-decreasing.  Two equal policies produce identical
    schedules, which is what makes retry behaviour testable.
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    timeout: float = 10.0
    sleep: Callable[[float], None] = field(default=time.sleep,
                                           repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("RetryPolicy.attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("RetryPolicy delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("RetryPolicy.multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("RetryPolicy.jitter must be in [0, 1]")

    def delays(self) -> tuple[float, ...]:
        """The backoff schedule: one delay per retry (attempts - 1)."""
        rng = random.Random(self.seed)
        schedule: list[float] = []
        previous = 0.0
        for i in range(self.attempts - 1):
            raw = self.base_delay * (self.multiplier ** i)
            jittered = raw * (1.0 + self.jitter * rng.random())
            delay = min(jittered, self.max_delay)
            delay = max(delay, previous)  # monotone non-decreasing
            schedule.append(delay)
            previous = delay
        return tuple(schedule)


class DiscoveryStats(Tally):
    """Counters for the discovery path.

    ``fetch_attempts``/``retries``/``fetch_failures`` are incremented
    by :func:`call_with_retry`; the cache and fallback counters by
    :class:`repro.core.registry.FormatRegistry`.

    :meth:`count` an event by name (an unknown name raises
    ``AttributeError``); read plain ints as attributes
    (``stats.fetch_attempts``) or all at once with :meth:`snapshot`.
    Every instance's cells sum into
    ``repro_discovery_events_total{event=...}``.
    """

    _COUNTERS = ("fetch_attempts", "retries", "fetch_failures",
                 "cache_hits", "cache_misses", "negative_hits",
                 "fallbacks", "compiles", "deferred_formats",
                 "lazy_compiles")
    _METRIC = "repro_discovery_events_total"

    __slots__ = ()


def call_with_retry(fn: Callable[[], object], policy: RetryPolicy, *,
                    stats: DiscoveryStats | None = None,
                    retryable: Callable[[BaseException], bool]
                    = default_retryable):
    """Call *fn* under *policy*; returns its result.

    Each invocation counts one ``fetch_attempts``.  A retryable failure
    sleeps the scheduled backoff and tries again; a non-retryable one
    (or an exhausted budget) counts a ``fetch_failures`` and re-raises.
    """
    delays = policy.delays()
    for attempt in range(policy.attempts):
        if stats is not None:
            stats.count("fetch_attempts")
        try:
            return fn()
        except Exception as exc:
            if attempt + 1 >= policy.attempts or not retryable(exc):
                if stats is not None:
                    stats.count("fetch_failures")
                raise
            if stats is not None:
                stats.count("retries")
            delay = delays[attempt]
            if delay > 0:
                policy.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
