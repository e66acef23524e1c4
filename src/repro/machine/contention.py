"""Utilisation-window contention model shared by controllers and links.

The full-system simulator works at cache-miss granularity with weighted
records, so strict busy-until queuing would over-serialise (a weight-w
record stands for w misses *spread over* w miss latencies from a single
CPU, not w back-to-back arrivals).  Instead each shared resource tracks the
occupancy work offered to it in fixed windows of simulated time and charges
an M/M/1-style queuing delay based on the utilisation of the previous
window:

    delay_per_request = occupancy * rho / (1 - rho)

with ``rho`` capped below 1.  Using the *previous* window keeps the model
deterministic and independent of intra-window event order.  The same object
reports the statistics Section 7.1.2 quotes: request counts, time-averaged
queue length and maximum observed occupancy (utilisation).

The model has two primitives, and :meth:`UtilisationWindow.offer` is one
call of each:

* :meth:`~UtilisationWindow.rho_at` is the capped ``rho`` an offer in a
  given window is charged.  It reads state only, and it is fixed once the
  window opens, so a caller servicing many requests in one window can
  compute each delay once per window instead of once per request;
* :meth:`~UtilisationWindow.fold` adds a window's work.  It closes the
  resource's previous window lazily, as an offer does: a resource closes
  a window only when it is next given work, and
  :meth:`~UtilisationWindow.average_queue_length` reads an unclosed last
  window at its running rate.  With integer-ns work, one fold of a sum
  ends in the state the per-request offers reach, in any grouping.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError


class UtilisationWindow:
    """Occupancy-driven queuing model for one shared resource."""

    def __init__(
        self,
        window_ns: int = 1_000_000,
        max_utilisation: float = 0.95,
    ) -> None:
        if window_ns <= 0:
            raise ConfigurationError("window must be positive")
        if not 0.0 < max_utilisation < 1.0:
            raise ConfigurationError("max_utilisation must lie in (0, 1)")
        self._window_ns = window_ns
        self._max_rho = max_utilisation
        self._window_index = 0
        self._work_in_window = 0.0
        self._prev_rho = 0.0
        # statistics
        self.requests = 0
        self.total_busy_ns = 0.0
        self._rho_max = 0.0
        self._queue_area = 0.0     # integral of queue length over time

    # -- internal -------------------------------------------------------------

    def _close_to(self, index: int) -> None:
        """Close the current window if ``index`` is another one."""
        if index == self._window_index:
            return
        rho = min(self._work_in_window / self._window_ns, self._max_rho)
        self._rho_max = max(self._rho_max, rho)
        queue_len = rho / (1.0 - rho)
        self._queue_area += queue_len * self._window_ns
        # Any fully idle windows between contribute zero queue area.
        self._prev_rho = rho
        gap = index - self._window_index - 1
        if gap > 0:
            # Idle gap: previous utilisation decays to zero.
            self._prev_rho = 0.0
        self._window_index = index
        self._work_in_window = 0.0

    # -- public ----------------------------------------------------------------

    def rho_at(self, window: int) -> float:
        """The capped utilisation an offer in ``window`` is charged.

        Reads state only: it is the ``rho`` :meth:`_close_to` would leave
        as the previous window's, without closing anything.
        """
        if window == self._window_index:
            return self._prev_rho
        if window - self._window_index - 1 > 0:
            return 0.0                 # idle windows between
        return min(self._work_in_window / self._window_ns, self._max_rho)

    def fold(self, window: int, work: float, requests: int) -> None:
        """Add ``requests`` requests doing ``work`` ns in all to ``window``."""
        self._close_to(window)
        self._work_in_window += work
        self.requests += requests
        self.total_busy_ns += work

    def offer(self, now: int, occupancy_ns: float, weight: int = 1) -> float:
        """Record ``weight`` requests each busying the resource for
        ``occupancy_ns``; return the queuing delay charged *per request*.
        """
        if weight <= 0:
            raise ConfigurationError("weight must be positive")
        if occupancy_ns < 0:
            raise ConfigurationError("occupancy must be non-negative")
        window = now // self._window_ns
        rho = self.rho_at(window)
        self.fold(window, occupancy_ns * weight, weight)
        return occupancy_ns * rho / (1.0 - rho)

    def utilisation(self) -> float:
        """Utilisation of the most recently completed window."""
        return self._prev_rho

    @property
    def max_utilisation_seen(self) -> float:
        """Highest window utilisation observed so far."""
        return self._rho_max

    def register_metrics(self, registry, name: str) -> None:
        """Expose this resource's statistics under ``name`` in a registry.

        Registration is callback-based, so the hot :meth:`offer` path is
        untouched; values are read when the registry collects.
        """
        registry.register_callback(f"{name}.requests", lambda: self.requests)
        registry.register_callback(
            f"{name}.total_busy_ns", lambda: self.total_busy_ns
        )
        registry.register_callback(
            f"{name}.max_utilisation", lambda: self.max_utilisation_seen
        )

    def average_queue_length(self, now: int) -> float:
        """Time-averaged queue length over [0, now]."""
        if now <= 0:
            return 0.0
        # Include the (possibly partial) current window at its running rate.
        elapsed_in_window = now - self._window_index * self._window_ns
        area = self._queue_area
        if elapsed_in_window > 0:
            rho = min(
                self._work_in_window / max(elapsed_in_window, 1), self._max_rho
            )
            area += rho / (1.0 - rho) * elapsed_in_window
        return area / now
