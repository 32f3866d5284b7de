"""Deterministic fault injection for the serve/batch worker machinery.

The fault-tolerance behaviour of the worker pool behind ``vhdl-ifa serve``
and ``vhdl-ifa batch`` (request timeouts that recycle a hung worker, a
crashed worker that costs only its own request or job) is only trustworthy
if it is *testable on demand*.
This module is the single switch all of those tests flip: a
:class:`FaultPlan` describes which faults to inject and when, and a
:class:`FaultInjector` applies them just before an analysis runs.

Faults are off by default and armed in one of two ways:

* **constructor switch** — pass ``faults=FaultPlan(...)`` to
  :class:`repro.pipeline.serve.AnalysisServer`; the plan is shipped to every
  pool worker it starts;
* **environment switch** — set :data:`FAULTS_ENV` to the plan's JSON form
  (``FaultPlan.to_env()``); a pool worker that was shipped no plan (every
  batch worker) arms its own :class:`FaultInjector` from it
  (:meth:`FaultInjector.from_env`).

The injectable faults:

``delay_seconds``
    Sleep this long before running an analysis — long enough relative to the
    server's ``--timeout`` and this *is* a hung worker.
``crash``
    Hard-exit the worker process (``os._exit``) before the analysis runs,
    simulating an OOM kill / segfault mid-request.

Torn cache files need no switch: a test tears them on disk itself, and
:class:`~repro.pipeline.cache.DiskArtifactCache` evicts them when it reads
them.

``match`` scopes a fault to requests whose trigger text (the VHDL source for
serve workers, the job path for batch workers) contains the substring, so a
test can hang exactly one request while its neighbours stay healthy.
``once`` disarms the plan after its first trigger in a given process.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

#: The environment switch: a JSON object with any of the FaultPlan fields.
FAULTS_ENV = "VHDL_IFA_FAULTS"

#: Exit status of a crash-injected worker (distinct from real Python exits).
CRASH_EXIT_CODE = 70


@dataclass
class FaultPlan:
    """Which faults to inject, and when they trigger.

    All fields default to the no-fault behaviour, so an empty plan (and an
    unset :data:`FAULTS_ENV`) is exactly the production configuration.
    """

    delay_seconds: float = 0.0
    crash: bool = False
    match: Optional[str] = None
    once: bool = False

    def is_active(self) -> bool:
        """True when the plan injects anything at all."""
        return bool(self.delay_seconds or self.crash)

    def to_env(self) -> str:
        """The JSON form to place in :data:`FAULTS_ENV` for child processes."""
        return json.dumps(
            {
                "delay_seconds": self.delay_seconds,
                "crash": self.crash,
                "match": self.match,
                "once": self.once,
            }
        )

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """The plan encoded in :data:`FAULTS_ENV`, or ``None``.

        A malformed value is treated as no plan: fault injection is a test
        facility and must never take a production process down by itself.
        """
        raw = (environ if environ is not None else os.environ).get(FAULTS_ENV)
        if not raw:
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                return None
            known = {name: payload[name] for name in (
                "delay_seconds", "crash", "match", "once"
            ) if name in payload}
            return cls(**known)
        except (ValueError, TypeError):
            return None


class FaultInjector:
    """Applies one :class:`FaultPlan` at the worker choke points.

    One injector lives per worker process; ``fired`` counts triggers (visible
    in worker metadata), and a ``once`` plan disarms itself after the first.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.fired = 0
        self._armed = self.plan.is_active()

    def _triggers(self, text: str) -> bool:
        if not self._armed:
            return False
        if self.plan.match is not None and self.plan.match not in text:
            return False
        self.fired += 1
        if self.plan.once:
            self._armed = False
        return True

    def before_analysis(self, trigger_text: str = "") -> None:
        """Inject delay and/or crash just before an analysis runs."""
        if not (self.plan.delay_seconds or self.plan.crash):
            return
        if not self._triggers(trigger_text):
            return
        if self.plan.delay_seconds:
            time.sleep(self.plan.delay_seconds)
        if self.plan.crash:
            # A hard exit, not an exception: the point is to simulate the
            # worker being killed out from under the supervisor.
            os._exit(CRASH_EXIT_CODE)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> "FaultInjector":
        return cls(FaultPlan.from_env(environ))

