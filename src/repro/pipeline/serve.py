"""``vhdl-ifa serve``: a fault-tolerant multi-tenant analysis service.

The server keeps one :class:`repro.workspace.Workspace` — and therefore one
warm artifact cache and one named-policy registry — alive across requests.
Requests are parsed and validated on the asyncio event loop; the CPU-bound
analysis itself runs in one of two modes:

**pool mode** (``workers >= 1``, the ``vhdl-ifa serve`` default)
    Analyses are dispatched to a supervised pool of worker processes
    (:mod:`repro.pipeline.pool`), each layering a per-worker in-memory cache
    over the shared ``--cache-dir`` disk tier.  The pool provides the fault
    model of a real multi-tenant service:

    * **per-request timeouts** — a request that exceeds ``timeout`` seconds
      answers with a structured ``504`` and its (possibly hung) worker is
      killed and respawned; concurrent requests on other workers are
      unaffected and the service never dies;
    * **crash recovery** — a worker that dies mid-request (crash, OOM kill)
      yields a structured ``500`` for that request only, and is respawned;
    * **bounded admission with load shedding** — at most ``queue_depth``
      requests are admitted at once; excess requests are shed immediately
      with ``429`` and a ``Retry-After`` header, never queued unboundedly;
    * **single-flight deduplication** — identical concurrent requests (same
      content-addressed source digest, options, file label and policy) share
      ONE analysis: followers await the leader's result and each gets its own
      response (the ``dedup_hits`` counter counts the coalesced requests).

**inline mode** (``workers=None``, the embedding/test default)
    Analysis runs synchronously on the event loop, serialising requests —
    the PR-4/PR-5 behaviour, kept for tests and callers that hand the server
    a concrete in-memory cache object.

Malformed, oversized (``413``) or non-JSON bodies are rejected on the event
loop with structured ``4xx`` documents and never touch a worker; a client
that disconnects mid-request cannot leak an admission slot.  Fault injection
for all of the above is deterministic via :mod:`repro.pipeline.faults`
(``faults=FaultPlan(...)`` or the ``VHDL_IFA_FAULTS`` environment switch).

Endpoints
---------
``POST /analyze`` / ``POST /check`` / ``POST /lint`` / ``POST /policy``
    As documented in ``docs/cli.md`` and ``docs/serve.md``; analyze/check/
    lint response bodies are byte-identical to ``vhdl-ifa analyze --json`` /
    ``check --json`` / ``lint --json`` in both execution modes (worker and
    inline paths share :func:`execute_request` and the render builders).
``GET /healthz``
    Liveness: ``200`` while serving, ``503`` while draining; worker counts.
``GET /metrics``
    Operational counters: queue depth and in-flight gauge, shed/dedup/
    timeout/crash/restart counters, cache hit ratios, and per-stage latency
    histograms.
``GET /stats`` / ``GET /version``
    The PR-4/PR-5 session statistics and package version, unchanged.

Shutdown: ``SIGTERM``/``SIGINT`` drain gracefully — stop accepting, let
in-flight requests finish (bounded by ``drain_grace``), then stop the pool.
Every response body carries the ``"schema": "vhdl-ifa/v1"`` stamp.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.pipeline.cache import source_digest
from repro.pipeline.faults import FaultInjector, FaultPlan
from repro.pipeline.pool import PoolResult, WorkerPool
from repro.pipeline.render import (
    analyze_document,
    json_text,
    policy_summary,
    stamped,
    version_document,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Default cap on request bodies; larger requests are rejected, not buffered.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Default bound on admitted (queued + running) analysis requests.
DEFAULT_QUEUE_DEPTH = 64

#: Histogram bucket upper bounds (seconds) for request/stage latencies.
LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_REQUEST_ERRORS = (ReproError, OSError, UnicodeDecodeError)

#: Every route the server dispatches (path → the one method it accepts).
ROUTES = {
    "/analyze": "POST",
    "/check": "POST",
    "/lint": "POST",
    "/policy": "POST",
    "/stats": "GET",
    "/version": "GET",
    "/healthz": "GET",
    "/metrics": "GET",
}

#: The pooled analysis endpoints (path → request kind).
_ANALYSIS_PATHS = {"/analyze": "analyze", "/check": "check", "/lint": "lint"}


def interaction_id(method: str, path: str, body: bytes = b"") -> str:
    """The stable content address of one request stimulus.

    Every *routed* response carries it as the ``X-Interaction-Id`` header, so
    clients (and the contract suite in :mod:`repro.contract`) can correlate
    recorded interactions with live traffic: the same method + path + body
    bytes always map to the same id, regardless of the response.  Requests
    rejected before the body is read (malformed HTTP, an oversized
    Content-Length answered ``413``) carry no id — the stimulus was never
    fully observed.
    """
    digest = hashlib.sha256()
    digest.update(method.encode("utf-8"))
    digest.update(b" ")
    digest.update(path.encode("utf-8"))
    digest.update(b"\n")
    digest.update(body or b"")
    return digest.hexdigest()[:12]


class _Histogram:
    """A fixed-bucket latency histogram (Prometheus-style cumulative ``le``)."""

    __slots__ = ("count", "total", "_bucket_counts")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self._bucket_counts = [0] * (len(LATENCY_BUCKETS) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        for index, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                self._bucket_counts[index] += 1
                return
        self._bucket_counts[-1] += 1

    def to_dict(self) -> Dict[str, Any]:
        buckets: Dict[str, int] = {}
        cumulative = 0
        for bound, count in zip(LATENCY_BUCKETS, self._bucket_counts):
            cumulative += count
            buckets[f"{bound:g}"] = cumulative
        buckets["+inf"] = self.count
        return {
            "count": self.count,
            "sum_seconds": round(self.total, 6),
            "buckets": buckets,
        }


def execute_request(
    workspace: Any,
    kind: str,
    request: Dict[str, Any],
    injector: Optional[FaultInjector] = None,
) -> Tuple[int, Dict[str, Any]]:
    """Run one validated analyze/check request against a workspace.

    This is the single execution path both modes share — the inline server
    calls it on the event loop, every pool worker calls it in its own
    process — which is what keeps pooled responses byte-identical to inline
    ones (and both identical to the CLI's ``--json`` output).  Errors are
    classified exactly like the PR-4 server: anything the toolchain itself
    diagnoses is a ``400`` document, everything else a ``500`` — never an
    exception to the caller.
    """
    try:
        if injector is not None:
            injector.before_analysis(request.get("source", ""))
        opts = {
            "entity": request.get("entity"),
            "improved": request.get("improved", True),
            "loop_processes": request.get("loop_processes", True),
        }
        if kind == "analyze":
            run = workspace.analyze_run(request["source"], **opts)
            return 200, analyze_document(
                run,
                collapse=request.get("collapse", False),
                self_loops=request.get("self_loops", False),
                file=request.get("file"),
            )
        if kind == "lint":
            linted = workspace.lint(
                request["source"], policy=request.get("policy"), **opts
            )
            return 200, linted.document(file=request.get("file"))
        checked = workspace.check(
            request["source"],
            request["policy"],
            outputs=request.get("outputs"),
            transitive=request.get("transitive"),
            restrict_to_ports=request.get("ports_only", False),
            **opts,
        )
        return 200, checked.document(file=request.get("file"))
    except _REQUEST_ERRORS as error:
        return 400, {"error": str(error)}
    except Exception as error:  # never kill the worker/server on one request
        return 500, {"error": f"internal error: {error!r}"}


class AnalysisServer:
    """The request handlers plus the shared state of one server.

    ``workspace`` supplies the session state (cache, policy registry); when
    omitted one is built around ``cache``.  ``workers`` switches on pool
    mode (see the module docstring); ``timeout`` is the per-request
    wall-clock budget in pool mode; ``queue_depth`` bounds admission;
    ``faults`` arms deterministic fault injection in this server and its
    workers.  ``self.pipeline`` aliases the workspace's pipeline, so tests
    can keep instrumenting the inline path directly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        cache: Optional[Any] = None,
        workspace: Optional[Any] = None,
        *,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        max_body_bytes: int = MAX_BODY_BYTES,
        faults: Optional[FaultPlan] = None,
    ):
        # Imported here: repro.workspace imports this package's siblings, so
        # a module-level import would be circular through repro.pipeline.
        from repro.workspace import Workspace

        if workspace is None:
            workspace = Workspace(cache=cache)
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self.workspace = workspace
        self.host = host
        self.port = port
        self.cache = workspace.cache
        self.pipeline = workspace.pipeline
        self.workers = workers
        self.timeout = timeout
        self.queue_depth = queue_depth
        self.max_body_bytes = max_body_bytes
        self.faults = faults
        self.started_at = time.time()
        self.request_counts: Dict[str, int] = {}
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[WorkerPool] = None
        self._executor: Optional[Any] = None
        self._injector = FaultInjector(faults) if faults is not None else None
        # Admission / single-flight state (event-loop confined).
        self._admitted = 0
        self._inflight: Dict[str, asyncio.Future] = {}
        # Operational counters for GET /metrics.
        self._counters: Dict[str, int] = {
            "shed": 0,
            "dedup_hits": 0,
            "timeouts": 0,
            "worker_crashes": 0,
        }
        self._request_latency = _Histogram()
        self._stage_latency: Dict[str, _Histogram] = {}
        self._worker_meta: Dict[int, Dict[str, Any]] = {}
        if self._injector is not None and not self._pool_mode:
            # Inline mode applies cache corruption to its own cache tier
            # (pool mode ships the plan to the workers instead).
            wrapped = self._injector.wrap_cache(self.workspace.cache)
            self.workspace.cache = wrapped
            self.workspace.pipeline.cache = wrapped
            self.cache = wrapped

    @property
    def _pool_mode(self) -> bool:
        return self.workers is not None and self.workers >= 1

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind, spawn the worker pool (pool mode), and start accepting."""
        if self._pool_mode and self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = WorkerPool(
                self.workers,
                timeout=self.timeout,
                fault_plan=self.faults,
                **self.workspace.worker_configuration(),
            )
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="vhdl-ifa-dispatch"
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work, stop.

        ``grace`` bounds how long in-flight requests may take to finish;
        whatever is still running afterwards is abandoned with the pool.
        New connections are refused once draining starts (the listener is
        closed), and ``GET /healthz`` reports ``503 draining``.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + grace
        while self._admitted > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        await self.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ HTTP

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _BadRequest as error:
                await self._respond(writer, error.status, {"error": str(error)})
                return
            status, document, headers = await self._answer(method, path, body)
            headers = dict(headers)
            headers.setdefault("X-Interaction-Id", interaction_id(method, path, body))
            await self._respond(writer, status, document, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise _BadRequest("malformed HTTP request")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, path, _version = parts
        length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _BadRequest("malformed Content-Length header")
                if length < 0:
                    raise _BadRequest("malformed Content-Length header")
        if length > self.max_body_bytes:
            # Rejected before a single body byte is buffered — an oversized
            # request can never reach a worker or an admission slot.
            raise _BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
                status=413,
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _BadRequest("truncated request body")
        return method, path.split("?", 1)[0], body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # Every body carries the schema stamp — including error documents.
        body = (json_text(stamped(document)) + "\n").encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
            "Content-Type: application/json; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # --------------------------------------------------------------- routing

    async def _answer(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Route one request; analysis goes through the pool when one runs."""
        if self._pool is not None and path in _ANALYSIS_PATHS and method == "POST":
            route = f"{method} {path}"
            self.request_counts[route] = self.request_counts.get(route, 0) + 1
            try:
                payload = self._parse_payload(body)
            except _BadRequest as error:
                return error.status, {"error": str(error)}, {}
            return await self._handle_pooled(_ANALYSIS_PATHS[path], payload)
        status, document = self._dispatch(method, path, body)
        return status, document, {}

    def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        """The synchronous (inline) routing path.

        Pool mode intercepts ``POST /analyze|/check|/lint`` before this
        method; everything else — and every request in inline mode — lands
        here.
        """
        route = f"{method} {path}"
        self.request_counts[route] = self.request_counts.get(route, 0) + 1
        expected = ROUTES.get(path)
        if expected is None:
            return 404, {"error": f"unknown path {path!r}"}
        if method != expected:
            return 405, {"error": f"{path} expects {expected}, got {method}"}
        if method == "POST":
            try:
                payload = self._parse_payload(body)
                if path == "/policy":
                    return 200, self._policy(payload)
                return self._run_inline(_ANALYSIS_PATHS[path], payload)
            except _BadRequest as error:
                return error.status, {"error": str(error)}
            except _REQUEST_ERRORS as error:
                return 400, {"error": str(error)}
            except Exception as error:  # never kill the server on one request
                return 500, {"error": f"internal error: {error!r}"}
        if path == "/stats":
            return 200, self._stats()
        if path == "/version":
            return 200, version_document()
        if path == "/healthz":
            return self._healthz()
        return 200, self._metrics()

    @staticmethod
    def _parse_payload(body: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise _BadRequest(f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return payload

    # ----------------------------------------------------- request building

    @staticmethod
    def _load_source(payload: Dict[str, Any]) -> Tuple[str, Optional[str]]:
        file = payload.get("file")
        source = payload.get("source")
        if (file is None) == (source is None):
            raise _BadRequest("exactly one of 'file' and 'source' is required")
        if file is not None:
            if not isinstance(file, str):
                raise _BadRequest("'file' must be a path string")
            with open(file, encoding="utf-8") as handle:
                return handle.read(), file
        if not isinstance(source, str):
            raise _BadRequest("'source' must be VHDL source text")
        return source, None

    def _build_request(self, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate a payload into the plain request dict both modes execute.

        Everything that can be rejected without an analysis — missing or
        unreadable sources, malformed option types, unknown policy names —
        is rejected here, on the event loop: a bad request never costs an
        admission slot or a worker round-trip.
        """
        source, file = self._load_source(payload)
        request: Dict[str, Any] = {
            "source": source,
            "file": file,
            "entity": payload.get("entity"),
            "improved": not payload.get("basic", False),
            "loop_processes": not payload.get("straight_line", False),
        }
        if kind == "analyze":
            request["collapse"] = bool(payload.get("collapse", False))
            request["self_loops"] = bool(payload.get("self_loops", False))
            return request
        if kind == "lint":
            spec = payload.get("policy")
            if spec is not None and not isinstance(spec, (str, dict)):
                raise _BadRequest(
                    "'policy' must be a registered policy name or a policy document"
                )
            # Resolved here (not in the worker) so unknown names reject on
            # the event loop; the resolved policy is a picklable dataclass.
            request["policy"] = None if spec is None else self.workspace.policy(spec)
            return request
        outputs = payload.get("output", [])
        if not isinstance(outputs, list):
            raise _BadRequest("'output' must be a list of resource names")
        transitive = payload.get("transitive")
        request.update(
            {
                "outputs": outputs or None,
                "policy": self._resolve_policy(payload),
                "transitive": None if transitive is None else bool(transitive),
                "ports_only": bool(payload.get("ports_only", False)),
            }
        )
        return request

    def _resolve_policy(self, payload: Dict[str, Any]) -> Any:
        """The policy of one ``/check`` request: named/inline, or two-level."""
        # Imported lazily: repro.security imports repro.analysis.api, which
        # itself imports this package (same cycle the report stage breaks).
        from repro.security.policy import TwoLevelPolicy

        spec = payload.get("policy")
        secrets = payload.get("secret")
        if spec is not None:
            if secrets is not None:
                raise _BadRequest("'policy' and 'secret' are mutually exclusive")
            if not isinstance(spec, (str, dict)):
                raise _BadRequest(
                    "'policy' must be a registered policy name or a policy document"
                )
            return self.workspace.policy(spec)
        if secrets is None:
            secrets = []
        if not isinstance(secrets, list):
            raise _BadRequest("'secret' must be a list of resource names")
        return TwoLevelPolicy(secret_resources=secrets)

    def _dedup_key(self, kind: str, request: Dict[str, Any]) -> str:
        """The single-flight identity of one request.

        Built on the same content address the artifact cache keys by (the
        source digest) plus every input that shapes the response document —
        two requests with equal keys are guaranteed byte-identical answers,
        so the leader's document can safely serve every follower.
        """
        identity = {
            key: value
            for key, value in request.items()
            if key not in ("source", "policy")
        }
        identity["kind"] = kind
        identity["digest"] = source_digest(request["source"])
        if request.get("policy") is not None:
            identity["policy"] = policy_summary(request["policy"])
        return json.dumps(identity, sort_keys=True)

    # ------------------------------------------------------------ pool path

    async def _handle_pooled(
        self, kind: str, payload: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Admission control, single-flight dedup, and pool dispatch."""
        try:
            request = self._build_request(kind, payload)
        except _BadRequest as error:
            return error.status, {"error": str(error)}, {}
        except _REQUEST_ERRORS as error:
            return 400, {"error": str(error)}, {}

        key = self._dedup_key(kind, request)
        leader = self._inflight.get(key)
        if leader is not None:
            # Single flight: coalesce onto the in-flight identical request.
            # shield() keeps a follower's disconnect from cancelling the
            # leader's future (other followers may still be waiting on it).
            self._counters["dedup_hits"] += 1
            status, document = await asyncio.shield(leader)
            return status, document, {}

        if self._admitted >= self.queue_depth:
            self._counters["shed"] += 1
            retry_after = 1
            return (
                429,
                {
                    "error": (
                        f"server at capacity ({self.queue_depth} requests "
                        "admitted); retry later"
                    ),
                    "retry_after": retry_after,
                },
                {"Retry-After": str(retry_after)},
            )

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._admitted += 1
        started = time.perf_counter()
        try:
            result: PoolResult = await loop.run_in_executor(
                self._executor, self._pool.run, kind, request
            )
            self._note_pool_result(result, time.perf_counter() - started)
            outcome = (result.status, result.document)
        except Exception as error:  # supervisor bug — still answer the client
            outcome = (500, {"error": f"internal error: {error!r}"})
        finally:
            # The slot and the single-flight entry are released no matter
            # how the request ends (including client disconnects upstream).
            self._admitted -= 1
            self._inflight.pop(key, None)
        if not future.done():
            future.set_result(outcome)
        return outcome[0], outcome[1], {}

    def _note_pool_result(self, result: PoolResult, elapsed: float) -> None:
        if result.timed_out:
            self._counters["timeouts"] += 1
        if result.crashed:
            self._counters["worker_crashes"] += 1
        if result.worker >= 0 and result.meta:
            self._worker_meta[result.worker] = result.meta
        if result.status == 200:
            self._observe_latencies(elapsed, result.document)

    def _observe_latencies(self, elapsed: float, document: Dict[str, Any]) -> None:
        self._request_latency.observe(elapsed)
        timings = document.get("timings")
        if isinstance(timings, dict):
            for stage, seconds in timings.items():
                histogram = self._stage_latency.get(stage)
                if histogram is None:
                    histogram = self._stage_latency[stage] = _Histogram()
                histogram.observe(float(seconds))

    # ---------------------------------------------------------- inline path

    def _run_inline(
        self, kind: str, payload: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        request = self._build_request(kind, payload)
        started = time.perf_counter()
        status, document = execute_request(
            self.workspace, kind, request, self._injector
        )
        if status == 200:
            self._observe_latencies(time.perf_counter() - started, document)
        return status, document

    # -------------------------------------------------------------- handlers

    def _policy(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate (and optionally register) a declarative policy document.

        A name that is already registered — e.g. preloaded by the operator
        via ``serve --policy`` — cannot be replaced with a *different*
        policy: that would let any client silently weaken the verdicts of
        later ``POST /check`` requests.  Re-posting an identical document is
        a true ``200`` no-op: the registered object is kept (nothing is
        re-bound, so in-flight ``/check`` requests never observe a swap) and
        the canonical document is echoed — replay loops over a recorded
        corpus can re-register the same policy any number of times.
        """
        from repro.security.policy_file import (
            PolicyFileError,
            policy_from_dict,
            policy_to_dict,
        )

        policy = policy_from_dict(payload, context="request")
        if policy.name is not None:
            existing = self.workspace.policies.get(policy.name)
            if existing is not None:
                try:
                    identical = policy_to_dict(existing) == policy_to_dict(policy)
                except PolicyFileError:
                    # A registered policy that cannot round-trip through the
                    # file format (programmatic, conflicting level names) can
                    # never equal a posted document — that is a conflict, not
                    # a 500 from the idempotence probe itself.
                    identical = False
                if not identical:
                    raise _BadRequest(
                        f"policy {policy.name!r} is already registered with a "
                        "different definition; pick another name",
                        status=409,
                    )
                policy = existing
            else:
                self.workspace.register_policy(policy.name, policy)
        return stamped(
            {
                "command": "policy",
                "valid": True,
                "registered": policy.name,
                "policy": policy_to_dict(policy),
            }
        )

    def _stats(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "command": "stats",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": dict(sorted(self.request_counts.items())),
            "policies": sorted(self.workspace.policies),
        }
        if self.cache is not None:
            document["cache"] = self.cache.stats()
        return stamped(document)

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness: 200 while serving, 503 once draining has started."""
        document: Dict[str, Any] = {
            "command": "healthz",
            "status": "draining" if self.draining else "ok",
            "mode": "pool" if self._pool is not None else "inline",
        }
        if self._pool is not None:
            document["workers"] = self._pool.stats()
        return (503 if self.draining else 200), stamped(document)

    def _metrics(self) -> Dict[str, Any]:
        """The operational counters of this server process."""
        document: Dict[str, Any] = {
            "command": "metrics",
            "mode": "pool" if self._pool is not None else "inline",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": dict(sorted(self.request_counts.items())),
            "in_flight": self._admitted,
            "queue_depth": self.queue_depth,
            "shed": self._counters["shed"],
            "dedup_hits": self._counters["dedup_hits"],
            "timeouts": self._counters["timeouts"],
            "worker_crashes": self._counters["worker_crashes"],
            "worker_restarts": self._pool.restarts if self._pool is not None else 0,
        }
        if self._pool is not None:
            document["workers"] = self._pool.stats()
            document["cache"] = self._aggregate_worker_cache()
        elif self.cache is not None:
            stats = self.cache.stats()
            document["cache"] = self._with_hit_ratio(
                {"hits": stats.get("hits", 0), "misses": stats.get("misses", 0)}
            )
        document["latency"] = {
            "request": self._request_latency.to_dict(),
            "stages": {
                name: histogram.to_dict()
                for name, histogram in sorted(self._stage_latency.items())
            },
        }
        return stamped(document)

    def _aggregate_worker_cache(self) -> Dict[str, Any]:
        """Summed cache counters from each worker's latest self-report."""
        hits = sum(
            meta.get("cache", {}).get("hits", 0)
            for meta in self._worker_meta.values()
        )
        misses = sum(
            meta.get("cache", {}).get("misses", 0)
            for meta in self._worker_meta.values()
        )
        return self._with_hit_ratio(
            {"hits": hits, "misses": misses, "workers_reporting": len(self._worker_meta)}
        )

    @staticmethod
    def _with_hit_ratio(counters: Dict[str, Any]) -> Dict[str, Any]:
        lookups = counters.get("hits", 0) + counters.get("misses", 0)
        counters["hit_ratio"] = (
            round(counters["hits"] / lookups, 4) if lookups else None
        )
        return counters


class _BadRequest(Exception):
    """A request the server answers with a 4xx JSON error body."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class ServerThread:
    """Run an :class:`AnalysisServer` on a background thread.

    The context-manager form the tests and benchmarks use::

        with ServerThread(AnalysisServer(port=0, cache=...)) as server:
            ...  # server.port is the bound port

    The event loop lives on the thread; ``__exit__`` stops it and joins
    (stopping the worker pool too, in pool mode).
    """

    def __init__(self, server: AnalysisServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> AnalysisServer:
        started = threading.Event()
        self._loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            started.set()
            self._loop.run_forever()
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

        self._thread = threading.Thread(
            target=run, name="vhdl-ifa-serve", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=60):
            raise RuntimeError("analysis server failed to start in time")
        return self.server

    def __exit__(self, *exc_info: Any) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=60)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache: Optional[Any] = None,
    announce=None,
    workspace: Optional[Any] = None,
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    faults: Optional[FaultPlan] = None,
    drain_grace: float = 10.0,
) -> None:
    """Run a server until interrupted (the ``vhdl-ifa serve`` body).

    ``announce`` is called with the bound URL once the server is listening
    (the CLI prints it to stderr); port 0 binds an ephemeral port.
    ``workspace`` supplies a pre-configured session (cache, named policies).
    ``SIGTERM`` and ``SIGINT`` trigger a graceful drain: the listener closes
    immediately, in-flight requests get up to ``drain_grace`` seconds to
    finish, then the worker pool stops.
    """
    server = AnalysisServer(
        host=host,
        port=port,
        cache=cache,
        workspace=workspace,
        workers=workers,
        timeout=timeout,
        queue_depth=queue_depth,
        faults=faults,
    )

    async def main() -> None:
        await server.start()
        if announce is not None:
            announce(f"http://{server.host}:{server.port}")
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass  # platform without signal support on loops
        await stop_event.wait()
        await server.drain(drain_grace)

    asyncio.run(main())
