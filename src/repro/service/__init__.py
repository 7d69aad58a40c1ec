"""ATPG-as-a-service: a durable job backend for the flow.

``repro.service`` turns :func:`repro.core.run_noise_tolerant_flow`
into submit/poll/fetch jobs that survive worker crashes, hangs and
restarts:

* :class:`JobStore` — crash-safe, file-backed job state machine
  (``queued → running → done | failed | dead``, plus ``cancelled``
  for jobs pulled back before any worker ran them) with explicit
  back-pressure;
* :class:`Lease` / :class:`LeaseHeartbeat` — expiring, fenced job
  ownership; dead or hung workers forfeit their job after one TTL;
* :class:`ServiceWorker` — claims a job, runs its whole flow under one
  lease, and resumes a predecessor's work bit-identically from the
  job's checkpoint store;
* :class:`ServiceSupervisor` — keeps a worker fleet alive, respawns
  crashes, and degrades to in-process serial execution when the fleet
  is gone;
* :class:`ServiceClient` — the file-backed submit/poll/fetch front-end;
* :class:`HttpServerThread` — the HTTP/1.1 wire API
  (``/v1/{tenant}/jobs``, NDJSON event streaming, Prometheus
  ``/metrics``) on the stdlib's threading HTTP server, with
  :class:`HttpServiceClient` as its mirror-image client;
* :class:`TenantManager` / :class:`TenantFleet` — auth-less tenant
  namespaces, one lazily created store (and supervised fleet) per
  tenant under a shared data root.

CLI: ``repro serve`` (``--http HOST:PORT`` for the wire API) /
``repro submit`` / ``repro jobs``.
"""

from .client import HttpServiceClient, ServiceClient
from .http import HttpServerThread
from .jobstore import (
    JOB_CANCELLED,
    JOB_DEAD,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobRecord,
    JobSpec,
    JobStore,
    ServiceConfig,
)
from .lease import Lease, LeaseHeartbeat
from .supervisor import ServiceSupervisor
from .tenants import TenantFleet, TenantManager, validate_tenant_name
from .worker import ServiceWorker, result_payload

__all__ = [
    "JOB_CANCELLED",
    "JOB_DEAD",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "HttpServerThread",
    "HttpServiceClient",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "Lease",
    "LeaseHeartbeat",
    "ServiceClient",
    "ServiceConfig",
    "ServiceSupervisor",
    "ServiceWorker",
    "TenantFleet",
    "TenantManager",
    "result_payload",
    "validate_tenant_name",
]
