"""Multi-tenant namespaces over per-tenant job stores.

The HTTP front-end is auth-less but *namespaced*: every URL names a
tenant (``/v1/{tenant}/jobs``), and each tenant owns one ordinary
:class:`~repro.service.jobstore.JobStore` directory under a shared
data root::

    <data_root>/
      tenants/
        default/        <- a plain JobStore root
          config.json
          jobs/ ...
        lab-a/ ...

Nothing about a tenant store is special — ``repro jobs
<data_root>/tenants/lab-a`` (or ``repro jobs <data_root> --tenant
lab-a``) inspects it, a plain worker can drain it, and every
durability/back-pressure property of the store holds per tenant.  In
particular **back-pressure is per tenant**: each store enforces its own
``max_queue_depth``, so one noisy tenant saturating its queue gets 429s
while the others keep submitting.

:class:`TenantFleet` is the execution half ``repro serve --http``
wires in: one :class:`~repro.service.supervisor.ServiceSupervisor` per
tenant store, ticked from a single background thread, so lazily
created tenants start draining without any extra operator action.
"""

from __future__ import annotations

import os
import re
import threading
import warnings
from typing import Dict, List, Optional, Tuple

from ..errors import ServiceError
from ..obs import AnyTelemetry, use_telemetry
from .jobstore import JobStore, ServiceConfig
from .supervisor import ServiceSupervisor

#: Tenant names are path components and metric label values: short
#: lowercase slugs, no dots, no separators that could escape the root.
TENANT_NAME_RE = re.compile(r"[a-z0-9][a-z0-9_-]{0,31}\Z")

#: How long an idle fleet naps between supervision rounds.
_IDLE_POLL_S = 0.05


def validate_tenant_name(name: str) -> str:
    """Return *name* when it is a legal tenant slug, raise otherwise."""
    if not TENANT_NAME_RE.fullmatch(name):
        raise ServiceError(
            f"invalid tenant name {name!r}: need 1-32 chars of "
            f"[a-z0-9_-], starting with a letter or digit"
        )
    return name


class TenantManager:
    """Lazily created per-tenant :class:`JobStore` roots under one dir.

    Thread-safe: the HTTP server's connection threads and the fleet
    thread share one manager.  A tenant's store is created on first
    use with *default_config*; an existing store keeps its own
    persisted ``config.json`` (the same open-vs-create semantics
    :class:`JobStore` itself has).
    """

    def __init__(
        self,
        data_root: str,
        default_config: Optional[ServiceConfig] = None,
    ) -> None:
        self.data_root = os.path.abspath(data_root)
        self.tenants_dir = os.path.join(self.data_root, "tenants")
        for path in (self.data_root, self.tenants_dir):
            if os.path.exists(path) and not os.path.isdir(path):
                raise ServiceError(f"{path!r} is not a directory")
        try:
            os.makedirs(self.tenants_dir, exist_ok=True)
        except OSError as exc:
            raise ServiceError(
                f"cannot create tenant directory {self.tenants_dir!r}: {exc}"
            ) from exc
        self.default_config = default_config
        self._stores: Dict[str, JobStore] = {}
        self._mutex = threading.Lock()

    def tenant_root(self, name: str) -> str:
        return os.path.join(self.tenants_dir, validate_tenant_name(name))

    def store(self, name: str) -> JobStore:
        """The tenant's job store, created on first use."""
        name = validate_tenant_name(name)
        with self._mutex:
            store = self._stores.get(name)
            if store is None:
                root = self.tenant_root(name)
                config = (
                    None
                    if os.path.exists(
                        os.path.join(root, "config.json")
                    )
                    else self.default_config
                )
                store = JobStore(root, config=config)
                self._stores[name] = store
            return store

    def tenant_names(self) -> List[str]:
        """Every tenant with a store on disk (sorted)."""
        try:
            names = os.listdir(self.tenants_dir)
        except OSError:
            return []
        return sorted(
            n
            for n in names
            if TENANT_NAME_RE.fullmatch(n)
            and os.path.isdir(os.path.join(self.tenants_dir, n))
        )

    def open_stores(self) -> List[Tuple[str, JobStore]]:
        """``(tenant, store)`` for every tenant on disk, opening lazily.

        A store that cannot be opened is skipped with a warning, as
        :meth:`JobStore.list_jobs` skips an unreadable job record: one
        bad tenant must not stop the others being served.
        """
        stores: List[Tuple[str, JobStore]] = []
        for name in self.tenant_names():
            try:
                stores.append((name, self.store(name)))
            except ServiceError as exc:
                warnings.warn(
                    f"skipping tenant {name!r}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return stores


class TenantFleet:
    """One supervised worker fleet per tenant, driven by one thread.

    Each tenant store gets its own
    :class:`~repro.service.supervisor.ServiceSupervisor` (created when
    the tenant first appears on disk) with *n_workers* subprocess
    workers; ``n_workers=0`` keeps execution in-process and serial —
    the supervisor's graceful-degradation path — which is what the
    tests and the benchmark use.  The background thread round-robins
    ``tick()`` over every supervisor, so reaping, respawning and
    inline execution all keep happening off the HTTP server's
    connection threads.
    """

    def __init__(
        self,
        tenants: TenantManager,
        n_workers: int = 0,
        inline_fallback: bool = True,
    ) -> None:
        self.tenants = tenants
        self.n_workers = n_workers
        self.inline_fallback = inline_fallback
        #: Where ticks record metrics; the HTTP server sets its own.
        self.telemetry: Optional[AnyTelemetry] = None
        self._supervisors: Dict[str, ServiceSupervisor] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def supervisor(self, tenant: str) -> Optional[ServiceSupervisor]:
        return self._supervisors.get(tenant)

    def _ensure_supervisors(self) -> None:
        for name, store in self.tenants.open_stores():
            if name not in self._supervisors:
                sup = ServiceSupervisor(
                    store,
                    n_workers=self.n_workers,
                    inline_fallback=self.inline_fallback,
                )
                sup.start()
                self._supervisors[name] = sup

    def tick(self) -> None:
        """One supervision round across every tenant."""
        self._ensure_supervisors()
        for sup in self._supervisors.values():
            sup.tick()

    def pending_work(self) -> bool:
        return any(
            store.pending_work()
            for _, store in self.tenants.open_stores()
        )

    def _run(self) -> None:
        while not self._stop.is_set():
            if self.telemetry is not None:
                with use_telemetry(self.telemetry):
                    self.tick()
            else:
                self.tick()
            # Busy tenants tick again immediately; an idle fleet naps.
            if not self.pending_work():
                self._stop.wait(_IDLE_POLL_S)

    def start(self) -> "TenantFleet":
        if self._thread is not None:
            raise ServiceError("fleet already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-tenant-fleet", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, grace_s: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=grace_s + 5.0)
            self._thread = None
        for sup in self._supervisors.values():
            sup.shutdown(grace_s=grace_s)
        self._supervisors.clear()

    def __enter__(self) -> "TenantFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
