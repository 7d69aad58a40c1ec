"""One session object for the run-wide configuration knobs.

Four ambient scopes accumulated across the perf and obs subsystems —
:func:`repro.obs.use_telemetry`,
:func:`repro.perf.resilient.execution_policy`,
:func:`repro.perf.dispatch.dispatch_policy` and
:func:`repro.perf.kernel_cache.use_kernel_cache` — and every new entry
point had to thread all four through by hand.  :class:`RunContext`
composes them into one immutable session object, and
:func:`use_run_context` scopes them together::

    ctx = RunContext(
        telemetry=Telemetry(tracing=True),
        execution=RetryPolicy(max_retries=1),
        dispatch=DispatchPolicy(mode="pool"),
        kernel_cache=KernelCache(tmp_dir),
    )
    with use_run_context(ctx):
        run_noise_tolerant_flow(design)        # all four apply
    run_noise_tolerant_flow(design, context=ctx)  # same thing

Every field defaults to "inherit the ambient value", so partial
contexts compose: ``RunContext(dispatch=...)`` inside a
``use_telemetry(...)`` block keeps the outer telemetry.  For the
kernel cache — whose ambient value is itself optional — the sentinel
:data:`INHERIT_CACHE` distinguishes "inherit" from ``None`` ("disable
caching for this scope").

The individual context managers remain fully supported; a
:class:`RunContext` is exactly equivalent to nesting them, which is
what :func:`use_run_context` does.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .obs import AnyTelemetry, current_telemetry, use_telemetry
from .perf.dispatch import DispatchPolicy, current_dispatch, dispatch_policy
from .perf.kernel_cache import (
    KernelCache,
    current_kernel_cache,
    use_kernel_cache,
)
from .perf.resilient import RetryPolicy, default_policy, execution_policy


class _InheritCache:
    """Sentinel type: leave the ambient kernel cache alone."""

    def __repr__(self) -> str:
        return "INHERIT_CACHE"


#: Default for :attr:`RunContext.kernel_cache`: inherit the ambient
#: cache.  Pass ``None`` to disable caching inside the scope.
INHERIT_CACHE = _InheritCache()


@dataclass(frozen=True)
class RunContext:
    """Immutable bundle of the session-wide configuration knobs.

    ``None`` (or :data:`INHERIT_CACHE` for the cache) means "inherit
    whatever is ambient", so contexts can be partial and nest.
    """

    #: Telemetry facade scoped over the run (``None`` = inherit the
    #: ambient facade; pass ``repro.obs.NULL_TELEMETRY`` to force off).
    telemetry: Optional[AnyTelemetry] = None
    #: Retry/timeout/crash-isolation policy for resilient execution.
    execution: Optional[RetryPolicy] = None
    #: Serial/batch/pool dispatch policy for ``n_workers="auto"``.
    dispatch: Optional[DispatchPolicy] = None
    #: Compiled-kernel cache (``None`` disables caching in the scope).
    kernel_cache: Union[KernelCache, None, _InheritCache] = INHERIT_CACHE

    def overriding(self, other: "RunContext") -> "RunContext":
        """Compose two contexts: *other*'s explicit fields win.

        Fields *other* leaves as "inherit" keep this context's value,
        so a caller can layer a partial override (say, the service
        store's retry policy) over a snapshot of the ambient session
        without losing the rest::

            ctx = current_run_context().overriding(
                RunContext(execution=store_policy)
            )
        """
        return RunContext(
            telemetry=(
                other.telemetry
                if other.telemetry is not None else self.telemetry
            ),
            execution=(
                other.execution
                if other.execution is not None else self.execution
            ),
            dispatch=(
                other.dispatch
                if other.dispatch is not None else self.dispatch
            ),
            kernel_cache=(
                self.kernel_cache
                if isinstance(other.kernel_cache, _InheritCache)
                else other.kernel_cache
            ),
        )

    def is_default(self) -> bool:
        """True when every field inherits the ambient value."""
        return (
            self.telemetry is None
            and self.execution is None
            and self.dispatch is None
            and isinstance(self.kernel_cache, _InheritCache)
        )


def current_run_context() -> RunContext:
    """Snapshot of the ambient configuration as a :class:`RunContext`.

    Re-scoping the snapshot reproduces the current environment — handy
    for shipping the session configuration across an API boundary.
    """
    return RunContext(
        telemetry=current_telemetry(),
        execution=default_policy(),
        dispatch=current_dispatch(),
        kernel_cache=current_kernel_cache(),
    )


@contextmanager
def use_run_context(
    context: Optional[RunContext],
) -> Iterator[RunContext]:
    """Scope every non-inherit field of *context* ambiently.

    Exactly equivalent to nesting the individual context managers;
    ``None`` (or an all-default context) scopes nothing and is free.
    """
    ctx = context if context is not None else RunContext()
    with ExitStack() as stack:
        if ctx.telemetry is not None:
            stack.enter_context(use_telemetry(ctx.telemetry))
        if ctx.execution is not None:
            stack.enter_context(execution_policy(ctx.execution))
        if ctx.dispatch is not None:
            stack.enter_context(dispatch_policy(ctx.dispatch))
        if not isinstance(ctx.kernel_cache, _InheritCache):
            stack.enter_context(use_kernel_cache(ctx.kernel_cache))
        yield ctx
