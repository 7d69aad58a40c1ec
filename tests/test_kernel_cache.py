"""Persistent kernel cache: correctness, invalidation, resilience.

The cache trades a ~seconds compile for a ~milliseconds marshal load,
but only if it can never serve a *wrong* kernel: a mutated netlist must
land on a different fingerprint, a corrupted entry must degrade to a
recompile, and workers racing on a cold cache must all end up with
bit-identical results.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator
from repro.obs import Telemetry, use_telemetry
from repro.perf.kernel_cache import (
    KERNEL_SCHEMA_VERSION,
    KernelCache,
    cache_enabled,
    current_kernel_cache,
    default_cache_root,
    netlist_fingerprint,
    use_kernel_cache,
)
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def graded():
    design = build_turbo_eagle("tiny", seed=2007)
    domain = design.dominant_domain()
    nl = design.netlist
    reps, _ = collapse_faults(nl, build_fault_universe(nl))
    rng = np.random.default_rng(11)
    matrix = rng.integers(0, 2, size=(96, nl.n_flops), dtype=np.int8)
    return design, domain, list(reps), matrix


def _reference(graded):
    design, domain, reps, matrix = graded
    with use_kernel_cache(None):
        sim = FaultSimulator(design.netlist, domain)
    return sim.run_batch(matrix, reps)


# ----------------------------------------------------------------------
# warm-load correctness
# ----------------------------------------------------------------------
class TestWarmLoad:
    def test_cold_then_warm_bit_identical(self, graded, tmp_path):
        design, domain, reps, matrix = graded
        ref = _reference(graded)
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            cold = FaultSimulator(design.netlist, domain)
            assert cold.run_batch(matrix, reps) == ref
            assert cache.stores >= 1
            warm = FaultSimulator(design.netlist, domain)
            assert warm.run_batch(matrix, reps) == ref
        assert cache.hits >= 1

    def test_warm_simulator_compiles_nothing(self, graded, tmp_path):
        design, domain, reps, matrix = graded
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            FaultSimulator(design.netlist, domain).warm_kernels(reps)
            warm = FaultSimulator(design.netlist, domain)
            fresh = warm.warm_kernels(reps)
        assert fresh == 0

    def test_warm_kernels_counts_fresh_compiles(self, graded, tmp_path):
        design, domain, reps, matrix = graded
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            fresh = FaultSimulator(design.netlist, domain).warm_kernels(reps)
        sites = {f.net for f in reps}
        assert fresh == len(sites)

    def test_cone_topology_round_trips(self, graded, tmp_path):
        design, domain, reps, _ = graded
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            a = FaultSimulator(design.netlist, domain)
            a.warm_kernels(reps)
            b = FaultSimulator(design.netlist, domain)
            for fault in reps[:50]:
                assert b.cone_of(fault.net) == a.cone_of(fault.net)

    def test_same_process_loads_are_memoized(self, graded, tmp_path):
        design, domain, reps, _ = graded
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            FaultSimulator(design.netlist, domain).warm_kernels(reps)
            FaultSimulator(design.netlist, domain).warm_kernels(reps)
            FaultSimulator(design.netlist, domain).warm_kernels(reps)
        # Stored once, then served from the per-instance memo: the entry
        # file is read at most once no matter how many simulators the
        # process builds.
        key = cache.entry_key(netlist_fingerprint(design.netlist), domain)
        assert key in cache._mem
        assert cache.hits >= 2

    def test_disabled_cache_writes_nothing(self, graded, tmp_path):
        design, domain, reps, matrix = graded
        ref = _reference(graded)
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache), use_kernel_cache(None):
            sim = FaultSimulator(design.netlist, domain)
            assert sim.run_batch(matrix, reps) == ref
        assert cache.entries() == []


# ----------------------------------------------------------------------
# invalidation: mutated netlist -> new fingerprint -> recompile
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_fingerprint_changes_on_mutation(self):
        a = build_turbo_eagle("tiny", seed=2007).netlist
        b = build_turbo_eagle("tiny", seed=2007).netlist
        assert netlist_fingerprint(a) == netlist_fingerprint(b)
        c = build_turbo_eagle("tiny", seed=2008).netlist
        assert netlist_fingerprint(a) != netlist_fingerprint(c)

    def test_mutated_netlist_misses_and_recompiles(self, graded, tmp_path):
        design, domain, reps, matrix = graded
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            FaultSimulator(design.netlist, domain).warm_kernels(reps)
            # A structurally different design must not hit the entry the
            # first one stored.
            other = build_turbo_eagle("tiny", seed=2008)
            onl = other.netlist
            oreps, _ = collapse_faults(onl, build_fault_universe(onl))
            sim = FaultSimulator(onl, other.dominant_domain())
            assert sim.warm_kernels(oreps) > 0  # compiled, not served stale
        assert len(cache.entries()) == 2

    def test_entry_key_covers_domain_and_schema(self, tmp_path):
        cache = KernelCache(tmp_path)
        fp = "a" * 40
        assert cache.entry_key(fp, "clka") != cache.entry_key(fp, "clkb")

    def test_extra_context_feeds_fingerprint(self, graded):
        nl = graded[0].netlist
        assert netlist_fingerprint(nl) != netlist_fingerprint(nl, ("x",))


# ----------------------------------------------------------------------
# corruption: degrade to recompile, never fail
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:-7],  # truncated
            lambda raw: b"\x00" * len(raw),  # zeroed
            lambda raw: raw[:20] + raw[20:][::-1],  # checksum mismatch
            lambda raw: b"short",  # not even a digest
        ],
    )
    def test_corrupted_entry_falls_back(self, graded, tmp_path, damage):
        design, domain, reps, matrix = graded
        ref = _reference(graded)
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            FaultSimulator(design.netlist, domain).warm_kernels(reps)
        [entry] = cache.entries()
        entry.write_bytes(damage(entry.read_bytes()))
        tel = Telemetry(tracing=False)
        # A fresh cache instance (= fresh process): the in-memory memo
        # must not mask the on-disk damage.
        with use_kernel_cache(KernelCache(tmp_path)), use_telemetry(tel):
            sim = FaultSimulator(design.netlist, domain)
            assert sim.run_batch(matrix, reps) == ref
        assert tel.metrics.counter("kcache.corrupt_entries").value() >= 1

    def test_corrupt_file_is_deleted_on_load(self, tmp_path):
        cache = KernelCache(tmp_path)
        path = cache.entry_path("deadbeef")
        tmp_path.mkdir(exist_ok=True)
        path.write_bytes(b"garbage that is longer than twenty bytes....")
        assert cache.load("deadbeef") is None
        assert not path.exists()

    def test_schema_mismatch_is_a_miss(self, graded, tmp_path, monkeypatch):
        design, domain, reps, _ = graded
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            FaultSimulator(design.netlist, domain).warm_kernels(reps)
        monkeypatch.setattr(
            "repro.perf.kernel_cache.KERNEL_SCHEMA_VERSION",
            KERNEL_SCHEMA_VERSION + 1,
        )
        key = cache.entry_key(netlist_fingerprint(design.netlist), domain)
        # The key itself embeds the schema, so the entry simply does not
        # resolve; even a forced read of the old payload must reject it.
        assert cache.load(key) is None

    def test_unwritable_root_disables_persistence_only(
        self, graded, tmp_path
    ):
        design, domain, reps, matrix = graded
        ref = _reference(graded)
        root = tmp_path / "ro"
        root.mkdir()
        cache = KernelCache(root)
        os.chmod(root, 0o500)
        try:
            with use_kernel_cache(cache):
                sim = FaultSimulator(design.netlist, domain)
                assert sim.run_batch(matrix, reps) == ref
        finally:
            os.chmod(root, 0o700)


# ----------------------------------------------------------------------
# concurrency: cold-cache races are safe
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_pool_on_cold_cache_bit_identical(self, graded, tmp_path):
        design, domain, reps, matrix = graded
        ref = _reference(graded)
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            sim = FaultSimulator(design.netlist, domain)
            got = sim.run_batch(matrix, reps, n_workers=2)
        assert got == ref

    def test_racing_stores_converge(self, graded, tmp_path):
        design, domain, reps, matrix = graded
        ref = _reference(graded)
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            # Two simulators compile independently and both store; last
            # writer wins with identical content.
            a = FaultSimulator(design.netlist, domain)
            b = FaultSimulator(design.netlist, domain)
            b._ktable = {}  # pretend b loaded before a stored
            a.warm_kernels(reps)
            b.warm_kernels(reps)
            assert len(cache.entries()) == 1
            warm = FaultSimulator(design.netlist, domain)
            assert warm.run_batch(matrix, reps) == ref

    def test_eviction_bounds_directory(self, tmp_path):
        cache = KernelCache(tmp_path, max_entries=3)
        for i in range(6):
            cache.store(f"{i:040x}", {})
        assert len(cache.entries()) <= 3
        assert cache.evictions >= 3


# ----------------------------------------------------------------------
# ambient plumbing
# ----------------------------------------------------------------------
class TestAmbient:
    def test_env_dir_moves_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path / "kc"))
        assert default_cache_root() == tmp_path / "kc"

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "off")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "1")
        assert cache_enabled()

    def test_use_kernel_cache_scopes(self, tmp_path):
        cache = KernelCache(tmp_path)
        with use_kernel_cache(cache):
            assert current_kernel_cache() is cache
            with use_kernel_cache(None):
                assert current_kernel_cache() is None
            assert current_kernel_cache() is cache

    def test_stats_shape(self, tmp_path):
        stats = KernelCache(tmp_path).stats()
        assert set(stats) == {
            "root", "entries", "hits", "misses", "stores", "evictions",
        }
