"""Tests for the power-grid model and IR-drop analyses."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix, lil_matrix

from repro.config import STATISTICAL_TOGGLE_RATE, SUPPLY_PAD_COUNT, VDD_NOMINAL
from repro.errors import PowerGridError
from repro.pgrid import (
    GridModel,
    PowerGrid,
    dynamic_ir_for_pattern,
    red_fraction,
    render_ir_map,
    statistical_ir_analysis,
)
from repro.pgrid.maps import ir_map_csv
from repro.pgrid.statistical_ir import block_power_thresholds_mw
from repro.power import ScapCalculator
from repro.power.energy import (
    clock_buffer_energies_fj,
    gated_clock_buffer_energies_fj,
)
from repro.power.statistical import statistical_block_power
from repro.soc import build_turbo_eagle
from repro.soc.floorplan import make_turbo_eagle_floorplan, periphery_pad_positions


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=31)


@pytest.fixture(scope="module")
def model(design):
    return GridModel.build(design, nx=12, ny=12, seg_res_ohm=100.0)


class TestPowerGrid:
    def test_zero_injection_zero_drop(self):
        fp = make_turbo_eagle_floorplan(300.0)
        grid = PowerGrid(fp, nx=8, ny=8)
        drop = grid.drop_v(np.zeros(64))
        assert np.allclose(drop, 0.0)

    def test_drop_positive_and_linear(self):
        fp = make_turbo_eagle_floorplan(300.0)
        grid = PowerGrid(fp, nx=8, ny=8, seg_res_ohm=10.0)
        inj = np.zeros(64)
        center = grid.nearest_node(150.0, 150.0)
        inj[center] = 1e-3  # 1 mA at die centre
        drop = grid.drop_v(inj)
        assert drop[center] > 0
        assert drop[center] == drop.max()
        # Superposition/linearity of the resistive network.
        drop2 = grid.drop_v(2 * inj)
        assert np.allclose(drop2, 2 * drop)

    def test_center_drops_more_than_edge(self):
        fp = make_turbo_eagle_floorplan(300.0)
        grid = PowerGrid(fp, nx=8, ny=8, seg_res_ohm=10.0)
        inj = np.zeros(64)
        center = grid.nearest_node(150.0, 150.0)
        edge = grid.nearest_node(5.0, 150.0)
        inj[center] = 1e-3
        inj[edge] = 1e-3
        drop = grid.drop_v(inj)
        assert drop[center] > drop[edge]

    def test_invalid_parameters(self, design):
        fp = make_turbo_eagle_floorplan(300.0)
        with pytest.raises(PowerGridError):
            PowerGrid(fp, nx=1, ny=8)
        with pytest.raises(PowerGridError):
            PowerGrid(fp, seg_res_ohm=-1.0)
        grid = PowerGrid(fp, nx=4, ny=4)
        with pytest.raises(PowerGridError):
            grid.drop_v(np.zeros(3))
        # Non-finite resistances, non-integer mesh sizes and targets
        # that are not positive and finite.
        for bad in ({"seg_res_ohm": float("nan")},
                    {"seg_res_ohm": float("inf")},
                    {"pad_res_ohm": float("nan")},
                    {"pad_res_ohm": float("inf")},
                    {"pad_res_ohm": 0.0},
                    {"nx": 8.5},
                    {"nx": 8.0},
                    {"ny": "8"}):
            with pytest.raises(PowerGridError):
                PowerGrid(fp, **bad)
        for target in (float("nan"), float("inf"), 0.0, -0.1):
            with pytest.raises(PowerGridError):
                GridModel.calibrated(design, target_worst_drop_v=target)
        assert PowerGrid(fp, nx=np.int64(4), ny=4).n_nodes == 16

    @settings(max_examples=20, deadline=None)
    @given(
        ix=st.integers(min_value=0, max_value=7),
        iy=st.integers(min_value=0, max_value=7),
    )
    def test_node_position_roundtrip(self, ix, iy):
        fp = make_turbo_eagle_floorplan(300.0)
        grid = PowerGrid(fp, nx=8, ny=8)
        node = grid.node_index(ix, iy)
        x, y = grid.node_position(node)
        assert grid.nearest_node(x, y) == node


class TestGridModel:
    def test_every_instance_tapped(self, design, model):
        assert (model.gate_node >= 0).all()
        assert (model.flop_node >= 0).all()

    def test_vss_more_resistive_than_vdd(self, model):
        assert model.vss_grid.seg_res_ohm > model.vdd_grid.seg_res_ohm

    def test_block_nodes_inside_region(self, design, model):
        fp = design.floorplan
        for block, nodes in model.block_nodes.items():
            region = fp.region(block)
            for node in nodes:
                assert region.contains(*model.vdd_grid.node_position(node))

    def test_calibration_hits_target(self, design):
        calibrated = GridModel.calibrated(design, target_worst_drop_v=0.12,
                                          nx=12, ny=12)
        rows = statistical_ir_analysis(calibrated, window_fraction=0.5)
        worst = max(r.worst_drop_vdd_v for r in rows)
        assert worst == pytest.approx(0.12, rel=0.05)


class TestStatisticalIr:
    def test_b5_worst_block(self, model):
        rows = statistical_ir_analysis(model, window_fraction=0.5)
        worst = max(rows, key=lambda r: r.worst_drop_vdd_v)
        assert worst.block == "B5"

    def test_vss_tracks_vdd_slightly_higher(self, model):
        rows = statistical_ir_analysis(model, window_fraction=0.5)
        for row in rows:
            assert row.worst_drop_vss_v > row.worst_drop_vdd_v

    def test_halving_window_increases_drop(self, model):
        c1 = statistical_ir_analysis(model, window_fraction=1.0)
        c2 = statistical_ir_analysis(model, window_fraction=0.5)
        for r1, r2 in zip(c1, c2):
            assert r2.worst_drop_vdd_v > r1.worst_drop_vdd_v
            assert r2.avg_power_mw > 1.5 * r1.avg_power_mw

    def test_chip_row(self, model):
        rows = statistical_ir_analysis(model, include_chip_row=True)
        assert rows[-1].block == "Chip"
        assert rows[-1].worst_drop_vdd_v == pytest.approx(
            max(r.worst_drop_vdd_v for r in rows[:-1])
        )

    def test_thresholds_exclude_chip(self, model):
        rows = statistical_ir_analysis(model, include_chip_row=True)
        thresholds = block_power_thresholds_mw(rows)
        assert "Chip" not in thresholds
        assert set(thresholds) == {"B1", "B2", "B3", "B4", "B5", "B6"}


class TestDynamicIr:
    def test_active_pattern_drops(self, design, model):
        calc = ScapCalculator(design, "clka")
        rng = np.random.default_rng(2)
        v1 = {fi: int(rng.integers(2)) for fi in range(design.netlist.n_flops)}
        timing = calc.simulate_pattern(v1)
        ir = dynamic_ir_for_pattern(model, timing)
        assert ir.worst_vdd_v > 0
        assert ir.worst_vss_v > ir.worst_vdd_v
        assert len(ir.gate_droop_v) == design.netlist.n_gates

    def test_scap_window_worse_than_cap_window(self, design, model):
        calc = ScapCalculator(design, "clka")
        rng = np.random.default_rng(2)
        v1 = {fi: int(rng.integers(2)) for fi in range(design.netlist.n_flops)}
        timing = calc.simulate_pattern(v1)
        ir_scap = dynamic_ir_for_pattern(model, timing)
        ir_cap = dynamic_ir_for_pattern(model, timing, window_ns=20.0)
        assert ir_scap.worst_vdd_v > ir_cap.worst_vdd_v

    def test_quiet_pattern_nearly_zero(self, design, model):
        """All-zeros scan state: only the few ungated bus-register nets
        may toggle, so the drop is a tiny fraction of an active one."""
        calc = ScapCalculator(design, "clka")
        quiet = {fi: 0 for fi in range(design.netlist.n_flops)}
        rng = np.random.default_rng(2)
        noisy = {fi: int(rng.integers(2)) for fi in range(design.netlist.n_flops)}
        tq = calc.simulate_pattern(quiet)
        tn = calc.simulate_pattern(noisy)
        # Switched energy (injected charge) is the physical quantity:
        # the quiet pattern moves a tiny fraction of the noisy one's.
        assert tq.energy_fj_total < 0.1 * tn.energy_fj_total
        ir_q = dynamic_ir_for_pattern(model, tq)
        assert ir_q.red_fraction() == 0.0


class TestMaps:
    def test_render_and_red_fraction(self, design, model):
        drop = np.zeros(model.vdd_grid.n_nodes)
        drop[model.vdd_grid.nearest_node(150.0, 150.0)] = 0.5
        art = render_ir_map(model.vdd_grid, drop)
        assert "#" in art
        assert red_fraction(drop) == pytest.approx(1 / model.vdd_grid.n_nodes)

    def test_csv_export(self, model):
        drop = np.zeros(model.vdd_grid.n_nodes)
        csv = ir_map_csv(model.vdd_grid, drop)
        assert csv.splitlines()[0] == "x_um,y_um,drop_v"
        assert len(csv.splitlines()) == model.vdd_grid.n_nodes + 1


# ----------------------------------------------------------------------
# The element-by-element loops the array code replaced, kept as
# references: the mesh, the taps, the block nodes and the injected node
# power must equal theirs bit for bit.
# ----------------------------------------------------------------------
def ref_nearest_node(grid, x, y):
    ix = min(grid.nx - 1, max(0, int(x / grid.floorplan.width * grid.nx)))
    iy = min(grid.ny - 1, max(0, int(y / grid.floorplan.height * grid.ny)))
    return iy * grid.nx + ix


def ref_conductance(grid):
    nx, ny = grid.nx, grid.ny
    g_seg = 1.0 / grid.seg_res_ohm
    g_pad = 1.0 / grid.pad_res_ohm
    G = lil_matrix((grid.n_nodes, grid.n_nodes))
    for iy in range(ny):
        for ix in range(nx):
            a = iy * nx + ix
            for jx, jy in ((ix + 1, iy), (ix, iy + 1)):
                if jx < nx and jy < ny:
                    b = jy * nx + jx
                    G[a, a] += g_seg
                    G[b, b] += g_seg
                    G[a, b] -= g_seg
                    G[b, a] -= g_seg
    for px, py in periphery_pad_positions(grid.floorplan, SUPPLY_PAD_COUNT):
        node = ref_nearest_node(grid, px, py)
        G[node, node] += g_pad
    return csc_matrix(G)


def ref_taps(model):
    design, vdd = model.design, model.vdd_grid
    netlist, fp = design.netlist, design.floorplan
    center = fp.center
    gate_node = np.zeros(netlist.n_gates, dtype=np.int32)
    for gi, g in enumerate(netlist.gates):
        pos = g.pos if g.pos is not None else center
        gate_node[gi] = ref_nearest_node(vdd, *pos)
    flop_node = np.zeros(netlist.n_flops, dtype=np.int32)
    for fi, f in enumerate(netlist.flops):
        pos = f.pos if f.pos is not None else center
        flop_node[fi] = ref_nearest_node(vdd, *pos)
    net_node = np.full(netlist.n_nets, -1, dtype=np.int32)
    for gi, g in enumerate(netlist.gates):
        net_node[g.output] = gate_node[gi]
    for fi, f in enumerate(netlist.flops):
        net_node[f.q] = flop_node[fi]
    clock_nodes = {
        name: np.array(
            [ref_nearest_node(vdd, *buf.pos) for buf in tree.buffers],
            dtype=np.int32,
        )
        for name, tree in design.clock_trees.items()
    }
    block_nodes = {}
    for block in design.blocks():
        r = fp.region(block)
        nodes = []
        for node in range(vdd.n_nodes):
            iy, ix = divmod(node, vdd.nx)
            x = (ix + 0.5) / vdd.nx * fp.width
            y = (iy + 0.5) / vdd.ny * fp.height
            if r.x0 <= x < r.x1 and r.y0 <= y < r.y1:
                nodes.append(node)
        block_nodes[block] = np.array(nodes, dtype=np.int32)
    return {
        "gate_node": gate_node,
        "flop_node": flop_node,
        "net_node": net_node,
        "clock_nodes": clock_nodes,
        "block_nodes": block_nodes,
    }


def ref_statistical_power(model, window_fraction):
    design = model.design
    netlist = design.netlist
    caps = design.parasitics.net_cap_ff
    vdd, rate = VDD_NOMINAL, STATISTICAL_TOGGLE_RATE
    stats = statistical_block_power(
        design, toggle_rate=rate, window_fraction=window_fraction, vdd=vdd
    )
    window_ns = next(iter(stats.values())).window_ns
    node_power_mw = np.zeros(model.vdd_grid.n_nodes)
    unit = vdd * vdd * rate / window_ns * 1e-3
    for gi, g in enumerate(netlist.gates):
        node_power_mw[model.gate_node[gi]] += caps[g.output] * unit
    for fi, f in enumerate(netlist.flops):
        node_power_mw[model.flop_node[fi]] += caps[f.q] * unit
    for name, tree in design.clock_trees.items():
        energies = clock_buffer_energies_fj(tree, vdd, edges=2)
        period_ns = design.domains[name].period_ns
        nodes = model.clock_nodes[name]
        for bi, energy in energies.items():
            node_power_mw[nodes[bi]] += energy / period_ns * 1e-3
    return node_power_mw


def ref_dynamic_power(model, timing, domain, window_ns, clock_gating):
    design = model.design
    vdd = VDD_NOMINAL
    caps = design.parasitics.net_cap_ff
    net_energy_fj = timing.toggles * caps * vdd * vdd
    node_power_mw = np.zeros(model.vdd_grid.n_nodes)
    for net in np.nonzero(timing.toggles)[0]:
        node = model.net_node[net]
        if node >= 0:
            node_power_mw[node] += net_energy_fj[net] / window_ns * 1e-3
    tree = design.clock_trees[domain]
    clock_window_ns = design.domains[domain].period_ns / 2.0
    if clock_gating:
        launching = {
            fi
            for fi in tree.leaf_of_flop
            if timing.toggles[design.netlist.flops[fi].q] > 0
        }
        energies = gated_clock_buffer_energies_fj(tree, launching, vdd, edges=1)
    else:
        energies = clock_buffer_energies_fj(tree, vdd, edges=1)
    nodes = model.clock_nodes[domain]
    for bi, energy in energies.items():
        node_power_mw[nodes[bi]] += energy / clock_window_ns * 1e-3
    return node_power_mw


def _injected(model, analysis, *args, **kwargs):
    """The node-power vector *analysis* hands to the model's injection."""
    with mock.patch.object(
        model, "injection_from_node_power",
        wraps=model.injection_from_node_power,
    ) as inject:
        analysis(model, *args, **kwargs)
    (node_power_mw, *_), _ = inject.call_args
    return node_power_mw


def _same(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def designs(design):
    return {"tiny": design, "small": build_turbo_eagle("small", seed=31)}


#: 8x10 and 12x12 put two pads on one node, so that diagonal adds g_pad
#: twice; 25x25 puts node centres exactly on block edges (x = 30 um and
#: y = 78 um on tiny), where the half-open region test decides.
SHARED_PADS = ((8, 10), (12, 12))
MESHES = [("tiny", 24, 24), ("small", 24, 24), ("tiny", 8, 10),
          ("tiny", 12, 12), ("small", 12, 12), ("tiny", 25, 25)]


@pytest.mark.parametrize("scale,nx,ny", MESHES)
class TestMatchesReferenceLoops:
    def test_conductance_matrix(self, designs, scale, nx, ny):
        from scipy.sparse.linalg import splu

        with mock.patch("scipy.sparse.linalg.splu", wraps=splu) as factor:
            model = GridModel.build(designs[scale], nx=nx, ny=ny)
        built = [call.args[0] for call in factor.call_args_list]
        grids = (model.vdd_grid, model.vss_grid)
        assert len(built) == len(grids)
        pads = model.vdd_grid.pad_nodes
        assert (len(set(pads)) < len(pads)) == ((nx, ny) in SHARED_PADS)
        for matrix, grid in zip(built, grids):
            ref = ref_conductance(grid)
            _same(matrix.data, ref.data)
            _same(matrix.indices, ref.indices)
            _same(matrix.indptr, ref.indptr)

    def test_taps_and_block_nodes(self, designs, scale, nx, ny):
        model = GridModel.build(designs[scale], nx=nx, ny=ny)
        if nx == 25:
            x, y = model.vdd_grid.node_position(np.arange(nx * ny))
            assert 30.0 in x and 78.0 in y
        ref = ref_taps(model)
        for name in ("gate_node", "flop_node", "net_node"):
            _same(getattr(model, name), ref[name])
        for name in ("clock_nodes", "block_nodes"):
            got = getattr(model, name)
            assert list(got) == list(ref[name])
            for key, nodes in got.items():
                _same(nodes, ref[name][key])

    def test_injected_node_power(self, designs, scale, nx, ny):
        design = designs[scale]
        model = GridModel.build(design, nx=nx, ny=ny)
        for fraction in (1.0, 0.5):
            got = _injected(model, statistical_ir_analysis,
                            window_fraction=fraction)
            _same(got, ref_statistical_power(model, fraction))
        domain = design.dominant_domain()
        calc = ScapCalculator(design, domain)
        rng = np.random.default_rng(5)
        for _ in range(3):
            v1 = {fi: int(rng.integers(2))
                  for fi in range(design.netlist.n_flops)}
            timing = calc.simulate_pattern(v1)
            for window_ns, gating in ((None, False), (20.0, False),
                                      (None, True)):
                got = _injected(model, dynamic_ir_for_pattern, timing,
                                window_ns=window_ns, clock_gating=gating)
                window = timing.stw_ns if window_ns is None else window_ns
                _same(got, ref_dynamic_power(
                    model, timing, domain, window, gating))
