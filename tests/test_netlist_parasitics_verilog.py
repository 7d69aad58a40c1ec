"""Tests for parasitic extraction and the Verilog writer/parser."""

from __future__ import annotations

import io

import pytest

from repro.netlist import (
    Netlist,
    extract_net_caps,
    parse_verilog,
    write_verilog,
)
from repro.netlist.parasitics import WIRE_CAP_PER_UM


class TestParasitics:
    def test_every_loaded_net_has_cap(self, tiny_comb):
        model = extract_net_caps(tiny_comb)
        n1 = tiny_comb.net_id("n1")
        assert model.cap_of(n1) > 0

    def test_cap_includes_driver_sink_and_wire(self, tiny_seq):
        model = extract_net_caps(tiny_seq)
        lib = tiny_seq.library
        q0 = tiny_seq.net_id("q0")
        # q0: driven by f0 (SDFFX1 out cap), loads u_inv.A and u_and.B.
        expected_pins = (
            lib.cell("SDFFX1").output_cap_ff
            + lib.cell("INVX1").input_cap_ff
            + lib.cell("AND2X1").input_cap_ff
        )
        # Placement exists, so wire cap is HPWL-based.
        # pins at f0(5,5), u_inv(10,10), u_and(20,10): HPWL = 15 + 5 = 20.
        expected = expected_pins + WIRE_CAP_PER_UM * 20.0
        assert model.cap_of(q0) == pytest.approx(expected)

    def test_unplaced_design_uses_fanout_fallback(self, tiny_comb):
        model = extract_net_caps(tiny_comb)
        a = tiny_comb.net_id("a")
        lib = tiny_comb.library
        expected = lib.cell("NAND2X1").input_cap_ff + model.wire_cap_per_fanout
        assert model.cap_of(a) == pytest.approx(expected)

    def test_total_cap_positive(self, tiny_seq):
        assert extract_net_caps(tiny_seq).total_cap_ff > 0


class TestVerilogRoundTrip:
    def _roundtrip(self, nl: Netlist) -> Netlist:
        buf = io.StringIO()
        write_verilog(nl, buf)
        buf.seek(0)
        return parse_verilog(buf)

    def test_comb_roundtrip(self, tiny_comb):
        back = self._roundtrip(tiny_comb)
        assert back.name == tiny_comb.name
        assert back.n_gates == tiny_comb.n_gates
        assert len(back.primary_inputs) == 3
        assert len(back.primary_outputs) == 1
        assert {g.cell for g in back.gates} == {"NAND2X1", "XOR2X1"}

    def test_seq_roundtrip_preserves_metadata(self, tiny_seq):
        back = self._roundtrip(tiny_seq)
        assert back.n_flops == 2
        f0 = next(f for f in back.flops if f.name == "f0")
        assert f0.clock_domain == "clka"
        assert f0.is_scan
        assert f0.pos == (5.0, 5.0)

    def test_roundtrip_preserves_connectivity(self, tiny_seq):
        back = self._roundtrip(tiny_seq)
        inv = next(g for g in back.gates if g.name == "u_inv")
        f1 = next(f for f in back.flops if f.name == "f1")
        assert inv.output == f1.d

    def test_verilog_output_mentions_module(self, tiny_comb):
        buf = io.StringIO()
        write_verilog(tiny_comb, buf)
        text = buf.getvalue()
        assert "module tiny_comb" in text
        assert "endmodule" in text
        assert "NAND2X1 u_nand" in text


class TestTruncatedVerilog:
    """A file cut short is one parse error, never a partial netlist."""

    @pytest.fixture(scope="class")
    def tiny_soc_text(self):
        from repro.soc import build_turbo_eagle

        buf = io.StringIO()
        write_verilog(build_turbo_eagle("tiny", seed=2007).netlist, buf)
        return buf.getvalue()

    def test_whole_file_parses(self, tiny_soc_text):
        back = parse_verilog(io.StringIO(tiny_soc_text))
        assert back.n_gates > 0 and back.n_flops > 0

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 0.99, 1.0])
    def test_cut_at_a_line_boundary_is_rejected(self, tiny_soc_text, fraction):
        from repro.errors import NetlistError

        lines = tiny_soc_text.splitlines(keepends=True)
        # 1.0 drops only the closing ``endmodule`` line.
        keep = min(int(len(lines) * fraction), len(lines) - 1)
        with pytest.raises(NetlistError, match="endmodule"):
            parse_verilog(io.StringIO("".join(lines[:keep])))

    def test_unclosed_port_list_is_rejected(self):
        from repro.errors import NetlistError

        with pytest.raises(NetlistError, match="endmodule"):
            parse_verilog(io.StringIO("module x(;\n"))

    def test_uploaded_netlist_goes_through_the_same_check(self, tiny_soc_text):
        from repro.errors import NetlistError
        from repro.service import JobSpec

        cut = tiny_soc_text[: tiny_soc_text.rindex("endmodule")]
        with pytest.raises(NetlistError, match="endmodule"):
            JobSpec(netlist_verilog=cut).build_design_and_plan()
