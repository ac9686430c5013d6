import pytest

from cfasim.apps import PASSWORD
from cfasim.asm import assemble
from cfasim.isa import Op
from cfasim.mcu import MemoryLayout, render_pmem
from cfasim.verifier import CfgError, build_cfg

LAY = MemoryLayout()


def build(source, ar_labels, **kw):
    res = assemble(source, entry=LAY.tcb_min)
    ar = (res.symbols[ar_labels[0]], res.symbols[ar_labels[1]])
    return build_cfg(render_pmem(res.image, LAY), ar, **kw), res.symbols


def test_undecodable_instruction_rejected():
    pmem = bytearray(LAY.pmem_size)
    pmem[0x9000 - LAY.pmem_base] = 0xFF
    with pytest.raises(CfgError, match="undecodable"):
        build_cfg(bytes(pmem), (0x9000, 0x9004))


@pytest.mark.parametrize("ar", [(0x7FFC, 0x7FFC), (0xFFFC, 0x10000)],
                         ids=["below-pmem", "past-pmem"])
def test_region_outside_pmem_rejected(ar):
    # a negative PMEM offset used to read PMEM's last word
    pmem = bytes(LAY.pmem_size)
    with pytest.raises(CfgError, match="outside PMEM"):
        build_cfg(pmem, ar)


def test_password_app_matches_hand_listing():
    cfg, sym = build(PASSWORD, ("app_main", "done"))
    assert sym["getpw"] == 0x9114
    assert sym["cploop"] == 0x9140
    assert sym["sense"] == 0x91D0
    assert sym["done"] == 0x91F0
    assert sorted(cfg.instrs) == list(range(0x9100, 0x91F4, 4))
    assert (cfg.instrs[0x9100].op, cfg.instrs[0x9100].imm) == (Op.CALL, 0x9114)
    assert cfg.known_entries == {0x9100, 0x9114}


def test_isr_targets_recorded():
    cfg, sym = build("""
        .org 0x9000
a:      NOP
        NOP
h:      RETI
e:      NOP
""", ("a", "e"), ivt_targets=(0x9008,))
    assert 0x9008 in cfg.isr_targets
