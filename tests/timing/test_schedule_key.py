"""The timing-run key: equal exactly when a run reads equal p-threads.

:func:`repro.timing.core.schedule_key` is what the experiment runner's
timing memo keys on, so a field the simulator reads must change it and
a field it never reads must not.
"""

from dataclasses import replace

import pytest

from repro.isa import DataImage, assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.memory import CacheConfig, HierarchyConfig
from repro.pthreads.body import PThreadBody
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.timing.config import PRE_EXECUTION
from repro.timing.core import TimingSimulator, schedule_key

STRIDE_SOURCE = """
    addi a0, zero, 0
    addi a1, zero, 300
    addi s0, zero, 1048576
loop:
    bge  a0, a1, done
    lw   t0, 0(s0)
    add  s4, s4, t0
    addi s0, s0, 256
    addi a0, a0, 1
    j    loop
done:
    halt
"""

BODY = (
    Instruction(Opcode.ADDI, rd=16, rs1=16, imm=1024, pc=6),
    Instruction(Opcode.ADD, rd=9, rs1=16, rs2=17, pc=5),
    Instruction(Opcode.LW, rd=8, rs1=9, imm=0, pc=4),
)


def pthread(instructions=BODY, **fields) -> StaticPThread:
    body = PThreadBody(instructions)
    values = dict(
        trigger_pc=6,
        body=body,
        target_load_pcs=(4,),
        prediction=PThreadPrediction(300, body.size, 290, 280, 2e4, 1e2),
    )
    values.update(fields)
    return StaticPThread(**values)


def test_fields_the_simulator_never_reads_leave_the_key_and_stats_alone():
    plain = pthread()
    dressed = replace(
        plain,
        target_load_pcs=(4, 5),
        prediction=PThreadPrediction(1, 3, 1, 0, 1.0, 9.0),
        components=(object(),),
        original_body=PThreadBody(BODY[:1] + BODY),
        original_targets=(0, 3),
    )
    assert schedule_key([plain]) == schedule_key([dressed])

    program = assemble(STRIDE_SOURCE, data=DataImage())
    hierarchy = HierarchyConfig(
        l1=CacheConfig("L1D", 1024, 32, 2, 2),
        l2=CacheConfig("L2", 4096, 64, 4, 6),
        mem_latency=70,
    )
    stats = [
        TimingSimulator(program, hierarchy, pthreads=[pt]).run(PRE_EXECUTION)
        for pt in (plain, dressed)
    ]
    assert stats[0].pthread_launches > 0
    assert stats[0].to_dict() == stats[1].to_dict()


def test_a_list_keys_equal_to_its_one_region_schedule():
    program = assemble(STRIDE_SOURCE, data=DataImage())
    pts = [pthread(), pthread(trigger_pc=5)]
    sim = TimingSimulator(program, HierarchyConfig(), pthreads=pts)
    assert schedule_key(pts) == schedule_key(schedule=sim.schedule)
    assert schedule_key() == schedule_key([])


@pytest.mark.parametrize(
    "position, field, value",
    [
        (0, "op", Opcode.ORI),
        (1, "rd", 10),
        (2, "rs1", 16),
        (1, "rs2", 18),
        (2, "imm", 4),
        (2, "pc", 3),
    ],
)
def test_each_instruction_field_changes_the_key(position, field, value):
    changed = list(BODY)
    changed[position] = replace(BODY[position], **{field: value})
    assert schedule_key([pthread()]) != schedule_key([pthread(changed)])


@pytest.mark.parametrize(
    "field, value", [("trigger_pc", 7), ("instances_ahead", 2)]
)
def test_each_launch_field_changes_the_key(field, value):
    assert schedule_key([pthread()]) != schedule_key([pthread(**{field: value})])


def test_pthread_order_changes_the_key():
    first, second = pthread(), pthread(BODY[1:], trigger_pc=5)
    assert schedule_key([first, second]) != schedule_key([second, first])


def test_region_bounds_change_the_key():
    pts = [pthread()]
    early = [(0, 100, pts), (100, 1 << 62, pts)]
    late = [(0, 200, pts), (200, 1 << 62, pts)]
    assert schedule_key(schedule=early) != schedule_key(schedule=late)
