"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here: swap and trace comparisons are exact
equality, oracle equivalences allow zero mismatches, and the randomized
case counts are fixed seeds and fixed sizes.
"""

import itertools
import json
import random

from kernsim.abi import ReturnVariant, SyscallInvocation, SyscallReturn
from kernsim.audit import (
    audit_capabilities,
    audit_zero_length_allows,
    parse_trace,
)
from kernsim.board import check_board, run_simulation
from kernsim.capabilities import CapabilityKind
from kernsim.errors import PhaseError
from kernsim.loader import LoaderState, RejectReason, pack_binary, parse_binary
from kernsim.memory import (
    ACCESS_NONE,
    ACCESS_READ,
    ACCESS_RW,
    READ,
    WRITE,
    MemoryController,
    MemoryRegion,
)
from kernsim.regmap import RegisterFile

from conftest import (BOARDS_DIR, SCENARIOS_DIR, make_board, script_source,
                      trace_events)
from oracles import (
    OneSlotSwapModel,
    alarm_oracle,
    field_update_reference,
    mpu_allowed,
    permission_bytemap,
)
from test_alarm_virtualizer import replay as replay_virtualizer
from test_regmap import _random_spec

AUDIT_CORPUS = [
    ("demo.json", ["alarm_fourcall.json"]),
    ("demo.json", ["alarm_sync_macro.json"]),
    ("demo.json", ["console_hello.json"]),
    ("demo.json", ["zero_length_allow.json"]),
    ("demo.json", ["aliasing_probe.json"]),
    ("demo.json", ["ro_flash_share.json"]),
    ("demo.json", ["manager_victim.json", "manager_killer.json"]),
    ("demo.json", ["grant_worker.json", "grant_hog.json"]),
    ("demo.json", ["timeout_pattern.json"]),
    ("demo.json", ["demo_a.json", "demo_b.json"]),
    ("demo_sync.json", ["demo_a.json", "demo_b.json", "spin.json"]),
]


def run_corpus_traces(tmp_path):
    traces = []
    for board_name, scenario_names in AUDIT_CORPUS:
        trace_path = tmp_path / "corpus.jsonl"
        code = run_simulation(BOARDS_DIR / board_name,
                              [SCENARIOS_DIR / s for s in scenario_names],
                              max_ticks=5000, trace_path=trace_path)
        assert code == 0, (board_name, scenario_names)
        traces.append(((board_name, tuple(scenario_names)),
                       parse_trace(trace_path.read_bytes())))
    return traces


def test_acceptance_01_swap_semantics_suite():
    """Exhaustive allow sequences plus randomized slot interleavings match
    the one-slot reference model exactly."""
    board = make_board()
    kern = board.kernel
    offsets = [(0, 16), (32, 8), (64, 24)]
    cases = 0

    def fresh_pid():
        job = board.load_app(script_source([], {"h1": [], "h2": []}, 256))
        return job.pid

    # Exhaustive one-slot sequences, both slot kinds, length 1..5, with a
    # trailing zero-length reclaim.
    for klass in ("rw_allow", "ro_allow"):
        for length in range(1, 6):
            for seq in itertools.product(offsets, repeat=length):
                pid = fresh_pid()
                ram = kern.processes[pid].ram
                model = OneSlotSwapModel()
                for off, size in seq:
                    inv = (SyscallInvocation.rw_allow if klass == "rw_allow"
                           else SyscallInvocation.ro_allow)(2, 0,
                                                            ram.base + off, size)
                    got = kern.handle_syscall(pid, inv)
                    assert got == SyscallReturn.success_region(
                        *model.install((ram.base + off, size)))
                inv = (SyscallInvocation.rw_allow if klass == "rw_allow"
                       else SyscallInvocation.ro_allow)(2, 0, 0, 0)
                got = kern.handle_syscall(pid, inv)
                assert got == SyscallReturn.success_region(*model.install((0, 0)))
                cases += 1
                kern.exit_process(pid, "done")

    # Random interleavings across two allow slots and a subscribe slot.
    rng = random.Random(0xACC1)
    for _ in range(300):
        pid = fresh_pid()
        ram = kern.processes[pid].ram
        allow_models = {(2, 0): OneSlotSwapModel(), (3, 0): OneSlotSwapModel()}
        sub_model = ("null", 0)
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.7:
                driver = rng.choice([2, 3])
                off, size = rng.choice(offsets)
                got = kern.handle_syscall(pid, SyscallInvocation.rw_allow(
                    driver, 0, ram.base + off, size))
                want = allow_models[(driver, 0)].install((ram.base + off, size))
                assert got == SyscallReturn.success_region(*want)
            else:
                fn = rng.choice(["h1", "h2", "null"])
                ud = rng.randrange(50)
                got = kern.handle_syscall(
                    pid, SyscallInvocation.subscribe(0, 0, fn, ud))
                assert got.variant is ReturnVariant.SUCCESS_UPCALL
                assert (got.upcall.fn_id, got.upcall.userdata) == sub_model
                sub_model = (fn, 0) if fn == "null" else (fn, ud)
        cases += 1
        kern.exit_process(pid, "done")

    assert cases >= 1000
    print(f"ACCEPTANCE 01 PASS: swap semantics exact over {cases} sequences")


def _process_trace(events, pid):
    actor = f"process:{pid}"
    filtered = [e for e in events
                if e["actor"] == actor or e.get("payload", {}).get("pid") == pid]
    return [{k: v for k, v in e.items() if k not in ("seq", "tick")}
            for e in filtered]


def test_acceptance_02_grant_isolation_differential(tmp_path):
    """A NOMEM in one process leaves another process's trace exactly
    identical (modulo seq/tick) to a run without the offender."""
    both = tmp_path / "both.jsonl"
    solo = tmp_path / "solo.jsonl"
    assert run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "grant_worker.json",
                           SCENARIOS_DIR / "grant_hog.json"],
                          max_ticks=2000, trace_path=both) == 0
    assert run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "grant_worker.json"],
                          max_ticks=2000, trace_path=solo) == 0
    both_events = parse_trace(both.read_bytes())
    solo_events = parse_trace(solo.read_bytes())
    # the hog (pid 2) hit NOMEM in the combined run
    nomem = [e for e in both_events if e["kind"] == "grant_nomem"]
    assert [e["payload"]["pid"] for e in nomem] == [2]
    failures = [e for e in both_events if e["kind"] == "syscall_return"
                and e["actor"] == "process:2"
                and e["payload"]["ret"] == {"variant": "failure", "err": "NOMEM"}]
    assert failures
    # the worker (pid 1) saw exactly the same world
    assert _process_trace(both_events, 1) == _process_trace(solo_events, 1)
    print("ACCEPTANCE 02 PASS: grant NOMEM isolated; co-resident trace identical")


def test_acceptance_03_timer_virtualizer_oracle_200():
    """200 randomized alarm scenarios, wraparound included, equal the
    brute-force event-list oracle exactly."""
    rng = random.Random(0xACC3)
    ring = 1 << 32
    for case in range(200):
        n_clients = rng.randrange(1, 9)
        total = rng.randrange(10, 10_001)
        initial = rng.choice([0, 0, rng.randrange(0, 5000),
                              ring - rng.randrange(1, total + 50)])
        events = []
        for _ in range(rng.randrange(1, 51)):
            at = rng.randrange(0, total)
            now_at = (initial + at) % ring
            flavor = rng.random()
            if flavor < 0.7:
                deadline = (now_at + rng.randrange(0, total)) % ring
            elif flavor < 0.85:
                deadline = (now_at - rng.randrange(0, 300)) % ring
            else:
                deadline = rng.randrange(0, ring)
            events.append((at, rng.randrange(0, n_clients), deadline))
        got = replay_virtualizer(n_clients, events, total, initial)
        want = alarm_oracle(n_clients, events, total, initial)
        assert got == want, f"case {case}"
    print("ACCEPTANCE 03 PASS: 200 virtualizer scenarios equal the oracle")


def test_acceptance_04_mpu_oracle_exhaustive_256():
    """Every (base, len, kind) on a 256-byte space against the per-byte
    predicate; zero mismatches."""
    space = 256
    configs = [
        [MemoryRegion(0, 64, ACCESS_RW), MemoryRegion(64, 64, ACCESS_READ),
         MemoryRegion(192, 32, ACCESS_RW)],
        [MemoryRegion(16, 32, ACCESS_RW), MemoryRegion(32, 64, ACCESS_READ),
         MemoryRegion(100, 0, ACCESS_RW), MemoryRegion(120, 40, ACCESS_NONE)],
        [MemoryRegion(0, 256, ACCESS_READ)],
    ]
    mem = MemoryController(space, mpu_max_regions=8)
    checked = 0
    for regions in configs:
        mem.configure_regions(1, regions)
        for kind, label in ((READ, "read"), (WRITE, "write")):
            bytemap = permission_bytemap(regions, space, label)
            for base in range(0, space + 1):
                max_len = space - base
                for length in range(0, max_len + 1):
                    want = (length == 0) or \
                        (sum(bytemap[base:base + length]) == length)
                    assert mem.check_access(1, base, length, kind) == want
                    checked += 1
            # boundary strip: ranges that run past the end of the space
            for base in range(0, space + 1):
                for overrun in (1, 2):
                    length = space - base + overrun
                    assert mem.check_access(1, base, length, kind) == \
                        mpu_allowed(regions, base, length, label)
                    checked += 1
    print(f"ACCEPTANCE 04 PASS: MPU equals per-byte oracle on {checked} checks")


def test_acceptance_05_zero_length_allows_audited(tmp_path):
    """All zero-length allows succeed and generate zero memory-access
    events, audited across the whole scenario corpus."""
    saw_zero_length = 0
    for key, events in run_corpus_traces(tmp_path):
        assert audit_zero_length_allows(events) == [], key
        saw_zero_length += sum(
            1 for e in events
            if e["kind"] == "syscall"
            and e["payload"].get("call", {}).get("class") in ("rw_allow", "ro_allow")
            and e["payload"]["call"].get("len") == 0)
    assert saw_zero_length >= 3  # the corpus really exercises the case
    print(f"ACCEPTANCE 05 PASS: {saw_zero_length} zero-length allows, "
          f"zero memory traffic, audited corpus-wide")


def test_acceptance_06_read_only_allow_write_refused():
    """A capsule write through a read-only share errors at the capsule,
    the run continues, and the backing bytes are unchanged."""
    board = make_board()
    source = (SCENARIOS_DIR / "ro_flash_share.json").read_bytes()
    job = board.load_app(source, "ro_flash_share")
    pcb = board.kernel.processes[job.pid]
    before = bytes(board.memory.data[pcb.flash.base:pcb.flash.end])
    code = board.run(200)
    assert code == 0  # expects inside the scenario all held
    after = bytes(board.memory.data[pcb.flash.base:pcb.flash.end])
    assert before == after
    errors = [e for e in trace_events(board) if e.kind == "capsule_error"]
    assert errors and "read-only" in errors[0].payload["error"]
    assert pcb.state.value == "exited"
    print("ACCEPTANCE 06 PASS: read-only share write refused, bytes intact")


def test_acceptance_07_aliasing_full_partial_disjoint(tmp_path):
    """Overlapping shares alias through the single backing store; disjoint
    shares show no visibility."""
    trace_path = tmp_path / "alias.jsonl"
    code = run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "aliasing_probe.json"],
                          max_ticks=500, trace_path=trace_path)
    assert code == 0
    events = parse_trace(trace_path.read_bytes())
    expects = [e["payload"] for e in events if e["kind"] == "expect"]
    assert len(expects) == 6 and all(p["pass"] for p in expects)
    # partial and full overlap observed the write; disjoint read stayed 0
    values = [p["actual"].get("value") for p in expects
              if p["actual"]["variant"] == "success_value"]
    assert values == [171, 90, 0]
    print("ACCEPTANCE 07 PASS: aliasing visible for full/partial overlap, "
          "invisible for disjoint")


def test_acceptance_08_loader_three_stage_and_parity():
    """Async loading walks the five traced states; corruption is rejected
    at the right stage; sync and async agree on every fixture."""
    good_src = script_source([{"op": "halt"}], {}, 256)
    good = pack_binary(good_src, 256)
    header, _ = parse_binary(good)
    corrupted = bytearray(good)
    corrupted[header.header_len + 3] ^= 0x01
    bad_header = bytearray(good)
    bad_header[0] = 0

    outcomes = {}
    for mode in ("sync", "async"):
        board = make_board(loader=mode)
        job_good = board.load_binary(bytes(good), "good")
        job_corrupt = board.load_binary(bytes(corrupted), "corrupt")
        job_bad_header = board.load_binary(bytes(bad_header), "bad_header")
        board.run(200)
        for job, name in ((job_good, "good"), (job_corrupt, "corrupt"),
                          (job_bad_header, "bad_header")):
            outcomes[(mode, name)] = (job.state, job.reject_reason)
        if mode == "async":
            states = [e.payload["state"] for e in trace_events(board)
                      if e.kind == "loader_state"
                      and e.payload["job"] == job_good.job_id]
            assert states == ["fetched", "header_checked", "integrity_pending",
                              "integrity_checked", "runnable"]
            corrupt_states = [e.payload["state"] for e in trace_events(board)
                              if e.kind == "loader_state"
                              and e.payload["job"] == job_corrupt.job_id]
            assert corrupt_states[-1] == "rejected"
            assert "integrity_pending" in corrupt_states  # got to the check
            # the bad header never reached the hash engine
            submits = [e.payload["job"] for e in trace_events(board)
                       if e.kind == "hash_submit"]
            assert job_bad_header.job_id not in submits

    assert outcomes[("sync", "good")] == (LoaderState.RUNNABLE, None)
    assert outcomes[("sync", "corrupt")] == \
        (LoaderState.REJECTED, RejectReason.BAD_INTEGRITY)
    assert outcomes[("sync", "bad_header")] == \
        (LoaderState.REJECTED, RejectReason.BAD_HEADER)
    for name in ("good", "corrupt", "bad_header"):
        assert outcomes[("sync", name)] == outcomes[("async", name)]
    print("ACCEPTANCE 08 PASS: three-stage loading, staged rejection, "
          "sync/async parity")


def test_acceptance_09_capability_gating(tmp_path):
    """No privileged operation without a construction-time token anywhere
    in the corpus; minting after finalize fails."""
    privileged_seen = 0
    for key, events in run_corpus_traces(tmp_path):
        assert audit_capabilities(events) == [], key
        privileged_seen += sum(1 for e in events
                               if e["kind"] == "privileged_op")
    assert privileged_seen > 0
    board = make_board()
    board.finalize()
    try:
        board.registry.mint(CapabilityKind.PROCESS_MANAGEMENT, "late")
        raise AssertionError("mint after finalize must fail")
    except PhaseError:
        pass
    print(f"ACCEPTANCE 09 PASS: {privileged_seen} privileged ops all tokened; "
          f"post-finalize mint refused")


def test_acceptance_10_composition_validation(tmp_path):
    """The polarity mismatch is rejected at check and run (exit 2); the
    configurable fixture passes both."""
    mismatch = BOARDS_DIR / "polarity_mismatch.json"
    ok = BOARDS_DIR / "polarity_ok.json"
    violations = check_board(mismatch)
    assert len(violations) == 1
    assert "spi_sensor" in violations[0] and "spi_controller" in violations[0]
    assert check_board(ok) == []
    assert run_simulation(mismatch, [], trace_path=tmp_path / "a.jsonl") == 2
    assert run_simulation(ok, [], trace_path=tmp_path / "b.jsonl") == 0
    print("ACCEPTANCE 10 PASS: composition mismatch exits 2, configurable ok")


def test_acceptance_11_register_field_round_trip_10k():
    """10^4 randomized (spec, field, value) triples: set-then-get identity
    with all other bits untouched, against the mask/shift oracle."""
    rng = random.Random(0xACC11)
    for _ in range(10_000):
        spec = _random_spec(rng)
        regs = RegisterFile(spec)
        reg = spec.registers[0]
        start = rng.randrange(0, 1 << reg.width)
        regs.mmio_write(0, start)
        fspec = rng.choice(reg.fields)
        value = rng.randrange(0, 1 << fspec.width)
        regs.field_set("REG", fspec.name, value)
        assert regs.mmio_read(0) == field_update_reference(
            start, fspec.offset, fspec.width, value)
        assert regs.field_get("REG", fspec.name) == value
    print("ACCEPTANCE 11 PASS: 10^4 field round-trips equal the oracle")


def test_acceptance_12_replay_determinism(tmp_path):
    """Five runs of the demo board (2 processes, alarm + console + loader,
    >= 10^3 ticks) produce byte-identical traces."""
    blobs = []
    for i in range(5):
        trace_path = tmp_path / f"det_{i}.jsonl"
        code = run_simulation(
            BOARDS_DIR / "demo.json",
            [SCENARIOS_DIR / "demo_a.json", SCENARIOS_DIR / "demo_b.json"],
            max_ticks=2000, seed=7, trace_path=trace_path)
        assert code == 0
        blobs.append(trace_path.read_bytes())
    events = parse_trace(blobs[0])
    assert events[-1]["tick"] >= 1000  # the run really spans >= 10^3 ticks
    assert any(e["kind"] == "hash_submit" for e in events)  # loader activity
    assert any(e["kind"] == "uart_tx" for e in events)      # console activity
    assert all(blob == blobs[0] for blob in blobs)
    print("ACCEPTANCE 12 PASS: 5 runs byte-identical over "
          f"{events[-1]['tick']} ticks")


def test_acceptance_13_fourcall_and_sync_macro(tmp_path):
    """The canonical subscribe/command/yield alarm sequence fires at
    exactly the requested tick, and the one-line sync_command macro
    produces the same observable result."""
    for scenario in ("alarm_fourcall.json", "alarm_sync_macro.json"):
        trace_path = tmp_path / "four.jsonl"
        code = run_simulation(BOARDS_DIR / "demo.json",
                              [SCENARIOS_DIR / scenario],
                              max_ticks=1000, trace_path=trace_path)
        assert code == 0, scenario
        events = parse_trace(trace_path.read_bytes())
        runs = [e for e in events if e["kind"] == "upcall_run"]
        assert len(runs) == 1, scenario
        assert runs[0]["tick"] == 500, scenario
        assert runs[0]["payload"]["args"][1] == 500  # the requested deadline
    macro_doc = json.loads((SCENARIOS_DIR / "alarm_sync_macro.json").read_text())
    macro_stmts = [s for s in macro_doc["main"] if s["op"] == "sync_command"]
    assert len(macro_stmts) == 1  # one scripted line
    print("ACCEPTANCE 13 PASS: 4-call sequence and sync_command both fire "
          "at tick 500")
