"""The trace streams to its sink: byte-identical with the pinned traces,
the same bytes on every sink, each line the compact JSON of its record,
and memory that stays flat as a run logs more events."""

import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernsim import trace as trace_module
from kernsim.abi import (
    NULL_UPCALL,
    ErrorCode,
    SyscallInvocation,
    SyscallReturn,
    UpcallDescriptor,
    YieldMode,
)
from kernsim.board import run_simulation
from kernsim.hw import InterruptController
from kernsim.scenario import parse_script
from kernsim.trace import TraceLog, encode_json

from conftest import (
    AWKWARD_NAMES,
    BOARDS_DIR,
    DATA_DIR,
    SCENARIOS_DIR,
    make_board,
    minimal_board_dict,
    script_source,
)
from oracles import (
    compact,
    irq_record,
    process_state_record,
    return_record,
    subset_match,
    upcall_record,
    upcall_run_record,
)

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json")
                  .read_text(encoding="utf-8"))["sweep"]


@pytest.mark.parametrize("name", sorted(PINS))
def test_shipped_scenario_trace_matches_its_pin(tmp_path, name):
    board, app = name.split("/")
    trace_path = tmp_path / "t.jsonl"
    code = run_simulation(BOARDS_DIR / f"{board}.json",
                          [SCENARIOS_DIR / f"{app}.json"], trace_path=trace_path)
    assert code == PINS[name]["exit"]
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == \
        PINS[name]["sha256"]


def _run_demo(**kwargs):
    return run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "demo_a.json",
                           SCENARIOS_DIR / "demo_b.json"], **kwargs)


def test_stdout_sink_gives_the_file_sink_bytes(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert _run_demo(trace_path=trace_path) == 0
    capsys.readouterr()
    assert _run_demo() == 0
    assert capsys.readouterr().out.encode("utf-8") == trace_path.read_bytes()


def _peak_bytes_and_events(tmp_path, iterations):
    app = tmp_path / f"spin{iterations}.json"
    app.write_text(json.dumps({"name": "spin", "min_memory": 128, "main": [
        {"op": "loop", "count": iterations, "body": [
            {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}]},
        {"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    tracemalloc.start()
    try:
        code = run_simulation(BOARDS_DIR / "demo_sync.json", [app],
                              max_ticks=10 * iterations, trace_path=trace_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, trace_path.read_bytes().count(b"\n")


def test_peak_memory_stays_flat_as_the_trace_grows(tmp_path):
    small_peak, small_events = _peak_bytes_and_events(tmp_path, 5_000)
    large_peak, large_events = _peak_bytes_and_events(tmp_path, 20_000)
    assert large_events - small_events == 30_000
    per_event = (large_peak - small_peak) / (large_events - small_events)
    assert per_event < 100, f"{per_event:.0f} B of peak memory per trace event"


# JSON values nested a few deep: strings over every plane with lone
# surrogates, integers far past 64 bits, and floats with NaN and the
# infinities, which json.dumps writes as NaN, Infinity and -Infinity.
_JSON_TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200)
    | st.floats(allow_nan=True, allow_infinity=True) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=16)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"\u00e9\ud800": [float("nan"), float("inf"), float("-inf"), -0.0,
                                   2 ** 100, "\udfff\U0001f600", {"": None}]})
def test_encode_json_gives_the_bytes_of_json_dumps(value):
    assert encode_json(value) == json.dumps(value, separators=(",", ":"))


def _compact(record):
    return json.dumps(record, separators=(",", ":")) + "\n"


_NESTED = {"a": [1, {"b": None, "c": [True, False]}], "d": {"e": {"f": -3}}}


class _Ticks:
    """A clock whose tick moves to the next of ``ticks`` each time a log
    line reads it."""

    def __init__(self, ticks):
        self._ticks = iter(ticks)

    @property
    def now(self):
        return next(self._ticks)


def test_templated_line_is_the_compact_json_of_its_record():
    trace = TraceLog(_Ticks(range(0, 10_000, 7)))
    events = [
        ("kernel", "boot", {"board": "b"}),
        ('capsule:quo"te', "syscall", None),
        ("capsule:back\\slash", "kind\\with\"both", {}),
        ("capsule:cönsole", "upcall_run", {"fn": "on_tx_dönë", "args": [1, 2]}),
        ("hw:ürt✓", "uart_tx", {"byte": 255}),
        ("kernel", "boot", _NESTED),
        ('capsule:quo"te', "syscall", {"k": "☃\U0001f600\x00\n"}),
        ("kernel", "quiescent", {}),
        ("process:1", "irq_raised", {"irq": 0}),  # a new pair, mid-run
        ("hw:ürt✓", "uart_tx", None),
    ]
    expected = []
    for seq, (actor, kind, payload) in enumerate(events):
        tick = seq * 7
        trace.log(actor, kind, payload)
        expected.append(_compact({"seq": seq, "tick": tick, "actor": actor,
                                  "kind": kind, "payload": payload or {}}))
    assert trace.out.getvalue().splitlines(keepends=True) == expected


_KINDS = sorted(value for key, value in vars(trace_module).items()
                if key.startswith("K_"))


def test_a_channel_writes_exactly_the_bytes_log_writes():
    """For awkward actors and every kind, a channel write, a log call and
    the compact JSON of the record give the same line; interleaved with
    log_series, seq rises by one per line and each writer reads the
    clock once."""
    actors = ([f"capsule:{name}" for name in AWKWARD_NAMES]
              + [f"hw:{name}" for name in AWKWARD_NAMES] + ["process:3", "kernel"])
    by_log, by_channel, mixed = (TraceLog(_Ticks(range(0, 10 ** 6, 7)))
                                 for _ in range(3))
    ticks = iter(range(0, 10 ** 6, 7))
    expected, mixed_expected = [], []
    for i, (actor, kind) in enumerate((a, k) for a in actors for k in _KINDS):
        payload = {"i": i, "actor": actor}
        text = json.dumps(payload, separators=(",", ":"))
        by_log.log(actor, kind, text)
        by_channel.channel(actor, kind)(text)
        expected.append(_compact({"seq": i, "tick": 7 * i, "actor": actor,
                                  "kind": kind, "payload": payload}))
        if i % 3 == 0:
            mixed.channel(actor, kind)(text)
            lines = [(next(ticks), payload)]
        elif i % 3 == 1:
            mixed.log(actor, kind, text)
            lines = [(next(ticks), payload)]
        else:
            mixed.log_series(actor, kind, 5 * i, 2, [text, "{}", text])
            lines = [(5 * i, payload), (5 * i, {}), (5 * i + 1, payload)]
        for tick, body in lines:
            mixed_expected.append(_compact({
                "seq": len(mixed_expected), "tick": tick, "actor": actor,
                "kind": kind, "payload": body}))
        assert mixed.channel(actor, kind) is mixed.channel(actor, kind)
    assert by_log.out.getvalue() == "".join(expected)
    assert by_channel.out.getvalue() == "".join(expected)
    assert mixed.out.getvalue() == "".join(mixed_expected)


def test_board_trace_with_escaped_names_is_compact_json_line_by_line(tmp_path):
    cfg = minimal_board_dict()
    for layer in cfg["capsules"]:
        if layer["name"] == "console":
            layer["name"] = 'cönsole "\\1"'
    (tmp_path / "uart.json").write_text(json.dumps(
        dict(json.loads((DATA_DIR / "maps" / "uart.json").read_text()),
             name='ürt"\\')))
    cfg["peripherals"]["uart"]["map"] = "uart.json"
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    trace_path = tmp_path / "t.jsonl"
    assert run_simulation(board_path, [SCENARIOS_DIR / "console_hello.json"],
                          trace_path=trace_path) == 0
    lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
    actors = {json.loads(line)["actor"] for line in lines}
    assert {'capsule:cönsole "\\1"', 'hw:ürt"\\'} <= actors
    assert lines == [_compact(json.loads(line)) for line in lines]


# --- payloads handed to the log as text ------------------------------------

def _lines_as_records(text, kinds):
    """(line, seq, tick, actor, kind) of each line of one of ``kinds``."""
    for line in text.splitlines():
        event = json.loads(line)
        if event["kind"] in kinds:
            yield line, event["seq"], event["tick"], event["actor"], event["kind"]


def _any_pattern(rng, record):
    """A pattern that an expect might hold: a subset of the record, or a
    subset with one value changed, a nested, awkwardly named key added, or
    an integer swapped for a float or a bool that Python's == holds equal
    to it."""
    pattern = {key: value for key, value in record.items() if rng.random() < 0.6}
    ints = [key for key, value in pattern.items() if type(value) is int]
    roll = rng.random()
    if roll < 0.2:
        pattern[rng.choice(AWKWARD_NAMES)] = [rng.choice(AWKWARD_NAMES),
                                               {"n": None, "b": [True, -1]}]
    elif roll < 0.4 and pattern:
        pattern[next(iter(pattern))] = rng.choice(AWKWARD_NAMES)
    elif roll < 0.5 and ints:
        key = rng.choice(ints)
        value = pattern[key]
        pattern[key] = bool(value) if value in (0, 1) and rng.random() < 0.5 \
            else float(value)
    return pattern


def _visitor(op, offset, size):
    if op == "read":
        return lambda handle: handle.read(offset, size)
    return lambda handle: handle.write(offset, bytes(size))


def test_mem_access_and_expect_texts_are_the_compact_json_of_their_records():
    rng = random.Random(0x3E3)
    board = make_board()
    job = board.load_app(script_source([], {}, 1024))
    kernel, pid = board.kernel, job.pid
    pcb = kernel.processes[pid]
    kernel.handle_syscall(pcb, SyscallInvocation.rw_allow(2, 0, pcb.ram.base, 64))
    kernel.handle_syscall(pcb, SyscallInvocation.ro_allow(2, 0, pcb.ram.base + 64, 64))
    start = len(board.trace.out.getvalue())
    expected = []
    for i in range(1_200):
        via = rng.choice(AWKWARD_NAMES)
        offset, size = rng.randrange(60), rng.randrange(1, 5)
        access = {"base": 0, "len": size, "op": rng.choice(("read", "write"))}
        if i % 3 == 0:
            mode = rng.choice(("rw", "ro"))
            access["base"] = pcb.ram.base + (0 if mode == "rw" else 64) + offset
            access["op"] = "read" if mode == "ro" else access["op"]
            # The share's note names the capsule registered under its driver.
            capsule = kernel.drivers[2]
            note = {"via": capsule.name, "purpose": "allow", "pid": pid, "driver": 2,
                    "buf": 0, "mode": mode}
            kernel.with_buffer(capsule, pid, 0, mode,
                               _visitor(access["op"], offset, size))
        elif i % 3 == 1:
            if via not in pcb.grants:
                zero_base = pcb.grant_watermark - 64
                expected.append(("mem_access", {
                    "base": zero_base, "len": 64, "op": "write", "via": via,
                    "purpose": "grant_zero", "pid": pid}))
            note = {"via": via, "purpose": "grant", "pid": pid}
            kernel.grant_enter(via, 64, pid, _visitor(access["op"], offset, size))
            access["base"] = pcb.grants[via][0].base + offset
        else:
            ret = rng.choice([
                SyscallReturn.success(),
                SyscallReturn.success_value(rng.randrange(2 ** 32)),
                SyscallReturn.success_region(0, 2 ** 32 - 1),
                SyscallReturn.success_upcall(NULL_UPCALL),
                SyscallReturn.success_upcall(UpcallDescriptor(via or "h", 2 ** 32 - 1)),
                SyscallReturn.failure(rng.choice(list(ErrorCode))),
                SyscallReturn.failure_region(rng.choice(list(ErrorCode)), 0, 0)])
            kernel._return(pcb, ret)
            record = return_record(ret)
            pattern = _any_pattern(rng, record)
            passed = subset_match(pattern, record)
            expected.append(("syscall_return", {"ret": record}))
            expected.append(("expect", {"pattern": pattern, "actual": record,
                                        "pass": passed}))
            run, *args = parse_script(
                {"main": [{"op": "expect", "pattern": pattern}]}).main[0]
            run(kernel, pcb, *args)
            continue
        expected.append(("mem_access", dict(access, **note)))
    lines = list(_lines_as_records(board.trace.out.getvalue()[start:],
                                   ("mem_access", "syscall_return", "expect")))
    assert len(lines) == len(expected)
    for (line, seq, tick, actor, _), (kind, payload) in zip(lines, expected):
        assert line == compact({"seq": seq, "tick": tick, "actor": actor,
                                "kind": kind, "payload": payload})
        assert actor == ("kernel" if kind == "mem_access" else f"process:{pid}")
    assert {kind for kind, _ in expected} == {"mem_access", "syscall_return", "expect"}
    assert {payload["pass"] for kind, payload in expected if kind == "expect"} == \
        {True, False}


def _probe_loop_app(tmp_path, count):
    """A process that shares a buffer with the probe, then loops through
    the body of the syscall_storm workload."""
    app = tmp_path / f"storm{count}.json"
    app.write_text(json.dumps({"name": "storm", "min_memory": 512, "main": [
        {"op": "syscall", "call": {"class": "rw_allow", "driver": 2, "buf": 0,
                                   "base": 0, "len": 256}},
        {"op": "expect", "pattern": {"variant": "success_region", "len": 0}},
        {"op": "loop", "count": count, "body": [
            {"op": "write_local", "offset": 8, "data": "c0ffee"},
            {"op": "syscall", "call": {"class": "command", "driver": 2, "cmd": 1,
                                       "args": [3, 200]}},
            {"op": "syscall", "call": {"class": "command", "driver": 2, "cmd": 2,
                                       "args": [9]}},
            {"op": "expect", "pattern": {"variant": "success_value", "value": 255}},
            {"op": "syscall", "call": {"class": "yield", "mode": "no_wait"}}]},
        {"op": "halt"}]}))
    return app


def _encoder_calls(tmp_path, monkeypatch, apps, owner=json.JSONEncoder, name="encode"):
    """For loops of 10 and 100 iterations, the calls of ``owner.name``
    (``JSONEncoder.encode`` unless given) and the trace of a demo_sync
    run of the apps ``apps(count)`` writes."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    runs = []
    for count in (10, 100):
        del calls[:]
        trace_path = tmp_path / f"t{count}.jsonl"
        assert run_simulation(BOARDS_DIR / "demo_sync.json", apps(count),
                              trace_path=trace_path) == 0
        runs.append((count, len(calls), trace_path.read_text(encoding="utf-8")))
    return runs


def test_the_syscall_path_never_calls_the_encoder_per_event(tmp_path, monkeypatch):
    runs = _encoder_calls(tmp_path, monkeypatch,
                          lambda count: [_probe_loop_app(tmp_path, count)])
    for count, _, text in runs:
        assert text.count('"kind":"expect"') == count + 1
        assert text.count('"via":"probe_a"') == 2 * count
    counts = [calls for _, calls, _ in runs]
    assert counts[0] == counts[1], counts


def test_the_syscall_path_never_calls_trace_log_per_event(tmp_path, monkeypatch):
    runs = _encoder_calls(tmp_path, monkeypatch,
                          lambda count: [_probe_loop_app(tmp_path, count)],
                          TraceLog, "log")
    for count, _, text in runs:
        assert text.count('"kind":"syscall"') == 3 * count + 1
        assert text.count('"kind":"mem_access"') == 3 * count + 2
    counts = [calls for _, calls, _ in runs]
    assert counts[0] == counts[1], counts


def _alarm_and_console_loop_apps(tmp_path, count):
    """Two processes that loop ``count`` times: one arms the alarm and
    waits for it, the other writes to the console and waits for the
    transfer to finish."""
    alarm = tmp_path / f"alarm{count}.json"
    alarm.write_text(json.dumps({"name": "alarm", "min_memory": 256, "main": [
        {"op": "loop", "count": count, "body": [
            {"op": "sync_command", "driver": 0, "cmd": 1, "args": [5, 0],
             "fn": "on_alarm"}]},
        {"op": "halt"}], "handlers": {"on_alarm": []}}))
    console = tmp_path / f"console{count}.json"
    console.write_text(json.dumps({"name": "console", "min_memory": 256, "main": [
        {"op": "loop", "count": count, "body": [
            {"op": "write_local", "offset": 0, "data": "68690a"},
            {"op": "syscall", "call": {"class": "subscribe", "driver": 1, "sub": 0,
                                       "fn": "on_tx_done"}},
            {"op": "syscall", "call": {"class": "ro_allow", "driver": 1, "buf": 0,
                                       "base": 0, "len": 3}},
            {"op": "syscall", "call": {"class": "command", "driver": 1, "cmd": 1,
                                       "args": [3, 0]}},
            {"op": "expect", "pattern": {"variant": "success"}},
            {"op": "syscall", "call": {"class": "yield", "mode": "wait"}}]},
        {"op": "halt"}], "handlers": {"on_tx_done": []}}))
    return [alarm, console]


def test_the_loop_path_never_calls_the_encoder_per_event(tmp_path, monkeypatch):
    runs = _encoder_calls(tmp_path, monkeypatch,
                          lambda count: _alarm_and_console_loop_apps(tmp_path, count))
    for count, _, text in runs:
        assert text.count('"kind":"upcall_run"') == 2 * count
        assert text.count('"kind":"irq_serviced"') == 2 * count
        assert text.count('"kind":"uart_tx"') == 3 * count
    counts = [calls for _, calls, _ in runs]
    assert counts[0] == counts[1], counts


def test_the_loop_path_never_calls_trace_log_per_event(tmp_path, monkeypatch):
    runs = _encoder_calls(tmp_path, monkeypatch,
                          lambda count: _alarm_and_console_loop_apps(tmp_path, count),
                          TraceLog, "log")
    for count, _, text in runs:
        assert text.count('"kind":"upcall_queued"') == 2 * count
        assert text.count('"kind":"irq_raised"') == 2 * count
        assert text.count('"kind":"process_state"') == 2 * count + 6
    counts = [calls for _, calls, _ in runs]
    assert counts[0] == counts[1], counts


def _new_lines(board, start, kinds):
    return list(_lines_as_records(board.trace.out.getvalue()[start:], kinds))


def _assert_lines(lines, expected):
    """Each line is the compact JSON of the expected (actor, kind,
    payload) with its own seq and tick."""
    assert len(lines) == len(expected)
    for (line, seq, tick, _, _), (actor, kind, payload) in zip(lines, expected):
        assert line == compact({"seq": seq, "tick": tick, "actor": actor,
                                "kind": kind, "payload": payload})


def test_upcall_queued_and_dropped_texts_are_the_compact_json_of_their_records():
    board = make_board(upcall_queue_depth=1)
    job = board.load_app(script_source([], {"h": []}))
    kernel, pid = board.kernel, job.pid
    pcb = kernel.processes[pid]
    for driver in (0, 1):
        kernel.handle_syscall(pcb, SyscallInvocation.subscribe(driver, 0, "h"))
    start = len(board.trace.out.getvalue())
    expected = []
    for capsule in AWKWARD_NAMES:
        actor = f"capsule:{capsule}"
        for driver, target, args, outcome in (
                (0, 99, [7, 8, 9], {"reason": "dead process"}),
                (2, pid, [1], {"reason": "null subscription"}),
                (0, pid, [1, 2 ** 32 - 1, 0], {"replaced": False}),
                (0, pid, [1], {"replaced": True}),
                (1, pid, (), {"reason": "queue full"})):
            queued = kernel.schedule_upcall(capsule, driver, target, 0, args)
            assert queued == ("replaced" in outcome)
            kind = "upcall_queued" if queued else "upcall_dropped"
            expected.append((actor, kind, upcall_record(target, driver, 0, args,
                                                        **outcome)))
        kernel.processes[pid].upcall_queue.clear()
    _assert_lines(_new_lines(board, start, ("upcall_queued", "upcall_dropped")),
                  expected)


def test_upcall_run_text_is_the_compact_json_of_its_record():
    board = make_board()
    job = board.load_app(script_source([]))
    kernel, pid = board.kernel, job.pid
    pcb = kernel.processes[pid]
    start = len(board.trace.out.getvalue())
    expected = []
    for i, fn in enumerate(AWKWARD_NAMES):
        args = (i, 2 ** 32 - 1, 0)
        pcb.upcall_slots[1, 0] = UpcallDescriptor(fn, 2 ** 32 - 1 - i)
        pcb.upcall_queue[1, 0] = args
        kernel.handle_syscall(pcb, SyscallInvocation.yield_(YieldMode.NO_WAIT))
        expected.append((f"process:{pid}", "upcall_run",
                         upcall_run_record(1, 0, fn, 2 ** 32 - 1 - i, args)))
    _assert_lines(_new_lines(board, start, ("upcall_run",)), expected)


def test_process_state_text_is_the_compact_json_of_its_record():
    board = make_board(max_processes=len(AWKWARD_NAMES))
    pids = [board.load_app(script_source([{"op": "syscall", "call": {
        "class": "yield", "mode": "wait"}}])).pid for _ in AWKWARD_NAMES]
    kernel = board.kernel
    board.finalize()
    start = len(board.trace.out.getvalue())
    kernel.loop_step()  # each process starts, then waits in its yield
    for pid, reason in zip(pids, AWKWARD_NAMES):
        kernel.exit_process(kernel.processes[pid], reason)
    expected = []
    for pid in pids:
        expected += [("kernel", "process_state",
                      process_state_record(pid, "running", "started")),
                     ("kernel", "process_state",
                      process_state_record(pid, "yielded_wait"))]
    expected += [("kernel", "process_state",
                  process_state_record(pid, "exited", reason))
                 for pid, reason in zip(pids, AWKWARD_NAMES)]
    lines = _new_lines(board, start, ("process_state",))
    assert '"reason":""' not in "".join(line for line, *_ in lines)
    _assert_lines(lines, expected)


def test_irq_texts_are_the_compact_json_of_their_records():
    irqc = InterruptController(TraceLog(_Ticks(range(1, 1000))))
    names = dict(zip((7, 0, 31, 2), AWKWARD_NAMES[1:]))
    for irq_id, name in names.items():
        irqc.add_line(irq_id, name, lambda: None)
    expected = []
    for irq_id in (31, 0, 7, 2):
        irqc.raise_irq(irq_id)
        expected.append((f"hw:{names[irq_id]}", "irq_raised", irq_record(irq_id)))
    assert irqc.service() == 4
    expected += [(f"hw:{names[irq_id]}", "irq_serviced", irq_record(irq_id))
                 for irq_id in (0, 2, 7, 31)]
    lines = list(_lines_as_records(irqc.trace.out.getvalue(),
                                   ("irq_raised", "irq_serviced")))
    _assert_lines(lines, expected)


def _expect_lines(tmp_path, main):
    """The exit code and the expect lines of a run of ``main``."""
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "min_memory": 128, "main": main},
                              ensure_ascii=False), encoding="utf-8")
    trace_path = tmp_path / "t.jsonl"
    code = run_simulation(BOARDS_DIR / "demo_sync.json", [app], trace_path=trace_path)
    return code, list(_lines_as_records(trace_path.read_text(encoding="utf-8"),
                                        ("expect",)))


def _expect_line(seq, tick, pattern, actual, passed):
    return compact({"seq": seq, "tick": tick, "actor": "process:1", "kind": "expect",
                    "payload": {"pattern": pattern, "actual": actual, "pass": passed}})


def test_expect_before_any_return_logs_null_and_fails(tmp_path):
    pattern = {"variant": "success"}
    code, lines = _expect_lines(tmp_path, [{"op": "expect", "pattern": pattern},
                                           {"op": "halt"}])
    assert code == 1
    [(line, seq, tick, _, _)] = lines
    assert line == _expect_line(seq, tick, pattern, None, False)


def test_failing_expect_after_a_return_logs_the_return(tmp_path):
    probe = {"op": "syscall", "call": {"class": "command", "driver": 2, "cmd": 0}}
    code, lines = _expect_lines(tmp_path, [
        probe, {"op": "expect", "pattern": {"variant": "success"}},
        {"op": "expect", "pattern": {"variant": "failure", "err": "NODEVICE"}},
        {"op": "halt"}])
    assert code == 1
    assert [line for line, *_ in lines] == [
        _expect_line(seq, tick, pattern, {"variant": "success"}, passed)
        for (_, seq, tick, _, _), pattern, passed in zip(
            lines, ({"variant": "success"}, {"variant": "failure", "err": "NODEVICE"}),
            (True, False))]


def test_expect_pattern_with_nested_and_non_ascii_values(tmp_path):
    pattern = {"variant": "success_region", "len": 0,
               "n\u00f6te": {"caf\u00e9": ["\u2603", None, [1, {"x": False}]],
                             'q"\\': "\U0001f600\n"}}
    code, lines = _expect_lines(tmp_path, [
        {"op": "syscall", "call": {"class": "rw_allow", "driver": 2, "buf": 0,
                                   "base": 0, "len": 16}},
        {"op": "expect", "pattern": pattern},
        {"op": "halt"}])
    assert code == 1
    [(line, seq, tick, _, _)] = lines
    assert line == _expect_line(seq, tick, pattern, {
        "variant": "success_region", "base": 0, "len": 0}, False)
    assert "\\u2603" in line and line.isascii()
