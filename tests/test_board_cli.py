import hashlib
import json
import os
import runpy
import subprocess
import sys

import pytest

from kernsim import board as board_module
from kernsim.audit import parse_trace, run_all_audits
from kernsim.board import (
    MAX_PROCESSES,
    MAX_RAM_SIZE,
    check_board,
    run_simulation,
)
from kernsim.capabilities import CapabilityKind
from kernsim.capsules import CAPSULE_TYPES, MAX_BUFFER_SIZE
from kernsim.cli import main as cli_main

from conftest import (
    BOARDS_DIR,
    DATA_DIR,
    SCENARIOS_DIR,
    SRC,
    minimal_board_dict,
    unjustified_expects,
)
from oracles import compact


def test_check_shipped_demo_board_ok():
    assert check_board(BOARDS_DIR / "demo.json") == []


def test_check_polarity_fixtures():
    violations = check_board(BOARDS_DIR / "polarity_mismatch.json")
    assert len(violations) == 1
    assert "spi_controller" in violations[0] and "spi_sensor" in violations[0]
    assert check_board(BOARDS_DIR / "polarity_ok.json") == []


def test_check_reports_dangling_map_reference(tmp_path):
    cfg = minimal_board_dict()
    cfg["peripherals"]["alarm"]["map"] = "no_such_file.json"
    path = tmp_path / "board.json"
    path.write_text(json.dumps(cfg))
    violations = check_board(path)
    assert any("missing register map" in v for v in violations)


def test_check_reports_buffer_size_violation(tmp_path):
    cfg = minimal_board_dict()
    cfg["capsules"] = [
        {"name": "uart_pins", "type": "annotation", "min_buffer_size": 128},
        {"name": "console", "type": "console", "driver_id": 1,
         "buffer_size": 64},
    ]
    path = tmp_path / "board.json"
    path.write_text(json.dumps(cfg))
    violations = check_board(path)
    assert any("uart_pins" in v and "console" in v for v in violations)


def test_a_console_that_leaves_out_buffer_size_has_the_default_below_a_floor(tmp_path):
    cfg = minimal_board_dict()
    cfg["capsules"] = [
        {"name": "uart_pins", "type": "annotation", "min_buffer_size": 128},
        {"name": "console", "type": "console", "driver_id": 1},
    ]
    cfg["capabilities"] = {}
    path = tmp_path / "board.json"
    path.write_text(json.dumps(cfg))
    assert check_board(path) == [
        "layer 'console' has buffer_size=64 below min_buffer_size=128 declared "
        "by layer 'uart_pins'"]


def test_a_refused_layer_still_names_the_capsule_a_grant_holds(tmp_path):
    cfg = minimal_board_dict()
    cfg["capsules"][4]["type"] = "bogus"
    path = tmp_path / "board.json"
    path.write_text(json.dumps(cfg))
    assert check_board(path) == [
        "capsules[4].type must be one of ('alarm', 'console', 'probe', "
        "'manager', 'annotation'), got 'bogus'"]


def test_check_reports_unknown_capability_reference(tmp_path):
    cfg = minimal_board_dict()
    cfg["capabilities"] = {"ghost": ["ProcessManagement"],
                           "manager": ["Teleportation"]}
    path = tmp_path / "board.json"
    path.write_text(json.dumps(cfg))
    violations = check_board(path)
    assert any("ghost" in v for v in violations)
    assert any("Teleportation" in v for v in violations)


@pytest.mark.parametrize("driver_id, refused", [
    (2 ** 32 - 1, False), (2 ** 32, True), (2 ** 64, True)])
def test_check_bounds_driver_id_to_a_32_bit_register(tmp_path, capsys,
                                                      driver_id, refused):
    # A script's driver is one 32-bit register, so no syscall could reach
    # a capsule whose driver_id lies past it.
    cfg = minimal_board_dict()
    cfg["capsules"][2]["driver_id"] = driver_id
    path = tmp_path / "board.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["check", "--board", str(path)]) == (2 if refused else 0)
    bound = (f"capsules[2].driver_id must be an integer in [0, 4294967295], "
             f"got {driver_id}")
    assert (bound in capsys.readouterr().err) is refused


def test_cli_check_exit_codes(capsys):
    assert cli_main(["check", "--board", str(BOARDS_DIR / "demo.json")]) == 0
    assert cli_main(["check", "--board",
                     str(BOARDS_DIR / "polarity_mismatch.json")]) == 2


# check takes the inputs run takes. The bad app holds a negative driver and
# an unknown op, "missing" names no file, and the bad board is the polarity
# fixture.
_BAD_APP = {"main": [{"op": "syscall", "call": {"class": "command", "driver": -1}},
                     {"op": "frobnicate"}]}


@pytest.mark.parametrize("board, apps, max_ticks", [
    pytest.param("demo.json", ["demo_a.json", "demo_b.json"], 1000, id="valid_apps"),
    pytest.param("demo.json", ["bad"], 1000, id="invalid_app"),
    pytest.param("demo.json", ["demo_a.json"], -5, id="negative_max_ticks"),
    pytest.param("demo.json", ["demo_a.json", "bad", "missing"], 1000,
                 id="valid_board_with_a_bad_app"),
    pytest.param("demo.json", ["missing", "bad"], 1000, id="unreadable_app"),
    pytest.param("polarity_mismatch.json", ["bad"], -1, id="every_input_bad"),
])
def test_check_reports_the_config_errors_that_run_logs(tmp_path, capsys, board,
                                                       apps, max_ticks):
    (tmp_path / "bad.json").write_text(json.dumps(_BAD_APP))
    paths = [str(tmp_path / "bad.json") if app == "bad" else
             str(tmp_path / "missing.json") if app == "missing" else
             str(SCENARIOS_DIR / app) for app in apps]
    flags = ["--board", str(BOARDS_DIR / board), "--max-ticks", str(max_ticks),
             *(arg for path in paths for arg in ("--app", path))]
    check_code = cli_main(["check", *flags])
    checked = capsys.readouterr().err.splitlines()
    trace_path = tmp_path / "t.jsonl"
    run_code = cli_main(["run", *flags, "--trace", str(trace_path)])
    capsys.readouterr()
    logged = [event["payload"]["violation"] for event in
              parse_trace(trace_path.read_bytes()) if event["kind"] == "config_error"]
    assert checked == ([f"violation: {violation}" for violation in logged]
                       if logged else ["ok"])
    assert check_code == (2 if logged else 0)
    assert (run_code == 2) == bool(logged)
    assert bool(logged) == (apps != ["demo_a.json", "demo_b.json"])


def test_run_empty_board_immediate_quiescence(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = run_simulation(BOARDS_DIR / "demo_sync.json", [],
                          trace_path=trace_path)
    assert code == 0
    events = parse_trace(trace_path.read_bytes())
    kinds = {e["kind"] for e in events}
    assert "quiescent" in kinds
    assert not any(k in kinds for k in ("syscall", "upcall_run", "mem_access"))
    assert events[-1]["tick"] == 0


def test_run_mismatched_board_is_exit_2_with_diagnostic(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = run_simulation(BOARDS_DIR / "polarity_mismatch.json", [],
                          trace_path=trace_path)
    assert code == 2
    events = parse_trace(trace_path.read_bytes())
    assert any(e["kind"] == "config_error"
               and "spi_sensor" in e["payload"]["violation"]
               and "spi_controller" in e["payload"]["violation"]
               for e in events)


def test_run_fourcall_scenario_exit_0(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "alarm_fourcall.json"],
                          max_ticks=1000, trace_path=trace_path)
    assert code == 0
    events = parse_trace(trace_path.read_bytes())
    runs = [e for e in events if e["kind"] == "upcall_run"]
    assert len(runs) == 1 and runs[0]["tick"] == 500


def test_run_expect_mismatch_is_exit_1(tmp_path):
    app = tmp_path / "app.json"
    app.write_text(json.dumps({
        "name": "bad_expect", "min_memory": 128,
        "main": [
            {"op": "syscall", "call": {"class": "command", "driver": 0, "cmd": 0}},
            {"op": "expect", "pattern": {"variant": "failure"}},
            {"op": "halt"},
        ]}))
    code = run_simulation(BOARDS_DIR / "demo_sync.json", [app],
                          trace_path=tmp_path / "t.jsonl")
    assert code == 1


def test_run_stops_at_tick_limit(tmp_path):
    app = tmp_path / "app.json"
    app.write_text(json.dumps({
        "name": "sleeper", "min_memory": 128,
        "main": [
            {"op": "syscall", "call": {"class": "subscribe", "driver": 0,
                                       "sub": 0, "fn": "h"}},
            {"op": "syscall", "call": {"class": "command", "driver": 0,
                                       "cmd": 1, "args": [90000, 0]}},
            {"op": "syscall", "call": {"class": "yield", "mode": "wait"}},
            {"op": "halt"}],
        "handlers": {"h": []}}))
    trace_path = tmp_path / "t.jsonl"
    code = run_simulation(BOARDS_DIR / "demo_sync.json", [app], max_ticks=50,
                          trace_path=trace_path)
    assert code == 0
    events = parse_trace(trace_path.read_bytes())
    assert events[-1]["kind"] == "tick_limit"
    assert events[-1]["tick"] == 50


@pytest.mark.parametrize("max_ticks", [-5, -1])
def test_negative_tick_limit_is_exit_2_before_simulating(tmp_path, capsys,
                                                         max_ticks):
    trace_path = tmp_path / "t.jsonl"
    code = cli_main(["run", "--board", str(BOARDS_DIR / "demo.json"),
                     "--app", str(SCENARIOS_DIR / "console_hello.json"),
                     "--max-ticks", str(max_ticks), "--trace", str(trace_path)])
    assert code == 2
    message = f"max_ticks must be an integer >= 0, got {max_ticks}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert parse_trace(trace_path.read_bytes()) == [
        {"seq": 0, "tick": 0, "actor": "kernel", "kind": "config_error",
         "payload": {"violation": message}}]


def test_zero_tick_limit_runs_and_stops_at_once(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    assert run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "console_hello.json"], max_ticks=0,
                          trace_path=trace_path) == 0
    events = parse_trace(trace_path.read_bytes())
    assert (events[-1]["kind"], events[-1]["tick"]) == ("tick_limit", 0)


def test_trace_lines_have_fixed_key_order(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    run_simulation(BOARDS_DIR / "demo.json",
                   [SCENARIOS_DIR / "console_hello.json"],
                   max_ticks=200, trace_path=trace_path)
    for line in trace_path.read_text().splitlines():
        assert list(json.loads(line).keys()) == \
            ["seq", "tick", "actor", "kind", "payload"]
    seqs = [json.loads(line)["seq"] for line in trace_path.read_text().splitlines()]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_console_output_reaches_uart(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "console_hello.json"],
                          max_ticks=500, trace_path=trace_path)
    assert code == 0
    events = parse_trace(trace_path.read_bytes())
    tx = bytes(e["payload"]["byte"] for e in events if e["kind"] == "uart_tx")
    assert tx == b"hello\n"


def test_replay_determinism_five_runs(tmp_path):
    blobs = []
    for i in range(5):
        trace_path = tmp_path / f"trace_{i}.jsonl"
        code = run_simulation(
            BOARDS_DIR / "demo.json",
            [SCENARIOS_DIR / "demo_a.json", SCENARIOS_DIR / "demo_b.json"],
            max_ticks=2000, seed=42, trace_path=trace_path)
        assert code == 0
        blobs.append(trace_path.read_bytes())
    assert all(blob == blobs[0] for blob in blobs)


def test_timeout_pattern_operation_beats_timeout(tmp_path):
    # Two subscriptions race: the console completion arrives long before
    # the alarm timeout, so the yield wakes via on_tx; the stale timeout
    # later lands on an unsubscribed slot and is dropped.
    trace_path = tmp_path / "timeout.jsonl"
    code = run_simulation(BOARDS_DIR / "demo.json",
                          [SCENARIOS_DIR / "timeout_pattern.json"],
                          max_ticks=500, trace_path=trace_path)
    assert code == 0
    events = parse_trace(trace_path.read_bytes())
    runs = [e for e in events if e["kind"] == "upcall_run"]
    assert len(runs) == 1 and runs[0]["payload"]["fn"] == "on_tx"
    drops = [e for e in events if e["kind"] == "upcall_dropped"]
    assert drops and drops[-1]["payload"]["reason"] == "null subscription"


def test_determinism_does_not_depend_on_seed(tmp_path):
    # The core simulator uses no randomness: two seeds give traces that
    # differ only in the recorded seed itself.
    runs = {}
    for seed in (1, 2):
        trace_path = tmp_path / f"seed_{seed}.jsonl"
        run_simulation(BOARDS_DIR / "demo.json",
                       [SCENARIOS_DIR / "alarm_fourcall.json"],
                       max_ticks=1000, seed=seed, trace_path=trace_path)
        events = parse_trace(trace_path.read_bytes())
        for event in events:
            event["payload"].pop("seed", None)
        runs[seed] = events
    assert runs[1] == runs[2]


def test_cli_subprocess_entry_point(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "kernsim.cli", "run",
         "--board", str(BOARDS_DIR / "demo.json"),
         "--app", str(SCENARIOS_DIR / "alarm_fourcall.json"),
         "--max-ticks", "1000", "--trace", str(trace_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert trace_path.exists()


@pytest.mark.parametrize("board, apps", [
    ("demo.json", ["demo_a.json", "demo_b.json"]),
    ("demo_sync.json", ["manager_victim.json", "manager_killer.json"]),
])
def test_trace_does_not_depend_on_the_hash_seed(board, apps):
    # str hashing, and so set and dict-of-set iteration, changes with
    # PYTHONHASHSEED; the trace must not.
    digests = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "kernsim.cli", "run",
             "--board", str(BOARDS_DIR / board),
             *(arg for app in apps for arg in ("--app", str(SCENARIOS_DIR / app)))],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
            capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        digests.add(hashlib.sha256(proc.stdout).hexdigest())
    assert len(digests) == 1


def test_shipped_scenarios_all_run_clean_and_pass_audits(tmp_path):
    # The whole shipped corpus doubles as the audit corpus.
    corpus = [
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
    for board_name, scenario_names in corpus:
        trace_path = tmp_path / "t.jsonl"
        code = run_simulation(BOARDS_DIR / board_name,
                              [SCENARIOS_DIR / s for s in scenario_names],
                              max_ticks=5000, trace_path=trace_path)
        assert code == 0, (board_name, scenario_names)
        records = parse_trace(trace_path.read_bytes())
        for audit_name, violations in run_all_audits(records).items():
            assert violations == [], (board_name, scenario_names, audit_name)
        assert unjustified_expects(records) == [], (board_name, scenario_names)


@pytest.mark.parametrize("peripheral, knob, value", [
    ("alarm", "initial_count", "5"),
    ("alarm", "initial_count", -1),
    ("alarm", "initial_count", 2 ** 32),
    ("uart", "bytes_per_tick", 0),
    ("uart", "bytes_per_tick", 1.5),
    ("hashengine", "chunk_bytes", 0),
    ("hashengine", "chunk_bytes", None),
])
def test_bad_timing_knob_is_exit_2_at_check_and_run(tmp_path, capsys,
                                                    peripheral, knob, value):
    cfg = minimal_board_dict()
    cfg["peripherals"][peripheral][knob] = value
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", str(board_path)]) == 2
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert [e["kind"] for e in events] == ["config_error"]
    assert knob in events[0]["payload"]["violation"]


def _nested(depth, inner):
    value = inner
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("provided, wanted, code", [
    (1, True, 2),
    (1.0, 1, 2),
    ([1], [True], 2),
    (None, None, 0),
    ("present", "present", 0),
    ({"w": 1}, {"w": True}, 2),
    ({"w": 1}, {"w": 1}, 0),
    ([1], [1, 1], 2),
    ({"w": 1}, {"v": 1}, 2),
    (_nested(500, 1), _nested(500, 1), 0),
    (_nested(500, 1), _nested(500, 2), 2),
], ids=["int_is_not_bool", "float_is_not_int", "nested_bool", "null_is_provided",
        "same_value", "object_member_int_is_not_bool", "same_object",
        "list_length_differs", "object_keys_differ", "same_list_500_deep",
        "innermost_of_500_differs"])
def test_composition_compares_json_values_at_check_and_run(tmp_path, capsys,
                                                           provided, wanted, code):
    # The demo board's console requires a property of the uart_pins layer
    # beneath it; true does not satisfy 1, and a provided null is provided.
    # Values nested deeper than one frame per level allows still compare.
    cfg = json.loads((BOARDS_DIR / "demo.json").read_text())
    uart_pins, console = cfg["capsules"][:2]
    uart_pins["provides"] = {"uart_dma": provided}
    console["requires"] = {"uart_dma": wanted}
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", str(board_path)]) == code
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == code
    assert "Traceback" not in capsys.readouterr().err
    violations = [e["payload"]["violation"] for e in parse_trace(trace_path.read_bytes())
                  if e["kind"] == "config_error"]
    assert violations == ([] if code == 0 else [
        f"layer 'console' requires uart_dma={compact(wanted)} but layer 'uart_pins' "
        f"provides uart_dma={compact(provided)}"])


def _mpu_board_and_app(tmp_path, regions):
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(minimal_board_dict(mpu_max_regions=regions)))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    return str(board_path), str(app)


def test_single_mpu_region_is_exit_2_at_check_and_run(tmp_path, capsys):
    # Every process holds two MPU regions (flash image and RAM), so a
    # one-region MPU must be refused before the first load, by `check` too.
    board_path, app = _mpu_board_and_app(tmp_path, 1)
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", board_path]) == 2
    assert cli_main(["run", "--board", board_path, "--app", app,
                     "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert [e["kind"] for e in events] == ["config_error"]
    assert "mpu_max_regions must be an integer >= 2" in \
        events[0]["payload"]["violation"]


@pytest.mark.parametrize("length, code", [(65_507, 0), (65_508, 2)])
def test_an_entry_name_is_bounded_by_the_header_it_packs_into(tmp_path, capsys,
                                                              length, code):
    # header_len is a u16 and holds 28 bytes besides the entry name.
    board_path = str(BOARDS_DIR / "demo_sync.json")
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "entry": "e" * length,
                               "main": [{"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", board_path, "--app", str(app)]) == code
    assert cli_main(["run", "--board", board_path, "--app", str(app),
                     "--trace", str(trace_path)]) == code
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    refused = [e["payload"]["violation"] for e in events if e["kind"] == "config_error"]
    assert [v.startswith("entry must be a string of at most 65507 UTF-8 bytes")
            for v in refused] == [True] * (code == 2)


def test_two_mpu_regions_are_enough(tmp_path):
    board_path, app = _mpu_board_and_app(tmp_path, 2)
    assert cli_main(["check", "--board", board_path]) == 0
    assert cli_main(["run", "--board", board_path, "--app", app,
                     "--trace", str(tmp_path / "t.jsonl")]) == 0


@pytest.mark.parametrize("layer, owner, peripheral", [
    ({"name": "console2", "type": "console", "driver_id": 7}, "console", "uart"),
    ({"name": "alarm2", "type": "alarm", "driver_id": 8}, "alarm_driver", "alarm"),
])
def test_a_second_capsule_on_one_interrupt_is_exit_2_at_check_and_run(
        tmp_path, capsys, layer, owner, peripheral):
    # Each interrupt has one handler: a second console would find the UART
    # busy with the first one's transfer, and a second alarm driver would
    # take the interrupt from the first.
    cfg = json.loads((BOARDS_DIR / "demo_sync.json").read_text(encoding="utf-8"))
    cfg["capsules"].append(layer)
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    violation = (f"capsule {layer['name']!r} (type {layer['type']!r}) takes the "
                 f"{peripheral!r} interrupt of capsule {owner!r}")
    assert check_board(board_path) == [violation]
    assert cli_main(["check", "--board", str(board_path)]) == 2
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert [(e["kind"], e["payload"]) for e in events] == \
        [("config_error", {"violation": violation})]


def _console(cfg):
    return next(layer for layer in cfg["capsules"] if layer["name"] == "console")


def _add_probe(cfg, **fields):
    cfg["capsules"].append({"name": "pins", "type": "probe", **fields})


@pytest.mark.parametrize("mutate, needle", [
    pytest.param(
        lambda cfg: cfg.update(capabilities={"manager": "ProcessManagement"}),
        "capabilities.manager must be a list", id="grant_kinds_not_a_list"),
    pytest.param(lambda cfg: cfg.update(capabilities={"manager": [{"k": 1}]}),
                 "capabilities.manager[0] must be one of", id="grant_kind_not_a_string"),
    pytest.param(lambda cfg: cfg.update(trusted_key_ids=5), "trusted_key_ids",
                 id="trusted_key_ids_not_a_list"),
    pytest.param(lambda cfg: _console(cfg).update(provides="x"), "provides",
                 id="provides_not_an_object"),
    pytest.param(lambda cfg: _console(cfg).update(requires="x"), "requires",
                 id="requires_not_an_object"),
    pytest.param(lambda cfg: _console(cfg).update(buffer_size="64"),
                 "buffer_size", id="buffer_size_a_string"),
    pytest.param(lambda cfg: _console(cfg).update(min_buffer_size="4"),
                 "min_buffer_size", id="min_buffer_size_a_string"),
    pytest.param(lambda cfg: _console(cfg).update(buffer_size=-1),
                 "buffer_size", id="negative_console_buffer_size"),
    pytest.param(lambda cfg: _add_probe(cfg, driver_id=0),
                 "reuses driver_id 0", id="probe_driver_id_taken"),
    pytest.param(lambda cfg: _add_probe(cfg, driver_id=[1]), "driver_id",
                 id="probe_driver_id_a_list"),
    pytest.param(lambda cfg: _add_probe(cfg, driver_id=-1), "driver_id",
                 id="probe_driver_id_negative"),
    pytest.param(lambda cfg: _console(cfg).update(type=["a"]),
                 "capsules[1].type must be one of",
                 id="capsule_type_a_list"),
    pytest.param(lambda cfg: cfg["peripherals"].update(alarm={"irq": True},
                                                       uart={"irq": 5}),
                 "peripherals.alarm.irq must be an integer >= 0, got True",
                 id="irq_true"),
    pytest.param(lambda cfg: _add_probe(cfg, driver_id=True),
                 "capsules[5].driver_id must be an integer in [0, 4294967295], got True",
                 id="probe_driver_id_true"),
    pytest.param(lambda cfg: cfg.update(ram_size=True), "ram_size",
                 id="ram_size_true"),
    pytest.param(lambda cfg: cfg.update(name={"x": [1, None]}),
                 "name must be a string, got {'x': [1, None]}", id="name_an_object"),
    pytest.param(lambda cfg: cfg.update(loader="lazy"),
                 "loader must be one of ('sync', 'async'), got 'lazy'",
                 id="loader_unknown"),
    pytest.param(lambda cfg: cfg.update(ram_size=2 ** 40), "ram_size",
                 id="ram_size_2_to_the_40"),
    pytest.param(lambda cfg: cfg.update(ram_size=MAX_RAM_SIZE + 1), "ram_size",
                 id="ram_size_past_its_limit"),
    pytest.param(lambda cfg: cfg.update(max_processes=200_000), "max_processes",
                 id="max_processes_200000"),
    pytest.param(lambda cfg: cfg.update(max_processes=MAX_PROCESSES + 1),
                 "max_processes", id="max_processes_past_its_limit"),
    pytest.param(lambda cfg: _console(cfg).update(buffer_size=2 ** 40),
                 "buffer_size", id="console_buffer_size_2_to_the_40"),
    pytest.param(lambda cfg: _console(cfg).update(buffer_size=MAX_BUFFER_SIZE + 1),
                 "buffer_size", id="console_buffer_size_past_its_limit"),
    pytest.param(lambda cfg: _console(cfg).update(buffer_size=None),
                 "buffer_size", id="console_buffer_size_null"),
])
def test_board_value_of_wrong_type_is_exit_2_at_check_and_run(
        tmp_path, capsys, mutate, needle):
    cfg = minimal_board_dict()
    mutate(cfg)
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", str(board_path)]) == 2
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert [e["kind"] for e in events] == ["config_error"]
    assert needle in events[0]["payload"]["violation"]


def _without_hashengine(cfg):
    cfg["loader"] = "async"
    del cfg["peripherals"]["hashengine"]


@pytest.mark.parametrize("mutate, violation", [
    pytest.param(_without_hashengine, "async loader requires a hashengine peripheral",
                 id="async_loader_without_hashengine"),
    pytest.param(lambda cfg: _add_probe(cfg, name="console", driver_id=9),
                 "duplicate capsule name 'console'", id="capsule_name_taken"),
])
def test_a_board_breaking_a_build_rule_gets_exactly_its_violation(
        tmp_path, mutate, violation):
    cfg = minimal_board_dict()
    mutate(cfg)
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    assert check_board(board_path) == [violation]


def test_board_values_at_their_limits_run(tmp_path):
    cfg = minimal_board_dict(ram_size=MAX_RAM_SIZE, max_processes=MAX_PROCESSES)
    _console(cfg).update(buffer_size=MAX_BUFFER_SIZE)
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    assert cli_main(["check", "--board", str(board_path)]) == 0
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(tmp_path / "t.jsonl")]) == 0


def _alarm_map(drop=(), compare_access="RW", widths=(32, 32)):
    registers = [
        {"name": "COUNT", "offset": 0, "width": widths[0], "access": "R"},
        {"name": "COMPARE", "offset": 4, "width": widths[1],
         "access": compare_access},
        {"name": "CTRL", "offset": 8, "width": 32, "access": "RW",
         "fields": [{"name": "ENABLE", "offset": 0, "width": 1},
                    {"name": "IRQEN", "offset": 1, "width": 1}]},
    ]
    return json.dumps({"name": "alarm", "registers": [
        r for r in registers if r["name"] not in drop]})


@pytest.mark.parametrize("map_ref, map_text, needle", [
    pytest.param(5, None, "peripherals.alarm.map must be a string",
                 id="map_a_number"),
    pytest.param("m\x00.json", None, "missing register map", id="map_path_with_a_nul"),
    pytest.param("\ud800.json", None, "missing register map",
                 id="map_path_with_a_lone_surrogate"),
    pytest.param("m.json", "[1, 2]", "register map must be an object",
                 id="map_json_a_list"),
    pytest.param("m.json", '{"name": "alarm", "registers": [7]}',
                 "registers[0] must be an object", id="register_a_number"),
    pytest.param("m.json", '{"name": "alarm", "registers": "COUNT"}',
                 "registers must be a list", id="registers_a_string"),
    pytest.param("m.json", '{"name": "alarm", "registers": [{"name": "C", '
                 '"offset": 0, "width": 32, "access": "RW", "fields": [3]}]}',
                 "registers[0].fields[0] must be an object", id="field_a_number"),
    pytest.param("m.json", '{"name": "alarm", "registers": [{"name": "C", '
                 '"offset": 0, "width": 32, "access": "RW", "fields": '
                 '[{"name": "F", "offset": 0, "width": 2, "enum": [1]}]}]}',
                 "enum must be an object", id="enum_a_list"),
    pytest.param("m.json", '{"name": "alarm", "registers": [{"name": ["C"], '
                 '"offset": 0, "width": 32, "access": "RW"}]}',
                 "registers[0].name must be a string", id="register_name_a_list"),
    pytest.param("m.json", _alarm_map(drop=("COUNT", "CTRL")),
                 "no register 'COUNT'", id="alarm_map_without_count_and_ctrl"),
    pytest.param("m.json", _alarm_map(compare_access="R"),
                 "COMPARE must be writable", id="alarm_compare_read_only"),
    pytest.param("m.json", _alarm_map().replace("IRQEN", "IRQ_ENABLE"),
                 "CTRL has no field 'IRQEN'", id="alarm_ctrl_without_irqen"),
    pytest.param("m.json", _alarm_map().replace('"offset": 0,', '"offset": false,'),
                 "registers[0].offset must be an integer >= 0, got False",
                 id="register_offset_false"),
    pytest.param("m.json", _alarm_map().replace('"width": 32', '"width": 32.0', 1),
                 "registers[0].width must be one of", id="register_width_a_float"),
    # The alarm counts on the 32-bit tick ring: with a 16-bit COMPARE, a
    # deadline of 70,000 would be stored as 4,464 and the alarm would
    # fire on every tick from there to 70,000.
    pytest.param("m.json", _alarm_map(widths=(16, 16)),
                 "COUNT must be 32 bits wide, which the model relies on, not 16",
                 id="alarm_count_and_compare_16_bits"),
    pytest.param("m.json", _alarm_map(widths=(32, 16)),
                 "COMPARE must be 32 bits wide, which the model relies on, not 16",
                 id="alarm_compare_16_bits"),
])
def test_bad_register_map_is_exit_2_at_check_and_run(tmp_path, capsys, map_ref,
                                                    map_text, needle):
    cfg = minimal_board_dict()
    cfg["peripherals"]["alarm"]["map"] = map_ref
    if map_text is not None:
        data = map_text if isinstance(map_text, bytes) else map_text.encode()
        (tmp_path / map_ref).write_bytes(data)
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", str(board_path)]) == 2
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert {e["kind"] for e in events} == {"config_error"}
    assert any(needle in e["payload"]["violation"] for e in events)


_NOT_UTF8 = b"\xff\xfe{"
_TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("where, data", [
    pytest.param("board", _NOT_UTF8, id="board_not_utf8"),
    pytest.param("board", _TOO_DEEP, id="board_nested_too_deep"),
    pytest.param("map", _NOT_UTF8, id="map_not_utf8"),
    pytest.param("map", _TOO_DEEP, id="map_nested_too_deep"),
    pytest.param("app", _TOO_DEEP, id="app_nested_too_deep"),
])
def test_unparsable_file_is_exit_2_at_check_and_run(tmp_path, capsys, where,
                                                    data):
    cfg = minimal_board_dict()
    cfg["peripherals"]["alarm"]["map"] = "m.json"
    (tmp_path / "m.json").write_text(_alarm_map())
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    target = {"board": board_path, "map": tmp_path / "m.json", "app": app}
    target[where].write_bytes(data)
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", str(board_path)]) == \
        (0 if where == "app" else 2)
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert events[-1]["kind"] == "config_error"
    assert "does not parse" in events[-1]["payload"]["violation"]


@pytest.mark.parametrize("where, text, violation", [
    ("board", "[]", "board config must be an object, got []"),
    ("board", '"x"', "board config must be an object, got 'x'"),
    ("board", "null", "board config must be an object, got None"),
    ("app", '"x"', "scenario must be an object, got 'x'"),
    ("app", "[]", "scenario must be an object, got []"),
])
def test_top_level_not_an_object_is_exit_2_at_check_and_run(tmp_path, capsys, where,
                                                            text, violation):
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(minimal_board_dict()))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    {"board": board_path, "app": app}[where].write_text(text)
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", str(board_path)]) == \
        (0 if where == "app" else 2)
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert events[-1]["kind"] == "config_error"
    assert events[-1]["payload"]["violation"] == violation


@pytest.mark.parametrize("where, path", [
    ("board", None), ("map", None), ("app", None),
    ("board", "/dev/zero"), ("app", "/dev/zero"),
])
def test_file_longer_than_the_input_bound_is_exit_2_at_check_and_run(
        tmp_path, capsys, monkeypatch, where, path):
    # Each file is valid JSON, padded past the bound; /dev/zero never ends.
    if path is not None and not os.path.exists(path):
        pytest.skip(f"{path} is absent")
    monkeypatch.setattr(board_module, "MAX_INPUT_SIZE", 1024)
    cfg = minimal_board_dict()
    cfg["peripherals"]["alarm"]["map"] = "m.json"
    files = {"board": tmp_path / "board.json", "map": tmp_path / "m.json",
             "app": tmp_path / "app.json"}
    texts = {"board": json.dumps(cfg), "map": _alarm_map(),
             "app": json.dumps({"name": "app", "main": [{"op": "halt"}]})}
    for name, text in texts.items():
        files[name].write_text(text.ljust(2048) if name == where else text)
    board_path = path if where == "board" and path else str(files["board"])
    app = path if where == "app" and path else str(files["app"])
    named = {"board": f"board file {board_path!r}", "app": f"app file {app!r}",
             "map": "register map 'm.json' for 'alarm'"}[where]
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", board_path]) == \
        (0 if where == "app" else 2)
    assert cli_main(["run", "--board", board_path, "--app", app,
                     "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert events[-1]["kind"] == "config_error"
    assert events[-1]["payload"]["violation"] == \
        f"{named} is longer than 1024 bytes"


class _RecordingPath:
    """A path whose opened file records the size each read asks for."""

    def __init__(self, path):
        self.path = path
        self.sizes = []

    def open(self, mode):
        f = self.path.open(mode)
        sizes = self.sizes

        class Recording:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                f.close()

            def read(self, n=-1):
                sizes.append(n)
                return f.read(n)

        return Recording()


def test_reading_a_small_file_asks_for_no_more_than_the_first_chunk():
    # A read of n bytes allocates n, so asking for the input bound would
    # allocate 64 MiB for each file.
    path = _RecordingPath(BOARDS_DIR / "demo.json")
    assert board_module._read_bounded(path) == \
        (BOARDS_DIR / "demo.json").read_bytes()
    assert max(path.sizes) < board_module.MAX_INPUT_SIZE
    assert path.sizes == [board_module._FIRST_READ]


@pytest.mark.parametrize("size", [99, 100, 101, 300, 301, 302])
def test_a_file_past_the_first_chunk_is_read_to_the_input_bound(
        tmp_path, monkeypatch, size):
    monkeypatch.setattr(board_module, "_FIRST_READ", 100)
    monkeypatch.setattr(board_module, "MAX_INPUT_SIZE", 300)
    data = bytes(range(256)) * 2
    path = tmp_path / "f.bin"
    path.write_bytes(data[:size])
    assert board_module._read_bounded(path) == \
        (data[:size] if size <= 300 else None)


@pytest.mark.parametrize("alias", ["same", "dot", "symlink", "hardlink"])
@pytest.mark.parametrize("role", ["board", "app", "map", "packaged"])
def test_a_trace_path_naming_an_input_is_refused_and_writes_nothing(
        tmp_path, capsys, monkeypatch, role, alias):
    monkeypatch.chdir(tmp_path)
    # Packaged maps are read from copies here, so a regression cannot
    # truncate the maps of the source tree.
    monkeypatch.setattr(board_module, "_packaged_map",
                        lambda pname: tmp_path / "pkg" / f"{pname}.json")
    packaged = ("alarm", "uart", "hashengine")
    names = {"board": "b.json", "app_a": "a.json", "app_b": "c.json",
             "map": "u.json",
             **{f"pkg_{pname}": f"pkg/{pname}.json" for pname in packaged}}
    board = json.loads((BOARDS_DIR / "demo.json").read_text())
    if role != "packaged":  # else the uart reads its packaged map
        board["peripherals"]["uart"]["map"] = names["map"]
    sources = {"board": json.dumps(board).encode(),
               "app_a": (SCENARIOS_DIR / "demo_a.json").read_bytes(),
               "app_b": (SCENARIOS_DIR / "demo_b.json").read_bytes(),
               "map": (DATA_DIR / "maps" / "uart.json").read_bytes(),
               **{f"pkg_{pname}": (DATA_DIR / "maps" / f"{pname}.json").read_bytes()
                  for pname in packaged}}
    (tmp_path / "pkg").mkdir()
    for key, name in names.items():
        (tmp_path / name).write_bytes(sources[key])
    before = {name: (tmp_path / name).read_bytes() for name in names.values()}
    # An app alias names the second app, so every app is checked.
    target = names[{"app": "app_b", "packaged": "pkg_uart"}.get(role, role)]
    if alias == "same":
        trace = target
    elif alias == "dot":
        trace = f"./{target}"
    elif alias == "symlink":
        trace = "link.json"
        os.symlink(target, trace)
    else:
        trace = "hard.json"
        os.link(target, trace)
    assert cli_main(["run", "--board", names["board"], "--app", names["app_a"],
                     "--app", names["app_b"], "--trace", trace]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("config error: trace file ")
    assert captured.out == ""
    assert {name: (tmp_path / name).read_bytes() for name in names.values()} \
        == before


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_board_on_a_pipe_is_read_once_with_a_trace_path(tmp_path):
    # Looking for the register maps a board names must not consume a board
    # that can be read only once.
    trace_path = tmp_path / "t.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "kernsim.cli", "run", "--board", "/dev/stdin",
         "--app", str(SCENARIOS_DIR / "alarm_fourcall.json"),
         "--trace", str(trace_path)],
        input=(BOARDS_DIR / "demo_sync.json").read_bytes(), env=env,
        capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert parse_trace(trace_path.read_bytes())[-1]["kind"] == "quiescent"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_board_on_a_pipe_naming_the_trace_as_a_map_is_refused(tmp_path):
    # The maps a board names are known from its one read, so a board that
    # can be read only once is held to the same rule as a file.
    trace_path = tmp_path / "u.json"
    map_bytes = (DATA_DIR / "maps" / "uart.json").read_bytes()
    trace_path.write_bytes(map_bytes)
    board = json.loads((BOARDS_DIR / "demo.json").read_text())
    board["peripherals"]["uart"]["map"] = str(trace_path)
    proc = subprocess.run(
        [sys.executable, "-m", "kernsim.cli", "run", "--board", "/dev/stdin",
         "--app", str(SCENARIOS_DIR / "demo_a.json"), "--trace", str(trace_path)],
        input=json.dumps(board).encode(), env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"config error: trace file ")
    assert b"Traceback" not in proc.stderr
    assert trace_path.read_bytes() == map_bytes


@pytest.mark.parametrize("uart", ["absent", "null"])
def test_a_trace_path_naming_a_packaged_map_is_refused_without_its_peripheral(
        tmp_path, capsys, monkeypatch, uart):
    # Every packaged map belongs to the package, whatever peripherals the
    # board has.
    monkeypatch.setattr(board_module, "_packaged_map",
                        lambda pname: tmp_path / "pkg" / f"{pname}.json")
    (tmp_path / "pkg").mkdir()
    for pname in ("alarm", "uart", "hashengine"):
        (tmp_path / "pkg" / f"{pname}.json").write_bytes(
            (DATA_DIR / "maps" / f"{pname}.json").read_bytes())
    board = json.loads((BOARDS_DIR / "demo_sync.json").read_text())
    board["capsules"] = [layer for layer in board["capsules"]
                         if layer["name"] not in ("console", "uart_pins")]
    if uart == "absent":
        del board["peripherals"]["uart"]
    else:
        board["peripherals"]["uart"] = None
    board_path = tmp_path / "b.json"
    board_path.write_text(json.dumps(board))
    files = [board_path, SCENARIOS_DIR / "demo_a.json", *(tmp_path / "pkg").iterdir()]
    before = {path: path.read_bytes() for path in files}
    assert cli_main(["run", "--board", str(board_path),
                     "--app", str(SCENARIOS_DIR / "demo_a.json"),
                     "--trace", str(tmp_path / "pkg" / "uart.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: trace file ")
    assert "Traceback" not in captured.err
    assert {path: path.read_bytes() for path in files} == before


def test_a_traced_run_reads_each_input_once(tmp_path, monkeypatch):
    reads = {}
    read_bounded = board_module._read_bounded

    def counting(path):
        reads[str(path)] = reads.get(str(path), 0) + 1
        return read_bounded(path)

    monkeypatch.setattr(board_module, "_read_bounded", counting)
    apps = [SCENARIOS_DIR / "demo_a.json", SCENARIOS_DIR / "demo_b.json"]
    assert run_simulation(BOARDS_DIR / "demo.json", apps,
                          trace_path=tmp_path / "t.jsonl") == 0
    maps = [str(board_module._packaged_map(pname))
            for pname in ("alarm", "uart", "hashengine")]
    assert reads == {str(path): 1 for path in
                     [BOARDS_DIR / "demo.json", *maps, *apps]}


def test_a_trace_path_beside_missing_inputs_is_not_refused(tmp_path, capsys):
    # The trace exists and the inputs do not: the run overwrites the old
    # trace with the missing board's configuration error.
    trace = tmp_path / "t.jsonl"
    trace.write_text("old trace\n")
    assert cli_main(["run", "--board", str(tmp_path / "no_board.json"),
                     "--app", str(tmp_path / "no_app.json"),
                     "--trace", str(trace)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace.read_bytes())
    assert events[-1]["payload"]["violation"].startswith(
        "cannot read board file: ")


@pytest.mark.parametrize("where", ["board", "app"])
@pytest.mark.parametrize("bad_path", [
    pytest.param("a\x00b.json", id="nul"),
    pytest.param("\ud800.json", id="lone_surrogate"),
])
def test_a_path_the_os_refuses_is_exit_2_at_check_and_run(tmp_path, capsys,
                                                         where, bad_path):
    paths = {"board": str(BOARDS_DIR / "demo_sync.json"),
             "app": str(SCENARIOS_DIR / "demo_a.json")}
    paths[where] = bad_path
    trace_path = tmp_path / "t.jsonl"
    assert (check_board(paths["board"]) != []) == (where == "board")
    assert run_simulation(paths["board"], [paths["app"]],
                          trace_path=trace_path) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert events[-1]["kind"] == "config_error"
    assert events[-1]["payload"]["violation"].startswith(
        f"cannot read {where} file: ")


@pytest.mark.parametrize("header", [
    pytest.param({"min_memory": 2 ** 32}, id="min_memory_past_u32"),
    pytest.param({"min_memory": 10_000_000_000_000}, id="min_memory_huge"),
    pytest.param({"credential": {"digest": -1}}, id="digest_negative"),
    pytest.param({"credential": {"digest": 2 ** 64}}, id="digest_past_u64"),
    pytest.param({"credential": {"digest": True}}, id="digest_true"),
    pytest.param({"credential": {"digest": "ab"}}, id="digest_a_string"),
    pytest.param({"credential": {"key_id": 70_000}}, id="key_id_past_u16"),
    pytest.param({"credential": {"key_id": False}}, id="key_id_false"),
    pytest.param({"credential": "key"}, id="credential_a_string"),
    pytest.param({"entry": 5}, id="entry_a_number"),
    pytest.param({"entry": "\u00e9" * 2 ** 15}, id="entry_past_u16_bytes"),
    pytest.param({"entry": "\ud800"}, id="entry_lone_surrogate"),
    pytest.param({"name": {"x": [1, None]}}, id="name_an_object"),
    pytest.param({"main": [{"op": "syscall", "call": {
        "class": "ro_allow", "driver": 1, "buf": 0, "base": 0, "len": -1}}]},
        id="allow_len_negative"),
    pytest.param({"main": [{"op": "syscall", "call": {
        "class": "ro_allow", "seg": "abs", "driver": 1, "buf": 0, "base": -8,
        "len": 0}}]}, id="allow_abs_base_negative"),
    pytest.param({"main": [{"op": "syscall", "call": {
        "class": "command", "driver": 1, "cmd": 1, "args": [2 ** 32]}}]},
        id="command_arg_past_u32"),
    pytest.param({"main": [{"op": "write_local", "offset": 0, "data": "\u00e9"}]},
                 id="write_local_data_not_ascii"),
])
def test_scenario_header_out_of_range_is_exit_2_at_run(tmp_path, capsys, header):
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}], **header}))
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["run", "--board", str(BOARDS_DIR / "demo_sync.json"),
                     "--app", str(app), "--trace", str(trace_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    events = parse_trace(trace_path.read_bytes())
    assert events[-1]["kind"] == "config_error"


@pytest.mark.parametrize("where", ["missing_dir", "is_a_dir", "nul_in_path"])
def test_unwritable_trace_path_is_exit_2_before_simulating(tmp_path, capsys,
                                                          where):
    trace_path = {"missing_dir": tmp_path / "no" / "such" / "x.jsonl",
                  "is_a_dir": tmp_path,
                  "nul_in_path": f"{tmp_path}/no\x00such.jsonl"}[where]
    code = cli_main(["run", "--board", str(BOARDS_DIR / "demo.json"),
                     "--app", str(SCENARIOS_DIR / "demo_a.json"),
                     "--trace", str(trace_path)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: cannot write trace: ")
    assert "Traceback" not in err
    assert not (tmp_path / "no").exists()


def _run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "kernsim.cli", "run",
         "--board", str(BOARDS_DIR / "demo.json"),
         "--app", str(SCENARIOS_DIR / "alarm_fourcall.json"), *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)), stderr=subprocess.PIPE,
        text=True, timeout=60, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_trace_device_is_exit_2():
    # Every write to /dev/full fails with ENOSPC, first seen when the
    # buffered trace is flushed.
    proc = _run_cli("--trace", "/dev/full", stdout=subprocess.DEVNULL)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot write trace: ")
    assert "Traceback" not in proc.stderr


def test_a_closed_stdout_reader_is_exit_2():
    # The read end of the pipe is closed before the run starts, so every
    # write of the trace to stdout fails with EPIPE, the exit-time flush
    # included.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot write trace: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("mutate, key", [
    pytest.param(lambda cfg: cfg.update(max_proceses=2), "max_proceses",
                 id="board"),
    pytest.param(lambda cfg: cfg["peripherals"]["uart"].update(bytes_per_tik=4),
                 "peripherals.uart.bytes_per_tik", id="peripheral"),
    pytest.param(lambda cfg: cfg["peripherals"].update(spi={"irq": 9}),
                 "peripherals.spi", id="peripheral_name"),
    pytest.param(lambda cfg: _console(cfg).update(buffer=8), "capsules[1].buffer",
                 id="capsule_layer"),
])
def test_a_key_the_schema_does_not_name_is_exit_2_at_check_and_run(
        tmp_path, capsys, mutate, key):
    cfg = minimal_board_dict()
    mutate(cfg)
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    assert cli_main(["check", "--board", str(board_path)]) == 2
    assert f"violation: {key} is not a known key" in capsys.readouterr().err
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == 2
    events = parse_trace(trace_path.read_bytes())
    assert [e["payload"]["violation"] for e in events] == [
        f"{key} is not a known key"]


# A valid value for each layer key that some capsule type takes and
# another does not.
_TYPED_KEYS = {"driver_id": 9, "buffer_size": 64}
_ALL_LAYER_KEYS = {key for ctype in CAPSULE_TYPES.values() for key in ctype.LAYER}


def _board_with_one_of_each_type():
    """minimal_board_dict's layers plus one of each type it lacks, and the
    index of the first layer of each type."""
    cfg = minimal_board_dict()
    for ctype in CAPSULE_TYPES:
        if all(layer["type"] != ctype for layer in cfg["capsules"]):
            layer = {"name": f"a_{ctype}", "type": ctype}
            if "driver_id" in CAPSULE_TYPES[ctype].LAYER:
                layer["driver_id"] = 100 + len(cfg["capsules"])
            cfg["capsules"].append(layer)
    first = {}
    for i, layer in enumerate(cfg["capsules"]):
        first.setdefault(layer["type"], i)
    return cfg, first


def _check_and_run_refuse(tmp_path, capsys, cfg, violations):
    board_path = tmp_path / "board.json"
    board_path.write_text(json.dumps(cfg))
    app = tmp_path / "app.json"
    app.write_text(json.dumps({"name": "app", "main": [{"op": "halt"}]}))
    trace_path = tmp_path / "t.jsonl"
    assert check_board(board_path) == violations
    assert cli_main(["check", "--board", str(board_path)]) == 2
    assert cli_main(["run", "--board", str(board_path), "--app", str(app),
                     "--trace", str(trace_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(f"config error: {violation}" in err for violation in violations)
    events = parse_trace(trace_path.read_bytes())
    assert [e["payload"]["violation"] for e in events] == violations


@pytest.mark.parametrize("ctype, key", [
    (ctype, key) for ctype in CAPSULE_TYPES
    for key in sorted(_ALL_LAYER_KEYS - set(CAPSULE_TYPES[ctype].LAYER))])
def test_a_layer_key_its_type_does_not_take_is_exit_2_at_check_and_run(
        tmp_path, capsys, ctype, key):
    cfg, first = _board_with_one_of_each_type()
    (tmp_path / "ok.json").write_text(json.dumps(cfg))
    assert check_board(tmp_path / "ok.json") == []
    cfg["capsules"][first[ctype]][key] = _TYPED_KEYS[key]
    _check_and_run_refuse(tmp_path, capsys, cfg,
                          [f"capsules[{first[ctype]}].{key} is not a known key"])


def test_each_shipped_type_declares_only_the_keys_and_kinds_it_uses():
    assert [ctype for ctype, cls in CAPSULE_TYPES.items()
            if "buffer_size" in cls.LAYER] == ["console"]
    assert [ctype for ctype, cls in CAPSULE_TYPES.items()
            if "driver_id" not in cls.LAYER] == ["annotation"]
    assert {ctype: cls.CAPABILITIES for ctype, cls in CAPSULE_TYPES.items()
            if cls.CAPABILITIES} == {"manager": (CapabilityKind.PROCESS_MANAGEMENT,)}


def test_a_capsule_type_added_after_import_is_exit_2_at_check_and_run(
        tmp_path, capsys, monkeypatch):
    # The board schema reads CAPSULE_TYPES once, at import, as a Tock
    # board fixes its capsules when the kernel is built.
    shipped = tuple(CAPSULE_TYPES)
    monkeypatch.setitem(CAPSULE_TYPES, "late", CAPSULE_TYPES["probe"])
    cfg = minimal_board_dict()
    cfg["capsules"].append({"name": "late", "type": "late", "driver_id": 9})
    _check_and_run_refuse(tmp_path, capsys, cfg, [
        f"capsules[{len(cfg['capsules']) - 1}].type must be one of {shipped}, got 'late'"])


@pytest.mark.parametrize("ctype, kind", [
    (ctype, kind) for ctype in CAPSULE_TYPES for kind in CapabilityKind
    if kind not in CAPSULE_TYPES[ctype].CAPABILITIES])
def test_a_kind_its_holder_type_does_not_take_is_exit_2_at_check_and_run(
        tmp_path, capsys, ctype, kind):
    cfg, first = _board_with_one_of_each_type()
    holder = cfg["capsules"][first[ctype]]["name"]
    cfg["capabilities"] = {holder: [kind.value]}
    _check_and_run_refuse(tmp_path, capsys, cfg, [
        f"capsule {holder!r} (type {ctype!r}) may not be granted {kind.value}"])


def test_an_unknown_kind_and_a_kind_granted_twice_are_exit_2_at_check_and_run(
        tmp_path, capsys):
    cfg = json.loads((BOARDS_DIR / "demo_sync.json").read_text())
    cfg["capabilities"] = {"probe_a": ["GrantInspection"],
                           "manager": ["ProcessManagement", "ProcessManagement"]}
    _check_and_run_refuse(tmp_path, capsys, cfg, [
        "capabilities.probe_a[0] must be one of ('ProcessManagement', "
        "'LoaderControl'), got 'GrantInspection'",
        "capsule 'manager' is granted ProcessManagement twice"])


_WORKLOADS = runpy.run_path(str(SRC.parent / "perfbench" / "workloads.py"))


@pytest.mark.parametrize("board", [
    "demo.json", "demo_sync.json", "polarity_ok.json",
    *sorted(_WORKLOADS["GENERATORS"])])
def test_shipped_and_workload_boards_take_only_their_types_keys_and_kinds(
        tmp_path, board):
    path = BOARDS_DIR / board if board.endswith(".json") else \
        _WORKLOADS["generate"](board, 0, tmp_path, scale=0.01).board
    assert check_board(path) == []
