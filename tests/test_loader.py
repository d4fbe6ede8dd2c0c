import hashlib
import random
import struct
import tracemalloc

import pytest

from kernsim import board as board_module
from kernsim import kernel as kernel_module
from kernsim import loader as loader_module
from kernsim import scenario as scenario_module
from kernsim.errors import ForeignCapability, InvalidTransition
from kernsim.kernel import LoaderJob, PackedApp, ProcessState
from kernsim.loader import (
    HeaderError,
    LoaderState,
    RejectReason,
    fnv1a64,
    pack_binary,
    parse_binary,
)
from kernsim.scenario import parse_script_bytes

from conftest import make_board, script_source, trace_events


def sha256_digest(data):
    """The credential digest by its definition: the first eight bytes of
    the SHA-256, read little-endian."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def test_fnv1a64_is_the_truncated_sha256_known_answer():
    # SHA-256 of no bytes begins e3 b0 c4 42 98 fc 1c 14.
    assert fnv1a64(b"") == 0x141CFC9842C4B0E3
    rng = random.Random(64)
    for n in (0, 1, 7, 8, 9, 84 * 1024):
        payload = rng.randbytes(n)
        assert fnv1a64(payload) == sha256_digest(payload), n


def test_pack_parse_round_trip():
    payload = b'{"main": []}'
    blob = pack_binary(payload, 512, entry_name="main", key_id=3)
    header, got_payload = parse_binary(blob)
    assert got_payload == payload
    assert header.min_memory == 512
    assert header.entry_name == "main"
    assert header.key_id == 3
    assert header.digest == sha256_digest(payload)
    assert header.payload_len == len(payload)


def test_parse_rejects_bad_magic():
    blob = bytearray(pack_binary(b"{}", 64))
    blob[0] = ord(b"X")
    with pytest.raises(HeaderError):
        parse_binary(bytes(blob))


def test_parse_rejects_truncation_and_length_lies():
    blob = pack_binary(b'{"main": []}', 64)
    with pytest.raises(HeaderError):
        parse_binary(blob[:10])
    with pytest.raises(HeaderError):
        parse_binary(blob + b"extra")
    with pytest.raises(HeaderError):
        parse_binary(blob[:-1])


def sync_board(**overrides):
    return make_board(loader="sync", **overrides)


def async_board(**overrides):
    return make_board(loader="async", **overrides)


def loader_states(board, job_id):
    return [e.payload["state"] for e in trace_events(board)
            if e.kind == "loader_state" and e.payload.get("job") == job_id]


def good_source(min_memory=256):
    return script_source([{"op": "halt"}], {}, min_memory)


def test_sync_accepts_well_formed_binary():
    board = sync_board(verifier="accept_all")
    job = board.load_app(good_source())
    assert job.state is LoaderState.RUNNABLE
    assert job.pid == 1
    assert board.kernel.processes[1].state is ProcessState.UNSTARTED


def test_sync_rejects_corrupted_header_magic():
    board = sync_board()
    blob = bytearray(pack_binary(good_source(), 256))
    blob[1] = 0
    job = board.load_binary(bytes(blob))
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.BAD_HEADER


def test_sync_rejects_flipped_payload_byte():
    # Flip one payload byte; the recomputed digest (reference oracle) must
    # differ from the credential, so integrity fails.
    board = sync_board(verifier="digest_match")
    source = good_source()
    blob = bytearray(pack_binary(source, 256))
    header, payload = parse_binary(bytes(blob))
    flip_at = header.header_len + 5
    blob[flip_at] ^= 0x01
    corrupted_payload = bytes(blob[header.header_len:])
    assert sha256_digest(corrupted_payload) != header.digest
    job = board.load_binary(bytes(blob))
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.BAD_INTEGRITY


def test_sync_rejects_unknown_entry_point():
    board = sync_board()
    job = board.load_app(script_source([{"op": "halt"}], {}, 256,
                                       entry="bogus"))
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.NOT_RUNNABLE


def test_sync_rejects_when_no_room():
    board = sync_board(ram_size=4096)
    job = board.load_app(good_source(min_memory=100_000))
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.NO_ROOM


def test_load_past_max_processes_is_rejected_with_no_room():
    # Each app arms an alarm; the alarm driver has one client slot per
    # allowed process, so no live process can run out of slots.
    sleeper = script_source(
        [{"op": "sync_command", "driver": 0, "cmd": 1, "args": [50, 0],
          "fn": "on_alarm"}, {"op": "halt"}], {"on_alarm": []}, 256)
    board = sync_board(max_processes=2)
    board.finalize()
    jobs = [board.load_app(sleeper, f"app{i}") for i in range(3)]
    assert [job.state for job in jobs] == [LoaderState.RUNNABLE] * 2 + \
        [LoaderState.REJECTED]
    assert jobs[2].reject_reason is RejectReason.NO_ROOM
    assert "max_processes" in jobs[2].detail
    assert board.run() == 0
    rets = [e.payload["ret"] for e in trace_events(board)
            if e.kind == "syscall_return"]
    assert rets and all(r.get("err") != "RESERVE" for r in rets)


def test_key_id_policy():
    board = sync_board(verifier="digest_key_id", trusted_key_ids=[7])
    accepted = board.load_app(script_source([{"op": "halt"}], {}, 256,
                                            credential={"key_id": 7}))
    assert accepted.state is LoaderState.RUNNABLE
    rejected = board.load_app(script_source([{"op": "halt"}], {}, 256,
                                            credential={"key_id": 8}))
    assert rejected.state is LoaderState.REJECTED
    assert rejected.reject_reason is RejectReason.BAD_INTEGRITY


def test_async_happy_path_traces_five_states():
    board = async_board()
    job = board.load_app(good_source())
    assert job.state is LoaderState.INTEGRITY_PENDING  # hash job in flight
    board.run(50)
    assert job.state is LoaderState.RUNNABLE
    assert loader_states(board, job.job_id) == [
        "fetched", "header_checked", "integrity_pending",
        "integrity_checked", "runnable"]


def test_async_bad_header_never_reaches_the_hash_engine():
    board = async_board()
    blob = bytearray(pack_binary(good_source(), 256))
    blob[0] = 0
    job = board.load_binary(bytes(blob))
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.BAD_HEADER
    assert not any(e.kind == "hash_submit" for e in trace_events(board))


def test_async_digest_mismatch_frees_engine_for_next_job():
    board = async_board()
    bad = bytearray(pack_binary(good_source(), 256))
    header, _ = parse_binary(bytes(bad))
    bad[header.header_len] ^= 0xFF
    job_bad = board.load_binary(bytes(bad))
    job_good = board.load_binary(pack_binary(good_source(), 256))
    assert job_bad.state is LoaderState.INTEGRITY_PENDING
    assert job_good.state is LoaderState.INTEGRITY_PENDING
    board.run(100)
    assert job_bad.state is LoaderState.REJECTED
    assert job_bad.reject_reason is RejectReason.BAD_INTEGRITY
    assert job_good.state is LoaderState.RUNNABLE
    assert not board.chip.hashengine.busy


def test_sync_and_async_decide_identically():
    fixtures = []
    good = pack_binary(good_source(), 256)
    fixtures.append(("good", good))
    bad_header = bytearray(good)
    bad_header[2] ^= 0xFF
    fixtures.append(("bad_header", bytes(bad_header)))
    bad_payload = bytearray(good)
    bad_payload[-1] ^= 0x01
    fixtures.append(("bad_payload", bytes(bad_payload)))
    fixtures.append(("not_runnable",
                     pack_binary(b'{"main": "nope"}', 256)))

    outcomes = {}
    for mode in ("sync", "async"):
        board = make_board(loader=mode)
        for name, blob in fixtures:
            job = board.load_binary(blob, name)
            board.run(100)
            outcomes[(mode, name)] = (job.state, job.reject_reason)
    for name, _ in fixtures:
        assert outcomes[("sync", name)] == outcomes[("async", name)], name


def version1_binary(payload):
    """A binary in the version 1 layout, built field by field, with entry
    point "main"."""
    header_len = 4 + 2 + 2 + 4 + 4 + 2 + 4 + 8 + 2
    return (struct.pack("<4sHHIIH", b"KSIM", 1, header_len, len(payload), 256, 4)
            + b"main" + struct.pack("<QH", 0, 0) + payload)


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_a_version1_binary_is_refused_as_bad_header(mode):
    # Version 1 credentials were FNV-1a-64; such a binary fails its header
    # check, not its integrity check.
    board = make_board(loader=mode)
    job = board.load_binary(version1_binary(good_source()))
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.BAD_HEADER
    assert job.detail == "unsupported version 1"
    assert not any(e.kind == "hash_submit" for e in trace_events(board))


def test_invalid_transitions_rejected():
    board = sync_board()
    job = board.load_app(good_source())
    assert job.state is LoaderState.RUNNABLE
    with pytest.raises(InvalidTransition):
        board.kernel.loader.advance(job, 0)


def test_digest_done_while_fetched_is_invalid():
    board = sync_board()
    job = LoaderJob(99, "x")
    assert job.state is LoaderState.FETCHED
    with pytest.raises(InvalidTransition):
        board.kernel.loader.advance(job, 0)


def test_loading_requires_the_loader_token():
    board_a = sync_board()
    board_b = sync_board()
    with pytest.raises(ForeignCapability):
        board_b.kernel.loader.submit(board_a._boot_token,
                                     pack_binary(good_source(), 256), "x", True)


def test_dynamic_load_after_finalize_with_construction_token():
    # The asynchronous machine supports loading new binaries at runtime,
    # gated on a token minted during construction.
    board = async_board()
    board.finalize()
    job = board.kernel.loader.submit(board._boot_token,
                                     pack_binary(good_source(), 256), "late", False)
    board.run(100)
    assert job.state is LoaderState.RUNNABLE
    assert board.kernel.processes[job.pid].state is ProcessState.EXITED


# -- the packer's parse, handed to the loader; the loader's own digest ----------

MODES = ["sync", "async"]


@pytest.fixture
def calls(monkeypatch):
    """Counts fnv1a64 and parse_script_bytes calls under every name the
    packer, the loader and the kernel call them by."""
    counts = {"fnv1a64": 0, "parse_script_bytes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    digest = counted("fnv1a64", fnv1a64)
    parse = counted("parse_script_bytes", parse_script_bytes)
    for module in (loader_module, kernel_module, board_module):
        monkeypatch.setattr(module, "fnv1a64", digest)
    for module in (scenario_module, kernel_module, board_module):
        monkeypatch.setattr(module, "parse_script_bytes", parse)
    return counts


def submit(board, blob, name, packed):
    """Load blob on the board's configured loader with packed handed over."""
    return board.kernel.loader.submit(board._boot_token, blob, name,
                                      board.config.loader == "sync", packed)


def load_handed_over(board, source, tamper):
    """Pack source as load_app does, change the blob with tamper, and load
    it with the packer's script for the untouched source handed over."""
    script = parse_script_bytes(source, "app")
    blob = bytearray(pack_binary(source, script.min_memory))
    tamper(blob)
    return submit(board, bytes(blob), script.name, PackedApp(source, script))


@pytest.mark.parametrize("mode", MODES)
def test_load_app_parses_each_app_once_and_digests_it_in_packer_and_loader(
        mode, calls):
    board = make_board(loader=mode)
    jobs = [board.load_app(good_source(256 + 16 * i)) for i in range(3)]
    board.run(200)
    assert [job.state for job in jobs] == [LoaderState.RUNNABLE] * 3
    assert calls == {"fnv1a64": 6, "parse_script_bytes": 3}


@pytest.mark.parametrize("mode", MODES)
def test_a_flipped_payload_byte_misses_the_handoff(mode, calls):
    board = make_board(loader=mode)

    def flip_last(blob):
        blob[-1] ^= 0x01

    job = load_handed_over(board, good_source(), flip_last)
    board.run(100)
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.BAD_INTEGRITY
    # The packer's, then the loader's own over the flipped bytes.
    assert calls["fnv1a64"] == 2


@pytest.mark.parametrize("mode", MODES)
def test_a_changed_header_digest_is_still_rejected(mode):
    board = make_board(loader=mode)
    source = good_source()

    def change_digest(blob):
        header, _ = parse_binary(bytes(blob))
        blob[header.header_len - 10] ^= 0x01  # low byte of the digest

    job = load_handed_over(board, source, change_digest)
    board.run(100)
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.BAD_INTEGRITY


@pytest.mark.parametrize("mode", MODES)
def test_a_wrong_header_digest_is_rejected_though_the_script_is_handed_over(
        mode, calls):
    # The handed-over script is byte-equal and kept, but the verdict rests
    # on the loader's own digest of the payload, not on the header's.
    board = make_board(loader=mode)
    source = good_source()
    script = parse_script_bytes(source, "app")
    wrong = fnv1a64(source) ^ 1
    job = submit(board, pack_binary(source, script.min_memory, digest=wrong),
                 script.name, PackedApp(source, script))
    assert job.script is script
    board.run(100)
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.BAD_INTEGRITY
    assert calls["fnv1a64"] == 1  # the loader's own


@pytest.mark.parametrize("mode", MODES)
def test_a_wrong_explicit_credential_digest_is_rejected(mode, calls):
    board = make_board(loader=mode)
    job = board.load_app(script_source([{"op": "halt"}], {}, 256,
                                       credential={"digest": 12345}))
    board.run(100)
    assert job.state is LoaderState.REJECTED
    assert job.reject_reason is RejectReason.BAD_INTEGRITY
    assert calls["fnv1a64"] == 1  # the loader's; the packer took the explicit one


@pytest.mark.parametrize("mode", MODES)
def test_one_source_loaded_twice_makes_two_processes(mode, calls):
    board = make_board(loader=mode)
    source = good_source()
    first, second = board.load_app(source), board.load_app(source)
    board.run(100)
    assert (first.state, second.state) == (LoaderState.RUNNABLE,) * 2
    assert first.pid != second.pid
    assert calls == {"fnv1a64": 4, "parse_script_bytes": 2}
    assert board.kernel.loader._waiting == []


@pytest.mark.parametrize("mode", MODES)
def test_the_loader_holds_no_job_after_the_run(mode):
    board = make_board(loader=mode)
    bad_header = submit(board, b"KSIMnope", "app",
                        PackedApp(b"{}", parse_script_bytes(b"{}")))
    jobs = [board.load_app(good_source()),
            board.load_app(b'{"main": [], "min_memory": 1048576}'),
            board.load_app(script_source([], {}, 64, credential={"digest": 1}))]
    assert bad_header.reject_reason is RejectReason.BAD_HEADER
    assert bad_header.script is None
    board.run(200)
    assert [job.state for job in jobs] == [LoaderState.RUNNABLE,
                                           LoaderState.REJECTED,
                                           LoaderState.REJECTED]
    assert board.kernel.loader._waiting == []
    assert not board.chip.hashengine.busy


@pytest.mark.parametrize("mode", MODES)
def test_the_kernel_parses_afresh_unless_payload_and_name_match(mode):
    board = make_board(loader=mode)
    # Same length, other bytes: the handed-over script is not used.
    handed, loaded = (script_source([{"op": "halt"}], {}, 256, name=name)
                      for name in ("handed", "loaded"))
    script = parse_script_bytes(handed, "app")
    other_bytes = submit(board, pack_binary(loaded, 256), script.name,
                         PackedApp(handed, script))
    # Same bytes with no name of their own, loaded under another name.
    nameless = b'{"main": [{"op": "halt"}], "min_memory": 256}'
    script = parse_script_bytes(nameless, "handed")
    other_name = submit(board, pack_binary(nameless, 256), "loaded",
                        PackedApp(nameless, script))
    board.run(100)
    for job in (other_bytes, other_name):
        assert job.script is None
        assert job.state is LoaderState.RUNNABLE
        assert board.kernel.processes[job.pid].name == "loaded"


@pytest.mark.parametrize("mode", MODES)
def test_a_load_keeps_no_copy_of_the_packed_binary(mode):
    # The job keeps the packer's payload bytes, not the binary they were
    # packed into: a load retains far less than the payload's size.
    source = good_source() + b" " * (64 * 1024)
    board = make_board(loader=mode, ram_size=256 * 1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        job = board.load_app(source)
        board.run(2000)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert job.state is LoaderState.RUNNABLE
    assert job.payload is source
    assert retained < len(source) // 2
