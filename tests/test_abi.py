import json
import random

import pytest

from kernsim.abi import (
    NULL_UPCALL,
    ErrorCode,
    ReturnVariant,
    SyscallClass,
    SyscallInvocation,
    SyscallReturn,
    UpcallDescriptor,
    YieldMode,
    decode_invocation,
    encode_invocation,
    encode_return,
    match_return,
)
from kernsim.errors import MalformedInvocation


def test_decode_command():
    inv = decode_invocation({"class": "command", "driver": 0, "cmd": 1,
                             "args": [500, 0]})
    assert inv == SyscallInvocation.command(0, 1, 500, 0)


def test_decode_ro_allow():
    inv = decode_invocation({"class": "ro_allow", "driver": 2, "buf": 0,
                             "base": 100, "len": 16})
    assert inv.klass is SyscallClass.RO_ALLOW
    assert (inv.driver_id, inv.subcommand, inv.base, inv.length) == (2, 0, 100, 16)


def test_decode_unknown_class_is_error_not_crash():
    with pytest.raises(MalformedInvocation):
        decode_invocation({"class": "frobnicate"})


def test_decode_yield_modes():
    assert decode_invocation({"class": "yield"}).yield_mode is YieldMode.WAIT
    assert decode_invocation(
        {"class": "yield", "mode": "no_wait"}).yield_mode is YieldMode.NO_WAIT
    with pytest.raises(MalformedInvocation):
        decode_invocation({"class": "yield", "mode": "sometimes"})


def test_decode_rejects_bad_field_types():
    with pytest.raises(MalformedInvocation):
        decode_invocation({"class": "command", "driver": "zero", "cmd": 1})
    with pytest.raises(MalformedInvocation):
        decode_invocation({"class": "command", "driver": 0, "cmd": 1,
                           "args": [1, 2, 3]})
    with pytest.raises(MalformedInvocation):
        decode_invocation({"class": "subscribe", "driver": 0, "sub": 0, "fn": 7})


def test_invocation_encode_decode_round_trip():
    invocations = [
        SyscallInvocation.yield_(YieldMode.WAIT),
        SyscallInvocation.yield_(YieldMode.NO_WAIT),
        SyscallInvocation.subscribe(1, 0, "on_alarm", 7),
        SyscallInvocation.subscribe(1, 0, "null"),
        SyscallInvocation.command(3, 9, 1, 2),
        SyscallInvocation.rw_allow(0, 1, 64, 16),
        SyscallInvocation.ro_allow(2, 0, 0, 0),
        SyscallInvocation.exit(),
    ]
    for inv in invocations:
        assert decode_invocation(encode_invocation(inv)) == inv


def test_encode_return_examples():
    assert encode_return(SyscallReturn.success_region(0, 0)) == \
        {"variant": "success_region", "base": 0, "len": 0}
    assert encode_return(SyscallReturn.failure(ErrorCode.NOMEM)) == \
        {"variant": "failure", "err": "NOMEM"}
    assert encode_return(SyscallReturn.success_upcall(NULL_UPCALL)) == \
        {"variant": "success_upcall", "fn": "null"}


def test_error_code_encodings_are_stable():
    assert [e.value for e in ErrorCode] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert ErrorCode.FAIL.value == 1
    assert ErrorCode.SIZE.value == 8


def _random_return(rng):
    variant = rng.choice(list(ReturnVariant))
    if variant is ReturnVariant.SUCCESS:
        return SyscallReturn.success()
    if variant is ReturnVariant.SUCCESS_VALUE:
        return SyscallReturn.success_value(rng.randrange(0, 2 ** 32))
    if variant is ReturnVariant.SUCCESS_REGION:
        return SyscallReturn.success_region(rng.randrange(0, 2 ** 20),
                                            rng.randrange(0, 2 ** 16))
    if variant is ReturnVariant.SUCCESS_UPCALL:
        if rng.random() < 0.25:
            return SyscallReturn.success_upcall(NULL_UPCALL)
        return SyscallReturn.success_upcall(
            UpcallDescriptor(f"handler_{rng.randrange(100)}",
                             rng.randrange(0, 2 ** 32)))
    error = rng.choice(list(ErrorCode))
    if variant is ReturnVariant.FAILURE:
        return SyscallReturn.failure(error)
    return SyscallReturn.failure_region(error, rng.randrange(0, 2 ** 20),
                                        rng.randrange(0, 2 ** 16))


def test_return_round_trip_property_10k():
    # The trace keeps only the record, so the record must name exactly one
    # return: distinct returns encode to distinct records.
    rng = random.Random(0xAB1)
    returns_by_record = {}
    for _ in range(10_000):
        ret = _random_return(rng)
        record = json.dumps(encode_return(ret), sort_keys=True)
        assert returns_by_record.setdefault(record, ret) == ret


def test_match_return_is_subset_match():
    record = {"variant": "success_region", "base": 40, "len": 0}
    assert match_return({"variant": "success_region", "len": 0}, record)
    assert match_return({}, record)
    assert not match_return({"variant": "success_region", "len": 1}, record)
    assert not match_return({"missing": 1}, record)
