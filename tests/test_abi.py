import json
import random
import re

import pytest

from kernsim.abi import (
    NULL_UPCALL,
    SYSCALL,
    ErrorCode,
    ReturnVariant,
    SyscallClass,
    SyscallInvocation,
    SyscallReturn,
    UpcallDescriptor,
    YieldMode,
    call_text,
    encode_invocation,
    encode_return,
    match_return,
)
from kernsim.errors import INVALID

from conftest import AWKWARD_NAMES
from oracles import compact, invocation_record, return_record


def decode(record):
    """The invocation a syscall record names, as a scenario decodes it:
    checked and built by SYSCALL's checker. A record it refuses gives its
    violations instead."""
    out = []
    checked = SYSCALL.check(record, "record", out)
    return out if checked is INVALID else checked[0]


def test_decode_command():
    inv = decode({"class": "command", "driver": 0, "cmd": 1, "args": [500, 0]})
    assert inv == SyscallInvocation.command(0, 1, 500, 0)


def test_decode_ro_allow():
    inv = decode({"class": "ro_allow", "driver": 2, "buf": 0,
                  "base": 100, "len": 16})
    assert inv.klass is SyscallClass.RO_ALLOW
    assert (inv.driver_id, inv.subcommand, inv.base, inv.length) == (2, 0, 100, 16)


def test_decode_unknown_class_is_error_not_crash():
    assert decode({"class": "frobnicate"}) == [
        "class must be one of ('yield', 'subscribe', 'command', 'rw_allow', "
        "'ro_allow', 'exit'), got 'frobnicate'"]


def test_decode_yield_modes():
    assert decode({"class": "yield"}).yield_mode is YieldMode.WAIT
    assert decode({"class": "yield", "mode": "no_wait"}).yield_mode is \
        YieldMode.NO_WAIT
    assert decode({"class": "yield", "mode": "sometimes"}) == [
        "mode must be one of ('wait', 'no_wait'), got 'sometimes'"]


def test_decode_rejects_bad_field_types():
    assert decode({"class": "command", "driver": "zero", "cmd": 1}) == [
        "driver must be an integer in [0, 4294967295], got 'zero'"]
    assert decode({"class": "command", "driver": 0, "cmd": 1,
                   "args": [1, 2, 3]}) == [
        "args must be a list of at most 2 items, got [1, 2, 3]"]
    assert decode({"class": "subscribe", "driver": 0, "sub": 0, "fn": 7}) == [
        "fn must be a string, got 7"]


@pytest.mark.parametrize("record, needle", [
    ({"class": "command", "driver": -1, "cmd": 1}, "driver"),
    ({"class": "command", "driver": 0, "cmd": 2 ** 32}, "cmd"),
    ({"class": "command", "driver": 0, "cmd": 1, "args": [0, -1]}, "args[1]"),
    ({"class": "command", "driver": 0, "cmd": 1, "args": [True]}, "args[0]"),
    ({"class": "subscribe", "driver": 0, "sub": 0, "userdata": -1},
     "userdata"),
    ({"class": "rw_allow", "driver": 2, "buf": 0, "base": 0, "len": -1},
     "len"),
    ({"class": "ro_allow", "driver": 2, "buf": 0, "base": -8, "len": 0},
     "base"),
], ids=["driver_negative", "cmd_past_u32", "arg1_negative", "arg0_true",
        "userdata_negative", "len_negative", "base_negative"])
def test_decode_bounds_each_integer_to_a_register(record, needle):
    violations = decode(record)
    assert len(violations) == 1
    assert re.match(f"^{re.escape(needle)} must be an integer in "
                    "\\[0, 4294967295\\]", violations[0])


def test_decode_accepts_the_largest_register_value():
    top = 2 ** 32 - 1
    assert decode({"class": "command", "driver": top, "cmd": top,
                   "args": [top, top]}) == \
        SyscallInvocation.command(top, top, top, top)
    assert decode({"class": "rw_allow", "driver": top, "buf": top,
                   "base": top, "len": top}) == \
        SyscallInvocation.rw_allow(top, top, top, top)


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
        assert decode(json.loads(encode_invocation(inv))) == inv


def test_encode_return_examples():
    assert encode_return(SyscallReturn.success_region(0, 0)) == \
        '{"variant":"success_region","base":0,"len":0}'
    assert encode_return(SyscallReturn.failure(ErrorCode.NOMEM)) == \
        '{"variant":"failure","err":"NOMEM"}'
    assert encode_return(SyscallReturn.success_upcall(NULL_UPCALL)) == \
        '{"variant":"success_upcall","fn":"null"}'


def test_each_return_constructor_equals_its_keyword_built_tuple():
    upcall = UpcallDescriptor("on_tx", 2 ** 32 - 1)
    cases = [
        (SyscallReturn.success(), SyscallReturn(variant=ReturnVariant.SUCCESS)),
        (SyscallReturn.success_value(2 ** 32 - 1),
         SyscallReturn(variant=ReturnVariant.SUCCESS_VALUE, value=2 ** 32 - 1)),
        (SyscallReturn.success_region(16, 32),
         SyscallReturn(variant=ReturnVariant.SUCCESS_REGION, base=16, length=32)),
        (SyscallReturn.success_upcall(upcall),
         SyscallReturn(variant=ReturnVariant.SUCCESS_UPCALL, upcall=upcall)),
        (SyscallReturn.success_upcall(NULL_UPCALL),
         SyscallReturn(variant=ReturnVariant.SUCCESS_UPCALL, upcall=NULL_UPCALL)),
    ]
    for error in ErrorCode:
        cases += [
            (SyscallReturn.failure(error),
             SyscallReturn(variant=ReturnVariant.FAILURE, error=error)),
            (SyscallReturn.failure_region(error, 4, 8),
             SyscallReturn(variant=ReturnVariant.FAILURE_REGION, error=error,
                           base=4, length=8))]
    for built, keyword in cases:
        assert type(built) is SyscallReturn
        assert [(type(value), value) for value in built] == \
            [(type(value), value) for value in keyword]
    assert SyscallReturn.success() is SyscallReturn.success()


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
        record = encode_return(ret)
        assert returns_by_record.setdefault(record, ret) == ret


def test_match_return_is_subset_match():
    text = encode_return(SyscallReturn.success_region(40, 0))
    assert match_return({"variant": "success_region", "len": 0}, text)
    assert match_return({}, text)
    assert not match_return({"variant": "success_region", "len": 1}, text)
    assert not match_return({"missing": 1}, text)
    assert not match_return({"variant": "success_region", "len": False}, text)


# --- the encoders' text is the compact JSON of the record -------------------

EDGE_U32 = (0, 1, 255, 2 ** 31, 2 ** 32 - 1)


def _u32(rng):
    return rng.choice(EDGE_U32) if rng.random() < 0.3 else rng.randrange(2 ** 32)


def _name(rng):
    if rng.random() < 0.5:
        return rng.choice(AWKWARD_NAMES)
    return "".join(rng.choice("a\"\\\x00\n\x1f\x7f\u00e9\u4e2d\ud800\udfff_")
                   for _ in range(rng.randrange(8)))


def _any_invocation(rng, klass):
    if klass is SyscallClass.YIELD:
        return SyscallInvocation.yield_(rng.choice(list(YieldMode)))
    if klass is SyscallClass.SUBSCRIBE:
        return SyscallInvocation.subscribe(_u32(rng), _u32(rng), _name(rng), _u32(rng))
    if klass is SyscallClass.COMMAND:
        return SyscallInvocation.command(_u32(rng), _u32(rng), _u32(rng), _u32(rng))
    if klass is SyscallClass.EXIT:
        return SyscallInvocation.exit()
    return getattr(SyscallInvocation, klass.value)(_u32(rng), _u32(rng),
                                                   _u32(rng), _u32(rng))


def _any_return(rng, variant):
    error = rng.choice(list(ErrorCode))
    if variant is ReturnVariant.SUCCESS:
        return SyscallReturn.success()
    if variant is ReturnVariant.SUCCESS_VALUE:
        return SyscallReturn.success_value(_u32(rng))
    if variant is ReturnVariant.SUCCESS_REGION:
        return SyscallReturn.success_region(_u32(rng), _u32(rng))
    if variant is ReturnVariant.SUCCESS_UPCALL:
        return SyscallReturn.success_upcall(
            NULL_UPCALL if rng.random() < 0.2 else
            UpcallDescriptor(_name(rng) or "fn", _u32(rng)))
    if variant is ReturnVariant.FAILURE:
        return SyscallReturn.failure(error)
    return SyscallReturn.failure_region(error, _u32(rng), _u32(rng))


def test_encoded_text_is_the_compact_json_of_the_record_10k():
    rng = random.Random(0x7E47)
    seen = set()
    for i in range(10_000):
        inv = _any_invocation(rng, list(SyscallClass)[i % len(SyscallClass)])
        assert encode_invocation(inv) == compact(invocation_record(inv)), inv
        ret = _any_return(rng, list(ReturnVariant)[i % len(ReturnVariant)])
        assert encode_return(ret) == compact(return_record(ret)), ret
        # The text is parsed as the record's compact JSON would be: _name's
        # uncombined surrogate pairs decode to one code point either way.
        assert match_return(json.loads(compact(return_record(ret))), encode_return(ret))
        seen.update((inv.fn_id, inv.arg0, ret.upcall.fn_id, ret.error))
    assert {*AWKWARD_NAMES, *ErrorCode, 0, 2 ** 32 - 1} <= seen


def test_call_text_is_the_compact_json_of_the_syscall_payload():
    rng = random.Random(0xCA11)
    for i in range(2_000):
        inv = _any_invocation(rng, list(SyscallClass)[i % len(SyscallClass)])
        assert call_text(inv) == compact({"call": invocation_record(inv)}), inv
