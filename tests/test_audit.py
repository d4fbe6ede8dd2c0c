"""The auditors must actually catch violations, not just stay quiet on
good traces; each gets a synthetic bad trace here."""

import pytest

from kernsim.audit import (
    audit_capabilities,
    audit_capsule_memory,
    audit_return_shapes,
    audit_slot_ownership,
    audit_upcalls_inside_yield,
    audit_zero_length_allows,
)


def ev(seq, actor, kind, payload=None, tick=0):
    return {"seq": seq, "tick": tick, "actor": actor, "kind": kind,
            "payload": payload or {}}


def test_upcall_without_yield_flagged():
    good = [
        ev(0, "process:1", "syscall", {"call": {"class": "yield", "mode": "wait"}}),
        ev(1, "process:1", "upcall_run", {"fn": "h"}),
    ]
    assert audit_upcalls_inside_yield(good) == []
    bad = [
        ev(0, "process:1", "syscall", {"call": {"class": "command", "driver": 0,
                                                "cmd": 1, "args": [0, 0]}}),
        ev(1, "process:1", "upcall_run", {"fn": "h"}),
    ]
    assert len(audit_upcalls_inside_yield(bad)) == 1
    # another process's events in between do not hide the yield
    interleaved = [
        ev(0, "process:1", "syscall", {"call": {"class": "yield", "mode": "wait"}}),
        ev(1, "process:2", "syscall", {"call": {"class": "command", "driver": 0,
                                                "cmd": 1, "args": [0, 0]}}),
        ev(2, "process:1", "upcall_run", {"fn": "h"}),
    ]
    assert audit_upcalls_inside_yield(interleaved) == []


def test_memory_traffic_during_allow_flagged():
    bad = [
        ev(0, "process:1", "syscall", {"call": {"class": "rw_allow", "driver": 2,
                                                "buf": 0, "base": 16, "len": 0}}),
        ev(1, "kernel", "mem_access", {"base": 16, "len": 1, "op": "read"}),
        ev(2, "process:1", "syscall_return",
           {"ret": {"variant": "success_region", "base": 0, "len": 0}}),
    ]
    assert len(audit_zero_length_allows(bad)) == 1


def _allow(seq, driver, buf, base, length, ret):
    return [ev(seq, "process:1", "syscall",
               {"call": {"class": "rw_allow", "driver": driver, "buf": buf,
                         "base": base, "len": length}}),
            ev(seq + 1, "process:1", "syscall_return", {"ret": ret})]


def test_failed_zero_length_allow_flagged():
    # The later allow to the same slot succeeds, so the slot exists and
    # only the base can have refused the zero-length one.
    bad = _allow(0, 2, 0, 500, 0, {"variant": "failure_region", "err": "INVAL",
                                   "base": 500, "len": 0}) + \
        _allow(2, 2, 0, 0, 16, {"variant": "success_region", "base": 0, "len": 0})
    assert len(audit_zero_length_allows(bad)) == 1
    # No error but a missing driver or buffer number refuses one.
    nomem = _allow(0, 2, 0, 500, 0, {"variant": "failure_region", "err": "NOMEM",
                                     "base": 500, "len": 0})
    assert len(audit_zero_length_allows(nomem)) == 1


@pytest.mark.parametrize("driver, buf, err", [(9, 0, "NODEVICE"), (0, 0, "INVAL"),
                                              (2, 1, "INVAL")])
def test_zero_length_allow_to_a_missing_slot_may_fail(driver, buf, err):
    refused = _allow(0, driver, buf, 0, 0, {"variant": "failure_region",
                                            "err": err, "base": 0, "len": 0})
    assert audit_zero_length_allows(refused) == []


def test_allow_returning_non_region_flagged():
    bad = [
        ev(0, "process:1", "syscall", {"call": {"class": "ro_allow", "driver": 2,
                                                "buf": 0, "base": 0, "len": 4}}),
        ev(1, "process:1", "syscall_return", {"ret": {"variant": "success"}}),
    ]
    assert len(audit_return_shapes(bad)) == 1


def test_allow_not_followed_by_its_return_flagged():
    good = _allow(0, 2, 0, 16, 4, {"variant": "success_region", "base": 0, "len": 0})
    other = ev(1, "process:2", "syscall", {"call": {"class": "yield", "mode": "wait"}})
    assert audit_zero_length_allows([good[0], other, good[1]]) == []
    # Mutated: the allowing process's next event is another call, not its return.
    bad = [good[0], ev(1, "process:1", "syscall",
                       {"call": {"class": "yield", "mode": "no_wait"}})]
    assert audit_zero_length_allows(bad) == ["seq 0: allow not followed by its return"]


@pytest.mark.parametrize("variant", ["success", "success_value", "failure_region"])
def test_subscribe_returning_a_wrong_variant_flagged(variant):
    call = ev(0, "process:1", "syscall",
              {"call": {"class": "subscribe", "driver": 0, "sub": 0, "fn": "h",
                        "userdata": 0}})
    good = [call, ev(1, "process:1", "syscall_return",
                     {"ret": {"variant": "success_upcall", "fn": "null",
                              "userdata": 0}})]
    assert audit_return_shapes(good) == []
    refused = [call, ev(1, "process:1", "syscall_return",
                        {"ret": {"variant": "failure", "err": "NODEVICE"}})]
    assert audit_return_shapes(refused) == []
    # Mutated: the return's variant is one a subscribe never gives.
    bad = [call, ev(1, "process:1", "syscall_return", {"ret": {"variant": variant}})]
    assert audit_return_shapes(bad) == [f"seq 1: subscribe returned {variant}"]


def test_capsule_attributed_memory_access_flagged():
    bad = [ev(0, "capsule:console", "mem_access",
              {"base": 0, "len": 4, "op": "read"})]
    assert len(audit_capsule_memory(bad)) == 1


def test_stale_share_access_flagged():
    common = [
        ev(0, "process:1", "syscall", {"call": {"class": "rw_allow", "driver": 2,
                                                "buf": 0, "base": 100, "len": 8}}),
        ev(1, "process:1", "syscall_return",
           {"ret": {"variant": "success_region", "base": 0, "len": 0}}),
        # swap in a different region
        ev(2, "process:1", "syscall", {"call": {"class": "rw_allow", "driver": 2,
                                                "buf": 0, "base": 200, "len": 8}}),
        ev(3, "process:1", "syscall_return",
           {"ret": {"variant": "success_region", "base": 100, "len": 8}}),
    ]
    fresh = common + [ev(4, "kernel", "mem_access",
                         {"base": 200, "len": 4, "op": "write",
                          "via": "probe_a", "purpose": "allow", "pid": 1,
                          "driver": 2, "buf": 0, "mode": "rw"})]
    assert audit_slot_ownership(fresh) == []
    stale = common + [ev(4, "kernel", "mem_access",
                         {"base": 100, "len": 4, "op": "write",
                          "via": "probe_a", "purpose": "allow", "pid": 1,
                          "driver": 2, "buf": 0, "mode": "rw"})]
    assert len(audit_slot_ownership(stale)) == 1


def test_untokened_privileged_op_flagged():
    good = [
        ev(0, "kernel", "cap_minted", {"kind": "ProcessManagement",
                                       "holder": "manager"}),
        ev(1, "kernel", "finalized", {}),
        ev(2, "kernel", "privileged_op", {"op": "process_destroy",
                                          "kind": "ProcessManagement",
                                          "holder": "manager", "pid": 1}),
    ]
    assert audit_capabilities(good) == []
    bad = good[1:]  # same op, never minted
    assert len(audit_capabilities(bad)) == 1
    late_mint = good + [ev(3, "kernel", "cap_minted",
                           {"kind": "LoaderControl", "holder": "x"})]
    assert len(audit_capabilities(late_mint)) == 1
