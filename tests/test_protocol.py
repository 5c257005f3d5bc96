"""Protocol descriptors, the comparability checker, and result ledgers."""

import json

import pytest
from hypothesis import given, strategies as st

from phaseeval.protocol import (
    HARD,
    SOFT,
    UNKNOWN,
    DuplicateEntry,
    EmptyLedger,
    MetricValue,
    ProtocolDescriptor,
    ReportedResult,
    Verdict,
    check_comparable,
    dump_ledger,
    leaderboard_obj,
    parse_ledger,
    parse_reference,
    render_leaderboard,
    seed_ledger,
)
from phaseeval.io import SchemaError

FULL = ProtocolDescriptor(
    split_name="32:8:40",
    relaxed=False,
    omega=None,
    policy="exclude-missing-phase",
    f1_variant="harmonic-of-overall-means",
    std_source="phases",
    std_mode="corrected",
    runs=5,
    trained_on_validation=False,
)


def test_descriptor_vocabulary_is_enforced():
    with pytest.raises(ValueError):
        ProtocolDescriptor(policy="drop-them")
    with pytest.raises(ValueError):
        ProtocolDescriptor(std_source="folds")
    with pytest.raises(ValueError):
        ProtocolDescriptor(f1_variant="macro")
    ProtocolDescriptor()  # all-unknown is fine


def test_identical_protocols_are_comparable():
    rep = check_comparable(FULL, FULL)
    assert rep.verdict is Verdict.COMPARABLE
    assert rep.findings == ()


def test_split_mismatch_is_hard():
    other = ProtocolDescriptor(**{**FULL.__dict__, "split_name": "60:20"})
    rep = check_comparable(FULL, other)
    assert rep.verdict is Verdict.INCOMPARABLE
    assert any(f.field == "split_name" and f.severity == HARD for f in rep.findings)
    assert any(f.rule == "C" for f in rep.findings)


def test_relaxed_mismatch_is_hard():
    other = ProtocolDescriptor(**{**FULL.__dict__, "relaxed": True, "omega": 10})
    rep = check_comparable(FULL, other)
    assert rep.verdict is Verdict.INCOMPARABLE
    assert any(f.field == "relaxed" and f.rule == "A" for f in rep.findings)


def test_omega_checked_only_when_both_relaxed():
    a = ProtocolDescriptor(**{**FULL.__dict__, "relaxed": True, "omega": 10})
    b = ProtocolDescriptor(**{**FULL.__dict__, "relaxed": True, "omega": 5})
    rep = check_comparable(a, b)
    assert any(f.field == "omega" and f.severity == HARD for f in rep.findings)
    # relaxed differs -> omega mismatch must not pile on
    c = ProtocolDescriptor(**{**FULL.__dict__, "relaxed": False, "omega": 5})
    rep2 = check_comparable(a, c)
    assert not any(f.field == "omega" for f in rep2.findings)


def test_std_source_mismatch_is_soft():
    other = ProtocolDescriptor(**{**FULL.__dict__, "std_source": "runs"})
    rep = check_comparable(FULL, other)
    assert rep.verdict is Verdict.COMPARABLE  # soft findings do not flip it
    f = [x for x in rep.findings if x.field == "std_source"]
    assert len(f) == 1 and f[0].severity == SOFT and f[0].rule == "B"


def test_unknown_fields_give_indeterminate():
    other = ProtocolDescriptor(**{**FULL.__dict__, "policy": None})
    rep = check_comparable(FULL, other)
    assert rep.verdict is Verdict.INDETERMINATE
    f = [x for x in rep.findings if x.field == "policy"]
    assert len(f) == 1 and f[0].severity == UNKNOWN


def test_hard_beats_unknown():
    other = ProtocolDescriptor(
        **{**FULL.__dict__, "policy": None, "split_name": "60:20"}
    )
    assert check_comparable(FULL, other).verdict is Verdict.INCOMPARABLE


_field_values = {
    "split_name": st.sampled_from([None, "32:8:40", "60:20"]),
    "relaxed": st.sampled_from([None, True, False]),
    "omega": st.sampled_from([None, 5, 10]),
    "policy": st.sampled_from([None, "zero-fill", "exclude-undefined"]),
    "f1_variant": st.sampled_from([None, "mean-of-harmonic"]),
    "std_source": st.sampled_from([None, "videos", "runs"]),
    "std_mode": st.sampled_from([None, "corrected", "uncorrected"]),
    "runs": st.sampled_from([None, 1, 3]),
    "trained_on_validation": st.sampled_from([None, True, False]),
}

descriptors = st.fixed_dictionaries(_field_values).map(
    lambda kw: ProtocolDescriptor(**kw)
)


@given(descriptors, descriptors)
def test_checker_is_symmetric(a, b):
    ra, rb = check_comparable(a, b), check_comparable(b, a)
    assert ra.verdict is rb.verdict
    assert ra.findings == rb.findings


@given(descriptors)
def test_self_comparison_never_incomparable(a):
    rep = check_comparable(a, a)
    assert rep.verdict is not Verdict.INCOMPARABLE
    assert not any(f.severity == HARD for f in rep.findings)


def _result(method="m", source="s", protocol=FULL, acc=0.9):
    return ReportedResult(
        method=method,
        source=source,
        protocol=protocol,
        metrics={"accuracy": MetricValue(acc, 0.01)},
        provenance="as-reported, not verified",
    )


def test_ledger_round_trip():
    results = (
        _result("a", "x"),
        _result("b", "y", ProtocolDescriptor(), 0.8),
    )
    text = dump_ledger(results)
    back = parse_ledger(text)
    assert back == results
    # byte-stable through a full cycle
    assert dump_ledger(back) == text


def test_ledger_unknowns_are_explicit_in_the_file():
    text = dump_ledger([_result(protocol=ProtocolDescriptor())])
    record = json.loads(text)[0]
    assert record["protocol"]["split"] == "unknown"
    assert record["protocol"]["relaxed"] == "unknown"


def test_ledger_accepts_omitted_protocol_fields():
    record = {
        "method": "m",
        "source": "s",
        "protocol": {"split": "60:20"},
        "metrics": {"accuracy": {"mean": 0.9}},
    }
    (res,) = parse_ledger(json.dumps([record]))
    assert res.protocol.split_name == "60:20"
    assert res.protocol.relaxed is None
    assert res.metrics["accuracy"].spread is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("split", 5),
        ("omega", True),
        ("relaxed", "yes"),
        ("runs", 2.5),
        ("trained_on_validation", 1),
    ],
)
def test_ledger_rejects_ill_typed_protocol_fields(field, value):
    ok = {"method": "m", "source": "s", "metrics": {"accuracy": {"mean": 0.9}}}
    bad = {**ok, "method": "n", "protocol": {field: value}}
    with pytest.raises(SchemaError, match=rf"record 1: protocol field '{field}'"):
        parse_ledger(json.dumps([ok, bad]))


def test_reference_parses_like_a_ledger_protocol():
    ref = parse_reference(["split=60:20", "relaxed=true", "omega=10", "runs=unknown"])
    assert ref == ProtocolDescriptor(split_name="60:20", relaxed=True, omega=10)
    for pair in ("relaxed=yes", "omega=ten", "runs=2.5", "policy=drop-them", "x=1"):
        with pytest.raises(SchemaError):
            parse_reference([pair])


def test_ledger_rejects_duplicates():
    text = dump_ledger([_result(), _result()])
    with pytest.raises(DuplicateEntry):
        parse_ledger(text)


def test_seed_ledger_loads():
    results = seed_ledger()
    assert len(results) >= 50
    keys = {(r.method, r.source) for r in results}
    assert len(keys) == len(results)
    splits = {r.protocol.split_name for r in results}
    assert {"32:8:40", "40:8:32", "60:20"} <= splits
    for r in results:
        assert r.provenance == "as-reported, not verified"
        assert r.metrics
        for v in r.metrics.values():
            assert 0.0 <= v.mean <= 1.0


def test_leaderboard_grouping_and_order():
    same = _result("alpha", "x", FULL, 0.90)
    same2 = _result("beta", "y", FULL, 0.95)
    soft = _result(
        "gamma", "z", ProtocolDescriptor(**{**FULL.__dict__, "std_source": "runs"}), 0.99
    )
    hard = _result(
        "delta", "w", ProtocolDescriptor(**{**FULL.__dict__, "split_name": "60:20"}), 0.99
    )
    board = render_leaderboard([same, same2, soft, hard], FULL)
    assert board.groups[0].verdict is Verdict.COMPARABLE
    # soft finding stays comparable but lands in its own bucket,
    # after the clean one
    assert board.groups[1].verdict is Verdict.COMPARABLE
    assert board.groups[1].findings
    assert board.groups[-1].verdict is Verdict.INCOMPARABLE
    # within a bucket: by the sort metric, descending
    assert [e.method for e in board.groups[0].entries] == ["beta", "alpha"]
    obj = leaderboard_obj(board)
    assert obj["sort_metric"] == "accuracy"
    assert obj["groups"][0]["entries"][0]["method"] == "beta"

    with pytest.raises(EmptyLedger):
        render_leaderboard([], FULL)
