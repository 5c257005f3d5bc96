"""Protocol descriptors, the comparability checker, and result ledgers."""

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from phaseeval.aggregate import AveragingOrder, StdMode
from phaseeval.cli import main
from phaseeval import protocol
from phaseeval.io import SchemaError, load_manifest
from phaseeval.metrics import UndefinedPolicy
from phaseeval.pipeline import run_evaluate, run_relaxed
from phaseeval.protocol import (
    HARD,
    METRIC_NAMES,
    SOFT,
    UNKNOWN,
    DuplicateEntry,
    EmptyLedger,
    PROTOCOL_FIELDS,
    MetricValue,
    ProtocolDescriptor,
    ReportedResult,
    Verdict,
    check_comparable,
    parse_ledger,
    parse_reference,
    render_leaderboard,
    seed_ledger,
)
from phaseeval.relaxed import MatrixMode
from phaseeval.synth import generate_corpus
from phaseeval.vocab import OMEGA_MAX

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
    with pytest.raises(SchemaError):
        ProtocolDescriptor(policy="drop-them")
    with pytest.raises(SchemaError):
        ProtocolDescriptor(std_source="folds")
    with pytest.raises(SchemaError):
        ProtocolDescriptor(f1_variant="macro")
    with pytest.raises(SchemaError, match=r"^std_mode must be one of"):
        ProtocolDescriptor(std_mode="bogus")
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
    # neither side relaxed -> omega is not graded at all
    assert check_comparable(replace(c, omega=10), c).findings == ()


# Ledger key, descriptor attribute, the other value, and the finding that
# a difference in that field alone gives (None: the field is not graded).
GRADING = [
    ("split", "split_name", "60:20", ("C", HARD)),
    ("relaxed", "relaxed", False, ("A", HARD)),
    ("omega", "omega", 5, ("A", HARD)),
    ("policy", "policy", "zero-fill", ("policy", HARD)),
    ("f1_variant", "f1_variant", "mean-of-harmonic", ("f1-variant", HARD)),
    ("std_source", "std_source", "runs", ("B", SOFT)),
    ("std_mode", "std_mode", "uncorrected", ("std-mode", SOFT)),
    ("runs", "runs", 3, None),
    ("trained_on_validation", "trained_on_validation", True, ("validation-use", SOFT)),
]


def test_grading_covers_every_ledger_field():
    assert [key for key, *_ in GRADING] == list(PROTOCOL_FIELDS)


@pytest.mark.parametrize("key, attr, value, expected", GRADING)
def test_each_field_alone_gives_its_finding(key, attr, value, expected):
    a = replace(FULL, relaxed=True, omega=10)
    rep = check_comparable(a, replace(a, **{attr: value}))
    want = [] if expected is None else [(*expected, attr)]
    assert [(f.rule, f.severity, f.field) for f in rep.findings] == want
    hard = expected is not None and expected[1] == HARD
    assert rep.verdict is (Verdict.INCOMPARABLE if hard else Verdict.COMPARABLE)


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


def test_ledger_unknowns_are_explicit_in_the_file():
    """An unstated field is written "unknown" in a ledger file, and in the
    reference that `compare` writes."""
    record = {
        "method": "m",
        "source": "s",
        "protocol": dict.fromkeys(PROTOCOL_FIELDS, "unknown"),
        "metrics": {"accuracy": {"mean": 0.9}},
    }
    (res,) = parse_ledger(json.dumps([record]))
    assert res.protocol == ProtocolDescriptor()
    board = render_leaderboard([res], ProtocolDescriptor())
    assert board["reference"] == dict.fromkeys(PROTOCOL_FIELDS, "unknown")


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


@pytest.mark.parametrize(
    "field, value", [("policy", "bogus"), ("omega", -1), ("omega", OMEGA_MAX + 1), ("runs", 0)]
)
def test_ledger_protocol_value_errors_name_their_record(field, value):
    ok = {"method": "m", "source": "s", "metrics": {"accuracy": {"mean": 0.9}}}
    bad = {**ok, "method": "n", "protocol": {field: value}}
    with pytest.raises(SchemaError, match=rf"^record 1: {field} must be"):
        parse_ledger(json.dumps([ok, bad]))


def _ledger(*protocols) -> str:
    """A ledger of one record per protocol object, record i by method m{i}."""
    return json.dumps([
        {"method": f"m{i}", "source": "s", "protocol": p, "metrics": {"accuracy": {"mean": 0.5}}}
        for i, p in enumerate(protocols)
    ])


def _outcome_alone(protocols):
    """Each record parsed in a ledger of its own: the descriptors, or the
    first refusal's message as the whole ledger's record would give it."""
    descriptors = []
    for i, p in enumerate(protocols):
        try:
            descriptors.append(parse_ledger(_ledger(p))[0].protocol)
        except SchemaError as exc:
            return str(exc).replace("record 0:", f"record {i}:", 1)
    return descriptors


# Protocol objects of one set of keys, so that a ledger's protocols are often
# equal but for a value's type (1, 1.0 and True), and some values hash not at all.
_values = st.sampled_from([1, True, 1.0, [1], {}, "unknown", "zero-fill", "bogus"])
_pools = st.lists(st.sampled_from(["runs", "relaxed", "policy"]), unique=True, max_size=2).flatmap(
    lambda keys: st.lists(
        st.fixed_dictionaries({k: _values for k in keys}) | st.sampled_from(["x", None]),
        min_size=1,
        max_size=3,
    )
)


@pytest.mark.thorough
@given(_pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
@settings(max_examples=examples(100))
def test_records_sharing_a_protocol_parse_as_each_alone(protocols):
    """Each distinct protocol object is parsed once a ledger; its records get
    the descriptors, and a bad one the refusal, of parsing each record alone."""
    expected = _outcome_alone(protocols)
    try:
        assert [r.protocol for r in parse_ledger(_ledger(*protocols))] == expected
    except SchemaError as exc:
        assert str(exc) == expected


def test_records_sharing_a_protocol_share_its_descriptor():
    a, b = {"split": "60:20", "runs": 5}, {"relaxed": True, "omega": 10}
    results = parse_ledger(_ledger(a, b, a, {"runs": 5, "split": "60:20"}, b))
    assert results[0].protocol is results[2].protocol
    assert results[1].protocol is results[4].protocol
    assert results[3].protocol == results[0].protocol
    for r, p in zip(results, (a, b, a, a, b)):
        assert r.protocol == parse_ledger(_ledger(p))[0].protocol


@pytest.mark.parametrize(
    "first, then, refusal",
    [
        # 1 == 1.0 == True and all three hash alike; the memo tells them apart
        ({"runs": 1}, {"runs": True}, "protocol field 'runs' must be an integer, got True"),
        ({"omega": 10}, {"omega": 10.0}, "protocol field 'omega' must be an integer, got 10.0"),
        (
            {"relaxed": True},
            {"relaxed": 1},
            "protocol field 'relaxed' must be true or false, got 1",
        ),
        # members no dict can key, and a protocol that is not an object
        ({"runs": 1}, {"runs": [1]}, "protocol field 'runs' must be an integer, got [1]"),
        ({"split": "a"}, {"split": {}}, "protocol field 'split' must be a string, got {}"),
        ({}, [], "protocol must be an object"),
    ],
)
def test_a_protocol_equal_to_a_parsed_one_in_another_type_is_refused(first, then, refusal):
    with pytest.raises(SchemaError) as info:
        parse_ledger(_ledger(first, then))
    assert str(info.value) == f"record 1: {refusal}"


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"policy": "bogus"}, "record 2: policy must be one of"),
        ({"runs": "5"}, "record 2: protocol field 'runs' must be an integer"),
    ],
)
def test_a_bad_protocol_shared_by_records_names_the_first(bad, message):
    ok = {"split": "60:20"}
    with pytest.raises(SchemaError) as info:
        parse_ledger(_ledger(ok, ok, bad, ok, {}, bad))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "record, message",
    [
        ({"provenence": "typo"}, r"^record 1: unknown record key 'provenence'$"),
        ({"notes": None}, r"^record 1: unknown record key 'notes'$"),
        (
            {"metrics": {"accuracy": {"mean": 0.5, "sd": 0.01}}},
            r"^record 1: metric 'accuracy' has unknown key 'sd'$",
        ),
        ({"metrics": {"acc": {"mean": 0.5}}}, r"^record 1: unknown metric name 'acc'$"),
        ({"metrics": {"accuracy": {"spread": 0.1}}}, r"^record 1: metric 'accuracy' needs a mean$"),
        ({"provenance": 5}, r"^record 1: provenance must be a string$"),
    ],
)
def test_ledger_unknown_keys_are_refused(record, message, tmp_path, capsys):
    ok = {"method": "m", "source": "s", "metrics": {"accuracy": {"mean": 0.9}}}
    text = json.dumps([ok, {**ok, "method": "n", **record}])
    with pytest.raises(SchemaError, match=message):
        parse_ledger(text)
    path = tmp_path / "ledger.json"
    path.write_text(text)
    assert main(["compare", "--ledger", str(path)]) == 1
    assert re.match(message, capsys.readouterr().err.removeprefix("error: "))


def test_an_empty_split_is_refused(tmp_path, capsys):
    with pytest.raises(SchemaError, match="^split_name must not be empty$"):
        ProtocolDescriptor(split_name="")
    ok = {"method": "m", "source": "s", "metrics": {"accuracy": {"mean": 0.9}}}
    text = json.dumps([ok, {**ok, "method": "n", "protocol": {"split": ""}}])
    with pytest.raises(SchemaError, match="^record 1: split_name must not be empty$"):
        parse_ledger(text)
    path = tmp_path / "ledger.json"
    path.write_text(text)
    assert main(["compare", "--ledger", str(path)]) == 1
    assert "record 1: split_name must not be empty" in capsys.readouterr().err


def test_reference_parses_like_a_ledger_protocol():
    ref = parse_reference(["split=60:20", "relaxed=true", "omega=10", "runs=unknown"])
    assert ref == ProtocolDescriptor(split_name="60:20", relaxed=True, omega=10)
    for pair in ("relaxed=yes", "omega=ten", "runs=2.5", "policy=drop-them", "x=1", "split="):
        with pytest.raises(SchemaError):
            parse_reference([pair])


def test_ledger_rejects_duplicates():
    record = {"method": "m", "source": "s", "metrics": {"accuracy": {"mean": 0.9}}}
    text = json.dumps([record, {**record, "protocol": {"split": "60:20"}}])
    with pytest.raises(DuplicateEntry):
        parse_ledger(text)



@pytest.mark.parametrize(
    "key, member, repeated",
    [
        ("mean", '"mean": 0.9', '"mean": 0.9, "mean": 0.1'),
        ("method", '"method": "m"', '"method": "m", "method": "n"'),
        ("omega", '"omega": 10', '"omega": 10, "omega": 0'),
        ("accuracy", '"accuracy": {', '"accuracy": {"mean": 0.5}, "accuracy": {'),
    ],
)
def test_a_repeated_ledger_key_is_refused(tmp_path, capsys, key, member, repeated):
    """json.loads keeps a repeated key's last value; a ledger with one would
    rank a method by the wrong number without a word."""
    record = {"method": "m", "source": "s", "protocol": {"omega": 10},
              "metrics": {"accuracy": {"mean": 0.9}}}
    text = json.dumps([record])
    assert text.count(member) == 1
    text = text.replace(member, repeated)
    with pytest.raises(SchemaError, match=f"^key '{key}' appears twice in one object$"):
        parse_ledger(text)
    path = tmp_path / "ledger.json"
    path.write_text(text)
    assert main(["compare", "--ledger", str(path)]) == 1
    assert f"key '{key}' appears twice" in capsys.readouterr().err


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
    groups = board["groups"]
    assert groups[0]["verdict"] == Verdict.COMPARABLE.value
    # soft finding stays comparable but lands in its own bucket,
    # after the clean one
    assert groups[1]["verdict"] == Verdict.COMPARABLE.value
    assert groups[1]["findings"]
    assert groups[-1]["verdict"] == Verdict.INCOMPARABLE.value
    # within a bucket: by the sort metric, descending
    assert [e["method"] for e in groups[0]["entries"]] == ["beta", "alpha"]
    assert board["sort_metric"] == "accuracy"

    with pytest.raises(EmptyLedger):
        render_leaderboard([], FULL)


def _entry(r: ReportedResult) -> dict:
    metrics = {k: {"mean": v.mean, "spread": v.spread} for k, v in sorted(r.metrics.items())}
    return {"method": r.method, "source": r.source, "metrics": metrics}


def test_leaderboard_grades_each_distinct_protocol_once(monkeypatch):
    relaxed = ProtocolDescriptor(**{**FULL.__dict__, "relaxed": True, "omega": 10})
    unknown = ProtocolDescriptor()
    protocols = [FULL, relaxed, ProtocolDescriptor(**FULL.__dict__), relaxed, FULL, unknown]
    results = [_result(f"m{i}", "s", p, 0.5 + i / 100) for i, p in enumerate(protocols)]

    def group(protocol, *best_first):  # graded on its own, as each entry once was
        report = check_comparable(FULL, protocol)
        return {
            "verdict": report.verdict.value,
            "findings": [
                {"rule": f.rule, "severity": f.severity, "field": f.field, "detail": f.detail}
                for f in report.findings
            ],
            "entries": [_entry(results[i]) for i in best_first],
        }

    expected = {
        "reference": {
            "split": "32:8:40",
            "relaxed": False,
            "omega": "unknown",
            "policy": "exclude-missing-phase",
            "f1_variant": "harmonic-of-overall-means",
            "std_source": "phases",
            "std_mode": "corrected",
            "runs": 5,
            "trained_on_validation": False,
        },
        "sort_metric": "accuracy",
        "groups": [group(FULL, 4, 2, 0), group(unknown, 5), group(relaxed, 3, 1)],
    }
    graded = []

    def counting(reference, candidate):
        graded.append(candidate)
        return check_comparable(reference, candidate)

    monkeypatch.setattr(protocol, "check_comparable", counting)
    board = render_leaderboard(results, FULL)
    assert len(graded) == 3
    assert set(graded) == {FULL, relaxed, unknown}
    assert board == expected


def test_report_metric_names_are_ledger_metric_names(tmp_path):
    """Every summary and per-phase key of a report can be a ledger metric."""
    generate_corpus(tmp_path, 7, 3, 2, 10, 20, 2, 0.1, 0)
    corpus = load_manifest(tmp_path / "manifest.json")
    reports = [
        run_evaluate(
            corpus, UndefinedPolicy.EXCLUDE_MISSING_PHASE, AveragingOrder.FLAT, StdMode.CORRECTED
        ),
        run_relaxed(corpus, 3, MatrixMode.GRAPH_DERIVED, False),
        run_relaxed(corpus, 3, MatrixMode.LEGACY, True, bug_compatible=True),
    ]
    for report in reports:
        assert set(report.summary) <= set(METRIC_NAMES)
        for row in report.per_phase.values():
            assert set(row) <= set(METRIC_NAMES)
