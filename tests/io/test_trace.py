"""Tests for the reduction-trace exporter."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.reduction import reduce_to_roots
from repro.exceptions import ParseError
from repro.figures import figure1_system, figure3_system
from repro.io import save
from repro.io.trace import (
    TRACE_VERSION,
    diff_traces,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)


class TestTraceDict:
    def test_accepted_trace(self):
        result = reduce_to_roots(figure1_system())
        doc = trace_to_dict(result)
        assert doc["succeeded"] is True
        assert doc["order"] == 3
        assert len(doc["fronts"]) == 4
        assert doc["serial_witness"]
        assert "failure" not in doc
        assert len(doc["witnesses"]) == 3

    def test_rejected_trace(self):
        result = reduce_to_roots(figure3_system())
        doc = trace_to_dict(result)
        assert doc["succeeded"] is False
        assert doc["failure"]["level"] == 3
        assert doc["failure"]["stage"] == "calculation"
        assert doc["failure"]["cycle"][0] == doc["failure"]["cycle"][-1]

    def test_front_payload(self):
        result = reduce_to_roots(figure1_system())
        front = trace_to_dict(result)["fronts"][0]
        assert set(front) == {
            "level",
            "nodes",
            "observed",
            "input_weak",
            "input_strong",
            "conflict_consistent",
        }
        assert front["conflict_consistent"] is True

    def test_json_round_trips(self):
        result = reduce_to_roots(figure3_system())
        text = dumps_trace(result)
        assert json.loads(text)["failure"]["description"]

    def test_save_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(reduce_to_roots(figure1_system()), path)
        assert json.loads(path.read_text())["succeeded"] is True


class TestTraceRoundTrip:
    def test_accepted_round_trip(self, tmp_path):
        result = reduce_to_roots(figure1_system())
        path = tmp_path / "trace.json"
        save_trace(result, path)
        trace = load_trace(path)
        assert trace.succeeded is True
        assert trace.order == result.system.order
        assert trace.roots == list(result.system.roots)
        assert trace.serial_witness == result.serial_order()
        assert len(trace.fronts) == len(result.fronts)
        for reloaded, original in zip(trace.fronts, result.fronts):
            assert reloaded.nodes == original.nodes
            assert list(reloaded.observed.pairs()) == list(
                original.observed.pairs()
            )
            assert reloaded.is_conflict_consistent()

    def test_rejected_round_trip(self):
        result = reduce_to_roots(figure3_system())
        trace = loads_trace(dumps_trace(result))
        assert trace.succeeded is False
        assert trace.failure["stage"] == "calculation"
        assert trace.serial_witness is None

    def test_profile_round_trips(self):
        result = reduce_to_roots(figure1_system())
        trace = loads_trace(dumps_trace(result))
        assert [p.level for p in trace.profile] == [
            p.level for p in result.profile
        ]
        assert [p.closure_rows for p in trace.profile] == [
            p.closure_rows for p in result.profile
        ]

    def test_version_check(self):
        doc = trace_to_dict(reduce_to_roots(figure1_system()))
        doc["version"] = TRACE_VERSION + 1
        with pytest.raises(ParseError, match="unsupported trace version"):
            trace_from_dict(doc)
        del doc["version"]
        with pytest.raises(ParseError, match="unsupported trace version"):
            trace_from_dict(doc)

    def test_tampered_consistency_flag_rejected(self):
        doc = trace_to_dict(reduce_to_roots(figure1_system()))
        doc["fronts"][0]["conflict_consistent"] = False
        with pytest.raises(ParseError, match="disagree"):
            trace_from_dict(doc)

    def test_level_accessor(self):
        trace = loads_trace(dumps_trace(reduce_to_roots(figure1_system())))
        assert trace.level(0).level == 0
        with pytest.raises(ParseError):
            trace.level(99)

    def test_utf8_on_disk(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(reduce_to_roots(figure1_system()), path)
        json.loads(path.read_text(encoding="utf-8"))

    def test_diff_identical_traces_is_empty(self):
        text = dumps_trace(reduce_to_roots(figure1_system()))
        assert diff_traces(loads_trace(text), loads_trace(text)) == []

    def test_diff_reports_verdict_and_fronts(self):
        accepted = loads_trace(dumps_trace(reduce_to_roots(figure1_system())))
        rejected = loads_trace(dumps_trace(reduce_to_roots(figure3_system())))
        report = diff_traces(accepted, rejected)
        assert any("verdict" in line for line in report)


class TestCliTrace:
    def test_check_with_trace(self, tmp_path, capsys):
        source = tmp_path / "fig3.json"
        save(figure3_system(), source)
        trace = tmp_path / "trace.json"
        assert main(["check", str(source), "--trace", str(trace)]) == 0
        assert "trace written" in capsys.readouterr().out
        assert json.loads(trace.read_text())["succeeded"] is False


# ----------------------------------------------------------------------
# traces that recorded a static-prover skip (fixture documents)
# ----------------------------------------------------------------------
LEGACY = Path(__file__).resolve().parents[1] / "fixtures" / "legacy"


def _legacy(name):
    return LEGACY / f"trace_{name}_skip.json"


def _certified_system():
    from repro.io import load

    return load(
        Path(__file__).resolve().parents[2]
        / "examples"
        / "lint"
        / "booking_system.json"
    ).system


class TestSkipProvenance:
    """Version-1 and version-2 traces whose verdict came from the
    retired static precheck — a skipped accept (``precheck``) or a
    replay-validated reject (``refutation``), with no fronts — still
    load and diff; the loader ignores their ``skip``, per-level
    ``skipped`` and ``static_certificate`` keys."""

    def test_plain_run_has_null_skip(self):
        doc = trace_to_dict(reduce_to_roots(figure1_system()))
        assert doc["version"] == 2
        assert doc.get("skip") is None
        assert "static_certificate" not in doc
        assert all("skipped" not in p for p in doc["profile"])

    def test_precheck_skip_round_trips(self):
        assert json.loads(_legacy("v2_precheck").read_text())["skip"] == {
            "direction": "precheck"
        }
        trace = load_trace(_legacy("v2_precheck"))
        assert trace.succeeded
        assert trace.fronts == []
        assert trace.serial_witness is None
        assert [p.level for p in trace.profile] == [0]

    def test_refutation_skip_round_trips(self):
        trace = load_trace(_legacy("v2_refutation"))
        assert not trace.succeeded
        assert trace.fronts == []
        assert trace.failure["stage"] == "calculation"

    @pytest.mark.parametrize("direction", ["precheck", "refutation"])
    def test_v1_skip_trace_still_loads(self, direction):
        v1 = load_trace(_legacy(f"v1_{direction}"))
        v2 = load_trace(_legacy(f"v2_{direction}"))
        assert diff_traces(v1, v2) == []

    def test_v1_full_run_infers_no_skip(self):
        result = reduce_to_roots(figure1_system())
        doc = trace_to_dict(result)
        doc["version"] = 1
        v2 = loads_trace(dumps_trace(result))
        assert diff_traces(trace_from_dict(doc), v2) == []

    def test_diff_reports_skip_difference(self):
        full = loads_trace(dumps_trace(reduce_to_roots(_certified_system())))
        skipped = load_trace(_legacy("v2_precheck"))
        differences = diff_traces(full, skipped)
        assert any("serial witness" in line for line in differences)
        assert any("present only in first" in line for line in differences)
