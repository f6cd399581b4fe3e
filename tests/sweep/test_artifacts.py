"""The artifact ledger: atomic writes, the trust gate, resume, GC.

The ledger holds three kinds of document — sweep tasks, chaos runs and
congest studies — under one trust contract; the kind-generic tests run
once per kind.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.chaos import run_chaos, validation_config, validation_spec
from repro.core.scenario import frontier_spec
from repro.fabric.timeflow import CongestConfig, run_congest
from repro.sweep.artifacts import (ARTIFACT_KINDS, ARTIFACT_SCHEMA_VERSION,
                                   artifact_path, completed_ids,
                                   iter_artifacts, load_artifact,
                                   prune_artifacts, resume_or_compute, run_id,
                                   write_artifact)

CHAOS_RUN = (validation_spec(failure_scale=50.0),
             validation_config(horizon_h=48.0))
CONGEST_RUN = (frontier_spec().scaled(8, 4, 4),
               CongestConfig(ks=(10,), include_fifo=False, horizon_s=5e-5))
KINDS = sorted(ARTIFACT_KINDS)


def same(a: dict | None, b: dict) -> bool:
    """Document equality that holds through NaN (congest docs carry it)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def make_doc(task_id: str, status: str = "ok") -> dict:
    doc = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "task": {"id": task_id, "probe": "storage", "seed": 1, "axes": {},
                 "spec": {"name": "tiny"}},
        "status": status,
        "timing": {"wall_time_s": 0.01, "attempts": 1},
        "metrics": {},
    }
    if status == "ok":
        doc["values"] = {"x": 1.0}
    else:
        doc["error"] = {"type": "RuntimeError", "message": "boom"}
    return doc


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        doc = make_doc("aaaa000011112222")
        path = write_artifact(str(tmp_path), doc)
        assert path == artifact_path(str(tmp_path), "aaaa000011112222")
        assert load_artifact(path) == doc

    def test_nested_out_dir_created_on_demand(self, tmp_path):
        out = str(tmp_path / "deep" / "nested" / "sweep")
        path = write_artifact(out, make_doc("bbbb000011112222"))
        assert os.path.exists(path)

    def test_write_leaves_no_temp_files(self, tmp_path):
        write_artifact(str(tmp_path), make_doc("cccc000011112222"))
        assert os.listdir(str(tmp_path)) == ["cccc000011112222.json"]


class TestTrustGate:
    def test_missing_file(self, tmp_path):
        assert load_artifact(str(tmp_path / "nope.json")) is None

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "dddd000011112222.json"
        path.write_text('{"schema": 1, "task":')
        assert load_artifact(str(path)) is None

    def test_wrong_schema(self, tmp_path):
        doc = make_doc("eeee000011112222")
        doc["schema"] = 99
        path = tmp_path / "eeee000011112222.json"
        path.write_text(json.dumps(doc))
        assert load_artifact(str(path)) is None

    def test_non_dict_document(self, tmp_path):
        path = tmp_path / "ffff000011112222.json"
        path.write_text('["not", "an", "artifact"]')
        assert load_artifact(str(path)) is None

    def test_filename_id_mismatch(self, tmp_path):
        path = tmp_path / "1111000011112222.json"
        path.write_text(json.dumps(make_doc("2222000011112222")))
        assert load_artifact(str(path)) is None


class TestLedger:
    def test_completed_ids_counts_ok_only(self, tmp_path):
        out = str(tmp_path)
        write_artifact(out, make_doc("aaaa000011112222", status="ok"))
        write_artifact(out, make_doc("bbbb000011112222", status="error"))
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "notes.txt").write_text("ignored")
        assert completed_ids(out) == {"aaaa000011112222"}

    def test_missing_directory_is_empty(self, tmp_path):
        assert completed_ids(str(tmp_path / "never")) == set()
        assert list(iter_artifacts(str(tmp_path / "never"))) == []

    def test_iter_artifacts_sorted_by_id(self, tmp_path):
        out = str(tmp_path)
        for tid in ("cccc000011112222", "aaaa000011112222",
                    "bbbb000011112222"):
            write_artifact(out, make_doc(tid))
        ids = [doc["task"]["id"] for doc in iter_artifacts(out)]
        assert ids == sorted(ids)


class TestPrune:
    def test_removes_errors_and_stale_keeps_ok(self, tmp_path):
        out = str(tmp_path)
        write_artifact(out, make_doc("aaaa000011112222", status="ok"))
        write_artifact(out, make_doc("bbbb000011112222", status="error"))
        old = make_doc("cccc000011112222")
        old["schema"] = 0   # a previous ledger generation
        (tmp_path / "cccc000011112222.json").write_text(json.dumps(old))
        (tmp_path / "dddd000011112222.json").write_text(
            json.dumps(make_doc("eeee000011112222")))   # id/filename mismatch

        report = prune_artifacts(out)
        assert report.scanned == 4
        assert report.errors == 1
        assert report.stale == 2
        assert report.removed == 3
        assert report.kept == 1
        assert sorted(os.listdir(out)) == ["aaaa000011112222.json"]
        assert "removed: 3" in report.counts_line()

    def test_unreadable_files_are_counted_not_deleted(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "list.json").write_text('["not", "ours"]')
        (tmp_path / "notes.txt").write_text("ignored entirely")
        report = prune_artifacts(str(tmp_path))
        assert report.scanned == 2
        assert report.unreadable == 2
        assert report.removed == 0
        assert sorted(os.listdir(str(tmp_path))) == [
            "junk.json", "list.json", "notes.txt"]

    def test_missing_directory_is_a_noop(self, tmp_path):
        report = prune_artifacts(str(tmp_path / "never"))
        assert report.scanned == report.removed == 0

    def test_pruned_errors_leave_resume_gap(self, tmp_path):
        """After --gc, a re-run retries exactly the pruned failures."""
        out = str(tmp_path)
        write_artifact(out, make_doc("aaaa000011112222", status="ok"))
        write_artifact(out, make_doc("bbbb000011112222", status="error"))
        prune_artifacts(out)
        assert completed_ids(out) == {"aaaa000011112222"}
        assert not os.path.exists(artifact_path(out, "bbbb000011112222"))


def make_run_doc(run_id_: str, status: str = "ok") -> dict:
    """A minimal chaos/congest document: just what the ledger reads."""
    return {"schema": 1, "status": status, "run_id": run_id_}


class Study:
    """One kind's artifact id plus a compute callback that counts calls."""

    def __init__(self, kind: str):
        self.kind, self.calls = kind, 0
        if kind == "task":
            self.id = "abcd000011112222"
            self._compute = lambda: make_doc(self.id)
        elif kind == "chaos":
            self.id = run_id(*CHAOS_RUN)
            self._compute = lambda: run_chaos(*CHAOS_RUN).to_doc()
        else:
            self.id = run_id(*CONGEST_RUN)
            self._compute = lambda: run_congest(*CONGEST_RUN)

    def compute(self) -> dict:
        self.calls += 1
        return self._compute()

    def run(self, out: str, fresh: bool = False):
        return resume_or_compute(out, self.kind, self.id, self.compute,
                                 fresh=fresh)

    def template(self, status: str = "ok") -> dict:
        if self.kind == "task":
            return make_doc(self.id, status=status)
        return make_run_doc(self.id, status=status)


@pytest.mark.parametrize("kind", KINDS)
class TestResumeOrCompute:
    def test_write_then_resume(self, tmp_path, kind):
        study, out = Study(kind), str(tmp_path)
        doc, path, resumed = study.run(out)
        assert not resumed and doc["status"] == "ok"
        assert path == artifact_path(out, study.id, kind)
        assert os.path.basename(path) == \
            f"{ARTIFACT_KINDS[kind].prefix}{study.id}.json"
        again, path2, resumed2 = study.run(out)
        assert resumed2 and path2 == path and same(again, doc)
        assert study.calls == 1

    def test_fresh_overwrites(self, tmp_path, kind):
        study, out = Study(kind), str(tmp_path)
        doc, _, _ = study.run(out)
        redone, _, resumed = study.run(out, fresh=True)
        assert not resumed and same(redone, doc)     # deterministic re-run
        assert study.calls == 2

    def test_truncated_file_reruns(self, tmp_path, kind):
        study, out = Study(kind), str(tmp_path)
        doc, path, _ = study.run(out)
        with open(path, "w") as fh:
            fh.write("{ truncated")
        assert load_artifact(path) is None
        _, _, resumed = study.run(out)
        assert not resumed and same(load_artifact(path), doc)

    @pytest.mark.parametrize("flaw", ["error", "foreign_id", "wrong_schema"])
    def test_flawed_document_is_distrusted(self, tmp_path, kind, flaw):
        study, out = Study(kind), str(tmp_path)
        study._compute = study.template          # skip the real engines
        path = artifact_path(out, study.id, kind)
        bad = study.template(status="error" if flaw == "error" else "ok")
        if flaw == "foreign_id":
            if kind == "task":
                bad["task"]["id"] = "deadbeefdeadbeef"
            else:
                bad["run_id"] = "deadbeefdeadbeef"
        elif flaw == "wrong_schema":
            bad["schema"] = 999
        os.makedirs(out, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(bad, fh)
        # an error document is a faithful record (GC prunes it) but
        # never resumes; a foreign or off-schema one is not trusted at all
        assert (load_artifact(path) is not None) == (flaw == "error")
        doc, _, resumed = study.run(out)
        assert not resumed and study.calls == 1
        assert load_artifact(path) == doc == study.template()


class TestRunId:
    def test_pinned_ids_and_artifact_bytes(self, tmp_path):
        """A change here re-keys every chaos/congest artifact on disk."""
        pins = [
            ("chaos", CHAOS_RUN, "8c6812a95d0098c4",
             "2457a1c05f06fe4115405ea177cfaff33f6e3f9938a7ec7d78bc579faa371032",
             lambda s, c: run_chaos(s, c).to_doc()),
            ("congest", (frontier_spec().scaled(8, 4, 4),
                         CongestConfig(ks=(10.0, 60.0), horizon_s=150e-6)),
             "5935ca817fcbf1a1",
             "b642f2876754801867a02beb176a4a51383fd3f3628ce21ac92f39140523fa25",
             run_congest),
        ]
        for kind, (spec, config), pinned_id, pinned_sha, compute in pins:
            assert run_id(spec, config) == pinned_id
            _, path, _ = resume_or_compute(
                str(tmp_path), kind, pinned_id,
                lambda: compute(spec, config))
            assert os.path.basename(path) == f"{kind}-{pinned_id}.json"
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == pinned_sha


class TestPruneEveryKind:
    def test_gc_keeps_valid_chaos_and_congest_artifacts(self, tmp_path):
        out = str(tmp_path)
        write_artifact(out, make_doc("aaaa000011112222"))
        for kind, rid in (("chaos", "1111222233334444"),
                          ("congest", "5555666677778888")):
            path = tmp_path / f"{kind}-{rid}.json"
            path.write_text(json.dumps(make_run_doc(rid)))
        stale = make_run_doc("9999000011112222")
        stale["schema"] = 0                    # an older chaos generation
        (tmp_path / "chaos-9999000011112222.json").write_text(
            json.dumps(stale))
        write_artifact(out, make_doc("bbbb000011112222", status="error"))

        report = prune_artifacts(out)
        assert (report.scanned, report.kept, report.errors, report.stale,
                report.unreadable) == (5, 3, 1, 1, 0)
        assert sorted(os.listdir(out)) == [
            "aaaa000011112222.json", "chaos-1111222233334444.json",
            "congest-5555666677778888.json"]

    def test_other_kinds_stay_out_of_the_sweep_resume(self, tmp_path):
        out = str(tmp_path)
        write_artifact(out, make_doc("aaaa000011112222"))
        (tmp_path / "chaos-1111222233334444.json").write_text(
            json.dumps(make_run_doc("1111222233334444")))
        assert completed_ids(out) == {"aaaa000011112222"}
        assert [d["task"]["id"] for d in iter_artifacts(out)] == [
            "aaaa000011112222"]
