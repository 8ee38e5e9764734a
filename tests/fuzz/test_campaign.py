"""Campaign end-to-end: dispatch, classification, minimization, corpus,
resume, and the bit-identity guarantee (serial vs parallel, any
PYTHONHASHSEED)."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.fuzz.campaign import run_campaign
from repro.fuzz.corpus import TriageCorpus
from repro.fuzz.generator import FuzzProgram

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_cli(out_dir, hashseed, extra=()):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-m", "repro.fuzz",
         "--programs", "12", "--seed", "0", "--out", str(out_dir),
         *extra],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc


def _corpus_bytes(out_dir):
    corpus = Path(out_dir) / "corpus"
    return {
        p.name: p.read_bytes() for p in sorted(corpus.glob("*.json"))
    }


class TestCleanCampaign:
    def test_no_soundness_on_the_unmutated_analyzer(self, tmp_path):
        result = run_campaign(
            programs=9, seed=0, out_dir=tmp_path, max_minimize=0
        )
        assert result.exit_code == 0
        assert result.soundness_count == 0
        assert result.summary["by_classification"].get("soundness", 0) == 0
        assert len(result.verdicts) == 9
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "journal.json").exists()

    def test_resume_reuses_journaled_verdicts(self, tmp_path):
        first = run_campaign(
            programs=9, seed=0, out_dir=tmp_path, max_minimize=0
        )
        second = run_campaign(
            programs=9, seed=0, out_dir=tmp_path, max_minimize=0,
            resume=True,
        )
        assert second.verdicts == first.verdicts
        assert second.summary == first.summary


class TestSeededBug:
    def test_weakened_analyzer_is_flagged_and_minimized(self, tmp_path):
        result = run_campaign(
            programs=9, seed=0, out_dir=tmp_path,
            weaken="branch_shadows_only", max_minimize=3,
        )
        assert result.exit_code == 1
        assert result.soundness_count >= 1
        soundness_entries = [
            e for e in result.corpus_index if e["kind"] == "soundness"
        ]
        assert soundness_entries
        for entry in soundness_entries:
            # the issue's bar: reproducers shrink to <= 12 ops
            assert entry["ops"] <= 12
            path = tmp_path / "corpus" / f"{entry['hash']}.json"
            stored = TriageCorpus.load_entry(path)
            assert stored["replay"].endswith(f"{entry['hash']}.json")
            # the minimized program is replayable data
            FuzzProgram.from_dict(stored["program"]).build()

    def test_corpus_index_is_the_sorted_triage_journal(self, tmp_path):
        result = run_campaign(
            programs=9, seed=0, out_dir=tmp_path,
            weaken="branch_shadows_only", max_minimize=3,
        )
        index = json.loads((tmp_path / "corpus" / "index.json").read_text())
        assert index == result.corpus_index
        assert [e["hash"] for e in index] == sorted(
            e["hash"] for e in index
        )


class TestReplayCLI:
    def test_replay_confirms_a_corpus_entry(self, tmp_path):
        result = run_campaign(
            programs=9, seed=0, out_dir=tmp_path,
            weaken="branch_shadows_only", max_minimize=1,
        )
        entry = next(
            e for e in result.corpus_index if e["kind"] == "soundness"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        proc = subprocess.run(
            [sys.executable, "-m", "repro.fuzz", "replay",
             str(tmp_path / "corpus" / f"{entry['hash']}.json")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        payload = json.loads(proc.stdout)
        assert payload["reproduced"] is True


class TestBitIdentity:
    def test_identical_across_hashseed_and_job_count(self, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        _run_cli(serial, hashseed=1)
        _run_cli(parallel, hashseed=424242, extra=["--jobs", "4"])

        assert (
            (serial / "summary.json").read_bytes()
            == (parallel / "summary.json").read_bytes()
        )
        assert _corpus_bytes(serial) == _corpus_bytes(parallel)

        # journaled verdicts (not the wall-clock attempt records) match
        def verdicts(out):
            journal = json.loads((out / "journal.json").read_text())
            return {
                cell: record["metrics"]["programs"]
                for cell, record in journal["cells"].items()
            }

        assert verdicts(serial) == verdicts(parallel)
