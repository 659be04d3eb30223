"""Serve load-bench tests: quota engagement, digest determinism, schema."""

from __future__ import annotations

import json

import pytest

from repro.experiments import serve_load
from repro.prof.regress import check, trajectory_entry
from repro.serve.bench import render_serve_bench, run_serve_bench

SMALL = dict(sessions=8, concurrency=6, max_sessions=3,
             workload="fft", variants=2, base_seed=3,
             verify_sample=1, out_path=None)


@pytest.fixture(scope="module")
def report():
    return run_serve_bench(**SMALL)


class TestLoadBench:
    def test_all_sessions_complete_under_quota_pressure(self, report):
        totals = report["totals"]
        assert totals["completed"] == SMALL["sessions"]
        assert totals["failures"] == []
        assert totals["peak_active"] <= SMALL["max_sessions"]
        # concurrency > max_sessions, and every client's first create
        # lands before any session is driven: the quota must engage.
        assert totals["rejected"] > 0
        assert totals["rejected"] >= (min(SMALL["concurrency"],
                                          SMALL["sessions"])
                                      - SMALL["max_sessions"])
        assert check(report) == []

    def test_sampled_sessions_match_single_shot(self, report):
        assert report["verified_single_shot"] is True

    def test_digest_is_deterministic_across_runs_and_modes(self, report):
        again = run_serve_bench(**SMALL)
        stepped = run_serve_bench(**dict(SMALL, mode="step",
                                         step_events=100))
        assert report["digest"].startswith("sha256:")
        assert again["digest"] == report["digest"]
        assert stepped["digest"] == report["digest"]

    def test_artifact_schema(self, report, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        written = run_serve_bench(**dict(SMALL, sessions=2,
                                         concurrency=2, verify_sample=0,
                                         out_path=str(out)))
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(json.dumps(written))
        assert on_disk["kind"] == "repro-serve-bench"
        assert on_disk["format_version"] == 2
        assert set(on_disk) >= {"kind", "format_version",
                                "generated_unix", "host", "config",
                                "totals", "wall_s", "throughput_sps",
                                "latency_ms", "digest", "trajectory"}
        assert set(on_disk["latency_ms"]) == {"mean", "p50", "p95",
                                              "p99", "max"}

    def test_render_and_trajectory_entry(self, report):
        text = render_serve_bench(report)
        assert "quota 3 active" in text
        assert "MATCH single-shot" in text
        entry = trajectory_entry(report)
        assert entry["digest"] == report["digest"]
        assert entry["sessions"] == SMALL["sessions"]

    def test_trajectory_is_carried_forward(self, tmp_path):
        history = [{"digest": "sha256:old", "sessions": 1}]
        report = run_serve_bench(**dict(SMALL, sessions=2, concurrency=2,
                                        verify_sample=0,
                                        trajectory=history))
        assert report["trajectory"] == history

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_serve_bench(**dict(SMALL, mode="warp"))


class TestServeLoadScenario:
    def test_seed_derivation_is_per_cell(self):
        specs = serve_load.build_load(4, workload="fft", base_seed=1)
        seeds = [spec["seed"] for spec in specs]
        assert len(set(seeds)) == 4
        # Seeds depend only on (sweep, index, base) -- stable.
        assert serve_load.build_load(4, workload="fft",
                                     base_seed=1)[2] == specs[2]

    def test_load_digest_is_order_independent(self):
        outcomes = [{"index": 1, "seed": 5, "verdict": "clean",
                     "cycles": 10.0, "obs_digest": "sha256:b"},
                    {"index": 0, "seed": 4, "verdict": "clean",
                     "cycles": 11.0, "obs_digest": "sha256:a"}]
        assert (serve_load.load_digest(outcomes)
                == serve_load.load_digest(list(reversed(outcomes))))
