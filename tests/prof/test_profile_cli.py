"""End-to-end CLI: ``repro profile`` and ``repro bench --compare``."""

import json

import pytest

from repro.cli import main


class TestProfileCommand:
    def test_unknown_benchmark_is_usage_error(self, capsys):
        assert main(["profile", "no-such-bench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_nginx_all_agents_writes_artifacts(self, capsys, tmp_path):
        flame = tmp_path / "flame.txt"
        lag = tmp_path / "lag.jsonl"
        report = tmp_path / "report.md"
        assert main(["profile", "nginx", "--agent", "all",
                     "--flame-out", str(flame),
                     "--lag-out", str(lag),
                     "--report-out", str(report)]) == 0
        out = capsys.readouterr().out
        for agent in ("total_order", "partial_order", "wall_of_clocks"):
            assert agent in out
        assert flame.read_text().strip()
        assert lag.read_text().strip()
        text = report.read_text()
        assert "## Agent comparison" in text
        assert "sum to this exactly" in text

    def test_report_printed_without_out_flags(self, capsys):
        assert main(["profile", "fft", "--scale", "0.05",
                     "--agent", "wall_of_clocks"]) == 0
        out = capsys.readouterr().out
        assert "# repro profile: fft" in out
        assert "guest-compute" in out

    def test_artifacts_identical_across_jobs(self, tmp_path):
        def artifacts(jobs, tag):
            flame = tmp_path / f"flame-{tag}.txt"
            lag = tmp_path / f"lag-{tag}.jsonl"
            report = tmp_path / f"report-{tag}.md"
            assert main(["profile", "nginx", "--agent", "all",
                         "--jobs", str(jobs),
                         "--flame-out", str(flame),
                         "--lag-out", str(lag),
                         "--report-out", str(report)]) == 0
            return (flame.read_bytes(), lag.read_bytes(),
                    report.read_bytes())

        assert artifacts(1, "j1") == artifacts(4, "j4")


class TestBenchCompareCLI:
    def _bench(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = main(["bench", "--quick", "-o", str(out), *extra])
        return code, out

    def test_compare_against_self_generated_reference(self, capsys,
                                                      tmp_path):
        code, ref = self._bench(tmp_path, "ref.json")
        assert code == 0
        code, new = self._bench(tmp_path, "new.json",
                                ("--compare", str(ref)))
        assert code == 0
        out = capsys.readouterr().out
        assert "digest identical" in out
        # The fresh report accumulated the reference into its history.
        trajectory = json.loads(new.read_text())["trajectory"]
        assert len(trajectory) == 1
        assert (trajectory[0]["digest"]
                == json.loads(ref.read_text())["digest"])

    def test_injected_regression_exits_nonzero(self, capsys, tmp_path):
        code, ref = self._bench(tmp_path, "ref.json")
        assert code == 0
        doctored = json.loads(ref.read_text())
        doctored["digest"] = "sha256:" + "0" * 64
        doctored_path = tmp_path / "doctored.json"
        doctored_path.write_text(json.dumps(doctored))
        code, _ = self._bench(tmp_path, "new.json",
                              ("--compare", str(doctored_path)))
        assert code == 1
        assert "digest-divergence" in capsys.readouterr().out

    def test_diff_two_reports(self, capsys, tmp_path):
        _, ref = self._bench(tmp_path, "a.json")
        _, new = self._bench(tmp_path, "b.json")
        capsys.readouterr()
        assert main(["bench", "diff", str(ref), str(new)]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_diff_requires_two_paths(self, capsys, tmp_path):
        _, ref = self._bench(tmp_path, "a.json")
        assert main(["bench", "diff", str(ref)]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_compare_missing_reference_is_usage_error(self, capsys,
                                                      tmp_path):
        code = main(["bench", "--quick",
                     "-o", str(tmp_path / "x.json"),
                     "--compare", str(tmp_path / "missing.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestObsCLIErrors:
    """``repro obs`` surfaces artifact problems as one-line errors."""

    def test_missing_bundle(self, capsys, tmp_path):
        assert main(["obs", "summarize",
                     str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro obs:")
        assert "Traceback" not in err

    def test_missing_bundle_is_one_line_from_the_guard(self, capsys,
                                                       tmp_path):
        """The CLI-wide error guard prints the one line; ``obs`` has no
        error path of its own."""
        from repro.errors import ReproError
        from repro.obs.forensics import DivergenceBundle

        path = str(tmp_path / "missing.json")
        with pytest.raises(ReproError) as caught:
            DivergenceBundle.load(path)
        assert main(["obs", "summarize", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"repro obs: {caught.value}\n"

    def test_empty_bundle(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["obs", "summarize", str(path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_truncated_bundle(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"version": 1, "tails": {"0"')
        assert main(["obs", "convert", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_bundle(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert main(["obs", "summarize", str(path)]) == 2
        assert "bundle object" in capsys.readouterr().err
