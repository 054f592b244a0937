"""The sorn-repro command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_requires_nodes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--cliques", "4"])


class TestSubcommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Sirius" in out
        assert "SORN Nc=64" in out
        assert "26.59" in out

    def test_table1_flow_model(self, capsys):
        """The flow-level rows at true paper scale: published closed-form
        delta_m values next to finite model FCTs for both clique counts."""
        assert (
            main(["table1", "--model", "flow", "--flows", "2000"]) == 0
        )
        out = capsys.readouterr().out
        # Published Table 1 delta_m columns (N=4096).
        assert "77" in out and "364" in out  # Nc=64
        assert "155" in out and "296" in out  # Nc=32
        assert "unstable" not in out

    def test_fig2f_theory_only(self, capsys):
        assert main(["fig2f"]) == 0
        out = capsys.readouterr().out
        assert "0.3333" in out  # x = 0 endpoint
        assert "0.4762" in out  # x = 0.9

    def test_fig2f_simulated_small(self, capsys):
        code = main(
            ["fig2f", "--nodes", "16", "--cliques", "4", "--simulate",
             "--slots", "150", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fluid" in out and "simulated" in out

    def test_fig2f_resume_round_trip(self, capsys):
        """--resume RUN_ID names (or continues) a journaled run: the
        second invocation replays entirely from journal + cache and
        prints byte-identical output."""
        from repro.exp import RunJournal

        argv = ["fig2f", "--nodes", "16", "--cliques", "4", "--simulate",
                "--slots", "150", "--seed", "1", "--resume", "cli-resume-a"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        journal = RunJournal.load("cli-resume-a")
        assert journal.done == set(range(len(journal.keys)))
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_resume_with_no_cache_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig2f", "--nodes", "16", "--cliques", "4", "--simulate",
                  "--slots", "150", "--resume", "nope", "--no-cache"])
        assert exc.value.code == 2
        assert "drop --no-cache" in capsys.readouterr().err

    def test_table1_resume_journals_both_sweeps(self, capsys):
        """table1 runs two journaled sweeps (slot-sim + flow model);
        one --resume id covers both via the -flow part suffix."""
        from repro.exp import RunJournal

        argv = ["table1", "--model", "flow", "--resume", "cli-resume-t1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        for part in ("", "-flow"):
            journal = RunJournal.load("cli-resume-t1" + part)
            assert journal.done == set(range(len(journal.keys)))
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_fig2f_engine_flag_matches_reference(self, capsys):
        """Both engines print byte-identical fig2f tables."""
        outputs = {}
        for engine in ("reference", "vectorized"):
            assert main(
                ["fig2f", "--nodes", "16", "--cliques", "4", "--simulate",
                 "--slots", "150", "--seed", "1", "--engine", engine]
            ) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["reference"] == outputs["vectorized"]

    def test_pareto(self, capsys):
        assert main(["pareto", "--nodes", "4096"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "SORN" in out

    def test_frontier(self, capsys):
        """The simulated frontier across every family, at reduced slots
        so the 14 sweep points stay fast."""
        assert main(["frontier", "--slots", "200"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        for system in ("rr_vlb", "orn2d", "expander", "sorn", "beyond_vlb",
                       "mixed", "bvn"):
            assert system in out
        # The demand-aware direct system pays no bandwidth tax.
        bvn_row = next(line for line in out.splitlines() if line.startswith("bvn"))
        assert "1.00" in bvn_row

    def test_frontier_subset_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "frontier.json"
        assert main(
            ["frontier", "--systems", "sorn,rr_vlb", "--slots", "200",
             "--json", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        assert [r["system"] for r in payload["rows"]] == ["sorn", "rr_vlb"]
        assert set(payload["pareto_frontier"]) <= {"sorn", "rr_vlb"}
        for row in payload["rows"]:
            assert row["throughput"] > 0 and row["latency_us"] > 0

    def test_frontier_rejects_unknown_system(self, capsys):
        assert main(["frontier", "--systems", "nope"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_design(self, capsys):
        assert main(["design", "--nodes", "32", "--cliques", "4"]) == 0
        out = capsys.readouterr().out
        assert "wavelength band" in out
        assert "throughput=40.98%" in out

    def test_adapt(self, capsys):
        assert main(["adapt", "--nodes", "16", "--cliques", "4", "--cycles", "3"]) == 0
        out = capsys.readouterr().out
        assert "updates applied" in out

    def test_pareto_plot(self, capsys):
        assert main(["pareto", "--nodes", "4096", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "throughput ^" in out

    def test_design_show_schedule(self, capsys):
        assert main(
            ["design", "--nodes", "8", "--cliques", "2", "--show-schedule"]
        ) == 0
        out = capsys.readouterr().out
        assert "A" in out and "0" in out

    def test_failures(self, capsys):
        assert main(["failures", "--nodes", "16", "--cliques", "4"]) == 0
        out = capsys.readouterr().out
        assert "Blast radius" in out
        assert "flat VLB" in out
        assert "Sync domains" in out

    def test_blast_radius(self, capsys):
        assert main(
            ["fig-blast-radius", "--nodes", "16", "--cliques", "4",
             "--failures", "1", "--slots", "120", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "Blast radius" in out
        assert "SORN" in out and "1D ORN" in out
        for scenario in ("healthy", "oblivious", "failover"):
            assert scenario in out

    def test_blast_radius_explicit_timeline(self, capsys):
        assert main(
            ["fig-blast-radius", "--nodes", "16", "--cliques", "4",
             "--timeline", "node:1@0-60,node:2@30", "--slots", "120"]
        ) == 0
        out = capsys.readouterr().out
        assert "[1, 2]" in out  # failed set parsed from the spec

    def test_blast_radius_engines_agree(self, capsys):
        outputs = {}
        for engine in ("reference", "vectorized"):
            assert main(
                ["fig-blast-radius", "--nodes", "16", "--cliques", "4",
                 "--failures", "1", "--slots", "100", "--engine", engine]
            ) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["reference"] == outputs["vectorized"]

    def test_fig_telemetry(self, capsys, tmp_path):
        jsonl = tmp_path / "telemetry.jsonl"
        csv_dir = tmp_path / "csv"
        csv_dir.mkdir()
        assert main(
            ["fig-telemetry", "--nodes", "16", "--cliques", "4",
             "--slots", "150", "--stride", "5",
             "--jsonl", str(jsonl), "--csv", str(csv_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "Virtual-link bandwidth split" in out
        assert "q/(q+1)" in out and "2/(3-x)" in out
        assert "Hop-count histogram" in out
        assert "Wall-clock by engine phase" in out
        assert jsonl.read_text().count("\n") > 10
        names = {p.name for p in csv_dir.iterdir()}
        assert "link_utilization.csv" in names
        assert "voq_heatmap.csv" in names

    def test_fig_telemetry_engines_emit_identical_streams(self, capsys, tmp_path):
        streams = {}
        for engine in ("reference", "vectorized"):
            path = tmp_path / f"{engine}.jsonl"
            assert main(
                ["fig-telemetry", "--nodes", "16", "--cliques", "4",
                 "--slots", "120", "--engine", engine, "--jsonl", str(path)]
            ) == 0
            capsys.readouterr()  # wall-clock lines differ; compare the export
            streams[engine] = path.read_bytes()
        assert streams["reference"] == streams["vectorized"]

    def test_cost(self, capsys):
        assert main(["cost", "--nodes", "1024", "--uplinks", "8"]) == 0
        out = capsys.readouterr().out
        assert "Clos (packet)" in out
        assert "SORN" in out

    def test_hierarchy(self, capsys):
        assert main(["hierarchy", "--nodes", "4096", "--cliques", "64"]) == 0
        out = capsys.readouterr().out
        assert "h" in out and "q*" in out
        # h=1 and h=2 rows both present (64 is a perfect square).
        lines = [
            ln for ln in out.splitlines() if ln.strip().startswith(("1 ", "2 "))
        ]
        assert len(lines) == 2

    def test_fig_adaptive(self, capsys):
        assert main(
            ["fig-adaptive", "--nodes", "12", "--cliques", "3",
             "--epochs", "4", "--epoch-slots", "40", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "Closed-loop adaptation" in out
        assert "retuned" in out or "kept" in out
        assert "static oblivious" in out

    def test_fig_adaptive_chaos_flags(self, capsys):
        assert main(
            ["fig-adaptive", "--nodes", "12", "--cliques", "3",
             "--epochs", "6", "--epoch-slots", "40", "--check",
             "--fallback-after", "2", "--outages", "1,2,3",
             "--corrupt", "0:nan", "--planner-fail", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "fallback-engaged" in out
        assert "adaptive run:" in out

    def test_fig_adaptive_engines_agree(self, capsys):
        outputs = {}
        for engine in ("reference", "vectorized"):
            assert main(
                ["fig-adaptive", "--nodes", "12", "--cliques", "3",
                 "--epochs", "4", "--epoch-slots", "30",
                 "--outages", "1", "--engine", engine]
            ) == 0
            outputs[engine] = capsys.readouterr().out.replace(engine, "ENGINE")
        assert outputs["reference"] == outputs["vectorized"]

    def test_fig_adaptive_trailing_comma_in_corrupt(self, capsys):
        """``--corrupt`` skips an empty token, as ``--outages`` does."""
        outputs = []
        for corrupt in ("1:nan", "1:nan,"):
            assert main(
                ["fig-adaptive", "--nodes", "12", "--cliques", "3",
                 "--epochs", "4", "--epoch-slots", "20",
                 "--outages", "1,", "--corrupt", corrupt]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_fig_adaptive_fabric_timeline(self, capsys):
        assert main(
            ["fig-adaptive", "--nodes", "12", "--cliques", "3",
             "--epochs", "4", "--epoch-slots", "30", "--check",
             "--timeline", "node:2@20-50"]
        ) == 0
        assert "Closed-loop adaptation" in capsys.readouterr().out
