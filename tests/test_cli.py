import numpy as np
import pytest

from soar.cli import main
from soar.index import load
from soar.vecio import read_fvecs, write_fvecs, write_ivecs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(path):
    """Split a CSV written by the CLI into its comment header and rows."""
    comments, rows = [], []
    for line in path.read_text().splitlines():
        (comments if line.startswith("#") else rows).append(line)
    return comments, rows


def strip_latency(text):
    """bench's sweep CSV without its last, wall-clock, column."""
    return [",".join(line.split(",")[:-1]) for line in text.splitlines()]


@pytest.fixture()
def workspace(tmp_path, capsys, monkeypatch):
    """A synthesized dataset, query set, and one index per policy, all built
    through the CLI with paths relative to tmp_path."""
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "synth", "--n", "600", "--d", "8", "--clusters", "4",
                     "--seed", "7", "--out", "data.fvecs")
    assert code == 0
    code, _, _ = run(capsys, "synth", "--n", "25", "--d", "8", "--clusters", "4",
                     "--seed", "8", "--out", "queries.fvecs")
    assert code == 0
    for policy in ("none", "naive", "soar"):
        code, _, _ = run(capsys, "build", "data.fvecs", "--c", "8",
                         "--policy", policy, "--out", f"{policy}.soar")
        assert code == 0
    return tmp_path


class TestSynth:
    def test_writes_requested_shape(self, tmp_path, capsys):
        out = tmp_path / "d.fvecs"
        code, text, _ = run(capsys, "synth", "--n", "50", "--d", "6", "--out", str(out))
        assert code == 0
        assert read_fvecs(out).shape == (50, 6)
        assert "soar synth" in text and "n=50" in text

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
        run(capsys, "synth", "--n", "40", "--d", "5", "--seed", "3", "--out", str(a))
        run(capsys, "synth", "--n", "40", "--d", "5", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_meta_sidecar_records_config(self, tmp_path, capsys):
        out = tmp_path / "d.fvecs"
        run(capsys, "synth", "--n", "30", "--d", "4", "--sigma", "0.5", "--out", str(out))
        meta = (tmp_path / "d.fvecs.meta").read_text()
        assert "n=30\n" in meta and "sigma=0.5\n" in meta and "seed=42\n" in meta

    def test_failed_synth_keeps_previous_files(self, tmp_path, capsys, fill_disk):
        out = tmp_path / "d.fvecs"
        run(capsys, "synth", "--n", "30", "--d", "4", "--out", str(out))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fill_disk()
        code, _, err = run(capsys, "synth", "--n", "50", "--d", "6", "--out", str(out))
        assert code == 2 and "no space" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run(capsys, "synth", "--n", "10")
        assert code == 1
        assert "out" in err

    def test_bad_values(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "--n", "0", "--out", str(tmp_path / "d.fvecs"))
        assert code == 1
        code, _, _ = run(capsys, "synth", "--sigma", "-1", "--out", str(tmp_path / "d.fvecs"))
        assert code == 1

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma(self, tmp_path, capsys, sigma):
        # a usage error, caught before anything is written
        code, _, err = run(capsys, "synth", "--sigma", sigma, "--out", str(tmp_path / "d.fvecs"))
        assert code == 1 and "sigma must be finite" in err
        assert list(tmp_path.iterdir()) == []


class TestBuild:
    def test_predicted_size_matches_actual(self, workspace, capsys):
        code, text, _ = run(capsys, "build", "data.fvecs", "--c", "4",
                            "--policy", "soar", "--out", "z.soar")
        assert code == 0
        lines = dict(
            line.split("=", 1) for line in text.splitlines() if "=" in line and "," not in line
        )
        assert lines["predicted_bytes"] == lines["actual_bytes"]
        assert int(lines["spill_overhead_bytes"]) > 0

    def test_default_partition_rule(self, tmp_path, capsys):
        data = tmp_path / "d.fvecs"
        run(capsys, "synth", "--n", "1200", "--d", "4", "--out", str(data))
        code, text, _ = run(capsys, "build", str(data), "--out", str(tmp_path / "z.soar"))
        assert code == 0
        assert "c=3" in text.splitlines()
        assert load(tmp_path / "z.soar").c == 3

    @pytest.mark.parametrize("policy, c", [("none", 1), ("naive", 2), ("soar", 2)])
    def test_default_partition_rule_small_dataset(self, tmp_path, capsys, policy, c):
        # n / 400 rounds to 1 here; a spill needs a second partition
        data = tmp_path / "d.fvecs"
        run(capsys, "synth", "--n", "500", "--d", "4", "--out", str(data))
        code, text, _ = run(capsys, "build", str(data), "--policy", policy,
                            "--out", str(tmp_path / "z.soar"))
        assert code == 0
        assert f"c={c}" in text.splitlines()
        assert load(tmp_path / "z.soar").c == c

    def test_failed_build_keeps_previous_file(self, workspace, capsys, fill_disk):
        before = (workspace / "soar.soar").read_bytes()
        listing = sorted(p.name for p in workspace.iterdir())
        fill_disk()
        code, _, err = run(capsys, "build", "data.fvecs", "--c", "5", "--policy", "naive",
                           "--out", "soar.soar")
        assert code == 2 and "no space" in err
        assert (workspace / "soar.soar").read_bytes() == before
        assert sorted(p.name for p in workspace.iterdir()) == listing

    def test_policy_stored(self, workspace):
        for policy in ("none", "naive", "soar"):
            assert load(workspace / f"{policy}.soar").policy == policy

    def test_missing_dataset(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", str(tmp_path / "nope.fvecs"),
                           "--out", str(tmp_path / "z.soar"))
        assert code == 2
        assert "no such file" in err

    def test_bad_lambda(self, workspace, capsys):
        code, _, _ = run(capsys, "build", "data.fvecs", "--policy", "soar",
                         "--lambda", "-2", "--out", "z.soar")
        assert code == 2

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda(self, workspace, capsys, lam):
        # rejected before training, and no file is written
        code, _, err = run(capsys, "build", "data.fvecs", "--policy", "soar",
                           "--lambda", lam, "--out", "z.soar")
        assert code == 2 and "finite lam" in err
        assert not (workspace / "z.soar").exists()

    def test_config_file_with_flag_override(self, workspace, capsys):
        (workspace / "build.cfg").write_text("policy=naive\nc=5\nlambda=1.5\n")
        code, text, _ = run(capsys, "build", "data.fvecs", "--config", "build.cfg",
                            "--c", "6", "--out", "z.soar")
        assert code == 0
        idx = load(workspace / "z.soar")
        assert idx.policy == "naive" and idx.c == 6
        assert "c=6" in text.splitlines()

    def test_unknown_config_key(self, workspace, capsys):
        (workspace / "build.cfg").write_text("partitions=5\n")
        code, _, err = run(capsys, "build", "data.fvecs", "--config", "build.cfg",
                           "--out", "z.soar")
        assert code == 1
        assert "partitions" in err

    def test_malformed_config_line(self, workspace, capsys):
        (workspace / "build.cfg").write_text("just some words\n")
        code, _, _ = run(capsys, "build", "data.fvecs", "--config", "build.cfg",
                         "--out", "z.soar")
        assert code == 2


class TestSearch:
    def test_stdout_rows(self, workspace, capsys):
        code, text, _ = run(capsys, "search", "soar.soar", "queries.fvecs",
                            "--k", "3", "--probes", "8")
        assert code == 0
        lines = text.splitlines()
        assert "soar search" in lines[0]
        start = lines.index("query_id,position,datapoint_id,score")
        rows = lines[start + 1 :]
        assert len(rows) == 25 * 3
        assert rows[0].startswith("0,0,")

    def test_csv_out(self, workspace, capsys):
        code, _, _ = run(capsys, "search", "soar.soar", "queries.fvecs",
                         "--k", "2", "--probes", "4", "--out", "res.csv")
        assert code == 0
        comments, rows = parse_csv(workspace / "res.csv")
        assert comments[0] == "# soar search"
        assert "# k=2" in comments
        assert rows[0] == "query_id,position,datapoint_id,score"
        assert len(rows) == 1 + 25 * 2

    def test_matches_exhaustive(self, workspace, capsys):
        _, text, _ = run(capsys, "search", "none.soar", "queries.fvecs",
                         "--k", "5", "--probes", "8", "--rerank", "600")
        from soar.core import Dataset, brute_force_mips

        X = Dataset(read_fvecs(workspace / "data.fvecs"))
        Q = read_fvecs(workspace / "queries.fvecs")
        rows = [line for line in text.splitlines() if line[:1].isdigit()]
        got = {}
        for line in rows:
            qid, pos, vid, _ = line.split(",")
            got.setdefault(int(qid), []).append(int(vid))
        for qi in range(Q.shape[0]):
            want = [nb.id for nb in brute_force_mips(Q[qi], X, 5)]
            assert got[qi] == want

    @pytest.mark.parametrize("flag,value", [("--probes", "0"), ("--rerank", "0"),
                                            ("--rerank", "-1"), ("--k", "0")])
    def test_bad_search_params(self, workspace, capsys, flag, value):
        code, _, err = run(capsys, "search", "soar.soar", "queries.fvecs", "--k", "3",
                           flag, value, "--out", "res.csv")
        assert code == 2
        assert "at least 1" in err
        assert not (workspace / "res.csv").exists()

    @pytest.mark.parametrize("name, message", [
        ("empty.soar", "header: truncated: wanted 52 bytes, 0 left"),
        ("missing.soar", "No such file"),
        ("folder", "Is a directory"),
    ])
    def test_unreadable_index(self, workspace, capsys, name, message):
        (workspace / "empty.soar").write_bytes(b"")
        (workspace / "folder").mkdir()
        code, _, err = run(capsys, "search", name, "queries.fvecs")
        assert code == 2
        assert message in err

    def test_corrupt_index(self, workspace, capsys):
        (workspace / "broken.soar").write_bytes(b"SOAR but not really")
        code, _, err = run(capsys, "search", "broken.soar", "queries.fvecs")
        assert code == 2
        assert "error" in err


class TestBench:
    def test_sweep_and_targets(self, workspace, capsys):
        code, text, _ = run(
            capsys, "bench", "--index", "none.soar", "naive.soar", "soar.soar",
            "--queries", "queries.fvecs", "--exact", "--k", "5",
            "--probes", "1,2,4,8,999", "--out", "bench.csv",
        )
        assert code == 0
        comments, rows = parse_csv(workspace / "bench.csv")
        assert rows[0] == (
            "policy,lambda,probes,datapoints_scanned,recall_at_k,mean_query_latency_ms"
        )
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == 3 * 4  # probes 999 clamps onto 8
        for policy in ("none", "naive", "soar"):
            recalls = [float(r[4]) for r in body if r[0] == policy]
            assert recalls == sorted(recalls)
            assert recalls[-1] == 1.0  # probes=c and default full rerank
        tcomments, trows = parse_csv(workspace / "bench.targets.csv")
        assert trows[0] == "policy,lambda,target,datapoints,gain_over_none"
        tbody = [r.split(",") for r in trows[1:]]
        assert len(tbody) == 3 * 4
        none_rows = [r for r in tbody if r[0] == "none"]
        assert all(float(r[4]) == 1.0 for r in none_rows)

    def test_deterministic_modulo_latency(self, workspace, capsys):
        args = ("bench", "--index", "soar.soar", "--queries", "queries.fvecs",
                "--exact", "--k", "3", "--probes", "1,4", "--out", "b.csv")
        assert run(capsys, *args)[0] == 0
        first = (workspace / "b.csv").read_text()
        first_targets = (workspace / "b.targets.csv").read_text()
        assert run(capsys, *args)[0] == 0
        second = (workspace / "b.csv").read_text()
        assert strip_latency(first) == strip_latency(second)
        assert (workspace / "b.targets.csv").read_text() == first_targets

    def test_dataset_flag_caches_ground_truth(self, workspace, capsys):
        args = ("bench", "--index", "none.soar", "--queries", "queries.fvecs",
                "--dataset", "data.fvecs", "--k", "4", "--probes", "2",
                "--out", "c.csv")
        assert run(capsys, *args)[0] == 0
        caches = list(workspace.glob("data.gt_*_k4.ivecs"))
        assert len(caches) == 1
        stamp = caches[0].stat().st_mtime_ns
        assert run(capsys, *args)[0] == 0
        assert caches[0].stat().st_mtime_ns == stamp

    def test_gt_file(self, workspace, capsys):
        from soar.vecio import load_or_compute_ground_truth

        ids = load_or_compute_ground_truth(
            workspace / "data.fvecs", workspace / "queries.fvecs", 6
        )
        write_ivecs(workspace / "truth.ivecs", ids)
        code, _, _ = run(capsys, "bench", "--index", "none.soar",
                         "--queries", "queries.fvecs", "--gt", "truth.ivecs",
                         "--k", "6", "--probes", "8", "--out", "d.csv")
        assert code == 0
        _, rows = parse_csv(workspace / "d.csv")
        assert float(rows[1].split(",")[4]) == 1.0

    def test_gt_drives_targets_table(self, workspace, capsys):
        from soar.core import Dataset
        from soar.evaluation import datapoints_to_recall, kmr_curve

        # a deliberately wrong "truth" (the ids 0..4 for every query) must be
        # what both the sweep and the targets table score against
        fake = np.tile(np.arange(5, dtype=np.int32), (25, 1))
        write_ivecs(workspace / "fake.ivecs", fake)
        args = ("bench", "--index", "none.soar", "soar.soar", "--queries", "queries.fvecs",
                "--k", "5", "--probes", "1", "--out")
        assert run(capsys, *args, "g.csv", "--gt", "fake.ivecs")[0] == 0
        assert run(capsys, *args, "x.csv", "--exact")[0] == 0
        _, rows = parse_csv(workspace / "g.targets.csv")
        Q = Dataset(read_fvecs(workspace / "queries.fvecs"))
        want = ["policy,lambda,target,datapoints,gain_over_none"]
        dps = {}
        for name in ("none", "soar"):
            idx = load(workspace / f"{name}.soar")
            curve = kmr_curve(Q, idx, 5, truth=fake)
            for target in (0.8, 0.85, 0.9, 0.95):
                dps[name, target] = datapoints_to_recall(curve, target)
                gain = dps["none", target] / dps[name, target]
                want.append(f"{name},{idx.lam!r},{target},{dps[name, target]:.2f},{gain:.4f}")
        assert rows == want
        _, exact_rows = parse_csv(workspace / "x.targets.csv")
        assert exact_rows != rows

    def test_gt_shape_mismatch(self, workspace, capsys):
        write_ivecs(workspace / "short.ivecs", np.zeros((2, 6), dtype=np.int32))
        code, _, err = run(capsys, "bench", "--index", "none.soar",
                           "--queries", "queries.fvecs", "--gt", "short.ivecs",
                           "--k", "6", "--probes", "2", "--out", "e.csv")
        assert code == 2
        assert "ground truth" in err

    @pytest.mark.parametrize("rerank", ["0", "-1"])
    def test_bad_rerank(self, workspace, capsys, rerank):
        for truth in (["--exact"], ["--dataset", "data.fvecs"]):
            code, _, err = run(capsys, "bench", "--index", "soar.soar", "--queries", "queries.fvecs",
                               *truth, "--k", "3", "--probes", "1,4", "--rerank", rerank,
                               "--out", "b.csv")
            assert code == 2
            assert "rerank must be at least 1" in err
            assert not (workspace / "b.csv").exists()
        # rejected before any work: no ground truth was computed and cached
        assert not list(workspace.glob("*.gt_*.ivecs"))

    def test_needs_a_truth_source(self, workspace, capsys):
        code, _, err = run(capsys, "bench", "--index", "none.soar",
                           "--queries", "queries.fvecs", "--out", "f.csv")
        assert code == 1
        assert "--gt" in err


class TestDiagnose:
    def test_spilled_index_records(self, workspace, capsys):
        code, text, _ = run(capsys, "diagnose", "soar.soar", "queries.fvecs",
                            "--k", "10", "--out", "diag.csv")
        assert code == 0
        assert "pearson_cos=" in text
        comments, rows = parse_csv(workspace / "diag.csv")
        assert rows[0].split(",") == [
            "query_id", "neighbor_id", "residual_norm", "cos_primary",
            "score_err_primary", "rank_primary", "cos_spilled",
            "score_err_spilled", "rank_spilled",
        ]
        assert len(rows) == 1 + 25 * 10
        _, srows = parse_csv(workspace / "diag.summary.csv")
        assert srows[0] == "rank_primary,count,mean_score_err_primary,mean_rank_spilled"
        assert sum(int(r.split(",")[1]) for r in srows[1:]) == 25 * 10

    def test_none_policy_notice_and_blank_columns(self, workspace, capsys):
        code, text, _ = run(capsys, "diagnose", "none.soar", "queries.fvecs",
                            "--k", "5", "--out", "diag0.csv")
        assert code == 0
        assert "notice" in text and "pearson_cos=" not in text
        _, rows = parse_csv(workspace / "diag0.csv")
        assert rows[0].count(",") == 5
        _, srows = parse_csv(workspace / "diag0.summary.csv")
        assert all(r.endswith(",") for r in srows[1:])

    def test_truth_sources_give_identical_csvs(self, workspace, capsys, monkeypatch):
        import soar.evaluation
        from soar.vecio import load_or_compute_ground_truth

        ids = load_or_compute_ground_truth(workspace / "data.fvecs", workspace / "queries.fvecs", 7)
        write_ivecs(workspace / "truth.ivecs", ids)
        base = ("diagnose", "soar.soar", "queries.fvecs", "--k", "7", "--out", "diag.csv")

        def diagnose(*extra):
            code, text, _ = run(capsys, *base, *extra)
            assert code == 0
            return (text, (workspace / "diag.csv").read_bytes(),
                    (workspace / "diag.summary.csv").read_bytes())

        computed = diagnose()
        # with the truth at hand, diagnose computes none itself
        with monkeypatch.context() as m:
            m.setattr(soar.evaluation, "ground_truth_ids", None)
            assert diagnose("--dataset", "data.fvecs") == computed
            assert diagnose("--gt", "truth.ivecs") == computed
        # and the supplied truth is what the records describe
        write_ivecs(workspace / "fake.ivecs", np.tile(np.arange(7, dtype=np.int32), (25, 1)))
        assert diagnose("--gt", "fake.ivecs")[1] != computed[1]

    def test_failed_diagnose_keeps_previous_csv(self, workspace, capsys, fill_disk):
        args = ("diagnose", "soar.soar", "queries.fvecs", "--k", "4")
        assert run(capsys, *args, "--out", "diag.csv")[0] == 0
        before = {p.name: p.read_bytes() for p in workspace.iterdir()}
        fill_disk()
        for out in ("diag.csv", "other.csv"):
            code, _, err = run(capsys, *args, "--out", out)
            assert code == 2 and "no space" in err
        assert {p.name: p.read_bytes() for p in workspace.iterdir()} == before

    def test_gt_shape_mismatch(self, workspace, capsys):
        write_ivecs(workspace / "short.ivecs", np.zeros((2, 6), dtype=np.int32))
        code, _, err = run(capsys, "diagnose", "soar.soar", "queries.fvecs",
                           "--gt", "short.ivecs", "--k", "6", "--out", "diag.csv")
        assert code == 2
        assert "ground truth" in err
        assert not (workspace / "diag.csv").exists()

    @pytest.mark.parametrize("truth", ["computed", "gt", "cached"])
    def test_query_dimension_mismatch(self, workspace, capsys, truth):
        from soar.vecio import ground_truth_cache_path

        run(capsys, "synth", "--n", "25", "--d", "4", "--seed", "9", "--out", "q4.fvecs")
        fake = np.zeros((25, 6), dtype=np.int32)  # a truth of the right shape
        write_ivecs(workspace / "q4.ivecs", fake)
        write_ivecs(ground_truth_cache_path("data.fvecs", "q4.fvecs", 6), fake)
        extra = {"computed": [], "gt": ["--gt", "q4.ivecs"], "cached": ["--dataset", "data.fvecs"]}
        code, _, err = run(capsys, "diagnose", "soar.soar", "q4.fvecs", *extra[truth],
                           "--k", "6", "--out", "diag.csv")
        assert code == 2
        assert "soar.soar: index dimension 8 != query dimension 4" in err
        assert not (workspace / "diag.csv").exists()


class TestVerify:
    def test_passes_at_default_tolerance(self, capsys):
        code, text, _ = run(capsys, "verify", "--d", "8", "--pairs", "1",
                            "--lambdas", "0,1", "--samples", "100000")
        assert code == 0
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("theorem pair")) == 2
        assert sum(1 for l in lines if l.startswith("lemma pair")) == 1
        assert all(
            l.endswith("PASS") for l in lines if l.startswith(("theorem pair", "lemma pair"))
        )
        assert lines[-1] == "RESULT: PASS"

    def test_fails_at_tiny_tolerance(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        code, text, _ = run(capsys, "verify", "--d", "8", "--pairs", "1",
                            "--lambdas", "1", "--samples", "100000",
                            "--theorem-tol", "1e-9", "--out", str(out))
        assert code == 3
        assert text.splitlines()[-1] == "RESULT: FAIL"
        _, rows = parse_csv(out)
        assert rows[0] == "check,lambda,pair,observed_error,tolerance,status"
        assert any(r.endswith("FAIL") for r in rows[1:])

    def test_rejects_empty_lambdas(self, tmp_path, capsys):
        args = ("verify", "--d", "8", "--pairs", "1", "--samples", "100000")
        code, text, err = run(capsys, *args, "--lambdas", ",")
        assert code == 1 and "RESULT" not in text
        assert "--lambdas" in err
        (tmp_path / "v.cfg").write_text("lambdas=\n")
        assert run(capsys, *args, "--config", str(tmp_path / "v.cfg"))[0] == 1

    @pytest.mark.parametrize("lambdas", ["nan", "inf", "-1", "0,1,nan"])
    def test_rejects_invalid_lambdas(self, tmp_path, capsys, lambdas):
        """Rejected while parsing, before any output, from a flag or a config file."""
        args = ("verify", "--d", "4", "--pairs", "1", "--samples", "100000")
        code, text, err = run(capsys, *args, f"--lambdas={lambdas}")
        assert (code, text) == (1, "")
        assert "--lambdas" in err and "finite" in err
        (tmp_path / "v.cfg").write_text(f"lambdas={lambdas}\n")
        code, text, err = run(capsys, *args, "--config", str(tmp_path / "v.cfg"))
        assert (code, text) == (1, "")
        assert "--lambdas" in err and "finite" in err

    def test_rejects_small_samples(self, capsys):
        code, _, err = run(capsys, "verify", "--samples", "5000")
        assert code == 1
        assert "samples" in err


# Per case: the command, its inputs, and every option as (config key, flag, value).
# No value is the option's default, so equal outputs show that the file set it.
OPTIONS = {
    "synth": ("synth", [], [
        ("n", "--n", "40"), ("d", "--d", "5"), ("clusters", "--clusters", "3"),
        ("sigma", "--sigma", "0.5"), ("seed", "--seed", "3"), ("out", "--out", "o.fvecs")]),
    "build-lambda": ("build", ["data.fvecs"], [
        ("c", "--c", "5"), ("policy", "--policy", "soar"), ("lambda", "--lambda", "1.5"),
        ("s", "--s", "4"), ("seed", "--seed", "3"), ("max_iters", "--max-iters", "10"),
        ("out", "--out", "o.soar")]),
    "build-lam": ("build", ["data.fvecs"], [
        ("c", "--c", "6"), ("policy", "--policy", "naive"), ("lam", "--lambda", "0.5"),
        ("s", "--s", "1"), ("seed", "--seed", "4"), ("max_iters", "--max-iters", "5"),
        ("out", "--out", "o.soar")]),
    "search": ("search", ["soar.soar", "queries.fvecs"], [
        ("k", "--k", "4"), ("probes", "--probes", "3"), ("rerank", "--rerank", "20"),
        ("budget", "--budget", "200"), ("out", "--out", "o.csv")]),
    "bench": ("bench", ["--index", "none.soar", "soar.soar", "--queries", "queries.fvecs",
                        "--exact"], [
        ("k", "--k", "5"), ("probes", "--probes", "2,4"), ("rerank", "--rerank", "30"),
        ("out", "--out", "o.csv"), ("targets_out", "--targets-out", "t.csv")]),
    "diagnose": ("diagnose", ["naive.soar", "queries.fvecs"], [
        ("k", "--k", "6"), ("out", "--out", "o.csv"), ("summary_out", "--summary-out", "s.csv")]),
    "verify": ("verify", [], [
        ("d", "--d", "6"), ("lambdas", "--lambdas", "0,1"), ("samples", "--samples", "100000"),
        ("pairs", "--pairs", "1"), ("seed", "--seed", "5"), ("theorem_tol", "--theorem-tol", "0.03"),
        ("lemma_tol", "--lemma-tol", "0.01"), ("out", "--out", "o.csv")]),
}


class TestConfig:
    @staticmethod
    def outputs(workspace, capsys, command, *argv):
        """Exit code, stdout without timings, and each output file (bench's sweep
        without its latency column), which is then removed."""
        code, text, _ = run(capsys, command, *argv)
        lines = [l for l in text.splitlines() if not l.startswith(("build_seconds", "write_seconds"))]
        files = {}
        for path in sorted(workspace.glob("[ost].*")):
            files[path.name] = (strip_latency(path.read_text()) if command == "bench"
                                and path.name == "o.csv" else path.read_bytes())
            path.unlink()
        return code, lines, files

    @pytest.mark.parametrize("case", sorted(OPTIONS))
    def test_file_equals_flags(self, workspace, capsys, case):
        command, inputs, options = OPTIONS[case]
        (workspace / "all.cfg").write_text("".join(f"{key}={value}\n" for key, _, value in options))
        flags = [token for _, flag, value in options for token in (flag, value)]
        from_flags = self.outputs(workspace, capsys, command, *inputs, *flags)
        from_file = self.outputs(workspace, capsys, command, *inputs, "--config", "all.cfg")
        assert from_file == from_flags
        assert from_flags[0] == 0 and from_flags[2]

    @pytest.mark.parametrize("case", sorted(OPTIONS))
    def test_flags_override_file(self, workspace, capsys, case):
        command, inputs, options = OPTIONS[case]
        (workspace / "all.cfg").write_text("".join(f"{key}={value}\n" for key, _, value in options))
        key, flag, _ = options[0]  # an int option: n, c, k or d
        code, text, _ = run(capsys, command, *inputs, "--config", "all.cfg", flag, "2")
        header = text.splitlines() + [line[2:] for path in workspace.glob("[ost].csv")
                                      for line in parse_csv(path)[0]]
        assert code == 0
        assert {line for line in header if line.startswith(f"{key}=")} == {f"{key}=2"}

    @pytest.mark.parametrize("command,inputs,key", [
        ("build", ["data.fvecs"], "dataset"),
        ("search", ["soar.soar", "queries.fvecs"], "index"),
        ("search", ["soar.soar", "queries.fvecs"], "queries"),
        ("diagnose", ["soar.soar", "queries.fvecs"], "gt"),
        ("diagnose", ["soar.soar", "queries.fvecs"], "dataset"),
        *[("bench", ["--index", "soar.soar", "--queries", "queries.fvecs", "--exact"], key)
          for key in ("gt", "dataset", "index", "queries", "exact")],
    ])
    def test_inputs_are_not_config_keys(self, workspace, capsys, command, inputs, key):
        (workspace / "in.cfg").write_text(f"{key}=data.fvecs\n")
        code, _, err = run(capsys, command, *inputs, "--out", "o.csv", "--config", "in.cfg")
        assert code == 1
        assert f"unknown config key {key!r} for {command}" in err
        assert not list(workspace.glob("o.*"))


class TestMain:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert main(["build", "--help"]) == 0

    @pytest.mark.parametrize("command", ["synth", "build", "search", "bench", "diagnose", "verify"])
    def test_command_help(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert f"usage: soar {command}" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["synth", "--n", "many", "--out", "x"]) == 1

    @pytest.mark.parametrize("argv", [
        ["build", "data.fvecs", "--out", "o.soar", "--pol", "none", "--lam", "2"],
        ["bench", "--index", "soar.soar", "--queries", "queries.fvecs", "--exact", "--out", "o.csv",
         "--targets", "t.csv"],
    ])
    def test_flag_prefix_is_not_the_flag(self, workspace, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err
        assert not list(workspace.glob("[ot].*"))

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,inputs,key,flag", [
        ("synth", [], "out", "--out"),
        ("build", ["data.fvecs"], "out", "--out"),
        ("search", ["soar.soar", "queries.fvecs"], "out", "--out"),
        ("bench", ["--index", "soar.soar", "--queries", "queries.fvecs", "--exact", "--out", "o.csv"],
         "targets_out", "--targets-out"),
        ("diagnose", ["soar.soar", "queries.fvecs", "--out", "o.csv"], "summary_out", "--summary-out"),
        ("verify", ["--samples", "100000", "--pairs", "1"], "out", "--out"),
    ])
    def test_empty_output_path(self, workspace, capsys, command, inputs, key, flag, source):
        if source == "flag":
            extra = [flag, ""]
        else:
            (workspace / "e.cfg").write_text(f"{key}=\n")
            extra = ["--config", "e.cfg"]
        code, out, err = run(capsys, command, *inputs, *extra)
        assert code == 1
        assert f"argument {flag}: expected a file path, got an empty string" in err
        assert out == ""
        assert not list(workspace.glob("o.*"))
