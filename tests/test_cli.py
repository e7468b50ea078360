import json
import warnings

import pytest
from click.testing import CliRunner

from wlab import acceptance, dimension, fn_core
from wlab.cli import main
from wlab.covering import intersection_sequence, near_level_set

import oracles


@pytest.fixture
def runner():
    return CliRunner()


def test_gen_row_count(runner, tmp_path):
    out = tmp_path / "sample.csv"
    result = runner.invoke(main, ["gen", "--a", "0.8", "--b", "2", "--g", "cos",
                                  "--seed", "7", "--points", "4096",
                                  "--output", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 4097
    assert "\r" not in out.read_text()
    assert all("," in line and "." in line for line in lines[1:10])


def test_gen_byte_identical_reruns(runner, tmp_path):
    args = ["gen", "--a", "0.8", "--b", "2", "--seed", "9", "--points", "512"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + ["--output", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--output", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_json_format(runner, tmp_path):
    out = tmp_path / "sample.json"
    result = runner.invoke(main, ["gen", "--points", "32", "--format", "json",
                                  "--output", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7
    assert doc["spec"]["a"] == 0.8
    assert len(doc["xs"]) == 32


def test_gen_rejects_bad_amplitude(runner, tmp_path):
    result = runner.invoke(main, ["gen", "--a", "1.5",
                                  "--output", str(tmp_path / "s.csv")])
    assert result.exit_code == 3


def test_unknown_flag_rejected(runner):
    result = runner.invoke(main, ["gen", "--frobnicate", "1"])
    assert result.exit_code == 2


def test_help_lists_every_command(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ["gen", "boxdim", "energy", "occ", "cover", "verify-all"]:
        assert cmd in result.output


def test_boxdim_outputs(runner, tmp_path):
    out = tmp_path / "box.json"
    result = runner.invoke(main, [
        "boxdim", "--a", "0.8", "--b", "2", "--seeds", "2",
        "--min-scale-exp", "4", "--max-scale-exp", "8",
        "--output", str(out),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["schema"] == "wlab.boxdim/1"
    assert doc["predicted_d"] == pytest.approx(1.6781, abs=1e-4)
    assert len(doc["scales"]) == 5
    csv_lines = (tmp_path / "box.csv").read_text().splitlines()
    assert csv_lines[0] == "eps,count"
    assert len(csv_lines) == 6


def test_boxdim_precondition_exit(runner, tmp_path):
    result = runner.invoke(main, [
        "boxdim", "--min-scale-exp", "4", "--max-scale-exp", "5",
        "--output", str(tmp_path / "box.json"),
    ])
    assert result.exit_code == 3  # fewer than 4 scales


@pytest.mark.parametrize("args, named", [
    (["energy", "--pairs", "1"], "pairs"),
    (["energy", "--seeds", "0"], "seed"),
    (["boxdim", "--seeds", "0"], "seed"),
    (["occ", "--samples", "30000", "--bins", "2"], "bins"),
    (["occ", "--samples", "30000", "--decay-target", "nan"], "decay target must be positive, got nan"),
    (["occ", "--samples", "30000", "--decay-target", "0"], "decay target must be positive, got 0.0"),
    (["occ", "--samples", "30000", "--decay-target", "-1"], "decay target must be positive, got -1.0"),
], ids=["energy-pairs", "energy-seeds", "boxdim-seeds", "occ-bins",
        "occ-decay-nan", "occ-decay-0", "occ-decay-neg"])
def test_scan_sizes_it_cannot_use_exit_3(runner, tmp_path, args, named):
    out = tmp_path / "out"   # no .csv: boxdim would reject it as the path of its counts CSV
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 3, result.output
    assert named in result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("target", ["nan", "0", "-1"])
def test_occ_checks_decay_target_before_sampling(runner, tmp_path, monkeypatch, target):
    def no_sampling(*args, **kwargs):
        raise AssertionError("occ sampled f before checking --decay-target")

    monkeypatch.setattr(fn_core, "sample_graph", no_sampling)
    out = tmp_path / "density.csv"
    result = runner.invoke(main, ["occ", "--decay-target", target, "--output", str(out)])
    assert result.exit_code == 3, result.output
    assert f"error: decay target must be positive, got {float(target)}" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, named", [
    (["gen", "--a", "1.5"], "must lie in (0, 1), got 1.5"),
    (["boxdim", "--a", "1.5"], "must lie in (0, 1), got 1.5"),
    (["energy", "--a", "1.5"], "must lie in (0, 1), got 1.5"),
    (["occ", "--a", "1.5"], "must lie in (0, 1), got 1.5"),
    (["cover", "--pbm", "--a", "1.5"], "must lie in (0, 1), got 1.5"),
    (["gen", "--phases", "inf"], "phases must be finite, got inf"),
    (["gen", "--phases", "0.1,nan"], "phases must be finite, got nan"),
    (["gen", "--b", "inf"], "frequency ratio must be finite and exceed 1, got inf"),
    (["gen", "--b-seq", "1,inf", "--b", "2"], "b_seq entries must be finite, got inf"),
    (["cover", "--pbm", "--b", "inf"], "frequency ratio must be finite and exceed 1, got inf"),
], ids=["gen-a", "boxdim-a", "energy-a", "occ-a", "cover-a",
        "gen-phases-inf", "gen-phases-nan", "gen-b-inf", "gen-b-seq-inf", "cover-b-inf"])
def test_bad_spec_exits_3_before_any_work(runner, tmp_path, args, named):
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, args + ["--output", str(out / "result")])   # no .csv, as above
    assert result.exit_code == 3, result.output
    errors = [line for line in result.output.splitlines() if "error" in line.lower()]
    assert len(errors) == 1 and errors[0].startswith("error: ") and named in errors[0], errors
    assert "Traceback" not in result.output
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("args, config", [
    (["gen", "--phases", "0.1,x"], None),
    (["gen", "--b-seq", "1,2,y"], None),
    (["energy", "--t-grid", "1.2,z"], None),
    (["gen"], "phases=0.1,x\n"),
], ids=["phases", "b-seq", "t-grid", "config-phases"])
def test_bad_number_list_is_a_usage_error(runner, tmp_path, args, config):
    out = tmp_path / "out.csv"
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    result = runner.invoke(main, args + ["--output", str(out)])
    assert result.exit_code == 2, result.output
    assert "comma-separated list of numbers" in result.output
    assert not out.exists()


def test_energy_csv(runner, tmp_path):
    out = tmp_path / "energy.csv"
    result = runner.invoke(main, [
        "energy", "--t-grid", "1.2,1.9", "--pairs", "20000", "--seeds", "2",
        "--output", str(out),
    ])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value,std_error,verdict"
    assert len(lines) == 3
    assert lines[1].split(",")[3] in {"stable", "diverging"}


def test_occ_outputs(runner, tmp_path):
    out = tmp_path / "density.csv"
    result = runner.invoke(main, [
        "occ", "--samples", "30000", "--bins", "64", "--seed", "3",
        "--decay-target", "1e-3", "--output", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert out.read_text().splitlines()[0] == "bin_center,density"
    rep = json.loads((tmp_path / "density_parseval.json").read_text())
    assert rep["schema"] == "wlab.parseval/1"
    assert "discrepancy" in rep


def test_cover_outputs_with_pbm(runner, tmp_path):
    out = tmp_path / "cover.csv"
    result = runner.invoke(main, [
        "cover", "--resolution", "128", "--n-max", "3", "--pbm",
        "--output", str(out),
    ])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "n,measure"
    assert len(lines) == 5
    # each level's file has the bytes the reference writer gives its bits
    spec = fn_core.build_spec(0.8, fn_core.geometric(2.0))
    levels = []
    intersection_sequence(near_level_set(fn_core.COS, 0.05, 128), spec, 3,
                          on_level=lambda n, s: levels.append(s.bits.copy()))
    assert len(levels) == 4
    for n, bits in enumerate(levels):
        pbm = tmp_path / f"cover_level{n}.pbm"
        assert pbm.read_bytes() == oracles.tiled_pbm_bytes(bits)


def test_cover_precondition_failure_leaves_no_pbm(runner, tmp_path):
    # two levels are too few to fit a decay; the level PBMs are streamed before
    # the fit, so the failure must take them away again
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(main, [
        "cover", "--resolution", "128", "--n-max", "1", "--pbm",
        "--output", str(out / "c.csv"),
    ])
    assert result.exit_code == 3
    assert "need >= 3 positive leading measures" in result.output
    assert list(out.iterdir()) == []


def test_config_file_defaults_and_flag_override(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points=64\nseed=21\n")
    out1 = tmp_path / "c1.csv"
    r = runner.invoke(main, ["gen", "--config", str(cfg), "--output", str(out1)])
    assert r.exit_code == 0
    assert len(out1.read_text().splitlines()) == 65

    out2 = tmp_path / "c2.csv"
    r = runner.invoke(main, ["gen", "--config", str(cfg), "--points", "16",
                             "--output", str(out2)])
    assert r.exit_code == 0
    assert len(out2.read_text().splitlines()) == 17


def test_config_file_unknown_key(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "g.csv"
    for text in ("bogus=1\n", "config=other.cfg\n"):
        cfg.write_text(text)
        r = runner.invoke(main, ["gen", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 2, (text, r.output)
        assert "unknown config keys" in r.output
        assert not out.exists()


@pytest.fixture
def threads_seen(monkeypatch):
    """The worker-thread count in force at each fn_core.sample_graph call."""
    seen = []
    sample_graph = fn_core.sample_graph

    def recording(*args, **kwargs):
        seen.append(fn_core._WORKER_THREADS.get())
        return sample_graph(*args, **kwargs)

    monkeypatch.setattr(fn_core, "sample_graph", recording)
    return seen


@pytest.mark.parametrize("args, env, config, want", [
    ([], {}, None, 1),
    ([], {}, "threads=3\n", 3),
    ([], {"WLAB_THREADS": "2"}, "threads=3\n", 2),
    (["--threads", "4"], {"WLAB_THREADS": "2"}, "threads=3\n", 4),
], ids=["default", "config", "env-over-config", "flag-over-env"])
def test_thread_count_precedence(runner, tmp_path, threads_seen, args, env, config, want):
    # flag > WLAB_THREADS > config file > default
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    r = runner.invoke(main, ["gen", "--points", "16", "--output", str(tmp_path / "g.csv")] + args,
                      env=env)
    assert r.exit_code == 0, r.output
    assert threads_seen == [want]


def test_verify_all_quick_subset(runner, tmp_path):
    report = tmp_path / "report.json"
    result = runner.invoke(main, ["verify-all", "--profile", "quick",
                                  "--criteria", "3,10", "--report", str(report)])
    assert result.exit_code == 0, result.output
    assert "PASS C3" in result.output
    assert "PASS C10" in result.output
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert [c["criterion"] for c in doc["criteria"]] == [3, 10]


def test_verify_all_rejects_unknown_criterion(runner):
    for criteria in ("99", "1,x"):
        result = runner.invoke(main, ["verify-all", "--criteria", criteria])
        assert result.exit_code == 2, (criteria, result.output)


def test_verify_all_reports_byte_identical(runner, tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        r = runner.invoke(main, ["verify-all", "--profile", "quick",
                                 "--criteria", "3", "--report", str(p)])
        assert r.exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_threads_env_not_an_integer_is_a_usage_error(runner, tmp_path):
    r = runner.invoke(main, ["boxdim", "--output", str(tmp_path / "box.json")],
                      env={"WLAB_THREADS": "abc"})
    assert r.exit_code == 2, r.output
    assert "WLAB_THREADS" in r.output


@pytest.mark.parametrize("args, env", [(["--threads", "0"], {}), (["--threads", "-3"], {}),
                                       ([], {"WLAB_THREADS": "0"})],
                         ids=["flag-0", "flag-neg", "env-0"])
def test_threads_below_one_is_a_usage_error(runner, tmp_path, args, env):
    r = runner.invoke(main, ["boxdim", "--output", str(tmp_path / "box.json")] + args, env=env)
    assert r.exit_code == 2, r.output
    assert "threads" in r.output.lower()
    assert not (tmp_path / "box.json").exists()


def test_threads_env_fallback(runner, tmp_path):
    out = tmp_path / "box.json"
    r = runner.invoke(main, [
        "boxdim", "--seeds", "2", "--min-scale-exp", "4", "--max-scale-exp", "8",
        "--output", str(out),
    ], env={"WLAB_THREADS": "2"})
    assert r.exit_code == 0, r.output
    doc = json.loads(out.read_text())
    assert len(doc["seed_slopes"]) == 2


def _assert_config_error(result, named="does not exist"):
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output
    assert named in lines[0]


def test_gen_output_in_missing_directory_is_a_config_error(runner, tmp_path):
    result = runner.invoke(main, ["gen", "--points", "16",
                                  "--output", str(tmp_path / "missing" / "g.csv")])
    _assert_config_error(result)
    assert list(tmp_path.iterdir()) == []


def test_cover_pbm_output_in_missing_directory_leaves_nothing(runner, tmp_path):
    result = runner.invoke(main, ["cover", "--resolution", "128", "--n-max", "3", "--pbm",
                                  "--output", str(tmp_path / "missing" / "c.csv")])
    _assert_config_error(result)
    assert list(tmp_path.iterdir()) == []


def test_verify_all_report_in_missing_directory_is_a_config_error(runner, tmp_path):
    result = runner.invoke(main, ["verify-all", "--profile", "quick", "--criteria", "3",
                                  "--report", str(tmp_path / "missing" / "r.json")])
    _assert_config_error(result)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, work", [
    (["gen", "--points", "16", "--output"], (fn_core, "sample_graph")),
    (["verify-all", "--profile", "quick", "--criteria", "3", "--report"], (acceptance, "run_all")),
], ids=["gen", "verify-all"])
def test_output_that_is_a_directory_is_a_config_error(runner, tmp_path, monkeypatch, args, work):
    # it failed with an IsADirectoryError traceback (exit 1) after all the work
    monkeypatch.setattr(*work, lambda *a, **k: pytest.fail("work started"))
    result = runner.invoke(main, args + [str(tmp_path)])
    _assert_config_error(result, f"output {tmp_path} is a directory")
    assert list(tmp_path.iterdir()) == []


def test_boxdim_output_that_is_its_counts_csv_is_a_config_error(runner, tmp_path, monkeypatch):
    # the counts CSV overwrote the JSON at the same path, and the run exited 0
    monkeypatch.setattr(dimension, "box_dimension_scan", lambda *a, **k: pytest.fail("work started"))
    out = tmp_path / "counts.csv"
    result = runner.invoke(main, ["boxdim", "--seeds", "2", "--output", str(out)])
    _assert_config_error(result, f"output {out} is also the path of the counts CSV")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, files", [
    (["occ", "--samples", "65536", "--output", "density.csv"],
     ["density.csv", "density_parseval.json"]),
    (["energy", "--pairs", "40000", "--seeds", "2", "--output", "energy.csv"], ["energy.csv"]),
    # 2^15 + 1 points: a second thread really starts
    (["boxdim", "--seeds", "3", "--m", "32769", "--min-scale-exp", "4", "--max-scale-exp", "8",
      "--output", "boxdim.json"], ["boxdim.json", "boxdim.csv"]),
    (["verify-all", "--profile", "quick", "--criteria", "6", "--report", "verify.json"],
     ["verify.json"]),
], ids=["occ", "energy", "boxdim", "verify-all"])
def test_artifacts_identical_for_any_thread_count(runner, tmp_path, command, files):
    runs = {"flag-1": (["--threads", "1"], {}), "flag-2": (["--threads", "2"], {}),
            "env-2": ([], {"WLAB_THREADS": "2"})}
    for name, (args, env) in runs.items():
        d = tmp_path / name
        d.mkdir()
        out = command[:-1] + [str(d / command[-1])]
        r = runner.invoke(main, out + args, env=env)
        assert r.exit_code == 0, r.output
    for f in files:
        want = (tmp_path / "flag-1" / f).read_bytes()
        for name in ("flag-2", "env-2"):
            assert (tmp_path / name / f).read_bytes() == want, (name, f)


def test_thread_setting_ends_with_the_command(runner, tmp_path, monkeypatch, threads_seen):
    monkeypatch.chdir(tmp_path)
    # --threads is taken first, so a later option that exits 2 must still undo it
    for args, code, want in [(["--points", "16", "--output", "g.csv"], 0, [2]),
                             (["--points", "x"], 2, []),
                             (["--output", "missing/g.csv"], 2, [])]:
        threads_seen.clear()
        r = runner.invoke(main, ["gen", "--threads", "2"] + args)
        assert r.exit_code == code, (args, r.output)
        assert threads_seen == want
        assert fn_core._WORKER_THREADS.get() == 1
