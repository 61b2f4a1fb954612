import json
import os
import time



from geomatch.cli import (
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_TOO_LARGE,
    EXIT_USAGE,
    main,
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_version(capsys):
    code, out = run(["--version"], capsys)
    assert code == EXIT_OK and out.strip() == "0.1.0"


def test_usage_errors(capsys):
    assert main(["verify-local", "--p", "7"]) == EXIT_USAGE
    assert main(["relation", "--ramified", "2,3,5"]) == EXIT_USAGE
    assert main(["spectrum", "--level", "9"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["coverage", "--M", "0"]) == EXIT_USAGE
    assert main(["coverage", "--M", "1"]) == EXIT_USAGE
    assert main(["relation", "--ramified", "2,3", "--exponents", "2=-1"]) == EXIT_USAGE
    # inputs that would certify or count nothing
    assert main(["coverage", "--samples", "0", "--M", "2"]) == EXIT_USAGE
    assert main(["coverage", "--samples", "-5"]) == EXIT_USAGE
    assert main(["verify-matching", "--primes", ","]) == EXIT_USAGE
    assert main(["report", "--x-grid", ","]) == EXIT_USAGE
    assert main(["spectrum", "--x-count", "0"]) == EXIT_USAGE
    assert main(["spectrum", "--x-count", "-3"]) == EXIT_USAGE
    # non-finite x
    for x in ("nan", "inf"):
        assert main(["spectrum", "--x-max", x]) == EXIT_USAGE
    assert main(["relation", "--x-max", "nan"]) == EXIT_USAGE
    assert main(["report", "--x-grid", "nan"]) == EXIT_USAGE
    # traces above MAX_TRACE fail fast instead of walking ~1e6 traces
    for argv in (["spectrum", "--x-max", "1e12"], ["relation", "--x-max", "1e12"],
                 ["report", "--x-grid", "100,1e12"],
                 ["classes", "--t-min", "3", "--t-max", "100000000"]):
        t0 = time.perf_counter()
        assert main(argv) == EXIT_TOO_LARGE, argv
        assert time.perf_counter() - t0 < 1.0, argv


def test_precision_exit(capsys):
    assert main(["verify-local", "--p", "2", "--n-max", "3", "--M", "2"]) == EXIT_PRECISION


def test_verify_matching_small(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main(["verify-matching", "--primes", "2,3", "--n-max", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"]["ok"] and data["results"]["points_checked"] > 100


def test_verify_local_small(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify-local", "--p", "2", "--n-max", "1", "--M", "9",
                 "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"]["ok"]
    assert data["tool"] == "geomatch"
    assert data["normalization"]["field_measure"] == "Vol(O_E^x) = 1"


def test_classes_csv(tmp_path, capsys):
    out = tmp_path / "classes.csv"
    code = main(["classes", "--t-min", "3", "--t-max", "5", "--level", "2",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_at] == "t,class_count_sl2,classes_in_level,dpsi"
    assert len(lines) == header_at + 1 + 6  # both signs of 3, 4, 5


def test_spectrum_monotone(tmp_path, capsys):
    out = tmp_path / "psi.csv"
    code = main(["spectrum", "--level", "1", "--x-max", "2000", "--x-count", "6",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    psis = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(psis, psis[1:]))


def test_relation_json(tmp_path, capsys):
    out = tmp_path / "rel.json"
    csv_out = tmp_path / "rel.csv"
    code = main(["relation", "--ramified", "2,3", "--exponents", "2=0,3=0",
                 "--x-max", "200", "--out", str(out), "--csv-out", str(csv_out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())["results"]
    assert data["coefficient_sum"] == "1"
    total = sum(float(t["coefficient"]) * t["psi"] for t in data["terms"])
    # emitted floats carry 12 significant digits; the unrounded identity is
    # exact and covered in test_assembly
    assert abs(total - data["psi_D"]) < 1e-7 * max(1.0, abs(data["psi_D"]))
    assert "defined through" in data["note"]
    assert csv_out.read_text().count("\n") > 4


def test_coverage_exit_ok(tmp_path, capsys):
    out = tmp_path / "cov.json"
    code = main(["coverage", "--decomposition", "split-M", "--p", "2", "--M", "3",
                 "--samples", "500", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["results"][0]["ok"]
    assert data["seed"] == 5


def test_config_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("level=2\nx_max=500\nx_count=4\n")
    out = tmp_path / "s.csv"
    code = main(["spectrum", "--config", str(conf), "--format", "csv",
                 "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "# config.level=2" in text
    assert "# config.x_max=500.0" in text


def test_determinism_same_seed(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["coverage", "--decomposition", "nonsplit-J", "--p", "2",
                     "--M", "3", "--samples", "300", "--seed", "11",
                     "--torus", "ramified-field", "--out", str(path)])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_determinism_across_threads(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("GEOMATCH_THREADS", "1")
    assert main(["report", "--level", "1", "--x-grid", "50,100,200",
                 "--format", "csv", "--out", str(a)]) == EXIT_OK
    monkeypatch.setenv("GEOMATCH_THREADS", "2")
    assert main(["report", "--level", "1", "--x-grid", "50,100,200",
                 "--format", "csv", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert not any(line.startswith("# config.threads")
                   for line in a.read_text().splitlines())


def test_config_seed_matches_seed_flag(tmp_path, capsys):
    conf = tmp_path / "seed.conf"
    conf.write_text("seed=7\n")
    argv = ["coverage", "--decomposition", "split-M", "--p", "2", "--M", "3",
            "--samples", "50"]
    a, b = tmp_path / "flag.json", tmp_path / "conf.json"
    assert main(argv + ["--seed", "7", "--out", str(a)]) == EXIT_OK
    assert main(argv + ["--config", str(conf), "--out", str(b)]) == EXIT_OK
    assert json.loads(b.read_text())["seed"] == 7
    assert a.read_bytes() == b.read_bytes()


def test_explicit_flag_beats_config_at_default_value(tmp_path, capsys):
    conf = tmp_path / "level.conf"
    conf.write_text("level=2\n")
    argv = ["spectrum", "--level", "1", "--x-max", "100", "--x-count", "2"]
    a, b = tmp_path / "flag.json", tmp_path / "conf.json"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--config", str(conf), "--out", str(b)]) == EXIT_OK
    assert json.loads(b.read_text())["config"]["level"] == 1
    assert a.read_bytes() == b.read_bytes()


def test_grid_commands_start_no_pool(tmp_path, capsys, monkeypatch):
    import geomatch.cli as cli

    assert not hasattr(cli, "Pool")
    for argv in (["spectrum", "--level", "1", "--x-max", "3000", "--x-count", "5"],
                 ["report", "--level", "3", "--x-grid", "800,40,2000,40"]):
        texts = []
        for threads in ("1", "2"):
            monkeypatch.setenv("GEOMATCH_THREADS", threads)
            path = tmp_path / f"out{threads}.json"
            assert main(argv + ["--out", str(path)]) == EXIT_OK
            texts.append(path.read_bytes())
        assert texts[0] == texts[1], argv
        assert "threads" not in json.loads(texts[0])["config"]
