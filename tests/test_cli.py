import json
import os
import time
from pathlib import Path



from geomatch.cli import (
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_TOO_LARGE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    main,
)
from geomatch.padic import ENUM_CAP


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_version(capsys):
    code, out = run(["--version"], capsys)
    assert code == EXIT_OK and out.strip() == "0.1.0"


def test_usage_errors(tmp_path, capsys):
    assert main(["verify-local", "--p", "7"]) == EXIT_USAGE
    assert main(["relation", "--ramified", "2,3,5"]) == EXIT_USAGE
    assert main(["spectrum", "--level", "0"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["coverage", "--M", "0"]) == EXIT_USAGE
    assert main(["coverage", "--M", "1"]) == EXIT_USAGE
    assert main(["relation", "--ramified", "2,3", "--exponents", "2=-1"]) == EXIT_USAGE
    # a repeated prime is refused, not merged behind an echo of the raw input
    assert main(["relation", "--ramified", "2,3,3"]) == EXIT_USAGE
    assert main(["relation", "--ramified", "2,3", "--exponents", "2=1,2=0"]) == EXIT_USAGE
    # a level above MAX_EXPONENT fails at once: 2=30000 used to run for about 10 s
    for exps in ("2=1001", "5=30000"):
        t0 = time.perf_counter()
        assert main(["relation", "--ramified", "2,3", "--exponents", exps]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 1.0, exps
    # so does a prime above 2^40: trial division to 1e17 used to take 25 s
    for flag, value in (("--ramified", "2,1099511627791"), ("--exponents", "1099511627791=1")):
        t0 = time.perf_counter()
        assert main(["relation", flag, value]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 1.0, value
    # so does a verify-local precision outside [1, MAX_VERIFY_M]: the cost
    # grows like M^2.2, and a negative M is a usage error, not exhausted precision
    for M in ("1001", "-3"):
        t0 = time.perf_counter()
        assert main(["verify-local", "--M", M]) == EXIT_USAGE
        assert time.perf_counter() - t0 < 1.0, M
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
    # --format only where a table is written, --seed only where samples are drawn
    for command in ("verify-local", "verify-matching", "coverage", "relation"):
        assert main([command, "--format", "csv"]) == EXIT_USAGE, command
    for command in ("verify-local", "verify-matching", "classes", "spectrum",
                    "relation", "report"):
        assert main([command, "--seed", "1"]) == EXIT_USAGE, command
    # an unreadable config or an unwritable output is a usage error, not a crash
    missing = str(tmp_path / "no" / "dir")
    assert main(["spectrum", "--config", missing]) == EXIT_USAGE
    assert main(["spectrum", "--out", f"{missing}/x.json"]) == EXIT_USAGE
    assert main(["relation", "--x-max", "100", "--csv-out", f"{missing}/x.csv"]) == EXIT_USAGE
    # traces above MAX_TRACE fail fast instead of walking ~1e6 traces
    for argv in (["spectrum", "--x-max", "1e12"], ["relation", "--x-max", "1e12"],
                 ["report", "--x-grid", "100,1e12"],
                 ["classes", "--t-min", "3", "--t-max", "100000000"],
                 # coverage samples above ENUM_CAP fail before any draw
                 ["coverage", "--samples", "100000000"],
                 # the split disjointness pass scans over 2^20 axis points
                 ["coverage", "--M", "64"], ["coverage", "--M", "1000"],
                 # 2^18 Eichler groups times 16 traces exceed ENUM_CAP
                 ["relation", "--x-max", "100", "--ramified",
                  "2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61"],
                 # a grid above ENUM_CAP points fails before it is built
                 ["spectrum", "--x-count", "100000000"]):
        t0 = time.perf_counter()
        assert main(argv) == EXIT_TOO_LARGE, argv
        assert time.perf_counter() - t0 < 1.0, argv
    # Gamma(N) is counted at every level: gamma = 1 mod N is tested before any
    # walk, and no hyperbolic class lies in Gamma(N) once N^2 exceeds MAX_TRACE + 2
    for level in ("102", str(2 ** 61 - 1)):
        out = tmp_path / f"level{level}.json"
        t0 = time.perf_counter()
        assert main(["spectrum", "--level", level, "--out", str(out)]) == EXIT_OK, level
        assert time.perf_counter() - t0 < 1.0, level
        assert all(r["pi"] == 0 for r in json.loads(out.read_text())["results"]), level
    # an explicit grid one point above ENUM_CAP; parsing it alone takes ~0.6 s
    assert main(["report", "--x-grid", ",".join(["100"] * (ENUM_CAP + 1))]) == EXIT_TOO_LARGE


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [line.split("#")[0].split()[1:]
                for line in readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("geomatch ")]
    assert len(commands) >= 7
    for argv in commands:
        build_parser().parse_args(argv)  # a flag README names but no parser has raises


def test_config_values_obey_flag_rules(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    for command, line in (("coverage", "torus=bogus"), ("coverage", "torus=split"),
                          ("spectrum", "fmt=xml"), ("coverage", "decomposition=bogus"),
                          ("verify-local", "p=7"), ("spectrum", "level=0"),
                          ("relation", "x_max=nan"), ("verify-matching", "primes=7")):
        conf.write_text(line + "\n")
        assert main([command, "--config", str(conf)]) == EXIT_USAGE, line


def test_config_keys_take_the_flag_spelling(tmp_path, capsys):
    # format= is the --format flag's spelling of its dest fmt, and obeys its rule
    conf = tmp_path / "format.conf"
    argv = ["spectrum", "--x-max", "100", "--x-count", "2", "--config", str(conf)]
    conf.write_text("format=csv\n")
    code, out = run(argv, capsys)
    assert code == EXIT_OK and "\nx,psi,psi_minus_x," in out
    conf.write_text("format=xml\n")
    assert main(argv) == EXIT_USAGE


def test_coverage_torus_only_where_a_torus_is_sampled(tmp_path, capsys):
    conf = tmp_path / "t.conf"
    conf.write_text("torus=ramified-field\n")
    for name in ("split-M", "split-J"):
        base = ["coverage", "--decomposition", name, "--M", "2", "--samples", "5"]
        assert main(base + ["--torus", "unramified-field"]) == EXIT_USAGE, name
        assert main(base + ["--config", str(conf)]) == EXIT_USAGE, name
        out = tmp_path / f"{name}.json"
        assert main(base + ["--out", str(out)]) == EXIT_OK, name
        assert json.loads(out.read_text())["config"]["torus"] == "unramified-field"
    out = tmp_path / "nonsplit.json"
    assert main(["coverage", "--decomposition", "nonsplit-M", "--M", "2", "--samples", "5",
                 "--config", str(conf), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["torus"] == "ramified-field"


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


def test_relation_exits_1_on_identity_violation(tmp_path, capsys, monkeypatch):
    # Gamma(6) is the enumerated all-matrix term here; off its prediction by
    # 1e-6, it breaks c_D dpsi_D = sum_I coeff_I c_I dpsi_I where it fires
    import geomatch.assembly as assembly
    enumerated = assembly.dpsi_enumerated
    monkeypatch.setattr(assembly, "dpsi_enumerated",
                        lambda N, t: enumerated(N, t) * (1 + 1e-6 if N == 6 else 1))
    out = tmp_path / "rel.json"
    assert main(["relation", "--ramified", "2,3", "--exponents", "2=1,3=1",
                 "--x-max", "2000", "--out", str(out)]) == EXIT_VIOLATION
    assert capsys.readouterr().err == "identity violation at trace -34\n"
    assert json.loads(out.read_text())["results"]["coefficient_sum"] == "1"


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
