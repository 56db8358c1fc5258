"""CLI surface: exit-code contract, schema-valid JSON, fault-injection canary."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import maxvit.cli
from maxvit.cli import main


def schema(name):
    text = (resources.files("maxvit") / "schemas" / f"{name}.schema.json").read_text()
    return json.loads(text)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- describe ----------------------------------------------------------------------

def test_describe_t224_schema_and_gates(capsys):
    code, report = run_json(capsys, ["describe", "--variant", "T", "--res", "224", "--json"])
    jsonschema.validate(report, schema("describe"))
    assert code == 0
    assert report["window"] == 7
    assert report["params"]["within_tolerance"] is True
    assert report["macs"]["within_tolerance"] is True
    assert report["params"]["golden_millions"] == 31.0
    assert abs(report["macs"]["golden_gmacs"] - 5.6) < 1e-9
    names = [s["name"] for s in report["stages"]]
    assert names == ["stem", "stage1", "stage2", "stage3", "stage4", "head"]


def test_describe_b384_uses_window_12(capsys):
    code, report = run_json(capsys, ["describe", "--variant", "B", "--res", "384", "--json"])
    jsonschema.validate(report, schema("describe"))
    assert code == 0
    assert report["window"] == 12
    assert abs(report["macs"]["golden_gmacs"] - 74.2) < 1e-9
    assert report["macs"]["within_tolerance"] is True
    assert [s["out_resolution"] for s in report["stages"]] == [192, 96, 48, 24, 12, 1]


def test_describe_resolution_without_flop_reference(capsys):
    code, report = run_json(capsys, ["describe", "--variant", "T", "--res", "448", "--json"])
    assert code == 0
    assert report["macs"]["within_tolerance"] is None
    assert report["params"]["within_tolerance"] is True
    jsonschema.validate(report, schema("describe"))


def test_describe_plain_text_mentions_tolerances(capsys):
    code = main(["describe", "--variant", "S", "--res", "224"])
    out = capsys.readouterr().out
    assert code == 0
    assert "MaxViT-S" in out
    assert "OK" in out and "tol" in out


def test_describe_unknown_variant_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--variant", "Q"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in ("T", "S", "B", "L", "XL"):
        assert f"'{name}'" in err


def test_describe_bad_resolution_is_usage_error(capsys):
    for res in ("200", "0", "-32"):
        assert main(["describe", "--variant", "T", "--res", res]) == 2
        assert "multiple of 32" in capsys.readouterr().err


def test_describe_non_positive_class_count_is_usage_error(capsys):
    assert main(["describe", "--variant", "T", "--res", "224", "--num-classes", "0"]) == 2
    assert "num_classes" in capsys.readouterr().err


def test_describe_takes_no_seed(capsys):
    # describe is analytic: a seed would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--seed", "0"])
    assert exc.value.code == 2


def test_describe_out_writes_json_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    code = main(["describe", "--variant", "T", "--res", "224", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(path.read_text())
    jsonschema.validate(report, schema("describe"))


# -- check -------------------------------------------------------------------------

def test_check_golden_suite_passes(capsys):
    code, report = run_json(capsys, ["check", "--filter", "golden", "--json"])
    jsonschema.validate(report, schema("check"))
    assert code == 0
    assert report["ok"] is True
    assert report["counts"]["fail"] == 0 and report["counts"]["error"] == 0
    item = schema("check")["properties"]["suites"]["items"]["properties"]["properties"]["items"]
    assert "duration_ms" in item["required"]
    durations = [p["duration_ms"] for s in report["suites"] for p in s["properties"]]
    assert all(d >= 0 for d in durations) and sum(durations) > 0


def test_check_unknown_filter_is_usage_error(capsys):
    assert main(["check", "--filter", "nosuchsuite"]) == 2
    assert "matches no suite" in capsys.readouterr().err


def test_check_detects_injected_partition_fault(capsys, skewed_grid):
    # rotated tokens in every grid group: the roundtrips must catch it
    code, report = run_json(capsys, ["check", "--filter", "partition", "--json"])
    assert code == 1
    assert report["ok"] is False
    failed = [p["name"] for s in report["suites"] for p in s["properties"] if p["status"] != "pass"]
    assert "grid_roundtrip_random" in failed
    jsonschema.validate(report, schema("check"))


def test_check_plain_output_names_failing_property(capsys, skewed_grid):
    code = main(["check", "--filter", "partition"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "partition.grid_roundtrip_random" in out


# -- bench -------------------------------------------------------------------------

def test_bench_zero_iters_empty_report(capsys):
    code, report = run_json(capsys, ["bench", "--variant", "T", "--res", "224", "--iters", "0", "--json"])
    jsonschema.validate(report, schema("bench"))
    assert code == 0
    assert report["runs_ms"] == []
    assert report["median_ms"] is None
    assert report["double"] is None
    assert report["attention_mac_ratio"] == pytest.approx(4.0)
    assert report["total_mac_ratio"] == pytest.approx(4.0, abs=0.01)


def test_bench_timed_report_statistics(capsys, monkeypatch):
    fake = iter([[30.0, 10.0, 20.0], [80.0, 40.0, 60.0]])
    monkeypatch.setattr(maxvit.cli, "_time_forwards", lambda model, x, iters: next(fake))
    code, report = run_json(capsys, ["bench", "--variant", "T", "--res", "224", "--iters", "3", "--json"])
    jsonschema.validate(report, schema("bench"))
    assert code == 0
    assert report["median_ms"] == pytest.approx(20.0)
    assert report["imgs_per_s"] == pytest.approx(50.0)
    assert report["p90_ms"] == pytest.approx(float(np.percentile([30.0, 10.0, 20.0], 90)), abs=1e-3)
    assert report["double"]["resolution"] == 448
    assert report["double"]["median_ms"] == pytest.approx(60.0)
    assert report["double"]["time_ratio"] == pytest.approx(3.0)


def test_bench_negative_iters_is_usage_error(capsys):
    assert main(["bench", "--variant", "T", "--res", "224", "--iters", "-1"]) == 2
    capsys.readouterr()


# -- train-toy ----------------------------------------------------------------------

def test_train_toy_json_and_trace(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, report = run_json(
        capsys, ["train-toy", "--seed", "0", "--steps", "2", "--json", "--out", str(path)]
    )
    jsonschema.validate(report, schema("train_toy"))
    assert code == 0
    assert report["steps"] == 2
    assert report["final_loss"] > 0
    assert report["hit_step"] is None
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss" and len(lines) == 3


def test_train_toy_zero_steps(capsys):
    code, report = run_json(capsys, ["train-toy", "--steps", "0", "--json"])
    jsonschema.validate(report, schema("train_toy"))
    assert code == 0
    assert report["final_loss"] is None
    assert report["steps"] == 0


# -- process-level contract -----------------------------------------------------------

def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "maxvit", "describe", "--variant", "T", "--res", "224", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["variant"] == "T"


def console_script(name, tmp_path):
    """The installed `name` script, or else the wrapper an installer would write for it
    from the `[project.scripts]` declaration in the repo's pyproject.toml."""
    installed = shutil.which(name)
    if installed:
        return installed
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no [project.scripts] {name}"
    module, func = scripts[name].split(":")
    script = tmp_path / name
    script.write_text(
        f"#!{sys.executable}\nimport sys\nfrom {module} import {func}\nsys.exit({func}())\n"
    )
    script.chmod(0o755)
    return str(script)


def test_console_script_help(tmp_path):
    # the child must import the same maxvit as this suite, not an older installed copy
    src = str(Path(maxvit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [console_script("maxvit", tmp_path), "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for sub in ("describe", "check", "bench", "train-toy"):
        assert sub in proc.stdout, f"{sub!r} missing from `maxvit --help`:\n{proc.stdout}"


def test_f64_env_switches_dtype():
    env = dict(os.environ, MAXVIT_F64="1")
    proc = subprocess.run(
        [sys.executable, "-m", "maxvit", "describe", "--variant", "T", "--json"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dtype"] == "float64"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
