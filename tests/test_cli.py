import importlib.util
import itertools
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, layout_oracle, output_digests
from segdyn.artifacts import check_artifacts, load_manifest, read_json, write_json
from segdyn import __version__
from segdyn.atomic import (
    _INT_ROWS_PER_BLOCK, _ITEMS_PER_BLOCK, _ROWS_PER_BLOCK, side_path, write_atomic,
)
from segdyn.cli import _build_parser, main
from segdyn.config import load_config
from segdyn.cover import Partition, cover_from_json
from segdyn.errors import ConfigError
from segdyn.flow import jacobian_norms
from segdyn.segments import SegmentLibrary, load_library, save_library
from segdyn.transitions import (
    ENCLOSURE_SLACK, TransitionTensor, ball_successors, tensor_to_json, transitions_from_json,
)

BASE_CONFIG = {
    "model": {"model_id": "LinearDiagonal", "dimension": 1, "parameters": {"rates": [1.0]}},
    "domain": {"lower": [-1.0], "upper": [1.0]},
    "epsilon": 0.5,
    "horizon": 1.0,
    "resolution": [8],
    "segment_samples": 9,
    "samples_per_cell": 40,
    "tensor_order": 3,
    "word_length": 6,
    "quantities": [{"kind": "energy"}],
    "rng_seed": 7,
    "integrator_step": 0.001,
    "delta_cap_fraction": 0.5,
    "encode_points": 20,
    "measure_samples": 2000,
}

ALL_STAGES = ["calibrate", "segments", "transitions", "encode", "shadow",
              "enumerate", "entropy", "bounds", "report"]
# the counter cli.main adds to every stage's entry where ``resource`` exists
FAULTS = {"minor_faults"} if importlib.util.find_spec("resource") else set()


def _write_config(tmp_path, overrides=None, name="config.json"):
    doc = dict(BASE_CONFIG)
    doc["output_dir"] = str(tmp_path / "out")
    doc.update(overrides or {})
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    config = _write_config(tmp)
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(config)]) == 0
    return tmp, config, Path(json.loads(config.read_text())["output_dir"])


def test_pipeline_writes_all_artifacts(pipeline):
    _, _, out = pipeline
    for name in ["cover.json", "library/library.json", "library/segments.npy",
                 "max_difference.csv", "transitions.json", "enclosure.json", "tensors.json",
                 "words.json", "shadow_report.json", "enumeration.json",
                 "entropy.json", "bounds.json", "report.json", "manifest.json"]:
        assert (out / name).exists(), name


def test_enclosure_holds_each_cells_successors_as_csr(pipeline):
    _, config, out = pipeline
    cfg = load_config(config)
    cover = cover_from_json(read_json(out / "cover.json"))
    lib = load_library(out / "library")
    rho = jacobian_norms(cfg.model, cover.centers, cfg.horizon, cfg.integrator)
    indptr, successors = ball_successors(lib, Partition(cover=cover), rho)
    doc = read_json(out / "enclosure.json")
    assert sorted(doc) == ["indptr", "radius", "slack", "successors"]
    assert doc["slack"] == ENCLOSURE_SLACK == 1.0
    assert doc["radius"] == [round(float(r), 12) for r in rho * cover.radii]
    assert doc["indptr"] == indptr.tolist() and doc["successors"] == successors.tolist()
    # every sampled transition lies in the enclosure, and the report says so
    assert _gamma_outside_enclosure(out) == []
    assert read_json(out / "report.json")["summary"]["transitions"]["enclosure_misses"] == 0


def _gamma_outside_enclosure(out) -> list:
    """The sampled transitions (cell, successor) of an output directory that
    its enclosure.json leaves out."""
    tm = transitions_from_json(read_json(out / "transitions.json"))
    doc = read_json(out / "enclosure.json")
    return [(row + 1, int(col) + 1) for row in range(tm.n_cells)
            for col in tm.indices[tm.indptr[row]:tm.indptr[row + 1]]
            if col + 1 not in doc["successors"][doc["indptr"][row]:doc["indptr"][row + 1]]]


def test_single_cell_enclosure_has_one_row(tmp_path):
    config = _write_config(tmp_path, {"resolution": [1]})
    for stage in ["calibrate", "segments", "transitions"]:
        assert main([stage, "--config", str(config)]) == 0
    out = Path(json.loads(config.read_text())["output_dir"])
    doc = read_json(out / "enclosure.json")
    # the segment from center 0 stays at 0, so its image ball meets its own
    assert len(doc["radius"]) == 1 and doc["indptr"] == [0, 1] and doc["successors"] == [1]
    assert "enclosure.json" in load_manifest(out)["stages"]["transitions"]["outputs"]


def test_artifacts_validate_and_check_passes(pipeline):
    tmp, config, out = pipeline
    assert check_artifacts(out) == []
    assert main(["report", "--config", str(config), "--check"]) == 0


def test_shadow_report_within_epsilon(pipeline):
    _, _, out = pipeline
    doc = read_json(out / "shadow_report.json")
    assert doc["orbits"] == 20
    assert doc["complete_orbits"] == 20
    assert doc["max_error"] <= doc["epsilon"] + 1e-6


def test_manifest_records_every_stage(pipeline):
    _, _, out = pipeline
    manifest = load_manifest(out)
    assert set(manifest["stages"]) == set(ALL_STAGES)
    for entry in manifest["stages"].values():
        assert entry["wall_time_s"] >= 0
        assert entry["outputs"]


def test_rerun_reproduces_identical_digests(pipeline, tmp_path):
    tmp, config, out = pipeline
    config2 = _write_config(tmp_path, {"output_dir": str(tmp_path / "out2")})
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(config2)]) == 0
    m1 = load_manifest(out)
    m2 = load_manifest(tmp_path / "out2")
    for stage in ALL_STAGES:
        assert m1["stages"][stage]["outputs"] == m2["stages"][stage]["outputs"]


@pytest.mark.parametrize("word, refused", [([True, False], True), ([1, 2], False)],
                         ids=["booleans", "ints"])
def test_check_refuses_non_integer_word_symbols(pipeline, tmp_path, capsys, word, refused):
    # both edits break the recorded digest; only booleans break the schema
    _, _, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    doc = read_json(copy / "words.json")
    doc["words"][0]["word"] = word
    (copy / "words.json").write_text(json.dumps(doc))
    config = _write_config(tmp_path)
    capsys.readouterr()
    assert main(["report", "--config", str(config), "--check"]) == 1
    err = capsys.readouterr().err
    assert "check: encode: words.json does not match its recorded digest\n" in err
    assert ("check: encode: words.json fails schema validation: malformed word entry: "
            in err) == refused


def test_check_detects_corruption(pipeline, tmp_path):
    tmp, config, out = pipeline
    target = out / "entropy.json"
    original = target.read_text()
    try:
        doc = json.loads(original)
        doc["metric_entropy"] = 123.0
        target.write_text(json.dumps(doc))
        assert main(["report", "--config", str(config), "--check"]) == 1
    finally:
        target.write_text(original)
    assert main(["report", "--config", str(config), "--check"]) == 0


# every (stage, input file) pair of the pipeline; in tensor mode enumerate
# reads tensors.json instead of transitions.json
STAGE_INPUTS = [
    ("segments", "cover.json", "markov"),
    ("transitions", "cover.json", "markov"),
    ("transitions", "library/library.json", "markov"),
    ("transitions", "library/segments.npy", "markov"),
    ("encode", "cover.json", "markov"),
    ("shadow", "cover.json", "markov"),
    ("shadow", "library/library.json", "markov"),
    ("shadow", "library/segments.npy", "markov"),
    ("enumerate", "transitions.json", "markov"),
    ("enumerate", "tensors.json", "tensor"),
    ("entropy", "cover.json", "markov"),
    ("entropy", "transitions.json", "markov"),
    ("bounds", "library/library.json", "markov"),
    ("bounds", "library/segments.npy", "markov"),
    ("bounds", "transitions.json", "markov"),
]


@pytest.mark.parametrize("stage, missing, mode", STAGE_INPUTS,
                         ids=[f"{stage}-{missing}" for stage, missing, _ in STAGE_INPUTS])
def test_missing_artifact_exit_code(pipeline, tmp_path, capsys, stage, missing, mode):
    _, _, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / missing).unlink()
    config = _write_config(tmp_path, {"enumerate_mode": mode})
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 3
    assert capsys.readouterr().err == (
        f"error: stage '{stage}' needs artifact '{missing}' (not found in {copy}); "
        "run the producing stage first\n")


def test_invalid_config_lists_all_problems(tmp_path, capsys):
    config = _write_config(tmp_path, {"epsilon": -2, "horizon": 0,
                                      "word_length": 0, "resolution": [2, 2]})
    assert main(["calibrate", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    for field in ["epsilon", "horizon", "word_length", "resolution"]:
        assert field in err


def test_config_error_collects_fields(tmp_path):
    config = _write_config(tmp_path, {"epsilon": -2, "samples_per_cell": 0})
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    text = str(exc.value)
    assert "epsilon" in text and "samples_per_cell" in text


def test_config_rejects_non_finite_numbers(tmp_path):
    # JSON readers accept NaN and Infinity; neither is a usable setting
    config = _write_config(tmp_path, {"epsilon": float("nan"),
                                      "samples_per_cell": float("inf")})
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    assert exc.value.problems == ["epsilon: expected a finite number, got nan",
                                  "samples_per_cell: expected a finite number, got inf"]


def test_config_refuses_unknown_fields(tmp_path, capsys):
    # a misspelt field would otherwise run with the default of the one it means
    config = _write_config(tmp_path, {"sample_per_cell": 5, "Epsilon": 0.5})
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    assert exc.value.problems == ['unknown fields: "Epsilon", "sample_per_cell"']
    assert main(["calibrate", "--config", str(config)]) == 1
    assert capsys.readouterr().err == ("error: invalid configuration:\n"
                                       '  - unknown fields: "Epsilon", "sample_per_cell"\n')
    assert not (tmp_path / "out").exists()


LORENZ_MODEL = {"model_id": "Lorenz", "dimension": 3, "parameters": {}}


@pytest.mark.parametrize("overrides, problem", [
    ({"quantities": "energy"}, "quantities: expected a list of objects, got 'energy'"),
    ({"quantities": {"kind": "energy"}},
     "quantities: expected a list of objects, got {'kind': 'energy'}"),
    ({"quantities": ["energy"]}, "quantities[0]: expected an object, got 'energy'"),
    ({"quantities": [{"kind": "weighted_quadratic", "wieght": [[1.0]]}]},
     'quantities[0]: unknown fields: "wieght"'),
    ({"quantities": [{"kind": "coordinate", "index": 0.5}]},
     "quantities[0]: index 0.5 is not a JSON integer"),
    ({"model": dict(LORENZ_MODEL, parameters=None)},
     "model: parameters: expected an object, got None"),
    ({"model": dict(LORENZ_MODEL, parameters={"rh0": 20.0})},
     'model: unknown Lorenz parameters: "rh0"'),
    ({"model": {"model_id": "Lorenz", "dimension": 3, "paramters": {"rho": 20.0}}},
     'model: unknown fields: "paramters"'),
    ({"model": dict(LORENZ_MODEL, dimension=3.7)},
     "model: dimension 3.7 is not a JSON integer"),
    ({"model": "Lorenz"}, "model: expected an object, got 'Lorenz'"),
    ({"resolution": [12.9]}, "resolution: expected a list of integers, got [12.9]"),
    ({"resolution": [True]}, "resolution: expected a list of integers, got [True]"),
    ({"model": dict(LORENZ_MODEL, parameters={"rho": True})},
     "model: rho: true is not a finite JSON number"),
    ({"model": dict(LORENZ_MODEL, parameters={"sigma": "10"})},
     'model: sigma: "10" is not a finite JSON number'),
    ({"model": dict(BASE_CONFIG["model"], parameters={"rates": ["1"]})},
     'model: rates: "1" is not a finite JSON number'),
    ({"model": dict(BASE_CONFIG["model"], parameters={"rates": [True]})},
     "model: rates: true is not a finite JSON number"),
    ({"model": {"model_id": "QuadraticGeneric", "dimension": 1, "parameters": {
        "linear": [[0.0]], "quadratic": [[[False]]], "forcing": [0.0]}}},
     "model: quadratic: false is not a finite JSON number"),
    ({"quantities": [{"kind": "energy", "index": 0}]},
     "quantities[0]: index is read only by kind 'coordinate', not 'energy'"),
    ({"quantities": [{"kind": "norm", "weight": [[1.0]]}]},
     "quantities[0]: weight is read only by kind 'weighted_quadratic', not 'norm'"),
    ({"quantities": [{"kind": "coordinate", "index": 1}]},
     "quantities[0]: index 1 is not below the model's dimension 1"),
    ({"quantities": [{"kind": "weighted_quadratic", "weight": [[1.0, 0.0], [0.0, 1.0]]}]},
     "quantities[0]: weight has shape (2, 2), not (1, 1)"),
    ({"quantities": [{"kind": "weighted_quadratic", "weight": [["1"]]}]},
     'quantities[0]: weight: "1" is not a finite JSON number'),
    ({"domain": {"lower": ["-1"], "upper": [1.0]}},
     'domain: lower: "-1" is not a finite JSON number'),
    ({"domain": {"lower": [-1.0], "upper": [True]}},
     "domain: upper: true is not a finite JSON number"),
    ({"initial_points": [["0.5"]]}, 'initial_points: "0.5" is not a finite JSON number'),
    ({"initial_points": [[float("inf")]]},
     "initial_points: Infinity is not a finite JSON number"),
    ({"initial_points": [[0.5], [0.5, 0.5]]},
     "initial_points: nested lists of unequal lengths"),
    ({"epsilon": 10 ** 400}, f"epsilon: expected a finite number, got {10 ** 400}"),
    ({"samples_per_cell": 2 ** 63},
     f"samples_per_cell: must be <= {2 ** 63 - 1}, got {2 ** 63}"),
    ({"resolution": [10 ** 400]},
     f"resolution: entries must be <= {2 ** 63 - 1}, got [{10 ** 400}]"),
    ({"collocation_cap": 10, "delta_floor": 1e-6, "expansion_m_max": 3},
     'unknown fields: "collocation_cap", "delta_floor", "expansion_m_max"'),
], ids=["quantities string", "quantities object", "quantity string", "quantity field",
        "quantity index", "null parameters", "model parameter", "model field",
        "float dimension", "model string", "float resolution", "boolean resolution",
        "boolean Lorenz parameter", "string Lorenz parameter", "string rate", "boolean rate",
        "boolean quadratic entry", "index on energy", "weight on norm", "index past dimension",
        "weight of wrong shape", "string weight entry", "string lower bound",
        "boolean upper bound", "string initial point", "infinite initial point",
        "ragged initial points", "epsilon past float", "integer past int64",
        "resolution past int64", "removed options"])
def test_config_refuses_malformed_model_and_quantity_fields(tmp_path, capsys, overrides,
                                                            problem):
    # a misspelt or mistyped setting must not run as a default or a truncation
    config = _write_config(tmp_path, overrides)
    with pytest.raises(ConfigError) as exc:
        load_config(config)
    assert exc.value.problems == [problem]
    assert main(["calibrate", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: invalid configuration:\n  - {problem}\n"
    assert not (tmp_path / "out").exists()


def test_runtime_error_exit_code(tmp_path):
    # dx/dt = x^2 blows up inside the calibration horizon
    config = _write_config(tmp_path, {
        "model": {"model_id": "QuadraticGeneric", "dimension": 1,
                  "parameters": {"linear": [[0.0]], "quadratic": [[[1.0]]],
                                 "forcing": [0.0]}},
        "domain": {"lower": [0.5], "upper": [4.0]},
        "horizon": 3.0,
        "integrator_step": 0.01,
    })
    assert main(["calibrate", "--config", str(config)]) == 2


def test_calibration_blowup_names_the_center(tmp_path, capsys):
    # the center probe of center 8, the largest start, overflows first
    config = _write_config(tmp_path, {
        "model": {"model_id": "QuadraticGeneric", "dimension": 1,
                  "parameters": {"linear": [[0.0]], "quadratic": [[[1.0]]],
                                 "forcing": [0.0]}},
        "domain": {"lower": [0.5], "upper": [4.0]},
        "horizon": 3.0,
        "integrator_step": 0.01,
    })
    capsys.readouterr()
    assert main(["calibrate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: center 8 at [3.78125]: probe orbit became non-finite at t~")
    assert err.count("\n") == 1


def test_no_covered_start_gives_empty_words_and_shadow(tmp_path):
    # four balls of radius at most 0.02 in [-1, 1]^2: the single draw the
    # budget allows misses them all
    config = _write_config(tmp_path, {
        "model": {"model_id": "LinearDiagonal", "dimension": 2,
                  "parameters": {"rates": [1.0, 1.0]}},
        "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "resolution": [2, 2],
        "delta_cap_fraction": 0.01,
        "encode_draw_budget": 1,
    })
    for stage in ["calibrate", "segments", "encode", "shadow"]:
        assert main([stage, "--config", str(config)]) == 0
    out = Path(json.loads(config.read_text())["output_dir"])
    assert read_json(out / "words.json")["words"] == []
    assert read_json(out / "shadow_report.json") == {
        "epsilon": 0.5, "max_error": None, "orbits": 0, "complete_orbits": 0,
        "requested_length": 6, "per_orbit": [], "requested_points": 20}
    stages = load_manifest(out)["stages"]
    for stage in ("encode", "shadow"):
        counters = stages[stage]["counters"]
        assert set(counters) == {"domain_draws", "covered_starts"} | FAULTS
        assert (counters["domain_draws"], counters["covered_starts"]) == (1, 0)


def test_single_cell_fixture_has_zero_entropies(tmp_path):
    config = _write_config(tmp_path, {"resolution": [1], "word_length": 3})
    for stage in ["calibrate", "segments", "transitions", "entropy"]:
        assert main([stage, "--config", str(config)]) == 0
    doc = read_json(Path(json.loads(config.read_text())["output_dir"]) / "entropy.json")
    assert doc["metric_entropy"] == 0.0
    assert doc["ks_entropy_unweighted"] == 0.0
    assert doc["ks_entropy_stationary_weighted"] == 0.0


def test_encode_with_explicit_initial_points(tmp_path):
    config = _write_config(tmp_path, {"initial_points": [[0.5], [-0.25], [8.0]]})
    for stage in ("calibrate", "segments", "encode", "shadow"):
        assert main([stage, "--config", str(config)]) == 0
    out = Path(json.loads(config.read_text())["output_dir"])
    doc = read_json(out / "words.json")
    # both stages ask for the listed points, not encode_points (20)
    assert doc["requested"] == read_json(out / "shadow_report.json")["requested_points"] == 3
    assert doc["found_starts"] == 3
    assert doc["words"][0]["complete"]
    assert doc["words"][2]["word"] == []  # 8.0 is outside every cell
    assert not doc["words"][2]["complete"]


def test_seed_override_changes_seeded_artifacts(tmp_path):
    config = _write_config(tmp_path)
    for stage in ["calibrate", "segments"]:
        assert main([stage, "--config", str(config)]) == 0
    out = Path(json.loads(config.read_text())["output_dir"])
    assert main(["transitions", "--config", str(config)]) == 0
    base = (out / "transitions.json").read_bytes()
    assert main(["transitions", "--config", str(config), "--seed", "99"]) == 0
    reseeded = (out / "transitions.json").read_bytes()
    assert base != reseeded


@pytest.mark.parametrize("stage, field", [("enumerate", "enumerate_from"),
                                          ("bounds", "bounds_from")])
def test_start_cell_beyond_cover_is_config_error(pipeline, tmp_path, capsys, stage, field):
    _, _, out = pipeline
    n_cells = len(read_json(out / "cover.json")["radii"])
    config = _write_config(tmp_path, {"output_dir": str(out), field: n_cells + 1})
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"{field}: must be <= {n_cells}" in err
    assert "Traceback" not in err


def test_bounds_dead_start_is_runtime_error(tmp_path, capsys):
    # under dx/dt = x every sample of the outermost cell leaves the domain
    config = _write_config(tmp_path, {
        "model": {"model_id": "QuadraticGeneric", "dimension": 1,
                  "parameters": {"linear": [[1.0]], "quadratic": [[[0.0]]],
                                 "forcing": [0.0]}},
        "bounds_from": 8,
    })
    for stage in ["calibrate", "segments", "transitions"]:
        assert main([stage, "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["bounds", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: no admissible word of length 6 starts at 8\n"


def _assert_manifest_refused(config, manifest, capsys, names=""):
    # exit 1 and one line naming the manifest, never a traceback
    for argv in (["report", "--check"], ["report"], ["segments"]):
        capsys.readouterr()
        assert main(argv[:1] + ["--config", str(config)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest} ") and names in err
        assert err.count("\n") == 1


def test_corrupt_manifest_is_check_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["calibrate", "--config", str(config)]) == 0
    manifest = tmp_path / "out" / "manifest.json"
    manifest.write_text("{not json")
    _assert_manifest_refused(config, manifest, capsys)


@pytest.mark.parametrize("entry, names", [
    (5, "stage 'calibrate' is not an object"),
    ({"outputs": []}, "stage 'calibrate' field 'outputs' is not an object"),
    ({"summary": []}, "stage 'calibrate' field 'summary' is not an object"),
], ids=["entry-not-object", "outputs-list", "summary-list"])
def test_malformed_manifest_entry_is_check_error(tmp_path, capsys, entry, names):
    config = _write_config(tmp_path)
    assert main(["calibrate", "--config", str(config)]) == 0
    manifest = tmp_path / "out" / "manifest.json"
    doc = read_json(manifest)
    calibrate = doc["stages"]["calibrate"]
    doc["stages"]["calibrate"] = {**calibrate, **entry} if isinstance(entry, dict) else entry
    manifest.write_text(json.dumps(doc))
    _assert_manifest_refused(config, manifest, capsys, names)


def test_usage_error_exit_code_is_one(tmp_path, capsys):
    # one process builds one parser, and a usage error leaves it usable
    assert _build_parser() is _build_parser()
    assert main(["calibrate"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"segdyn {__version__}\n"
    config = _write_config(tmp_path)
    assert main(["calibrate", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "cover.json").exists()


@pytest.fixture
def renames(monkeypatch):
    """Every rename made while the test runs, as (target, existed) pairs: a
    rename over an existing name makes ext4 flush the new file first."""
    made = []
    replace = os.replace

    def counting_replace(src, dst):
        made.append((Path(dst), os.path.exists(dst)))
        replace(src, dst)
    monkeypatch.setattr(os, "replace", counting_replace)
    return made


def _dot_files(out) -> list:
    """Temporary and side files under an output directory."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob(".*"))


def test_stray_files_in_the_library_are_not_recorded(tmp_path):
    config = _write_config(tmp_path)
    assert main(["calibrate", "--config", str(config)]) == 0
    out = tmp_path / "out"
    # a dot file that no artifact write owns, so none removes it
    stray = out / "library" / ".notes.tmp"
    stray.parent.mkdir()
    stray.write_text("{")
    assert main(["segments", "--config", str(config)]) == 0
    assert sorted(load_manifest(out)["stages"]["segments"]["outputs"]) == [
        "library/library.json", "library/segments.npy", "max_difference.csv"]
    stray.unlink()
    assert main(["report", "--config", str(config), "--check"]) == 0


def test_writes_remove_the_temporary_files_of_killed_writes(tmp_path):
    # temporary files as writes killed in other processes leave them; the
    # next write of each target unlinks them, and no output changes
    config = Path(__file__).resolve().parent.parent / "configs" / "linear1d.json"
    out = tmp_path / "out"
    stale = [out / "library" / ".library.json.4242.tmp", out / ".cover.json.4242.tmp"]
    stale[0].parent.mkdir(parents=True)
    for path in stale:
        path.write_text("{")
    other = out / ".cover.json.x.tmp"   # not a process id: not a write's file
    other.write_text("{")
    for stage in ("calibrate", "segments"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
    assert _dot_files(out) == [other.name]
    other.unlink()
    for stage in ALL_STAGES[2:]:
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
    assert _dot_files(out) == []
    assert output_digests(out) == LINEAR1D_DIGESTS


def test_write_killed_between_its_renames_leaves_the_side_file(tmp_path, capsys):
    config = _write_config(tmp_path)
    for stage in ("calibrate", "segments"):
        assert main([stage, "--config", str(config)]) == 0
    out = tmp_path / "out"
    recorded = load_manifest(out)["stages"]
    # a kill between the renames leaves the previous file under its side name
    for name in ("manifest.json", "cover.json"):
        os.replace(out / name, side_path(out / name))
    assert load_manifest(out)["stages"] == recorded
    capsys.readouterr()
    assert main(["segments", "--config", str(config)]) == 3
    assert capsys.readouterr().err == (
        f"error: stage 'segments' needs artifact 'cover.json' (not found in {out}; an "
        "interrupted write left its previous bytes in .cover.json.prev); "
        "run the producing stage first\n")
    assert check_artifacts(out) == [
        "calibrate: cover.json is missing; an interrupted write left its previous "
        "bytes in .cover.json.prev"]
    # the next write of each file consumes its side file and keeps every stage
    assert main(["calibrate", "--config", str(config)]) == 0
    assert set(load_manifest(out)["stages"]) == {"calibrate", "segments"}
    assert load_manifest(out)["stages"]["segments"] == recorded["segments"]
    assert _dot_files(out) == []
    assert main(["report", "--config", str(config), "--check"]) == 0


def test_write_killed_after_its_renames_leaves_a_stale_side_file(tmp_path, renames):
    config = _write_config(tmp_path)
    assert main(["calibrate", "--config", str(config)]) == 0
    out = tmp_path / "out"
    # a kill after the second rename leaves the previous file next to the new one
    side_path(out / "manifest.json").write_text('{"stages": {}}')
    assert set(load_manifest(out)["stages"]) == {"calibrate"}
    assert main(["segments", "--config", str(config)]) == 0
    assert set(load_manifest(out)["stages"]) == {"calibrate", "segments"}
    # the stale side file is removed, not renamed over
    assert _dot_files(out) == [] and not any(existed for _, existed in renames)


@pytest.mark.parametrize("doc, message", [
    ({"centers": [[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]], "radii": [1.0, 1.0]},
     "has dimension 3, but the config's model has dimension 1"),
    ({"centers": [[0.0], [float("nan")]], "radii": [1.0, 1.0]},
     "is not a readable cover: "
     "ValueError('centers entry 1: [NaN] is not a list of finite JSON numbers')"),
    ({"balls": []}, "is not a readable cover: KeyError('centers')"),
    ({"centers": [[True]], "radii": [1.0]},
     "is not a readable cover: "
     "ValueError('centers entry 0: [true] is not a list of finite JSON numbers')"),
    ({"centers": [[0.0], ["1"]], "radii": [1.0, 1.0]},
     "is not a readable cover: "
     "ValueError('centers entry 1: [\"1\"] is not a list of finite JSON numbers')"),
    ({"centers": [[0.0], [1.0, 2.0]], "radii": [1.0, 1.0]},
     "is not a readable cover: "
     "ValueError('centers entry 1: [1.0, 2.0] has 2 coordinates, entry 0 has 1')"),
    ({"centers": [0.5], "radii": [1.0]},
     "is not a readable cover: "
     "ValueError('centers entry 0: 0.5 is not a list of finite JSON numbers')"),
    ({"centers": [[0.0]], "radii": ["0.5"]},
     "is not a readable cover: "
     "ValueError('radii entry 0: \"0.5\" is not a positive finite JSON number')"),
    ({"centers": [[0.0], [1.0]], "radii": [1.0, False]},
     "is not a readable cover: "
     "ValueError('radii entry 1: false is not a positive finite JSON number')"),
    ({"centers": [[0.0], [1.0]], "radii": [1.0]},
     "is not a readable cover: ValueError('1 radii for 2 centers')"),
    ({"centers": [[0.0]], "radii": [float("nan")]},
     "is not a readable cover: "
     "ValueError('radii entry 0: NaN is not a positive finite JSON number')"),
])
def test_cover_that_does_not_fit_is_check_error(tmp_path, capsys, doc, message):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    write_json(out / "cover.json", doc)
    for stage in ("segments", "transitions", "encode", "shadow", "entropy"):
        capsys.readouterr()
        assert main([stage, "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {out / 'cover.json'} {message}\n"
    assert sorted(p.name for p in out.iterdir()) == ["cover.json"]


def _edit_json(edit):
    def apply(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return apply


def _sparse_with_first_triplet(triplet):
    """Put ``triplet`` before the counts and p triplets of transitions.json."""
    def edit(doc):
        for key in ("counts", "p"):
            doc[key].insert(0, triplet)
    return _edit_json(edit)


def _edit_bytes(edit):
    def apply(path):
        path.write_bytes(edit(path.read_bytes()))
    return apply


def _edit_states(edit):
    """Save edit(states) over an .npy file as np.save writes it."""
    def apply(path):
        np.save(path, edit(np.load(path)), allow_pickle=True)
    return apply


def _with_nan_at(index):
    def edit(states):
        states[index] = np.nan
        return states
    return edit


@pytest.mark.parametrize("target, named, corrupt, mode, stages, message", [
    ("transitions.json", "transitions.json", _edit_json(lambda d: d.pop("escapes")),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: KeyError('escapes')"),
    ("transitions.json", "transitions.json", _edit_json(lambda d: d["counts"][0].pop()),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: "
     "ValueError('counts must be a list of (row, col, value) triplets')"),
    ("transitions.json", "transitions.json", _sparse_with_first_triplet([9, 1, 1]),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: "
     "ValueError('counts entry 0: row 9 is not a cell id in 1..8')"),
    ("tensors.json", "tensors.json", _edit_json(lambda d: d["tensors"][0].pop("tuples")),
     "tensor", ["enumerate"], "is not a readable tensor set: KeyError('tuples')"),
    ("tensors.json", "tensors.json",
     _edit_json(lambda d: d["tensors"][1]["tuples"].append([1, 99, 1])),
     "tensor", ["enumerate"],
     "is not a readable tensor set: ValueError('tuple (1, 99, 1) has a symbol outside 1..8')"),
    ("tensors.json", "tensors.json",
     _edit_json(lambda d: d["tensors"][1]["tuples"].insert(0, [True, 2, 4])),
     "tensor", ["enumerate"],
     "is not a readable tensor set: "
     "ValueError('tuples entry 0: [true, 2, 4] is not a list of integer cell ids')"),
    ("library/segments.npy", "library", _edit_bytes(lambda raw: raw[:-8]),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('segments.npy holds 568 data bytes, not 576')"),
    ("library/segments.npy", "library", _edit_bytes(lambda raw: raw + raw[-8:]),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('segments.npy holds 584 data bytes, not 576')"),
    ("library/segments.npy", "library", _edit_bytes(lambda raw: b""),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('segments.npy: EOF: reading magic string, expected 8 bytes got 0')"),
    ("library/segments.npy", "library", _edit_states(lambda s: s.astype(">f8")),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('segments.npy holds >f8 in C order, not <f8 in C order')"),
    ("library/segments.npy", "library", _edit_states(lambda s: s.astype(object)),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('segments.npy holds |O in C order, not <f8 in C order')"),
    ("library/segments.npy", "library", _edit_states(np.asfortranarray),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('segments.npy holds <f8 in Fortran order, not <f8 in C order')"),
    ("library/segments.npy", "library", _edit_states(lambda s: s[:-1]),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('segments.npy has shape (7, 9, 1), library.json says (8, 9, 1)')"),
    ("library/segments.npy", "library", _edit_states(_with_nan_at((2, 3, 0))),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('segments.npy: cell 3, sample 3, coordinate 0 is nan')"),
    ("library/library.json", "library", _edit_json(lambda d: d["times"].__setitem__(2, None)),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('library.json times are not 9 finite JSON numbers')"),
    ("transitions.json", "transitions.json", _sparse_with_first_triplet([1, 2, 2.5]),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: "
     "ValueError('counts entry 0: value 2.5 is not an int64 count')"),
    ("transitions.json", "transitions.json", _sparse_with_first_triplet([1, "abc", 1]),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: "
     "ValueError('counts entry 0: col \"abc\" is not a cell id in 1..8')"),
    ("transitions.json", "transitions.json",
     _edit_json(lambda d: d["p"][0].__setitem__(2, "abc")),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: "
     "ValueError('p entry 0: value \"abc\" is not a JSON number')"),
    ("tensors.json", "tensors.json",
     _edit_json(lambda d: d["tensors"][1]["tuples"].insert(0, [1, 2])),
     "tensor", ["enumerate"],
     "is not a readable tensor set: ValueError('tuples entry 0: [1, 2] does not have order 3')"),
    ("tensors.json", "tensors.json", _edit_json(lambda d: d["tensors"][1].update(order=3.0)),
     "tensor", ["enumerate"],
     "is not a readable tensor set: ValueError('order 3.0 is not a JSON integer')"),
    ("tensors.json", "tensors.json", _edit_json(lambda d: d["tensors"][1].update(n_cells="8")),
     "tensor", ["enumerate"],
     "is not a readable tensor set: ValueError('n_cells \"8\" is not a JSON integer')"),
    ("transitions.json", "transitions.json",
     _edit_json(lambda d: d["counts"][0].__setitem__(2, 16.5)),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: "
     "ValueError('counts entry 0: value 16.5 is not an int64 count')"),
    ("transitions.json", "transitions.json", _edit_json(lambda d: d.update(n_cells=9)),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: ValueError('n_cells 9 does not match the 8 escapes')"),
    ("transitions.json", "transitions.json", _edit_json(lambda d: d.update(n_cells=7)),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: ValueError('n_cells 7 does not match the 8 escapes')"),
    ("transitions.json", "transitions.json", _edit_json(lambda d: d.update(n_cells=8.0)),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: ValueError('n_cells 8.0 is not a JSON integer')"),
    ("transitions.json", "transitions.json", _edit_json(lambda d: d.update(format="dense")),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: ValueError('format \"dense\" is not \"sparse\"')"),
    ("library/library.json", "library", _edit_json(lambda d: d.update(horizon="1.0")),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('library.json horizon \"1.0\" is not a finite JSON number')"),
    ("library/library.json", "library", _edit_json(lambda d: d.update(integrator_step=True)),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('library.json integrator_step true is not a finite JSON number')"),
    ("library/library.json", "library", _edit_json(lambda d: d.update(horizon=10 ** 400)),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     f"ValueError('library.json horizon {10 ** 400} is not a finite JSON number')"),
    ("library/library.json", "library",
     _edit_json(lambda d: d["times"].__setitem__(2, 10 ** 400)),
     "markov", ["transitions", "shadow", "bounds"],
     "is not a readable segment library: "
     "ValueError('library.json times are not 9 finite JSON numbers')"),
    ("transitions.json", "transitions.json",
     _edit_json(lambda d: d["p"][0].__setitem__(0, float(d["p"][0][0]))),
     "markov", ["enumerate", "entropy", "bounds"],
     "is not a readable transition table: "
     "ValueError('p entry 0: row 1.0 is not a JSON integer')"),
], ids=["no-escapes", "ragged-counts", "sparse-row-out-of-range", "no-tuples",
        "symbol-out-of-range", "boolean-symbol", "truncated-npy", "over-long-npy",
        "empty-npy", "big-endian-npy", "pickled-npy", "fortran-order-npy",
        "npy-shape-not-library-json", "nan-sample", "null-time", "fractional-count",
        "string-col", "string-p-value",
        "short-tuple", "order-not-int", "n_cells-not-int", "dense-fractional-count",
        "n_cells-not-escapes", "n_cells-not-table-side", "transitions-n_cells-not-int",
        "format-dense", "string-horizon", "boolean-integrator-step", "horizon-past-float",
        "time-past-float", "p-float-row"])
def test_corrupt_upstream_artifact_is_check_error(pipeline, tmp_path, capsys, target, named,
                                                  corrupt, mode, stages, message):
    _, _, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy / target)
    config = _write_config(tmp_path, {"enumerate_mode": mode})
    for stage in stages:
        capsys.readouterr()
        assert main([stage, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {copy / named} {message}")
        assert err.count("\n") == 1


def test_p_that_disagrees_with_the_counts_is_refused(linear1d, tmp_path, capsys):
    # p's first entry at 0.9 instead of its counts' 0.4: row 1 sums to 1.3
    config, out = linear1d
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    doc = read_json(copy / "transitions.json")
    assert doc["p"][0] == [1, 3, 0.4]
    doc["p"][0][2] = 0.9
    (copy / "transitions.json").write_text(json.dumps(doc))
    for stage in ("enumerate", "entropy", "bounds"):
        capsys.readouterr()
        assert main([stage, "--config", str(config), "--out", str(copy)]) == 1
        assert capsys.readouterr().err == (
            f"error: {copy / 'transitions.json'} is not a readable transition table: "
            "ValueError('p entry 0: value 0.9 is not 0.4, the p that its counts give')\n")


def _drop_last_segment(out):
    lib = load_library(out / "library")
    save_library(SegmentLibrary(times=lib.times, states=lib.states[:-1], horizon=lib.horizon,
                                epsilon=lib.epsilon, model_id=lib.model_id, step=lib.step),
                 out / "library")


def _drop_last_ball(out):
    doc = read_json(out / "cover.json")
    doc["centers"].pop()
    doc["radii"].pop()
    write_json(out / "cover.json", doc)


@pytest.mark.parametrize("drop, first, second, stage", [
    (_drop_last_segment, ("cover.json", 8), ("library", 7), "transitions"),
    (_drop_last_segment, ("cover.json", 8), ("library", 7), "shadow"),
    (_drop_last_segment, ("library", 7), ("transitions.json", 8), "bounds"),
    (_drop_last_ball, ("cover.json", 7), ("library", 8), "transitions"),
    (_drop_last_ball, ("cover.json", 7), ("library", 8), "shadow"),
    (_drop_last_ball, ("cover.json", 7), ("transitions.json", 8), "entropy"),
], ids=["library-transitions", "library-shadow", "library-bounds", "cover-transitions",
        "cover-shadow", "cover-entropy"])
def test_inputs_that_disagree_on_the_cell_count_are_refused(pipeline, tmp_path, capsys, drop,
                                                            first, second, stage):
    _, _, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    drop(copy)
    config = _write_config(tmp_path)
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 1
    assert capsys.readouterr().err == (f"error: {copy / first[0]} has {first[1]} cells, "
                                       f"but {copy / second[0]} has {second[1]}\n")


def test_write_json_failure_keeps_previous_file(tmp_path):
    target = tmp_path / "doc.json"
    write_json(target, {"b": [1, 2], "a": 0.5})
    before = target.read_bytes()
    assert before == layout_oracle({"a": 0.5, "b": [1, 2]}).encode()
    with pytest.raises(TypeError):
        write_json(target, {"a": 1, "z": object()})
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_interrupted_write_keeps_previous_file(tmp_path):
    target = tmp_path / "segments.csv"
    write_atomic(target, ["cell,k\r\n", "1,0\r\n"])
    assert target.read_bytes() == b"cell,k\r\n1,0\r\n"

    def pieces():
        yield "cell,k\r\n"
        raise OSError("disk full")
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, pieces())
    assert target.read_bytes() == b"cell,k\r\n1,0\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["segments.csv"]


@pytest.mark.parametrize("step", ["aside", "in", "unlink"])
def test_write_failing_at_each_step_keeps_previous_file(tmp_path, monkeypatch, step):
    # the steps: rename the target to its side name, rename the temporary
    # file in, unlink the side file
    target = tmp_path / "doc.json"
    write_json(target, {"a": 1})
    before = target.read_bytes()
    side = side_path(target)
    replace, unlink = os.replace, Path.unlink

    def failing_replace(src, dst):
        if ((step == "aside" and Path(dst) == side)
                or (step == "in" and Path(src).name.endswith(".tmp"))):
            raise OSError(f"{step} failed")
        replace(src, dst)

    def failing_unlink(self, missing_ok=False):
        if step == "unlink" and self == side and self.exists():
            raise OSError(f"{step} failed")
        unlink(self, missing_ok=missing_ok)
    monkeypatch.setattr(os, "replace", failing_replace)
    monkeypatch.setattr(Path, "unlink", failing_unlink)
    with pytest.raises(OSError, match=f"{step} failed"):
        write_json(target, {"a": 2})
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


_NUMBERS = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e-300,
                     2 ** 63, 2 ** 64 + 1]))
_STRINGS = st.one_of(st.text(max_size=6),
                     st.sampled_from(["], [", ", ", "x, y", '"quoted"', "a\nb", "\u00e9\u2202"]))
_SCALARS = st.one_of(_NUMBERS, st.booleans(), st.none(), _STRINGS)


def _sequences(items, min_size=0):
    lists = st.lists(items, min_size=min_size, max_size=4)
    return st.one_of(lists, lists.map(tuple))


def _repeated(items, counts):
    """Lists of 1 to 3 drawn items repeated to one of ``counts`` items."""
    return st.tuples(st.lists(items, min_size=1, max_size=3), st.sampled_from(counts)).map(
        lambda a: [a[0][i % len(a[0])] for i in range(a[1])])


_ROW_COUNTS = [1, _ROWS_PER_BLOCK - 1, _ROWS_PER_BLOCK, _ROWS_PER_BLOCK + 1,
               2 * _ROWS_PER_BLOCK + 1]
_ITEM_COUNTS = [_ITEMS_PER_BLOCK - 1, _ITEMS_PER_BLOCK, _ITEMS_PER_BLOCK + 1,
                2 * _ITEMS_PER_BLOCK + 1]
# rows of scalars, some of numbers only, and tables of such rows with row
# counts on both sides of the encoder's block size
_ROW = st.one_of(_sequences(_NUMBERS, min_size=1), _sequences(_SCALARS))
_TABLE = st.one_of(_sequences(_ROW), _repeated(_ROW, _ROW_COUNTS))
# lists of small records, dicts of scalars and rows such as encoded words
_RECORDS = _repeated(st.dictionaries(_STRINGS, st.one_of(_SCALARS, _ROW), max_size=3),
                     _ROW_COUNTS)
# 2-D integer arrays: empty, single-row and block-boundary row counts; small
# and wide value ranges, negative values, values past 10^12 and near 2^64,
# and values whose tokens cross an 8-byte width (999999 and 1000000)
_INT_TABLES = st.tuples(
    st.sampled_from([np.int8, np.uint16, np.int64, np.uint64]),
    st.sampled_from([0, 1, 2, _INT_ROWS_PER_BLOCK - 1, _INT_ROWS_PER_BLOCK,
                     _INT_ROWS_PER_BLOCK + 1, 2 * _INT_ROWS_PER_BLOCK + 1]),
    st.sampled_from([1, 3, 20]),
    st.sampled_from([(0, 9), (-5, 5), (0, 10 ** 4), (10 ** 12, 10 ** 12 + 9),
                     (-(10 ** 13), 10 ** 13), (999_995, 1_000_004),
                     (-1_000_004, -999_995), (2 ** 64 - 10, None), (None, None)]),
    st.integers(0, 2 ** 32 - 1))


def _int_table(spec):
    dtype, rows, cols, (lo, hi), seed = spec
    info = np.iinfo(dtype)
    lo = info.min if lo is None else min(max(lo, info.min), info.max)
    hi = info.max if hi is None else min(max(hi, info.min), info.max)
    return np.random.default_rng(seed).integers(lo, hi, size=(rows, cols), dtype=dtype,
                                                endpoint=True)


# 1-D integer arrays and long lists of scalars, with item counts on both
# sides of the encoder's block size
_INT_ARRAYS = st.tuples(st.sampled_from([np.int16, np.int64, np.uint64]),
                        st.sampled_from([0, 1] + _ITEM_COUNTS), st.integers(0, 2 ** 32 - 1)).map(
    lambda a: np.random.default_rng(a[2]).integers(np.iinfo(a[0]).min, np.iinfo(a[0]).max,
                                                   size=a[1], dtype=a[0], endpoint=True))
_LEAVES = st.one_of(_SCALARS, _ROW, _TABLE, _RECORDS, _INT_TABLES.map(_int_table), _INT_ARRAYS,
                    _repeated(_SCALARS, _ITEM_COUNTS), st.just([]), st.just({}), st.just(()))
_DOCS = st.dictionaries(_STRINGS, st.recursive(_LEAVES, lambda inner: st.one_of(
    _sequences(inner),
    st.dictionaries(_STRINGS, inner, max_size=3),
    st.dictionaries(st.integers(-3, 3), inner, max_size=2)), max_leaves=8), max_size=4)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_write_json_writes_the_layout_oracle_bytes(tmp_path_factory, doc):
    target = tmp_path_factory.mktemp("oracle") / "doc.json"
    write_json(target, doc)
    assert target.read_bytes() == layout_oracle(doc).encode("utf-8")


# tensor tables: empty, one row, one spanning the vocabulary path's block
# boundary, and one whose values span more numbers than it holds
@pytest.mark.parametrize("order, n_cells, rows", [
    (2, 3, []),
    (3, 5, [(1, 5, 2)]),
    (3, 5, list(itertools.product(range(1, 6), repeat=3))[::-1]),
    (2, 10 ** 6, [(7, 500_000), (1, 10 ** 6), (7, 500_000)]),
], ids=["empty", "one-row", "vocabulary", "tolist"])
def test_write_json_writes_tensor_tables_as_their_rows(tmp_path, order, n_cells, rows):
    doc = {"tensors": [tensor_to_json(TransitionTensor(order=order, tuples=rows,
                                                       n_cells=n_cells))]}
    write_json(tmp_path / "tensors.json", doc)
    as_lists = {"tensors": [{"order": order, "n_cells": n_cells,
                             "tuples": sorted(map(list, set(rows)))}]}
    assert (tmp_path / "tensors.json").read_bytes() == layout_oracle(as_lists).encode("utf-8")


# integer tables whose item tokens ("999999, " and "1000000, ") or row-end
# tokens ("9999999],\n    [" and "10000000],\n    [" at the first depth)
# sit on both sides of an 8-byte width, negative and near 2^64, with row
# counts on both sides of the gather's block size, at two depths
@pytest.mark.parametrize("dtype, values", [
    (np.int64, [999_999, 1_000_000]),
    (np.int32, [9_999_999, 10_000_000]),
    (np.int64, [-100_000, -99_999]),
    (np.int64, [-1_000_000, -999_999]),
    (np.uint64, [2 ** 64 - 2, 2 ** 64 - 1]),
], ids=["items-8-9", "row-ends-16-17", "negative-items-8-9", "negative-row-ends-15-16",
        "uint64"])
@pytest.mark.parametrize("rows", [_INT_ROWS_PER_BLOCK - 1, _INT_ROWS_PER_BLOCK,
                                  _INT_ROWS_PER_BLOCK + 1])
@pytest.mark.parametrize("cols", [1, 2, 20])
def test_write_json_writes_integer_tables_across_token_widths(tmp_path, dtype, values, rows,
                                                              cols):
    table = np.random.default_rng(rows * cols).choice(np.array(values, dtype=dtype),
                                                      size=(rows, cols))
    write_json(tmp_path / "doc.json", {"w": table, "n": [{"w": table}]})
    as_lists = {"w": table.tolist(), "n": [{"w": table.tolist()}]}
    assert (tmp_path / "doc.json").read_bytes() == layout_oracle(as_lists).encode("utf-8")


# 1-d integer arrays: empty, one item, on both sides of a block boundary and
# over two blocks; unsigned values past int64 and negative values
@pytest.mark.parametrize("array", [
    np.zeros(0, dtype=np.int64),
    np.array([7], dtype=np.int32),
    np.arange(-3, _ITEMS_PER_BLOCK - 4, dtype=np.int64),
    np.arange(_ITEMS_PER_BLOCK + 1, dtype=np.int16) - 2 ** 14,
    np.arange(2 * _ITEMS_PER_BLOCK + 5, dtype=np.uint64) + np.uint64(2 ** 64 - 10 ** 5),
    np.array([-(2 ** 63), 2 ** 63 - 1, 0], dtype=np.int64),
], ids=["empty", "one", "one-block", "block-and-one", "uint64-two-blocks", "int64-extremes"])
def test_write_json_writes_1d_integer_arrays_as_their_lists(tmp_path, array):
    write_json(tmp_path / "doc.json", {"b": {"indptr": array}, "a": array, "c": [array]})
    as_lists = {"b": {"indptr": array.tolist()}, "a": array.tolist(), "c": [array.tolist()]}
    assert (tmp_path / "doc.json").read_bytes() == layout_oracle(as_lists).encode("utf-8")
    # one line each, as json.dumps writes the list
    assert f'"a": {json.dumps(array.tolist())},\n' in (tmp_path / "doc.json").read_text()


@pytest.mark.parametrize("array", [np.zeros((2, 3)), np.ones((2, 3), dtype=bool),
                                   np.arange(4.0), np.zeros((2, 2, 2), dtype=np.int64)],
                         ids=["float", "bool", "1-d", "3-d"])
def test_write_json_refuses_other_arrays(tmp_path, array):
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", {"a": array})
    assert list(tmp_path.iterdir()) == []


def test_manifest_holds_work_counters_that_the_report_leaves_out(pipeline):
    _, _, out = pipeline
    stages = load_manifest(out)["stages"]
    calibrate = stages["calibrate"]["counters"]
    assert set(calibrate) == {"bisection_rounds", "probe_passes", "rows_dropped"} | FAULTS
    assert calibrate["bisection_rounds"] > 0
    # the eight LinearDiagonal clouds of 34 probe rows: the cap's pass, the
    # floor's with rounds 1-2, then one pass per three rounds
    assert calibrate["probe_passes"] == 2 + math.ceil((calibrate["bisection_rounds"] - 2) / 3)
    transitions = stages["transitions"]
    assert set(transitions["counters"]) == {"rows_dropped", "start_draws", "start_hits"} | FAULTS
    # every cell keeps samples_per_cell of its hits; a round may hit more
    assert (transitions["counters"]["start_draws"] >= transitions["counters"]["start_hits"]
            >= transitions["n_cells"] * BASE_CONFIG["samples_per_cell"])
    for stage in ("encode", "shadow"):
        draws = stages[stage]["counters"]
        assert set(draws) == {"domain_draws", "covered_starts"} | FAULTS
        assert draws["covered_starts"] == 20 and draws["domain_draws"] >= 20
    # every stage records its minor page faults, a count of the process's own
    for stage in ALL_STAGES:
        faults = stages[stage].get("counters", {}).get("minor_faults")
        assert (type(faults) is int and faults >= 0) if FAULTS else faults is None
    report = read_json(out / "report.json")["stages"]
    assert all("counters" not in entry for entry in report.values())


# SHA-256 of every output of the bundled configs/linear1d.json pipeline,
# recorded before the live-row walker and the (d, M) RK4 kernel existed; for
# transitions.json when (row, col, value) triplets became its only form, and
# again when the gradient-ball rule moved out of it; enclosure.json and
# report.json when the image-ball enclosure replaced that rule and the report
# gained enclosure_misses; the library's files when segments.npy replaced
# segments.csv and library.json gained the times; every JSON file when lists
# of scalars went on one line, cover.json became a centers table and radii,
# and transitions.json dropped escape_fractions and unsupported_rows;
# manifest.json holds wall times, so it is left out
LINEAR1D_DIGESTS = {
    "bounds.json": "df089f39efb950f0b0a1d28552b7494bbaa8bb872902d6ee5d7ba760ebd0c81e",
    "cover.json": "b41b65df7fe7be64e2141c953f771cee6e120a02c120760570e364b2455e44e3",
    "enclosure.json": "505ee0a7ccf57afd7a6297ac9eb0e44cc9feaeadbf71038e4aaf0cf2baa72cb0",
    "entropy.json": "5aa34b8bb8173fa28acfe2f604d6a25fb90b64417e742c3e836bcf8ba1a14786",
    "enumeration.json": "0505041bc1993e4f1bb7300a8617c09b722ff36cb1c5de1416388df6055823bf",
    "library/library.json": "1c4bd4507ba5780f54add2cc24b7fa0bd12e4af0636a24c0b35a79fe335c7a4d",
    "library/segments.npy": "33faf16648cbd1058f7b8d884fca0272e59f83ae69613250a6ba0e89e845db4f",
    "max_difference.csv": "81fd9d2c7e531ad4bb40a7aa1c7dbcce0503bc1563b8b3f62ef7b25f2dafdeba",
    "report.json": "62e1fb5a9e34dd2b3d226a9eca9cd3040e93288f2b3e2fbc35ad6cd4b561bc43",
    "shadow_report.json": "e852507b7e55b21021fe1d68f41ea08c6cc939386ac6c53abca39623362aca66",
    "tensors.json": "d1b954ea07317b62c50c7013a54565b3d4080570cbf59493e8a3b142ccc2c333",
    "transitions.json": "d2125faefc29be6b15e45574075ec06baa0ca9c4a7faf2cd220f1bb84f4b86f2",
    "words.json": "cc9ca209fddf061efed028a50ef080a7a9a68372ddb0e945abd6f9d86aef4309",
}


@pytest.fixture(scope="module")
def linear1d(tmp_path_factory):
    config = Path(__file__).resolve().parent.parent / "configs" / "linear1d.json"
    out = tmp_path_factory.mktemp("linear1d") / "out"
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
    return config, out


def test_bundled_linear1d_outputs_keep_their_bytes(linear1d):
    found = output_digests(linear1d[1])
    assert sorted(found) == sorted(LINEAR1D_DIGESTS)
    changed = [name for name, digest in LINEAR1D_DIGESTS.items() if found[name] != digest]
    assert not changed, f"outputs whose bytes differ: {changed}"


def test_every_json_file_of_the_bundled_linear1d_run_has_the_layout(linear1d):
    out = linear1d[1]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.json"))
    assert files == sorted([n for n in LINEAR1D_DIGESTS if n.endswith(".json")]
                           + ["manifest.json"])
    for name in files:
        text = (out / name).read_text(encoding="utf-8")
        assert text == layout_oracle(json.loads(text)), name


def test_no_rename_goes_over_an_existing_file(tmp_path, renames):
    config = Path(__file__).resolve().parent.parent / "configs" / "linear1d.json"
    out = tmp_path / "out"
    for run in range(2):  # a fresh directory, then every stage again into it
        for stage in ALL_STAGES:
            assert main([stage, "--config", str(config), "--out", str(out)]) == 0
        assert renames, f"run {run} made no rename"
        assert [dst for dst, existed in renames if existed] == [], f"run {run}"
        renames.clear()
    assert _dot_files(out) == []
    assert output_digests(out) == LINEAR1D_DIGESTS


def test_bundled_linear1d_enclosure_holds_gamma(linear1d):
    _, out = linear1d
    tm = transitions_from_json(read_json(out / "transitions.json"))
    assert tm.indices.shape[0] == 12 and read_json(out / "enclosure.json")["indptr"][-1] == 22
    assert _gamma_outside_enclosure(out) == []
    assert read_json(out / "report.json")["summary"]["transitions"]["enclosure_misses"] == 0


def _bench_checks():
    """The benchmark's output checks, bench/segbench/checks.py, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "segbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("segbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_checks_accept_the_bundled_linear1d_outputs(linear1d):
    # the benchmark reads the artifacts with its own code; an output it cannot
    # read, or reads wrongly, would make it report outputs_incorrect
    config, out = linear1d
    checks = _bench_checks()
    doc = read_json(out / "transitions.json")
    assert checks.check_transitions(doc) == []
    gamma, p = checks.gamma_and_p(doc)
    tm = transitions_from_json(doc)
    assert np.array_equal(gamma, dense(tm) > 0) and np.array_equal(p, dense(tm, tm.p))
    for name, check in checks.pipeline_checks(out, load_config(config).epsilon):
        assert check() == [], name


def test_report_is_built_from_the_manifest_alone(linear1d, tmp_path):
    config, out = linear1d
    alone = tmp_path / "out"
    alone.mkdir()
    shutil.copyfile(out / "manifest.json", alone / "manifest.json")
    assert main(["report", "--config", str(config), "--out", str(alone)]) == 0
    assert sorted(p.name for p in alone.iterdir()) == ["manifest.json", "report.json"]
    assert (alone / "report.json").read_bytes() == (out / "report.json").read_bytes()
