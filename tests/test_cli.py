"""End-to-end CLI tests: demo assets, degradation manifests, restoration
runs, benchmark aggregation, and exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdls import cli, flowfield, pipeline
from pdls.cli import aggregate, build_parser, main
from pdls.datasets import shapes32_mixture
from pdls.degrade import ImageGrid
from pdls.fileio import read_mixture, read_pgm, write_mixture, write_pgm
from pdls.flowfield import Condition


def run(*argv):
    return main([str(a) for a in argv])


def run_python(code: str, *argv) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports pdls from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


class TestDemo:
    def test_writes_images_and_mixtures(self, tmp_path):
        out = tmp_path / "demo"
        assert run("demo", "--out", out, "--n-per-class", 2) == 0
        pgms = sorted((out / "shapes32").glob("*.pgm"))
        assert len(pgms) == 6
        assert (out / "toy2d.mix").exists()
        assert (out / "shapes32.mix").exists()
        index = json.loads((out / "index.json").read_text())
        assert len(index) == 6
        assert {e["label"] for e in index} == {"disk", "square", "cross"}

    def test_shapes32_mix_is_the_builtin_restore_mixture(self, tmp_path):
        out = tmp_path / "demo"
        assert run("demo", "--out", out, "--n-per-class", 2) == 0
        written = read_mixture(out / "shapes32.mix")
        args = build_parser().parse_args(["restore", "--out", str(tmp_path / "r")])
        builtin = shapes32_mixture(2, args.demo_seed, args.bandwidth)
        assert np.array_equal(written.weights, builtin.weights)
        assert np.array_equal(written.means, builtin.means)
        assert np.array_equal(written.variances, builtin.variances)
        assert written.labels == builtin.labels

    def test_no_exemplar_per_class_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert run("demo", "--out", out, "--n-per-class", 0) == 2
        assert "n_per_class must be >= 1" in capsys.readouterr().err
        assert not out.exists()


# (values that pass, extreme or malformed values) of each 'pdls degrade' flag
# and descriptor parameter, for test_every_run_gives_a_manifest_restore_reads_or_one_error_line.
_KERNEL_SIZE = (st.sampled_from([1, 3, 5, 7, 9, 15]), st.sampled_from([-3, 0, 4, 1027, "7.0", "x"]))
_DEGRADE_PARAMS = {
    "id": {},
    "gblur": {"size": _KERNEL_SIZE,
              "sigma": (st.floats(1e-3, 1e3), st.sampled_from([0.0, -1.0, 1e-300, 1e300,
                                                                "nan", "inf"]))},
    "mblur": {"size": _KERNEL_SIZE,
              "intensity": (st.floats(1e-3, 1.0), st.sampled_from([0.0, 1.5, "nan", "inf"])),
              "angle": (st.floats(-1e3, 1e3), st.sampled_from(["nan", "inf", "-inf"]))},
    "sr": {"factor": (st.integers(1, 8), st.sampled_from([0, -1, "2.0"]))},
    "inpaint": {"coverage": (st.floats(1e-3, 0.99), st.sampled_from([0.0, 1.0, "nan", "inf"])),
                "seed": (st.integers(0, 2**70), st.sampled_from([-1, "1.5"]))},
}
_DEGRADE_FLAGS = {
    "--limit": (st.integers(0, 4), st.sampled_from([-1, "x"])),
    "--sigma-y": (st.floats(0.0, 0.5) | st.just(1e300),
                  st.sampled_from([-0.1, "nan", "inf", "-inf", "x"])),
    "--seed": (st.integers(0, 2**70), st.sampled_from([-1, "x"])),
}


@st.composite
def degrade_inputs(draw):
    """A directory's PGM shapes (1-3 images of 1-40 pixels a side, of one size or
    not) and the flags of a 'pdls degrade --images' run on it: any descriptor,
    --limit, --sigma-y and --seed. Every value passes its own check except, in
    one drawn parameter or flag (or none), an extreme or malformed one."""
    sizes = st.tuples(st.integers(1, 40), st.integers(1, 40))
    first = draw(sizes)
    shapes = [first] + [draw(st.just(first) | sizes) for _ in range(draw(st.integers(0, 2)))]
    name = draw(st.sampled_from(sorted(_DEGRADE_PARAMS)))
    params = _DEGRADE_PARAMS[name]
    bad = draw(st.none() | st.sampled_from([*params, *_DEGRADE_FLAGS]))
    values = {key: draw(wrong if key == bad else ok)
              for key, (ok, wrong) in {**params, **_DEGRADE_FLAGS}.items()}
    op = ",".join(f"{key}={values[key]}" for key in params)
    flags = [f"--op={name}:{op}" if op else f"--op={name}"]
    flags += [f"{flag}={values[flag]}" for flag in _DEGRADE_FLAGS]
    return shapes, flags


class TestDegrade:
    def test_manifest_is_complete(self, tmp_path):
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", "gblur:size=7,sigma=1.5",
                   "--demo", "--n-per-class", 2, "--seed", 1) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["operator"] == "gblur:size=7,sigma=1.5"
        assert manifest["sigma_y"] == 0.01
        assert manifest["seed"] == 1
        assert len(manifest["records"]) == 6
        for rec in manifest["records"]:
            assert (out / rec["observed"]).exists()
            assert (out / rec["source"]).exists()

    def test_rerun_is_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("degrade", "--out", out, "--op", "mblur:size=7,intensity=0.5",
                       "--demo", "--n-per-class", 2, "--seed", 3) == 0
        for pa in sorted(a.glob("*.pgm")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_indivisible_downsample_is_a_config_error(self, tmp_path, capsys):
        src = tmp_path / "imgs"
        src.mkdir()
        write_pgm(src / "odd_000.pgm", ImageGrid(np.zeros((31, 31))))
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", "sr:factor=8",
                   "--images", src) == 2
        assert "factor must divide dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("op, message", [
        ("inpaint:seed=1.5", "operator 'inpaint:seed=1.5': seed must be int, not '1.5'"),
        ("inpaint:seed=-1", "operator 'inpaint:seed=-1': seed must be >= 0, not -1"),
    ])
    def test_a_bad_parameter_value_names_its_descriptor(self, tmp_path, capsys, op, message):
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", op, "--demo", "--n-per-class", 1) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("op, size", [("gblur:size=100001,sigma=3.0", 100001),
                                          ("mblur:size=99999999", 99999999)])
    def test_oversized_kernel_is_a_config_error(self, tmp_path, capsys, op, size):
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", op, "--demo", "--n-per-class", 1) == 2
        assert capsys.readouterr().err == (
            f"config error: kernel size must be at most 1025, not {size}\n")
        assert not out.exists()

    def test_unknown_operator_parameter_is_a_config_error(self, tmp_path, capsys):
        assert run("degrade", "--out", tmp_path / "deg", "--op", "gblur:sigma=3,siz=61",
                   "--demo", "--n-per-class", 1) == 2
        assert "has no parameter ['siz']" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma_y", ["nan", "inf", "-0.1"])
    def test_noise_level_that_is_not_finite_is_a_config_error(self, tmp_path, capsys,
                                                              sigma_y):
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", "id", "--demo", "--n-per-class", 1,
                   "--sigma-y", sigma_y) == 2
        assert "sigma_y must be finite and non-negative" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_negative_limit_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", "id", "--demo", "--n-per-class", 1,
                   "--limit", -1) == 2
        assert "--limit must be >= 0" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("op, message", [
        ("gblur:size=-1", "kernel size must be odd and >= 1"),
        ("gblur:size=-5", "kernel size must be odd and >= 1"),
        ("gblur:sigma=nan", "sigma must be finite and positive"),
        ("mblur:size=-3", "kernel size must be odd and >= 1"),
        ("mblur:angle=nan", "angle must be finite"),
    ])
    def test_blur_parameter_that_blanks_the_image_is_a_config_error(self, tmp_path, capsys,
                                                                     op, message):
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", op, "--demo", "--n-per-class", 1) == 2
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_no_exemplar_per_class_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", "id", "--demo", "--n-per-class", 0) == 2
        assert "n_per_class must be >= 1" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("size", [b"0 0", b"-2 3"])
    def test_image_of_no_positive_size_is_an_io_error(self, tmp_path, capsys, size):
        src = tmp_path / "imgs"
        src.mkdir()
        bad = src / "bad_000.pgm"
        bad.write_bytes(b"P5\n" + size + b"\n255\n")
        assert run("degrade", "--out", tmp_path / "deg", "--op", "id", "--images", src) == 4
        assert str(bad) in capsys.readouterr().err

    def test_a_directory_without_images_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", "id", "--images", tmp_path) == 4
        assert capsys.readouterr().err == f"I/O error: no PGM images in {tmp_path}\n"
        assert not out.exists()

    @pytest.mark.parametrize("op", ["gblur", "inpaint"])
    def test_images_of_mixed_sizes_are_a_config_error(self, tmp_path, capsys, op):
        src = tmp_path / "imgs"
        src.mkdir()
        write_pgm(src / "big_000.pgm", ImageGrid(np.full((32, 32), 0.5)))
        write_pgm(src / "small_000.pgm", ImageGrid(np.full((16, 16), 0.5)))
        out = tmp_path / "deg"
        assert run("degrade", "--out", out, "--op", op, "--images", src) == 2
        assert capsys.readouterr().err == (
            "config error: images differ in size: big_000.pgm is 32 x 32, "
            "small_000.pgm is 16 x 16\n")
        assert not out.exists()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(case=degrade_inputs())
    def test_every_run_gives_a_manifest_restore_reads_or_one_error_line(self, tmp_path_factory,
                                                                       case):
        # A run exits 0 with a manifest that 'pdls restore --steps 1' reads (on a
        # mixture of the images' dimension, exit 0 or 3), or exits 2 or 4 with
        # one stderr line and no --out; images of two sizes never exit 0.
        shapes, flags = case
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as scratch:
            src, out = Path(scratch) / "imgs", Path(scratch) / "deg"
            src.mkdir()
            rng = np.random.default_rng(0)
            for i, shape in enumerate(shapes):
                write_pgm(src / f"{'ab'[i % 2]}_{i:03d}.pgm", ImageGrid(rng.random(shape)))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["degrade", "--images", str(src), "--out", str(out), *flags])
            lines = err.getvalue().splitlines()
            if code != 0:
                assert code in (2, 4) and len(lines) == 1 and not out.exists(), (flags, lines)
                return
            limit = int(flags[1].partition("=")[2])
            kept = shapes[:limit] if limit > 0 else shapes
            assert lines == [] and len(set(kept)) == 1, (shapes, flags)
            h, w = kept[0]
            mixture = Path(scratch) / "m.mix"
            write_mixture(mixture, flowfield.GaussianMixture(
                [0.5, 0.5], rng.random((2, h * w)), [0.01, 0.0], ["a", "b"]))
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["restore", "--manifest", str(out / "manifest.json"), "--mixture",
                             str(mixture), "--steps", "1", "--out", str(Path(scratch) / "r")])
            assert code in (0, 3), (flags, err.getvalue())


class TestRestore:
    def test_toy_task_writes_metrics_and_paths(self, tmp_path):
        out = tmp_path / "toy"
        assert run("restore", "--out", out, "--task", "toy2d",
                   "--seeds", "0:3", "--steps", 8) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert {r["task"] for r in rows} == {"toy2d"}
        for name in ("structural_path.csv", "semantic_path.csv",
                     "steered_path.csv", "diagnostics.csv"):
            assert (out / name).exists()

    def test_config_flags_change_the_config_hash(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("restore", "--out", a, "--task", "toy2d", "--steps", 8) == 0
        assert run("restore", "--out", b, "--task", "toy2d", "--steps", 8,
                   "--eta-max", 0, "--init", "mixed") == 0
        with open(a / "metrics.csv", newline="") as fa, open(b / "metrics.csv", newline="") as fb:
            assert next(csv.DictReader(fa))["config"] != next(csv.DictReader(fb))["config"]

    def test_image_task_from_manifest(self, tmp_path):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "gblur:size=7,sigma=1.5",
                   "--demo", "--n-per-class", 2, "--limit", 2) == 0
        out = tmp_path / "res"
        assert run("restore", "--out", out, "--manifest", deg / "manifest.json",
                   "--n-per-class", 2, "--steps", 6, "--seeds", "0:2") == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 inputs x 2 seeds
        for r in rows:
            assert (out / r["recon_path"]).exists()
            assert float(r["psnr_db"]) > 0

    def test_image_task_requires_manifest(self, tmp_path, capsys):
        assert run("restore", "--out", tmp_path / "x") == 2
        assert "manifest" in capsys.readouterr().err

    def test_missing_manifest_is_an_io_error(self, tmp_path):
        assert run("restore", "--out", tmp_path / "x",
                   "--manifest", tmp_path / "nope.json") == 4

    @pytest.mark.parametrize("text", ['{"operator": "id", "records": [', '[1, 2]',
                                      '{"records": []}', '{"operator": "id"}'],
                             ids=["invalid-json", "not-an-object", "no-operator", "no-records"])
    def test_malformed_manifest_is_an_io_error(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert run("restore", "--out", tmp_path / "x", "--manifest", manifest) == 4
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("records, missing", [
        ('[{"id": "a", "label": "disk", "source": "a.pgm", "height": 32, "width": 32}]',
         "record 0 lacks ['observed']"),
        ('[{"id": "a", "label": "disk", "observed": "a.pgm", "source": "a.pgm", '
         '"height": 32, "width": 32}, 7]', "record 1 lacks"),
        ('{"id": "a"}', "records is not a list"),
    ], ids=["no-observed", "not-an-object", "records-not-a-list"])
    def test_malformed_manifest_record_is_an_io_error(self, tmp_path, capsys, records, missing):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(f'{{"operator": "id", "records": {records}}}')
        assert run("restore", "--out", tmp_path / "x", "--manifest", manifest) == 4
        err = capsys.readouterr().err
        assert str(manifest) in err and missing in err

    @pytest.mark.parametrize("edit, message", [
        ({"height": "32"}, "record 0 has wrongly typed ['height']"),
        ({"operator": 5}, "operator is not a string"),
        ({"observed": "small.pgm"}, "record 0's observation lifts to 900"),
        ({"source": "small.pgm"}, "its source has 9 pixels"),
    ], ids=["string-height", "int-operator", "wrong-size-observed", "wrong-size-source"])
    def test_wrongly_typed_or_sized_manifest_value_is_an_io_error(self, tmp_path, capsys,
                                                                   edit, message):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "sr:factor=8", "--demo",
                   "--n-per-class", 1, "--limit", 1) == 0
        write_pgm(deg / "small.pgm", ImageGrid(np.zeros((3, 3))))
        manifest = json.loads((deg / "manifest.json").read_text())
        for key, value in edit.items():
            (manifest if key == "operator" else manifest["records"][0])[key] = value
        (deg / "manifest.json").write_text(json.dumps(manifest))
        assert run("restore", "--out", tmp_path / "x", "--manifest", deg / "manifest.json",
                   "--n-per-class", 1, "--steps", 2) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("weight=0.5 variance=0 label=a mean=1,2\n"
         "weight=0.5 variance=0 label=b mean=1,2,3\n",
         "mean on line 2 has 3 values, the first record's 2"),
        ("# pdls mixture definition\n", "no components"),
        ("weight=0.5 variance=0 label=a mean=1,2\n"
         "weight=0.4 variance=0 label=b mean=3,4\n", "weights must sum to 1"),
        ("weight=nan variance=0 label=a mean=1,2\n"
         "weight=nan variance=0 label=b mean=3,4\n", "weights must be finite"),
        ("weight=0.5 variance=0 label=a mean=1,2\n"
         "weight=0.5 variance=inf label=b mean=3,4\n", "variances must be finite"),
        ("weight=0.5 variance=nan label=a mean=1,2\n"
         "weight=0.5 variance=0 label=b mean=3,4\n", "variances must be finite"),
    ], ids=["ragged-means", "no-components", "weights-not-summing-to-one", "nan-weights",
            "inf-variance", "nan-variance"])
    def test_malformed_mixture_is_an_io_error(self, tmp_path, capsys, text, message):
        mixture = tmp_path / "bad.mix"
        mixture.write_text(text)
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d",
                   "--mixture", mixture) == 4
        err = capsys.readouterr().err
        assert str(mixture) in err and message in err

    @pytest.mark.parametrize("sigma_y", ["nan", "inf", "-1"])
    def test_toy_noise_level_that_is_not_finite_is_a_config_error(self, tmp_path, capsys,
                                                                  sigma_y):
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d",
                   "--sigma-y", sigma_y) == 2
        assert "sigma_y must be finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("n_per_class", [0, -1])
    def test_no_exemplar_per_class_is_a_config_error(self, tmp_path, capsys, n_per_class):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "id", "--demo", "--n-per-class", 1) == 0
        assert run("restore", "--out", tmp_path / "r", "--manifest", deg / "manifest.json",
                   "--n-per-class", n_per_class) == 2
        assert "n_per_class must be >= 1" in capsys.readouterr().err

    def test_step_count_past_the_field_bound_is_a_config_error(self, tmp_path, capsys):
        assert run("restore", "--task", "toy2d", "--out", tmp_path / "r",
                   "--steps", 1001) == 2
        assert "n_steps must lie in [1, 1 / EPS_T = 1000]" in capsys.readouterr().err
        assert not (tmp_path / "r" / "metrics.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("gamma=0.5\nbogus=1\n")
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d",
                   "--config", cfgfile) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_a_config_line_without_equals_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("gamma=0.25\n\n# steps\nn_steps 8\n")
        out = tmp_path / "toy"
        assert run("restore", "--out", out, "--task", "toy2d", "--config", cfg) == 2
        assert capsys.readouterr().err == "config error: malformed config line 4: 'n_steps 8'\n"
        assert not out.exists()

    def test_seed_is_not_a_config_key(self, tmp_path, capsys):
        # Seeds come only from --seeds.
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("seed=5\n")
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d",
                   "--config", cfgfile) == 2
        assert "unknown config keys: ['seed']" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["1:2:3", "0:x", "a,b", "0,,1"])
    def test_malformed_seeds_are_a_config_error(self, tmp_path, capsys, seeds):
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d", "--seeds", seeds) == 2
        assert capsys.readouterr().err == (f"config error: --seeds {seeds!r} is neither a "
                                           "range a:b nor a comma list of integers\n")

    def test_a_huge_toy_noise_level_is_a_numerical_failure(self, tmp_path, capsys):
        # Every component's log-density is -inf; the field's NaN reaches the
        # drift check with no numpy warning (which the suite turns into an error).
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d", "--seeds", "0:1",
                   "--sigma-y", "1e308") == 3
        assert capsys.readouterr().err == "numerical failure: drift diverged at step 0\n"

    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_means_past_the_norm_bound_are_a_config_error(self, tmp_path, capsys, scale):
        # Means of +-scale e_1 (d = 5) would overflow the basis's Gram matrix
        # or the field's exponent; restore() rejects them before any draw.
        means = np.zeros((2, 5))
        means[:, 0] = scale, -scale
        mixture = tmp_path / "far.mix"
        write_mixture(mixture, flowfield.GaussianMixture([0.5, 0.5], means, [0.1, 0.1], "AB"))
        out = tmp_path / "x"
        assert run("restore", "--out", out, "--task", "toy2d", "--mixture", mixture) == 2
        assert capsys.readouterr().err == (
            f"config error: mixture means of norm past _MAX_NORM = {pipeline._MAX_NORM:.4g} "
            "would overflow the field's exponent\n")
        assert not out.exists()

    def test_empty_seed_range_is_a_config_error(self, tmp_path, capsys):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "id", "--demo",
                   "--n-per-class", 1, "--limit", 1) == 0
        for task in (("--manifest", deg / "manifest.json", "--seeds", "0:0"),
                     ("--task", "toy2d", "--seeds", "3:3")):
            assert run("restore", "--out", tmp_path / "x", *task) == 2
            assert "--seeds" in capsys.readouterr().err
        # A manifest without records is no error: it restores nothing.
        empty = tmp_path / "empty.json"
        empty.write_text('{"operator": "id", "records": []}')
        assert run("restore", "--out", tmp_path / "e", "--manifest", empty) == 0
        assert (tmp_path / "e" / "metrics.csv").read_text().count("\n") == 1

    def test_config_file_applies_values(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("# comment\ngamma=1.0\nn_steps=8\n")
        out = tmp_path / "toy"
        assert run("restore", "--out", out, "--task", "toy2d",
                   "--config", cfgfile, "--seeds", "0:1") == 0

    @pytest.mark.parametrize("prompt, condition", [("none", Condition.null()),
                                                   ("square", Condition.of("square"))])
    def test_a_fixed_prompt_conditions_every_record_on_it(self, tmp_path, monkeypatch,
                                                          prompt, condition):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "gblur:size=7,sigma=1.5",
                   "--demo", "--n-per-class", 1) == 0
        calls, real = [], cli.restore

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(cli, "restore", spy)
        assert run("restore", "--out", tmp_path / "res", "--manifest", deg / "manifest.json",
                   "--n-per-class", 2, "--steps", 6, "--seeds", "0:2", "--prompt", prompt) == 0
        [((_, _, prompts, _, _), results)] = calls
        assert prompts == [condition] * 6  # 3 records x 2 seeds
        # The same restore, built from the manifest's files without the CLI.
        manifest = json.loads((deg / "manifest.json").read_text())
        observed = [read_pgm(deg / r["observed"]).flatten() for r in manifest["records"]]
        want = pipeline.restore(np.repeat(observed, 2, axis=0), shapes32_mixture(2, 0),
                                [condition] * 6, pipeline.PdlsConfig(n_steps=6), [0, 1] * 3)
        for got, expected in zip(results, want, strict=True):
            assert np.array_equal(got.restored, expected.restored)

    @pytest.mark.parametrize("off", [("point_mass",), ("identity",), ("point_mass", "identity")])
    def test_toy_shortcuts_move_no_byte(self, tmp_path, monkeypatch, off):
        # The field's point-mass rows and the identity frame's plain copies
        # write the same bytes as the softmax and the frame's products.
        files = ("metrics.csv", "diagnostics.csv", "structural_path.csv",
                 "semantic_path.csv", "steered_path.csv")
        argv = ("restore", "--task", "toy2d", "--seeds", "0:20")
        assert run(*argv, "--out", tmp_path / "on") == 0
        if "point_mass" in off:
            monkeypatch.setattr(flowfield, "_point_masses", lambda logw: None)
        if "identity" in off:
            frame_of = pipeline._Frame.of
            def products(cls, mixture, observed, z0):
                frame = frame_of(mixture, observed, z0)
                assert frame.q0 is None
                d = mixture.dim
                n = len(observed)
                return pipeline._Frame(np.eye(d), np.zeros((n, 0, d)), frame.mixture)

            monkeypatch.setattr(pipeline._Frame, "of", classmethod(products))
        assert run(*argv, "--out", tmp_path / "off") == 0
        for name in files:
            assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "off" / name).read_bytes()

    def test_a_mixture_of_another_dimension_is_a_config_error(self, tmp_path, capsys):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "id", "--demo", "--n-per-class", 1) == 0
        mixture = tmp_path / "d100.mix"
        write_mixture(mixture, flowfield.GaussianMixture(
            np.full(3, 1 / 3), np.zeros((3, 100)), np.full(3, 1e-4), ["disk", "square", "cross"]))
        out = tmp_path / "r"
        assert run("restore", "--out", out, "--manifest", deg / "manifest.json",
                   "--mixture", mixture) == 2
        assert capsys.readouterr().err == (
            "config error: observations of shape (3, 1024) do not match the mixture's "
            "dimension 100\n")
        assert not out.exists()

    def test_a_manifest_of_mixed_image_sizes_is_a_config_error(self, tmp_path, capsys):
        # pdls degrade writes no such manifest, so a 16 x 16 record is added to its own.
        src = tmp_path / "imgs"
        src.mkdir()
        write_pgm(src / "big_000.pgm", ImageGrid(np.full((32, 32), 0.5)))
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "gblur", "--images", src) == 0
        write_pgm(deg / "small_000.pgm", ImageGrid(np.full((16, 16), 0.5)))
        manifest = json.loads((deg / "manifest.json").read_text())
        manifest["records"].append({"id": "small_000", "label": "small", "height": 16,
                                    "width": 16, "source": "small_000.pgm",
                                    "observed": "small_000.pgm"})
        (deg / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "r"
        assert run("restore", "--out", out, "--manifest", deg / "manifest.json") == 2
        assert capsys.readouterr().err == (
            f"config error: manifest {deg / 'manifest.json'}: record 'small_000' is 16 x 16, "
            "not record 0's 32 x 32\n")
        assert not out.exists()

    def test_unknown_prompt_label_is_a_config_error(self, tmp_path, capsys):
        # The prompt is resolved against the mixture before --out is made.
        assert run("restore", "--out", tmp_path / "toy", "--task", "toy2d",
                   "--prompt", "triangle") == 2
        assert capsys.readouterr().err == (
            "config error: condition labels ['triangle'] are not in the mixture, "
            "whose labels are ['A', 'B']\n")
        assert not (tmp_path / "toy").exists()

    def test_config_hash_values_are_pinned(self, tmp_path):
        # New metric rows group with existing run directories in 'bench' only
        # while these hashes stay fixed.
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("gamma=0.25\nbase=null\nschedule=constant\n")
        cases = {
            "7ec4d59ef6": (),
            "d1d3f1a411": ("--steps", 8, "--eta-max", 0, "--init", "mixed"),
            "13133201cf": ("--config", cfgfile),
        }
        for expected, flags in cases.items():
            out = tmp_path / expected
            assert run("restore", "--out", out, "--task", "toy2d", *flags) == 0
            with open(out / "metrics.csv", newline="") as fh:
                assert next(csv.DictReader(fh))["config"] == expected



@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    """A three-record gblur manifest, one image per shapes32 class."""
    deg = tmp_path_factory.mktemp("small") / "deg"
    assert run("degrade", "--out", deg, "--op", "gblur:size=7,sigma=1.5", "--demo",
               "--n-per-class", 1) == 0
    return deg / "manifest.json"


def tree(root: Path) -> dict:
    """Every path under root, with its bytes for a file and None for a directory."""
    return {p: (p.read_bytes() if p.is_file() else None) for p in sorted(root.rglob("*"))}


def edited_manifest(manifest: Path, path: Path, ids) -> Path:
    """The first len(ids) of manifest's records, renamed to ids, written to path
    beside manifest so that their image file names still resolve."""
    data = json.loads(manifest.read_text())
    data["records"] = [dict(rec, id=i) for rec, i in zip(data["records"], ids)]
    path.write_text(json.dumps(data))
    return path


class TestRestoreOutputs:
    """An image restore makes --out and its reconstruction files on a worker
    thread while it restores; a failed run removes what that worker made."""

    def restore(self, manifest, out, *flags):
        return run("restore", "--out", out, "--manifest", manifest, "--n-per-class", 1,
                   "--steps", 2, *flags)

    @pytest.mark.parametrize("record_id", ["../escaped", "sub/dir", "", ".", "..", "a\0b"],
                             ids=["parent", "subdir", "empty", "dot", "dotdot", "nul"])
    def test_a_record_id_that_is_not_a_file_name_is_an_io_error(self, tmp_path, capsys,
                                                                small_manifest, record_id):
        manifest = edited_manifest(small_manifest, small_manifest.with_name("ids.json"),
                                   ["a", record_id])
        work = tmp_path / "work"
        work.mkdir()
        try:
            before = tree(small_manifest.parent)
            assert self.restore(manifest, work / "out") == 4
            assert tree(small_manifest.parent) == before
        finally:
            manifest.unlink()
        assert list(tmp_path.rglob("*")) == [work]  # no escaped_s0_recon.pgm beside out
        err = capsys.readouterr().err
        assert err == (f"I/O error: manifest {manifest}: record 1's id {record_id!r} is not a "
                       "file name\n")

    def test_a_diverging_restore_leaves_no_parent_behind(self, tmp_path, capsys, monkeypatch,
                                                          small_manifest):
        out = tmp_path / "a" / "b" / "out"
        names = [f"{r['id']}_s0_recon.pgm"
                 for r in json.loads(small_manifest.read_text())["records"]]

        def diverge(*args):
            # Wait until the worker has made every file, then fail as a drift would.
            for _ in range(1000):
                if all((out / name).exists() for name in names):
                    break
                time.sleep(0.01)
            raise cli.DriftDivergedError("drift diverged at step 0")

        monkeypatch.setattr(cli, "restore", diverge)
        threads = threading.active_count()
        assert self.restore(small_manifest, out) == 3
        assert capsys.readouterr().err == "numerical failure: drift diverged at step 0\n"
        assert not (tmp_path / "a").exists() and threading.active_count() == threads

    def test_an_interrupted_restore_leaves_no_out(self, tmp_path, monkeypatch, small_manifest):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "restore", interrupt)
        with pytest.raises(KeyboardInterrupt):
            self.restore(small_manifest, tmp_path / "p" / "out")
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_run_keeps_the_files_that_were_there(self, tmp_path, monkeypatch,
                                                          small_manifest):
        out = tmp_path / "out"
        assert self.restore(small_manifest, out) == 0
        before = tree(out)

        def diverge(*args):
            raise cli.DriftDivergedError("drift diverged at step 1")

        monkeypatch.setattr(cli, "restore", diverge)
        # The worker skips the seed-0 files that exist and makes the seed-1 ones.
        assert self.restore(small_manifest, out, "--seeds", "0:2") == 3
        assert tree(out) == before

    def test_an_out_under_a_regular_file_is_one_io_error_line(self, tmp_path, capsys,
                                                              small_manifest):
        (tmp_path / "file").write_text("x")
        out = tmp_path / "file" / "out"
        assert self.restore(small_manifest, out) == 4
        assert capsys.readouterr().err == f"I/O error: [Errno 20] Not a directory: '{out}'\n"
        assert tree(tmp_path) == {tmp_path / "file": b"x"}

    def test_a_record_file_the_worker_cannot_create_removes_what_it_made(self, tmp_path, capsys,
                                                                        small_manifest):
        manifest = edited_manifest(small_manifest, small_manifest.with_name("long.json"),
                                   ["a", "b" * 300])
        try:
            assert self.restore(manifest, tmp_path / "p" / "out") == 4
        finally:
            manifest.unlink()
        assert "File name too long" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_parents_are_made_with_mkdirs_mode(self, tmp_path, small_manifest):
        out = tmp_path / "p" / "q" / "out"
        assert self.restore(small_manifest, out) == 0
        probe = tmp_path / "probe"
        probe.mkdir()
        for d in (tmp_path / "p", tmp_path / "p" / "q", out):
            assert d.stat().st_mode == probe.stat().st_mode
        written = tmp_path / "written"
        write_pgm(written, ImageGrid(np.zeros((2, 2))))
        recons = sorted(out.glob("*_recon.pgm"))
        assert len(recons) == 3
        assert {p.stat().st_mode for p in recons} == {written.stat().st_mode}

    def test_a_second_run_keeps_other_files_and_writes_the_fresh_bytes(self, tmp_path,
                                                                      small_manifest):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert self.restore(small_manifest, out, "--seeds", "1") == 0
        (out / "notes.txt").write_text("mine")
        assert self.restore(small_manifest, out) == 0
        assert self.restore(small_manifest, fresh) == 0
        again = {p.relative_to(out): b for p, b in tree(out).items()}
        assert again.pop(Path("notes.txt")) == b"mine"
        assert len([p for p in again if "_s1_" in p.name]) == 3  # the first run's, kept
        again = {p: b for p, b in again.items() if "_s1_" not in p.name}
        assert again == {p.relative_to(fresh): b for p, b in tree(fresh).items()}

    def test_duplicate_record_ids_keep_the_last_write(self, tmp_path, small_manifest):
        paths = [small_manifest.with_name(f"{name}.json") for name in ("dup", "distinct")]
        try:
            dup = edited_manifest(small_manifest, paths[0], ["x", "x", "x"])
            distinct = edited_manifest(small_manifest, paths[1], ["y", "z", "x"])
            assert self.restore(dup, tmp_path / "dup") == 0
            assert self.restore(distinct, tmp_path / "distinct") == 0
        finally:
            for path in paths:
                path.unlink()
        with open(tmp_path / "dup" / "metrics.csv", newline="") as fh:
            assert [r["recon_path"] for r in csv.DictReader(fh)] == ["x_s0_recon.pgm"] * 3
        assert sorted(p.name for p in (tmp_path / "dup").iterdir()) == [
            "diagnostics.csv", "metrics.csv", "x_s0_recon.pgm"]
        assert ((tmp_path / "dup" / "x_s0_recon.pgm").read_bytes()
                == (tmp_path / "distinct" / "x_s0_recon.pgm").read_bytes())

    def test_a_seed_range_gives_a_file_per_record_and_seed(self, tmp_path, small_manifest):
        out = tmp_path / "out"
        assert self.restore(small_manifest, out, "--seeds", "0:3") == 0
        ids = [r["id"] for r in json.loads(small_manifest.read_text())["records"]]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["diagnostics.csv", "metrics.csv"]
            + [f"{i}_s{s}_recon.pgm" for i in ids for s in range(3)])


class TestBench:
    def _toy_metrics(self, tmp_path, name, extra=()):
        out = tmp_path / name
        args = ["restore", "--out", out, "--task", "toy2d",
                "--seeds", "0:4", "--steps", 8, *extra]
        assert run(*args) == 0
        return out

    def test_aggregate_matches_manual_mean(self, tmp_path):
        a = self._toy_metrics(tmp_path, "a")
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", a / "metrics.csv") == 0
        with open(a / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        manual = np.mean([float(r["mse"]) for r in rows])
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 1
        assert abs(float(summary[0]["mse_mean"]) - manual) < 1e-12
        assert int(summary[0]["n"]) == 4

    def test_non_finite_values_are_counted_as_dropped(self, tmp_path, capsys):
        rows = [{"task": "toy2d", "config": "c", "mse": "0.0", "psnr_db": "inf",
                 "ssim": "", "class_acc": "1"},
                {"task": "toy2d", "config": "c", "mse": "0.5", "psnr_db": "3.0",
                 "ssim": "", "class_acc": "0"}]
        (entry,) = aggregate(rows)
        assert entry["psnr_db_mean"] == 3.0 and entry["psnr_db_dropped"] == 1
        assert entry["mse_dropped"] == entry["ssim_dropped"] == 0
        metrics = tmp_path / "metrics.csv"
        header = "task,input,seed,config,mse,psnr_db,ssim,class_acc,recon_path\n"
        metrics.write_text(header + "toy2d,a,0,c,0.0,inf,,1,\ntoy2d,b,1,c,0.5,3.0,,0,\n")
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", metrics) == 0
        assert "psnr_db_dropped=1" in capsys.readouterr().out
        with open(out / "summary.csv", newline="") as fh:
            (summary,) = list(csv.DictReader(fh))
        assert summary["psnr_db_dropped"] == "1"
        assert summary["mse_dropped"] == "0"

    def test_two_configs_give_two_rows(self, tmp_path):
        a = self._toy_metrics(tmp_path, "a")
        b = self._toy_metrics(tmp_path, "b", extra=["--eta-max", "0"])
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics",
                   a / "metrics.csv", b / "metrics.csv") == 0
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 2

    def _bench_rows(self, tmp_path, metrics):
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", *metrics) == 0
        with open(out / "summary.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    # A "toy2d " prefix runs the flag on the toy2d task instead of a manifest.
    @pytest.mark.parametrize("flags", [
        ("--op", "gblur:size=7,sigma=1.0", "gblur:size=7,sigma=3.0"),
        ("--sigma-y", 0.01, 0.05),
        ("toy2d --sigma-y", 0.01, 0.5),
    ])
    def test_differently_degraded_manifests_give_two_rows(self, tmp_path, flags):
        flag, *values = flags
        task, _, flag = flag.rpartition(" ")
        metrics = []
        for i, value in enumerate(values):
            res = tmp_path / f"res{i}"
            if task:
                self._toy_metrics(tmp_path, res.name, ["--seeds", "0:2", flag, value])
            else:
                deg = tmp_path / f"deg{i}"
                args = {"--op": "gblur:size=7,sigma=1.5", "--sigma-y": 0.01, flag: value}
                assert run("degrade", "--out", deg, "--demo", "--n-per-class", 2, "--limit", 2,
                           *[x for kv in args.items() for x in kv]) == 0
                assert run("restore", "--out", res, "--manifest", deg / "manifest.json",
                           "--n-per-class", 2, "--steps", 4) == 0
            metrics.append(res / "metrics.csv")
        summary = self._bench_rows(tmp_path, metrics)
        assert len(summary) == 2
        assert {r["n"] for r in summary} == {"2"}

    @pytest.mark.parametrize("flag", ["--bandwidth", "--mixture", "toy2d --mixture"])
    def test_restores_on_different_mixtures_give_two_rows(self, tmp_path, flag):
        task, _, flag = flag.rpartition(" ")
        deg = tmp_path / "deg"
        if not task:
            assert run("degrade", "--out", deg, "--op", "gblur:size=7,sigma=1.5", "--demo",
                       "--n-per-class", 2, "--limit", 2) == 0
        metrics = []
        for i, bandwidth in enumerate((1e-4, 1e-2)):
            value = bandwidth
            if flag == "--mixture":
                value = tmp_path / f"mix{i}"
                write_mixture(value, shapes32_mixture(2, 0, bandwidth) if not task else
                              flowfield.GaussianMixture([0.5, 0.5], [[2.0, 0.0], [-2.0, 0.0]],
                                                        [bandwidth] * 2, "AB"))
            res = tmp_path / f"res{i}"
            if task:
                self._toy_metrics(tmp_path, res.name, ["--seeds", "0:2", flag, value])
            else:
                assert run("restore", "--out", res, "--manifest", deg / "manifest.json",
                           "--n-per-class", 2, "--steps", 4, flag, value) == 0
            metrics.append(res / "metrics.csv")
        summary = self._bench_rows(tmp_path, metrics)
        assert len(summary) == 2
        assert {r["n"] for r in summary} == {"2"}

    def test_trajectory_plot_has_three_polylines(self, tmp_path):
        a = self._toy_metrics(tmp_path, "a")
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", a / "metrics.csv",
                   "--trajectories", a) == 0
        svg = (out / "trajectories.svg").read_text()
        assert svg.count("<polyline") == 3
        assert svg.count("<circle") == 3 * 9  # three 8-step paths, 9 nodes each

    @pytest.mark.parametrize("steps", range(1, 17))
    def test_trajectory_labels_do_not_overlap(self, tmp_path, steps):
        run_dir = tmp_path / "r"
        assert run("restore", "--task", "toy2d", "--out", run_dir, "--steps", steps) == 0
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", run_dir / "metrics.csv",
                   "--trajectories", run_dir) == 0
        svg = (out / "trajectories.svg").read_text()
        ys = [float(y) for y in re.findall(r'<text x="8" y="([^"]+)"', svg)]
        assert len(ys) == 3 and len(set(ys)) == 3

    def test_missing_metrics_file_fails(self, tmp_path, capsys):
        out = tmp_path / "bench"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("bench", "--out", out, "--metrics", a, b) == 4
        assert capsys.readouterr().err == f"I/O error: missing runs: {a}, {b}\n"
        assert not out.exists()

    def test_a_missing_reconstruction_is_an_io_error(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("task,input,seed,config,mse,psnr_db,ssim,class_acc,recon_path\n"
                           "image,a,0,c,0.1,10,0.5,1,recon/a.pgm\n")
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", metrics) == 4
        assert capsys.readouterr().err == (
            f"I/O error: missing runs: {tmp_path / 'recon' / 'a.pgm'}\n")
        assert not out.exists()

    def test_a_missing_file_is_named_once(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("task,input,seed,config,mse,psnr_db,ssim,class_acc,recon_path\n"
                           "image,a,0,c,0.1,10,0.5,1,a.pgm\nimage,b,0,c,0.1,10,0.5,1,b.pgm\n"
                           "image,a,1,c,0.1,10,0.5,1,a.pgm\n")
        missing = tmp_path / "missing.csv"
        assert run("bench", "--out", tmp_path / "bench", "--metrics", missing, metrics,
                   missing) == 4
        assert capsys.readouterr().err == (
            f"I/O error: missing runs: {missing}, {tmp_path / 'a.pgm'}, {tmp_path / 'b.pgm'}\n")

    @pytest.mark.parametrize("text, message", [
        ("task,input,seed,config,mse,psnr_db,ssim,class_acc\ntoy2d,a,0,c,0.1,1,,1\n",
         "lacks columns ['recon_path']"),
        ("task,input,seed,config,mse,psnr_db,ssim,class_acc,recon_path\n"
         "toy2d,a,0,c,abc,1,,1,\n", "line 2: could not convert string to float: 'abc'"),
    ], ids=["no-recon-path", "non-numeric-metric"])
    def test_malformed_metrics_file_is_an_io_error(self, tmp_path, capsys, text, message):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(text)
        assert run("bench", "--out", tmp_path / "bench", "--metrics", metrics) == 4
        err = capsys.readouterr().err
        assert str(metrics) in err and message in err

    def test_malformed_trajectory_file_is_an_io_error(self, tmp_path, capsys):
        a = self._toy_metrics(tmp_path, "a")
        path = a / "semantic_path.csv"
        path.write_text("t,x0,x1\n0.0,1,2\n0.5,1,2\n0.25,1,2\n")
        assert run("bench", "--out", tmp_path / "bench", "--metrics", a / "metrics.csv",
                   "--trajectories", a) == 4
        err = capsys.readouterr().err
        assert str(path) in err and "strictly monotone" in err

    def test_image_strip(self, tmp_path):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "id",
                   "--demo", "--n-per-class", 2, "--limit", 2) == 0
        res = tmp_path / "res"
        assert run("restore", "--out", res, "--manifest", deg / "manifest.json",
                   "--n-per-class", 2, "--steps", 6) == 0
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", res / "metrics.csv",
                   "--strip", 2) == 0
        assert (out / "strip.pgm").exists()

    def test_strip_reads_each_row_from_its_own_run(self, tmp_path):
        # Two runs of one manifest share file names; each tile must come from its own run.
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "gblur:size=7,sigma=1.5",
                   "--demo", "--n-per-class", 1) == 0
        runs = [tmp_path / "a", tmp_path / "b"]
        for res, steps in zip(runs, (4, 12)):
            assert run("restore", "--out", res, "--manifest", deg / "manifest.json",
                       "--n-per-class", 2, "--steps", steps) == 0
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", *[r / "metrics.csv" for r in runs],
                   "--strip", 6) == 0
        strip = read_pgm(out / "strip.pgm").pixels
        expected = []
        for res in runs:
            with open(res / "metrics.csv", newline="") as fh:
                expected += [read_pgm(res / r["recon_path"]).pixels for r in csv.DictReader(fh)]
        assert len(expected) == 6 and strip.shape == (32, 6 * 33 - 1)
        assert not np.array_equal(expected[0], expected[3])
        for i, tile in enumerate(expected):
            assert np.array_equal(strip[:, 33 * i: 33 * i + 32], tile)


# Flag values the CLI fails on before it makes --out, a diverging restore among
# them: (argv without --out, exit code, text the one error line names). {cfg}
# is a config file holding n_steps=2.5, {metrics} a toy run's metrics file,
# {traj} a directory whose steered_path.csv is _TRAJECTORY_CSV's bytes for the
# case or a header alone, {strip} a directory whose metrics.csv names a
# 32 x 32 tall.pgm and a 16 x 16 short.pgm, and {bad} a file that is not UTF-8.
_REJECTED = {
    "negative-seeds": (("restore", "--task", "toy2d", "--seeds=-1,2"), 2, "--seeds '-1,2'"),
    "negative-seed-range": (("restore", "--task", "toy2d", "--seeds=-2:0"), 2, "--seeds"),
    "demo-negative-seed": (("demo", "--seed", "-1"), 2, "argument --seed: '-1'"),
    "degrade-negative-demo-seed": (("degrade", "--op", "id", "--demo", "--demo-seed", "-1"),
                                   2, "argument --demo-seed: '-1'"),
    "degrade-negative-seed": (("degrade", "--op", "id", "--demo", "--seed", "-3",
                               "--n-per-class", "1"), 2, "argument --seed: '-3'"),
    "restore-negative-demo-seed": (("restore", "--task", "toy2d", "--demo-seed", "-4"),
                                   2, "argument --demo-seed: '-4'"),
    "gblur-huge-sigma": (("degrade", "--op", "gblur:sigma=1e200", "--demo",
                          "--n-per-class", "1"), 2, "sigma 1e+200 overflows"),
    "gblur-tiny-sigma": (("degrade", "--op", "gblur:sigma=1e-200", "--demo",
                          "--n-per-class", "1"), 2, "sigma 1e-200 overflows"),
    "config-not-an-int": (("restore", "--task", "toy2d", "--config", "{cfg}"), 2,
                          "config file {cfg}: n_steps must be int, not '2.5'"),
    "negative-strip": (("bench", "--metrics", "{metrics}", "--strip", "-1"), 2, "--strip"),
    "huge-toy-noise": (("restore", "--task", "toy2d", "--sigma-y", "1e300"), 3,
                       "numerical failure: drift diverged at step 0"),
    "empty-trajectory": (("bench", "--metrics", "{metrics}", "--trajectories", "{traj}"), 4,
                         "{traj}/steered_path.csv: malformed trajectory CSV header"),
    "header-only-trajectory": (("bench", "--metrics", "{metrics}", "--trajectories", "{traj}"),
                               4, "{traj}/steered_path.csv: trajectory CSV has no rows"),
    "one-coordinate-trajectory": (("bench", "--metrics", "{metrics}", "--trajectories",
                                   "{traj}"), 4,
                                  "{traj}/steered_path.csv: 1 coordinate(s), not the plot's two"),
    "strip-of-two-heights": (("bench", "--metrics", "{strip}/metrics.csv", "--strip", "2"), 2,
                             "--strip: {strip}/tall.pgm is 32 pixels high, {strip}/short.pgm "
                             "is 16; a strip's images share one height"),
    "degrade-without-source": (("degrade", "--op", "id"), 2,
                               "one of the arguments --images --demo is required"),
    "degrade-with-both-sources": (("degrade", "--op", "id", "--demo", "--images", "{strip}"), 2,
                                  "argument --images: not allowed with argument --demo"),
    "manifest-not-utf8": (("restore", "--manifest", "{bad}"), 4,
                          "manifest {bad} is not UTF-8 text"),
    "mixture-not-utf8": (("restore", "--task", "toy2d", "--mixture", "{bad}"), 4,
                         "mixture {bad} is not UTF-8 text"),
    "config-not-utf8": (("restore", "--task", "toy2d", "--config", "{bad}"), 2,
                        "config error: config file {bad} is not UTF-8 text"),
    "metrics-not-utf8": (("bench", "--metrics", "{bad}"), 4, "metrics {bad} is not UTF-8 text"),
    "trajectory-not-utf8": (("bench", "--metrics", "{metrics}", "--trajectories", "{traj}"), 4,
                            "trajectory {traj}/steered_path.csv: 'utf-8' codec can't decode"),
}
_NOT_UTF8 = b"\xff\xfe"
_TRAJECTORY_CSV = {"empty-trajectory": b"", "trajectory-not-utf8": _NOT_UTF8,
                   "one-coordinate-trajectory": b"t,x_0\n0.0,1.5\n1.0,0.2\n"}


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_run")
    assert run("restore", "--out", out, "--task", "toy2d", "--seeds", "0:2", "--steps", 4) == 0
    return out


@pytest.mark.parametrize("case", _REJECTED)
def test_rejected_flag_exits_with_one_error_line(tmp_path, capsys, toy_run, case):
    argv, code, named = _REJECTED[case]
    traj = tmp_path / "traj"
    traj.mkdir()
    (traj / "steered_path.csv").write_bytes(_TRAJECTORY_CSV.get(case, b"t,x_0,x_1\n"))
    cfg = tmp_path / "cfg"
    cfg.write_text("n_steps=2.5\n")
    bad = tmp_path / "bad"
    bad.write_bytes(_NOT_UTF8)
    strip = tmp_path / "strip"
    strip.mkdir()
    rows = []
    for name, size in (("tall", 32), ("short", 16)):
        write_pgm(strip / f"{name}.pgm", ImageGrid(np.zeros((size, size))))
        rows.append(f"gblur,{name},0,c,0.1,20,0.5,1,{name}.pgm\n")
    (strip / "metrics.csv").write_text(",".join(cli._METRICS_HEADER) + "\n" + "".join(rows))
    paths = {"cfg": cfg, "metrics": toy_run / "metrics.csv", "traj": traj, "strip": strip,
             "bad": bad}
    out = tmp_path / "out"
    got = main([a.format(**paths) for a in argv] + ["--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert got == code
    assert len(lines) == 1 and named.format(**paths) in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [("restore", "--steps", "x"), ("restore", "--init", "nonsense"),
                                  ("restore", "--bogus"), ("frobnicate",), ()],
                         ids=["bad-type", "bad-choice", "unknown-flag", "unknown-command",
                              "no-command"])
def test_argparse_rejections_are_one_config_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)] if argv else []) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: ")
    assert not out.exists()


# Flags for test_any_argv_exits_with_a_documented_code, per command: fixed
# tokens, then the required and the optional flags, each with its values that
# pass its checks and its extreme (+-inf, nan, 1e300, negative) or malformed
# ones. A tuple is tokens as they stand, flag names included, so it can hold
# several values of one flag or name no flag at all (degrade's input source);
# {name} is one of cli_assets' files. Sizes stay small (toy2d, one exemplar
# per class, one or two images, at most 8 steps and 3 seeds): a huge blur size
# or seed range would only cost memory and time.
_BAD_FLOATS = ["-1e300", "inf", "-inf", "nan", "-1", "x", ""]
_SEED = (["0", "3", str(2**70)], ["-1", "x", "1.5"])
_WEIGHT = (["0", "0.5", "1"], ["1e300", *_BAD_FLOATS])
_SIGMA_Y = (["0", "0.01", "1e150"], ["1e300", *_BAD_FLOATS])
_CLI = {
    "demo": ((), {"--n-per-class": (["1"], ["0", "-1", "2.5", "x"])},
             {"--seed": _SEED, "--bandwidth": (["1e-4", "0", "1e300"], _BAD_FLOATS)}),
    "degrade": (("--n-per-class", "1"),
                {"source": ([("--demo",), ("--images", "{deg}")],
                            [("--demo", "--images", "{deg}"), ()]),
                 "--op": (["id", "gblur:size=3,sigma=1.5", "mblur:size=5,intensity=0.5",
                           "sr:factor=2", "inpaint:coverage=0.2,seed=1"],
                          ["gblur:sigma=inf", "gblur:sigma=nan", "gblur:sigma=1e300",
                           "gblur:sigma=-1", "gblur:size=-3", "gblur:size=x",
                           "mblur:intensity=nan", "mblur:angle=inf", "sr:factor=0",
                           "sr:factor=3", "inpaint:coverage=nan", "inpaint:coverage=1e300",
                           "inpaint:seed=-1", "bogus", "gblur:size", ""])},
                {"--limit": (["1", "0"], ["-1", "x"]), "--sigma-y": _SIGMA_Y, "--seed": _SEED,
                 "--demo-seed": _SEED}),
    "restore": (("--n-per-class", "1"),
                {"--steps": (["1", "2", "8"], ["0", "-1", "x", "1e3"])},
                {"--seeds": (["0:1", "0:3", "2:4", "5", "0,1,2", f"{2**70}:{2**70 + 1}"],
                             ["-1:1", "3:3", "1:0", "0:1:2", "a,b", ""]),
                 "--gamma": _WEIGHT, "--eta-max": _WEIGHT,
                 "--schedule": (["cosine", "constant"], ["linear"]),
                 "--init": (["structural", "semantic", "mixed"], ["x"]),
                 "--base": (["prompt", "null"], ["x"]),
                 "--prompt": (["auto", "none", "A", "disk"], ["Z", ""]),
                 "--config": (["{config}"], ["{not_utf8}"]),
                 "--demo-seed": _SEED}),
    "bench": ((), {"--metrics": ([("--metrics", "{toy}"), ("--metrics", "{image}"),
                                  ("--metrics", "{toy}", "{image}")],
                                 [("--metrics", "{missing}"), ("--metrics", "{toy}", "{missing}"),
                                  ("--metrics", "{missing}", "{toy_dir}"),
                                  ("--metrics", "{not_utf8}")])},
              {"--strip": (["0", "2"], ["-1", "x"]),
               "--trajectories": (["{toy_dir}"], ["{missing}", "{not_utf8_dir}"])}),
}
# restore's task: fixed tokens, required flags and optional flags, as in _CLI.
_TASKS = {"toy2d": (("--task", "toy2d"), {},
                    {"--sigma-y": _SIGMA_Y, "--mixture": (["{toy2d_mix}"], ["{not_utf8}"])}),
          "image": ((), {"--manifest": (["{manifest}"], ["{not_utf8}", "{missing}"])},
                    {"--bandwidth": (["1e-4", "1e300"], _BAD_FLOATS),
                     "--mixture": (["{shapes32_mix}"], ["{not_utf8}"])})}


@st.composite
def cli_argv(draw, assets):
    """argv (without --out) for demo, degrade, restore or bench, restore on either
    task. Every flag takes a value that passes its checks, or an optional one is
    left out, except one drawn flag (or none), which takes an extreme or
    malformed value."""
    command = draw(st.sampled_from(sorted(_CLI)))
    fixed, required, optional = _CLI[command]
    if command == "restore":
        task_fixed, task_required, task_optional = _TASKS[draw(st.sampled_from(sorted(_TASKS)))]
        fixed, required = fixed + task_fixed, {**required, **task_required}
        optional = {**optional, **task_optional}
    bad = draw(st.none() | st.sampled_from([*required, *optional]))
    argv = [command, *fixed]
    for name, (ok, wrong) in {**required, **optional}.items():
        if name != bad and name in optional and draw(st.booleans()):
            continue
        value = draw(st.sampled_from(wrong if name == bad else ok))
        if isinstance(value, tuple):
            argv += value
        else:
            argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return [a.format(**assets) for a in argv]


@pytest.fixture(scope="module")
def cli_assets(tmp_path_factory):
    base = tmp_path_factory.mktemp("assets")
    assert run("demo", "--out", base / "demo", "--n-per-class", 1) == 0
    assert run("degrade", "--out", base / "deg", "--op", "id", "--demo",
               "--n-per-class", 1, "--limit", 1) == 0
    assert run("restore", "--out", base / "image", "--manifest", base / "deg" / "manifest.json",
               "--n-per-class", 1, "--steps", 4) == 0
    assert run("restore", "--out", base / "toy", "--task", "toy2d", "--steps", 4) == 0
    (base / "config").write_text("n_steps=4\ngamma=0.25\n")
    (base / "not_utf8").write_bytes(b"\xff\xfe")
    (base / "not_utf8_dir").mkdir()
    (base / "not_utf8_dir" / "steered_path.csv").write_bytes(b"\xff\xfe")
    return base, {"manifest": str(base / "deg" / "manifest.json"), "deg": str(base / "deg"),
                  "toy": str(base / "toy" / "metrics.csv"), "toy_dir": str(base / "toy"),
                  "image": str(base / "image" / "metrics.csv"),
                  "missing": str(base / "missing.csv"), "config": str(base / "config"),
                  "toy2d_mix": str(base / "demo" / "toy2d.mix"),
                  "shapes32_mix": str(base / "demo" / "shapes32.mix"),
                  "not_utf8": str(base / "not_utf8"),
                  "not_utf8_dir": str(base / "not_utf8_dir")}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_any_argv_exits_with_a_documented_code(cli_assets, data):
    # Every run exits 0, 2, 3 or 4 with no exception and ends every thread it
    # started; a failure prints one stderr line and leaves nothing in the
    # scratch directory that holds its --out, and a success prints nothing there.
    base, assets = cli_assets
    argv = data.draw(cli_argv(assets))
    threads = threading.active_count()
    with tempfile.TemporaryDirectory(dir=base) as scratch:
        out = Path(scratch) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4), (argv, code)
        assert threading.active_count() == threads, argv
        if code == 0:
            assert lines == [] and out.is_dir(), argv
        else:
            assert len(lines) == 1 and not any(Path(scratch).iterdir()), (argv, lines)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["restore", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pdls restore")


def test_runs_in_one_process_share_one_parser(tmp_path):
    code = ("import sys, pdls.cli as c\n"
            "for run in ('a', 'b'):\n"
            "    assert c.main(['restore', '--task', 'toy2d', '--out', sys.argv[1] + run]) == 0\n"
            "print(c.build_parser.cache_info().currsize)")
    assert run_python(code, tmp_path / "r").stdout.strip().splitlines()[-1] == "1"


needs_openblas = pytest.mark.skipif(cli._openblas_threads() is None,
                                    reason="numpy's BLAS is not scipy-openblas")


@pytest.fixture
def blas_threads():
    """get() of numpy's OpenBLAS thread count, set to 3 for the test, then put back."""
    get, put = cli._openblas_threads()
    before = get()
    put(3)  # a count main() must put back, whatever this machine's default is
    try:
        yield get
    finally:
        put(before)


def spy_on_restore(monkeypatch, get, before=None):
    """Record the OpenBLAS thread count at each cli.restore call, in the returned list."""
    seen, real = [], cli.restore

    def spy(*args, **kwargs):
        seen.append(get())
        if before is not None:
            before()
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "restore", spy)
    return seen


@needs_openblas
class TestBlasPin:
    """main() holds numpy's OpenBLAS at one thread and puts the count back."""

    TOY = ("restore", "--task", "toy2d", "--seeds", "0:2", "--steps", 4)

    def test_one_thread_inside_and_restored_after_success(self, tmp_path, monkeypatch,
                                                          blas_threads):
        seen = spy_on_restore(monkeypatch, blas_threads)
        assert run(*self.TOY, "--out", tmp_path / "out") == 0
        assert seen == [1]
        assert blas_threads() == 3

    @pytest.mark.parametrize("case", ["config", "usage", "numerical", "io"])
    def test_restored_after_a_failing_exit(self, tmp_path, monkeypatch, blas_threads, case):
        seen = spy_on_restore(monkeypatch, blas_threads)
        out = ("--out", tmp_path / "out", "--steps", 4)
        if case == "config":  # an image task needs --manifest
            assert run("restore", *out) == 2
        elif case == "usage":  # argparse rejects the choice
            assert run("restore", *out, "--init", "nonsense") == 2
        elif case == "numerical":  # as in test_cli_exits_3_when_the_field_diverges
            field = pipeline.marginal_velocity
            monkeypatch.setattr(pipeline, "marginal_velocity", lambda *a: field(*a) * np.nan)
            assert run("restore", *out, "--task", "toy2d", "--seeds", "0:4") == 3
            assert seen == [1]
        else:
            assert run("restore", *out, "--manifest", tmp_path / "missing.json") == 4
        assert blas_threads() == 3

    def test_overlapping_runs_restore_the_count(self, tmp_path, monkeypatch, blas_threads):
        # Every run waits inside its pin until all three are there.
        barrier = threading.Barrier(3, timeout=60)
        seen = spy_on_restore(monkeypatch, blas_threads, barrier.wait)
        codes = {}

        def one(i):
            codes[i] = run(*self.TOY, "--out", tmp_path / f"out{i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=one, args=(i,)) for i in range(3)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert codes == {0: 0, 1: 0, 2: 0}
        assert seen == [1, 1, 1]
        assert blas_threads() == 3

    def test_import_does_no_lookup(self):
        code = "import pdls.cli as c; print(c._openblas_threads.cache_info().currsize)"
        assert run_python(code).stdout.strip() == "0"

    def test_without_the_lookup_a_run_is_not_pinned(self, tmp_path, monkeypatch,
                                                    blas_threads):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "gblur:size=7,sigma=1.5", "--demo",
                   "--n-per-class", 2) == 0
        argv = ["restore", "--manifest", str(deg / "manifest.json"), "--n-per-class", "2",
                "--seeds", "0:2"]
        args = build_parser().parse_args(argv + ["--out", str(tmp_path / "direct")])
        assert args.func(args) == 0
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        seen = spy_on_restore(monkeypatch, blas_threads)
        assert main(argv + ["--out", str(tmp_path / "main")]) == 0
        assert seen == [3]
        for path in (tmp_path / "direct").iterdir():
            assert path.read_bytes() == (tmp_path / "main" / path.name).read_bytes()


@pytest.mark.xfail(strict=True, reason=(
    "cli._toy_jobs draws a seed's clean sample from default_rng(seed) after one uniform, and "
    "pipeline.draw_noise draws z0 from a fresh default_rng(seed), so z0[1] is the sample's "
    "standardised x-offset. The fix moves every toy2d output, so it waits for a benchmark "
    "change that regenerates benchmarks/references.npz (ROADMAP, item 2)."))
def test_a_toy2d_noise_draw_shares_no_normal_with_its_sample():
    args = build_parser().parse_args(["restore", "--out", "unused", "--task", "toy2d"])
    for seed in range(6):
        _, mixture, _, [(_, _, clean, label, _)] = cli._toy_jobs(args, [seed])
        k = mixture.labels.index(label)
        normals = (clean - mixture.means[k]) / np.sqrt(mixture.variances[k])
        z0 = pipeline.draw_noise(mixture.dim, seed)
        assert not np.isclose(z0[:, None], normals, rtol=1e-9, atol=0.0).any(), seed


class TestWithoutScipy:
    """scipy is a test dependency only: the package neither imports nor needs it."""

    def test_import_loads_no_scipy(self):
        code = ("import sys, pdls; a = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
                "import pdls.cli; b = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
                "print(a, b)")
        assert run_python(code).stdout.strip() == "[] []"

    def test_runs_with_scipy_unimportable(self, tmp_path):
        code = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is fenced off")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy.ndimage
except ImportError:
    pass
else:
    raise AssertionError("scipy was importable")
from pdls.cli import main
out = sys.argv[1]
print(main(["degrade", "--out", out + "/deg", "--demo", "--n-per-class", "2",
            "--op", "gblur:size=7,sigma=1.5"]),
      main(["restore", "--out", out + "/toy", "--task", "toy2d"]))
"""
        assert run_python(code, tmp_path).stdout.split()[-2:] == ["0", "0"]


def test_import_loads_no_dataclasses():
    # pdls builds its records as plain classes and NamedTuples, as every fresh
    # process would pay for the dataclasses module and the methods it generates.
    code = ("import sys, numpy; a = 'dataclasses' in sys.modules\n"
            "import pdls, pdls.cli; print(a, 'dataclasses' in sys.modules)")
    numpy_loads, loaded = run_python(code).stdout.split()
    if numpy_loads == "True":
        pytest.skip("numpy itself imports dataclasses")
    assert loaded == "False"
