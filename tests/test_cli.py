"""End-to-end CLI tests: demo assets, degradation manifests, restoration
runs, benchmark aggregation, and exit codes."""

import csv
import json

import numpy as np
import pytest

from pdls.cli import aggregate, build_parser, main
from pdls.datasets import shapes32_mixture
from pdls.degrade import ImageGrid
from pdls.fileio import read_mixture, write_pgm


def run(*argv):
    return main([str(a) for a in argv])


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
        ha = next(csv.DictReader(open(a / "metrics.csv")))["config"]
        hb = next(csv.DictReader(open(b / "metrics.csv")))["config"]
        assert ha != hb

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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("gamma=0.5\nbogus=1\n")
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d",
                   "--config", cfgfile) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_file_applies_values(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("# comment\ngamma=1.0\nn_steps=8\n")
        out = tmp_path / "toy"
        assert run("restore", "--out", out, "--task", "toy2d",
                   "--config", cfgfile, "--seeds", "0:1") == 0

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

    def test_trajectory_plot_has_three_polylines(self, tmp_path):
        a = self._toy_metrics(tmp_path, "a")
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", a / "metrics.csv",
                   "--trajectories", a) == 0
        svg = (out / "trajectories.svg").read_text()
        assert svg.count("<polyline") == 3
        assert svg.count("<circle") == 3 * 9  # three 8-step paths, 9 nodes each

    def test_missing_metrics_file_fails(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics",
                   tmp_path / "missing.csv") == 1
        assert "missing runs" in capsys.readouterr().err

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
