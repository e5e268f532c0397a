"""End-to-end CLI tests: demo assets, degradation manifests, restoration
runs, benchmark aggregation, and exit codes."""

import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pdls import cli, pipeline
from pdls.cli import aggregate, build_parser, main
from pdls.datasets import shapes32_mixture
from pdls.degrade import ImageGrid
from pdls.fileio import read_mixture, read_pgm, write_mixture, write_pgm


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

    def test_unknown_operator_parameter_is_a_config_error(self, tmp_path, capsys):
        assert run("degrade", "--out", tmp_path / "deg", "--op", "gblur:sigma=3,siz=61",
                   "--demo", "--n-per-class", 1) == 2
        assert "has no parameter ['siz']" in capsys.readouterr().err


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
    ], ids=["ragged-means", "no-components", "weights-not-summing-to-one"])
    def test_malformed_mixture_is_an_io_error(self, tmp_path, capsys, text, message):
        mixture = tmp_path / "bad.mix"
        mixture.write_text(text)
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d",
                   "--mixture", mixture) == 4
        err = capsys.readouterr().err
        assert str(mixture) in err and message in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("gamma=0.5\nbogus=1\n")
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d",
                   "--config", cfgfile) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_seed_is_not_a_config_key(self, tmp_path, capsys):
        # Seeds come only from --seeds.
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("seed=5\n")
        assert run("restore", "--out", tmp_path / "x", "--task", "toy2d",
                   "--config", cfgfile) == 2
        assert "unknown config keys: ['seed']" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [
        ("--op", "gblur:size=7,sigma=1.0", "gblur:size=7,sigma=3.0"),
        ("--sigma-y", 0.01, 0.05),
    ])
    def test_differently_degraded_manifests_give_two_rows(self, tmp_path, flags):
        flag, *values = flags
        metrics = []
        for i, value in enumerate(values):
            deg, res = tmp_path / f"deg{i}", tmp_path / f"res{i}"
            args = {"--op": "gblur:size=7,sigma=1.5", "--sigma-y": 0.01, flag: value}
            assert run("degrade", "--out", deg, "--demo", "--n-per-class", 2, "--limit", 2,
                       *[x for kv in args.items() for x in kv]) == 0
            assert run("restore", "--out", res, "--manifest", deg / "manifest.json",
                       "--n-per-class", 2, "--steps", 4) == 0
            metrics.append(res / "metrics.csv")
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", *metrics) == 0
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 2
        assert {r["n"] for r in summary} == {"2"}

    @pytest.mark.parametrize("flag", ["--bandwidth", "--mixture"])
    def test_restores_on_different_mixtures_give_two_rows(self, tmp_path, flag):
        deg = tmp_path / "deg"
        assert run("degrade", "--out", deg, "--op", "gblur:size=7,sigma=1.5", "--demo",
                   "--n-per-class", 2, "--limit", 2) == 0
        metrics = []
        for i, bandwidth in enumerate((1e-4, 1e-2)):
            value = bandwidth
            if flag == "--mixture":
                value = tmp_path / f"mix{i}"
                write_mixture(value, shapes32_mixture(2, 0, bandwidth))
            res = tmp_path / f"res{i}"
            assert run("restore", "--out", res, "--manifest", deg / "manifest.json",
                       "--n-per-class", 2, "--steps", 4, flag, value) == 0
            metrics.append(res / "metrics.csv")
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics", *metrics) == 0
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
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

    def test_missing_metrics_file_fails(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run("bench", "--out", out, "--metrics",
                   tmp_path / "missing.csv") == 4
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
        elif case == "usage":  # argparse rejects the choice and exits 2
            with pytest.raises(SystemExit) as exc:
                run("restore", *out, "--init", "nonsense")
            assert exc.value.code == 2
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
