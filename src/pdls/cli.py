"""Command-line driver: demo assets, degradation, restoration, benchmarks.

Exit codes: 0 success (and --help), 2 configuration error (argparse's
rejections included), 3 numerical failure, 4 I/O error; a rejected argv
gets one error line and no --out (test_any_argv_exits_with_a_documented_code,
test_rejected_flag_exits_with_one_error_line).

restore has one driver for both tasks: a task only builds its jobs, (input
id, observation, reference, label, seed) tuples, which run through one
restore() and one metrics.report call.

main() holds numpy's OpenBLAS at one thread for the run and puts its count
back on exit (TestBlasPin): a second thread only spins on a restore's small
products. A library caller owns its BLAS, so restore() pins nothing.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import hashlib
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import datasets, degrade, fileio, metrics
from .flowfield import Condition, sample_mixture
from .control import SCHEDULE_KINDS
from .integrate import DriftDivergedError, trajectory_from_csv, trajectory_to_csv
from .pipeline import BASE_CONDITIONS, INIT_MODES, PdlsConfig, restore

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Config-file key (also the restore flag's dest) -> PdlsConfig field. The keys
# name the config in files and in config_hash; the defaults live in PdlsConfig.
_CONFIG_FIELDS = {
    "gamma": "gamma", "eta_max": "eta_max", "n_steps": "n_steps",
    "init": "init_mode", "base": "base_condition", "schedule": "schedule_kind",
}


def config_hash(cfg: PdlsConfig, extra: dict | None = None) -> str:
    items = {key: getattr(cfg, name) for key, name in _CONFIG_FIELDS.items()}
    if extra:
        items.update(extra)
    blob = ",".join(f"{k}={items[k]}" for k in sorted(items))
    return hashlib.sha256(blob.encode()).hexdigest()[:10]


def read_config_file(path) -> dict:
    """Flat key=value config; '#' starts a comment."""
    out = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        if not val:
            raise ValueError(f"malformed config line {ln}: {line!r}")
        out[key.strip()] = val.strip()
    return out


def build_config(args) -> PdlsConfig:
    """PdlsConfig defaults, overridden by the --config file, then by flags."""
    file_vals = read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_vals) - set(_CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    defaults = PdlsConfig()
    kwargs = {}
    for key, name in _CONFIG_FIELDS.items():
        default = getattr(defaults, name)
        flag = getattr(args, key, None)
        value = file_vals.get(key, default) if flag is None else flag
        try:
            kwargs[name] = type(default)(value)
        except ValueError:  # only a file's text can fail: flags and defaults are typed
            raise ValueError(f"config file {args.config}: {key} must be "
                             f"{type(default).__name__}, not {value!r}") from None
    return PdlsConfig(**kwargs)


def parse_seeds(text: str) -> list[int]:
    """Either 'a:b' (half-open range) or a comma list, of at least one seed."""
    try:
        if ":" in text:
            a, b = text.split(":")
            seeds = list(range(int(a), int(b)))
        else:
            seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise ValueError(f"--seeds {text!r} is neither a range a:b nor a comma list "
                         "of integers") from None
    if not seeds:
        raise ValueError(f"--seeds {text!r} names no seed")
    if min(seeds) < 0:
        raise ValueError(f"--seeds {text!r} names a negative seed")
    return seeds


def _seed(text: str) -> int:
    """The argparse type of a single seed flag: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative; a seed is >= 0")
    return seed


# ---------------------------------------------------------------- demo


def cmd_demo(args) -> int:
    dataset = datasets.shapes32_dataset(args.n_per_class, args.seed)
    mixture = datasets.exemplar_mixture(dataset, args.bandwidth)
    out = Path(args.out)
    img_dir = out / "shapes32"
    img_dir.mkdir(parents=True, exist_ok=True)
    index = []
    counts: dict[str, int] = {}
    for img, label in dataset:
        i = counts.get(label, 0)
        counts[label] = i + 1
        name = f"{label}_{i:03d}.pgm"
        fileio.write_pgm(img_dir / name, img)
        index.append({"file": f"shapes32/{name}", "label": label})
    fileio.write_mixture(out / "toy2d.mix", datasets.toy2d_mixture())
    fileio.write_mixture(out / "shapes32.mix", mixture)
    (out / "index.json").write_text(json.dumps(index, indent=1))
    print(f"wrote {len(dataset)} demo images and mixture files to {out}")
    return 0


# ---------------------------------------------------------------- degrade


def _load_inputs(args):
    """(ImageGrid, label, name) triples from --demo or an image directory."""
    if args.limit < 0:
        raise ValueError(f"--limit must be >= 0, not {args.limit}")
    if args.demo:
        dataset = datasets.shapes32_dataset(args.n_per_class, args.demo_seed)
        items = [(img, label, f"{label}_{i:03d}") for i, (img, label) in enumerate(dataset)]
    else:
        paths = sorted(Path(args.images).glob("*.pgm"))
        if not paths:
            raise FileNotFoundError(f"no PGM images in {args.images}")
        items = [(fileio.read_pgm(p), p.stem.split("_")[0], p.stem) for p in paths]
    if args.limit:
        items = items[: args.limit]
    return items


def cmd_degrade(args) -> int:
    items = _load_inputs(args)
    shape = items[0][0].pixels.shape
    op = degrade.parse_descriptor(args.op, image_shape=shape)
    observations = [degrade.apply(op, img, degrade.NoiseModel(args.sigma_y, seed=args.seed + i))
                    for i, (img, _, _) in enumerate(items)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for (img, label, name), observed in zip(items, observations):
        obs_name = f"{name}_observed.pgm"
        src_name = f"{name}_source.pgm"
        fileio.write_pgm(out / obs_name, observed)
        fileio.write_pgm(out / src_name, img)
        records.append({
            "id": name, "label": label,
            "source": src_name, "observed": obs_name,
            "height": img.height, "width": img.width,
        })
    manifest = {
        "operator": op.descriptor(),
        "sigma_y": args.sigma_y,
        "seed": args.seed,
        "records": records,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    print(f"degraded {len(records)} images ({op.descriptor()}) into {out}")
    return 0


# ---------------------------------------------------------------- restore


def _prompts(args, mixture, labels) -> list[Condition]:
    """Each job's prompt under --prompt, every label checked against the mixture's."""
    if args.prompt == "none":
        return [Condition.null()] * len(labels)
    if args.prompt != "auto":
        labels = [args.prompt] * len(labels)
    unknown = set(labels) - set(mixture.labels)
    if unknown:
        known = sorted(set(map(str, mixture.labels)))
        raise ValueError(f"--prompt {args.prompt}: labels {sorted(map(str, unknown))} are not "
                         f"in the mixture, whose labels are {known}")
    return [Condition.of(label) for label in labels]


def _restore_input(observed: degrade.ImageGrid, operator: str,
                   full_shape: tuple[int, int]) -> np.ndarray:
    """Lift the observation back to the restoration dimension."""
    if operator.startswith("sr:"):
        factor = full_shape[0] // observed.height
        return degrade.block_replicate(observed.pixels, factor).ravel()
    return observed.flatten()


def _read_manifest(path) -> dict:
    """The manifest 'pdls degrade' wrote; a malformed one is an I/O error."""
    try:
        manifest = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise fileio.FormatError(f"manifest {path} is not valid JSON: {exc}") from exc
    missing = {"operator", "records"} - set(manifest if isinstance(manifest, dict) else ())
    if missing:
        raise fileio.FormatError(f"manifest {path} lacks {sorted(missing)}")
    if not isinstance(manifest["operator"], str):
        raise fileio.FormatError(f"manifest {path}: operator is not a string")
    if not isinstance(manifest["records"], list):
        raise fileio.FormatError(f"manifest {path}: records is not a list")
    for i, rec in enumerate(manifest["records"]):
        missing = ({"id", "label", "observed", "source", "height", "width"}
                   - set(rec if isinstance(rec, dict) else ()))
        if missing:
            raise fileio.FormatError(f"manifest {path}: record {i} lacks {sorted(missing)}")
        wrong = ([k for k in ("id", "label", "observed", "source") if not isinstance(rec[k], str)]
                 + [k for k in ("height", "width") if type(rec[k]) is not int or rec[k] < 1])
        if wrong:
            raise fileio.FormatError(f"manifest {path}: record {i} has wrongly typed {wrong}")
    return manifest


def _image_jobs(args, seeds):
    """The image task: one job per manifest record and seed."""
    if not args.manifest:
        raise ValueError("image tasks need --manifest (from 'pdls degrade')")
    manifest = _read_manifest(args.manifest)
    mdir = Path(args.manifest).parent
    if args.mixture:
        mixture = fileio.read_mixture(args.mixture)
        mixture_id = hashlib.sha256(Path(args.mixture).read_bytes()).hexdigest()[:16]
    else:
        mixture = datasets.shapes32_mixture(args.n_per_class, args.demo_seed,
                                            args.bandwidth)
        mixture_id = f"shapes32:{args.n_per_class},{args.demo_seed},{args.bandwidth}"
    jobs = []
    for i, rec in enumerate(manifest["records"]):
        observed = fileio.read_pgm(mdir / rec["observed"])
        source = fileio.read_pgm(mdir / rec["source"])
        x_obs = _restore_input(observed, manifest["operator"],
                               (rec["height"], rec["width"]))
        size = rec["height"] * rec["width"]
        if x_obs.size != size or source.pixels.size != size:
            raise fileio.FormatError(
                f"manifest {args.manifest}: record {i}'s observation lifts to {x_obs.size} "
                f"and its source has {source.pixels.size} pixels, not height x width = {size}")
        jobs.extend((rec["id"], x_obs, source, rec["label"], seed) for seed in seeds)
    # The operator, its noise level and the mixture name the experiment too,
    # so that bench keeps runs on other inputs or another mixture apart.
    extra = {"operator": manifest["operator"], "sigma_y": manifest.get("sigma_y"),
             "mixture": mixture_id}
    return manifest["operator"].split(":")[0], mixture, extra, jobs


def _toy_jobs(args, seeds):
    """The toy2d task: one job per seed, a mixture sample seen through --sigma-y noise."""
    if not 0.0 <= args.sigma_y < np.inf:
        raise ValueError("sigma_y must be finite and non-negative")
    mixture = fileio.read_mixture(args.mixture) if args.mixture else datasets.toy2d_mixture()
    jobs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        clean, labels = sample_mixture(mixture, 1, rng)
        observed = clean[0] + args.sigma_y * rng.standard_normal(clean[0].shape)
        jobs.append((f"seed{seed}", observed, clean[0], labels[0], seed))
    # --sigma-y stays out of the hash, which keeps existing toy2d hashes valid.
    return "toy2d", mixture, {}, jobs


_METRIC_COLUMNS = ("mse", "psnr_db", "ssim", "class_acc")
_METRICS_HEADER = ("task", "input", "seed", "config", *_METRIC_COLUMNS, "recon_path")


def _write_csv(path, header, rows) -> None:
    """A header line, then the rows; None is written as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_restore(args) -> int:
    cfg = build_config(args)
    seeds = parse_seeds(args.seeds)
    images = args.task == "image"
    task, mixture, extra, jobs = (_image_jobs if images else _toy_jobs)(args, seeds)
    config = config_hash(cfg, {"prompt": args.prompt, **extra})
    prompts = _prompts(args, mixture, [label for _, _, _, label, _ in jobs])
    results, recons, reports = [], [], []
    if jobs:
        _, observed, refs, labels, job_seeds = zip(*jobs)
        results = restore(np.stack(observed), mixture, prompts, cfg, list(job_seeds))
        recons = [degrade.ImageGrid.from_vector(r.restored, ref.height, ref.width)
                  if images else r.restored for r, ref in zip(results, refs)]
        reports = metrics.report(recons, refs, mixture, labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for (input_id, _, _, _, seed), recon, rep in zip(jobs, recons, reports):
        recon_path = f"{input_id}_s{seed}_recon.pgm" if images else ""
        if images:
            fileio.write_pgm(out / recon_path, recon)
        rows.append((task, input_id, seed, config, rep.mse, rep.psnr_db, rep.ssim,
                     rep.class_accuracy, recon_path))
    if results:
        first = results[0]
        if not images:  # the first seed's paths feed the bench plot
            for name, path in (("structural", first.structural), ("semantic", first.semantic),
                               ("steered", first.generated)):
                (out / f"{name}_path.csv").write_text(trajectory_to_csv(path))
        _write_csv(out / "diagnostics.csv", ("step", "t", "eta", "dist_to_target"),
                   first.diagnostics)
    _write_csv(out / "metrics.csv", _METRICS_HEADER, rows)
    print(f"restored {len(rows)} runs; metrics in {out / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------- bench


def aggregate(rows: list[dict]) -> list[dict]:
    """Per (task, config): n, and per metric the mean and std of its finite
    values plus the count of non-finite values left out of them."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["task"], r["config"]), []).append(r)
    table = []
    for (task, cfg), grp in sorted(groups.items()):
        entry = {"task": task, "config": cfg, "n": len(grp)}
        for col in _METRIC_COLUMNS:
            vals = [float(r[col]) for r in grp if r[col] not in ("", None)]
            finite = [v for v in vals if np.isfinite(v)]
            if finite:
                entry[f"{col}_mean"] = float(np.mean(finite))
                entry[f"{col}_std"] = float(np.std(finite))
            entry[f"{col}_dropped"] = len(vals) - len(finite)
        table.append(entry)
    return table


def write_toy2d_svg(path, named_paths) -> None:
    """Overlay of (name, states-array) 2-D paths: one polyline + markers each."""
    allpts = np.vstack([s for _, s in named_paths])
    lo, hi = allpts.min(axis=0) - 0.5, allpts.max(axis=0) + 0.5
    size = 480.0

    def to_px(p):
        q = (p - lo) / np.maximum(hi - lo, 1e-9)
        return q[0] * size, (1 - q[1]) * size

    colors = {"structural": "#1f77b4", "semantic": "#d62728", "steered": "#2ca02c"}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}">']
    for i, (name, states) in enumerate(named_paths):
        color = colors.get(name, "#444444")
        pix = [to_px(p) for p in states]
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in pix)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        for x, y in pix:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}"/>')
        parts.append(f'<text x="8" y="{16 * (i + 1)}" fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def write_image_strip(path, images: list[degrade.ImageGrid]) -> None:
    """Horizontal PGM montage with 1-pixel separators."""
    h = images[0].height
    sep = np.ones((h, 1))
    cols = []
    for img in images:
        cols.extend([img.pixels, sep])
    fileio.write_pgm(path, degrade.ImageGrid(np.hstack(cols[:-1])))


def cmd_bench(args) -> int:
    if args.strip < 0:
        raise ValueError(f"--strip must be >= 0, not {args.strip}")
    rows = []
    missing = []
    for mpath in args.metrics:
        if not Path(mpath).exists():
            missing.append(mpath)
            continue
        with open(mpath, newline="") as fh:
            reader = csv.DictReader(fh)
            lacking = [c for c in _METRICS_HEADER if c not in (reader.fieldnames or ())]
            if lacking:
                raise fileio.FormatError(f"metrics {mpath} lacks columns {lacking}")
            for r in reader:
                try:
                    for col in _METRIC_COLUMNS:
                        r[col] = float(r[col]) if r[col] else None
                except ValueError as exc:
                    raise fileio.FormatError(
                        f"metrics {mpath}, line {reader.line_num}: {exc}") from exc
                # A recon path is relative to the directory of its own metrics file.
                if r["recon_path"]:
                    r["recon_path"] = Path(mpath).parent / r["recon_path"]
                    if not r["recon_path"].exists():
                        missing.append(str(r["recon_path"]))
                rows.append(r)
    if missing:
        raise FileNotFoundError(f"missing runs: {', '.join(missing)}")
    named = []
    if args.trajectories:
        for name in ("structural", "semantic", "steered"):
            p = Path(args.trajectories) / f"{name}_path.csv"
            if p.exists():
                try:
                    named.append((name, trajectory_from_csv(p.read_text()).states))
                except ValueError as exc:
                    raise fileio.FormatError(f"trajectory {p}: {exc}") from exc
    imgs = [fileio.read_pgm(r["recon_path"]) for r in rows[: args.strip] if r["recon_path"]]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = aggregate(rows)
    cols = ["task", "config", "n"] + [f"{c}_{s}" for c in _METRIC_COLUMNS
                                      for s in ("mean", "std", "dropped")]
    _write_csv(out / "summary.csv", cols, [[entry.get(c) for c in cols] for entry in table])
    for entry in table:
        print(" ".join(f"{k}={v}" for k, v in entry.items()))
    if named:
        write_toy2d_svg(out / "trajectories.svg", named)
    if imgs:
        write_image_strip(out / "strip.pgm", imgs)
    return 0


# ---------------------------------------------------------------- entry


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and, through add_subparsers, subcommand parsers) whose
    rejections raise ValueError, which main() reports as one config error line,
    instead of printing the usage and exiting."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; every main() call reuses it."""
    parser = _Parser(prog="pdls", description="Dual-path flow inversion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="write builtin demo assets")
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-class", type=int, default=30)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--bandwidth", type=float, default=datasets.DEFAULT_BANDWIDTH)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("degrade", help="apply a degradation operator")
    p.add_argument("--out", required=True)
    p.add_argument("--op", required=True, help="e.g. gblur:size=7,sigma=1.5")
    p.add_argument("--sigma-y", type=float, default=0.01)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--images", help="directory of PGM inputs")
    p.add_argument("--demo", action="store_true", help="use builtin shapes32 inputs")
    p.add_argument("--demo-seed", type=_seed, default=0)
    p.add_argument("--n-per-class", type=int, default=30)
    p.add_argument("--limit", type=int, default=0)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("restore", help="run the dual-path restoration")
    p.add_argument("--out", required=True)
    p.add_argument("--task", default="image", choices=["image", "toy2d"])
    p.add_argument("--manifest")
    p.add_argument("--mixture")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--gamma", type=float)
    p.add_argument("--eta-max", dest="eta_max", type=float)
    p.add_argument("--steps", dest="n_steps", type=int)
    p.add_argument("--init", choices=INIT_MODES)
    p.add_argument("--base", choices=BASE_CONDITIONS)
    p.add_argument("--schedule", choices=SCHEDULE_KINDS)
    p.add_argument("--prompt", default="auto", help="'auto', 'none', or a label")
    p.add_argument("--seeds", default="0:1")
    p.add_argument("--sigma-y", type=float, default=0.01, help="toy2d observation noise")
    p.add_argument("--demo-seed", type=_seed, default=0)
    p.add_argument("--n-per-class", type=int, default=30)
    p.add_argument("--bandwidth", type=float, default=datasets.DEFAULT_BANDWIDTH,
                   help="kernel bandwidth for the builtin exemplar mixture")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("bench", help="aggregate metrics and emit plots")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", nargs="+", required=True)
    p.add_argument("--trajectories", help="directory with *_path.csv dumps")
    p.add_argument("--strip", type=int, default=0, help="montage the first N reconstructions")
    p.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's scipy-openblas, looked up on the
    first main() call (test_import_does_no_lookup); None for any other BLAS,
    whose run is not pinned (test_without_the_lookup_a_run_is_not_pinned)."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# OpenBLAS's thread count is process-wide, so the pin is too: the first of
# overlapping main() calls saves the count and sets 1, the last puts it back.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block, then put its count back."""
    global _pin_depth, _pin_saved
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                put(_pin_saved)


def main(argv=None) -> int:
    parser = build_parser()
    with _one_blas_thread():
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except DriftDivergedError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except (fileio.FormatError, OSError) as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        except (ValueError, KeyError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
