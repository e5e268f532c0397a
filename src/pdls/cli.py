"""Command-line driver: demo assets, degradation, restoration, benchmarks.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, degrade, fileio, metrics
from .flowfield import Condition, sample_mixture
from .integrate import DriftDivergedError, trajectory_to_csv
from .pipeline import PdlsConfig, restore

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
    unknown = set(file_vals) - set(_CONFIG_FIELDS) - {"seed"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    defaults = PdlsConfig()
    kwargs = {}
    for key, name in _CONFIG_FIELDS.items():
        default = getattr(defaults, name)
        flag = getattr(args, key, None)
        kwargs[name] = type(default)(file_vals.get(key, default) if flag is None else flag)
    return PdlsConfig(**kwargs)


def parse_seeds(text: str) -> list[int]:
    """Either 'a:b' (half-open range) or a comma list."""
    if ":" in text:
        a, b = text.split(":")
        return list(range(int(a), int(b)))
    return [int(s) for s in text.split(",")]


# ---------------------------------------------------------------- demo


def cmd_demo(args) -> int:
    out = Path(args.out)
    img_dir = out / "shapes32"
    img_dir.mkdir(parents=True, exist_ok=True)
    dataset = datasets.shapes32_dataset(args.n_per_class, args.seed)
    index = []
    counts: dict[str, int] = {}
    for img, label in dataset:
        i = counts.get(label, 0)
        counts[label] = i + 1
        name = f"{label}_{i:03d}.pgm"
        fileio.write_pgm(img_dir / name, img)
        index.append({"file": f"shapes32/{name}", "label": label})
    fileio.write_mixture(out / "toy2d.mix", datasets.toy2d_mixture())
    fileio.write_mixture(out / "shapes32.mix",
                         datasets.exemplar_mixture(dataset, args.bandwidth))
    (out / "index.json").write_text(json.dumps(index, indent=1))
    print(f"wrote {len(dataset)} demo images and mixture files to {out}")
    return 0


# ---------------------------------------------------------------- degrade


def _load_inputs(args):
    """(ImageGrid, label, name) triples from --demo or an image directory."""
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    items = _load_inputs(args)
    shape = items[0][0].pixels.shape
    op = degrade.parse_descriptor(args.op, image_shape=shape)
    records = []
    for i, (img, label, name) in enumerate(items):
        if isinstance(op, degrade.Downsample) and (
                img.height % op.factor or img.width % op.factor):
            raise ValueError("factor must divide dimensions")
        noise = degrade.NoiseModel(args.sigma_y, seed=args.seed + i)
        observed = degrade.apply(op, img, noise)
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


def _prompt_for(args, label) -> Condition:
    if args.prompt == "auto":
        return Condition.of(label)
    if args.prompt == "none":
        return Condition.null()
    return Condition.of(args.prompt)


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
    return manifest


def _run_image_restores(args, cfg: PdlsConfig, out: Path) -> list[dict]:
    manifest = _read_manifest(args.manifest)
    mdir = Path(args.manifest).parent
    if args.mixture:
        mixture = fileio.read_mixture(args.mixture)
    else:
        mixture = datasets.shapes32_mixture(args.n_per_class, args.demo_seed,
                                            args.bandwidth)
    seeds = parse_seeds(args.seeds)
    task = manifest["operator"].split(":")[0]
    jobs, inputs = [], []
    for rec in manifest["records"]:
        observed = fileio.read_pgm(mdir / rec["observed"])
        source = fileio.read_pgm(mdir / rec["source"])
        x_obs = _restore_input(observed, manifest["operator"],
                               (rec["height"], rec["width"]))
        for seed in seeds:
            jobs.append((rec, source, seed))
            inputs.append(x_obs)
    if not jobs:
        return []
    results = restore(np.stack(inputs), mixture,
                      [_prompt_for(args, rec["label"]) for rec, _, _ in jobs], cfg,
                      [seed for _, _, seed in jobs])

    rows = []
    for (rec, source, seed), result in zip(jobs, results):
        recon = degrade.ImageGrid.from_vector(result.restored, rec["height"], rec["width"])
        rep = metrics.report(recon, source, mixture, rec["label"])
        name = f"{rec['id']}_s{seed}_recon.pgm"
        fileio.write_pgm(out / name, recon)
        rows.append({
            "task": task, "input": rec["id"], "seed": seed,
            "config": config_hash(cfg, {"prompt": args.prompt}),
            "mse": rep.mse, "psnr_db": rep.psnr_db, "ssim": rep.ssim,
            "class_acc": rep.class_accuracy, "recon_path": name,
        })
    _write_diagnostics(out / "diagnostics.csv", results[0].diagnostics)
    return rows


def _run_toy_restores(args, cfg: PdlsConfig, out: Path) -> list[dict]:
    mixture = fileio.read_mixture(args.mixture) if args.mixture else datasets.toy2d_mixture()
    seeds = parse_seeds(args.seeds)
    cases = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        clean, labels = sample_mixture(mixture, 1, rng)
        clean, label = clean[0], labels[0]
        observed = clean + args.sigma_y * rng.standard_normal(clean.shape)
        cases.append((seed, clean, label, observed))
    results = restore(np.stack([obs for *_, obs in cases]), mixture,
                      [_prompt_for(args, label) for _, _, label, _ in cases], cfg, seeds)

    rows = []
    for (seed, clean, label, _), result in zip(cases, results):
        err = float(np.mean((result.restored - clean) ** 2))
        rows.append({
            "task": "toy2d", "input": f"seed{seed}", "seed": seed,
            "config": config_hash(cfg, {"prompt": args.prompt}),
            "mse": err, "psnr_db": metrics.psnr(result.restored, clean),
            "ssim": None,
            "class_acc": metrics.class_accuracy(result.restored, mixture, label),
            "recon_path": "",
        })
    # trajectory dump for the first seed feeds the bench plot
    first = results[0]
    (out / "structural_path.csv").write_text(trajectory_to_csv(first.paths.structural))
    (out / "semantic_path.csv").write_text(trajectory_to_csv(first.paths.semantic))
    (out / "steered_path.csv").write_text(trajectory_to_csv(first.generated))
    _write_diagnostics(out / "diagnostics.csv", first.diagnostics)
    return rows


def _write_diagnostics(path, diag) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "eta", "dist_to_target"])
        writer.writerows(diag)


def _write_metrics(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "input", "seed", "config", "mse", "psnr_db",
                         "ssim", "class_acc", "recon_path"])
        for r in rows:
            writer.writerow([r["task"], r["input"], r["seed"], r["config"],
                             repr(r["mse"]), repr(r["psnr_db"]),
                             "" if r["ssim"] is None else repr(r["ssim"]),
                             "" if r["class_acc"] is None else r["class_acc"],
                             r["recon_path"]])


def cmd_restore(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = build_config(args)
    if args.task == "toy2d":
        rows = _run_toy_restores(args, cfg, out)
    else:
        if not args.manifest:
            raise ValueError("image tasks need --manifest (from 'pdls degrade')")
        rows = _run_image_restores(args, cfg, out)
    _write_metrics(out / "metrics.csv", rows)
    print(f"restored {len(rows)} runs; metrics in {out / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------- bench


def _read_metrics(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_METRIC_COLUMNS = ("mse", "psnr_db", "ssim", "class_acc")


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


def _svg_polyline(points, color) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


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
    for name, states in named_paths:
        color = colors.get(name, "#444444")
        pix = [to_px(p) for p in states]
        parts.append(_svg_polyline(pix, color))
        for x, y in pix:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{color}"/>')
        parts.append(f'<text x="8" y="{16 * (len(parts) % 8 + 1)}" fill="{color}">{name}</text>')
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    missing = []
    for mpath in args.metrics:
        if not Path(mpath).exists():
            missing.append(mpath)
            continue
        batch = _read_metrics(mpath)
        rows.extend(batch)
        for r in batch:
            if r["recon_path"]:
                p = Path(mpath).parent / r["recon_path"]
                if not p.exists():
                    missing.append(str(p))
    if missing:
        print("missing runs:\n" + "\n".join(missing), file=sys.stderr)
        return 1
    table = aggregate(rows)
    cols = ["task", "config", "n"] + [f"{c}_{s}" for c in _METRIC_COLUMNS
                                      for s in ("mean", "std", "dropped")]
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(table)
    for entry in table:
        print(" ".join(f"{k}={v}" for k, v in entry.items()))

    traj_dir = Path(args.trajectories) if args.trajectories else None
    if traj_dir:
        from .integrate import trajectory_from_csv
        named = []
        for name in ("structural", "semantic", "steered"):
            p = traj_dir / f"{name}_path.csv"
            if p.exists():
                named.append((name, trajectory_from_csv(p.read_text()).states))
        if named:
            write_toy2d_svg(out / "trajectories.svg", named)
    if args.strip:
        src = Path(args.metrics[0]).parent
        imgs = [fileio.read_pgm(src / r["recon_path"]) for r in rows[: args.strip]
                if r["recon_path"]]
        if imgs:
            write_image_strip(out / "strip.pgm", imgs)
    return 0


# ---------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdls",
                                     description="Dual-path flow inversion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="write builtin demo assets")
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-class", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bandwidth", type=float, default=datasets.DEFAULT_BANDWIDTH)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("degrade", help="apply a degradation operator")
    p.add_argument("--out", required=True)
    p.add_argument("--op", required=True, help="e.g. gblur:size=7,sigma=1.5")
    p.add_argument("--sigma-y", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--images", help="directory of PGM inputs")
    p.add_argument("--demo", action="store_true", help="use builtin shapes32 inputs")
    p.add_argument("--demo-seed", type=int, default=0)
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
    p.add_argument("--init", choices=["structural", "semantic", "mixed"])
    p.add_argument("--base", choices=["prompt", "null"])
    p.add_argument("--schedule", choices=["cosine", "constant"])
    p.add_argument("--prompt", default="auto", help="'auto', 'none', or a label")
    p.add_argument("--seeds", default="0:1")
    p.add_argument("--sigma-y", type=float, default=0.01, help="toy2d observation noise")
    p.add_argument("--demo-seed", type=int, default=0)
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


def main(argv=None) -> int:
    parser = build_parser()
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
