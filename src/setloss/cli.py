"""Command-line surface: eval, gradcheck, submodcheck, sweep, train.

One executable named ``setloss``. Every command is deterministic given its
flags and seed: outputs carry no timestamps, floats are serialized with
repr, JSON keys are sorted, and files are written atomically (temp file
plus rename) so a rerun either reproduces a byte-identical file or fails
before touching it. A rewritten file keeps its mode, and a new one gets the
mode `open` would give it.

Exit codes, stable and script-friendly:

    0  success
    2  input or configuration rejected (parse errors, bad grids, bad K)
    3  an objective's precondition failed on otherwise valid input
    4  gradient check ran and failed
    5  submodularity verdict differs from the claimed property
    6  a file could not be read or written

A JSON config file can stand in for flags via ``--config``; sections are
``dataset``, ``loss``, ``train``, ``sweep``, ``check``, plus a top-level
``seed``. Unknown sections or keys, and values of the wrong JSON type, are
rejected with an error naming the ``section.key``; ``loss.lam`` may be a
list (a grid) only under ``train``. Every setting resolves one way: the
flag if given, else the config value, else the library's own default.
``sweep`` also reads ``loss.lam``, ``loss.margin`` and ``loss.bandwidth``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict, replace

from . import grads, losses, objectives, submodcheck, synthlab, trainer
from .batch import read_embedding_file
from .errors import PreconditionError, SetLossError, ValidationError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PRECONDITION = 3
EXIT_GRADCHECK = 4
EXIT_VERDICT = 5
EXIT_IO = 6

# Each config key's JSON type, as named in error messages.
CONFIG_KEYS = {
    "dataset": {"kind": "string", "c": "integer", "d": "integer",
                "base_count": "integer", "decay": "number", "ratio": "number",
                "spread": "number", "separation": "number or null",
                "k": "integer", "points_per_cluster": "integer"},
    "loss": {"objective": "string", "lam": "number", "margin": "number",
             "kernel": "string", "bandwidth": "number"},
    "train": {"lr": "number", "steps": "integer", "batch_size": "integer or null",
              "eval_split": "number", "out_dim": "integer or null",
              "normalize": "boolean", "objectives": "list of strings"},
    "sweep": {"ks": "list of integers", "objectives": "list of strings",
              "kernels": "list of strings", "points_per_cluster": "integer",
              "spread": "number"},
    "check": {"n": "integer", "trials": "integer", "budget": "integer",
              "tolerance": "number"},
}
LAM_GRID = "number or list of numbers"

# json.load gives exact types, so `type(v) in` keeps booleans out of numbers.
JSON_TYPES = {"integer": (int,), "number": (int, float), "string": (str,),
              "boolean": (bool,), "null": (type(None),)}

# The loss section's keys other than the objective.
LOSS_PARAMS = ("lam", "margin", "kernel", "bandwidth")

# check-section key -> verdict_table keyword
VERDICT_PARAMS = {"n": "n", "trials": "draws", "budget": "max_draws",
                  "tolerance": "tolerance"}

# Settings the library leaves to its caller: the sweep grid, the objectives
# train compares, and the imbalanced dataset.
SWEEP_GRID = {"objectives": ["fl", "gc-cf"], "kernels": ["cosine", "rbf"],
              "ks": [0, 2, 4, 5, 7]}
TRAIN_OBJECTIVES = ["fl", "gc-cf", "supcon"]
IMBALANCED_DATASET = {"kind": "longtail", "c": 4, "d": 10, "base_count": 600,
                      "decay": 0.1, "ratio": 10.0, "spread": 1.0}


def _check_type(path, name: str, value, spec: str) -> None:
    """Reject a loaded value unless it has type `spec`, e.g. "number or null"."""
    if not any(
        type(value) is list and all(type(v) in JSON_TYPES[alt[8:-1]] for v in value)
        if alt.startswith("list of ") else type(value) in JSON_TYPES[alt]
        for alt in spec.split(" or ")
    ):
        raise ValidationError(f"{path}: {name} must be of type {spec}, got {value!r}")


def load_config(path, lam_grid: bool = False) -> dict:
    """Read and check a config file; `lam_grid` admits a list for loss.lam."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    for section, content in doc.items():
        if section == "seed":
            _check_type(path, "seed", content, "integer")
            continue
        allowed = CONFIG_KEYS.get(section)
        if allowed is None:
            raise ValidationError(
                f"{path}: unknown config section {section!r}; "
                f"expected seed or one of {sorted(CONFIG_KEYS)}"
            )
        if not isinstance(content, dict):
            raise ValidationError(f"{path}: section {section!r} must be an object")
        unknown = set(content) - set(allowed)
        if unknown:
            raise ValidationError(
                f"{path}: unknown key {sorted(unknown)[0]!r} in section {section!r}"
            )
        for key, value in content.items():
            grid = lam_grid and section == "loss" and key == "lam"
            _check_type(path, f"{section}.{key}", value,
                        LAM_GRID if grid else allowed[key])
    return doc


def resolve(args, values: dict, keys) -> dict:
    """Each key's setting: its flag if one was given, else its entry in
    `values` (a config section). Keys set by neither are left out, so the
    library's own default applies when the result is passed as keywords.
    """
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = values.get(key)
        if value is not None:
            out[key] = value
    return out


def write_text(path, text: str) -> None:
    """Atomic write: the target never holds a partial file. The temporary
    file `mkstemp` makes is 0600, so it first takes the mode of the file it
    replaces, or, where there is none, the mode `open` gives a new file
    under the process umask."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        try:
            mode = os.stat(path).st_mode & 0o7777
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".setloss-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def _comma_list(raw: str) -> list[str]:
    return raw.split(",")


def _comma_ints(raw: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects a comma list of integers, got {raw!r}") from None


def _seed(args, cfg: dict) -> int:
    return resolve(args, cfg, ("seed",)).get("seed", 0)


def cmd_eval(args, cfg: dict) -> int:
    batch = read_embedding_file(args.input)
    config = losses.LossConfig(**resolve(args, cfg.get("loss", {}), CONFIG_KEYS["loss"]))
    result = losses.total_loss(batch, config)
    payload = {
        "objective": result.objective,
        "total": result.total,
        "per_class": [float(v) for v in result.per_class],
        "config": {key: getattr(config, key) for key in LOSS_PARAMS},
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_text(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_gradcheck(args, cfg: dict) -> int:
    names = objectives.OBJECTIVES if args.objective == "all" else (args.objective,)
    seed = _seed(args, cfg)
    loss = resolve(args, cfg.get("loss", {}), LOSS_PARAMS)

    # grad_check only reads the batch, so every objective checks this one.
    batch = grads.check_batch(args.n, args.d, seed)
    reports = []
    failed = []
    for name in names:
        config = losses.LossConfig(name, **loss)
        report = grads.grad_check(batch, config, args.h, args.tol)
        reports.append(report)
        line = (f"{'PASS' if report.passed else 'FAIL'} {name}: "
                f"max_rel={report.max_rel_error!r} "
                f"worst={report.worst_coordinate} excluded={report.excluded}")
        print(line)
        if not report.passed:
            failed.append(name)
    if args.out:
        payload = [asdict(r) for r in reports]
        write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if failed:
        print(f"gradient check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def cmd_submodcheck(args, cfg: dict) -> int:
    names = objectives.OBJECTIVES if args.objective == "all" else (args.objective,)
    check = resolve(args, cfg.get("check", {}), VERDICT_PARAMS)
    results = submodcheck.verdict_table(
        names, seed=_seed(args, cfg),
        **{VERDICT_PARAMS[key]: value for key, value in check.items()},
    )
    mismatched = [res for res in results
                  if res.verdict != objectives.get(res.objective).expected_verdict]
    buf = io.StringIO()
    submodcheck.write_verdict_csv(results, buf)
    if args.out:
        write_text(args.out, buf.getvalue())
    sys.stdout.write(buf.getvalue())
    for res in results:
        if res.verdict == "violated" and res not in mismatched and res.violations:
            a, b, x, ga, gb = res.violations[0]
            print(f"counterexample: {res.objective}: A={a} B={b} x={x} "
                  f"gain_A={ga!r} gain_B={gb!r}", file=sys.stderr)
    for res in mismatched:
        print(f"MISMATCH: {res.objective} is claimed {objectives.get(res.objective).claim} "
              f"but the scan says {res.verdict} "
              f"({res.violation_count} violations, min margin {res.min_margin!r})",
              file=sys.stderr)
        for a, b, x, ga, gb in res.violations[:3]:
            print(f"  counterexample: A={a} B={b} x={x} gain_A={ga!r} gain_B={gb!r}",
                  file=sys.stderr)
    if mismatched:
        print(f"verdict mismatch: {', '.join(r.objective for r in mismatched)}",
              file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def cmd_sweep(args, cfg: dict) -> int:
    grid = {**SWEEP_GRID, **resolve(args, cfg.get("sweep", {}), CONFIG_KEYS["sweep"])}
    names, kinds, ks = grid.pop("objectives"), grid.pop("kernels"), grid.pop("ks")
    if not names or not kinds or not ks:
        raise ValidationError("sweep grid must name at least one objective, kernel, and K")
    loss = resolve(args, cfg.get("loss", {}), ("lam", "margin", "bandwidth"))
    seeds = args.seeds or [_seed(args, cfg)]

    all_ok = True
    for seed in seeds:
        result = synthlab.k_sweep(names, kinds, ks, seed=seed, **grid, **loss)
        out = args.out
        if out and len(seeds) > 1:
            root, ext = os.path.splitext(out)
            out = f"{root}.s{seed}{ext}"
        buf = io.StringIO()
        result.write_csv(buf)
        if out:
            write_text(out, buf.getvalue())
        else:
            sys.stdout.write(buf.getvalue())
        if args.assert_ordering:
            # The loss peaks at K = 4: it must rise across each consecutive
            # pair of K <= 4 and fall across each pair of K >= 4. A pair that
            # straddles 4 says nothing about the ordering and is not judged.
            ordered = sorted(set(ks))
            for name in names:
                for kind in kinds:
                    vals = [result.value(k, name, kind) for k in ordered]
                    steps = zip(ordered, vals, ordered[1:], vals[1:])
                    if not all(v1 < v2 if k2 <= 4 else v1 > v2
                               for k1, v1, k2, v2 in steps if k2 <= 4 or k1 >= 4):
                        all_ok = False
                        print(f"ordering violated for {name}/{kind} at seed {seed}: {vals}",
                              file=sys.stderr)
    if not all_ok:
        print("verdict mismatch: loss-versus-K ordering", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def _dataset(args, section: dict, seed: int):
    if section.get("kind") == "k":
        return synthlab.make_k_dataset(
            section.get("k", 0), seed=seed,
            **resolve(args, section, ("points_per_cluster", "spread")),
        )
    v = {**IMBALANCED_DATASET, **resolve(args, section, CONFIG_KEYS["dataset"])}
    return synthlab.make_imbalanced_dataset(
        v["kind"], v["c"], v["d"], v["base_count"],
        v["decay"] if v["kind"] == "longtail" else v["ratio"],
        v["spread"], seed, v.get("separation"),
    )


def cmd_train(args, cfg: dict) -> int:
    seed = _seed(args, cfg)
    data = _dataset(args, cfg.get("dataset", {}), seed)
    if data.num_classes < 2:
        raise ValidationError(f"training needs >= 2 classes, got {data.num_classes}")
    trainer.check_split(data)
    settings = resolve(args, cfg.get("train", {}), CONFIG_KEYS["train"])
    names = settings.pop("objectives", TRAIN_OBJECTIVES)
    for name in names:
        objectives.get(name)

    # lam may be a grid; per-value validity is judged per objective, so a
    # value below the graph-cut bound becomes a failure row, not an abort.
    loss = resolve(args, cfg.get("loss", {}), LOSS_PARAMS)
    grid = loss.pop("lam") if isinstance(loss.get("lam"), list) else None
    base = trainer.TrainConfig(losses.LossConfig(**loss), seed=seed, **settings)
    lams = [base.loss.lam] if grid is None else grid
    if not lams:
        raise ValidationError("loss.lam grid is empty")
    # Each value names its rows and report files, so two values must not
    # share a label, or the second run's reports would overwrite the first's.
    for i, lam in enumerate(lams):
        same = [v for v in lams[:i] if f"{v:g}" == f"{lam:g}"]
        if same:
            raise ValidationError(f"loss.lam grid values {same[0]!r} and {lam!r} "
                                  f"share the row label lam={lam:g}")

    reports = []
    for lam in lams:
        config = replace(base, loss=replace(base.loss, lam=lam))
        batch_reports = trainer.compare_objectives(names, data, config)
        if len(lams) > 1:
            for rep in batch_reports:
                rep.objective = f"{rep.objective}@lam={lam:g}"
        reports.extend(batch_reports)

    os.makedirs(args.out, exist_ok=True)
    rare = int(data.classes.sizes.argmin())
    for rep in reports:
        write_text(os.path.join(args.out, f"report_{rep.objective}.json"),
                   rep.to_json() + "\n")
    buf = io.StringIO()
    trainer.write_comparison_csv(reports, rare, buf)
    write_text(os.path.join(args.out, "comparison.csv"), buf.getvalue())
    sys.stdout.write(buf.getvalue())

    succeeded = [r for r in reports if r.loss_curve]
    for rep in reports:
        if not rep.loss_curve:
            print(f"note: {rep.objective}: {rep.note}", file=sys.stderr)
    if not succeeded:
        print("precondition failed: every objective failed", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setloss",
        description="Submodular batch objectives: evaluate, verify, sweep, train.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None)

    def loss_flags(p):
        p.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
        p.add_argument("--margin", type=float, default=None)
        p.add_argument("--kernel", default=None)
        p.add_argument("--bandwidth", type=float, default=None)

    p = sub.add_parser("eval", help="score one embedding CSV")
    common(p)
    loss_flags(p)
    p.add_argument("--input", required=True)
    p.add_argument("--objective", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="analytic versus finite-difference gradients")
    common(p)
    p.add_argument("--objective", default="all")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    loss_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("submodcheck", help="verify the claimed submodularity column")
    common(p)
    p.add_argument("--objective", default="all")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--tol", dest="tolerance", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_submodcheck)

    p = sub.add_parser("sweep", help="loss versus cluster-separation K")
    common(p)
    p.add_argument("--objectives", type=_comma_list, default=None, help="comma list")
    p.add_argument("--kernels", type=_comma_list, default=None, help="comma list")
    p.add_argument("--ks", type=_comma_ints, default=None, help="comma list of K in 0..7")
    p.add_argument("--seeds", type=_comma_ints, default=None,
                   help="comma list; one file per seed")
    p.add_argument("--assert-ordering", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="two-stage comparison over objectives")
    common(p)
    p.add_argument("--objectives", type=_comma_list, default=None, help="comma list")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, lam_grid=args.command == "train") if args.config else {}
        return args.func(args, cfg)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SetLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
