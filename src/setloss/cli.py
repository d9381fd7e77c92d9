"""Command-line surface: eval, gradcheck, submodcheck, sweep, train.

One executable named ``setloss``. Every command is deterministic given its
flags and seed: outputs carry no timestamps, floats are serialized with
repr, JSON keys are sorted, and files are written atomically (temp file
plus rename) so a rerun either reproduces a byte-identical file or fails
before touching it.

Exit codes, stable and script-friendly:

    0  success
    2  input or configuration rejected (parse errors, bad grids, bad K)
    3  an objective's precondition failed on otherwise valid input
    4  gradient check ran and failed
    5  submodularity verdict differs from the claimed property
    6  output could not be written

A JSON config file can stand in for flags via ``--config``; sections are
``dataset``, ``loss``, ``train``, ``sweep``, ``check``, plus a top-level
``seed``. Unknown sections or keys are rejected rather than ignored, and
explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import grads, losses, objectives, submodcheck, synthlab, trainer
from .batch import read_embedding_file
from .errors import PreconditionError, SetLossError, ValidationError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PRECONDITION = 3
EXIT_GRADCHECK = 4
EXIT_VERDICT = 5
EXIT_IO = 6

CONFIG_KEYS = {
    "dataset": {"kind", "c", "d", "base_count", "decay", "ratio", "spread",
                "separation", "k", "points_per_cluster"},
    "loss": {"objective", "lam", "margin", "kernel", "bandwidth"},
    "train": {"lr", "steps", "batch_size", "eval_split", "out_dim",
              "normalize", "objectives"},
    "sweep": {"ks", "objectives", "kernels", "points_per_cluster", "spread"},
    "check": {"n", "trials", "budget", "tolerance"},
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    for section, content in doc.items():
        if section == "seed":
            continue
        allowed = CONFIG_KEYS.get(section)
        if allowed is None:
            raise ValidationError(
                f"{path}: unknown config section {section!r}; "
                f"expected seed or one of {sorted(CONFIG_KEYS)}"
            )
        if not isinstance(content, dict):
            raise ValidationError(f"{path}: section {section!r} must be an object")
        unknown = set(content) - allowed
        if unknown:
            raise ValidationError(
                f"{path}: unknown key {sorted(unknown)[0]!r} in section {section!r}"
            )
    return doc


def write_text(path, text: str) -> None:
    """Atomic write: the target never holds a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".setloss-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from None


class IOFailure(Exception):
    pass


class VerdictMismatch(Exception):
    pass


class GradCheckFailed(Exception):
    pass


def _loss_config(args, cfg: dict) -> losses.LossConfig:
    section = cfg.get("loss", {})

    def pick(flag, key, default):
        return flag if flag is not None else section.get(key, default)

    return losses.LossConfig(
        objective=pick(getattr(args, "objective", None), "objective", "fl"),
        lam=pick(getattr(args, "lam", None), "lam", 1.0),
        margin=pick(getattr(args, "margin", None), "margin", 0.2),
        kernel=pick(getattr(args, "kernel", None), "kernel", "cosine"),
        bandwidth=pick(getattr(args, "bandwidth", None), "bandwidth", 1.0),
    )


def _int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} expects a comma list of integers, got {raw!r}")


def _seed(args, cfg: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in cfg:
        return int(cfg["seed"])
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    batch = read_embedding_file(args.input)
    config = _loss_config(args, cfg)
    result = losses.total_loss(batch, config)
    payload = {
        "objective": result.objective,
        "total": result.total,
        "per_class": [float(v) for v in result.per_class],
        "config": {
            "lam": config.lam,
            "margin": config.margin,
            "kernel": config.kernel,
            "bandwidth": config.bandwidth,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_text(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    if not args.h > 0:
        raise ValidationError(f"--h must be positive, got {args.h}")
    if args.n < 2 or args.d < 1:
        raise ValidationError(f"need n >= 2 and d >= 1, got n={args.n}, d={args.d}")
    names = objectives.OBJECTIVES if args.objective == "all" else (args.objective,)
    seed = _seed(args, cfg)
    section = cfg.get("loss", {})

    def pick(flag, key, default):
        return flag if flag is not None else section.get(key, default)

    reports = []
    failed = []
    for name in names:
        config = losses.LossConfig(
            name,
            pick(args.lam, "lam", 1.0),
            pick(args.margin, "margin", 0.2),
            pick(args.kernel, "kernel", "cosine"),
            pick(args.bandwidth, "bandwidth", 1.0),
        )
        batch = grads.check_batch(args.n, args.d, seed)
        report = grads.grad_check(batch, config, args.h, args.tol)
        reports.append(report)
        line = (f"{'PASS' if report.passed else 'FAIL'} {name}: "
                f"max_rel={report.max_rel_error!r} "
                f"worst={report.worst_coordinate} excluded={report.excluded}")
        print(line)
        if not report.passed:
            failed.append(name)
    if args.out:
        payload = [
            {
                "objective": r.objective,
                "max_abs_error": r.max_abs_error,
                "max_rel_error": r.max_rel_error,
                "worst_coordinate": list(r.worst_coordinate),
                "excluded": r.excluded,
                "passed": r.passed,
            }
            for r in reports
        ]
        write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if failed:
        raise GradCheckFailed(", ".join(failed))
    return EXIT_OK


def cmd_submodcheck(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    section = cfg.get("check", {})
    n = args.n if args.n is not None else section.get("n", 6)
    trials = args.trials if args.trials is not None else section.get("trials", 200)
    budget = args.budget if args.budget is not None else section.get("budget", 1000)
    tol = args.tol if args.tol is not None else section.get(
        "tolerance", submodcheck.DEFAULT_TOLERANCE
    )
    if n > submodcheck.ENUMERATION_BOUND:
        raise ValidationError(
            f"--n {n} exceeds the enumeration bound {submodcheck.ENUMERATION_BOUND}"
        )
    names = objectives.OBJECTIVES if args.objective == "all" else (args.objective,)
    seed = _seed(args, cfg)

    results = submodcheck.verdict_table(names, n, trials, budget, seed, tol)
    lines = [submodcheck.VERDICT_HEADER]
    mismatched = []
    for res in results:
        lines.append(res.csv_row())
        # A "refuted" claim is judged like "not-submodular": violations expected.
        expected = objectives.get(res.objective).claim == "submodular"
        if expected != (res.verdict == "submodular-consistent"):
            mismatched.append(res)
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, text)
    sys.stdout.write(text)
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
        raise VerdictMismatch(", ".join(r.objective for r in mismatched))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    section = cfg.get("sweep", {})
    names = args.objectives.split(",") if args.objectives is not None else \
        section.get("objectives", ["fl", "gc-cf"])
    kinds = args.kernels.split(",") if args.kernels is not None else \
        section.get("kernels", ["cosine", "rbf"])
    ks = _int_list(args.ks, "--ks") if args.ks is not None else \
        section.get("ks", [0, 2, 4, 5, 7])
    points = section.get("points_per_cluster", 100)
    spread = section.get("spread", 0.3)
    if not names or not kinds or not ks:
        raise ValidationError("sweep grid must name at least one objective, kernel, and K")
    for name in names:
        objectives.get(name)
    seeds = _int_list(args.seeds, "--seeds") if args.seeds is not None \
        else [_seed(args, cfg)]

    all_ok = True
    for seed in seeds:
        result = synthlab.k_sweep(names, kinds, ks, points, spread, seed)
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
            for name in names:
                for kind in kinds:
                    vals = [result.value(k, name, kind) for k in sorted(set(ks))]
                    ordered = sorted(set(ks))
                    peak = ordered.index(4) if 4 in ordered else len(ordered) - 1
                    up = all(vals[i] < vals[i + 1] for i in range(peak))
                    down = all(vals[i] > vals[i + 1] for i in range(peak, len(vals) - 1))
                    if not (up and down):
                        all_ok = False
                        print(f"ordering violated for {name}/{kind} at seed {seed}: {vals}",
                              file=sys.stderr)
    if not all_ok:
        raise VerdictMismatch("loss-versus-K ordering")
    return EXIT_OK


def _dataset_from_config(section: dict, seed: int):
    kind = section.get("kind", "longtail")
    if kind == "k":
        return synthlab.make_k_dataset(
            section.get("k", 0),
            section.get("points_per_cluster", 100),
            section.get("spread", 0.3),
            seed,
        )
    ratio_or_decay = section.get("decay", 0.1) if kind == "longtail" \
        else section.get("ratio", 10.0)
    return synthlab.make_imbalanced_dataset(
        kind,
        section.get("c", 4),
        section.get("d", 10),
        section.get("base_count", 600),
        ratio_or_decay,
        section.get("spread", 1.0),
        seed,
        section.get("separation"),
    )


def cmd_train(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    seed = _seed(args, cfg)
    data = _dataset_from_config(cfg.get("dataset", {}), seed)
    loss_section = cfg.get("loss", {})
    section = cfg.get("train", {})
    names = args.objectives.split(",") if args.objectives else \
        section.get("objectives", ["fl", "gc-cf", "supcon"])
    for name in names:
        objectives.get(name)

    # lam may be a grid; per-value validity is judged per objective, so a
    # value below the graph-cut bound becomes a failure row, not an abort.
    lam_spec = loss_section.get("lam", 1.0)
    lams = list(lam_spec) if isinstance(lam_spec, list) else [lam_spec]
    if not lams:
        raise ValidationError("loss.lam grid is empty")

    reports = []
    for lam in lams:
        template = losses.LossConfig(
            "fl", lam,
            loss_section.get("margin", 0.2),
            loss_section.get("kernel", "cosine"),
            loss_section.get("bandwidth", 1.0),
        )
        config = trainer.TrainConfig(
            loss=template,
            lr=section.get("lr", 0.1),
            steps=section.get("steps", 500),
            batch_size=section.get("batch_size"),
            seed=seed,
            eval_split=section.get("eval_split", 0.25),
            out_dim=section.get("out_dim"),
            normalize=section.get("normalize", True),
        )
        batch_reports = trainer.compare_objectives(names, data, config)
        if len(lams) > 1:
            for rep in batch_reports:
                rep.objective = f"{rep.objective}@lam={lam:g}"
        reports.extend(batch_reports)

    os.makedirs(args.out, exist_ok=True)
    rare = int(np.argmin(np.bincount(data.labels)))
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
        raise PreconditionError("every objective failed")
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

    p = sub.add_parser("eval", help="score one embedding CSV")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--objective", default=None)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--kernel", default=None)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="analytic versus finite-difference gradients")
    common(p)
    p.add_argument("--objective", default="all")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--kernel", default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("submodcheck", help="verify the claimed submodularity column")
    common(p)
    p.add_argument("--objective", default="all")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_submodcheck)

    p = sub.add_parser("sweep", help="loss versus cluster-separation K")
    common(p)
    p.add_argument("--objectives", default=None, help="comma list")
    p.add_argument("--kernels", default=None, help="comma list")
    p.add_argument("--ks", default=None, help="comma list of K in 0..7")
    p.add_argument("--seeds", default=None, help="comma list; one file per seed")
    p.add_argument("--assert-ordering", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="two-stage comparison over objectives")
    common(p)
    p.add_argument("--objectives", default=None, help="comma list")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except GradCheckFailed as exc:
        print(f"gradient check failed: {exc}", file=sys.stderr)
        return EXIT_GRADCHECK
    except VerdictMismatch as exc:
        print(f"verdict mismatch: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except IOFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SetLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
