"""Batch front end: load tensors, run verifier suites and searches, emit reports.

JSON in, JSON or CSV out. Identical configuration and inputs produce byte
identical report bodies (reports carry no timestamps), and exit codes follow
a fixed contract: 0 when nothing hard-failed, 2 on any hard failure, 3 on
IO or schema errors, negative counts, non-finite input values, a report or
norm holding a non-finite number (reports are strict JSON), or a random
suite whose forms could exceed the coefficient budget.

A verify suite runs the summing verifiers on the given files or on seeded
random instances; instance i of a random suite is drawn from the i-th child
of the master seed, so ``--random 0`` runs none. Every command writes its
document through one renderer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._codec import decode_values
from .demos import run_demos
from .forms import FormTensor, _gaussian, op_norm
from .norms import VectorSeq, lp_norm, mixed_norm, weak_lp_norm
from .rademacher import rad_p_norm
from .spaces import ConstantsConfig, Exponent, ExponentTuple, ScalarField
from .summing import (
    RatioCertificate,
    TestFamily,
    VerificationReport,
    _random_family,
    lift_family,
    random_family_search,
    random_form,
    summing_experiment,
    verify_almost_summing,
    verify_bh,
    verify_defant_voigt,
    verify_extended_littlewood,
    verify_general_littlewood,
    verify_littlewood_43,
)

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_SCHEMA = 3

# random verify suites draw at most this many coefficients per form
RANDOM_COEFF_BUDGET = 1 << 22

CSV_COLUMNS = ["check", "field", "p", "q", "lhs", "rhs", "ratio", "bound",
               "exact_norm", "status"]


class SchemaError(Exception):
    """Malformed input file or option value."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    """Reproducibility knobs shared by the batch commands."""

    seed: int = 0
    budget: int = 256
    tolerance: float = 1e-6
    constants: ConstantsConfig | None = None
    field: ScalarField | None = None
    j_max: int = 16
    allow_real_experimental: bool = False

    def __post_init__(self):
        if self.constants is None:
            self.constants = ConstantsConfig(tolerance=self.tolerance)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "tolerance": self.tolerance,
            "kg_real": self.constants.kg_real,
            "kg_complex": self.constants.kg_complex,
            "littlewood_real": self.constants.littlewood_real,
            "field": str(self.field) if self.field else None,
            "j_max": self.j_max,
            "allow_real_experimental": self.allow_real_experimental,
        }


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--budget", type=int, default=256, help="random trial count")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative slack for heuristic-norm checks")
    p.add_argument("--kg-real", type=float, default=1.78221)
    p.add_argument("--kg-complex", type=float, default=1.40491)
    p.add_argument("--out", help="report file (stdout when omitted)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--jmax", type=int, default=16, help="largest random family length")
    p.add_argument("--field", choices=["real", "complex"], default=None,
                   help="scalar field override for generated instances")
    p.add_argument("--allow-real-experimental", action="store_true",
                   help="report (without asserting) the extended inequality "
                        "on real instances")


def _config(args) -> RunConfig:
    constants = ConstantsConfig(
        kg_real=args.kg_real, kg_complex=args.kg_complex, tolerance=args.tol
    )
    field = ScalarField(args.field) if getattr(args, "field", None) else None
    return RunConfig(
        seed=args.seed,
        budget=args.budget,
        tolerance=args.tol,
        constants=constants,
        field=field,
        j_max=args.jmax,
        allow_real_experimental=args.allow_real_experimental,
    )


# ---------------------------------------------------------------------------
# input files


def _load(path: str, what: str, parse):
    """``parse`` applied to the JSON document in ``path``; any failure is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad {what}: {exc}") from exc


def load_form(path: str) -> FormTensor:
    return _load(path, "form tensor", FormTensor.from_json)


def load_family(path: str) -> TestFamily:
    return _load(path, "test family", TestFamily.from_json)


def load_vector_seq(path: str) -> VectorSeq:
    return _load(path, "vector sequence", VectorSeq.from_json)


def _parse_matrix(data: dict) -> np.ndarray:
    """Matrix files: {"field": "real"|"complex", "entries": [[row], ...]}."""
    if "entries" in data:
        field = ScalarField(data.get("field", "real"))
        entries = decode_values(data["entries"], field.is_complex)
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        return entries
    form = FormTensor.from_json(data)
    if form.order != 2:
        raise ValueError("matrix file must be 2-d")
    return form.coeffs


def load_matrix(path: str) -> np.ndarray:
    return _load(path, "matrix", _parse_matrix)


def _count(text: str) -> int:
    """argparse type of the instance, record and sample counts."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_exponent(text: str) -> Exponent:
    try:
        return Exponent.of(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad exponent {text!r}: {exc}") from exc


def _parse_exponent_list(text: str) -> tuple[Exponent, ...]:
    return tuple(_parse_exponent(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# report documents


def _document(command: str, config: RunConfig, reports: list[VerificationReport],
              extra: dict | None = None) -> dict:
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    doc = {
        "tool": "summability",
        "version": __version__,
        "command": command,
        "config": config.to_dict(),
        "reports": [r.to_dict() for r in reports],
        "summary": {"total": len(reports), **counts},
    }
    if extra:
        doc.update(extra)
    return doc


def _strict_json(doc: dict, **kwargs) -> str:
    try:
        return json.dumps(doc, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"report holds a non-finite number ({exc})") from exc


def _render(doc: dict, fmt: str) -> str:
    """JSON, or CSV of the reports (fixed columns) or records (their keys)."""
    if fmt == "json":
        return _strict_json(doc, indent=2) + "\n"
    _strict_json(doc)  # the CSV cells come from the same numbers
    if "records" in doc:
        rows = doc["records"]
        columns = list(rows[0]) if rows else []
    else:
        rows, columns = doc["reports"], CSV_COLUMNS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(col) is None else row[col] for col in columns])
    return buf.getvalue()


def _emit(doc: dict, args) -> None:
    text = _render(doc, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.out}: {exc}") from exc
        summary = (doc["summary"] if "summary" in doc
                   else f"{len(doc['records'])} records")
        print(f"wrote {args.out}: {summary}")
    else:
        sys.stdout.write(text)


def _exit_code(reports: list[VerificationReport]) -> int:
    return EXIT_FAIL if any(r.status == "fail" for r in reports) else EXIT_OK


# ---------------------------------------------------------------------------
# norm command


def cmd_norm(args) -> int:
    kind = args.kind
    if kind == "lp":
        seq = load_vector_seq(args.file)
        if seq.length != 1:
            raise SchemaError("lp expects a single-vector sequence file")
        value = lp_norm(seq.vectors[0], _parse_exponent(args.p))
        label = "exact"
    elif kind == "mixed":
        M = load_matrix(args.file)
        value = mixed_norm(M, _parse_exponent(args.p), _parse_exponent(args.q))
        label = "exact"
    elif kind == "weak":
        est = weak_lp_norm(load_vector_seq(args.file), _parse_exponent(args.p),
                           starts=args.starts, seed=args.seed)
        value, label = est.value, "exact" if est.exact else "lower-bound"
    elif kind == "rad":
        seq = load_vector_seq(args.file)
        value = rad_p_norm(seq, _parse_exponent(args.p), args.mode,
                           samples=args.samples, seed=args.seed)
        label = "exact" if args.mode == "exact" else "monte-carlo"
    elif kind == "opnorm":
        est = op_norm(load_form(args.file), starts=args.starts, seed=args.seed)
        value, label = est.value, "exact" if est.exact else "lower-bound"
    else:  # unreachable behind argparse choices
        raise SchemaError(f"unknown norm kind {kind!r}")
    if not math.isfinite(value):
        raise SchemaError(f"the {kind} norm is not finite ({value!r})")
    print(f"{value!r} {label}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command


def _random_dims(rng, order, m):
    return tuple(int(rng.integers(2, m + 1)) for _ in range(order))


def _seeded_reports(config, count, build) -> list[VerificationReport]:
    """Instance i is ``build`` run on the i-th child of the master seed."""
    reports = []
    for i, child in enumerate(np.random.SeedSequence(config.seed).spawn(count)):
        rep = build(np.random.default_rng(child))
        rep.witness["instance"] = i
        reports.append(rep)
    return reports


_FORM_VERIFIERS = {
    "littlewood": verify_littlewood_43,
    "general": verify_general_littlewood,
    "bh": verify_bh,
}


def cmd_verify(args) -> int:
    config = _config(args)
    constants = config.constants
    suite = args.suite
    if suite == "inclusion" or (suite != "almost" and not args.files):
        order = args.order if suite in ("bh", "dv") else 2
        # order * log2(m), not m ** order: a huge --order stays cheap
        if args.m > 1 and order * math.log2(args.m) > math.log2(RANDOM_COEFF_BUDGET):
            raise SchemaError(
                f"random {suite} forms of order {order} and dimension up to "
                f"{args.m} need up to {args.m}^{order} coefficients, over the "
                f"budget {RANDOM_COEFF_BUDGET}")
    if suite in _FORM_VERIFIERS:
        verifier = _FORM_VERIFIERS[suite]
        if args.files:
            reports = [verifier(load_form(path), constants=constants)
                       for path in args.files]
        else:
            field = config.field or ScalarField.REAL
            order = args.order if suite == "bh" else 2
            reports = _seeded_reports(config, args.random, lambda rng: verifier(
                random_form(rng, _random_dims(rng, order, args.m), field),
                constants=constants))
    elif suite == "extended":
        p = _parse_exponent(args.p or "4/3")

        def extended(A, beta):
            return verify_extended_littlewood(
                A, beta, p, constants=constants,
                allow_real_experimental=config.allow_real_experimental)

        if args.files:
            A = load_form(args.files[0])
            beta = (np.eye(A.dims[0]) if args.beta == "identity"
                    else load_matrix(args.beta))
            reports = [extended(A, beta)]
        else:
            field = config.field or ScalarField.COMPLEX

            def build(rng):
                dims = _random_dims(rng, 2, args.m)
                A = random_form(rng, dims, field)
                rows = int(rng.integers(1, args.m + 1))
                return extended(A, _gaussian(rng, (rows, dims[0]), field.is_complex))

            reports = _seeded_reports(config, args.random, build)
    elif suite == "dv":
        if args.files:
            if len(args.files) != 2:
                raise SchemaError("dv expects a form file and a family file")
            A = load_form(args.files[0])
            fam = load_family(args.files[1])
            reports = [verify_defant_voigt(A, fam, constants=constants)]
        else:
            field = config.field or ScalarField.REAL

            def build(rng):
                A = random_form(rng, _random_dims(rng, args.order, args.m), field)
                fam = _random_family(rng, A, min(config.j_max, 8))
                return verify_defant_voigt(A, fam, constants=constants)

            reports = _seeded_reports(config, args.random, build)
    elif suite == "almost":
        if len(args.files) != 2:
            raise SchemaError("almost expects a form file and a family file")
        A = load_form(args.files[0])
        fam = load_family(args.files[1])
        cert = verify_almost_summing(A, fam, k=args.curry)
        reports = [_certificate_report("almost_summing", cert)]
    elif suite == "inclusion":
        reports = _inclusion_suite(args, config)
    else:  # unreachable behind argparse choices
        raise SchemaError(f"unknown suite {suite!r}")

    doc = _document(f"verify {suite}", config, reports)
    _emit(doc, args)
    return _exit_code(reports)


def _certificate_report(check: str, cert: RatioCertificate) -> VerificationReport:
    return VerificationReport(
        check=check,
        field=str(cert.family.columns[0].field),
        p=str(cert.exponents.p),
        q=",".join(str(q) for q in cert.exponents.qs),
        lhs=cert.lhs,
        rhs=cert.denominator,
        ratio=cert.ratio,
        bound=None,
        exact_norm=cert.exact,
        status="pass" if np.isfinite(cert.ratio) else "fail",
        witness={"weak_norms": [r.value for r in cert.rhs_norms]},
    )


def _inclusion_suite(args, config) -> list[VerificationReport]:
    """Random certificate lifts; status is the monotonicity of the lift."""
    source = ExponentTuple(2, (2, 2))
    target = ExponentTuple(1, (Exponent.of(1), Exponent.of(2)))

    def build(rng):
        A = random_form(rng, _random_dims(rng, 2, args.m), ScalarField.REAL)
        fam = _random_family(rng, A, 4)
        res = lift_family(A, fam, source, target)
        return VerificationReport(
            check="inclusion_lift",
            field=str(A.field),
            p=str(source),
            q=str(target),
            lhs=res.source.ratio,
            rhs=res.derived.ratio,
            ratio=(res.derived.ratio / res.source.ratio
                   if res.source.ratio > 0 else None),
            bound=None,
            exact_norm=res.source.exact and res.derived.exact,
            status="pass" if res.monotone else "fail",
            # _seeded_reports fills in the instance; the key leads
            witness={"instance": None, "length": fam.length},
        )

    return _seeded_reports(config, args.random, build)


# ---------------------------------------------------------------------------
# search and experiment commands


def cmd_search(args) -> int:
    config = _config(args)
    A = load_form(args.file)
    try:
        exps = ExponentTuple(_parse_exponent(args.p), _parse_exponent_list(args.qs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if exps.n != A.order:
        raise SchemaError(
            f"exponent tuple has {exps.n} inner exponents, form has order {A.order}"
        )
    cert = random_family_search(
        A, exps, budget=config.budget, seed=config.seed,
        j_max=config.j_max,
    )
    report = _certificate_report("search", cert)
    doc = _document("search", config, [report],
                    extra={"certificate": cert.to_dict(include_family=True)})
    _emit(doc, args)
    return _exit_code([report])


def cmd_experiment(args) -> int:
    config = _config(args)
    records = summing_experiment(
        _parse_exponent(args.p),
        _parse_exponent(args.q),
        m=args.m,
        count=args.count,
        budget=config.budget,
        seed=config.seed,
        j_max=config.j_max,
        field=config.field or ScalarField.COMPLEX,
    )
    _emit({
        "tool": "summability",
        "version": __version__,
        "command": "experiment",
        "config": config.to_dict(),
        "records": records,
    }, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> Parser:
    parser = Parser(
        prog="summability",
        description="Verify summability inequalities of multilinear forms "
                    "on finite sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="compute one norm from a file")
    p_norm.add_argument("kind", choices=["lp", "mixed", "weak", "rad", "opnorm"])
    p_norm.add_argument("file")
    p_norm.add_argument("--p", default="2", help="exponent (decimal or fraction)")
    p_norm.add_argument("--q", default="2", help="inner exponent for mixed norms")
    p_norm.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_norm.add_argument("--samples", type=_count, default=100_000)
    p_norm.add_argument("--starts", type=int, default=32)
    p_norm.add_argument("--seed", type=int, default=0)
    p_norm.set_defaults(handler=cmd_norm)

    p_op = sub.add_parser("opnorm", help="operator norm of a form file")
    p_op.add_argument("file")
    p_op.add_argument("--starts", type=int, default=32)
    p_op.add_argument("--seed", type=int, default=0)
    p_op.set_defaults(handler=cmd_norm, kind="opnorm")

    p_verify = sub.add_parser("verify", help="run an inequality suite")
    p_verify.add_argument("suite", choices=[
        "littlewood", "extended", "general", "bh", "dv", "almost", "inclusion",
    ])
    p_verify.add_argument("files", nargs="*", help="input files; omit to use "
                          "seeded random instances")
    p_verify.add_argument("--random", type=_count, default=100,
                          help="number of random instances when no files given")
    p_verify.add_argument("--m", type=int, default=4, help="largest dimension")
    p_verify.add_argument("--order", type=int, default=3,
                          help="form order for bh and dv random instances")
    p_verify.add_argument("--p", default=None, help="outer exponent (extended)")
    p_verify.add_argument("--beta", default="identity",
                          help="'identity' or a matrix file (extended)")
    p_verify.add_argument("--curry", type=int, default=None,
                          help="head length for the almost suite")
    _add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_search = sub.add_parser("search", help="best ratio certificate for a form")
    p_search.add_argument("file")
    p_search.add_argument("--p", required=True, help="outer exponent")
    p_search.add_argument("--qs", required=True,
                          help="comma-separated inner exponents, e.g. 2,2")
    _add_common(p_search)
    p_search.set_defaults(handler=cmd_search)

    p_exp = sub.add_parser("experiment",
                           help="empirical (p;2,1) ratios on l_p x l_q domains")
    p_exp.add_argument("--p", default="4/3", help="domain and outer exponent")
    p_exp.add_argument("--q", default="2", help="second domain exponent")
    p_exp.add_argument("--m", type=int, default=3)
    p_exp.add_argument("--count", type=_count, default=5)
    _add_common(p_exp)
    p_exp.set_defaults(handler=cmd_experiment)

    p_demos = sub.add_parser("demos", help="run the built-in worked examples")
    p_demos.set_defaults(handler=lambda a: EXIT_FAIL if run_demos() else EXIT_OK)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
