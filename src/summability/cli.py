"""Batch front end: load tensors, run verifier suites and searches, emit reports.

JSON in, JSON or CSV out. Identical configuration and inputs produce byte
identical report bodies (reports carry no timestamps), and exit codes follow
a fixed contract: 0 when nothing hard-failed, 2 on any hard failure, 3 on
IO or schema errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._codec import decode_values
from .demos import run_demos
from .forms import FormTensor, op_norm
from .norms import VectorSeq, lp_norm, mixed_norm, weak_lp_norm
from .rademacher import rad_p_norm
from .spaces import ConstantsConfig, Exponent, ExponentTuple, ScalarField
from .summing import (
    RatioCertificate,
    TestFamily,
    VerificationReport,
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
    threads: int = 1
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
            "threads": self.threads,
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
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and echoed in the report config; has no "
                        "effect (the search runs single-threaded)")
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
        threads=args.threads,
        j_max=args.jmax,
        allow_real_experimental=args.allow_real_experimental,
    )


# ---------------------------------------------------------------------------
# input files


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def load_form(path: str) -> FormTensor:
    data = _load_json(path)
    try:
        return FormTensor.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad form tensor: {exc}") from exc


def load_family(path: str) -> TestFamily:
    data = _load_json(path)
    try:
        return TestFamily.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad test family: {exc}") from exc


def load_vector_seq(path: str) -> VectorSeq:
    data = _load_json(path)
    try:
        return VectorSeq.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad vector sequence: {exc}") from exc


def load_matrix(path: str) -> np.ndarray:
    """Matrix files: {"field": "real"|"complex", "entries": [[row], ...]}."""
    data = _load_json(path)
    try:
        if "entries" in data:
            field = ScalarField(data.get("field", "real"))
            return decode_values(data["entries"], field.is_complex)
        form = FormTensor.from_json(data)
        if form.order != 2:
            raise ValueError("matrix file must be 2-d")
        return form.coeffs
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad matrix: {exc}") from exc


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


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in doc.get("reports", []):
        writer.writerow([
            rep.get(col, "") if rep.get(col) is not None else ""
            for col in CSV_COLUMNS
        ])
    return buf.getvalue()


def _emit(doc: dict, args) -> None:
    text = _render(doc, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.out}: {exc}") from exc
        summary = doc.get("summary")
        if summary:
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
        print(f"{value!r} exact")
    elif kind == "mixed":
        M = load_matrix(args.file)
        value = mixed_norm(M, _parse_exponent(args.p), _parse_exponent(args.q))
        print(f"{value!r} exact")
    elif kind == "weak":
        seq = load_vector_seq(args.file)
        est = weak_lp_norm(seq, _parse_exponent(args.p),
                           starts=args.starts, seed=args.seed)
        print(f"{est.value!r} {'exact' if est.exact else 'lower-bound'}")
    elif kind == "rad":
        seq = load_vector_seq(args.file)
        value = rad_p_norm(seq, _parse_exponent(args.p), args.mode,
                           samples=args.samples, seed=args.seed)
        print(f"{value!r} {'exact' if args.mode == 'exact' else 'monte-carlo'}")
    elif kind == "opnorm":
        form = load_form(args.file)
        est = op_norm(form, starts=args.starts, seed=args.seed)
        print(f"{est.value!r} {'exact' if est.exact else 'lower-bound'}")
    else:  # unreachable behind argparse choices
        raise SchemaError(f"unknown norm kind {kind!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command


def _random_dims(rng, order, m):
    return tuple(int(rng.integers(2, m + 1)) for _ in range(order))


def _verify_littlewood_like(args, config, verifier, check_field) -> list[VerificationReport]:
    reports = []
    if args.files:
        for path in args.files:
            reports.append(verifier(load_form(path), constants=config.constants))
        return reports
    field = config.field or check_field
    seeds = np.random.SeedSequence(config.seed).spawn(args.random)
    for i in range(args.random):
        rng = np.random.default_rng(seeds[i])
        A = random_form(rng, _random_dims(rng, 2, args.m), field)
        rep = verifier(A, constants=config.constants)
        rep.witness["instance"] = i
        reports.append(rep)
    return reports


def cmd_verify(args) -> int:
    config = _config(args)
    suite = args.suite
    reports: list[VerificationReport] = []

    if suite == "littlewood":
        reports = _verify_littlewood_like(args, config, verify_littlewood_43,
                                          ScalarField.REAL)
    elif suite == "general":
        reports = _verify_littlewood_like(args, config, verify_general_littlewood,
                                          ScalarField.REAL)
    elif suite == "extended":
        p = _parse_exponent(args.p or "4/3")
        if args.files:
            A = load_form(args.files[0])
            beta = (np.eye(A.dims[0]) if args.beta == "identity"
                    else load_matrix(args.beta))
            reports = [verify_extended_littlewood(
                A, beta, p, constants=config.constants,
                allow_real_experimental=config.allow_real_experimental)]
        else:
            field = config.field or ScalarField.COMPLEX
            seeds = np.random.SeedSequence(config.seed).spawn(args.random)
            for i in range(args.random):
                rng = np.random.default_rng(seeds[i])
                dims = _random_dims(rng, 2, args.m)
                A = random_form(rng, dims, field)
                rows = int(rng.integers(1, args.m + 1))
                beta = rng.standard_normal((rows, dims[0]))
                if field.is_complex:
                    beta = beta + 1j * rng.standard_normal((rows, dims[0]))
                rep = verify_extended_littlewood(
                    A, beta, p, constants=config.constants,
                    allow_real_experimental=config.allow_real_experimental)
                rep.witness["instance"] = i
                reports.append(rep)
    elif suite == "bh":
        if args.files:
            reports = [verify_bh(load_form(path), constants=config.constants)
                       for path in args.files]
        else:
            field = config.field or ScalarField.REAL
            seeds = np.random.SeedSequence(config.seed).spawn(args.random)
            for i in range(args.random):
                rng = np.random.default_rng(seeds[i])
                A = random_form(rng, _random_dims(rng, args.order, args.m), field)
                rep = verify_bh(A, constants=config.constants)
                rep.witness["instance"] = i
                reports.append(rep)
    elif suite == "dv":
        if args.files:
            if len(args.files) != 2:
                raise SchemaError("dv expects a form file and a family file")
            A = load_form(args.files[0])
            fam = load_family(args.files[1])
            reports = [verify_defant_voigt(A, fam, constants=config.constants)]
        else:
            field = config.field or ScalarField.REAL
            seeds = np.random.SeedSequence(config.seed).spawn(args.random)
            for i in range(args.random):
                rng = np.random.default_rng(seeds[i])
                A = random_form(rng, _random_dims(rng, args.order, args.m), field)
                J = int(rng.integers(1, min(config.j_max, 8) + 1))
                cols = []
                for d in A.domains:
                    V = rng.standard_normal((J, d.dim))
                    if field.is_complex:
                        V = V + 1j * rng.standard_normal((J, d.dim))
                    cols.append(VectorSeq(V, d))
                rep = verify_defant_voigt(A, TestFamily(tuple(cols)),
                                          constants=config.constants)
                rep.witness["instance"] = i
                reports.append(rep)
    elif suite == "almost":
        if not args.files:
            raise SchemaError("almost expects a form file and a family file")
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
    denom = 1.0
    for r in cert.rhs_norms:
        denom *= r.value
    return VerificationReport(
        check=check,
        field=str(cert.family.columns[0].field),
        p=str(cert.exponents.p),
        q=",".join(str(q) for q in cert.exponents.qs),
        lhs=cert.lhs,
        rhs=denom,
        ratio=cert.ratio,
        bound=None,
        exact_norm=cert.exact,
        status="pass" if np.isfinite(cert.ratio) else "fail",
        witness={"weak_norms": [r.value for r in cert.rhs_norms]},
    )


def _inclusion_suite(args, config) -> list[VerificationReport]:
    """Random certificate lifts; status is the monotonicity of the lift."""
    reports = []
    seeds = np.random.SeedSequence(config.seed).spawn(max(args.random, 1))
    count = args.random if args.random else 25
    for i in range(count):
        rng = np.random.default_rng(seeds[i % len(seeds)])
        dims = _random_dims(rng, 2, args.m)
        A = random_form(rng, dims, ScalarField.REAL)
        source = ExponentTuple(2, (2, 2))
        target = ExponentTuple(1, (Exponent.of(1), Exponent.of(2)))
        J = int(rng.integers(1, 5))
        fam = TestFamily(tuple(
            VectorSeq(rng.standard_normal((J, d.dim)), d) for d in A.domains
        ))
        res = lift_family(A, fam, source, target)
        reports.append(VerificationReport(
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
            witness={"instance": i, "length": J},
        ))
    return reports


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
    doc = {
        "tool": "summability",
        "version": __version__,
        "command": "experiment",
        "config": config.to_dict(),
        "records": records,
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = list(records[0].keys()) if records else []
        writer.writerow(cols)
        for rec in records:
            writer.writerow([rec[c] for c in cols])
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out}: {len(records)} records")
    else:
        sys.stdout.write(text)
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
    p_norm.add_argument("--samples", type=int, default=100_000)
    p_norm.add_argument("--starts", type=int, default=32)
    p_norm.add_argument("--seed", type=int, default=0)
    p_norm.set_defaults(handler=cmd_norm)

    p_op = sub.add_parser("opnorm", help="operator norm of a form file")
    p_op.add_argument("file")
    p_op.add_argument("--starts", type=int, default=32)
    p_op.add_argument("--seed", type=int, default=0)
    p_op.set_defaults(handler=lambda a: cmd_norm(_as_opnorm(a)))

    p_verify = sub.add_parser("verify", help="run an inequality suite")
    p_verify.add_argument("suite", choices=[
        "littlewood", "extended", "general", "bh", "dv", "almost", "inclusion",
    ])
    p_verify.add_argument("files", nargs="*", help="input files; omit to use "
                          "seeded random instances")
    p_verify.add_argument("--random", type=int, default=100,
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
    p_exp.add_argument("--count", type=int, default=5)
    _add_common(p_exp)
    p_exp.set_defaults(handler=cmd_experiment)

    p_demos = sub.add_parser("demos", help="run the built-in worked examples")
    p_demos.set_defaults(handler=lambda a: EXIT_FAIL if run_demos() else EXIT_OK)

    return parser


def _as_opnorm(args):
    args.kind = "opnorm"
    return args


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
