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
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from ._codec import decode_values
from .demos import run_demos
from .forms import FormTensor, _gaussian, _op_norms, op_norm
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

# random verify suites draw at most this many coefficients per form, and
# hold at most this many in a chunk of drawn instances
RANDOM_COEFF_BUDGET = 1 << 22

CSV_COLUMNS = ["check", "field", "p", "q", "lhs", "rhs", "ratio", "bound",
               "exact_norm", "status"]


class SchemaError(Exception):
    """Malformed input file or option value."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--budget", type=int, default=256, help="random trial count")
    p.add_argument("--kg-real", type=float, default=1.78221)
    p.add_argument("--kg-complex", type=float, default=1.40491)
    p.add_argument("--out", help="report file (stdout when omitted)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--jmax", type=_at_least(1), default=16,
                   help="largest random family length")
    p.add_argument("--field", choices=["real", "complex"], default=None,
                   help="scalar field override for generated instances")


def _constants(args) -> ConstantsConfig:
    return ConstantsConfig(kg_real=args.kg_real, kg_complex=args.kg_complex)


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


def _at_least(low: int):
    """argparse type of an integer option whose smallest value is ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            wanted = "a non-negative integer" if low == 0 else f"an integer >= {low}"
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value
    return parse


_count = _at_least(0)  # instance, record and sample counts


def _parse_exponent(text: str) -> Exponent:
    try:
        return Exponent.of(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad exponent {text!r}: {exc}") from exc


def _parse_exponent_list(text: str) -> tuple[Exponent, ...]:
    return tuple(_parse_exponent(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# report documents


def _header(command: str, args) -> dict:
    """The keys every document starts with; ``config`` echoes the options of
    the batch commands."""
    constants = _constants(args)
    return {
        "tool": "summability",
        "version": __version__,
        "command": command,
        "config": {
            "seed": args.seed,
            "budget": args.budget,
            "kg_real": constants.kg_real,
            "kg_complex": constants.kg_complex,
            "littlewood_real": constants.littlewood(ScalarField.REAL),
            "field": args.field,
            "j_max": args.jmax,
        },
    }


def _document(command: str, args, reports: list[VerificationReport]) -> dict:
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    doc = _header(command, args)
    doc["reports"] = [r.to_dict() for r in reports]
    doc["summary"] = {"total": len(reports), **counts}
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


def _seeded(seed: int, count: int, draw):
    """Instance i is ``draw`` run on the i-th child of the master seed."""
    root = np.random.SeedSequence(seed)
    for i in range(count):  # root.spawn(count)[i], made when needed
        child = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (i,),
                                       pool_size=root.pool_size)
        yield draw(np.random.default_rng(child))


def _op_norm_reports(instances, verify) -> list[VerificationReport]:
    """``verify(*instance, opn=opn)`` of each instance, a tuple that starts
    with a form whose operator norm is ``opn``: instances are taken in chunks
    of at most RANDOM_COEFF_BUDGET form coefficients (and at least one
    instance), and the norms of a chunk come from one kernel call."""
    reports, chunk, size = [], [], 0

    def flush():
        opns = _op_norms([instance[0] for instance in chunk])
        reports.extend(verify(*instance, opn=opn) for instance, opn in zip(chunk, opns))
        chunk.clear()

    for instance in instances:
        if chunk and size + instance[0].coeffs.size > RANDOM_COEFF_BUDGET:
            flush()
            size = 0
        chunk.append(instance)
        size += instance[0].coeffs.size
    if chunk:
        flush()
    return reports


def cmd_verify(args) -> int:
    constants = _constants(args)
    suite = args.suite
    if suite == "inclusion" and args.files:
        raise SchemaError("the inclusion suite draws seeded random instances; "
                          "it takes no input files")
    seeded = suite != "almost" and not args.files
    if seeded:
        order = args.order if suite in ("bh", "dv") else 2
        # order * log2(m), not m ** order: a huge --order stays cheap
        if args.m > 1 and order * math.log2(args.m) > math.log2(RANDOM_COEFF_BUDGET):
            raise SchemaError(
                f"random {suite} forms of order {order} and dimension up to "
                f"{args.m} need up to {args.m}^{order} coefficients, over the "
                f"budget {RANDOM_COEFF_BUDGET}")
    # the verifiers are looked up by name when this runs, so a rebinding of
    # their module-level names (a tracer's) sees every call
    if suite in ("littlewood", "general", "bh"):
        verify = functools.partial({"littlewood": verify_littlewood_43,
                                    "general": verify_general_littlewood,
                                    "bh": verify_bh}[suite], constants=constants)
        if args.files:
            reports = [verify(load_form(path)) for path in args.files]
        else:
            field = ScalarField(args.field or "real")
            order = args.order if suite == "bh" else 2
            reports = _op_norm_reports(_seeded(
                args.seed, args.random,
                lambda rng: (random_form(rng, _random_dims(rng, order, args.m), field),)),
                verify)
    elif suite == "extended":
        verify = functools.partial(
            verify_extended_littlewood, p=_parse_exponent(args.p or "4/3"),
            constants=constants)
        if args.files:
            forms = [(path, load_form(path)) for path in args.files]
            beta = None if args.beta == "identity" else load_matrix(args.beta)
            reports = [verify(A, _beta_for(A, path, beta, args.beta)) for path, A in forms]
        else:
            field = ScalarField(args.field or "complex")

            def draw(rng):
                dims = _random_dims(rng, 2, args.m)
                A = random_form(rng, dims, field)
                rows = int(rng.integers(1, args.m + 1))
                return A, _gaussian(rng, (rows, dims[0]), field.is_complex)

            reports = _op_norm_reports(_seeded(args.seed, args.random, draw), verify)
    elif suite == "dv":
        verify = verify_defant_voigt
        if args.files:
            if len(args.files) != 2:
                raise SchemaError("dv expects a form file and a family file")
            reports = [verify(load_form(args.files[0]), load_family(args.files[1]))]
        else:
            field = ScalarField(args.field or "real")

            def draw(rng):
                A = random_form(rng, _random_dims(rng, args.order, args.m), field)
                return A, _random_family(rng, A, min(args.jmax, 8))

            reports = _op_norm_reports(_seeded(args.seed, args.random, draw), verify)
    elif suite == "almost":
        if len(args.files) != 2:
            raise SchemaError("almost expects a form file and a family file")
        A = load_form(args.files[0])
        fam = load_family(args.files[1])
        cert = verify_almost_summing(A, fam, k=args.curry)
        reports = [_certificate_report("almost_summing", A, cert)]
    elif suite == "inclusion":
        reports = _inclusion_suite(args)
    else:  # unreachable behind argparse choices
        raise SchemaError(f"unknown suite {suite!r}")
    if seeded:
        for i, report in enumerate(reports):
            report.witness["instance"] = i

    doc = _document(f"verify {suite}", args, reports)
    _emit(doc, args)
    return _exit_code(reports)


def _beta_for(A: FormTensor, path: str, beta, beta_path: str) -> np.ndarray:
    """The beta matrix applied to the form of ``path``: the identity on its
    first slot when ``beta`` is None, else ``beta`` if it has one column per
    row of the form."""
    if beta is None:
        return np.eye(A.dims[0])
    if beta.ndim != 2 or beta.shape[1] != A.dims[0]:
        raise SchemaError(f"{beta_path}: a beta of shape {beta.shape} does not fit "
                          f"the form of {path}, whose first slot has dim {A.dims[0]}")
    return beta


def _certificate_report(check: str, A: FormTensor,
                        cert: RatioCertificate) -> VerificationReport:
    return VerificationReport(
        check=check,
        field=str(A.field),
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


def _inclusion_suite(args) -> list[VerificationReport]:
    """Random certificate lifts; status is the monotonicity of the lift. A lift
    below its source rests on a heuristic weak norm (``lift_family`` raises
    when every weak norm is exact), so it is inconclusive, never a fail."""
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
            status="pass" if res.monotone else "inconclusive",
            # cmd_verify fills in the instance; the key leads
            witness={"instance": None, "length": fam.length},
        )

    return list(_seeded(args.seed, args.random, build))


# ---------------------------------------------------------------------------
# search and experiment commands


def cmd_search(args) -> int:
    _constants(args)  # refuse bad constants first
    A = load_form(args.file)
    try:
        exps = ExponentTuple(_parse_exponent(args.p), _parse_exponent_list(args.qs))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if exps.n != A.order:
        raise SchemaError(
            f"exponent tuple has {exps.n} inner exponents, form has order {A.order}"
        )
    cert = random_family_search(A, exps, budget=args.budget, seed=args.seed,
                                j_max=args.jmax)
    report = _certificate_report("search", A, cert)
    doc = _document("search", args, [report])
    doc["certificate"] = cert.to_dict(include_family=True)
    _emit(doc, args)
    return _exit_code([report])


def cmd_experiment(args) -> int:
    doc = _header("experiment", args)
    doc["records"] = summing_experiment(
        _parse_exponent(args.p),
        _parse_exponent(args.q),
        m=args.m,
        count=args.count,
        budget=args.budget,
        seed=args.seed,
        j_max=args.jmax,
        field=ScalarField(args.field or "complex"),
    )
    _emit(doc, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


_STARTS_HELP = ("random starts of the alternating maximization, used where a "
                "norm has neither an exact plan nor a roots-of-unity grid on "
                "its complex sup slots")


@functools.lru_cache(maxsize=None)  # parsing leaves the parser as it was
def build_parser() -> Parser:
    parser = Parser(
        prog="summability",
        description="Verify summability inequalities of multilinear forms "
                    "on finite sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="compute one norm from a file")
    p_norm.add_argument("kind", choices=["lp", "mixed", "weak", "rad"])
    p_norm.add_argument("file")
    p_norm.add_argument("--p", default="2", help="exponent (decimal or fraction)")
    p_norm.add_argument("--q", default="2", help="inner exponent for mixed norms")
    p_norm.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_norm.add_argument("--samples", type=_count, default=100_000)
    p_norm.add_argument("--starts", type=_at_least(1), default=32, help=_STARTS_HELP)
    p_norm.add_argument("--seed", type=int, default=0)
    p_norm.set_defaults(handler=cmd_norm)

    p_op = sub.add_parser("opnorm", help="operator norm of a form file")
    p_op.add_argument("file")
    p_op.add_argument("--starts", type=_at_least(1), default=32, help=_STARTS_HELP)
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
    p_verify.add_argument("--m", type=_at_least(2), default=4, help="largest dimension")
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
    p_exp.add_argument("--m", type=_at_least(1), default=3)
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
