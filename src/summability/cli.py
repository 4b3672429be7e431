"""Batch front end: load tensors, run verifier suites and searches, emit reports.

JSON in, JSON or CSV out. Identical configuration and inputs produce byte
identical report bodies (reports carry no timestamps), and exit codes follow
a fixed contract: 0 when nothing hard-failed, 2 on any hard failure, 3 on
IO or schema errors, negative counts, non-finite input values, a report or
norm holding a non-finite number (reports are strict JSON), or a random
suite whose forms could exceed the coefficient budget.

A verify suite runs the summing verifiers on the given files or on seeded
random instances; instance i of a random suite is drawn from the i-th child
of the master seed, so ``--random 0`` runs none. Each command, suite and
norm kind takes only the options its handler reads, and a report's
``config`` echoes them. Every command writes its document through one
renderer.
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
from ._signs import _ENUM_BUDGET, sign_count
from .demos import evaluate_claims
from .forms import FormTensor, _gaussian, _op_norms, op_norm
from .norms import VectorSeq, lp_norm, mixed_norm, weak_lp_norm
from .rademacher import rad_p_norm
from .spaces import Exponent, ExponentTuple, ScalarField
from .summing import (
    RatioCertificate,
    TestFamily,
    VerificationReport,
    _chunks,
    _random_family,
    lift_families,
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
# verify inclusion lifts at most this many instances at once: each holds its
# families and certificates (about 3 KB) until its chunk is lifted
LIFT_CHUNK = 1 << 10

CSV_COLUMNS = ["check", "field", "p", "q", "lhs", "rhs", "ratio", "bound",
               "exact_norm", "status"]


class SchemaError(Exception):
    """Malformed input file or option value."""


class Parser(argparse.ArgumentParser):
    """An argparse parser, and the class of every subparser, that takes an
    option only by its full name and exits 3 on an error."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


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
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_count = _at_least(0)  # instance, record and sample counts, and seeds


def _parse_exponent(text: str) -> Exponent:
    try:
        return Exponent.of(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad exponent {text!r}: {exc}") from exc


def _parse_exponent_list(text: str) -> tuple[Exponent, ...]:
    return tuple(_parse_exponent(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# report documents


# namespace keys that are not options a report echoes: the route to the
# handler, the input paths and the output
_UNECHOED = frozenset({"command", "handler", "file", "files", "beta", "out", "format"})
# the options that only draw seeded instances, which a suite given files does not read
_SEEDING = frozenset({"random", "m", "order", "seed", "field", "jmax"})


def _header(args) -> dict:
    """The keys every document starts with; ``config`` echoes every option
    the command reads, under its dest name: those it takes but its paths
    and output, and, for a verify suite given files, not the seeding ones."""
    unechoed = _UNECHOED | _SEEDING if vars(args).get("files") else _UNECHOED
    return {
        "tool": "summability",
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in unechoed},
    }


def _report(args, reports: list[VerificationReport], **extra) -> int:
    """Write the document of ``reports`` (then ``extra``'s keys) and return
    the exit code."""
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    doc = _header(args)
    doc["reports"] = [r.to_dict() for r in reports]
    doc["summary"] = {"total": len(reports), **counts}
    _emit({**doc, **extra}, args)
    return EXIT_FAIL if any(r.status == "fail" for r in reports) else EXIT_OK


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


# ---------------------------------------------------------------------------
# norm commands


def _print_norm(kind: str, value: float, label: str) -> int:
    if not math.isfinite(value):
        raise SchemaError(f"the {kind} norm is not finite ({value!r})")
    print(f"{value!r} {label}")
    return EXIT_OK


def cmd_lp(args) -> int:
    seq = load_vector_seq(args.file)
    if seq.length != 1:
        raise SchemaError("lp expects a single-vector sequence file")
    return _print_norm("lp", lp_norm(seq.vectors[0], _parse_exponent(args.p)), "exact")


def cmd_mixed(args) -> int:
    M = load_matrix(args.file)
    value = mixed_norm(M, _parse_exponent(args.p), _parse_exponent(args.q))
    return _print_norm("mixed", value, "exact")


def cmd_weak(args) -> int:
    est = weak_lp_norm(load_vector_seq(args.file), _parse_exponent(args.p))
    return _print_norm("weak", est.value, "exact" if est.exact else "lower-bound")


def cmd_rad(args) -> int:
    seq = load_vector_seq(args.file)
    value = rad_p_norm(seq, _parse_exponent(args.p), args.mode,
                       samples=args.samples, seed=args.seed)
    return _print_norm("rad", value, "exact" if args.mode == "exact" else "monte-carlo")


def cmd_opnorm(args) -> int:
    est = op_norm(load_form(args.file))
    return _print_norm("opnorm", est.value, "exact" if est.exact else "lower-bound")


# ---------------------------------------------------------------------------
# verify commands


def _random_dims(rng, order, m):
    return tuple(int(rng.integers(2, m + 1)) for _ in range(order))


def _refuse_over_coefficient_budget(args, order: int) -> None:
    """Refuse forms of ``order`` slots and dims up to ``args.m`` over the coefficient budget."""
    # order * log2(m), not m ** order: a huge --order stays cheap
    if order * math.log2(args.m) > math.log2(RANDOM_COEFF_BUDGET):
        raise SchemaError(
            f"{args.command} draws forms of order {order} and dimension up to "
            f"{args.m}, which need up to {args.m}^{order} coefficients, over the "
            f"budget {RANDOM_COEFF_BUDGET}")


def _seeded(args, order: int, draw):
    """``draw`` of each of ``args.random`` seeded instances, forms of
    ``order`` slots and dims up to ``args.m``: instance i is ``draw`` run on
    the i-th child of the master seed. Forms that could exceed the
    coefficient budget are refused first."""
    _refuse_over_coefficient_budget(args, order)
    root = np.random.SeedSequence(args.seed)
    children = (np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (i,),
                                       pool_size=root.pool_size)
                for i in range(args.random))  # root.spawn(args.random)[i], made when needed
    return (draw(np.random.default_rng(child)) for child in children)


def _op_norm_reports(instances, verify) -> list[VerificationReport]:
    """``verify(*instance, opn=opn)`` of each seeded instance, a tuple that
    starts with a form whose operator norm is ``opn``, numbered in its
    witness: instances are taken in chunks of at most RANDOM_COEFF_BUDGET form
    coefficients (and at least one instance), and the norms of a chunk come
    from one kernel call."""
    reports = []
    for chunk in _chunks(instances, lambda instance: instance[0].coeffs.size,
                         RANDOM_COEFF_BUDGET):
        opns = _op_norms([instance[0] for instance in chunk])
        reports.extend(verify(*instance, opn=opn) for instance, opn in zip(chunk, opns))
    for i, report in enumerate(reports):
        report.witness["instance"] = i
    return reports


def _coefficient_suite(args, verify, order: int = 2) -> int:
    """``verify`` of each form file, or of seeded random forms of ``order`` slots."""
    if args.files:
        return _report(args, [verify(load_form(path)) for path in args.files])
    field = ScalarField(args.field)
    return _report(args, _op_norm_reports(_seeded(args, order, lambda rng: (
        random_form(rng, _random_dims(rng, order, args.m), field),)), verify))


# the handlers look the verifiers up by name when they run, so a rebinding
# of their module-level names (a tracer's) sees every call
def cmd_littlewood(args) -> int:
    return _coefficient_suite(args, verify_littlewood_43)


def cmd_general(args) -> int:
    return _coefficient_suite(args, verify_general_littlewood)


def cmd_bh(args) -> int:
    return _coefficient_suite(args, verify_bh, args.order)


def cmd_extended(args) -> int:
    verify = functools.partial(verify_extended_littlewood, p=_parse_exponent(args.p))
    if args.files:
        forms = [(path, load_form(path)) for path in args.files]
        beta = None if args.beta == "identity" else load_matrix(args.beta)
        return _report(args, [verify(A, _beta_for(A, path, beta, args.beta))
                              for path, A in forms])
    field = ScalarField(args.field)

    def draw(rng):
        dims = _random_dims(rng, 2, args.m)
        A = random_form(rng, dims, field)
        rows = int(rng.integers(1, args.m + 1))
        return A, _gaussian(rng, (rows, dims[0]), field.is_complex)

    return _report(args, _op_norm_reports(_seeded(args, 2, draw), verify))


def cmd_dv(args) -> int:
    if args.files:
        if len(args.files) != 2:
            raise SchemaError("dv expects a form file and a family file")
        return _report(args, [verify_defant_voigt(load_form(args.files[0]),
                                                  load_family(args.files[1]))])
    if sign_count(min(args.jmax, 64)) > _ENUM_BUDGET:  # min: a huge --jmax stays cheap
        raise SchemaError(f"--jmax {args.jmax}: a family may have 2^{args.jmax - 1} sign "
                          f"patterns, over the budget {_ENUM_BUDGET}")
    field = ScalarField(args.field)

    def draw(rng):
        A = random_form(rng, _random_dims(rng, args.order, args.m), field)
        return A, _random_family(rng, A, args.jmax)

    return _report(args, _op_norm_reports(_seeded(args, args.order, draw),
                                          verify_defant_voigt))


def cmd_almost(args) -> int:
    A, fam = load_form(args.files[0]), load_family(args.files[1])
    cert = verify_almost_summing(A, fam, k=args.curry)
    return _report(args, [_certificate_report("almost_summing", A, cert)])


def cmd_inclusion(args) -> int:
    """Random certificate lifts; status is the monotonicity of the lift. A lift
    below its source rests on a heuristic weak norm (``lift_families`` raises
    when every weak norm is exact), so it is inconclusive, never a fail. The
    instances are lifted in chunks of at most RANDOM_COEFF_BUDGET form
    coefficients and LIFT_CHUNK instances (and at least one instance), one
    ``lift_families`` call a chunk; a lift does not depend on the others of
    its chunk."""
    source = ExponentTuple(2, (2, 2))
    target = ExponentTuple(1, (Exponent.of(1), Exponent.of(2)))

    def draw(rng):
        A = random_form(rng, _random_dims(rng, 2, args.m), ScalarField.REAL)
        return A, _random_family(rng, A, 4)

    p, q, reports = str(source), str(target), []
    least = RANDOM_COEFF_BUDGET // LIFT_CHUNK  # an instance counts as at least this many
    for chunk in _chunks(_seeded(args, 2, draw), lambda pair: max(pair[0].coeffs.size, least),
                         RANDOM_COEFF_BUDGET):
        for (A, fam), res in zip(chunk, lift_families(chunk, source, target)):
            reports.append(VerificationReport(
                check="inclusion_lift",
                field=str(A.field),
                p=p,
                q=q,
                lhs=res.source.ratio,
                rhs=res.derived.ratio,
                ratio=(res.derived.ratio / res.source.ratio
                       if res.source.ratio > 0 else None),
                bound=None,
                exact_norm=res.source.exact and res.derived.exact,
                status="pass" if res.monotone else "inconclusive",
                witness={"instance": len(reports), "length": fam.length},
            ))
    return _report(args, reports)


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


# ---------------------------------------------------------------------------
# search, experiment and demos commands


def cmd_search(args) -> int:
    A = load_form(args.file)
    exps = ExponentTuple(_parse_exponent(args.p), _parse_exponent_list(args.qs))
    cert = random_family_search(A, exps, budget=args.budget, seed=args.seed,
                                j_max=args.jmax)
    return _report(args, [_certificate_report("search", A, cert)],
                   certificate=cert.to_dict())


def cmd_experiment(args) -> int:
    _refuse_over_coefficient_budget(args, 2)
    doc = _header(args)
    doc["records"] = summing_experiment(
        _parse_exponent(args.p),
        _parse_exponent(args.q),
        m=args.m,
        count=args.count,
        budget=args.budget,
        seed=args.seed,
        j_max=args.jmax,
        field=ScalarField(args.field),
    )
    _emit(doc, args)
    return EXIT_OK


def cmd_demos(args) -> int:
    rows = evaluate_claims()
    failed = sum(row["status"] == "fail" for row in rows)
    _emit({**_header(args), "claims": rows,
           "summary": {"total": len(rows), "pass": len(rows) - failed, "fail": failed}}, args)
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


# every option of every command; a command names the ones its handler reads
# and may change their settings (its own default, say)
_OPTIONS = {
    "--random": dict(type=_count, default=100,
                     help="number of seeded random instances when no files are given"),
    "--m": dict(type=_at_least(2), default=4, help="largest dimension"),
    "--order": dict(type=_at_least(2), default=3, help="form order of the random instances"),
    "--seed": dict(type=_count, default=0, help="master seed"),
    "--field": dict(choices=["real", "complex"], help="scalar field of the random forms"),
    "--jmax": dict(type=_at_least(1), default=16, help="largest random family length"),
    "--p": dict(default="2", help="exponent (decimal or fraction)"),
    "--q": dict(default="2", help="second exponent"),
    "--qs": dict(required=True, help="comma-separated inner exponents, e.g. 2,2"),
    "--beta": dict(default="identity", help="'identity' or a matrix file"),
    "--curry": dict(type=int, help="head length of the curried form"),
    "--budget": dict(type=int, default=256, help="random trial count"),
    "--count": dict(type=_count, default=5, help="number of random forms"),
    "--mode": dict(choices=["exact", "mc"], default="exact"),
    "--samples": dict(type=_count, default=100_000),
    "--out": dict(help="report file (stdout when omitted)"),
    "--format": dict(choices=["json", "csv"], default="json"),
}
_REPORT = " --out --format"


def _command(parent, name: str, handler, options: str, help=None, **settings) -> Parser:
    """Command ``name`` of the subparsers ``parent``, with the ``options``
    (names separated by spaces) of _OPTIONS, each updated by
    ``settings[dest]`` where given."""
    p = parent.add_parser(name, help=help)
    for option in options.split():
        p.add_argument(option, **{**_OPTIONS[option],
                                  **settings.get(option[2:].replace("-", "_"), {})})
    # its command is the words after the tool's name: "verify littlewood"
    p.set_defaults(handler=handler, command=p.prog.partition(" ")[2])
    return p


@functools.lru_cache(maxsize=None)  # parsing leaves the parser as it was
def build_parser() -> Parser:
    parser = Parser(
        prog="summability",
        description="Verify summability inequalities of multilinear forms "
                    "on finite sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="compute one norm from a file").add_subparsers(
        required=True)
    for kind, handler, options in [("lp", cmd_lp, "--p"), ("mixed", cmd_mixed, "--p --q"),
                                   ("weak", cmd_weak, "--p"),
                                   ("rad", cmd_rad, "--p --mode --samples --seed")]:
        _command(norm, kind, handler, options).add_argument("file")
    _command(sub, "opnorm", cmd_opnorm, "",
             help="operator norm of a form file").add_argument("file")

    verify = sub.add_parser("verify", help="run an inequality suite").add_subparsers(
        required=True)
    for suite, handler, options, field in [
        ("littlewood", cmd_littlewood, "--random --m --seed --field", "real"),
        ("general", cmd_general, "--random --m --seed --field", "real"),
        ("extended", cmd_extended, "--random --m --seed --field --p --beta", "complex"),
        ("bh", cmd_bh, "--random --m --order --seed --field", "real"),
        ("dv", cmd_dv, "--random --m --order --seed --field --jmax", "real"),
    ]:
        # --p is extended's outer exponent, --jmax the longest family of dv
        _command(verify, suite, handler, options + _REPORT, field={"default": field},
                 p={"default": "4/3"}, jmax={"default": 8}).add_argument(
            "files", nargs="*", help="input files; omit to draw seeded random instances")
    _command(verify, "almost", cmd_almost, "--curry" + _REPORT).add_argument(
        "files", nargs=2, metavar="FILE", help="a form file, then a family file")
    _command(verify, "inclusion", cmd_inclusion, "--random --m --seed" + _REPORT)

    search = _command(sub, "search", cmd_search, "--p --qs --seed --budget --jmax" + _REPORT,
                      help="best ratio certificate for a form", p={"required": True})
    search.add_argument("file")
    _command(sub, "experiment", cmd_experiment,
             "--p --q --m --count --seed --budget --jmax --field" + _REPORT,
             help="empirical (p;2,1) ratios on l_p x l_q domains", p={"default": "4/3"},
             m={"type": _at_least(1), "default": 3}, field={"default": "complex"})

    _command(sub, "demos", cmd_demos, "",
             help="each sharp constant measured at the input that attains it").set_defaults(
        format="json", out=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
