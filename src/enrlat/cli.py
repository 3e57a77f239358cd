"""Command line front end.

Every command prints a deterministic envelope:

    {"command","inputs_digest","verdicts","payload","runtime_ms"}

Under --json the output is canonical (sorted keys, no spaces) and
runtime_ms is pinned to 0 so reruns are byte identical.  Exit status is 0
when the command ran and its primary verdict (if any) holds, 1 when the
primary verdict is negative, 2 on any domain error, and 141 when the reader
closed stdout before the output was written.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import acceptance
from .classgroups import class_group, cm_report
from .embeddings import (
    character_upper_bound,
    embedding_complement,
    embedding_for_label,
    embedding_from_images,
    realized_characters,
    t_gram,
    vectors_of_norm,
)
from .enriques import epsilon, is_twice_even
from .errors import BadShape, EnrLatError, NotFound, NotPrimitive
from .fqf import FiniteQuadraticForm, canonical_form, discriminant_form, trivial_form
from .lattice import Lattice, _is_int, standard_lattice, sublattice_from_gram_change
from .nikulin import (
    condition_star,
    exists_even_lattice,
    index_p_sublattice,
    make_datum,
    transfer_datum_down,
    transfer_datum_up,
    verify_embedding_datum,
)

_PRIMARY = {
    "verify-embedding": "valid",
    "theorem-a": "constructed",
    "roots": "found",
    "nikulin-exists": "exists",
    "condition-star": "satisfied",
    "verify-datum": "valid",
    "theorem-c": "applies",
    "accept": "all_pass",
}


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def inputs_digest(inputs):
    return hashlib.sha256(canonical_json(inputs).encode()).hexdigest()


def fqf_to_json(f):
    c = canonical_form(f)
    return {
        "invariant_factors": [int(d) for d in c.orders],
        "q": [
            [[int(v.numerator), int(v.denominator)] for v in row] for row in c.values
        ],
    }


def _field(obj, key, what):
    """obj[key] for a JSON object obj, or BadShape naming what lacks it."""
    if not isinstance(obj, dict) or key not in obj:
        raise BadShape("%s has no %r field" % (what, key))
    return obj[key]


def _q_entry(entry):
    """A [num, den] pair of integers with den != 0, as a Fraction."""
    if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_int, entry))):
        raise BadShape("form q entries must be [num, den] pairs of integers, got %r" % (entry,))
    if entry[1] == 0:
        raise BadShape("form q entry %r has a zero denominator" % (entry,))
    return Fraction(*entry)


def fqf_from_json(obj):
    orders = _field(obj, "invariant_factors", "form")
    if not isinstance(orders, list) or not all(map(_is_int, orders)):
        raise BadShape("form invariant_factors must be a list of integers")
    rows = _field(obj, "q", "form")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise BadShape("form q must be a list of rows")
    return FiniteQuadraticForm(tuple(orders), [[_q_entry(e) for e in row] for row in rows])


def datum_to_json(d):
    return {
        "H_L": [list(r) for r in d.h_l],
        "H_N": [list(r) for r in d.h_n],
        "gamma": [list(r) for r in d.gamma],
        "K": {
            "rank": d.k_rank,
            "signature": list(d.k_signature),
            "fqf": fqf_to_json(d.k_fqf),
        },
        "delta": None if d.delta is None else [list(r) for r in d.delta],
    }


def datum_from_json(obj):
    k = _field(obj, "K", "datum")
    return make_datum(
        _field(obj, "H_L", "datum"),
        _field(obj, "H_N", "datum"),
        _field(obj, "gamma", "datum"),
        _field(k, "rank", "datum K"),
        _field(k, "signature", "datum K"),
        fqf_from_json(_field(k, "fqf", "datum K")),
        delta=obj.get("delta"),
    )


def _json_arg(text, what):
    # ValueError also covers an integer past Python's digit limit
    try:
        return json.loads(text)
    except ValueError as exc:
        raise BadShape("%s is not valid JSON: %s" % (what, exc))


def _load_json_file(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadShape("cannot read %s: %s" % (what, exc))
    except ValueError as exc:
        raise BadShape("%s is not valid JSON: %s" % (what, exc))


def _int_list(text, what):
    """A list of ints, as JSON ("[1,0,1]") or bare commas ("1,0,1")."""
    text = text.strip()
    if text.startswith("["):
        obj = _json_arg(text, what)
        if not isinstance(obj, list) or not all(map(_is_int, obj)):
            raise BadShape("%s must be a list of integers" % what)
        return obj
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise BadShape("%s is not an integer list: %s" % (what, exc))


def _gram_arg(text, what="gram"):
    """A symmetric integer matrix: JSON, {"gram": ...}, or "2,1;1,10"."""
    text = text.strip()
    if not text.startswith(("[", "{")):
        try:
            return [
                [int(part) for part in row.split(",")]
                for row in text.split(";")
            ]
        except ValueError as exc:
            raise BadShape("%s is not a matrix: %s" % (what, exc))
    obj = _json_arg(text, what)
    if isinstance(obj, dict):
        obj = obj.get("gram")
    if not isinstance(obj, list):
        raise BadShape("%s must be a JSON matrix" % what)
    return obj


def _gram_from(inline, path, what="gram"):
    """Resolve a gram given inline text or a file path, exactly one."""
    if (inline is None) == (path is None):
        raise BadShape("pass %s inline or as a file, not both or neither" % what)
    if inline is not None:
        return _gram_arg(inline, what)
    obj = _load_json_file(path, what)
    if isinstance(obj, dict):
        obj = obj.get("gram")
    if not isinstance(obj, list):
        raise BadShape("%s file must hold a matrix" % what)
    return obj


def _lattice_report(lat):
    # discr is the signed det(gram), serialized as a string because repeated
    # index-p descent grows it past what JSON numbers can carry faithfully
    return {
        "gram": [list(r) for r in lat.gram],
        "rank": lat.rank,
        "signature": list(lat.signature),
        "even": True,
        "discr": str(lat.det),
    }


def _cmd_standard_lattice(args):
    lat = standard_lattice(args.tag)
    return {"tag": args.tag}, {}, _lattice_report(lat)


def _cmd_epsilon(args):
    vec = _int_list(args.vector, "vector")
    inputs = {"vector": vec}
    return inputs, {}, {"parity": epsilon(vec)}


def _cmd_roots(args):
    gram = _gram_from(args.gram, args.gram_file)
    lat = Lattice(gram)
    vecs = vectors_of_norm(lat, args.norm, cap=args.cap)
    inputs = {"gram": gram, "norm": args.norm, "cap": args.cap}
    shown = [list(v) for v in vecs[:48]]
    payload = {"count": len(vecs), "vectors": shown, "truncated": len(vecs) > len(shown)}
    return inputs, {"found": bool(vecs)}, payload


def _cmd_verify_embedding(args):
    path = args.file if args.file is not None else args.file_pos
    if path is None:
        raise BadShape("an embedding file is required")
    obj = _load_json_file(path, "embedding file")
    source_gram = _field(obj, "source_gram", "embedding file")
    images = _field(obj, "images", "embedding file")
    source = Lattice(source_gram)
    inputs = {"source_gram": source_gram, "images": images}
    verdicts = {"valid": False, "complement_twice_even": None}
    payload = {}
    try:
        emb = embedding_from_images(source, images)
    except (BadShape, NotPrimitive, EnrLatError) as exc:
        payload["reason"] = "%s: %s" % (type(exc).__name__, exc)
        return inputs, verdicts, payload
    _, comp = embedding_complement(emb)
    verdicts["valid"] = True
    verdicts["complement_twice_even"] = is_twice_even(comp.gram)
    payload["label"] = list(emb.label)
    payload["complement_gram"] = [list(r) for r in comp.gram]
    return inputs, verdicts, payload


def _cmd_theorem_a(args):
    params = tuple(_int_list(args.params, "params"))
    label = tuple(_int_list(args.label, "label"))
    inputs = {"rho": args.rho, "params": list(params), "label": list(label)}
    try:
        emb = embedding_for_label(args.rho, params, label)
    except NotFound as exc:
        return inputs, {"constructed": False}, {"reason": str(exc)}
    _, comp = embedding_complement(emb)
    payload = {
        "source_gram": [list(r) for r in emb.source.gram],
        "images": [list(r) for r in emb.images],
        "label": list(emb.label),
        "complement_gram": [list(r) for r in comp.gram],
        "complement_twice_even": is_twice_even(comp.gram),
    }
    return inputs, {"constructed": True}, payload


def _cmd_brauer_image(args):
    params = tuple(_int_list(args.params, "params"))
    inputs = {"rho": args.rho, "params": list(params)}
    realized = realized_characters(args.rho, params)
    bound = character_upper_bound(t_gram(args.rho, params))
    payload = {
        "realized": [list(c) for c in realized],
        "upper_bound": [list(c) for c in bound],
        "saturates_bound": realized == bound,
    }
    return inputs, {}, payload


def _cmd_im_phi_bound(args):
    gram = _gram_arg(args.gram)
    inputs = {"gram": gram}
    bound = character_upper_bound(gram)
    payload = {
        "characters": [list(c) for c in bound],
        "size": len(bound),
        "trivial_only": len(bound) == 1,
    }
    return inputs, {}, payload


def _cmd_nikulin_exists(args):
    sig = tuple(_int_list(args.signature, "signature"))
    if args.gram is not None:
        gram = _gram_arg(args.gram)
        form = discriminant_form(Lattice(gram))
        inputs = {"signature": list(sig), "gram": gram}
    elif args.fqf_file is not None:
        obj = _load_json_file(args.fqf_file, "form file")
        form = fqf_from_json(obj)
        inputs = {"signature": list(sig), "fqf": obj}
    else:
        form = trivial_form()
        inputs = {"signature": list(sig), "fqf": None}
    return inputs, {"exists": exists_even_lattice(sig, form)}, {}


def _cmd_condition_star(args):
    parent = Lattice(_gram_from(args.parent_gram, args.lattice, "parent gram"))
    if args.child_gram is not None:
        child = Lattice(_gram_arg(args.child_gram, "child gram"))
    elif args.sublattice is not None:
        rows = _load_json_file(args.sublattice, "sublattice basis")
        if isinstance(rows, dict):
            rows = rows.get("rows", rows.get("basis_rows"))
        child = sublattice_from_gram_change(parent, rows)
    else:
        raise BadShape("pass the sublattice as --child-gram or --sublattice")
    inputs = {
        "parent_gram": [list(r) for r in parent.gram],
        "child_gram": [list(r) for r in child.gram],
    }
    report = condition_star(parent, child)
    payload = {
        "index": report.index,
        "gcd_ok": report.gcd_ok,
        "ell_bounds_ok": report.ell_bounds_ok,
        "witness_primes": list(report.witness_primes),
    }
    return inputs, {"satisfied": report.verdict}, payload


def _cmd_sublattice(args):
    lat = Lattice(_gram_from(args.gram, args.lattice))
    sub, rows = index_p_sublattice(lat, args.prime)
    inputs = {"gram": [list(r) for r in lat.gram], "prime": args.prime}
    payload = _lattice_report(sub)
    payload["basis_rows"] = [list(r) for r in rows]
    payload["index"] = args.prime
    return inputs, {}, payload


def _cmd_transfer(args):
    parent = Lattice(_gram_arg(args.parent_gram, "parent gram"))
    child = Lattice(_gram_arg(args.child_gram, "child gram"))
    basis = _json_arg(args.child_basis, "child basis")
    datum = datum_from_json(_load_json_file(args.datum_file, "datum file"))
    inputs = {
        "direction": args.direction,
        "parent_gram": [list(r) for r in parent.gram],
        "child_gram": [list(r) for r in child.gram],
        "child_basis": basis,
        "datum": datum_to_json(datum),
    }
    if args.direction == "down":
        out = transfer_datum_down(parent, child, datum, basis)
    else:
        out = transfer_datum_up(parent, child, datum, basis)
    return inputs, {}, {"datum": datum_to_json(out)}


def _cmd_verify_datum(args):
    lat = Lattice(_gram_arg(args.gram))
    datum = datum_from_json(_load_json_file(args.datum_file, "datum file"))
    inputs = {"gram": [list(r) for r in lat.gram], "datum": datum_to_json(datum)}
    ok, reasons = verify_embedding_datum(lat, datum)
    return inputs, {"valid": ok}, {"reasons": list(reasons)}


def _cmd_class_group(args):
    group = class_group(args.disc)
    inputs = {"disc": args.disc}
    payload = {
        "discriminant": group.disc,
        "class_number": group.h,
        "forms": [list(f) for f in group.forms],
        "ambiguous_count": group.ambiguous_count,
    }
    return inputs, {}, payload


def _cmd_theorem_c(args):
    gram = _gram_arg(args.gram)
    report = cm_report(gram)
    inputs = {"gram": gram}
    payload = {
        "form": list(report.reduced_form),
        "discriminant": report.disc,
        "fundamental_discriminant": report.fundamental_disc,
        "conductor": report.conductor,
        "splitting": report.splitting,
        "end_is_maximal": report.end_is_maximal,
        "index": report.index,
    }
    return inputs, {"applies": report.applies}, payload


def _cmd_accept(args):
    fixtures = acceptance.load_fixtures(args.fixtures)
    suite = args.suite if args.suite is not None else args.suite_pos
    if suite == "all":
        suite = None
    inputs = {
        "suite": suite,
        "criterion": args.criterion,
        "fixtures": args.fixtures,
    }
    if args.criterion is not None:
        if args.criterion not in acceptance.criterion_numbers():
            raise BadShape("no acceptance criterion %d" % args.criterion)
        results = [acceptance.run_criterion(args.criterion, fixtures)]
    else:
        results = acceptance.run_suite(suite, fixtures)
    payload = {
        "results": [
            {
                "criterion": r.number,
                "name": r.name,
                "ok": r.ok,
                "limit_seconds": r.limit,
                "detail": r.detail,
            }
            for r in results
        ]
    }
    if not args.json:
        for r in results:
            print(acceptance.format_result(r))
    return inputs, {"all_pass": all(r.ok for r in results)}, payload


class _UsageError(Exception):
    """An argparse error; its args are the parser that met it and the
    message."""


def _raising(parser):
    """parser, raising _UsageError where argparse prints usage and exits."""
    def error(message):
        raise _UsageError(parser, message)
    parser.error = error
    return parser


def build_parser():
    parser = _raising(argparse.ArgumentParser(prog="enrlat"))
    parser.add_argument("--json", action="store_true", help="canonical JSON output")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed recorded in the inputs digest; every shipped operation is "
        "deterministic without one, so this only tags the run",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def addp(name, run, helptext):
        # --json/--seed are accepted after the subcommand too; distinct
        # dests because argparse lets subparser defaults clobber parent
        # values on a shared dest
        p = _raising(sub.add_parser(name, help=helptext))
        p.add_argument("--json", action="store_true", dest="json_sub",
                       help=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=None, dest="seed_sub",
                       help=argparse.SUPPRESS)
        p.set_defaults(run=run)
        return p

    p = addp("standard-lattice", _cmd_standard_lattice, "print a named reference lattice")
    p.add_argument("--tag", "--name", dest="tag", required=True)

    p = addp("epsilon", _cmd_epsilon, "parity of a length-12 ambient vector")
    p.add_argument("--vector", required=True)

    p = addp("roots", _cmd_roots, "enumerate vectors of a given norm")
    p.add_argument("--gram")
    p.add_argument("--gram-file")
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--cap", type=int, default=200000)

    p = addp("verify-embedding", _cmd_verify_embedding, "validate an embedding file")
    p.add_argument("file_pos", nargs="?", metavar="file")
    p.add_argument("--file")

    p = addp("theorem-a", _cmd_theorem_a, "build the table embedding for a label")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--label", required=True)

    p = addp("brauer-image", _cmd_brauer_image, "realized characters against the bound")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--params", required=True)

    p = addp("im-phi-bound", _cmd_im_phi_bound, "character upper bound for a gram")
    p.add_argument("--gram", required=True)

    p = addp("nikulin-exists", _cmd_nikulin_exists, "even lattice existence test")
    p.add_argument("--signature", "--sig", dest="signature", required=True)
    p.add_argument("--gram")
    p.add_argument("--fqf-file", "--fqf", dest="fqf_file")

    p = addp("condition-star", _cmd_condition_star, "index and local bounds between lattices")
    p.add_argument("--parent-gram")
    p.add_argument("--lattice", help="parent gram as a JSON file")
    p.add_argument("--child-gram")
    p.add_argument("--sublattice", help="child basis rows as a JSON file")

    p = addp("sublattice", _cmd_sublattice, "index-p sublattice at an odd prime")
    p.add_argument("--gram")
    p.add_argument("--lattice", help="gram as a JSON file")
    p.add_argument("--prime", "--p", dest="prime", type=int, required=True)

    p = addp("transfer", _cmd_transfer, "move a gluing datum between lattices")
    p.add_argument("--direction", choices=("down", "up"), required=True)
    p.add_argument("--parent-gram", required=True)
    p.add_argument("--child-gram", required=True)
    p.add_argument("--child-basis", required=True)
    p.add_argument("--datum-file", required=True)

    p = addp("verify-datum", _cmd_verify_datum, "check a gluing datum against a lattice")
    p.add_argument("--gram", required=True)
    p.add_argument("--datum-file", required=True)

    p = addp("class-group", _cmd_class_group, "reduced binary forms of a discriminant")
    p.add_argument("--disc", "-D", dest="disc", type=int, required=True)

    p = addp("theorem-c", _cmd_theorem_c, "multiplier report for a rank-2 gram")
    p.add_argument("--gram", required=True)

    p = addp("accept", _cmd_accept, "run acceptance criteria")
    suite_names = ["all"] + sorted(acceptance.SUITES)
    p.add_argument("suite_pos", nargs="?", choices=suite_names, metavar="suite")
    p.add_argument("--suite", choices=suite_names)
    p.add_argument("--criterion", type=int)
    p.add_argument("--fixtures")

    return parser


def _usage_error(exc, argv):
    """Exit status 2 for an argparse error: with --json a BadShape envelope
    naming the subcommand (null when none was reached), else argparse's
    usage text and message on stderr. argparse takes any prefix of --json
    from --j on for it, so the error path does too."""
    parser, message = exc.args
    if any(len(a) > 2 and "--json".startswith(a) for a in argv):
        command = parser.prog.split()[1] if parser.prog != "enrlat" else None
        print(canonical_json({"command": command,
                              "error": {"type": "BadShape", "message": message}}))
    else:
        parser.print_usage(sys.stderr)
        print("%s: error: %s" % (parser.prog, message), file=sys.stderr)
    return 2


# exit status when the reader closed stdout first: 128 + SIGPIPE, the
# status of a process that the signal ended
CLOSED_STDOUT = 141


def main(argv=None):
    """Run one command line and return its exit status. When the reader
    has closed stdout, stdout is pointed at the null device, so neither
    this call nor the interpreter's flush at exit prints a traceback, and
    the status is CLOSED_STDOUT."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # a stdout with no file descriptor (an in-process stand-in) needs none
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        return CLOSED_STDOUT
    return code


def _run(argv):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _usage_error(exc, argv)
    args.json = args.json or getattr(args, "json_sub", False)
    if args.seed is None:
        args.seed = getattr(args, "seed_sub", None)
    start = time.monotonic()
    try:
        inputs, verdicts, payload = args.run(args)
        if args.seed is not None:
            inputs["seed"] = args.seed
    except EnrLatError as exc:
        err = {"command": args.command, "error": {"type": type(exc).__name__, "message": str(exc)}}
        if args.json:
            print(canonical_json(err))
        else:
            print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    runtime_ms = 0 if args.json else int(1000 * (time.monotonic() - start))
    envelope = {
        "command": args.command,
        "inputs_digest": inputs_digest(inputs),
        "verdicts": verdicts,
        "payload": payload,
        "runtime_ms": runtime_ms,
    }
    if args.json:
        print(canonical_json(envelope))
    elif args.command != "accept":
        for key in sorted(verdicts):
            print("%s: %s" % (key, verdicts[key]))
        print(json.dumps(payload, indent=2, sort_keys=True))
        print("runtime: %d ms" % runtime_ms)
    else:
        print("all_pass: %s" % verdicts["all_pass"])
    key = _PRIMARY.get(args.command)
    if key is not None and not verdicts.get(key, True):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
