"""Command-line surface: one verb per invocation over a declarative workspace.

Structured mode (--json) prints exactly one line-delimited JSON record per
invocation with fixed lowercase keys: verb, status, payload, and precision
when a series window is part of the answer. Records are byte-stable for a
given workspace and command. Exit codes: 0 for a positive result, 1 for a
domain-level negative (not a solution, not provable within budget, Nonzero,
no HSP membership within bounds), 2 for parse, resolution, or argument
errors (a budget, --kmax or --prec below 1 and a --vars or --depth below 0
among them), 3 for a broken internal invariant or any other crash, reported
as one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import birkhoff, cats, dsl, inserters
from .equations import (
    general_cosolution,
    general_solution,
    generated_equation,
    generated_variety,
    implies,
    is_solution,
    single_equation_reduction,
)
from .errors import (
    InternalEquivalenceViolation,
    InvariantError,
    ParseError,
    ResolutionError,
    VeqError,
)
from .series import Nonzero, ZeroWithinPrecision, is_linear_recurrence, wronskian
from .theories import (
    Budget,
    congruent,
    general_cosolution_theories,
    kernel_pair_membership,
    print_term,
    quotient_theory,
    unify,
)


def _usage(text: str):
    raise ResolutionError("usage: " + text)


def _fun_table(f) -> dict[str, str]:
    return {x: f(x) for x in f.dom.elements}


def _sub_payload(mono) -> dict:
    return {
        "carrier": list(mono.carrier.elements),
        "inclusion": {x: mono.inclusion(x) for x in mono.carrier.elements},
    }


def _carrier_line(labels) -> str:
    return "carrier {" + ", ".join(labels) + "}"


# Each handler returns (status, payload, precision, exit_code, human_lines).


def _cmd_solve(ws, args, opts):
    if len(args) != 1:
        _usage("veq solve <system> -f workspace.veq")
    mono = general_solution(ws.get("system", args[0]))
    payload = _sub_payload(mono)
    human = [_carrier_line(mono.carrier.elements)]
    human += [f"{x} -> {mono.inclusion(x)}" for x in mono.carrier.elements]
    return "ok", payload, None, 0, human


def _cmd_cosolve(ws, args, opts):
    if len(args) != 1:
        _usage("veq cosolve <cosystem> -f workspace.veq")
    q = general_cosolution(ws.get("cosystem", args[0]))
    classes: dict[str, list[str]] = {t: [] for t in q.cod.elements}
    for x in q.dom.elements:
        classes[q(x)].append(x)
    payload = {
        "target": list(q.cod.elements),
        "map": _fun_table(q),
        "classes": classes,
    }
    human = [f"{x} -> {q(x)}" for x in q.dom.elements]
    human.append("classes: " + "; ".join(
        "{" + ", ".join(members) + "}" for members in classes.values()))
    return "ok", payload, None, 0, human


def _cmd_check_solution(ws, args, opts):
    if len(args) != 2:
        _usage("veq check-solution <system> <fun> -f workspace.veq")
    E = ws.get("system", args[0])
    a = ws.get("fun", args[1])
    holds = is_solution(a, E)
    status = "yes" if holds else "no"
    human = ["a solution" if holds else "not a solution"]
    return status, {"holds": holds}, None, 0 if holds else 1, human


def _cmd_implies(ws, args, opts):
    if len(args) != 2:
        _usage("veq implies <system> <system> -f workspace.veq")
    holds = implies(ws.get("system", args[0]), ws.get("system", args[1]))
    status = "yes" if holds else "no"
    return status, {"holds": holds}, None, 0 if holds else 1, [status]


def _cmd_reduce(ws, args, opts):
    if len(args) != 1:
        _usage("veq reduce <system> -f workspace.veq")
    eq = single_equation_reduction(ws.get("system", args[0]))
    payload = {
        "domain": list(eq.lhs.dom.elements),
        "target": list(eq.lhs.cod.elements),
        "lhs": _fun_table(eq.lhs),
        "rhs": _fun_table(eq.rhs),
    }
    human = [f"lhs: {x} -> {eq.lhs(x)}" for x in eq.lhs.dom.elements]
    human += [f"rhs: {x} -> {eq.rhs(x)}" for x in eq.rhs.dom.elements]
    return "ok", payload, None, 0, human


def _cmd_genvar(ws, args, opts):
    if not args:
        _usage("veq genvar <fun> [<fun> ...] -f workspace.veq")
    fs = [ws.get("fun", n) for n in args]
    mono = generated_variety(dsl.FINSET_CAT, fs)
    human = [_carrier_line(mono.carrier.elements)]
    return "ok", _sub_payload(mono), None, 0, human


def _cmd_geneq(ws, args, opts):
    if not args:
        _usage("veq geneq <fun> [<fun> ...] -f workspace.veq")
    fs = [ws.get("fun", n) for n in args]
    eq = generated_equation(dsl.FINSET_CAT, fs)
    payload = {
        "domain": list(eq.lhs.dom.elements),
        "target": list(eq.lhs.cod.elements),
        "lhs": _fun_table(eq.lhs),
        "rhs": _fun_table(eq.rhs),
    }
    human = [f"{x}: {eq.lhs(x)} ~ {eq.rhs(x)}" for x in eq.lhs.dom.elements]
    return "ok", payload, None, 0, human


def _cmd_unify(ws, args, opts):
    if len(args) != 2:
        _usage('veq unify "<term>" "<term>"')
    (lhs, rhs), names = dsl.parse_term_texts(args)
    mgu = unify(lhs, rhs)
    if mgu is None:
        return "not-unifiable", {}, None, 1, ["not unifiable"]
    subst = {
        names[i]: print_term(mgu[i], names) for i in sorted(mgu)
    }
    human = ["{" + ", ".join(f"{k} -> {v}" for k, v in subst.items()) + "}"]
    return "unifiable", {"substitution": subst}, None, 0, human


def _serialize_steps(cert):
    return [
        {
            "position": list(step.position),
            "axiom": step.axiom,
            "forward": step.forward,
            "subst": {str(i): print_term(t) for i, t in step.subst},
        }
        for step in cert
    ]


def _cmd_decide(ws, args, opts):
    if len(args) != 3:
        _usage('veq decide <theory> "<term>" "<term>" -f workspace.veq')
    T = ws.get("theory", args[0])
    (lhs, rhs), _ = dsl.parse_term_texts(args[1:], T.signature)
    res = congruent(T, lhs, rhs, Budget(steps=opts.budget))
    if res.provable:
        payload = {
            "expansions": res.expansions,
            "certificate": _serialize_steps(res.certificate),
        }
        human = [f"provable ({res.expansions} expansions, "
                 f"{len(res.certificate)} steps)"]
        return "provable", payload, None, 0, human
    payload = {"expansions": res.expansions, "certificate": None}
    return "unknown", payload, None, 1, [f"unknown within budget {opts.budget}"]


def _cmd_quotient(ws, args, opts):
    if len(args) < 2:
        _usage('veq quotient <theory> "<lhs> ~ <rhs>" [...] -f workspace.veq')
    T = ws.get("theory", args[0])
    extra = [dsl.parse_axiom_text(text, T.signature) for text in args[1:]]
    Q, M = quotient_theory(T, extra)
    payload = {
        "quotient": Q.name,
        "axiom_count": len(Q.axioms),
        "added": [f"{print_term(l)} ~ {print_term(r)}" for l, r in extra],
        "images": {sym: print_term(img) for sym, img in M.images},
    }
    human = [f"{Q.name}: {len(Q.axioms)} axioms "
             f"({len(extra)} added), morphism is identity on symbols"]
    return "ok", payload, None, 0, human


def _cmd_cosolve_theories(ws, args, opts):
    if len(args) < 2 or len(args) % 2 != 0:
        _usage("veq cosolve-theories <thmor> <thmor> [<thmor> <thmor> ...] "
               "-f workspace.veq")
    morphisms = [ws.get("thmor", n) for n in args]
    pairs = [(morphisms[i], morphisms[i + 1]) for i in range(0, len(morphisms), 2)]
    Q, M = general_cosolution_theories(pairs)
    base = pairs[0][0].target
    added = Q.axioms[len(base.axioms):]
    payload = {
        "quotient": Q.name,
        "axiom_count": len(Q.axioms),
        "added": [f"{print_term(l)} ~ {print_term(r)}" for l, r in added],
        "images": {sym: print_term(img) for sym, img in M.images},
    }
    human = [f"{Q.name}: coequalized {len(pairs)} pair(s), "
             f"{len(added)} axioms added"]
    return "ok", payload, None, 0, human


def _cmd_kernel(ws, args, opts):
    if len(args) != 3:
        _usage('veq kernel <thmor> "<term>" "<term>" -f workspace.veq')
    M = ws.get("thmor", args[0])
    (lhs, rhs), _ = dsl.parse_term_texts(args[1:], M.source.signature)
    verdict = kernel_pair_membership(M, lhs, rhs, Budget(steps=opts.budget))
    payload = {
        "lhs_image": print_term(M.apply(lhs)),
        "rhs_image": print_term(M.apply(rhs)),
    }
    if verdict == "InKernel":
        return "in-kernel", payload, None, 0, ["in the kernel congruence"]
    return "unknown", payload, None, 1, [f"unknown within budget {opts.budget}"]


def _cmd_hsp(ws, args, opts):
    if len(args) != 2:
        _usage("veq hsp <algebra> <algebra> -f workspace.veq")
    B = ws.get("algebra", args[0])
    A = ws.get("algebra", args[1])
    res = birkhoff.hsp_member(B, A, k_max=opts.kmax)
    if res.yes:
        w = res.witness
        payload = {
            "k": w.k,
            "generators": list(w.generators),
            "subalgebra_size": len(w.subalgebra.carrier),
        }
        human = [f"member: quotient of a subalgebra of a power (k={w.k})"]
        return "member", payload, None, 0, human
    ident = res.violated_identity
    payload = {
        "violated_identity": (
            f"{print_term(ident.lhs)} ~ {print_term(ident.rhs)}"
            if ident is not None else None),
    }
    human = ["not a member within bounds"]
    if ident is not None:
        human.append(
            f"violated identity: {print_term(ident.lhs)} ~ {print_term(ident.rhs)}")
    return "no-within-bounds", payload, None, 1, human


def _cmd_identities(ws, args, opts):
    if len(args) != 1:
        _usage("veq identities <algebra> [--vars N] [--depth N] -f workspace.veq")
    A = ws.get("algebra", args[0])
    found = birkhoff.identities_of(A, opts.vars, opts.depth)
    rendered = [f"{print_term(i.lhs)} ~ {print_term(i.rhs)}" for i in found]
    payload = {"identities": rendered, "count": len(rendered)}
    return "ok", payload, None, 0, rendered or ["(none)"]


def _cmd_freealg(ws, args, opts):
    if len(args) != 1:
        _usage("veq freealg <algebra> [--vars N] -f workspace.veq")
    A = ws.get("algebra", args[0])
    res = birkhoff.free_algebra_in_variety(A, opts.vars)
    payload = {
        "size": len(res.algebra.carrier),
        "generators": list(res.generators),
        "elements": list(res.algebra.carrier.elements),
    }
    human = [f"free algebra on {opts.vars} generators has "
             f"{len(res.algebra.carrier)} elements"]
    return "ok", payload, None, 0, human


def _cmd_centralizer(ws, args, opts):
    if len(args) < 1:
        _usage("veq centralizer <group> [<element> ...] -f workspace.veq")
    G = ws.get("group", args[0])
    mono = birkhoff.centralizer(G, args[1:])
    payload = {"carrier": list(mono.carrier.elements)}
    return "ok", payload, None, 0, [_carrier_line(mono.carrier.elements)]


def _cmd_abelianize(ws, args, opts):
    if len(args) != 1:
        _usage("veq abelianize <group> -f workspace.veq")
    G = ws.get("group", args[0])
    q = birkhoff.abelianization(G)
    mapping = q.mapping()
    payload = {
        "order": len(q.cod),
        "target": list(q.cod.carrier.elements),
        "map": mapping,
    }
    human = [f"abelianization has order {len(q.cod)}"]
    human += [f"{x} -> {y}" for x, y in mapping.items()]
    return "ok", payload, None, 0, human


def _functor_pair(ws, args, what):
    if len(args) != 2:
        _usage(f"veq {what} <functor> <functor> -f workspace.veq")
    return ws.get("functor", args[0]), ws.get("functor", args[1])


def _cmd_inserter(ws, args, opts):
    F, G = _functor_pair(ws, args, "inserter")
    ins = inserters.inserter(F, G)
    payload = {
        "objects": list(ins.category.objects),
        "object_count": len(ins.category.objects),
        "morphism_count": len(ins.category.morphisms),
    }
    human = [f"{len(ins.category.objects)} objects, "
             f"{len(ins.category.morphisms)} morphisms"]
    human += [f"  {o}" for o in ins.category.objects]
    return "ok", payload, None, 0, human


def _cmd_verify_forgetful(ws, args, opts):
    F, G = _functor_pair(ws, args, "verify-forgetful")
    ins = inserters.inserter(F, G)
    flags = inserters.verify_forgetful(ins.forgetful)
    ok = all(flags.values())
    human = [f"{prop}: {'yes' if val else 'NO'}" for prop, val in flags.items()]
    return ("ok" if ok else "violated"), dict(flags), None, (0 if ok else 3), human


def _cmd_shift(ws, args, opts):
    if len(args) != 4 or args[0] not in ("left", "right"):
        _usage("veq shift left|right <functor> <functor> <adjunction> "
               "-f workspace.veq")
    direction = args[0]
    F = ws.get("functor", args[1])
    G = ws.get("functor", args[2])
    adj = ws.get("adjunction", args[3])
    if direction == "left":
        there, back = inserters.shift_left(F, G, adj)
    else:
        there, back = inserters.shift_right(F, G, adj)
    round_trip = (
        cats.functors_equal(
            cats.compose_functors(back, there), cats.identity_functor(there.source))
        and cats.functors_equal(
            cats.compose_functors(there, back), cats.identity_functor(back.source)))
    payload = {
        "direction": direction,
        "there": dict(there.obj_map),
        "back": dict(back.obj_map),
        "round_trip_identity": round_trip,
    }
    human = [f"{src} -> {tgt}" for src, tgt in there.obj_map.items()]
    human.append("round trip is the identity" if round_trip
                 else "round trip FAILED to be the identity")
    if not round_trip:
        return "violated", payload, None, 3, human
    return "ok", payload, None, 0, human


def _cmd_recurrence(ws, args, opts):
    if len(args) != 3 or args[1] != "order":
        _usage("veq recurrence <series> order <n> [--prec N] -f workspace.veq")
    f = ws.get("series", args[0])
    try:
        order = int(args[2])
    except ValueError:
        _usage("veq recurrence <series> order <n>: n must be an integer")
    if order < 0:
        _usage("veq recurrence <series> order <n>: n must be non-negative")
    if opts.prec is not None:
        f = f.truncate(opts.prec)
    verdict = is_linear_recurrence(f, order)
    if isinstance(verdict, ZeroWithinPrecision):
        payload = {"order": order}
        human = [f"ZeroWithinPrecision at precision {verdict.precision}"]
        return "zero-within-precision", payload, verdict.precision, 0, human
    payload = {"order": order, "witness_index": verdict.index}
    return "nonzero", payload, None, 1, [f"Nonzero at index {verdict.index}"]


def _cmd_wronskian(ws, args, opts):
    if not args:
        _usage("veq wronskian <series> [<series> ...] [--prec N] -f workspace.veq")
    fs = [ws.get("series", n) for n in args]
    if opts.prec is not None:
        fs = [f.truncate(opts.prec) for f in fs]
    w = wronskian(fs)
    coeffs = _exact_strings(w.coeffs)
    payload = {"coeffs": coeffs}
    human = [", ".join(coeffs), f"precision {w.precision}"]
    return "ok", payload, w.precision, 0, human


def _exact_strings(values) -> list[str]:
    """str of each value, however many digits it has. The interpreter's
    limit on int-to-str conversion is lifted for these calls only: the
    parser's "number too long" error relies on it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_check(ws, args, opts):
    if args:
        _usage("veq check -f workspace.veq")
    reparsed = dsl.parse(dsl.print_workspace(ws), where="<printed>")
    ok = reparsed == ws
    counts = {kind: len(ws.defs[kind]) for kind in dsl.KINDS if ws.defs[kind]}
    payload = {"definitions": counts, "round_trip": ok}
    total = sum(counts.values())
    if ok:
        return "ok", payload, None, 0, [f"{total} definitions valid, round trip holds"]
    return "violated", payload, None, 3, ["round trip FAILED"]


HANDLERS = {
    "solve": _cmd_solve,
    "cosolve": _cmd_cosolve,
    "check-solution": _cmd_check_solution,
    "implies": _cmd_implies,
    "reduce": _cmd_reduce,
    "genvar": _cmd_genvar,
    "geneq": _cmd_geneq,
    "unify": _cmd_unify,
    "decide": _cmd_decide,
    "quotient": _cmd_quotient,
    "cosolve-theories": _cmd_cosolve_theories,
    "kernel": _cmd_kernel,
    "hsp": _cmd_hsp,
    "identities": _cmd_identities,
    "freealg": _cmd_freealg,
    "centralizer": _cmd_centralizer,
    "abelianize": _cmd_abelianize,
    "inserter": _cmd_inserter,
    "verify-forgetful": _cmd_verify_forgetful,
    "shift": _cmd_shift,
    "recurrence": _cmd_recurrence,
    "wronskian": _cmd_wronskian,
    "check": _cmd_check,
}


def _internal_error(e: Exception) -> int:
    """Report a crash as one line with exit 3, never as a domain answer."""
    detail = " ".join(str(e).split())
    print(f"veq: internal error: {type(e).__name__}" + (f": {detail}" if detail else ""),
          file=sys.stderr)
    return 3


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and `main` still reads `HANDLERS` and VEQ_BUDGET on every call."""
    ap = argparse.ArgumentParser(
        prog="veq",
        description="equations, varieties, and series over finite instances")
    ap.add_argument("verb", help="one of: " + ", ".join(sorted(HANDLERS)))
    ap.add_argument("args", nargs="*", help="verb arguments")
    ap.add_argument("--json", action="store_true", dest="json_mode",
                    help="emit one structured JSON record")
    ap.add_argument("-f", "--file", action="append", default=None,
                    help="workspace source file (repeatable)")
    ap.add_argument("--budget", type=int, default=None,
                    help="proof search budget (default: VEQ_BUDGET or 10000)")
    ap.add_argument("--prec", type=int, default=None,
                    help="truncate series arguments to this precision")
    ap.add_argument("--kmax", type=int, default=None,
                    help="largest power to search for hsp membership")
    ap.add_argument("--depth", type=int, default=2,
                    help="term depth bound for identity search")
    ap.add_argument("--vars", type=int, default=2,
                    help="variable count for identity or free algebra search")
    return ap


def main(argv=None) -> int:
    opts = _arg_parser().parse_args(argv)
    source, raw = (("--budget", opts.budget) if opts.budget is not None
                   else ("VEQ_BUDGET", os.environ.get("VEQ_BUDGET", "10000")))
    try:
        opts.budget = int(raw)
    except ValueError:
        opts.budget = 0
    if opts.budget <= 0:
        print(f"veq: usage: {source} must be a positive integer, not {raw!r}",
              file=sys.stderr)
        return 2
    for flag, value, least in (("--kmax", opts.kmax, 1), ("--prec", opts.prec, 1),
                               ("--vars", opts.vars, 0), ("--depth", opts.depth, 0)):
        if value is not None and value < least:
            kind = "a positive" if least else "a non-negative"
            print(f"veq: usage: {flag} must be {kind} integer, not {value!r}",
                  file=sys.stderr)
            return 2

    handler = HANDLERS.get(opts.verb)
    if handler is None:
        print(f"veq: unknown verb {opts.verb!r}; expected one of "
              + ", ".join(sorted(HANDLERS)), file=sys.stderr)
        return 2

    try:
        ws = dsl.parse_files(opts.file or ())
    except (ParseError, ResolutionError, InvariantError) as e:
        print(f"veq: {e}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as e:
        print(f"veq: cannot read workspace: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)

    try:
        status, payload, precision, code, human = handler(ws, opts.args, opts)
    except (ParseError, ResolutionError) as e:
        print(f"veq: {e}", file=sys.stderr)
        return 2
    except (InvariantError, InternalEquivalenceViolation) as e:
        print(f"veq: internal invariant violated: {e}", file=sys.stderr)
        return 3
    except VeqError as e:
        print(f"veq: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)

    if opts.json_mode:
        record = {"verb": opts.verb, "status": status, "payload": payload}
        if precision is not None:
            record["precision"] = precision
        print(json.dumps(record, sort_keys=True))
    else:
        for line in human:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
