"""Command-line front end: simulate, ak, predict, histories, verify.

Problems are chosen with selectors (``grover:n=2``, ``dj:n=2``, ``simon:n=2``,
``file:PATH``).  Text and JSON outputs report the same numbers: probabilities
and entropies to six decimals, amplitudes to nine.  All configuration comes
from flags; ordering is deterministic so outputs are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import akrule, circuits, histories, oracle, qstate, verification
from .qstate import BitString


def _setting(problem: oracle.OracleProblem, text: str) -> BitString:
    bits = BitString.from_text(text)
    if bits.width != problem.setting_width:
        raise ValueError(
            f"setting {text!r} has width {bits.width}; this problem uses {problem.setting_width} bits"
        )
    problem.setting(bits)
    return bits


def _config(args) -> akrule.AkConfig:
    return akrule.AkConfig(family=args.family, complementary=args.complementary)


def _builtin_circuit(selector: str) -> circuits.Circuit:
    kind, n = oracle.split_selector(selector)
    if kind == "file":
        raise ValueError(f"no built-in circuit for problem selector {selector!r}")
    return circuits.builtin_circuit(kind, n)


def _subset_text(subset) -> str:
    return "{" + ",".join(sorted(b.text for b in subset)) + "}"


def _cmd_simulate(args) -> int:
    circuit = _builtin_circuit(args.problem)
    problem = circuit.problem
    setting = _setting(problem, args.setting)
    trace = circuits.run(circuit, qstate.prepare_setting(circuits.initial_ensemble(circuit), setting))
    probs = qstate.measure_register(trace.final, "A").as_dict()
    outcome = max(probs, key=probs.get)
    solution = problem.setting(setting).solution
    payload = {
        "problem": args.problem,
        "circuit": circuit.name,
        "setting": setting.text,
        "stages": [st.label for st in circuit.stages],
        "distribution": {k: round(v, 6) for k, v in probs.items()},
        "solution": solution,
    }
    if args.stages:
        payload["trace"] = circuits.trace_records(trace)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return 0
    print(f"circuit {circuit.name} on setting {setting.text}")
    print("stages: " + " -> ".join(payload["stages"]))
    print("final A distribution:")
    for text, p in probs.items():
        print(f"  {text}  {p:.6f}")
    print(f"most likely outcome: {outcome}")
    print(f"solution: {solution}")
    if args.stages:
        print(json.dumps(payload["trace"], indent=2))
    return 0


def _cmd_ak(args) -> int:
    problem = oracle.parse_selector(args.problem)
    setting = _setting(problem, args.setting)
    config = _config(args)
    pairs = akrule.enumerate_occam_pairs(problem, setting, config)
    instances = akrule.ak_instances(pairs)
    family = config.family or problem.default_family
    if args.format == "json":
        payload = {
            "problem": args.problem,
            "setting": setting.text,
            "family": family,
            "complementary": config.complementary,
            "pairs": [
                {
                    "subset_i": sorted(b.text for b in p.subset_i),
                    "subset_j": sorted(b.text for b in p.subset_j),
                    "spec_i": p.spec_i.describe(problem.arg_bits),
                    "spec_j": p.spec_j.describe(problem.arg_bits),
                    "epsilon": round(p.epsilon, 6),
                }
                for p in pairs
            ],
            "instances": [
                {
                    "subset": sorted(b.text for b in inst.subset),
                    "epsilon": round(inst.epsilon, 6),
                    "cost": akrule.decision_tree_cost(problem, inst.subset),
                }
                for inst in instances
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"problem {args.problem}, setting {setting.text} (family={family}, "
          f"complementary={'on' if config.complementary else 'off'})")
    print(f"pairs ({len(pairs)}):")
    for p in pairs:
        print(
            f"  {_subset_text(p.subset_i)} + {_subset_text(p.subset_j)}  "
            f"eps={p.epsilon:.6f}  [{p.spec_i.describe(problem.arg_bits)} | "
            f"{p.spec_j.describe(problem.arg_bits)}]"
        )
    print(f"instances ({len(instances)}):")
    for inst in instances:
        cost = akrule.decision_tree_cost(problem, inst.subset)
        print(f"  {_subset_text(inst.subset)}  eps={inst.epsilon:.6f}  cost={cost}")
    return 0


def _cmd_predict(args) -> int:
    problem = oracle.parse_selector(args.problem)
    report = akrule.predict_queries(problem, _config(args))
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    print(f"problem: {report.problem} (family={report.family}, "
          f"complementary={'on' if report.complementary else 'off'})")
    print(f"baseline queries:  {report.baseline_queries}")
    predicted = "-" if report.predicted_queries is None else str(report.predicted_queries)
    print(f"predicted queries: {predicted}")
    if report.grover_formula_queries is not None:
        print(f"half-split formula 2^(n/2)-1:        {report.grover_formula_queries}")
        print(f"reference ceil(pi/4 * 2^(n/2)):      {report.grover_reference_queries}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"{'setting':<10} {'epsilons':<22} {'sizes':<16} costs")
    for rep in report.per_setting:
        if rep.no_instance:
            print(f"{rep.setting.text:<10} no R=1/2 instance")
            continue
        eps = ",".join(f"{e:.6f}" for e in rep.epsilons)
        sizes = " ".join(f"{s}x{c}" for s, c in rep.instance_sizes)
        costs = " ".join(f"{q}x{c}" for q, c in rep.instance_costs)
        print(f"{rep.setting.text:<10} {eps:<22} {sizes:<16} {costs}")
    return 0


def _cmd_histories(args) -> int:
    circuit = _builtin_circuit(args.problem)
    problem = circuit.problem
    setting = _setting(problem, args.setting)
    v_branch = args.v_branch if args.v_branch == "both" else int(args.v_branch)
    paths = histories.enumerate_histories(circuit, problem, setting, v_branch=v_branch)
    instances = akrule.setting_instances(problem, setting, _config(args))
    classified = [histories.classify_history(p, instances, problem) for p in paths]
    if args.format == "dot":
        print(histories.histories_dot(circuit, paths))
        return 0
    if args.format == "json":
        print(histories.histories_jsonl(circuit, classified))
        return 0
    layout = circuit.layout
    print(f"circuit {circuit.name}, setting {setting.text}: {len(paths)} histories")
    for cls in classified:
        h = cls.history
        path_text = " -> ".join(layout.state_label(i) for i in h.path)
        queries = ",".join(a.text for a in h.query_args) or "-"
        tags = " ".join(_subset_text(i.subset) for i in cls.consistent) or "-"
        print(
            f"  amp=({h.amplitude.real:+.9f},{h.amplitude.imag:+.9f})  {path_text}  "
            f"queries: {queries}  consistent: {tags}"
        )
    return 0


def _cmd_verify(args) -> int:
    results = verification.run_all(args.only)
    failures = 0
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        line = f"{status} {result.check.id}: {result.check.title} [{result.seconds:.2f} s]"
        if not result.ok:
            failures += 1
            line += f" :: {result.detail}"
        print(line)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oraclelab",
        description="Simulate oracle-query circuits, analyze partial-measurement pairs, "
        "and predict query counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, setting_required: bool, formats=("text", "json")):
        p.add_argument("--problem", required=True, help="grover:n=K, dj:n=K, simon:n=K or file:PATH")
        if setting_required:
            p.add_argument("--setting", required=True, help="the hidden setting, as a bit string")
        p.add_argument("--format", choices=formats, default="text")

    p_sim = sub.add_parser("simulate", help="run the built-in circuit on one setting")
    add_common(p_sim, setting_required=True)
    p_sim.add_argument("--stages", action="store_true", help="emit the full stage trace as JSON")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_ak = sub.add_parser("ak", help="enumerate partial-measurement pairs and instances")
    add_common(p_ak, setting_required=True)
    p_ak.set_defaults(handler=_cmd_ak)

    p_pred = sub.add_parser("predict", help="predict query counts for a problem")
    add_common(p_pred, setting_required=False)
    p_pred.set_defaults(handler=_cmd_predict)

    p_hist = sub.add_parser("histories", help="enumerate basis-state paths with classifications")
    add_common(p_hist, setting_required=True, formats=("text", "json", "dot"))
    p_hist.add_argument("--v-branch", choices=("0", "1", "both"), default="0")
    p_hist.set_defaults(handler=_cmd_histories)
    for p in (p_ak, p_pred, p_hist):  # the analysis commands; simulate runs a fixed circuit
        p.add_argument("--family", choices=("cells", "linear"), default=None,
                       help="measurement family (defaults to the problem's)")
        p.add_argument("--complementary", action=argparse.BooleanOptionalAction, default=True,
                       help="require complementary splits (default on)")

    p_ver = sub.add_parser("verify", help="run the acceptance and invariant checks")
    p_ver.add_argument("--only", default=None, help="run a single check by id")
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
