"""Command-line interface: solve, sweep-n, sweep-auth, simulate, presets.

Exit codes: 0 success, 2 validation error, 3 infeasible equilibrium or
degenerate game, 4 runtime failure.  Reports print as plain tables on stdout;
--out writes the machine-readable bundle (JSON, or the main table as CSV with
--format csv).  Relative --out paths are resolved under $RELAYGAME_OUT_DIR
when that variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    DegenerateGameError,
    InfeasibleEquilibriumError,
    RelayGameError,
    ValidationError,
)
from .report import (
    build_outage_crosscheck,
    build_simulation_report,
    build_solve_report,
    build_sweep_auth_report,
    build_sweep_n_report,
    bundle_to_csv,
    bundle_to_json,
)
from .scenario import (
    PRESET_NAMES,
    SECTIONS,
    field_names,
    load_scenario,
    presets,
    scenario_from_dict,
    scenario_to_dict,
)
from .throughput import ArqMode

#: Scenario fields --set may override (dotted paths into the scenario JSON).
OVERRIDE_KEYS = frozenset(
    ["name"] + [f"{key}.{name}" for key, cls in SECTIONS.items() for name in field_names(cls)])

CSV_COLUMNS_HELP = """\
CSV columns per command:
  solve:      relay_id, combined_asset, set, attack_prob, select_prob,
              attacker_utility, source_utility
  sweep-n:    n, throughput, plot_omitted
  sweep-auth: auth_prob, throughput_sr, throughput_gbn,
              compromise_analytical, compromise_empirical, compromise_stderr
  simulate:   per-relay simulation counters
  outage-check: relay_id, closed_form, monte_carlo, stderr, abs_gap, within_band
"""


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(rows: list[dict], stream=None) -> None:
    if not rows:
        return
    stream = stream if stream is not None else sys.stdout
    headers = list(rows[0].keys())
    cells = [[_fmt(r.get(h)) for h in headers] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    stream.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for row in cells:
        stream.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _apply_overrides(scenario_dict: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in OVERRIDE_KEYS:
            raise ValidationError(
                f"unknown override key {key!r}; allowed: {', '.join(sorted(OVERRIDE_KEYS))}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        node = scenario_dict
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return scenario_dict


def _load(args) -> "Scenario":
    scenario = load_scenario(args.scenario)
    overrides = list(getattr(args, "set", None) or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"sim.seed={args.seed}")
    if overrides:
        data = _apply_overrides(scenario_to_dict(scenario), overrides)
        scenario = scenario_from_dict(data)
    return scenario


def _emit(bundle: dict, args) -> None:
    if args.out:
        path = Path(args.out)
        out_dir = os.environ.get("RELAYGAME_OUT_DIR")
        if out_dir and not path.is_absolute():
            path = Path(out_dir) / path
        path.parent.mkdir(parents=True, exist_ok=True)
        text = bundle_to_csv(bundle) if args.format == "csv" else bundle_to_json(bundle)
        path.write_text(text)
        print(f"wrote {path}")


def cmd_presets(args) -> int:
    rows = []
    for name, sc in presets().items():
        rows.append({
            "preset": name,
            "relays": len(sc.profiles),
            "detect_rate": sc.game.detect_rate,
            "false_alarm_rate": sc.game.false_alarm_rate,
            "attack_cost": sc.game.attack_cost,
            "monitor_cost": sc.game.monitor_cost,
            "false_alarm_loss": sc.game.false_alarm_loss,
            "security": sc.security.max_compromised_fraction,
        })
    print_table(rows)
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario = _load(args)
    bundle = build_solve_report(scenario, diagnostics=args.diagnostics)
    print(f"scenario {scenario.name}: threshold={_fmt(bundle['partition']['threshold'])} "
          f"lambda_attacker={_fmt(bundle['lambda_attacker'])} "
          f"lambda_source={_fmt(bundle['lambda_source'])}")
    print_table(bundle["equilibrium"])
    ver = bundle["verification"]
    print(f"verification: attacker_gain={_fmt(ver['attacker_gain'])} "
          f"source_gain={_fmt(ver['source_gain'])} equilibrium={ver['is_equilibrium']}")
    for note in bundle["annotations"]:
        print(f"note: {note}")
    _emit(bundle, args)
    return EXIT_OK


def cmd_sweep_n(args) -> int:
    scenario = _load(args)
    bundle = build_sweep_n_report(scenario, range(1, args.n_max + 1), ArqMode(args.arq))
    print_table(bundle["rows"])
    opt = bundle["optimal"]
    if opt["n"] is not None:
        print(f"optimal: n={opt['n']} throughput={_fmt(opt['throughput'])}")
    else:
        print(f"optimal: none ({opt['note']})")
    _emit(bundle, args)
    return EXIT_OK


def cmd_sweep_auth(args) -> int:
    scenario = _load(args)
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad --grid value: {exc}") from None
    bundle = build_sweep_auth_report(
        scenario, grid, simulate=args.simulate,
        sim=scenario.sim if args.simulate else None)
    print(f"conditioning relay {bundle['conditioning_relay']} "
          f"(attack probability {_fmt(bundle['attack_prob_conditioning'])})")
    print_table(bundle["rows"])
    _emit(bundle, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load(args)
    bundle = build_simulation_report(scenario, auth_policy=args.auth_policy)
    sim = bundle["simulation"]
    print(f"scenario {scenario.name}: {sim['episodes']} episodes x "
          f"{sim['packets_per_episode']} packets, seed {sim['seed']}")
    print(f"compromise rate {_fmt(sim['compromise_rate'])} "
          f"(+-{_fmt(sim['compromise_stderr'])}), "
          f"packet success {_fmt(sim['packet_success_rate'])}")
    print_table(sim["per_relay"])
    print_table([
        {"arq": arq, "throughput_empirical": emp, "throughput_analytical": ana}
        for arq, emp, ana in sim["throughput"]
    ])
    for note in sim["notes"]:
        print(f"note: {note}")
    _emit(bundle, args)
    return EXIT_OK


def cmd_outage_check(args) -> int:
    scenario = _load(args)
    bundle = build_outage_crosscheck(
        scenario, trials=args.trials, seed=args.seed if args.seed is not None else 0)
    print_table(bundle["rows"])
    if bundle["note"]:
        print(f"note: {bundle['note']}")
    _emit(bundle, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaygame",
        description="Relay-selection security game: equilibrium, QoS models, simulation.",
        epilog=CSV_COLUMNS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--scenario", required=True,
                       help=f"scenario file path or preset name ({', '.join(PRESET_NAMES)})")
        p.add_argument("--out", help="write the report bundle to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="bundle format for --out (default json)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario field (dotted path), repeatable")
        if seed:
            p.add_argument("--seed", type=int, help="override the simulation seed")

    p = sub.add_parser("solve", help="equilibrium strategies, utilities, partition")
    common(p, seed=False)
    p.add_argument("--diagnostics", action="store_true",
                   help="include the offset-free attack-strategy variant for comparison")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep-n", help="throughput vs message count")
    common(p, seed=False)
    p.add_argument("--n-max", type=int, default=64, help="sweep n = 1..N (default 64)")
    p.add_argument("--arq", choices=[m.value for m in ArqMode], default="sr")
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("sweep-auth", help="throughput and compromise vs authentication probability")
    common(p)
    p.add_argument("--grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                   help="comma list of authentication probabilities")
    p.add_argument("--simulate", action="store_true",
                   help="also simulate each grid point (adds empirical columns)")
    p.set_defaults(func=cmd_sweep_auth)

    p = sub.add_parser("simulate", help="run the seeded Monte Carlo simulation")
    common(p)
    p.add_argument("--auth-policy", action="store_true",
                   help="use the per-relay minimal authentication probability "
                        "meeting the security requirement")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("outage-check", help="closed-form vs Monte Carlo outage diagnostic")
    common(p)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.set_defaults(func=cmd_outage_check)

    p = sub.add_parser("presets", help="list built-in scenarios")
    p.set_defaults(func=cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleEquilibriumError, DegenerateGameError) as exc:
        print(f"error: {exc}\nhint: move costs/detection back into the model's "
              "validity region or adjust the relay assets", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RelayGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # scriptability: any crash still yields a code
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
