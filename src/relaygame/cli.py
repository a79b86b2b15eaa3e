"""Command-line interface: solve, sweep-n, sweep-auth, simulate, outage-check, presets.

Exit codes: 0 success, 2 validation error, 3 infeasible equilibrium or
degenerate game, 4 runtime failure.  Reports print as plain tables on stdout;
--out writes the machine-readable bundle (JSON, or with --format csv the table
the command printed first); an existing file is rewritten in place and cut to length, so it
keeps its inode, mode and links.  Relative --out paths are resolved under
$RELAYGAME_OUT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from pathlib import Path

from .errors import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
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
    Scenario,
    apply_overrides,
    load_scenario_dict,
    presets,
    scenario_from_dict,
    write_file,
)
from .throughput import MAX_SWEEP_N, ArqMode

CSV_COLUMNS_HELP = """\
CSV columns per command:
  solve:      relay_id, combined_asset, set, attack_prob, select_prob,
              attacker_utility, source_utility
  sweep-n:    n, throughput, plot_omitted
  sweep-auth: auth_prob, throughput_sr, throughput_gbn,
              compromise_analytical, compromise_empirical, compromise_stderr
  simulate:   relay_id, attacker_episodes, source_episodes, packets,
              compromised, compromise_rate, compromise_stderr,
              packet_error_rate, outage_rate, outage_closed_form,
              packet_success_analytical, auth_prob
  outage-check: relay_id, closed_form, monte_carlo, stderr, abs_gap, z, within_band
"""

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(rows: list[dict]) -> None:
    headers = list(rows[0].keys())
    cells = [[_fmt(r.get(h)) for h in headers] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _load(args) -> Scenario:
    # outage-check takes --seed as its own Monte Carlo seed, not the scenario's.
    seed = args.seed if args.command == "simulate" or getattr(args, "simulate", False) else None
    # One Scenario per call: the overrides edit the preset's or file's dict form.
    data = apply_overrides(load_scenario_dict(args.scenario), args.set or [])
    if seed is not None and isinstance(data.get("sim"), dict):  # a seed alone makes no sim section
        data["sim"]["seed"] = seed
    return scenario_from_dict(data)


def _emit(bundle: dict, table: list[dict], args) -> None:
    if args.out:
        path = Path(args.out)
        out_dir = os.environ.get("RELAYGAME_OUT_DIR")
        if out_dir and not path.is_absolute():
            path = Path(out_dir) / path
        text = bundle_to_csv(table) if args.format == "csv" else bundle_to_json(bundle)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_file(path, text)
        except OSError as exc:
            raise RelayGameError(f"{path}: cannot write ({exc})") from exc
        print(f"wrote {path}")


def cmd_presets() -> None:
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


def cmd_solve(scenario: Scenario, args) -> tuple[dict, list[dict]]:
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
    return bundle, bundle["equilibrium"]


def cmd_sweep_n(scenario: Scenario, args) -> tuple[dict, list[dict]]:
    bundle = build_sweep_n_report(scenario, range(1, args.n_max + 1), ArqMode(args.arq))
    print_table(bundle["rows"])
    opt = bundle["optimal"]
    if opt["n"] is not None:
        print(f"optimal: n={opt['n']} throughput={_fmt(opt['throughput'])}")
    else:
        print(f"optimal: none ({opt['note']})")
    return bundle, bundle["rows"]


def cmd_sweep_auth(scenario: Scenario, args) -> tuple[dict, list[dict]]:
    try:
        grid = [float(x) for x in args.grid.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"bad --grid value: {exc}") from None
    bundle = build_sweep_auth_report(scenario, grid, simulate=args.simulate)
    print(f"conditioning relay {bundle['conditioning_relay']} "
          f"(attack probability {_fmt(bundle['attack_prob_conditioning'])})")
    print_table(bundle["rows"])
    return bundle, bundle["rows"]


def cmd_simulate(scenario: Scenario, args) -> tuple[dict, list[dict]]:
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
    return bundle, sim["per_relay"]


def cmd_outage_check(scenario: Scenario, args) -> tuple[dict, list[dict]]:
    bundle = build_outage_crosscheck(
        scenario, trials=args.trials, seed=args.seed if args.seed is not None else 0)
    print_table(bundle["rows"])
    if bundle["note"]:
        print(f"note: {bundle['note']}")
    return bundle, bundle["rows"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by later calls; parsing leaves it unchanged.
    Only repeated `main` calls in one process gain; a one-command process builds it once."""
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
    p.add_argument("--n-max", type=int, default=64,
                   help=f"sweep n = 1..N, N at most {MAX_SWEEP_N} (default 64)")
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

    sub.add_parser("presets", help="list built-in scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            cmd_presets()
        else:
            _emit(*args.func(_load(args), args), args)
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleEquilibriumError as exc:
        print(f"error: {exc}\nhint: move costs/detection back into the model's "
              "validity region or adjust the relay assets", file=sys.stderr)
        return EXIT_INFEASIBLE
    except RelayGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # scriptability: any crash still yields a code
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"unexpected error: {type(exc).__name__}: {exc} "
              f"(in {frame.name}, {frame.filename}:{frame.lineno})", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
