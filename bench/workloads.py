"""The three benchmark workloads: inputs from a seed, one timed call, checks.

Each workload is one closed-loop client: the next operation starts when the
previous one returns.  An operation is one ``relaygame`` CLI command (driven
through ``relaygame.cli.main``) or, on ``solve-batch``, one generated
scenario taken through the library pipeline.  Checks compare outputs with
``oracles`` and with properties the program documents, never with stored
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from oracles import Z_BOUND

from relaygame import cli, report, scenario
from relaygame.throughput import ArqMode

# Operation sizes keep a CLI operation under about 0.25 s, so that a run holds
# 20 or more distinct inputs, each timed six times (child.PASSES).
SIM_EPISODES = 500_000
SIM_PACKETS = 4
OUTAGE_TRIALS = 250_000       # per relay
REL_TOL = 1e-9
#: Seeded geometries keep |dist_rd^pathloss_exp - 1| at least this large.
#: Closer to 1 the closed-form outage loses accuracy (see SolveBatch.probe),
#: and a seeded input that only sometimes lands there would make the failed
#: share depend on the seed; the fixed probe shows that fault in every run.
NEAR_SINGULAR = 1e-3


@dataclass
class Op:
    """One operation's input, plus whatever its checks need to know."""

    argv: list[str] = field(default_factory=list)
    seed: int = 0
    data: dict | None = None
    n_max: int = 0
    oracle: oracles.Equilibrium | None = None


def _close(x: float, y: float, rel: float = REL_TOL, abs_: float = 0.0) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=abs_)


class Workload:
    name = ""
    item = ""                 # what items_per_s counts
    round_size = 1            # operations per timed round
    trace_rounds = 3          # rounds a traced run times

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Load what every operation needs, before the first timed one."""

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        """The timed call."""
        raise NotImplementedError

    def output(self, op: Op, ran) -> tuple[bytes, object]:
        """(bytes that must repeat for a repeated input, value to check)."""
        raise NotImplementedError

    def items(self, op: Op) -> int:
        raise NotImplementedError

    def check(self, op: Op, value) -> list[str]:
        raise NotImplementedError


def _dist_rd(rng, alpha: float, lo: float, hi: float) -> float:
    while True:
        d = float(rng.uniform(lo, hi))
        if abs(d ** alpha - 1.0) >= NEAR_SINGULAR:
            return d


def _columns(data: dict) -> dict[str, np.ndarray]:
    """Link fields of a scenario dict as arrays over relays, SNRs linear."""
    links = [r["link"] for r in data["relays"]]
    cols = {key: np.array([ln[key] for ln in links]) for key in
            ("target_rate", "pathloss_exp", "dist_sr", "dist_rd")}
    for key in ("snr_avg", "snr_sd", "snr_sr", "snr_rd"):
        cols[key] = np.array([ln[key] if key in ln else 10.0 ** (ln[f"{key}_db"] / 10.0)
                              for ln in links])
    return cols


# --- CLI workloads ------------------------------------------------------------

class CliWorkload(Workload):
    preset = ""

    def setup(self) -> None:
        base = scenario.load_scenario(self.preset)
        self.scenario_dict = scenario.scenario_to_dict(base)
        self.game = oracles.Game.from_dict(self.scenario_dict)
        self.eq = oracles.equilibrium(self.game)
        self.out = self.workdir / "bundle.json"

    def round(self, index: int) -> list[Op]:
        seed = random.Random(f"{self.name}:{self.seed}:{index}").getrandbits(63)
        return [Op(argv=self.argv(seed) + ["--out", str(self.out)], seed=seed)]

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def run(self, op: Op):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(op.argv)

    def output(self, op: Op, ran):
        if ran != 0:
            raise RuntimeError(f"exit code {ran}")
        raw = self.out.read_bytes()
        return raw, json.loads(raw)

    def check_equilibrium_table(self, rows) -> list[str]:
        errs = []
        for k, row in enumerate(rows):
            if not (_close(row["attack_prob"], self.eq.p[k], abs_=REL_TOL)
                    and _close(row["select_prob"], self.eq.q[k], abs_=REL_TOL)):
                errs.append(f"relay {row['relay_id']}: equilibrium differs from oracle")
        return errs


class SimulatePolicy(CliWorkload):
    name = "simulate-policy"
    item = "episodes"
    preset = "military"

    def setup(self) -> None:
        super().setup()
        links = _columns(self.scenario_dict)
        bits = self.scenario_dict["throughput"]["packet_bits"]
        self.pc = oracles.packet_success(links["target_rate"], links["snr_sd"],
                                         links["snr_sr"], links["snr_rd"], bits)
        self.outage = oracles.outage_quadrature(
            links["target_rate"], links["snr_avg"], links["pathloss_exp"],
            links["dist_sr"], links["dist_rd"])
        self.budget = self.scenario_dict["security"]["max_compromised_fraction"]

    def argv(self, seed):
        return ["simulate", "--scenario", self.preset, "--auth-policy", "--seed", str(seed),
                "--set", f"sim.episodes={SIM_EPISODES}",
                "--set", f"sim.packets_per_episode={SIM_PACKETS}"]

    def items(self, op):
        return SIM_EPISODES

    def check(self, op, bundle) -> list[str]:
        sim = bundle["simulation"]
        errs = self.check_equilibrium_table(bundle["equilibrium"])
        E, P = SIM_EPISODES, SIM_PACKETS
        if (sim["episodes"], sim["packets_per_episode"], sim["seed"]) != (E, P, op.seed):
            errs.append("simulation size or seed differs from the request")
        for label, key, probs in (("attacker", "attacker_counts", self.eq.p),
                                  ("source", "source_counts", self.eq.q)):
            counts = [c for _, c in sim[key]]
            stat, df, empty_ok = oracles.chi2_counts(counts, probs)
            if sum(counts) != E or not empty_ok or stat > oracles.chi2_bound(df):
                errs.append(f"{label} counts fail chi-square against the oracle "
                            f"(stat {stat:.2f}, df {df})")
        auth = dict((int(rid), pa) for rid, pa in sim["auth_prob"])
        for k, rel in enumerate(sim["per_relay"]):
            p_i = self.eq.p[k]
            pa = auth[rel["relay_id"]]
            want_pa = max(0.0, 1.0 - self.budget / p_i) if p_i > 0 else 0.0
            if not _close(pa, want_pa, abs_=1e-12):
                errs.append(f"relay {rel['relay_id']}: auth probability {pa} != {want_pa}")
            u = 1.0 - pa
            expect = u * p_i
            if expect > self.budget + 1e-12:
                errs.append(f"relay {rel['relay_id']}: analytical compromise over budget")
            if not _close(rel["outage_closed_form"], self.outage[k]):
                errs.append(f"relay {rel['relay_id']}: closed-form outage differs from quadrature")
            n = rel["source_episodes"]
            if n == 0:
                continue
            # One channel realisation per episode.
            out = self.outage[k]
            if abs(rel["outage_rate"] - out) > Z_BOUND * math.sqrt(out * (1.0 - out) / n):
                errs.append(f"relay {rel['relay_id']}: outage rate {rel['outage_rate']} vs {out}")
            # Packets of one episode share its hit: variance per episode of
            # H*B, H ~ Bern(p_i), B ~ Bin(P, 1 - p_a).
            var_x = p_i * (P * u * pa + (P * u) ** 2) - (P * expect) ** 2
            sigma = math.sqrt(max(var_x, 0.0) / (n * P * P))
            rate = rel["compromise_rate"]
            if abs(rate - expect) > Z_BOUND * sigma + 1e-15:
                errs.append(f"relay {rel['relay_id']}: compromise rate {rate} vs {expect}")
            if rate > self.budget + Z_BOUND * sigma + 1e-15:
                errs.append(f"relay {rel['relay_id']}: compromise rate over budget")
        for row, pc in zip(bundle["channel"], self.pc):
            if not _close(row["packet_success"], pc, rel=1e-7):
                errs.append(f"relay {row['relay_id']}: packet success {row['packet_success']} vs {pc}")
        q = self.eq.q
        mean_s = P * float(q @ self.pc)
        var_s = float(q @ (P * self.pc * (1 - self.pc) + (P * self.pc) ** 2)) - mean_s ** 2
        sigma = math.sqrt(var_s / (E * P * P))
        if abs(sim["packet_success_rate"] - mean_s / P) > Z_BOUND * sigma:
            errs.append(f"packet success {sim['packet_success_rate']} vs {mean_s / P}")
        return errs


class OutageCheck(CliWorkload):
    name = "outage-check"
    item = "trials"
    preset = "military"
    trace_rounds = 6

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng([self.seed, 0x0a7a6e])
        data = self.scenario_dict
        for k, relay in enumerate(data["relays"]):
            link = relay["link"]
            alpha = float(rng.uniform(2.0, 4.0))
            link.pop("snr_avg")
            link.update(
                snr_avg_db=float(rng.uniform(6.0, 12.0)),
                target_rate=float(rng.uniform(0.75, 1.25)),
                pathloss_exp=alpha,
                dist_sr=float(rng.uniform(0.5, 1.5)),
                # Relay 1 keeps dist_rd = 1, the closed form's limit branch;
                # the others take its general branch.
                dist_rd=1.0 if k == 0 else _dist_rd(rng, alpha, 0.5, 1.5),
            )
        self.file = self.workdir / "outage-scenario.json"
        self.file.write_text(json.dumps(data, indent=2))
        links = _columns(data)
        self.exact = oracles.outage_quadrature(
            links["target_rate"], links["snr_avg"], links["pathloss_exp"],
            links["dist_sr"], links["dist_rd"])

    def argv(self, seed):
        return ["outage-check", "--scenario", str(self.file), "--seed", str(seed),
                "--trials", str(OUTAGE_TRIALS)]

    def items(self, op):
        return OUTAGE_TRIALS * len(self.exact)

    def check(self, op, bundle) -> list[str]:
        errs = []
        if bundle["trials"] != OUTAGE_TRIALS or len(bundle["rows"]) != len(self.exact):
            errs.append("trial or relay count differs from the request")
        for row, exact in zip(bundle["rows"], self.exact):
            if not _close(row["closed_form"], exact):
                errs.append(f"relay {row['relay_id']}: closed form {row['closed_form']} "
                            f"vs quadrature {exact}")
            sigma = math.sqrt(exact * (1.0 - exact) / OUTAGE_TRIALS)
            if abs(row["monte_carlo"] - exact) > Z_BOUND * sigma:
                errs.append(f"relay {row['relay_id']}: Monte Carlo {row['monte_carlo']} "
                            f"vs {exact}")
        return errs


# --- library pipeline -----------------------------------------------------------

def _snr(rng, out: dict, key: str, lo_db: float, hi_db: float) -> None:
    """Set an SNR field, linear or in dB at random."""
    value_db = float(rng.uniform(lo_db, hi_db))
    if rng.random() < 0.5:
        out[f"{key}_db"] = value_db
    else:
        out[key] = 10.0 ** (value_db / 10.0)


def generate_scenario(rng: np.random.Generator, k: int) -> tuple[dict, oracles.Equilibrium]:
    """One scenario dict with ``k`` relays inside the model's validity region.

    Games are redrawn until the oracle finds an equilibrium whose every
    condition holds with slack above 1e-6, so none sits on the sensible-set
    boundary where the program's tolerances decide membership.
    """
    while True:
        w = float(rng.uniform(0.1, 0.9))
        game = {
            "detect_rate": float(rng.uniform(0.3, 0.95)),
            "false_alarm_rate": float(rng.uniform(0.0, 0.3)),
            "attack_cost": float(rng.uniform(0.0, 0.3)),
            "monitor_cost": float(rng.uniform(0.0, 0.2)),
            "false_alarm_loss": float(rng.uniform(0.0, 0.3)),
            "weight_info": w,
            "weight_security": 1.0 - w,
        }
        ids = [int(i) for i in rng.choice(1000, size=k, replace=False) + 1]
        relays = [{"id": i, "info_asset": float(rng.uniform(0.05, 4.0)),
                   "sec_asset": float(rng.uniform(0.05, 4.0))} for i in ids]
        data = {"game": game, "relays": relays}
        eq = oracles.equilibrium(oracles.Game.from_dict(data))
        if eq is not None and eq.margin > 1e-6:
            break
    for relay in relays:
        alpha = float(rng.uniform(2.0, 4.0))
        link = {
            "target_rate": float(rng.uniform(0.5, 2.0)),
            "pathloss_exp": alpha,
            "dist_sr": float(rng.uniform(0.3, 2.0)),
            "dist_rd": _dist_rd(rng, alpha, 0.3, 2.0),
        }
        _snr(rng, link, "snr_avg", 5.0, 20.0)
        _snr(rng, link, "snr_sd", 3.0, 13.0)     # below every relayed hop, so
        _snr(rng, link, "snr_sr", 12.0, 30.0)    # the two MRC branch means
        _snr(rng, link, "snr_rd", 16.0, 30.0)    # always differ
        relay["link"] = link
    throughput = {
        "packet_bits": int(rng.integers(800, 12001)),
        "hash_bits": int(rng.choice([128, 160, 256])),
        "n_messages": int(rng.integers(1, 17)),
        "auth_prob": float(rng.choice([0.0, 1.0, rng.uniform()])),
        "presig_time": float(rng.uniform(0.01, 0.3)),
    }
    if rng.random() < 0.5:
        throughput.update(data_rate=float(rng.uniform(1e5, 1e7)),
                          reaction_time=float(rng.uniform(1e-3, 5e-2)))
    else:
        throughput.update(transfer_time=float(rng.uniform(1e-3, 0.1)),
                          window=int(rng.integers(1, 65)))
    data.update(schema_version=1, name=f"generated-{k}", throughput=throughput,
                security={"max_compromised_fraction": float(rng.uniform(0.05, 0.5))})
    if rng.random() < 0.5:
        auth = (float(rng.uniform()) if rng.random() < 0.5
                else {str(i): float(rng.uniform()) for i in ids})
        data["sim"] = {
            "episodes": int(rng.integers(1, 10 ** 6)),
            "packets_per_episode": int(rng.integers(1, 9)),
            "seed": int(rng.integers(0, 2 ** 32)),
            "attacker_mode": str(rng.choice(["equilibrium", "uniform"])),
            "source_mode": str(rng.choice(["equilibrium", "best-utility"])),
            "auth_prob": auth,
            "refined_detection": bool(rng.random() < 0.5),
        }
    return data, eq


class SolveBatch(Workload):
    name = "solve-batch"
    item = "scenarios"
    round_size = 33
    trace_rounds = 4

    def setup(self) -> None:
        # Fixed probe, the same for every seed: the military preset with relay
        # 1 at dist_rd^pathloss_exp = 1 + 1e-8, between the closed form's
        # limit-branch switch (1e-9) and the point where its general branch
        # stops cancelling.  The outage there is off by ~2e-7 relative, so
        # this operation fails in every round until that is mended.
        data = scenario.scenario_to_dict(scenario.load_scenario("military"))
        link = data["relays"][0]["link"]
        link["dist_rd"] = (1.0 + 1e-8) ** (1.0 / link["pathloss_exp"])
        self.probe = Op(data=data, n_max=16,
                        oracle=oracles.equilibrium(oracles.Game.from_dict(data)))

    def round(self, index: int) -> list[Op]:
        # Sizes are fixed by position in the round, values come from the seed:
        # every round holds the same work, so a run's figures do not depend
        # on which sizes its seed happened to draw.  Relay counts run 2..32
        # (and 2 again), sweep lengths n_max take 32 distinct values in 8..64.
        rng = np.random.default_rng([self.seed, index])
        ops = [self.probe]
        for j in range(self.round_size - 1):
            data, eq = generate_scenario(rng, 2 + j % 31)
            ops.append(Op(data=data, n_max=8 + (37 * j) % 57, oracle=eq))
        return ops

    def run(self, op: Op):
        sc = scenario.scenario_from_dict(op.data)
        bundles = [report.build_solve_report(sc, diagnostics=True)]
        bundles += [report.build_sweep_n_report(sc, range(1, op.n_max + 1), mode)
                    for mode in ArqMode]
        return sc, bundles, [report.bundle_to_json(b) for b in bundles]

    def output(self, op, ran):
        sc, bundles, texts = ran
        return "\n".join(texts).encode(), (sc, bundles)

    def items(self, op):
        return 1

    def check(self, op: Op, value) -> list[str]:
        sc, (solve, *sweeps) = value
        data, eq = op.data, op.oracle
        game = oracles.Game.from_dict(data)
        errs = []
        rows = solve["equilibrium"]
        p = [r["attack_prob"] for r in rows]
        q = [r["select_prob"] for r in rows]
        for name, mix in (("attack", p), ("select", q)):
            if min(mix) < 0.0 or max(mix) > 1.0 or abs(sum(mix) - 1.0) > REL_TOL:
                errs.append(f"{name} strategy is not a distribution")
        if not (np.allclose(p, eq.p, rtol=0, atol=REL_TOL)
                and np.allclose(q, eq.q, rtol=0, atol=REL_TOL)):
            errs.append("equilibrium differs from the oracle's linear solve")
        if tuple(solve["partition"]["sensible"]) != eq.sensible:
            errs.append("sensible set differs from the oracle's")
        gain_att, gain_src = oracles.deviation_gains(game, p, q)
        if max(gain_att, gain_src) > REL_TOL:
            errs.append(f"a pure deviation gains {max(gain_att, gain_src):.3g}")
        bits = data["throughput"]["packet_bits"]
        links = _columns(data)
        outage = oracles.outage_quadrature(links["target_rate"], links["snr_avg"],
                                           links["pathloss_exp"], links["dist_sr"],
                                           links["dist_rd"])
        ber = oracles.ber_end_to_end(links["target_rate"], links["snr_sd"],
                                     links["snr_sr"], links["snr_rd"])
        table = solve["channel"]
        if not (np.allclose([r["outage_closed_form"] for r in table], outage,
                            rtol=REL_TOL, atol=0.0)
                and np.allclose([r["ber_end_to_end"] for r in table], ber,
                                rtol=REL_TOL, atol=0.0)
                and np.allclose([r["packet_success"] for r in table], (1.0 - ber) ** bits,
                                rtol=1e-7, atol=0.0)):
            errs.append("channel table differs from quadrature")
        hashes = data["throughput"]["hash_bits"]
        auth = data["throughput"]["auth_prob"]
        for sweep in sweeps:
            rows = sweep["rows"]
            if [r["n"] for r in rows] != list(range(1, op.n_max + 1)):
                errs.append(f"{sweep['arq']}: rows do not cover 1..{op.n_max}")
            best = None
            for r in rows:
                if r["plot_omitted"] != (r["throughput"] <= 0.0):
                    errs.append(f"{sweep['arq']} n={r['n']}: plot_omitted flag wrong")
                # Documented rule: with any authentication, counts whose
                # authenticated payload per packet is not positive are out.
                tree = hashes * ((r["n"] - 1).bit_length() + 1)
                if auth > 0.0 and bits - tree <= 0:
                    continue
                if best is None or r["throughput"] > best["throughput"]:
                    best = r
            opt = sweep["optimal"]
            if best is None or (opt["n"], opt["throughput"]) != (best["n"], best["throughput"]):
                errs.append(f"{sweep['arq']}: optimal {opt} is not the argmax of the rows")
        again = scenario.scenario_from_dict(scenario.scenario_to_dict(sc))
        if scenario.scenario_hash(again) != scenario.scenario_hash(sc):
            errs.append("scenario_to_dict -> scenario_from_dict changes scenario_hash")
        return errs


WORKLOADS = {w.name: w for w in (SimulatePolicy, OutageCheck, SolveBatch)}
