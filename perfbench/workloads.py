"""The benchmark's workloads: one tcmerton CLI command on one config
generated from the workload seed.

The seed moves the inputs only where the amount of work stays the same:
the hyperbolic beta by at most 0.5% (the Picard loop needs 10
iterations over that whole range, with the last residual a factor 5
below tol), the exponential rate rho0 (CRRA converges after one
iteration for every rho0), the initial wealth x0 and the Monte Carlo
seed.  A spread between seeds is therefore noise, not a change of work.
"""

from dataclasses import dataclass

import numpy as np

MARKET = {"r": 0.03, "mu": 0.09, "sigma": 0.2, "T": 1.0}
MIXED_UTILITY = {"kind": "mixed_power", "alpha": 0.5, "gamma1": 0.3,
                 "gamma2": -1.0}
CRRA_UTILITY = {"kind": "crra", "gamma": 0.5}
SOLVER = {"tol": 1e-8, "max_iter": 50, "damping": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # tcmerton subcommand: "solve" or "verify"
    model: str        # "mixed" (hyperbolic discounting) or "crra"
    n_t: int
    n_y: int
    y_min: float
    y_max: float
    n_paths: int = 2000
    n_steps: int = 400


WORKLOADS = {w.name: w for w in (
    Workload("solve-mixed-hyperbolic", "solve", "mixed", 401, 101,
             -5.0, 5.0),
    Workload("verify-mixed-hyperbolic", "verify", "mixed", 101, 101,
             -5.0, 5.0),
    Workload("verify-crra-exponential", "verify", "crra", 101, 101,
             -4.0, 4.0),
)}


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program, made from the seed."""

    params: dict      # config sections -> key -> value
    x0: float         # initial wealth for verify (None for solve)
    mc_seed: int

    def config_text(self):
        lines = []
        for section, keys in self.params.items():
            lines.append("[%s]" % section)
            lines += ["%s = %r" % (k, v) if isinstance(v, float)
                      else "%s = %s" % (k, v) for k, v in keys.items()]
            lines.append("")
        return "\n".join(lines)

    def cli_args(self, workload, config_path, out_dir):
        argv = [workload.command, "--config", str(config_path),
                "--out", str(out_dir)]
        if workload.command == "verify":
            argv += ["--x0", repr(self.x0), "--seed", str(self.mc_seed)]
        return argv


def make_inputs(workload, seed):
    rng = np.random.default_rng([20260220, int(seed)])
    if workload.model == "mixed":
        beta = float(2.0 * (1.0 + 0.005 * rng.uniform(-1.0, 1.0)))
        discount = {"kind": "hyperbolic", "alpha": 1.0, "beta": beta}
        utility = dict(MIXED_UTILITY)
    else:
        discount = {"kind": "exponential",
                    "rho0": float(rng.uniform(0.08, 0.12))}
        utility = dict(CRRA_UTILITY)
    x0 = float(np.exp(rng.uniform(np.log(0.8), np.log(1.25))))
    params = {
        "market": dict(MARKET),
        "discount": discount,
        "utility": utility,
        "grid": {"y_min": workload.y_min, "y_max": workload.y_max,
                 "n_t": workload.n_t, "n_y": workload.n_y},
        "solver": dict(SOLVER),
        "mc": {"n_paths": workload.n_paths, "n_steps": workload.n_steps,
               "seed": int(seed), "antithetic": "true",
               "record_stride": 10},
    }
    return Inputs(params, x0 if workload.command == "verify" else None,
                  int(seed))
