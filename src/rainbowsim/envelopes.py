"""Calibrated tolerance envelopes for the Monte Carlo experiments.

The asymptotic statements being benchmarked fix no finite-size constants,
so each experiment compares against a reference formula through one of the
envelopes below. These are pilot-calibrated defaults, versioned with the
package; they are not derived quantities, and every emitted row carries the
reference value so a failing envelope can be attributed.
"""

ENVELOPES_VERSION = "2025.1"

ENVELOPES = {
    # exp_min_split: sqrt(m) scaling, ratio of consecutive means when m quadruples
    "min_split_ratio": (1.6, 2.4),
    # exp_min_split small-instance oracle agreement, in units of sigma/sqrt(reps)
    "min_split_oracle_sigmas": 3.0,
    # exp_bridge_number one-sided slack over m/(t+1)
    "bridge_slack": 1.05,
    # exp_tree_size_law absolute pmf tolerance for k <= 5
    "borel_tol": 0.01,
    # exp_phase_transition, subcritical: finder order over (2/eps^2) ln(eps^3 n)
    "phase_sub_ratio": (0.5, 1.5),
    "phase_sub_required": 8,           # out of 10 repetitions
    # exp_phase_transition, supercritical: pipeline order over 2 eps n
    "phase_super_frac": 0.7,
    "phase_super_required": 8,
    # exp_phase_transition, uncoloured benchmark: |L1|/n against 2 eps
    "phase_benchmark_rel": 0.15,
    # exp_giant_benchmark: |mean fraction - gamma(d)| bound
    "giant_tol": 0.02,
    # exp_cycle: repetitions out of 10 whose cycle reaches (1 - delta) min(n, c)
    "cycle_required": 8,
}
