"""Bench: ablation studies for the design choices (extensions).

* estimator window — SEPT is robust to the window size once > 1;
* busy-limit — re-introducing oversubscription does not help;
* FC horizon and cold-start cost sensitivity (full protocol only).
"""

from repro.experiments.ablations import (
    ablate_busy_limit,
    ablate_cold_start_cost,
    ablate_estimator_window,
    ablate_fc_horizon,
)


def test_ablation_estimator_window(run_once):
    result = run_once(ablate_estimator_window)
    print()
    print(result.render())
    means = {row[0]: row[1] for row in result.rows}
    # Window 10 (the paper's choice) should not be much worse than any
    # other setting — the estimator saturates quickly, as [18] reports.
    assert means[10] < 2.0 * min(means.values())


def test_ablation_busy_limit(run_once):
    result = run_once(ablate_busy_limit)
    print()
    print(result.render())
    means = {row[0]: row[1] for row in result.rows}
    # The paper's choice (busy = cores, factor 1.0) is at least competitive
    # with oversubscribed settings.
    assert means[1.0] < 1.5 * min(means.values())


def test_ablation_fc_horizon(run_once, full_protocol):
    result = run_once(
        ablate_fc_horizon,
        horizons=(15.0, 60.0) if not full_protocol else (5.0, 15.0, 60.0, 300.0),
    )
    print()
    print(result.render())
    assert len(result.rows) >= 2


def test_ablation_cold_start_cost(run_once, full_protocol):
    result = run_once(
        ablate_cold_start_cost,
        create_ops=(0.1, 0.5) if not full_protocol else (0.1, 0.25, 0.5, 1.0),
    )
    print()
    print(result.render())
    means = [row[1] for row in result.rows]
    # Costlier creations hurt the baseline monotonically.
    assert means == sorted(means)
