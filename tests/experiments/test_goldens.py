"""Goldens for the nine seeded scenarios: output checksum and work budget.

Each test runs one scenario of :mod:`tests.experiments.scenarios` at
seed 0, full size, in this process, and compares

* the checksum of its output lines, byte for byte, and
* its work budget: integer totals read from public counters
  (simulator events and defer allocations, processor-sharing load
  updates and completion wakeups, DSM page transfers and control
  messages, histogram observations), with tolerance 0.

The budget depends only on the code and the seed, never on the host,
so any change in the work a scenario does fails here and names the
counter. A change that raises a count on purpose updates the number
below and says why in CHANGES.md. ``dsm_control_messages`` reads 0 on
every scenario: they migrate whole working sets, and control messages
come only from per-page read and write faults. It is pinned so that a
change that starts faulting pages one by one shows up.
"""

from tests.experiments.scenarios import SCENARIOS, checksum, work_counters

#: scenario -> (checksum, work budget) at seed 0, full size.
GOLDENS = {
    "fig3_low_load": ("28d79e422594146c", {
        "events": 275, "deferred_allocations": 35,
        "ps_updates": 100, "ps_wakeups": 83,
        "dsm_page_transfers": 0, "dsm_control_messages": 0,
        "histogram_observations": 39,
    }),
    "fig5_high_load": ("5f1fdb1a16acf22a", {
        "events": 4628, "deferred_allocations": 2197,
        "ps_updates": 3339, "ps_wakeups": 1442,
        "dsm_page_transfers": 21348, "dsm_control_messages": 0,
        "histogram_observations": 462,
    }),
    "fig6_throughput": ("b118e4e000f45bfa", {
        "events": 7525, "deferred_allocations": 634,
        "ps_updates": 4916, "ps_wakeups": 2373,
        "dsm_page_transfers": 126, "dsm_control_messages": 0,
        "histogram_observations": 1877,
    }),
    "report_sweep": ("74c838c6cb7884ee", {
        "events": 6925, "deferred_allocations": 3306,
        "ps_updates": 5063, "ps_wakeups": 2146,
        "dsm_page_transfers": 32954, "dsm_control_messages": 0,
        "histogram_observations": 693,
    }),
    "scale_stress": ("ed80d819a93df998", {
        "events": 62604, "deferred_allocations": 1051,
        "ps_updates": 26949, "ps_wakeups": 19241,
        "dsm_page_transfers": 201295, "dsm_control_messages": 0,
        "histogram_observations": 8047,
    }),
    "cohort_stress": ("491fad2648cd572c", {
        "events": 31, "deferred_allocations": 1,
        "ps_updates": 0, "ps_wakeups": 0,
        "dsm_page_transfers": 0, "dsm_control_messages": 0,
        "histogram_observations": 0,
    }),
    "chaos_stress": ("fe84e13d22ac1caf", {
        "events": 119109, "deferred_allocations": 2102,
        "ps_updates": 50515, "ps_wakeups": 36978,
        "dsm_page_transfers": 353374, "dsm_control_messages": 0,
        "histogram_observations": 15289,
    }),
    "fleet_stress": ("eef84070955b616f", {
        "events": 3859, "deferred_allocations": 130,
        "ps_updates": 1376, "ps_wakeups": 772,
        "dsm_page_transfers": 4685, "dsm_control_messages": 0,
        "histogram_observations": 10814,
    }),
    "flash_crowd": ("ac75e4b2f32ba074", {
        "events": 26732, "deferred_allocations": 988,
        "ps_updates": 11211, "ps_wakeups": 7981,
        "dsm_page_transfers": 37774, "dsm_control_messages": 0,
        "histogram_observations": 3316,
    }),
}


def _check(name: str) -> None:
    with work_counters() as work:
        lines = SCENARIOS[name](seed=0)
    expected_sum, budget = GOLDENS[name]
    assert checksum(lines) == expected_sum, (
        f"{name}: checksum {checksum(lines)} != golden {expected_sum}"
    )
    over = {
        counter: f"{work[counter]} != budget {count}"
        for counter, count in budget.items()
        if work[counter] != count
    }
    assert not over, f"{name} work budget: {over}"


def test_goldens_cover_every_scenario():
    assert set(GOLDENS) == set(SCENARIOS)


def test_fig3_low_load():
    _check("fig3_low_load")


def test_fig5_high_load():
    _check("fig5_high_load")


def test_fig6_throughput():
    _check("fig6_throughput")


def test_report_sweep():
    _check("report_sweep")


def test_scale_stress():
    _check("scale_stress")


def test_cohort_stress():
    _check("cohort_stress")


def test_chaos_stress():
    _check("chaos_stress")


def test_fleet_stress():
    _check("fleet_stress")


def test_flash_crowd():
    _check("flash_crowd")
