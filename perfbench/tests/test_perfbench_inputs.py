from collections import Counter

import zoneval

from perfbench import checks
from perfbench.inputs import DEFECT_KINDS, PAPER_ROWS_DEFECTIVE, plan_defects, read_expected, write_input


def test_defect_plan_has_the_paper_rate_and_every_kind():
    plan = plan_defects(seed=9, n=12507)
    assert len(plan) == PAPER_ROWS_DEFECTIVE
    assert len({d.row for d in plan}) == PAPER_ROWS_DEFECTIVE
    assert Counter(d.kind for d in plan) == {kind: 8 for kind in DEFECT_KINDS}
    assert plan_defects(seed=9, n=12507) == plan
    assert plan_defects(seed=10, n=12507) != plan


def test_injected_defects_are_what_clean_itemises(tmp_path):
    path = tmp_path / "paper.csv"
    expected = write_input(path, seed=9, n=12507)
    assert read_expected(path) == expected
    cleaned, report = zoneval.clean(zoneval.load_parcels(path))
    assert report.rows_in == 12507 and report.rows_kept == 12475 == len(cleaned)
    assert checks.check_clean(report, expected) == []


def test_small_market_report_matches(small_market):
    _cleaned, report = zoneval.clean(zoneval.load_parcels(small_market))
    expected = read_expected(small_market)
    assert report.rows_dropped == 2
    assert checks.check_clean(report, expected) == []
    assert checks.check_clean(report, dict(expected, rows_dropped=3))
