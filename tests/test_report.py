from fuzztop.report import FAIL, Report


def test_record_fail_keeps_the_first_witness():
    rep = Report("r")
    rep.record_fail("ax", "first")
    rep.record_fail("ax", "second")
    rep.record("ax", False, "third")
    rep.record_pass("ax")
    assert rep.verdicts["ax"].status == FAIL
    assert rep.verdicts["ax"].witness == "first"
    assert not rep.passed

